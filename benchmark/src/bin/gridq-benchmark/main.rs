//! `gridq-benchmark`: one benchmark for the engine, measured from outside.
//!
//! ```text
//! gridq-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
//! gridq-benchmark [--seed N] [--seconds S] [--traced] [--quick]      all four, each in a fresh child
//! gridq-benchmark repeat [--seed N] [--seconds S] [--quick]          the suite twice, compared
//! gridq-benchmark describe                                           BENCHMARK.json, from the catalogue
//! ```
//!
//! Every run prints its metrics by name and unit and ends with one JSON
//! line: `correct`, `attempted`, `failed`, `metrics`. Run it from the
//! repository root; sockets and span files go under `.bench_build/run`.

mod inputs;
mod measure;
mod report;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use gridq_benchmark::catalogue::{self, END_TO_END, RUN_SECONDS, WORKLOADS};
use gridq_benchmark::stats::worse_by;
use gridq_obs::Json;

use inputs::Sizes;
use measure::{repeat_sequential, Clock};
use report::{Context, Metric};
use workloads::{
    Q1NullThreaded, Q2PerturbedThreaded, Q2RecallSockets, ServiceMixed, Variant, WholeQuery,
};

/// Where a run keeps what it leaves behind, relative to the directory it
/// is started from. Relative on purpose: Unix socket paths are capped at
/// about a hundred bytes, and a checkout's absolute path may be longer.
const SCRATCH: &str = ".bench_build/run";

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

enum Cmd {
    Run(Opts),
    Repeat(Opts),
    Describe,
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut seconds_given = false;
    let mut sub = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; known: {known:?}"));
                }
                opts.workload = Some(name);
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 || opts.seconds > 120.0 {
                    return Err("--seconds must be between 0 and 120".into());
                }
                seconds_given = true;
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--traced" => opts.trace = true,
            "--quick" => opts.quick = true,
            "repeat" | "describe" if sub.is_none() => sub = Some(arg.as_str()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.quick && !seconds_given {
        opts.seconds = 1.0;
    }
    Ok(match sub {
        Some("describe") => Cmd::Describe,
        Some("repeat") => Cmd::Repeat(opts),
        _ => Cmd::Run(opts),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Err(msg) => {
            eprintln!("gridq-benchmark: {msg}");
            return ExitCode::from(2);
        }
        Ok(Cmd::Describe) => {
            print!("{}", catalogue::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Ok(Cmd::Repeat(opts)) => repeat(&opts),
        Ok(Cmd::Run(opts)) => match opts.workload.clone() {
            Some(name) => run_workload(&name, &opts),
            None => suite(&opts).map(|docs| docs.iter().all(|d| d.correct)),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("gridq-benchmark: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Points the socket substrate's scratch addresses (it binds Unix sockets
/// under `std::env::temp_dir()`) into the checkout.
fn prepare_scratch() -> Result<(), String> {
    std::fs::create_dir_all(SCRATCH).map_err(|e| format!("cannot create {SCRATCH}: {e}"))?;
    // Before any thread exists, so no other thread can be reading the
    // environment.
    std::env::set_var("TMPDIR", SCRATCH);
    Ok(())
}

/// Seconds of repeated set-ups on each side of the measured phase.
const SETUP_WINDOW_S: f64 = 2.0;

/// Sets a workload up repeatedly — at least `at_least` times and for
/// [`SETUP_WINDOW_S`] seconds — and keeps the last copy. `setup_s` is the
/// median of all the samples, so one slow allocation does not read as a
/// regression; the median of three 3 ms samples would be noise, that of a
/// few hundred is not.
fn set_up<W>(
    clock: &Clock,
    at_least: usize,
    setup: impl Fn(&Clock) -> gridq_common::Result<W>,
    samples: &mut Vec<f64>,
) -> Result<W, String> {
    let started = clock.secs();
    let mut kept = None;
    for done in 1.. {
        // Free the previous copy first: two live copies would double the
        // peak resident set.
        drop(kept.take());
        let t0 = clock.secs();
        kept = Some(setup(clock).map_err(|e| format!("set-up failed: {e}"))?);
        samples.push(clock.secs() - t0);
        if done >= at_least && clock.secs() - started >= SETUP_WINDOW_S {
            break;
        }
    }
    Ok(kept.expect("set up at least once"))
}

/// What a finished run has to show, whichever pass produced it.
struct Outcome {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn measured<F>(
        phase: measure::Phase<F>,
        tuples_per_op: u64,
        peak_rss_mb: f64,
        setups: &[f64],
    ) -> Self {
        Outcome {
            metrics: report::end_to_end(&phase, tuples_per_op, peak_rss_mb, setups),
            attempted: phase.attempted,
            failed: phase.failed,
            reasons: phase.reasons,
        }
    }

    fn traced(traced: trace::Traced) -> Self {
        Outcome {
            metrics: report::per_layer(&traced.values),
            attempted: traced.attempted,
            failed: traced.failed,
            reasons: traced.reasons,
        }
    }
}

/// Prints a finished run; the result line goes last.
fn print_run(
    name: &str,
    opts: &Opts,
    sessions: usize,
    sizes: &[(&'static str, u64)],
    run: &Outcome,
) -> bool {
    println!(
        "{}",
        Context {
            workload: name,
            seed: opts.seed,
            seconds: opts.seconds,
            traced: opts.trace,
            quick: opts.quick,
            sessions: sessions as u64,
            sizes,
            repetitions: run.attempted,
        }
        .to_json()
    );
    let kind = if opts.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!("{name} — {kind} metrics (seed {}):", opts.seed);
    for m in &run.metrics {
        report::print_metric(m);
    }
    let share = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "  {:<44} {:>16.4} ratio  ({} failed of {} attempted)",
        "failed_share", share, run.failed, run.attempted
    );
    for reason in &run.reasons {
        println!("  FAILED: {reason}");
    }
    println!("{}", report::samples_json(&run.metrics));
    println!(
        "{}",
        report::result_line(run.attempted, run.failed, &run.metrics)
    );
    run.failed == 0
}

/// The untraced run of any workload: set-ups, the measured phase, and —
/// once the workload's memory is given back — a second window of
/// set-ups, so that `setup_s` samples the machine at both ends of the run
/// and not only during its first two seconds.
fn measure_untraced<W, F>(
    clock: &Clock,
    setup: impl Fn(&Clock) -> gridq_common::Result<W>,
    tuples_per_op: impl Fn(&W) -> u64,
    phase: impl FnOnce(&W) -> Result<measure::Phase<F>, String>,
) -> Result<(W, Outcome), String> {
    let mut setups = Vec::new();
    let w = set_up(clock, 3, &setup, &mut setups)?;
    let phase = phase(&w)?;
    let peak_rss_mb = measure::peak_rss_mb();
    let tuples = tuples_per_op(&w);
    drop(w);
    let w = set_up(clock, 1, &setup, &mut setups)?;
    Ok((w, Outcome::measured(phase, tuples, peak_rss_mb, &setups)))
}

fn run_whole<W: WholeQuery>(
    name: &str,
    opts: &Opts,
    sizes: &Sizes,
    setup: impl Fn(&Clock) -> gridq_common::Result<W>,
) -> Result<bool, String> {
    let clock = Clock::start();
    let (w, outcome) = if opts.trace {
        let w = setup(&clock).map_err(|e| format!("set-up failed: {e}"))?;
        let traced = trace::whole_query(name, &w, &clock, opts.seconds, sizes, opts.seed)?;
        (w, Outcome::traced(traced))
    } else {
        measure_untraced(&clock, setup, W::tuples, |w| {
            Ok(repeat_sequential(
                &clock,
                opts.seconds,
                sizes.min_reps,
                || w.run(&clock, Variant::Plain),
                |r| w.check(r, Variant::Plain),
            ))
        })?
    };
    Ok(print_run(name, opts, 1, &w.sizes(), &outcome))
}

fn run_service(name: &str, opts: &Opts, sizes: &Sizes) -> Result<bool, String> {
    let clock = Clock::start();
    let setup = |clock: &Clock| ServiceMixed::setup(clock, sizes, opts.seed);
    let (w, outcome) = if opts.trace {
        let w = setup(&clock).map_err(|e| format!("set-up failed: {e}"))?;
        let traced = trace::service(name, &w, &clock, opts.seconds, sizes, opts.seed)?;
        (w, Outcome::traced(traced))
    } else {
        measure_untraced(
            &clock,
            setup,
            |w| w.input.tuples,
            |w| {
                let service = w.service().map_err(|e| e.to_string())?;
                // One unmeasured query per session and substrate warms
                // allocator and caches.
                w.run_phase(&clock, &service, 0.0, 2 * w.sessions, Variant::Plain);
                Ok(w.run_phase(
                    &clock,
                    &service,
                    opts.seconds,
                    sizes.min_queries,
                    Variant::Plain,
                ))
            },
        )?
    };
    Ok(print_run(name, opts, w.sessions, &w.sizes(), &outcome))
}

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &Opts) -> Result<bool, String> {
    prepare_scratch()?;
    let sizes = Sizes::new(opts.quick);
    match name {
        "q1_null_threaded" => run_whole(name, opts, &sizes, |clock| {
            Q1NullThreaded::setup(clock, &sizes, opts.seed)
        }),
        "q2_recall_sockets" => run_whole(name, opts, &sizes, |clock| {
            Q2RecallSockets::setup(clock, &sizes, opts.seed)
        }),
        "q2_perturbed_r1_threaded" => run_whole(name, opts, &sizes, |clock| {
            Q2PerturbedThreaded::setup(clock, opts.seed)
        }),
        "service_mixed" => run_service(name, opts, &sizes),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// What a child run's last line said.
struct ResultDoc {
    workload: &'static str,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn parse_result(workload: &'static str, stdout: &str) -> Result<ResultDoc, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload}: no output"))?;
    let doc = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let correct = doc
        .get("correct")
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("{workload}: result line has no `correct`"))?;
    let mut metrics = Vec::new();
    let names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(catalogue::PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in names {
        if let Some(v) = doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
        {
            metrics.push((name.to_string(), v));
        }
    }
    Ok(ResultDoc {
        workload,
        correct,
        metrics,
    })
}

/// Runs all four workloads, each in a fresh child process of this same
/// binary, so no workload inherits another's heap, threads or page cache
/// state, and `peak_rss_mb` belongs to one workload.
fn suite(opts: &Opts) -> Result<Vec<ResultDoc>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut docs = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if opts.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("{}: cannot start child: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if out.stdout.is_empty() {
            return Err(format!("{}: child exited with {}", w.name, out.status));
        }
        docs.push(parse_result(w.name, &stdout)?);
    }
    println!("suite summary (seed {}):", opts.seed);
    for d in &docs {
        // The end-to-end values at a glance; a traced pass's sixty
        // per-layer values are in its own output above.
        let shown: Vec<String> = d
            .metrics
            .iter()
            .filter(|(n, _)| END_TO_END.iter().any(|m| m.name == n))
            .map(|(n, v)| format!("{n}={v:.4}"))
            .collect();
        println!(
            "  {:<26} {} {}",
            d.workload,
            if d.correct { "ok    " } else { "FAILED" },
            shown.join(" ")
        );
    }
    Ok(docs)
}

/// The untraced suite twice on one seed: exits non-zero, naming metric
/// and workload, if any end-to-end metric moved by more than its bound
/// between two runs of the same program (`--quick` skips the bounds and
/// only smoke-tests).
fn repeat(opts: &Opts) -> Result<bool, String> {
    let opts = Opts {
        trace: false,
        workload: None,
        ..opts.clone()
    };
    let first = suite(&opts)?;
    let second = suite(&opts)?;
    let mut ok = first.iter().chain(&second).all(|d| d.correct);
    if !ok {
        println!("repeat: a run reported failed operations");
    }
    if opts.quick {
        return Ok(ok);
    }
    for (a, b) in first.iter().zip(&second) {
        for m in END_TO_END {
            let find = |d: &ResultDoc| {
                d.metrics
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("{}: no {} in result", d.workload, m.name))
            };
            let (x, y) = (find(a)?, find(b)?);
            let moved = worse_by(x, y, m.better);
            let verdict = if moved.abs() > m.bound {
                ok = false;
                "OUT OF BOUND"
            } else {
                "ok"
            };
            println!(
                "repeat: {:<26} {:<16} {x:>14.4} -> {y:>14.4} {:+.2}% (bound {:.0}%) {verdict}",
                a.workload,
                m.name,
                moved * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(ok)
}
