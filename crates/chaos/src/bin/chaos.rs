//! The chaos harness CLI: runs the scenario matrix for a set of seeds,
//! shrinks any failing plan to a minimal reproducer, prints one line per
//! cell, and optionally writes the full JSON report.
//!
//! ```text
//! chaos [--seeds 1,7,1303] [--socket] [--json-out report.json]
//! ```
//!
//! `--socket` swaps the classic sim/threaded matrix for the
//! socket-substrate matrix (node crashes, deaths mid-recall, partial
//! writes, slow peers over real sockets) so CI can run the two surfaces
//! as separate jobs with separate artifacts.
//!
//! `GRIDQ_CHAOS_SEED=<n>` overrides `--seeds` with a single seed — the
//! replay knob for a failure reported by CI: the same seed regenerates
//! the same plans and the same runs on both substrates.
//!
//! Exit status is non-zero when any cell fails, so CI can gate on it.

use gridq_chaos::{matrix, shrink_failure, socket_matrix, Runner, ScenarioOutcome};

fn main() {
    let mut seeds: Vec<u64> = vec![1, 7, 1303];
    let mut json_out: Option<String> = None;
    let mut socket = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                let list = args.next().unwrap_or_default();
                match parse_seeds(&list) {
                    Ok(parsed) => seeds = parsed,
                    Err(e) => {
                        eprintln!("chaos: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--json-out" => match args.next() {
                Some(path) => json_out = Some(path),
                None => {
                    eprintln!("chaos: --json-out requires a path");
                    std::process::exit(2);
                }
            },
            "--socket" => socket = true,
            "--help" | "-h" => {
                println!("usage: chaos [--seeds 1,7,1303] [--socket] [--json-out report.json]");
                println!("       --socket runs the socket-substrate matrix instead");
                println!("env:   GRIDQ_CHAOS_SEED=<n> replays a single seed's matrix");
                return;
            }
            other => {
                eprintln!("chaos: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    if let Ok(replay) = std::env::var("GRIDQ_CHAOS_SEED") {
        match replay.trim().parse::<u64>() {
            Ok(seed) => {
                println!("replaying seed {seed} (GRIDQ_CHAOS_SEED)");
                seeds = vec![seed];
            }
            Err(_) => {
                eprintln!("chaos: GRIDQ_CHAOS_SEED must be an integer, got `{replay}`");
                std::process::exit(2);
            }
        }
    }

    let mut runner = Runner::new();
    let mut outcomes: Vec<ScenarioOutcome> = Vec::new();
    let mut failures = 0usize;
    for &seed in &seeds {
        let cells = if socket {
            socket_matrix(seed)
        } else {
            matrix(seed)
        };
        for scenario in cells {
            let outcome = runner.run_scenario(scenario);
            let outcome = if outcome.passed() {
                outcome
            } else {
                failures += 1;
                let minimal = shrink_failure(&mut runner, scenario, outcome);
                println!(
                    "FAIL {} ({} event reproducer): {}",
                    scenario.label(),
                    minimal.plan.events.len(),
                    minimal.plan.to_json()
                );
                minimal
            };
            println!(
                "{} {:<40} {} fault(s) fired, {:.0} ms{}",
                if outcome.passed() { "pass" } else { "FAIL" },
                scenario.label(),
                outcome.fired_events,
                outcome.wall_ms,
                outcome
                    .error
                    .as_deref()
                    .map(|e| format!(" — {e}"))
                    .unwrap_or_default(),
            );
            outcomes.push(outcome);
        }
    }

    if let Some(path) = json_out {
        let body: Vec<String> = outcomes.iter().map(ScenarioOutcome::to_json).collect();
        let json = format!("[{}]", body.join(",\n"));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("chaos: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("report written to {path}");
    }

    println!(
        "{} scenario(s), {} failure(s), seeds {:?}",
        outcomes.len(),
        failures,
        seeds
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

fn parse_seeds(list: &str) -> Result<Vec<u64>, String> {
    let seeds: Vec<u64> = list
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse::<u64>()
                .map_err(|_| format!("invalid seed `{s}`"))
        })
        .collect::<Result<_, _>>()?;
    if seeds.is_empty() {
        return Err("--seeds requires a comma-separated list of integers".into());
    }
    Ok(seeds)
}
