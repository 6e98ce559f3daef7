//! What a run prints: a context line a reader needs to compare runs, the
//! metrics by name and unit with their sample counts and quartiles, and
//! — last — the one-line JSON result the harness reads.

use gridq_benchmark::catalogue::{END_TO_END, PER_LAYER};
use gridq_benchmark::stats::{percentile, sorted, supported_percentile, Summary};
use gridq_obs::json::{num, JsonObj};

use crate::measure::Phase;
use crate::workloads::nproc;

/// A metric value with the samples behind it, when it has any.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<Summary>,
}

/// The end-to-end metrics of one measured phase, in catalogue order.
pub fn end_to_end<F>(
    phase: &Phase<F>,
    tuples_per_op: u64,
    peak_rss_mb: f64,
    setups_s: &[f64],
) -> Vec<Metric> {
    let lat = sorted(&phase.wall_ms);
    let lat_summary = Summary::of(&phase.wall_ms);
    let ok_ops = phase.attempted.saturating_sub(phase.failed);
    let setup = Summary::of(setups_s);
    let value = |name: &str| -> (f64, Option<Summary>) {
        match name {
            "response_ms_p50" => (percentile(&lat, 50.0).unwrap_or(0.0), lat_summary),
            "response_ms_p99" => (
                supported_percentile(&lat, 99.0, 10).unwrap_or(0.0),
                lat_summary,
            ),
            "tuples_per_s" => (
                (ok_ops * tuples_per_op) as f64 / phase.wall_s.max(f64::MIN_POSITIVE),
                None,
            ),
            "cpu_ms" => (phase.cpu_ms / phase.attempted.max(1) as f64, None),
            "peak_rss_mb" => (peak_rss_mb, None),
            "setup_s" => (setup.map_or(0.0, |s| s.median), setup),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        }
    };
    END_TO_END
        .iter()
        .map(|m| {
            let (value, samples) = value(m.name);
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                samples,
            }
        })
        .collect()
}

/// Per-layer values in catalogue order; a layer the workload does not
/// exercise reads 0.
pub fn per_layer(values: &std::collections::BTreeMap<&'static str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: values.get(m.name).copied().unwrap_or(0.0),
            samples: None,
        })
        .collect()
}

/// Everything a reader needs to compare two runs, as one JSON line.
pub struct Context<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub sessions: u64,
    pub sizes: &'a [(&'static str, u64)],
    pub repetitions: u64,
}

impl Context<'_> {
    pub fn to_json(&self) -> String {
        let mut sizes = JsonObj::new();
        for (k, v) in self.sizes {
            sizes.int(k, *v);
        }
        let mut o = JsonObj::new();
        o.str("kind", "context")
            .str("workload", self.workload)
            .int("seed", self.seed)
            .num("seconds", self.seconds)
            .bool("traced", self.traced)
            .bool("quick", self.quick)
            .int("nproc", nproc() as u64)
            .int("sessions", self.sessions)
            .str("rustc", env!("GRIDQ_BENCHMARK_RUSTC"))
            .str("git_commit", &git_commit())
            .raw("input", &sizes.finish())
            .int("repetitions", self.repetitions);
        o.finish()
    }
}

/// The checked-out commit, read from `.git` by hand (the harness's
/// checkout is not a repository, and then this is "unknown").
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One metric as a human-readable row.
pub fn print_metric(m: &Metric) {
    match &m.samples {
        Some(s) => println!(
            "  {:<44} {:>16.4} {:<6} n={} q1={:.4} median={:.4} q3={:.4} min={:.4} max={:.4}",
            m.name, m.value, m.unit, s.count, s.q1, s.median, s.q3, s.min, s.max
        ),
        None => println!("  {:<44} {:>16.4} {:<6}", m.name, m.value, m.unit),
    }
}

/// The same metrics with their samples, as one JSON line.
pub fn samples_json(metrics: &[Metric]) -> String {
    let mut o = JsonObj::new();
    o.str("kind", "samples");
    for m in metrics {
        let mut e = JsonObj::new();
        e.num("value", m.value).str("unit", m.unit);
        if let Some(s) = &m.samples {
            e.int("n", s.count as u64)
                .num("min", s.min)
                .num("q1", s.q1)
                .num("median", s.median)
                .num("q3", s.q3)
                .num("max", s.max);
        }
        o.raw(m.name, &e.finish());
    }
    o.finish()
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut ms = JsonObj::new();
    for m in metrics {
        let mut e = JsonObj::new();
        e.raw("value", &num(m.value)).str("unit", m.unit);
        ms.raw(m.name, &e.finish());
    }
    let mut o = JsonObj::new();
    o.bool("correct", failed == 0)
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", &ms.finish());
    o.finish()
}
