//! The benchmark's instruments: the wall clock, the process CPU meter
//! and the peak resident set, plus the repetition loop built on them.

use std::time::Instant;

use gridq_benchmark::procfs;

/// Wall clock of one benchmark process; every timestamp is nanoseconds
/// since it started.
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// User+system CPU the process has used so far, in clock ticks.
pub fn cpu_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| procfs::cpu_ticks(&s))
        .unwrap_or(0)
}

/// Peak resident set of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| procfs::status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// What one operation reported about itself.
pub struct Op<F> {
    /// Caller-side wall time, milliseconds.
    pub wall_ms: f64,
    /// Why the operation counts as failed; empty when it was correct.
    pub failures: Vec<String>,
    /// Whatever the traced pass wants from the executor's report.
    pub facts: F,
}

/// The samples of one measured phase.
pub struct Phase<F> {
    /// Wall time of every operation, milliseconds, in run order.
    pub wall_ms: Vec<f64>,
    /// Wall time the phase is charged: the sum of the operations for a
    /// sequential caller, the phase's own span for concurrent callers.
    pub wall_s: f64,
    /// CPU the process burned inside the operations, milliseconds.
    pub cpu_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the human reader.
    pub reasons: Vec<String>,
    /// Facts of every operation, in run order.
    pub facts: Vec<F>,
}

impl<F> Phase<F> {
    pub fn record(&mut self, op: Op<F>) {
        self.attempted += 1;
        if !op.failures.is_empty() {
            self.failed += 1;
            for reason in op.failures {
                if self.reasons.len() < 8 {
                    self.reasons.push(reason);
                }
            }
        }
        self.wall_ms.push(op.wall_ms);
        self.facts.push(op.facts);
    }

    pub fn empty() -> Self {
        Phase {
            wall_ms: Vec::new(),
            wall_s: 0.0,
            cpu_ms: 0.0,
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
            facts: Vec::new(),
        }
    }
}

/// Runs `run` back to back from one caller thread: one unmeasured
/// warm-up, then repetitions until both `seconds` have passed and
/// `min_reps` are in. `run` returns its caller-side wall time and the
/// executor's report; `check` turns the report into failures and facts.
/// CPU is metered around `run` alone, so checking a result is charged to
/// neither clock.
pub fn repeat_sequential<R, F>(
    clock: &Clock,
    seconds: f64,
    min_reps: usize,
    mut run: impl FnMut() -> (f64, R),
    mut check: impl FnMut(R) -> (Vec<String>, F),
) -> Phase<F> {
    let mut phase = Phase::empty();
    let (_, warm) = run();
    let (warm_failures, _) = check(warm);
    let started = clock.secs();
    let mut ticks = 0u64;
    while phase.wall_ms.len() < min_reps || clock.secs() - started < seconds {
        let before = cpu_ticks();
        let (wall_ms, report) = run();
        ticks += cpu_ticks().saturating_sub(before);
        let (failures, facts) = check(report);
        phase.wall_s += wall_ms / 1000.0;
        phase.record(Op {
            wall_ms,
            failures,
            facts,
        });
    }
    phase.cpu_ms = procfs::ticks_to_ms(ticks);
    if !warm_failures.is_empty() {
        // A wrong warm-up is still a wrong answer from the program.
        phase.attempted += 1;
        phase.failed += 1;
        phase.reasons.extend(warm_failures.into_iter().take(2));
    }
    phase
}
