//! Failure detection and delivery-retry policy for the threaded executor.
//!
//! The simulator realises node failure as a virtual-time `NodeFail`
//! event; real threads need an actual detector. [`HeartbeatMonitor`] is
//! lease-based: every consumer pushes a beat through the monitoring
//! channel on each receive-loop iteration, the adaptivity thread renews
//! the worker's lease on arrival and checks all leases between events,
//! and a worker whose lease expires without a clean `Done` is declared
//! dead — which triggers the failover recall in `lib.rs` (drain the
//! survivors, redistribute away from the dead partition, replay its
//! recovery-log entries, resume under a bumped epoch).
//!
//! [`RetryBackoff`] is the delivery-retry schedule used by producers
//! waiting on window acknowledgements: seeded, jittered exponential
//! backoff. The jitter comes from [`DetRng`] seeded with [`JITTER_SEED`],
//! so a given source index always yields the same schedule — chaos runs
//! stay reproducible down to retransmission timing.
//!
//! Wall-clock use is confined to this module's [`HeartbeatMonitor`]
//! (leases are real-time by nature); the simulator keeps its failure
//! model in virtual time.

use std::time::{Duration, Instant};

use gridq_common::{DetRng, GridError, Result};

/// Seed of the delivery-retry jitter stream; each producer forks its own
/// stream from it by source index.
const JITTER_SEED: u64 = 0x6661_696c_6f76_6572; // "failover"

/// Delivery-retry policy for unacknowledged recovery-log windows.
///
/// Active whenever the executor runs in resilient mode (a chaos hook is
/// installed or failover is enabled): after flushing its final windows a
/// producer waits out a backoff delay, retransmits any window whose ack
/// has not arrived, and repeats up to `max_retries` times before
/// recording an explicit delivery gap and completing anyway.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Base backoff delay before the first retransmission check, in
    /// wall-clock milliseconds. This is protocol pacing, not modelled
    /// query cost, so it is *not* scaled by `cost_scale`.
    pub base_ms: f64,
    /// Retransmission rounds per destination before giving up and
    /// recording a [`DeliveryGap`](crate::DeliveryGap).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ms: 25.0,
            max_retries: 6,
        }
    }
}

impl RetryPolicy {
    /// Validates the policy.
    pub fn validate(&self) -> Result<()> {
        if !self.base_ms.is_finite() || self.base_ms <= 0.0 {
            return Err(GridError::Config(format!(
                "retry base_ms must be positive and finite, got {}",
                self.base_ms
            )));
        }
        if self.max_retries == 0 {
            return Err(GridError::Config(
                "max_retries must be at least 1; use an all-drop chaos plan, \
                 not a zero retry budget, to model a dead link"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Heartbeat/lease parameters for consumer failure detection.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Enables the heartbeat layer and the failover recall. Requires R1
    /// (retrospective) adaptivity: failover rides the recall machinery.
    pub enabled: bool,
    /// How often an idle consumer beats, in wall-clock milliseconds
    /// (busy consumers beat once per message, which is faster). Also the
    /// adaptivity thread's lease-check granularity.
    pub heartbeat_ms: u64,
    /// Lease duration: a worker whose last beat is older than this is
    /// declared dead. Must comfortably exceed `heartbeat_ms` plus the
    /// worst-case per-message processing time.
    pub lease_ms: u64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            enabled: false,
            heartbeat_ms: 25,
            lease_ms: 400,
        }
    }
}

impl FailoverConfig {
    /// Validates the parameters (only when enabled).
    pub fn validate(&self) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if self.heartbeat_ms == 0 {
            return Err(GridError::Config("heartbeat_ms must be positive".into()));
        }
        if self.lease_ms < self.heartbeat_ms.saturating_mul(2) {
            return Err(GridError::Config(format!(
                "lease_ms ({}) must be at least twice heartbeat_ms ({}); a \
                 tighter lease declares healthy workers dead on scheduling \
                 noise",
                self.lease_ms, self.heartbeat_ms
            )));
        }
        Ok(())
    }
}

// The gap record itself lives in `gridq-recovery` so both substrates
// report the same type; re-exported here for the producer retry loop.
pub use gridq_recovery::DeliveryGap;

/// Deterministic jittered exponential backoff.
///
/// Attempt `k` (0-based) waits `base_ms * 2^min(k, 10)`, jittered
/// uniformly into `[0.5, 1.0)` of that nominal value. The jitter stream
/// is forked from [`JITTER_SEED`] by stream index, so concurrent
/// producers decorrelate without sharing state.
#[derive(Debug)]
pub(crate) struct RetryBackoff {
    rng: DetRng,
    base_ms: f64,
}

impl RetryBackoff {
    pub(crate) fn new(policy: &RetryPolicy, stream: u64) -> Self {
        let mut root = DetRng::seeded(JITTER_SEED);
        RetryBackoff {
            rng: root.fork(stream),
            base_ms: policy.base_ms,
        }
    }

    /// The delay in milliseconds before retry `attempt`.
    pub(crate) fn delay_ms(&mut self, attempt: u32) -> f64 {
        let nominal = self.base_ms * f64::from(1u32 << attempt.min(10));
        nominal * (0.5 + 0.5 * self.rng.uniform())
    }
}

/// Lease bookkeeping for consumer liveness, driven by the adaptivity
/// thread. `Instant`-based by design (see the module docs); this file is
/// on the `gridq-lint` wall-clock allowlist for exactly this type.
#[derive(Debug)]
pub(crate) struct HeartbeatMonitor {
    lease: Duration,
    last_beat: Vec<Instant>,
    done: Vec<bool>,
    dead: Vec<bool>,
}

impl HeartbeatMonitor {
    pub(crate) fn new(workers: usize, lease_ms: u64) -> Self {
        let now = Instant::now();
        HeartbeatMonitor {
            lease: Duration::from_millis(lease_ms),
            last_beat: vec![now; workers],
            done: vec![false; workers],
            dead: vec![false; workers],
        }
    }

    /// Renews `worker`'s lease.
    pub(crate) fn beat(&mut self, worker: usize) {
        if let Some(at) = self.last_beat.get_mut(worker) {
            *at = Instant::now();
        }
    }

    /// Marks `worker` as cleanly finished: its lease no longer applies.
    pub(crate) fn mark_done(&mut self, worker: usize) {
        if let Some(d) = self.done.get_mut(worker) {
            *d = true;
        }
    }

    /// Returns the first worker whose lease has expired, marking it dead
    /// so it is reported exactly once. Workers that finished cleanly or
    /// were already declared dead are skipped.
    pub(crate) fn expired(&mut self) -> Option<usize> {
        let now = Instant::now();
        for w in 0..self.last_beat.len() {
            if self.done[w] || self.dead[w] {
                continue;
            }
            if now.duration_since(self.last_beat[w]) > self.lease {
                self.dead[w] = true;
                return Some(w);
            }
        }
        None
    }

    pub(crate) fn is_dead(&self, worker: usize) -> bool {
        self.dead.get(worker).copied().unwrap_or(false)
    }

    pub(crate) fn is_done(&self, worker: usize) -> bool {
        self.done.get(worker).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::check::Check;

    #[test]
    fn backoff_schedule_is_deterministic_per_stream() {
        // Property: for any base, rebuilding the backoff from the same
        // policy and stream reproduces the schedule bit-for-bit, and
        // every delay stays inside the jittered exponential envelope.
        // Under a fixed GRIDQ_CHECK_SEED the generated policies — and
        // therefore the asserted schedules — are identical across runs.
        Check::new("backoff_schedule_is_deterministic")
            .cases(32)
            .run(
                |rng| 1.0 + rng.uniform() * 50.0,
                |&base_ms| {
                    let policy = RetryPolicy {
                        base_ms,
                        max_retries: 6,
                    };
                    let schedule = |stream: u64| -> Vec<f64> {
                        let mut b = RetryBackoff::new(&policy, stream);
                        (0..6).map(|k| b.delay_ms(k)).collect()
                    };
                    if schedule(0) != schedule(0) || schedule(3) != schedule(3) {
                        return Err("same stream diverged".into());
                    }
                    if schedule(0) == schedule(1) {
                        return Err("distinct streams share a jitter fork".into());
                    }
                    for (k, d) in schedule(2).into_iter().enumerate() {
                        let nominal = base_ms * f64::from(1u32 << k.min(10));
                        if !(d >= nominal * 0.5 && d < nominal) {
                            return Err(format!("attempt {k} delay {d} escapes envelope"));
                        }
                    }
                    Ok(())
                },
            );
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            base_ms: 10.0,
            max_retries: 20,
        };
        let mut b = RetryBackoff::new(&policy, 0);
        let d0 = b.delay_ms(0);
        let d5 = b.delay_ms(5);
        assert!(d5 > d0 * 8.0, "5 doublings outrun worst-case jitter");
        // Exponent caps at 2^10: attempt 10 and attempt 40 share a nominal.
        let d10 = b.delay_ms(10);
        let d40 = b.delay_ms(40);
        let nominal = 10.0 * 1024.0;
        assert!(d10 >= nominal * 0.5 && d10 < nominal);
        assert!(d40 >= nominal * 0.5 && d40 < nominal);
    }

    #[test]
    fn monitor_declares_each_silent_worker_dead_once() {
        let mut m = HeartbeatMonitor::new(3, 0);
        m.mark_done(2);
        std::thread::sleep(Duration::from_millis(2));
        let first = m.expired().expect("a silent worker expires");
        let second = m.expired().expect("the other silent worker expires");
        assert_ne!(first, second);
        assert!(m.is_dead(first) && m.is_dead(second));
        assert!(!m.is_dead(2), "done workers never expire");
        assert_eq!(m.expired(), None, "each death reported exactly once");
    }

    #[test]
    fn monitor_beat_renews_the_lease() {
        let mut m = HeartbeatMonitor::new(1, 60_000);
        m.beat(0);
        assert_eq!(m.expired(), None);
        assert!(!m.is_dead(0));
    }

    #[test]
    fn configs_validate_their_bounds() {
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(FailoverConfig::default().validate().is_ok());
        let bad = RetryPolicy {
            base_ms: 0.0,
            ..RetryPolicy::default()
        };
        assert!(bad.validate().is_err());
        let bad = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        assert!(bad.validate().is_err());
        let tight = FailoverConfig {
            enabled: true,
            heartbeat_ms: 50,
            lease_ms: 60,
        };
        assert!(tight.validate().is_err());
        let disabled = FailoverConfig {
            enabled: false,
            heartbeat_ms: 0,
            lease_ms: 0,
        };
        assert!(disabled.validate().is_ok(), "disabled skips validation");
    }
}
