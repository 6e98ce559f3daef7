//! Failure detection for the threaded executor.
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
//! Wall-clock use is confined to this module's [`HeartbeatMonitor`]
//! (leases are real-time by nature); the simulator keeps its failure
//! model in virtual time.

use std::time::{Duration, Instant};

use gridq_common::{GridError, Result};

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

// The retry policy and the gap record live in `gridq-recovery`, so every
// substrate backs off and reports the same way.
pub use gridq_recovery::{DeliveryGap, RetryPolicy};

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
    fn failover_config_validates_its_bounds() {
        assert!(FailoverConfig::default().validate().is_ok());
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
