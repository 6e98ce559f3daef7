//! Fault-injection hooks.
//!
//! `gridq-common` sits below every other crate, so it cannot depend on
//! the chaos harness in `gridq-chaos`. Instead it defines the narrow
//! [`ChaosHook`] trait that the two execution substrates consult at
//! their injection seams (exchange-buffer sends, checkpoint acks,
//! monitoring notifications, recall control replies, per-tuple work);
//! `gridq-chaos` implements it for a seeded fault plan. With no hook
//! installed every seam takes the `Deliver`/no-stall default, so the
//! instrumented paths are behaviorally identical to the uninstrumented
//! ones.
//!
//! The fault model matches what the architecture survives: checkpoint
//! acknowledgements are per-window and producers *retransmit* windows
//! whose acks never arrive, so dropped or duplicated data-plane buffers
//! are recovered by the at-least-once transport and absorbed by
//! consumer-side deduplication. Crashing a worker outright
//! ([`ChaosHook::crash_worker`]) is survivable too when failover is
//! enabled: the dying worker reports its crash on the way out and its
//! recovery-log entries replay to the survivors. The one deliberately
//! unrecoverable combination — a crash with no failover (static policy)
//! — exists so the oracle layer can prove data loss fails loudly.

use std::fmt;

/// What to do with a message about to be delivered at a chaos seam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetAction {
    /// Deliver normally (the default everywhere).
    Deliver,
    /// Silently discard the message.
    Drop,
    /// Deliver after an extra delay (virtual ms in the simulator,
    /// wall-clock ms scaled like other costs in the threaded executor).
    DelayMs(f64),
    /// Deliver the message twice.
    Duplicate,
}

/// Which best-effort monitoring notification is about to be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyKind {
    /// An M1 (workload / queue-length style) raw monitoring event.
    M1,
    /// An M2 (cost / throughput style) raw monitoring event.
    M2,
}

/// Where a thread stall is about to be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallSite {
    /// A producer (source scan / staging) step.
    Producer,
    /// A consumer (operator evaluation) step.
    Consumer,
}

/// Which recall-protocol control reply is about to be sent by a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecallPhase {
    /// The `Drained` reply acknowledging a drain marker.
    Drain,
    /// The `MigrateDone` reply acknowledging state migration.
    Migrate,
}

/// Fault-injection decisions consulted by the execution substrates.
///
/// Every method has a pass-through default, so an installed hook only
/// needs to override the seams its plan targets. Implementations must be
/// cheap and thread-safe: the threaded executor calls them from producer,
/// consumer, and adaptivity threads concurrently. `source`/`dest`/
/// `index`/`worker` arguments are substrate-level partition indices
/// (producer/source index, consumer/worker index), letting a plan target
/// one edge of the exchange without knowing substrate internals.
pub trait ChaosHook: fmt::Debug + Send + Sync {
    /// Decides the fate of a data-plane buffer from producer `source`
    /// to consumer `dest`.
    fn on_data(&self, source: usize, dest: usize) -> NetAction {
        let _ = (source, dest);
        NetAction::Deliver
    }

    /// Decides the fate of a checkpoint acknowledgment for source
    /// stream `source`, observed at worker `worker`.
    fn on_ack(&self, source: usize, worker: usize) -> NetAction {
        let _ = (source, worker);
        NetAction::Deliver
    }

    /// Returns `false` to lose the monitoring notification of the given
    /// kind originating at partition `index`.
    fn on_notification(&self, kind: NotifyKind, index: usize) -> bool {
        let _ = (kind, index);
        true
    }

    /// Returns `false` to lose worker `worker`'s control reply for the
    /// given recall phase (the coordinator then times out and aborts the
    /// recall; the gate reopens and the data plane continues).
    fn on_recall_ctrl(&self, phase: RecallPhase, worker: usize) -> bool {
        let _ = (phase, worker);
        true
    }

    /// Extra per-step stall (ms) to inject at `site` for partition
    /// `index`; `0.0` injects nothing.
    fn stall_ms(&self, site: StallSite, index: usize) -> f64 {
        let _ = (site, index);
        0.0
    }

    /// Returns `true` to kill consumer `worker` right now. The threaded
    /// executor consults this once per received message; on `true` the
    /// consumer returns immediately — no flush, no acknowledgements, no
    /// control replies — exactly as if its node died. With failover
    /// enabled its one exit notice (a crash, not a clean finish) then
    /// drives recovery; without it the run degrades gracefully and the
    /// conservation oracle reports the loss.
    fn crash_worker(&self, worker: usize) -> bool {
        let _ = worker;
        false
    }

    /// Returns `true` to tear the socket connection to worker `worker`
    /// down immediately before the next data frame is written (socket
    /// substrate only). The worker observes EOF, reconnects, and the
    /// link layer retransmits the unacknowledged outbox suffix.
    fn conn_drop(&self, worker: usize) -> bool {
        let _ = worker;
        false
    }

    /// Returns `true` to write the next data frame to worker `worker` in
    /// deliberately tiny chunks (socket substrate only), exercising the
    /// incremental frame decoder against short writes that split headers
    /// and payloads at arbitrary byte boundaries.
    fn partial_write(&self, worker: usize) -> bool {
        let _ = worker;
        false
    }

    /// Extra stall (model ms, scaled like other costs) that worker
    /// `worker` injects before every socket read (socket substrate
    /// only). A slow peer stops draining its receive buffer, TCP flow
    /// control pushes back on the coordinator's writer, and the
    /// producer-side SPSC rings fill until producers park.
    fn slow_peer_stall_ms(&self, worker: usize) -> f64 {
        let _ = worker;
        0.0
    }
}

/// A hook that injects nothing — usable wherever a concrete default is
/// handy (tests, documentation examples).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullChaos;

impl ChaosHook for NullChaos {}

#[cfg(test)]
// The defaults return exact literals (0.0, Deliver); bit-exact equality
// is the intended assertion.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn null_chaos_defaults_are_pass_through() {
        let hook: std::sync::Arc<dyn ChaosHook> = std::sync::Arc::new(NullChaos);
        assert_eq!(hook.on_data(0, 1), NetAction::Deliver);
        assert_eq!(hook.on_ack(0, 1), NetAction::Deliver);
        assert!(hook.on_notification(NotifyKind::M1, 0));
        assert!(hook.on_notification(NotifyKind::M2, 3));
        assert!(hook.on_recall_ctrl(RecallPhase::Drain, 2));
        assert!(hook.on_recall_ctrl(RecallPhase::Migrate, 2));
        assert_eq!(hook.stall_ms(StallSite::Producer, 0), 0.0);
        assert_eq!(hook.stall_ms(StallSite::Consumer, 1), 0.0);
        assert!(!hook.crash_worker(0));
        assert!(!hook.conn_drop(0));
        assert!(!hook.partial_write(1));
        assert_eq!(hook.slow_peer_stall_ms(2), 0.0);
    }
}
