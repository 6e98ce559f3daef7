//! Fault-injection hooks.
//!
//! `gridq-common` sits below every other crate, so it cannot depend on
//! the chaos harness in `gridq-chaos`. Instead it defines the narrow
//! [`ChaosHook`] trait that every execution substrate consults at its
//! injection seams (exchange-buffer sends, checkpoint acks, monitoring
//! notifications, per-tuple work, a worker's received messages — a
//! recall's `Drain` and `Migrate` among them — and on sockets the frame
//! writes and reads);
//! `gridq-chaos` implements it for a seeded fault plan. With no hook
//! installed every seam takes the `Deliver`/no-stall default, so the
//! instrumented paths are behaviorally identical to the uninstrumented
//! ones.
//!
//! The fault model matches what the architecture survives: every
//! channel is FIFO until it dies, so the data plane is delayed or
//! duplicated but never silently lossy — a duplicated buffer is absorbed
//! by consumer-side deduplication, and a checkpoint acknowledgement may
//! be delayed or duplicated. A producer ends its stream once every
//! window is acknowledged or its destination is dead; nothing is
//! retransmitted on a timer. Crashing a worker outright
//! ([`ChaosHook::crash_worker`], the one death on every substrate) is
//! survivable too when failover is enabled: the death is reported (by
//! the dying consumer on threads, by the coordinator's reader of a
//! socket worker's ended connection) and the worker's recovery-log
//! entries replay to the survivors. The same report answers any recall
//! barrier the worker owed a reply, so a death mid-recall — the seam
//! firing on a `Drain` or a `Migrate` — ends that barrier at once
//! instead of leaving it to wait. The one deliberately
//! unrecoverable combination — a crash with no failover (static policy)
//! — exists so the oracle layer can prove data loss fails loudly.

use std::fmt;

/// What to do with a message about to be delivered at a chaos seam.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetAction {
    /// Deliver normally (the default everywhere).
    Deliver,
    /// Deliver after an extra delay (virtual ms in the simulator,
    /// wall-clock ms scaled like other costs in the threaded executor).
    DelayMs(f64),
    /// Deliver the message twice.
    Duplicate,
}

/// Which best-effort monitoring notification is about to be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NotifyKind {
    /// An M1 (workload / queue-length style) raw monitoring event.
    M1,
    /// An M2 (cost / throughput style) raw monitoring event.
    M2,
}

/// Where a thread stall is about to be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallSite {
    /// A producer (source scan / staging) step.
    Producer,
    /// A consumer (operator evaluation) step.
    Consumer,
}

/// A round of the recall protocol: which command a worker is receiving,
/// and which reply it owes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecallPhase {
    /// The drain barrier, answered `Drained`.
    Drain,
    /// The state migration command, answered `MigrateDone`.
    Migrate,
}

/// Fault-injection decisions consulted by the execution substrates.
///
/// Every method has a pass-through default, so an installed hook only
/// needs to override the seams its plan targets. Implementations must be
/// cheap and thread-safe: the threaded executor calls them from producer,
/// consumer, and adaptivity threads concurrently; the simulator calls
/// the same seams in virtual-time order, so one fault plan means the
/// same faults on either. `source`/`dest`/
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

    /// Extra per-step stall (ms) to inject at `site` for partition
    /// `index`; `0.0` injects nothing.
    fn stall_ms(&self, site: StallSite, index: usize) -> f64 {
        let _ = (site, index);
        0.0
    }

    /// Returns `true` to kill consumer `worker` right now, as it receives
    /// a message: `recall` names the round when that message is a
    /// recall's `Drain` or `Migrate`, and is `None` for data and every
    /// other control message. The threaded executor consults this once
    /// per received message; on `true` the consumer returns immediately —
    /// no flush, no acknowledgements, no control replies — exactly as if
    /// its node died. Its death is reported as it dies: it answers any
    /// recall barrier it owed a reply, and with failover enabled it
    /// drives recovery; without failover the run degrades gracefully and
    /// the conservation oracle reports the loss. The simulator consults
    /// it once per buffer arriving at live partition `worker` (a block,
    /// an end-of-stream, a recall or failover transfer) and once per live partition and round of each
    /// retrospective deploy, and on `true` fails that partition's node
    /// at that instant; it always fails over. The socket substrate
    /// consults it at the link thread, once per message relayed to
    /// worker `worker` (a data item, a recall command or re-delivery;
    /// not the opening `CONFIG` nor the release), and on `true` ends the
    /// connection before that message: the coordinator's reader reports
    /// the death. On every substrate a death on a `Drain` abandons the
    /// recall, and one on a `Migrate` leaves it deployed but not
    /// completed.
    fn crash_worker(&self, worker: usize, recall: Option<RecallPhase>) -> bool {
        let _ = (worker, recall);
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
        assert_eq!(hook.stall_ms(StallSite::Producer, 0), 0.0);
        assert_eq!(hook.stall_ms(StallSite::Consumer, 1), 0.0);
        assert!(!hook.crash_worker(0, None));
        assert!(!hook.crash_worker(2, Some(RecallPhase::Drain)));
        assert!(!hook.crash_worker(2, Some(RecallPhase::Migrate)));
        assert!(!hook.partial_write(1));
        assert_eq!(hook.slow_peer_stall_ms(2), 0.0);
    }
}
