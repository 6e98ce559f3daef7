//! The [`ChaosHook`] implementation driving a [`FaultPlan`].
//!
//! A [`PlanHook`] keeps one occurrence counter per seam edge (data edge,
//! ack edge, notification stream, stall site, per-worker received-message
//! count for consumer crashes and per-worker recall-command count of each
//! phase for deaths mid-recall) and
//! fires an event exactly when its edge counter reaches the event's
//! `nth`. Counters live behind the workspace's poison-recovering mutex:
//! the threaded and socket substrates call the hook from producer,
//! consumer (or link), and adaptivity threads concurrently; the
//! simulator calls it at the same seams in virtual-time order.

use std::collections::HashMap;

use gridq_common::sync::Mutex;
use gridq_common::{ChaosHook, NetAction, NotifyKind, RecallPhase, StallSite};

use crate::plan::{FaultEvent, FaultPlan};

/// Per-seam occurrence counters plus the record of fired events.
#[derive(Debug, Default)]
struct HookState {
    /// Data-buffer count per `(source, dest)` edge.
    data: HashMap<(usize, usize), u64>,
    /// Checkpoint-ack count per `(source, worker)` edge.
    acks: HashMap<(usize, usize), u64>,
    /// Notification count per `(kind, index)` stream.
    notify: HashMap<(NotifyKind, usize), u64>,
    /// Recall-command count per `(phase, worker)` (the `crash_worker`
    /// seam, asked about a `Drain` or a `Migrate`).
    recalls: HashMap<(RecallPhase, usize), u64>,
    /// Step count per `(site, index)`.
    stalls: HashMap<(StallSite, usize), u64>,
    /// Received-message count per worker (the `crash_worker` seam).
    crashes: HashMap<usize, u64>,
    /// Data-frame write count per worker connection (the socket
    /// substrate's `partial_write` seam).
    partial_writes: HashMap<usize, u64>,
    /// Indices (into the plan's event list) of events that fired.
    fired: Vec<usize>,
}

/// A [`ChaosHook`] that injects the faults of one [`FaultPlan`].
#[derive(Debug)]
pub struct PlanHook {
    events: Vec<FaultEvent>,
    state: Mutex<HookState>,
}

impl PlanHook {
    /// A hook injecting the given plan's hook-mediated events
    /// (perturbation bursts are realised by the runner, not the hook, and
    /// are simply never matched here).
    pub fn new(plan: &FaultPlan) -> PlanHook {
        PlanHook {
            events: plan.events.clone(),
            state: Mutex::new(HookState::default()),
        }
    }

    /// Indices (into the plan's event list) of events that actually
    /// fired, in firing order. An event whose `nth` occurrence never
    /// happened (e.g. a recall that was never attempted) is absent.
    pub fn fired(&self) -> Vec<usize> {
        self.state.lock().fired.clone()
    }
}

impl ChaosHook for PlanHook {
    fn on_data(&self, source: usize, dest: usize) -> NetAction {
        let mut s = self.state.lock();
        let n = {
            let c = s.data.entry((source, dest)).or_insert(0);
            *c += 1;
            *c
        };
        for (idx, event) in self.events.iter().enumerate() {
            let action = match *event {
                FaultEvent::DuplicateData {
                    source: es,
                    dest: ed,
                    nth,
                } if es == source && ed == dest && nth == n => Some(NetAction::Duplicate),
                FaultEvent::DelayData {
                    source: es,
                    dest: ed,
                    nth,
                    delay_ms,
                } if es == source && ed == dest && nth == n => Some(NetAction::DelayMs(delay_ms)),
                _ => None,
            };
            if let Some(action) = action {
                s.fired.push(idx);
                return action;
            }
        }
        NetAction::Deliver
    }

    fn on_ack(&self, source: usize, worker: usize) -> NetAction {
        let mut s = self.state.lock();
        let n = {
            let c = s.acks.entry((source, worker)).or_insert(0);
            *c += 1;
            *c
        };
        for (idx, event) in self.events.iter().enumerate() {
            let action = match *event {
                FaultEvent::DuplicateAck {
                    source: es,
                    worker: ew,
                    nth,
                } if es == source && ew == worker && nth == n => Some(NetAction::Duplicate),
                FaultEvent::DelayAck {
                    source: es,
                    worker: ew,
                    nth,
                    delay_ms,
                } if es == source && ew == worker && nth == n => Some(NetAction::DelayMs(delay_ms)),
                _ => None,
            };
            if let Some(action) = action {
                s.fired.push(idx);
                return action;
            }
        }
        NetAction::Deliver
    }

    fn on_notification(&self, kind: NotifyKind, index: usize) -> bool {
        let mut s = self.state.lock();
        let n = {
            let c = s.notify.entry((kind, index)).or_insert(0);
            *c += 1;
            *c
        };
        for (idx, event) in self.events.iter().enumerate() {
            if let FaultEvent::DropNotify {
                kind: ek,
                index: ei,
                nth,
            } = *event
            {
                if ek == kind && ei == index && nth == n {
                    s.fired.push(idx);
                    return false;
                }
            }
        }
        true
    }

    fn stall_ms(&self, site: StallSite, index: usize) -> f64 {
        let mut s = self.state.lock();
        let n = {
            let c = s.stalls.entry((site, index)).or_insert(0);
            *c += 1;
            *c
        };
        let mut total = 0.0;
        let mut fired = Vec::new();
        for (idx, event) in self.events.iter().enumerate() {
            let ms = match *event {
                FaultEvent::StallProducer {
                    source: es,
                    nth,
                    ms,
                    ..
                } if site == StallSite::Producer && es == index && nth == n => Some(ms),
                FaultEvent::StallConsumer {
                    worker: ew,
                    nth,
                    ms,
                    ..
                } if site == StallSite::Consumer && ew == index && nth == n => Some(ms),
                _ => None,
            };
            if let Some(ms) = ms {
                total += ms.max(0.0);
                fired.push(idx);
            }
        }
        s.fired.extend(fired);
        total
    }

    /// Every message counts towards `CrashConsumer`; a recall's command
    /// counts towards `CrashOnRecall` of its phase as well.
    fn crash_worker(&self, worker: usize, recall: Option<RecallPhase>) -> bool {
        let mut s = self.state.lock();
        let n = {
            let c = s.crashes.entry(worker).or_insert(0);
            *c += 1;
            *c
        };
        let in_phase = recall.map(|phase| {
            let c = s.recalls.entry((phase, worker)).or_insert(0);
            *c += 1;
            (phase, *c)
        });
        for (idx, event) in self.events.iter().enumerate() {
            let fires = match *event {
                FaultEvent::CrashConsumer { worker: ew, nth } => ew == worker && nth == n,
                FaultEvent::CrashOnRecall {
                    phase,
                    worker: ew,
                    nth,
                } => ew == worker && in_phase == Some((phase, nth)),
                _ => false,
            };
            if fires {
                s.fired.push(idx);
                return true;
            }
        }
        false
    }

    fn partial_write(&self, worker: usize) -> bool {
        let mut s = self.state.lock();
        let n = {
            let c = s.partial_writes.entry(worker).or_insert(0);
            *c += 1;
            *c
        };
        for (idx, event) in self.events.iter().enumerate() {
            if let FaultEvent::PartialWrite { worker: ew, nth } = *event {
                if ew == worker && nth == n {
                    s.fired.push(idx);
                    return true;
                }
            }
        }
        false
    }

    fn slow_peer_stall_ms(&self, worker: usize) -> f64 {
        // Consulted once per worker when the coordinator builds the
        // CONFIG frame, so there is no occurrence counter to advance.
        let mut s = self.state.lock();
        let mut total = 0.0;
        let mut fired = Vec::new();
        for (idx, event) in self.events.iter().enumerate() {
            if let FaultEvent::SlowPeer { worker: ew, ms } = *event {
                if ew == worker {
                    total += ms.max(0.0);
                    fired.push(idx);
                }
            }
        }
        s.fired.extend(fired);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { seed: 0, events }
    }

    #[test]
    fn empty_plan_is_pass_through() {
        let hook = PlanHook::new(&FaultPlan::empty());
        for n in 0..10 {
            assert_eq!(hook.on_data(0, n % 2), NetAction::Deliver);
            assert_eq!(hook.on_ack(0, n % 2), NetAction::Deliver);
            assert!(hook.on_notification(NotifyKind::M1, 0));
            assert!(!hook.crash_worker(0, Some(RecallPhase::Drain)));
            assert!(hook.stall_ms(StallSite::Consumer, 0) < 1e-12);
        }
        assert!(hook.fired().is_empty());
    }

    #[test]
    fn nth_counters_are_per_edge() {
        let hook = PlanHook::new(&plan(vec![FaultEvent::DelayData {
            source: 0,
            dest: 1,
            nth: 2,
            delay_ms: 5.0,
        }]));
        // Traffic on another edge does not advance edge (0, 1).
        assert_eq!(hook.on_data(0, 0), NetAction::Deliver);
        assert_eq!(hook.on_data(1, 1), NetAction::Deliver);
        assert_eq!(hook.on_data(0, 1), NetAction::Deliver, "first occurrence");
        assert_eq!(
            hook.on_data(0, 1),
            NetAction::DelayMs(5.0),
            "second occurrence fires"
        );
        assert_eq!(hook.on_data(0, 1), NetAction::Deliver, "fires only once");
        assert_eq!(hook.fired(), vec![0]);
    }

    #[test]
    fn notification_losses_target_kind() {
        let hook = PlanHook::new(&plan(vec![FaultEvent::DropNotify {
            kind: NotifyKind::M2,
            index: 1,
            nth: 1,
        }]));
        assert!(hook.on_notification(NotifyKind::M1, 1), "wrong kind");
        assert!(!hook.on_notification(NotifyKind::M2, 1), "fires");
        assert!(hook.on_notification(NotifyKind::M2, 1), "only once");
        assert_eq!(hook.fired(), vec![0]);
    }

    /// A recall command is a received message like any other: it counts
    /// towards `CrashConsumer` whichever round it opens.
    #[test]
    fn consumer_crash_fires_at_the_nth_message_only() {
        let hook = PlanHook::new(&plan(vec![FaultEvent::CrashConsumer { worker: 1, nth: 3 }]));
        assert!(!hook.crash_worker(0, None), "other workers survive");
        assert!(!hook.crash_worker(1, None), "first message");
        let drain = Some(RecallPhase::Drain);
        assert!(!hook.crash_worker(1, drain), "second message");
        assert!(hook.crash_worker(1, None), "third message kills");
        assert!(!hook.crash_worker(1, None), "fires only once");
        assert_eq!(hook.fired(), vec![0]);
    }

    /// A death mid-recall counts only its worker's commands of its phase.
    #[test]
    fn a_crash_on_recall_fires_at_the_nth_command_of_its_phase() {
        let hook = PlanHook::new(&plan(vec![FaultEvent::CrashOnRecall {
            phase: RecallPhase::Migrate,
            worker: 0,
            nth: 2,
        }]));
        let (drain, migrate) = (Some(RecallPhase::Drain), Some(RecallPhase::Migrate));
        assert!(!hook.crash_worker(0, None), "data");
        assert!(!hook.crash_worker(0, drain), "wrong phase");
        assert!(!hook.crash_worker(1, migrate), "wrong worker");
        assert!(!hook.crash_worker(0, migrate), "first migrate");
        assert!(!hook.crash_worker(0, drain), "wrong phase");
        assert!(hook.crash_worker(0, migrate), "second migrate kills");
        assert!(!hook.crash_worker(0, migrate), "fires only once");
        assert_eq!(hook.fired(), vec![0]);
    }

    #[test]
    fn stalls_sum_and_clamp() {
        let hook = PlanHook::new(&plan(vec![
            FaultEvent::StallConsumer {
                worker: 0,
                nth: 1,
                ms: 10.0,
            },
            FaultEvent::StallConsumer {
                worker: 0,
                nth: 1,
                ms: -3.0,
            },
        ]));
        let stall = hook.stall_ms(StallSite::Consumer, 0);
        assert!((stall - 10.0).abs() < 1e-12, "negative stall clamps to 0");
        assert!(hook.stall_ms(StallSite::Producer, 0) < 1e-12);
    }
}
