//! The recall coordinator, written once: the adaptation thread calls
//! [`Coordinator::recall`] for a diagnosed or scripted `W′` and for a
//! failover, which differ only in the [`RecallTarget`] passed.
//!
//! 1. **Pause.** Every active producer parks at its next pause point —
//!    one waiting on a full ring gives its block back first — so no new
//!    tuples can enter the exchange. When every producer has finished,
//!    the barrier is complete with none parked: the consumers serve
//!    control until the run releases them, so a late recall still takes
//!    back what is queued at the slow one.
//! 2. **Drain.** A `Drain` goes to every live consumer. `Drained` means
//!    the consumer is reachable and everything addressed to it under the
//!    old distribution is processed, held, or queued where its
//!    `Migrate` will find it. Every consumer answers at once: its data
//!    ring holds what was sent before the pause (a socket link relays its
//!    rings ahead of the `Drain`, and the worker's frame reader pushes
//!    every block ahead of it).
//! 3. **Swap.** The routing table is swapped under quiescence and the
//!    buckets each old owner must surrender are computed.
//! 4. **Migrate.** Each consumer surrenders that state, and the held
//!    probes and queued tuples of the same buckets, in blocks ahead of
//!    its `MigrateDone`.
//!    They are re-routed here and nowhere else, re-delivered in blocks of
//!    `buffer_tuples` per new owner, and the log bookkeeping is settled
//!    once per (source, old owner → new owner) before the resume.
//! 5. **Resume.** The gate epoch is bumped; the released producers notice
//!    and restage their unsent buffers.
//!
//! A failure before the swap aborts with router, buffers and logs
//! untouched and the gate reopened.

use gridq_common::{DistributionVector, RecallPhase};
use gridq_recovery::LogMoves;

use super::reroute::Regroup;
use super::{Exchange, Routed};

/// A worker's answer to a recall command. `token` identifies the recall
/// attempt, so replies from an aborted attempt cannot satisfy a later
/// barrier.
#[derive(Debug, Clone)]
pub(crate) enum RecallReply {
    /// The worker has observed the `Drain` marker.
    Drained { token: u64 },
    /// The worker finished surrendering.
    MigrateDone { token: u64 },
    /// One block of the state and held probes a worker surrendered; sent
    /// ahead of its `MigrateDone` on the same FIFO channel, so barrier
    /// completion implies all of it was re-routed.
    Surrendered { worker: usize, entries: Vec<Routed> },
}

/// The `Migrate` command: surrender the operator state of the `outgoing`
/// buckets (of `bucket_count`; `None` under weighted routing) and the
/// held probes and queued tuples of those buckets, then answer
/// `MigrateDone { token }`.
pub(crate) struct MigrateCmd {
    pub(crate) token: u64,
    pub(crate) bucket_count: Option<u32>,
    pub(crate) outgoing: Vec<u32>,
}

/// What the coordinator needs from its driver: the recall gate, a way to
/// command workers, and replies until a deadline only the driver can
/// read.
pub(crate) trait RecallTransport {
    /// Requests the pause and waits for every active producer to park.
    /// Returns how many parked — zero once every producer has finished —
    /// or `None` on time-out (the request is withdrawn, the gate left
    /// open).
    fn pause(&mut self) -> Option<usize>;
    /// Abandons the pause without changing the epoch.
    fn abort_pause(&mut self);
    /// The gate's current epoch.
    fn epoch(&self) -> u64;
    /// Installs `epoch` and releases the parked producers.
    fn resume(&mut self, epoch: u64);
    /// Sends the drain barrier to `worker`, ordered behind every block
    /// staged for it. Returns whether the worker is still reachable.
    fn drain(&mut self, worker: usize, token: u64) -> bool;
    /// Sends `worker` its `Migrate` command.
    fn migrate(&mut self, worker: usize, cmd: MigrateCmd);
    /// Re-delivers a block of tuples (at most the exchange's
    /// `buffer_tuples`) to `dest` outside the data plane.
    fn redeliver(&mut self, dest: usize, block: Vec<Routed>);
    /// Starts the time-out for one round of replies.
    fn arm_deadline(&mut self);
    /// The next reply, or `None` once the deadline armed last has passed
    /// (or no worker can reply any more).
    fn next_reply(&mut self) -> Option<RecallReply>;
}

/// What a recall should establish.
pub(crate) enum RecallTarget {
    /// Deploy a diagnosed (or scripted) distribution `W′`.
    Deploy(DistributionVector),
    /// Partition `replay` died: zero the weight of every partition in
    /// `dead` (it, and any previously declared dead peer), renormalize
    /// over the survivors, and replay its surviving log entries to their
    /// new owners.
    Failover { replay: usize, dead: Vec<usize> },
}

/// How a recall ended.
#[derive(Debug, PartialEq)]
pub(crate) enum RecallOutcome {
    /// Abandoned before the swap (the producers did not park in time, a
    /// barrier timed out, the target was undeployable) or — failover only —
    /// before the replay. The gate is open again at the old epoch.
    Aborted,
    /// The distribution is deployed and the producers resumed under
    /// `epoch`. `completed` is false when a `MigrateDone` never arrived:
    /// the producers are resumed regardless, because leaving them parked
    /// would deadlock the run instead of surfacing the failure.
    Deployed {
        epoch: u64,
        state_moved: u64,
        recalled: u64,
        completed: bool,
    },
    /// The dead partition's weight is zeroed, its log replayed and the
    /// producers resumed.
    FailedOver {
        deployed: DistributionVector,
        state_moved: u64,
        recalled: u64,
        replayed: u64,
    },
}

pub(crate) struct Coordinator {
    x: Exchange,
    token: u64,
}

/// What a hand-over has routed but not yet sent or settled: partial
/// re-delivery blocks per owner and the log bookkeeping.
struct Handover {
    blocks: Regroup,
    moves: LogMoves,
}

impl Handover {
    fn new(x: &Exchange) -> Self {
        Handover {
            blocks: Regroup::new(x, x.partitions),
            moves: LogMoves::default(),
        }
    }

    /// Settles the log, then sends the partial blocks.
    fn finish<T: RecallTransport>(mut self, x: &Exchange, t: &mut T) {
        x.settle(self.moves);
        for (owner, block) in self.blocks.finish() {
            t.redeliver(owner, block);
        }
    }
}

impl Coordinator {
    pub(crate) fn new(exchange: Exchange) -> Self {
        Coordinator {
            x: exchange,
            token: 0,
        }
    }

    /// Runs one recall over the `live` workers (dead ones can never
    /// answer a barrier). `on_swap(epoch)` fires between the swap and
    /// the first `Migrate`, for the driver's timeline.
    pub(crate) fn recall<T: RecallTransport>(
        &mut self,
        target: RecallTarget,
        live: &[usize],
        t: &mut T,
        on_swap: impl FnOnce(u64),
    ) -> RecallOutcome {
        self.token += 1;
        let token = self.token;
        if t.pause().is_none() {
            return RecallOutcome::Aborted;
        }
        let drained = !live.is_empty()
            && live.iter().all(|&p| t.drain(p, token))
            && self
                .collect(t, token, live.len(), RecallPhase::Drain)
                .is_some();
        let moves = if drained {
            self.swap(&target)
        } else {
            // A swallowed reply models a crashed worker mid-recall: the
            // barrier times out and the recall aborts pre-swap, leaving
            // router and state untouched.
            None
        };
        let Some((deployed, moves)) = moves else {
            t.abort_pause();
            return RecallOutcome::Aborted;
        };
        let epoch = t.epoch() + 1;
        on_swap(epoch);
        let bucket_count = self.x.router.lock().bucket_count();
        for &p in live {
            let cmd = MigrateCmd {
                token,
                bucket_count,
                outgoing: moves.get(p).cloned().unwrap_or_default(),
            };
            t.migrate(p, cmd);
        }
        let replies = self.collect(t, token, live.len(), RecallPhase::Migrate);
        match target {
            RecallTarget::Deploy(_) => {
                t.resume(epoch);
                let (state_moved, recalled) = replies.unwrap_or((0, 0));
                RecallOutcome::Deployed {
                    epoch,
                    state_moved,
                    recalled,
                    completed: replies.is_some(),
                }
            }
            RecallTarget::Failover { replay, .. } => {
                let Some((state_moved, recalled)) = replies else {
                    // Retried by the caller; the swap already happened,
                    // so the retry's own swap moves nothing.
                    t.abort_pause();
                    return RecallOutcome::Aborted;
                };
                let replayed = self.replay(replay, live, t);
                t.resume(epoch);
                RecallOutcome::FailedOver {
                    deployed,
                    state_moved,
                    recalled,
                    replayed,
                }
            }
        }
    }

    /// Step 3: swaps the routing table. Returns the deployed
    /// distribution and, per partition, the buckets it must surrender —
    /// or `None` when the target is undeployable (every partition dead
    /// or weightless, arity mismatch).
    fn swap(&self, target: &RecallTarget) -> Option<(DistributionVector, Vec<Vec<u32>>)> {
        let mut router = self.x.router.lock();
        let dist = match target {
            RecallTarget::Deploy(d) => d.clone(),
            RecallTarget::Failover { dead, .. } => {
                let current = router.current_distribution();
                let w: Vec<f64> = current
                    .weights()
                    .iter()
                    .enumerate()
                    .map(|(p, &w)| if dead.contains(&p) { 0.0 } else { w })
                    .collect();
                DistributionVector::new(&w).ok()?
            }
        };
        let moves = router.apply_retrospective(&dist).ok()?;
        Some((dist, moves.outgoing))
    }

    /// Collects one matching reply per worker for attempt `token`,
    /// dropping stale replies from aborted attempts and re-routing any
    /// surrendered state on the way: whole blocks leave as they fill,
    /// the rest (and the log bookkeeping) when the round ends, either
    /// way. Returns the summed `(state_moved, recalled)`, or `None` on
    /// time-out.
    fn collect<T: RecallTransport>(
        &mut self,
        t: &mut T,
        token: u64,
        need: usize,
        phase: RecallPhase,
    ) -> Option<(u64, u64)> {
        t.arm_deadline();
        let mut handover = Handover::new(&self.x);
        let (mut got, mut moved_total, mut recalled_total) = (0usize, 0u64, 0u64);
        while got < need {
            let Some(reply) = t.next_reply() else { break };
            match reply {
                RecallReply::Drained { token: tk } => {
                    got += usize::from(phase == RecallPhase::Drain && tk == token);
                }
                RecallReply::MigrateDone { token: tk } => {
                    got += usize::from(phase == RecallPhase::Migrate && tk == token);
                }
                RecallReply::Surrendered { worker, entries } => {
                    let (m, r) = self.route_surrendered(worker, entries, &mut handover, t);
                    moved_total += m;
                    recalled_total += r;
                }
            }
        }
        handover.finish(&self.x, t);
        (got == need).then_some((moved_total, recalled_total))
    }

    fn route_surrendered<T: RecallTransport>(
        &self,
        worker: usize,
        entries: Vec<Routed>,
        handover: &mut Handover,
        t: &mut T,
    ) -> (u64, u64) {
        let Handover { blocks, moves } = handover;
        self.x.reroute(worker, entries, moves, |owner, entry| {
            if let Some(block) = blocks.push(owner, entry) {
                t.redeliver(owner, block);
            }
        })
    }

    /// Re-routes a block a worker surrendered outside any recall's
    /// collection: a barrier that timed out may still deliver its state,
    /// and dropping it would lose real tuples.
    pub(crate) fn surrendered<T: RecallTransport>(
        &self,
        worker: usize,
        entries: Vec<Routed>,
        t: &mut T,
    ) -> (u64, u64) {
        let mut handover = Handover::new(&self.x);
        let counts = self.route_surrendered(worker, entries, &mut handover, t);
        handover.finish(&self.x, t);
        counts
    }

    /// Replays the dead partition's surviving log entries to their new
    /// owners, build stream first so reconstructed operator state is in
    /// place before any replayed probe tuple can reach it.
    fn replay<T: RecallTransport>(&self, dead: usize, live: &[usize], t: &mut T) -> u64 {
        let Some(logs) = &self.x.logs else { return 0 };
        let mut order: Vec<usize> = (0..logs.len()).collect();
        order.sort_by_key(|&s| usize::from(Some(s) != self.x.build_source));
        let fallback = live.first().copied().unwrap_or(0);
        let mut replayed = 0u64;
        // Grouped per new owner in replay order, so each owner's build
        // entries still precede its probe entries.
        let mut blocks = Regroup::new(&self.x, self.x.partitions);
        for s in order {
            for (stream, tuple) in logs[s].drain_dest(dead as u32).unwrap_or_default() {
                let routed = self.x.router.lock().route(stream, &tuple);
                let dest = match routed {
                    Ok(d) if live.contains(&(d as usize)) => d as usize,
                    _ => fallback,
                };
                replayed += 1;
                // Re-record into the new owner's open window, which the
                // producer's next forced checkpoint closes; a marker sent
                // from here could close a window whose tail is still
                // staged unsent at the producer, acknowledging tuples
                // that were never delivered. Retransmissions of
                // already-replayed tuples collapse in the consumers'
                // dedup filter.
                let _ = logs[s].record_migrated(dest as u32, (stream, tuple.clone()));
                if let Some(block) = blocks.push(dest, (stream, s, tuple)) {
                    t.redeliver(dest, block);
                }
            }
        }
        for (dest, block) in blocks.finish() {
            t.redeliver(dest, block);
        }
        replayed
    }
}
