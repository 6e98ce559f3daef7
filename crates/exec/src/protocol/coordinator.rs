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
//! No round waits on a clock: a worker that dies while a barrier is open
//! answers it with its death ([`RecallReply::Down`]). A death in the
//! Drain round aborts the recall at once, router, buffers and logs
//! untouched; one in the Migrate round leaves it deployed but not
//! completed. No later barrier addresses a worker whose death one read.

use gridq_common::{DistributionVector, RecallPhase};
use gridq_recovery::LogMoves;

use super::reroute::Regroup;
use super::{Exchange, Routed};

/// A worker's message to the recall coordinator, on one FIFO channel per
/// run. `token` identifies the recall attempt, so answers from an
/// aborted attempt cannot satisfy a later barrier.
#[derive(Debug, Clone)]
pub(crate) enum RecallReply {
    /// `worker` answered round `phase`: it observed the `Drain` marker,
    /// or it finished surrendering.
    Answered {
        phase: RecallPhase,
        worker: usize,
        token: u64,
    },
    /// One block of the state and held probes a worker surrendered; sent
    /// ahead of its `MigrateDone` on the same FIFO channel, so the end of
    /// the round implies all of it was re-routed.
    Surrendered { worker: usize, entries: Vec<Routed> },
    /// `worker` died: its answer to every barrier it still owed. Sent
    /// once, behind everything else the worker sent.
    Down { worker: usize },
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
/// command workers, and their replies.
pub(crate) trait RecallTransport {
    /// Requests the pause and waits for every active producer to park or
    /// finish.
    fn pause(&mut self);
    /// Abandons the pause without changing the epoch.
    fn abort_pause(&mut self);
    /// The gate's current epoch.
    fn epoch(&self) -> u64;
    /// Installs `epoch` and releases the parked producers.
    fn resume(&mut self, epoch: u64);
    /// Sends the drain barrier to `worker`, ordered behind every block
    /// staged for it.
    fn drain(&mut self, worker: usize, token: u64);
    /// Sends `worker` its `Migrate` command.
    fn migrate(&mut self, worker: usize, cmd: MigrateCmd);
    /// Re-delivers a block of tuples (at most the exchange's
    /// `buffer_tuples`) to `dest` outside the data plane.
    fn redeliver(&mut self, dest: usize, block: Vec<Routed>);
    /// The next reply, waited for as long as it takes: every worker a
    /// round addresses answers or dies. `None` once no worker can reply
    /// any more.
    fn next_reply(&mut self) -> Option<RecallReply>;
}

/// What a recall should establish.
pub(crate) enum RecallTarget {
    /// Deploy a diagnosed (or scripted) distribution `W′`.
    Deploy(DistributionVector),
    /// A partition died: zero the weight of every partition in `dead`,
    /// renormalize over the survivors, and replay the surviving log
    /// entries of all of them to their new owners.
    Failover { dead: Vec<usize> },
}

/// How a recall ended.
#[derive(Debug, PartialEq)]
pub(crate) enum RecallOutcome {
    /// Abandoned before the swap (a worker died on the drain barrier, no
    /// worker was live, the target was undeployable) or — failover only —
    /// before the replay. The gate is open again at the old epoch.
    Aborted,
    /// The distribution is deployed and the producers resumed under
    /// `epoch`. `completed` is false when a worker died in the Migrate
    /// round: the producers are resumed regardless, because leaving them
    /// parked would deadlock the run instead of surfacing the failure.
    Deployed {
        epoch: u64,
        state_moved: u64,
        recalled: u64,
        completed: bool,
    },
    /// The dead partitions' weights are zeroed, their logs replayed and
    /// the producers resumed.
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
    /// Per partition: a barrier has read its death, so no barrier waits
    /// on it again.
    dead: Vec<bool>,
}

/// One round of replies: the surrendered state it re-routed, and whether
/// every worker it addressed answered.
struct Round {
    state_moved: u64,
    recalled: u64,
    complete: bool,
}

impl Coordinator {
    pub(crate) fn new(exchange: Exchange) -> Self {
        Coordinator {
            dead: vec![false; exchange.partitions],
            x: exchange,
            token: 0,
        }
    }

    /// Runs one recall over the `live` workers, less any whose death a
    /// barrier has read. `on_swap(epoch)` fires between the swap and the
    /// first `Migrate`, for the caller's timeline.
    pub(crate) fn recall<T: RecallTransport>(
        &mut self,
        target: RecallTarget,
        live: &[usize],
        t: &mut T,
        on_swap: impl FnOnce(u64),
    ) -> RecallOutcome {
        self.token += 1;
        let token = self.token;
        let live: Vec<usize> = live.iter().copied().filter(|&p| !self.dead[p]).collect();
        t.pause();
        for &p in &live {
            t.drain(p, token);
        }
        let drained =
            !live.is_empty() && self.collect(t, token, &live, RecallPhase::Drain).complete;
        let moves = if drained { self.swap(&target) } else { None };
        let Some((deployed, moves)) = moves else {
            t.abort_pause();
            return RecallOutcome::Aborted;
        };
        let epoch = t.epoch() + 1;
        on_swap(epoch);
        let bucket_count = self.x.router.lock().bucket_count();
        for &p in &live {
            let cmd = MigrateCmd {
                token,
                bucket_count,
                outgoing: moves.get(p).cloned().unwrap_or_default(),
            };
            t.migrate(p, cmd);
        }
        let round = self.collect(t, token, &live, RecallPhase::Migrate);
        let (state_moved, recalled) = (round.state_moved, round.recalled);
        match target {
            RecallTarget::Deploy(_) => {
                t.resume(epoch);
                RecallOutcome::Deployed {
                    epoch,
                    state_moved,
                    recalled,
                    completed: round.complete,
                }
            }
            RecallTarget::Failover { dead } => {
                if !round.complete {
                    // A second death: its own report runs the next
                    // failover, whose swap finds this one's in force and
                    // whose replay covers this partition too.
                    t.abort_pause();
                    return RecallOutcome::Aborted;
                }
                let replayed = self.replay(&dead, &live, t);
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

    /// Collects round `phase` of attempt `token` from the `live` workers:
    /// each one's answer or its death. Stale answers from aborted
    /// attempts are dropped, and surrendered state is re-routed on the
    /// way — the one place a hand-over is: whole blocks leave as they
    /// fill, the rest (and the log bookkeeping) when the round ends. A
    /// death ends the Drain round at once; the Migrate round waits for
    /// every other live worker.
    fn collect<T: RecallTransport>(
        &mut self,
        t: &mut T,
        token: u64,
        live: &[usize],
        phase: RecallPhase,
    ) -> Round {
        let (mut blocks, mut moves) = (
            Regroup::new(&self.x, self.x.partitions),
            LogMoves::default(),
        );
        let mut waiting = live.to_vec();
        let mut round = Round {
            state_moved: 0,
            recalled: 0,
            complete: true,
        };
        while !waiting.is_empty() {
            let Some(reply) = t.next_reply() else {
                round.complete = false;
                break;
            };
            match reply {
                RecallReply::Answered {
                    phase: answered,
                    worker,
                    token: tk,
                } => {
                    if answered == phase && tk == token {
                        waiting.retain(|&w| w != worker);
                    }
                }
                RecallReply::Surrendered { worker, entries } => {
                    let (m, r) = self.x.reroute(worker, entries, &mut moves, |owner, entry| {
                        if let Some(block) = blocks.push(owner, entry) {
                            t.redeliver(owner, block);
                        }
                    });
                    round.state_moved += m;
                    round.recalled += r;
                }
                RecallReply::Down { worker } => {
                    self.dead[worker] = true;
                    if live.contains(&worker) {
                        round.complete = false;
                        waiting.retain(|&w| w != worker);
                        if phase == RecallPhase::Drain {
                            break;
                        }
                    }
                }
            }
        }
        self.x.settle(moves);
        for (owner, block) in blocks.finish() {
            t.redeliver(owner, block);
        }
        round
    }

    /// Replays the `dead` partitions' surviving log entries to their new
    /// owners, build stream first so reconstructed operator state is in
    /// place before any replayed probe tuple can reach it.
    fn replay<T: RecallTransport>(&self, dead: &[usize], live: &[usize], t: &mut T) -> u64 {
        let Some(logs) = &self.x.logs else { return 0 };
        let mut order: Vec<usize> = (0..logs.len()).collect();
        order.sort_by_key(|&s| usize::from(Some(s) != self.x.build_source));
        let fallback = live.first().copied().unwrap_or(0);
        let mut replayed = 0u64;
        // Grouped per new owner in replay order, so each owner's build
        // entries still precede its probe entries.
        let mut blocks = Regroup::new(&self.x, self.x.partitions);
        for s in order {
            let drained = dead.iter().flat_map(|&d| logs[s].drain_dest(d as u32));
            let entries: Vec<_> = drained.flatten().collect();
            for (stream, tuple) in entries {
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
                // that were never delivered.
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
