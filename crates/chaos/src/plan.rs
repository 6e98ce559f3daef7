//! The fault-plan DSL.
//!
//! A [`FaultPlan`] is a seed plus a small list of [`FaultEvent`]s, each
//! targeting one occurrence of one seam (the `nth` flush on one exchange
//! edge, the `nth` checkpoint ack of one source at one worker, ...).
//! Plans are generated deterministically from a seed per
//! [`FaultFamily`], so a cell replays by its seed, and serialize to JSON
//! so a run's exact plan rides along in its report — a record for CI and
//! for people, not an input: nothing parses a plan back.
//!
//! The generator matches the fault model documented on
//! [`gridq_common::chaos`]: data-plane loss and duplication heal through
//! checkpoint-window retransmission and consumer-side deduplication, so
//! [`FaultEvent::DropData`] and [`FaultEvent::DuplicateData`] are live
//! matrix families ([`FaultFamily::DataLoss`], [`FaultFamily::DataDup`])
//! rather than broken fixtures, and [`FaultFamily::NodeCrash`] kills a
//! worker outright on either substrate (a simulator node failure, or a
//! consumer thread killed through the `crash_worker` seam with failover
//! recovering it). The one deliberately unrecoverable shape — enough
//! drops on one edge to outlast the retry budget, or a crash with no
//! failover — is what proves the oracle layer fails loudly.

use gridq_common::check::Gen;
use gridq_common::{DetRng, NotifyKind, RecallPhase};
use gridq_obs::json::JsonObj;

/// One injected fault, aimed at a single occurrence of a single seam.
///
/// `source`/`worker`/`dest`/`index` are substrate-level indices
/// (producer/source position in the plan, consumer/worker partition
/// index). `nth` counts occurrences per seam edge starting at 1, so
/// `nth: 2` targets the second flush/ack/notification on that edge.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Lose the `nth` monitoring notification of `kind` from partition
    /// `index` (consumer index for M1, source index for M2).
    DropNotify {
        /// Which notification stream to hit.
        kind: NotifyKind,
        /// Originating partition index.
        index: usize,
        /// Occurrence to lose (1-based).
        nth: u64,
    },
    /// Lose the `nth` checkpoint acknowledgment of source `source`
    /// observed at worker `worker`.
    DropAck {
        /// Source stream index.
        source: usize,
        /// Acknowledging worker index.
        worker: usize,
        /// Occurrence to lose (1-based).
        nth: u64,
    },
    /// Deliver the `nth` checkpoint ack twice (the log must reject the
    /// second as stale).
    DuplicateAck {
        /// Source stream index.
        source: usize,
        /// Acknowledging worker index.
        worker: usize,
        /// Occurrence to duplicate (1-based).
        nth: u64,
    },
    /// Deliver the `nth` checkpoint ack after an extra delay.
    DelayAck {
        /// Source stream index.
        source: usize,
        /// Acknowledging worker index.
        worker: usize,
        /// Occurrence to delay (1-based).
        nth: u64,
        /// Extra delay in model milliseconds.
        delay_ms: f64,
    },
    /// Deliver the `nth` data buffer on edge `source -> dest` after an
    /// extra delay (the data plane's only permitted network fault).
    DelayData {
        /// Producing source index.
        source: usize,
        /// Destination worker index.
        dest: usize,
        /// Occurrence to delay (1-based).
        nth: u64,
        /// Extra delay in model milliseconds.
        delay_ms: f64,
    },
    /// Drop the `nth` data buffer on edge `source -> dest`.
    ///
    /// Survivable: the covered checkpoint windows stay unacknowledged in
    /// the producer's recovery log and are retransmitted with jittered
    /// exponential backoff until delivered or the retry budget is spent
    /// (the latter degrades into an explicit delivery gap, which the
    /// conservation oracle flags).
    DropData {
        /// Producing source index.
        source: usize,
        /// Destination worker index.
        dest: usize,
        /// Occurrence to drop (1-based).
        nth: u64,
    },
    /// Duplicate the `nth` data buffer on edge `source -> dest`.
    ///
    /// Survivable: consumers track `(source, seq)` pairs in resilient
    /// runs and absorb the redelivered copy (paying only the receive
    /// cost), so the result multiset is unchanged.
    DuplicateData {
        /// Producing source index.
        source: usize,
        /// Destination worker index.
        dest: usize,
        /// Occurrence to duplicate (1-based).
        nth: u64,
    },
    /// Stall producer `source` for `ms` extra model milliseconds at its
    /// `nth` scan step.
    StallProducer {
        /// Source index.
        source: usize,
        /// Scan step to stall at (1-based).
        nth: u64,
        /// Extra stall in model milliseconds.
        ms: f64,
    },
    /// Stall worker `worker` for `ms` extra model milliseconds at its
    /// `nth` processed tuple.
    StallConsumer {
        /// Worker index.
        worker: usize,
        /// Processed-tuple step to stall at (1-based).
        nth: u64,
        /// Extra stall in model milliseconds.
        ms: f64,
    },
    /// Swallow worker `worker`'s `nth` recall control reply of `phase`.
    /// Models a worker crashing mid-recall on the threaded substrate:
    /// the coordinator's barrier times out and the recall aborts.
    LoseRecallCtrl {
        /// Which protocol phase's reply to lose.
        phase: RecallPhase,
        /// Worker index.
        worker: usize,
        /// Occurrence to lose (1-based).
        nth: u64,
    },
    /// Permanently crash evaluator `evaluator` (0-based; evaluator `i`
    /// runs on node `i + 1`) at virtual time `at_ms`. Simulator only —
    /// realised through `Simulation::run_with_failures`, not the hook.
    CrashNode {
        /// Evaluator index.
        evaluator: usize,
        /// Virtual crash time in milliseconds.
        at_ms: f64,
    },
    /// Kill consumer `worker` at its `nth` received message. Threaded
    /// substrate only — realised through the `crash_worker` hook seam:
    /// the consumer thread returns without flushing, acknowledging, or
    /// replying, exactly as if its node died. With failover enabled its
    /// exit notice reports the crash and drives the failover recall;
    /// without failover the run degrades into explicit delivery gaps that
    /// the conservation oracle flags.
    CrashConsumer {
        /// Worker index.
        worker: usize,
        /// Received-message count to die at (1-based).
        nth: u64,
    },
    /// Apply a cost-factor perturbation burst to evaluator `evaluator`
    /// from `from_ms` on. Realised through the substrate's perturbation
    /// mechanism, not the hook.
    PerturbBurst {
        /// Evaluator index.
        evaluator: usize,
        /// Virtual start time in milliseconds (the threaded substrate
        /// applies the burst for the whole run).
        from_ms: f64,
        /// Cost multiplier while active.
        factor: f64,
    },
    /// Tear down the socket connection to worker `worker` immediately
    /// before its `nth` data frame is written (socket substrate only).
    ///
    /// Survivable: the worker observes EOF, reconnects with a `Hello`
    /// carrying its last received sequence number, and the link layer
    /// retransmits the unacknowledged outbox suffix.
    ConnDrop {
        /// Worker (connection) index.
        worker: usize,
        /// Data frame to sever before (1-based).
        nth: u64,
    },
    /// Write worker `worker`'s `nth` data frame in deliberately tiny
    /// chunks (socket substrate only), splitting the frame header and
    /// payload at arbitrary byte boundaries.
    ///
    /// Survivable by construction: the incremental frame decoder buffers
    /// partial bytes until a whole frame materialises.
    PartialWrite {
        /// Worker (connection) index.
        worker: usize,
        /// Data frame to fragment (1-based).
        nth: u64,
    },
    /// Stall worker `worker` for `ms` extra model milliseconds before
    /// every socket read (socket substrate only). A peer that stops
    /// draining its receive buffer exerts kernel backpressure on the
    /// coordinator's writer and, transitively, the producer rings.
    SlowPeer {
        /// Worker (connection) index.
        worker: usize,
        /// Extra pre-read stall in model milliseconds.
        ms: f64,
    },
}

impl FaultEvent {
    /// Whether the event is realised through the [`ChaosHook`] seams (as
    /// opposed to node-failure or perturbation machinery).
    ///
    /// [`ChaosHook`]: gridq_common::ChaosHook
    pub fn hook_mediated(&self) -> bool {
        !matches!(
            self,
            FaultEvent::CrashNode { .. } | FaultEvent::PerturbBurst { .. }
        )
    }

    /// A short stable tag naming the variant (used in JSON and reports).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultEvent::DropNotify { .. } => "drop_notify",
            FaultEvent::DropAck { .. } => "drop_ack",
            FaultEvent::DuplicateAck { .. } => "duplicate_ack",
            FaultEvent::DelayAck { .. } => "delay_ack",
            FaultEvent::DelayData { .. } => "delay_data",
            FaultEvent::DropData { .. } => "drop_data",
            FaultEvent::DuplicateData { .. } => "duplicate_data",
            FaultEvent::StallProducer { .. } => "stall_producer",
            FaultEvent::StallConsumer { .. } => "stall_consumer",
            FaultEvent::LoseRecallCtrl { .. } => "lose_recall_ctrl",
            FaultEvent::CrashNode { .. } => "crash_node",
            FaultEvent::CrashConsumer { .. } => "crash_consumer",
            FaultEvent::PerturbBurst { .. } => "perturb_burst",
            FaultEvent::ConnDrop { .. } => "conn_drop",
            FaultEvent::PartialWrite { .. } => "partial_write",
            FaultEvent::SlowPeer { .. } => "slow_peer",
        }
    }

    /// Serializes the event as a one-line JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("type", self.tag());
        match self {
            FaultEvent::DropNotify { kind, index, nth } => {
                o.str(
                    "kind",
                    match kind {
                        NotifyKind::M1 => "m1",
                        NotifyKind::M2 => "m2",
                    },
                );
                o.int("index", *index as u64);
                o.int("nth", *nth);
            }
            FaultEvent::DropAck {
                source,
                worker,
                nth,
            }
            | FaultEvent::DuplicateAck {
                source,
                worker,
                nth,
            } => {
                o.int("source", *source as u64);
                o.int("worker", *worker as u64);
                o.int("nth", *nth);
            }
            FaultEvent::DelayAck {
                source,
                worker,
                nth,
                delay_ms,
            } => {
                o.int("source", *source as u64);
                o.int("worker", *worker as u64);
                o.int("nth", *nth);
                o.num("delay_ms", *delay_ms);
            }
            FaultEvent::DelayData {
                source,
                dest,
                nth,
                delay_ms,
            } => {
                o.int("source", *source as u64);
                o.int("dest", *dest as u64);
                o.int("nth", *nth);
                o.num("delay_ms", *delay_ms);
            }
            FaultEvent::DropData { source, dest, nth }
            | FaultEvent::DuplicateData { source, dest, nth } => {
                o.int("source", *source as u64);
                o.int("dest", *dest as u64);
                o.int("nth", *nth);
            }
            FaultEvent::StallProducer { source, nth, ms } => {
                o.int("source", *source as u64);
                o.int("nth", *nth);
                o.num("ms", *ms);
            }
            FaultEvent::StallConsumer { worker, nth, ms } => {
                o.int("worker", *worker as u64);
                o.int("nth", *nth);
                o.num("ms", *ms);
            }
            FaultEvent::LoseRecallCtrl { phase, worker, nth } => {
                o.str(
                    "phase",
                    match phase {
                        RecallPhase::Drain => "drain",
                        RecallPhase::Migrate => "migrate",
                    },
                );
                o.int("worker", *worker as u64);
                o.int("nth", *nth);
            }
            FaultEvent::CrashNode { evaluator, at_ms } => {
                o.int("evaluator", *evaluator as u64);
                o.num("at_ms", *at_ms);
            }
            FaultEvent::CrashConsumer { worker, nth } => {
                o.int("worker", *worker as u64);
                o.int("nth", *nth);
            }
            FaultEvent::PerturbBurst {
                evaluator,
                from_ms,
                factor,
            } => {
                o.int("evaluator", *evaluator as u64);
                o.num("from_ms", *from_ms);
                o.num("factor", *factor);
            }
            FaultEvent::ConnDrop { worker, nth } | FaultEvent::PartialWrite { worker, nth } => {
                o.int("worker", *worker as u64);
                o.int("nth", *nth);
            }
            FaultEvent::SlowPeer { worker, ms } => {
                o.int("worker", *worker as u64);
                o.num("ms", *ms);
            }
        }
        o.finish()
    }
}

/// The fault families a scenario matrix iterates over. Each family
/// generates a themed bundle of [`FaultEvent`]s from a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFamily {
    /// Lose M1/M2 monitoring notifications (best-effort by contract).
    NotifyLoss,
    /// Drop, duplicate, and delay checkpoint acknowledgments.
    AckChaos,
    /// Delay data-plane exchange buffers.
    DataDelay,
    /// Drop data-plane exchange buffers (healed by checkpoint-window
    /// retransmission from the recovery log).
    DataLoss,
    /// Duplicate data-plane exchange buffers (absorbed by consumer-side
    /// `(source, seq)` deduplication).
    DataDup,
    /// Stall producer and consumer threads mid-stream.
    Stall,
    /// Crash a node mid-run: a permanent simulator node failure, or a
    /// swallowed recall control reply (the threaded analogue of a worker
    /// dying mid-recall).
    CrashMidRecall,
    /// Kill a worker outright on either substrate: a simulator node
    /// failure, or a consumer thread killed through the `crash_worker`
    /// seam with failover recovering it from its exit notice (R1 only).
    NodeCrash,
    /// Perturbation bursts arriving mid-query.
    PerturbBurst,
    /// Whole-block faults at the batched data plane's block boundary:
    /// adjacent drop + duplicate of entire tuple blocks on one edge.
    /// Since the `on_data` seam fires once per flushed block, a drop
    /// loses every tuple and checkpoint marker the block carried (healed
    /// by whole-block retransmission from the recovery log — there are
    /// no partial-block acks) and a duplicate redelivers the full block
    /// (absorbed by `(source, first_seq..last_seq)` range dedup).
    BlockBoundary,
    /// Sever worker connections mid-stream (socket substrate only):
    /// healed by reconnect handshakes plus link-level outbox
    /// retransmission.
    ConnDrop,
    /// Fragment data frames into tiny writes (socket substrate only):
    /// absorbed by the incremental frame decoder.
    PartialWrite,
    /// Stall worker reads so kernel backpressure reaches the producers
    /// (socket substrate only).
    SlowPeer,
    /// Co-resident query interference (service plane only): two queries
    /// share one `QueryService`'s evaluator nodes, and the faults —
    /// stalls, data delays, dropped notifications — hit only the first.
    /// The cell is judged by the tenant-isolation oracle: the *unfaulted*
    /// co-resident query must still conserve its results and keep
    /// recall safety against its own solo reference.
    TenantInterference,
}

impl FaultFamily {
    /// Every family, in matrix order.
    pub const ALL: [FaultFamily; 14] = [
        FaultFamily::NotifyLoss,
        FaultFamily::AckChaos,
        FaultFamily::DataDelay,
        FaultFamily::DataLoss,
        FaultFamily::DataDup,
        FaultFamily::Stall,
        FaultFamily::CrashMidRecall,
        FaultFamily::NodeCrash,
        FaultFamily::PerturbBurst,
        FaultFamily::BlockBoundary,
        FaultFamily::ConnDrop,
        FaultFamily::PartialWrite,
        FaultFamily::SlowPeer,
        FaultFamily::TenantInterference,
    ];

    /// The transport families only the socket substrate's seams realise.
    pub const SOCKET: [FaultFamily; 3] = [
        FaultFamily::ConnDrop,
        FaultFamily::PartialWrite,
        FaultFamily::SlowPeer,
    ];

    /// True for families whose seams exist only on the socket substrate
    /// (real connections to drop, real writes to fragment, real reads to
    /// stall). The sim/threaded matrix skips them — their events would
    /// never fire there.
    pub fn socket_only(&self) -> bool {
        FaultFamily::SOCKET.contains(self)
    }

    /// True for the family that needs the multi-query service plane
    /// (two co-resident queries through one `QueryService`). The
    /// single-query matrix loops skip it; [`matrix`](crate::matrix)
    /// pins its cells to the threaded substrate explicitly.
    pub fn service_plane(&self) -> bool {
        matches!(self, FaultFamily::TenantInterference)
    }

    /// Stable name used in JSON and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            FaultFamily::NotifyLoss => "notify_loss",
            FaultFamily::AckChaos => "ack_chaos",
            FaultFamily::DataDelay => "data_delay",
            FaultFamily::DataLoss => "data_loss",
            FaultFamily::DataDup => "data_dup",
            FaultFamily::Stall => "stall",
            FaultFamily::CrashMidRecall => "crash_mid_recall",
            FaultFamily::NodeCrash => "node_crash",
            FaultFamily::PerturbBurst => "perturb_burst",
            FaultFamily::BlockBoundary => "block_boundary",
            FaultFamily::ConnDrop => "conn_drop",
            FaultFamily::PartialWrite => "partial_write",
            FaultFamily::SlowPeer => "slow_peer",
            FaultFamily::TenantInterference => "tenant_interference",
        }
    }
}

/// The exchange shape a plan is generated against.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    /// Number of source streams (producers).
    pub sources: usize,
    /// Number of stage partitions (workers/consumers).
    pub workers: usize,
    /// Whether the scenario runs on the simulator (crash faults become
    /// node failures) or on real threads (crash faults become lost
    /// recall control replies).
    pub simulated: bool,
}

/// A seeded, replayable fault plan: the seed it was generated from plus
/// the concrete fault events.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-written plans).
    pub seed: u64,
    /// The injected faults.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: running it must be indistinguishable from running
    /// without a hook.
    pub fn empty() -> FaultPlan {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Generates the plan for one scenario cell deterministically from
    /// `seed`. The same `(seed, family, topology)` always yields the
    /// same plan; `GRIDQ_CHAOS_SEED` replays a cell by reproducing its
    /// seed.
    pub fn generate(seed: u64, family: FaultFamily, topo: Topology) -> FaultPlan {
        let mut rng = DetRng::seeded(seed ^ 0xc4a0_5a11);
        let rng = &mut rng;
        let sources = topo.sources.max(1);
        let workers = topo.workers.max(1);
        let mut events = Vec::new();
        match family {
            FaultFamily::NotifyLoss => {
                for _ in 0..rng.usize_in(1, 5) {
                    let kind = *rng.pick(&[NotifyKind::M1, NotifyKind::M2]);
                    let index = match kind {
                        NotifyKind::M1 => rng.usize_in(0, workers),
                        NotifyKind::M2 => rng.usize_in(0, sources),
                    };
                    events.push(FaultEvent::DropNotify {
                        kind,
                        index,
                        nth: rng.i64_in(1, 7) as u64,
                    });
                }
            }
            FaultFamily::AckChaos => {
                for _ in 0..rng.usize_in(1, 5) {
                    let source = rng.usize_in(0, sources);
                    let worker = rng.usize_in(0, workers);
                    let nth = rng.i64_in(1, 9) as u64;
                    events.push(match rng.usize_in(0, 3) {
                        0 => FaultEvent::DropAck {
                            source,
                            worker,
                            nth,
                        },
                        1 => FaultEvent::DuplicateAck {
                            source,
                            worker,
                            nth,
                        },
                        _ => FaultEvent::DelayAck {
                            source,
                            worker,
                            nth,
                            delay_ms: rng.f64_in(1.0, 40.0),
                        },
                    });
                }
            }
            FaultFamily::DataDelay => {
                for _ in 0..rng.usize_in(1, 4) {
                    events.push(FaultEvent::DelayData {
                        source: rng.usize_in(0, sources),
                        dest: rng.usize_in(0, workers),
                        nth: rng.i64_in(1, 6) as u64,
                        delay_ms: rng.f64_in(5.0, 80.0),
                    });
                }
            }
            FaultFamily::DataLoss => {
                for _ in 0..rng.usize_in(1, 4) {
                    events.push(FaultEvent::DropData {
                        source: rng.usize_in(0, sources),
                        dest: rng.usize_in(0, workers),
                        nth: rng.i64_in(1, 5) as u64,
                    });
                }
            }
            FaultFamily::DataDup => {
                for _ in 0..rng.usize_in(1, 4) {
                    events.push(FaultEvent::DuplicateData {
                        source: rng.usize_in(0, sources),
                        dest: rng.usize_in(0, workers),
                        nth: rng.i64_in(1, 5) as u64,
                    });
                }
            }
            FaultFamily::Stall => {
                for _ in 0..rng.usize_in(1, 4) {
                    if rng.flip() {
                        events.push(FaultEvent::StallProducer {
                            source: rng.usize_in(0, sources),
                            nth: rng.i64_in(1, 30) as u64,
                            ms: rng.f64_in(5.0, 120.0),
                        });
                    } else {
                        events.push(FaultEvent::StallConsumer {
                            worker: rng.usize_in(0, workers),
                            nth: rng.i64_in(1, 30) as u64,
                            ms: rng.f64_in(5.0, 120.0),
                        });
                    }
                }
            }
            FaultFamily::CrashMidRecall => {
                if topo.simulated {
                    events.push(FaultEvent::CrashNode {
                        evaluator: rng.usize_in(0, workers),
                        at_ms: rng.f64_in(100.0, 1500.0),
                    });
                } else {
                    events.push(FaultEvent::LoseRecallCtrl {
                        phase: *rng.pick(&[RecallPhase::Drain, RecallPhase::Migrate]),
                        worker: rng.usize_in(0, workers),
                        nth: rng.i64_in(1, 3) as u64,
                    });
                }
            }
            FaultFamily::NodeCrash => {
                if topo.simulated {
                    events.push(FaultEvent::CrashNode {
                        evaluator: rng.usize_in(0, workers),
                        at_ms: rng.f64_in(100.0, 1500.0),
                    });
                } else {
                    events.push(FaultEvent::CrashConsumer {
                        worker: rng.usize_in(0, workers),
                        nth: rng.i64_in(5, 25) as u64,
                    });
                }
            }
            FaultFamily::PerturbBurst => {
                for _ in 0..rng.usize_in(1, 3) {
                    events.push(FaultEvent::PerturbBurst {
                        evaluator: rng.usize_in(0, workers),
                        from_ms: rng.f64_in(0.0, 1200.0),
                        factor: rng.f64_in(4.0, 12.0),
                    });
                }
            }
            FaultFamily::BlockBoundary => {
                // Adjacent whole-block drop + duplicate on the same edge:
                // the block at `nth` is lost (and must be retransmitted
                // in full) while the very next block is redelivered (and
                // must dedup in full). Pairing them on one edge stresses
                // block-atomicity on both sides of the boundary at once.
                for _ in 0..rng.usize_in(1, 3) {
                    let source = rng.usize_in(0, sources);
                    let dest = rng.usize_in(0, workers);
                    let nth = rng.i64_in(1, 4) as u64;
                    events.push(FaultEvent::DropData { source, dest, nth });
                    events.push(FaultEvent::DuplicateData {
                        source,
                        dest,
                        nth: nth + 1,
                    });
                }
            }
            FaultFamily::ConnDrop => {
                for _ in 0..rng.usize_in(1, 4) {
                    events.push(FaultEvent::ConnDrop {
                        worker: rng.usize_in(0, workers),
                        nth: rng.i64_in(1, 5) as u64,
                    });
                }
            }
            FaultFamily::PartialWrite => {
                for _ in 0..rng.usize_in(2, 6) {
                    events.push(FaultEvent::PartialWrite {
                        worker: rng.usize_in(0, workers),
                        nth: rng.i64_in(1, 8) as u64,
                    });
                }
            }
            FaultFamily::SlowPeer => {
                for _ in 0..rng.usize_in(1, 3) {
                    events.push(FaultEvent::SlowPeer {
                        worker: rng.usize_in(0, workers),
                        ms: rng.f64_in(1.0, 8.0),
                    });
                }
            }
            FaultFamily::TenantInterference => {
                // Interference-shaped pressure on the faulted query only:
                // consumer stalls and data delays slow it down (raising
                // the co-tenant contention its neighbour's own diagnoser
                // sees), and an occasional dropped notification exercises
                // the best-effort monitoring contract under co-residency.
                // No drops or crashes — the cell studies isolation, not
                // the faulted query's own recovery.
                for _ in 0..rng.usize_in(1, 3) {
                    events.push(FaultEvent::StallConsumer {
                        worker: rng.usize_in(0, workers),
                        nth: rng.i64_in(1, 20) as u64,
                        ms: rng.f64_in(5.0, 60.0),
                    });
                }
                for _ in 0..rng.usize_in(1, 3) {
                    events.push(FaultEvent::DelayData {
                        source: rng.usize_in(0, sources),
                        dest: rng.usize_in(0, workers),
                        nth: rng.i64_in(1, 6) as u64,
                        delay_ms: rng.f64_in(5.0, 60.0),
                    });
                }
                if rng.flip() {
                    events.push(FaultEvent::DropNotify {
                        kind: NotifyKind::M1,
                        index: rng.usize_in(0, workers),
                        nth: rng.i64_in(1, 5) as u64,
                    });
                }
            }
        }
        FaultPlan { seed, events }
    }

    /// The simulator node failures the plan calls for, as
    /// `(evaluator, at_ms)` pairs.
    pub fn crashes(&self) -> Vec<(usize, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::CrashNode { evaluator, at_ms } => Some((*evaluator, *at_ms)),
                _ => None,
            })
            .collect()
    }

    /// The perturbation bursts the plan calls for, as
    /// `(evaluator, from_ms, factor)` triples.
    pub fn bursts(&self) -> Vec<(usize, f64, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::PerturbBurst {
                    evaluator,
                    from_ms,
                    factor,
                } => Some((*evaluator, *from_ms, *factor)),
                _ => None,
            })
            .collect()
    }

    /// The consumer-crash events the plan calls for, as
    /// `(worker, nth)` pairs (threaded substrate only).
    pub fn consumer_crashes(&self) -> Vec<(usize, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::CrashConsumer { worker, nth } => Some((*worker, *nth)),
                _ => None,
            })
            .collect()
    }

    /// Serializes the plan as a one-line JSON object.
    pub fn to_json(&self) -> String {
        let events: Vec<String> = self.events.iter().map(FaultEvent::to_json).collect();
        let mut o = JsonObj::new();
        o.int("seed", self.seed);
        o.raw("events", &format!("[{}]", events.join(",")));
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_obs::Json;

    const TOPO: Topology = Topology {
        sources: 2,
        workers: 2,
        simulated: true,
    };

    #[test]
    fn generation_is_deterministic() {
        for family in FaultFamily::ALL {
            let a = FaultPlan::generate(1303, family, TOPO);
            let b = FaultPlan::generate(1303, family, TOPO);
            assert_eq!(a, b, "same seed must give the same {} plan", family.name());
            assert!(!a.events.is_empty());
        }
    }

    #[test]
    fn data_families_generate_live_data_faults() {
        for seed in [1_u64, 7, 42, 1303, 99991] {
            for simulated in [true, false] {
                let topo = Topology { simulated, ..TOPO };
                let loss = FaultPlan::generate(seed, FaultFamily::DataLoss, topo);
                assert!(!loss.events.is_empty());
                assert!(loss
                    .events
                    .iter()
                    .all(|e| matches!(e, FaultEvent::DropData { .. })));
                let dup = FaultPlan::generate(seed, FaultFamily::DataDup, topo);
                assert!(!dup.events.is_empty());
                assert!(dup
                    .events
                    .iter()
                    .all(|e| matches!(e, FaultEvent::DuplicateData { .. })));
            }
        }
    }

    #[test]
    fn crash_families_respect_substrate() {
        let sim = FaultPlan::generate(7, FaultFamily::CrashMidRecall, TOPO);
        assert!(matches!(sim.events[0], FaultEvent::CrashNode { .. }));
        let threaded = FaultPlan::generate(
            7,
            FaultFamily::CrashMidRecall,
            Topology {
                simulated: false,
                ..TOPO
            },
        );
        assert!(matches!(
            threaded.events[0],
            FaultEvent::LoseRecallCtrl { .. }
        ));
        let sim_crash = FaultPlan::generate(7, FaultFamily::NodeCrash, TOPO);
        assert!(matches!(sim_crash.events[0], FaultEvent::CrashNode { .. }));
        assert_eq!(sim_crash.crashes().len(), 1);
        let threaded_crash = FaultPlan::generate(
            7,
            FaultFamily::NodeCrash,
            Topology {
                simulated: false,
                ..TOPO
            },
        );
        assert!(matches!(
            threaded_crash.events[0],
            FaultEvent::CrashConsumer { .. }
        ));
        assert_eq!(threaded_crash.consumer_crashes().len(), 1);
        assert!(threaded_crash.events[0].hook_mediated());
    }

    #[test]
    fn block_boundary_pairs_drop_and_dup_on_one_edge() {
        for seed in [1_u64, 7, 42, 1303, 99991] {
            for simulated in [true, false] {
                let topo = Topology { simulated, ..TOPO };
                let plan = FaultPlan::generate(seed, FaultFamily::BlockBoundary, topo);
                assert!(!plan.events.is_empty());
                assert_eq!(plan.events.len() % 2, 0, "events come in drop/dup pairs");
                for pair in plan.events.chunks(2) {
                    let FaultEvent::DropData { source, dest, nth } = pair[0] else {
                        panic!("pair must lead with a drop: {pair:?}");
                    };
                    assert_eq!(
                        pair[1],
                        FaultEvent::DuplicateData {
                            source,
                            dest,
                            nth: nth + 1
                        },
                        "the adjacent block on the same edge must duplicate"
                    );
                }
            }
        }
    }

    /// What a report carries of a plan: its seed and one object per
    /// event, tagged with the event's `type`, in plan order.
    fn assert_plan_json(plan: &FaultPlan) -> Json {
        let j = Json::parse(&plan.to_json()).expect("a plan serializes to JSON");
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(plan.seed));
        let events = j
            .get("events")
            .and_then(Json::as_array)
            .expect("events array");
        assert_eq!(events.len(), plan.events.len());
        for (event, parsed) in plan.events.iter().zip(events) {
            assert_eq!(parsed.get("type").and_then(Json::as_str), Some(event.tag()));
        }
        j
    }

    #[test]
    fn plans_serialize_to_parseable_json() {
        for family in FaultFamily::ALL {
            for simulated in [true, false] {
                assert_plan_json(&FaultPlan::generate(
                    1303,
                    family,
                    Topology { simulated, ..TOPO },
                ));
            }
        }
    }

    #[test]
    fn hand_written_data_and_crash_events_serialize() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent::DropData {
                    source: 0,
                    dest: 1,
                    nth: 2,
                },
                FaultEvent::CrashConsumer { worker: 1, nth: 12 },
            ],
        };
        let j = assert_plan_json(&plan);
        let events = j
            .get("events")
            .and_then(Json::as_array)
            .expect("events array");
        let field = |i: usize, key: &str| events[i].get(key).and_then(Json::as_u64);
        assert_eq!(
            (field(0, "source"), field(0, "dest"), field(0, "nth")),
            (Some(0), Some(1), Some(2))
        );
        assert_eq!((field(1, "worker"), field(1, "nth")), (Some(1), Some(12)));
    }

    #[test]
    fn family_names_are_distinct() {
        for (i, a) in FaultFamily::ALL.iter().enumerate() {
            assert!(FaultFamily::ALL[i + 1..]
                .iter()
                .all(|b| b.name() != a.name()));
        }
    }
}
