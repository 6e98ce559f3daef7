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
//! [`gridq_common::chaos`]: every channel is FIFO until it dies, so a
//! data buffer or an ack is delayed or duplicated, never silently lost.
//! Duplication heals through consumer-side deduplication, so
//! [`FaultEvent::DuplicateData`] is a live matrix family
//! ([`FaultFamily::DataDup`]) rather than a broken fixture, and
//! [`FaultFamily::NodeCrash`] and [`FaultFamily::CrashMidRecall`] kill a
//! worker outright through the `crash_worker` seam — on any message, or
//! on a recall's command — with failover recovering it, on every
//! substrate (a socket worker dies with its connection, cut at the
//! link). A cell's plan depends on its seed, family and topology only,
//! so every substrate runs the same faults. The one deliberately
//! unrecoverable shape — a crash with no failover — is what proves the
//! oracle layer fails loudly.

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
    /// Kill consumer `worker` as its `nth` recall command of `phase` (a
    /// `Drain` or a `Migrate`) reaches it, through the `crash_worker`
    /// seam: a worker dying mid-recall. Its death answers the open
    /// barrier: a death on the Drain abandons the recall before the swap,
    /// one on the Migrate leaves it deployed but not completed, and
    /// either way the failover recall replays the worker's log.
    CrashOnRecall {
        /// The recall round whose command kills the worker.
        phase: RecallPhase,
        /// Worker index.
        worker: usize,
        /// Recall command of `phase` to die at (1-based).
        nth: u64,
    },
    /// Kill consumer `worker` at its `nth` received message (a thread's
    /// inbox message, a buffer or a recall command arriving in the
    /// simulator, a message a socket link relays), through the
    /// `crash_worker` seam: the worker stops without flushing,
    /// acknowledging, or replying, exactly as if its node died. With
    /// failover (always on in the simulator) the failover recall replays
    /// its log; without it the run degrades into explicit delivery gaps
    /// that the conservation oracle flags.
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
    /// A short stable tag naming the variant (used in JSON and reports).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultEvent::DropNotify { .. } => "drop_notify",
            FaultEvent::DuplicateAck { .. } => "duplicate_ack",
            FaultEvent::DelayAck { .. } => "delay_ack",
            FaultEvent::DelayData { .. } => "delay_data",
            FaultEvent::DuplicateData { .. } => "duplicate_data",
            FaultEvent::StallProducer { .. } => "stall_producer",
            FaultEvent::StallConsumer { .. } => "stall_consumer",
            FaultEvent::CrashOnRecall { .. } => "crash_on_recall",
            FaultEvent::CrashConsumer { .. } => "crash_consumer",
            FaultEvent::PerturbBurst { .. } => "perturb_burst",
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
            FaultEvent::DuplicateAck {
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
            FaultEvent::DuplicateData { source, dest, nth } => {
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
            FaultEvent::CrashOnRecall { phase, worker, nth } => {
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
            FaultEvent::PartialWrite { worker, nth } => {
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
    /// Duplicate and delay checkpoint acknowledgments.
    AckChaos,
    /// Delay data-plane exchange buffers.
    DataDelay,
    /// Duplicate data-plane exchange buffers (absorbed by consumer-side
    /// `(source, seq)` deduplication).
    DataDup,
    /// Stall producer and consumer threads mid-stream.
    Stall,
    /// A worker dies mid-recall, on one of the recall commands it
    /// receives, and fails over.
    CrashMidRecall,
    /// Kill a worker outright through the `crash_worker` seam, with
    /// failover recovering it (on threads from its exit notice, R1 only;
    /// on sockets from its reader's report, whenever a hook is set).
    NodeCrash,
    /// Perturbation bursts arriving mid-query.
    PerturbBurst,
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
    pub const ALL: [FaultFamily; 11] = [
        FaultFamily::NotifyLoss,
        FaultFamily::AckChaos,
        FaultFamily::DataDelay,
        FaultFamily::DataDup,
        FaultFamily::Stall,
        FaultFamily::CrashMidRecall,
        FaultFamily::NodeCrash,
        FaultFamily::PerturbBurst,
        FaultFamily::PartialWrite,
        FaultFamily::SlowPeer,
        FaultFamily::TenantInterference,
    ];

    /// The transport families only the socket substrate's seams realise.
    pub const SOCKET: [FaultFamily; 2] = [FaultFamily::PartialWrite, FaultFamily::SlowPeer];

    /// True for families whose seams exist only on the socket substrate
    /// (real writes to fragment, real reads to stall). The sim/threaded matrix skips them — their events would
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
            FaultFamily::DataDup => "data_dup",
            FaultFamily::Stall => "stall",
            FaultFamily::CrashMidRecall => "crash_mid_recall",
            FaultFamily::NodeCrash => "node_crash",
            FaultFamily::PerturbBurst => "perturb_burst",
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
                    // The third of the draws that once lost an ack adds no
                    // event, so every other event keeps its values.
                    match rng.usize_in(0, 3) {
                        0 => {}
                        1 => events.push(FaultEvent::DuplicateAck {
                            source,
                            worker,
                            nth,
                        }),
                        _ => events.push(FaultEvent::DelayAck {
                            source,
                            worker,
                            nth,
                            delay_ms: rng.f64_in(1.0, 40.0),
                        }),
                    }
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
                events.push(FaultEvent::CrashOnRecall {
                    phase: *rng.pick(&[RecallPhase::Drain, RecallPhase::Migrate]),
                    worker: rng.usize_in(0, workers),
                    nth: rng.i64_in(1, 3) as u64,
                });
            }
            FaultFamily::NodeCrash => {
                events.push(FaultEvent::CrashConsumer {
                    worker: rng.usize_in(0, workers),
                    nth: rng.i64_in(1, 10) as u64,
                });
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

    /// Whether the plan kills a worker.
    pub fn kills_a_worker(&self) -> bool {
        use FaultEvent::{CrashConsumer, CrashOnRecall};
        let kill = |e: &FaultEvent| matches!(e, CrashConsumer { .. } | CrashOnRecall { .. });
        self.events.iter().any(kill)
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
    fn data_dup_generates_live_duplicates() {
        for seed in [1_u64, 7, 42, 1303, 99991] {
            let dup = FaultPlan::generate(seed, FaultFamily::DataDup, TOPO);
            assert!(!dup.events.is_empty());
            assert!(dup
                .events
                .iter()
                .all(|e| matches!(e, FaultEvent::DuplicateData { .. })));
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
            assert_plan_json(&FaultPlan::generate(1303, family, TOPO));
        }
    }

    #[test]
    fn hand_written_data_and_crash_events_serialize() {
        let plan = FaultPlan {
            seed: 0,
            events: vec![
                FaultEvent::DuplicateData {
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
