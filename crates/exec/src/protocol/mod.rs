//! The substrate-independent recall / end-of-stream / dedup protocol.
//!
//! Plain structs with methods: no threads, sockets, clocks or sleeps.
//! Modelled cost is *accrued* as model-ms debt and handed to the driver
//! to pay, no barrier waits on a time-out, and bytes never appear.
//! The run skeleton and the threaded endpoints (`lib.rs`) and the socket
//! endpoints (`socket.rs`) are drivers: they own threads, rings, inboxes,
//! frames, links, exit notices and the wall clock, and implement the output
//! interfaces the core calls ([`producer::BlockSink`],
//! [`consumer::ConsumerOut`], [`coordinator::RecallTransport`]). See
//! DESIGN.md §15 for the module map. `gridq-lint`'s `wall-clock` rule
//! does not allowlist these files, so the build proves mechanically
//! that the core never reads a clock.

pub(crate) mod consumer;
pub(crate) mod coordinator;
pub(crate) mod dedup;
pub(crate) mod producer;
pub(crate) mod reroute;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use gridq_common::sync::Mutex;
use gridq_common::{cast, ChaosHook, GridError, NetAction, Result, Tuple};
use gridq_engine::distributed::{DistributedPlan, Router};
use gridq_engine::evaluator::StreamTag;
use gridq_grid::Perturbation;
use gridq_recovery::{AckOutcome, Checkpoint, DeliveryGap, SharedRecoveryLog};

use consumer::ConsumerSpec;

pub(crate) type LogItem = (StreamTag, Tuple);
pub(crate) type SharedLogs = Arc<Vec<SharedRecoveryLog<LogItem>>>;

/// A tuple travelling outside the data plane — surrendered operator
/// state, a recalled held probe, a failover replay —
/// with its stream and the source whose recovery log recorded it.
pub(crate) type Routed = (StreamTag, usize, Tuple);

/// A producer's per-destination staging buffer entry: either a routed
/// tuple or a checkpoint marker riding in sequence behind the tuple that
/// closed its window.
#[derive(Clone)]
pub(crate) enum Staged {
    Tuple(StreamTag, Tuple),
    Marker(Checkpoint, u64),
}

/// The data-plane unit: one producer's staged batch for one destination.
/// Routing was paid once per item when the block was staged; checkpoint
/// markers ride in-order behind the tuples that closed their windows, so
/// delivering a block delivers whole windows atomically.
#[derive(Clone)]
pub(crate) struct Block {
    /// Index into `DistributedPlan::sources`, so consumers can attribute
    /// tuples and markers to the right recovery log.
    pub(crate) source: usize,
    pub(crate) items: Vec<Staged>,
}

impl Block {
    /// How many of the items are tuples (markers excluded).
    pub(crate) fn tuples(&self) -> usize {
        self.items
            .iter()
            .filter(|s| matches!(s, Staged::Tuple(..)))
            .count()
    }

    /// The resilient-mode dedup key: `(first_seq, last_seq, count)` over
    /// the block's tuples (markers excluded), or `None` for marker-only
    /// blocks. Within one source a window's identity is pinned by its
    /// extremes plus cardinality: windows only ever *shrink* after
    /// closing (entries migrate out to other destinations' open windows,
    /// never in), so two same-key deliveries of a source's window at the
    /// same consumer carry the same tuple set and the second can be
    /// skipped wholesale.
    pub(crate) fn range_key(&self) -> Option<dedup::BlockKey> {
        let mut first = None;
        let mut last = 0;
        let mut count = 0u64;
        for item in &self.items {
            if let Staged::Tuple(_, t) = item {
                let seq = t.seq();
                first.get_or_insert(seq);
                last = seq;
                count += 1;
            }
        }
        first.map(|f| (f, last, count))
    }
}

/// Run-wide counters the producers feed and the report reads.
#[derive(Default)]
pub(crate) struct Tallies {
    pub(crate) routed: AtomicU64,
    /// Staged tuples re-routed by producers after a recall.
    pub(crate) restaged: AtomicU64,
    /// Block pushes that failed because the destination was gone,
    /// counted in tuples.
    pub(crate) send_failures: AtomicU64,
    /// Blocks of tuples recalls and failovers moved outside the data
    /// plane: surrendered by router-less workers and re-delivered to
    /// their owners.
    pub(crate) recall_blocks: AtomicU64,
    pub(crate) gaps: Mutex<Vec<DeliveryGap>>,
    /// One flag per partition, raised where its worker's death is
    /// reported (`Port::died`): what a resilient producer waits on
    /// besides acks.
    pub(crate) dead: Vec<AtomicBool>,
}

impl Tallies {
    pub(crate) fn is_dead(&self, partition: usize) -> bool {
        self.dead
            .get(partition)
            .is_some_and(|d| d.load(Ordering::Relaxed))
    }
}

/// The set-up both executors share: the exchange router, one recovery
/// log per source, and what the protocol needs to know about the plan.
/// Cheap to clone (all `Arc`s); every producer, the re-route routine and
/// the recall coordinator hold one.
#[derive(Clone)]
pub(crate) struct Exchange {
    pub(crate) router: Arc<Mutex<Router>>,
    /// `None` unless the run logs (R1 recall, chaos, or failover).
    pub(crate) logs: Option<SharedLogs>,
    pub(crate) chaos: Option<Arc<dyn ChaosHook>>,
    /// Resilient mode hardens the data plane: recovery logs always on,
    /// whole windows flushed atomically, producers ending their streams
    /// only once every window is acknowledged or its destination dead,
    /// consumers deduplicating.
    pub(crate) resilient: bool,
    pub(crate) build_source: Option<usize>,
    /// How many sources feed the build stream.
    pub(crate) build_sources: usize,
    /// How many partitions the stage runs on.
    pub(crate) partitions: usize,
    /// The exchange's `buffer_tuples`: the most tuples any block carries,
    /// on the data plane and off it (re-delivery, surrendered state,
    /// results handed downstream).
    pub(crate) block_tuples: usize,
    pub(crate) tallies: Arc<Tallies>,
}

impl Exchange {
    /// Validates the plan shape the protocol supports and builds the
    /// router and (for logging runs) the recovery logs. `who` names the
    /// executor in the single-stage error.
    pub(crate) fn new(
        plan: &DistributedPlan,
        who: &str,
        recall_on: bool,
        chaos: Option<Arc<dyn ChaosHook>>,
        resilient: bool,
        checkpoint_interval: usize,
    ) -> Result<Exchange> {
        plan.validate()?;
        if plan.stages.len() != 1 {
            return Err(GridError::Execution(format!(
                "the {who} executor runs single-stage plans"
            )));
        }
        let stage = &plan.stages[0];
        let build_sources = plan
            .sources
            .iter()
            .filter(|s| s.stream == StreamTag::Build)
            .count();
        if recall_on && build_sources > 1 {
            return Err(GridError::Config(
                "the recall protocol supports at most one build source per stage".into(),
            ));
        }
        let partitions = stage.nodes.len();
        let router = Router::from_policy(&stage.exchange.routing, cast::index_to_u32(partitions)?)?;
        let logs = if recall_on || resilient {
            let (interval, buffer) = (checkpoint_interval, stage.exchange.buffer_tuples);
            let logs = plan.sources.iter().map(|s| {
                let build = s.stream == StreamTag::Build;
                SharedRecoveryLog::for_stream(partitions, build, resilient, interval, buffer)
            });
            Some(Arc::new(logs.collect::<Result<Vec<_>>>()?))
        } else {
            None
        };
        Ok(Exchange {
            router: Arc::new(Mutex::new(router)),
            logs,
            chaos,
            resilient,
            build_source: plan
                .sources
                .iter()
                .position(|s| s.stream == StreamTag::Build),
            build_sources,
            partitions,
            block_tuples: stage.exchange.buffer_tuples.max(1),
            tallies: Arc::new(Tallies {
                dead: (0..partitions).map(|_| AtomicBool::new(false)).collect(),
                ..Tallies::default()
            }),
        })
    }

    /// The recovery log of `source`, if the run logs and the index (which
    /// may have come off a wire) is in range.
    pub(crate) fn log(&self, source: usize) -> Option<&SharedRecoveryLog<LogItem>> {
        self.logs.as_ref().and_then(|l| l.get(source))
    }

    /// Applies `worker`'s acknowledgement of checkpoint `cp` to
    /// `source`'s recovery log, through the chaos ack seam (`pay` spends
    /// an injected delay). Returns the log's verdict, or `None` when the
    /// run does not log. A duplicated ack is absorbed by the log itself.
    pub(crate) fn acknowledge(
        &self,
        source: usize,
        worker: usize,
        cp: Checkpoint,
        epoch: u64,
        pay: impl FnOnce(f64),
    ) -> Option<AckOutcome> {
        let log = self.log(source)?;
        let chaos = self.chaos.as_deref();
        match chaos.map_or(NetAction::Deliver, |c| c.on_ack(source, worker)) {
            NetAction::Duplicate => {
                let first = log.acknowledge(cp.dest, cp.id, epoch);
                let _ = log.acknowledge(cp.dest, cp.id, epoch);
                return Some(first);
            }
            NetAction::DelayMs(extra) => pay(sane_ms(extra)),
            NetAction::Deliver => {}
        }
        Some(log.acknowledge(cp.dest, cp.id, epoch))
    }

    /// The description of consumer `index` of `sources` streams, on a
    /// node with the given perturbation.
    pub(crate) fn consumer_spec(
        &self,
        index: usize,
        sources: usize,
        receive_cost_ms: f64,
        perturbation: Option<&Perturbation>,
    ) -> ConsumerSpec {
        let (cost_factor, cost_extra_ms) = linear_cost(perturbation);
        ConsumerSpec {
            index,
            resilient: self.resilient,
            logging: self.logs.is_some(),
            receive_cost_ms,
            cost_factor,
            cost_extra_ms,
            eos_needed: sources,
            build_eos_needed: self.build_sources,
            build_source: self.build_source,
            block_tuples: self.block_tuples,
        }
    }
}

/// Rejects the cost knobs both executor configurations carry:
/// non-positive or non-finite cost scales (which would turn every
/// modelled cost into zero or infinite sleeps), negative or non-finite
/// receive costs, a zero checkpoint interval (no window could ever
/// close).
pub(crate) fn validate_knobs(
    cost_scale: f64,
    receive_cost_ms: f64,
    checkpoint_interval: usize,
) -> Result<()> {
    if !cost_scale.is_finite() || cost_scale <= 0.0 {
        return Err(GridError::Config(format!(
            "cost_scale must be finite and positive, got {cost_scale}"
        )));
    }
    if !receive_cost_ms.is_finite() || receive_cost_ms < 0.0 {
        return Err(GridError::Config(format!(
            "receive_cost_ms must be finite and non-negative, got {receive_cost_ms}"
        )));
    }
    if checkpoint_interval == 0 {
        return Err(GridError::Config(
            "checkpoint_interval must be positive".into(),
        ));
    }
    Ok(())
}

/// Resolves a perturbation to the linear form `base * factor + extra`
/// (every variant is linear in the base cost), so a consumer — including
/// one in another process — applies it without carrying the enum. A
/// non-finite factor or delay is a rejected sample (see
/// `Perturbation::apply`): it falls back to the unperturbed cost instead
/// of poisoning downstream arithmetic.
fn linear_cost(perturbation: Option<&Perturbation>) -> (f64, f64) {
    let (factor, extra) = match perturbation {
        None | Some(Perturbation::None) => (1.0, 0.0),
        Some(Perturbation::CostFactor(k)) => (*k, 0.0),
        Some(Perturbation::SleepMs(extra)) => (1.0, *extra),
        Some(Perturbation::NormalFactor { mean, .. }) => (*mean, 0.0),
    };
    if factor.is_finite() && extra.is_finite() {
        (factor, extra)
    } else {
        (1.0, 0.0)
    }
}

/// A chaos stall or delay as spendable model milliseconds: non-finite
/// and negative samples inject nothing.
pub(crate) fn sane_ms(ms: f64) -> f64 {
    if ms.is_finite() {
        ms.max(0.0)
    } else {
        0.0
    }
}

/// Protocol unit tests: the core driven by hand-written message
/// schedules through recording fakes — no threads, sockets or sleeps.
#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use gridq_common::{DataType, DistributionVector, Field, RecallPhase, Schema, Tuple, Value};
    use gridq_engine::evaluator::{EvaluatorFactory, HashJoinFactory, StreamTag};
    use gridq_engine::fixtures::{call_plan, int_table, single_stage_plan, CallShape};
    use gridq_recovery::Checkpoint;

    use super::consumer::{Consumer, ConsumerOut, M1Sample, Progress};
    use super::coordinator::{
        Coordinator, MigrateCmd, RecallOutcome, RecallReply, RecallTarget, RecallTransport,
    };
    use super::producer::{BlockSink, Producer, ProducerSpec, Shipped};
    use super::{Block, Exchange, Routed, Staged};

    const BUILD: usize = 0;
    const PROBE: usize = 1;

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    fn tuple(key: i64, seq: u64) -> Tuple {
        Tuple::with_seq(vec![Value::Int(key)], seq)
    }

    /// A two-partition hash join over 16 buckets: source 0 builds, source 1
    /// probes.
    fn join_exchange(resilient: bool) -> (Exchange, Arc<dyn EvaluatorFactory>) {
        let scans = [
            ("build", StreamTag::Build, 0.0),
            ("probe", StreamTag::Probe, 0.0),
        ];
        let factory = HashJoinFactory::new(&schema(), &schema(), 0, 0, 0.1, 0.5);
        let plan = single_stage_plan(1, &scans, factory, 2, Some(16), 4);
        let factory = Arc::clone(&plan.stages[0].factory);
        let x = Exchange::new(&plan, "test", true, None, resilient, 4).unwrap();
        (x, factory)
    }

    fn producer(x: &Exchange, source: usize, stream: StreamTag) -> Producer {
        let spec = ProducerSpec {
            source,
            stream,
            scan_cost_ms: 0.0,
            buffer_tuples: 4,
            dests: 2,
            failover: false,
        };
        Producer::new(spec, x.clone(), 0)
    }

    fn consumer(x: &Exchange, factory: &Arc<dyn EvaluatorFactory>, index: usize) -> Consumer {
        Consumer::new(
            x.consumer_spec(index, 2, 0.0, None),
            factory.create(index as u32),
        )
    }

    /// [`Consumer::end_stream`], then every step it makes owed. Returns
    /// whether the last one finished the consumer.
    fn on_eos(c: &mut Consumer, stream: StreamTag, out: &mut FakeOut) -> bool {
        c.end_stream(stream);
        steps(c, out)
    }

    /// Runs steps until none is owed, taking each one's debt as the
    /// consumer thread does. Returns whether the last one finished the
    /// consumer.
    fn steps(c: &mut Consumer, out: &mut FakeOut) -> bool {
        loop {
            let progress = c.step(out);
            out.pay(c);
            match progress {
                Progress::Busy => {}
                Progress::Idle => return false,
                Progress::Finished => return true,
            }
        }
    }

    fn weights(x: &Exchange) -> Vec<f64> {
        x.router.lock().current_distribution().weights().to_vec()
    }

    /// Records every block and end-of-stream.
    #[derive(Default)]
    struct FakeSink {
        blocks: Vec<(usize, Block)>,
        eos: Vec<usize>,
    }

    impl BlockSink for FakeSink {
        fn pay(&mut self, _model_ms: f64) {}

        fn ship(&mut self, dest: usize, block: Block, _duplicate: bool) -> Shipped {
            self.blocks.push((dest, block));
            Shipped::Sent(0)
        }

        fn eos(&mut self, dest: usize, _stream: StreamTag) {
            self.eos.push(dest);
        }
    }

    /// A router-sharing consumer's outputs, recorded. Acks land in the log
    /// through the shared seam unless `lose_acks`.
    struct FakeOut {
        x: Exchange,
        index: usize,
        lose_acks: bool,
        acks: Vec<(usize, u64)>,
        results: Vec<Tuple>,
        /// Every M1 hand-over, each sample as its `tuples_produced`.
        handovers: Vec<Vec<u64>>,
        /// The run-wide count a test may wire in as `Consumer::progress`.
        progress: Arc<AtomicU64>,
        /// At each pay of a debt: the samples handed over so far, and
        /// `progress`.
        pays: Vec<(usize, u64)>,
    }

    impl FakeOut {
        fn new(x: &Exchange, index: usize) -> Self {
            FakeOut {
                x: x.clone(),
                index,
                lose_acks: false,
                acks: Vec::new(),
                results: Vec::new(),
                handovers: Vec::new(),
                progress: Arc::new(AtomicU64::new(0)),
                pays: Vec::new(),
            }
        }

        fn samples(&self) -> Vec<u64> {
            self.handovers.concat()
        }

        /// Takes `c`'s debt where its driver does, and records the pay
        /// when there is one to make.
        fn pay(&mut self, c: &mut Consumer) {
            if c.take_due() > 0.0 {
                let progress = self.progress.load(Ordering::Relaxed);
                self.pays.push((self.samples().len(), progress));
            }
        }
    }

    impl ConsumerOut for FakeOut {
        fn ack(&mut self, source: usize, cp: Checkpoint, epoch: u64) -> bool {
            self.acks.push((source, cp.id));
            let acked = || self.x.acknowledge(source, self.index, cp, epoch, |_| {});
            !self.lose_acks && acked().is_some()
        }

        fn results(&mut self, batch: Vec<Tuple>) {
            self.results.extend(batch);
        }

        fn m1(&mut self, samples: Vec<M1Sample>) {
            assert!(!samples.is_empty(), "a hand-over is never empty");
            let produced = samples.iter().map(|s| s.tuples_produced);
            self.handovers.push(produced.collect());
        }
    }

    /// A scripted recall transport: a queue of replies (an empty queue is
    /// every worker gone), and a record of everything asked.
    #[derive(Default)]
    struct FakeTransport {
        epoch: u64,
        replies: VecDeque<RecallReply>,
        drains: Vec<usize>,
        migrates: Vec<(usize, Vec<u32>)>,
        /// Every re-delivered block, with its destination.
        redelivered: Vec<(usize, Vec<Routed>)>,
        aborts: u32,
        pause_open: bool,
        /// Workers that answer `Migrate` themselves, by index: what they
        /// surrender is queued ahead of their `MigrateDone`.
        consumers: Vec<Consumer>,
        /// A worker that dies on its `Migrate` instead: its death is
        /// queued in place of its answer.
        dies_on_migrate: Option<usize>,
    }

    /// Worker `worker`'s answer to round `phase` of attempt `token`.
    fn answer(phase: RecallPhase, worker: usize, token: u64) -> RecallReply {
        RecallReply::Answered {
            phase,
            worker,
            token,
        }
    }

    /// Worker `worker`'s answer to the first recall's drain barrier.
    fn drained(worker: usize) -> RecallReply {
        answer(RecallPhase::Drain, worker, 1)
    }

    /// Worker `worker`'s answer to the first recall's `Migrate`.
    fn migrated(worker: usize) -> RecallReply {
        answer(RecallPhase::Migrate, worker, 1)
    }

    impl RecallTransport for FakeTransport {
        fn pause(&mut self) {
            self.pause_open = true;
        }

        fn abort_pause(&mut self) {
            self.aborts += 1;
            self.pause_open = false;
        }

        fn epoch(&self) -> u64 {
            self.epoch
        }

        fn resume(&mut self, epoch: u64) {
            self.epoch = epoch;
            self.pause_open = false;
        }

        fn drain(&mut self, worker: usize, _token: u64) {
            self.drains.push(worker);
        }

        fn migrate(&mut self, worker: usize, cmd: MigrateCmd) {
            if self.dies_on_migrate == Some(worker) {
                self.replies.push_back(RecallReply::Down { worker });
            } else if let Some(c) = self.consumers.get_mut(worker) {
                for entries in c.surrender(cmd.bucket_count, &cmd.outgoing) {
                    let block = RecallReply::Surrendered { worker, entries };
                    self.replies.push_back(block);
                }
                let done = answer(RecallPhase::Migrate, worker, cmd.token);
                self.replies.push_back(done);
            }
            self.migrates.push((worker, cmd.outgoing));
        }

        fn redeliver(&mut self, dest: usize, block: Vec<Routed>) {
            self.redelivered.push((dest, block));
        }

        fn next_reply(&mut self) -> Option<RecallReply> {
            self.replies.pop_front()
        }
    }

    /// A completed recall that moves every bucket to partition 1 (the
    /// workers' side of it is the individual test's business).
    fn recall_everything_to_partition_1(x: &Exchange) {
        let mut t = FakeTransport {
            replies: VecDeque::from([drained(0), drained(1), migrated(0), migrated(1)]),
            ..FakeTransport::default()
        };
        let target = RecallTarget::Deploy(DistributionVector::new(&[0.0, 1.0]).unwrap());
        let outcome = Coordinator::new(x.clone()).recall(target, &[0, 1], &mut t, |_| {});
        assert!(matches!(
            outcome,
            RecallOutcome::Deployed {
                completed: true,
                ..
            }
        ));
    }

    /// The drift the merge exposed: a threaded producer did not store the
    /// epoch it observed at the post-scan pause point, so one recall made it
    /// restage (and re-flush) a second time at its next look.
    #[test]
    fn one_recall_causes_exactly_one_restage() {
        let (x, _) = join_exchange(false);
        let mut p = producer(&x, PROBE, StreamTag::Probe);
        let mut sink = FakeSink::default();
        // Three staged tuples: under the buffer size, so nothing flushes.
        for k in 0..3 {
            p.stage(&tuple(k, k as u64), &mut sink);
        }
        assert!(sink.blocks.is_empty());
        recall_everything_to_partition_1(&x);
        // The post-scan pause point reports the recall's epoch...
        assert!(p.observe_epoch(1), "the epoch changed: restage");
        let restaged = x.tallies.restaged.load(Ordering::Relaxed);
        // ...and the next look reports the same one.
        assert!(!p.observe_epoch(1), "same epoch: nothing to restage");
        assert_eq!(x.tallies.restaged.load(Ordering::Relaxed), restaged);
        assert!(p.finish(&mut sink), "a plain run ends its stream at once");
        let tuples_at = |d: usize| -> usize {
            let to_d = sink.blocks.iter().filter(|(dest, _)| *dest == d);
            to_d.map(|(_, b)| b.tuples()).sum()
        };
        assert_eq!(
            (tuples_at(0), tuples_at(1)),
            (0, 3),
            "every tuple re-routed"
        );
        for audit in x.logs.iter().flat_map(|l| l.iter().map(|log| log.audit())) {
            assert!(audit.conserved(), "{audit:?}");
        }
    }

    /// Acknowledges, in the log, every window whose marker went to `dest`.
    fn ack_markers_to(x: &Exchange, source: usize, sink: &FakeSink, dest: usize) {
        let log = x.log(source).unwrap();
        let to_dest = sink.blocks.iter().filter(|(d, _)| *d == dest);
        for item in to_dest.flat_map(|(_, b)| &b.items) {
            if let Staged::Marker(cp, epoch) = item {
                let _ = log.acknowledge(cp.dest, cp.id, *epoch);
            }
        }
    }

    /// A resilient producer ends its stream on evidence, never on a
    /// timer, and sends nothing twice: not while a live destination owes
    /// an ack, at the ack that leaves none owed, and past a dead
    /// destination only once nothing will replay it — at once without
    /// failover; with failover, once the replay has drained its windows
    /// and the window the replay re-recorded into is acknowledged.
    #[test]
    fn a_resilient_producer_ends_its_stream_on_acks_and_deaths_alone() {
        for failover in [false, true] {
            let (x, _) = join_exchange(true);
            let spec = ProducerSpec {
                source: PROBE,
                stream: StreamTag::Probe,
                scan_cost_ms: 0.0,
                buffer_tuples: 4,
                dests: 2,
                failover,
            };
            let mut p = Producer::new(spec, x.clone(), 0);
            let mut sink = FakeSink::default();
            for k in 0..10 {
                p.stage(&tuple(k, k as u64), &mut sink);
            }
            assert!(!p.finish(&mut sink), "no window is acknowledged yet");
            ack_markers_to(&x, PROBE, &sink, 0);
            assert!(!p.finish(&mut sink), "partition 1 still owes its acks");
            let sent = sink.blocks.len();
            assert!(
                !p.finish(&mut sink) && sink.blocks.len() == sent,
                "nothing resent"
            );
            assert!(sink.eos.is_empty());

            x.tallies.dead[1].store(true, Ordering::Relaxed);
            let log = x.log(PROBE).unwrap();
            if failover {
                assert!(!p.finish(&mut sink), "the failover's to replay");
                for entry in log.drain_dest(1).unwrap() {
                    log.record_migrated(0, entry).unwrap();
                }
                assert!(!p.finish(&mut sink), "the replayed entries' window is out");
                let (dest, last) = sink.blocks.last().unwrap();
                let [Staged::Marker(cp, epoch)] = last.items[..] else {
                    panic!("its marker alone");
                };
                assert_eq!(*dest, 0);
                assert!(matches!(
                    log.acknowledge(cp.dest, cp.id, epoch),
                    gridq_recovery::AckOutcome::Accepted(2)
                ));
            }
            assert!(p.finish(&mut sink), "{failover}");
            assert_eq!(sink.eos, vec![0, 1]);
            let gaps = x.tallies.gaps.lock().clone();
            assert_eq!(gaps.len(), usize::from(!failover), "{gaps:?}");
            assert!(gaps.iter().all(|g| g.dest == 1 && g.tuples > 0));
            let audit = log.audit();
            assert!(audit.conserved(), "{audit:?}");
            assert_eq!(audit.acks_duplicate, 0, "{audit:?}");
        }
    }

    /// A duplicated block whose first ack was lost: the range key skips the
    /// duplicate's tuples wholesale, its marker still acks, and once that
    /// ack lands the acked marker id shadows a differently packed copy
    /// even though the per-tuple keys were evicted.
    #[test]
    fn duplicate_block_with_a_dropped_ack_is_absorbed() {
        let (x, factory) = join_exchange(true);
        let log = x.log(BUILD).unwrap();
        let mut cp = None;
        for seq in 0..4u64 {
            cp = log
                .record(0, (StreamTag::Build, tuple(seq as i64, seq)))
                .unwrap();
        }
        let cp = cp.expect("the fourth record closes the window");
        let items = |n: u64| -> Vec<Staged> {
            let mut items: Vec<Staged> = (0..n)
                .map(|s| Staged::Tuple(StreamTag::Build, tuple(s as i64, s)))
                .collect();
            items.push(Staged::Marker(cp, log.epoch()));
            items
        };
        let block = |n: u64| Block {
            source: BUILD,
            items: items(n),
        };
        let mut c = consumer(&x, &factory, 0);
        let mut out = FakeOut::new(&x, 0);
        out.lose_acks = true;
        c.on_block(block(4), &mut out);
        assert_eq!((c.processed(), out.acks.len()), (4, 1));
        assert!(log.has_undelivered(0), "the ack was lost");
        // The identical duplicate: range-key hit, yet the marker acks again.
        out.lose_acks = false;
        c.on_block(block(4), &mut out);
        assert_eq!((c.processed(), out.acks.len()), (4, 2));
        assert!(!log.has_undelivered(0), "the duplicate's ack landed");
        // A straggler packed differently (new range key, tuple keys evicted
        // with the ack): only the acked marker id can shadow it.
        c.on_block(block(3), &mut out);
        assert_eq!(c.processed(), 4, "shadowed by the acked marker");
        assert!(log.audit().conserved(), "{:?}", log.audit());
    }

    /// Probes that arrive during the build phase are held and their window
    /// acks deferred — an ack is a processing receipt — until the last
    /// build end-of-stream replays them.
    #[test]
    fn probes_are_held_and_their_acks_deferred_until_the_build_ends() {
        let (x, factory) = join_exchange(true);
        let mut c = consumer(&x, &factory, 0);
        let mut out = FakeOut::new(&x, 0);
        let window = |source: usize, stream: StreamTag| -> Block {
            let log = x.log(source).unwrap();
            let mut items = Vec::new();
            for seq in 0..4u64 {
                let t = tuple(seq as i64, seq);
                items.push(Staged::Tuple(stream, t.clone()));
                if let Some(cp) = log.record(0, (stream, t)).unwrap() {
                    items.push(Staged::Marker(cp, log.epoch()));
                }
            }
            Block { source, items }
        };
        c.on_block(window(PROBE, StreamTag::Probe), &mut out);
        assert_eq!((c.processed(), out.acks.len()), (0, 0), "held, unacked");
        c.on_block(window(BUILD, StreamTag::Build), &mut out);
        assert_eq!(c.processed(), 4);
        assert_eq!(out.acks, vec![(BUILD, 0)], "build acks are never deferred");
        assert!(x.log(PROBE).unwrap().has_undelivered(0));
        assert!(
            !on_eos(&mut c, StreamTag::Build, &mut out),
            "the probe stream is open"
        );
        assert_eq!(c.processed(), 8, "the held probes replayed");
        assert_eq!(out.acks, vec![(BUILD, 0), (PROBE, 0)]);
        assert!(!x.log(PROBE).unwrap().has_undelivered(0));
        assert_eq!(
            out.results.len(),
            4,
            "results precede the ack that covers them"
        );
        assert!(
            on_eos(&mut c, StreamTag::Probe, &mut out),
            "finished exactly once"
        );
    }

    /// A death in the Drain round abandons the recall at once — the
    /// answer queued behind the death is never waited for — and before
    /// the swap: router and staged buffers untouched, gate reopened at
    /// the old epoch. The next recall leaves the dead worker out of its
    /// barriers.
    #[test]
    fn a_death_in_the_drain_round_aborts_the_recall_before_the_swap() {
        let (x, _) = join_exchange(false);
        let mut p = producer(&x, PROBE, StreamTag::Probe);
        let mut sink = FakeSink::default();
        p.stage(&tuple(1, 1), &mut sink);
        let before = weights(&x);
        let mut t = FakeTransport {
            replies: VecDeque::from([RecallReply::Down { worker: 1 }, drained(0)]),
            ..FakeTransport::default()
        };
        let mut coordinator = Coordinator::new(x.clone());
        let target = RecallTarget::Deploy(DistributionVector::new(&[0.1, 0.9]).unwrap());
        let mut swapped = false;
        let outcome = coordinator.recall(target, &[0, 1], &mut t, |_| swapped = true);
        assert_eq!(outcome, RecallOutcome::Aborted);
        assert_eq!(t.drains, vec![0, 1]);
        assert_eq!(t.replies.len(), 1, "worker 0's answer was not waited for");
        assert!(t.migrates.is_empty() && !swapped, "never reached the swap");
        assert_eq!(weights(&x), before, "router untouched");
        assert_eq!(
            (t.aborts, t.pause_open, t.epoch),
            (1, false, 0),
            "gate reopened"
        );
        assert!(!p.observe_epoch(t.epoch), "buffers stay as staged");
        assert_eq!(x.tallies.restaged.load(Ordering::Relaxed), 0);

        // Worker 0's stale answer is dropped; worker 1 is never asked
        // again, nor waited on.
        t.replies.extend([
            answer(RecallPhase::Drain, 0, 2),
            answer(RecallPhase::Migrate, 0, 2),
        ]);
        let target = RecallTarget::Deploy(DistributionVector::new(&[0.1, 0.9]).unwrap());
        let outcome = coordinator.recall(target, &[0, 1], &mut t, |_| {});
        assert!(matches!(
            outcome,
            RecallOutcome::Deployed {
                completed: true,
                ..
            }
        ));
        assert_eq!(t.drains, vec![0, 1, 0]);
        assert_eq!(t.migrates.len(), 1);
        assert!(t.replies.is_empty());
    }

    /// A death in the Migrate round ends the round only once every other
    /// live worker has answered: the survivor's surrendered state, queued
    /// behind the death, is re-routed in full before the round ends, and
    /// the recall is deployed but not completed.
    #[test]
    fn a_death_in_the_migrate_round_still_collects_every_survivors_surrender() {
        let (x, factory) = join_exchange(false);
        let owner = |k: i64| {
            x.router
                .lock()
                .route(StreamTag::Build, &tuple(k, 0))
                .unwrap()
        };
        let keys: Vec<i64> = (0..64).filter(|&k| owner(k) == 1).collect();
        let log = x.log(BUILD).unwrap();
        let items = keys.iter().map(|&k| {
            let _ = log.record(1, (StreamTag::Build, tuple(k, k as u64)));
            Staged::Tuple(StreamTag::Build, tuple(k, k as u64))
        });
        let block = Block {
            source: BUILD,
            items: items.collect(),
        };
        let mut c1 = consumer(&x, &factory, 1);
        c1.on_block(block, &mut FakeOut::new(&x, 1));
        let mut t = FakeTransport {
            replies: VecDeque::from([drained(0), drained(1)]),
            consumers: vec![consumer(&x, &factory, 0), c1],
            dies_on_migrate: Some(0),
            ..FakeTransport::default()
        };
        let target = RecallTarget::Deploy(DistributionVector::new(&[0.75, 0.25]).unwrap());
        let outcome = Coordinator::new(x.clone()).recall(target, &[0, 1], &mut t, |_| {});
        let moved: Vec<u64> = keys
            .iter()
            .filter(|&&k| owner(k) == 0)
            .map(|&k| k as u64)
            .collect();
        assert!(!moved.is_empty() && moved.len() < keys.len());
        assert_eq!(
            outcome,
            RecallOutcome::Deployed {
                epoch: 1,
                state_moved: moved.len() as u64,
                recalled: 0,
                completed: false,
            }
        );
        assert!(t.replies.is_empty(), "every survivor's reply was read");
        assert!(t.redelivered.iter().all(|(dest, _)| *dest == 0));
        let mut sent: Vec<u64> = t
            .redelivered
            .iter()
            .flat_map(|(_, b)| b)
            .map(|e| e.2.seq())
            .collect();
        sent.sort_unstable();
        assert_eq!(sent, moved, "all of it, before the round ended");
        assert_eq!((t.epoch, t.pause_open), (1, false), "resumed");
        assert!(log.audit().conserved(), "{:?}", log.audit());
    }

    /// A consumer mid-build surrenders exactly what `W′` moves — the
    /// state and the held probes of its outgoing buckets, state first —
    /// and keeps the rest held, in order. What it surrenders goes back out
    /// as ⌈n / B⌉ blocks per new owner in arrival order, none of it to the
    /// worker it came from, counted exactly as when each tuple travelled
    /// alone, and the log is settled in one pass however many blocks came.
    #[test]
    fn a_surrender_is_redelivered_in_blocks_per_owner_with_state_ahead_of_probes() {
        const B: usize = 4; // the test exchange's `buffer_tuples`
        let (x, factory) = join_exchange(false);
        let owner = |e: &Routed| x.router.lock().route(e.0, &e.2).unwrap() as usize;
        // Keys 0..46 build and probe; each consumer gets what the initial
        // router sends it, probes ahead of build so they are held.
        let state = |k: u64| (StreamTag::Build, BUILD, tuple(k as i64, k));
        let probe = |k: u64| (StreamTag::Probe, PROBE, tuple(k as i64, 100 + k));
        let all: Vec<Routed> = (0..46).map(probe).chain((0..46).map(state)).collect();
        let at: Vec<usize> = all.iter().map(&owner).collect();
        let mut consumers = Vec::new();
        for p in 0..2 {
            let mut c = consumer(&x, &factory, p);
            let mut out = FakeOut::new(&x, p);
            for (source, stream) in [(PROBE, StreamTag::Probe), (BUILD, StreamTag::Build)] {
                let mine = all
                    .iter()
                    .zip(&at)
                    .filter(|(e, a)| **a == p && e.0 == stream);
                let items = mine.map(|(e, _)| Staged::Tuple(e.0, e.2.clone()));
                let block = Block {
                    source,
                    items: items.collect(),
                };
                if stream == StreamTag::Build {
                    for item in &block.items {
                        let Staged::Tuple(_, t) = item else { continue };
                        let _ = x.log(BUILD).unwrap().record(p as u32, (stream, t.clone()));
                    }
                }
                c.on_block(block, &mut out);
            }
            assert!(out.results.is_empty(), "every probe is held");
            consumers.push(c);
        }
        let logged_at_0 = x.log(BUILD).unwrap().unacked_len(0);
        let mut t = FakeTransport {
            replies: VecDeque::from([drained(0), drained(1)]),
            consumers,
            ..FakeTransport::default()
        };
        let target = RecallTarget::Deploy(DistributionVector::new(&[0.25, 0.75]).unwrap());
        let outcome = Coordinator::new(x.clone()).recall(target, &[0, 1], &mut t, |_| {});

        // The per-tuple definition, under the deployed router: an entry
        // moves when its owner is no longer where it was.
        let moved = |stream: StreamTag| -> Vec<u64> {
            let entries = all
                .iter()
                .zip(&at)
                .filter(|(e, a)| e.0 == stream && owner(e) != **a);
            entries.map(|(e, _)| e.2.seq()).collect()
        };
        let (moved_state, moved_probes) = (moved(StreamTag::Build), moved(StreamTag::Probe));
        assert!(
            !moved_state.is_empty() && moved_probes.len() < 23,
            "some go, some stay"
        );
        assert_eq!(
            outcome,
            RecallOutcome::Deployed {
                epoch: 1,
                state_moved: moved_state.len() as u64,
                recalled: moved_probes.len() as u64,
                completed: true,
            }
        );
        // Only partition 0 gave anything up, all of it to partition 1:
        // its state (hash-table order) in whole blocks ahead of its
        // probes (arrival order), one partial block at the end.
        assert!(t.redelivered.iter().all(|(dest, _)| *dest == 1));
        let sent: Vec<&Routed> = t.redelivered.iter().flat_map(|(_, b)| b).collect();
        let n = moved_state.len() + moved_probes.len();
        assert_eq!(sent.len(), n);
        let mut sent_state: Vec<u64> = sent[..moved_state.len()]
            .iter()
            .map(|e| e.2.seq())
            .collect();
        sent_state.sort_unstable();
        assert_eq!(sent_state, moved_state, "state first");
        let sent_probes: Vec<u64> = sent[moved_state.len()..]
            .iter()
            .map(|e| e.2.seq())
            .collect();
        assert_eq!(sent_probes, moved_probes, "then the probes, in order");
        assert_eq!(t.redelivered.len(), n.div_ceil(B), "⌈n / B⌉ blocks");
        let full = t
            .redelivered
            .iter()
            .rev()
            .skip(1)
            .all(|(_, b)| b.len() == B);
        assert!(full, "only an owner's last block may be partial");
        let blocks = t.redelivered.len() as u64;
        assert_eq!(x.tallies.recall_blocks.load(Ordering::Relaxed), blocks);
        // The moved state left partition 0's slice of the build log in
        // one pass over it, not one per surrendered block.
        let log = x.log(BUILD).unwrap();
        assert_eq!(
            (log.unacked_len(0), log.entries_visited()),
            (logged_at_0 - moved_state.len(), logged_at_0 as u64)
        );
        assert!(log.audit().conserved(), "{:?}", log.audit());

        // The probes that stayed never left: when the build ends each
        // consumer replays its own — partition 1's after the re-delivery —
        // and every probe finds its build tuple exactly once.
        let mut joined = Vec::new();
        for (p, mut c) in t.consumers.drain(..).enumerate() {
            let mut out = FakeOut::new(&x, p);
            for (_, block) in t.redelivered.iter().filter(|(dest, _)| *dest == p) {
                c.on_migrated(block.clone(), &mut out);
            }
            assert!(!on_eos(&mut c, StreamTag::Build, &mut out));
            assert!(
                on_eos(&mut c, StreamTag::Probe, &mut out),
                "flushes the tail"
            );
            let seqs: Vec<u64> = out.results.iter().map(Tuple::seq).collect();
            if p == 0 {
                let stayed = all
                    .iter()
                    .zip(&at)
                    .filter(|(e, a)| e.0 == StreamTag::Probe && **a == 0 && owner(e) == 0);
                let stayed: Vec<u64> = stayed.map(|(e, _)| e.2.seq()).collect();
                assert_eq!(seqs, stayed, "held throughout, in arrival order");
            }
            joined.extend(seqs);
        }
        joined.sort_unstable();
        assert_eq!(joined, (100..146).collect::<Vec<u64>>());
    }

    /// In a resilient run every moved entry's log record follows it to
    /// the new owner: one pass over the old owner's slice per (source,
    /// new owner), where there used to be one per moved tuple.
    #[test]
    fn a_resilient_reroute_visits_the_log_once_per_group_not_once_per_tuple() {
        const LOGGED: u64 = 400;
        let (x, _) = join_exchange(true);
        let log = x.log(PROBE).unwrap();
        let held: Vec<Routed> = (0..LOGGED)
            .map(|k| (StreamTag::Probe, PROBE, tuple(k as i64, k)))
            .collect();
        for (stream, _, t) in &held {
            let _ = log.record(0, (*stream, t.clone()));
        }
        recall_everything_to_partition_1(&x);
        let before = log.entries_visited();
        let mut moves = gridq_recovery::LogMoves::default();
        let mut delivered = 0;
        let counts = x.reroute(0, held, &mut moves, |owner, _| {
            assert_eq!(owner, 1);
            delivered += 1;
        });
        x.settle(moves);
        assert_eq!((counts, delivered), ((0, LOGGED), LOGGED));
        assert_eq!(
            (log.unacked_len(0), log.unacked_len(1)),
            (0, LOGGED as usize)
        );
        assert_eq!(
            log.entries_visited() - before,
            LOGGED,
            "one pass over the {LOGGED} entries, not one for each of them"
        );
        assert!(log.audit().conserved(), "{:?}", log.audit());
    }

    /// A failover zeroes the dead partition's weight and replays its log to
    /// the survivors, build entries before probe entries, re-recording each
    /// under its new owner.
    #[test]
    fn failover_zeroes_the_dead_partition_and_replays_build_before_probe() {
        let (x, _) = join_exchange(true);
        // Partition 1 dies holding probe and build entries (logged in that
        // order, to show the replay order is by stream, not by age).
        for (source, stream) in [(PROBE, StreamTag::Probe), (BUILD, StreamTag::Build)] {
            for seq in 0..3u64 {
                let _ = x
                    .log(source)
                    .unwrap()
                    .record(1, (stream, tuple(seq as i64, seq)));
            }
        }
        let mut t = FakeTransport {
            replies: VecDeque::from([drained(0), migrated(0)]),
            ..FakeTransport::default()
        };
        let target = RecallTarget::Failover { dead: vec![1] };
        let outcome = Coordinator::new(x.clone()).recall(target, &[0], &mut t, |_| {});
        let RecallOutcome::FailedOver {
            deployed, replayed, ..
        } = outcome
        else {
            panic!("failover must complete: {outcome:?}");
        };
        assert_eq!((deployed.weights(), replayed), (&[1.0, 0.0][..], 6));
        assert_eq!(weights(&x), vec![1.0, 0.0]);
        assert_eq!(
            (t.drains.as_slice(), t.epoch),
            (&[0][..], 1),
            "survivors only; resumed"
        );
        // Six entries for one survivor at four tuples a block: two blocks,
        // build entries ahead of probe entries across them.
        let sizes: Vec<usize> = t.redelivered.iter().map(|(_, b)| b.len()).collect();
        assert_eq!(sizes, vec![4, 2]);
        let blocks = t.redelivered.iter().flat_map(|(_, b)| b);
        let streams: Vec<StreamTag> = blocks.map(|e| e.0).collect();
        let mut expected = vec![StreamTag::Build; 3];
        expected.extend([StreamTag::Probe; 3]);
        assert_eq!(streams, expected);
        assert!(t.redelivered.iter().all(|(dest, _)| *dest == 0));
        for source in [BUILD, PROBE] {
            let log = x.log(source).unwrap();
            assert_eq!((log.unacked_len(1), log.unacked_len(0)), (0, 3));
            assert!(log.audit().conserved(), "{:?}", log.audit());
        }
    }

    /// A failover replay of more than one checkpoint interval joins the
    /// survivor's open window: no window closes behind the producer's
    /// back (the coordinator sends no markers, so one closed there could
    /// never be acknowledged), and the producer's next forced checkpoint
    /// covers every replayed entry with a marker it actually sends.
    #[test]
    fn a_failover_replay_longer_than_an_interval_closes_no_window() {
        const REPLAYED: u64 = 10; // two and a half windows of four
        let (x, _) = join_exchange(true);
        let log = x.log(PROBE).unwrap();
        for seq in 0..REPLAYED {
            let _ = log.record(1, (StreamTag::Probe, tuple(seq as i64, seq)));
        }
        let mut t = FakeTransport {
            replies: VecDeque::from([drained(0), migrated(0)]),
            ..FakeTransport::default()
        };
        let target = RecallTarget::Failover { dead: vec![1] };
        let outcome = Coordinator::new(x.clone()).recall(target, &[0], &mut t, |_| {});
        assert!(
            matches!(outcome, RecallOutcome::FailedOver { replayed, .. } if replayed == REPLAYED)
        );
        assert_eq!(log.unacked_len(0), REPLAYED as usize);
        assert_eq!(
            log.undelivered(0),
            (0, 0),
            "the replay closed a window whose marker is never sent"
        );
        let cp = log.force_checkpoint(0).unwrap().expect("the open window");
        assert_eq!(log.undelivered(0), (1, REPLAYED));
        let acked = log.acknowledge(0, cp.id, log.epoch());
        assert_eq!(
            acked,
            gridq_recovery::AckOutcome::Accepted(REPLAYED as usize)
        );
        assert!(log.audit().conserved(), "{:?}", log.audit());
    }

    /// A failover can abort only on a second death, in its Migrate round
    /// here: nothing is replayed and the gate reopens at the old epoch.
    /// The second death's own failover zeroes both partitions and replays
    /// the surviving log entries of both, build before probe.
    #[test]
    fn a_failover_aborted_by_a_second_death_leaves_its_replay_to_the_next() {
        let scans = [
            ("build", StreamTag::Build, 0.0),
            ("probe", StreamTag::Probe, 0.0),
        ];
        let factory = HashJoinFactory::new(&schema(), &schema(), 0, 0, 0.1, 0.5);
        let plan = single_stage_plan(1, &scans, factory, 3, Some(16), 4);
        let x = Exchange::new(&plan, "test", true, None, true, 4).unwrap();
        for dead in [1, 2] {
            for (source, stream) in [(PROBE, StreamTag::Probe), (BUILD, StreamTag::Build)] {
                let log = x.log(source).unwrap();
                let _ = log.record(dead, (stream, tuple(dead as i64, u64::from(dead))));
            }
        }
        let mut coordinator = Coordinator::new(x.clone());
        let mut t = FakeTransport {
            replies: VecDeque::from([drained(0), drained(2), migrated(0)]),
            dies_on_migrate: Some(2),
            ..FakeTransport::default()
        };
        let first = RecallTarget::Failover { dead: vec![1] };
        let outcome = coordinator.recall(first, &[0, 2], &mut t, |_| {});
        assert_eq!(outcome, RecallOutcome::Aborted);
        assert_eq!((t.aborts, t.epoch), (1, 0), "gate reopened");
        assert!(t.redelivered.is_empty(), "nothing replayed");
        assert!(t.replies.is_empty());

        t.replies.extend([
            answer(RecallPhase::Drain, 0, 2),
            answer(RecallPhase::Migrate, 0, 2),
        ]);
        let next = RecallTarget::Failover { dead: vec![1, 2] };
        let outcome = coordinator.recall(next, &[0, 2], &mut t, |_| {});
        let RecallOutcome::FailedOver {
            deployed, replayed, ..
        } = outcome
        else {
            panic!("the next failover completes: {outcome:?}");
        };
        assert_eq!((deployed.weights(), replayed), (&[1.0, 0.0, 0.0][..], 4));
        assert_eq!(
            t.drains,
            vec![0, 2, 0],
            "the second death is not asked again"
        );
        let streams: Vec<StreamTag> = t
            .redelivered
            .iter()
            .flat_map(|(_, b)| b)
            .map(|e| e.0)
            .collect();
        let expected = [
            StreamTag::Build,
            StreamTag::Build,
            StreamTag::Probe,
            StreamTag::Probe,
        ];
        assert_eq!(streams, expected);
        assert!(t.redelivered.iter().all(|(dest, _)| *dest == 0));
        for source in [BUILD, PROBE] {
            let log = x.log(source).unwrap();
            let unacked = [0, 1, 2].map(|p| log.unacked_len(p));
            assert_eq!(unacked, [2, 0, 0]);
            assert!(log.audit().conserved(), "{:?}", log.audit());
        }
        assert_eq!(t.epoch, 1, "resumed");
    }

    const STRIDE: u64 = 10;

    /// Monitoring on at one M1 per [`STRIDE`] tuples, the progress count
    /// wired to the fake's.
    fn monitored(mut c: Consumer, out: &FakeOut) -> Consumer {
        c.m1_stride = Some(STRIDE as u32);
        c.progress = Some((Arc::clone(&out.progress), None));
        c
    }

    /// What must hold whenever the consumer is about to sleep or has
    /// returned to its driver: every sample its tuples called for has
    /// been handed over, and the run-wide count has seen every tuple.
    fn nothing_pending(c: &Consumer, out: &FakeOut) {
        let progress = out.progress.load(Ordering::Relaxed);
        assert_eq!(progress, c.processed(), "the count is handed over too");
        assert_eq!(out.samples().len() as u64, progress / STRIDE);
        for &(samples, progress) in &out.pays {
            let due = progress / STRIDE;
            assert_eq!(samples as u64, due, "a sample waited behind a pay");
        }
    }

    /// The block is the unit of transport, not of sampling: blocks
    /// smaller than the stride and coprime to it (the
    /// `monitoring_sampling` shape) and blocks of ten strides both yield
    /// `floor(n / stride)` samples plus the forced tail, in the order
    /// they were taken, at most one hand-over per block, none of them
    /// ever behind a pay.
    #[test]
    fn m1_samples_leave_once_per_block_ahead_of_its_pay() {
        for (block, n) in [(7usize, 253u64), (100, 1000)] {
            let table = int_table("t", 0..1);
            let shape = CallShape {
                buffer_tuples: block,
                ..CallShape::default()
            };
            let plan = call_plan(&table, &shape);
            let x = Exchange::new(&plan, "test", false, None, false, 50).unwrap();
            let mut out = FakeOut::new(&x, 0);
            let evaluator = plan.stages[0].factory.create(0);
            let c = Consumer::new(x.consumer_spec(0, 1, 0.0, None), evaluator);
            let mut c = monitored(c, &out);
            let seqs: Vec<u64> = (0..n).collect();
            for chunk in seqs.chunks(block) {
                let before = out.handovers.len();
                let staged = |&s| Staged::Tuple(StreamTag::Single, tuple(s as i64, s));
                let block = Block {
                    source: 0,
                    items: chunk.iter().map(staged).collect(),
                };
                c.on_block(block, &mut out);
                out.pay(&mut c);
                assert!(out.handovers.len() <= before + 1, "one hand-over a block");
                nothing_pending(&c, &out);
            }
            assert!(
                on_eos(&mut c, StreamTag::Single, &mut out),
                "the only stream ended"
            );
            // One output per tuple, so a sample's `tuples_produced` is
            // the count at which it was taken.
            let mut expected: Vec<u64> = (1..=n / STRIDE).map(|k| k * STRIDE).collect();
            if n % STRIDE != 0 {
                expected.push(n); // the forced tail
            }
            assert_eq!(out.samples(), expected, "blocks of {block}");
            assert!(out.handovers.len() as u64 <= n.div_ceil(block as u64) + 1);
            assert_eq!(out.progress.load(Ordering::Relaxed), n);
        }
    }

    /// The other ways tuples get processed — the held-probe replay in
    /// its 16-tuple slices, a `Migrated` re-delivery — hand over at the
    /// same point, and a consumer whose streams close without their last
    /// end-of-stream has nothing left to hand over.
    #[test]
    fn replay_slices_and_redelivery_hand_over_before_each_pay() {
        let (x, factory) = join_exchange(false);
        let mut out = FakeOut::new(&x, 0);
        let mut c = monitored(consumer(&x, &factory, 0), &out);
        let probes = |range: std::ops::Range<u64>| -> Vec<Routed> {
            range
                .map(|s| (StreamTag::Probe, PROBE, tuple(s as i64, 100 + s)))
                .collect()
        };
        let held = probes(0..50).into_iter();
        c.on_block(
            Block {
                source: PROBE,
                items: held.map(|(s, _, t)| Staged::Tuple(s, t)).collect(),
            },
            &mut out,
        );
        out.pay(&mut c);
        assert_eq!((c.processed(), out.pays.len()), (0, 0), "held: no work yet");
        let built = (0..8u64).map(|s| Staged::Tuple(StreamTag::Build, tuple(s as i64, s)));
        c.on_block(
            Block {
                source: BUILD,
                items: built.collect(),
            },
            &mut out,
        );
        out.pay(&mut c);
        nothing_pending(&c, &out);
        let (handovers, pays) = (out.handovers.len(), out.pays.len());
        assert!(
            !on_eos(&mut c, StreamTag::Build, &mut out),
            "the probes go on"
        );
        assert_eq!(c.processed(), 58, "the held probes replayed");
        let slices = 50usize.div_ceil(16);
        assert_eq!(out.pays.len() - pays, slices, "a pay per slice of 16");
        assert!(out.handovers.len() - handovers <= slices);
        nothing_pending(&c, &out);

        let handovers = out.handovers.len();
        c.on_migrated(probes(50..75), &mut out);
        out.pay(&mut c);
        assert_eq!(out.handovers.len(), handovers + 1, "one for the block");
        nothing_pending(&c, &out);

        // Every sender gone: the driver's closing hand-over finds nothing,
        // and (as before) no tail sample is forced without an
        // end-of-stream.
        let handovers = out.handovers.len();
        c.hand_over(&mut out);
        assert_eq!(out.handovers.len(), handovers);
        nothing_pending(&c, &out);
        assert_eq!(c.processed(), 83);
    }

    /// The keys in `0..n` the initial router sends to partition 0 and,
    /// under `[0.25, 0.75]`, away from it (the buckets it surrenders).
    fn keys_leaving_partition_0(x: &Exchange, n: i64) -> (Vec<i64>, Vec<i64>) {
        let route = |r: &mut gridq_engine::distributed::Router, k: i64| {
            r.route(StreamTag::Probe, &tuple(k, 0)).unwrap()
        };
        let mine: Vec<i64> = (0..n)
            .filter(|&k| route(&mut x.router.lock(), k) == 0)
            .collect();
        let mut after = x.router.lock().clone();
        after
            .apply_retrospective(&DistributionVector::new(&[0.25, 0.75]).unwrap())
            .unwrap();
        let leaving = mine.iter().copied().filter(|&k| route(&mut after, k) == 1);
        (mine.clone(), leaving.collect())
    }

    /// `stream` tuples of `keys` (seq = `base + key`) from `source` to
    /// partition 0, each recorded in the source's log, with the markers
    /// the log closes behind them.
    fn logged_block(x: &Exchange, source: usize, keys: &[i64], base: u64) -> Block {
        let stream = if source == BUILD {
            StreamTag::Build
        } else {
            StreamTag::Probe
        };
        let log = x.log(source).unwrap();
        let mut items = Vec::new();
        for &k in keys {
            let t = tuple(k, base + k as u64);
            items.push(Staged::Tuple(stream, t.clone()));
            if let Some(cp) = log.record(0, (stream, t)).unwrap() {
                items.push(Staged::Marker(cp, log.epoch()));
            }
        }
        Block { source, items }
    }

    /// Runs the `[0.25, 0.75]` recall over the two consumers; returns them
    /// and the transport that recorded the re-deliveries.
    fn recall_quarter(x: &Exchange, consumers: Vec<Consumer>) -> (Vec<Consumer>, FakeTransport) {
        let mut t = FakeTransport {
            replies: VecDeque::from([drained(0), drained(1)]),
            consumers,
            ..FakeTransport::default()
        };
        let target = RecallTarget::Deploy(DistributionVector::new(&[0.25, 0.75]).unwrap());
        let outcome = Coordinator::new(x.clone()).recall(target, &[0, 1], &mut t, |_| {});
        assert!(
            matches!(
                outcome,
                RecallOutcome::Deployed {
                    completed: true,
                    ..
                }
            ),
            "{outcome:?}"
        );
        (std::mem::take(&mut t.consumers), t)
    }

    /// The seqs re-delivered to partition 1, stream by stream, in order.
    fn redelivered_seqs(t: &FakeTransport, stream: StreamTag) -> Vec<u64> {
        let to_1 = t.redelivered.iter().filter(|(dest, _)| *dest == 1);
        let entries = to_1.flat_map(|(_, b)| b).filter(|e| e.0 == stream);
        entries.map(|e| e.2.seq()).collect()
    }

    /// A threaded `Drain` is answered at once; the `Migrate` then takes the
    /// queue as it stands. The queued tuples of the outgoing buckets go
    /// with the state (state first), and the rest stays shelved with every
    /// marker: a window is acked only once the kept tuples ahead of its
    /// marker are processed.
    #[test]
    fn a_migrate_surrenders_queued_tuples_of_outgoing_buckets_and_acks_kept_windows_later() {
        let (x, factory) = join_exchange(false);
        let (mine, leaving) = keys_leaving_partition_0(&x, 64);
        assert!(!leaving.is_empty() && leaving.len() < mine.len());
        let mut c = consumer(&x, &factory, 0);
        let mut out = FakeOut::new(&x, 0);
        c.on_block(logged_block(&x, BUILD, &mine, 0), &mut out);
        assert!(
            !on_eos(&mut c, StreamTag::Build, &mut out),
            "the probes go on"
        );
        let built = c.processed();
        // Two probe windows of four queue up behind the slow operator.
        let queued = &mine[..8];
        c.shelve_block(logged_block(&x, PROBE, &queued[..4], 100), &mut out);
        c.shelve_block(logged_block(&x, PROBE, &queued[4..], 100), &mut out);
        assert_eq!(c.processed(), built, "shelved, not processed");

        let (mut consumers, t) = recall_quarter(&x, vec![c, consumer(&x, &factory, 1)]);
        let mut c = consumers.swap_remove(0);
        let goes = |k: &&i64| leaving.contains(k);
        let mut state = redelivered_seqs(&t, StreamTag::Build);
        state.sort_unstable();
        let moved_state: Vec<u64> = mine.iter().filter(goes).map(|&k| k as u64).collect();
        assert_eq!(state, moved_state, "the state of the outgoing buckets");
        let moved: Vec<u64> = queued
            .iter()
            .filter(goes)
            .map(|&k| 100 + k as u64)
            .collect();
        assert!(
            !moved.is_empty() && moved.len() < 8,
            "some queued probes go, some stay"
        );
        assert_eq!(
            redelivered_seqs(&t, StreamTag::Probe),
            moved,
            "in queue order"
        );
        let sent: Vec<StreamTag> = t
            .redelivered
            .iter()
            .flat_map(|(_, b)| b)
            .map(|e| e.0)
            .collect();
        assert!(
            sent.windows(2)
                .all(|w| !(w[0] == StreamTag::Probe && w[1] == StreamTag::Build)),
            "state ahead of probes"
        );

        // Nothing kept is processed or acked until its steps run, and each
        // window's ack follows its own kept tuples.
        assert!(out.acks.is_empty());
        let kept = |w: &[i64]| w.iter().filter(|k| !leaving.contains(k)).count() as u64;
        assert_eq!(c.step(&mut out), Progress::Busy);
        assert_eq!(c.processed(), built + kept(&queued[..4]));
        assert_eq!(out.acks, vec![(PROBE, 0)]);
        assert_eq!(c.step(&mut out), Progress::Busy);
        assert_eq!(c.processed(), built + kept(queued));
        assert_eq!(out.acks, vec![(PROBE, 0), (PROBE, 1)]);
        assert_eq!(c.step(&mut out), Progress::Idle, "the probe stream is open");
        let log = x.log(PROBE).unwrap();
        assert_eq!(log.unacked_len(0), 0, "moved entries left, kept ones acked");
        assert!(log.audit().conserved(), "{:?}", log.audit());
    }

    /// A decision that lands after the last scan still deploys, because
    /// the consumers serve control until the run releases them: with every
    /// producer finished the barrier is complete with none parked, and the
    /// `Migrate` takes the slow partition's queue — its end-of-stream
    /// included — as it stands. Every key still joins exactly once.
    #[test]
    fn a_deploy_after_every_producer_finished_drains_and_migrates_the_queue() {
        let (x, factory) = join_exchange(false);
        let (mine, leaving) = keys_leaving_partition_0(&x, 64);
        let mut c = consumer(&x, &factory, 0);
        let mut out = FakeOut::new(&x, 0);
        c.on_block(logged_block(&x, BUILD, &mine, 0), &mut out);
        assert!(!on_eos(&mut c, StreamTag::Build, &mut out));
        let built = c.processed();
        // The probe scan has ended: its windows and its end-of-stream are
        // queued behind the slow operator.
        c.shelve_block(logged_block(&x, PROBE, &mine, 100), &mut out);
        c.shelve_eos(StreamTag::Probe);
        // The fast partition has finished: it reported completion and
        // serves control until the run releases it.
        let mut c1 = consumer(&x, &factory, 1);
        let mut out1 = FakeOut::new(&x, 1);
        assert!(!on_eos(&mut c1, StreamTag::Build, &mut out1));
        assert!(on_eos(&mut c1, StreamTag::Probe, &mut out1));

        let mut t = FakeTransport {
            replies: VecDeque::from([drained(0), drained(1)]),
            consumers: vec![c, c1],
            ..FakeTransport::default()
        };
        let target = RecallTarget::Deploy(DistributionVector::new(&[0.25, 0.75]).unwrap());
        let outcome = Coordinator::new(x.clone()).recall(target, &[0, 1], &mut t, |_| {});
        assert!(
            matches!(
                outcome,
                RecallOutcome::Deployed {
                    completed: true,
                    ..
                }
            ),
            "{outcome:?}"
        );
        assert_eq!((t.drains.clone(), t.aborts), (vec![0, 1], 0));
        let moved: Vec<u64> = mine
            .iter()
            .filter(|k| leaving.contains(k))
            .map(|&k| 100 + k as u64)
            .collect();
        assert!(!moved.is_empty() && moved.len() < mine.len());
        assert_eq!(redelivered_seqs(&t, StreamTag::Probe), moved);

        let mut c1 = t.consumers.pop().unwrap();
        let mut c = t.consumers.pop().unwrap();
        assert!(
            steps(&mut c, &mut out),
            "the kept queue finishes the partition"
        );
        let kept = (mine.len() - leaving.len()) as u64;
        assert_eq!(c.processed(), built + kept);
        for (dest, block) in std::mem::take(&mut t.redelivered) {
            assert_eq!(dest, 1);
            c1.on_migrated(block, &mut out1);
        }
        // The release's flush.
        c1.flush_results(true, &mut out1);
        let results = out.results.iter().chain(&out1.results);
        let mut joined: Vec<i64> = results.map(|r| r.value(0).as_int().unwrap()).collect();
        joined.sort_unstable();
        assert_eq!(joined, mine, "every key joins once");
        let log = x.log(PROBE).unwrap();
        assert_eq!(log.unacked_len(0), 0, "moved entries left, kept ones acked");
        assert!(log.audit().conserved(), "{:?}", log.audit());
    }

    /// The end-of-build replay runs a slice a step, so a `Migrate` that
    /// arrives between two slices surrenders the unreplayed held probes of
    /// the outgoing buckets — and never one already replayed.
    #[test]
    fn a_migrate_mid_replay_surrenders_the_unreplayed_probes_of_outgoing_buckets() {
        let (x, factory) = join_exchange(false);
        let (mine, leaving) = keys_leaving_partition_0(&x, 128);
        let probes: Vec<i64> = mine.iter().copied().cycle().take(48).collect();
        let mut c = consumer(&x, &factory, 0);
        let mut out = FakeOut::new(&x, 0);
        c.on_block(logged_block(&x, PROBE, &probes, 1000), &mut out);
        c.on_block(logged_block(&x, BUILD, &mine, 0), &mut out);
        let built = c.processed();
        c.end_stream(StreamTag::Build);
        assert_eq!(c.step(&mut out), Progress::Busy);
        assert_eq!(c.processed(), built + 16, "one slice replayed");

        let (mut consumers, t) = recall_quarter(&x, vec![c, consumer(&x, &factory, 1)]);
        let mut c = consumers.swap_remove(0);
        let unreplayed = &probes[16..];
        let moved: Vec<u64> = unreplayed
            .iter()
            .filter(|k| leaving.contains(k))
            .map(|&k| 1000 + k as u64)
            .collect();
        assert!(!moved.is_empty());
        assert_eq!(redelivered_seqs(&t, StreamTag::Probe), moved);
        assert!(!steps(&mut c, &mut out), "the probe stream is open");
        let kept = unreplayed.iter().filter(|k| !leaving.contains(k)).count() as u64;
        assert_eq!(c.processed(), built + 16 + kept);
    }

    /// A producer parked in a push to a full ring gives way to a pause:
    /// the barrier fills while the ring stays full, the block goes back to
    /// its buffer, and after the resume it is restaged under the new
    /// epoch — its tuples to their new owner, its marker to the original
    /// destination.
    #[test]
    fn a_producer_blocked_on_a_full_ring_gives_way_to_a_pause_and_restages_its_block() {
        use std::time::{Duration, Instant};

        use gridq_common::sync::ring::ring;

        use crate::recall::RecallGate;
        use crate::{run_producer, DataMsg, ProducerSink};

        let (x, _) = join_exchange(false);
        let (mine, _) = keys_leaving_partition_0(&x, 64);
        let rows: Vec<Tuple> = mine[..8].iter().map(|&k| tuple(k, k as u64)).collect();
        let (tx0, rx0) = ring::<DataMsg>(1);
        let (tx1, rx1) = ring::<DataMsg>(8);
        let gate = Arc::new(RecallGate::new(1));
        let mut sink = ProducerSink {
            source: PROBE,
            stream: StreamTag::Probe,
            rings: vec![tx0, tx1],
            gate: Some(Arc::clone(&gate)),
            ended: vec![false; 2],
            scale: 1e-12,
            chaos: None,
            m2: None,
        };
        let p = producer(&x, PROBE, StreamTag::Probe);
        let g = Arc::clone(&gate);
        let scan = std::thread::spawn(move || run_producer(p, &rows, Some(g), None, &mut sink));
        // The first block fills ring 0; the eighth row's flush waits on it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while x.tallies.routed.load(Ordering::Relaxed) < 8 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(gate.begin_pause(), 1);
        assert!(
            !rx0.is_empty() && rx1.is_empty(),
            "nothing popped, nothing else sent"
        );
        recall_everything_to_partition_1(&x);
        gate.resume(1);

        let collect = |rx: &gridq_common::sync::ring::RingReceiver<DataMsg>| {
            let mut got = Vec::new();
            while let Some(item) = rx.pop_wait(Duration::from_secs(10)) {
                let DataMsg::Block(b) = item else { break };
                let tuples = b.items.iter().filter_map(|i| match i {
                    Staged::Tuple(_, t) => Some(t.seq()),
                    Staged::Marker(..) => None,
                });
                let markers = b.items.iter().filter_map(|i| match i {
                    Staged::Marker(cp, _) => Some((cp.dest, cp.id)),
                    Staged::Tuple(..) => None,
                });
                got.push((tuples.collect::<Vec<_>>(), markers.collect::<Vec<_>>()));
            }
            got
        };
        let at_0 = collect(&rx0);
        scan.join().unwrap();
        let at_1 = collect(&rx1);
        let seqs: Vec<u64> = mine[..8].iter().map(|&k| k as u64).collect();
        assert_eq!(
            at_0,
            vec![(seqs[..4].to_vec(), vec![(0, 0)]), (vec![], vec![(0, 1)])],
            "the first block, then the withheld block's marker alone"
        );
        assert_eq!(at_1, vec![(seqs[4..].to_vec(), vec![(1, 0)])], "restaged");
        assert_eq!(x.tallies.restaged.load(Ordering::Relaxed), 4);
        let log = x.log(PROBE).unwrap();
        assert!(log.audit().conserved(), "{:?}", log.audit());
    }

    /// Resilient mode: a queued block that is partly surrendered is
    /// deduplicated tuple by tuple. Its adjacent duplicate surrenders
    /// nothing twice, and a later copy of its window, packed differently
    /// and with the first ack lost, finds every tuple —
    /// kept and surrendered alike — already seen.
    #[test]
    fn a_partly_surrendered_block_is_deduplicated_per_tuple() {
        let (x, factory) = join_exchange(true);
        let (mine, leaving) = keys_leaving_partition_0(&x, 64);
        let window: Vec<i64> = {
            let (go, stay): (Vec<i64>, Vec<i64>) = mine.iter().partition(|k| leaving.contains(k));
            vec![go[0], stay[0], go[1], stay[1]]
        };
        let mut c = consumer(&x, &factory, 0);
        let mut out = FakeOut::new(&x, 0);
        out.lose_acks = true;
        c.on_block(logged_block(&x, BUILD, &mine, 0), &mut out);
        assert!(!on_eos(&mut c, StreamTag::Build, &mut out));
        let built = c.processed();
        let block = logged_block(&x, PROBE, &window, 100);
        c.shelve_block(block.clone(), &mut out);
        c.shelve_block(block.clone(), &mut out);

        let (mut consumers, t) = recall_quarter(&x, vec![c, consumer(&x, &factory, 1)]);
        let mut c = consumers.swap_remove(0);
        let moved = vec![100 + window[0] as u64, 100 + window[2] as u64];
        assert_eq!(redelivered_seqs(&t, StreamTag::Probe), moved, "once each");
        assert!(!steps(&mut c, &mut out));
        assert_eq!(c.processed(), built + 2, "the two kept, once");
        let probe_acks: Vec<&(usize, u64)> = out.acks.iter().filter(|a| a.0 == PROBE).collect();
        assert_eq!(
            probe_acks,
            [&(PROBE, 0); 2],
            "each copy's marker acks; both acks lost"
        );

        let mut repacked = block;
        repacked.items.remove(0);
        c.on_block(repacked, &mut out);
        assert_eq!(c.processed(), built + 2, "every tuple already seen");
        assert!(
            c.surrender(Some(16), &[]).is_empty(),
            "nothing left to give"
        );
    }
}
