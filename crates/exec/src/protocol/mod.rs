//! The substrate-independent recall / retry / dedup protocol.
//!
//! Plain structs with methods: no threads, sockets, clocks or sleeps.
//! Modelled cost is *accrued* as model-ms debt and handed to the driver
//! to pay, time-outs are decided by the driver, and bytes never appear.
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

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use gridq_common::sync::Mutex;
use gridq_common::{cast, ChaosHook, GridError, NetAction, RecallPhase, Result, Tuple};
use gridq_engine::distributed::{DistributedPlan, Router};
use gridq_engine::evaluator::StreamTag;
use gridq_grid::Perturbation;
use gridq_recovery::{AckOutcome, Checkpoint, DeliveryGap, SharedRecoveryLog};

use consumer::ConsumerSpec;

pub(crate) type LogItem = (StreamTag, Tuple);
pub(crate) type SharedLogs = Arc<Vec<SharedRecoveryLog<LogItem>>>;

/// A tuple travelling outside the data plane — surrendered operator
/// state, a recalled held probe, a retransmit stray, a failover replay —
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
    /// Set on retry-epilogue retransmissions. A retransmitted window
    /// targets its *original* destination, and a recall may have moved a
    /// tuple's bucket elsewhere in the meantime — the consumer hands
    /// fresh tuples from such blocks to the ownership check. Ordinary
    /// blocks skip it: their routing was computed against the live
    /// distribution when they were staged.
    pub(crate) retransmit: bool,
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
    pub(crate) retransmitted: AtomicU64,
    /// Block pushes that failed because the destination was gone,
    /// counted in tuples.
    pub(crate) send_failures: AtomicU64,
    /// Blocks of tuples recalls and failovers moved outside the data
    /// plane: surrendered by router-less workers and re-delivered to
    /// their owners.
    pub(crate) recall_blocks: AtomicU64,
    pub(crate) gaps: Mutex<Vec<DeliveryGap>>,
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
    /// whole windows flushed atomically, producers retransmitting
    /// unacknowledged windows, consumers deduplicating.
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
            tallies: Arc::new(Tallies::default()),
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
    /// ack was lost (or the run does not log). Acks are best-effort
    /// control traffic: a lost one keeps the window in the log until a
    /// retransmission's ack supersedes it, a duplicate is absorbed by the
    /// log itself.
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
            NetAction::Drop => return None,
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

    /// The chaos seam on `worker`'s recall replies: `false` swallows the
    /// reply, modelling a worker that crashed mid-recall — the
    /// coordinator's barrier then times out.
    pub(crate) fn reply_survives(&self, phase: RecallPhase, worker: usize) -> bool {
        let chaos = self.chaos.as_deref();
        chaos.is_none_or(|c| c.on_recall_ctrl(phase, worker))
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
            hash_routing: self.router.lock().bucket_count().is_some(),
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

/// Rejects the cost and time-out knobs both executor configurations
/// carry: non-positive or non-finite cost scales (which would turn every
/// modelled cost into zero or infinite sleeps), negative or non-finite
/// receive costs, a zero checkpoint interval (no window could ever
/// close), a zero recall time-out.
pub(crate) fn validate_knobs(
    cost_scale: f64,
    receive_cost_ms: f64,
    checkpoint_interval: usize,
    recall_timeout_ms: u64,
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
    if recall_timeout_ms == 0 {
        return Err(GridError::Config(
            "recall_timeout_ms must be positive".into(),
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

    use gridq_common::{DataType, DistributionVector, Field, Schema, Tuple, Value};
    use gridq_engine::evaluator::{EvaluatorFactory, HashJoinFactory, StreamTag};
    use gridq_engine::fixtures::{call_plan, int_table, single_stage_plan, CallShape};
    use gridq_recovery::Checkpoint;

    use super::consumer::{Consumer, ConsumerOut, M1Sample};
    use super::coordinator::{
        Coordinator, MigrateCmd, RecallOutcome, RecallReply, RecallTarget, RecallTransport,
    };
    use super::producer::{BlockSink, Producer, ProducerSpec, RetryStep};
    use super::{Block, Exchange, Routed, Staged};
    use crate::RetryPolicy;

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
            fast_gap: true,
            retry: RetryPolicy::default(),
        };
        Producer::new(spec, x.clone(), 0)
    }

    fn consumer(x: &Exchange, factory: &Arc<dyn EvaluatorFactory>, index: usize) -> Consumer {
        Consumer::new(
            x.consumer_spec(index, 2, 0.0, None),
            factory.create(index as u32),
        )
    }

    fn weights(x: &Exchange) -> Vec<f64> {
        x.router.lock().current_distribution().weights().to_vec()
    }

    /// Records every block; `lose` drops that many leading blocks on the
    /// floor, like a chaos `Drop`.
    #[derive(Default)]
    struct FakeSink {
        lose: usize,
        blocks: Vec<(usize, Block)>,
        eos: Vec<usize>,
    }

    impl BlockSink for FakeSink {
        fn pay(&mut self, _model_ms: f64) {}

        fn ship(&mut self, dest: usize, block: Block, _duplicate: bool) -> usize {
            if self.lose > 0 {
                self.lose -= 1;
            } else {
                self.blocks.push((dest, block));
            }
            0
        }

        fn eos(&mut self, dest: usize, _stream: StreamTag, _source: usize) {
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
        forwarded: Vec<(usize, Routed)>,
        /// Every M1 hand-over, each sample as its `tuples_produced`.
        handovers: Vec<Vec<u64>>,
        /// The run-wide count a test may wire in as `Consumer::progress`.
        progress: Arc<AtomicU64>,
        /// At each `pay`: the samples handed over so far, and `progress`.
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
                forwarded: Vec::new(),
                handovers: Vec::new(),
                progress: Arc::new(AtomicU64::new(0)),
                pays: Vec::new(),
            }
        }

        fn samples(&self) -> Vec<u64> {
            self.handovers.concat()
        }
    }

    impl ConsumerOut for FakeOut {
        fn pay(&mut self, _model_ms: f64) {
            let progress = self.progress.load(Ordering::Relaxed);
            self.pays.push((self.samples().len(), progress));
        }

        fn ack(&mut self, source: usize, cp: Checkpoint, epoch: u64) -> bool {
            self.acks.push((source, cp.id));
            let acked = || self.x.acknowledge(source, self.index, cp, epoch, |_| {});
            !self.lose_acks && acked().is_some()
        }

        fn results(&mut self, batch: Vec<Tuple>) {
            self.results.extend(batch);
        }

        fn stray(&mut self, stream: StreamTag, source: usize, tuple: Tuple) -> Option<Tuple> {
            let owner = self.x.reroute_stray(self.index, stream, source, &tuple);
            if owner == self.index {
                return Some(tuple);
            }
            self.forwarded.push((owner, (stream, source, tuple)));
            None
        }

        fn m1(&mut self, samples: Vec<M1Sample>) {
            assert!(!samples.is_empty(), "a hand-over is never empty");
            let produced = samples.iter().map(|s| s.tuples_produced);
            self.handovers.push(produced.collect());
        }
    }

    /// A scripted recall transport: `parked` producers, a queue of replies
    /// (an empty queue is a time-out), and a record of everything asked.
    #[derive(Default)]
    struct FakeTransport {
        parked: Option<usize>,
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
    }

    impl RecallTransport for FakeTransport {
        fn pause(&mut self) -> Option<usize> {
            self.pause_open = self.parked.is_some();
            self.parked
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

        fn drain(&mut self, worker: usize, _token: u64) -> bool {
            self.drains.push(worker);
            true
        }

        fn migrate(&mut self, worker: usize, cmd: MigrateCmd) {
            if let Some(c) = self.consumers.get_mut(worker) {
                for entries in c.surrender(cmd.bucket_count, &cmd.outgoing) {
                    let block = RecallReply::Surrendered { worker, entries };
                    self.replies.push_back(block);
                }
                let done = RecallReply::MigrateDone { token: cmd.token };
                self.replies.push_back(done);
            }
            self.migrates.push((worker, cmd.outgoing));
        }

        fn redeliver(&mut self, dest: usize, block: Vec<Routed>) {
            self.redelivered.push((dest, block));
        }

        fn arm_deadline(&mut self) {}

        fn next_reply(&mut self) -> Option<RecallReply> {
            self.replies.pop_front()
        }
    }

    /// A completed recall that moves every bucket to partition 1 (the
    /// workers' side of it is the individual test's business).
    fn recall_everything_to_partition_1(x: &Exchange) {
        let done = RecallReply::MigrateDone { token: 1 };
        let drained = RecallReply::Drained { token: 1 };
        let mut t = FakeTransport {
            parked: Some(1),
            replies: VecDeque::from([drained.clone(), drained, done.clone(), done]),
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
    /// restage (and re-flush) a second time at its first retry slice.
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
        // ...and the first retry slice reports the same one.
        assert!(!p.observe_epoch(1), "same epoch: nothing to restage");
        assert_eq!(x.tallies.restaged.load(Ordering::Relaxed), restaged);
        p.finish_scan(&mut sink);
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

    /// PR 7's bug, once: a window closes, its block is lost, a recall moves
    /// the bucket, and the retry epilogue retransmits the window to its
    /// *original* destination. The old owner must forward each fresh tuple
    /// to the current owner exactly once, the log entry must follow, and the
    /// audit must stay conserved.
    #[test]
    fn retransmit_after_migration_is_forwarded_once_and_the_log_follows() {
        let (x, factory) = join_exchange(true);
        let mut p = producer(&x, BUILD, StreamTag::Build);
        let mut sink = FakeSink {
            lose: usize::MAX,
            ..FakeSink::default()
        };
        for k in 0..8 {
            p.stage(&tuple(k, k as u64), &mut sink);
        }
        p.finish_scan(&mut sink);
        let stranded = x.log(BUILD).unwrap().undelivered_windows(0);
        let stranded: usize = stranded.iter().map(|(_, w)| w.len()).sum();
        assert!(stranded > 0, "partition 0 owns some of eight keys");
        // The recall: every bucket moves to partition 1.
        recall_everything_to_partition_1(&x);
        // The retry epilogue: wait, then retransmit to the original dests.
        sink.lose = 0;
        assert!(matches!(p.retry_step(&mut sink), RetryStep::Wait(_)));
        assert!(matches!(p.retry_step(&mut sink), RetryStep::Wait(_)));
        let to_old_owner: Vec<Block> = sink
            .blocks
            .iter()
            .filter(|(dest, b)| *dest == 0 && b.retransmit)
            .map(|(_, b)| b.clone())
            .collect();
        assert!(!to_old_owner.is_empty());

        let mut old = consumer(&x, &factory, 0);
        let mut out = FakeOut::new(&x, 0);
        for block in &to_old_owner {
            old.on_block(block.clone(), &mut out);
            // At-least-once: the same retransmission arrives twice.
            old.on_block(block.clone(), &mut out);
        }
        assert_eq!(old.processed(), 0, "the old owner processes none of them");
        assert_eq!(out.forwarded.len(), stranded, "each forwarded exactly once");
        assert!(out.forwarded.iter().all(|(owner, _)| *owner == 1));
        let log = x.log(BUILD).unwrap();
        assert!(
            !log.has_undelivered(0),
            "the entries left the old owner's slice"
        );
        assert!(log.audit().conserved(), "{:?}", log.audit());

        // The new owner takes them as re-deliveries; the next attempt closes
        // the window they joined, and its ack settles the log.
        let mut new = consumer(&x, &factory, 1);
        let mut new_out = FakeOut::new(&x, 1);
        for (_, entry) in out.forwarded {
            // A forwarded stray is a block of one.
            new.on_migrated(vec![entry], &mut new_out);
        }
        assert_eq!(new.processed(), stranded as u64);
        sink.blocks.clear();
        let _ = p.retry_step(&mut sink);
        for (dest, block) in std::mem::take(&mut sink.blocks) {
            assert_eq!(dest, 1);
            new.on_block(block, &mut new_out);
        }
        assert_eq!(
            new.processed(),
            8,
            "the new owner ends up with all the state"
        );
        while p.retry_step(&mut sink) != RetryStep::Done {}
        assert!(!log.has_undelivered(0) && !log.has_undelivered(1));
        assert!(log.audit().conserved(), "{:?}", log.audit());
        assert!(x.tallies.gaps.lock().is_empty());
    }

    /// A duplicated block whose first ack was lost: the range key skips the
    /// duplicate's tuples wholesale, its marker still acks, and once that
    /// ack lands the acked marker id shadows a differently packed
    /// retransmission even though the per-tuple keys were evicted.
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
            retransmit: false,
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
            Block {
                source,
                items,
                retransmit: false,
            }
        };
        c.on_block(window(PROBE, StreamTag::Probe), &mut out);
        assert_eq!((c.processed(), out.acks.len()), (0, 0), "held, unacked");
        c.on_block(window(BUILD, StreamTag::Build), &mut out);
        assert_eq!(c.processed(), 4);
        assert_eq!(out.acks, vec![(BUILD, 0)], "build acks are never deferred");
        assert!(x.log(PROBE).unwrap().has_undelivered(0));
        assert!(
            !c.on_eos(StreamTag::Build, &mut out),
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
            c.on_eos(StreamTag::Probe, &mut out),
            "finished exactly once"
        );
    }

    /// A recall whose drain reply never arrives aborts before the swap:
    /// router and staged buffers untouched, gate reopened at the old epoch.
    #[test]
    fn a_lost_drain_reply_aborts_the_recall_before_the_swap() {
        let (x, _) = join_exchange(false);
        let mut p = producer(&x, PROBE, StreamTag::Probe);
        let mut sink = FakeSink::default();
        p.stage(&tuple(1, 1), &mut sink);
        let before = weights(&x);
        let mut t = FakeTransport {
            parked: Some(1),
            // Worker 0 answers; worker 1's reply is lost.
            replies: VecDeque::from([RecallReply::Drained { token: 1 }]),
            ..FakeTransport::default()
        };
        let target = RecallTarget::Deploy(DistributionVector::new(&[0.1, 0.9]).unwrap());
        let mut swapped = false;
        let outcome =
            Coordinator::new(x.clone()).recall(target, &[0, 1], &mut t, |_| swapped = true);
        assert_eq!(outcome, RecallOutcome::Aborted);
        assert_eq!(t.drains, vec![0, 1]);
        assert!(t.migrates.is_empty() && !swapped, "never reached the swap");
        assert_eq!(weights(&x), before, "router untouched");
        assert_eq!(
            (t.aborts, t.pause_open, t.epoch),
            (1, false, 0),
            "gate reopened"
        );
        assert!(!p.observe_epoch(t.epoch), "buffers stay as staged");
        assert_eq!(x.tallies.restaged.load(Ordering::Relaxed), 0);
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
                    retransmit: false,
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
        let drained = RecallReply::Drained { token: 1 };
        let mut t = FakeTransport {
            parked: Some(1),
            replies: VecDeque::from([drained.clone(), drained]),
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
            assert!(!c.on_eos(StreamTag::Build, &mut out));
            assert!(c.on_eos(StreamTag::Probe, &mut out), "flushes the tail");
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

        // A hand-over that arrives after its barrier gave up may find a
        // later recall has routed a bucket back: the entry returns to the
        // worker it came from as an ordinary re-delivered block.
        let mut late = FakeTransport::default();
        let back = state(moved_state[0]);
        let counts = Coordinator::new(x.clone()).surrendered(1, vec![back], &mut late);
        assert_eq!(counts, (1, 0));
        assert_eq!(late.redelivered.len(), 1);
        assert_eq!(late.redelivered[0].0, 1, "partition 1 owns that bucket now");
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
            parked: Some(2),
            replies: VecDeque::from([
                RecallReply::Drained { token: 1 },
                RecallReply::MigrateDone { token: 1 },
            ]),
            ..FakeTransport::default()
        };
        let target = RecallTarget::Failover {
            replay: 1,
            dead: vec![1],
        };
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
            parked: Some(2),
            replies: VecDeque::from([
                RecallReply::Drained { token: 1 },
                RecallReply::MigrateDone { token: 1 },
            ]),
            ..FakeTransport::default()
        };
        let target = RecallTarget::Failover {
            replay: 1,
            dead: vec![1],
        };
        let outcome = Coordinator::new(x.clone()).recall(target, &[0], &mut t, |_| {});
        assert!(
            matches!(outcome, RecallOutcome::FailedOver { replayed, .. } if replayed == REPLAYED)
        );
        assert_eq!(log.unacked_len(0), REPLAYED as usize);
        assert!(
            log.undelivered_windows(0).is_empty(),
            "the replay closed a window whose marker is never sent"
        );
        let cp = log.force_checkpoint(0).unwrap().expect("the open window");
        let windows = log.undelivered_windows(0);
        assert_eq!(windows.len(), 1);
        assert_eq!((windows[0].0, windows[0].1.len()), (cp, REPLAYED as usize));
        let acked = log.acknowledge(0, cp.id, log.epoch());
        assert_eq!(
            acked,
            gridq_recovery::AckOutcome::Accepted(REPLAYED as usize)
        );
        assert!(log.audit().conserved(), "{:?}", log.audit());
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
                    retransmit: false,
                };
                c.on_block(block, &mut out);
                assert!(out.handovers.len() <= before + 1, "one hand-over a block");
                nothing_pending(&c, &out);
            }
            assert!(
                c.on_eos(StreamTag::Single, &mut out),
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
                retransmit: false,
            },
            &mut out,
        );
        assert_eq!((c.processed(), out.pays.len()), (0, 0), "held: no work yet");
        let built = (0..8u64).map(|s| Staged::Tuple(StreamTag::Build, tuple(s as i64, s)));
        c.on_block(
            Block {
                source: BUILD,
                items: built.collect(),
                retransmit: false,
            },
            &mut out,
        );
        nothing_pending(&c, &out);
        let (handovers, pays) = (out.handovers.len(), out.pays.len());
        assert!(!c.on_eos(StreamTag::Build, &mut out), "the probes go on");
        assert_eq!(c.processed(), 58, "the held probes replayed");
        let slices = 50usize.div_ceil(16);
        assert_eq!(out.pays.len() - pays, slices, "a pay per slice of 16");
        assert!(out.handovers.len() - handovers <= slices);
        nothing_pending(&c, &out);

        let handovers = out.handovers.len();
        c.on_migrated(probes(50..75), &mut out);
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
}
