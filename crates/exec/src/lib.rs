#![warn(missing_docs)]

//! Real executors for partitioned plans, and the one coordinator they
//! share.
//!
//! The simulator (`gridq-sim`) reproduces the paper's *measurements* in
//! virtual time; this crate demonstrates that the adaptivity architecture
//! is substrate-independent by running the same [`DistributedPlan`]s
//! against the wall clock, over OS threads ([`ThreadedExecutor`]) and
//! over socket-connected workers ([`socket::SocketExecutor`]). The
//! coordinator side of a run exists once (`Run::execute`, in this file):
//!
//! - one producer thread per source scan, routing tuples through the
//!   shared exchange [`gridq_engine::distributed::Router`] and shipping
//!   blocks over bounded SPSC rings (end-of-stream rides the same ring);
//! - one *worker endpoint* per stage partition, multiplexing its rings
//!   and its control messages through one `Inbox` — the substrates'
//!   difference: here a consumer thread evaluating the same
//!   [`gridq_engine::evaluator::PartitionEvaluator`] clones and *actually
//!   spending CPU/sleep time* proportional to the cost model (scaled down
//!   by `cost_scale` to keep tests fast), in `socket.rs` a link thread
//!   relaying to a worker behind a socket;
//! - one adaptation thread hosting the MonitoringEventDetector, Diagnoser
//!   and Responder, fed by real M1/M2 notifications (or by scripted
//!   adaptations) and deploying new distribution vectors into the shared
//!   router while the query runs. A run nothing could adapt has none.
//!
//! Prospective (R2) adaptations swap the routing table in place and only
//! affect future tuples, so they are restricted to stateless stages.
//! Retrospective (R1) adaptations run the full recall protocol (the
//! private `protocol` module — this file only drives it): producers log
//! outgoing tuples into checkpointed recovery logs, consumers acknowledge
//! checkpoint markers, and on deploy the adaptation thread pauses the
//! producers behind a drain barrier, migrates the surrendered hash-bucket
//! state between consumers, and restages the producers' unsent buffers
//! under the new distribution — so stateful hash-partitioned stages
//! repartition mid-flight without losing or duplicating a tuple.

mod protocol;
mod recall;
pub mod service;
pub mod socket;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gridq_adapt::{
    AdaptationCommand, AdaptivityConfig, DetectorOutput, Diagnoser, MonitoringEventDetector,
    ProducerId, Responder, ResponsePolicy, M1, M2,
};
use gridq_common::cast;
use gridq_common::sync::ring::{inbox, ring, Inbox, InboxSender, RingReceiver, RingSender, Wake};
use gridq_common::{
    ChaosHook, DistributionVector, GridError, NodeId, NotifyKind, PartitionId, QueryId,
    RecallPhase, Result, SimTime, SubplanId, Tuple,
};
use gridq_engine::distributed::DistributedPlan;
use gridq_engine::evaluator::StreamTag;
use gridq_engine::physical::Catalog;
use gridq_grid::Perturbation;
use gridq_obs::{Counter, Obs, ObsConfig, ObsReport, TimelineKind};
use gridq_recovery::{AckOutcome, Checkpoint, LogAudit, ResultDedup, SharedRecoveryLog};

// The retry policy and the gap record live in `gridq-recovery`, so every
// substrate backs off and reports the same way.
pub use gridq_recovery::{DeliveryGap, RetryPolicy};
use protocol::consumer::{Consumer, ConsumerOut, M1Sample};
use protocol::coordinator::{Coordinator, MigrateCmd, RecallOutcome, RecallReply, RecallTarget};
use protocol::producer::{BlockSink, Producer, ProducerSpec, RetryStep};
use protocol::{validate_knobs, Block, Exchange, Routed};
use recall::{GateTransport, ProducerGuard, RecallGate, WorkerCommands};
pub use service::{
    ContentionLedger, QueryOutcome, QueryRun, QueryService, QuerySubmission, ServiceConfig,
    ServiceReport,
};

/// Configuration of a threaded execution.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Adaptivity configuration. R2 deploys on stateless stages; R1
    /// deploys run the recall protocol and also cover stateful stages.
    pub adaptivity: AdaptivityConfig,
    /// Multiplier from model milliseconds to real milliseconds
    /// (e.g. `0.02` runs a 3000-tuple query in a couple of seconds).
    pub cost_scale: f64,
    /// Per-node perturbations, applied as real extra work.
    pub perturbations: HashMap<NodeId, Perturbation>,
    /// Per-tuple receive cost in model milliseconds.
    pub receive_cost_ms: f64,
    /// Producers emit a recovery-log checkpoint marker after this many
    /// tuples per destination, in every run that logs (R1 recall, a
    /// chaos hook, or failover). Resilient runs clamp it to the
    /// exchange's `buffer_tuples` and checkpoint build streams too, into
    /// retained logs: the markers are delivery receipts and the entries
    /// stay replayable. Otherwise build streams are never checkpointed:
    /// their tuples *are* the downstream operator state and must stay
    /// recallable for the whole run.
    pub checkpoint_interval: usize,
    /// Observability layer configuration (metrics registry and
    /// adaptivity timeline).
    pub obs: ObsConfig,
    /// How long the recall coordinator waits for producers to park and
    /// for each round of consumer replies before abandoning a recall, in
    /// wall-clock milliseconds. The default is generous: on a healthy run
    /// the barrier fills in microseconds, and an abort here only delays
    /// (never corrupts) the query. Chaos tests shrink it so an injected
    /// control-reply loss aborts in milliseconds instead of seconds.
    pub recall_timeout_ms: u64,
    /// Fault-injection hook consulted at the chaos seams (exchange
    /// sends, checkpoint acks, monitoring notifications, recall control
    /// replies, per-tuple work, worker crashes). `None` injects nothing
    /// and leaves behavior identical to an uninstrumented run.
    pub chaos: Option<Arc<dyn ChaosHook>>,
    /// Delivery-retry policy: how producers back off and retransmit
    /// unacknowledged recovery-log windows. Consulted only in resilient
    /// mode (a chaos hook installed, or failover enabled).
    pub delivery_retry: RetryPolicy,
    /// Failover: a consumer that dies reports its death on the way out,
    /// and the adaptation thread replays its recovery-log entries onto
    /// the survivors. Requires R1 adaptivity: failover rides the recall
    /// machinery.
    pub failover: bool,
    /// The service plane's contention ledger, injected by
    /// [`QueryService`] when this query shares evaluator nodes with
    /// co-resident queries: it inflates consumers' modelled costs, and
    /// the adaptation thread asks it which co-tenant an accepted
    /// rebalance away from a shared node is attributed to (the node
    /// placement is the plan's). `None` (the default) runs the query
    /// exactly as before the service plane existed.
    pub tenancy: Option<Arc<ContentionLedger>>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            adaptivity: AdaptivityConfig::default(),
            cost_scale: 0.02,
            perturbations: HashMap::new(),
            receive_cost_ms: 1.0,
            checkpoint_interval: 50,
            obs: ObsConfig::default(),
            recall_timeout_ms: 30_000,
            chaos: None,
            delivery_retry: RetryPolicy::default(),
            failover: false,
            tenancy: None,
        }
    }
}

impl ThreadedConfig {
    /// Rejects configurations that would hang or corrupt a run before any
    /// thread is spawned: non-positive or non-finite cost scales (which
    /// would turn every modelled cost into zero or infinite sleeps),
    /// negative or non-finite receive costs, a zero checkpoint interval
    /// (no window could ever close), plus anything
    /// [`AdaptivityConfig::validate`] rejects.
    pub fn validate(&self) -> Result<()> {
        validate_knobs(
            self.cost_scale,
            self.receive_cost_ms,
            self.checkpoint_interval,
            self.recall_timeout_ms,
        )?;
        self.delivery_retry.validate()?;
        if self.failover
            && !(self.adaptivity.enabled && self.adaptivity.response == ResponsePolicy::R1)
        {
            return Err(GridError::Config(
                "failover requires retrospective (R1) adaptivity: declaring a \
                 node dead is only useful if the recall machinery can drain, \
                 redistribute, and replay its state"
                    .into(),
            ));
        }
        self.obs.validate()?;
        self.adaptivity.validate()
    }
}

/// What an execution on either real substrate (threads or sockets)
/// measured.
#[derive(Debug, Clone, Default)]
pub struct ThreadedReport {
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: f64,
    /// Result tuples collected.
    pub results: Vec<Tuple>,
    /// Input tuples processed per partition (replayed/migrated tuples
    /// count at every partition that processed them).
    pub per_partition_processed: Vec<u64>,
    /// Raw M1 events emitted.
    pub raw_m1_events: u64,
    /// Raw M2 events emitted.
    pub raw_m2_events: u64,
    /// Adaptations deployed into the router.
    pub adaptations_deployed: u64,
    /// Of those, tenant rebalances: deploys of an accepted diagnosis whose
    /// costliest partition sits on a node shared with another query
    /// (service-plane runs only; always 0 without a contention ledger).
    pub tenant_rebalances: u64,
    /// Retrospective recalls that ran the full drain-migrate-resume
    /// protocol.
    pub recalls_completed: u64,
    /// Retrospective recalls abandoned before deploying (producers
    /// already finished, or a barrier timed out). An aborted recall
    /// leaves the routing untouched.
    pub recalls_aborted: u64,
    /// Operator-state tuples shipped between partitions by recalls.
    pub state_tuples_migrated: u64,
    /// In-flight tuples re-routed by recalls: held tuples recalled from
    /// consumers plus staged buffers re-routed by producers.
    pub tuples_recalled: u64,
    /// Consumers that reported their own crash (failover runs only).
    pub nodes_failed: u64,
    /// Failover recalls that drained, redistributed, and replayed a dead
    /// partition's log entries to the survivors.
    pub failovers_completed: u64,
    /// Tuples retransmitted from recovery logs by the delivery-retry
    /// epilogue (resilient runs only).
    pub tuples_retransmitted: u64,
    /// Windows left undelivered after the retry budget ran out, one
    /// entry per (source, dest) edge that gave up. Empty on a healthy
    /// run; the query completes either way.
    pub delivery_gaps: Vec<DeliveryGap>,
    /// Data-plane block pushes that failed because the destination
    /// consumer was already gone (its ring closed), counted in tuples.
    /// Surfaced immediately at send time, not discarded.
    pub send_failures: u64,
    /// Conservation audit of each source's recovery log (logging runs
    /// only: R1 adaptivity, chaos, or failover; indexed like
    /// `DistributedPlan::sources`).
    pub log_audits: Vec<LogAudit>,
    /// High-water mark of live consumer dedup-filter entries (tuple keys
    /// plus block keys), maximised over partitions. Bounded by the
    /// unacknowledged recovery-log windows, not by the input size — the
    /// regression oracle for the at-least-once filter's memory.
    pub dedup_peak_entries: u64,
    /// The final routing distribution.
    pub final_distribution: Vec<f64>,
    /// Observability snapshot (metrics registry and adaptivity timeline);
    /// `None` when the obs layer is disabled, and on sockets, which
    /// export none yet.
    pub obs: Option<ObsReport>,
    /// Worker connections re-established after a drop: always 0 on
    /// threads, 0 on a healthy socket run (`conn_drop` chaos drives it
    /// up).
    pub reconnects: u64,
    /// Blocks of tuples that recalls and failovers moved outside the data
    /// plane — surrendered to the coordinator first (on both real
    /// substrates), then re-delivered to their new owners — each at most
    /// the exchange's `buffer_tuples` long: a recall costs at most
    /// 2·(⌈moved / `buffer_tuples`⌉ + partitions) of them (one partial
    /// block per old owner, one per new owner), not one message per
    /// tuple.
    pub recall_blocks: u64,
    /// The largest sequenced frame payload any worker link carried, in
    /// bytes; 0 on threads. Bounded by one block of tuples, never by the
    /// size of the query.
    pub largest_frame_bytes: u64,
}

/// What travels in a threaded data ring: a block, or the end of one
/// source's stream riding behind the blocks it trails.
#[derive(Clone)]
enum DataMsg {
    Block(Block),
    Eos(StreamTag),
}

/// How a block or an end-of-stream becomes a data ring's payload: itself
/// on threads, its encoded frame on sockets — so the producer thread, not
/// the link thread, pays for the encode.
pub(crate) trait RingPayload: Clone + Send + 'static {
    fn block(block: Block) -> Self;
    fn eos(stream: StreamTag, source: usize) -> Self;
}

impl RingPayload for DataMsg {
    fn block(block: Block) -> Self {
        DataMsg::Block(block)
    }

    fn eos(stream: StreamTag, _source: usize) -> Self {
        DataMsg::Eos(stream)
    }
}

/// A coordinator's (or peer's) command to one worker endpoint: the
/// control-plane vocabulary of both substrates.
pub(crate) enum Msg {
    /// Recall barrier marker: the worker replies `Drained` once it
    /// sees this, proving it holds no pre-pause tuples. The endpoint
    /// drains its rings first — the producers are parked behind the
    /// recall gate, so the rings hold everything sent before the pause.
    Drain { token: u64 },
    /// Recall migration command: surrender the state and the held
    /// tuples of the outgoing buckets, then reply `MigrateDone`.
    Migrate(MigrateCmd),
    /// A block of tuples re-delivered by the recall protocol (migrated
    /// operator state, recalled held tuples, a failover replay; a
    /// forwarded stray is a block of one), at most the exchange's
    /// `buffer_tuples` long. Not logged again: the barrier plus direct
    /// channel carry the exactly-once guarantee.
    Migrated(Vec<Routed>),
}

/// How the coordinator commands workers on either substrate: a message
/// on each endpoint's control plane.
struct Commands<C>(Vec<InboxSender<C>>);

impl<C: From<Msg>> WorkerCommands for Commands<C> {
    fn drain(&mut self, worker: usize, token: u64) -> bool {
        self.0[worker].send(Msg::Drain { token }.into())
    }

    fn migrate(&mut self, worker: usize, cmd: MigrateCmd) {
        self.0[worker].send(Msg::Migrate(cmd).into());
    }

    fn redeliver(&mut self, dest: usize, block: Vec<Routed>) {
        self.0[dest].send(Msg::Migrated(block).into());
    }
}

/// What the adaptation thread consumes.
pub(crate) enum Raw {
    /// One consumer's hand-over: the M1 samples of one block, in the
    /// order they were taken.
    M1(Vec<M1>),
    M2(M2),
    /// A consumer finished cleanly (failover runs only): a recall no
    /// longer addresses it.
    Done(usize),
    /// A consumer died through the crash seam (failover runs only): its
    /// exit notice, which starts the failover.
    Down(usize),
    /// The run-wide routed count reached a scripted threshold.
    Routed,
    /// Every producer has finished: what is left of the script fires
    /// now (no later tuple could reach its threshold).
    ProducersDone,
    /// A worker surrendered state outside any recall's collection (its
    /// barrier had timed out); the reply channel holds it.
    LateState,
    /// The run is over.
    Stop,
}

/// What a worker endpoint reports to the run.
pub(crate) enum WorkerEvent {
    Results(Vec<Tuple>),
    /// All of the worker's streams are exhausted.
    Done {
        worker: usize,
        processed: u64,
        dedup_peak: u64,
    },
}

/// What the adaptation thread hands back at teardown.
#[derive(Default)]
struct AdaptStats {
    m1: u64,
    m2: u64,
    deployed: u64,
    tenant_rebalances: u64,
    recalls_completed: u64,
    recalls_aborted: u64,
    state_tuples_migrated: u64,
    tuples_recalled: u64,
    nodes_failed: u64,
    failovers_completed: u64,
}

/// A worker's surrendered block is on the reply channel, ahead of that
/// worker's `MigrateDone` on the same FIFO. The recall it answers may
/// have given up on its barrier already, so the adaptation thread is
/// nudged as well: it re-routes the state all the same.
pub(crate) fn surrendered(
    x: &Exchange,
    replies: &Sender<RecallReply>,
    raw: &Sender<Raw>,
    worker: usize,
    entries: Vec<Routed>,
) {
    x.tallies.recall_blocks.fetch_add(1, Ordering::Relaxed);
    let _ = replies.send(RecallReply::Surrendered { worker, entries });
    let _ = raw.send(Raw::LateState);
}

pub(crate) fn spin_for(model_ms: f64, scale: f64) {
    let dur = Duration::from_secs_f64((model_ms * scale / 1000.0).max(0.0));
    if !dur.is_zero() {
        thread::sleep(dur);
    }
}

/// Real milliseconds in model milliseconds. The floor keeps a null-cost
/// run's (`cost_scale` far below any real clock's resolution) model times
/// finite and every site in the same unit.
fn real_to_model_ms(real_ms: f64, scale: f64) -> f64 {
    real_ms / scale.max(1e-9)
}

/// Wall-clock elapsed since `started`, in model milliseconds — so the
/// Responder's cooldown compares like units.
fn model_now(started: Instant, scale: f64) -> SimTime {
    SimTime::from_millis(real_to_model_ms(
        started.elapsed().as_secs_f64() * 1000.0,
        scale,
    ))
}

/// Tells the adaptation thread when the run-wide routed count reaches a
/// scripted adaptation's threshold. Exactly one producer sees each
/// count, so each threshold is reported once.
struct ScriptWatch {
    marks: Vec<u64>,
    raw: Sender<Raw>,
}

/// Drives one producer to completion on the calling thread: the scan
/// with a pause point before each row, the end-of-scan flush, and the
/// retry epilogue's sliced sleeps.
fn run_producer<S: BlockSink>(
    mut producer: Producer,
    rows: &[Tuple],
    gate: Option<Arc<RecallGate>>,
    watch: Option<ScriptWatch>,
    sink: &mut S,
) {
    // Counts this producer as done even if it panics, so the recall
    // barrier can never wait on a dead thread.
    let _guard = gate.as_ref().map(|g| ProducerGuard::new(Arc::clone(g)));
    for row in rows {
        if let Some(g) = &gate {
            producer.observe_epoch(g.pause_point());
        }
        let routed = producer.stage(row, sink);
        if let Some(w) = &watch {
            if w.marks.contains(&routed) {
                let _ = w.raw.send(Raw::Routed);
            }
        }
    }
    // A recall in flight must complete (and the buffers restage) before
    // the final flush: finishing mid-pause would send tuples routed
    // under the old distribution after the consumers already drained.
    if let Some(g) = &gate {
        producer.observe_epoch(g.pause_point());
    }
    producer.finish_scan(sink);
    while let RetryStep::Wait(ms) = producer.retry_step(sink) {
        let mut remaining = ms;
        while remaining > 0.0 {
            if let Some(g) = &gate {
                if producer.observe_epoch(g.pause_point()) {
                    producer.flush_all(sink);
                }
            }
            let slice = remaining.min(5.0);
            thread::sleep(Duration::from_secs_f64(slice / 1000.0));
            remaining -= slice;
        }
    }
}

/// What a producer needs to emit M2 notifications.
struct M2Probe {
    raw: Sender<Raw>,
    query: QueryId,
    stage_id: SubplanId,
    started: Instant,
}

/// The producer's sink on both substrates: one bounded SPSC ring per
/// worker endpoint (the ring *is* the backpressure). End-of-stream rides
/// the same ring, so it trails every block in FIFO order.
struct ProducerSink<P: RingPayload> {
    source: usize,
    stream: StreamTag,
    rings: Vec<RingSender<P>>,
    /// Destinations whose end-of-stream is out.
    ended: Vec<bool>,
    scale: f64,
    chaos: Option<Arc<dyn ChaosHook>>,
    /// `None` with monitoring off.
    m2: Option<M2Probe>,
}

impl<P: RingPayload> BlockSink for ProducerSink<P> {
    fn pay(&mut self, model_ms: f64) {
        spin_for(model_ms, self.scale);
    }

    fn ship(&mut self, dest: usize, block: Block, duplicate: bool) -> usize {
        let send_started = Instant::now();
        let copies = 1 + usize::from(duplicate);
        let count = self.m2.as_ref().map_or(0, |_| block.tuples() * copies);
        let payload = P::block(block);
        let mut failed = 0;
        if duplicate {
            failed += usize::from(self.rings[dest].push(payload.clone()).is_err());
        }
        failed += usize::from(self.rings[dest].push(payload).is_err());
        let m2_kept = self
            .chaos
            .as_ref()
            .is_none_or(|c| c.on_notification(NotifyKind::M2, self.source));
        if let (Some(m2), true) = (&self.m2, count > 0 && m2_kept) {
            let send_cost =
                real_to_model_ms(send_started.elapsed().as_secs_f64() * 1000.0, self.scale);
            let _ = m2.raw.send(Raw::M2(M2 {
                query: m2.query,
                producer: ProducerId::Source(self.source as u32),
                recipient: PartitionId::new(m2.stage_id, dest as u32),
                send_cost_ms: send_cost,
                tuples_in_buffer: count,
                at: model_now(m2.started, self.scale),
            }));
        }
        failed
    }

    fn eos(&mut self, dest: usize, stream: StreamTag, source: usize) {
        self.ended[dest] = true;
        let _ = self.rings[dest].push(P::eos(stream, source));
    }
}

impl<P: RingPayload> Drop for ProducerSink<P> {
    /// A producer that died mid-scan never ended its stream, and without
    /// the markers its workers would wait forever: the unwinding sink
    /// sends them, by the same route.
    fn drop(&mut self) {
        for dest in 0..self.rings.len() {
            if !self.ended[dest] {
                self.eos(dest, self.stream, self.source);
            }
        }
    }
}

/// The threaded consumer's outputs. Threaded consumers share the router
/// and the recovery logs with the producers, so acks land in the log
/// directly (and the log's verdict drives dedup eviction) and strays are
/// re-routed on the spot.
struct ThreadedOut {
    index: usize,
    node: NodeId,
    x: Exchange,
    peers: Vec<InboxSender<Msg>>,
    events: Sender<WorkerEvent>,
    raw: Sender<Raw>,
    scale: f64,
    failover_on: bool,
    query: QueryId,
    stage_id: SubplanId,
    started: Instant,
}

impl ConsumerOut for ThreadedOut {
    fn pay(&mut self, model_ms: f64) {
        spin_for(model_ms, self.scale);
    }

    fn ack(&mut self, source: usize, cp: Checkpoint, epoch: u64) -> bool {
        let scale = self.scale;
        let pay = |ms| spin_for(ms, scale);
        // Once the log accepts the ack the window can never be
        // retransmitted again, so its dedup entries are dead weight.
        // (`Duplicate` means somebody already acked it, same conclusion.)
        matches!(
            self.x.acknowledge(source, self.index, cp, epoch, pay),
            Some(AckOutcome::Accepted(_) | AckOutcome::Duplicate)
        )
    }

    fn results(&mut self, batch: Vec<Tuple>) {
        let _ = self.events.send(WorkerEvent::Results(batch));
    }

    fn stray(&mut self, stream: StreamTag, source: usize, tuple: Tuple) -> Option<Tuple> {
        let owner = self.x.reroute_stray(self.index, stream, source, &tuple);
        if owner == self.index {
            return Some(tuple);
        }
        self.peers[owner].send(Msg::Migrated(vec![(stream, source, tuple)]));
        None
    }

    fn m1(&mut self, samples: Vec<M1Sample>) {
        let at = model_now(self.started, self.scale);
        let mut batch = Vec::with_capacity(samples.len());
        for sample in samples {
            // A notification lost in flight: the consumer's batch
            // counters have reset all the same, exactly as if it had
            // been sent and dropped by the network. The hook counts
            // samples, not hand-overs.
            let chaos = self.x.chaos.as_ref();
            if chaos.is_some_and(|c| !c.on_notification(NotifyKind::M1, self.index)) {
                continue;
            }
            batch.push(M1 {
                query: self.query,
                partition: PartitionId::new(self.stage_id, self.index as u32),
                node: self.node,
                cost_per_tuple_ms: sample.cost_per_tuple_ms,
                leaf_wait_ms: real_to_model_ms(sample.wait_ms_per_tuple, self.scale),
                selectivity: sample.selectivity,
                tuples_produced: sample.tuples_produced,
                at,
            });
        }
        if !batch.is_empty() {
            let _ = self.raw.send(Raw::M1(batch));
        }
    }
}

/// What one inbox event means for the consumer thread's loop.
enum Step {
    Continue,
    /// The last stream ended: exit cleanly.
    Finished,
    /// The crash seam fired: die without flush, acks or replies.
    Crashed,
}

/// One consumer thread: the in-process worker endpoint, a protocol
/// [`Consumer`] fed from an [`Inbox`] whose ordering guarantees (control
/// first, control before every data item) keep migrated state ahead of
/// the tuples that probe it.
struct ConsumerThread {
    inbox: Inbox<Msg, DataMsg>,
    consumer: Consumer,
    out: ThreadedOut,
    replies: Sender<RecallReply>,
}

/// How long an idle consumer parks before it counts the wait as leaf
/// wait and looks again.
const RECV_SLICE: Duration = Duration::from_millis(50);

impl ConsumerThread {
    /// The crash seam: consulted once per control message and once per
    /// data item. Dying here means no flush, no acks, no control replies
    /// — exactly a vanished node.
    fn crashed(&self) -> bool {
        let i = self.out.index;
        self.out.x.chaos.as_ref().is_some_and(|c| c.crash_worker(i))
    }

    /// Sends a recall reply unless the chaos seam swallows it.
    fn reply(&self, phase: RecallPhase, reply: RecallReply) {
        if self.out.x.reply_survives(phase, self.out.index) {
            let _ = self.replies.send(reply);
        }
    }

    fn on_data(&mut self, item: DataMsg) -> Step {
        if self.crashed() {
            return Step::Crashed;
        }
        match item {
            DataMsg::Block(block) => self.consumer.on_block(block, &mut self.out),
            DataMsg::Eos(stream) => {
                if self.consumer.on_eos(stream, &mut self.out) {
                    return Step::Finished;
                }
            }
        }
        Step::Continue
    }

    fn on_ctrl(&mut self, msg: Msg) -> Step {
        if self.crashed() {
            return Step::Crashed;
        }
        match msg {
            Msg::Drain { token } => {
                while let Some(item) = self.inbox.pop_data() {
                    match self.on_data(item) {
                        Step::Continue => {}
                        other => return other,
                    }
                }
                self.reply(RecallPhase::Drain, RecallReply::Drained { token });
            }
            Msg::Migrate(cmd) => {
                let (worker, out) = (self.out.index, &self.out);
                for block in self.consumer.surrender(cmd.bucket_count, &cmd.outgoing) {
                    surrendered(&out.x, &self.replies, &out.raw, worker, block);
                }
                let done = RecallReply::MigrateDone { token: cmd.token };
                self.reply(RecallPhase::Migrate, done);
            }
            Msg::Migrated(block) => self.consumer.on_migrated(block, &mut self.out),
        }
        Step::Continue
    }

    /// Runs to end of stream (or crash), then reports completion. With
    /// failover on, the adaptation thread first gets exactly one exit
    /// notice: a crash is reported, not inferred from silence.
    fn run(mut self) {
        let finished = self.serve();
        if self.out.failover_on {
            let notice = if finished { Raw::Done } else { Raw::Down };
            let _ = self.out.raw.send(notice(self.out.index));
        }
        if finished {
            // Whatever a run that ended without its last end-of-stream
            // (every sender gone) still holds.
            self.consumer.flush_results(true, &mut self.out);
            self.consumer.hand_over(&mut self.out);
        }
        let _ = self.out.events.send(WorkerEvent::Done {
            worker: self.out.index,
            processed: self.consumer.processed(),
            dedup_peak: self.consumer.dedup_peak(),
        });
    }

    /// The receive loop. Returns `false` when the crash seam fired.
    fn serve(&mut self) -> bool {
        loop {
            let step = match self.inbox.next(RECV_SLICE) {
                Wake::Control(msg) => self.on_ctrl(msg),
                Wake::Data(item) => self.on_data(item),
                Wake::Idle(waited) => {
                    // The partition spent this slice waiting for input:
                    // the leaf-wait signal the A2 diagnoser keys on.
                    self.consumer.add_wait(waited.as_secs_f64() * 1000.0);
                    Step::Continue
                }
                // Every sender is gone and the rings are dry: nothing
                // more can arrive.
                Wake::Closed => Step::Finished,
            };
            match step {
                Step::Continue => {}
                Step::Finished => return true,
                Step::Crashed => return false,
            }
        }
    }
}

/// The in-process worker endpoints: one consumer thread per partition.
struct ThreadedWorkers {
    senders: Vec<InboxSender<Msg>>,
    handles: Vec<Option<thread::JoinHandle<()>>>,
}

impl ThreadedWorkers {
    fn start(cfg: &ThreadedConfig, plan: &DistributedPlan, w: Wiring<DataMsg>) -> Self {
        let stage = &plan.stages[0];
        let monitoring = cfg.adaptivity.monitoring_active();
        let (senders, inboxes): (Vec<_>, Vec<_>) = w.rings.into_iter().map(inbox).unzip();
        let mut handles = Vec::with_capacity(inboxes.len());
        for (i, inbox) in inboxes.into_iter().enumerate() {
            let node = stage.nodes[i];
            let mut consumer = Consumer::new(
                w.x.consumer_spec(
                    i,
                    plan.sources.len(),
                    cfg.receive_cost_ms,
                    cfg.perturbations.get(&node),
                ),
                stage.factory.create(i as u32),
            );
            consumer.m1_stride =
                monitoring.then(|| cfg.adaptivity.monitoring_interval_tuples.max(1));
            consumer.chaos = cfg.chaos.clone();
            consumer.contention = cfg.tenancy.as_ref().map(|ledger| ledger.counter(node));
            consumer.progress = Some((
                Arc::clone(&w.processed_total),
                w.obs
                    .as_ref()
                    .map(|o| o.metrics().counter("exec.tuples_processed")),
            ));
            let worker = ConsumerThread {
                inbox,
                consumer,
                out: ThreadedOut {
                    index: i,
                    node,
                    x: w.x.clone(),
                    peers: senders.clone(),
                    events: w.events.clone(),
                    raw: w.raw.clone(),
                    scale: cfg.cost_scale,
                    failover_on: cfg.failover,
                    query: plan.query,
                    stage_id: stage.id,
                    started: w.started,
                },
                replies: w.replies.clone(),
            };
            handles.push(Some(thread::spawn(move || worker.run())));
        }
        ThreadedWorkers { senders, handles }
    }
}

impl Endpoints for ThreadedWorkers {
    type Ctl = Msg;

    fn senders(&self) -> Vec<InboxSender<Msg>> {
        self.senders.clone()
    }

    fn exited(&mut self, worker: usize) -> Option<String> {
        if !self.handles[worker].as_ref()?.is_finished() {
            return None;
        }
        let joined = self.handles[worker].take()?.join();
        Some(match joined {
            Ok(()) => format!("consumer {worker} exited without reporting completion"),
            Err(_) => format!("consumer {worker} panicked"),
        })
    }

    fn stop(self, _clean: bool) -> Vec<String> {
        // Every handle is joined even when another one panicked, so a
        // single failed worker cannot leave stray threads running behind
        // an error return.
        let joined = self.handles.into_iter().enumerate();
        joined
            .filter_map(|(i, h)| h?.join().is_err().then(|| format!("consumer {i} panicked")))
            .collect()
    }
}

/// How many failover recalls a death gets, back to back, before the dead
/// worker is left to the producers' delivery-gap path. An attempt aborts
/// on a lost control reply or a barrier timeout.
const FAILOVER_ATTEMPTS: u32 = 3;

/// Timeline recording with both clocks: `at` is the model time stamped
/// on the raw event by its producer thread, `wall_ms` is the real
/// elapsed time at recording.
struct Recorder {
    obs: Option<Obs>,
    started: Instant,
    scale: f64,
}

impl Recorder {
    fn record(&self, at: SimTime, kind: TimelineKind) -> u64 {
        match &self.obs {
            Some(o) => o.record(
                at.as_millis(),
                Some(self.started.elapsed().as_secs_f64() * 1000.0),
                kind,
            ),
            None => 0,
        }
    }

    fn now_model(&self) -> SimTime {
        model_now(self.started, self.scale)
    }
}

/// The adaptation thread of a run, on either substrate: detector →
/// diagnoser → responder → shared router, fed by M1/M2 notifications and
/// by the scripted adaptations. Whatever the source of an
/// [`AdaptationCommand`], [`Adaptivity::deploy`] is the only thing that
/// ever deploys one; for retrospective commands and node failures it
/// hands the protocol core's recall coordinator a target and a
/// transport.
struct Adaptivity<W> {
    adapt: AdaptivityConfig,
    x: Exchange,
    coordinator: Coordinator,
    gate: Option<Arc<RecallGate>>,
    workers: W,
    partitions: usize,
    replies: Receiver<RecallReply>,
    raw_rx: Receiver<Raw>,
    recall_timeout: Duration,
    detector: MonitoringEventDetector,
    diagnoser: Diagnoser,
    responder: Responder,
    rec: Recorder,
    stage_id: SubplanId,
    query: QueryId,
    /// The stage's partition→node placement and (service-plane runs
    /// only) the ledger that names a node's co-tenants: together they
    /// attribute a tenant rebalance.
    nodes: Vec<NodeId>,
    tenancy: Option<Arc<ContentionLedger>>,
    total_rows: u64,
    processed_total: Arc<AtomicU64>,
    /// Workers whose exit notice said they crashed, and workers that
    /// finished cleanly (failover runs only; all `false` otherwise).
    dead: Vec<bool>,
    done: Vec<bool>,
    /// Scripted adaptations not yet deployed, by ascending routed-tuple
    /// threshold.
    script: VecDeque<(u64, AdaptationCommand)>,
    /// `exec.m1_handovers`: how many `Raw::M1` arrived, against the
    /// `raw_m1_events` samples they carried. `None` with obs off.
    m1_handovers: Option<Arc<Counter>>,
    stats: AdaptStats,
}

/// The channels and counters `run_query` wires into the adaptation
/// thread.
struct AdaptWiring<W> {
    gate: Option<Arc<RecallGate>>,
    workers: W,
    partitions: u32,
    replies: Receiver<RecallReply>,
    raw_rx: Receiver<Raw>,
    total_rows: u64,
    processed_total: Arc<AtomicU64>,
    script: Vec<(u64, AdaptationCommand)>,
}

impl<W: WorkerCommands> Adaptivity<W> {
    fn new(
        cfg: &ThreadedConfig,
        plan: &DistributedPlan,
        x: &Exchange,
        wiring: AdaptWiring<W>,
        rec: Recorder,
    ) -> Adaptivity<W> {
        let stage = &plan.stages[0];
        let initial = x.router.lock().current_distribution();
        let mut detector = MonitoringEventDetector::new(&cfg.adaptivity);
        let mut diagnoser = Diagnoser::new(stage.id, wiring.partitions, initial, &cfg.adaptivity);
        let mut responder = Responder::new(&cfg.adaptivity);
        if let Some(o) = &rec.obs {
            detector.set_metric_sink(o.sink());
            diagnoser.set_metric_sink(o.sink());
            responder.set_metric_sink(o.sink());
        }
        let m1_handovers = rec
            .obs
            .as_ref()
            .map(|o| o.metrics().counter("exec.m1_handovers"));
        let partitions = wiring.partitions as usize;
        Adaptivity {
            adapt: cfg.adaptivity.clone(),
            x: x.clone(),
            coordinator: Coordinator::new(x.clone()),
            gate: wiring.gate,
            workers: wiring.workers,
            partitions,
            replies: wiring.replies,
            raw_rx: wiring.raw_rx,
            recall_timeout: Duration::from_millis(cfg.recall_timeout_ms),
            detector,
            diagnoser,
            responder,
            rec,
            stage_id: stage.id,
            query: plan.query,
            nodes: stage.nodes.clone(),
            tenancy: cfg.tenancy.clone(),
            total_rows: wiring.total_rows,
            processed_total: wiring.processed_total,
            dead: vec![false; partitions],
            done: vec![false; partitions],
            script: wiring.script.into(),
            m1_handovers,
            stats: AdaptStats::default(),
        }
    }

    /// Whether anything could ever hand this run a command to deploy
    /// (failover requires live adaptivity). When nothing can, the run
    /// needs no adaptation thread.
    fn can_adapt(&self) -> bool {
        self.adapt.enabled || !self.script.is_empty()
    }

    fn run(mut self) -> AdaptStats {
        // Thresholds already met (a script entry at zero) fire at once.
        self.fire_script(false);
        while let Ok(received) = self.raw_rx.recv() {
            match received {
                Raw::M1(batch) => {
                    if let Some(handovers) = &self.m1_handovers {
                        handovers.add(1);
                    }
                    for event in batch {
                        self.stats.m1 += 1;
                        let output = self.detector.on_m1(&event);
                        let raw_seq = self.rec.record(
                            event.at,
                            TimelineKind::RawM1 {
                                partition: event.partition.to_string(),
                                node: event.node.to_string(),
                                cost_per_tuple_ms: event.cost_per_tuple_ms,
                                leaf_wait_ms: event.leaf_wait_ms,
                                gate_fired: !matches!(output, DetectorOutput::Quiet),
                            },
                        );
                        self.react(output, event.at, raw_seq);
                    }
                }
                Raw::M2(event) => {
                    self.stats.m2 += 1;
                    let output = self.detector.on_m2(&event);
                    let raw_seq = self.rec.record(
                        event.at,
                        TimelineKind::RawM2 {
                            producer: event.producer.to_string(),
                            recipient: event.recipient.to_string(),
                            cost_per_tuple_ms: event.cost_per_tuple_ms(),
                            gate_fired: !matches!(output, DetectorOutput::Quiet),
                        },
                    );
                    self.react(output, event.at, raw_seq);
                }
                Raw::Done(worker) => self.done[worker] = true,
                Raw::Down(worker) => self.fail_over(worker),
                Raw::Routed => self.fire_script(false),
                Raw::ProducersDone => self.fire_script(true),
                Raw::LateState => self.reroute_late_state(),
                Raw::Stop => break,
            }
        }
        self.teardown();
        self.stats
    }

    /// One raw event's way through the rest of the loop: diagnosis,
    /// decision, deployment.
    fn react(&mut self, output: DetectorOutput, at: SimTime, raw_seq: u64) {
        if let Some((cmd, diagnosis_seq, tenant)) = self.diagnose(output, at, raw_seq) {
            self.deploy(cmd, diagnosis_seq, tenant);
        }
    }

    /// Deploys, in order, every scripted adaptation whose routed-tuple
    /// threshold has been reached — or, once the producers have finished,
    /// `all` of them (a prospective swap still applies; a recall aborts
    /// at the gate because no producer can park).
    fn fire_script(&mut self, all: bool) {
        while let Some((after, _)) = self.script.front() {
            if !all && self.x.tallies.routed.load(Ordering::Relaxed) < *after {
                return;
            }
            if let Some((_, cmd)) = self.script.pop_front() {
                self.deploy(cmd, 0, false);
            }
        }
    }

    /// Re-routes state a worker surrendered after its recall's barrier
    /// had timed out: dropping it would lose real tuples.
    fn reroute_late_state(&mut self) {
        let Some(gate) = self.gate.as_deref() else {
            return;
        };
        let mut transport =
            GateTransport::new(gate, self.recall_timeout, &self.replies, &mut self.workers);
        while let Ok(reply) = self.replies.try_recv() {
            if let RecallReply::Surrendered { worker, entries } = reply {
                let (moved, recalled) =
                    self.coordinator
                        .surrendered(worker, entries, &mut transport);
                self.stats.state_tuples_migrated += moved;
                self.stats.tuples_recalled += recalled;
            }
        }
    }

    /// The workers a recall can address: dead ones can never answer the
    /// barrier, finished ones have nothing left to drain.
    fn live_workers(&self) -> Vec<usize> {
        (0..self.partitions)
            .filter(|&p| !self.dead[p] && !self.done[p])
            .collect()
    }

    /// A worker's exit notice said it crashed: record the death, restart
    /// the responder's cooldown, and run the failover recall — drain
    /// barrier over the survivors, redistribution away from the dead
    /// partitions, replay of this one's surviving recovery-log entries,
    /// resume under a bumped epoch. An aborted attempt is retried at once,
    /// up to [`FAILOVER_ATTEMPTS`] in all; after that the producers' retry
    /// budget exhausts against the dead partition and records an explicit
    /// delivery gap instead of hanging.
    ///
    /// Deliberately records no `Deploy`/`RecallStart`/`RecallFinish`
    /// timeline events — those carry diagnosis back-references and a
    /// failover has no diagnosis. `NodeDown -> Failover` is this path's
    /// causal pair.
    fn fail_over(&mut self, worker: usize) {
        self.dead[worker] = true;
        self.stats.nodes_failed += 1;
        let partition = PartitionId::new(self.stage_id, worker as u32).to_string();
        let at = self.rec.now_model();
        let down_seq = self.rec.record(
            at,
            TimelineKind::NodeDown {
                partition: partition.clone(),
            },
        );
        self.responder.on_node_failure(at);
        // Config validation ties failover to R1 adaptivity, so the gate
        // always exists here.
        let Some(gate) = self.gate.as_deref() else {
            return;
        };
        let dead: Vec<usize> = (0..self.partitions).filter(|&p| self.dead[p]).collect();
        let live = self.live_workers();
        let mut transport =
            GateTransport::new(gate, self.recall_timeout, &self.replies, &mut self.workers);
        for _ in 0..FAILOVER_ATTEMPTS {
            let target = RecallTarget::Failover {
                replay: worker,
                dead: dead.clone(),
            };
            let RecallOutcome::FailedOver {
                deployed,
                state_moved,
                recalled,
                replayed,
            } = self
                .coordinator
                .recall(target, &live, &mut transport, |_| {})
            else {
                continue;
            };
            self.diagnoser.set_distribution(deployed);
            self.stats.state_tuples_migrated += state_moved;
            self.stats.tuples_recalled += recalled;
            self.stats.failovers_completed += 1;
            if let Some(o) = &self.rec.obs {
                o.metrics().counter("exec.failovers").add(1);
                o.metrics().counter("exec.tuples_replayed").add(replayed);
            }
            let now = self.rec.now_model();
            self.rec.record(
                now,
                TimelineKind::Failover {
                    partition,
                    replayed,
                    down_seq,
                },
            );
            self.responder.on_deploy_acknowledged(now);
            return;
        }
    }

    /// Detector output → diagnosis → responder decision. Returns the
    /// command to deploy, if the responder accepted one, with the seq of
    /// its diagnosis and whether it is a tenant rebalance.
    fn diagnose(
        &mut self,
        output: DetectorOutput,
        at: SimTime,
        raw_seq: u64,
    ) -> Option<(AdaptationCommand, u64, bool)> {
        let (imbalance, notify_seq) = match output {
            DetectorOutput::Quiet => return None,
            DetectorOutput::Cost(update) => {
                let notify_seq = self.rec.record(
                    at,
                    TimelineKind::DetectorNotify {
                        scope: update.partition.to_string(),
                        avg_cost_ms: update.avg_cost_ms,
                        window_len: update.window_len,
                        raw_seq,
                    },
                );
                (self.diagnoser.on_cost_update(&update)?, notify_seq)
            }
            DetectorOutput::Comm(update) => {
                let notify_seq = self.rec.record(
                    at,
                    TimelineKind::DetectorNotify {
                        scope: format!("{}->{}", update.producer, update.recipient),
                        avg_cost_ms: update.avg_cost_per_tuple_ms,
                        window_len: update.window_len,
                        raw_seq,
                    },
                );
                (self.diagnoser.on_comm_update(&update)?, notify_seq)
            }
        };
        let diagnosis_seq = self.rec.record(
            imbalance.at,
            TimelineKind::Diagnosis {
                stage: imbalance.stage.to_string(),
                proposed: imbalance.proposed.weights().to_vec(),
                costs: imbalance.costs.clone(),
                notify_seq,
            },
        );
        // R1 estimates progress from tuples *processed* (what a
        // recall would have to preserve), R2 from tuples routed —
        // mirroring the simulator.
        let done = if self.adapt.response == ResponsePolicy::R1 {
            self.processed_total.load(Ordering::Relaxed)
        } else {
            self.x.tallies.routed.load(Ordering::Relaxed)
        };
        let progress = cast::ratio(done, self.total_rows.max(1));
        let (decision, cmd) = self.responder.on_imbalance(&imbalance, progress);
        self.rec.record(
            imbalance.at,
            TimelineKind::ResponderDecision {
                decision: decision.as_str().to_string(),
                diagnosis_seq,
            },
        );
        let cmd = cmd?;
        let tenant = self.attribute(&imbalance.costs, imbalance.at, diagnosis_seq);
        Some((cmd, diagnosis_seq, tenant))
    }

    /// Service plane: an accepted diagnosis whose costliest partition
    /// sits on a node shared with another query is a tenant rebalance,
    /// attributed to the lowest-id co-tenant there. Records it and
    /// returns whether it was one.
    fn attribute(&self, costs: &[f64], at: SimTime, diagnosis_seq: u64) -> bool {
        let Some(ledger) = &self.tenancy else {
            return false;
        };
        let hottest = costs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1));
        let Some(&node) = hottest.and_then(|(i, _)| self.nodes.get(i)) else {
            return false;
        };
        let Some(induced_by) = ledger.co_tenant(self.query, node) else {
            return false;
        };
        self.rec.record(
            at,
            TimelineKind::TenantRebalance {
                query: self.query.to_string(),
                induced_by: induced_by.to_string(),
                node: node.to_string(),
                diagnosis_seq,
            },
        );
        true
    }

    /// Deploys one adaptation command: prospectively by swapping the
    /// routing table in place, retrospectively through the recall
    /// coordinator.
    fn deploy(&mut self, mut cmd: AdaptationCommand, diagnosis_seq: u64, tenant: bool) {
        // A diagnosis computed from pre-failure observations may still
        // weight a dead partition; zero it so no adaptation resurrects
        // routing to a lost worker.
        let weights = cmd.new_distribution.weights();
        if weights
            .iter()
            .zip(&self.dead)
            .any(|(&w, &dead)| dead && w > 0.0)
        {
            let w: Vec<f64> = weights
                .iter()
                .zip(&self.dead)
                .map(|(&w, &dead)| if dead { 0.0 } else { w })
                .collect();
            match DistributionVector::new(&w) {
                Ok(d) => cmd.new_distribution = d,
                // All surviving weight vanished: nothing sane to deploy.
                Err(_) => return,
            }
        }
        self.diagnoser
            .set_distribution(cmd.new_distribution.clone());
        let deploy_event = |retrospective: bool| TimelineKind::Deploy {
            stage: cmd.stage.to_string(),
            weights: cmd.new_distribution.weights().to_vec(),
            retrospective,
            diagnosis_seq,
        };
        if !cmd.retrospective {
            // Prospective: swap the routing table; only future tuples
            // are affected.
            let swapped = self
                .x
                .router
                .lock()
                .apply_distribution(&cmd.new_distribution);
            if swapped.is_ok() {
                self.stats.deployed += 1;
                self.stats.tenant_rebalances += u64::from(tenant);
                self.rec.record(cmd.at, deploy_event(false));
                self.responder.on_deploy_acknowledged(self.rec.now_model());
            }
            return;
        }
        let Some(gate) = self.gate.as_deref() else {
            return;
        };
        let live = self.live_workers();
        let mut transport =
            GateTransport::new(gate, self.recall_timeout, &self.replies, &mut self.workers);
        let rec = &self.rec;
        let mut start_seq = 0;
        let outcome = self.coordinator.recall(
            RecallTarget::Deploy(cmd.new_distribution.clone()),
            &live,
            &mut transport,
            |epoch| {
                let deploy_seq = rec.record(cmd.at, deploy_event(true));
                start_seq = rec.record(
                    cmd.at,
                    TimelineKind::RecallStart {
                        stage: cmd.stage.to_string(),
                        epoch,
                        deploy_seq,
                    },
                );
            },
        );
        let RecallOutcome::Deployed {
            epoch,
            state_moved,
            recalled,
            completed,
        } = outcome
        else {
            // Abandoned before the swap: the remaining work drains under
            // the old distribution.
            self.stats.recalls_aborted += 1;
            return;
        };
        self.stats.deployed += 1;
        self.stats.tenant_rebalances += u64::from(tenant);
        self.stats.state_tuples_migrated += state_moved;
        self.stats.tuples_recalled += recalled;
        let now = self.rec.now_model();
        self.rec.record(
            now,
            TimelineKind::RecallFinish {
                epoch,
                state_tuples_migrated: state_moved,
                tuples_recalled: recalled,
                start_seq,
            },
        );
        self.responder.on_deploy_acknowledged(now);
        if completed {
            self.stats.recalls_completed += 1;
        } else {
            self.stats.recalls_aborted += 1;
        }
    }

    /// Surfaces how much per-stream state the loop accumulated, then
    /// evicts it so detector/diagnoser maps never outlive the query they
    /// monitored.
    fn teardown(&mut self) {
        let tracked = self.detector.tracked_streams() + self.diagnoser.tracked_cost_entries();
        self.detector.reset_for_query(self.query);
        self.diagnoser.reset_for_query();
        let after = self.detector.tracked_streams() + self.diagnoser.tracked_cost_entries();
        debug_assert_eq!(after, 0);
        // Surfaced separately from the pre-eviction gauge so the chaos
        // oracles can assert a chaos-killed worker's streams were
        // actually retired, not merely counted.
        if let Some(o) = &self.rec.obs {
            o.metrics()
                .gauge("adapt.tracked_streams_at_teardown")
                .set(cast::usize_to_f64(tracked));
            o.metrics()
                .gauge("adapt.tracked_streams_after_teardown")
                .set(cast::usize_to_f64(after));
        }
    }
}

/// Executes a single-stage distributed plan over real threads.
pub struct ThreadedExecutor {
    catalog: Catalog,
    config: ThreadedConfig,
}

impl ThreadedExecutor {
    /// Creates an executor over the catalog.
    pub fn new(catalog: Catalog, config: ThreadedConfig) -> Self {
        ThreadedExecutor { catalog, config }
    }

    /// Runs the plan to completion.
    pub fn run(&self, plan: &DistributedPlan) -> Result<ThreadedReport> {
        let cfg = &self.config;
        cfg.validate()?;
        let run = Run {
            who: "threaded",
            cfg,
            script: Vec::new(),
            finish_timeout: None,
        };
        run.execute(&self.catalog, plan, |w| {
            Ok(ThreadedWorkers::start(cfg, plan, w))
        })
    }
}

/// Depth of each (producer, worker) data ring, in blocks: a slow worker
/// parks its producers at this many staged blocks.
const RING_BLOCKS: usize = 8;

/// How often the run, while waiting for completions, checks that the
/// workers it is waiting for still exist.
const LIVENESS_SLICE: Duration = Duration::from_millis(50);

/// What `Run::execute` hands a substrate to build its worker endpoints
/// from.
pub(crate) struct Wiring<P: RingPayload> {
    pub(crate) x: Exchange,
    /// `rings[worker][source]`: the receiving halves of the data mesh.
    pub(crate) rings: Vec<Vec<RingReceiver<P>>>,
    pub(crate) events: Sender<WorkerEvent>,
    pub(crate) replies: Sender<RecallReply>,
    pub(crate) raw: Sender<Raw>,
    pub(crate) obs: Option<Obs>,
    pub(crate) processed_total: Arc<AtomicU64>,
    pub(crate) started: Instant,
}

/// The worker endpoints of one run — the one thing the two real
/// substrates do differently: in-process consumer threads, or link
/// threads relaying to socket-connected workers.
pub(crate) trait Endpoints {
    /// The endpoints' control vocabulary.
    type Ctl: From<Msg> + Send + 'static;
    /// Every worker's control-plane address.
    fn senders(&self) -> Vec<InboxSender<Self::Ctl>>;
    /// How `worker` ended, once it has: asked only while its completion
    /// is outstanding, where an exit means it died.
    fn exited(&mut self, worker: usize) -> Option<String>;
    /// Stops and joins everything — gracefully when the run is `clean`,
    /// without waiting on worker cooperation otherwise. Returns what
    /// failed on the way.
    fn stop(self, clean: bool) -> Vec<String>;
}

/// What the workers have reported so far.
struct Collected {
    results: Vec<Tuple>,
    per_partition: Vec<u64>,
    done: Vec<bool>,
    dedup_peak: u64,
}

impl Collected {
    fn absorb(&mut self, event: WorkerEvent) {
        match event {
            WorkerEvent::Results(batch) => self.results.extend(batch),
            WorkerEvent::Done {
                worker,
                processed,
                dedup_peak,
            } => {
                if self.done.get(worker) == Some(&false) {
                    self.done[worker] = true;
                    self.per_partition[worker] = processed;
                    self.dedup_peak = self.dedup_peak.max(dedup_peak);
                }
            }
        }
    }
}

/// The coordinator side of one query, written once for both real
/// substrates: set-up, producers over the ring sink, the adaptation
/// thread, join and teardown order, report totals. `cfg` is the
/// coordinator's knobs — the socket executor fills one in from its own
/// configuration (live adaptivity, failover, obs and tenancy off).
pub(crate) struct Run<'a> {
    /// Names the executor in errors.
    pub(crate) who: &'static str,
    pub(crate) cfg: &'a ThreadedConfig,
    /// Scripted adaptations as `(routed-tuple threshold, command)`.
    pub(crate) script: Vec<(u64, AdaptationCommand)>,
    /// How long the workers get to report completion once the producers
    /// have finished; `None` waits as long as they live.
    pub(crate) finish_timeout: Option<Duration>,
}

impl Run<'_> {
    pub(crate) fn execute<P: RingPayload, E: Endpoints>(
        mut self,
        catalog: &Catalog,
        plan: &DistributedPlan,
        start: impl FnOnce(Wiring<P>) -> Result<E>,
    ) -> Result<ThreadedReport> {
        let (who, cfg) = (self.who, self.cfg);
        let live_r1 = cfg.adaptivity.enabled && cfg.adaptivity.response == ResponsePolicy::R1;
        let live_r2 = cfg.adaptivity.enabled && cfg.adaptivity.response == ResponsePolicy::R2;
        let recall_on = live_r1 || self.script.iter().any(|(_, c)| c.retrospective);
        let resilient = cfg.chaos.is_some() || cfg.failover;
        let x = Exchange::new(
            plan,
            who,
            recall_on,
            cfg.chaos.clone(),
            resilient,
            cfg.checkpoint_interval,
        )?;
        let stage = &plan.stages[0];
        if stage.factory.stateful()
            && (live_r2 || self.script.iter().any(|(_, c)| !c.retrospective))
        {
            return Err(GridError::Config(
                "stateful stages require the retrospective (R1) response policy; \
                 a prospective routing change would strand operator state on the \
                 old owners"
                    .into(),
            ));
        }
        let monitoring = cfg.adaptivity.monitoring_active();
        let partitions = stage.nodes.len();
        let partitions_u32 = cast::index_to_u32(partitions)?;
        let sources = plan.sources.len();
        let tables = plan
            .sources
            .iter()
            .map(|s| catalog.get(&s.table))
            .collect::<Result<Vec<_>>>()?;
        let total_rows = tables.iter().map(|t| t.len() as u64).sum();
        let gate = recall_on.then(|| Arc::new(RecallGate::new(sources)));
        self.script.sort_by_key(|(after, _)| *after);
        let marks: Vec<u64> = self.script.iter().map(|(after, _)| *after).collect();

        // One bounded SPSC ring per (producer, worker) edge.
        let mut ring_txs: Vec<Vec<RingSender<P>>> = (0..sources).map(|_| Vec::new()).collect();
        let mut ring_rxs: Vec<Vec<RingReceiver<P>>> = (0..partitions).map(|_| Vec::new()).collect();
        for tx_row in ring_txs.iter_mut() {
            for rx_row in ring_rxs.iter_mut() {
                let (tx, rx) = ring::<P>(RING_BLOCKS);
                tx_row.push(tx);
                rx_row.push(rx);
            }
        }
        let (event_tx, events) = channel::<WorkerEvent>();
        let (raw_tx, raw_rx) = channel::<Raw>();
        let (reply_tx, reply_rx) = channel::<RecallReply>();

        let started = Instant::now();
        let obs = cfg.obs.enabled.then(|| Obs::new(cfg.obs.timeline_capacity));
        let processed_total = Arc::new(AtomicU64::new(0));
        let mut endpoints = start(Wiring {
            x: x.clone(),
            rings: ring_rxs,
            events: event_tx,
            replies: reply_tx,
            raw: raw_tx.clone(),
            obs: obs.clone(),
            processed_total: Arc::clone(&processed_total),
            started,
        })?;

        let mut producer_handles = Vec::with_capacity(sources);
        for (sidx, (source, table)) in plan.sources.iter().zip(tables).enumerate() {
            let mut producer = Producer::new(
                ProducerSpec {
                    source: sidx,
                    stream: source.stream,
                    scan_cost_ms: source.scan_cost_ms,
                    buffer_tuples: stage.exchange.buffer_tuples,
                    dests: partitions,
                    fast_gap: !cfg.failover,
                    retry: cfg.delivery_retry.clone(),
                },
                x.clone(),
                gate.as_ref().map_or(0, |g| g.epoch()),
            );
            producer.routed_ctr = obs
                .as_ref()
                .map(|o| o.metrics().counter("exec.tuples_routed"));
            let mut sink = ProducerSink {
                source: sidx,
                stream: source.stream,
                rings: std::mem::take(&mut ring_txs[sidx]),
                ended: vec![false; partitions],
                scale: cfg.cost_scale,
                chaos: cfg.chaos.clone(),
                m2: monitoring.then(|| M2Probe {
                    raw: raw_tx.clone(),
                    query: plan.query,
                    stage_id: stage.id,
                    started,
                }),
            };
            let gate = gate.clone();
            let watch = (!marks.is_empty()).then(|| ScriptWatch {
                marks: marks.clone(),
                raw: raw_tx.clone(),
            });
            producer_handles.push(thread::spawn(move || {
                run_producer(producer, table.rows(), gate, watch, &mut sink);
            }));
        }

        let mut adaptivity = Adaptivity::new(
            cfg,
            plan,
            &x,
            AdaptWiring {
                gate,
                workers: Commands(endpoints.senders()),
                partitions: partitions_u32,
                replies: reply_rx,
                raw_rx,
                total_rows,
                processed_total,
                script: self.script,
            },
            Recorder {
                obs: obs.clone(),
                started,
                scale: cfg.cost_scale,
            },
        );
        // A run nothing could adapt needs no adaptation thread: its
        // components are torn down here, unused.
        let mut stats = AdaptStats::default();
        let mut adapt_handle = None;
        if adaptivity.can_adapt() {
            adapt_handle = Some(thread::spawn(move || adaptivity.run()));
        } else {
            adaptivity.teardown();
        }

        // Producers, then workers, then the adaptation thread, then the
        // endpoints: every thread is joined even after a failure, and
        // the first failure is reported once all have stopped.
        let mut failed: Vec<String> = Vec::new();
        for (i, h) in producer_handles.into_iter().enumerate() {
            if h.join().is_err() {
                failed.push(format!("producer {i} panicked"));
            }
        }
        let _ = raw_tx.send(Raw::ProducersDone);
        let mut got = Collected {
            results: Vec::new(),
            per_partition: vec![0; partitions],
            done: vec![false; partitions],
            dedup_peak: 0,
        };
        let deadline = self.finish_timeout.map(|t| Instant::now() + t);
        while failed.is_empty() && got.done.contains(&false) {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let wait = left.map_or(LIVENESS_SLICE, |l| l.min(LIVENESS_SLICE));
            let closed = match events.recv_timeout(wait) {
                Ok(event) => {
                    got.absorb(event);
                    continue;
                }
                Err(e) => e == RecvTimeoutError::Disconnected,
            };
            // A quiet slice: a worker that exited without reporting
            // completion died — name it instead of waiting for it.
            let dead: Vec<(usize, String)> = (0..partitions)
                .filter(|&w| !got.done[w])
                .filter_map(|w| endpoints.exited(w).map(|how| (w, how)))
                .collect();
            // A completion precedes its worker's exit.
            while let Ok(event) = events.try_recv() {
                got.absorb(event);
            }
            failed.extend(dead.into_iter().filter(|d| !got.done[d.0]).map(|d| d.1));
            if failed.is_empty() && left.is_some_and(|l| l.is_zero()) {
                failed.push("timed out waiting for workers to finish".into());
            }
            if closed {
                // Every endpoint thread is gone; `stop` names the ones
                // that panicked.
                break;
            }
        }
        let _ = raw_tx.send(Raw::Stop);
        drop(raw_tx);
        match adapt_handle.map(thread::JoinHandle::join) {
            Some(Ok(counted)) => stats = counted,
            Some(Err(_)) => failed.push("adaptation thread panicked".into()),
            None => {}
        }
        let clean = failed.is_empty() && !got.done.contains(&false);
        failed.extend(endpoints.stop(clean));
        if failed.is_empty() && !clean {
            failed.push("workers vanished before completing".into());
        }
        if !failed.is_empty() {
            return Err(GridError::Execution(format!(
                "{who} run failed: {}",
                failed.join(", ")
            )));
        }

        let mut results = got.results;
        if resilient {
            let mut dedup = ResultDedup::default();
            results.retain(|t| dedup.first(t));
        }
        let tallies = &x.tallies;
        let delivery_gaps = std::mem::take(&mut *tallies.gaps.lock());
        let final_distribution = x.router.lock().current_distribution().weights().to_vec();
        Ok(ThreadedReport {
            wall_ms: started.elapsed().as_secs_f64() * 1000.0,
            results,
            per_partition_processed: got.per_partition,
            raw_m1_events: stats.m1,
            raw_m2_events: stats.m2,
            adaptations_deployed: stats.deployed,
            tenant_rebalances: stats.tenant_rebalances,
            recalls_completed: stats.recalls_completed,
            recalls_aborted: stats.recalls_aborted,
            state_tuples_migrated: stats.state_tuples_migrated,
            tuples_recalled: stats.tuples_recalled + tallies.restaged.load(Ordering::Relaxed),
            nodes_failed: stats.nodes_failed,
            failovers_completed: stats.failovers_completed,
            tuples_retransmitted: tallies.retransmitted.load(Ordering::Relaxed),
            send_failures: tallies.send_failures.load(Ordering::Relaxed),
            delivery_gaps,
            log_audits: x
                .logs
                .iter()
                .flat_map(|logs| logs.iter().map(SharedRecoveryLog::audit))
                .collect(),
            dedup_peak_entries: got.dedup_peak,
            final_distribution,
            obs: obs.as_ref().map(Obs::report),
            reconnects: 0,
            recall_blocks: tallies.recall_blocks.load(Ordering::Relaxed),
            largest_frame_bytes: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::{DataType, DistributionVector, NetAction};
    use gridq_engine::evaluator::ServiceCallFactory;
    use gridq_engine::fixtures::{
        call_plan, catalog, int_table, join_plan, multiset, single_stage_plan, CallShape, JoinShape,
    };
    use gridq_engine::service::{FnService, ServiceRegistry};
    use gridq_engine::Expr;

    #[test]
    fn static_run_produces_all_results() {
        let table = int_table("t", 0..200);
        let plan = call_plan(&table, &CallShape::default());
        let exec = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        );
        let report = exec.run(&plan).unwrap();
        assert_eq!(report.results.len(), 200);
        assert_eq!(report.per_partition_processed.iter().sum::<u64>(), 200);
        assert_eq!(report.adaptations_deployed, 0);
        assert_eq!(report.recalls_completed, 0);
        assert!(report.log_audits.is_empty(), "no recovery logs when off");
        // Spot-check a value.
        let mut values: Vec<i64> = report
            .results
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        values.sort_unstable();
        assert_eq!(values[0], 0);
        assert_eq!(values[199], 199 * 199);
    }

    #[test]
    fn adaptive_run_shifts_load_away_from_perturbed_node() {
        let table = int_table("t", 0..400);
        let plan = call_plan(&table, &CallShape::default());
        let mut perturbations = HashMap::new();
        perturbations.insert(NodeId::new(2), Perturbation::CostFactor(10.0));
        let exec = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::default(),
                cost_scale: 0.01,
                perturbations,
                ..Default::default()
            },
        );
        let report = exec.run(&plan).unwrap();
        assert_eq!(report.results.len(), 400);
        assert!(report.adaptations_deployed >= 1, "must adapt: {report:?}");
        // The obs layer must have witnessed every deployed adaptation,
        // with a causal chain back to a detector notification and a raw
        // event, stamped with wall-clock time.
        let obs = report.obs.as_ref().expect("obs enabled by default");
        let deploys: Vec<_> = obs
            .events
            .iter()
            .filter(|e| matches!(e.kind, TimelineKind::Deploy { .. }))
            .collect();
        assert_eq!(deploys.len() as u64, report.adaptations_deployed);
        for deploy in deploys {
            assert!(deploy.wall_ms.is_some(), "threaded events carry wall time");
            let TimelineKind::Deploy { diagnosis_seq, .. } = &deploy.kind else {
                unreachable!()
            };
            let diagnosis = obs
                .events
                .iter()
                .find(|e| e.seq == *diagnosis_seq)
                .expect("diagnosis in timeline");
            let TimelineKind::Diagnosis { notify_seq, .. } = &diagnosis.kind else {
                panic!("deploy must link a diagnosis, got {:?}", diagnosis.kind)
            };
            let notify = obs
                .events
                .iter()
                .find(|e| e.seq == *notify_seq)
                .expect("notification in timeline");
            assert!(matches!(notify.kind, TimelineKind::DetectorNotify { .. }));
        }
        assert_eq!(
            obs.metrics.counters.get("exec.tuples_processed"),
            Some(&400),
            "consumer threads record into the shared registry"
        );
        let tracked = obs
            .metrics
            .gauges
            .get("adapt.tracked_streams_at_teardown")
            .expect("teardown gauge recorded");
        assert!(
            *tracked > 0.0,
            "an adaptive run tracks at least one stream before eviction"
        );
        assert!(
            report.final_distribution[0] > 0.6,
            "router must favour the fast node: {:?}",
            report.final_distribution
        );
        assert!(
            report.per_partition_processed[0] > report.per_partition_processed[1],
            "fast node should process more: {:?}",
            report.per_partition_processed
        );
        assert!(report.raw_m1_events > 0);
    }

    /// A recording [`WorkerCommands`] that answers every barrier at
    /// once, as two obedient workers would.
    struct FakeWorkers {
        replies: Sender<RecallReply>,
        log: Arc<gridq_common::sync::Mutex<Vec<String>>>,
    }

    impl WorkerCommands for FakeWorkers {
        fn drain(&mut self, worker: usize, token: u64) -> bool {
            self.log.lock().push(format!("drain {worker}"));
            self.replies.send(RecallReply::Drained { token }).is_ok()
        }

        fn migrate(&mut self, worker: usize, cmd: MigrateCmd) {
            self.log.lock().push(format!("migrate {worker}"));
            let done = RecallReply::MigrateDone { token: cmd.token };
            let _ = self.replies.send(done);
        }

        fn redeliver(&mut self, dest: usize, _block: Vec<Routed>) {
            self.log.lock().push(format!("redeliver {dest}"));
        }
    }

    /// A scripted command and a diagnosed one are the same thing to the
    /// adaptation thread: both go through `Adaptivity::deploy` — here
    /// retrospectively, so through the one `Coordinator::recall` call
    /// site — and land in the same counters and the same timeline.
    #[test]
    fn scripted_and_diagnosed_commands_share_one_deploy_path() {
        let table = int_table("t", 0..100);
        let plan = call_plan(&table, &CallShape::default());
        let cfg = ThreadedConfig {
            adaptivity: AdaptivityConfig {
                response: ResponsePolicy::R1,
                ..Default::default()
            },
            ..Default::default()
        };
        let x = Exchange::new(&plan, "test", true, None, false, 50).unwrap();
        let (raw_tx, raw_rx) = channel();
        let (reply_tx, replies) = channel();
        let log = Arc::new(gridq_common::sync::Mutex::new(Vec::new()));
        let obs = Obs::new(cfg.obs.timeline_capacity);
        // One producer, forever between tuples: it parks whenever a
        // recall asks, which is all the gate needs from it.
        let gate = Arc::new(RecallGate::new(1));
        let scanning = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let producer = {
            let (gate, scanning) = (Arc::clone(&gate), Arc::clone(&scanning));
            thread::spawn(move || {
                let _guard = ProducerGuard::new(Arc::clone(&gate));
                while scanning.load(Ordering::Acquire) {
                    gate.pause_point();
                    thread::yield_now();
                }
            })
        };
        let scripted = AdaptationCommand {
            stage: plan.stages[0].id,
            new_distribution: DistributionVector::new(&[0.25, 0.75]).unwrap(),
            retrospective: true,
            at: SimTime::ZERO,
        };
        let adaptivity = Adaptivity::new(
            &cfg,
            &plan,
            &x,
            AdaptWiring {
                gate: Some(Arc::clone(&gate)),
                workers: FakeWorkers {
                    replies: reply_tx,
                    log: Arc::clone(&log),
                },
                partitions: 2,
                replies,
                raw_rx,
                total_rows: 100,
                processed_total: Arc::new(AtomicU64::new(0)),
                script: vec![(0, scripted)],
            },
            Recorder {
                obs: Some(obs.clone()),
                started: Instant::now(),
                scale: cfg.cost_scale,
            },
        );
        assert!(adaptivity.can_adapt());
        // The script fires at once (threshold 0); then partition 1
        // reports ten times partition 0's cost, which the detector,
        // diagnoser and responder turn into a command of their own.
        for (partition, cost) in [(0u32, 1.0), (1, 10.0)] {
            raw_tx
                .send(Raw::M1(vec![M1 {
                    query: plan.query,
                    partition: PartitionId::new(plan.stages[0].id, partition),
                    node: plan.stages[0].nodes[partition as usize],
                    cost_per_tuple_ms: cost,
                    leaf_wait_ms: 0.0,
                    selectivity: 1.0,
                    tuples_produced: 10,
                    at: SimTime::from_millis(100.0 + f64::from(partition)),
                }]))
                .unwrap();
        }
        raw_tx.send(Raw::Stop).unwrap();
        let stats = adaptivity.run();
        scanning.store(false, Ordering::Release);
        producer.join().unwrap();

        assert_eq!(stats.deployed, 2, "one scripted, one diagnosed");
        assert_eq!((stats.recalls_completed, stats.recalls_aborted), (2, 0));
        let one_recall = ["drain 0", "drain 1", "migrate 0", "migrate 1"];
        assert_eq!(*log.lock(), [one_recall, one_recall].concat());
        assert_eq!(gate.epoch(), 2, "each recall resumed under a new epoch");
        let deployed = x.router.lock().current_distribution();
        assert!(
            deployed.weights()[0] > 0.75,
            "the diagnosed W' (away from the slow partition) went last: {deployed:?}"
        );
        let report = obs.report();
        let deploys: Vec<(bool, u64)> = report
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                TimelineKind::Deploy {
                    retrospective,
                    diagnosis_seq,
                    ..
                } => Some((*retrospective, *diagnosis_seq)),
                _ => None,
            })
            .collect();
        assert_eq!(deploys.len(), 2);
        assert_eq!(deploys[0], (true, 0), "a scripted deploy has no diagnosis");
        let diagnosis = report.events.iter().find(|e| e.seq == deploys[1].1);
        assert!(
            deploys[1].0
                && matches!(
                    diagnosis.map(|e| &e.kind),
                    Some(TimelineKind::Diagnosis { .. })
                ),
            "the diagnosed deploy links its diagnosis: {deploys:?}"
        );
        let finishes = report
            .events
            .iter()
            .filter(|e| matches!(e.kind, TimelineKind::RecallFinish { .. }));
        assert_eq!(finishes.count(), 2);
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let table = int_table("t", 0..10);
        let plan = call_plan(&table, &CallShape::default());
        let bad_configs = [
            ThreadedConfig {
                cost_scale: 0.0,
                ..Default::default()
            },
            ThreadedConfig {
                cost_scale: f64::NAN,
                ..Default::default()
            },
            ThreadedConfig {
                receive_cost_ms: -1.0,
                ..Default::default()
            },
            ThreadedConfig {
                checkpoint_interval: 0,
                ..Default::default()
            },
            ThreadedConfig {
                adaptivity: AdaptivityConfig {
                    detector_window: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
            ThreadedConfig {
                obs: ObsConfig {
                    enabled: true,
                    timeline_capacity: 0,
                },
                ..Default::default()
            },
            // Failover rides the recall machinery, which R2 lacks.
            ThreadedConfig {
                failover: true,
                ..Default::default()
            },
        ];
        for bad in bad_configs {
            let exec = ThreadedExecutor::new(catalog(&[&table]), bad);
            assert!(
                matches!(exec.run(&plan), Err(GridError::Config(_))),
                "invalid config must be rejected"
            );
        }
    }

    #[test]
    fn panicking_service_yields_error_not_deadlock() {
        let table = int_table("t", 0..50);
        let factory = ServiceCallFactory::new(
            table.schema(),
            Arc::new(FnService::new(
                "Boom",
                vec![DataType::Int],
                DataType::Int,
                1.0,
                |_| panic!("service crashed"),
            )),
            vec![Expr::col(0)],
            "boom",
            false,
            ServiceRegistry::new(),
        );
        let scans = [(table.name(), StreamTag::Single, 0.1)];
        let plan = single_stage_plan(3, &scans, factory, 2, None, 10);
        let exec = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        );
        // Both consumers die on their first tuple; the run must still
        // join every thread and surface a typed error instead of hanging
        // or poisoning the shared router.
        match exec.run(&plan) {
            Err(GridError::Execution(msg)) => {
                assert!(msg.contains("panicked"), "unexpected message: {msg}")
            }
            other => panic!("expected execution error, got {other:?}"),
        }
    }

    #[test]
    fn stateful_plan_with_r2_is_rejected_but_runs_statically() {
        let build = int_table("b", 0..20);
        let probe = int_table("p", 0..20);
        let plan = join_plan(&build, &probe, &JoinShape::default());
        // Prospective adaptivity on a stateful stage would strand the
        // hash table on the old owners: rejected, like the simulator.
        let exec = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::default(), // R2
                cost_scale: 0.002,
                ..Default::default()
            },
        );
        assert!(matches!(exec.run(&plan), Err(GridError::Config(_))));
        // But the same stateful plan runs fine statically.
        let static_exec = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        );
        let report = static_exec.run(&plan).unwrap();
        assert_eq!(report.results.len(), 20);
    }

    #[test]
    fn stateful_r1_run_recalls_and_matches_static() {
        let build = int_table("b", 0..60);
        let probe = int_table("p", 0..300);
        // Static baseline for the result multiset.
        let static_report = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        )
        .run(&join_plan(&build, &probe, &JoinShape::default()))
        .unwrap();
        assert_eq!(static_report.results.len(), 60);

        // Adaptive R1 run with one node perturbed. The probe scan is the
        // bottleneck so producers are still alive when the imbalance is
        // diagnosed, giving the recall something to pause.
        let plan = join_plan(
            &build,
            &probe,
            &JoinShape {
                scan_cost_ms: [1.0, 10.0],
                ..Default::default()
            },
        );
        let mut perturbations = HashMap::new();
        perturbations.insert(NodeId::new(2), Perturbation::CostFactor(10.0));
        let adapt = AdaptivityConfig {
            response: ResponsePolicy::R1,
            ..Default::default()
        };
        let report = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: adapt,
                cost_scale: 0.01,
                perturbations,
                checkpoint_interval: 8,
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();

        // The run adapted retrospectively at least once and the result
        // multiset is exactly the static one: the recall lost nothing
        // and duplicated nothing.
        assert!(
            report.adaptations_deployed >= 1 && report.recalls_completed >= 1,
            "expected at least one completed recall: {report:?}"
        );
        assert_eq!(multiset(&static_report.results), multiset(&report.results));
        assert!(
            report.state_tuples_migrated > 0,
            "a bucket-map change must migrate hash-table state: {report:?}"
        );

        // Ack-log conservation: every recorded tuple is accounted for as
        // pruned (acknowledged), retired (re-delivered by the recall), or
        // still unacknowledged — and the probe log fully drains because
        // the probe producer force-checkpoints at end of stream.
        assert_eq!(report.log_audits.len(), 2);
        for audit in &report.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
        }
        assert_eq!(
            report.log_audits[1].unacked, 0,
            "probe log must drain: {:?}",
            report.log_audits[1]
        );
        assert!(report.log_audits[0].recorded >= 60);

        // Timeline: every completed recall is bracketed by RecallStart /
        // RecallFinish, and chains RecallFinish -> RecallStart ->
        // Deploy -> Diagnosis -> DetectorNotify -> raw event.
        let obs = report.obs.as_ref().expect("obs enabled by default");
        let finishes: Vec<_> = obs
            .events
            .iter()
            .filter(|e| matches!(e.kind, TimelineKind::RecallFinish { .. }))
            .collect();
        assert!(!finishes.is_empty());
        for finish in finishes {
            let TimelineKind::RecallFinish { start_seq, .. } = &finish.kind else {
                unreachable!()
            };
            let start = obs.events.iter().find(|e| e.seq == *start_seq).unwrap();
            let TimelineKind::RecallStart { deploy_seq, .. } = &start.kind else {
                panic!("finish must link a RecallStart, got {:?}", start.kind)
            };
            let deploy = obs.events.iter().find(|e| e.seq == *deploy_seq).unwrap();
            let TimelineKind::Deploy {
                retrospective,
                diagnosis_seq,
                ..
            } = &deploy.kind
            else {
                panic!("start must link a Deploy, got {:?}", deploy.kind)
            };
            assert!(retrospective, "recalled deploys are retrospective");
            let diagnosis = obs.events.iter().find(|e| e.seq == *diagnosis_seq).unwrap();
            let TimelineKind::Diagnosis { notify_seq, .. } = &diagnosis.kind else {
                panic!("deploy must link a Diagnosis, got {:?}", diagnosis.kind)
            };
            let notify = obs.events.iter().find(|e| e.seq == *notify_seq).unwrap();
            let TimelineKind::DetectorNotify { raw_seq, .. } = &notify.kind else {
                panic!("diagnosis must link a notify, got {:?}", notify.kind)
            };
            let raw = obs.events.iter().find(|e| e.seq == *raw_seq).unwrap();
            assert!(matches!(
                raw.kind,
                TimelineKind::RawM1 { .. } | TimelineKind::RawM2 { .. }
            ));
        }
    }

    #[test]
    fn leaf_wait_includes_receive_timeout_slices() {
        // One slow producer (60 model-ms per scan at scale 1.0 = 60 real
        // ms, longer than the consumer's 50 ms receive timeout) and one
        // cheap consumer: almost all of the consumer's life is waiting.
        // Each wait spans a full Timeout slice, which the old code
        // silently discarded — reported leaf-wait was ~10 ms/tuple
        // instead of ~60.
        let table = int_table("t", 0..8);
        let mut plan = call_plan(
            &table,
            &CallShape {
                evaluators: 1,
                ..Default::default()
            },
        );
        plan.sources[0].scan_cost_ms = 60.0;
        plan.stages[0].exchange.buffer_tuples = 1;
        let adapt = AdaptivityConfig {
            monitoring_interval_tuples: 4,
            ..Default::default()
        };
        let exec = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: adapt,
                cost_scale: 1.0,
                ..Default::default()
            },
        );
        let report = exec.run(&plan).unwrap();
        assert_eq!(report.results.len(), 8);
        assert!(report.raw_m1_events >= 1);
        let obs = report.obs.as_ref().unwrap();
        let max_leaf_wait = obs
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TimelineKind::RawM1 { leaf_wait_ms, .. } => Some(leaf_wait_ms),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        assert!(
            max_leaf_wait > 25.0,
            "leaf wait must include timed-out receive slices, got {max_leaf_wait}"
        );
    }

    #[test]
    fn tail_batch_m1_is_flushed_at_eos() {
        // 25 tuples on one partition with an interval of 10: two full
        // batches plus a 5-tuple tail. The old code dropped the tail on
        // the floor, leaving the last tuples unmonitored.
        let table = int_table("t", 0..25);
        let plan = call_plan(
            &table,
            &CallShape {
                evaluators: 1,
                ..Default::default()
            },
        );
        let adapt = AdaptivityConfig {
            monitoring_interval_tuples: 10,
            ..Default::default()
        };
        let exec = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: adapt,
                cost_scale: 0.002,
                ..Default::default()
            },
        );
        let report = exec.run(&plan).unwrap();
        assert_eq!(report.results.len(), 25);
        assert_eq!(
            report.raw_m1_events, 3,
            "10 + 10 + tail(5) batches must all be reported"
        );
    }

    /// Drops the first `drops` data batches and duplicates the next
    /// `dups`, then delivers faithfully — a lossy start with a clean
    /// tail, so the retry budget always converges.
    #[derive(Debug)]
    struct FlakyStart {
        drops: u64,
        dups: u64,
        data_calls: AtomicU64,
        ack_calls: AtomicU64,
    }

    impl FlakyStart {
        fn new(drops: u64, dups: u64) -> Self {
            FlakyStart {
                drops,
                dups,
                data_calls: AtomicU64::new(0),
                ack_calls: AtomicU64::new(0),
            }
        }
    }

    impl ChaosHook for FlakyStart {
        fn on_data(&self, _source: usize, _dest: usize) -> NetAction {
            let n = self.data_calls.fetch_add(1, Ordering::Relaxed);
            if n < self.drops {
                NetAction::Drop
            } else if n < self.drops + self.dups {
                NetAction::Duplicate
            } else {
                NetAction::Deliver
            }
        }

        fn on_ack(&self, _source: usize, _worker: usize) -> NetAction {
            // Duplicate the first ack too: the log must absorb it.
            if self.ack_calls.fetch_add(1, Ordering::Relaxed) == 0 {
                NetAction::Duplicate
            } else {
                NetAction::Deliver
            }
        }
    }

    #[test]
    fn dropped_and_duplicated_batches_are_healed_by_retransmission() {
        let table = int_table("t", 0..200);
        let plan = call_plan(&table, &CallShape::default());
        let clean = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        let report = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                chaos: Some(Arc::new(FlakyStart::new(4, 4))),
                delivery_retry: RetryPolicy {
                    base_ms: 5.0,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        assert_eq!(
            multiset(&clean.results),
            multiset(&report.results),
            "retransmission and dedup must restore the clean multiset"
        );
        assert!(
            report.tuples_retransmitted > 0,
            "dropped windows must be retransmitted: {report:?}"
        );
        assert!(report.delivery_gaps.is_empty(), "nothing was undeliverable");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
            assert_eq!(audit.unacked, 0, "all windows eventually acked: {audit:?}");
        }
        assert!(
            report.log_audits.iter().any(|a| a.acks_duplicate > 0),
            "the duplicated ack must be counted: {:?}",
            report.log_audits
        );
    }

    /// Duplicates every data batch, forever: sustained at-least-once
    /// pressure on the consumer dedup filter.
    #[derive(Debug)]
    struct AlwaysDuplicate;

    impl ChaosHook for AlwaysDuplicate {
        fn on_data(&self, _source: usize, _dest: usize) -> NetAction {
            NetAction::Duplicate
        }
    }

    #[test]
    fn consumer_dedup_memory_is_bounded_by_unacked_windows() {
        let total = 2000usize;
        let table = int_table("t", 0..total as i64);
        let plan = call_plan(&table, &CallShape::default());
        let clean = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        let report = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                checkpoint_interval: 8,
                chaos: Some(Arc::new(AlwaysDuplicate)),
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        assert_eq!(
            multiset(&clean.results),
            multiset(&report.results),
            "every duplicate must be absorbed"
        );
        assert!(
            report.dedup_peak_entries > 0,
            "resilient runs must track the filter's high-water mark"
        );
        // The filter must stay O(unacked windows), not O(history): each
        // of the 2000 input tuples is delivered twice, so an unbounded
        // filter would end the run holding well over `total` entries.
        // Acks are applied inline at marker processing here, so the live
        // set is a handful of in-flight windows plus block range keys.
        assert!(
            report.dedup_peak_entries < (total / 8) as u64,
            "dedup peak {} must stay far below the {} tuples delivered",
            report.dedup_peak_entries,
            total
        );
        for audit in &report.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
            assert_eq!(audit.unacked, 0, "all windows eventually acked: {audit:?}");
        }
    }

    /// Drops every data batch to one destination, forever: a dead link.
    #[derive(Debug)]
    struct DeadLinkTo(usize);

    impl ChaosHook for DeadLinkTo {
        fn on_data(&self, _source: usize, dest: usize) -> NetAction {
            if dest == self.0 {
                NetAction::Drop
            } else {
                NetAction::Deliver
            }
        }
    }

    #[test]
    fn exhausted_retries_record_delivery_gaps_instead_of_hanging() {
        let table = int_table("t", 0..100);
        let plan = call_plan(&table, &CallShape::default());
        let report = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                chaos: Some(Arc::new(DeadLinkTo(1))),
                delivery_retry: RetryPolicy {
                    base_ms: 2.0,
                    max_retries: 3,
                },
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        // The query completed — degraded, not hung — and says exactly
        // what is missing.
        assert!(
            !report.delivery_gaps.is_empty(),
            "a dead link must surface as a gap: {report:?}"
        );
        assert!(report.delivery_gaps.iter().all(|g| g.dest == 1));
        let gapped: u64 = report.delivery_gaps.iter().map(|g| g.tuples).sum();
        assert!(gapped > 0);
        assert!(report.results.len() < 100, "partition 1's share is missing");
        assert!(!report.results.is_empty(), "partition 0 still answered");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
        }
        assert!(
            report.log_audits.iter().any(|a| a.unacked > 0),
            "the gapped windows stay visibly unacknowledged"
        );
    }

    #[test]
    fn dead_consumer_surfaces_gaps_before_failover_would_fire() {
        // A consumer that dies with failover disabled used to have its
        // push errors silently discarded (`let _ = send(...)`) and the
        // producer then slept out the entire retry/backoff budget against
        // the closed channel before any gap surfaced. Closed-ring pushes
        // are now counted into `send_failures` and the retry loop gaps
        // the destination out immediately.
        let table = int_table("t", 0..200);
        let plan = call_plan(&table, &CallShape::default());
        let started = Instant::now();
        let report = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                chaos: Some(Arc::new(CrashOnNth {
                    worker: 1,
                    after: 2,
                    calls: AtomicU64::new(0),
                })),
                delivery_retry: RetryPolicy {
                    base_ms: 500.0,
                    max_retries: 6,
                },
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        let wall = started.elapsed();
        assert!(
            report.send_failures > 0,
            "pushes into the dead consumer's closed ring are counted: {report:?}"
        );
        assert!(
            !report.delivery_gaps.is_empty(),
            "the dead consumer surfaces as delivery gaps: {report:?}"
        );
        assert!(report.delivery_gaps.iter().all(|g| g.dest == 1));
        assert!(report.results.len() < 200, "partition 1's share is missing");
        assert!(!report.results.is_empty(), "partition 0 still answered");
        // The full budget would be ~30s of backoff (500ms doubling over
        // 6 retries); the fast path must settle in roughly one attempt.
        assert!(
            wall < Duration::from_secs(10),
            "the gap fast path must not sleep out the backoff budget: {wall:?}"
        );
    }

    /// One conversion for every real-to-model site (`model_now`, M1's
    /// `leaf_wait_ms`, M2's `send_cost_ms`): below the `1e-9` floor the
    /// scale no longer matters, above it the conversion is the plain
    /// quotient.
    #[test]
    fn real_time_converts_to_model_time_the_same_way_everywhere() {
        let within = |got: f64, want: f64| (got - want).abs() <= want * 1e-12;
        // The benchmark's null-cost scale sits below the floor: one real
        // millisecond reads as at `1e-9`, not a thousand times more.
        assert!(within(real_to_model_ms(1.0, 1e-12), 1e9));
        assert!(within(real_to_model_ms(1.0, 1e-9), 1e9));
        assert!(within(real_to_model_ms(2.5, 0.01), 250.0));
        // An M1's wait and its own stamp are in the same unit at every
        // scale (they were a factor 1000 apart at `1e-12`): a wait as
        // long as the run so far reads as `at` does.
        for scale in [1e-12, 1e-9, 0.01] {
            let started = Instant::now() - Duration::from_millis(40);
            let at = model_now(started, scale).as_millis();
            let wait = real_to_model_ms(40.0, scale);
            assert!(at >= wait && at < wait * 100.0, "{scale:e}: {at} vs {wait}");
        }
    }

    /// Loses partition `index`'s `nth` M1 notification.
    #[derive(Debug)]
    struct DropNthM1 {
        index: usize,
        nth: u64,
        seen: AtomicU64,
    }

    impl ChaosHook for DropNthM1 {
        fn on_notification(&self, kind: NotifyKind, index: usize) -> bool {
            (kind, index) != (NotifyKind::M1, self.index)
                || self.seen.fetch_add(1, Ordering::Relaxed) + 1 != self.nth
        }
    }

    /// The chaos seam counts samples, not hand-overs: the seventh M1 is
    /// the one lost whichever hand-over carries it, the rest arrive in
    /// the order they were taken, each stamped, and a hand-over whose
    /// every sample was lost is not sent at all.
    #[test]
    fn a_dropped_m1_is_the_nth_sample_not_the_nth_hand_over() {
        let table = int_table("t", 0..1);
        let plan = call_plan(&table, &CallShape::default());
        let hook = Arc::new(DropNthM1 {
            index: 1,
            nth: 7,
            seen: AtomicU64::new(0),
        });
        let x = Exchange::new(&plan, "test", false, Some(hook), true, 50).unwrap();
        let (raw, raw_rx) = channel();
        let mut out = ThreadedOut {
            index: 1,
            node: plan.stages[0].nodes[1],
            x,
            peers: Vec::new(),
            events: channel().0,
            raw,
            scale: 0.01,
            failover_on: false,
            query: plan.query,
            stage_id: plan.stages[0].id,
            started: Instant::now(),
        };
        // Samples 1..=12 over hand-overs of 4, 2, 1 and 5; the third
        // carries only the seventh.
        let mut next = 0u64;
        for len in [4, 2, 1, 5] {
            let samples = (0..len).map(|_| {
                next += 1;
                M1Sample {
                    cost_per_tuple_ms: 1.0,
                    wait_ms_per_tuple: 0.0,
                    selectivity: 1.0,
                    tuples_produced: next,
                }
            });
            out.m1(samples.collect());
        }
        drop(out);
        let batches: Vec<Vec<u64>> = raw_rx
            .iter()
            .map(|raw| match raw {
                Raw::M1(batch) => batch.iter().map(|m| m.tuples_produced).collect(),
                _ => panic!("only M1 hand-overs were sent"),
            })
            .collect();
        assert_eq!(
            batches,
            vec![vec![1, 2, 3, 4], vec![5, 6], vec![8, 9, 10, 11, 12]]
        );
    }

    /// Crashes one worker after it has received `after` messages.
    #[derive(Debug)]
    struct CrashOnNth {
        worker: usize,
        after: u64,
        calls: AtomicU64,
    }

    impl ChaosHook for CrashOnNth {
        fn crash_worker(&self, worker: usize) -> bool {
            worker == self.worker && self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.after
        }
    }

    #[test]
    // The failover recall assigns the dead partition the literal weight
    // 0.0 (not a computed residue), so bit-exact equality is the
    // property under test.
    #[allow(clippy::float_cmp)]
    fn consumer_crash_fails_over_and_matches_static() {
        let build = int_table("b", 0..60);
        let probe = int_table("p", 0..300);
        let plan = join_plan(&build, &probe, &JoinShape::default());
        let static_report = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        assert_eq!(static_report.results.len(), 60);

        // Kill partition 1 on its 10th message — mid-build, while it
        // holds operator state and deferred probe windows.
        let adapt = AdaptivityConfig {
            response: ResponsePolicy::R1,
            ..Default::default()
        };
        let report = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: adapt,
                cost_scale: 0.002,
                checkpoint_interval: 8,
                chaos: Some(Arc::new(CrashOnNth {
                    worker: 1,
                    after: 10,
                    calls: AtomicU64::new(0),
                })),
                delivery_retry: RetryPolicy {
                    base_ms: 20.0,
                    max_retries: 8,
                },
                failover: true,
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();

        assert_eq!(report.nodes_failed, 1, "one death reported: {report:?}");
        assert!(
            report.failovers_completed >= 1,
            "the failover recall must complete: {report:?}"
        );
        assert!(
            report.delivery_gaps.is_empty(),
            "replay + retransmission means nothing is lost: {report:?}"
        );
        assert_eq!(
            multiset(&static_report.results),
            multiset(&report.results),
            "a crashed consumer must not change the result multiset"
        );
        for audit in &report.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
        }
        assert_eq!(
            report.final_distribution[1], 0.0,
            "the dead partition keeps zero weight: {:?}",
            report.final_distribution
        );
        // Timeline: the failover links back to the death that caused it.
        let obs = report.obs.as_ref().expect("obs enabled by default");
        let failover = obs
            .events
            .iter()
            .find(|e| matches!(e.kind, TimelineKind::Failover { .. }))
            .expect("a Failover event is recorded");
        let TimelineKind::Failover {
            down_seq, replayed, ..
        } = &failover.kind
        else {
            unreachable!()
        };
        assert!(*replayed > 0, "the dead partition's log entries replay");
        let down = obs
            .events
            .iter()
            .find(|e| e.seq == *down_seq)
            .expect("NodeDown in timeline");
        assert!(matches!(down.kind, TimelineKind::NodeDown { .. }));
    }
}
