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
//! - one consumer thread per stage partition, multiplexing its rings and
//!   its control messages through one `Inbox`, evaluating the same
//!   [`gridq_engine::evaluator::PartitionEvaluator`] clones and *actually
//!   spending CPU/sleep time* proportional to the cost model (scaled down
//!   by `cost_scale` to keep tests fast), and calling its coordinator-side
//!   outlet (`Port`) in-process — or, in `socket.rs`, behind a link thread
//!   that encodes what it pops and a reader that decodes the replies into
//!   the same `Port` calls;
//! - one adaptation thread driving the query's
//!   [`gridq_adapt::ControlLoop`] (MonitoringEventDetector, Diagnoser and
//!   Responder), fed by real M1/M2 notifications (or by scripted
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
    Accepted, AdaptationCommand, AdaptivityConfig, ControlLoop, Notice, ProducerId, ResponsePolicy,
    M1, M2,
};
use gridq_common::sync::ring::{
    inbox, ring, Inbox, InboxSender, Refused, RingReceiver, RingSender, Wake,
};
use gridq_common::{
    ChaosHook, GridError, Journal, MetricSink, NodeId, NotifyKind, NullSink, PartitionId, QueryId,
    RecallPhase, Result, SimTime, SubplanId, Tuple,
};
use gridq_engine::distributed::DistributedPlan;
use gridq_engine::evaluator::StreamTag;
use gridq_engine::physical::Catalog;
use gridq_grid::Perturbation;
use gridq_obs::{Counter, Obs, ObsConfig, RunReport, TimelineKind};
use gridq_recovery::{AckOutcome, Checkpoint, ResultDedup, SharedRecoveryLog};

// The gap record lives in `gridq-recovery`, so every substrate reports a
// write-off the same way.
pub use gridq_recovery::DeliveryGap;
use protocol::consumer::{Consumer, ConsumerOut, M1Sample, Progress};
use protocol::coordinator::{Coordinator, MigrateCmd, RecallOutcome, RecallReply, RecallTarget};
use protocol::producer::{BlockSink, Producer, ProducerSpec, Shipped};
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
    /// Fault-injection hook consulted at the chaos seams (exchange
    /// sends, checkpoint acks, monitoring notifications, per-tuple work,
    /// worker crashes, on data or on a recall's commands). `None` injects
    /// nothing and leaves behavior identical to an uninstrumented run.
    pub chaos: Option<Arc<dyn ChaosHook>>,
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
            chaos: None,
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
        )?;
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

/// What an execution on threads measured: the one [`RunReport`] every
/// substrate returns, under the name this crate has always used for it.
pub type ThreadedReport = RunReport;

/// What travels in every data ring: a block, or the end of one source's
/// stream riding behind the blocks it trails (on sockets, encoded by the
/// link thread and decoded by the worker's reader).
#[derive(Clone)]
pub(crate) enum DataMsg {
    Block(Block),
    Eos(StreamTag),
}

/// A coordinator's (or peer's) command to one worker endpoint: the
/// control-plane vocabulary of both substrates.
pub(crate) enum Msg {
    /// Recall barrier marker: the producers are parked behind the recall
    /// gate (or have all finished), so everything sent to the worker
    /// before the pause is processed or on its data ring (a socket link
    /// relays its rings first). The consumer replies `Drained` at once
    /// and leaves its queue to the `Migrate`.
    Drain { token: u64 },
    /// Recall migration command: surrender the state, the held tuples
    /// and the queued tuples of the outgoing buckets, then reply
    /// `MigrateDone`.
    Migrate(MigrateCmd),
    /// A block of tuples re-delivered by the recall protocol (migrated
    /// operator state, recalled held tuples, a failover replay), at most
    /// the exchange's `buffer_tuples` long. Not logged again: the barrier
    /// plus direct channel carry the exactly-once guarantee.
    Migrated(Vec<Routed>),
    /// The run is over: flush, report the final counts and exit. A
    /// message, not the inbox closing: consumers hold each other's
    /// senders.
    Release,
}

impl Msg {
    /// The recall round a `Drain` or `Migrate` belongs to: what the crash
    /// seam is told of the message a worker dies on.
    pub(crate) fn recall_phase(&self) -> Option<RecallPhase> {
        match self {
            Msg::Drain { .. } => Some(RecallPhase::Drain),
            Msg::Migrate(_) => Some(RecallPhase::Migrate),
            Msg::Migrated(_) | Msg::Release => None,
        }
    }
}

/// How the coordinator commands workers on either substrate: a message
/// on each endpoint's control plane.
struct Commands(Vec<InboxSender<Msg>>);

impl WorkerCommands for Commands {
    fn drain(&mut self, worker: usize, token: u64) {
        self.0[worker].send(Msg::Drain { token });
    }

    fn migrate(&mut self, worker: usize, cmd: MigrateCmd) {
        self.0[worker].send(Msg::Migrate(cmd));
    }

    fn redeliver(&mut self, dest: usize, block: Vec<Routed>) {
        self.0[dest].send(Msg::Migrated(block));
    }
}

/// What the adaptation thread consumes.
pub(crate) enum Raw {
    /// One consumer's hand-over: the M1 samples of one block, in the
    /// order they were taken.
    M1(Vec<M1>),
    M2(M2),
    /// A worker died: a consumer through the crash seam, or a socket
    /// worker whose connection ended. Its exit notice, which starts the
    /// failover; sent in failover runs only, behind the death reply that
    /// answers any barrier the worker owed (`RecallReply::Down`, sent in
    /// every run).
    Down(usize),
    /// The run-wide routed count reached a scripted threshold.
    Routed,
    /// Every producer has finished: what is left of the script fires
    /// now (no later tuple could reach its threshold).
    ProducersDone,
    /// The run is over.
    Stop,
}

/// What a worker endpoint reports to the run.
pub(crate) enum WorkerEvent {
    Results(Vec<Tuple>),
    /// The worker's counts: at its completion (all of its streams are
    /// exhausted), and final ones when it exits.
    Done {
        worker: usize,
        processed: u64,
        dedup_peak: u64,
    },
}

/// Model milliseconds as real time; zero below a nanosecond, so a
/// null-cost run never sleeps.
pub(crate) fn real_time(model_ms: f64, scale: f64) -> Duration {
    Duration::from_secs_f64((model_ms * scale / 1000.0).max(0.0))
}

pub(crate) fn spin_for(model_ms: f64, scale: f64) {
    let dur = real_time(model_ms, scale);
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

/// How long a producer waiting to end its stream parks between looks at
/// its acknowledgements. A recall's pause request unparks it at once.
const ACK_WAIT: Duration = Duration::from_millis(1);

/// Drives one producer to completion on the calling thread: the scan
/// with a pause point before each row, then the end of the stream, asked
/// for again — behind a pause point each time — until every destination
/// is acknowledged or dead.
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
    // each look: finishing mid-pause would send tuples routed under the
    // old distribution after the consumers already drained. A flush that
    // gave way to a later recall parks here again, and so does a wait
    // for acks.
    loop {
        if let Some(g) = &gate {
            producer.observe_epoch(g.pause_point());
        }
        if producer.finish(sink) {
            break;
        }
        thread::park_timeout(ACK_WAIT);
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
/// the same ring, so it trails every block in FIFO order. A push waiting
/// on a full ring gives way to a recall's pause request.
struct ProducerSink {
    source: usize,
    stream: StreamTag,
    rings: Vec<RingSender<DataMsg>>,
    gate: Option<Arc<RecallGate>>,
    /// Destinations whose end-of-stream is out.
    ended: Vec<bool>,
    scale: f64,
    chaos: Option<Arc<dyn ChaosHook>>,
    /// `None` with monitoring off.
    m2: Option<M2Probe>,
}

/// A push handed back, as the block the producer re-stages.
fn withheld(item: DataMsg) -> Shipped {
    match item {
        DataMsg::Block(block) => Shipped::Withheld(block),
        DataMsg::Eos(_) => Shipped::Sent(0),
    }
}

impl BlockSink for ProducerSink {
    fn pay(&mut self, model_ms: f64) {
        spin_for(model_ms, self.scale);
    }

    fn ship(&mut self, dest: usize, block: Block, duplicate: bool) -> Shipped {
        let send_started = Instant::now();
        let copies = 1 + usize::from(duplicate);
        let count = self.m2.as_ref().map_or(0, |_| block.tuples() * copies);
        let (ring, gate) = (&self.rings[dest], self.gate.as_deref());
        let push =
            |payload| ring.push_unless(payload, || gate.is_some_and(RecallGate::pause_requested));
        let payload = DataMsg::Block(block);
        let mut failed = 0;
        if duplicate {
            match push(payload.clone()) {
                Ok(()) => {}
                Err(Refused::Closed(_)) => failed += 1,
                Err(Refused::GaveWay(copy)) => return withheld(copy),
            }
        }
        match push(payload) {
            Ok(()) => {}
            Err(Refused::Closed(_)) => failed += 1,
            Err(Refused::GaveWay(payload)) if !duplicate => return withheld(payload),
            // One copy is out: the duplicate that gave way never was.
            Err(Refused::GaveWay(_)) => {}
        }
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
        Shipped::Sent(failed)
    }

    fn eos(&mut self, dest: usize, stream: StreamTag) {
        self.ended[dest] = true;
        let _ = self.rings[dest].push(DataMsg::Eos(stream));
    }
}

impl Drop for ProducerSink {
    /// A producer that died mid-scan never ended its stream, and without
    /// the markers its workers would wait forever: the unwinding sink
    /// sends them, by the same route.
    fn drop(&mut self) {
        for dest in 0..self.rings.len() {
            if !self.ended[dest] {
                self.eos(dest, self.stream);
            }
        }
    }
}

/// Modelled cost, paid parked on the consumer's inbox: a control message
/// cuts the sleep short, and what is left of it stays `owed` until that
/// message is handled.
pub(crate) struct Pacer {
    inbox: Inbox<Msg, DataMsg>,
    /// Real time still to be slept off for modelled cost already accrued.
    owed: Duration,
    scale: f64,
}

impl Pacer {
    pub(crate) fn new(inbox: Inbox<Msg, DataMsg>, scale: f64) -> Self {
        let owed = Duration::ZERO;
        Pacer { inbox, owed, scale }
    }

    /// Sleeps off `model_ms` of debt on top of what is owed.
    fn pay(&mut self, model_ms: f64) {
        self.owed += real_time(model_ms, self.scale);
        self.pay_owed();
    }

    /// Sleeps off the owed time, parked on the inbox. Returns `false` when
    /// a control message ended the sleep early: it is first in line, and
    /// the rest stays owed.
    fn pay_owed(&mut self) -> bool {
        if self.owed.is_zero() {
            return true;
        }
        let until = Instant::now() + self.owed;
        let cut_short = self.inbox.wait_control(until);
        self.owed = until.saturating_duration_since(Instant::now());
        !cut_short
    }
}

/// A consumer thread's outputs: its [`Port`] on threads; on sockets, frames
/// the coordinator decodes into the same `Port` calls (DESIGN §15).
pub(crate) trait Outlet: ConsumerOut {
    /// Answers a recall's `Drain` (`Drained`) or `Migrate` (`MigrateDone`).
    fn reply(&mut self, phase: RecallPhase, token: u64);
    /// One block a `Migrate` surrendered, ahead of its `MigrateDone`.
    fn surrendered(&mut self, entries: Vec<Routed>);
    /// The consumer's counts: at its completion, and again at its exit.
    fn done(&mut self, processed: u64, dedup_peak: u64);
    /// The crash seam, consulted once per control message and once per
    /// data item; `recall` names the round of a `Drain` or `Migrate`.
    /// Dying here means no flush, no acks, no control replies — exactly
    /// a vanished node.
    fn crashed(&mut self, _recall: Option<RecallPhase>) -> bool {
        false
    }
}

/// The coordinator's end of one worker on both real substrates, called
/// in-process or from a decoded frame. It shares the recovery logs and
/// the death flags with the producers, so acks land in the log directly
/// (and the log's verdict drives dedup eviction) and a death is seen by
/// every producer waiting on the worker.
pub(crate) struct Port {
    index: usize,
    node: NodeId,
    x: Exchange,
    events: Sender<WorkerEvent>,
    raw: Sender<Raw>,
    replies: Sender<RecallReply>,
    failover_on: bool,
    query: QueryId,
    stage_id: SubplanId,
    started: Instant,
    /// Model to real milliseconds: the log's ack cost, the M1 stamps.
    cost_scale: f64,
}

impl Port {
    /// Worker `index`'s port.
    pub(crate) fn new(
        w: &Wiring,
        plan: &DistributedPlan,
        index: usize,
        cost_scale: f64,
        failover_on: bool,
    ) -> Self {
        let stage = &plan.stages[0];
        Port {
            index,
            node: stage.nodes[index],
            x: w.x.clone(),
            events: w.events.clone(),
            raw: w.raw.clone(),
            replies: w.replies.clone(),
            failover_on,
            query: plan.query,
            stage_id: stage.id,
            started: w.started,
            cost_scale,
        }
    }
}

impl ConsumerOut for Port {
    fn ack(&mut self, source: usize, cp: Checkpoint, epoch: u64) -> bool {
        let scale = self.cost_scale;
        let pay = |ms| spin_for(ms, scale);
        // Once the log accepts the ack no further copy of the window can
        // be fresh, so its dedup entries are dead weight. (`Duplicate`
        // means somebody already acked it, same conclusion.)
        matches!(
            self.x.acknowledge(source, self.index, cp, epoch, pay),
            Some(AckOutcome::Accepted(_) | AckOutcome::Duplicate)
        )
    }

    fn results(&mut self, batch: Vec<Tuple>) {
        let _ = self.events.send(WorkerEvent::Results(batch));
    }

    fn m1(&mut self, samples: Vec<M1Sample>) {
        let scale = self.cost_scale;
        let at = model_now(self.started, scale);
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
                leaf_wait_ms: real_to_model_ms(sample.wait_ms_per_tuple, scale),
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

impl Port {
    /// Reports this worker's death, once, where its substrate learns of
    /// it: the flag its producers wait on, the death reply that answers
    /// any recall barrier it owed, in every run, and in a failover run
    /// the exit notice that starts the failover.
    pub(crate) fn died(&self) {
        let worker = self.index;
        self.x.tallies.dead[worker].store(true, Ordering::Relaxed);
        let _ = self.replies.send(RecallReply::Down { worker });
        if self.failover_on {
            let _ = self.raw.send(Raw::Down(worker));
        }
    }
}

impl Drop for Port {
    /// A consumer thread that panics dies too: the barrier it may owe an
    /// answer must not wait on it.
    fn drop(&mut self) {
        if thread::panicking() {
            self.died();
        }
    }
}

impl Outlet for Port {
    fn reply(&mut self, phase: RecallPhase, token: u64) {
        let (worker, replies) = (self.index, &self.replies);
        let _ = replies.send(RecallReply::Answered {
            phase,
            worker,
            token,
        });
    }

    /// Ahead of this worker's `MigrateDone` on the same FIFO, so the
    /// Migrate round re-routes all of it before it ends.
    fn surrendered(&mut self, entries: Vec<Routed>) {
        self.x.tallies.recall_blocks.fetch_add(1, Ordering::Relaxed);
        let (worker, replies) = (self.index, &self.replies);
        let _ = replies.send(RecallReply::Surrendered { worker, entries });
    }

    fn done(&mut self, processed: u64, dedup_peak: u64) {
        let worker = self.index;
        let done = WorkerEvent::Done {
            worker,
            processed,
            dedup_peak,
        };
        let _ = self.events.send(done);
    }

    /// A death is reported as the seam fires, not inferred from silence.
    fn crashed(&mut self, recall: Option<RecallPhase>) -> bool {
        let i = self.index;
        let chaos = self.x.chaos.as_ref();
        let crashed = chaos.is_some_and(|c| c.crash_worker(i, recall));
        if crashed {
            self.died();
        }
        crashed
    }
}

/// What one inbox event means for the consumer thread's loop.
enum Step {
    Continue,
    /// The run released the consumer: flush and exit.
    Released,
    /// The crash seam fired: die without flush, acks or replies.
    Crashed,
}

/// One consumer thread, on threads and behind a socket worker's frame
/// reader alike: a protocol [`Consumer`] fed from an [`Inbox`] whose
/// ordering guarantees (control first, control before every data item)
/// keep migrated state ahead of the tuples that probe it, and the
/// [`Pacer`] that pays the modelled cost the consumer accrues. It reports
/// completion at its last end-of-stream, then serves control — a late
/// recall too — until the run releases it.
pub(crate) struct ConsumerThread<O> {
    consumer: Consumer,
    pacer: Pacer,
    out: O,
}

/// How long an idle consumer parks before it counts the wait as leaf
/// wait and looks again.
const RECV_SLICE: Duration = Duration::from_millis(50);

impl<O: Outlet + Send + 'static> ConsumerThread<O> {
    pub(crate) fn spawn(consumer: Consumer, pacer: Pacer, out: O) -> thread::JoinHandle<()> {
        let worker = ConsumerThread {
            consumer,
            pacer,
            out,
        };
        thread::spawn(move || worker.run())
    }

    /// Pays what the consumer's last call accrued.
    fn pay(&mut self) {
        self.pacer.pay(self.consumer.take_due());
    }

    fn on_data(&mut self, item: DataMsg) -> Step {
        if self.out.crashed(None) {
            return Step::Crashed;
        }
        match item {
            DataMsg::Block(block) => self.consumer.on_block(block, &mut self.out),
            DataMsg::Eos(stream) => self.consumer.end_stream(stream),
        }
        self.pay();
        Step::Continue
    }

    fn on_ctrl(&mut self, msg: Msg) -> Step {
        match msg {
            Msg::Release => return Step::Released,
            _ if self.out.crashed(msg.recall_phase()) => return Step::Crashed,
            // The producers are parked: nothing more can queue up until
            // the `Migrate`, which takes the queue as it stands.
            Msg::Drain { token } => self.out.reply(RecallPhase::Drain, token),
            Msg::Migrate(cmd) => {
                while let Some(item) = self.pacer.inbox.pop_data() {
                    if self.out.crashed(None) {
                        return Step::Crashed;
                    }
                    match item {
                        DataMsg::Block(block) => self.consumer.shelve_block(block, &mut self.out),
                        DataMsg::Eos(stream) => self.consumer.shelve_eos(stream),
                    }
                }
                for block in self.consumer.surrender(cmd.bucket_count, &cmd.outgoing) {
                    self.out.surrendered(block);
                }
                self.out.reply(RecallPhase::Migrate, cmd.token);
            }
            Msg::Migrated(block) => self.consumer.on_migrated(block, &mut self.out),
        }
        self.pay();
        Step::Continue
    }

    /// Serves until released or crashed, then reports the final counts.
    /// A released consumer first pays the rest of its modelled time and
    /// hands over what a late recall re-delivered after its completion.
    fn run(mut self) {
        if self.serve() {
            // The last pay's remainder, should a message have cut it
            // short: the run may not end before its modelled time.
            thread::sleep(std::mem::take(&mut self.pacer.owed));
            self.consumer.flush_results(true, &mut self.out);
            self.consumer.hand_over(&mut self.out);
        }
        self.out
            .done(self.consumer.processed(), self.consumer.dedup_peak());
    }

    /// The receive loop: the owed time, then the consumer's owed steps,
    /// each paid as it is taken, then the inbox — which hands over a
    /// control message that cut either short before any data item. The
    /// finishing step is paid before completion is reported. Returns
    /// `false` when the crash seam fired.
    fn serve(&mut self) -> bool {
        loop {
            if self.pacer.pay_owed() {
                let progress = self.consumer.step(&mut self.out);
                self.pay();
                match progress {
                    Progress::Busy => continue,
                    Progress::Finished => {
                        self.out
                            .done(self.consumer.processed(), self.consumer.dedup_peak());
                    }
                    Progress::Idle => {}
                }
            }
            let step = match self.pacer.inbox.next(RECV_SLICE) {
                Wake::Control(msg) => self.on_ctrl(msg),
                Wake::Data(item) => self.on_data(item),
                Wake::Idle(waited) => {
                    // The partition spent this slice waiting for input:
                    // the leaf-wait signal the A2 diagnoser keys on.
                    self.consumer.add_wait(waited.as_secs_f64() * 1000.0);
                    Step::Continue
                }
                // Every sender is gone and the rings are dry: a release.
                Wake::Closed => Step::Released,
            };
            match step {
                Step::Continue => {}
                Step::Released => return true,
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
    fn start(cfg: &ThreadedConfig, plan: &DistributedPlan, mut w: Wiring) -> Self {
        let stage = &plan.stages[0];
        let monitoring = cfg.adaptivity.monitoring_active();
        let (senders, inboxes): (Vec<_>, Vec<_>) = w.rings.drain(..).map(inbox).unzip();
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
            let out = Port::new(&w, plan, i, cfg.cost_scale, cfg.failover);
            let handle = ConsumerThread::spawn(consumer, Pacer::new(inbox, cfg.cost_scale), out);
            handles.push(Some(handle));
        }
        ThreadedWorkers { senders, handles }
    }
}

impl Endpoints for ThreadedWorkers {
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
        for sender in &self.senders {
            sender.send(Msg::Release);
        }
        // Every handle is joined even when another one panicked, so a
        // single failed worker cannot leave stray threads running behind
        // an error return.
        let joined = self.handles.into_iter().enumerate();
        joined
            .filter_map(|(i, h)| h?.join().is_err().then(|| format!("consumer {i} panicked")))
            .collect()
    }
}

/// Timeline recording with both clocks: `at` is the model time stamped
/// on the raw event by its producer thread, `wall_ms` is the real
/// elapsed time at recording.
#[derive(Debug)]
struct Recorder {
    obs: Option<Obs>,
    started: Instant,
    scale: f64,
}

impl Journal for Recorder {
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
}

impl Recorder {
    fn now_model(&self) -> SimTime {
        model_now(self.started, self.scale)
    }
}

/// The adaptation thread of a run, on either substrate: the query's
/// [`ControlLoop`] fed by M1/M2 notifications as they arrive, its accepted
/// proposals and the scripted adaptations deployed into the shared
/// router at once. Whatever the source of an [`AdaptationCommand`],
/// [`Adaptivity::deploy`] is the only thing that ever deploys one; for
/// retrospective commands and node failures it hands the protocol core's
/// recall coordinator a target and a transport.
struct Adaptivity<W> {
    enabled: bool,
    x: Exchange,
    coordinator: Coordinator,
    /// The recall coordinator's transport; `None` in a run that never
    /// recalls.
    transport: Option<GateTransport<W>>,
    partitions: usize,
    raw_rx: Receiver<Raw>,
    control: ControlLoop,
    rec: Arc<Recorder>,
    query: QueryId,
    /// The stage's partition→node placement and (service-plane runs
    /// only) the ledger that names a node's co-tenants: together they
    /// attribute a tenant rebalance.
    nodes: Vec<NodeId>,
    tenancy: Option<Arc<ContentionLedger>>,
    total_rows: u64,
    processed_total: Arc<AtomicU64>,
    /// Scripted adaptations not yet deployed, by ascending routed-tuple
    /// threshold.
    script: VecDeque<(u64, AdaptationCommand)>,
    /// `exec.m1_handovers`: how many `Raw::M1` arrived, against the
    /// `raw_m1_events` samples they carried. `None` with obs off.
    m1_handovers: Option<Arc<Counter>>,
    /// The report's recall and attribution counts, filled as they
    /// happen; the loop's own counts join it at teardown.
    report: RunReport,
}

/// The channels and counters `run_query` wires into the adaptation
/// thread.
struct AdaptWiring<W> {
    transport: Option<GateTransport<W>>,
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
        let rec = Arc::new(rec);
        let sink: Arc<dyn MetricSink> = match &rec.obs {
            Some(o) => o.sink(),
            None => Arc::new(NullSink),
        };
        let m1_handovers = rec
            .obs
            .as_ref()
            .map(|o| o.metrics().counter("exec.m1_handovers"));
        let control = ControlLoop::new(
            plan.query,
            stage.id,
            x.router.lock().current_distribution(),
            &cfg.adaptivity,
            Arc::clone(&rec) as Arc<dyn Journal>,
            sink,
        );
        let partitions = stage.nodes.len();
        Adaptivity {
            enabled: cfg.adaptivity.enabled,
            x: x.clone(),
            coordinator: Coordinator::new(x.clone()),
            transport: wiring.transport,
            partitions,
            raw_rx: wiring.raw_rx,
            control,
            rec,
            query: plan.query,
            nodes: stage.nodes.clone(),
            tenancy: cfg.tenancy.clone(),
            total_rows: wiring.total_rows,
            processed_total: wiring.processed_total,
            script: wiring.script.into(),
            m1_handovers,
            report: RunReport::default(),
        }
    }

    /// Whether anything could ever hand this run a command to deploy: the
    /// live loop, the script, or a death (a failover run always has the
    /// recall gate failover rides). When nothing can, the run needs no
    /// adaptation thread.
    fn can_adapt(&self) -> bool {
        self.enabled || self.transport.is_some() || !self.script.is_empty()
    }

    fn run(mut self) -> RunReport {
        // Thresholds already met (a script entry at zero) fire at once.
        self.fire_script(false);
        while let Ok(received) = self.raw_rx.recv() {
            match received {
                Raw::M1(batch) => {
                    if let Some(handovers) = &self.m1_handovers {
                        handovers.add(1);
                    }
                    for event in batch {
                        if let Some(notice) = self.control.on_m1(&event) {
                            self.react(notice);
                        }
                    }
                }
                Raw::M2(event) => {
                    if let Some(notice) = self.control.on_m2(&event) {
                        self.react(notice);
                    }
                }
                Raw::Down(worker) => self.fail_over(worker),
                Raw::Routed => self.fire_script(false),
                Raw::ProducersDone => self.fire_script(true),
                Raw::Stop => break,
            }
        }
        self.control.teardown();
        self.report.count_loop(self.control.counts());
        self.report
    }

    /// A detector notice reaches the Diagnoser at once, with the progress
    /// the producers and consumers have counted so far; an accepted
    /// proposal is attributed (service plane) and deployed.
    fn react(&mut self, notice: Notice) {
        let processed = self.processed_total.load(Ordering::Relaxed);
        let routed = self.x.tallies.routed.load(Ordering::Relaxed);
        let progress = self.control.progress(processed, routed, self.total_rows);
        let at = notice.at();
        if let Some(accepted) = self.control.on_notice(notice, at, progress) {
            let tenant = self.attribute(&accepted);
            self.deploy(accepted, tenant);
        }
    }

    /// Deploys, in order, every scripted adaptation whose routed-tuple
    /// threshold has been reached — or, once the producers have finished,
    /// `all` of them (a recall then takes what is still queued).
    fn fire_script(&mut self, all: bool) {
        while let Some((after, _)) = self.script.front() {
            if !all && self.x.tallies.routed.load(Ordering::Relaxed) < *after {
                return;
            }
            if let Some((_, cmd)) = self.script.pop_front() {
                self.deploy(Accepted::scripted(cmd), false);
            }
        }
    }

    /// The workers a recall can address — all but those declared dead (a
    /// finished one serves control until released) — and the dead. The
    /// coordinator leaves out as well any whose death a barrier has read.
    fn live_and_dead(&self) -> (Vec<usize>, Vec<usize>) {
        let dead = self.control.dead();
        (0..self.partitions).partition(|&p| dead.get(p) != Some(&true))
    }

    /// A worker's exit notice said it crashed: the control loop records
    /// the death and restarts the responder's cooldown, and the failover
    /// recall runs — drain barrier over the survivors, redistribution
    /// away from the dead partitions, replay of their surviving
    /// recovery-log entries, resume under a bumped epoch. Only a second
    /// death can abort it, and that death's own exit notice runs the next
    /// failover, whose replay covers this partition too.
    ///
    /// Deliberately records no `Deploy`/`RecallStart`/`RecallFinish`
    /// timeline events — those carry diagnosis back-references and a
    /// failover has no diagnosis. `NodeDown -> Failover` is this path's
    /// causal pair.
    fn fail_over(&mut self, worker: usize) {
        let index = worker as u32;
        let down = self.control.node_down(&[index], self.rec.now_model());
        let down_seq = down.first().copied().unwrap_or(0);
        let (live, dead) = self.live_and_dead();
        // A failover run always opens the recall gate, so it exists here.
        let Some(transport) = self.transport.as_mut() else {
            return;
        };
        let target = RecallTarget::Failover { dead };
        let outcome = self.coordinator.recall(target, &live, transport, |_| {});
        if let RecallOutcome::FailedOver {
            deployed,
            state_moved,
            recalled,
            replayed,
        } = outcome
        {
            self.report.state_tuples_migrated += state_moved;
            self.report.tuples_recalled += recalled;
            let now = self.rec.now_model();
            self.control
                .failed_over(index, down_seq, replayed, deployed, now);
        }
    }

    /// Service plane: an accepted diagnosis whose costliest partition
    /// sits on a node shared with another query is a tenant rebalance,
    /// attributed to the lowest-id co-tenant there. Records it and
    /// returns whether it was one.
    fn attribute(&self, accepted: &Accepted) -> bool {
        let Some(ledger) = &self.tenancy else {
            return false;
        };
        let Some(&node) = accepted.costliest().and_then(|i| self.nodes.get(i)) else {
            return false;
        };
        let Some(induced_by) = ledger.co_tenant(self.query, node) else {
            return false;
        };
        self.rec.record(
            accepted.command.at,
            TimelineKind::TenantRebalance {
                query: self.query.to_string(),
                induced_by: induced_by.to_string(),
                node: node.to_string(),
                diagnosis_seq: accepted.diagnosis_seq,
            },
        );
        true
    }

    /// Deploys one accepted proposal: prospectively by swapping the
    /// routing table in place, retrospectively through the recall
    /// coordinator.
    fn deploy(&mut self, accepted: Accepted, tenant: bool) {
        let Some(target) = self.control.target(&accepted) else {
            return;
        };
        let cmd = &accepted.command;
        if !cmd.retrospective {
            // Prospective: swap the routing table; only future tuples
            // are affected.
            let swapped = self.x.router.lock().apply_distribution(&target);
            if swapped.is_ok() {
                self.report.tenant_rebalances += u64::from(tenant);
                let deploy_seq = self.control.deployed(&accepted, &target, cmd.at);
                self.control.acknowledged(deploy_seq, self.rec.now_model());
            }
            return;
        }
        let (live, _) = self.live_and_dead();
        let Some(transport) = self.transport.as_mut() else {
            return;
        };
        let (control, rec) = (&mut self.control, &self.rec);
        let (mut deploy_seq, mut start_seq) = (0, 0);
        let outcome = self.coordinator.recall(
            RecallTarget::Deploy(target.clone()),
            &live,
            transport,
            |epoch| {
                deploy_seq = control.deployed(&accepted, &target, cmd.at);
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
            self.report.recalls_aborted += 1;
            return;
        };
        self.report.tenant_rebalances += u64::from(tenant);
        self.report.state_tuples_migrated += state_moved;
        self.report.tuples_recalled += recalled;
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
        self.control.acknowledged(deploy_seq, now);
        if completed {
            self.report.recalls_completed += 1;
        } else {
            self.report.recalls_aborted += 1;
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
    pub fn run(&self, plan: &DistributedPlan) -> Result<RunReport> {
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
pub(crate) const RING_BLOCKS: usize = 8;

/// How often the run, while waiting for completions, checks that the
/// workers it is waiting for still exist.
const LIVENESS_SLICE: Duration = Duration::from_millis(50);

/// What `Run::execute` hands a substrate to build its worker endpoints
/// from.
pub(crate) struct Wiring {
    pub(crate) x: Exchange,
    /// `rings[worker][source]`: the receiving halves of the data mesh.
    pub(crate) rings: Vec<Vec<RingReceiver<DataMsg>>>,
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
    /// Every worker's control-plane address.
    fn senders(&self) -> Vec<InboxSender<Msg>>;
    /// How `worker` ended, once it has: asked only while its completion
    /// is outstanding, where an exit means it died.
    fn exited(&mut self, worker: usize) -> Option<String>;
    /// Releases the workers and joins everything — gracefully when the
    /// run is `clean`, without waiting on worker cooperation otherwise —
    /// so every worker event has been sent. Returns what failed.
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
                if let Some(done) = self.done.get_mut(worker) {
                    *done = true;
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
/// configuration (live adaptivity, obs and tenancy off; failover on in a
/// resilient run).
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
    pub(crate) fn execute<E: Endpoints>(
        mut self,
        catalog: &Catalog,
        plan: &DistributedPlan,
        start: impl FnOnce(Wiring) -> Result<E>,
    ) -> Result<RunReport> {
        let (who, cfg) = (self.who, self.cfg);
        let live_r1 = cfg.adaptivity.enabled && cfg.adaptivity.response == ResponsePolicy::R1;
        let live_r2 = cfg.adaptivity.enabled && cfg.adaptivity.response == ResponsePolicy::R2;
        let recall_on = live_r1 || cfg.failover || self.script.iter().any(|(_, c)| c.retrospective);
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
        let mut ring_txs: Vec<Vec<RingSender<DataMsg>>> =
            (0..sources).map(|_| Vec::new()).collect();
        let mut ring_rxs: Vec<Vec<RingReceiver<DataMsg>>> =
            (0..partitions).map(|_| Vec::new()).collect();
        for tx_row in ring_txs.iter_mut() {
            for rx_row in ring_rxs.iter_mut() {
                let (tx, rx) = ring(RING_BLOCKS);
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
                    failover: cfg.failover,
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
                gate: gate.clone(),
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
                transport: gate.map(|gate| GateTransport {
                    gate,
                    replies: reply_rx,
                    workers: Commands(endpoints.senders()),
                }),
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
        let mut report = RunReport::default();
        let mut adapt_handle = None;
        if adaptivity.can_adapt() {
            adapt_handle = Some(thread::spawn(move || adaptivity.run()));
        } else {
            adaptivity.control.teardown();
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
            Some(Ok(counted)) => report = counted,
            Some(Err(_)) => failed.push("adaptation thread panicked".into()),
            None => {}
        }
        let clean = failed.is_empty() && !got.done.contains(&false);
        failed.extend(endpoints.stop(clean));
        // What the workers sent after their completion: the results of a
        // late recall's re-delivery, and their final counts.
        while let Ok(event) = events.try_recv() {
            got.absorb(event);
        }
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
        report.wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        report.tuples_output = results.len() as u64;
        report.results = results;
        report.per_partition_processed = got.per_partition;
        report.tuples_recalled += tallies.restaged.load(Ordering::Relaxed);
        report.send_failures = tallies.send_failures.load(Ordering::Relaxed);
        report.delivery_gaps = std::mem::take(&mut *tallies.gaps.lock());
        report.log_audits = x
            .logs
            .iter()
            .flat_map(|logs| logs.iter().map(SharedRecoveryLog::audit))
            .collect();
        report.dedup_peak_entries = got.dedup_peak;
        report.final_distribution = x.router.lock().current_distribution().weights().to_vec();
        report.obs = obs.as_ref().map(Obs::report);
        report.recall_blocks = tallies.recall_blocks.load(Ordering::Relaxed);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_adapt::COOLDOWN_MS;
    use gridq_common::{DataType, DistributionVector, NetAction};
    use gridq_engine::evaluator::ServiceCallFactory;
    use gridq_engine::fixtures::{
        call_plan, catalog, int_table, join_plan, multiset, single_stage_plan, CallShape, JoinShape,
    };
    use gridq_engine::service::{FnService, ServiceRegistry};
    use gridq_engine::Expr;
    use gridq_obs::TimelineEvent;

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
        fn drain(&mut self, worker: usize, token: u64) {
            self.log.lock().push(format!("drain {worker}"));
            let phase = RecallPhase::Drain;
            let _ = (self.replies).send(RecallReply::Answered {
                phase,
                worker,
                token,
            });
        }

        fn migrate(&mut self, worker: usize, cmd: MigrateCmd) {
            self.log.lock().push(format!("migrate {worker}"));
            let (phase, token) = (RecallPhase::Migrate, cmd.token);
            let _ = (self.replies).send(RecallReply::Answered {
                phase,
                worker,
                token,
            });
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
                transport: Some(GateTransport {
                    gate: Arc::clone(&gate),
                    replies,
                    workers: FakeWorkers {
                        replies: reply_tx,
                        log: Arc::clone(&log),
                    },
                }),
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
        // The script fires at once (threshold 0). Once its recall is
        // acknowledged, partition 1 reports ten times partition 0's cost,
        // stamped a cooldown past that acknowledgement however late a
        // busy host ran it, and the detector, diagnoser and responder
        // turn that into a command of their own.
        let adapt = thread::spawn(move || adaptivity.run());
        let acked_at = (0..10_000)
            .find_map(|_| {
                thread::sleep(Duration::from_millis(1));
                let events = obs.report().events;
                let ack = |e: &TimelineEvent| matches!(e.kind, TimelineKind::DeployAck { .. });
                events.iter().find(|e| ack(e)).map(|e| e.at_ms)
            })
            .expect("the scripted recall is acknowledged");
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
                    at: SimTime::from_millis(acked_at + COOLDOWN_MS + f64::from(partition + 1)),
                }]))
                .unwrap();
        }
        raw_tx.send(Raw::Stop).unwrap();
        let counted = adapt.join().unwrap();
        scanning.store(false, Ordering::Release);
        producer.join().unwrap();

        assert_eq!(
            counted.adaptations_deployed, 2,
            "one scripted, one diagnosed"
        );
        assert_eq!((counted.recalls_completed, counted.recalls_aborted), (2, 0));
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

    #[test]
    fn dead_consumer_surfaces_gaps_before_failover_would_fire() {
        // A consumer that dies with failover disabled: pushes into its
        // closed ring are counted into `send_failures`, and the producer
        // writes the destination off as soon as its death is reported.
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
        // Nothing waits on the dead consumer: a wait for its acks would
        // never end.
        assert!(
            wall < Duration::from_secs(10),
            "the write-off must not wait on the dead consumer: {wall:?}"
        );
    }

    /// Runs `plan` on threads under `cfg` with two scripted recalls past
    /// its last routed tuple: both fire once the producers are done.
    fn run_with_two_late_recalls(
        cfg: &ThreadedConfig,
        catalog: &Catalog,
        plan: &DistributedPlan,
    ) -> Result<RunReport> {
        let recall = |after: u64, weights: &[f64]| {
            let cmd = AdaptationCommand {
                stage: plan.stages[0].id,
                new_distribution: DistributionVector::new(weights).unwrap(),
                retrospective: true,
                at: SimTime::ZERO,
            };
            (after, cmd)
        };
        let run = Run {
            who: "threaded",
            cfg,
            script: vec![recall(1_000, &[0.5, 0.5]), recall(1_001, &[0.2, 0.8])],
            finish_timeout: None,
        };
        run.execute(catalog, plan, |w| Ok(ThreadedWorkers::start(cfg, plan, w)))
    }

    /// A plain run (no failover) whose worker 0 dies, on its first block,
    /// before two scripted recalls: the first reads the death as worker
    /// 0's answer and is abandoned at once, and the second leaves worker 0
    /// out of its barriers and completes over worker 1. The run ends as a
    /// plain run does, with worker 0's delivery gaps, and nothing waits on
    /// the dead worker: a drain it could never answer would hang the run.
    #[test]
    fn a_plain_run_never_waits_on_a_worker_whose_death_it_has_read() {
        let table = int_table("t", 0..200);
        let plan = call_plan(&table, &CallShape::default());
        let cfg = ThreadedConfig {
            adaptivity: AdaptivityConfig::disabled(),
            cost_scale: 0.002,
            chaos: Some(Arc::new(CrashOnNth {
                worker: 0,
                after: 1,
                calls: AtomicU64::new(0),
            })),
            ..Default::default()
        };
        let report = run_with_two_late_recalls(&cfg, &catalog(&[&table]), &plan).unwrap();
        assert_eq!(
            (report.recalls_aborted, report.recalls_completed),
            (1, 1),
            "{report:?}"
        );
        assert!(!report.delivery_gaps.is_empty(), "{report:?}");
        assert!(report.delivery_gaps.iter().all(|g| g.dest == 0));
        assert!(!report.results.is_empty(), "worker 1 still answered");
    }

    /// A consumer that panics dies too: its port, unwinding, answers the
    /// barriers it owes with its death, so the recalls after it never
    /// wait on it, and the run fails naming it. The other consumer lives
    /// and holds the reply channel open, so without that answer the first
    /// recall would wait forever.
    #[test]
    fn a_consumer_that_panics_answers_the_barrier_with_its_death() {
        let table = int_table("t", 0..200);
        let boom = FnService::new("Boom", vec![DataType::Int], DataType::Int, 1.0, |args| {
            // The first row: it reaches one consumer long before the
            // producers are done.
            assert_ne!(args[0].as_int(), Some(0), "service crashed");
            Ok(args[0].clone())
        });
        let factory = ServiceCallFactory::new(
            table.schema(),
            Arc::new(boom),
            vec![Expr::col(0)],
            "boom",
            false,
            ServiceRegistry::new(),
        );
        let scans = [(table.name(), StreamTag::Single, 0.1)];
        let plan = single_stage_plan(3, &scans, factory, 2, None, 10);
        let cfg = ThreadedConfig {
            adaptivity: AdaptivityConfig::disabled(),
            cost_scale: 0.002,
            ..Default::default()
        };
        match run_with_two_late_recalls(&cfg, &catalog(&[&table]), &plan) {
            Err(GridError::Execution(msg)) => {
                let named = (0..2).filter(|w| msg.contains(&format!("consumer {w} panicked")));
                assert_eq!(named.count(), 1, "the error names the dead consumer: {msg}");
            }
            other => panic!("expected an execution error, got {other:?}"),
        }
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
        let mut out = Port {
            cost_scale: 0.01,
            index: 1,
            node: plan.stages[0].nodes[1],
            x,
            events: channel().0,
            raw,
            replies: channel().0,
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
        fn crash_worker(&self, worker: usize, _recall: Option<RecallPhase>) -> bool {
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
            "the failover replay means nothing is lost: {report:?}"
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
