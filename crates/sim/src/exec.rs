//! Virtual-time execution of a distributed plan.
//!
//! The simulator executes the paper's plan shape — source scans feeding a
//! partitioned stage through an exchange, with results delivered to a
//! collector — as a deterministic discrete-event simulation. Tuples are
//! processed for real (entropy is computed, hash tables are built and
//! probed), while *time* comes from the cost models: operator base costs
//! scaled by node speed/perturbation/noise, buffer transmission costed by
//! the network model, and the adaptivity control loop paying network
//! latency per hop.

use std::collections::{HashMap, HashSet, VecDeque};

use gridq_adapt::{
    AdaptationCommand, AdaptivityConfig, CommUpdate, CostUpdate, DetectorOutput, Diagnoser,
    MonitoringEventDetector, ProducerId, Responder, ResponsePolicy, M1, M2,
};
use gridq_common::{
    DetRng, GridError, NetAction, NodeId, NotifyKind, PartitionId, Result, SimTime, StallSite,
    SubplanId, Tuple,
};
use gridq_engine::distributed::Router;
use gridq_engine::evaluator::{PartitionEvaluator, StreamTag};
use gridq_engine::physical::Catalog;
use gridq_engine::table::Table;
use gridq_engine::DistributedPlan;
use gridq_grid::GridEnvironment;
use gridq_obs::{Counter, Obs, TimelineKind};
use gridq_recovery::{
    AckOutcome, Checkpoint, DeliveryGap, LogMoves, ResultDedup, RetryBackoff, RetryPolicy,
    SharedRecoveryLog,
};

use crate::config::SimulationConfig;
use crate::events::{Event, EventQueue};
use crate::report::ExecutionReport;

/// Per raw monitoring notification cost (M1/M2 generation), ms.
const MONITOR_COST_MS: f64 = 0.02;
/// Per-tuple cost charged when a retrospective response extracts and
/// re-sends a tuple (log drain, re-serialization), ms.
const REDISTRIBUTE_COST_MS: f64 = 0.02;
/// Per-tuple cost charged to a consumer for discarding a queued tuple
/// during retrospective redistribution, ms.
const DISCARD_COST_MS: f64 = 0.01;
/// Processing delay added by each adaptivity component hop, ms.
const CONTROL_EXTRA_MS: f64 = 1.0;

/// What a source's recovery log holds.
type LogItem = (StreamTag, Tuple);

/// One destination's undelivered windows, as returned by
/// [`SharedRecoveryLog::undelivered_windows`]: each entry pairs the
/// window's checkpoint marker with the logged tuples it covers.
type UndeliveredWindows = Vec<(Checkpoint, Vec<LogItem>)>;

/// An item travelling through an exchange into a consumer queue.
#[derive(Debug, Clone)]
enum Item {
    /// A data tuple on a stream, remembering the source scan that
    /// produced it (re-logging after redistribution and failure recovery
    /// need the attribution).
    Tuple {
        stream: StreamTag,
        tuple: Tuple,
        source: usize,
        /// Carried by recall transfers and failure replay rather than
        /// first-time (or retransmitted) producer delivery. Migrated
        /// items bypass the consumer's duplicate filter: a hash bucket
        /// that ping-pongs between partitions legitimately re-delivers
        /// the same `(source, seq)` to a consumer that processed it
        /// under an earlier distribution.
        migrated: bool,
    },
    /// A checkpoint marker: when it reaches the head of the queue, all
    /// preceding tuples from `source` have been processed and can be
    /// acknowledged.
    Checkpoint { source: usize, cp: u64, epoch: u64 },
    /// End of stream from `source`.
    Eos { source: usize },
}

impl Item {
    fn payload_bytes(&self) -> usize {
        match self {
            Item::Tuple { tuple, .. } => tuple.byte_size(),
            _ => 8,
        }
    }
}

struct SourceRun {
    node: NodeId,
    stream: StreamTag,
    scan_cost_ms: f64,
    table: std::sync::Arc<Table>,
    pos: usize,
    staged: Vec<Vec<Item>>,
    resume_at: SimTime,
    routed: u64,
    done: bool,
    /// The delivery-retry schedule (resilient runs only).
    backoff: RetryBackoff,
}

struct ConsumerRun {
    node: NodeId,
    partition: PartitionId,
    evaluator: Box<dyn PartitionEvaluator>,
    /// Build-stream items; processed with priority so joins never probe
    /// before the matching state exists.
    build_queue: VecDeque<Item>,
    /// All other items in arrival order.
    main_queue: VecDeque<Item>,
    step_pending: bool,
    idle_since: Option<SimTime>,
    eos_remaining: HashSet<usize>,
    finished: bool,
    /// The node hosting this partition failed; the partition is gone.
    dead: bool,
    /// `(source, seq)` pairs this consumer has processed (resilient runs
    /// only): retransmitted windows redeliver tuples that already
    /// arrived, and at-least-once transport must not become
    /// more-than-once processing.
    seen: HashSet<(usize, u64)>,
    inputs: u64,
    outputs: u64,
    batch_inputs: u32,
    batch_cost_ms: f64,
    batch_wait_ms: f64,
    out_staged: Vec<Tuple>,
    penalty_ms: f64,
}

impl ConsumerRun {
    fn queues_empty(&self) -> bool {
        self.build_queue.is_empty() && self.main_queue.is_empty()
    }

    fn enqueue(&mut self, item: Item, build_sources: &HashSet<usize>) {
        match &item {
            Item::Tuple {
                stream: StreamTag::Build,
                ..
            } => self.build_queue.push_back(item),
            // A build-source checkpoint rides the build queue: it stays
            // ordered after its window's tuples yet ahead of held probe
            // tuples. Resilient runs withhold build end-of-stream until
            // these markers are acknowledged, and probes are held until
            // build end-of-stream — parking the marker behind the
            // probes would deadlock that cycle into a retry-budget
            // timeout.
            Item::Checkpoint { source, .. } if build_sources.contains(source) => {
                self.build_queue.push_back(item);
            }
            _ => self.main_queue.push_back(item),
        }
    }

    /// True when probe items may be processed: every build-stream source
    /// has signalled end-of-stream and no build items wait.
    fn build_done(&self, build_sources: &HashSet<usize>) -> bool {
        self.build_queue.is_empty()
            && build_sources
                .iter()
                .all(|s| !self.eos_remaining.contains(s))
    }

    fn next_item(&mut self, build_sources: &HashSet<usize>) -> Option<Item> {
        if let Some(item) = self.build_queue.pop_front() {
            return Some(item);
        }
        // Hold back probe tuples until the build phase is complete;
        // control items (checkpoints, EOS) always flow.
        if let Some(front) = self.main_queue.front() {
            let is_probe_tuple = matches!(
                front,
                Item::Tuple {
                    stream: StreamTag::Probe,
                    ..
                }
            );
            if is_probe_tuple && !self.build_done(build_sources) {
                // A build-source EOS may sit behind held probes and must
                // flow for the build phase to complete. Checkpoint
                // markers must NOT be pulled forward: acknowledging a
                // window before its tuples are processed would prune
                // recovery-log entries that failure recovery still
                // needs.
                if let Some(idx) = self
                    .main_queue
                    .iter()
                    .position(|i| matches!(i, Item::Eos { .. }))
                {
                    return self.main_queue.remove(idx);
                }
                return None;
            }
        }
        self.main_queue.pop_front()
    }
}

/// Executes distributed plans over a Grid environment in virtual time.
pub struct Simulation {
    env: GridEnvironment,
    catalog: Catalog,
    config: SimulationConfig,
}

impl Simulation {
    /// Creates a simulation over the given environment, catalog, and
    /// configuration.
    pub fn new(env: GridEnvironment, catalog: Catalog, config: SimulationConfig) -> Result<Self> {
        config.validate()?;
        Ok(Simulation {
            env,
            catalog,
            config,
        })
    }

    /// The Grid environment (mutable, to install perturbations between
    /// runs).
    pub fn env_mut(&mut self) -> &mut GridEnvironment {
        &mut self.env
    }

    /// The Grid environment.
    pub fn env(&self) -> &GridEnvironment {
        &self.env
    }

    /// Runs a plan to completion, returning the execution report.
    pub fn run(&self, plan: &DistributedPlan) -> Result<ExecutionReport> {
        self.run_with_failures(plan, &[])
    }

    /// Runs a plan while injecting evaluator-node failures at the given
    /// virtual times. Recovery uses the same checkpoint/acknowledgement
    /// recovery logs that power retrospective adaptation: producers
    /// re-send every unacknowledged tuple of a failed partition to the
    /// surviving partitions (rebuilding migrated operator state), and
    /// the collector deduplicates re-delivered results by sequence
    /// number. Failing a source or collector node is not supported.
    pub fn run_with_failures(
        &self,
        plan: &DistributedPlan,
        failures: &[(NodeId, SimTime)],
    ) -> Result<ExecutionReport> {
        plan.validate()?;
        if plan.stages.len() != 1 {
            return Err(GridError::Execution(
                "the simulator executes plans with exactly one partitioned stage; \
                 compose multi-stage pipelines as separate queries"
                    .into(),
            ));
        }
        for (node, _) in failures {
            if !plan.stages[0].nodes.contains(node) {
                return Err(GridError::Config(format!(
                    "failure injection targets {node}, which hosts no stage partition \
                     (source/collector failures are out of scope)"
                )));
            }
            if plan.sources.iter().any(|s| s.node == *node) || plan.collect_node == *node {
                return Err(GridError::Config(format!(
                    "failure injection targets {node}, which also hosts a source or the \
                     collector; only pure evaluator nodes may fail"
                )));
            }
        }
        let mut run = Run::new(self, plan)?;
        run.dedup_results = run.dedup_results || !failures.is_empty();
        for (node, at) in failures {
            run.queue.schedule(*at, Event::NodeFail { node: *node });
        }
        run.bootstrap();
        run.drive()?;
        Ok(run.into_report())
    }
}

struct Run<'a> {
    env: &'a GridEnvironment,
    config: &'a SimulationConfig,
    adapt: &'a AdaptivityConfig,
    plan: &'a DistributedPlan,
    queue: EventQueue,
    now: SimTime,
    rng: DetRng,
    stage_id: SubplanId,
    buffer_tuples: usize,
    router: Router,
    sources: Vec<SourceRun>,
    /// One recovery log per source, indexed like `sources`.
    logs: Vec<SharedRecoveryLog<LogItem>>,
    retry: RetryPolicy,
    build_sources: HashSet<usize>,
    consumers: Vec<ConsumerRun>,
    buffers: HashMap<u64, (u32, Vec<Item>)>,
    result_buffers: HashMap<u64, Vec<Tuple>>,
    next_buffer: u64,
    detectors: HashMap<NodeId, MonitoringEventDetector>,
    diagnoser: Diagnoser,
    responder: Responder,
    diag_node: NodeId,
    total_rows: u64,
    collected: u64,
    /// A chaos hook is installed: producers retransmit unacknowledged
    /// windows, consumers deduplicate redelivered tuples, and
    /// end-of-stream is withheld until each source's retry loop
    /// resolves.
    resilient: bool,
    /// Deduplicate collected results; enabled for failure-injection and
    /// resilient runs, where at-least-once redelivery is expected.
    dedup_results: bool,
    results_seen: ResultDedup,
    last_result_at: SimTime,
    last_finish_at: SimTime,
    report: ExecutionReport,
    /// Retrospective redistributions performed so far; each one is a
    /// redistribution epoch for the timeline.
    recalls: u64,
    monitoring_on: bool,
    adaptivity_on: bool,
    obs: Option<Obs>,
    routed_ctr: Option<std::sync::Arc<Counter>>,
    processed_ctr: Option<std::sync::Arc<Counter>>,
}

impl<'a> Run<'a> {
    fn new(sim: &'a Simulation, plan: &'a DistributedPlan) -> Result<Self> {
        let stage = &plan.stages[0];
        let partitions = stage.nodes.len() as u32;
        let router = Router::from_policy(&stage.exchange.routing, partitions)?;
        let adapt = &sim.config.adaptivity;
        if adapt.enabled && stage.factory.stateful() && adapt.response == ResponsePolicy::R2 {
            return Err(GridError::Config(
                "stateful stages require the retrospective (R1) response policy: \
                 redistributing a hash-partitioned operator without migrating its \
                 state would lose results"
                    .into(),
            ));
        }

        if plan
            .sources
            .iter()
            .filter(|s| s.stream == StreamTag::Build)
            .count()
            > 1
        {
            // State extracted from evaluators loses its source
            // attribution; re-logging it assumes a single build source
            // (sequence numbers are only unique per table).
            return Err(GridError::Execution(
                "plans with more than one build-stream source are not supported".into(),
            ));
        }
        let resilient = sim.config.chaos.is_some();
        let retry = RetryPolicy::default();
        let mut sources = Vec::with_capacity(plan.sources.len());
        let mut logs = Vec::with_capacity(plan.sources.len());
        let mut build_sources = HashSet::new();
        for (idx, spec) in plan.sources.iter().enumerate() {
            sim.env.registry().get(spec.node).map_err(|_| {
                GridError::Schedule(format!("source node {} not registered", spec.node))
            })?;
            let table = sim.catalog.get(&spec.table)?;
            if spec.stream == StreamTag::Build {
                build_sources.insert(idx);
            }
            logs.push(SharedRecoveryLog::for_stream(
                partitions as usize,
                spec.stream == StreamTag::Build,
                resilient,
                sim.config.checkpoint_interval,
                stage.exchange.buffer_tuples,
            )?);
            sources.push(SourceRun {
                node: spec.node,
                stream: spec.stream,
                scan_cost_ms: spec.scan_cost_ms,
                table,
                pos: 0,
                staged: (0..partitions).map(|_| Vec::new()).collect(),
                resume_at: SimTime::ZERO,
                routed: 0,
                done: false,
                backoff: RetryBackoff::new(&retry, idx as u64),
            });
        }
        let all_sources: HashSet<usize> = (0..sources.len()).collect();
        let mut consumers = Vec::with_capacity(stage.nodes.len());
        for (i, &node) in stage.nodes.iter().enumerate() {
            sim.env
                .registry()
                .get(node)
                .map_err(|_| GridError::Schedule(format!("stage node {node} not registered")))?;
            consumers.push(ConsumerRun {
                node,
                partition: PartitionId::new(stage.id, i as u32),
                evaluator: stage.factory.create(i as u32),
                build_queue: VecDeque::new(),
                main_queue: VecDeque::new(),
                step_pending: false,
                idle_since: None,
                eos_remaining: all_sources.clone(),
                finished: false,
                dead: false,
                seen: HashSet::new(),
                inputs: 0,
                outputs: 0,
                batch_inputs: 0,
                batch_cost_ms: 0.0,
                batch_wait_ms: 0.0,
                out_staged: Vec::new(),
                penalty_ms: 0.0,
            });
        }
        let total_rows = sources.iter().map(|s| s.table.len() as u64).sum();
        let obs = if sim.config.obs.enabled {
            Some(Obs::new(sim.config.obs.timeline_capacity))
        } else {
            None
        };
        // Non-finite perturbation phases are rejected samples: they never
        // perturb (Perturbation::apply falls back to the base cost), and
        // the count is surfaced like `detector.rejected_samples`.
        let rejected_perturbations = sim.env.rejected_perturbation_phases();
        if rejected_perturbations > 0 {
            if let Some(o) = &obs {
                o.sink()
                    .incr("env.rejected_perturbations", rejected_perturbations);
            }
        }
        let mut diagnoser =
            Diagnoser::new(stage.id, partitions, router.current_distribution(), adapt);
        let mut responder = Responder::new(adapt);
        if let Some(o) = &obs {
            diagnoser.set_metric_sink(o.sink());
            responder.set_metric_sink(o.sink());
        }
        let (routed_ctr, processed_ctr) = obs
            .as_ref()
            .map(|o| {
                (
                    o.metrics().counter("sim.tuples_routed"),
                    o.metrics().counter("sim.tuples_processed"),
                )
            })
            .unzip();
        let report = ExecutionReport {
            per_partition_processed: vec![0; partitions as usize],
            results: Vec::new(),
            ..Default::default()
        };
        Ok(Run {
            env: &sim.env,
            config: &sim.config,
            adapt,
            plan,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: DetRng::seeded(sim.config.seed),
            stage_id: stage.id,
            buffer_tuples: stage.exchange.buffer_tuples,
            router,
            sources,
            logs,
            retry,
            build_sources,
            consumers,
            buffers: HashMap::new(),
            result_buffers: HashMap::new(),
            next_buffer: 0,
            detectors: HashMap::new(),
            diagnoser,
            responder,
            diag_node: plan.collect_node,
            total_rows,
            collected: 0,
            resilient,
            dedup_results: resilient,
            results_seen: ResultDedup::default(),
            last_result_at: SimTime::ZERO,
            last_finish_at: SimTime::ZERO,
            report,
            recalls: 0,
            monitoring_on: adapt.monitoring_active(),
            adaptivity_on: adapt.enabled,
            obs,
            routed_ctr,
            processed_ctr,
        })
    }

    // -- chaos seams ------------------------------------------------------
    //
    // Each helper consults the installed fault hook and falls back to
    // the pass-through default, so runs without a hook are identical to
    // uninstrumented ones.

    fn chaos_data(&self, source: usize, dest: u32) -> NetAction {
        match &self.config.chaos {
            Some(h) => h.on_data(source, dest as usize),
            None => NetAction::Deliver,
        }
    }

    fn chaos_ack(&self, source: usize, worker: usize) -> NetAction {
        match &self.config.chaos {
            Some(h) => h.on_ack(source, worker),
            None => NetAction::Deliver,
        }
    }

    fn chaos_notify(&self, kind: NotifyKind, index: usize) -> bool {
        match &self.config.chaos {
            Some(h) => h.on_notification(kind, index),
            None => true,
        }
    }

    /// Extra virtual-time stall injected at `site`; guarded so a hook
    /// cannot push costs negative or non-finite.
    fn chaos_stall(&self, site: StallSite, index: usize) -> f64 {
        match &self.config.chaos {
            Some(h) => {
                let v = h.stall_ms(site, index);
                if v.is_finite() && v > 0.0 {
                    v
                } else {
                    0.0
                }
            }
            None => 0.0,
        }
    }

    /// Records a timeline event (no-op when obs is disabled; the zero
    /// sequence number is never read in that case).
    fn obs_record(&self, at: SimTime, kind: TimelineKind) -> u64 {
        match &self.obs {
            Some(obs) => obs.record(at.as_millis(), None, kind),
            None => 0,
        }
    }

    fn bootstrap(&mut self) {
        for s in 0..self.sources.len() {
            self.queue
                .schedule(SimTime::ZERO, Event::SourceStep { source: s });
        }
    }

    fn drive(&mut self) -> Result<()> {
        while let Some((at, event)) = self.queue.pop() {
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            match event {
                Event::SourceStep { source } => self.source_step(source)?,
                Event::BufferArrive { buffer } => self.buffer_arrive(buffer)?,
                Event::ConsumerStep { consumer } => self.consumer_step(consumer)?,
                Event::AckArrive {
                    source,
                    dest,
                    cp,
                    epoch,
                } => self.ack_arrive(source, dest, cp, epoch),
                Event::CostToDiagnoser { update, notify_seq } => {
                    self.cost_to_diagnoser(update, notify_seq)
                }
                Event::CommToDiagnoser { update, notify_seq } => {
                    self.comm_to_diagnoser(update, notify_seq)
                }
                Event::ApplyAdaptation {
                    command,
                    diagnosis_seq,
                } => self.apply_adaptation(command, diagnosis_seq)?,
                Event::CollectArrive { buffer } => self.collect_arrive(buffer),
                Event::NodeFail { node } => self.node_fail(node)?,
                Event::RetryCheck { source, attempt } => self.retry_check(source, attempt)?,
            }
        }
        Ok(())
    }

    // -- sources ----------------------------------------------------------

    fn source_step(&mut self, s: usize) -> Result<()> {
        let resume_at = self.sources[s].resume_at;
        if self.now < resume_at {
            self.queue
                .schedule(resume_at, Event::SourceStep { source: s });
            return Ok(());
        }
        if self.sources[s].pos >= self.sources[s].table.len() {
            self.finish_source(s)?;
            return Ok(());
        }
        let node = self.sources[s].node;
        let stream = self.sources[s].stream;
        let row = self.sources[s].table.rows()[self.sources[s].pos].clone();
        self.sources[s].pos += 1;
        let scan = self.env.effective_cost_ms(
            node,
            self.sources[s].scan_cost_ms,
            self.now,
            &mut self.rng,
        )? + self.chaos_stall(StallSite::Producer, s);
        let mut t = self.now.offset(scan);
        let dest = self.router.route(stream, &row)?;
        let marker = self.logs[s].record(dest, (stream, row.clone()))?;
        self.sources[s].routed += 1;
        if let Some(ctr) = &self.routed_ctr {
            ctr.add(1);
        }
        self.sources[s].staged[dest as usize].push(Item::Tuple {
            stream,
            tuple: row,
            source: s,
            migrated: false,
        });
        if let Some(cp) = marker {
            let epoch = self.logs[s].epoch();
            self.sources[s].staged[dest as usize].push(Item::Checkpoint {
                source: s,
                cp: cp.id,
                epoch,
            });
        }
        // Resilient runs flush exactly at window boundaries: an ack is
        // trusted to mean "the whole window arrived", which only holds
        // if a marker can never be delivered while the head of its
        // window was lost in an earlier, separately dropped buffer.
        // Fault-free runs keep the plain size-based batching.
        let flush = if self.resilient {
            marker.is_some()
        } else {
            self.sources[s].staged[dest as usize].len() >= self.buffer_tuples
        };
        if flush {
            t = self.send_staged(s, dest, t)?;
        }
        self.queue.schedule(t, Event::SourceStep { source: s });
        Ok(())
    }

    /// Sends the staged buffer of source `s` for destination `dest`,
    /// returning the time when the producer becomes free again.
    fn send_staged(&mut self, s: usize, dest: u32, at: SimTime) -> Result<SimTime> {
        let items = std::mem::take(&mut self.sources[s].staged[dest as usize]);
        if items.is_empty() {
            return Ok(at);
        }
        let node = self.sources[s].node;
        let dest_node = self.consumers[dest as usize].node;
        let tuples = items
            .iter()
            .filter(|i| matches!(i, Item::Tuple { .. }))
            .count();
        let bytes: usize = items.iter().map(Item::payload_bytes).sum();
        let send_cost = self.env.buffer_cost_ms(node, dest_node, tuples, bytes);
        let mut done = at.offset(send_cost);
        match self.chaos_data(s, dest) {
            NetAction::Deliver => {
                let id = self.alloc_buffer(dest, items);
                self.queue
                    .schedule(done, Event::BufferArrive { buffer: id });
            }
            NetAction::DelayMs(extra) => {
                let arrive = done.offset(if extra.is_finite() {
                    extra.max(0.0)
                } else {
                    0.0
                });
                let id = self.alloc_buffer(dest, items);
                self.queue
                    .schedule(arrive, Event::BufferArrive { buffer: id });
            }
            NetAction::Duplicate => {
                // Redelivered data: the consumer's (source, seq) filter
                // absorbs the extra copy, and a duplicated checkpoint
                // marker is absorbed by the log as a duplicate ack.
                let copy = items.clone();
                let id = self.alloc_buffer(dest, items);
                self.queue
                    .schedule(done, Event::BufferArrive { buffer: id });
                let id = self.alloc_buffer(dest, copy);
                self.queue
                    .schedule(done, Event::BufferArrive { buffer: id });
            }
            NetAction::Drop => {
                // Lost data: the covered windows stay unacknowledged in
                // the recovery log, and the producer's retry loop
                // retransmits them after backoff (only an installed
                // chaos hook can return `Drop`, and a hook always puts
                // the run in resilient mode).
            }
        }
        if self.monitoring_on && tuples > 0 {
            done = done.offset(MONITOR_COST_MS);
            let event = M2 {
                query: self.plan.query,
                producer: ProducerId::Source(s as u32),
                recipient: PartitionId::new(self.stage_id, dest),
                send_cost_ms: send_cost,
                tuples_in_buffer: tuples,
                at: done,
            };
            self.report.raw_m2_events += 1;
            // A lost notification was still generated (and paid for);
            // the detector simply never sees it.
            if self.chaos_notify(NotifyKind::M2, s) {
                self.feed_detector_m2(node, event);
            }
        }
        Ok(done)
    }

    fn finish_source(&mut self, s: usize) -> Result<()> {
        if self.sources[s].done {
            return Ok(());
        }
        self.sources[s].done = true;
        // Build streams are never checkpointed in non-resilient runs:
        // their tuples form downstream operator state and the pruning
        // log would discard the only copy failure recovery and
        // retrospective state migration rely on. Resilient runs use a
        // retaining log for build streams (acks mark delivery without
        // pruning), so every stream can be checkpointed and covered by
        // the delivery-retry loop.
        let checkpointed = self.resilient || self.sources[s].stream != StreamTag::Build;
        let mut t = self.now;
        for dest in 0..self.consumers.len() as u32 {
            if checkpointed {
                if let Some(cp) = self.logs[s].force_checkpoint(dest)? {
                    let epoch = self.logs[s].epoch();
                    self.sources[s].staged[dest as usize].push(Item::Checkpoint {
                        source: s,
                        cp: cp.id,
                        epoch,
                    });
                }
            }
            // Resilient runs withhold end-of-stream: a dropped Eos would
            // strand the consumer, so it is released chaos-exempt only
            // once the retry loop resolves (all windows acknowledged,
            // or the retry budget is spent and gaps are recorded).
            if !self.resilient {
                self.sources[s].staged[dest as usize].push(Item::Eos { source: s });
            }
            t = self.send_staged(s, dest, t)?;
        }
        if self.resilient {
            let delay = self.sources[s].backoff.delay_ms(0);
            self.queue.schedule(
                t.offset(delay),
                Event::RetryCheck {
                    source: s,
                    attempt: 0,
                },
            );
        }
        Ok(())
    }

    /// Resilient-mode delivery retry: retransmits any checkpoint window
    /// that has not been acknowledged, then either schedules the next
    /// round, or — once everything is acknowledged or the retry budget
    /// is spent — releases end-of-stream.
    fn retry_check(&mut self, s: usize, attempt: u32) -> Result<()> {
        // A retrospective recall pauses producers; retrying mid-recall
        // would race the redistribution's own log replay.
        let resume_at = self.sources[s].resume_at;
        if self.now < resume_at {
            self.queue
                .schedule(resume_at, Event::RetryCheck { source: s, attempt });
            return Ok(());
        }
        let mut pending: Vec<(u32, UndeliveredWindows)> = Vec::new();
        for dest in 0..self.consumers.len() as u32 {
            if self.consumers[dest as usize].dead {
                continue; // node-failure recovery owns those windows
            }
            let windows = self.logs[s].undelivered_windows(dest);
            if !windows.is_empty() {
                pending.push((dest, windows));
            }
        }
        if pending.is_empty() {
            self.release_eos(s);
            return Ok(());
        }
        if attempt >= self.retry.max_retries {
            for (dest, windows) in pending {
                let tuples: u64 = windows.iter().map(|(_, w)| w.len() as u64).sum();
                let gap = DeliveryGap {
                    source: s,
                    dest: dest as usize,
                    windows: windows.len() as u64,
                    tuples,
                };
                self.report.note(
                    self.now,
                    format!(
                        "delivery gap: source {s} -> partition {dest}, {} windows \
                         ({tuples} tuples) unacknowledged after {attempt} retries",
                        windows.len()
                    ),
                );
                self.report.delivery_gaps.push(gap);
            }
            self.release_eos(s);
            return Ok(());
        }
        let epoch = self.logs[s].epoch();
        let mut t = self.now;
        for (dest, windows) in pending {
            for (cp, tuples) in windows {
                for (stream, tuple) in tuples {
                    self.report.tuples_retransmitted += 1;
                    self.sources[s].staged[dest as usize].push(Item::Tuple {
                        stream,
                        tuple,
                        source: s,
                        // Retransmissions are first-class deliveries: the
                        // consumer's dedup filter decides whether the
                        // original copy already arrived.
                        migrated: false,
                    });
                }
                self.sources[s].staged[dest as usize].push(Item::Checkpoint {
                    source: s,
                    cp: cp.id,
                    epoch,
                });
            }
            // Chaos-exposed on purpose: a retransmission can be dropped
            // again, which is what the escalating backoff is for.
            t = self.send_staged(s, dest, t)?;
        }
        let delay = self.sources[s].backoff.delay_ms(attempt + 1);
        self.queue.schedule(
            t.offset(delay),
            Event::RetryCheck {
                source: s,
                attempt: attempt + 1,
            },
        );
        Ok(())
    }

    /// Delivers end-of-stream for source `s` to every live consumer,
    /// bypassing the chaos seam: the retry loop has already resolved
    /// every window, and a dropped Eos would hang the run rather than
    /// corrupt it — there is nothing left for the fault model to probe.
    fn release_eos(&mut self, s: usize) {
        let node = self.sources[s].node;
        for dest in 0..self.consumers.len() as u32 {
            if self.consumers[dest as usize].dead {
                continue;
            }
            let dest_node = self.consumers[dest as usize].node;
            let cost = self.env.buffer_cost_ms(node, dest_node, 0, 0);
            let id = self.alloc_buffer(dest, vec![Item::Eos { source: s }]);
            self.queue
                .schedule(self.now.offset(cost), Event::BufferArrive { buffer: id });
        }
    }

    // -- buffers ----------------------------------------------------------

    fn alloc_buffer(&mut self, dest: u32, items: Vec<Item>) -> u64 {
        let id = self.next_buffer;
        self.next_buffer += 1;
        self.buffers.insert(id, (dest, items));
        id
    }

    fn buffer_arrive(&mut self, id: u64) -> Result<()> {
        let Some((dest, items)) = self.buffers.remove(&id) else {
            return Ok(()); // rerouted away entirely
        };
        let c = &mut self.consumers[dest as usize];
        if c.dead {
            return Ok(()); // the partition is gone; the logs recover it
        }
        for item in items {
            c.enqueue(item, &self.build_sources);
        }
        if c.finished {
            c.finished = false;
        }
        if !c.step_pending {
            if let Some(idle_since) = c.idle_since.take() {
                c.batch_wait_ms += self.now.since(idle_since);
            }
            c.step_pending = true;
            self.queue
                .schedule(self.now, Event::ConsumerStep { consumer: dest });
        }
        Ok(())
    }

    // -- consumers --------------------------------------------------------

    fn consumer_step(&mut self, ci: u32) -> Result<()> {
        let i = ci as usize;
        self.consumers[i].step_pending = false;
        if self.consumers[i].dead {
            return Ok(());
        }
        let item = {
            let c = &mut self.consumers[i];
            c.next_item(&self.build_sources)
        };
        match item {
            None => {
                let c = &mut self.consumers[i];
                if c.eos_remaining.is_empty() && c.queues_empty() {
                    self.finish_consumer(ci)?;
                } else {
                    c.idle_since = Some(self.now);
                }
                Ok(())
            }
            Some(Item::Eos { source }) => {
                self.consumers[i].eos_remaining.remove(&source);
                self.reschedule_step(ci, self.now);
                Ok(())
            }
            Some(Item::Checkpoint { source, cp, epoch }) => {
                // Release the outputs of the acknowledged window first:
                // once the producer prunes its log, the only copies of
                // those tuples' results must be at (or on the way to)
                // the collector.
                let t = self.flush_results(ci, self.now);
                let lat = self
                    .env
                    .control_cost_ms(self.consumers[i].node, self.sources[source].node);
                let ack = Event::AckArrive {
                    source,
                    dest: ci,
                    cp,
                    epoch,
                };
                // Acks are best-effort control traffic: the log keeps
                // the covered entries until a later ack supersedes a
                // lost one, so losing/duplicating them must be safe, and
                // the log itself drops one stamped before a failover.
                match self.chaos_ack(source, i) {
                    NetAction::Deliver => self.queue.schedule(t.offset(lat), ack),
                    NetAction::DelayMs(extra) => {
                        let extra = if extra.is_finite() {
                            extra.max(0.0)
                        } else {
                            0.0
                        };
                        self.queue.schedule(t.offset(lat + extra), ack);
                    }
                    NetAction::Duplicate => {
                        self.queue.schedule(t.offset(lat), ack.clone());
                        self.queue.schedule(t.offset(lat), ack);
                    }
                    NetAction::Drop => {}
                }
                self.reschedule_step(ci, t);
                Ok(())
            }
            Some(Item::Tuple {
                stream,
                tuple,
                source,
                migrated,
            }) => {
                if self.resilient {
                    // Effectively-once processing over at-least-once
                    // transport: a redelivered copy (chaos duplication or
                    // retransmission racing the original) is recognised
                    // by (source, seq) and skipped, paying only the
                    // receive cost. Migrated tuples are recorded but
                    // never skipped: a recall or failure replay moves a
                    // tuple to a partition that must genuinely process
                    // it, even if it saw the same (source, seq) before a
                    // bucket ping-pong.
                    let fresh = self.consumers[i].seen.insert((source, tuple.seq()));
                    if !fresh && !migrated {
                        self.reschedule_step(ci, self.now.offset(self.config.receive_cost_ms));
                        return Ok(());
                    }
                    // A retransmission targets the window's *original*
                    // destination — by the time it lands, a recall may
                    // have moved the tuple's bucket elsewhere. Producer-
                    // side re-routing would be unsound (a processed-but-
                    // unacknowledged tuple re-routed to the new owner
                    // bypasses the old owner's dedup and duplicates
                    // output), so the stale copy is forwarded here, past
                    // the dedup filter: fresh means the original never
                    // arrived, and the current owner must process it.
                    // The recovery-log entry follows the tuple so the
                    // log invariant (every unacknowledged tuple logged
                    // under its current owner) keeps holding.
                    if !migrated && fresh && self.router.bucket_count().is_some() {
                        let owner = self.router.route(stream, &tuple)?;
                        if owner != ci {
                            let seq = tuple.seq();
                            self.logs[source]
                                .migrate_matching(ci, owner, |(_, t)| t.seq() == seq)?;
                            self.report.tuples_redistributed += 1;
                            let from_node = self.consumers[i].node;
                            let to_node = self.consumers[owner as usize].node;
                            let bytes = tuple.byte_size();
                            let cost = self.env.buffer_cost_ms(from_node, to_node, 1, bytes);
                            let id = self.alloc_buffer(
                                owner,
                                vec![Item::Tuple {
                                    stream,
                                    tuple,
                                    source,
                                    migrated: true,
                                }],
                            );
                            self.queue.schedule(
                                self.now.offset(self.config.receive_cost_ms + cost),
                                Event::BufferArrive { buffer: id },
                            );
                            self.reschedule_step(ci, self.now.offset(self.config.receive_cost_ms));
                            return Ok(());
                        }
                    }
                }
                self.process_tuple(ci, stream, tuple)
            }
        }
    }

    fn process_tuple(&mut self, ci: u32, stream: StreamTag, tuple: Tuple) -> Result<()> {
        let i = ci as usize;
        let node = self.consumers[i].node;
        let outcome = self.consumers[i].evaluator.process(stream, &tuple)?;
        let proc =
            self.env
                .effective_cost_ms(node, outcome.base_cost_ms, self.now, &mut self.rng)?;
        let mut cost = proc + self.config.receive_cost_ms;
        if self.adaptivity_on {
            cost += self.config.adapt_overhead_ms;
            if self.adapt.response == ResponsePolicy::R1 {
                cost += self.config.r1_overhead_ms;
            }
        }
        cost += std::mem::take(&mut self.consumers[i].penalty_ms);
        cost += self.chaos_stall(StallSite::Consumer, i);

        let out_count = outcome.outputs.len() as u64;
        self.consumers[i].out_staged.extend(outcome.outputs);
        self.consumers[i].inputs += 1;
        self.consumers[i].outputs += out_count;
        self.consumers[i].batch_inputs += 1;
        self.consumers[i].batch_cost_ms += cost;
        self.report.per_partition_processed[i] += 1;
        if let Some(ctr) = &self.processed_ctr {
            ctr.add(1);
        }

        let mut t = self.now.offset(cost);
        if self.consumers[i].out_staged.len() >= self.buffer_tuples {
            t = self.flush_results(ci, t);
        }
        if self.monitoring_on
            && self.consumers[i].batch_inputs >= self.adapt.monitoring_interval_tuples
        {
            t = t.offset(MONITOR_COST_MS);
            self.emit_m1(ci, t);
        }
        self.reschedule_step(ci, t);
        Ok(())
    }

    fn reschedule_step(&mut self, ci: u32, at: SimTime) {
        let c = &mut self.consumers[ci as usize];
        if !c.step_pending {
            c.step_pending = true;
            self.queue
                .schedule(at, Event::ConsumerStep { consumer: ci });
        }
    }

    fn flush_results(&mut self, ci: u32, at: SimTime) -> SimTime {
        let i = ci as usize;
        let staged = std::mem::take(&mut self.consumers[i].out_staged);
        if staged.is_empty() {
            return at;
        }
        let bytes: usize = staged.iter().map(Tuple::byte_size).sum();
        let cost = self.env.buffer_cost_ms(
            self.consumers[i].node,
            self.plan.collect_node,
            staged.len(),
            bytes,
        );
        let done = at.offset(cost);
        let id = self.next_buffer;
        self.next_buffer += 1;
        self.result_buffers.insert(id, staged);
        self.queue
            .schedule(done, Event::CollectArrive { buffer: id });
        done
    }

    fn finish_consumer(&mut self, ci: u32) -> Result<()> {
        let t = self.flush_results(ci, self.now);
        let c = &mut self.consumers[ci as usize];
        if !c.finished {
            c.finished = true;
            self.last_finish_at = self.last_finish_at.max(t);
        }
        Ok(())
    }

    fn emit_m1(&mut self, ci: u32, at: SimTime) {
        let i = ci as usize;
        let c = &mut self.consumers[i];
        let inputs = c.batch_inputs.max(1) as f64;
        let event = M1 {
            query: self.plan.query,
            partition: c.partition,
            node: c.node,
            cost_per_tuple_ms: c.batch_cost_ms / inputs,
            leaf_wait_ms: c.batch_wait_ms / inputs,
            selectivity: if c.inputs == 0 {
                1.0
            } else {
                c.outputs as f64 / c.inputs as f64
            },
            tuples_produced: c.outputs,
            at,
        };
        c.batch_inputs = 0;
        c.batch_cost_ms = 0.0;
        c.batch_wait_ms = 0.0;
        let node = c.node;
        self.report.raw_m1_events += 1;
        if self.chaos_notify(NotifyKind::M1, i) {
            self.feed_detector_m1(node, event);
        }
    }

    // -- adaptivity control plane -----------------------------------------

    fn detector(&mut self, node: NodeId) -> &mut MonitoringEventDetector {
        let adapt = self.adapt;
        let sink = self.obs.as_ref().map(|o| o.sink());
        self.detectors.entry(node).or_insert_with(|| {
            let mut d = MonitoringEventDetector::new(adapt);
            if let Some(sink) = sink {
                d.set_metric_sink(sink);
            }
            d
        })
    }

    fn feed_detector_m1(&mut self, node: NodeId, event: M1) {
        let at = event.at;
        let output = self.detector(node).on_m1(&event);
        let raw_seq = self.obs_record(
            at,
            TimelineKind::RawM1 {
                partition: event.partition.to_string(),
                node: node.to_string(),
                cost_per_tuple_ms: event.cost_per_tuple_ms,
                leaf_wait_ms: event.leaf_wait_ms,
                gate_fired: !matches!(output, DetectorOutput::Quiet),
            },
        );
        self.route_detector_output(node, output, at, raw_seq);
    }

    fn feed_detector_m2(&mut self, node: NodeId, event: M2) {
        let at = event.at;
        let output = self.detector(node).on_m2(&event);
        let raw_seq = self.obs_record(
            at,
            TimelineKind::RawM2 {
                producer: event.producer.to_string(),
                recipient: event.recipient.to_string(),
                cost_per_tuple_ms: event.cost_per_tuple_ms(),
                gate_fired: !matches!(output, DetectorOutput::Quiet),
            },
        );
        self.route_detector_output(node, output, at, raw_seq);
    }

    fn route_detector_output(
        &mut self,
        node: NodeId,
        output: DetectorOutput,
        at: SimTime,
        raw_seq: u64,
    ) {
        let lat = self.env.control_cost_ms(node, self.diag_node) + CONTROL_EXTRA_MS;
        match output {
            DetectorOutput::Quiet => {}
            DetectorOutput::Cost(update) => {
                let notify_seq = self.obs_record(
                    at,
                    TimelineKind::DetectorNotify {
                        scope: update.partition.to_string(),
                        avg_cost_ms: update.avg_cost_ms,
                        window_len: update.window_len,
                        raw_seq,
                    },
                );
                self.queue.schedule(
                    at.offset(lat),
                    Event::CostToDiagnoser { update, notify_seq },
                );
            }
            DetectorOutput::Comm(update) => {
                let notify_seq = self.obs_record(
                    at,
                    TimelineKind::DetectorNotify {
                        scope: format!("{}->{}", update.producer, update.recipient),
                        avg_cost_ms: update.avg_cost_per_tuple_ms,
                        window_len: update.window_len,
                        raw_seq,
                    },
                );
                self.queue.schedule(
                    at.offset(lat),
                    Event::CommToDiagnoser { update, notify_seq },
                );
            }
        }
    }

    /// Estimated query progress, in the spirit of the paper's Responder
    /// "contacting all the evaluators that produce data". The relevant
    /// notion depends on the response policy: a prospective (R2)
    /// adaptation only affects tuples not yet routed, so progress is the
    /// routed fraction; a retrospective (R1) adaptation can still recall
    /// queued tuples, so progress is the *processed* fraction.
    fn progress(&self) -> f64 {
        if self.total_rows == 0 {
            return 1.0;
        }
        let amount: u64 = if self.adapt.response == ResponsePolicy::R1 {
            self.consumers.iter().map(|c| c.inputs).sum()
        } else {
            self.sources.iter().map(|s| s.routed).sum()
        };
        // Replayed state and resent tuples inflate the processed count
        // after redistributions/failures; like the paper's estimator
        // this is a heuristic, so clamp rather than track identity.
        (amount as f64 / self.total_rows as f64).min(1.0)
    }

    fn cost_to_diagnoser(&mut self, update: CostUpdate, notify_seq: u64) {
        if let Some(imbalance) = self.diagnoser.on_cost_update(&update) {
            self.consider(imbalance, notify_seq);
        }
    }

    fn comm_to_diagnoser(&mut self, update: CommUpdate, notify_seq: u64) {
        if let Some(imbalance) = self.diagnoser.on_comm_update(&update) {
            self.consider(imbalance, notify_seq);
        }
    }

    fn consider(&mut self, imbalance: gridq_adapt::Imbalance, notify_seq: u64) {
        let diagnosis_seq = self.obs_record(
            imbalance.at,
            TimelineKind::Diagnosis {
                stage: imbalance.stage.to_string(),
                proposed: imbalance.proposed.weights().to_vec(),
                costs: imbalance.costs.clone(),
                notify_seq,
            },
        );
        // The Responder polls the producing evaluators for progress: one
        // control round trip before the decision takes effect.
        let poll = 2.0 * self.max_control_latency() + CONTROL_EXTRA_MS;
        let progress = self.progress();
        let (decision, cmd) = self.responder.on_imbalance(&imbalance, progress);
        self.obs_record(
            self.now,
            TimelineKind::ResponderDecision {
                decision: decision.as_str().to_string(),
                diagnosis_seq,
            },
        );
        if let Some(cmd) = cmd {
            self.diagnoser
                .set_distribution(cmd.new_distribution.clone());
            let apply_at = self.now.offset(poll + self.max_control_latency());
            self.queue.schedule(
                apply_at,
                Event::ApplyAdaptation {
                    command: cmd,
                    diagnosis_seq,
                },
            );
        }
    }

    fn max_control_latency(&self) -> f64 {
        self.sources
            .iter()
            .map(|s| self.env.control_cost_ms(self.diag_node, s.node))
            .fold(0.0, f64::max)
    }

    fn ack_arrive(&mut self, source: usize, dest: u32, cp: u64, epoch: u64) {
        match self.logs[source].acknowledge(dest, cp, epoch) {
            AckOutcome::Accepted(_) | AckOutcome::Duplicate => self.report.acks_received += 1,
            AckOutcome::Stale | AckOutcome::Ignored => {}
        }
    }

    // -- adaptation deployment ---------------------------------------------

    fn apply_adaptation(&mut self, cmd: AdaptationCommand, diagnosis_seq: u64) -> Result<()> {
        // Dead partitions must never regain weight, whatever the
        // Diagnoser proposed from its (possibly stale) cost picture.
        let mut target = cmd.new_distribution.clone();
        if self.consumers.iter().any(|c| c.dead) {
            let mut weights = target.weights().to_vec();
            for (i, c) in self.consumers.iter().enumerate() {
                if c.dead {
                    weights[i] = 0.0;
                }
            }
            target = gridq_common::DistributionVector::new(&weights)
                .map_err(|_| GridError::Execution("every evaluator node has failed".into()))?;
        }
        let moves = self.router.apply_distribution(&target)?;
        // Keep the Diagnoser's notion of the deployed distribution in
        // sync with what the router actually uses (the clamped target,
        // not the raw proposal).
        self.diagnoser.set_distribution(target.clone());
        let deploy_seq = self.obs_record(
            self.now,
            TimelineKind::Deploy {
                stage: cmd.stage.to_string(),
                weights: target.weights().to_vec(),
                retrospective: cmd.retrospective,
                diagnosis_seq,
            },
        );
        self.report.note(
            self.now,
            format!(
                "adaptation deployed ({}): W' = {:?}",
                if cmd.retrospective { "R1" } else { "R2" },
                cmd.new_distribution
                    .weights()
                    .iter()
                    .map(|w| (w * 1000.0).round() / 1000.0)
                    .collect::<Vec<_>>()
            ),
        );
        if cmd.retrospective {
            self.redistribute(&moves, Some(deploy_seq))?;
        }
        // The deployment is fully applied (including any recall) at this
        // point of virtual time; report it back to the Responder so the
        // cooldown runs from completion, as in the threaded substrate.
        self.responder.on_deploy_acknowledged(self.now);
        Ok(())
    }

    /// Retrospective redistribution: recall unprocessed tuples from
    /// consumer queues, in-flight buffers, and producer staging, migrate
    /// the operator state of moved hash buckets, and re-send everything
    /// under the new distribution.
    fn redistribute(
        &mut self,
        moves: &[gridq_common::BucketMove],
        deploy_seq: Option<u64>,
    ) -> Result<()> {
        let t = self.now;
        let partitions = self.consumers.len();
        // Each recall is a redistribution epoch; the timeline pair below
        // (present when this recall realises a deploy, absent on the
        // failure-recovery path) brackets it for traceability.
        self.recalls += 1;
        let epoch = self.recalls;
        let state_before = self.report.state_tuples_migrated;
        let redist_before = self.report.tuples_redistributed;
        let start_seq = deploy_seq.map(|deploy_seq| {
            self.obs_record(
                t,
                TimelineKind::RecallStart {
                    stage: self.stage_id.to_string(),
                    epoch,
                    deploy_seq,
                },
            )
        });
        // (from_consumer, to_consumer) -> items; `from == usize::MAX`
        // marks items recalled from producer staging (cost charged to the
        // producer's node instead).
        let mut transfers: HashMap<(usize, usize), Vec<Item>> = HashMap::new();

        // Moved tuples move inside the recovery logs as well, to the
        // destination the transfer actually used (re-routing again would
        // advance the weighted router's credits a second time). Windows
        // on the old destinations stay valid for the entries left
        // behind, so every unacknowledged tuple stays logged under its
        // current owner.
        let mut log_moves = LogMoves::default();

        // 1. Migrate operator state of moved buckets.
        if !moves.is_empty() {
            let bucket_count = self
                .router
                .bucket_count()
                .expect("bucket moves imply hash routing");
            let mut by_from: HashMap<u32, Vec<u32>> = HashMap::new();
            for mv in moves {
                by_from.entry(mv.from).or_default().push(mv.bucket);
            }
            for (&from, buckets) in &by_from {
                let extracted = self.consumers[from as usize]
                    .evaluator
                    .extract_state(bucket_count, buckets);
                self.report.state_tuples_migrated += extracted.len() as u64;
                self.consumers[from as usize].penalty_ms +=
                    DISCARD_COST_MS * extracted.len() as f64;
                // Extracted state loses its original attribution; the
                // build source (there is one per stream in the supported
                // plan shapes) adopts it for re-logging.
                let build_source = self.build_sources.iter().min().copied().unwrap_or(0);
                for (stream, tuple) in extracted {
                    let dest = self.router.route(stream, &tuple)? as usize;
                    log_moves.note(build_source, from as usize, Some(dest), tuple.seq());
                    transfers
                        .entry((from as usize, dest))
                        .or_default()
                        .push(Item::Tuple {
                            stream,
                            tuple,
                            source: build_source,
                            migrated: true,
                        });
                }
            }
        }

        // 2. Recall unprocessed queued tuples whose destination changed.
        for from in 0..partitions {
            let mut keep_build = VecDeque::new();
            let mut keep_main = VecDeque::new();
            let build_items = std::mem::take(&mut self.consumers[from].build_queue);
            let main_items = std::mem::take(&mut self.consumers[from].main_queue);
            let mut removed = 0u64;
            for item in build_items.into_iter().chain(main_items) {
                match item {
                    Item::Tuple {
                        stream,
                        tuple,
                        source,
                        migrated,
                    } => {
                        let dest = self.router.route(stream, &tuple)? as usize;
                        if dest == from {
                            let item = Item::Tuple {
                                stream,
                                tuple,
                                source,
                                migrated,
                            };
                            match stream {
                                StreamTag::Build => keep_build.push_back(item),
                                _ => keep_main.push_back(item),
                            }
                        } else {
                            removed += 1;
                            log_moves.note(source, from, Some(dest), tuple.seq());
                            transfers
                                .entry((from, dest))
                                .or_default()
                                .push(Item::Tuple {
                                    stream,
                                    tuple,
                                    source,
                                    migrated: true,
                                });
                        }
                    }
                    other => keep_main.push_back(other),
                }
            }
            self.consumers[from].build_queue = keep_build;
            self.consumers[from].main_queue = keep_main;
            self.consumers[from].penalty_ms += DISCARD_COST_MS * removed as f64;
            self.report.tuples_redistributed += removed;
        }

        // 3. Reroute in-flight buffers.
        let buffer_ids: Vec<u64> = self.buffers.keys().copied().collect();
        for id in buffer_ids {
            let (dest, items) = self.buffers.remove(&id).expect("buffer id just listed");
            let mut staying = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Item::Tuple {
                        stream,
                        tuple,
                        source,
                        migrated,
                    } => {
                        let new_dest = self.router.route(stream, &tuple)? as usize;
                        if new_dest == dest as usize {
                            staying.push(Item::Tuple {
                                stream,
                                tuple,
                                source,
                                migrated,
                            });
                        } else {
                            self.report.tuples_redistributed += 1;
                            log_moves.note(source, dest as usize, Some(new_dest), tuple.seq());
                            transfers
                                .entry((dest as usize, new_dest))
                                .or_default()
                                .push(Item::Tuple {
                                    stream,
                                    tuple,
                                    source,
                                    migrated: true,
                                });
                        }
                    }
                    other => staying.push(other),
                }
            }
            self.buffers.insert(id, (dest, staying));
        }

        // 4. Reroute producer staging. Staged tuples already have log
        // entries under their old destination; when the destination
        // changes, migrate the entry. Staged checkpoint markers keep
        // riding with their (unchanged-destination) windows.
        for s in 0..self.sources.len() {
            let staged: Vec<Vec<Item>> = self.sources[s]
                .staged
                .iter_mut()
                .map(std::mem::take)
                .collect();
            for (old_dest, items) in staged.into_iter().enumerate() {
                for item in items {
                    match item {
                        Item::Tuple { stream, tuple, .. } => {
                            let dest = self.router.route(stream, &tuple)?;
                            if dest as usize != old_dest {
                                log_moves.note(s, old_dest, Some(dest as usize), tuple.seq());
                            }
                            self.sources[s].staged[dest as usize].push(Item::Tuple {
                                stream,
                                tuple,
                                source: s,
                                migrated: false,
                            });
                        }
                        marker @ Item::Checkpoint { .. } => {
                            self.sources[s].staged[old_dest].push(marker);
                        }
                        eos @ Item::Eos { .. } => {
                            self.sources[s].staged[old_dest].push(eos);
                        }
                    }
                }
            }
        }

        // The moved entries join their new owners' open windows; the
        // sources' next markers there cover them.
        log_moves.settle(&self.logs);

        // 5. Ship transfers: build items first so join state is
        // re-established before any probe of the same bucket.
        let mut latest_arrival = t;
        let mut pairs: Vec<((usize, usize), Vec<Item>)> = transfers.into_iter().collect();
        pairs.sort_by_key(|((from, to), _)| (*from, *to));
        for ((from, to), mut items) in pairs {
            items.sort_by_key(|item| match item {
                Item::Tuple {
                    stream: StreamTag::Build,
                    ..
                } => 0u8,
                _ => 1u8,
            });
            let from_node = self.consumers[from].node;
            let to_node = self.consumers[to].node;
            let tuples = items.len();
            let bytes: usize = items.iter().map(Item::payload_bytes).sum();
            let cost = self.env.buffer_cost_ms(from_node, to_node, tuples, bytes)
                + REDISTRIBUTE_COST_MS * tuples as f64;
            let arrive = t.offset(cost);
            latest_arrival = latest_arrival.max(arrive);
            let id = self.alloc_buffer(to as u32, items);
            self.queue
                .schedule(arrive, Event::BufferArrive { buffer: id });
        }

        // 6. Pause sources until migrated items have landed, so that
        // newly routed tuples cannot overtake the state they depend on.
        for s in &mut self.sources {
            s.resume_at = s.resume_at.max(latest_arrival);
        }

        // Wake any idle consumers whose queues changed.
        for ci in 0..partitions as u32 {
            let c = &mut self.consumers[ci as usize];
            if !c.step_pending && !c.queues_empty() {
                if let Some(idle_since) = c.idle_since.take() {
                    c.batch_wait_ms += t.since(idle_since);
                }
                c.step_pending = true;
                self.queue.schedule(t, Event::ConsumerStep { consumer: ci });
            }
        }
        if let Some(start_seq) = start_seq {
            self.obs_record(
                t,
                TimelineKind::RecallFinish {
                    epoch,
                    state_tuples_migrated: self.report.state_tuples_migrated - state_before,
                    tuples_recalled: self.report.tuples_redistributed - redist_before,
                    start_seq,
                },
            );
        }
        Ok(())
    }

    // -- collection ---------------------------------------------------------

    fn collect_arrive(&mut self, id: u64) {
        let Some(tuples) = self.result_buffers.remove(&id) else {
            return;
        };
        self.last_result_at = self.last_result_at.max(self.now);
        for tuple in tuples {
            if self.dedup_results && !self.results_seen.first(&tuple) {
                self.report.duplicates_dropped += 1;
                continue;
            }
            self.collected += 1;
            if self.config.collect_results {
                self.report.results.push(tuple);
            }
        }
    }

    // -- failure recovery ---------------------------------------------------

    /// Kills every partition hosted on `node` and recovers its
    /// unacknowledged work from the producers' recovery logs.
    fn node_fail(&mut self, node: NodeId) -> Result<()> {
        let t = self.now;
        let dead_now: Vec<usize> = self
            .consumers
            .iter()
            .enumerate()
            .filter(|(_, c)| c.node == node && !c.dead)
            .map(|(i, _)| i)
            .collect();
        if dead_now.is_empty() {
            return Ok(());
        }
        self.report.nodes_failed += 1;
        // As on threads: a failover is never declined, and it restarts
        // the cooldown so no rebalance fires while the replay is in
        // flight.
        self.responder.on_node_failure(t);
        self.report.note(
            t,
            format!("node {node} failed ({} partitions lost)", dead_now.len()),
        );
        // One NodeDown per lost partition; the matching Failover record
        // below links back here via `down_seq` so the timeline shows
        // each death paired with exactly one completed recovery.
        let mut down_seqs: HashMap<usize, u64> = HashMap::new();
        for &ci in &dead_now {
            let seq = self.obs_record(
                t,
                TimelineKind::NodeDown {
                    partition: PartitionId::new(self.stage_id, ci as u32).to_string(),
                },
            );
            down_seqs.insert(ci, seq);
        }
        for &ci in &dead_now {
            let c = &mut self.consumers[ci];
            c.dead = true;
            c.finished = true;
            c.build_queue.clear();
            c.main_queue.clear();
            c.out_staged.clear();
            c.idle_since = None;
        }
        // Evict detector window/gate state for the lost partitions — the
        // streams will never report again, and the maps must not grow
        // without bound across long sessions. The Diagnoser keeps its
        // cost entries: `assess` needs a complete cost picture, and the
        // distribution clamp below already removes the dead partitions
        // from routing.
        for &ci in &dead_now {
            let pid = PartitionId::new(self.stage_id, ci as u32);
            let query = self.plan.query;
            for d in self.detectors.values_mut() {
                d.retire_partition(query, pid);
            }
        }

        // Drop in-flight tuples addressed to dead partitions: the logs
        // still hold them and the resend below covers them exactly once.
        let dead_set: HashSet<usize> = self
            .consumers
            .iter()
            .enumerate()
            .filter(|(_, c)| c.dead)
            .map(|(i, _)| i)
            .collect();
        let buffer_ids: Vec<u64> = self.buffers.keys().copied().collect();
        for id in buffer_ids {
            if let Some((dest, items)) = self.buffers.get_mut(&id) {
                if dead_set.contains(&(*dest as usize)) {
                    items.retain(|i| !matches!(i, Item::Tuple { .. }));
                }
            }
        }

        // Exclude dead partitions from routing. If every partition is
        // dead the query cannot complete.
        let mut weights = self.router.current_distribution().weights().to_vec();
        for &ci in &dead_set {
            weights[ci] = 0.0;
        }
        let target = gridq_common::DistributionVector::new(&weights)
            .map_err(|_| GridError::Execution("every evaluator node has failed".into()))?;
        let moves = self.router.apply_distribution(&target)?;
        self.diagnoser.set_distribution(target);
        // Bucket moves between *surviving* partitions (rounding effects)
        // migrate state through the normal retrospective path; moves off
        // dead partitions have nothing left to extract — their state is
        // rebuilt from the logs.
        let alive_moves: Vec<gridq_common::BucketMove> = moves
            .iter()
            .filter(|m| !dead_set.contains(&(m.from as usize)))
            .copied()
            .collect();
        if !alive_moves.is_empty() {
            self.redistribute(&alive_moves, None)?;
        }

        // Resend every unacknowledged tuple logged for a dead partition,
        // in two waves: all build-stream buffers land strictly before
        // any probe/single buffer, so resent probes never race the join
        // state they depend on — even across different sources.
        let mut waves: [Vec<(usize, u32, Vec<Item>)>; 2] = [Vec::new(), Vec::new()];
        let mut replayed: HashMap<usize, u64> = HashMap::new();
        for s in 0..self.sources.len() {
            let mut resend: Vec<(StreamTag, Tuple)> = Vec::new();
            for &dead in &dead_set {
                let drained = self.logs[s].drain_dest(dead as u32)?;
                *replayed.entry(dead).or_default() += drained.len() as u64;
                resend.extend(drained);
            }
            if resend.is_empty() {
                continue;
            }
            resend.sort_by_key(|(_, tuple)| tuple.seq());
            let mut per_dest: [HashMap<u32, Vec<Item>>; 2] = [HashMap::new(), HashMap::new()];
            for (stream, tuple) in resend {
                let dest = self.router.route(stream, &tuple)?;
                self.logs[s].record_migrated(dest, (stream, tuple.clone()))?;
                self.report.failure_resent_tuples += 1;
                let wave = usize::from(stream != StreamTag::Build);
                per_dest[wave].entry(dest).or_default().push(Item::Tuple {
                    stream,
                    tuple,
                    source: s,
                    // Replayed work may legitimately revisit a partition
                    // that half-processed the original buffer before the
                    // crash lost it; dedup must not suppress it.
                    migrated: true,
                });
            }
            for (wave, map) in per_dest.into_iter().enumerate() {
                let mut dests: Vec<(u32, Vec<Item>)> = map.into_iter().collect();
                dests.sort_by_key(|(d, _)| *d);
                for (dest, items) in dests {
                    waves[wave].push((s, dest, items));
                }
            }
        }
        let mut latest_arrival = t;
        let mut source_busy: Vec<SimTime> = self
            .sources
            .iter()
            .map(|src| t.max(src.resume_at))
            .collect();
        let mut wave_barrier = t;
        for wave in waves {
            // The second wave starts only after the first has fully
            // landed.
            for busy in &mut source_busy {
                *busy = (*busy).max(wave_barrier);
            }
            let mut wave_end = wave_barrier;
            for (s, dest, items) in wave {
                let from_node = self.sources[s].node;
                let to_node = self.consumers[dest as usize].node;
                let tuples = items.len();
                let bytes: usize = items.iter().map(Item::payload_bytes).sum();
                let cost = self.env.buffer_cost_ms(from_node, to_node, tuples, bytes)
                    + REDISTRIBUTE_COST_MS * tuples as f64;
                source_busy[s] = source_busy[s].offset(cost);
                wave_end = wave_end.max(source_busy[s]);
                latest_arrival = latest_arrival.max(source_busy[s]);
                let id = self.alloc_buffer(dest, items);
                self.queue
                    .schedule(source_busy[s], Event::BufferArrive { buffer: id });
            }
            wave_barrier = wave_end;
        }
        for (s, busy) in source_busy.into_iter().enumerate() {
            self.sources[s].resume_at = self.sources[s].resume_at.max(busy);
        }
        for src in &mut self.sources {
            src.resume_at = src.resume_at.max(latest_arrival);
        }
        self.report.note(
            t,
            format!(
                "recovery: {} tuples resent from recovery logs",
                self.report.failure_resent_tuples
            ),
        );
        for &ci in &dead_now {
            self.obs_record(
                t,
                TimelineKind::Failover {
                    partition: PartitionId::new(self.stage_id, ci as u32).to_string(),
                    replayed: replayed.get(&ci).copied().unwrap_or(0),
                    down_seq: down_seqs[&ci],
                },
            );
        }
        Ok(())
    }

    fn into_report(mut self) -> ExecutionReport {
        let response = self.last_result_at.max(self.last_finish_at);
        self.report.response_time_ms = response.as_millis();
        self.report.tuples_output = self.collected;
        self.report.detector_notifications =
            self.detectors.values().map(|d| d.notifications_sent).sum();
        self.report.imbalances_reported = self.diagnoser.imbalances_reported;
        self.report.adaptations_deployed = self.responder.adaptations_deployed;
        self.report.declined_near_completion = self.responder.declined_near_completion;
        self.report.declined_cooldown = self.responder.declined_cooldown;
        self.report.final_distribution = self.router.current_distribution().weights().to_vec();
        // Query teardown: record how much adaptivity state was live, then
        // evict it so detector/diagnoser maps return to zero.
        if let Some(obs) = &self.obs {
            let streams: usize = self
                .detectors
                .values()
                .map(MonitoringEventDetector::tracked_streams)
                .sum::<usize>()
                + self.diagnoser.tracked_cost_entries();
            obs.metrics()
                .gauge("adapt.tracked_streams_at_teardown")
                .set(streams as f64);
        }
        let query = self.plan.query;
        for d in self.detectors.values_mut() {
            d.reset_for_query(query);
        }
        self.diagnoser.reset_for_query();
        let after: usize = self
            .detectors
            .values()
            .map(MonitoringEventDetector::tracked_streams)
            .sum::<usize>()
            + self.diagnoser.tracked_cost_entries();
        debug_assert_eq!(after, 0);
        // Post-eviction count: chaos oracles assert this is zero even
        // after injected node crashes (retire_partition + reset must
        // leave nothing tracked).
        if let Some(obs) = &self.obs {
            obs.metrics()
                .gauge("adapt.tracked_streams_after_teardown")
                .set(after as f64);
        }
        self.report.log_audits = self.logs.iter().map(SharedRecoveryLog::audit).collect();
        self.report.obs = self.obs.as_ref().map(Obs::report);
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::Value;

    fn consumer() -> ConsumerRun {
        ConsumerRun {
            node: NodeId::new(1),
            partition: PartitionId::new(SubplanId::new(1), 0),
            evaluator: Box::new(NoopEvaluator {
                schema: gridq_common::Schema::empty(),
            }),
            build_queue: VecDeque::new(),
            main_queue: VecDeque::new(),
            step_pending: false,
            idle_since: None,
            eos_remaining: HashSet::from([0, 1]),
            finished: false,
            dead: false,
            inputs: 0,
            outputs: 0,
            batch_inputs: 0,
            batch_cost_ms: 0.0,
            batch_wait_ms: 0.0,
            out_staged: Vec::new(),
            penalty_ms: 0.0,
            seen: HashSet::new(),
        }
    }

    struct NoopEvaluator {
        schema: gridq_common::Schema,
    }

    impl PartitionEvaluator for NoopEvaluator {
        fn schema(&self) -> &gridq_common::Schema {
            &self.schema
        }

        fn process(
            &mut self,
            _stream: StreamTag,
            _tuple: &Tuple,
        ) -> Result<gridq_engine::evaluator::ProcessOutcome> {
            Ok(gridq_engine::evaluator::ProcessOutcome {
                outputs: Vec::new(),
                base_cost_ms: 0.0,
            })
        }
    }

    fn tuple_item(stream: StreamTag, v: i64, source: usize) -> Item {
        Item::Tuple {
            stream,
            tuple: Tuple::new(vec![Value::Int(v)]),
            source,
            migrated: false,
        }
    }

    #[test]
    fn build_items_processed_before_probes() {
        let mut c = consumer();
        let build_sources = HashSet::from([0usize]);
        c.enqueue(tuple_item(StreamTag::Probe, 1, 1), &build_sources);
        c.enqueue(tuple_item(StreamTag::Build, 2, 0), &build_sources);
        // Build queue has priority.
        assert!(matches!(
            c.next_item(&build_sources),
            Some(Item::Tuple {
                stream: StreamTag::Build,
                ..
            })
        ));
        // Build EOS not yet seen: the probe is held.
        assert!(c.next_item(&build_sources).is_none());
        // After build EOS, the probe flows.
        c.eos_remaining.remove(&0);
        assert!(matches!(
            c.next_item(&build_sources),
            Some(Item::Tuple {
                stream: StreamTag::Probe,
                ..
            })
        ));
    }

    #[test]
    fn eos_skips_ahead_of_held_probes_but_checkpoints_do_not() {
        // Regression test: pulling a checkpoint marker past unprocessed
        // probe tuples would acknowledge (and prune from the recovery
        // log) tuples that were never processed, breaking failure
        // recovery.
        let mut c = consumer();
        let build_sources = HashSet::from([0usize]);
        c.enqueue(tuple_item(StreamTag::Probe, 1, 1), &build_sources);
        c.enqueue(
            Item::Checkpoint {
                source: 1,
                cp: 0,
                epoch: 0,
            },
            &build_sources,
        );
        c.enqueue(Item::Eos { source: 0 }, &build_sources);
        // Probes are held (build not done); the EOS is pulled forward.
        assert!(matches!(
            c.next_item(&build_sources),
            Some(Item::Eos { source: 0 })
        ));
        c.eos_remaining.remove(&0);
        // Now the probe and only then its checkpoint, in FIFO order.
        assert!(matches!(
            c.next_item(&build_sources),
            Some(Item::Tuple {
                stream: StreamTag::Probe,
                ..
            })
        ));
        assert!(matches!(
            c.next_item(&build_sources),
            Some(Item::Checkpoint { cp: 0, .. })
        ));
        assert!(c.next_item(&build_sources).is_none());
        assert!(c.queues_empty());
    }

    #[test]
    fn build_source_checkpoints_ride_the_build_queue() {
        // A build-source marker must not park behind held probe tuples:
        // resilient runs withhold build EOS until the marker is acked,
        // and probes are held until build EOS — a cycle that would only
        // resolve through a retry-budget timeout.
        let mut c = consumer();
        let build_sources = HashSet::from([0usize]);
        c.enqueue(tuple_item(StreamTag::Probe, 1, 1), &build_sources);
        c.enqueue(tuple_item(StreamTag::Build, 2, 0), &build_sources);
        c.enqueue(
            Item::Checkpoint {
                source: 0,
                cp: 0,
                epoch: 0,
            },
            &build_sources,
        );
        // Build tuple first, then its marker — both ahead of the held
        // probe, preserving tuples-before-marker order.
        assert!(matches!(
            c.next_item(&build_sources),
            Some(Item::Tuple {
                stream: StreamTag::Build,
                ..
            })
        ));
        assert!(matches!(
            c.next_item(&build_sources),
            Some(Item::Checkpoint { source: 0, .. })
        ));
        assert!(c.next_item(&build_sources).is_none(), "probe still held");
    }

    #[test]
    fn single_stream_items_flow_without_gating() {
        let mut c = consumer();
        let build_sources = HashSet::new();
        c.enqueue(tuple_item(StreamTag::Single, 1, 0), &build_sources);
        c.enqueue(
            Item::Checkpoint {
                source: 0,
                cp: 0,
                epoch: 0,
            },
            &build_sources,
        );
        assert!(matches!(
            c.next_item(&build_sources),
            Some(Item::Tuple { .. })
        ));
        assert!(matches!(
            c.next_item(&build_sources),
            Some(Item::Checkpoint { .. })
        ));
    }
}
