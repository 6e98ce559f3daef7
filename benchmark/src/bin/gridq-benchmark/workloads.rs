//! The four workloads: how each is set up, run once, and judged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use gridq_adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq_benchmark::digest::Digest;
use gridq_benchmark::nullcost::NULL_COST_SCALE;
use gridq_benchmark::procfs;
use gridq_common::{NodeId, Result, Tuple};
use gridq_engine::AdmissionConfig;
use gridq_exec::socket::{
    ScriptedAdaptation, ServiceResolver, SocketConfig, SocketExecutor, SocketReport, WireStageSpec,
};
use gridq_exec::{
    QueryOutcome, QueryRun, QueryService, QuerySubmission, ServiceConfig, ThreadedConfig,
    ThreadedExecutor, ThreadedReport,
};
use gridq_grid::Perturbation;
use gridq_obs::{ObsConfig, ObsReport};
use gridq_recovery::LogAudit;
use gridq_workload::{Q1Experiment, Q2Experiment};

use crate::inputs::{self, Input, Sizes};
use crate::measure::{cpu_ticks, Clock, Op, Phase};
use crate::trace::Path;

/// Which substrate ran an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Substrate {
    #[default]
    Threaded,
    Socket,
}

/// What the traced pass reads out of an executor's report.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    pub substrate: Substrate,
    /// The executor's own `wall_ms`, inside the caller's.
    pub report_wall_ms: f64,
    pub per_partition: Vec<u64>,
    pub deploys: u64,
    pub raw_m1: u64,
    pub recalls_completed: u64,
    pub recalls_aborted: u64,
    pub state_migrated: u64,
    pub tuples_recalled: u64,
    pub retransmitted: u64,
    pub dedup_peak: u64,
    pub send_failures: u64,
    pub reconnects: u64,
    pub final_distribution: Vec<f64>,
    pub obs: Option<ObsReport>,
}

/// How a workload is run: as defined, with obs on where the substrate
/// has one, or with its adaptation taken out (the base a recall's cost
/// is measured against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Plain,
    Traced,
    Static,
}

fn obs(variant: Variant) -> ObsConfig {
    if variant == Variant::Traced {
        ObsConfig::default()
    } else {
        ObsConfig::disabled()
    }
}

/// The failures every substrate shares: a wrong result multiset, a
/// recovery log that lost or double-counted an entry, an undelivered
/// window, a block pushed at a dead consumer.
fn judge(
    results: &[Tuple],
    reference: &Digest,
    audits: &[LogAudit],
    gaps: usize,
    send_failures: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let got = Digest::of(results);
    if got != *reference {
        failures.push(format!(
            "result digest {got} differs from reference {reference}"
        ));
    }
    if let Some(i) = audits.iter().position(|a| !a.conserved()) {
        failures.push(format!(
            "recovery log of source {i} not conserved: {:?}",
            audits[i]
        ));
    }
    if gaps > 0 {
        failures.push(format!("{gaps} delivery gap(s)"));
    }
    if send_failures > 0 {
        failures.push(format!("{send_failures} tuple(s) pushed at a closed ring"));
    }
    failures
}

fn judge_threaded(r: Result<ThreadedReport>, reference: &Digest) -> (Vec<String>, Facts) {
    match r {
        Err(e) => (vec![format!("run failed: {e}")], Facts::default()),
        Ok(r) => (
            judge(
                &r.results,
                reference,
                &r.log_audits,
                r.delivery_gaps.len(),
                r.send_failures,
            ),
            Facts {
                substrate: Substrate::Threaded,
                report_wall_ms: r.wall_ms,
                per_partition: r.per_partition_processed,
                deploys: r.adaptations_deployed,
                raw_m1: r.raw_m1_events,
                recalls_completed: r.recalls_completed,
                recalls_aborted: r.recalls_aborted,
                state_migrated: r.state_tuples_migrated,
                tuples_recalled: r.tuples_recalled,
                retransmitted: r.tuples_retransmitted,
                dedup_peak: r.dedup_peak_entries,
                send_failures: r.send_failures,
                reconnects: 0,
                final_distribution: r.final_distribution,
                obs: r.obs,
            },
        ),
    }
}

fn judge_socket(r: Result<SocketReport>, reference: &Digest) -> (Vec<String>, Facts) {
    match r {
        Err(e) => (vec![format!("run failed: {e}")], Facts::default()),
        Ok(r) => (
            judge(
                &r.results,
                reference,
                &r.log_audits,
                r.delivery_gaps.len(),
                r.send_failures,
            ),
            Facts {
                substrate: Substrate::Socket,
                report_wall_ms: r.wall_ms,
                per_partition: r.per_partition_processed,
                deploys: r.adaptations_deployed,
                raw_m1: 0,
                recalls_completed: r.recalls_completed,
                recalls_aborted: r.recalls_aborted,
                state_migrated: r.state_tuples_migrated,
                tuples_recalled: r.tuples_recalled,
                retransmitted: r.tuples_retransmitted,
                dedup_peak: r.dedup_peak_entries,
                send_failures: r.send_failures,
                reconnects: r.reconnects,
                final_distribution: r.final_distribution,
                obs: None,
            },
        ),
    }
}

/// Times `run` from the caller's side.
fn timed<R>(clock: &Clock, run: impl FnOnce() -> R) -> (f64, R) {
    let t0 = clock.ns();
    let out = run();
    ((clock.ns() - t0) as f64 / 1e6, out)
}

/// A workload whose operation is one whole query from one caller.
pub trait WholeQuery {
    /// The executor's report type.
    type Report;
    /// Input tuples one operation scans.
    fn tuples(&self) -> u64;
    /// Input sizes and knobs a reader needs to compare runs.
    fn sizes(&self) -> Vec<(&'static str, u64)>;
    /// Table generation alone, nanoseconds per tuple.
    fn gen_ns_per_tuple(&self) -> f64;
    /// Runs the query once; returns caller-side wall milliseconds.
    fn run(&self, clock: &Clock, variant: Variant) -> (f64, Result<Self::Report>);
    /// Judges one report.
    fn check(&self, report: Result<Self::Report>, variant: Variant) -> (Vec<String>, Facts);
    /// Which layers the traced pass replays for this workload.
    fn path(&self) -> Path<'_>;
}

// ---------------------------------------------------------------------------

/// `q1_null_threaded`.
pub struct Q1NullThreaded {
    pub input: Input<Q1Experiment>,
}

impl Q1NullThreaded {
    pub fn setup(clock: &Clock, sizes: &Sizes, seed: u64) -> Result<Self> {
        let input = inputs::q1_input(clock, sizes.q1_tuples, seed)?;
        let receive = ThreadedConfig::default().receive_cost_ms;
        inputs::assert_null_cost(&input.plan, input.exp.ws_cost_ms, receive)?;
        Ok(Q1NullThreaded { input })
    }
}

impl WholeQuery for Q1NullThreaded {
    type Report = ThreadedReport;

    fn tuples(&self) -> u64 {
        self.input.tuples
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("tuples", self.input.tuples),
            ("evaluators", self.input.exp.evaluators as u64),
            ("buffer_tuples", self.input.exp.buffer_tuples as u64),
        ]
    }

    fn gen_ns_per_tuple(&self) -> f64 {
        self.input.gen_ns_per_tuple()
    }

    fn run(&self, clock: &Clock, variant: Variant) -> (f64, Result<ThreadedReport>) {
        // Default adaptivity is the paper's: A1/R2, one M1 per 10 tuples.
        let exec = ThreadedExecutor::new(
            self.input.catalog.clone(),
            ThreadedConfig {
                cost_scale: NULL_COST_SCALE,
                obs: obs(variant),
                ..Default::default()
            },
        );
        timed(clock, || exec.run(&self.input.plan))
    }

    fn check(&self, report: Result<ThreadedReport>, _: Variant) -> (Vec<String>, Facts) {
        let (mut failures, facts) = judge_threaded(report, &self.input.reference);
        if facts.deploys != 0 {
            failures.push(format!(
                "{} adaptation(s) deployed on an unperturbed run",
                facts.deploys
            ));
        }
        (failures, facts)
    }

    fn path(&self) -> Path<'_> {
        Path::Q1Threaded(&self.input)
    }
}

// ---------------------------------------------------------------------------

/// `q2_recall_sockets`.
pub struct Q2RecallSockets {
    pub input: Input<Q2Experiment>,
}

impl Q2RecallSockets {
    pub fn setup(clock: &Clock, sizes: &Sizes, seed: u64) -> Result<Self> {
        let input = inputs::q2_input(clock, sizes.q2_sequences, sizes.q2_interactions, seed)?;
        let dearest = input.exp.probe_cost_ms.max(input.exp.build_cost_ms);
        inputs::assert_null_cost(&input.plan, dearest, input.exp.receive_cost_ms)?;
        Ok(Q2RecallSockets { input })
    }

    /// The routed-tuple count at which the scripted recall fires: every
    /// build tuple and a quarter of the probes are out.
    pub fn recall_after(&self) -> u64 {
        (self.input.exp.sequences + self.input.exp.interactions / 4) as u64
    }
}

/// The distribution the scripted recall deploys.
pub const RECALL_WEIGHTS: [f64; 2] = [0.25, 0.75];

impl WholeQuery for Q2RecallSockets {
    type Report = SocketReport;

    fn tuples(&self) -> u64 {
        self.input.tuples
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sequences", self.input.exp.sequences as u64),
            ("interactions", self.input.exp.interactions as u64),
            ("hash_buckets", u64::from(self.input.exp.bucket_count)),
            ("recall_after_routed", self.recall_after()),
        ]
    }

    fn gen_ns_per_tuple(&self) -> f64 {
        self.input.gen_ns_per_tuple()
    }

    fn run(&self, clock: &Clock, variant: Variant) -> (f64, Result<SocketReport>) {
        let exp = &self.input.exp;
        let mut config = SocketConfig::new(inputs::q2_spec(exp), inputs::resolver());
        config.cost_scale = NULL_COST_SCALE;
        config.receive_cost_ms = exp.receive_cost_ms;
        if variant != Variant::Static {
            config.adaptations = vec![ScriptedAdaptation {
                after_routed: self.recall_after(),
                weights: RECALL_WEIGHTS.to_vec(),
                retrospective: true,
            }];
        }
        let exec = SocketExecutor::new(self.input.catalog.clone(), config);
        timed(clock, || exec.run(&self.input.plan))
    }

    fn check(&self, report: Result<SocketReport>, variant: Variant) -> (Vec<String>, Facts) {
        let (mut failures, facts) = judge_socket(report, &self.input.reference);
        let want = u64::from(variant != Variant::Static);
        if failures.is_empty() && (facts.recalls_completed != want || facts.recalls_aborted != 0) {
            failures.push(format!(
                "{} recall(s) completed and {} aborted, expected {want} and 0",
                facts.recalls_completed, facts.recalls_aborted
            ));
        }
        (failures, facts)
    }

    fn path(&self) -> Path<'_> {
        Path::Q2Sockets(self)
    }
}

// ---------------------------------------------------------------------------

/// `q2_perturbed_r1_threaded`.
pub struct Q2PerturbedThreaded {
    pub input: Input<Q2Experiment>,
}

/// The cost factor on node 2, from the start of the run.
pub const PERTURBATION_FACTOR: f64 = 10.0;
/// Model milliseconds to real milliseconds on the paper-fidelity run.
pub const PAPER_COST_SCALE: f64 = 0.01;

impl Q2PerturbedThreaded {
    pub fn setup(clock: &Clock, seed: u64) -> Result<Self> {
        let d = Q2Experiment::default();
        Ok(Q2PerturbedThreaded {
            input: inputs::q2_input(clock, d.sequences, d.interactions, seed)?,
        })
    }
}

impl WholeQuery for Q2PerturbedThreaded {
    type Report = ThreadedReport;

    fn tuples(&self) -> u64 {
        self.input.tuples
    }

    fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sequences", self.input.exp.sequences as u64),
            ("interactions", self.input.exp.interactions as u64),
            ("hash_buckets", u64::from(self.input.exp.bucket_count)),
        ]
    }

    fn gen_ns_per_tuple(&self) -> f64 {
        self.input.gen_ns_per_tuple()
    }

    fn run(&self, clock: &Clock, variant: Variant) -> (f64, Result<ThreadedReport>) {
        let mut perturbations = HashMap::new();
        perturbations.insert(
            NodeId::new(2),
            Perturbation::CostFactor(PERTURBATION_FACTOR),
        );
        let exec = ThreadedExecutor::new(
            self.input.catalog.clone(),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::with_policies(
                    AssessmentPolicy::A1,
                    ResponsePolicy::R1,
                ),
                cost_scale: PAPER_COST_SCALE,
                receive_cost_ms: self.input.exp.receive_cost_ms,
                perturbations,
                obs: obs(variant),
                ..Default::default()
            },
        );
        timed(clock, || exec.run(&self.input.plan))
    }

    fn check(&self, report: Result<ThreadedReport>, _: Variant) -> (Vec<String>, Facts) {
        let (mut failures, facts) = judge_threaded(report, &self.input.reference);
        if failures.is_empty() && (facts.deploys == 0 || facts.recalls_completed == 0) {
            failures.push(format!(
                "{} deploy(s) and {} completed recall(s) under a 10x perturbation, expected at \
                 least one of each",
                facts.deploys, facts.recalls_completed
            ));
        }
        (failures, facts)
    }

    fn path(&self) -> Path<'_> {
        Path::Q2Perturbed
    }
}

// ---------------------------------------------------------------------------

/// `service_mixed`.
pub struct ServiceMixed {
    pub input: Input<Q1Experiment>,
    /// Caller threads: one per core, between 2 and 4.
    pub sessions: usize,
    /// The stage as socket workers rebuild it, made once: building a
    /// submission is the caller's work and should stay negligible.
    spec: WireStageSpec,
    resolver: ServiceResolver,
}

impl ServiceMixed {
    pub fn setup(clock: &Clock, sizes: &Sizes, seed: u64) -> Result<Self> {
        let input = inputs::q1_input(clock, sizes.service_tuples, seed)?;
        let receive = ThreadedConfig::default().receive_cost_ms;
        inputs::assert_null_cost(&input.plan, input.exp.ws_cost_ms, receive)?;
        Ok(ServiceMixed {
            spec: inputs::q1_spec(&input.exp),
            resolver: inputs::resolver(),
            input,
            sessions: nproc().clamp(2, 4),
        })
    }

    pub fn sizes(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("tuples_per_query", self.input.tuples),
            ("sessions", self.sessions as u64),
            ("max_concurrent", (self.sessions / 2) as u64),
            ("queue_depth", self.sessions as u64),
        ]
    }

    /// A service with half as many run slots as callers, and a queue deep
    /// enough that no caller is ever refused.
    pub fn service(&self) -> Result<QueryService> {
        QueryService::new(ServiceConfig {
            admission: AdmissionConfig {
                max_concurrent: self.sessions / 2,
                queue_depth: self.sessions,
            },
            ..ServiceConfig::default()
        })
    }

    fn submission(&self, substrate: Substrate, variant: Variant) -> QuerySubmission {
        let run = match substrate {
            Substrate::Threaded => QueryRun::threaded(ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: NULL_COST_SCALE,
                obs: obs(variant),
                ..Default::default()
            }),
            Substrate::Socket => {
                let mut config = SocketConfig::new(self.spec.clone(), self.resolver.clone());
                config.cost_scale = NULL_COST_SCALE;
                QueryRun::Socket(Box::new(config))
            }
        };
        QuerySubmission {
            catalog: self.input.catalog.clone(),
            plan: self.input.exp.plan(),
            run,
        }
    }

    /// The closed loop, think time 0: every session submits its next
    /// query the moment the previous one returns, alternating substrates,
    /// until `seconds` have passed and `min_queries` are in. A query is
    /// timed from submission to return, admission wait included.
    pub fn run_phase(
        &self,
        clock: &Clock,
        service: &QueryService,
        seconds: f64,
        min_queries: usize,
        variant: Variant,
    ) -> Phase<Facts> {
        let done = AtomicU64::new(0);
        let started = clock.secs();
        let ticks_before = cpu_ticks();
        let per_session: Vec<Vec<Op<Facts>>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..self.sessions)
                .map(|session| {
                    let done = &done;
                    scope.spawn(move || {
                        let mut ops = Vec::new();
                        let mut seq = 0usize;
                        while (done.load(Ordering::Relaxed) as usize) < min_queries
                            || clock.secs() - started < seconds
                        {
                            let substrate = if (session + seq).is_multiple_of(2) {
                                Substrate::Threaded
                            } else {
                                Substrate::Socket
                            };
                            let submission = self.submission(substrate, variant);
                            let (wall_ms, (_, outcome)) =
                                timed(clock, || service.submit_and_wait(submission));
                            let (failures, facts) = self.check(outcome);
                            ops.push(Op {
                                wall_ms,
                                failures,
                                facts,
                            });
                            done.fetch_add(1, Ordering::Relaxed);
                            seq += 1;
                        }
                        ops
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a benchmark session thread panicked"))
                .collect()
        });
        let mut phase = Phase::empty();
        phase.wall_s = clock.secs() - started;
        phase.cpu_ms = procfs::ticks_to_ms(cpu_ticks().saturating_sub(ticks_before));
        for op in per_session.into_iter().flatten() {
            phase.record(op);
        }
        phase
    }

    fn check(&self, outcome: QueryOutcome) -> (Vec<String>, Facts) {
        match outcome {
            QueryOutcome::Threaded(r) => judge_threaded(Ok(r), &self.input.reference),
            QueryOutcome::Socket(r) => judge_socket(Ok(r), &self.input.reference),
            QueryOutcome::Rejected { reason } => {
                (vec![format!("rejected: {reason}")], Facts::default())
            }
            QueryOutcome::Failed { error } => (vec![format!("failed: {error}")], Facts::default()),
        }
    }
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}
