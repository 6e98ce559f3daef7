//! One harness for three substrates: a query is described once, as a
//! [`Workload`], and run anywhere through [`run_on`].
//!
//! The paper holds the query and the perturbation fixed and varies only
//! how the query is executed; observations from different substrates
//! are comparable only if the job handed to each is the same job. A
//! [`Workload`] is that job — catalog, plan, the [`WireStageSpec`] and
//! [`ServiceResolver`] that rebuild *that plan's* stage on the far side
//! of a socket, and the standing perturbation — and its fields are
//! private so the four cannot drift apart: a caller can slow a scan or
//! perturb a node, but cannot pair a plan with another plan's wire spec.
//! [`Knobs`] says how to run it, once, and is mapped here (and only
//! here) onto `SimulationConfig`, `ThreadedConfig` and `SocketConfig`;
//! the three report types become a [`RunSummary`] here and nowhere else.

use std::collections::HashMap;
use std::sync::Arc;

use gridq_adapt::AdaptivityConfig;
use gridq_common::{ChaosHook, GridError, NodeId, Result, SimTime};
use gridq_engine::distributed::DistributedPlan;
use gridq_engine::fixtures::{self, CallShape, JoinShape};
use gridq_engine::physical::Catalog;
use gridq_engine::service::Service;
use gridq_exec::socket::{
    standard_resolver, ScriptedAdaptation, ServiceResolver, SocketConfig, SocketExecutor,
    SocketReport, WireStageSpec,
};
use gridq_exec::{
    QueryRun, QuerySubmission, RetryPolicy, ThreadedConfig, ThreadedExecutor, ThreadedReport,
};
use gridq_grid::{GridEnvironment, Perturbation, PerturbationSchedule};
use gridq_obs::ObsConfig;
use gridq_sim::{ExecutionReport, Simulation, SimulationConfig};
use gridq_workload::{
    protein_interactions, protein_sequences, EntropyAnalyser, Q1Experiment, Q2Experiment,
};

use crate::oracle::RunSummary;
use crate::runner::Substrate;

/// A query described once: what every substrate needs to run it.
#[derive(Clone)]
pub struct Workload {
    catalog: Catalog,
    plan: DistributedPlan,
    wire: WireStageSpec,
    resolver: ServiceResolver,
    /// Constant perturbations in force for the whole run, reference runs
    /// included.
    standing: HashMap<NodeId, Perturbation>,
    /// The simulator's calibrated cost model for this query (receive
    /// cost, adaptivity overheads, seed); [`Knobs`] fills in the rest.
    sim: SimulationConfig,
}

impl Workload {
    /// The Q1 shape over an integer table `name` of `rows` rows.
    pub fn call(name: &str, rows: usize, shape: &CallShape) -> Workload {
        let table = fixtures::int_table(name, 0..rows as i64);
        Workload {
            catalog: fixtures::catalog(&[&table]),
            plan: fixtures::call_plan(&table, shape),
            wire: WireStageSpec::for_call_plan(&table, shape),
            resolver: standard_resolver(),
            standing: HashMap::new(),
            sim: int_sim_config(),
        }
    }

    /// The Q2 shape: integer tables `build` and `probe` (name, rows)
    /// joined on their only column.
    pub fn join(build: (&str, usize), probe: (&str, usize), shape: &JoinShape) -> Workload {
        let build = fixtures::int_table(build.0, 0..build.1 as i64);
        let probe = fixtures::int_table(probe.0, 0..probe.1 as i64);
        Workload {
            catalog: fixtures::catalog(&[&build, &probe]),
            plan: fixtures::join_plan(&build, &probe, shape),
            wire: WireStageSpec::for_join_plan(&build, &probe, shape),
            resolver: standard_resolver(),
            standing: HashMap::new(),
            sim: int_sim_config(),
        }
    }

    /// The paper's Q1 at the experiment's size and calibration.
    pub fn q1(q1: &Q1Experiment) -> Workload {
        Workload {
            catalog: q1.catalog(),
            plan: q1.plan(),
            wire: q1_wire_spec(q1),
            resolver: entropy_resolver(),
            standing: HashMap::new(),
            sim: q1.sim_config(AdaptivityConfig::disabled()),
        }
    }

    /// The paper's Q2 at the experiment's size and calibration.
    pub fn q2(q2: &Q2Experiment) -> Workload {
        Workload {
            catalog: q2.catalog(),
            plan: q2.plan(),
            wire: q2_wire_spec(q2),
            resolver: entropy_resolver(),
            standing: HashMap::new(),
            sim: q2.sim_config(AdaptivityConfig::disabled()),
        }
    }

    /// Perturbs `node` for the whole run, on every substrate.
    pub fn perturbed(mut self, node: NodeId, perturbation: Perturbation) -> Workload {
        self.standing.insert(node, perturbation);
        self
    }

    /// Replaces the per-tuple scan cost of each source, in plan order.
    /// Scan costs pace the producers; they never change a result value
    /// or the stage the wire spec describes.
    pub fn scan_cost_ms(mut self, costs: &[f64]) -> Workload {
        assert_eq!(costs.len(), self.plan.sources.len(), "one cost per source");
        for (source, cost) in self.plan.sources.iter_mut().zip(costs) {
            source.scan_cost_ms = *cost;
        }
        self
    }

    /// Runs the workload on the simulator (results collected).
    pub fn simulate(&self, knobs: &Knobs) -> Result<ExecutionReport> {
        let evaluators = self.plan.stages.first().map_or(0, |s| s.nodes.len());
        let mut env = GridEnvironment::demo(evaluators);
        // One schedule per node: the standing perturbation from time
        // zero, then each burst from its start.
        let mut phases: HashMap<NodeId, Vec<(f64, Perturbation)>> = HashMap::new();
        for (node, p) in &self.standing {
            phases.entry(*node).or_default().push((0.0, p.clone()));
        }
        for (node, from_ms, p) in &knobs.bursts {
            let phase = (from_ms.max(0.0), p.clone());
            phases.entry(*node).or_default().push(phase);
        }
        for (node, mut list) in phases {
            list.sort_by(|a, b| a.0.total_cmp(&b.0));
            let schedule = list
                .into_iter()
                .fold(PerturbationSchedule::none(), |s, (from, p)| {
                    s.then_at(SimTime::from_millis(from), p)
                });
            env.set_perturbation(node, schedule);
        }
        let config = SimulationConfig {
            adaptivity: knobs.adaptivity.clone(),
            checkpoint_interval: knobs.checkpoint_interval,
            collect_results: true,
            obs: knobs.obs.clone(),
            chaos: knobs.chaos.clone(),
            ..self.sim.clone()
        };
        Simulation::new(env, self.catalog.clone(), config)?
            .run_with_failures(&self.plan, &knobs.node_failures)
    }

    /// Runs the workload on the threaded executor.
    pub fn run_threaded(&self, knobs: &Knobs) -> Result<ThreadedReport> {
        ThreadedExecutor::new(self.catalog.clone(), self.threaded_config(knobs)?).run(&self.plan)
    }

    /// Runs the workload over sockets. This substrate runs no live
    /// control loop yet: it deploys [`Knobs::script`] and ignores
    /// `adaptivity`, `failover` and `obs`.
    pub fn run_socket(&self, knobs: &Knobs) -> Result<SocketReport> {
        SocketExecutor::new(self.catalog.clone(), self.socket_config(knobs)?).run(&self.plan)
    }

    /// The same run as a service-plane submission (`QueryService` runs
    /// queries on the two real substrates only).
    pub fn submission(&self, substrate: Substrate, knobs: &Knobs) -> Result<QuerySubmission> {
        let run = match substrate {
            Substrate::Sim => {
                return Err(GridError::Config(
                    "the service plane multiplexes live queries; the simulator has none".into(),
                ))
            }
            Substrate::Threaded => QueryRun::threaded(self.threaded_config(knobs)?),
            Substrate::Socket => QueryRun::Socket(Box::new(self.socket_config(knobs)?)),
        };
        Ok(QuerySubmission {
            catalog: self.catalog.clone(),
            plan: self.plan.clone(),
            run,
        })
    }

    /// What the real substrates apply for the whole run: their
    /// perturbations are constant by design, so a burst's start time is
    /// dropped and its factor replaces the node's standing one.
    fn constant_perturbations(&self, knobs: &Knobs) -> HashMap<NodeId, Perturbation> {
        let mut perturbations = self.standing.clone();
        for (node, _from_ms, p) in &knobs.bursts {
            perturbations.insert(*node, p.clone());
        }
        perturbations
    }

    fn threaded_config(&self, knobs: &Knobs) -> Result<ThreadedConfig> {
        knobs.no_virtual_failures()?;
        Ok(ThreadedConfig {
            adaptivity: knobs.adaptivity.clone(),
            cost_scale: knobs.cost_scale,
            perturbations: self.constant_perturbations(knobs),
            receive_cost_ms: knobs.receive_cost_ms,
            checkpoint_interval: knobs.checkpoint_interval,
            obs: knobs.obs.clone(),
            recall_timeout_ms: knobs.recall_timeout_ms,
            chaos: knobs.chaos.clone(),
            delivery_retry: knobs.delivery_retry.clone(),
            failover: knobs.failover,
            tenancy: None,
        })
    }

    fn socket_config(&self, knobs: &Knobs) -> Result<SocketConfig> {
        knobs.no_virtual_failures()?;
        let mut config = SocketConfig::new(self.wire.clone(), Arc::clone(&self.resolver));
        config.cost_scale = knobs.cost_scale;
        config.receive_cost_ms = knobs.receive_cost_ms;
        config.checkpoint_interval = knobs.checkpoint_interval;
        config.recall_timeout_ms = knobs.recall_timeout_ms;
        config.delivery_retry = knobs.delivery_retry.clone();
        config.chaos = knobs.chaos.clone();
        config.adaptations = knobs.script.clone();
        config.perturbations = self.constant_perturbations(knobs);
        Ok(config)
    }
}

/// How to run a [`Workload`]: everything that is not the query. One
/// value describes the run on all three substrates; a knob a substrate
/// has no use for is ignored there (`cost_scale` and `receive_cost_ms`
/// in virtual time, where the workload's calibrated model applies
/// instead; `script` off sockets).
#[derive(Clone)]
pub struct Knobs {
    /// The adaptivity policy (`Policy::adaptivity()` or a tuned one).
    pub adaptivity: AdaptivityConfig,
    /// What the policy would deploy, scripted: the socket substrate's
    /// stand-in for the live loop.
    pub script: Vec<ScriptedAdaptation>,
    /// Real milliseconds per modelled millisecond on the real substrates.
    pub cost_scale: f64,
    /// Per-tuple receive cost on the real substrates, model ms.
    pub receive_cost_ms: f64,
    /// Tuples per recovery-log checkpoint window.
    pub checkpoint_interval: usize,
    /// Recall barrier time-out on the real substrates, wall-clock ms.
    pub recall_timeout_ms: u64,
    /// Fault-injection hook (switches the run into resilient mode).
    pub chaos: Option<Arc<dyn ChaosHook>>,
    /// Delivery retry/backoff on the real substrates.
    pub delivery_retry: RetryPolicy,
    /// Failover of a crashed consumer (threads only): its exit notice
    /// starts a recall that replays its recovery-log entries.
    pub failover: bool,
    /// Observability layer.
    pub obs: ObsConfig,
    /// Perturbation bursts on top of the workload's standing one:
    /// (node, start in virtual ms, perturbation).
    pub bursts: Vec<(NodeId, f64, Perturbation)>,
    /// Evaluator nodes that die at a virtual time (simulator only).
    pub node_failures: Vec<(NodeId, SimTime)>,
}

impl Default for Knobs {
    /// A static run at the executors' own defaults.
    fn default() -> Self {
        let exec = ThreadedConfig::default();
        Knobs {
            adaptivity: AdaptivityConfig::disabled(),
            script: Vec::new(),
            cost_scale: exec.cost_scale,
            receive_cost_ms: exec.receive_cost_ms,
            checkpoint_interval: exec.checkpoint_interval,
            recall_timeout_ms: exec.recall_timeout_ms,
            chaos: None,
            delivery_retry: exec.delivery_retry,
            failover: exec.failover,
            obs: exec.obs,
            bursts: Vec::new(),
            node_failures: Vec::new(),
        }
    }
}

impl Knobs {
    /// The real substrates cannot kill a node at a virtual time.
    fn no_virtual_failures(&self) -> Result<()> {
        if self.node_failures.is_empty() {
            return Ok(());
        }
        Err(GridError::Config(
            "a node failure at a virtual time needs the simulator; the real \
             substrates kill workers through the chaos hook"
                .into(),
        ))
    }
}

/// Runs `workload` on `substrate` and summarises the run for the
/// oracles.
pub fn run_on(substrate: Substrate, workload: &Workload, knobs: &Knobs) -> Result<RunSummary> {
    match substrate {
        Substrate::Sim => workload.simulate(knobs).map(RunSummary::from),
        Substrate::Threaded => workload.run_threaded(knobs).map(RunSummary::from),
        Substrate::Socket => workload.run_socket(knobs).map(RunSummary::from),
    }
}

impl From<ExecutionReport> for RunSummary {
    fn from(report: ExecutionReport) -> RunSummary {
        RunSummary {
            results: fixtures::multiset(&report.results),
            log_audits: report.log_audits,
            adaptations_deployed: report.adaptations_deployed,
            state_tuples_migrated: report.state_tuples_migrated,
            tuples_recalled: report.tuples_redistributed,
            nodes_failed: report.nodes_failed,
            final_distribution: report.final_distribution,
            obs: report.obs,
            ..RunSummary::default()
        }
    }
}

/// Both real substrates. A socket run reports no node failures (a dead
/// process is a dead connection, healed by reconnect + retransmission)
/// and no `obs` yet, so the timeline and teardown oracles pass trivially.
impl From<ThreadedReport> for RunSummary {
    fn from(report: ThreadedReport) -> RunSummary {
        RunSummary {
            results: fixtures::multiset(&report.results),
            log_audits: report.log_audits,
            adaptations_deployed: report.adaptations_deployed,
            state_tuples_migrated: report.state_tuples_migrated,
            tuples_recalled: report.tuples_recalled,
            nodes_failed: report.nodes_failed,
            final_distribution: report.final_distribution,
            obs: report.obs,
            recall_blocks: report.recall_blocks,
            largest_frame_bytes: report.largest_frame_bytes,
        }
    }
}

/// The simulator's cost model for the integer shapes.
fn int_sim_config() -> SimulationConfig {
    SimulationConfig {
        receive_cost_ms: 0.5,
        ..Default::default()
    }
}

/// Resolver for the experiments' analysis service: spec names cross the
/// wire, implementations are reconstructed locally.
fn entropy_resolver() -> ServiceResolver {
    Arc::new(|name: &str, cost_ms: f64| {
        (name == "EntropyAnalyser")
            .then(|| Arc::new(EntropyAnalyser::new(cost_ms)) as Arc<dyn Service>)
    })
}

/// The wire form of Q1's `ServiceCallFactory`.
fn q1_wire_spec(q1: &Q1Experiment) -> WireStageSpec {
    WireStageSpec::ServiceCall {
        input_schema: protein_sequences(1, q1.seq_len, q1.seed).schema().clone(),
        service: "EntropyAnalyser".into(),
        service_cost_ms: q1.ws_cost_ms,
        arg_cols: vec![1],
        output_name: "entropy".into(),
        keep_input: false,
    }
}

/// The wire form of Q2's `HashJoinFactory`.
fn q2_wire_spec(q2: &Q2Experiment) -> WireStageSpec {
    WireStageSpec::HashJoin {
        build_schema: protein_sequences(1, q2.seq_len, q2.seed).schema().clone(),
        probe_schema: protein_interactions(1, 1, q2.seed).schema().clone(),
        build_key: 0,
        probe_key: 0,
        build_cost_ms: q2.build_cost_ms,
        probe_cost_ms: q2.probe_cost_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{conservation, log_conservation};
    use crate::runner::Policy;
    use gridq_common::{Tuple, Value};
    use gridq_recovery::LogAudit;

    /// An honest report passes both oracles against `reference`; the
    /// same report from a backend that drops one result tuple, swaps one
    /// value, or reports one unbalanced recovery log must fail them —
    /// through nothing but the summary `run_on` builds.
    fn wrong_backends_fail<R: Clone + Into<RunSummary>>(
        reference: &RunSummary,
        honest: R,
        results: fn(&mut R) -> &mut Vec<Tuple>,
        audits: fn(&mut R) -> &mut Vec<LogAudit>,
    ) {
        let summary: RunSummary = honest.clone().into();
        assert!(conservation(reference, &summary).passed);
        assert!(log_conservation(&summary).passed);
        assert!(!summary.log_audits.is_empty(), "R1 runs keep recovery logs");

        let mut dropped = honest.clone();
        results(&mut dropped).pop();
        let verdict = conservation(reference, &dropped.into());
        assert!(
            !verdict.passed,
            "a lost tuple must fail: {}",
            verdict.detail
        );

        let mut swapped = honest.clone();
        results(&mut swapped)[0] = Tuple::new(vec![Value::Int(-1)]);
        let verdict = conservation(reference, &swapped.into());
        assert!(
            !verdict.passed,
            "a wrong value must fail: {}",
            verdict.detail
        );
        assert!(verdict.detail.contains("1 missing, 1 unexpected"));

        let mut leaky = honest;
        audits(&mut leaky)[0].unacked += 1;
        let verdict = log_conservation(&leaky.into());
        assert!(!verdict.passed, "a leaky log must fail: {}", verdict.detail);
    }

    #[test]
    fn a_wrong_backend_fails_the_oracles_through_its_summary() {
        let w = Workload::call("t", 60, &CallShape::default());
        let knobs = Knobs {
            adaptivity: Policy::R1.adaptivity(),
            cost_scale: 0.002,
            ..Knobs::default()
        };
        let reference = run_on(Substrate::Sim, &w, &knobs).unwrap();
        assert_eq!(reference.results.len(), 60);
        wrong_backends_fail(
            &reference,
            w.simulate(&knobs).unwrap(),
            |r| &mut r.results,
            |r| &mut r.log_audits,
        );
        wrong_backends_fail(
            &reference,
            w.run_threaded(&knobs).unwrap(),
            |r| &mut r.results,
            |r| &mut r.log_audits,
        );
    }

    /// A recall costs what it moves, on both real substrates: the build
    /// is still streaming and hundreds of probes are held when `W′`
    /// lands, and only the state and the held probes of the buckets it
    /// moves leave their worker (the parent's socket workers gave up
    /// every held probe and took most of them back). On sockets that is
    /// also the frame bound at its edge: per-worker results and
    /// surrendered state are each many blocks, and no sequenced payload
    /// may outgrow one block of tuples.
    #[test]
    fn a_recall_moves_blocks_and_no_frame_outgrows_one() {
        let shape = JoinShape {
            scan_cost_ms: [0.2, 1.0],
            ..JoinShape::default()
        };
        let (build, probe) = (4000, 400);
        let w = Workload::join(("build", build), ("probe", probe), &shape)
            .perturbed(NodeId::new(2), Perturbation::CostFactor(10.0));
        // Live A1/R1 on sim and threads; over sockets, its recall scripted.
        let knobs = Knobs {
            adaptivity: Policy::R1.adaptivity(),
            script: vec![ScriptedAdaptation {
                after_routed: 2000,
                weights: vec![0.25, 0.75],
                retrospective: true,
            }],
            cost_scale: 0.002,
            ..Knobs::default()
        };
        let reference = run_on(Substrate::Sim, &w, &knobs).unwrap();
        assert_eq!(reference.results.len(), probe, "every probe joins one row");
        let block = shape.buffer_tuples as u64;
        let partitions = shape.evaluators as u64;
        for substrate in [Substrate::Threaded, Substrate::Socket] {
            let run = run_on(substrate, &w, &knobs).unwrap();
            let name = substrate.name();
            assert!(conservation(&reference, &run).passed, "{name}");
            assert!(log_conservation(&run).passed, "{name}");
            // What left a worker is what moved: it crosses twice —
            // surrendered, re-delivered — each way in whole blocks plus
            // one partial block per partition and recall.
            let moved = run.state_tuples_migrated + run.tuples_recalled;
            let partials = partitions * run.adaptations_deployed;
            let blocks_bound = 2 * (moved.div_ceil(block) + partials);
            assert!(
                run.recall_blocks <= blocks_bound,
                "{name}: {} recall blocks for {moved} tuples, bound {blocks_bound}",
                run.recall_blocks
            );
            if substrate != Substrate::Socket {
                continue;
            }
            assert_eq!(run.adaptations_deployed, 1);
            assert!(
                run.state_tuples_migrated > 20 * block,
                "the surrendered state must be many blocks: {}",
                run.state_tuples_migrated
            );
            assert!(
                probe as u64 / partitions > 10 * block,
                "so must the results"
            );
            // One block of single-integer tuples: under 32 bytes an
            // entry (stream, source, arity, tagged value, sequence
            // number), plus tag, counts and a marker or two. CONFIG, the
            // largest frame that carries no tuples, is smaller.
            let frame_bound = 64 + 32 * block;
            assert!(
                (1..=frame_bound).contains(&run.largest_frame_bytes),
                "largest frame {} bytes, bound {frame_bound}",
                run.largest_frame_bytes
            );
            // One frame a tuple, as before, would have been at least this
            // many.
            assert!((1..run.state_tuples_migrated).contains(&run.recall_blocks));
        }
    }

    #[test]
    fn the_service_plane_and_virtual_time_failures_name_their_substrates() {
        let w = Workload::call("t", 10, &CallShape::default());
        let err = w.submission(Substrate::Sim, &Knobs::default()).err();
        assert!(matches!(err, Some(GridError::Config(_))), "{err:?}");
        let dying = Knobs {
            node_failures: vec![(NodeId::new(2), SimTime::from_millis(1.0))],
            ..Knobs::default()
        };
        for real in [Substrate::Threaded, Substrate::Socket] {
            let err = run_on(real, &w, &dying).unwrap_err();
            assert!(err.to_string().contains("simulator"), "{err}");
        }
    }
}
