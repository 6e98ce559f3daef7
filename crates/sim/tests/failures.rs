//! Fault-tolerance tests: evaluator nodes fail mid-query and the
//! recovery logs (the same substrate that powers retrospective
//! adaptation) restore the lost work on the survivors — exactly once.
//!
//! A node dies the way it does on every substrate: a chaos hook kills a
//! worker on the `nth` buffer it receives (`crash_worker`), and the
//! simulator fails that partition's node at that instant. Each death
//! leaves a paired NodeDown/Failover trace in the adaptivity timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridq_adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy, COOLDOWN_MS};
use gridq_common::{ChaosHook, NodeId, RecallPhase, SimTime, Tuple};
use gridq_engine::fixtures::{call_plan, catalog, int_table, join_plan, CallShape, JoinShape};
use gridq_engine::table::Table;
use gridq_engine::DistributedPlan;
use gridq_grid::{GridEnvironment, Perturbation, PerturbationSchedule};
use gridq_obs::{RunReport, TimelineKind};
use gridq_sim::{Simulation, SimulationConfig};

/// The Q1 shape of these tests over `evaluators` partitions.
fn call_shape(evaluators: usize) -> CallShape {
    CallShape {
        evaluators,
        service_cost_ms: 1.5,
        scan_cost_ms: 0.5,
        buffer_tuples: 20,
    }
}

/// The Q2 shape of these tests over two partitions.
fn join_shape() -> JoinShape {
    JoinShape {
        build_cost_ms: 0.2,
        probe_cost_ms: 1.5,
        scan_cost_ms: [0.3, 0.3],
        bucket_count: 32,
        buffer_tuples: 20,
        ..Default::default()
    }
}

/// Kills each listed worker on the `nth` buffer it receives, and counts
/// what every worker received.
#[derive(Debug)]
struct Crashes {
    /// `(worker, nth)` pairs.
    at: Vec<(usize, u64)>,
    received: [AtomicU64; 3],
}

impl Crashes {
    fn new(at: &[(usize, u64)]) -> Arc<Crashes> {
        Arc::new(Crashes {
            at: at.to_vec(),
            received: Default::default(),
        })
    }

    fn received(&self, worker: usize) -> u64 {
        self.received[worker].load(Ordering::Relaxed)
    }
}

impl ChaosHook for Crashes {
    fn crash_worker(&self, worker: usize, _recall: Option<RecallPhase>) -> bool {
        let n = self.received[worker].fetch_add(1, Ordering::Relaxed) + 1;
        self.at.contains(&(worker, n))
    }
}

/// The tests' simulation: results collected, recovery windows as large
/// as an exchange buffer, and `hook` installed.
fn sim(
    env: GridEnvironment,
    tables: &[&Arc<Table>],
    adaptivity: AdaptivityConfig,
    hook: Arc<Crashes>,
) -> Simulation {
    let config = SimulationConfig {
        adaptivity,
        collect_results: true,
        receive_cost_ms: 0.5,
        checkpoint_interval: 20,
        chaos: Some(hook),
        ..Default::default()
    };
    Simulation::new(env, catalog(tables), config).unwrap()
}

/// A run with a hook that kills nobody, and the buffers each worker
/// received in it: a crash on a fraction of that count lands the same
/// fraction of the way through the worker's input.
fn healthy(
    sim_for: impl Fn(Arc<Crashes>) -> Simulation,
    plan: &DistributedPlan,
) -> (RunReport, Crashes) {
    let counter = Crashes::new(&[]);
    let report = sim_for(Arc::clone(&counter)).run(plan).unwrap();
    assert_eq!(report.nodes_failed, 0);
    (
        report,
        Arc::into_inner(counter).expect("the run released its hook"),
    )
}

fn sorted_ints(tuples: &[Tuple]) -> Vec<i64> {
    let mut v: Vec<i64> = tuples
        .iter()
        .map(|t| t.value(0).as_int().unwrap())
        .collect();
    v.sort_unstable();
    v
}

/// The instant of each death the timeline recorded.
fn deaths(report: &RunReport) -> Vec<f64> {
    let obs = report.obs.as_ref().expect("obs enabled by default");
    let downs = obs
        .events
        .iter()
        .filter(|e| matches!(e.kind, TimelineKind::NodeDown { .. }));
    downs.map(|e| e.at_ms).collect()
}

#[test]
// A dead partition's weight is assigned exactly 0.0, never computed, so
// bit-exact comparison is the correct assertion.
#[allow(clippy::float_cmp)]
fn stateless_query_survives_one_failure_exactly_once() {
    let table = int_table("t", 0..400);
    let plan = call_plan(&table, &call_shape(2));
    let sim_for = |hook| {
        sim(
            GridEnvironment::demo(2),
            &[&table],
            AdaptivityConfig::disabled(),
            hook,
        )
    };
    // Kill worker 1 (node 2) a fifth of the way through its input.
    let (healthy, counts) = healthy(sim_for, &plan);
    let crash = Crashes::new(&[(1, counts.received(1) / 5)]);
    let report = sim_for(crash).run(&plan).unwrap();
    assert_eq!(report.nodes_failed, 1);
    assert!(report.tuples_replayed > 0, "{:?}", report.obs);
    assert_eq!(report.tuples_output, 400, "{:?}", report.obs);
    let expect: Vec<i64> = (0..400i64).map(|i| i * i).collect();
    assert_eq!(sorted_ints(&report.results), expect);
    // The survivor did all remaining work.
    assert_eq!(report.final_distribution[1], 0.0);
    // Losing a node costs time.
    assert!(report.wall_ms > healthy.wall_ms);
}

#[test]
fn join_survives_failure_with_state_rebuild() {
    let build = int_table("build", 0..120);
    let probe = int_table("probe", (0..240).map(|i| i % 160));
    let plan = join_plan(&build, &probe, &join_shape());
    let sim_for = |hook| {
        let env = GridEnvironment::demo(2);
        sim(env, &[&build, &probe], AdaptivityConfig::disabled(), hook)
    };
    let (healthy, counts) = healthy(sim_for, &plan);
    let expected: u64 = (0..240).filter(|i| i % 160 < 120).count() as u64;
    assert_eq!(healthy.tuples_output, expected);
    // Kill worker 1 a third of the way in, with the build well under way.
    let crash = Crashes::new(&[(1, counts.received(1) / 3)]);
    let report = sim_for(crash).run(&plan).unwrap();
    assert_eq!(report.nodes_failed, 1);
    assert_eq!(
        report.tuples_output, expected,
        "join results after recovery: {:?}",
        report.obs
    );
    // Build state for the dead partition's buckets was rebuilt from the
    // never-acknowledged build log.
    assert!(report.tuples_replayed > 0);
    // Exactly-once delivery: the multisets match the healthy run.
    let mut healthy_strs: Vec<String> = healthy.results.iter().map(|t| t.to_string()).collect();
    let mut failed_strs: Vec<String> = report.results.iter().map(|t| t.to_string()).collect();
    healthy_strs.sort();
    failed_strs.sort();
    assert_eq!(healthy_strs, failed_strs);
}

#[test]
// Same as above: the dead node's weight is set to exactly 0.0.
#[allow(clippy::float_cmp)]
fn failure_with_adaptivity_never_routes_back_to_dead_node() {
    let table = int_table("t", 0..600);
    let plan = call_plan(&table, &call_shape(3));
    let r1 = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1);
    let sim_for = |hook| sim(GridEnvironment::demo(3), &[&table], r1.clone(), hook);
    let (_, counts) = healthy(sim_for, &plan);
    let crash = Crashes::new(&[(1, counts.received(1) / 4)]);
    let report = sim_for(crash).run(&plan).unwrap();
    assert_eq!(report.nodes_failed, 1);
    assert_eq!(report.tuples_output, 600, "{:?}", report.obs);
    assert_eq!(
        report.final_distribution[1], 0.0,
        "dead partition must keep zero weight: {:?}",
        report.final_distribution
    );
    let expect: Vec<i64> = (0..600i64).map(|i| i * i).collect();
    assert_eq!(sorted_ints(&report.results), expect);
}

#[test]
fn two_failures_leave_one_survivor() {
    let table = int_table("t", 0..300);
    let plan = call_plan(&table, &call_shape(3));
    let sim_for = |hook| {
        sim(
            GridEnvironment::demo(3),
            &[&table],
            AdaptivityConfig::disabled(),
            hook,
        )
    };
    let (_, counts) = healthy(sim_for, &plan);
    let crash = Crashes::new(&[(1, counts.received(1) / 6), (2, counts.received(2) / 5)]);
    let report = sim_for(crash).run(&plan).unwrap();
    assert_eq!(report.nodes_failed, 2);
    let at = deaths(&report);
    assert!(
        at.len() == 2 && at[0] < at[1],
        "two deaths, in turn: {at:?}"
    );
    assert_eq!(report.tuples_output, 300, "{:?}", report.obs);
    let expect: Vec<i64> = (0..300i64).map(|i| i * i).collect();
    assert_eq!(sorted_ints(&report.results), expect);
}

#[test]
fn all_nodes_failing_is_an_error() {
    let table = int_table("t", 0..100);
    let plan = call_plan(&table, &call_shape(2));
    let crash = Crashes::new(&[(0, 1), (1, 1)]);
    let err = sim(
        GridEnvironment::demo(2),
        &[&table],
        AdaptivityConfig::disabled(),
        crash,
    )
    .run(&plan)
    .unwrap_err();
    assert!(err.to_string().contains("failed"), "{err}");
}

#[test]
fn failure_after_completion_is_harmless() {
    let table = int_table("t", 0..50);
    let plan = call_plan(&table, &call_shape(2));
    let sim_for = |hook| {
        sim(
            GridEnvironment::demo(2),
            &[&table],
            AdaptivityConfig::disabled(),
            hook,
        )
    };
    let (_, counts) = healthy(sim_for, &plan);
    // The buffer that would kill worker 1 never comes.
    let crash = Crashes::new(&[(1, counts.received(1) + 1)]);
    let report = sim_for(crash).run(&plan).unwrap();
    assert_eq!(report.nodes_failed, 0);
    assert_eq!(report.tuples_output, 50);
}

#[test]
fn node_failure_pairs_node_down_with_failover_in_the_timeline() {
    let table = int_table("t", 0..300);
    let plan = call_plan(&table, &call_shape(2));
    let sim_for = |hook| {
        sim(
            GridEnvironment::demo(2),
            &[&table],
            AdaptivityConfig::disabled(),
            hook,
        )
    };
    let (_, counts) = healthy(sim_for, &plan);
    let crash = Crashes::new(&[(1, counts.received(1) / 4)]);
    let report = sim_for(crash).run(&plan).unwrap();
    assert_eq!(report.tuples_output, 300, "{:?}", report.obs);
    let obs = report.obs.expect("obs enabled by default");
    let downs: Vec<_> = obs
        .events
        .iter()
        .filter(|e| matches!(e.kind, TimelineKind::NodeDown { .. }))
        .collect();
    assert_eq!(downs.len(), 1, "one partition lost, one NodeDown");
    let failovers: Vec<_> = obs
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            TimelineKind::Failover {
                partition,
                replayed,
                down_seq,
                ..
            } => Some((partition.clone(), *replayed, *down_seq)),
            _ => None,
        })
        .collect();
    assert_eq!(
        failovers.len(),
        1,
        "each death completes exactly one failover"
    );
    let (partition, replayed, down_seq) = &failovers[0];
    assert_eq!(down_seq, &downs[0].seq, "failover links back to its death");
    match &downs[0].kind {
        TimelineKind::NodeDown { partition: p } => assert_eq!(p, partition),
        _ => unreachable!(),
    }
    assert_eq!(
        *replayed, report.tuples_replayed,
        "single-source plan: everything replayed belongs to this partition"
    );
}

/// A simulated node failure goes through the Responder, as a threaded
/// one does: the failover is counted, and it restarts the cooldown, so
/// no rebalance deploys while the replay is still in flight.
#[test]
fn node_failure_goes_through_the_responder() {
    let table = int_table("t", 0..600);
    let plan = call_plan(&table, &call_shape(3));
    let (_, counts) = healthy(
        |hook| {
            sim(
                GridEnvironment::demo(3),
                &[&table],
                AdaptivityConfig::default(),
                hook,
            )
        },
        &plan,
    );
    // Worker 2 (node 3) dies a fifth of the way through its input. Node
    // 2 turns 10x slower 20 ms before the death instant of an unperturbed
    // run, so the loop diagnoses the imbalance just after the death.
    let crash = || Crashes::new(&[(2, counts.received(2) / 5)]);
    let r2 = AdaptivityConfig::default();
    let unperturbed = sim(GridEnvironment::demo(3), &[&table], r2.clone(), crash());
    let slow_from = deaths(&unperturbed.run(&plan).unwrap())[0] - 20.0;
    let mut env = GridEnvironment::demo(3);
    env.set_perturbation(
        NodeId::new(2),
        PerturbationSchedule::none().then_at(
            SimTime::from_millis(slow_from),
            Perturbation::CostFactor(10.0),
        ),
    );
    let report = sim(env, &[&table], r2, crash()).run(&plan).unwrap();
    let down_at = deaths(&report)[0];
    assert_eq!(report.tuples_output, 600, "{:?}", report.obs);
    assert_eq!(
        (report.nodes_failed, report.failovers_completed),
        (1, 1),
        "every node failure is a responder failover"
    );
    let obs = report.obs.expect("obs enabled by default");
    let after_death = |f: fn(&TimelineKind) -> bool| -> Vec<f64> {
        let events = obs.events.iter().filter(|e| f(&e.kind));
        events.map(|e| e.at_ms - down_at).collect()
    };
    let within_cooldown = |after: &f64| (0.0..COOLDOWN_MS).contains(after);
    let declined = after_death(
        |k| matches!(k, TimelineKind::ResponderDecision { decision, .. } if decision == "declined_cooldown"),
    );
    assert!(
        declined.iter().any(within_cooldown),
        "a diagnosis lands within the cooldown after the death: {declined:?} ms after it"
    );
    let deploys = after_death(|k| matches!(k, TimelineKind::Deploy { .. }));
    assert!(
        !deploys.iter().any(within_cooldown),
        "no rebalance within the cooldown after the failure: {deploys:?} ms after it"
    );
}
