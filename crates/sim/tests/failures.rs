//! Fault-tolerance tests: evaluator nodes fail mid-query and the
//! recovery logs (the same substrate that powers retrospective
//! adaptation) restore the lost work on the survivors — exactly once.

use gridq_adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq_common::{NodeId, SimTime, Tuple};
use gridq_engine::fixtures::{call_plan, catalog, int_table, join_plan, CallShape, JoinShape};
use gridq_grid::GridEnvironment;
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

fn config(adaptivity: AdaptivityConfig) -> SimulationConfig {
    SimulationConfig {
        adaptivity,
        collect_results: true,
        receive_cost_ms: 0.5,
        ..Default::default()
    }
}

fn sorted_ints(tuples: &[Tuple]) -> Vec<i64> {
    let mut v: Vec<i64> = tuples
        .iter()
        .map(|t| t.value(0).as_int().unwrap())
        .collect();
    v.sort_unstable();
    v
}

#[test]
// A dead partition's weight is assigned exactly 0.0, never computed, so
// bit-exact comparison is the correct assertion.
#[allow(clippy::float_cmp)]
fn stateless_query_survives_one_failure_exactly_once() {
    let table = int_table("t", 0..400);
    let plan = call_plan(&table, &call_shape(2));
    let sim = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&table]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap();
    // Kill node2 a fifth of the way through the run.
    let healthy = sim.run(&plan).unwrap();
    let fail_at = SimTime::from_millis(healthy.response_time_ms / 5.0);
    let report = sim
        .run_with_failures(&plan, &[(NodeId::new(2), fail_at)])
        .unwrap();
    assert_eq!(report.nodes_failed, 1);
    assert!(report.failure_resent_tuples > 0, "{:?}", report.timeline);
    assert_eq!(report.tuples_output, 400, "{:?}", report.timeline);
    let expect: Vec<i64> = (0..400i64).map(|i| i * i).collect();
    assert_eq!(sorted_ints(&report.results), expect);
    // The survivor did all remaining work.
    assert_eq!(report.final_distribution[1], 0.0);
    // Losing a node costs time.
    assert!(report.response_time_ms > healthy.response_time_ms);
}

#[test]
fn join_survives_failure_with_state_rebuild() {
    let build = int_table("build", 0..120);
    let probe = int_table("probe", (0..240).map(|i| i % 160));
    let plan = join_plan(&build, &probe, &join_shape());
    let sim = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&build, &probe]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap();
    let healthy = sim.run(&plan).unwrap();
    let expected: u64 = (0..240).filter(|i| i % 160 < 120).count() as u64;
    assert_eq!(healthy.tuples_output, expected);
    // Fail node2 after the build phase is well under way.
    let fail_at = SimTime::from_millis(healthy.response_time_ms / 3.0);
    let report = sim
        .run_with_failures(&plan, &[(NodeId::new(2), fail_at)])
        .unwrap();
    assert_eq!(
        report.tuples_output, expected,
        "join results after recovery: {:?}",
        report.timeline
    );
    // Build state for the dead partition's buckets was rebuilt from the
    // never-acknowledged build log.
    assert!(report.failure_resent_tuples > 0);
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
    let sim = Simulation::new(
        GridEnvironment::demo(3),
        catalog(&[&table]),
        config(AdaptivityConfig::with_policies(
            AssessmentPolicy::A1,
            ResponsePolicy::R1,
        )),
    )
    .unwrap();
    let healthy = sim.run(&plan).unwrap();
    let fail_at = SimTime::from_millis(healthy.response_time_ms / 4.0);
    let report = sim
        .run_with_failures(&plan, &[(NodeId::new(2), fail_at)])
        .unwrap();
    assert_eq!(report.tuples_output, 600, "{:?}", report.timeline);
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
    let sim = Simulation::new(
        GridEnvironment::demo(3),
        catalog(&[&table]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap();
    let healthy = sim.run(&plan).unwrap();
    let t1 = SimTime::from_millis(healthy.response_time_ms / 6.0);
    let t2 = SimTime::from_millis(healthy.response_time_ms / 3.0);
    let report = sim
        .run_with_failures(&plan, &[(NodeId::new(2), t1), (NodeId::new(3), t2)])
        .unwrap();
    assert_eq!(report.nodes_failed, 2);
    assert_eq!(report.tuples_output, 300, "{:?}", report.timeline);
    let expect: Vec<i64> = (0..300i64).map(|i| i * i).collect();
    assert_eq!(sorted_ints(&report.results), expect);
}

#[test]
fn all_nodes_failing_is_an_error() {
    let table = int_table("t", 0..100);
    let plan = call_plan(&table, &call_shape(2));
    let sim = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&table]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap();
    let early = SimTime::from_millis(10.0);
    let err = sim
        .run_with_failures(&plan, &[(NodeId::new(1), early), (NodeId::new(2), early)])
        .unwrap_err();
    assert!(err.to_string().contains("failed"), "{err}");
}

#[test]
fn failing_a_non_stage_node_is_rejected() {
    let table = int_table("t", 0..10);
    let plan = call_plan(&table, &call_shape(2));
    let sim = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&table]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap();
    let err = sim
        .run_with_failures(&plan, &[(NodeId::new(0), SimTime::from_millis(1.0))])
        .unwrap_err();
    assert!(err.to_string().contains("no stage partition"), "{err}");
}

#[test]
fn failure_after_completion_is_harmless() {
    let table = int_table("t", 0..50);
    let plan = call_plan(&table, &call_shape(2));
    let sim = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&table]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap();
    let healthy = sim.run(&plan).unwrap();
    let late = SimTime::from_millis(healthy.response_time_ms * 10.0);
    let report = sim
        .run_with_failures(&plan, &[(NodeId::new(2), late)])
        .unwrap();
    assert_eq!(report.tuples_output, 50);
}
