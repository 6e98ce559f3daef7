//! Behavioural tests for the discrete-event simulator: result
//! correctness against single-node reference execution, balance under
//! homogeneous load, and the headline adaptive behaviours of the paper.

use std::collections::HashMap;

use gridq_adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq_common::{NodeId, Tuple};
use gridq_engine::fixtures::{call_plan, catalog, int_table, join_plan, CallShape, JoinShape};
use gridq_grid::{GridEnvironment, Perturbation};
use gridq_sim::{Simulation, SimulationConfig};

/// The Q1 shape of these tests: scan -> exchange -> service call over
/// `evaluators` partitions.
fn call_shape(evaluators: usize, service_cost_ms: f64) -> CallShape {
    CallShape {
        evaluators,
        service_cost_ms,
        scan_cost_ms: 0.5,
        buffer_tuples: 20,
    }
}

/// The Q2 shape of these tests: two scans hash-partitioned into a join.
fn join_shape(evaluators: usize, probe_cost_ms: f64) -> JoinShape {
    JoinShape {
        evaluators,
        build_cost_ms: 0.05,
        probe_cost_ms,
        scan_cost_ms: [0.1, 0.1],
        bucket_count: 32,
        buffer_tuples: 20,
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

fn value_multiset(tuples: &[Tuple]) -> HashMap<String, usize> {
    let mut m = HashMap::new();
    for t in tuples {
        *m.entry(t.to_string()).or_insert(0) += 1;
    }
    m
}

#[test]
fn q1_results_match_reference() {
    let table = int_table("t", 0..200);
    let plan = call_plan(&table, &call_shape(2, 1.0));
    let sim = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&table]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap();
    let report = sim.run(&plan).unwrap();
    assert_eq!(report.tuples_output, 200);
    // Reference: squares of 0..200.
    let expect: HashMap<String, usize> = (0..200i64).map(|i| (format!("[{}]", i * i), 1)).collect();
    assert_eq!(value_multiset(&report.results), expect);
    assert!(report.response_time_ms > 0.0);
}

#[test]
fn q1_without_adaptivity_is_balanced_when_homogeneous() {
    let table = int_table("t", 0..400);
    let plan = call_plan(&table, &call_shape(2, 1.0));
    let sim = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&table]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap();
    let report = sim.run(&plan).unwrap();
    assert_eq!(report.per_partition_processed.iter().sum::<u64>(), 400);
    let ratio = report.balance_ratio().unwrap();
    assert!(ratio < 1.05, "uniform routing should be balanced: {ratio}");
    assert_eq!(report.adaptations_deployed, 0);
    assert_eq!(report.raw_m1_events, 0, "monitoring off when disabled");
}

#[test]
fn q1_perturbed_without_adaptivity_degrades() {
    let table = int_table("t", 0..300);
    let plan = call_plan(&table, &call_shape(2, 1.0));
    let mut env = GridEnvironment::demo(2);
    env.perturb(NodeId::new(2), Perturbation::CostFactor(10.0));
    let baseline_env = GridEnvironment::demo(2);
    let sim_base = Simulation::new(
        baseline_env,
        catalog(&[&table]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap();
    let base = sim_base.run(&plan).unwrap();
    let sim_pert = Simulation::new(
        env,
        catalog(&[&table]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap();
    let pert = sim_pert.run(&plan).unwrap();
    assert!(
        pert.response_time_ms > 2.0 * base.response_time_ms,
        "10x perturbation must hurt a static system: {} vs {}",
        pert.response_time_ms,
        base.response_time_ms
    );
}

#[test]
fn q1_adaptivity_recovers_much_of_the_loss() {
    let table = int_table("t", 0..600);
    let plan = call_plan(&table, &call_shape(2, 1.0));
    let catalog = catalog(&[&table]);
    let mk_env = || {
        let mut env = GridEnvironment::demo(2);
        env.perturb(NodeId::new(2), Perturbation::CostFactor(10.0));
        env
    };
    let static_run = Simulation::new(
        mk_env(),
        catalog.clone(),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap()
    .run(&plan)
    .unwrap();
    let adaptive = Simulation::new(
        mk_env(),
        catalog.clone(),
        config(AdaptivityConfig::with_policies(
            AssessmentPolicy::A1,
            ResponsePolicy::R2,
        )),
    )
    .unwrap()
    .run(&plan)
    .unwrap();
    assert_eq!(adaptive.tuples_output, 600);
    assert!(adaptive.adaptations_deployed >= 1);
    assert!(
        adaptive.response_time_ms < 0.7 * static_run.response_time_ms,
        "adaptive {} should beat static {}",
        adaptive.response_time_ms,
        static_run.response_time_ms
    );
    // The fast partition must have absorbed most of the work.
    let w = &adaptive.final_distribution;
    assert!(w[0] > 0.7, "final distribution should favour node1: {w:?}");
}

#[test]
fn q1_retrospective_recalls_tuples() {
    let table = int_table("t", 0..600);
    let plan = call_plan(&table, &call_shape(2, 1.0));
    let catalog = catalog(&[&table]);
    let mut env = GridEnvironment::demo(2);
    env.perturb(NodeId::new(2), Perturbation::CostFactor(10.0));
    let report = Simulation::new(
        env,
        catalog,
        config(AdaptivityConfig::with_policies(
            AssessmentPolicy::A1,
            ResponsePolicy::R1,
        )),
    )
    .unwrap()
    .run(&plan)
    .unwrap();
    assert_eq!(report.tuples_output, 600);
    assert!(
        report.tuples_redistributed > 0,
        "retrospective response must recall queued tuples"
    );
    // Results stay exact under redistribution.
    let expect: HashMap<String, usize> = (0..600i64).map(|i| (format!("[{}]", i * i), 1)).collect();
    assert_eq!(value_multiset(&report.results), expect);
}

#[test]
fn q2_join_results_match_reference_with_r1_adaptation() {
    // Join x in 0..150 (build) with 2x keys 0..300 (probe): matches for
    // keys 0..150, two interactions each key in 0..75... construct probe
    // with duplicated keys to exercise multi-match.
    let build = int_table("build", 0..150);
    let probe = int_table("probe", (0..300).map(|i| i % 200));
    let plan = join_plan(&build, &probe, &join_shape(2, 2.0));
    let mut env = GridEnvironment::demo(2);
    env.perturb(NodeId::new(2), Perturbation::SleepMs(8.0));
    let report = Simulation::new(
        env,
        catalog(&[&build, &probe]),
        config(AdaptivityConfig::with_policies(
            AssessmentPolicy::A1,
            ResponsePolicy::R1,
        )),
    )
    .unwrap()
    .run(&plan)
    .unwrap();
    // Reference: probe value v matches iff v < 150; probe values are
    // i % 200 for i in 0..300, so matches = #{i : i%200 < 150}.
    let expected: usize = (0..300).filter(|i| i % 200 < 150).count();
    assert_eq!(report.tuples_output as usize, expected);
    let expect_multiset: HashMap<String, usize> = {
        let mut m = HashMap::new();
        for i in 0..300 {
            let v = i % 200;
            if v < 150 {
                *m.entry(format!("[{v}, {v}]")).or_insert(0) += 1;
            }
        }
        m
    };
    assert_eq!(value_multiset(&report.results), expect_multiset);
}

#[test]
fn q2_stateful_with_prospective_response_is_rejected() {
    let build = int_table("build", 0..10);
    let probe = int_table("probe", 0..10);
    let plan = join_plan(&build, &probe, &join_shape(2, 1.0));
    let sim = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&build, &probe]),
        config(AdaptivityConfig::with_policies(
            AssessmentPolicy::A1,
            ResponsePolicy::R2,
        )),
    )
    .unwrap();
    let err = sim.run(&plan).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("retrospective"), "got: {msg}");
}

#[test]
fn q2_static_join_matches_reference() {
    let build = int_table("build", 0..80);
    let probe = int_table("probe", 0..120);
    let plan = join_plan(&build, &probe, &join_shape(3, 0.5));
    let report = Simulation::new(
        GridEnvironment::demo(3),
        catalog(&[&build, &probe]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap()
    .run(&plan)
    .unwrap();
    assert_eq!(report.tuples_output, 80); // keys 0..80 match once each
}

#[test]
fn monitoring_generates_notification_funnel() {
    let table = int_table("t", 0..500);
    let plan = call_plan(&table, &call_shape(2, 1.0));
    let mut env = GridEnvironment::demo(2);
    env.perturb(NodeId::new(2), Perturbation::CostFactor(10.0));
    let report = Simulation::new(env, catalog(&[&table]), config(AdaptivityConfig::default()))
        .unwrap()
        .run(&plan)
        .unwrap();
    // The funnel narrows: raw events >> detector notifications >=
    // imbalances >= adaptations.
    assert!(report.raw_m1_events > 20);
    assert!(report.detector_notifications < report.raw_m1_events + report.raw_m2_events);
    assert!(report.detector_notifications >= report.imbalances_reported);
    assert!(report.imbalances_reported >= report.adaptations_deployed);
    assert!(report.adaptations_deployed >= 1);
}

#[test]
// Bit-exact equality is the property under test: simulated time must be
// perfectly reproducible for a fixed seed.
#[allow(clippy::float_cmp)]
fn deterministic_given_seed() {
    let table = int_table("t", 0..300);
    let plan = call_plan(&table, &call_shape(2, 1.0));
    let run = || {
        let mut env = GridEnvironment::demo(2);
        env.perturb(NodeId::new(2), Perturbation::CostFactor(5.0));
        Simulation::new(env, catalog(&[&table]), config(AdaptivityConfig::default()))
            .unwrap()
            .run(&plan)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.response_time_ms, b.response_time_ms);
    assert_eq!(a.per_partition_processed, b.per_partition_processed);
    assert_eq!(a.adaptations_deployed, b.adaptations_deployed);
}

#[test]
fn acks_prune_recovery_logs() {
    let table = int_table("t", 0..300);
    let plan = call_plan(&table, &call_shape(2, 1.0));
    let report = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&table]),
        config(AdaptivityConfig::disabled()),
    )
    .unwrap()
    .run(&plan)
    .unwrap();
    assert!(
        report.acks_received > 0,
        "checkpoint acknowledgements must flow"
    );
}

#[test]
fn three_evaluator_run_with_one_perturbed() {
    let table = int_table("t", 0..600);
    let plan = call_plan(&table, &call_shape(3, 1.0));
    let catalog = catalog(&[&table]);
    let mk = |enabled: bool| {
        let mut env = GridEnvironment::demo(3);
        env.perturb(NodeId::new(3), Perturbation::CostFactor(10.0));
        let adapt = if enabled {
            AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1)
        } else {
            AdaptivityConfig::disabled()
        };
        Simulation::new(env, catalog.clone(), config(adapt))
            .unwrap()
            .run(&plan)
            .unwrap()
    };
    let static_run = mk(false);
    let adaptive = mk(true);
    assert_eq!(adaptive.tuples_output, 600);
    assert!(adaptive.response_time_ms < static_run.response_time_ms);
}
