//! Cross-crate adaptivity scenarios: mid-run perturbations, recovery
//! when load disappears, graceful degradation with more nodes, and
//! determinism of the whole stack.

use gridq::adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq::common::{NodeId, SimTime};
use gridq::grid::{GridEnvironment, Perturbation, PerturbationSchedule};
use gridq::sim::Simulation;
use gridq::workload::experiments::{EvaluatorPerturbation, Q1Experiment};

fn adaptive_r1() -> AdaptivityConfig {
    AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1)
}

#[test]
fn adapts_to_perturbation_arriving_mid_query() {
    let q1 = Q1Experiment::default();
    let baseline = q1.run(AdaptivityConfig::disabled(), &[]).unwrap();
    // Load lands on evaluator 1 a third of the way into the run.
    let onset = SimTime::from_millis(baseline.response_time_ms / 3.0);
    let schedule = PerturbationSchedule::none().then_at(onset, Perturbation::CostFactor(15.0));

    let run = |adapt: AdaptivityConfig| {
        let mut env = GridEnvironment::demo(q1.evaluators);
        env.set_perturbation(NodeId::new(2), schedule.clone());
        Simulation::new(env, q1.catalog(), q1.sim_config(adapt))
            .unwrap()
            .run(&q1.plan())
            .unwrap()
    };
    let static_run = run(AdaptivityConfig::disabled());
    let adaptive = run(adaptive_r1());
    assert!(adaptive.adaptations_deployed >= 1);
    assert!(
        adaptive.response_time_ms < 0.8 * static_run.response_time_ms,
        "adaptive {} vs static {}",
        adaptive.response_time_ms,
        static_run.response_time_ms
    );
    assert_eq!(adaptive.tuples_output, q1.tuples as u64);
}

#[test]
fn graceful_degradation_with_three_nodes() {
    // Fig. 4's qualitative claim: while at least one node is
    // unperturbed, adaptive performance is nearly independent of the
    // perturbation magnitude.
    let q1 = Q1Experiment {
        evaluators: 3,
        ..Default::default()
    };
    let base = q1.run(AdaptivityConfig::disabled(), &[]).unwrap();
    let mut adaptive_ratios = Vec::new();
    for k in [10.0, 30.0] {
        let perts: Vec<EvaluatorPerturbation> = (0..2)
            .map(|e| EvaluatorPerturbation::new(e, Perturbation::CostFactor(k)))
            .collect();
        let report = q1.run(adaptive_r1(), &perts).unwrap();
        adaptive_ratios.push(report.response_time_ms / base.response_time_ms);
    }
    let spread = (adaptive_ratios[1] - adaptive_ratios[0]).abs() / adaptive_ratios[0];
    assert!(
        spread < 0.30,
        "adaptive performance should be nearly flat in k with a healthy node: \
         {adaptive_ratios:?}"
    );
}

#[test]
// Bit-exact equality is the property under test: two runs with the same
// seed must produce identical timings, not merely close ones.
#[allow(clippy::float_cmp)]
fn whole_stack_is_deterministic() {
    let q1 = Q1Experiment::default();
    let pert = [EvaluatorPerturbation::new(
        1,
        Perturbation::CostFactor(10.0),
    )];
    let a = q1.run(adaptive_r1(), &pert).unwrap();
    let b = q1.run(adaptive_r1(), &pert).unwrap();
    assert_eq!(a.response_time_ms, b.response_time_ms);
    assert_eq!(a.per_partition_processed, b.per_partition_processed);
    assert_eq!(a.adaptations_deployed, b.adaptations_deployed);
    assert_eq!(a.tuples_redistributed, b.tuples_redistributed);
    assert_eq!(a.final_distribution, b.final_distribution);
}

#[test]
// Exact inequality shows the seed actually perturbed the timings.
#[allow(clippy::float_cmp)]
fn different_seeds_change_noise_but_not_outcomes() {
    let q1a = Q1Experiment::default();
    let q1b = Q1Experiment {
        seed: 0x1234,
        ..Default::default()
    };
    let pert = [EvaluatorPerturbation::new(
        1,
        Perturbation::CostFactor(10.0),
    )];
    let a = q1a.run(adaptive_r1(), &pert).unwrap();
    let b = q1b.run(adaptive_r1(), &pert).unwrap();
    // Same tuple counts, different exact timings.
    assert_eq!(a.tuples_output, b.tuples_output);
    assert_ne!(a.response_time_ms, b.response_time_ms);
    // Both converge to favouring the healthy node.
    assert!(a.final_distribution[0] > 0.7);
    assert!(b.final_distribution[0] > 0.7);
}

#[test]
fn slowdown_of_the_data_node_does_not_break_execution() {
    // Perturbing the source machine slows retrieval; adaptivity targets
    // evaluator imbalance, so this must simply complete with balanced
    // consumers.
    let q1 = Q1Experiment {
        tuples: 600,
        ..Default::default()
    };
    let mut env = GridEnvironment::demo(q1.evaluators);
    env.perturb(NodeId::new(0), Perturbation::CostFactor(4.0));
    let report = Simulation::new(env, q1.catalog(), q1.sim_config(adaptive_r1()))
        .unwrap()
        .run(&q1.plan())
        .unwrap();
    assert_eq!(report.tuples_output, 600);
    let ratio = report.balance_ratio().unwrap();
    assert!(ratio < 1.25, "consumers should stay balanced: {ratio}");
}

#[test]
fn near_completion_gate_suppresses_late_adaptation() {
    // Perturbation arriving at 97% progress: the Responder must decline.
    let q1 = Q1Experiment::default();
    let baseline = q1.run(AdaptivityConfig::disabled(), &[]).unwrap();
    let onset = SimTime::from_millis(baseline.response_time_ms * 0.97);
    let mut env = GridEnvironment::demo(q1.evaluators);
    env.set_perturbation(
        NodeId::new(2),
        PerturbationSchedule::none().then_at(onset, Perturbation::CostFactor(10.0)),
    );
    let report = Simulation::new(env, q1.catalog(), q1.sim_config(adaptive_r1()))
        .unwrap()
        .run(&q1.plan())
        .unwrap();
    assert_eq!(
        report.adaptations_deployed, 0,
        "timeline: {:?}",
        report.timeline
    );
}
