//! A recorded run's control decisions replay offline: the timeline a run
//! exports, parsed back from its JSON lines, is fed through a fresh
//! `ControlLoop`, which must write every detector notification,
//! diagnosis, responder decision and deploy again — `W'` bit for bit —
//! whichever substrate recorded it.

use gridq::adapt::{replay, AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use std::sync::Arc;

use gridq::chaos::{FaultEvent, FaultPlan, Knobs, PlanHook, Workload};
use gridq::common::NodeId;
use gridq::grid::Perturbation;
use gridq::obs::{ObsConfig, ObsReport, TimelineEvent, TimelineKind};
use gridq::workload::experiments::Q2Experiment;

/// The paper's Q2 at a tenth of its size, node 2 ten times slower from
/// the start, under A1/R1: the benchmark's `q2_perturbed_r1_threaded`
/// shape.
fn q2_perturbed(evaluators: usize) -> Workload {
    let q2 = Q2Experiment {
        sequences: 300,
        interactions: 470,
        evaluators,
        ..Default::default()
    };
    Workload::q2(&q2).perturbed(NodeId::new(2), Perturbation::CostFactor(10.0))
}

fn knobs() -> Knobs {
    Knobs {
        adaptivity: AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1),
        cost_scale: 0.01,
        // Large enough that nothing is evicted: replay needs it all.
        obs: ObsConfig {
            enabled: true,
            timeline_capacity: 1 << 20,
        },
        ..Knobs::default()
    }
}

/// Exports `obs`, parses every event back and replays it. Returns the
/// number of deploys the recording holds.
fn replays_exactly(obs: &ObsReport) -> usize {
    assert_eq!(obs.dropped_events, 0, "the recording must be complete");
    let events: Vec<TimelineEvent> = obs
        .to_json_lines()
        .lines()
        .skip(1)
        .map(|line| TimelineEvent::from_json_line(line).expect("every event line parses"))
        .collect();
    assert_eq!(
        events, obs.events,
        "the JSON lines carry the timeline exactly"
    );
    let count = |f: fn(&TimelineKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
    let deploys = count(|k| matches!(k, TimelineKind::Deploy { .. }));
    let decisions = count(|k| matches!(k, TimelineKind::ResponderDecision { .. }));
    let replayed = replay(events.iter().map(|e| (e.seq, e.at_ms, &e.kind)))
        .unwrap_or_else(|divergence| panic!("{divergence}"));
    assert_eq!(replayed.deploys, deploys);
    assert!(decisions >= deploys);
    deploys
}

#[test]
fn a_simulated_run_replays_to_the_same_deploys() {
    let report = q2_perturbed(2).simulate(&knobs()).unwrap();
    let deploys = replays_exactly(report.obs.as_ref().expect("obs on"));
    assert!(deploys >= 1, "the 10x node must be rebalanced away from");
    assert_eq!(deploys as u64, report.adaptations_deployed);
}

#[test]
fn a_threaded_run_replays_to_the_same_deploys() {
    // Slow scans keep the producers streaming long after the first M1s,
    // so the loop decides well before the responder's progress cut-off
    // even on a loaded host.
    let report = q2_perturbed(2)
        .scan_cost_ms(&[3.0, 3.0])
        .run_threaded(&Knobs {
            cost_scale: 0.03,
            ..knobs()
        })
        .unwrap();
    let deploys = replays_exactly(report.obs.as_ref().expect("obs on"));
    assert!(deploys >= 1, "the 10x node must be rebalanced away from");
    assert_eq!(deploys as u64, report.adaptations_deployed);
}

/// A node that dies mid-run adds a failover to the inputs, beside the
/// M2 notices every monitored run carries. Worker 2 (node 3) dies on the
/// 12th buffer it receives, long after the first deploy.
#[test]
fn a_simulated_run_with_a_node_death_replays_exactly() {
    let crash = FaultPlan {
        seed: 0,
        events: vec![FaultEvent::CrashConsumer { worker: 2, nth: 12 }],
    };
    let report = q2_perturbed(3)
        .simulate(&Knobs {
            chaos: Some(Arc::new(PlanHook::new(&crash))),
            ..knobs()
        })
        .unwrap();
    let obs = report.obs.as_ref().expect("obs on");
    let has = |f: fn(&TimelineKind) -> bool| obs.events.iter().any(|e| f(&e.kind));
    assert!(has(|k| matches!(k, TimelineKind::RawM2 { .. })));
    assert!(has(|k| matches!(k, TimelineKind::Failover { .. })));
    assert!(replays_exactly(obs) >= 1);
}
