//! Cross-substrate observability contract: the simulator and the
//! threaded executor run the same Q1 plan under the same 10x
//! perturbation, and both must export a parseable JSON-lines document in
//! which every deployed adaptation traces back — by timeline sequence
//! number — through its diagnosis and detector notification to a raw
//! monitoring event.

use std::collections::HashMap;

use gridq::adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq::chaos::{Knobs, Workload};
use gridq::common::NodeId;
use gridq::grid::Perturbation;
use gridq::obs::{Json, ObsConfig, ObsReport};
use gridq::workload::experiments::{EvaluatorPerturbation, Q1Experiment};

fn q1() -> Q1Experiment {
    Q1Experiment {
        tuples: 600,
        ..Default::default()
    }
}

fn a1r2() -> AdaptivityConfig {
    AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R2)
}

/// Parses the export and checks the causal chain of every deploy line.
/// Returns (deploy count, whether any event carried a wall-clock stamp).
fn assert_traceable(obs: &ObsReport) -> (usize, bool) {
    let text = obs.to_json_lines();
    let mut by_seq: HashMap<u64, Json> = HashMap::new();
    let mut deploys = Vec::new();
    let mut saw_wall = false;
    for (i, line) in text.lines().enumerate() {
        let value = Json::parse(line).unwrap_or_else(|e| panic!("line {i} unparseable: {e}"));
        let kind = value
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("line {i} lacks kind"));
        if i == 0 {
            assert_eq!(kind, "metrics", "document opens with the snapshot");
            continue;
        }
        let seq = value
            .get("seq")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("line {i} lacks seq"));
        assert!(
            value.get("at_ms").and_then(Json::as_f64).is_some(),
            "line {i} lacks at_ms"
        );
        if value.get("wall_ms").map(|w| !w.is_null()).unwrap_or(false) {
            saw_wall = true;
        }
        if kind == "deploy" {
            deploys.push(value.clone());
        }
        by_seq.insert(seq, value);
    }
    for deploy in &deploys {
        let diagnosis_seq = deploy
            .get("diagnosis_seq")
            .and_then(Json::as_u64)
            .expect("deploy links a diagnosis");
        let diagnosis = &by_seq[&diagnosis_seq];
        assert_eq!(
            diagnosis.get("kind").and_then(Json::as_str),
            Some("diagnosis")
        );
        let notify_seq = diagnosis
            .get("notify_seq")
            .and_then(Json::as_u64)
            .expect("diagnosis links a notification");
        let notify = &by_seq[&notify_seq];
        assert_eq!(
            notify.get("kind").and_then(Json::as_str),
            Some("detector_notify")
        );
        let raw_seq = notify
            .get("raw_seq")
            .and_then(Json::as_u64)
            .expect("notification links a raw event");
        let raw = &by_seq[&raw_seq];
        let raw_kind = raw.get("kind").and_then(Json::as_str).unwrap();
        assert!(
            raw_kind == "raw_m1" || raw_kind == "raw_m2",
            "chain must end at a raw monitoring event, got {raw_kind}"
        );
        assert_eq!(raw.get("gate_fired").and_then(Json::as_bool), Some(true));
    }
    (deploys.len(), saw_wall)
}

#[test]
fn simulated_timeline_traces_every_deploy() {
    let report = q1()
        .run(
            a1r2(),
            &[EvaluatorPerturbation::new(
                1,
                Perturbation::CostFactor(10.0),
            )],
        )
        .unwrap();
    let obs = report.obs.expect("obs on by default");
    let (deploys, saw_wall) = assert_traceable(&obs);
    assert_eq!(deploys as u64, report.adaptations_deployed);
    assert!(deploys >= 1, "the 10x imbalance must trigger an adaptation");
    assert!(!saw_wall, "virtual-time events carry no wall clock");
}

#[test]
fn threaded_timeline_traces_every_deploy() {
    // The slow scan keeps the producer streaming for ~30 ms instead of
    // ~6, so the loop decides well before the responder's 0.95 progress
    // cut-off instead of racing it on each partition's first M1.
    let w = Workload::q1(&q1())
        .perturbed(NodeId::new(2), Perturbation::CostFactor(10.0))
        .scan_cost_ms(&[5.0]);
    let report = w
        .run_threaded(&Knobs {
            adaptivity: a1r2(),
            cost_scale: 0.01,
            ..Knobs::default()
        })
        .unwrap();
    let obs = report.obs.expect("obs on by default");
    let (deploys, saw_wall) = assert_traceable(&obs);
    assert_eq!(deploys as u64, report.adaptations_deployed);
    assert!(deploys >= 1, "the 10x imbalance must trigger an adaptation");
    assert!(saw_wall, "threaded events carry wall-clock stamps");
}

#[test]
fn disabled_obs_leaves_reports_bare() {
    let report = Workload::q1(&q1())
        .simulate(&Knobs {
            adaptivity: a1r2(),
            obs: ObsConfig::disabled(),
            ..Knobs::default()
        })
        .unwrap();
    assert!(report.obs.is_none(), "disabled obs must not export");
    assert_eq!(report.tuples_output, 600);
}
