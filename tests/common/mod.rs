//! The parity suites' cells, described once: the two queries at test
//! size, the standing imbalance, and how each policy is run.

// Each test binary uses its own subset.
#![allow(dead_code)]

use gridq::chaos::{Knobs, Policy, Substrate, Workload};
use gridq::common::NodeId;
use gridq::exec::socket::ScriptedAdaptation;
use gridq::grid::Perturbation;
use gridq::workload::experiments::{Q1Experiment, Q2Experiment};

pub fn q1(tuples: usize) -> Workload {
    Workload::q1(&Q1Experiment {
        tuples,
        ..Default::default()
    })
}

/// A Q2 instance small enough for a sub-second threaded run; the probe
/// and build costs mirror the threaded executor's in-crate recall test
/// so the producers (not the evaluators) are the bottleneck and the
/// recall has in-flight work to pause.
pub fn q2() -> Workload {
    Workload::q2(&Q2Experiment {
        sequences: 60,
        interactions: 300,
        probe_cost_ms: 0.5,
        build_cost_ms: 0.1,
        receive_cost_ms: 1.0,
        bucket_count: 16,
        buffer_tuples: 10,
        ..Default::default()
    })
}

/// Evaluator 1 (node 2) runs 10x slower, on every substrate.
pub fn node_2_slow(w: Workload) -> Workload {
    w.perturbed(NodeId::new(2), Perturbation::CostFactor(10.0))
}

/// The R1 workload: Q2 under the imbalance, with a slow probe scan so
/// the producers are still streaming when the imbalance is diagnosed and
/// the retrospective recall has in-flight work to pause (same shape as
/// the in-crate recall test). Scan costs never change result values.
pub fn q2_r1() -> Workload {
    node_2_slow(q2()).scan_cost_ms(&[1.0, 10.0])
}

pub fn static_knobs() -> Knobs {
    Knobs {
        cost_scale: 0.002,
        ..Knobs::default()
    }
}

/// Live A1/R2 on sim and threads; over sockets, the swap that loop
/// makes, scripted.
pub fn r2_knobs() -> Knobs {
    Knobs {
        adaptivity: Policy::R2.adaptivity(),
        script: vec![ScriptedAdaptation {
            after_routed: 150,
            weights: vec![0.9, 0.1],
            retrospective: false,
        }],
        cost_scale: 0.01,
        ..Knobs::default()
    }
}

/// Live A1/R1 on sim and threads; over sockets a scripted recall a
/// third of the way in. At the socket scale the slow probe scan keeps
/// producers streaming for ~150 ms, so there is live state and in-flight
/// work to migrate.
pub fn r1_knobs(substrate: Substrate) -> Knobs {
    Knobs {
        adaptivity: Policy::R1.adaptivity(),
        script: vec![ScriptedAdaptation {
            after_routed: 150,
            weights: vec![0.25, 0.75],
            retrospective: true,
        }],
        cost_scale: if substrate == Substrate::Socket {
            0.05
        } else {
            0.01
        },
        checkpoint_interval: 8,
        ..Knobs::default()
    }
}
