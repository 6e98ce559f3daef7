//! Rapidly changing resource performance (the paper's Fig. 5 and the
//! "dynamic nature of the system"): per-tuple perturbations drawn from a
//! normal distribution, plus a schedule where load arrives and leaves
//! mid-query.
//!
//! ```sh
//! cargo run --release --example rapid_changes
//! ```

use gridq::adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq::common::SimTime;
use gridq::grid::{Perturbation, PerturbationSchedule};
use gridq::workload::experiments::{EvaluatorPerturbation, Q1Experiment};

fn adaptive() -> AdaptivityConfig {
    AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1)
}

fn main() {
    let q1 = Q1Experiment::default();
    let base = q1
        .run(AdaptivityConfig::disabled(), &[])
        .expect("baseline runs");

    // Part 1 — Fig. 5: per-tuple normally distributed perturbation
    // factors with a stable mean of 30x.
    println!("Per-tuple normally distributed perturbations (mean 30x):");
    let variants: [(&str, Perturbation); 4] = [
        ("stable 30x", Perturbation::CostFactor(30.0)),
        (
            "[25,35]",
            Perturbation::NormalFactor {
                mean: 30.0,
                lo: 25.0,
                hi: 35.0,
            },
        ),
        (
            "[20,40]",
            Perturbation::NormalFactor {
                mean: 30.0,
                lo: 20.0,
                hi: 40.0,
            },
        ),
        (
            "[1,60]",
            Perturbation::NormalFactor {
                mean: 30.0,
                lo: 1.0,
                hi: 60.0,
            },
        ),
    ];
    for (label, pert) in &variants {
        let report = q1
            .run(adaptive(), &[EvaluatorPerturbation::new(0, pert.clone())])
            .expect("adaptive run");
        println!(
            "  {label:<12} adaptive {:>5.2}x  ({} adaptations)",
            report.response_time_ms / base.response_time_ms,
            report.adaptations_deployed
        );
    }

    // Part 2 — a perturbation that arrives mid-query and leaves again:
    // the system must rebalance twice.
    println!("\nLoad arriving at t=3s and leaving at t=12s on one evaluator:");
    let schedule = PerturbationSchedule::none()
        .then_at(
            SimTime::from_millis(3_000.0),
            Perturbation::CostFactor(20.0),
        )
        .then_at(SimTime::from_millis(12_000.0), Perturbation::None);
    let on_evaluator_1 = [(1, schedule)];
    let static_report = q1
        .run_scheduled(AdaptivityConfig::disabled(), &on_evaluator_1)
        .expect("static run");
    let adaptive_report = q1
        .run_scheduled(adaptive(), &on_evaluator_1)
        .expect("adaptive run");
    println!(
        "  static   {:>5.2}x\n  adaptive {:>5.2}x",
        static_report.response_time_ms / base.response_time_ms,
        adaptive_report.response_time_ms / base.response_time_ms
    );
    for entry in &adaptive_report.timeline {
        println!("    {} {}", entry.at, entry.what);
    }
}
