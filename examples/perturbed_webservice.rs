//! The paper's motivating e-science scenario: a bioinformatics analysis
//! (`EntropyAnalyser`) fanned out over Grid nodes whose performance
//! degrades mid-run by different amounts.
//!
//! Reproduces the Fig. 2(a) sweep and compares the response policies:
//! prospective (R2) redirection of future tuples vs retrospective (R1)
//! recall of tuples already sent.
//!
//! ```sh
//! cargo run --release --example perturbed_webservice
//! ```

use gridq::adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq::grid::Perturbation;
use gridq::workload::experiments::{EvaluatorPerturbation, Q1Experiment};

fn main() {
    let q1 = Q1Experiment::default();
    let base = q1
        .run(AdaptivityConfig::disabled(), &[])
        .expect("baseline runs");
    println!(
        "Q1: select EntropyAnalyser(p.sequence) from protein_sequences p \
         ({} tuples over {} evaluators)\n",
        q1.tuples, q1.evaluators
    );
    println!(
        "baseline (no perturbation, no adaptivity): {:.0} ms\n",
        base.wall_ms
    );
    println!(
        "{:<14} {:>12} {:>14} {:>15}",
        "perturbation", "static", "prospective R2", "retrospective R1"
    );
    for k in [10.0, 20.0, 30.0] {
        let pert = [EvaluatorPerturbation::new(1, Perturbation::CostFactor(k))];
        let static_run = q1
            .run(AdaptivityConfig::disabled(), &pert)
            .expect("static runs");
        let r2 = q1
            .run(
                AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R2),
                &pert,
            )
            .expect("R2 runs");
        let r1 = q1
            .run(
                AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1),
                &pert,
            )
            .expect("R1 runs");
        println!(
            "{:<14} {:>11.2}x {:>13.2}x {:>14.2}x   ({} tuples recalled by R1)",
            format!("{k:.0}x WS cost"),
            static_run.wall_ms / base.wall_ms,
            r2.wall_ms / base.wall_ms,
            r1.wall_ms / base.wall_ms,
            r1.tuples_recalled,
        );
    }
    println!(
        "\nShape check (paper): static degrades ~3.5/6.7/9.8x; adaptivity keeps it \
         far lower, and the retrospective response barely depends on the \
         perturbation size."
    );
}
