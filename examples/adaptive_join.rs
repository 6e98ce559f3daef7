//! Adaptive repartitioning of a *stateful* operator: the partitioned
//! hash join of Q2.
//!
//! The join's hash table is operator state; rebalancing it requires the
//! retrospective (R1) response, which recalls unacknowledged tuples from
//! the producers' recovery logs and migrates the hash-table state of the
//! moved buckets to their new owners.
//!
//! ```sh
//! cargo run --release --example adaptive_join
//! ```

use gridq::adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq::grid::Perturbation;
use gridq::obs::TimelineKind;
use gridq::workload::experiments::{EvaluatorPerturbation, Q2Experiment};

fn main() {
    let q2 = Q2Experiment::default();
    println!(
        "Q2: select i.ORF2 from protein_sequences p, protein_interactions i \
         where i.ORF1 = p.ORF\n    ({} sequences joined with {} interactions, \
         hash-partitioned over {} evaluators, {} buckets)\n",
        q2.sequences, q2.interactions, q2.evaluators, q2.bucket_count
    );
    let base = q2
        .run(AdaptivityConfig::disabled(), &[])
        .expect("baseline runs");
    println!(
        "baseline: {:.0} ms, {} join results\n",
        base.wall_ms, base.tuples_output
    );

    for sleep_ms in [10.0, 50.0, 100.0] {
        let pert = [EvaluatorPerturbation::new(
            1,
            Perturbation::SleepMs(sleep_ms),
        )];
        let static_run = q2
            .run(AdaptivityConfig::disabled(), &pert)
            .expect("static runs");
        let adaptive = q2
            .run(
                AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1),
                &pert,
            )
            .expect("adaptive runs");
        assert_eq!(
            adaptive.tuples_output, base.tuples_output,
            "state migration must not lose or duplicate join results"
        );
        println!(
            "sleep({sleep_ms:.0}ms) on one evaluator:\n\
             \x20  static    {:>7.2}x\n\
             \x20  adaptive  {:>7.2}x  ({} adaptations, {} tuples recalled, \
             {} state tuples migrated, final split {:?})",
            static_run.wall_ms / base.wall_ms,
            adaptive.wall_ms / base.wall_ms,
            adaptive.adaptations_deployed,
            adaptive.tuples_recalled,
            adaptive.state_tuples_migrated,
            adaptive
                .final_distribution
                .iter()
                .map(|w| (w * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
        );
        for event in adaptive.obs.iter().flat_map(|o| &o.events) {
            if matches!(event.kind, TimelineKind::Deploy { .. }) {
                println!("      {}", event.to_json_line());
            }
        }
    }
}
