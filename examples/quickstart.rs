//! Quickstart: submit SQL to the adaptive Grid query processor.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gridq::adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq::common::NodeId;
use gridq::core::{ExecutionOptions, GridQueryProcessor};
use gridq::grid::Perturbation;
use gridq::obs::TimelineKind;
use gridq::workload::demo_catalog;

fn main() {
    // A demo Grid: one data node plus two evaluation nodes on a LAN,
    // with the EntropyAnalyser web service registered.
    let mut qp = GridQueryProcessor::with_demo_grid(2);
    qp.register_catalog(demo_catalog(1000, 1500, 64, 42));

    let q1 = "select EntropyAnalyser(p.sequence) from protein_sequences p";

    // Show how the query is planned and scheduled.
    println!("{}", qp.explain(q1).expect("query plans"));

    // Run on healthy resources.
    let healthy = qp
        .run_sql(q1, ExecutionOptions::static_system())
        .expect("query runs");
    println!(
        "healthy grid      : {:>8.0} ms, {} tuples, split {:?}",
        healthy.wall_ms, healthy.tuples_output, healthy.per_partition_processed
    );

    // Perturb the second evaluator: its CPU becomes 10x slower, as if
    // another Grid job landed on it.
    qp.env_mut()
        .perturb(NodeId::new(2), Perturbation::CostFactor(10.0));

    let static_run = qp
        .run_sql(q1, ExecutionOptions::static_system())
        .expect("query runs");
    println!(
        "perturbed, static : {:>8.0} ms, {} tuples, split {:?}",
        static_run.wall_ms, static_run.tuples_output, static_run.per_partition_processed
    );

    // The same query with the adaptivity components active: the
    // monitoring -> diagnosis -> response loop rebalances the workload.
    let adaptive_options = ExecutionOptions::default().with_adaptivity(
        AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1),
    );
    let adaptive = qp.run_sql(q1, adaptive_options).expect("query runs");
    println!(
        "perturbed, adaptive: {:>7.0} ms, {} tuples, split {:?}",
        adaptive.wall_ms, adaptive.tuples_output, adaptive.per_partition_processed
    );
    for event in adaptive.obs.iter().flat_map(|o| &o.events) {
        if matches!(event.kind, TimelineKind::Deploy { .. }) {
            println!("    {}", event.to_json_line());
        }
    }
    println!(
        "adaptivity recovered {:.0}% of the perturbation-induced slowdown",
        100.0 * (static_run.wall_ms - adaptive.wall_ms) / (static_run.wall_ms - healthy.wall_ms)
    );
}
