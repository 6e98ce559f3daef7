//! The same adaptivity components running against the *wall clock*: a
//! partitioned operation call executed over real OS threads and
//! channels, with live M1/M2 monitoring and prospective rebalancing.
//!
//! ```sh
//! cargo run --release --example threaded_cluster
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use gridq::adapt::AdaptivityConfig;
use gridq::common::NodeId;
use gridq::engine::evaluator::{ServiceCallFactory, StreamTag};
use gridq::engine::fixtures::{catalog, single_stage_plan};
use gridq::engine::service::ServiceRegistry;
use gridq::engine::Expr;
use gridq::exec::{ThreadedConfig, ThreadedExecutor};
use gridq::grid::Perturbation;
use gridq::workload::{protein_sequences, EntropyAnalyser};

fn main() {
    let table = protein_sequences(800, 64, 7);
    let catalog = catalog(&[&table]);

    let factory = ServiceCallFactory::new(
        table.schema(),
        Arc::new(EntropyAnalyser::new(2.0)),
        vec![Expr::col(1)],
        "entropy",
        false,
        ServiceRegistry::new(),
    );
    let scans = [("protein_sequences", StreamTag::Single, 0.5)];
    let plan = single_stage_plan(1, &scans, factory, 2, None, 20);

    // Thread 2 simulates a machine whose entropy service became 10x
    // slower; costs are scaled down so the run takes ~1-2 real seconds.
    let mut perturbations = HashMap::new();
    perturbations.insert(NodeId::new(2), Perturbation::CostFactor(10.0));

    let static_exec = ThreadedExecutor::new(
        catalog.clone(),
        ThreadedConfig {
            adaptivity: AdaptivityConfig::disabled(),
            cost_scale: 0.02,
            perturbations: perturbations.clone(),
            receive_cost_ms: 1.0,
            ..Default::default()
        },
    );
    let static_report = static_exec.run(&plan).expect("static run");
    println!(
        "static   : {:>6.0} ms wall, split {:?}",
        static_report.wall_ms, static_report.per_partition_processed
    );

    let adaptive_exec = ThreadedExecutor::new(
        catalog,
        ThreadedConfig {
            adaptivity: AdaptivityConfig::default(),
            cost_scale: 0.02,
            perturbations,
            receive_cost_ms: 1.0,
            ..Default::default()
        },
    );
    let report = adaptive_exec.run(&plan).expect("adaptive run");
    println!(
        "adaptive : {:>6.0} ms wall, split {:?}, {} adaptations, final weights {:?}",
        report.wall_ms,
        report.per_partition_processed,
        report.adaptations_deployed,
        report
            .final_distribution
            .iter()
            .map(|w| (w * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!(
        "monitoring: {} M1 + {} M2 raw events fed the detector",
        report.raw_m1_events, report.raw_m2_events
    );
    assert_eq!(report.results.len(), 800);
}
