//! End-to-end integration: SQL through the GDQS façade, executed on the
//! simulated Grid, the threaded executor, and the single-node reference
//! engine — all three must agree on results.

use gridq::adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq::common::NodeId;
use gridq::core::{ExecutionOptions, GridQueryProcessor};
use gridq::engine::fixtures::multiset;
use gridq::engine::physical::Catalog;
use gridq::exec::{ThreadedConfig, ThreadedExecutor};
use gridq::grid::Perturbation;
use gridq::sql::plan_sql;
use gridq::workload::demo_catalog;

const Q1: &str = "select EntropyAnalyser(p.sequence) from protein_sequences p";
const Q2: &str = "select i.ORF2 from protein_sequences p, protein_interactions i \
                  where i.ORF1 = p.ORF";

fn processor() -> GridQueryProcessor {
    let mut qp = GridQueryProcessor::with_demo_grid(2);
    qp.register_catalog(demo_catalog(300, 450, 48, 2026));
    qp
}

#[test]
fn sim_matches_local_for_q1_and_q2() {
    let mut qp = processor();
    for sql in [Q1, Q2] {
        let options = ExecutionOptions::static_system().keep_results();
        let report = qp.run_sql(sql, options).unwrap();
        let local = qp.run_local(sql).unwrap();
        assert_eq!(
            multiset(&report.results),
            multiset(&local),
            "distributed and local execution disagree for {sql}"
        );
    }
}

#[test]
fn adaptive_sim_matches_local_under_perturbation() {
    let mut qp = processor();
    qp.env_mut()
        .perturb(NodeId::new(2), Perturbation::CostFactor(8.0));
    let r1 = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1);
    for sql in [Q1, Q2] {
        let report = qp
            .run_sql(
                sql,
                ExecutionOptions::default()
                    .with_adaptivity(r1.clone())
                    .keep_results(),
            )
            .unwrap();
        let local = qp.run_local(sql).unwrap();
        assert_eq!(
            multiset(&report.results),
            multiset(&local),
            "adaptive execution corrupted results for {sql}"
        );
        assert!(report.adaptations_deployed >= 1, "no adaptation for {sql}");
    }
}

#[test]
fn threaded_executor_matches_local_for_q1() {
    let qp = processor();
    let logical = qp.plan(Q1).unwrap();
    let distributed = gridq::core::schedule(
        gridq::common::QueryId::new(7),
        &logical,
        qp.env().registry(),
        qp.services(),
    )
    .unwrap();
    let catalog: Catalog = qp.catalog().clone();
    let exec = ThreadedExecutor::new(
        catalog,
        ThreadedConfig {
            adaptivity: AdaptivityConfig::disabled(),
            cost_scale: 0.001,
            ..Default::default()
        },
    );
    let report = exec.run(&distributed).unwrap();
    let local = qp.run_local(Q1).unwrap();
    assert_eq!(multiset(&report.results), multiset(&local));
}

#[test]
fn sql_errors_are_user_legible() {
    let qp = processor();
    let err = plan_sql(
        "select Frobnicate(p.orf) from protein_sequences p",
        qp.catalog(),
        qp.services(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("Frobnicate"));
    let err = plan_sql(
        "select p.orf frm protein_sequences p",
        qp.catalog(),
        qp.services(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("parse error"));
}
