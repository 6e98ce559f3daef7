//! Process-per-node execution: the same socket protocol the in-process
//! workers speak, but with each evaluator running in a *spawned*
//! `gridq-node` process — separate address spaces, real OS process
//! boundaries, results collected back over the wire. Cargo points
//! `CARGO_BIN_EXE_gridq-node` at the freshly built worker binary.

use std::path::PathBuf;

use gridq_engine::fixtures::{call_plan, catalog, int_table, join_plan, CallShape, JoinShape};
use gridq_exec::socket::{
    standard_resolver, ScriptedAdaptation, SocketConfig, SocketExecutor, WireStageSpec,
    WorkerLaunch,
};

fn node_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_gridq-node"))
}

/// A spawned worker process per partition computes the same squares an
/// in-process run does, and every worker exits cleanly at teardown.
#[test]
fn spawned_worker_processes_compute_the_query() {
    let table = int_table("spawn_t", 0..200);
    let shape = CallShape::default();
    let mut config = SocketConfig::new(
        WireStageSpec::for_call_plan(&table, &shape),
        standard_resolver(),
    );
    config.launch = WorkerLaunch::Spawn {
        program: node_binary(),
    };
    config.cost_scale = 0.002;
    let report = SocketExecutor::new(catalog(&[&table]), config)
        .run(&call_plan(&table, &shape))
        .unwrap();
    let mut got: Vec<i64> = report
        .results
        .iter()
        .map(|t| t.values()[0].as_int().unwrap())
        .collect();
    got.sort_unstable();
    let want: Vec<i64> = (0..200).map(|i: i64| i * i).collect();
    assert_eq!(got, want);
    assert_eq!(report.reconnects, 0, "healthy run: {report:?}");
}

/// The full retrospective recall — drain barrier, state migration
/// through the coordinator, resume — works across real process
/// boundaries: build-side hash state leaves one OS process and lands in
/// another, and the join result is exactly the expected multiset.
#[test]
fn spawned_workers_survive_a_retrospective_recall() {
    let build = int_table("spawn_build", 0..100);
    let probe = int_table("spawn_probe", 0..600);
    let shape = JoinShape {
        scan_cost_ms: [0.2, 1.0],
        ..Default::default()
    };
    let mut config = SocketConfig::new(
        WireStageSpec::for_join_plan(&build, &probe, &shape),
        standard_resolver(),
    );
    config.launch = WorkerLaunch::Spawn {
        program: node_binary(),
    };
    config.cost_scale = 0.05;
    config.checkpoint_interval = 8;
    config.adaptations = vec![ScriptedAdaptation {
        after_routed: 150,
        weights: vec![0.25, 0.75],
        retrospective: true,
    }];
    let report = SocketExecutor::new(catalog(&[&build, &probe]), config)
        .run(&join_plan(&build, &probe, &shape))
        .unwrap();
    // Every probe row 0..100 matches its build row exactly once.
    assert_eq!(report.results.len(), 100, "{report:?}");
    assert_eq!(
        report.recalls_completed, 1,
        "the scripted recall must complete: {report:?}"
    );
    assert!(
        report.state_tuples_migrated >= 1,
        "recall at these weights moves build state: {report:?}"
    );
    for audit in &report.log_audits {
        assert!(audit.conserved(), "log audit must balance: {audit:?}");
    }
}
