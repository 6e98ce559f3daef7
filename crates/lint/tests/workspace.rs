//! Self-check: the real workspace must be lint-clean against the
//! committed baseline. Running this under plain `cargo test` makes the
//! invariants part of tier-1, not just of the CI lint job.

use std::path::Path;

use gridq_lint::run_workspace;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
}

#[test]
fn workspace_is_lint_clean_against_the_committed_baseline() {
    let root = workspace_root();
    let report = run_workspace(root, Some(Path::new("lint-baseline.toml")))
        .expect("workspace walk succeeds");
    assert!(report.files_scanned > 50, "walker found the workspace");
    assert!(
        report.findings.is_empty(),
        "non-baselined findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{}: [{}] {}", f.path, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.stale_baseline.is_empty(),
        "stale baseline entries: {:?}",
        report.stale_baseline
    );
    assert!(
        report.suppressed_baseline <= 10,
        "baseline grew past the agreed cap: {}",
        report.suppressed_baseline
    );
}

#[test]
fn exec_lock_graph_has_no_cycles() {
    let root = workspace_root();
    let report = run_workspace(root, Some(Path::new("lint-baseline.toml")))
        .expect("workspace walk succeeds");
    assert!(
        report.lock_graph.cycles.is_empty(),
        "lock ordering cycles in crates/exec: {:?}",
        report.lock_graph.cycles
    );
    // The graph is not trivially empty: the RecallGate state→condvar
    // ordering must be visible to the analyzer.
    assert!(
        !report.lock_graph.nodes.is_empty(),
        "analyzer saw no acquisitions at all — scope regression?"
    );
    assert!(
        report
            .lock_graph
            .edges
            .iter()
            .any(|e| e.file == "crates/exec/src/recall.rs"),
        "expected the RecallGate wait edges, got {:?}",
        report.lock_graph.edges
    );
    // The protocol core moved out of the executors' `run` functions: its
    // router acquisitions must still be in the analyzer's scope, and it
    // must never hold one lock while taking another (every router guard
    // there is a statement-scoped temporary or the only lock held).
    assert!(
        report.lock_graph.nodes.iter().any(|n| n.contains("router")),
        "analyzer lost the router acquisitions: {:?}",
        report.lock_graph.nodes
    );
    assert!(
        !report
            .lock_graph
            .edges
            .iter()
            .any(|e| e.file.starts_with("crates/exec/src/protocol/")),
        "the protocol core must not nest locks: {:?}",
        report.lock_graph.edges
    );
}
