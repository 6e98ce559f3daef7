//! Fixture-driven tests: every rule gets a positive case (the rule
//! fires), a negative case (out of scope or correctly written code stays
//! silent), and a suppression case (an annotated or baselined violation
//! is silenced — with a reason). Deleting any single rule's
//! implementation fails at least one of these.

use gridq_lint::baseline::Baseline;
use gridq_lint::{analyze_sources, Finding, Report};

fn lint_at(path: &str, source: &str) -> Report {
    analyze_sources(&[(path, source)], &Baseline::default())
}

fn rules_fired(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule.as_str()).collect()
}

fn count(report: &Report, rule: &str) -> usize {
    report.findings.iter().filter(|f| f.rule == rule).count()
}

const STD_SYNC: &str = include_str!("fixtures/std_sync.rs");
const WALL_CLOCK: &str = include_str!("fixtures/wall_clock.rs");
const HOT_UNWRAP: &str = include_str!("fixtures/hot_unwrap.rs");
const FLOAT_FINITE: &str = include_str!("fixtures/float_finite.rs");
const NO_PRINTLN: &str = include_str!("fixtures/no_println.rs");
const UNBOUNDED_PUSH: &str = include_str!("fixtures/unbounded_push.rs");
const ADAPT_CAST: &str = include_str!("fixtures/adapt_cast.rs");
const LOCK_CYCLE: &str = include_str!("fixtures/lock_cycle.rs");
const LOCK_ORDER_CLEAN: &str = include_str!("fixtures/lock_order_clean.rs");
const RECV_UNDER_LOCK: &str = include_str!("fixtures/recv_under_lock.rs");
const NAN_WINDOW_REVERT: &str = include_str!("fixtures/nan_window_revert.rs");

// --- std-sync ---------------------------------------------------------

#[test]
fn std_sync_fires_outside_the_sync_module() {
    let report = lint_at("crates/engine/src/shared.rs", STD_SYNC);
    // Mutex from the plain use, Condvar + RwLock from the grouped use;
    // the test-module Mutex is exempt.
    assert_eq!(count(&report, "std-sync"), 3, "{:?}", report.findings);
}

#[test]
fn std_sync_is_silent_in_the_sync_module_itself() {
    let report = lint_at("crates/common/src/sync.rs", STD_SYNC);
    assert_eq!(count(&report, "std-sync"), 0, "{:?}", report.findings);
}

#[test]
fn std_sync_is_baselinable_with_a_reason() {
    let baseline = Baseline::parse(
        "[[suppress]]\nrule = \"std-sync\"\nfile = \"crates/engine/src/shared.rs\"\nreason = \"fixture exercising the baseline\"\n",
    )
    .unwrap();
    let report = analyze_sources(&[("crates/engine/src/shared.rs", STD_SYNC)], &baseline);
    assert_eq!(count(&report, "std-sync"), 0);
    assert_eq!(report.suppressed_baseline, 3);
    assert!(report.stale_baseline.is_empty());
}

// --- wall-clock -------------------------------------------------------

#[test]
fn wall_clock_fires_outside_clock_sites() {
    let report = lint_at("crates/adapt/src/timing.rs", WALL_CLOCK);
    let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(count(&report, "wall-clock") >= 2, "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("Instant::now")));
    assert!(messages.iter().any(|m| m.contains("SystemTime")));
}

#[test]
fn wall_clock_is_silent_at_allowlisted_sites() {
    // The SPSC ring's `pop_wait` park deadline is inherently wall-clock.
    let path = "crates/common/src/sync/ring.rs";
    let report = lint_at(path, WALL_CLOCK);
    assert_eq!(
        count(&report, "wall-clock"),
        0,
        "{path}: {:?}",
        report.findings
    );
}

#[test]
fn wall_clock_fires_in_the_recall_gate() {
    // No recall barrier waits on a clock: a dead worker's death answers
    // it, so a timer in the gate or its transport is a finding.
    let report = lint_at("crates/exec/src/recall.rs", WALL_CLOCK);
    assert!(count(&report, "wall-clock") >= 2, "{:?}", report.findings);
}

#[test]
fn wall_clock_fires_inside_the_exec_protocol_core() {
    // `crates/exec/src/lib.rs` and `socket.rs` — the drivers — are clock
    // sites; the protocol core they drive is deliberately not, so a
    // clock read there is a finding and the core stays time-free.
    for path in [
        "crates/exec/src/protocol/producer.rs",
        "crates/exec/src/protocol/mod.rs",
    ] {
        let report = lint_at(path, WALL_CLOCK);
        assert!(
            count(&report, "wall-clock") >= 2,
            "{path}: {:?}",
            report.findings
        );
    }
    assert!(!gridq_lint::rules::CLOCK_SITES
        .iter()
        .any(|site| site.starts_with("crates/exec/src/protocol/")));
}

// --- hot-unwrap -------------------------------------------------------

#[test]
fn hot_unwrap_fires_in_exec_and_adapt() {
    for path in ["crates/exec/src/flow.rs", "crates/adapt/src/loop.rs"] {
        let report = lint_at(path, HOT_UNWRAP);
        // drain_one + drain_loud fire; the annotated site and
        // `unwrap_or` do not; the test module is exempt.
        assert_eq!(
            count(&report, "hot-unwrap"),
            2,
            "{path}: {:?}",
            report.findings
        );
        assert_eq!(report.suppressed_inline, 1, "{path}");
    }
}

#[test]
fn hot_unwrap_is_silent_outside_the_hot_crates() {
    let report = lint_at("crates/engine/src/flow.rs", HOT_UNWRAP);
    assert_eq!(count(&report, "hot-unwrap"), 0, "{:?}", report.findings);
}

// --- float-finite -----------------------------------------------------

#[test]
fn float_finite_fires_on_unguarded_sinks_and_float_eq() {
    let report = lint_at("crates/adapt/src/acc.rs", FLOAT_FINITE);
    // accumulate (+=), store (push), compare (==); push_guarded and
    // tolerant stay silent.
    assert_eq!(count(&report, "float-finite"), 3, "{:?}", report.findings);
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("`accumulate`")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("`store`")));
    assert!(!report
        .findings
        .iter()
        .any(|f| f.message.contains("push_guarded")));
}

#[test]
fn float_finite_is_silent_outside_monitoring_paths() {
    let report = lint_at("crates/sql/src/acc.rs", FLOAT_FINITE);
    assert_eq!(count(&report, "float-finite"), 0, "{:?}", report.findings);
}

#[test]
fn float_finite_catches_the_pr2_nan_window_bug_if_reverted() {
    // The PR 2 incident: TrimmedWindow::push stored samples unguarded,
    // so one NaN cost sample silenced the detector for a whole window.
    // Presented at the real stats.rs path, the pre-fix body must trip
    // the lint — and only the float rule, since the window is bounded.
    let report = lint_at("crates/common/src/stats.rs", NAN_WINDOW_REVERT);
    assert_eq!(
        rules_fired(&report),
        vec!["float-finite"],
        "{:?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("`sample`"));
    assert_eq!(count(&report, "unbounded-push"), 0);
}

// --- no-println -------------------------------------------------------

#[test]
fn no_println_fires_in_library_code_only() {
    let report = lint_at("crates/engine/src/report.rs", NO_PRINTLN);
    // println + eprintln; the string literal and the test module do not
    // count.
    assert_eq!(count(&report, "no-println"), 2, "{:?}", report.findings);
}

#[test]
fn no_println_is_silent_in_binaries_and_tests() {
    for path in ["crates/bench/src/bin/repro.rs", "crates/exec/tests/e2e.rs"] {
        let report = lint_at(path, NO_PRINTLN);
        assert_eq!(count(&report, "no-println"), 0, "{path}");
    }
}

// --- unbounded-push ---------------------------------------------------

#[test]
fn unbounded_push_requires_eviction_or_annotation() {
    let report = lint_at("crates/obs/src/events.rs", UNBOUNDED_PUSH);
    // EventLog, RetryRing, and SeenDedup (`.insert(` growth) fire;
    // BoundedWindow, DrainedRing, and WindowedDedup have eviction;
    // AnnotatedTrace is suppressed with a reason; LogicalPlan must not
    // match `Log`.
    assert_eq!(count(&report, "unbounded-push"), 3, "{:?}", report.findings);
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("EventLog")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("RetryRing")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("SeenDedup")));
    assert_eq!(report.suppressed_inline, 1);
}

// --- adapt-cast -------------------------------------------------------

#[test]
fn adapt_cast_fires_on_int_float_casts_in_adapt() {
    let report = lint_at("crates/adapt/src/casts.rs", ADAPT_CAST);
    // `n as f64` and `2.75 as u32`; `n as u64` is int→int and fine.
    assert_eq!(count(&report, "adapt-cast"), 2, "{:?}", report.findings);
}

#[test]
fn adapt_cast_is_silent_outside_adapt() {
    let report = lint_at("crates/engine/src/casts.rs", ADAPT_CAST);
    assert_eq!(count(&report, "adapt-cast"), 0, "{:?}", report.findings);
}

// --- lock-order -------------------------------------------------------

#[test]
fn lock_order_detects_the_synthetic_two_mutex_cycle() {
    let report = lint_at("crates/exec/src/pair.rs", LOCK_CYCLE);
    assert_eq!(report.lock_graph.cycles.len(), 1, "{:?}", report.lock_graph);
    let findings: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order")
        .collect();
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("cycle"));
    assert!(findings[0].message.contains("self.a"));
    assert!(findings[0].message.contains("self.b"));
}

#[test]
fn lock_order_accepts_consistent_ordering() {
    let report = lint_at("crates/exec/src/stage.rs", LOCK_ORDER_CLEAN);
    assert_eq!(count(&report, "lock-order"), 0, "{:?}", report.findings);
    assert!(report.lock_graph.cycles.is_empty());
    // The consistent a→b order is still recorded as an edge.
    assert!(report
        .lock_graph
        .edges
        .iter()
        .any(|e| e.from == "self.a" && e.to == "self.b"));
}

#[test]
fn lock_order_flags_blocking_recv_under_a_lock() {
    let report = lint_at("crates/exec/src/drain.rs", RECV_UNDER_LOCK);
    assert_eq!(count(&report, "lock-order"), 1, "{:?}", report.findings);
    assert!(report.findings[0].message.contains("blocking `recv`"));
}

#[test]
fn lock_order_ignores_files_outside_exec() {
    let report = lint_at("crates/engine/src/pair.rs", LOCK_CYCLE);
    assert_eq!(count(&report, "lock-order"), 0, "{:?}", report.findings);
    assert!(report.lock_graph.cycles.is_empty());
}

// --- cross-cutting ----------------------------------------------------

#[test]
fn suppression_without_a_reason_does_not_suppress() {
    let src = "pub fn f() {\n    println!(\"x\"); // lint: allow no-println\n}\n";
    let report = lint_at("crates/engine/src/x.rs", src);
    assert_eq!(count(&report, "no-println"), 1, "{:?}", report.findings);
    assert!(report.findings[0].message.contains("needs a reason"));
    assert_eq!(report.suppressed_inline, 0);
}

#[test]
fn stale_baseline_entries_are_reported() {
    let baseline = Baseline::parse(
        "[[suppress]]\nrule = \"no-println\"\nfile = \"crates/gone/src/lib.rs\"\nreason = \"file was deleted\"\n",
    )
    .unwrap();
    let report = analyze_sources(&[("crates/engine/src/ok.rs", "pub fn f() {}\n")], &baseline);
    assert!(report.clean());
    assert_eq!(report.stale_baseline.len(), 1);
}
