//! The invariant oracles that judge a chaos run.
//!
//! Every scenario runs twice — once without faults (the reference) and
//! once under its [`FaultPlan`](crate::FaultPlan) — and the oracles
//! compare the two:
//!
//! 1. **Tuple conservation** — the faulted run's result multiset equals
//!    the reference's (values only; sequence numbers are renumbered by
//!    operators and not comparable across runs).
//! 2. **Log conservation** — every recovery-log audit balances:
//!    `recorded == pruned + retired + unacked` ([`LogAudit::conserved`]).
//! 3. **Recall safety** — a run that never deployed an adaptation has an
//!    untouched router and zero migrated/recalled tuples; aborted
//!    recalls must leave no partial state behind.
//! 4. **Timeline causality** — every deploy traces back through a
//!    diagnosis and a detector notification to a raw monitoring event,
//!    and every recall finish traces to its start and deploy (modulo
//!    ring-buffer eviction, which the report declares via
//!    `dropped_events`).
//! 5. **Teardown** — the adaptivity layer's per-stream maps are empty
//!    after teardown (`adapt.tracked_streams_after_teardown == 0`), even
//!    when a chaos fault killed a node mid-run.
//! 6. **Tenant isolation** — in a co-residency cell (two queries through
//!    one `QueryService`, faults aimed at only one of them), the
//!    *unfaulted* query conserves its result multiset and keeps recall
//!    safety against its own solo reference: one tenant's faults must
//!    never bleed into another tenant's state. Single-query cells pass
//!    this oracle trivially.

use gridq_obs::{ObsReport, TimelineKind};
use gridq_recovery::LogAudit;

/// One oracle's judgment of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Stable oracle name (`conservation`, `log_conservation`,
    /// `recall_safety`, `timeline_causality`, `teardown`).
    pub oracle: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// Human-readable evidence (counts compared, first divergence).
    pub detail: String,
}

impl Verdict {
    fn pass(oracle: &'static str, detail: impl Into<String>) -> Verdict {
        Verdict {
            oracle,
            passed: true,
            detail: detail.into(),
        }
    }

    fn fail(oracle: &'static str, detail: impl Into<String>) -> Verdict {
        Verdict {
            oracle,
            passed: false,
            detail: detail.into(),
        }
    }
}

/// The substrate-neutral extract of one run that the oracles consume.
/// Built from any substrate's report by [`run_on`](crate::run_on).
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Sorted multiset of result rows (`gridq_engine::fixtures::multiset`).
    pub results: Vec<String>,
    /// Per-source recovery-log conservation audits.
    pub log_audits: Vec<LogAudit>,
    /// Adaptations actually deployed into the router.
    pub adaptations_deployed: u64,
    /// Operator-state tuples shipped between partitions.
    pub state_tuples_migrated: u64,
    /// In-flight tuples re-routed by recalls/redistributions.
    pub tuples_recalled: u64,
    /// Evaluator nodes that failed during the run (simulator crash
    /// faults). Failure recovery re-routes work without a deploy, so the
    /// recall-safety oracle must not read the rerouting as a leak.
    pub nodes_failed: u64,
    /// The final routing distribution weights.
    pub final_distribution: Vec<f64>,
    /// Observability snapshot, when the obs layer was enabled.
    pub obs: Option<ObsReport>,
    /// Blocks of tuples recalls and failovers moved outside the data
    /// plane (real substrates; see `ThreadedReport::recall_blocks`).
    pub recall_blocks: u64,
    /// Largest sequenced frame payload in bytes (sockets only).
    pub largest_frame_bytes: u64,
}

/// Oracle 1: the faulted run lost and duplicated nothing.
pub fn conservation(reference: &RunSummary, run: &RunSummary) -> Verdict {
    if reference.results == run.results {
        return Verdict::pass(
            "conservation",
            format!("{} result rows match the reference", run.results.len()),
        );
    }
    let missing = reference
        .results
        .iter()
        .filter(|r| !run.results.contains(r))
        .count();
    let surplus = run
        .results
        .iter()
        .filter(|r| !reference.results.contains(r))
        .count();
    Verdict::fail(
        "conservation",
        format!(
            "result multiset diverged: reference {} rows, run {} rows \
             ({missing} missing, {surplus} unexpected)",
            reference.results.len(),
            run.results.len()
        ),
    )
}

/// Oracle 2: every recovery-log audit balances.
pub fn log_conservation(run: &RunSummary) -> Verdict {
    for (i, audit) in run.log_audits.iter().enumerate() {
        if !audit.conserved() {
            return Verdict::fail(
                "log_conservation",
                format!("source {i} log does not balance: {audit:?}"),
            );
        }
    }
    Verdict::pass(
        "log_conservation",
        format!("{} log audit(s) balance", run.log_audits.len()),
    )
}

/// Oracle 3: a run without deployed adaptations left the routing and
/// operator placement untouched — in particular, a recall aborted by an
/// injected fault must not leave partially migrated state behind.
pub fn recall_safety(run: &RunSummary) -> Verdict {
    if run.adaptations_deployed > 0 {
        return Verdict::pass(
            "recall_safety",
            format!(
                "{} adaptation(s) deployed; migrated state is accounted to them",
                run.adaptations_deployed
            ),
        );
    }
    if run.nodes_failed > 0 {
        // Node-failure recovery legitimately zeroes the dead partition's
        // weight and re-sends logged tuples without an adaptation deploy.
        return Verdict::pass(
            "recall_safety",
            format!(
                "{} node failure(s) rerouted work without a deploy",
                run.nodes_failed
            ),
        );
    }
    if run.state_tuples_migrated != 0 || run.tuples_recalled != 0 {
        return Verdict::fail(
            "recall_safety",
            format!(
                "no adaptation deployed but state moved: {} state tuples, {} recalled",
                run.state_tuples_migrated, run.tuples_recalled
            ),
        );
    }
    let n = run.final_distribution.len();
    if n > 0 {
        let uniform = 1.0 / n as f64;
        if let Some(w) = run
            .final_distribution
            .iter()
            .find(|w| (**w - uniform).abs() > 1e-9)
        {
            return Verdict::fail(
                "recall_safety",
                format!(
                    "no adaptation deployed but the router moved off uniform: \
                     weight {w} vs {uniform} in {:?}",
                    run.final_distribution
                ),
            );
        }
    }
    Verdict::pass(
        "recall_safety",
        "no adaptation deployed and router/state untouched",
    )
}

/// Oracle 4: the adaptivity timeline is causally closed — every deploy
/// chains back to a raw monitoring event, every recall finish to its
/// start and deploy. A link pointing at an evicted sequence number is
/// tolerated only when the report admits eviction (`dropped_events > 0`).
pub fn timeline_causality(run: &RunSummary) -> Verdict {
    let Some(obs) = &run.obs else {
        return Verdict::pass("timeline_causality", "obs layer disabled; nothing to check");
    };
    let find = |seq: u64| obs.events.iter().find(|e| e.seq == seq);
    let evicted_ok = obs.dropped_events > 0;
    let mut deploys = 0usize;
    let mut finishes = 0usize;
    for event in &obs.events {
        match &event.kind {
            TimelineKind::Deploy { diagnosis_seq, .. } => {
                deploys += 1;
                let Some(diagnosis) = find(*diagnosis_seq) else {
                    if evicted_ok {
                        continue;
                    }
                    return Verdict::fail(
                        "timeline_causality",
                        format!("deploy seq {} links missing diagnosis", event.seq),
                    );
                };
                let TimelineKind::Diagnosis { notify_seq, .. } = &diagnosis.kind else {
                    return Verdict::fail(
                        "timeline_causality",
                        format!("deploy seq {} links a non-diagnosis event", event.seq),
                    );
                };
                let Some(notify) = find(*notify_seq) else {
                    if evicted_ok {
                        continue;
                    }
                    return Verdict::fail(
                        "timeline_causality",
                        format!("diagnosis seq {} links missing notification", diagnosis.seq),
                    );
                };
                let TimelineKind::DetectorNotify { raw_seq, .. } = &notify.kind else {
                    return Verdict::fail(
                        "timeline_causality",
                        format!("diagnosis seq {} links a non-notify event", diagnosis.seq),
                    );
                };
                match find(*raw_seq) {
                    Some(raw)
                        if matches!(
                            raw.kind,
                            TimelineKind::RawM1 { .. } | TimelineKind::RawM2 { .. }
                        ) => {}
                    Some(raw) => {
                        return Verdict::fail(
                            "timeline_causality",
                            format!(
                                "notify seq {} links non-raw event {:?}",
                                notify.seq, raw.kind
                            ),
                        )
                    }
                    None if evicted_ok => {}
                    None => {
                        return Verdict::fail(
                            "timeline_causality",
                            format!("notify seq {} links missing raw event", notify.seq),
                        )
                    }
                }
            }
            TimelineKind::RecallFinish { start_seq, .. } => {
                finishes += 1;
                let Some(start) = find(*start_seq) else {
                    if evicted_ok {
                        continue;
                    }
                    return Verdict::fail(
                        "timeline_causality",
                        format!("recall finish seq {} links missing start", event.seq),
                    );
                };
                let TimelineKind::RecallStart { deploy_seq, .. } = &start.kind else {
                    return Verdict::fail(
                        "timeline_causality",
                        format!("recall finish seq {} links a non-start event", event.seq),
                    );
                };
                match find(*deploy_seq) {
                    Some(deploy) if matches!(deploy.kind, TimelineKind::Deploy { .. }) => {}
                    Some(deploy) => {
                        return Verdict::fail(
                            "timeline_causality",
                            format!(
                                "recall start seq {} links non-deploy event {:?}",
                                start.seq, deploy.kind
                            ),
                        )
                    }
                    None if evicted_ok => {}
                    None => {
                        return Verdict::fail(
                            "timeline_causality",
                            format!("recall start seq {} links missing deploy", start.seq),
                        )
                    }
                }
            }
            _ => {}
        }
    }
    Verdict::pass(
        "timeline_causality",
        format!("{deploys} deploy(s) and {finishes} recall finish(es) causally closed"),
    )
}

/// Oracle 5: the adaptivity layer's per-stream tracking maps are empty
/// after teardown, even when chaos killed a node mid-run. Reads the
/// `adapt.tracked_streams_after_teardown` gauge both substrates surface.
pub fn teardown(run: &RunSummary) -> Verdict {
    let Some(obs) = &run.obs else {
        return Verdict::pass("teardown", "obs layer disabled; nothing to check");
    };
    match obs
        .metrics
        .gauges
        .get("adapt.tracked_streams_after_teardown")
    {
        Some(v) if v.abs() < 0.5 => {
            Verdict::pass("teardown", "tracked streams fully evicted at teardown")
        }
        Some(v) => Verdict::fail(
            "teardown",
            format!("{v} tracked stream(s) survived teardown"),
        ),
        None => Verdict::fail(
            "teardown",
            "gauge adapt.tracked_streams_after_teardown missing from the report",
        ),
    }
}

/// Oracle 6: the co-resident *unfaulted* query is isolated from its
/// faulted tenant — its results conserve and its recall safety holds
/// against its own solo reference. The verdict condenses the isolation
/// contract into one line so a co-residency cell fails with "tenant
/// isolation broken", not with a generic conservation message that could
/// be mistaken for the faulted query's own (tolerated) failure.
pub fn tenant_isolation(reference: &RunSummary, co_resident: &RunSummary) -> Verdict {
    let checks = [
        conservation(reference, co_resident),
        log_conservation(co_resident),
        recall_safety(co_resident),
    ];
    if let Some(broken) = checks.iter().find(|v| !v.passed) {
        return Verdict::fail(
            "tenant_isolation",
            format!(
                "co-resident unfaulted query leaked state ({}): {}",
                broken.oracle, broken.detail
            ),
        );
    }
    Verdict::pass(
        "tenant_isolation",
        format!(
            "unfaulted co-resident query conserved {} rows with recall safety intact",
            co_resident.results.len()
        ),
    )
}

/// Runs every oracle against the pair of runs, in the order they are
/// documented above. For a single-query cell the tenant-isolation oracle
/// has no co-resident query to judge and passes trivially, keeping the
/// verdict list's length and order stable across every cell.
pub fn judge(reference: &RunSummary, run: &RunSummary) -> Vec<Verdict> {
    vec![
        conservation(reference, run),
        log_conservation(run),
        recall_safety(run),
        timeline_causality(run),
        teardown(run),
        Verdict::pass(
            "tenant_isolation",
            "single-query cell; no co-resident query to isolate",
        ),
    ]
}

/// Judges a tenant-interference cell: every oracle runs against the
/// *unfaulted* co-resident query (the faulted query may legitimately
/// fail its own oracles — what the cell asserts is that its co-tenant
/// does not), capped by the real tenant-isolation verdict.
pub fn judge_tenant(reference: &RunSummary, co_resident: &RunSummary) -> Vec<Verdict> {
    vec![
        conservation(reference, co_resident),
        log_conservation(co_resident),
        recall_safety(co_resident),
        timeline_causality(co_resident),
        teardown(co_resident),
        tenant_isolation(reference, co_resident),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::{Tuple, Value};
    use gridq_engine::fixtures::multiset;

    fn summary(rows: &[&str]) -> RunSummary {
        RunSummary {
            results: rows.iter().map(|s| s.to_string()).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn conservation_flags_loss_and_surplus() {
        let reference = summary(&["a", "b", "b"]);
        assert!(conservation(&reference, &summary(&["a", "b", "b"])).passed);
        let lost = conservation(&reference, &summary(&["a", "b"]));
        assert!(!lost.passed);
        assert!(lost.detail.contains("run 2 rows"), "{}", lost.detail);
        assert!(!conservation(&reference, &summary(&["a", "b", "b", "x"])).passed);
    }

    #[test]
    fn multiset_ignores_sequence_numbers() {
        let a = Tuple::with_seq(vec![Value::Int(1)], 1);
        let b = Tuple::with_seq(vec![Value::Int(1)], 2);
        assert_eq!(multiset(&[a]), multiset(&[b]));
    }

    #[test]
    fn recall_safety_requires_untouched_state_without_deploys() {
        let clean = RunSummary {
            final_distribution: vec![0.5, 0.5],
            ..Default::default()
        };
        assert!(recall_safety(&clean).passed);
        let moved = RunSummary {
            state_tuples_migrated: 3,
            ..Default::default()
        };
        assert!(!recall_safety(&moved).passed);
        let skewed = RunSummary {
            final_distribution: vec![0.7, 0.3],
            ..Default::default()
        };
        assert!(!recall_safety(&skewed).passed);
        let deployed = RunSummary {
            adaptations_deployed: 1,
            state_tuples_migrated: 3,
            final_distribution: vec![0.7, 0.3],
            ..Default::default()
        };
        assert!(recall_safety(&deployed).passed);
        // A crashed node zeroes its weight without any deploy: failure
        // recovery is not a recall-safety violation.
        let crashed = RunSummary {
            nodes_failed: 1,
            final_distribution: vec![1.0, 0.0],
            ..Default::default()
        };
        assert!(recall_safety(&crashed).passed);
    }

    #[test]
    fn log_conservation_flags_unbalanced_audits() {
        let balanced = LogAudit {
            recorded: 10,
            pruned: 4,
            retired: 3,
            unacked: 3,
            acks_accepted: 2,
            acks_duplicate: 1,
            acks_dropped: 0,
        };
        let ok = RunSummary {
            log_audits: vec![balanced],
            ..Default::default()
        };
        assert!(log_conservation(&ok).passed);
        let broken = LogAudit {
            recorded: 10,
            pruned: 4,
            retired: 3,
            unacked: 1,
            acks_accepted: 2,
            acks_duplicate: 0,
            acks_dropped: 0,
        };
        let bad = RunSummary {
            log_audits: vec![broken],
            ..Default::default()
        };
        assert!(!log_conservation(&bad).passed);
    }

    #[test]
    fn oracles_pass_on_obs_free_runs() {
        let run = RunSummary::default();
        assert!(timeline_causality(&run).passed);
        assert!(teardown(&run).passed);
        assert_eq!(judge(&run, &run).len(), 6);
        assert_eq!(judge_tenant(&run, &run).len(), 6);
    }

    #[test]
    fn tenant_isolation_condenses_the_co_resident_checks() {
        let reference = summary(&["a", "b"]);
        assert!(tenant_isolation(&reference, &summary(&["a", "b"])).passed);
        // A leak into the co-resident query names the broken invariant.
        let leaked = tenant_isolation(&reference, &summary(&["a"]));
        assert!(!leaked.passed);
        assert!(leaked.detail.contains("conservation"), "{}", leaked.detail);
        let moved = RunSummary {
            results: vec!["a".into(), "b".into()],
            state_tuples_migrated: 3,
            ..Default::default()
        };
        let v = tenant_isolation(&reference, &moved);
        assert!(!v.passed);
        assert!(v.detail.contains("recall_safety"), "{}", v.detail);
    }
}
