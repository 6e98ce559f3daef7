//! Service-plane parity: N concurrent queries admitted through one
//! [`QueryService`] — multiplexed over shared evaluator nodes on the
//! threaded and the socket substrates — must each reproduce the result
//! multiset of its own *serial* simulator run, conserve its own
//! recovery logs, and never touch a co-resident query's state.
//!
//! Three isolation layers are pinned here:
//! 1. **Results**: concurrency (admission queueing, modelled
//!    contention, interleaved adaptations) never changes what any
//!    single query returns.
//! 2. **State**: a stateful query's retrospective recall migrates its
//!    own operator state only; a co-resident stateless query records
//!    zero recalled or migrated tuples and no recall events.
//! 3. **Diagnosis**: a contended query adapts through its own detector →
//!    diagnoser → responder chain, once per notification, and the
//!    accepted rebalance is attributed to the *correct* co-resident
//!    tenant (`TenantRebalance → Diagnosis ← Deploy`, then
//!    `Diagnosis → DetectorNotify → RawM1`).

use std::collections::HashMap;

use gridq::adapt::COOLDOWN_MS;
use gridq::chaos::{run_on, Knobs, Substrate, Workload};
use gridq::common::QueryId;
use gridq::engine::fixtures::multiset;
use gridq::engine::service::AdmissionConfig;
use gridq::exec::{QueryOutcome, QueryService, QuerySubmission, ServiceConfig};
use gridq::obs::{RunReport, TimelineEvent, TimelineKind};
use gridq::workload::experiments::Q1Experiment;

mod common;
use common::{node_2_slow, q1, q2_r1, r1_knobs, r2_knobs, static_knobs};

/// The serial reference: one workload, alone, on the simulator.
fn sim_reference(w: &Workload, knobs: &Knobs) -> Vec<String> {
    multiset(&run_on(Substrate::Sim, w, knobs).unwrap().results)
}

fn submit(w: &Workload, substrate: Substrate, knobs: &Knobs) -> QuerySubmission {
    w.submission(substrate, knobs).unwrap()
}

fn service(max_concurrent: usize, queue_depth: usize) -> QueryService {
    QueryService::new(ServiceConfig {
        admission: AdmissionConfig {
            max_concurrent,
            queue_depth,
        },
    })
    .unwrap()
}

fn threaded(outcome: &QueryOutcome) -> &RunReport {
    match outcome {
        QueryOutcome::Threaded(r) => r,
        other => panic!("expected a completed threaded query, got {other:?}"),
    }
}

fn assert_distinct_epochs(ids: &[QueryId]) {
    for (i, a) in ids.iter().enumerate() {
        for b in &ids[i + 1..] {
            assert_ne!(a, b, "admission epochs must be unique per query");
        }
    }
}

/// Four queries — two stateless Q1 (one static, one adapting under a
/// 10x perturbation) and two stateful Q2 under retrospective R1 —
/// admitted concurrently into two run slots. Every query's multiset
/// equals its serial simulator reference, and every R1 query's
/// recovery logs balance on their own.
#[test]
fn concurrent_threaded_queries_match_their_serial_sim_references() {
    let (q1, q2) = (q1(600), q2_r1());
    let r1 = r1_knobs(Substrate::Threaded);

    let ref_q1 = sim_reference(&q1, &static_knobs());
    assert_eq!(ref_q1.len(), 600);
    let ref_q2 = sim_reference(&q2, &r1);
    assert_eq!(ref_q2.len(), 300);

    let service = service(2, 2);
    let report = service.run_batch(vec![
        submit(&q1, Substrate::Threaded, &static_knobs()),
        submit(&q2, Substrate::Threaded, &r1),
        submit(&node_2_slow(q1.clone()), Substrate::Threaded, &r2_knobs()),
        submit(&q2, Substrate::Threaded, &r1),
    ]);

    assert_eq!(report.queries.len(), 4);
    let ids: Vec<QueryId> = report.queries.iter().map(|(id, _)| *id).collect();
    assert_distinct_epochs(&ids);

    for (i, (_, outcome)) in report.queries.iter().enumerate() {
        let run = threaded(outcome);
        let expected = if i % 2 == 0 { &ref_q1 } else { &ref_q2 };
        assert_eq!(
            &multiset(&run.results),
            expected,
            "query {i} must reproduce its serial sim multiset"
        );
    }
    // The stateful queries each exercised the control loop and each
    // one's recovery logs balance: nothing lost, nothing duplicated.
    for i in [1usize, 3] {
        let run = threaded(&report.queries[i].1);
        assert!(
            run.adaptations_deployed >= 1,
            "query {i} must adapt under the 10x imbalance: {run:?}"
        );
        assert_eq!(run.log_audits.len(), 2, "query {i}");
        for audit in &run.log_audits {
            assert!(audit.conserved(), "query {i} log audit: {audit:?}");
        }
        assert_eq!(
            run.log_audits[1].unacked, 0,
            "query {i} probe log must drain: {:?}",
            run.log_audits[1]
        );
    }

    let stats = report.admission;
    assert_eq!(stats.admitted + stats.enqueued, 4, "{stats:?}");
    assert_eq!(stats.completed, 4, "{stats:?}");
    assert_eq!(stats.rejected, 0, "{stats:?}");
    assert!(stats.peak_running <= 2, "{stats:?}");
}

/// The same service multiplexes process-per-node queries: three socket
/// submissions (static, scripted prospective swap, scripted
/// retrospective recall) run concurrently, each against its own worker
/// processes, and each returns its serial simulator multiset.
#[test]
fn concurrent_socket_queries_match_their_serial_sim_references() {
    let (q1, q1_slow, q2) = (q1(600), node_2_slow(q1(600)), q2_r1());
    let r1 = r1_knobs(Substrate::Socket);

    let ref_q1 = sim_reference(&q1, &static_knobs());
    let ref_q1_r2 = sim_reference(&q1_slow, &r2_knobs());
    let ref_q2 = sim_reference(&q2, &r1);

    let service = service(2, 2);
    let report = service.run_batch(vec![
        submit(&q1, Substrate::Socket, &static_knobs()),
        submit(&q1_slow, Substrate::Socket, &r2_knobs()),
        submit(&q2, Substrate::Socket, &r1),
    ]);

    assert_eq!(report.queries.len(), 3);
    let ids: Vec<QueryId> = report.queries.iter().map(|(id, _)| *id).collect();
    assert_distinct_epochs(&ids);

    let socket = |i: usize| match &report.queries[i].1 {
        QueryOutcome::Socket(r) => r,
        other => panic!("query {i}: expected a completed socket query, got {other:?}"),
    };

    let static_run = socket(0);
    assert_eq!(static_run.reconnects, 0, "healthy run: {static_run:?}");
    assert_eq!(multiset(&static_run.results), ref_q1);

    let swap_run = socket(1);
    assert_eq!(
        swap_run.adaptations_deployed, 1,
        "the scripted swap must deploy: {swap_run:?}"
    );
    assert_eq!(multiset(&swap_run.results), ref_q1_r2);

    let recall_run = socket(2);
    assert_eq!(
        recall_run.recalls_completed, 1,
        "the scripted recall must complete: {recall_run:?}"
    );
    assert!(
        recall_run.state_tuples_migrated >= 1,
        "a recall at these weights moves build state: {recall_run:?}"
    );
    assert_eq!(multiset(&recall_run.results), ref_q2);
    for audit in &recall_run.log_audits {
        assert!(audit.conserved(), "log audit must balance: {audit:?}");
    }

    assert_eq!(report.admission.completed, 3);
    assert_eq!(report.admission.rejected, 0);
}

/// 64 concurrent sessions against one service, even ones on threads and
/// odd ones over sockets, queue for 4 run slots. Every session's result
/// must be the serial simulator multiset — the same cardinality with one
/// value changed is a wrong answer — and nothing may be rejected or fail.
#[test]
fn sixty_four_mixed_sessions_through_four_slots_each_match_the_serial_sim_multiset() {
    const SESSIONS: usize = 64;

    // Small queries: the load is on admission and multiplexing.
    let q1 = q1(40);
    let reference = sim_reference(&q1, &static_knobs());
    assert_eq!(reference.len(), 40);

    // A queue deep enough for every session: a rejection here is a
    // failure, not back-pressure. `run_batch` is one scoped thread per
    // submission, each blocked in `submit_and_wait`.
    let service = service(4, SESSIONS);
    let substrate = |session: usize| match session % 2 {
        0 => Substrate::Threaded,
        _ => Substrate::Socket,
    };
    let sessions = (0..SESSIONS).map(|s| submit(&q1, substrate(s), &static_knobs()));
    let report = service.run_batch(sessions.collect());

    let outcomes = || report.queries.iter().map(|(_, outcome)| outcome);
    let rejected = outcomes().filter(|o| matches!(o, QueryOutcome::Rejected { .. }));
    assert_eq!(rejected.count(), 0, "{:?}", report.admission);
    let failed = outcomes().filter(|o| matches!(o, QueryOutcome::Failed { .. }));
    assert_eq!(failed.count(), 0, "{:?}", report.admission);
    let correct = outcomes().filter(|o| o.results().is_some_and(|r| multiset(r) == reference));
    assert_eq!(
        correct.count(),
        SESSIONS,
        "a session's multiset differs from the sim's"
    );

    let stats = report.admission;
    assert!(stats.peak_running <= 4, "{stats:?}");
    assert!(stats.enqueued > 0, "{stats:?}");
}

/// Zero cross-query state leakage: a stateful Q2's drain–migrate–resume
/// recall runs while a stateless Q1 is co-resident on the same nodes.
/// The Q2 migrates its own operator state; the Q1 — monitoring active,
/// sharing the detector's host process and the evaluator nodes —
/// records zero migrated state, zero recalled tuples, and no recall
/// events in its timeline.
#[test]
fn stateful_recall_never_leaks_into_a_co_resident_stateless_query() {
    let (q1, q2) = (q1(600), q2_r1());
    let r1 = r1_knobs(Substrate::Threaded);

    let ref_q1 = sim_reference(&q1, &static_knobs());
    let ref_q2 = sim_reference(&q2, &r1);

    let service = service(2, 0);
    let report = service.run_batch(vec![
        // Stateless observer: monitoring on, no perturbation of its own.
        submit(&q1, Substrate::Threaded, &r2_knobs()),
        // Stateful neighbour: 10x perturbation forces an R1 recall.
        submit(&q2, Substrate::Threaded, &r1),
    ]);

    let stateless = threaded(&report.queries[0].1);
    let stateful = threaded(&report.queries[1].1);
    assert_ne!(report.queries[0].0, report.queries[1].0);

    assert_eq!(multiset(&stateless.results), ref_q1);
    assert_eq!(multiset(&stateful.results), ref_q2);

    // The neighbour really recalled and moved state...
    assert!(
        stateful.adaptations_deployed >= 1 && stateful.recalls_completed >= 1,
        "expected a completed retrospective recall: {stateful:?}"
    );
    assert!(
        stateful.state_tuples_migrated >= 1,
        "the recall must migrate build state: {stateful:?}"
    );
    for audit in &stateful.log_audits {
        assert!(audit.conserved(), "log audit must balance: {audit:?}");
    }

    // ...and none of it shows up on the co-resident query.
    assert_eq!(
        stateless.state_tuples_migrated, 0,
        "a stateless query migrates nothing: {stateless:?}"
    );
    assert_eq!(
        stateless.tuples_recalled, 0,
        "no recall may touch the co-resident query: {stateless:?}"
    );
    assert_eq!(stateless.recalls_completed, 0, "{stateless:?}");
    let timeline = &stateless
        .obs
        .as_ref()
        .expect("obs enabled by default")
        .events;
    assert!(
        !timeline.iter().any(|e| matches!(
            e.kind,
            TimelineKind::RecallStart { .. } | TimelineKind::RecallFinish { .. }
        )),
        "the stateless query's timeline must contain no recall events"
    );
}

/// Runs the contended pair through one two-slot service: a long-running
/// static Q1 on evaluators 1-2 (the contention source) beside an
/// adapting Q1 on evaluators 1-3 (the observer). Node 3 stays
/// uncontended, so the modelled contention (alpha = 1.0 doubles
/// shared-node costs) shows up as a *skew* in the observer's M1 stream.
/// A slow scan keeps the observer's producer streaming, and its
/// adaptivity loop live, well past the diagnosis. Both multisets must
/// equal their serial references: contention-induced rerouting never
/// changes a result. Returns (source, observer) with their epochs.
fn run_contended_pair(observer_knobs: &Knobs) -> ((QueryId, RunReport), (QueryId, RunReport)) {
    let source = q1(2000);
    let source_knobs = Knobs {
        cost_scale: 0.05,
        ..Knobs::default()
    };
    let observer = Workload::q1(&Q1Experiment {
        tuples: 600,
        evaluators: 3,
        ..Default::default()
    })
    .scan_cost_ms(&[5.0]);

    let report = service(2, 0).run_batch(vec![
        submit(&source, Substrate::Threaded, &source_knobs),
        submit(&observer, Substrate::Threaded, observer_knobs),
    ]);
    let [(source_id, source_outcome), (observer_id, observer_outcome)] = &report.queries[..] else {
        panic!("two submissions, two outcomes: {report:?}");
    };
    let (source_run, observer_run) = (threaded(source_outcome), threaded(observer_outcome));
    assert_eq!(
        multiset(&source_run.results),
        sim_reference(&source, &static_knobs())
    );
    assert_eq!(
        multiset(&observer_run.results),
        sim_reference(&observer, &static_knobs())
    );
    assert_eq!(
        report.tenant_rebalances,
        source_run.tenant_rebalances + observer_run.tenant_rebalances
    );
    (
        (*source_id, source_run.clone()),
        (*observer_id, observer_run.clone()),
    )
}

fn timeline(run: &RunReport) -> &[TimelineEvent] {
    &run.obs.as_ref().expect("obs enabled by default").events
}

/// Cross-query contention end to end, on the query's one diagnosis path.
/// Under R1 the observer's own diagnoser proposes the balanced `W'`, its
/// responder accepts it, and the deploy is recorded as a tenant
/// rebalance attributed to the co-resident source:
/// `TenantRebalance.diagnosis_seq → Diagnosis ← Deploy`, then
/// `Diagnosis.notify_seq → DetectorNotify.raw_seq → RawM1`. One
/// notification deploys at most once, and deploys keep the responder's
/// cooldown apart. Under R2 the same pair deploys only what the
/// responder accepted.
#[test]
fn contention_diagnoses_a_tenant_rebalance_with_an_intact_causal_chain() {
    let ((source_id, source_run), (observer_id, observer_run)) =
        run_contended_pair(&r1_knobs(Substrate::Threaded));

    // The rebalance happened, on the observer, and only there.
    assert!(
        observer_run.tenant_rebalances >= 1,
        "the contended observer must rebalance away from a shared node: {observer_run:?}"
    );
    assert_eq!(
        source_run.tenant_rebalances, 0,
        "a query with monitoring off reports no tenant rebalances: {source_run:?}"
    );

    let events = timeline(&observer_run);
    let by_seq: HashMap<u64, &TimelineEvent> = events.iter().map(|e| (e.seq, e)).collect();
    let notify_of = |diagnosis_seq: u64| match by_seq.get(&diagnosis_seq).map(|e| &e.kind) {
        Some(TimelineKind::Diagnosis { notify_seq, .. }) => *notify_seq,
        other => panic!("seq {diagnosis_seq} must be a diagnosis, got {other:?}"),
    };

    // Every deploy links a diagnosis; no notification deploys twice, and
    // consecutive deploys are a cooldown apart in model time.
    let deploys: Vec<(&TimelineEvent, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            TimelineKind::Deploy { diagnosis_seq, .. } => Some((e, diagnosis_seq)),
            _ => None,
        })
        .collect();
    let mut notifies: Vec<u64> = deploys.iter().map(|(_, d)| notify_of(*d)).collect();
    notifies.sort_unstable();
    notifies.dedup();
    assert_eq!(
        notifies.len(),
        deploys.len(),
        "two deploys chain back to one detector notification: {deploys:?}"
    );
    for pair in deploys.windows(2) {
        let gap = pair[1].0.at_ms - pair[0].0.at_ms;
        assert!(
            gap >= COOLDOWN_MS,
            "deploys {} and {} are {gap} model-ms apart",
            pair[0].0.seq,
            pair[1].0.seq
        );
    }

    // Walk each tenant rebalance's chain.
    let mut chains = 0;
    for event in events {
        let TimelineKind::TenantRebalance {
            query,
            induced_by,
            diagnosis_seq,
            ..
        } = &event.kind
        else {
            continue;
        };
        assert_eq!(query, &observer_id.to_string());
        assert_eq!(
            induced_by,
            &source_id.to_string(),
            "contention must be attributed to the co-resident tenant"
        );
        assert!(
            deploys.iter().any(|(_, d)| d == diagnosis_seq),
            "tenant rebalance {} annotates a diagnosis nothing deployed",
            event.seq
        );
        let notify_seq = notify_of(*diagnosis_seq);
        let notify = by_seq
            .get(&notify_seq)
            .unwrap_or_else(|| panic!("dangling notify_seq {notify_seq}"));
        let TimelineKind::DetectorNotify { raw_seq, .. } = &notify.kind else {
            panic!("the diagnosis must chain to a detector notification, got {notify:?}");
        };
        let raw = by_seq
            .get(raw_seq)
            .unwrap_or_else(|| panic!("dangling raw_seq {raw_seq}"));
        assert!(
            matches!(raw.kind, TimelineKind::RawM1 { .. }),
            "the chain must bottom out at a raw M1 event, got {raw:?}"
        );
        chains += 1;
    }
    assert!(
        chains >= 1,
        "at least one deploy must be attributed as a tenant rebalance"
    );

    // Under R2 every deploy is a diagnosis the responder accepted —
    // never one it declined near completion.
    let (_, (_, r2_run)) = run_contended_pair(&r2_knobs());
    let events = timeline(&r2_run);
    for event in events {
        let TimelineKind::Deploy { diagnosis_seq, .. } = event.kind else {
            continue;
        };
        let accepted = events.iter().any(|e| {
            matches!(&e.kind, TimelineKind::ResponderDecision { decision, diagnosis_seq: d, .. }
                if *d == diagnosis_seq && decision == "accepted")
        });
        assert!(
            accepted,
            "deploy {} links diagnosis {diagnosis_seq}, which the responder did not accept",
            event.seq
        );
    }
}
