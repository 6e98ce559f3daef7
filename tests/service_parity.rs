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
//! 3. **Diagnosis**: cross-query contention is attributed to the
//!    *correct* co-resident tenant, and the resulting tenant rebalance
//!    carries an intact causal chain in the obs timeline
//!    (`Deploy → TenantRebalance → DetectorNotify → RawM1`).

use std::collections::HashMap;
use std::sync::Arc;

use gridq::adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq::common::{NodeId, QueryId, Tuple};
use gridq::engine::service::AdmissionConfig;
use gridq::exec::socket::{ScriptedAdaptation, ServiceResolver, SocketConfig, WireStageSpec};
use gridq::exec::{
    QueryOutcome, QueryRun, QueryService, QuerySubmission, ServiceConfig, ThreadedConfig,
    ThreadedReport,
};
use gridq::grid::{
    GridEnvironment, NetworkModel, NodeSpec, Perturbation, PerturbationSchedule, ResourceRegistry,
};
use gridq::obs::{TimelineEvent, TimelineKind};
use gridq::sim::{ExecutionReport, Simulation};
use gridq::workload::driver::{self, LoadConfig, QueryBackend, SessionOutcome};
use gridq::workload::experiments::{Q1Experiment, Q2Experiment};
use gridq::workload::{protein_interactions, protein_sequences, EntropyAnalyser};

fn multiset(tuples: &[Tuple]) -> Vec<String> {
    let mut rows: Vec<String> = tuples.iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort();
    rows
}

/// The experiments' grid (data node 0, evaluators 1..=n) with an
/// optional 10x cost perturbation on one evaluator node.
fn env(evaluators: u32, perturbed: Option<NodeId>) -> GridEnvironment {
    let mut registry = ResourceRegistry::new();
    registry
        .register(NodeSpec::data(NodeId::new(0), "datastore"))
        .unwrap();
    for i in 0..evaluators {
        registry
            .register(NodeSpec::compute(NodeId::new(i + 1), format!("eval{i}")))
            .unwrap();
    }
    let mut env = GridEnvironment::new(registry, NetworkModel::lan_100mbps());
    if let Some(node) = perturbed {
        env.set_perturbation(
            node,
            PerturbationSchedule::constant(Perturbation::CostFactor(10.0)),
        );
    }
    env
}

/// The serial reference: one plan, alone, on the simulator.
fn run_sim(
    catalog: gridq::engine::physical::Catalog,
    plan: &gridq::engine::distributed::DistributedPlan,
    mut config: gridq::sim::SimulationConfig,
    evaluators: u32,
    perturbed: Option<NodeId>,
) -> ExecutionReport {
    config.collect_results = true;
    let sim = Simulation::new(env(evaluators, perturbed), catalog, config).unwrap();
    sim.run(plan).unwrap()
}

fn q1() -> Q1Experiment {
    Q1Experiment {
        tuples: 600,
        ..Default::default()
    }
}

fn q2() -> Q2Experiment {
    Q2Experiment {
        sequences: 60,
        interactions: 300,
        probe_cost_ms: 0.5,
        build_cost_ms: 0.1,
        receive_cost_ms: 1.0,
        bucket_count: 16,
        buffer_tuples: 10,
        ..Default::default()
    }
}

/// Q2's plan with the parity-suite scan costs: the slow probe scan
/// keeps producers streaming while the imbalance is diagnosed, so the
/// retrospective recall has in-flight work to pause. Scan costs never
/// change result values.
fn q2_plan(q2: &Q2Experiment) -> gridq::engine::distributed::DistributedPlan {
    let mut plan = q2.plan();
    plan.sources[0].scan_cost_ms = 1.0;
    plan.sources[1].scan_cost_ms = 10.0;
    plan
}

fn perturb_node_2() -> HashMap<NodeId, Perturbation> {
    let mut perturbations = HashMap::new();
    perturbations.insert(NodeId::new(2), Perturbation::CostFactor(10.0));
    perturbations
}

fn entropy_resolver() -> ServiceResolver {
    Arc::new(|name: &str, cost_ms: f64| {
        (name == "EntropyAnalyser").then(|| {
            Arc::new(EntropyAnalyser::new(cost_ms)) as Arc<dyn gridq::engine::service::Service>
        })
    })
}

fn q1_wire_spec(q1: &Q1Experiment) -> WireStageSpec {
    WireStageSpec::ServiceCall {
        input_schema: protein_sequences(1, q1.seq_len, q1.seed).schema().clone(),
        service: "EntropyAnalyser".into(),
        service_cost_ms: q1.ws_cost_ms,
        arg_cols: vec![1],
        output_name: "entropy".into(),
        keep_input: false,
    }
}

fn q2_wire_spec(q2: &Q2Experiment) -> WireStageSpec {
    WireStageSpec::HashJoin {
        build_schema: protein_sequences(1, q2.seq_len, q2.seed).schema().clone(),
        probe_schema: protein_interactions(1, 1, q2.seed).schema().clone(),
        build_key: 0,
        probe_key: 0,
        build_cost_ms: q2.build_cost_ms,
        probe_cost_ms: q2.probe_cost_ms,
    }
}

fn service(max_concurrent: usize, queue_depth: usize) -> QueryService {
    QueryService::new(ServiceConfig {
        admission: AdmissionConfig {
            max_concurrent,
            queue_depth,
        },
        ..Default::default()
    })
    .unwrap()
}

fn threaded(outcome: &QueryOutcome) -> &ThreadedReport {
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
    let q1 = q1();
    let q2 = q2();
    let plan2 = q2_plan(&q2);
    let a1r2 = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R2);
    let a1r1 = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1);

    let ref_q1 = multiset(
        &run_sim(
            q1.catalog(),
            &q1.plan(),
            q1.sim_config(AdaptivityConfig::disabled()),
            2,
            None,
        )
        .results,
    );
    assert_eq!(ref_q1.len(), 600);
    let ref_q2 = multiset(
        &run_sim(
            q2.catalog(),
            &plan2,
            q2.sim_config(a1r1.clone()),
            2,
            Some(NodeId::new(2)),
        )
        .results,
    );
    assert_eq!(ref_q2.len(), 300);

    let q2_config = || ThreadedConfig {
        adaptivity: a1r1.clone(),
        cost_scale: 0.01,
        perturbations: perturb_node_2(),
        checkpoint_interval: 8,
        ..Default::default()
    };
    let service = service(2, 2);
    let report = service.run_batch(vec![
        QuerySubmission {
            catalog: q1.catalog(),
            plan: q1.plan(),
            run: QueryRun::threaded(ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            }),
        },
        QuerySubmission {
            catalog: q2.catalog(),
            plan: q2_plan(&q2),
            run: QueryRun::threaded(q2_config()),
        },
        QuerySubmission {
            catalog: q1.catalog(),
            plan: q1.plan(),
            run: QueryRun::threaded(ThreadedConfig {
                adaptivity: a1r2,
                cost_scale: 0.01,
                perturbations: perturb_node_2(),
                ..Default::default()
            }),
        },
        QuerySubmission {
            catalog: q2.catalog(),
            plan: q2_plan(&q2),
            run: QueryRun::threaded(q2_config()),
        },
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
    let q1 = q1();
    let q2 = q2();
    let plan2 = q2_plan(&q2);
    let a1r2 = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R2);
    let a1r1 = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1);

    let ref_q1 = multiset(
        &run_sim(
            q1.catalog(),
            &q1.plan(),
            q1.sim_config(AdaptivityConfig::disabled()),
            2,
            None,
        )
        .results,
    );
    let ref_q1_r2 = multiset(
        &run_sim(
            q1.catalog(),
            &q1.plan(),
            q1.sim_config(a1r2),
            2,
            Some(NodeId::new(2)),
        )
        .results,
    );
    let ref_q2 = multiset(
        &run_sim(
            q2.catalog(),
            &plan2,
            q2.sim_config(a1r1),
            2,
            Some(NodeId::new(2)),
        )
        .results,
    );

    let static_config = {
        let mut c = SocketConfig::new(q1_wire_spec(&q1), entropy_resolver());
        c.cost_scale = 0.002;
        c
    };
    let swap_config = {
        let mut c = SocketConfig::new(q1_wire_spec(&q1), entropy_resolver());
        c.cost_scale = 0.01;
        c.perturbations = perturb_node_2();
        c.adaptations = vec![ScriptedAdaptation {
            after_routed: 150,
            weights: vec![0.9, 0.1],
            retrospective: false,
        }];
        c
    };
    let recall_config = {
        let mut c = SocketConfig::new(q2_wire_spec(&q2), entropy_resolver());
        c.cost_scale = 0.05;
        c.checkpoint_interval = 8;
        c.perturbations = perturb_node_2();
        c.adaptations = vec![ScriptedAdaptation {
            after_routed: 150,
            weights: vec![0.25, 0.75],
            retrospective: true,
        }];
        c
    };

    let service = service(2, 2);
    let report = service.run_batch(vec![
        QuerySubmission {
            catalog: q1.catalog(),
            plan: q1.plan(),
            run: QueryRun::Socket(Box::new(static_config)),
        },
        QuerySubmission {
            catalog: q1.catalog(),
            plan: q1.plan(),
            run: QueryRun::Socket(Box::new(swap_config)),
        },
        QuerySubmission {
            catalog: q2.catalog(),
            plan: q2_plan(&q2),
            run: QueryRun::Socket(Box::new(recall_config)),
        },
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

/// The closed-loop load driver against one service: 64 sessions, even
/// ones on threads and odd ones over sockets, arrive on a seeded
/// schedule and queue for 4 run slots. Every session's result must be
/// the serial simulator multiset — the same cardinality with one value
/// changed is a wrong answer — and nothing may be rejected or fail.
#[test]
fn sixty_four_mixed_sessions_through_four_slots_each_match_the_serial_sim_multiset() {
    const SESSIONS: usize = 64;

    struct Backend<'a> {
        service: &'a QueryService,
        q1: &'a Q1Experiment,
        reference: &'a [String],
    }

    impl QueryBackend for Backend<'_> {
        fn run_query(&self, session: usize, _seq: usize) -> SessionOutcome {
            let run = if session.is_multiple_of(2) {
                QueryRun::threaded(ThreadedConfig {
                    adaptivity: AdaptivityConfig::disabled(),
                    cost_scale: 0.002,
                    ..Default::default()
                })
            } else {
                let mut c = SocketConfig::new(q1_wire_spec(self.q1), entropy_resolver());
                c.cost_scale = 0.002;
                QueryRun::Socket(Box::new(c))
            };
            let (_id, outcome) = self.service.submit_and_wait(QuerySubmission {
                catalog: self.q1.catalog(),
                plan: self.q1.plan(),
                run,
            });
            match outcome {
                QueryOutcome::Rejected { .. } => SessionOutcome::Rejected,
                QueryOutcome::Failed { error } => SessionOutcome::Failed(error),
                done => SessionOutcome::Completed {
                    correct: multiset(done.results().unwrap_or_default()) == self.reference,
                },
            }
        }
    }

    // Small queries: the load is on admission and multiplexing.
    let q1 = Q1Experiment {
        tuples: 40,
        ..Default::default()
    };
    let reference = multiset(
        &run_sim(
            q1.catalog(),
            &q1.plan(),
            q1.sim_config(AdaptivityConfig::disabled()),
            2,
            None,
        )
        .results,
    );
    assert_eq!(reference.len(), 40);

    for seed in [1u64, 7, 1303] {
        // A queue deep enough for every session: a rejection here is a
        // failure, not back-pressure.
        let service = service(4, SESSIONS);
        let backend = Backend {
            service: &service,
            q1: &q1,
            reference: &reference,
        };
        let load = LoadConfig {
            sessions: SESSIONS,
            queries_per_session: 1,
            seed,
            arrival_window_ms: 50.0,
            mean_think_ms: 5.0,
            time_scale: 1.0,
        };
        let report = driver::run(&load, &backend);
        assert_eq!(report.submitted, SESSIONS as u64, "seed {seed}: {report:?}");
        assert_eq!(
            report.completed, report.submitted,
            "seed {seed}: {report:?}"
        );
        assert_eq!(
            report.correct, report.completed,
            "seed {seed}: a session's multiset differs from the sim's: {report:?}"
        );
        assert_eq!(report.rejected, 0, "seed {seed}: {report:?}");
        assert_eq!(report.failed, 0, "seed {seed}: {report:?}");

        let stats = service.admission_stats();
        assert!(stats.peak_running <= 4, "seed {seed}: {stats:?}");
        assert!(stats.enqueued > 0, "seed {seed}: {stats:?}");
    }
}

/// Zero cross-query state leakage: a stateful Q2's drain–migrate–resume
/// recall runs while a stateless Q1 is co-resident on the same nodes.
/// The Q2 migrates its own operator state; the Q1 — monitoring active,
/// sharing the detector's host process and the evaluator nodes —
/// records zero migrated state, zero recalled tuples, and no recall
/// events in its timeline.
#[test]
fn stateful_recall_never_leaks_into_a_co_resident_stateless_query() {
    let q1 = q1();
    let q2 = q2();
    let plan2 = q2_plan(&q2);
    let a1r2 = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R2);
    let a1r1 = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1);

    let ref_q1 = multiset(
        &run_sim(
            q1.catalog(),
            &q1.plan(),
            q1.sim_config(AdaptivityConfig::disabled()),
            2,
            None,
        )
        .results,
    );
    let ref_q2 = multiset(
        &run_sim(
            q2.catalog(),
            &plan2,
            q2.sim_config(a1r1.clone()),
            2,
            Some(NodeId::new(2)),
        )
        .results,
    );

    let service = service(2, 0);
    let report = service.run_batch(vec![
        // Stateless observer: monitoring on, no perturbation of its own.
        QuerySubmission {
            catalog: q1.catalog(),
            plan: q1.plan(),
            run: QueryRun::threaded(ThreadedConfig {
                adaptivity: a1r2,
                cost_scale: 0.01,
                ..Default::default()
            }),
        },
        // Stateful neighbour: 10x perturbation forces an R1 recall.
        QuerySubmission {
            catalog: q2.catalog(),
            plan: q2_plan(&q2),
            run: QueryRun::threaded(ThreadedConfig {
                adaptivity: a1r1,
                cost_scale: 0.01,
                perturbations: perturb_node_2(),
                checkpoint_interval: 8,
                ..Default::default()
            }),
        },
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

/// Cross-query diagnosis end to end: a long-running query contends two
/// of a three-node query's evaluators, the shared diagnoser attributes
/// the cost skew to the co-resident tenant, and the deployed tenant
/// rebalance leaves an intact causal chain in the obs timeline —
/// `Deploy.diagnosis_seq → TenantRebalance.notify_seq →
/// DetectorNotify.raw_seq → RawM1` — naming both queries correctly.
#[test]
fn contention_diagnoses_a_tenant_rebalance_with_an_intact_causal_chain() {
    // The contention source: evaluators 1-2, monitoring off, scaled to
    // outlive the observer's warm-up by a wide margin.
    let source = Q1Experiment {
        tuples: 2000,
        ..Default::default()
    };
    // The observer: evaluators 1-3, so node 3 stays uncontended and the
    // modelled contention (alpha = 1.0 doubles shared-node costs) shows
    // up as a *skew* its M1 stream can attribute.
    let observer = Q1Experiment {
        tuples: 600,
        evaluators: 3,
        ..Default::default()
    };
    // A slow scan keeps the observer's producer streaming (and its
    // adaptivity loop live) well past the diagnosis.
    let observer_plan = || {
        let mut plan = observer.plan();
        plan.sources[0].scan_cost_ms = 5.0;
        plan
    };

    let ref_source = multiset(
        &run_sim(
            source.catalog(),
            &source.plan(),
            source.sim_config(AdaptivityConfig::disabled()),
            2,
            None,
        )
        .results,
    );
    let ref_observer = multiset(
        &run_sim(
            observer.catalog(),
            &observer_plan(),
            observer.sim_config(AdaptivityConfig::disabled()),
            3,
            None,
        )
        .results,
    );

    let service = service(2, 0);
    let report = service.run_batch(vec![
        QuerySubmission {
            catalog: source.catalog(),
            plan: source.plan(),
            run: QueryRun::threaded(ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.05,
                ..Default::default()
            }),
        },
        QuerySubmission {
            catalog: observer.catalog(),
            plan: observer_plan(),
            run: QueryRun::threaded(ThreadedConfig {
                adaptivity: AdaptivityConfig::with_policies(
                    AssessmentPolicy::A1,
                    ResponsePolicy::R2,
                ),
                cost_scale: 0.01,
                ..Default::default()
            }),
        },
    ]);

    let (source_id, source_outcome) = &report.queries[0];
    let (observer_id, observer_outcome) = &report.queries[1];
    let source_run = threaded(source_outcome);
    let observer_run = threaded(observer_outcome);

    // Contention-induced rerouting never changes either multiset.
    assert_eq!(multiset(&source_run.results), ref_source);
    assert_eq!(multiset(&observer_run.results), ref_observer);

    // The rebalance happened, on the observer, and only there.
    assert!(
        report.tenant_rebalances >= 1,
        "the contended run must diagnose a cross-query rebalance: {report:?}"
    );
    assert!(observer_run.tenant_rebalances >= 1, "{observer_run:?}");
    assert_eq!(
        source_run.tenant_rebalances, 0,
        "a query with monitoring off reports no tenant diagnoses: {source_run:?}"
    );

    // Walk the causal chain in the observer's timeline.
    let events = &observer_run.obs.as_ref().expect("obs enabled").events;
    let by_seq: HashMap<u64, &TimelineEvent> = events.iter().map(|e| (e.seq, e)).collect();
    let mut chains = 0;
    for event in events {
        let TimelineKind::Deploy { diagnosis_seq, .. } = &event.kind else {
            continue;
        };
        let parent = by_seq
            .get(diagnosis_seq)
            .unwrap_or_else(|| panic!("dangling diagnosis_seq {diagnosis_seq}"));
        let TimelineKind::TenantRebalance {
            query,
            induced_by,
            notify_seq,
            ..
        } = &parent.kind
        else {
            // A per-query diagnosis chain; not what this test pins.
            continue;
        };
        assert_eq!(query, &observer_id.to_string());
        assert_eq!(
            induced_by,
            &source_id.to_string(),
            "contention must be attributed to the co-resident tenant"
        );
        let notify = by_seq
            .get(notify_seq)
            .unwrap_or_else(|| panic!("dangling notify_seq {notify_seq}"));
        let TimelineKind::DetectorNotify { raw_seq, .. } = &notify.kind else {
            panic!("tenant rebalance must chain to a detector notification, got {notify:?}");
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
        "at least one deploy must trace back to a tenant rebalance"
    );
}
