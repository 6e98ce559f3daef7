//! Tripwire for `benchmark/`: a compile-only test that names every
//! `gridq_exec`, `gridq_common`, `gridq_net`, `gridq_adapt`,
//! `gridq_workload`, `gridq_engine` and `gridq_recovery` item and field
//! `benchmark/src` uses, and the `Value` and `Tuple` items its
//! `tests/arithmetic.rs` uses.
//!
//! `benchmark/` is a workspace of its own, so `cargo test` at the root
//! never builds it, and a refactor that renames one of these items used
//! to be found out by the benchmark job after the merge. Here the same
//! surface is type-checked by tier-1: if this file stops compiling,
//! `benchmark/` has stopped compiling too. Nothing in it runs.
//!
//! When the benchmark starts using a new item, add it here.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use gridq::adapt::detector::CostUpdate;
use gridq::adapt::{
    AdaptivityConfig, AssessmentPolicy, Diagnoser, Imbalance, MonitoringEventDetector, Responder,
    ResponsePolicy, M1,
};
use gridq::common::sync::ring::ring;
use gridq::common::wire::{self, Reader};
use gridq::common::{
    ChaosHook, DistributionVector, NodeId, PartitionId, QueryId, Result, SimTime, SubplanId, Tuple,
    Value,
};
use gridq::engine::distributed::{DistributedPlan, Router};
use gridq::engine::physical::Catalog;
use gridq::engine::service::Service;
use gridq::engine::{
    AdmissionConfig, AdmissionController, AdmissionDecision, PartitionEvaluator, StreamTag,
};
use gridq::exec::socket::{
    ScriptedAdaptation, ServiceResolver, SocketConfig, SocketExecutor, SocketReport, WireStageSpec,
};
use gridq::exec::{
    QueryOutcome, QueryRun, QueryService, QuerySubmission, ServiceConfig, ThreadedConfig,
    ThreadedExecutor, ThreadedReport,
};
use gridq::grid::Perturbation;
use gridq::obs::{ObsConfig, ObsReport};
use gridq::recovery::{Checkpoint, LogAudit, SharedRecoveryLog};
use gridq::workload::{
    protein_interactions, protein_sequences, EntropyAnalyser, Q1Experiment, Q2Experiment,
};
use gridq_net::frame::kind;
use gridq_net::{Addr, Decoder, Frame, LinkState, Listener, Stream};

/// `workloads.rs`: how the benchmark configures and runs the threaded
/// executor, and every report field its judge reads.
#[allow(dead_code)]
fn threaded_surface(catalog: Catalog, plan: &DistributedPlan) -> Result<()> {
    let mut perturbations: HashMap<NodeId, Perturbation> = HashMap::new();
    perturbations.insert(NodeId::new(2), Perturbation::CostFactor(10.0));
    let config = ThreadedConfig {
        adaptivity: AdaptivityConfig::disabled(),
        cost_scale: 1e-6,
        receive_cost_ms: ThreadedConfig::default().receive_cost_ms,
        perturbations,
        obs: ObsConfig::default(),
        ..Default::default()
    };
    let report: ThreadedReport = ThreadedExecutor::new(catalog, config).run(plan)?;
    let _: (&[Tuple], &[LogAudit], usize, u64) = (
        &report.results,
        &report.log_audits,
        report.delivery_gaps.len(),
        report.send_failures,
    );
    let _: (f64, Vec<u64>, u64, u64) = (
        report.wall_ms,
        report.per_partition_processed,
        report.adaptations_deployed,
        report.raw_m1_events,
    );
    let _: [u64; 6] = [
        report.recalls_completed,
        report.recalls_aborted,
        report.state_tuples_migrated,
        report.tuples_recalled,
        report.tuples_retransmitted,
        report.dedup_peak_entries,
    ];
    let _: (Vec<f64>, Option<ObsReport>) = (report.final_distribution, report.obs);
    Ok(())
}

/// `workloads.rs` and `inputs.rs`: the socket executor's configuration,
/// its scripted recall, and every report field the judge reads.
#[allow(dead_code)]
fn socket_surface(
    catalog: Catalog,
    plan: &DistributedPlan,
    service: Arc<dyn Service>,
) -> Result<()> {
    let resolver: ServiceResolver = Arc::new(move |name: &str, _cost_ms: f64| {
        (name == "EntropyAnalyser").then(|| Arc::clone(&service))
    });
    let input_schema = gridq::common::Schema::new(Vec::new());
    let call = WireStageSpec::ServiceCall {
        input_schema: input_schema.clone(),
        service: "EntropyAnalyser".into(),
        service_cost_ms: 1.0,
        arg_cols: vec![1],
        output_name: "entropy".into(),
        keep_input: false,
    };
    let join = WireStageSpec::HashJoin {
        build_schema: input_schema.clone(),
        probe_schema: input_schema,
        build_key: 0,
        probe_key: 0,
        build_cost_ms: 1.0,
        probe_cost_ms: 1.0,
    };
    let _: usize = SocketConfig::new(call.clone(), resolver.clone()).checkpoint_interval;
    let mut config = SocketConfig::new(join, resolver);
    config.cost_scale = 1e-6;
    config.receive_cost_ms = 1.0;
    config.adaptations = vec![ScriptedAdaptation {
        after_routed: 100,
        weights: vec![0.25, 0.75],
        retrospective: true,
    }];
    let _: &Option<Arc<dyn ChaosHook>> = &config.chaos;
    let report: SocketReport = SocketExecutor::new(catalog, config).run(plan)?;
    let _: (&[Tuple], &[LogAudit], usize, u64) = (
        &report.results,
        &report.log_audits,
        report.delivery_gaps.len(),
        report.send_failures,
    );
    let _: (f64, Vec<u64>, u64, Vec<f64>) = (
        report.wall_ms,
        report.per_partition_processed,
        report.adaptations_deployed,
        report.final_distribution,
    );
    let _: [u64; 7] = [
        report.recalls_completed,
        report.recalls_aborted,
        report.state_tuples_migrated,
        report.tuples_recalled,
        report.tuples_retransmitted,
        report.dedup_peak_entries,
        report.reconnects,
    ];
    Ok(())
}

/// `workloads.rs` and `trace.rs`: the service loop. `ServiceConfig` has
/// no field besides `admission` any more, but the benchmark still spells
/// `..ServiceConfig::default()`, so this does too.
#[allow(dead_code, clippy::needless_update)]
fn service_surface(catalog: Catalog, plan: DistributedPlan, run: QueryRun) -> Result<()> {
    let service = QueryService::new(ServiceConfig {
        admission: AdmissionConfig {
            max_concurrent: 2,
            queue_depth: 4,
        },
        ..ServiceConfig::default()
    })?;
    let _: [fn(ThreadedConfig) -> QueryRun; 1] = [QueryRun::threaded];
    let _: [fn(Box<SocketConfig>) -> QueryRun; 1] = [QueryRun::Socket];
    let submission = QuerySubmission { catalog, plan, run };
    match service.submit_and_wait(submission).1 {
        QueryOutcome::Threaded(report) => drop::<ThreadedReport>(report),
        QueryOutcome::Socket(report) => drop::<SocketReport>(report),
        QueryOutcome::Rejected { reason } => drop::<String>(reason),
        QueryOutcome::Failed { error } => drop::<String>(error),
    }
    let stats = service.admission_stats();
    let _ = (stats.peak_queued, stats.rejected);
    Ok(())
}

/// `inputs.rs` and `workloads.rs`: the experiments every input is built
/// from, and every field read back.
#[allow(dead_code)]
fn workload_surface(tuples: usize, seed: u64) -> (Catalog, DistributedPlan) {
    let q1 = Q1Experiment {
        tuples,
        seed,
        ..Default::default()
    };
    let q2 = Q2Experiment {
        sequences: tuples,
        interactions: tuples,
        seed,
        ..Default::default()
    };
    let _: (usize, f64, usize, usize) =
        (q1.seq_len, q1.ws_cost_ms, q1.evaluators, q1.buffer_tuples);
    let _: (usize, f64, f64, f64, u32) = (
        q2.seq_len,
        q2.build_cost_ms,
        q2.probe_cost_ms,
        q2.receive_cost_ms,
        q2.bucket_count,
    );
    let _ = (
        protein_sequences(1, q2.seq_len, q2.seed).schema().clone(),
        protein_interactions(1, 1, q2.seed).schema().clone(),
        EntropyAnalyser::new(q1.ws_cost_ms),
    );
    let _: [fn(&Q2Experiment) -> Catalog; 1] = [Q2Experiment::catalog];
    let _: [fn(&Q2Experiment) -> DistributedPlan; 1] = [Q2Experiment::plan];
    (q1.catalog(), q1.plan())
}

/// `trace.rs`: the adaptivity components the outside-in replay times on
/// their own.
#[allow(dead_code)]
fn adapt_surface(query: QueryId, stage: SubplanId, node: NodeId) {
    let config = AdaptivityConfig::default();
    let _: [AdaptivityConfig; 2] = [
        AdaptivityConfig::disabled(),
        AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1),
    ];
    let _: u32 = config.monitoring_interval_tuples;
    let partition = PartitionId::new(stage, 0);
    let mut detector = MonitoringEventDetector::new(&config);
    let _ = detector.on_m1(&M1 {
        query,
        partition,
        node,
        cost_per_tuple_ms: 1.0,
        leaf_wait_ms: 0.0,
        selectivity: 1.0,
        tuples_produced: 10,
        at: SimTime::ZERO,
    });
    let mut diagnoser = Diagnoser::new(stage, 2, DistributionVector::uniform(2), &config);
    let _ = diagnoser.on_cost_update(&CostUpdate {
        partition,
        avg_cost_ms: 1.0,
        avg_wait_ms: 0.0,
        selectivity: 1.0,
        window_len: 25,
        at: SimTime::ZERO,
    });
    let mut responder = Responder::new(&config);
    let imbalance = Imbalance {
        stage,
        proposed: DistributionVector::uniform(2),
        costs: vec![1.0, 1.0],
        at: SimTime::ZERO,
    };
    let _ = responder.on_imbalance(&imbalance, 0.5);
}

/// `trace.rs`: the router, the evaluators' state extraction and the
/// admission controller the replay calls directly.
#[allow(dead_code)]
fn engine_surface(
    plan: &DistributedPlan,
    tuple: &Tuple,
    target: &DistributionVector,
) -> Result<()> {
    let stage = &plan.stages[0];
    let mut router = Router::from_policy(&stage.exchange.routing, stage.nodes.len() as u32)?;
    let _: u32 = router.route(StreamTag::Single, tuple)?;
    let moves = router.apply_retrospective(target)?;
    let buckets: Option<u32> = router.bucket_count();
    let mut evaluator: Box<dyn PartitionEvaluator> = stage.factory.create(0);
    let _: Vec<Tuple> = evaluator.process(StreamTag::Build, tuple)?.outputs;
    let _: Vec<(StreamTag, Tuple)> =
        evaluator.extract_state(buckets.unwrap_or(1), &moves.outgoing[0]);
    let mut controller = AdmissionController::new(AdmissionConfig {
        max_concurrent: 1,
        queue_depth: 1,
    })?;
    if let AdmissionDecision::Admitted(id) = controller.submit() {
        let _ = controller.complete(id)?;
    }
    Ok(())
}

/// `trace.rs`: the recovery log the outside-in replay records into,
/// acknowledges and retires from on its own.
#[allow(dead_code)]
fn recovery_surface(row: Tuple) -> Result<()> {
    let log = SharedRecoveryLog::<(StreamTag, Tuple)>::new(2, 8)?;
    if let Some(Checkpoint { dest, id }) = log.record(0, (StreamTag::Build, row))? {
        let epoch: u64 = log.epoch();
        let _ = log.acknowledge(dest, id, epoch);
    }
    let _: usize = log.retire_matching(0, |(s, t)| *s == StreamTag::Build && t.seq() == 0)?;
    let _: usize = log.total_unacked();
    Ok(())
}

/// `digest.rs` and `tests/arithmetic.rs`: the values a result digest
/// hashes and the tuples its tests build.
#[allow(dead_code)]
fn value_surface(tuple: &Tuple) -> u64 {
    let values: &[Value] = tuple.values();
    let hash: fn(&Value) -> u64 = Value::stable_hash;
    let row = Tuple::with_seq(
        vec![Value::str(format!("ORF{:06}", 1)), Value::Float(0.5)],
        1,
    );
    let _ = Tuple::new(vec![Value::str("ORF000041"), Value::Int(1)]);
    values
        .iter()
        .chain(row.values())
        .map(hash)
        .fold(0, u64::wrapping_add)
}

/// `trace.rs`: the ring hand-off, the wire codec and the link, frame and
/// endpoint micro-benchmarks.
#[allow(dead_code)]
fn layers_surface(tuples: &[Tuple]) -> std::result::Result<(), Box<dyn std::error::Error>> {
    let (ring_tx, ring_rx) = ring::<Vec<Tuple>>(8);
    if ring_tx.push(tuples.to_vec()).is_err() {
        return Ok(());
    }
    let _: Option<Vec<Tuple>> = ring_rx.pop_wait(Duration::from_secs(5));

    let mut payload = Vec::new();
    wire::put_tuples(&mut payload, tuples);
    let _: Vec<Tuple> = wire::get_tuples(&mut Reader::new(&payload))?;

    let (mut tx, mut rx) = (LinkState::new(), LinkState::new());
    let frame: Frame = tx.stamp(kind::MSG, payload);
    let _ = rx.on_receive(&frame);
    let ack: Frame = rx.ack_frame();
    let _ = tx.on_receive(&ack);
    let bytes: Vec<u8> = frame.encode();
    let mut decoder = Decoder::new();
    let frames: Vec<Frame> = decoder.feed(&bytes)?;
    let _: Option<&Vec<u8>> = frames.first().map(|f| &f.payload);
    let _ = tx.on_receive(&Frame {
        kind: kind::ACK_ONLY,
        seq: 0,
        ack: frame.seq,
        payload: Vec::new(),
    });

    let listener = Listener::bind(&Addr::scratch_unix())?;
    let addr: Addr = listener.local_addr()?;
    let mut client: Stream = Stream::connect(&addr)?;
    let mut server: Stream = listener.accept()?;
    client.write_all(&bytes)?;
    let mut buf = [0u8; 64];
    let _: usize = server.read(&mut buf)?;
    client.shutdown_both()?;
    Ok(())
}

#[test]
fn the_benchmark_surface_type_checks() {
    // Compiling this file is the test.
}
