//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! and workload each is expected to move. `BENCHMARK.json` is this table
//! written out (`gridq-benchmark describe`), and a test holds the two
//! together; later issues cite these names instead of re-deriving them.

use gridq_obs::json::{num, JsonObj};

use crate::stats::Better;

/// Seconds one run measures for; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;

/// One workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in every output.
    pub name: &'static str,
    /// Why it was chosen: which layers do the work and which do none.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "q1_null_threaded",
        why: "400k-tuple stateless Q1 on threads at null cost, monitoring on: scan, router, ring, operator and the M1 path do the work; wire, net, recovery log and recall do none",
    },
    Workload {
        name: "q2_recall_sockets",
        why: "100k/156k-tuple hash join over Unix sockets at null cost with one scripted recall: wire, frames, link, recovery log, join state and migration do the work; the ring does none",
    },
    Workload {
        name: "q2_perturbed_r1_threaded",
        why: "the paper's Q2 with node 2 ten times slower and live A1/R1: 99% modelled sleep, so only the detect-diagnose-respond loop and its recalls move it; data-plane changes must not",
    },
    Workload {
        name: "service_mixed",
        why: "closed loop of 2000-tuple null-cost Q1 queries through one QueryService, threaded and socket alternating: per-query set-up, teardown and admission do the work, the tuple path little",
    },
];

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What is measured.
    pub what: &'static str,
}

/// The end-to-end metrics, measured with obs off.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "response_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median wall time of one operation: a whole query, or on service_mixed one submitted query including its admission wait",
    },
    EndToEnd {
        name: "response_ms_p99",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "nearest-rank 99th percentile of the same samples, lowered as far as needed to leave ten samples beyond it (the true p99 on service_mixed, near the median on the ~20-sample whole-query workloads)",
    },
    EndToEnd {
        name: "tuples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "input tuples scanned by correct operations per second of measured wall time",
    },
    EndToEnd {
        name: "cpu_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "process user+system CPU per operation, from /proc/self/stat around the measured phase",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        what: "VmHWM of the workload's process when the measured phase ends",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median over repeated set-ups (at least three, for two seconds before the measured phase and two after it): table generation, catalog and plan construction and the reference result, before the first timed repetition",
    },
];

/// A metric of one layer, measured in the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name: `<crate>.<module>.<measure>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric and workload this should move.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const Q1_AND_SERVICE: &str = "response_ms_p50, cpu_ms on q1_null_threaded and service_mixed";
const Q1_ONLY: &str = "response_ms_p50, cpu_ms on q1_null_threaded; none on q2_recall_sockets";
const SOCKETS: &str = "response_ms_p50, cpu_ms on q2_recall_sockets";
const SOCKETS_ONLY: &str = "response_ms_p50 on q2_recall_sockets only";
const SOCKETS_RSS: &str =
    "response_ms_p50, peak_rss_mb on q2_recall_sockets; none on q1_null_threaded";
const WIRE: &str = "response_ms_p50, cpu_ms on q2_recall_sockets and the socket half of service_mixed; none on q1_null_threaded";
const ADAPT_CPU: &str = "cpu_ms on q1_null_threaded (one M1 event per 10 tuples)";
const PERTURBED_ONLY: &str = "response_ms_p50 on q2_perturbed_r1_threaded only";
const SERVICE: &str = "response_ms_p50, response_ms_p99 on service_mixed";
const DIAGNOSTIC: &str = "none directly: explains the exec rows of its workload";
const NONE_OBS: &str = "no end-to-end metric (obs is off there)";

/// The per-layer metrics. Layers are the crates' modules.
pub const PER_LAYER: &[PerLayer] = &[
    // engine
    lower("engine.scan.ns_per_tuple", "ns", Q1_AND_SERVICE),
    lower("engine.router.weighted_ns_per_tuple", "ns", Q1_AND_SERVICE),
    lower(
        "engine.operator.service_call_ns_per_tuple",
        "ns",
        Q1_AND_SERVICE,
    ),
    lower("engine.router.hash_ns_per_tuple", "ns", SOCKETS),
    lower("engine.operator.join_build_ns_per_tuple", "ns", SOCKETS),
    lower("engine.operator.join_probe_ns_per_tuple", "ns", SOCKETS),
    lower("engine.router.retrospective_us", "us", SOCKETS_ONLY),
    lower(
        "engine.operator.extract_state_ns_per_tuple",
        "ns",
        SOCKETS_ONLY,
    ),
    lower(
        "engine.admission.cycle_ns",
        "ns",
        "response_ms_p50 on service_mixed only",
    ),
    // recovery
    lower("recovery.log.record_ns_per_tuple", "ns", SOCKETS_RSS),
    lower("recovery.log.ack_ns_per_window", "ns", SOCKETS_RSS),
    lower("recovery.log.migrate_ns_per_tuple", "ns", SOCKETS_RSS),
    lower("recovery.log.unacked_peak", "count", SOCKETS_RSS),
    // common
    lower("common.ring.push_pop_ns_per_block", "ns", Q1_ONLY),
    lower("common.ring.handoff_us_per_block", "us", Q1_ONLY),
    lower("common.wire.encode_ns_per_tuple", "ns", WIRE),
    lower("common.wire.decode_ns_per_tuple", "ns", WIRE),
    lower("common.wire.bytes_per_tuple", "B", WIRE),
    // net
    lower("net.frame.encode_ns_per_frame", "ns", SOCKETS),
    lower("net.frame.decode_ns_per_frame", "ns", SOCKETS),
    lower("net.link.cycle_ns_per_frame", "ns", SOCKETS),
    lower("net.endpoint.block_roundtrip_us", "us", SOCKETS),
    lower(
        "net.endpoint.connect_us",
        "us",
        "response_ms_p50 on service_mixed",
    ),
    lower(
        "net.link.reconnects",
        "count",
        "expected 0; any reconnect moves response_ms_p50 on q2_recall_sockets",
    ),
    // adapt
    lower("adapt.detector.on_m1_ns", "ns", ADAPT_CPU),
    lower("adapt.diagnoser.on_cost_update_ns", "ns", ADAPT_CPU),
    lower("adapt.responder.on_imbalance_ns", "ns", ADAPT_CPU),
    lower("adapt.loop.first_deploy_ms", "ms", PERTURBED_ONLY),
    lower("adapt.loop.deploys", "count", PERTURBED_ONLY),
    lower("adapt.loop.raw_m1_events", "count", PERTURBED_ONLY),
    lower("adapt.loop.notify_ratio", "ratio", PERTURBED_ONLY),
    lower(
        "adapt.loop.slow_node_weight",
        "ratio",
        "response_ms_p50 on q2_perturbed_r1_threaded only (ideal 1/11)",
    ),
    // exec
    lower(
        "exec.threaded.wall_ns_per_tuple",
        "ns",
        "response_ms_p50 on q1_null_threaded",
    ),
    lower(
        "exec.threaded.cpu_ns_per_tuple",
        "ns",
        "cpu_ms on q1_null_threaded",
    ),
    lower(
        "exec.threaded.residual_ns_per_tuple",
        "ns",
        "cpu_ms on q1_null_threaded: hand-off, parking, control channels, dedup",
    ),
    lower(
        "exec.socket.wall_ns_per_tuple",
        "ns",
        "response_ms_p50 on q2_recall_sockets",
    ),
    lower(
        "exec.socket.cpu_ns_per_tuple",
        "ns",
        "cpu_ms on q2_recall_sockets",
    ),
    lower(
        "exec.socket.residual_ns_per_tuple",
        "ns",
        "cpu_ms on q2_recall_sockets: kernel socket work, reader/writer threads, polling",
    ),
    lower("exec.socket.recall_ms", "ms", SOCKETS_ONLY),
    lower("exec.socket.recall_us_per_moved_tuple", "us", SOCKETS_ONLY),
    lower("exec.socket.state_tuples_migrated", "count", SOCKETS_ONLY),
    lower("exec.socket.tuples_recalled", "count", SOCKETS_ONLY),
    lower("exec.threaded.recall_ms", "ms", PERTURBED_ONLY),
    PerLayer {
        name: "exec.threaded.recalls_completed",
        unit: "count",
        better: Better::Higher,
        moves: PERTURBED_ONLY,
    },
    lower("exec.threaded.recalls_aborted", "count", PERTURBED_ONLY),
    lower("exec.partition_skew", "ratio", DIAGNOSTIC),
    lower("exec.retransmitted_tuples", "count", DIAGNOSTIC),
    lower("exec.dedup_peak_entries", "count", DIAGNOSTIC),
    lower(
        "exec.send_failures",
        "count",
        "expected 0; a send failure is a failed operation",
    ),
    lower("exec.service.outside_run_ms_p50", "ms", SERVICE),
    lower("exec.service.threaded_ms_p50", "ms", SERVICE),
    lower("exec.service.socket_ms_p50", "ms", SERVICE),
    lower("exec.service.peak_queued", "count", SERVICE),
    lower("exec.service.enqueued_share", "ratio", SERVICE),
    lower(
        "exec.service.rejected",
        "count",
        "expected 0; a rejection is a failed operation",
    ),
    // obs, workload
    lower("obs.registry.counter_add_ns", "ns", NONE_OBS),
    lower("obs.timeline.record_ns", "ns", NONE_OBS),
    lower("obs.overhead_share", "ratio", NONE_OBS),
    lower("workload.data.gen_ns_per_tuple", "ns", "setup_s everywhere"),
];

/// The whole of `BENCHMARK.json`, pretty enough to diff.
pub fn benchmark_json() -> String {
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let mut o = JsonObj::new();
        o.str("name", w.name).str("why", w.why);
        workloads.push(o.finish());
    }
    let mut end_to_end = Vec::new();
    for m in END_TO_END {
        let mut o = JsonObj::new();
        o.str("name", m.name)
            .str("unit", m.unit)
            .str("better", m.better.as_str())
            .raw("bound", &num(m.bound));
        end_to_end.push(o.finish());
    }
    let mut per_layer = Vec::new();
    for m in PER_LAYER {
        let mut o = JsonObj::new();
        o.str("name", m.name)
            .str("unit", m.unit)
            .str("better", m.better.as_str());
        per_layer.push(o.finish());
    }
    let list = |items: &[String]| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(&workloads),
        list(&end_to_end),
        list(&per_layer),
    )
}
