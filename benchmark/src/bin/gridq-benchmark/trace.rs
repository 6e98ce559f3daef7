//! The traced pass: each workload again with obs on where the substrate
//! has one, then a single-threaded *replay* that feeds the workload's own
//! tuples, in exchange-buffer-sized blocks, through each layer's public
//! functions with a span around every call. Nothing inside the program is
//! instrumented: every number here is measured from outside.
//!
//! The replay yields a time budget: nanoseconds per input tuple for each
//! layer on the workload's path, their sum, the executor's measured CPU
//! per tuple, and the residual — hand-off, parking, control channels,
//! kernel socket work, the private dedup filter — that cannot be reached
//! from outside.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::thread;
use std::time::Duration;

use gridq_adapt::detector::CostUpdate;
use gridq_adapt::{AdaptivityConfig, Diagnoser, Imbalance, MonitoringEventDetector, Responder, M1};
use gridq_benchmark::digest::Digest;
use gridq_benchmark::spans::SpanStore;
use gridq_benchmark::stats::{median, percentile, sorted};
use gridq_common::sync::ring::ring;
use gridq_common::wire::{self, Reader};
use gridq_common::{DistributionVector, PartitionId, SimTime, Tuple};
use gridq_engine::distributed::Router;
use gridq_engine::{AdmissionConfig, AdmissionController, AdmissionDecision, StreamTag};
use gridq_exec::socket::SocketConfig;
use gridq_exec::ThreadedConfig;
use gridq_net::frame::kind;
use gridq_net::{Addr, Decoder, LinkState, Listener, Stream};
use gridq_obs::{Obs, TimelineKind};
use gridq_recovery::SharedRecoveryLog;
use gridq_workload::Q1Experiment;

use crate::inputs::{Input, Sizes};
use crate::measure::{repeat_sequential, Clock, Phase};
use crate::workloads::{
    Facts, Q2RecallSockets, ServiceMixed, Substrate, Variant, WholeQuery, RECALL_WEIGHTS,
};

/// What a traced pass hands back for printing.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

/// Which replay a whole-query workload gets.
pub enum Path<'a> {
    /// Scan → weighted route → ring → service call, with the M1 path.
    Q1Threaded(&'a Input<Q1Experiment>),
    /// Scan → hash route → log → wire → frame → link → join, plus the
    /// recall's own calls.
    Q2Sockets(&'a Q2RecallSockets),
    /// All modelled sleep: the control loop is read off the obs timeline
    /// and nothing is replayed.
    Q2Perturbed,
}

type R<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One traced pass: the clock, the spans, and how many units (tuples,
/// blocks, frames, events) each span name covered.
struct Pass<'a> {
    clock: &'a Clock,
    store: SpanStore,
    root: u32,
    /// Nanoseconds and units of work recorded under each span name.
    totals: BTreeMap<&'static str, (u64, u64)>,
    values: BTreeMap<&'static str, f64>,
    reasons: Vec<String>,
}

impl<'a> Pass<'a> {
    fn new(clock: &'a Clock, run: String) -> Self {
        let mut store = SpanStore::new(run);
        let root = store.open("run", None, clock.ns());
        Pass {
            clock,
            store,
            root,
            totals: BTreeMap::new(),
            values: BTreeMap::new(),
            reasons: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        self.store.open(name, Some(parent), self.clock.ns())
    }

    fn close(&mut self, id: u32) {
        self.store.close(id, self.clock.ns());
    }

    /// Runs `f` inside a span that covers `units` units of work.
    fn span<T>(&mut self, name: &'static str, parent: u32, units: u64, f: impl FnOnce() -> T) -> T {
        let start = self.clock.ns();
        let out = f();
        let end = self.clock.ns();
        self.store.record(name, Some(parent), start, end);
        let total = self.totals.entry(name).or_default();
        total.0 += end - start;
        total.1 += units;
        out
    }

    /// Units a span turned out to cover, known only after it ran.
    fn add_units(&mut self, name: &'static str, units: u64) {
        self.totals.entry(name).or_default().1 += units;
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Total nanoseconds and units recorded under a span name.
    fn total(&self, span: &str) -> (f64, f64) {
        let (ns, units) = self.totals.get(span).copied().unwrap_or((0, 0));
        (ns as f64, units as f64)
    }

    /// Sets a per-layer metric to its span's nanoseconds per unit.
    fn set_per_unit(&mut self, metric: &'static str, span: &str, scale: f64) {
        let (ns, units) = self.total(span);
        if units > 0.0 {
            self.set(metric, ns / units / scale);
        }
    }

    /// Closes the root, writes every span as JSON lines, and returns the
    /// values.
    fn finish(mut self, file: &str) -> R<BTreeMap<&'static str, f64>> {
        let root = self.root;
        self.close(root);
        if let Some(blocks) = self.store.totals().get("replay.block") {
            println!(
                "replay: {} blocks, {:.1} us of block self time (the replay loop's own overhead, \
                 charged to no layer)",
                blocks.calls,
                blocks.self_ns as f64 / 1000.0
            );
        }
        let path = format!("{}/{file}", crate::SCRATCH);
        std::fs::write(&path, self.store.to_json_lines())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "spans: {} written to {path} (run id {})",
            self.store.spans().len(),
            self.store.run()
        );
        Ok(self.values)
    }
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    median(&sorted(&v)).unwrap_or(0.0)
}

fn p50(phase: &Phase<Facts>) -> f64 {
    percentile(&sorted(&phase.wall_ms), 50.0).unwrap_or(0.0)
}

/// One budget: layer rows in nanoseconds per input tuple against the
/// executor's measured CPU per tuple.
fn print_budget(name: &str, rows: &[(&'static str, f64)], cpu_ns_per_tuple: f64) -> f64 {
    println!("budget {name} (ns per input tuple; layers replayed single-threaded from outside):");
    let mut sum = 0.0;
    for (layer, ns) in rows {
        println!("  {layer:<44} {ns:>12.1}");
        sum += ns;
    }
    let residual = cpu_ns_per_tuple - sum;
    println!("  {:<44} {sum:>12.1}", "sum of layers");
    println!(
        "  {:<44} {cpu_ns_per_tuple:>12.1}",
        "executor cpu, measured"
    );
    println!(
        "  {:<44} {residual:>12.1}",
        "residual (not reachable from outside)"
    );
    residual
}

/// Facts every substrate reports, as medians over a phase's operations.
fn common_facts(pass: &mut Pass<'_>, phase: &Phase<Facts>) {
    let skew = |f: &Facts| {
        let max = f.per_partition.iter().copied().max().unwrap_or(0) as f64;
        let mean = f.per_partition.iter().sum::<u64>() as f64 / f.per_partition.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    };
    pass.set("exec.partition_skew", med(phase.facts.iter().map(skew)));
    let mut fact = |name, get: fn(&Facts) -> u64| {
        pass.set(name, med(phase.facts.iter().map(|f| get(f) as f64)));
    };
    fact("exec.retransmitted_tuples", |f| f.retransmitted);
    fact("exec.dedup_peak_entries", |f| f.dedup_peak);
    fact("exec.send_failures", |f| f.send_failures);
    fact("net.link.reconnects", |f| f.reconnects);
}

/// The traced pass of a whole-query workload.
pub fn whole_query<W: WholeQuery>(
    name: &str,
    w: &W,
    clock: &Clock,
    seconds: f64,
    sizes: &Sizes,
    seed: u64,
) -> R<Traced> {
    let path = w.path();
    let sockets = matches!(path, Path::Q2Sockets(_));
    let mut pass = Pass::new(clock, format!("{name}-seed{seed}"));
    // Two measured halves, a third of the time each; the replay takes
    // what it takes (one pass over the input).
    let (base, other) = if sockets {
        (Variant::Static, Variant::Plain)
    } else {
        (Variant::Plain, Variant::Traced)
    };
    let half = |variant: Variant| {
        repeat_sequential(
            clock,
            seconds / 3.0,
            sizes.traced_reps,
            || w.run(clock, variant),
            |r| w.check(r, variant),
        )
    };
    let a = half(base);
    let b = half(other);
    let tuples = w.tuples() as f64;
    let wall_ns = p50(&a) * 1e6 / tuples;
    let cpu_ns = a.cpu_ms * 1e6 / (a.attempted.max(1) as f64 * tuples);
    common_facts(&mut pass, &b);
    pass.set("workload.data.gen_ns_per_tuple", w.gen_ns_per_tuple());

    if sockets {
        pass.set("exec.socket.wall_ns_per_tuple", wall_ns);
        pass.set("exec.socket.cpu_ns_per_tuple", cpu_ns);
        let recall_ms = p50(&b) - p50(&a);
        let migrated = med(b.facts.iter().map(|f| f.state_migrated as f64));
        let recalled = med(b.facts.iter().map(|f| f.tuples_recalled as f64));
        pass.set("exec.socket.recall_ms", recall_ms);
        pass.set("exec.socket.state_tuples_migrated", migrated);
        pass.set("exec.socket.tuples_recalled", recalled);
        if migrated + recalled > 0.0 {
            pass.set(
                "exec.socket.recall_us_per_moved_tuple",
                recall_ms * 1000.0 / (migrated + recalled),
            );
        }
        println!(
            "recall: with-recall p50 {:.3} ms - static p50 {:.3} ms = {recall_ms:.3} ms for \
             {migrated} state + {recalled} in-flight tuples",
            p50(&b),
            p50(&a)
        );
        println!("tracing overhead {name}: the socket substrate has no obs to switch on");
    } else {
        pass.set("exec.threaded.wall_ns_per_tuple", wall_ns);
        pass.set("exec.threaded.cpu_ns_per_tuple", cpu_ns);
        let overhead = (p50(&b) - p50(&a)) / p50(&a).max(f64::MIN_POSITIVE);
        pass.set("obs.overhead_share", overhead);
        println!(
            "tracing overhead {name}: traced p50 {:.3} ms vs untraced {:.3} ms = {:+.2}%",
            p50(&b),
            p50(&a),
            overhead * 100.0
        );
        control_loop(&mut pass, &b);
    }

    match path {
        Path::Q1Threaded(input) => {
            let rows = replay_q1(&mut pass, input, 1, false, true)?;
            adapt_micro(&mut pass);
            obs_micro(&mut pass);
            ring_handoff(&mut pass, input)?;
            let residual = print_budget(name, &rows, cpu_ns);
            pass.set("exec.threaded.residual_ns_per_tuple", residual);
        }
        Path::Q2Sockets(w) => {
            let rows = replay_q2(&mut pass, w)?;
            let stage = &w.input.plan.stages[0];
            let table = &w.input.plan.sources[0].table;
            let table = w.input.catalog.get(table).map_err(err)?;
            let block = stage.exchange.buffer_tuples.min(table.len());
            endpoint_micro(&mut pass, &table.rows()[..block])?;
            let residual = print_budget(name, &rows, cpu_ns);
            pass.set("exec.socket.residual_ns_per_tuple", residual);
        }
        Path::Q2Perturbed => {
            println!(
                "budget {name}: none — cpu is {cpu_ns:.0} of {wall_ns:.0} ns wall per tuple \
                 ({:.1}%); the rest is modelled sleep, which no layer can shorten",
                cpu_ns / wall_ns.max(f64::MIN_POSITIVE) * 100.0
            );
        }
    }

    // A replay that computed a wrong answer counts as one more failed
    // operation.
    let replay_failed = u64::from(!pass.reasons.is_empty());
    let mut reasons = a.reasons;
    reasons.extend(b.reasons);
    reasons.append(&mut pass.reasons);
    Ok(Traced {
        attempted: a.attempted + b.attempted + replay_failed,
        failed: a.failed + b.failed + replay_failed,
        reasons,
        values: pass.finish(&format!("spans-{name}-seed{seed}.jsonl"))?,
    })
}

/// The live detector → diagnoser → responder loop, read off the obs
/// timelines of the traced repetitions (medians over repetitions).
fn control_loop(pass: &mut Pass<'_>, traced: &Phase<Facts>) {
    let mut first_deploy = Vec::new();
    let mut notify_ratio = Vec::new();
    let mut recall_ms = Vec::new();
    for f in &traced.facts {
        let Some(obs) = &f.obs else { continue };
        let mut notifies = 0u64;
        let mut starts: BTreeMap<u64, f64> = BTreeMap::new();
        let mut recall = 0.0;
        let mut deploy_at = None;
        for e in &obs.events {
            let wall = e.wall_ms.unwrap_or(0.0);
            match &e.kind {
                TimelineKind::DetectorNotify { .. } => notifies += 1,
                TimelineKind::Deploy { .. } if deploy_at.is_none() => deploy_at = Some(wall),
                TimelineKind::RecallStart { .. } => {
                    starts.insert(e.seq, wall);
                }
                TimelineKind::RecallFinish { start_seq, .. } => {
                    if let Some(started) = starts.get(start_seq) {
                        recall += wall - started;
                    }
                }
                _ => {}
            }
        }
        if let Some(at) = deploy_at {
            first_deploy.push(at);
        }
        if f.raw_m1 > 0 {
            notify_ratio.push(notifies as f64 / f.raw_m1 as f64);
        }
        recall_ms.push(recall);
    }
    pass.set("adapt.loop.first_deploy_ms", med(first_deploy));
    pass.set("adapt.loop.notify_ratio", med(notify_ratio));
    pass.set("exec.threaded.recall_ms", med(recall_ms));
    let mut fact = |name, get: fn(&Facts) -> f64| {
        pass.set(name, med(traced.facts.iter().map(get)));
    };
    fact("adapt.loop.deploys", |f| f.deploys as f64);
    fact("adapt.loop.raw_m1_events", |f| f.raw_m1 as f64);
    fact("exec.threaded.recalls_completed", |f| {
        f.recalls_completed as f64
    });
    fact("exec.threaded.recalls_aborted", |f| {
        f.recalls_aborted as f64
    });
    // Evaluator 1 runs on node 2, the one the perturbed workload slows.
    fact("adapt.loop.slow_node_weight", |f| {
        f.final_distribution.get(1).copied().unwrap_or(0.0)
    });
}

/// The wire half of a block's trip over a socket link: tuples encoded
/// into a payload, stamped and acknowledged by a pair of link states,
/// framed, fed through a decoder and decoded back.
struct WirePath {
    tx: LinkState,
    rx: LinkState,
    decoder: Decoder,
    bytes: u64,
}

impl WirePath {
    fn new() -> Self {
        WirePath {
            tx: LinkState::new(),
            rx: LinkState::new(),
            decoder: Decoder::new(),
            bytes: 0,
        }
    }

    fn carry(&mut self, pass: &mut Pass<'_>, block: u32, tuples: &[Tuple]) -> R<Vec<Tuple>> {
        let n = tuples.len() as u64;
        let payload = pass.span("common.wire.encode", block, n, || {
            let mut out = Vec::new();
            wire::put_tuples(&mut out, tuples);
            out
        });
        self.bytes += payload.len() as u64;
        let (tx, rx) = (&mut self.tx, &mut self.rx);
        let frame = pass.span("net.link.cycle", block, 1, || {
            let frame = tx.stamp(kind::MSG, payload);
            black_box(rx.on_receive(&frame));
            let ack = rx.ack_frame();
            black_box(tx.on_receive(&ack));
            frame
        });
        let bytes = pass.span("net.frame.encode", block, 1, || frame.encode());
        let decoder = &mut self.decoder;
        let frames = pass
            .span("net.frame.decode", block, 1, || decoder.feed(&bytes))
            .map_err(err)?;
        let payload = &frames.first().ok_or("decoder returned no frame")?.payload;
        pass.span("common.wire.decode", block, n, || {
            wire::get_tuples(&mut Reader::new(payload))
        })
        .map_err(err)
    }

    fn set_metrics(&self, pass: &mut Pass<'_>) {
        pass.set_per_unit("common.wire.encode_ns_per_tuple", "common.wire.encode", 1.0);
        pass.set_per_unit("common.wire.decode_ns_per_tuple", "common.wire.decode", 1.0);
        pass.set_per_unit("net.frame.encode_ns_per_frame", "net.frame.encode", 1.0);
        pass.set_per_unit("net.frame.decode_ns_per_frame", "net.frame.decode", 1.0);
        pass.set_per_unit("net.link.cycle_ns_per_frame", "net.link.cycle", 1.0);
        let (_, tuples) = pass.total("common.wire.encode");
        if tuples > 0.0 {
            pass.set("common.wire.bytes_per_tuple", self.bytes as f64 / tuples);
        }
    }
}

/// Budget rows: what each span name gained since `before`, over the
/// input tuples replayed meanwhile.
fn budget_rows(
    pass: &Pass<'_>,
    before: &BTreeMap<&'static str, (u64, u64)>,
    layers: &[&'static str],
    input_tuples: f64,
) -> Vec<(&'static str, f64)> {
    layers
        .iter()
        .map(|&layer| {
            let earlier = before.get(layer).map_or(0, |t| t.0) as f64;
            (layer, (pass.total(layer).0 - earlier) / input_tuples)
        })
        .collect()
}

/// Replays the Q1 path over the input `passes` times. `with_wire` adds
/// the socket substrate's wire trip (inputs out, results back);
/// `monitoring` adds one M1 event per ten tuples through a detector.
fn replay_q1(
    pass: &mut Pass<'_>,
    input: &Input<Q1Experiment>,
    passes: usize,
    with_wire: bool,
    monitoring: bool,
) -> R<Vec<(&'static str, f64)>> {
    let stage = &input.plan.stages[0];
    let source = &input.plan.sources[0];
    let partitions = stage.nodes.len();
    let mut router =
        Router::from_policy(&stage.exchange.routing, partitions as u32).map_err(err)?;
    let mut evaluators: Vec<_> = (0..partitions)
        .map(|i| stage.factory.create(i as u32))
        .collect();
    let adaptivity = AdaptivityConfig::default();
    let stride = adaptivity.monitoring_interval_tuples.max(1) as usize;
    let mut detector = MonitoringEventDetector::new(&adaptivity);
    let (ring_tx, ring_rx) = ring::<Vec<Tuple>>(8);
    let mut wire_path = WirePath::new();
    let block_len = stage.exchange.buffer_tuples.max(1);
    let rows_total = input.catalog.get(&source.table).map_err(err)?.len();
    let cost_ms = input.exp.ws_cost_ms + ThreadedConfig::default().receive_cost_ms;
    let before = pass.totals.clone();
    let replay = pass.open("replay", pass.root);
    let mut digest = Digest::default();
    let mut produced = 0u64;
    for pass_index in 0..passes {
        for start in (0..rows_total).step_by(block_len) {
            let end = (start + block_len).min(rows_total);
            let n = (end - start) as u64;
            let block = pass.open("replay.block", replay);
            let rows: Vec<Tuple> = pass
                .span("engine.scan", block, n, || {
                    input
                        .catalog
                        .get(&source.table)
                        .map(|t| t.rows()[start..end].to_vec())
                })
                .map_err(err)?;
            let dests: Vec<u32> = pass
                .span("engine.router.weighted", block, n, || {
                    rows.iter()
                        .map(|row| router.route(StreamTag::Single, row))
                        .collect::<gridq_common::Result<_>>()
                })
                .map_err(err)?;
            let rows = if with_wire {
                wire_path.carry(pass, block, &rows)?
            } else {
                pass.span("common.ring.push_pop", block, 1, || {
                    ring_tx.push(rows).ok().and_then(|()| ring_rx.pop())
                })
                .ok_or("ring lost a block")?
            };
            let outputs: Vec<Tuple> = pass
                .span("engine.operator.service_call", block, n, || {
                    let mut out = Vec::with_capacity(rows.len());
                    for (row, &dest) in rows.iter().zip(&dests) {
                        out.extend(
                            evaluators[dest as usize]
                                .process(StreamTag::Single, row)?
                                .outputs,
                        );
                    }
                    Ok::<_, gridq_common::GridError>(out)
                })
                .map_err(err)?;
            if monitoring {
                let events = (rows.len() / stride) as u64;
                pass.span("adapt.detector.on_m1", block, events, || {
                    for k in 0..events {
                        produced += stride as u64;
                        let index = (k % partitions as u64) as u32;
                        black_box(detector.on_m1(&M1 {
                            query: input.plan.query,
                            partition: PartitionId::new(stage.id, index),
                            node: stage.nodes[index as usize],
                            cost_per_tuple_ms: cost_ms,
                            leaf_wait_ms: 0.0,
                            selectivity: 1.0,
                            tuples_produced: produced,
                            at: SimTime::from_millis(produced as f64),
                        }));
                    }
                });
            }
            let outputs = if with_wire {
                wire_path.carry(pass, block, &outputs)?
            } else {
                outputs
            };
            if pass_index == 0 {
                for t in &outputs {
                    digest.add(t.values());
                }
            }
            pass.close(block);
        }
    }
    pass.close(replay);
    if digest != input.reference {
        pass.reasons.push(format!(
            "replay digest {digest} differs from reference {}",
            input.reference
        ));
    }

    pass.set_per_unit("engine.scan.ns_per_tuple", "engine.scan", 1.0);
    pass.set_per_unit(
        "engine.router.weighted_ns_per_tuple",
        "engine.router.weighted",
        1.0,
    );
    pass.set_per_unit(
        "engine.operator.service_call_ns_per_tuple",
        "engine.operator.service_call",
        1.0,
    );
    let mut layers = vec!["engine.scan", "engine.router.weighted"];
    if with_wire {
        wire_path.set_metrics(pass);
        layers.extend([
            "common.wire.encode",
            "net.link.cycle",
            "net.frame.encode",
            "net.frame.decode",
            "common.wire.decode",
        ]);
    } else {
        pass.set_per_unit(
            "common.ring.push_pop_ns_per_block",
            "common.ring.push_pop",
            1.0,
        );
        layers.push("common.ring.push_pop");
    }
    layers.push("engine.operator.service_call");
    if monitoring {
        pass.set_per_unit("adapt.detector.on_m1_ns", "adapt.detector.on_m1", 1.0);
        layers.push("adapt.detector.on_m1");
    }
    Ok(budget_rows(
        pass,
        &before,
        &layers,
        (rows_total * passes) as f64,
    ))
}

/// Replays the Q2 socket path once over the input, build stream first,
/// with the recall's own calls at the scripted point.
fn replay_q2(pass: &mut Pass<'_>, w: &Q2RecallSockets) -> R<Vec<(&'static str, f64)>> {
    let input = &w.input;
    let stage = &input.plan.stages[0];
    let partitions = stage.nodes.len();
    let mut router =
        Router::from_policy(&stage.exchange.routing, partitions as u32).map_err(err)?;
    let mut evaluators: Vec<_> = (0..partitions)
        .map(|i| stage.factory.create(i as u32))
        .collect();
    // The logs as a recall run keeps them: the build log never closes a
    // window (its tuples are operator state), the probe log checkpoints
    // at the substrate's default interval.
    let interval = SocketConfig::new(
        crate::inputs::q2_spec(&input.exp),
        crate::inputs::resolver(),
    )
    .checkpoint_interval;
    let mut logs = Vec::new();
    for source in &input.plan.sources {
        let every = if source.stream == StreamTag::Build {
            usize::MAX / 2
        } else {
            interval
        };
        logs.push(SharedRecoveryLog::<(StreamTag, Tuple)>::new(partitions, every).map_err(err)?);
    }
    let mut wire_path = WirePath::new();
    let block_len = stage.exchange.buffer_tuples.max(1);
    let replay = pass.open("replay", pass.root);
    let mut digest = Digest::default();
    let mut routed = 0u64;
    let mut recalled = false;
    let mut unacked_peak = 0usize;
    // Build sources first: the iterator model consumes the build input
    // before the first probe.
    let mut order: Vec<usize> = (0..input.plan.sources.len()).collect();
    order.sort_by_key(|&i| input.plan.sources[i].stream != StreamTag::Build);
    for sidx in order {
        let source = &input.plan.sources[sidx];
        let stream = source.stream;
        let operator = if stream == StreamTag::Build {
            "engine.operator.join_build"
        } else {
            "engine.operator.join_probe"
        };
        let rows_total = input.catalog.get(&source.table).map_err(err)?.len();
        for start in (0..rows_total).step_by(block_len) {
            let end = (start + block_len).min(rows_total);
            let n = (end - start) as u64;
            let block = pass.open("replay.block", replay);
            let rows: Vec<Tuple> = pass
                .span("engine.scan", block, n, || {
                    input
                        .catalog
                        .get(&source.table)
                        .map(|t| t.rows()[start..end].to_vec())
                })
                .map_err(err)?;
            let dests: Vec<u32> = pass
                .span("engine.router.hash", block, n, || {
                    rows.iter()
                        .map(|row| router.route(stream, row))
                        .collect::<gridq_common::Result<_>>()
                })
                .map_err(err)?;
            let log = &logs[sidx];
            let checkpoints = pass
                .span("recovery.log.record", block, n, || {
                    let mut closed = Vec::new();
                    for (row, &dest) in rows.iter().zip(&dests) {
                        if let Some(cp) = log.record(dest, (stream, row.clone()))? {
                            closed.push((cp, log.epoch()));
                        }
                    }
                    Ok::<_, gridq_common::GridError>(closed)
                })
                .map_err(err)?;
            let rows = wire_path.carry(pass, block, &rows)?;
            let outputs: Vec<Tuple> = pass
                .span(operator, block, n, || {
                    let mut out = Vec::new();
                    for (row, &dest) in rows.iter().zip(&dests) {
                        out.extend(evaluators[dest as usize].process(stream, row)?.outputs);
                    }
                    Ok::<_, gridq_common::GridError>(out)
                })
                .map_err(err)?;
            let outputs = if outputs.is_empty() {
                outputs
            } else {
                wire_path.carry(pass, block, &outputs)?
            };
            for t in &outputs {
                digest.add(t.values());
            }
            if !checkpoints.is_empty() {
                pass.span("recovery.log.ack", block, checkpoints.len() as u64, || {
                    for (cp, epoch) in &checkpoints {
                        black_box(log.acknowledge(cp.dest, cp.id, *epoch));
                    }
                });
            }
            unacked_peak = unacked_peak.max(logs.iter().map(|l| l.total_unacked()).sum());
            routed += n;
            pass.close(block);

            if !recalled && routed >= w.recall_after() {
                recalled = true;
                let build = input
                    .plan
                    .sources
                    .iter()
                    .position(|s| s.stream == StreamTag::Build)
                    .ok_or("recall replay needs a build source")?;
                replay_recall(pass, replay, &mut router, &mut evaluators, &logs[build])?;
            }
        }
    }
    pass.close(replay);
    if digest != input.reference {
        pass.reasons.push(format!(
            "replay digest {digest} differs from reference {}",
            input.reference
        ));
    }

    pass.set_per_unit("engine.scan.ns_per_tuple", "engine.scan", 1.0);
    pass.set_per_unit("engine.router.hash_ns_per_tuple", "engine.router.hash", 1.0);
    pass.set_per_unit(
        "engine.operator.join_build_ns_per_tuple",
        "engine.operator.join_build",
        1.0,
    );
    pass.set_per_unit(
        "engine.operator.join_probe_ns_per_tuple",
        "engine.operator.join_probe",
        1.0,
    );
    pass.set_per_unit(
        "recovery.log.record_ns_per_tuple",
        "recovery.log.record",
        1.0,
    );
    pass.set_per_unit("recovery.log.ack_ns_per_window", "recovery.log.ack", 1.0);
    pass.set("recovery.log.unacked_peak", unacked_peak as f64);
    wire_path.set_metrics(pass);

    // The budget is set against the *static* run, which keeps no recovery
    // log: the log and the recall's own calls are listed, not summed.
    let before = BTreeMap::new();
    let rows = budget_rows(
        pass,
        &before,
        &[
            "engine.scan",
            "engine.router.hash",
            "common.wire.encode",
            "net.link.cycle",
            "net.frame.encode",
            "net.frame.decode",
            "common.wire.decode",
            "engine.operator.join_build",
            "engine.operator.join_probe",
        ],
        input.tuples as f64,
    );
    println!("recall-only layers (a static run pays none of these; ns per input tuple):");
    for (layer, ns) in budget_rows(
        pass,
        &before,
        &[
            "recovery.log.record",
            "recovery.log.ack",
            "recovery.log.migrate",
            "engine.router.retrospective",
            "engine.operator.extract_state",
            "engine.operator.join_rebuild",
        ],
        input.tuples as f64,
    ) {
        println!("  {layer:<44} {ns:>12.1}");
    }
    Ok(rows)
}

/// The recall's own calls: the retrospective swap, state extraction on
/// every old owner, retiring the moved entries from the build log, and
/// rebuilding the state on the new owners.
fn replay_recall(
    pass: &mut Pass<'_>,
    parent: u32,
    router: &mut Router,
    evaluators: &mut [Box<dyn gridq_engine::PartitionEvaluator>],
    build_log: &SharedRecoveryLog<(StreamTag, Tuple)>,
) -> R<()> {
    let recall = pass.open("replay.recall", parent);
    let target = DistributionVector::new(&RECALL_WEIGHTS).map_err(err)?;
    let moves = pass
        .span("engine.router.retrospective", recall, 1, || {
            router.apply_retrospective(&target)
        })
        .map_err(err)?;
    let buckets = router
        .bucket_count()
        .ok_or("recall replay needs hash routing")?;
    for (owner, outgoing) in moves.outgoing.iter().enumerate() {
        if outgoing.is_empty() {
            continue;
        }
        let state = pass.span("engine.operator.extract_state", recall, 0, || {
            evaluators[owner].extract_state(buckets, outgoing)
        });
        let n = state.len() as u64;
        pass.add_units("engine.operator.extract_state", n);
        let moved: std::collections::HashSet<u64> = state.iter().map(|(_, t)| t.seq()).collect();
        pass.span("recovery.log.migrate", recall, n, || {
            black_box(build_log.retire_matching(owner as u32, |(s, t)| {
                *s == StreamTag::Build && moved.contains(&t.seq())
            }))
        })
        .map_err(err)?;
        // Rebuilding the state on the new owners is join-build work, but a
        // static run does none of it: its own span name keeps it out of
        // the static budget.
        pass.span("engine.operator.join_rebuild", recall, n, || {
            for (stream, tuple) in &state {
                let dest = router.route(*stream, tuple)?;
                evaluators[dest as usize].process(*stream, tuple)?;
            }
            Ok::<_, gridq_common::GridError>(())
        })
        .map_err(err)?;
    }
    pass.close(recall);
    pass.set_per_unit(
        "engine.router.retrospective_us",
        "engine.router.retrospective",
        1000.0,
    );
    pass.set_per_unit(
        "engine.operator.extract_state_ns_per_tuple",
        "engine.operator.extract_state",
        1.0,
    );
    pass.set_per_unit(
        "recovery.log.migrate_ns_per_tuple",
        "recovery.log.migrate",
        1.0,
    );
    Ok(())
}

/// The diagnoser and the responder almost never run on an unperturbed
/// stream (the detector stays quiet), so they are timed on their own.
fn adapt_micro(pass: &mut Pass<'_>) {
    const N: u64 = 20_000;
    let config = AdaptivityConfig::default();
    let stage = gridq_common::SubplanId::new(1);
    let mut diagnoser = Diagnoser::new(stage, 2, DistributionVector::uniform(2), &config);
    pass.span("adapt.diagnoser.on_cost_update", pass.root, N, || {
        for i in 0..N {
            black_box(diagnoser.on_cost_update(&CostUpdate {
                partition: PartitionId::new(stage, (i % 2) as u32),
                // Every other update makes partition 1 ten times dearer,
                // so the imbalance arithmetic really runs.
                avg_cost_ms: if i % 4 == 1 { 35.0 } else { 3.5 },
                avg_wait_ms: 0.0,
                selectivity: 1.0,
                window_len: 25,
                at: SimTime::from_millis(i as f64),
            }));
        }
    });
    let mut responder = Responder::new(&config);
    let proposed = DistributionVector::new(&[0.9, 0.1]).expect("valid weights");
    pass.span("adapt.responder.on_imbalance", pass.root, N, || {
        for i in 0..N {
            black_box(responder.on_imbalance(
                &Imbalance {
                    stage,
                    proposed: proposed.clone(),
                    costs: vec![3.5, 35.0],
                    // Past the cooldown every time: each proposal deploys.
                    at: SimTime::from_millis(i as f64 * 100.0),
                },
                0.5,
            ));
        }
    });
    pass.set_per_unit(
        "adapt.diagnoser.on_cost_update_ns",
        "adapt.diagnoser.on_cost_update",
        1.0,
    );
    pass.set_per_unit(
        "adapt.responder.on_imbalance_ns",
        "adapt.responder.on_imbalance",
        1.0,
    );
}

/// The two obs calls a traced threaded run makes per event.
fn obs_micro(pass: &mut Pass<'_>) {
    const N: u64 = 50_000;
    let obs = Obs::new(gridq_obs::ObsConfig::default().timeline_capacity);
    let counter = obs.metrics().counter("exec.tuples_routed");
    pass.span("obs.registry.counter_add", pass.root, N, || {
        for _ in 0..N {
            counter.add(1);
        }
    });
    // More events than the timeline holds, so eviction — the steady state
    // of a long traced run — is in the measurement.
    pass.span("obs.timeline.record", pass.root, N, || {
        for i in 0..N {
            black_box(obs.record(
                i as f64,
                Some(i as f64),
                TimelineKind::RawM1 {
                    partition: "sp1.0".into(),
                    node: "n1".into(),
                    cost_per_tuple_ms: 3.5,
                    leaf_wait_ms: 0.0,
                    gate_fired: false,
                },
            ));
        }
    });
    pass.set_per_unit(
        "obs.registry.counter_add_ns",
        "obs.registry.counter_add",
        1.0,
    );
    pass.set_per_unit("obs.timeline.record_ns", "obs.timeline.record", 1.0);
}

/// One block handed from one thread to another and back, through two
/// rings, with both sides parking when they find nothing: half the round
/// trip is one hand-off.
fn ring_handoff(pass: &mut Pass<'_>, input: &Input<Q1Experiment>) -> R<()> {
    const ROUNDS: u64 = 2_000;
    let table = input
        .catalog
        .get(&input.plan.sources[0].table)
        .map_err(err)?;
    let block_len = input.plan.stages[0].exchange.buffer_tuples.min(table.len());
    let mut block: Vec<Tuple> = table.rows()[..block_len].to_vec();
    let (there_tx, there_rx) = ring::<Vec<Tuple>>(8);
    let (back_tx, back_rx) = ring::<Vec<Tuple>>(8);
    let wait = Duration::from_secs(5);
    let echo = thread::spawn(move || {
        while let Some(b) = there_rx.pop_wait(wait) {
            if back_tx.push(b).is_err() {
                break;
            }
        }
    });
    let ok = pass.span("common.ring.handoff", pass.root, 2 * ROUNDS, || {
        for _ in 0..ROUNDS {
            if there_tx.push(block).is_err() {
                return false;
            }
            match back_rx.pop_wait(wait) {
                Some(b) => block = b,
                None => return false,
            }
        }
        true
    });
    drop(there_tx);
    echo.join().map_err(|_| "ring echo thread panicked")?;
    if !ok {
        return Err("ring hand-off lost a block".into());
    }
    pass.set_per_unit(
        "common.ring.handoff_us_per_block",
        "common.ring.handoff",
        1000.0,
    );
    Ok(())
}

/// Binds, connects and accepts a fresh Unix socket, `rounds` times.
fn connect_micro(pass: &mut Pass<'_>, rounds: u64) -> R<()> {
    let mut samples = Vec::new();
    for _ in 0..rounds {
        let t0 = pass.clock.ns();
        let id = pass.open("net.endpoint.connect", pass.root);
        let listener = Listener::bind(&Addr::scratch_unix()).map_err(err)?;
        let addr = listener.local_addr().map_err(err)?;
        let client = Stream::connect(&addr).map_err(err)?;
        let server = listener.accept().map_err(err)?;
        pass.close(id);
        samples.push((pass.clock.ns() - t0) as f64 / 1000.0);
        drop((client, server, listener));
    }
    pass.set("net.endpoint.connect_us", med(samples));
    Ok(())
}

/// One frame holding `tuples`, echoed over a Unix socket by a second
/// thread; plus the cost of setting a connection up.
fn endpoint_micro(pass: &mut Pass<'_>, tuples: &[Tuple]) -> R<()> {
    const ROUNDS: usize = 500;
    connect_micro(pass, 200)?;
    let mut payload = Vec::new();
    wire::put_tuples(&mut payload, tuples);
    let mut link = LinkState::new();
    let listener = Listener::bind(&Addr::scratch_unix()).map_err(err)?;
    let addr = listener.local_addr().map_err(err)?;
    let echo = thread::spawn(move || -> R<()> {
        let mut conn = listener.accept().map_err(err)?;
        let mut decoder = Decoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            let n = conn.read(&mut buf).map_err(err)?;
            if n == 0 {
                return Ok(());
            }
            for frame in decoder.feed(&buf[..n]).map_err(err)? {
                conn.write_all(&frame.encode()).map_err(err)?;
            }
        }
    });
    let mut conn = Stream::connect(&addr).map_err(err)?;
    let mut decoder = Decoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut samples = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let bytes = link.stamp(kind::MSG, payload.clone()).encode();
        let t0 = pass.clock.ns();
        let id = pass.open("net.endpoint.block_roundtrip", pass.root);
        conn.write_all(&bytes).map_err(err)?;
        let echoed = loop {
            let n = conn.read(&mut buf).map_err(err)?;
            if n == 0 {
                return Err("echo server hung up".into());
            }
            if let Some(frame) = decoder.feed(&buf[..n]).map_err(err)?.pop() {
                break frame;
            }
        };
        pass.close(id);
        samples.push((pass.clock.ns() - t0) as f64 / 1000.0);
        // Acknowledge, or the link's outbox keeps every payload.
        link.on_receive(&gridq_net::Frame {
            kind: kind::ACK_ONLY,
            seq: 0,
            ack: echoed.seq,
            payload: Vec::new(),
        });
    }
    conn.shutdown_both().map_err(err)?;
    drop(conn);
    echo.join().map_err(|_| "socket echo thread panicked")??;
    pass.set("net.endpoint.block_roundtrip_us", med(samples));
    Ok(())
}

/// The traced pass of `service_mixed`.
pub fn service(
    name: &str,
    w: &ServiceMixed,
    clock: &Clock,
    seconds: f64,
    sizes: &Sizes,
    seed: u64,
) -> R<Traced> {
    let mut pass = Pass::new(clock, format!("{name}-seed{seed}"));
    let plain_service = w.service().map_err(err)?;
    w.run_phase(clock, &plain_service, 0.0, 2 * w.sessions, Variant::Plain);
    let a = w.run_phase(
        clock,
        &plain_service,
        seconds / 3.0,
        sizes.traced_queries,
        Variant::Plain,
    );
    let stats = plain_service.admission_stats();
    let traced_service = w.service().map_err(err)?;
    let b = w.run_phase(
        clock,
        &traced_service,
        seconds / 3.0,
        sizes.traced_queries,
        Variant::Traced,
    );

    // Caller latency minus the executor's own wall time: admission wait
    // plus per-query set-up and teardown.
    let ops: Vec<(f64, &Facts)> = a.wall_ms.iter().copied().zip(&a.facts).collect();
    pass.set(
        "exec.service.outside_run_ms_p50",
        med(ops
            .iter()
            .filter(|(_, f)| f.report_wall_ms > 0.0)
            .map(|(wall, f)| wall - f.report_wall_ms)),
    );
    let by = |s: Substrate| {
        med(ops
            .iter()
            .filter(|(_, f)| f.substrate == s)
            .map(|(wall, _)| *wall))
    };
    pass.set("exec.service.threaded_ms_p50", by(Substrate::Threaded));
    pass.set("exec.service.socket_ms_p50", by(Substrate::Socket));
    pass.set("exec.service.peak_queued", stats.peak_queued as f64);
    pass.set(
        "exec.service.enqueued_share",
        stats.enqueued as f64 / (stats.admitted + stats.enqueued).max(1) as f64,
    );
    pass.set("exec.service.rejected", stats.rejected as f64);
    common_facts(&mut pass, &a);
    pass.set("workload.data.gen_ns_per_tuple", w.input.gen_ns_per_tuple());
    let overhead = (p50(&b) - p50(&a)) / p50(&a).max(f64::MIN_POSITIVE);
    pass.set("obs.overhead_share", overhead);
    println!(
        "tracing overhead {name}: p50 with obs on in the threaded half {:.3} ms vs off {:.3} ms \
         = {:+.2}%",
        p50(&b),
        p50(&a),
        overhead * 100.0
    );

    // The tuple path of both halves, over the query's own 2000 tuples.
    let threaded_rows = replay_q1(&mut pass, &w.input, 25, false, false)?;
    let socket_rows = replay_q1(&mut pass, &w.input, 25, true, false)?;
    const CYCLES: u64 = 100_000;
    let mut controller = AdmissionController::new(AdmissionConfig {
        max_concurrent: w.sessions / 2,
        queue_depth: w.sessions,
    })
    .map_err(err)?;
    pass.span("engine.admission.cycle", pass.root, CYCLES, || {
        for _ in 0..CYCLES {
            if let AdmissionDecision::Admitted(id) = controller.submit() {
                black_box(controller.complete(id).is_ok());
            }
        }
    });
    pass.set_per_unit("engine.admission.cycle_ns", "engine.admission.cycle", 1.0);
    connect_micro(&mut pass, 200)?;

    let tuples = w.input.tuples as f64;
    let cpu_ns = a.cpu_ms * 1e6 / (a.attempted.max(1) as f64 * tuples);
    print_budget(&format!("{name}, threaded half"), &threaded_rows, cpu_ns);
    print_budget(&format!("{name}, socket half"), &socket_rows, cpu_ns);
    println!(
        "  (cpu is per query over both halves: at {tuples} tuples a query is mostly set-up and \
         teardown, which is what this workload is for)"
    );

    let mut reasons = a.reasons;
    reasons.extend(b.reasons);
    let replay_failed = u64::from(!pass.reasons.is_empty());
    reasons.append(&mut pass.reasons);
    Ok(Traced {
        attempted: a.attempted + b.attempted + replay_failed,
        failed: a.failed + b.failed + replay_failed,
        reasons,
        values: pass.finish(&format!("spans-{name}-seed{seed}.jsonl"))?,
    })
}
