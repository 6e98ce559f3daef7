//! The third execution substrate: process-per-node execution over real
//! sockets.
//!
//! The simulator proves the adaptivity architecture in virtual time and
//! the threaded executor proves it against the wall clock inside one
//! address space; this module proves it across an actual network edge.
//! One coordinator process hosts the producers, the shared exchange
//! router, the recovery logs and the adaptation thread; `N` evaluator
//! workers — in-process threads or spawned `gridq-node` processes —
//! connect back over loopback TCP or Unix domain sockets and speak the
//! `gridq-net` frame protocol. The coordinator side of a run is the
//! crate's one run skeleton (`Run::execute`, shared with the threaded
//! executor: set-up, producers over the ring sink, the adaptation
//! thread that deploys this substrate's `ScriptedAdaptation`s, join
//! order, report totals) and the protocol is the crate's private
//! `protocol` module — shared, not ported. What lives here is the codec
//! the threaded substrate gains at the link: payload codecs, links, link
//! and reader threads, worker launch and teardown, and the worker's frame
//! reader.
//!
//! Topology is a star: each worker connects once to the coordinator's
//! listener and identifies itself with a `HELLO` carrying its index.
//! Within the coordinator, one link thread per worker multiplexes the
//! rings of blocks a threaded consumer would pop and its control messages
//! through the same `Inbox`, and encodes what it pops onto the socket
//! (the rings bound producer memory and park producers when a
//! `slow_peer` stops reading), and one reader thread per connection
//! decodes each worker frame into the call a threaded consumer makes
//! in-process on its `Port` (acks, results, recall replies, completion).
//!
//! A connection is FIFO until it ends, and an end before the run
//! releases the worker is the worker's death: the reader reports it as a
//! crashed threaded consumer reports its own, and a resilient run fails
//! the worker over from the recovery logs (DESIGN §13). Frames therefore
//! carry no link-level sequencing, acknowledgement or retransmission.
//!
//! The worker side is a frame reader in front of the threaded executor's
//! own consumer thread: the reader keeps the connection and feeds the
//! consumer's inbox, whose outlet writes every output as a frame.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gridq_adapt::{AdaptationCommand, AdaptivityConfig};
use gridq_common::sync::ring::{inbox, ring, Inbox, InboxSender, RingSender, Wake};
use gridq_common::wire::{
    self, get_count, get_f64, get_str, get_u32, put_f64, put_str, put_varint, Reader,
};
use gridq_common::{
    ChaosHook, DataType, DistributionVector, Field, GridError, NodeId, RecallPhase, Result, Schema,
    SimTime, Tuple,
};
use gridq_engine::distributed::DistributedPlan;
use gridq_engine::evaluator::{
    EvaluatorFactory, HashJoinFactory, PartitionEvaluator, ServiceCallFactory, StreamTag,
};
use gridq_engine::fixtures::{self, CallShape, JoinShape};
use gridq_engine::physical::Catalog;
use gridq_engine::service::{Service, ServiceRegistry};
use gridq_engine::{Expr, Table};
use gridq_grid::Perturbation;
use gridq_net::frame::kind;
use gridq_net::link;
use gridq_net::{Addr, Decoder, Frame, Listener, Stream};
use gridq_obs::{ObsConfig, RunReport};
use gridq_recovery::Checkpoint;

use crate::protocol::consumer::{Consumer, ConsumerOut, ConsumerSpec, M1Sample};
use crate::protocol::coordinator::MigrateCmd;
use crate::protocol::{sane_ms, validate_knobs, Block, Routed, Staged};
use crate::{
    real_time, ConsumerThread, DataMsg, Endpoints, Msg, Outlet, Pacer, Port, Run, ThreadedConfig,
    Wiring, RING_BLOCKS,
};

/// Application-level message tags, the first payload byte of every
/// `kind::MSG` frame. Every frame that carries tuples carries
/// at most one block of them — the exchange's `buffer_tuples` — so no
/// payload grows with the size of the query.
mod tag {
    /// Coordinator -> worker: the worker's whole static configuration.
    pub const CONFIG: u8 = 0;
    /// Coordinator -> worker: one staged tuple block (tuples + markers).
    pub const DATA: u8 = 1;
    /// Coordinator -> worker: one source's end of stream.
    pub const EOS: u8 = 2;
    /// Coordinator -> worker: recall drain barrier.
    pub const DRAIN: u8 = 3;
    /// Coordinator -> worker: recall migration command.
    pub const MIGRATE: u8 = 4;
    /// Coordinator -> worker: a block of tuples re-delivered by the
    /// recall protocol (migrated state, recalled held probes, a failover
    /// replay).
    pub const MIGRATED: u8 = 5;
    /// Worker -> coordinator: a block of result tuples.
    pub const RESULTS: u8 = 6;
    /// Worker -> coordinator: a checkpoint acknowledgement.
    pub const ACK: u8 = 7;
    /// Worker -> coordinator: drain barrier reached.
    pub const DRAINED: u8 = 8;
    /// Worker -> coordinator: one block of the state and held probes of
    /// the buckets a recall moves, for the coordinator to re-route.
    pub const STATE_OUT: u8 = 9;
    /// Worker -> coordinator: migration handled.
    pub const MIGRATE_DONE: u8 = 10;
    /// Worker -> coordinator: all streams exhausted; carries the final
    /// processed count and dedup peak.
    pub const DONE: u8 = 11;
    /// Coordinator -> worker: the run is over (`Msg::Release`), exit
    /// cleanly.
    pub const SHUTDOWN: u8 = 13;
    // 12 and 14 are retired (a tuple sent back for re-routing, and state
    // re-inserted raw where it was surrendered) and must not be reused.
}

// ---------------------------------------------------------------------------
// Payload codecs. Each message's encoder and decoder sit side by side,
// over the primitives of `gridq_common::wire`.
// ---------------------------------------------------------------------------

fn put_stream(out: &mut Vec<u8>, s: StreamTag) {
    out.push(match s {
        StreamTag::Single => 0,
        StreamTag::Build => 1,
        StreamTag::Probe => 2,
    });
}

fn get_stream(r: &mut Reader<'_>) -> Result<StreamTag> {
    match r.u8()? {
        0 => Ok(StreamTag::Single),
        1 => Ok(StreamTag::Build),
        2 => Ok(StreamTag::Probe),
        other => Err(GridError::Execution(format!(
            "socket: unknown stream tag {other}"
        ))),
    }
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_varint(out, schema.len() as u64);
    for f in schema.fields() {
        put_str(out, &f.name);
        out.push(match f.data_type {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Str => 2,
            DataType::Bool => 3,
        });
    }
}

fn get_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let n = get_count(r, "schema arity")?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(r)?;
        let dt = match r.u8()? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Str,
            3 => DataType::Bool,
            other => {
                return Err(GridError::Execution(format!(
                    "socket: unknown data type {other}"
                )))
            }
        };
        fields.push(Field::new(name, dt));
    }
    Ok(Schema::new(fields))
}

fn put_routed(out: &mut Vec<u8>, (stream, source, tuple): &Routed) {
    put_stream(out, *stream);
    put_varint(out, *source as u64);
    wire::put_tuple(out, tuple);
}

fn get_routed(r: &mut Reader<'_>) -> Result<Routed> {
    let stream = get_stream(r)?;
    let source = r.varint()? as usize;
    Ok((stream, source, wire::get_tuple(r)?))
}

/// A count-prefixed block of routed entries. The count is checked
/// against the bytes that remain before anything is allocated for it.
fn get_routed_block(r: &mut Reader<'_>) -> Result<Vec<Routed>> {
    let n = get_count(r, "routed entry count")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(get_routed(r)?);
    }
    Ok(entries)
}

/// Every application-level message. The first payload byte is the
/// [`tag`]; `encode` and `decode` are each other's inverse, arm for arm.
enum WireMsg {
    Config(Box<WireConfig>),
    /// A data ring's item: `DATA` or `EOS`.
    Data(DataMsg),
    /// A control-plane message, as a threaded consumer's inbox carries
    /// it: `DRAIN`, `MIGRATE`, `MIGRATED` or `SHUTDOWN` (the release).
    Ctl(Msg),
    Results(Vec<Tuple>),
    Ack {
        source: usize,
        cp: Checkpoint,
        epoch: u64,
    },
    Drained {
        token: u64,
    },
    StateOut(Vec<Routed>),
    MigrateDone {
        token: u64,
    },
    Done {
        processed: u64,
        dedup_peak: u64,
    },
}

impl WireMsg {
    fn encode(&self) -> Vec<u8> {
        let tagged = |t: u8| vec![t];
        match self {
            WireMsg::Config(cfg) => cfg.encode(),
            WireMsg::Data(DataMsg::Block(block)) => {
                let mut out = tagged(tag::DATA);
                put_varint(&mut out, block.source as u64);
                put_varint(&mut out, block.items.len() as u64);
                for item in &block.items {
                    match item {
                        Staged::Tuple(stream, tuple) => {
                            out.push(0);
                            put_stream(&mut out, *stream);
                            wire::put_tuple(&mut out, tuple);
                        }
                        Staged::Marker(cp, epoch) => {
                            out.push(1);
                            put_varint(&mut out, u64::from(cp.dest));
                            put_varint(&mut out, cp.id);
                            put_varint(&mut out, *epoch);
                        }
                    }
                }
                out
            }
            WireMsg::Data(DataMsg::Eos(stream)) => {
                let mut out = tagged(tag::EOS);
                put_stream(&mut out, *stream);
                out
            }
            WireMsg::Ctl(Msg::Drain { token }) => enc_token(tag::DRAIN, *token),
            WireMsg::Drained { token } => enc_token(tag::DRAINED, *token),
            WireMsg::MigrateDone { token } => enc_token(tag::MIGRATE_DONE, *token),
            WireMsg::Ctl(Msg::Migrate(cmd)) => {
                let mut out = tagged(tag::MIGRATE);
                put_varint(&mut out, cmd.token);
                put_varint(&mut out, cmd.bucket_count.map_or(0, |b| u64::from(b) + 1));
                put_varint(&mut out, cmd.outgoing.len() as u64);
                for b in &cmd.outgoing {
                    put_varint(&mut out, u64::from(*b));
                }
                out
            }
            WireMsg::Ctl(Msg::Migrated(block)) => enc_routed_block(tag::MIGRATED, block),
            WireMsg::StateOut(block) => enc_routed_block(tag::STATE_OUT, block),
            WireMsg::Results(tuples) => {
                let mut out = tagged(tag::RESULTS);
                wire::put_tuples(&mut out, tuples);
                out
            }
            WireMsg::Ack { source, cp, epoch } => {
                let mut out = tagged(tag::ACK);
                put_varint(&mut out, *source as u64);
                put_varint(&mut out, u64::from(cp.dest));
                put_varint(&mut out, cp.id);
                put_varint(&mut out, *epoch);
                out
            }
            WireMsg::Done {
                processed,
                dedup_peak,
            } => {
                let mut out = tagged(tag::DONE);
                put_varint(&mut out, *processed);
                put_varint(&mut out, *dedup_peak);
                out
            }
            WireMsg::Ctl(Msg::Release) => tagged(tag::SHUTDOWN),
        }
    }

    /// Decodes one payload. Bytes come from another process: anything
    /// malformed is an `Err`, never a panic, and a length field larger
    /// than the bytes that remain is rejected before anything is
    /// allocated for it.
    fn decode(payload: &[u8]) -> Result<WireMsg> {
        let mut r = Reader::new(payload);
        let r = &mut r;
        Ok(match r.u8()? {
            tag::CONFIG => WireMsg::Config(Box::new(WireConfig::decode(r)?)),
            tag::DATA => {
                let source = r.varint()? as usize;
                let count = get_count(r, "block item count")?;
                let mut items: Vec<Staged> = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(match r.u8()? {
                        0 => {
                            let stream = get_stream(r)?;
                            Staged::Tuple(stream, wire::get_tuple(r)?)
                        }
                        1 => {
                            let dest = get_u32(r, "marker dest")?;
                            let id = r.varint()?;
                            Staged::Marker(Checkpoint { dest, id }, r.varint()?)
                        }
                        other => {
                            return Err(GridError::Execution(format!(
                                "socket: unknown staged item kind {other}"
                            )))
                        }
                    });
                }
                WireMsg::Data(DataMsg::Block(Block { source, items }))
            }
            tag::EOS => WireMsg::Data(DataMsg::Eos(get_stream(r)?)),
            tag::DRAIN => WireMsg::Ctl(Msg::Drain { token: r.varint()? }),
            tag::DRAINED => WireMsg::Drained { token: r.varint()? },
            tag::MIGRATE_DONE => WireMsg::MigrateDone { token: r.varint()? },
            tag::MIGRATE => {
                let token = r.varint()?;
                let bucket_count = match r.varint()? {
                    0 => None,
                    b => Some(u32::try_from(b - 1).map_err(|_| {
                        GridError::Execution("socket: bucket count overflow".into())
                    })?),
                };
                let n = get_count(r, "bucket count")?;
                let mut outgoing = Vec::with_capacity(n);
                for _ in 0..n {
                    outgoing.push(get_u32(r, "bucket index")?);
                }
                WireMsg::Ctl(Msg::Migrate(MigrateCmd {
                    token,
                    bucket_count,
                    outgoing,
                }))
            }
            tag::MIGRATED => WireMsg::Ctl(Msg::Migrated(get_routed_block(r)?)),
            tag::STATE_OUT => WireMsg::StateOut(get_routed_block(r)?),
            tag::RESULTS => WireMsg::Results(wire::get_tuples(r)?),
            tag::ACK => {
                let source = r.varint()? as usize;
                let dest = get_u32(r, "ack dest")?;
                let id = r.varint()?;
                WireMsg::Ack {
                    source,
                    cp: Checkpoint { dest, id },
                    epoch: r.varint()?,
                }
            }
            tag::DONE => WireMsg::Done {
                processed: r.varint()?,
                dedup_peak: r.varint()?,
            },
            tag::SHUTDOWN => WireMsg::Ctl(Msg::Release),
            other => {
                return Err(GridError::Execution(format!(
                    "socket: unknown frame tag {other}"
                )))
            }
        })
    }
}

fn enc_token(t: u8, token: u64) -> Vec<u8> {
    let mut out = vec![t];
    put_varint(&mut out, token);
    out
}

fn enc_routed_block(t: u8, block: &[Routed]) -> Vec<u8> {
    let mut out = vec![t];
    put_varint(&mut out, block.len() as u64);
    for entry in block {
        put_routed(&mut out, entry);
    }
    out
}

// ---------------------------------------------------------------------------
// The CONFIG payload: everything a worker needs before the first block.
// ---------------------------------------------------------------------------

/// The static per-worker configuration, the opening frame of every
/// worker's link, written before the link pops anything. Carried by
/// value across the process boundary so a spawned `gridq-node` needs
/// nothing but its command line and this frame.
struct WireConfig {
    /// The protocol consumer's description; its perturbation travels in
    /// linear form so the worker needs no `Perturbation` enum.
    spec: ConsumerSpec,
    cost_scale: f64,
    /// Pre-read stall injected by `slow_peer` chaos, resolved on the
    /// coordinator so spawned processes need no chaos hook of their own.
    read_stall_ms: f64,
    stage: WireStageSpec,
}

impl WireConfig {
    fn encode(&self) -> Vec<u8> {
        let s = &self.spec;
        let mut out = vec![tag::CONFIG];
        put_varint(&mut out, s.index as u64);
        out.push(u8::from(s.resilient));
        out.push(u8::from(s.logging));
        put_f64(&mut out, self.cost_scale);
        put_f64(&mut out, s.receive_cost_ms);
        put_f64(&mut out, self.read_stall_ms);
        put_f64(&mut out, s.cost_factor);
        put_f64(&mut out, s.cost_extra_ms);
        put_varint(&mut out, s.eos_needed as u64);
        put_varint(&mut out, s.build_eos_needed as u64);
        put_varint(&mut out, s.build_source.map_or(0, |b| b as u64 + 1));
        put_varint(&mut out, s.block_tuples as u64);
        self.stage.encode(&mut out);
        out
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireConfig> {
        let index = r.varint()? as usize;
        let resilient = r.u8()? != 0;
        let logging = r.u8()? != 0;
        let cost_scale = get_f64(r)?;
        let receive_cost_ms = get_f64(r)?;
        let read_stall_ms = get_f64(r)?;
        let cost_factor = get_f64(r)?;
        let cost_extra_ms = get_f64(r)?;
        let eos_needed = r.varint()? as usize;
        let build_eos_needed = r.varint()? as usize;
        let build_source = match r.varint()? {
            0 => None,
            b => Some((b - 1) as usize),
        };
        let block_tuples = r.varint()? as usize;
        Ok(WireConfig {
            spec: ConsumerSpec {
                index,
                resilient,
                logging,
                receive_cost_ms,
                cost_factor,
                cost_extra_ms,
                eos_needed,
                build_eos_needed,
                build_source,
                block_tuples,
            },
            cost_scale,
            read_stall_ms,
            stage: WireStageSpec::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Stage specification that crosses the process boundary.
// ---------------------------------------------------------------------------

/// Resolves a service name (plus its modelled per-call cost) to a
/// [`Service`] implementation. Service *code* cannot cross a process
/// boundary, so the stage spec carries the name and each worker — the
/// coordinator's in-process threads and the `gridq-node` binary alike —
/// reconstructs the implementation locally.
pub type ServiceResolver = Arc<dyn Fn(&str, f64) -> Option<Arc<dyn Service>> + Send + Sync>;

/// The resolver for the repo's standard benchmark workload: the
/// `Square` analysis service every substrate's Q1 plan invokes. The
/// `gridq-node` binary, the chaos harness, and the parity tests all
/// resolve through this one function so a spawned process computes
/// byte-identical results to an in-process thread.
pub fn standard_resolver() -> ServiceResolver {
    Arc::new(|name: &str, cost_ms: f64| (name == "Square").then(|| fixtures::square(cost_ms)))
}

/// A serializable description of the single parallel stage, shipped to
/// every worker in its `CONFIG` frame. The two variants cover the
/// workloads the repo's plans use: Q1's per-tuple service call and Q2's
/// partitioned hash join.
#[derive(Debug, Clone)]
pub enum WireStageSpec {
    /// One service invocation per tuple (stateless).
    ServiceCall {
        /// Schema of the stage input.
        input_schema: Schema,
        /// Service name, resolved by each worker's [`ServiceResolver`].
        service: String,
        /// Modelled per-call cost in milliseconds.
        service_cost_ms: f64,
        /// Input columns passed as service arguments.
        arg_cols: Vec<usize>,
        /// Name of the output column holding the service result.
        output_name: String,
        /// Whether input columns are kept alongside the result.
        keep_input: bool,
    },
    /// A partitioned hash join (stateful).
    HashJoin {
        /// Schema of the build input.
        build_schema: Schema,
        /// Schema of the probe input.
        probe_schema: Schema,
        /// Join key column in the build schema.
        build_key: usize,
        /// Join key column in the probe schema.
        probe_key: usize,
        /// Modelled per-build-tuple cost in milliseconds.
        build_cost_ms: f64,
        /// Modelled per-probe-tuple cost in milliseconds.
        probe_cost_ms: f64,
    },
}

impl WireStageSpec {
    /// The wire form of the stage [`fixtures::call_plan`] builds over
    /// `table`; [`standard_resolver`] resolves its service.
    pub fn for_call_plan(table: &Table, shape: &CallShape) -> WireStageSpec {
        WireStageSpec::ServiceCall {
            input_schema: table.schema().clone(),
            service: "Square".into(),
            service_cost_ms: shape.service_cost_ms,
            arg_cols: vec![0],
            output_name: "sq".into(),
            keep_input: false,
        }
    }

    /// The wire form of the stage [`fixtures::join_plan`] builds.
    pub fn for_join_plan(build: &Table, probe: &Table, shape: &JoinShape) -> WireStageSpec {
        WireStageSpec::HashJoin {
            build_schema: build.schema().clone(),
            probe_schema: probe.schema().clone(),
            build_key: 0,
            probe_key: 0,
            build_cost_ms: shape.build_cost_ms,
            probe_cost_ms: shape.probe_cost_ms,
        }
    }

    /// Whether the stage accumulates operator state (mirrors
    /// [`EvaluatorFactory::stateful`]).
    pub fn stateful(&self) -> bool {
        matches!(self, WireStageSpec::HashJoin { .. })
    }

    /// Serializes the spec into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireStageSpec::ServiceCall {
                input_schema,
                service,
                service_cost_ms,
                arg_cols,
                output_name,
                keep_input,
            } => {
                out.push(0);
                put_schema(out, input_schema);
                put_str(out, service);
                put_f64(out, *service_cost_ms);
                put_varint(out, arg_cols.len() as u64);
                for c in arg_cols {
                    put_varint(out, *c as u64);
                }
                put_str(out, output_name);
                out.push(u8::from(*keep_input));
            }
            WireStageSpec::HashJoin {
                build_schema,
                probe_schema,
                build_key,
                probe_key,
                build_cost_ms,
                probe_cost_ms,
            } => {
                out.push(1);
                put_schema(out, build_schema);
                put_schema(out, probe_schema);
                put_varint(out, *build_key as u64);
                put_varint(out, *probe_key as u64);
                put_f64(out, *build_cost_ms);
                put_f64(out, *probe_cost_ms);
            }
        }
    }

    /// Deserializes a spec from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<WireStageSpec> {
        match r.u8()? {
            0 => {
                let input_schema = get_schema(r)?;
                let service = get_str(r)?.to_string();
                let service_cost_ms = get_f64(r)?;
                let n = get_count(r, "argument count")?;
                let mut arg_cols = Vec::with_capacity(n);
                for _ in 0..n {
                    arg_cols.push(r.varint()? as usize);
                }
                let output_name = get_str(r)?.to_string();
                let keep_input = r.u8()? != 0;
                Ok(WireStageSpec::ServiceCall {
                    input_schema,
                    service,
                    service_cost_ms,
                    arg_cols,
                    output_name,
                    keep_input,
                })
            }
            1 => Ok(WireStageSpec::HashJoin {
                build_schema: get_schema(r)?,
                probe_schema: get_schema(r)?,
                build_key: r.varint()? as usize,
                probe_key: r.varint()? as usize,
                build_cost_ms: get_f64(r)?,
                probe_cost_ms: get_f64(r)?,
            }),
            other => Err(GridError::Execution(format!(
                "socket: unknown stage spec variant {other}"
            ))),
        }
    }

    /// Builds the partition evaluator for worker `index`.
    pub fn build(
        &self,
        index: u32,
        services: &ServiceResolver,
    ) -> Result<Box<dyn PartitionEvaluator>> {
        match self {
            WireStageSpec::ServiceCall {
                input_schema,
                service,
                service_cost_ms,
                arg_cols,
                output_name,
                keep_input,
            } => {
                let svc = services(service, *service_cost_ms).ok_or_else(|| {
                    GridError::Config(format!("socket: worker cannot resolve service {service:?}"))
                })?;
                let args = arg_cols.iter().map(|&c| Expr::col(c)).collect();
                Ok(ServiceCallFactory::new(
                    input_schema,
                    svc,
                    args,
                    output_name,
                    *keep_input,
                    ServiceRegistry::new(),
                )
                .create(index))
            }
            WireStageSpec::HashJoin {
                build_schema,
                probe_schema,
                build_key,
                probe_key,
                build_cost_ms,
                probe_cost_ms,
            } => Ok(HashJoinFactory::new(
                build_schema,
                probe_schema,
                *build_key,
                *probe_key,
                *build_cost_ms,
                *probe_cost_ms,
            )
            .create(index)),
        }
    }
}

// ---------------------------------------------------------------------------
// Public configuration.
// ---------------------------------------------------------------------------

/// Which socket family carries the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketTransport {
    /// Unix domain sockets under the temp dir (no ports; CI default).
    Unix,
    /// Loopback TCP with an ephemeral port.
    Tcp,
}

/// How evaluator workers are launched.
#[derive(Debug, Clone)]
pub enum WorkerLaunch {
    /// Threads inside the coordinator process, speaking the same socket
    /// protocol as external processes (the protocol is what is under
    /// test; the address space is incidental).
    InProcess,
    /// One spawned OS process per worker, started as
    /// `<program> --addr <addr> --index <i>`.
    Spawn {
        /// Path to the worker binary (typically `gridq-node`).
        program: PathBuf,
    },
}

/// One scripted adaptation: once `after_routed` tuples have been routed,
/// deploy `weights` — prospectively (R2) or via the full retrospective
/// recall (R1). The socket substrate scripts its adaptations instead of
/// running the monitoring/diagnosis loop: the adaptivity *decision*
/// stack is already exercised by the other substrates, and a scripted
/// trigger makes the cross-substrate parity tests deterministic.
#[derive(Debug, Clone)]
pub struct ScriptedAdaptation {
    /// Routed-tuple threshold that triggers the deployment.
    pub after_routed: u64,
    /// The distribution weights to deploy.
    pub weights: Vec<f64>,
    /// `true` runs the drain–migrate–resume recall (required for
    /// stateful stages); `false` swaps the routing prospectively.
    pub retrospective: bool,
}

/// Configuration of a socket-substrate execution.
pub struct SocketConfig {
    /// Socket family (Unix domain by default where available).
    pub transport: SocketTransport,
    /// Worker launch mode.
    pub launch: WorkerLaunch,
    /// The stage specification shipped to workers.
    pub stage: WireStageSpec,
    /// Service resolver used by in-process workers (and by the
    /// coordinator to validate the spec).
    pub services: ServiceResolver,
    /// Multiplier from model milliseconds to real milliseconds.
    pub cost_scale: f64,
    /// Per-tuple receive cost in model milliseconds.
    pub receive_cost_ms: f64,
    /// Producers emit a recovery-log checkpoint marker after this many
    /// tuples per destination (logging runs only).
    pub checkpoint_interval: usize,
    /// Fault-injection hook. Installing one switches the run into
    /// resilient mode (recovery logs, window-atomic flushes, dedup).
    pub chaos: Option<Arc<dyn ChaosHook>>,
    /// Scripted adaptations, deployed in `after_routed` order.
    pub adaptations: Vec<ScriptedAdaptation>,
    /// Per-node perturbations, applied as real extra work on workers.
    pub perturbations: HashMap<NodeId, Perturbation>,
}

impl SocketConfig {
    /// A default configuration over the given stage spec and resolver:
    /// Unix sockets (TCP where Unix sockets are unavailable),
    /// in-process workers, and the threaded executor's cost defaults.
    pub fn new(stage: WireStageSpec, services: ServiceResolver) -> Self {
        SocketConfig {
            transport: if cfg!(unix) {
                SocketTransport::Unix
            } else {
                SocketTransport::Tcp
            },
            launch: WorkerLaunch::InProcess,
            stage,
            services,
            cost_scale: 0.02,
            receive_cost_ms: 1.0,
            checkpoint_interval: 50,
            chaos: None,
            adaptations: Vec::new(),
            perturbations: HashMap::new(),
        }
    }

    /// Rejects configurations that would hang or corrupt a run.
    pub fn validate(&self) -> Result<()> {
        validate_knobs(
            self.cost_scale,
            self.receive_cost_ms,
            self.checkpoint_interval,
        )?;
        for a in &self.adaptations {
            DistributionVector::new(&a.weights)
                .map_err(|e| GridError::Config(format!("scripted adaptation: {e}")))?;
        }
        Ok(())
    }
}

/// What a socket-substrate execution measured: the one [`RunReport`]
/// every substrate returns, with `largest_frame_bytes` filled in and, in
/// a resilient run, the failover counts. The live-loop fields (M1/M2
/// counts, tenancy, `obs`) stay at their defaults until this substrate
/// runs that loop.
pub type SocketReport = RunReport;

/// Parses an `Addr` from its `Display` form (`tcp:HOST:PORT` or
/// `unix:PATH`), the format `gridq-node` receives on its command line.
pub fn parse_addr(s: &str) -> Result<Addr> {
    if let Some(rest) = s.strip_prefix("tcp:") {
        return Ok(Addr::Tcp(rest.to_string()));
    }
    if let Some(rest) = s.strip_prefix("unix:") {
        return Ok(Addr::Unix(PathBuf::from(rest)));
    }
    Err(GridError::Config(format!(
        "socket: address {s:?} is neither tcp:HOST:PORT nor unix:PATH"
    )))
}

/// The frame that carries `msg`. Frames go out unsequenced (seq and ack
/// 0): a connection is FIFO until it ends, and its end is the worker's
/// death (DESIGN §13).
fn msg_frame(msg: &WireMsg) -> Frame {
    let payload = msg.encode();
    Frame {
        kind: kind::MSG,
        seq: 0,
        ack: 0,
        payload,
    }
}

fn write_frame(conn: &mut Stream, frame: &Frame) -> std::io::Result<()> {
    conn.write_all(&frame.encode())?;
    conn.flush()
}

/// One read: `Some(n)` bytes, `None` when a read time-out passed first
/// or a signal interrupted it, `Err` once the connection is over.
fn read_some(conn: &mut Stream, buf: &mut [u8]) -> std::io::Result<Option<usize>> {
    use std::io::ErrorKind::{Interrupted, TimedOut, UnexpectedEof, WouldBlock};
    match conn.read(buf) {
        Ok(0) => Err(UnexpectedEof.into()),
        Ok(n) => Ok(Some(n)),
        Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => Ok(None),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Coordinator: per-worker link thread.
// ---------------------------------------------------------------------------

/// How long an idle link thread parks; every push and every control
/// send wakes it, so this only bounds a missed wakeup.
const LINK_PARK: Duration = Duration::from_millis(50);

/// One worker's link thread: the socket substrate's stand-in for a
/// consumer thread on the coordinator side. It pops the same rings and
/// control messages a consumer thread would, asks the same crash seam,
/// and writes what it pops as frames. Once the connection has ended it
/// keeps popping and discards what it pops: no producer parks on a dead
/// worker, and the recovery logs keep every entry for the failover.
struct Link {
    worker: usize,
    chaos: Option<Arc<dyn ChaosHook>>,
    /// One data ring per producer plus the control plane.
    inbox: Inbox<Msg, DataMsg>,
    /// The connection's write half; `None` once it has ended.
    conn: Option<Stream>,
    /// The largest payload written, in bytes.
    largest: usize,
}

impl Link {
    /// Relays one message the worker would have taken off its inbox,
    /// unless the crash seam kills the worker first: as a threaded
    /// consumer dies on that message, the connection ends before it.
    /// Both ends read the end of the connection, and the reader reports
    /// the death.
    fn relay(&mut self, msg: &WireMsg) {
        let Some(conn) = &self.conn else { return };
        let recall = match msg {
            WireMsg::Ctl(ctl) => ctl.recall_phase(),
            _ => None,
        };
        let chaos = self.chaos.as_ref();
        if chaos.is_some_and(|c| c.crash_worker(self.worker, recall)) {
            let _ = conn.shutdown_both();
            self.conn = None;
            return;
        }
        self.send(msg);
    }

    /// Encodes `msg` and writes it. Only data frames are chunked by the
    /// partial-write seam, mirroring the threaded executor's
    /// data-plane-only injection.
    fn send(&mut self, msg: &WireMsg) {
        let Some(conn) = &mut self.conn else { return };
        let frame = msg_frame(msg);
        self.largest = self.largest.max(frame.payload.len());
        let bytes = frame.encode();
        let chunked = matches!(msg, WireMsg::Data(_))
            && self
                .chaos
                .as_ref()
                .is_some_and(|c| c.partial_write(self.worker));
        let written = if chunked {
            // Deliberately tiny writes with a flush after each: the
            // worker's incremental decoder must reassemble headers and
            // payloads split at arbitrary byte boundaries.
            bytes
                .chunks(7)
                .try_for_each(|chunk| conn.write_all(chunk).and_then(|()| conn.flush()))
        } else {
            conn.write_all(&bytes).and_then(|()| conn.flush())
        };
        if written.is_err() {
            self.conn = None;
        }
    }

    /// Opens the link with the worker's `CONFIG`, then relays until it
    /// has relayed the release as `SHUTDOWN`; returns the largest payload
    /// written.
    fn run(mut self, config: WireConfig) -> usize {
        self.send(&WireMsg::Config(Box::new(config)));
        loop {
            match self.inbox.next(LINK_PARK) {
                Wake::Control(msg) => {
                    let release = matches!(msg, Msg::Release);
                    if release || matches!(msg, Msg::Drain { .. }) {
                        // The barrier and the release must trail every
                        // block staged before them. Producers are parked
                        // (recall) or joined (release) by then, so the
                        // rings are quiescent and this drain terminates.
                        while let Some(item) = self.inbox.pop_data() {
                            self.relay(&WireMsg::Data(item));
                        }
                    }
                    if release {
                        self.send(&WireMsg::Ctl(msg));
                        return self.largest;
                    }
                    self.relay(&WireMsg::Ctl(msg));
                }
                Wake::Data(item) => self.relay(&WireMsg::Data(item)),
                Wake::Idle(_) => {}
                Wake::Closed => return self.largest,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator: per-worker reader thread.
// ---------------------------------------------------------------------------

/// Replays one message from a worker as the call its consumer thread
/// would have made on `port` in-process.
fn dispatch(port: &mut Port, msg: WireMsg) -> Result<()> {
    match msg {
        WireMsg::Results(tuples) => port.results(tuples),
        // The worker has evicted its dedup entries already: the log's
        // verdict has nobody to tell.
        WireMsg::Ack { source, cp, epoch } => {
            port.ack(source, cp, epoch);
        }
        WireMsg::Drained { token } => port.reply(RecallPhase::Drain, token),
        WireMsg::MigrateDone { token } => port.reply(RecallPhase::Migrate, token),
        WireMsg::StateOut(entries) => port.surrendered(entries),
        WireMsg::Done {
            processed,
            dedup_peak,
        } => port.done(processed, dedup_peak),
        _ => {
            return Err(GridError::Execution(
                "socket: a worker sent a coordinator-to-worker message".into(),
            ))
        }
    }
    Ok(())
}

/// Reads worker `port.index`'s connection, dispatching each frame in
/// arrival order, until the connection ends. An end before the run
/// released the worker — end of file, a read error, lost framing, a
/// malformed message — is the worker's death, which the reader reports
/// through the port once, before it ends, as a crashed threaded consumer
/// does: the death reply that answers any barrier the worker owed and,
/// in a resilient run, `Raw::Down`, then the worker's completion with
/// the counts of its last `DONE` (0 without one). A plain run's reader
/// also returns the death, for `Net::stop` to name. Either way the
/// connection is shut down on the way out, so a worker still alive reads
/// its end too. Returns the largest payload it decoded, and the death a
/// plain run fails on.
fn reader_loop(
    mut port: Port,
    mut conn: Stream,
    mut dec: Decoder,
    mut frames: Vec<Frame>,
    released: Arc<AtomicBool>,
) -> (usize, Option<String>) {
    let (mut processed, mut dedup_peak) = (0, 0);
    let mut largest = 0;
    let mut buf = vec![0u8; 64 * 1024];
    let why = loop {
        let dispatched = frames.drain(..).try_for_each(|frame| {
            largest = largest.max(frame.payload.len());
            let msg = WireMsg::decode(&frame.payload)?;
            if let WireMsg::Done {
                processed: p,
                dedup_peak: d,
            } = &msg
            {
                (processed, dedup_peak) = (*p, *d);
            }
            dispatch(&mut port, msg)
        });
        if let Err(e) = dispatched {
            break e.to_string();
        }
        // Lost framing behind whole frames is held for the next feed:
        // ask before blocking in a read.
        if let Err(e) = dec.feed(&[]) {
            break e.to_string();
        }
        frames = match read_some(&mut conn, &mut buf) {
            Ok(Some(n)) => match dec.feed(&buf[..n]) {
                Ok(frames) => frames,
                Err(e) => break e.to_string(),
            },
            Ok(None) => Vec::new(),
            Err(e) => break e.to_string(),
        };
    };
    let _ = conn.shutdown_both();
    let worker = port.index;
    if released.load(Ordering::SeqCst) {
        return (largest, None);
    }
    port.died();
    if !port.failover_on {
        return (largest, Some(format!("worker {worker}: {why}")));
    }
    port.done(processed, dedup_peak);
    (largest, None)
}

/// A worker's connection once it has said `HELLO(index)`: the index, the
/// stream, the decoder's state and the frames that followed the hello.
type Hello = (usize, Stream, Decoder, Vec<Frame>);

/// Accepts connections until each of the `workers` has said
/// `HELLO(index)` on one, handing each over as it arrives. Returns early
/// once `stop` is set (a connection wakes the accept).
fn accept_hellos(listener: Listener, workers: usize, stop: &AtomicBool, hellos: Sender<Hello>) {
    let mut seen = vec![false; workers];
    while seen.contains(&false) {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Some((index, conn, dec, frames)) = accepted.ok().and_then(read_hello) else {
            continue;
        };
        if seen.get(index) != Some(&false) {
            continue;
        }
        seen[index] = true;
        if hellos.send((index, conn, dec, frames)).is_err() {
            return;
        }
    }
}

/// Reads a connection's first frame, which must be a `HELLO` naming the
/// worker.
fn read_hello(mut conn: Stream) -> Option<Hello> {
    conn.set_read_timeout(Some(Duration::from_millis(250)))
        .ok()?;
    let (mut dec, mut frames) = (Decoder::new(), Vec::new());
    let mut buf = vec![0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(5);
    while frames.is_empty() && Instant::now() < deadline {
        if let Some(n) = read_some(&mut conn, &mut buf).ok()? {
            frames = dec.feed(&buf[..n]).ok()?;
        }
    }
    let index = usize::try_from(link::parse_hello(frames.first()?)?).ok()?;
    conn.set_read_timeout(None).ok()?;
    Some((index, conn, dec, frames.split_off(1)))
}

// ---------------------------------------------------------------------------
// The executor.
// ---------------------------------------------------------------------------

/// A launched worker awaiting teardown.
enum WorkerJoin {
    /// An in-process worker thread.
    Thread(thread::JoinHandle<Result<()>>),
    /// A spawned `gridq-node` process.
    Process(Child),
}

impl WorkerJoin {
    /// Waits for the worker and describes how it ended, if badly.
    fn join(self, i: usize) -> Option<String> {
        match self {
            WorkerJoin::Thread(h) => match h.join() {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(format!("worker {i}: {e}")),
                Err(_) => Some(format!("worker {i} panicked")),
            },
            WorkerJoin::Process(mut c) => match c.wait() {
                Ok(status) if status.success() => None,
                Ok(status) => Some(format!("worker process {i}: {status}")),
                Err(e) => Some(format!("worker process {i}: {e}")),
            },
        }
    }
}

/// The socket substrate's worker endpoints, coordinator side: one link
/// thread and one reader thread per worker connection, and the launched
/// workers.
struct Net {
    addr: Addr,
    /// Set once the run releases the workers: from then on the end of a
    /// connection is the end of the run, not a death.
    released: Arc<AtomicBool>,
    /// Where `stop` leaves the largest payload any connection carried,
    /// either way.
    largest_frame: Arc<AtomicU64>,
    links: Vec<InboxSender<Msg>>,
    /// Each returns the largest payload it wrote.
    link_handles: Vec<thread::JoinHandle<usize>>,
    /// Each returns the largest payload it decoded, and an end of its
    /// connection a plain run fails on.
    readers: Vec<thread::JoinHandle<(usize, Option<String>)>>,
    /// A handle on each connection, for a forced stop to end it.
    conns: Vec<Stream>,
    /// `None` once a worker has been joined.
    workers: Vec<Option<WorkerJoin>>,
}

impl Net {
    /// Binds the listener and connects the workers; on failure, stops
    /// whatever was started.
    fn start(
        config: &SocketConfig,
        plan: &DistributedPlan,
        largest_frame: Arc<AtomicU64>,
        w: Wiring,
    ) -> Result<Net> {
        let listener = Listener::bind(&match config.transport {
            SocketTransport::Unix => Addr::scratch_unix(),
            SocketTransport::Tcp => Addr::loopback_tcp(),
        })?;
        let mut net = Net {
            addr: listener.local_addr()?,
            released: Arc::new(AtomicBool::new(false)),
            largest_frame,
            links: Vec::new(),
            link_handles: Vec::new(),
            readers: Vec::new(),
            conns: Vec::new(),
            workers: Vec::new(),
        };
        match net.connect(config, plan, w, listener) {
            Ok(()) => Ok(net),
            Err(e) => {
                net.stop(false);
                Err(e)
            }
        }
    }

    /// Launches the workers, accepts each one's `HELLO`, and starts its
    /// link thread, which opens with the worker's configuration, and its
    /// reader thread.
    fn connect(
        &mut self,
        config: &SocketConfig,
        plan: &DistributedPlan,
        mut w: Wiring,
        listener: Listener,
    ) -> Result<()> {
        let partitions = w.rings.len();
        let stop = Arc::new(AtomicBool::new(false));
        let (hello_tx, hello_rx) = channel::<Hello>();
        let accept = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || accept_hellos(listener, partitions, &stop, hello_tx))
        };
        let mut connected = Ok(());
        for i in 0..partitions {
            match self.launch(i, config) {
                Ok(worker) => self.workers.push(Some(worker)),
                Err(e) => {
                    connected = Err(e);
                    break;
                }
            }
        }
        let mut hellos: Vec<Option<Hello>> = (0..partitions).map(|_| None).collect();
        let deadline = Instant::now() + Duration::from_secs(15);
        while connected.is_ok() && hellos.iter().any(Option::is_none) {
            match hello_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(hello) => {
                    let i = hello.0;
                    hellos[i] = Some(hello);
                }
                Err(_) => {
                    connected = Err(GridError::Execution(
                        "socket: timed out waiting for workers to connect".into(),
                    ))
                }
            }
        }
        if connected.is_err() {
            stop.store(true, Ordering::SeqCst);
            let _ = Stream::connect(&self.addr);
        }
        let _ = accept.join();
        connected?;
        let failover = config.chaos.is_some();
        let (stage, sources) = (&plan.stages[0], plan.sources.len());
        let (links, inboxes): (Vec<_>, Vec<_>) = w.rings.drain(..).map(inbox).unzip();
        self.links = links;
        for (inbox, (i, conn, dec, frames)) in inboxes.into_iter().zip(hellos.into_iter().flatten())
        {
            let perturbation = config.perturbations.get(&stage.nodes[i]);
            let chaos = config.chaos.clone();
            let opening = WireConfig {
                spec: w
                    .x
                    .consumer_spec(i, sources, config.receive_cost_ms, perturbation),
                cost_scale: config.cost_scale,
                read_stall_ms: sane_ms(chaos.as_ref().map_or(0.0, |c| c.slow_peer_stall_ms(i))),
                stage: config.stage.clone(),
            };
            let link = Link {
                worker: i,
                chaos,
                inbox,
                conn: Some(conn.try_clone()?),
                largest: 0,
            };
            self.link_handles
                .push(thread::spawn(move || link.run(opening)));
            self.conns.push(conn.try_clone()?);
            let port = Port::new(&w, plan, i, config.cost_scale, failover);
            let released = Arc::clone(&self.released);
            self.readers.push(thread::spawn(move || {
                reader_loop(port, conn, dec, frames, released)
            }));
        }
        Ok(())
    }

    fn launch(&self, i: usize, config: &SocketConfig) -> Result<WorkerJoin> {
        match &config.launch {
            WorkerLaunch::InProcess => {
                let addr = self.addr.clone();
                let services = Arc::clone(&config.services);
                Ok(WorkerJoin::Thread(thread::spawn(move || {
                    worker_main(&addr, i, &services)
                })))
            }
            WorkerLaunch::Spawn { program } => Command::new(program)
                .arg("--addr")
                .arg(self.addr.to_string())
                .arg("--index")
                .arg(i.to_string())
                .stdin(Stdio::null())
                .spawn()
                .map(WorkerJoin::Process)
                .map_err(|e| {
                    GridError::Execution(format!(
                        "socket: spawning worker {i} ({}): {e}",
                        program.display()
                    ))
                }),
        }
    }
}

impl Endpoints for Net {
    fn senders(&self) -> Vec<InboxSender<Msg>> {
        self.links.clone()
    }

    /// A reader reports a death before it ends, so a worker counts as
    /// exited only once its reader has ended, whatever its thread or
    /// process did; `stop` names how.
    fn exited(&mut self, worker: usize) -> Option<String> {
        if self.link_handles[worker].is_finished() {
            return Some(format!("link thread {worker} exited"));
        }
        let ended = self.readers[worker].is_finished();
        ended.then(|| format!("worker {worker} lost its connection"))
    }

    /// The release comes first either way: from then on the end of a
    /// connection is no death. Graceful (`clean`): each link relays the
    /// release as SHUTDOWN behind any residual data on its rings and
    /// ends; the workers exit, and each reader dispatches its worker's
    /// last frames before it reads the end of the connection. Forced:
    /// every connection is ended at once without waiting on worker
    /// cooperation — spawned children are killed (one that had already
    /// failed is named by its status), in-process workers read the end
    /// and exit, and each one that failed is named with its error — and
    /// then released all the same, so each link drains its rings (its
    /// SHUTDOWN write fails harmlessly) and ends.
    fn stop(mut self, clean: bool) -> Vec<String> {
        self.released.store(true, Ordering::SeqCst);
        let mut failed = Vec::new();
        let mut workers = std::mem::take(&mut self.workers);
        if !clean {
            for (i, worker) in workers.iter_mut().enumerate() {
                if let Some(WorkerJoin::Process(c)) = worker {
                    if let Ok(Some(status)) = c.try_wait() {
                        let how = format!("worker process {i}: {status}");
                        failed.extend((!status.success()).then_some(how));
                    }
                    let _ = c.kill();
                    let _ = c.wait();
                }
            }
            for conn in &self.conns {
                let _ = conn.shutdown_both();
            }
        }
        // No producer runs any more (all are joined, or none started):
        // every ring is quiescent.
        for link in &self.links {
            link.send(Msg::Release);
        }
        if clean {
            for (i, worker) in workers.drain(..).enumerate() {
                failed.extend(worker.and_then(|w| w.join(i)));
            }
        }
        let mut largest = 0;
        for reader in self.readers.drain(..) {
            match reader.join() {
                Ok((read, end)) => {
                    largest = largest.max(read);
                    failed.extend(end);
                }
                Err(_) => failed.push("reader panicked".into()),
            }
        }
        for h in self.link_handles.drain(..) {
            match h.join() {
                Ok(written) => largest = largest.max(written),
                Err(_) => failed.push("link thread panicked".into()),
            }
        }
        self.largest_frame.store(largest as u64, Ordering::Relaxed);
        if let Addr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
        // A worker that failed — before the run stopped for it, or a
        // moment after — is named with its error, and none outlives the
        // run's error. Spawned children were reaped above.
        for (i, worker) in workers.into_iter().enumerate() {
            if let Some(w @ WorkerJoin::Thread(_)) = worker {
                failed.extend(w.join(i));
            }
        }
        failed
    }
}

/// Executes a single-stage distributed plan over socket-connected
/// evaluator workers (in-process threads or spawned processes).
pub struct SocketExecutor {
    catalog: Catalog,
    config: SocketConfig,
}

impl SocketExecutor {
    /// Creates an executor over the catalog.
    pub fn new(catalog: Catalog, config: SocketConfig) -> Self {
        SocketExecutor { catalog, config }
    }

    /// Runs the plan to completion.
    pub fn run(&self, plan: &DistributedPlan) -> Result<RunReport> {
        let cfg = &self.config;
        cfg.validate()?;
        let Some(stage) = plan.stages.first() else {
            return Err(GridError::Execution("socket: the plan has no stage".into()));
        };
        if stage.factory.stateful() != cfg.stage.stateful() {
            return Err(GridError::Config(
                "the wire stage spec's statefulness must match the plan's stage factory".into(),
            ));
        }
        let mut script = Vec::with_capacity(cfg.adaptations.len());
        for a in &cfg.adaptations {
            if a.weights.len() != stage.nodes.len() {
                return Err(GridError::Config(format!(
                    "scripted adaptation has {} weights for {} partitions",
                    a.weights.len(),
                    stage.nodes.len()
                )));
            }
            let command = AdaptationCommand {
                stage: stage.id,
                new_distribution: DistributionVector::new(&a.weights)?,
                retrospective: a.retrospective,
                at: SimTime::ZERO,
            };
            script.push((a.after_routed, command));
        }
        // This substrate scripts its adaptations and has no obs or
        // tenancy yet: the coordinator runs with them off. A resilient
        // run fails a dead worker over.
        let coordinator = ThreadedConfig {
            adaptivity: AdaptivityConfig::disabled(),
            cost_scale: cfg.cost_scale,
            checkpoint_interval: cfg.checkpoint_interval,
            obs: ObsConfig::disabled(),
            chaos: cfg.chaos.clone(),
            failover: cfg.chaos.is_some(),
            ..ThreadedConfig::default()
        };
        let run = Run {
            who: "socket",
            cfg: &coordinator,
            script,
            finish_timeout: Some(Duration::from_secs(120)),
        };
        let largest_frame = Arc::new(AtomicU64::new(0));
        let mut report = run.execute(&self.catalog, plan, |w| {
            Net::start(cfg, plan, Arc::clone(&largest_frame), w)
        })?;
        report.largest_frame_bytes = largest_frame.load(Ordering::Relaxed);
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// The worker side.
// ---------------------------------------------------------------------------

/// A socket worker's outlet: every output is a frame to the coordinator,
/// decoded there into the same call on the worker's `Port`. A failed
/// write means the connection has ended — the frame reader reads that
/// end too — and nothing more is written.
struct FrameOut(Option<Stream>);

impl FrameOut {
    fn send(&mut self, msg: &WireMsg) {
        let Some(conn) = &mut self.0 else { return };
        if write_frame(conn, &msg_frame(msg)).is_err() {
            self.0 = None;
        }
    }
}

impl ConsumerOut for FrameOut {
    fn ack(&mut self, source: usize, cp: Checkpoint, epoch: u64) -> bool {
        self.send(&WireMsg::Ack { source, cp, epoch });
        // The log lives on the coordinator: its verdict is invisible
        // here, so the dedup eviction is optimistic.
        true
    }

    fn results(&mut self, batch: Vec<Tuple>) {
        self.send(&WireMsg::Results(batch));
    }

    /// No live loop runs over sockets yet: the samples are dropped.
    fn m1(&mut self, _samples: Vec<M1Sample>) {}
}

impl Outlet for FrameOut {
    fn reply(&mut self, phase: RecallPhase, token: u64) {
        self.send(&match phase {
            RecallPhase::Drain => WireMsg::Drained { token },
            RecallPhase::Migrate => WireMsg::MigrateDone { token },
        });
    }

    fn surrendered(&mut self, entries: Vec<Routed>) {
        self.send(&WireMsg::StateOut(entries));
    }

    fn done(&mut self, processed: u64, dedup_peak: u64) {
        self.send(&WireMsg::Done {
            processed,
            dedup_peak,
        });
    }
}

/// A worker's consumer thread, once `CONFIG` has started it, and the
/// reader's ends of its inbox.
struct Started {
    ctrl: InboxSender<Msg>,
    data: RingSender<DataMsg>,
    handle: thread::JoinHandle<()>,
    /// The slow-peer seam's stall before each read, in real time.
    stall: Duration,
}

/// How long the reader blocks in one read before it checks that its
/// consumer thread is still alive.
const READ_SLICE: Duration = Duration::from_millis(50);

/// Runs one evaluator worker to completion: connect to the coordinator at
/// `addr`, identify as worker `index`, and read frames until SHUTDOWN or
/// the end of the connection. The first `CONFIG` starts the consumer
/// thread — the `ConsumerThread` a threaded run starts per partition —
/// and every later frame goes to its inbox; SHUTDOWN releases it. An end
/// of the connection is no error here: the coordinator has stopped, or
/// has declared this worker dead and failed it over. This is the entry
/// point for both in-process worker threads and the `gridq-node` binary.
pub fn worker_main(addr: &Addr, index: usize, services: &ServiceResolver) -> Result<()> {
    let unreachable = |e: String| {
        GridError::Execution(format!(
            "socket: worker {index} cannot reach the coordinator: {e}"
        ))
    };
    let mut conn = Stream::connect(addr).map_err(|e| unreachable(e.to_string()))?;
    let hello = write_frame(&mut conn, &link::hello(index as u64));
    hello.map_err(|e| unreachable(e.to_string()))?;
    let mut started = None;
    let read = read_frames(&mut conn, index, services, &mut started);
    // Whatever ended the reading — SHUTDOWN, the end of the connection,
    // an error, a consumer that died — the consumer is released and
    // joined, and its panic fails the worker.
    if let Some(st) = started {
        st.ctrl.send(Msg::Release);
        if let Err(panic) = st.handle.join() {
            std::panic::resume_unwind(panic);
        }
    }
    read
}

/// The frame reader: each frame to the consumer thread — blocks onto its
/// data ring (a full ring parks the reader), each control message onto
/// its control plane as it is. Returns at SHUTDOWN (the release, which
/// the caller then sends), at the end of the connection, or once the
/// consumer thread has gone.
fn read_frames(
    conn: &mut Stream,
    index: usize,
    services: &ServiceResolver,
    started: &mut Option<Started>,
) -> Result<()> {
    let _ = conn.set_read_timeout(Some(READ_SLICE));
    let (mut dec, mut buf) = (Decoder::new(), vec![0u8; 64 * 1024]);
    loop {
        if let Some(st) = &*started {
            if st.handle.is_finished() {
                return Ok(());
            }
            // The slow-peer seam: stall before draining the socket, so
            // the kernel buffers fill and flow control pushes back on the
            // coordinator's link thread.
            if !st.stall.is_zero() {
                thread::sleep(st.stall);
            }
        }
        let n = match read_some(conn, &mut buf) {
            Ok(Some(n)) => n,
            Ok(None) => continue,
            Err(_) => return Ok(()),
        };
        // Lost framing behind whole frames is held for the next feed,
        // which the empty one below makes at once.
        for Frame { payload, .. } in dec.feed(&buf[..n])? {
            let (msg, st) = match (WireMsg::decode(&payload)?, &*started) {
                (WireMsg::Ctl(Msg::Release), _) => return Ok(()),
                (WireMsg::Config(cfg), None) => {
                    if cfg.spec.index != index {
                        return Err(GridError::Execution(format!(
                            "socket: worker {index} received config addressed to worker {}",
                            cfg.spec.index
                        )));
                    }
                    let evaluator = cfg.stage.build(index as u32, services)?;
                    let (data, ring_rx) = ring(RING_BLOCKS);
                    let (ctrl, inbox) = inbox(vec![ring_rx]);
                    let pacer = Pacer::new(inbox, cfg.cost_scale);
                    let out = FrameOut(conn.try_clone().ok());
                    let consumer = Consumer::new(cfg.spec, evaluator);
                    let handle = ConsumerThread::spawn(consumer, pacer, out);
                    let stall = real_time(cfg.read_stall_ms, cfg.cost_scale);
                    *started = Some(Started {
                        ctrl,
                        data,
                        handle,
                        stall,
                    });
                    continue;
                }
                (msg, Some(st)) => (msg, st),
                (_, None) => {
                    return Err(GridError::Execution(format!(
                        "socket: worker {index} received message tag {:?} before CONFIG",
                        payload.first()
                    )))
                }
            };
            let delivered = match msg {
                WireMsg::Data(item) => st.data.push(item).is_ok(),
                WireMsg::Ctl(msg) => st.ctrl.send(msg),
                _ => {
                    return Err(GridError::Execution(format!(
                        "socket: unexpected coordinator frame tag {:?}",
                        payload.first()
                    )))
                }
            };
            if !delivered {
                return Ok(());
            }
        }
        dec.feed(&[])?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::coordinator::RecallReply;
    use crate::protocol::Exchange;
    use crate::{Raw, WorkerEvent};
    use gridq_common::check::{Check, Gen};
    use gridq_common::{DetRng, Value};
    use gridq_engine::fixtures::{call_plan, catalog, int_table, join_plan, multiset};
    use gridq_engine::service::FnService;
    use gridq_net::frame::HEADER_LEN;

    /// Asserts the results are exactly the squares of `0..n`, in any
    /// order (sequence numbers are renumbered by operators).
    fn assert_squares(results: &[Tuple], n: usize) {
        let mut values: Vec<i64> = results
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        values.sort_unstable();
        let expected: Vec<i64> = (0..n as i64).map(|i| i * i).collect();
        assert_eq!(values, expected);
    }

    fn call_spec(table: &Table) -> WireStageSpec {
        WireStageSpec::for_call_plan(table, &CallShape::default())
    }

    fn join_spec(build: &Table, probe: &Table) -> WireStageSpec {
        WireStageSpec::for_join_plan(build, probe, &JoinShape::default())
    }

    fn run_call(table: &Arc<Table>, configure: impl FnOnce(&mut SocketConfig)) -> SocketReport {
        let plan = call_plan(table, &CallShape::default());
        let mut config = SocketConfig::new(call_spec(table), standard_resolver());
        config.cost_scale = 0.002;
        configure(&mut config);
        SocketExecutor::new(catalog(&[table]), config)
            .run(&plan)
            .unwrap()
    }

    #[test]
    fn static_run_squares_every_tuple_over_unix_sockets() {
        let table = int_table("t", 0..200);
        let report = run_call(&table, |_| {});
        assert_squares(&report.results, 200);
        assert_eq!(report.per_partition_processed.iter().sum::<u64>(), 200);
        assert_eq!(report.nodes_failed, 0);
        assert_eq!(report.dedup_peak_entries, 0);
        assert!(report.log_audits.is_empty(), "no recovery logs when off");
        assert!(report.delivery_gaps.is_empty());
    }

    #[test]
    fn tcp_transport_smoke() {
        let table = int_table("t", 0..60);
        let report = run_call(&table, |c| c.transport = SocketTransport::Tcp);
        assert_squares(&report.results, 60);
    }

    #[test]
    fn scripted_prospective_adaptation_deploys() {
        let table = int_table("t", 0..400);
        let report = run_call(&table, |c| {
            c.adaptations = vec![ScriptedAdaptation {
                after_routed: 50,
                weights: vec![0.9, 0.1],
                retrospective: false,
            }];
        });
        assert_squares(&report.results, 400);
        assert_eq!(report.adaptations_deployed, 1);
        assert!(
            (report.final_distribution[0] - 0.9).abs() < 1e-9
                && (report.final_distribution[1] - 0.1).abs() < 1e-9,
            "distribution swapped: {:?}",
            report.final_distribution
        );
    }

    #[test]
    fn retrospective_recall_migrates_join_state() {
        let build = int_table("build", 0..100);
        let probe = int_table("probe", 0..600);
        let plan = join_plan(
            &build,
            &probe,
            &JoinShape {
                scan_cost_ms: [0.2, 1.0],
                ..Default::default()
            },
        );
        let mut config = SocketConfig::new(join_spec(&build, &probe), standard_resolver());
        config.cost_scale = 0.05;
        config.adaptations = vec![ScriptedAdaptation {
            after_routed: 150,
            weights: vec![0.25, 0.75],
            retrospective: true,
        }];
        let report = SocketExecutor::new(catalog(&[&build, &probe]), config)
            .run(&plan)
            .unwrap();
        // Every probe key under 100 joins exactly one build tuple.
        assert_eq!(report.results.len(), 100, "{report:?}");
        assert_eq!(report.adaptations_deployed, 1, "{report:?}");
        assert_eq!(report.recalls_completed, 1, "{report:?}");
        assert!(report.state_tuples_migrated >= 1, "{report:?}");
        assert!(!report.log_audits.is_empty());
        for audit in &report.log_audits {
            assert!(audit.conserved(), "{audit:?}");
        }
    }

    /// A socket recall takes back the slow worker's queue, as a threaded
    /// one does: the worker answers `Drain` at once, and its `Migrate`
    /// surrenders the blocks still on its data ring instead of waiting
    /// them out. Under weighted routing every queued tuple is
    /// surrendered and re-routed by the new weights.
    #[test]
    fn a_socket_recall_surrenders_the_slow_workers_queue() {
        let table = int_table("t", 0..600);
        let mut perturbations = HashMap::new();
        perturbations.insert(NodeId::new(2), Perturbation::CostFactor(10.0));
        let report = run_call(&table, |c| {
            c.cost_scale = 0.05;
            c.perturbations = perturbations;
            c.adaptations = vec![ScriptedAdaptation {
                after_routed: 300,
                weights: vec![0.9, 0.1],
                retrospective: true,
            }];
        });
        assert_squares(&report.results, 600);
        let recalls = (report.recalls_completed, report.recalls_aborted);
        assert_eq!(recalls, (1, 0));
        assert!(report.recall_blocks > 0, "the queue was waited out");
    }

    /// The socket twin of the threaded executor's
    /// `panicking_service_yields_error_not_deadlock`: a worker that dies
    /// without `DONE` ends the run with an error that names it, instead
    /// of waiting out the completion deadline and blaming nobody.
    #[test]
    fn panicking_service_names_the_dead_worker() {
        let table = int_table("t", 0..50);
        let boom: ServiceResolver = Arc::new(|name: &str, cost_ms: f64| {
            let svc = FnService::new(name, vec![DataType::Int], DataType::Int, cost_ms, |_| {
                panic!("service crashed")
            });
            Some(Arc::new(svc) as Arc<dyn Service>)
        });
        let mut config = SocketConfig::new(call_spec(&table), boom);
        config.cost_scale = 0.002;
        let err = SocketExecutor::new(catalog(&[&table]), config)
            .run(&call_plan(&table, &CallShape::default()))
            .unwrap_err();
        let GridError::Execution(msg) = &err else {
            panic!("expected an execution error, got {err:?}");
        };
        assert!(
            msg.contains("worker 0 panicked") && msg.contains("worker 1 panicked"),
            "the error must name the dead workers: {msg}"
        );
    }

    /// A plain run (no failover) whose worker dies before two scripted
    /// recalls: the first reads the death as that worker's answer and is
    /// abandoned at once, the second leaves the dead worker out of its
    /// barriers, and the run fails naming it. The link keeps a dead
    /// worker's inbox open, so a drain sent there is never refused:
    /// only the death it has read keeps the coordinator from waiting on
    /// it.
    #[test]
    fn a_plain_run_never_waits_on_a_worker_whose_death_it_has_read() {
        let table = int_table("t", 0..50);
        let built = AtomicU64::new(0);
        // The first worker to build its service dies on its first tuple.
        let boom: ServiceResolver = Arc::new(move |name: &str, cost_ms: f64| {
            if built.fetch_add(1, Ordering::SeqCst) > 0 {
                return Some(fixtures::square(cost_ms));
            }
            let svc = FnService::new(name, vec![DataType::Int], DataType::Int, cost_ms, |_| {
                panic!("service crashed")
            });
            Some(Arc::new(svc) as Arc<dyn Service>)
        });
        let mut config = SocketConfig::new(call_spec(&table), boom);
        config.cost_scale = 0.002;
        // Past the last routed tuple: both fire once the producers are
        // done, behind the dying worker's first block.
        config.adaptations = [(1_000, [0.5, 0.5]), (1_001, [0.2, 0.8])]
            .map(|(after_routed, weights)| ScriptedAdaptation {
                after_routed,
                weights: weights.to_vec(),
                retrospective: true,
            })
            .to_vec();
        let err = SocketExecutor::new(catalog(&[&table]), config)
            .run(&call_plan(&table, &CallShape::default()))
            .unwrap_err();
        let GridError::Execution(msg) = &err else {
            panic!("expected an execution error, got {err:?}");
        };
        let named = (0..2).filter(|w| msg.contains(&format!("worker {w} panicked")));
        assert_eq!(named.count(), 1, "the error names the dead worker: {msg}");
    }

    /// Two workers die a moment apart: the run stops for the first, and
    /// its unclean stop still joins the second and names it, instead of
    /// leaving it running behind the run's error.
    #[test]
    fn a_worker_that_dies_after_the_run_stopped_is_named_too() {
        let table = int_table("t", 0..50);
        let built = AtomicU64::new(0);
        let boom: ServiceResolver = Arc::new(move |name: &str, cost_ms: f64| {
            let later = built.fetch_add(1, Ordering::SeqCst) > 0;
            let svc = FnService::new(
                name,
                vec![DataType::Int],
                DataType::Int,
                cost_ms,
                move |_| {
                    if later {
                        thread::sleep(Duration::from_millis(300));
                    }
                    panic!("service crashed")
                },
            );
            Some(Arc::new(svc) as Arc<dyn Service>)
        });
        let mut config = SocketConfig::new(call_spec(&table), boom);
        config.cost_scale = 0.002;
        let err = SocketExecutor::new(catalog(&[&table]), config)
            .run(&call_plan(&table, &CallShape::default()))
            .unwrap_err();
        let GridError::Execution(msg) = &err else {
            panic!("expected an execution error, got {err:?}");
        };
        assert!(
            msg.contains("worker 0 panicked") && msg.contains("worker 1 panicked"),
            "the error must name both dead workers: {msg}"
        );
    }

    /// A worker whose stage cannot be built returns its error and ends its
    /// connection: the run fails, and names the worker with that error
    /// rather than only the connection it lost.
    #[test]
    fn a_worker_that_returns_an_error_is_named_with_it() {
        let table = int_table("t", 0..50);
        let nobody: ServiceResolver = Arc::new(|_: &str, _: f64| None);
        let mut config = SocketConfig::new(call_spec(&table), nobody);
        config.cost_scale = 0.002;
        let err = SocketExecutor::new(catalog(&[&table]), config)
            .run(&call_plan(&table, &CallShape::default()))
            .unwrap_err();
        let GridError::Execution(msg) = &err else {
            panic!("expected an execution error, got {err:?}");
        };
        for worker in 0..2 {
            assert!(
                msg.contains(&format!(
                    "worker {worker}: configuration error: socket: worker cannot resolve service"
                )),
                "the error must carry worker {worker}'s build error: {msg}"
            );
        }
    }

    /// Kills worker `worker` at the `nth` message its link relays (never,
    /// for `nth` 0), and counts the messages relayed to it.
    #[derive(Debug)]
    struct DropConn {
        worker: usize,
        nth: u64,
        seen: AtomicU64,
    }

    impl DropConn {
        fn new(worker: usize, nth: u64) -> Arc<DropConn> {
            let seen = AtomicU64::new(0);
            Arc::new(DropConn { worker, nth, seen })
        }

        fn hook(worker: usize, nth: u64) -> Option<Arc<dyn ChaosHook>> {
            Some(DropConn::new(worker, nth))
        }
    }

    impl ChaosHook for DropConn {
        fn crash_worker(&self, worker: usize, _recall: Option<RecallPhase>) -> bool {
            worker == self.worker && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.nth
        }
    }

    /// A dropped connection is the worker's death, failed over from the
    /// recovery logs. A worker writes a window's results before that
    /// window's ack on one FIFO stream, so wherever the drop cuts, every
    /// acknowledged window's results have arrived and every
    /// unacknowledged window is replayed to the survivor: nothing is
    /// lost, and what arrives twice is dropped by the result dedup.
    #[test]
    fn a_dropped_connection_fails_over_and_loses_nothing() {
        let table = int_table("t", 0..200);
        for nth in [1, 4, 8] {
            let report = run_call(&table, |c| c.chaos = DropConn::hook(0, nth));
            assert_squares(&report.results, 200);
            let failover = (report.nodes_failed, report.failovers_completed);
            assert_eq!(failover, (1, 1), "drop before frame {nth}: {report:?}");
            assert!(report.delivery_gaps.is_empty(), "{report:?}");
            for audit in &report.log_audits {
                assert!(audit.conserved(), "{audit:?}");
            }
        }
    }

    /// A scripted recall moves hash buckets onto worker 0 while worker 1,
    /// which the recall does not target, loses its connection. The death
    /// fails over — worker 1's join state is rebuilt on worker 0 from the
    /// retained build log — and the result is the static run's multiset.
    #[test]
    fn a_drop_beside_a_scripted_recall_keeps_the_static_multiset() {
        let build = int_table("build", 0..100);
        let probe = int_table("probe", 0..600);
        let shape = JoinShape {
            scan_cost_ms: [0.2, 1.0],
            ..Default::default()
        };
        let plan = join_plan(&build, &probe, &shape);
        let run = |chaos, adaptations| {
            let mut config = SocketConfig::new(join_spec(&build, &probe), standard_resolver());
            config.cost_scale = 0.05;
            config.checkpoint_interval = 8;
            config.chaos = chaos;
            config.adaptations = adaptations;
            SocketExecutor::new(catalog(&[&build, &probe]), config)
                .run(&plan)
                .unwrap()
        };
        let reference = run(None, Vec::new());
        let recall = ScriptedAdaptation {
            after_routed: 150,
            weights: vec![0.75, 0.25],
            retrospective: true,
        };
        let report = run(DropConn::hook(1, 12), vec![recall]);
        assert_eq!(multiset(&report.results), multiset(&reference.results));
        let failover = (report.nodes_failed, report.failovers_completed);
        assert_eq!(failover, (1, 1), "{report:?}");
        assert!(report.delivery_gaps.is_empty(), "{report:?}");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "{audit:?}");
        }
    }

    /// A socket worker dies through the crash seam on any message its link
    /// relays — a data block, or the recall's `DRAIN`, `MIGRATE` or
    /// `MIGRATED` — and every such death fails over to the static run's
    /// multiset. The sweep kills worker 0 of a scripted-R1 join at its
    /// first relayed message, then its second, and so on, until a run
    /// relays fewer messages than the one it aims at: that run's hook
    /// never fired and counted its whole sequence, a recall included, and
    /// the sweep has killed the worker at every position in it.
    #[test]
    fn a_death_on_any_relayed_message_fails_over_to_the_static_multiset() {
        let build = int_table("build", 0..20);
        let probe = int_table("probe", 0..100);
        let shape = JoinShape {
            scan_cost_ms: [0.2, 1.0],
            ..Default::default()
        };
        let plan = join_plan(&build, &probe, &shape);
        let run = |chaos: Arc<DropConn>, adaptations| {
            let mut config = SocketConfig::new(join_spec(&build, &probe), standard_resolver());
            config.cost_scale = 0.01;
            config.checkpoint_interval = 8;
            config.chaos = Some(chaos as Arc<dyn ChaosHook>);
            config.adaptations = adaptations;
            SocketExecutor::new(catalog(&[&build, &probe]), config)
                .run(&plan)
                .unwrap()
        };
        let recall = || {
            vec![ScriptedAdaptation {
                after_routed: 30,
                weights: vec![0.75, 0.25],
                retrospective: true,
            }]
        };
        let reference = multiset(&run(DropConn::new(0, 0), Vec::new()).results);
        for nth in 1.. {
            let hook = DropConn::new(0, nth);
            let report = run(Arc::clone(&hook), recall());
            assert_eq!(multiset(&report.results), reference, "death at {nth}");
            let relayed = hook.seen.load(Ordering::SeqCst);
            if relayed < nth {
                assert_eq!(report.nodes_failed, 0, "{report:?}");
                assert_eq!(report.recalls_completed, 1, "{report:?}");
                assert!(relayed > 0, "the link asks the crash seam");
                break;
            }
            let failover = (report.nodes_failed, report.failovers_completed);
            assert_eq!(failover, (1, 1), "death at message {nth}: {report:?}");
            assert!(report.delivery_gaps.is_empty(), "{report:?}");
            for audit in &report.log_audits {
                assert!(audit.conserved(), "{audit:?}");
            }
            assert!(nth < 200, "a run relays a bounded number of messages");
        }
    }

    #[derive(Debug)]
    struct ChunkWrites;

    impl ChaosHook for ChunkWrites {
        fn partial_write(&self, worker: usize) -> bool {
            worker == 1
        }
    }

    #[test]
    fn partial_writes_are_reassembled_by_the_decoder() {
        let table = int_table("t", 0..200);
        let report = run_call(&table, |c| c.chaos = Some(Arc::new(ChunkWrites)));
        assert_squares(&report.results, 200);
        assert!(report.delivery_gaps.is_empty(), "{report:?}");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "{audit:?}");
        }
    }

    #[derive(Debug)]
    struct SlowPeer;

    impl ChaosHook for SlowPeer {
        fn slow_peer_stall_ms(&self, worker: usize) -> f64 {
            if worker == 0 {
                2.0
            } else {
                0.0
            }
        }
    }

    #[test]
    fn slow_peer_backpressure_completes() {
        let table = int_table("t", 0..200);
        let report = run_call(&table, |c| c.chaos = Some(Arc::new(SlowPeer)));
        assert_squares(&report.results, 200);
        assert!(report.delivery_gaps.is_empty(), "{report:?}");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "{audit:?}");
        }
    }

    #[test]
    fn stage_specs_round_trip_over_the_wire() {
        let table = int_table("t", 0..1);
        let call = call_spec(&table);
        let mut buf = Vec::new();
        call.encode(&mut buf);
        let back = WireStageSpec::decode(&mut Reader::new(&buf)).unwrap();
        assert!(!back.stateful());
        let WireStageSpec::ServiceCall {
            service,
            arg_cols,
            keep_input,
            ..
        } = back
        else {
            panic!("decoded the wrong variant");
        };
        assert_eq!(service, "Square");
        assert_eq!(arg_cols, vec![0]);
        assert!(!keep_input);

        let join = join_spec(&table, &table);
        let mut buf = Vec::new();
        join.encode(&mut buf);
        let back = WireStageSpec::decode(&mut Reader::new(&buf)).unwrap();
        assert!(back.stateful());
    }

    fn gen_tuple(rng: &mut DetRng) -> Tuple {
        let values = rng.vec_of(0, 4, |r| match r.u32_in(0, 5) {
            0 => Value::Null,
            1 => Value::Int(r.i64_in(i64::MIN, i64::MAX)),
            2 => Value::Float(r.f64_in(-1e9, 1e9)),
            3 => Value::str("é".repeat(r.usize_in(0, 5))),
            _ => Value::Bool(r.flip()),
        });
        // Sequence numbers of every varint width.
        Tuple::with_seq(values, r_u64(rng))
    }

    fn r_u64(rng: &mut DetRng) -> u64 {
        rng.next_u64() >> rng.u32_in(0, 64)
    }

    fn gen_routed(rng: &mut DetRng) -> Routed {
        let stream = *rng.pick(&[StreamTag::Single, StreamTag::Build, StreamTag::Probe]);
        (stream, rng.usize_in(0, 300), gen_tuple(rng))
    }

    /// The tags in use, in order: 12 and 14 are retired.
    const LIVE_TAGS: [u8; 13] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13];

    /// One message of every live tag, in tag order.
    fn gen_every_message(rng: &mut DetRng) -> Vec<Vec<u8>> {
        let table = int_table("t", 0..1);
        let stage = if rng.flip() {
            call_spec(&table)
        } else {
            join_spec(&table, &table)
        };
        let cp = Checkpoint {
            dest: rng.u32_in(0, 70_000),
            id: r_u64(rng),
        };
        let items = rng.vec_of(0, 6, |r| {
            if r.flip() {
                let (stream, _, tuple) = gen_routed(r);
                Staged::Tuple(stream, tuple)
            } else {
                Staged::Marker(cp, r_u64(r))
            }
        });
        let config = WireConfig {
            spec: ConsumerSpec {
                index: rng.usize_in(0, 300),
                resilient: rng.flip(),
                logging: rng.flip(),
                receive_cost_ms: rng.f64_in(0.0, 5.0),
                cost_factor: rng.f64_in(0.0, 20.0),
                cost_extra_ms: rng.f64_in(0.0, 20.0),
                eos_needed: rng.usize_in(0, 5),
                build_eos_needed: rng.usize_in(0, 5),
                build_source: rng.flip().then(|| rng.usize_in(0, 5)),
                block_tuples: rng.usize_in(0, 300),
            },
            cost_scale: rng.f64_in(0.0, 1.0),
            read_stall_ms: rng.f64_in(0.0, 5.0),
            stage,
        };
        let messages = vec![
            WireMsg::Config(Box::new(config)),
            WireMsg::Data(DataMsg::Block(Block {
                source: rng.usize_in(0, 300),
                items,
            })),
            WireMsg::Data(DataMsg::Eos(StreamTag::Probe)),
            WireMsg::Ctl(Msg::Drain { token: r_u64(rng) }),
            WireMsg::Ctl(Msg::Migrate(MigrateCmd {
                token: r_u64(rng),
                bucket_count: rng.flip().then(|| rng.u32_in(0, 70_000)),
                outgoing: rng.vec_of(0, 8, |r| r.u32_in(0, 70_000)),
            })),
            WireMsg::Ctl(Msg::Migrated(rng.vec_of(0, 4, gen_routed))),
            WireMsg::Results(rng.vec_of(0, 4, gen_tuple)),
            WireMsg::Ack {
                source: rng.usize_in(0, 300),
                cp,
                epoch: r_u64(rng),
            },
            WireMsg::Drained { token: r_u64(rng) },
            WireMsg::StateOut(rng.vec_of(0, 4, gen_routed)),
            WireMsg::MigrateDone { token: r_u64(rng) },
            WireMsg::Done {
                processed: r_u64(rng),
                dedup_peak: r_u64(rng),
            },
            WireMsg::Ctl(Msg::Release),
        ];
        messages.iter().map(WireMsg::encode).collect()
    }

    /// Bytes come from another process. For every tag — the block
    /// payloads of `MIGRATED`, `RESULTS` and `STATE_OUT` included —
    /// encode → decode → encode is the identity, and every truncation
    /// and single-byte mutation decodes to `Err` or to some valid
    /// message (one that itself round-trips) — never a panic (which
    /// `Check` reports as a failure), never an allocation sized by an
    /// unchecked length. The retired tags 12 and 14 are as unknown as any
    /// other.
    #[test]
    fn every_tag_round_trips_and_survives_truncation_and_mutation() {
        let survives = |bytes: &[u8]| -> std::result::Result<(), String> {
            let Ok(msg) = WireMsg::decode(bytes) else {
                return Ok(());
            };
            let again = msg.encode();
            match WireMsg::decode(&again) {
                Ok(m) if m.encode() == again => Ok(()),
                _ => Err(format!(
                    "{bytes:?} decoded to a message that does not round-trip"
                )),
            }
        };
        Check::new("socket wire messages")
            .cases(64)
            .run(gen_every_message, |payloads| {
                for (payload, t) in payloads.iter().zip(LIVE_TAGS) {
                    if payload[0] != t {
                        return Err(format!("tag {t} missing from the generator"));
                    }
                    let decoded = WireMsg::decode(payload).map_err(|e| format!("tag {t}: {e}"))?;
                    if decoded.encode() != *payload {
                        return Err(format!("tag {t} does not round-trip"));
                    }
                    for cut in 0..payload.len() {
                        survives(&payload[..cut])?;
                    }
                    let mut mutated = payload.clone();
                    for i in 0..payload.len() {
                        for flip in [0x01, 0x80, 0xff] {
                            mutated[i] = payload[i] ^ flip;
                            survives(&mutated)?;
                        }
                        mutated[i] = payload[i];
                    }
                }
                Ok(())
            });
        assert_eq!(
            gen_every_message(&mut DetRng::seeded(1)).len(),
            LIVE_TAGS.len()
        );
        for t in [12u8, 14] {
            let retired = WireMsg::decode(&[t, 0]).err().map(|e| e.to_string());
            assert!(
                retired.is_some_and(|e| e.contains(&format!("unknown frame tag {t}"))),
                "tag {t} is retired, not reused"
            );
        }
        // The block payloads: a count beyond the bytes that remain is
        // rejected before anything is allocated for it.
        for t in [tag::MIGRATED, tag::RESULTS, tag::STATE_OUT] {
            let mut payload = vec![t];
            put_varint(&mut payload, u64::from(u32::MAX));
            payload.extend([0u8; 16]);
            assert!(WireMsg::decode(&payload).is_err(), "tag {t}");
        }
    }

    /// The control messages' bytes are pinned literally: a `gridq-node`
    /// built from another revision of this codec reads them as this one
    /// does, so changing them is a protocol change, not a refactor.
    #[test]
    fn control_messages_encode_to_their_pinned_bytes() {
        let tuple = Tuple::with_seq(vec![Value::Int(-5), Value::str("ab")], 9);
        let migrate = |token, bucket_count, outgoing| {
            Msg::Migrate(MigrateCmd {
                token,
                bucket_count,
                outgoing,
            })
        };
        let pinned: [(Msg, &[u8]); 5] = [
            (Msg::Drain { token: 300 }, &[3, 172, 2]),
            (
                migrate(7, Some(64), vec![3, 200]),
                &[4, 7, 65, 2, 3, 200, 1],
            ),
            (migrate(8, None, Vec::new()), &[4, 8, 0, 0]),
            (
                Msg::Migrated(vec![(StreamTag::Probe, 1, tuple)]),
                &[5, 1, 2, 1, 9, 2, 1, 9, 3, 2, 97, 98],
            ),
            (Msg::Release, &[13]),
        ];
        for (msg, bytes) in pinned {
            assert_eq!(WireMsg::Ctl(msg).encode(), bytes);
            assert_eq!(WireMsg::decode(bytes).unwrap().encode(), bytes);
        }
    }

    /// The reader replays each worker->coordinator frame as the call a
    /// threaded consumer makes on its port in-process, so each effect
    /// lands where a threaded consumer's does: recall replies on the
    /// reply channel, named by the port's worker, surrendered state there
    /// too, results and counts as worker events, and an ack in the log.
    #[test]
    fn the_reader_replays_each_worker_frame_as_the_threaded_call() {
        let (build, probe) = (int_table("b", 0..8), int_table("p", 0..8));
        let plan = join_plan(&build, &probe, &JoinShape::default());
        let x = Exchange::new(&plan, "test", true, None, false, 1).unwrap();
        let (events_tx, events) = channel();
        let (replies_tx, replies) = channel();
        let (raw_tx, raw) = channel();
        let w = Wiring {
            x: x.clone(),
            rings: Vec::new(),
            events: events_tx,
            replies: replies_tx,
            raw: raw_tx,
            obs: None,
            processed_total: Arc::new(AtomicU64::new(0)),
            started: Instant::now(),
        };
        let mut ports: Vec<Port> = (0..2)
            .map(|i| Port::new(&w, &plan, i, 0.002, false))
            .collect();
        let mut feed = |worker: usize, msg: WireMsg| {
            let decoded = WireMsg::decode(&msg.encode()).unwrap();
            dispatch(&mut ports[worker], decoded)
        };
        let probe_tuple = |key: i64| Tuple::with_seq(vec![Value::Int(key)], 100 + key as u64);

        for worker in [0, 1] {
            feed(worker, WireMsg::Drained { token: 3 }).unwrap();
            feed(worker, WireMsg::MigrateDone { token: 3 }).unwrap();
        }
        let got: Vec<(RecallPhase, usize)> = replies
            .try_iter()
            .map(|reply| match reply {
                RecallReply::Answered {
                    phase,
                    worker,
                    token: 3,
                } => (phase, worker),
                other => panic!("only the answers were sent: {other:?}"),
            })
            .collect();
        let (drain, migrate) = (RecallPhase::Drain, RecallPhase::Migrate);
        assert_eq!(got, [(drain, 0), (migrate, 0), (drain, 1), (migrate, 1)]);

        let state = vec![(StreamTag::Build, 0, probe_tuple(5))];
        feed(1, WireMsg::StateOut(state)).unwrap();
        assert!(matches!(
            replies.try_recv(),
            Ok(RecallReply::Surrendered { worker: 1, entries }) if entries.len() == 1
        ));
        assert_eq!(x.tallies.recall_blocks.load(Ordering::Relaxed), 1);

        feed(0, WireMsg::Results(vec![probe_tuple(1), probe_tuple(2)])).unwrap();
        let done = WireMsg::Done {
            processed: 7,
            dedup_peak: 2,
        };
        feed(1, done).unwrap();
        assert!(matches!(events.try_recv(), Ok(WorkerEvent::Results(batch)) if batch.len() == 2));
        assert!(matches!(
            events.try_recv(),
            Ok(WorkerEvent::Done {
                worker: 1,
                processed: 7,
                dedup_peak: 2
            })
        ));

        let log = x.log(1).unwrap();
        let cp = log.record(0, (StreamTag::Probe, probe_tuple(3))).unwrap();
        let cp = cp.expect("an interval of one closes every window");
        assert_eq!(log.total_unacked(), 1);
        feed(
            0,
            WireMsg::Ack {
                source: 1,
                cp,
                epoch: log.epoch(),
            },
        )
        .unwrap();
        assert_eq!(log.total_unacked(), 0, "the ack landed in the log");

        assert!(
            feed(0, WireMsg::Ctl(Msg::Drain { token: 1 })).is_err(),
            "a coordinator->worker tag from a worker is an error"
        );
        assert!(replies.try_recv().is_err() && raw.try_recv().is_err());
        assert!(events.try_recv().is_err());
        drop(w);
    }

    /// Lost framing is a death too: a worker frame with bad magic ends
    /// the reader, which shuts the connection on its way out. Every
    /// run's reader answers the barriers with the death, once. A
    /// resilient run's reader reports it once more — `Raw::Down`, then
    /// the worker's completion with the counts of its last `DONE`, which
    /// arrived in the same read as the bad header; a plain run's returns
    /// it, naming the worker, for the run to fail on.
    #[test]
    fn a_frame_with_bad_magic_is_a_death() {
        let table = int_table("t", 0..8);
        let plan = call_plan(&table, &CallShape::default());
        for failover in [true, false] {
            let x = Exchange::new(&plan, "test", true, None, true, 1).unwrap();
            let (events_tx, events) = channel();
            let (raw_tx, raw) = channel();
            let (replies_tx, replies) = channel();
            let w = Wiring {
                x,
                rings: Vec::new(),
                events: events_tx,
                replies: replies_tx,
                raw: raw_tx,
                obs: None,
                processed_total: Arc::new(AtomicU64::new(0)),
                started: Instant::now(),
            };
            let port = Port::new(&w, &plan, 1, 0.002, failover);
            let listener = Listener::bind(&Addr::scratch_unix()).unwrap();
            let mut worker = Stream::connect(&listener.local_addr().unwrap()).unwrap();
            let done = msg_frame(&WireMsg::Done {
                processed: 7,
                dedup_peak: 2,
            });
            // A whole frame and lost framing behind it, in one write.
            let mut bytes = done.encode();
            bytes.extend_from_slice(&[b'X'; HEADER_LEN]);
            worker.write_all(&bytes).unwrap();
            let released = Arc::new(AtomicBool::new(false));
            let conn = listener.accept().unwrap();
            let reader = thread::spawn(move || {
                reader_loop(port, conn, Decoder::new(), Vec::new(), released)
            });
            // The frame's counts; then lost framing, and in a resilient
            // run the death's completion with the same counts.
            let counted = |e| {
                matches!(
                    e,
                    Some(WorkerEvent::Done {
                        worker: 1,
                        processed: 7,
                        ..
                    })
                )
            };
            assert!(counted(events.recv_timeout(Duration::from_secs(5)).ok()));
            let (read, end) = reader.join().unwrap();
            assert_eq!(
                read,
                done.payload.len(),
                "the reader measures what it decodes"
            );
            assert_eq!(
                worker.read(&mut [0u8; 8]).unwrap(),
                0,
                "the worker reads the end"
            );
            assert_eq!(counted(events.try_recv().ok()), failover);
            assert!(events.try_recv().is_err());
            let answers: Vec<RecallReply> = replies.try_iter().collect();
            assert!(matches!(answers[..], [RecallReply::Down { worker: 1 }]));
            let downs: Vec<Raw> = raw.try_iter().collect();
            if failover {
                assert!(end.is_none());
                assert!(matches!(downs[..], [Raw::Down(1)]), "reported once");
            } else {
                let end = end.expect("a plain run's reader returns the death");
                assert!(
                    end.contains("worker 1") && end.contains("bad magic"),
                    "{end}"
                );
                assert!(downs.is_empty());
            }
        }
    }

    #[test]
    fn addresses_parse_from_their_display_form() {
        assert!(matches!(parse_addr("tcp:127.0.0.1:9000"), Ok(Addr::Tcp(_))));
        assert!(matches!(parse_addr("unix:/tmp/x.sock"), Ok(Addr::Unix(_))));
        assert!(parse_addr("carrier-pigeon:coop").is_err());
    }

    #[test]
    fn stateful_stages_reject_prospective_adaptations() {
        let build = int_table("build", 0..10);
        let probe = int_table("probe", 0..10);
        let plan = join_plan(&build, &probe, &JoinShape::default());
        let mut config = SocketConfig::new(join_spec(&build, &probe), standard_resolver());
        config.adaptations = vec![ScriptedAdaptation {
            after_routed: 5,
            weights: vec![0.5, 0.5],
            retrospective: false,
        }];
        let err = SocketExecutor::new(catalog(&[&build, &probe]), config)
            .run(&plan)
            .unwrap_err();
        assert!(matches!(err, GridError::Config(_)), "{err:?}");
    }

    #[test]
    fn adaptation_weight_arity_must_match_partitions() {
        let table = int_table("t", 0..10);
        let plan = call_plan(&table, &CallShape::default());
        let mut config = SocketConfig::new(call_spec(&table), standard_resolver());
        config.adaptations = vec![ScriptedAdaptation {
            after_routed: 5,
            weights: vec![1.0],
            retrospective: false,
        }];
        let err = SocketExecutor::new(catalog(&[&table]), config)
            .run(&plan)
            .unwrap_err();
        assert!(matches!(err, GridError::Config(_)), "{err:?}");
    }
}
