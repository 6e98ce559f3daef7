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
//! `protocol` module — shared, not ported. What lives here is what a
//! *worker endpoint* is on sockets: payload codecs, links, link and
//! reader threads, worker launch and teardown, and the worker itself.
//!
//! Topology is a star: workers connect to the coordinator's listener
//! and identify themselves with a `Hello` carrying their index and the
//! highest link sequence number they received, so a reconnection after
//! `conn_drop` chaos resumes exactly where the connection died — each
//! side retransmits the outbox suffix the other missed, and the link
//! layer's sequence dedup absorbs the overlap. Within the coordinator,
//! one link thread per worker multiplexes that worker's per-producer
//! SPSC rings and its control messages through the same `Inbox` a
//! threaded consumer uses, and relays them onto the socket (the rings
//! bound producer memory and park producers when a `slow_peer` stops
//! reading), and one reader thread per connection dispatches worker
//! frames (acks, results, recall replies, stray forwards) under the link
//! lock so reconnections can never reorder delivery.
//!
//! The worker side is deliberately single-threaded: read frames, apply
//! link dedup, feed the protocol consumer, stamp its outputs into the
//! link outbox, and write them best-effort — a failed write never
//! aborts frame processing, because the outbox retransmits everything
//! the coordinator has not acknowledged once the worker reconnects.

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
use gridq_common::sync::ring::{inbox, Inbox, InboxSender, Wake};
use gridq_common::sync::Mutex;
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
use gridq_net::link::{self, LinkState, Receive};
use gridq_net::{Addr, Decoder, Frame, Listener, Stream};
use gridq_obs::ObsConfig;
use gridq_recovery::Checkpoint;

use crate::protocol::consumer::{Consumer, ConsumerOut, ConsumerSpec, M1Sample};
use crate::protocol::coordinator::{MigrateCmd, RecallReply};
use crate::protocol::{sane_ms, validate_knobs, Block, Exchange, Routed, Staged};
use crate::{
    spin_for, surrendered, Endpoints, Msg, Raw, RetryPolicy, RingPayload, Run, ThreadedConfig,
    ThreadedReport, Wiring, WorkerEvent,
};

/// Application-level message tags, the first payload byte of every
/// sequenced (`kind::MSG`) frame. Every frame that carries tuples carries
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
    /// recall protocol (migrated state, recalled held probes; a forwarded
    /// stray is a block of one).
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
    /// Worker -> coordinator: a retransmitted tuple whose ownership the
    /// worker cannot verify (it has no router); the coordinator routes
    /// it to the current owner.
    pub const STRAY: u8 = 12;
    /// Coordinator -> worker: the run is over, exit cleanly.
    pub const SHUTDOWN: u8 = 13;
    // 14 is retired (it re-inserted state raw at the worker that had
    // surrendered it) and must not be reused.
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

/// Every application-level message, one variant per [`tag`]. The first
/// payload byte is the tag; `encode` and `decode` are each other's
/// inverse, arm for arm.
enum WireMsg {
    Config(Box<WireConfig>),
    Data(Block),
    Eos {
        stream: StreamTag,
        source: usize,
    },
    Drain {
        token: u64,
    },
    Migrate(MigrateCmd),
    Migrated(Vec<Routed>),
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
    Stray(Routed),
    Shutdown,
}

impl WireMsg {
    fn encode(&self) -> Vec<u8> {
        let tagged = |t: u8| vec![t];
        match self {
            WireMsg::Config(cfg) => cfg.encode(),
            WireMsg::Data(block) => {
                let mut out = tagged(tag::DATA);
                put_varint(&mut out, block.source as u64);
                out.push(u8::from(block.retransmit));
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
            WireMsg::Eos { stream, source } => {
                let mut out = tagged(tag::EOS);
                put_stream(&mut out, *stream);
                put_varint(&mut out, *source as u64);
                out
            }
            WireMsg::Drain { token } => enc_token(tag::DRAIN, *token),
            WireMsg::Drained { token } => enc_token(tag::DRAINED, *token),
            WireMsg::MigrateDone { token } => enc_token(tag::MIGRATE_DONE, *token),
            WireMsg::Migrate(cmd) => {
                let mut out = tagged(tag::MIGRATE);
                put_varint(&mut out, cmd.token);
                put_varint(&mut out, cmd.bucket_count.map_or(0, |b| u64::from(b) + 1));
                put_varint(&mut out, cmd.outgoing.len() as u64);
                for b in &cmd.outgoing {
                    put_varint(&mut out, u64::from(*b));
                }
                out
            }
            WireMsg::Migrated(block) => enc_routed_block(tag::MIGRATED, block),
            WireMsg::StateOut(block) => enc_routed_block(tag::STATE_OUT, block),
            WireMsg::Stray(entry) => {
                let mut out = tagged(tag::STRAY);
                put_routed(&mut out, entry);
                out
            }
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
            WireMsg::Shutdown => tagged(tag::SHUTDOWN),
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
                let retransmit = r.u8()? != 0;
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
                WireMsg::Data(Block {
                    source,
                    items,
                    retransmit,
                })
            }
            tag::EOS => WireMsg::Eos {
                stream: get_stream(r)?,
                source: r.varint()? as usize,
            },
            tag::DRAIN => WireMsg::Drain { token: r.varint()? },
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
                WireMsg::Migrate(MigrateCmd {
                    token,
                    bucket_count,
                    outgoing,
                })
            }
            tag::MIGRATED => WireMsg::Migrated(get_routed_block(r)?),
            tag::STATE_OUT => WireMsg::StateOut(get_routed_block(r)?),
            tag::STRAY => WireMsg::Stray(get_routed(r)?),
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
            tag::SHUTDOWN => WireMsg::Shutdown,
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

/// The static per-worker configuration, sent as the first sequenced
/// frame on every worker's link (command FIFO guarantees it precedes all
/// data). Carried by value across the process boundary so a spawned
/// `gridq-node` needs nothing but its command line and this frame.
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
        out.push(u8::from(s.hash_routing));
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
        let hash_routing = r.u8()? != 0;
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
                hash_routing,
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
    /// Recall barrier/reply timeout in wall-clock milliseconds.
    pub recall_timeout_ms: u64,
    /// Delivery retry/backoff policy for unacknowledged windows.
    pub delivery_retry: RetryPolicy,
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
            recall_timeout_ms: 30_000,
            delivery_retry: RetryPolicy::default(),
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
            self.recall_timeout_ms,
        )?;
        self.delivery_retry.validate()?;
        for a in &self.adaptations {
            DistributionVector::new(&a.weights)
                .map_err(|e| GridError::Config(format!("scripted adaptation: {e}")))?;
        }
        Ok(())
    }
}

/// What a socket-substrate execution measured: the one report type of
/// both real substrates, with [`ThreadedReport::reconnects`] filled in.
/// The live-loop fields (M1/M2 counts, failover, tenancy, `obs`) stay at
/// their defaults until this substrate runs that loop.
pub type SocketReport = ThreadedReport;

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

fn write_frame(conn: &mut Stream, frame: &Frame) -> std::io::Result<()> {
    conn.write_all(&frame.encode())?;
    conn.flush()
}

// ---------------------------------------------------------------------------
// Coordinator: per-worker link thread.
// ---------------------------------------------------------------------------

/// The control plane of one worker's link thread.
enum LinkCtl {
    /// A (re)established connection, plus the worker's advertised
    /// `last_received` from its hello: retransmit past it and adopt the
    /// stream.
    Conn { stream: Stream, peer_last: u64 },
    /// Send one control message (sequenced, outbox-backed). The recall
    /// barrier and the final shutdown must trail every data block staged
    /// before them, so the link drains its rings first.
    Send(WireMsg),
    /// The reader owes the worker a pure ack (outbox relief).
    AckNow,
    /// Stop the link thread.
    Stop,
}

impl From<Msg> for LinkCtl {
    fn from(msg: Msg) -> Self {
        LinkCtl::Send(match msg {
            Msg::Drain { token } => WireMsg::Drain { token },
            Msg::Migrate(cmd) => WireMsg::Migrate(cmd),
            Msg::Migrated(block) => WireMsg::Migrated(block),
        })
    }
}

/// The socket producer's ring payload: blocks are encoded once, on the
/// producer thread, as the `DATA` (or `EOS`) frame payload the link
/// thread stamps and writes.
impl RingPayload for Vec<u8> {
    fn block(block: Block) -> Self {
        WireMsg::Data(block).encode()
    }

    fn eos(stream: StreamTag, source: usize) -> Self {
        WireMsg::Eos { stream, source }.encode()
    }
}

/// How long an idle link thread parks; every push and every control
/// send wakes it, so this only bounds a missed wakeup.
const LINK_PARK: Duration = Duration::from_millis(50);

/// One worker's link thread: the socket substrate's worker endpoint on
/// the coordinator side. It pops the same rings and control messages a
/// consumer thread would, and relays them as frames.
struct Link {
    worker: usize,
    link: Arc<Mutex<LinkState>>,
    chaos: Option<Arc<dyn ChaosHook>>,
    /// One data ring per producer plus the control plane.
    inbox: Inbox<LinkCtl, Vec<u8>>,
    conn: Option<Stream>,
}

impl Link {
    /// Stamps `payload` into the link outbox and writes it if a
    /// connection is live. The stamp happens unconditionally: a failed
    /// or skipped write leaves the frame in the outbox, and the next
    /// reconnection's `retransmit_after` delivers it. `data` gates the
    /// chaos seams — only data frames are dropped/chunked, mirroring
    /// the threaded executor's data-plane-only injection.
    fn send_seq(&mut self, payload: Vec<u8>, data: bool) {
        if data
            && self.conn.is_some()
            && self
                .chaos
                .as_ref()
                .is_some_and(|c| c.conn_drop(self.worker))
        {
            // Tear the connection down mid-stream: the worker sees EOF,
            // reconnects, and the handshake retransmits this frame and
            // everything unacknowledged before it.
            if let Some(c) = &self.conn {
                let _ = c.shutdown_both();
            }
            self.conn = None;
        }
        let frame = self.link.lock().stamp(kind::MSG, payload);
        let Some(conn) = &mut self.conn else { return };
        let bytes = frame.encode();
        let chunked = data
            && self
                .chaos
                .as_ref()
                .is_some_and(|c| c.partial_write(self.worker));
        let res = if chunked {
            // Deliberately tiny writes with a flush after each: the
            // worker's incremental decoder must reassemble headers and
            // payloads split at arbitrary byte boundaries.
            let mut r = Ok(());
            for chunk in bytes.chunks(7) {
                r = conn.write_all(chunk).and_then(|()| conn.flush());
                if r.is_err() {
                    break;
                }
            }
            r
        } else {
            conn.write_all(&bytes).and_then(|()| conn.flush())
        };
        if res.is_err() {
            self.conn = None;
        }
    }

    /// Handles one control command; returns `false` to stop.
    fn handle(&mut self, ctl: LinkCtl) -> bool {
        match ctl {
            LinkCtl::Conn { stream, peer_last } => {
                let frames = self.link.lock().retransmit_after(peer_last);
                let mut stream = stream;
                let mut ok = true;
                for f in &frames {
                    if write_frame(&mut stream, f).is_err() {
                        ok = false;
                        break;
                    }
                }
                self.conn = ok.then_some(stream);
            }
            LinkCtl::Send(msg) => {
                if matches!(msg, WireMsg::Drain { .. } | WireMsg::Shutdown) {
                    // Producers are parked (recall) or finished
                    // (shutdown) when a barrier is issued, so the rings
                    // are quiescent and this drain terminates.
                    while let Some(payload) = self.inbox.pop_data() {
                        self.send_seq(payload, true);
                    }
                }
                self.send_seq(msg.encode(), false);
            }
            LinkCtl::AckNow => {
                // Only send when a connection is live: the ack frame is
                // unsequenced and would otherwise silently reset the
                // received-since-ack debt without relieving the peer.
                if self.conn.is_some() {
                    let f = self.link.lock().ack_frame();
                    if let Some(conn) = &mut self.conn {
                        if write_frame(conn, &f).is_err() {
                            self.conn = None;
                        }
                    }
                }
            }
            LinkCtl::Stop => return false,
        }
        true
    }

    fn run(mut self) {
        loop {
            match self.inbox.next(LINK_PARK) {
                Wake::Control(ctl) => {
                    if !self.handle(ctl) {
                        return;
                    }
                }
                Wake::Data(payload) => self.send_seq(payload, true),
                Wake::Idle(_) => {}
                Wake::Closed => return,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator: per-connection reader thread.
// ---------------------------------------------------------------------------

/// Everything a reader thread needs to dispatch worker frames. Cloned
/// per connection life; each worker's link is shared with its link
/// thread and with successor readers, so frame processing under its lock
/// is totally ordered across reconnections.
#[derive(Clone)]
struct ReaderCtx {
    states: Vec<Arc<Mutex<LinkState>>>,
    x: Exchange,
    links: Vec<InboxSender<LinkCtl>>,
    events: Sender<WorkerEvent>,
    replies: Sender<RecallReply>,
    raw: Sender<Raw>,
    shutdown: Arc<AtomicBool>,
    scale: f64,
}

/// Dispatches one fresh application payload from `worker`.
/// Called with the link lock held, which orders dispatch across
/// reconnections; the lock order is strictly link -> router/logs, and
/// no thread takes them in the other order.
fn dispatch(ctx: &ReaderCtx, worker: usize, payload: &[u8]) -> Result<()> {
    match WireMsg::decode(payload)? {
        WireMsg::Results(tuples) => {
            let _ = ctx.events.send(WorkerEvent::Results(tuples));
        }
        WireMsg::Ack { source, cp, epoch } => {
            let pay = |ms| spin_for(ms, ctx.scale);
            let _ = ctx.x.acknowledge(source, worker, cp, epoch, pay);
        }
        // A swallowed reply models a worker crashed mid-recall: the
        // coordinator's barrier times out and the recall aborts pre-swap.
        WireMsg::Drained { token } => {
            if ctx.x.reply_survives(RecallPhase::Drain, worker) {
                let _ = ctx.replies.send(RecallReply::Drained { token });
            }
        }
        WireMsg::MigrateDone { token } => {
            if ctx.x.reply_survives(RecallPhase::Migrate, worker) {
                let _ = ctx.replies.send(RecallReply::MigrateDone { token });
            }
        }
        WireMsg::StateOut(entries) => surrendered(&ctx.x, &ctx.replies, &ctx.raw, worker, entries),
        WireMsg::Stray((stream, source, tuple)) => {
            // A retransmitted tuple the worker cannot verify ownership
            // of (it has no router): the shared re-route routine finds
            // the current owner, the log entry following the tuple.
            let owner = ctx.x.reroute_stray(worker, stream, source, &tuple);
            ctx.links[owner].send(Msg::Migrated(vec![(stream, source, tuple)]).into());
        }
        WireMsg::Done {
            processed,
            dedup_peak,
        } => {
            let _ = ctx.events.send(WorkerEvent::Done {
                worker,
                processed,
                dedup_peak,
            });
        }
        _ => {
            return Err(GridError::Execution(format!(
                "socket: unexpected worker frame tag {:?}",
                payload.first()
            )))
        }
    }
    Ok(())
}

/// Reads one connection life: feed the decoder, apply link dedup, and
/// dispatch fresh frames under the link lock. Exits on EOF, a socket
/// error, a framing error, or the shutdown flag; the worker reconnects
/// and a successor reader takes over with the same link state.
fn reader_loop(
    ctx: ReaderCtx,
    worker: usize,
    mut conn: Stream,
    mut dec: Decoder,
    leftovers: Vec<Frame>,
) {
    let process = |frames: &[Frame]| -> bool {
        if frames.is_empty() {
            return true;
        }
        let mut link = ctx.states[worker].lock();
        for f in frames {
            if link.on_receive(f) == Receive::Fresh && dispatch(&ctx, worker, &f.payload).is_err() {
                return false;
            }
        }
        if link.owes_ack() {
            ctx.links[worker].send(LinkCtl::AckNow);
        }
        true
    };
    if !process(&leftovers) {
        return;
    }
    let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let n = match conn.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        };
        let frames = match dec.feed(&buf[..n]) {
            Ok(f) => f,
            Err(_) => return,
        };
        if !process(&frames) {
            return;
        }
    }
}

/// The accept loop: handshake each connection, hand the stream's read
/// half to a fresh reader thread and its write half to the worker's
/// link thread, which first retransmits whatever the worker missed.
fn accept_loop(
    listener: Listener,
    ctx: ReaderCtx,
    reader_handles: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    reconnects: Arc<AtomicU64>,
    handshakes: Sender<usize>,
) {
    let states = &ctx.states;
    let mut lives = vec![0u64; states.len()];
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Handshake: the first frame must be a Hello naming the worker
        // and its link high-water mark.
        let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
        let mut dec = Decoder::new();
        let mut frames: Vec<Frame> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut buf = vec![0u8; 64 * 1024];
        let mut conn = conn;
        while frames.is_empty() && Instant::now() < deadline {
            let n = match conn.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(_) => break,
            };
            match dec.feed(&buf[..n]) {
                Ok(f) => frames.extend(f),
                Err(_) => break,
            }
        }
        let Some((index, peer_last)) = frames.first().and_then(link::parse_hello) else {
            continue;
        };
        let index = index as usize;
        if index >= states.len() {
            continue;
        }
        let leftovers: Vec<Frame> = frames.split_off(1);
        lives[index] += 1;
        if lives[index] > 1 {
            reconnects.fetch_add(1, Ordering::Relaxed);
        }
        // Tell the worker what we already received so it can retransmit
        // just the missing suffix.
        let ack = link::hello_ack(states[index].lock().last_received());
        if write_frame(&mut conn, &ack).is_err() {
            continue;
        }
        let Ok(read_half) = conn.try_clone() else {
            continue;
        };
        let reader = ctx.clone();
        reader_handles.lock().push(thread::spawn(move || {
            reader_loop(reader, index, read_half, dec, leftovers)
        }));
        ctx.links[index].send(LinkCtl::Conn {
            stream: conn,
            peer_last,
        });
        let _ = handshakes.send(index);
    }
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
    /// Whether the worker has exited — reaped (or, for a thread,
    /// finished and ready to join) without blocking.
    fn exited(&mut self) -> bool {
        match self {
            WorkerJoin::Thread(h) => h.is_finished(),
            WorkerJoin::Process(c) => !matches!(c.try_wait(), Ok(None)),
        }
    }

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

/// The socket substrate's worker endpoints, coordinator side: listener,
/// per-worker links and link threads, reader threads, and the launched
/// workers.
struct Net {
    addr: Addr,
    shutdown: Arc<AtomicBool>,
    states: Vec<Arc<Mutex<LinkState>>>,
    /// Where `stop` leaves the largest sequenced payload any link saw.
    largest_frame: Arc<AtomicU64>,
    links: Vec<InboxSender<LinkCtl>>,
    link_handles: Vec<thread::JoinHandle<()>>,
    accept_handle: Option<thread::JoinHandle<()>>,
    reader_handles: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    /// `None` once a worker has been joined.
    workers: Vec<Option<WorkerJoin>>,
}

impl Net {
    /// Binds the listener, starts one link thread per worker and the
    /// accept loop, launches the workers, waits for every first
    /// handshake and ships each worker its configuration.
    fn start(
        config: &SocketConfig,
        plan: &DistributedPlan,
        reconnects: Arc<AtomicU64>,
        largest_frame: Arc<AtomicU64>,
        w: Wiring<Vec<u8>>,
    ) -> Result<Net> {
        let partitions = w.rings.len();
        let addr_hint = match config.transport {
            SocketTransport::Unix => Addr::scratch_unix(),
            SocketTransport::Tcp => Addr::loopback_tcp(),
        };
        let listener = Listener::bind(&addr_hint)?;
        let addr = listener.local_addr()?;
        let link_states: Vec<Arc<Mutex<LinkState>>> = (0..partitions)
            .map(|_| Arc::new(Mutex::new(LinkState::new())))
            .collect();
        let mut links: Vec<InboxSender<LinkCtl>> = Vec::with_capacity(partitions);
        let mut link_handles = Vec::with_capacity(partitions);
        for (worker, rings) in w.rings.into_iter().enumerate() {
            let (tx, inbox) = inbox(rings);
            links.push(tx);
            let link = Link {
                worker,
                link: Arc::clone(&link_states[worker]),
                chaos: config.chaos.clone(),
                inbox,
                conn: None,
            };
            link_handles.push(thread::spawn(move || link.run()));
        }
        let (handshake_tx, handshake_rx) = channel::<usize>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let reader_handles: Arc<Mutex<Vec<thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let ctx = ReaderCtx {
                states: link_states.clone(),
                x: w.x.clone(),
                links: links.clone(),
                events: w.events,
                replies: w.replies,
                raw: w.raw,
                shutdown: Arc::clone(&shutdown),
                scale: config.cost_scale,
            };
            let readers = Arc::clone(&reader_handles);
            thread::spawn(move || accept_loop(listener, ctx, readers, reconnects, handshake_tx))
        };
        let mut net = Net {
            addr,
            shutdown,
            states: link_states,
            largest_frame,
            links,
            link_handles,
            accept_handle: Some(accept_handle),
            reader_handles,
            workers: Vec::with_capacity(partitions),
        };
        for i in 0..partitions {
            match net.launch(i, config) {
                Ok(worker) => net.workers.push(Some(worker)),
                Err(e) => {
                    net.stop(false);
                    return Err(e);
                }
            }
        }
        // Wait until every worker has completed its first handshake.
        let mut connected = vec![false; partitions];
        let deadline = Instant::now() + Duration::from_secs(15);
        while connected.contains(&false) {
            let now = Instant::now();
            if now >= deadline {
                net.stop(false);
                return Err(GridError::Execution(
                    "socket: timed out waiting for workers to connect".into(),
                ));
            }
            if let Ok(i) = handshake_rx.recv_timeout(deadline - now) {
                if let Some(seen) = connected.get_mut(i) {
                    *seen = true;
                }
            }
        }
        // Each worker's configuration is the first sequenced frame on
        // its link, so it precedes every data block.
        let stage = &plan.stages[0];
        let sources = plan.sources.len();
        for (i, link) in net.links.iter().enumerate() {
            let perturbation = config.perturbations.get(&stage.nodes[i]);
            link.send(LinkCtl::Send(WireMsg::Config(Box::new(WireConfig {
                spec: w
                    .x
                    .consumer_spec(i, sources, config.receive_cost_ms, perturbation),
                cost_scale: config.cost_scale,
                read_stall_ms: sane_ms(
                    config
                        .chaos
                        .as_ref()
                        .map_or(0.0, |c| c.slow_peer_stall_ms(i)),
                ),
                stage: config.stage.clone(),
            }))));
        }
        Ok(net)
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
    type Ctl = LinkCtl;

    fn senders(&self) -> Vec<InboxSender<LinkCtl>> {
        self.links.clone()
    }

    fn exited(&mut self, worker: usize) -> Option<String> {
        if self.link_handles[worker].is_finished() {
            return Some(format!("link thread {worker} exited"));
        }
        if !self.workers[worker].as_mut()?.exited() {
            return None;
        }
        let how = self.workers[worker].take()?.join(worker);
        Some(how.unwrap_or_else(|| format!("worker {worker} exited without DONE")))
    }

    /// Graceful (`clean`): SHUTDOWN rides a ring barrier so it trails
    /// any residual data, and the link threads and the accept loop stay
    /// alive while the workers exit, so a worker whose connection died
    /// at the wrong moment can still reconnect and receive it. Forced:
    /// everything is closed down without waiting on worker cooperation —
    /// spawned children are killed; in-process worker threads exit on
    /// their own once the listener dies (their reconnect attempts fail
    /// fast).
    fn stop(mut self, clean: bool) -> Vec<String> {
        let mut failed = Vec::new();
        let workers = std::mem::take(&mut self.workers);
        if clean {
            for link in &self.links {
                link.send(LinkCtl::Send(WireMsg::Shutdown));
            }
            for (i, worker) in workers.into_iter().enumerate() {
                failed.extend(worker.and_then(|w| w.join(i)));
            }
        } else {
            for worker in workers {
                if let Some(WorkerJoin::Process(mut c)) = worker {
                    let _ = c.kill();
                    let _ = c.wait();
                }
            }
        }
        // Link threads, then the accept loop, then the readers.
        for link in self.links.drain(..) {
            link.send(LinkCtl::Stop);
        }
        for h in self.link_handles.drain(..) {
            if h.join().is_err() {
                failed.push("link thread panicked".into());
            }
        }
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = Stream::connect(&self.addr);
        if self.accept_handle.take().is_some_and(|h| h.join().is_err()) {
            failed.push("accept loop panicked".into());
        }
        for h in std::mem::take(&mut *self.reader_handles.lock()) {
            if h.join().is_err() {
                failed.push("reader panicked".into());
            }
        }
        if let Addr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
        let peak = self.states.iter().map(|l| l.lock().peak_payload()).max();
        self.largest_frame
            .store(peak.unwrap_or(0) as u64, Ordering::Relaxed);
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
    pub fn run(&self, plan: &DistributedPlan) -> Result<SocketReport> {
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
        // This substrate scripts its adaptations and has no failover,
        // obs or tenancy yet: the coordinator runs with them off.
        let coordinator = ThreadedConfig {
            adaptivity: AdaptivityConfig::disabled(),
            cost_scale: cfg.cost_scale,
            checkpoint_interval: cfg.checkpoint_interval,
            obs: ObsConfig::disabled(),
            recall_timeout_ms: cfg.recall_timeout_ms,
            chaos: cfg.chaos.clone(),
            delivery_retry: cfg.delivery_retry.clone(),
            ..ThreadedConfig::default()
        };
        let run = Run {
            who: "socket",
            cfg: &coordinator,
            script,
            finish_timeout: Some(Duration::from_secs(120)),
        };
        let reconnects = Arc::new(AtomicU64::new(0));
        let largest_frame = Arc::new(AtomicU64::new(0));
        let mut report = run.execute(&self.catalog, plan, |w| {
            let (reconnects, largest) = (Arc::clone(&reconnects), Arc::clone(&largest_frame));
            Net::start(cfg, plan, reconnects, largest, w)
        })?;
        report.reconnects = reconnects.load(Ordering::Relaxed);
        report.largest_frame_bytes = largest_frame.load(Ordering::Relaxed);
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// The worker side.
// ---------------------------------------------------------------------------

/// The worker's write half, and the protocol consumer's outputs: every
/// outgoing payload is stamped into the link outbox *unconditionally*
/// and written best-effort. A failed write flips `io_ok`; the read loop
/// then reconnects and the handshake retransmits everything the
/// coordinator has not acknowledged.
struct WireOut<'a> {
    link: &'a mut LinkState,
    conn: &'a mut Stream,
    io_ok: &'a mut bool,
    scale: f64,
}

impl WireOut<'_> {
    fn send(&mut self, msg: &WireMsg) {
        let frame = self.link.stamp(kind::MSG, msg.encode());
        if *self.io_ok && write_frame(self.conn, &frame).is_err() {
            *self.io_ok = false;
        }
    }
}

impl ConsumerOut for WireOut<'_> {
    fn pay(&mut self, model_ms: f64) {
        spin_for(model_ms, self.scale);
    }

    fn ack(&mut self, source: usize, cp: Checkpoint, epoch: u64) -> bool {
        self.send(&WireMsg::Ack { source, cp, epoch });
        // The log lives on the coordinator: its verdict is invisible
        // here, so the dedup eviction is optimistic.
        true
    }

    fn results(&mut self, batch: Vec<Tuple>) {
        self.send(&WireMsg::Results(batch));
    }

    fn stray(&mut self, stream: StreamTag, source: usize, tuple: Tuple) -> Option<Tuple> {
        // No router here: ship the tuple back and let the coordinator
        // route it to the current owner (the dedup record already made
        // makes the forward single-shot).
        self.send(&WireMsg::Stray((stream, source, tuple)));
        None
    }

    fn m1(&mut self, _samples: Vec<M1Sample>) {}
}

/// Everything a worker accumulates over the run. Lives *outside* the
/// per-connection loop so a reconnection resumes mid-query.
struct WorkerState {
    consumer: Consumer,
    cost_scale: f64,
    read_stall_ms: f64,
}

/// Dispatches one fresh application frame from the coordinator. Returns
/// `false` on `SHUTDOWN`.
fn handle_msg(
    state: &mut Option<WorkerState>,
    wire: &mut WireOut<'_>,
    payload: &[u8],
    services: &ServiceResolver,
    index: usize,
) -> Result<bool> {
    let msg = match WireMsg::decode(payload)? {
        WireMsg::Shutdown => return Ok(false),
        WireMsg::Config(cfg) => {
            // A duplicate CONFIG after a mid-handshake reconnect is
            // harmless; the first one wins.
            if state.is_none() {
                if cfg.spec.index != index {
                    return Err(GridError::Execution(format!(
                        "socket: worker {index} received config addressed to worker {}",
                        cfg.spec.index
                    )));
                }
                let evaluator = cfg.stage.build(index as u32, services)?;
                *state = Some(WorkerState {
                    consumer: Consumer::new(cfg.spec, evaluator),
                    cost_scale: cfg.cost_scale,
                    read_stall_ms: cfg.read_stall_ms,
                });
            }
            return Ok(true);
        }
        other => other,
    };
    let Some(st) = state.as_mut() else {
        return Err(GridError::Execution(format!(
            "socket: worker {index} received message tag {:?} before CONFIG",
            payload.first()
        )));
    };
    match msg {
        WireMsg::Data(block) => st.consumer.on_block(block, wire),
        WireMsg::Eos { stream, .. } => {
            if st.consumer.on_eos(stream, wire) {
                wire.send(&WireMsg::Done {
                    processed: st.consumer.processed(),
                    dedup_peak: st.consumer.dedup_peak(),
                });
                // Keep reading: late recalls and the SHUTDOWN frame
                // still arrive after DONE.
            }
        }
        // Link FIFO means everything sent before the barrier is already
        // processed, which is exactly what Drained promises.
        WireMsg::Drain { token } => wire.send(&WireMsg::Drained { token }),
        WireMsg::Migrate(cmd) => {
            // A block per frame, ahead of MigrateDone on the same FIFO.
            for block in st.consumer.surrender(cmd.bucket_count, &cmd.outgoing) {
                wire.send(&WireMsg::StateOut(block));
            }
            wire.send(&WireMsg::MigrateDone { token: cmd.token });
        }
        WireMsg::Migrated(block) => st.consumer.on_migrated(block, wire),
        _ => {
            return Err(GridError::Execution(format!(
                "socket: unexpected coordinator frame tag {:?}",
                payload.first()
            )))
        }
    }
    Ok(true)
}

/// Runs one evaluator worker to completion: connect (and reconnect) to
/// the coordinator at `addr`, identify as worker `index`, and process
/// frames until SHUTDOWN. This is the entry point for both in-process
/// worker threads and the `gridq-node` binary.
pub fn worker_main(addr: &Addr, index: usize, services: &ServiceResolver) -> Result<()> {
    let mut link = LinkState::new();
    let mut state: Option<WorkerState> = None;
    'life: loop {
        let mut conn = {
            let mut attempt = 0u32;
            loop {
                match Stream::connect(addr) {
                    Ok(c) => break c,
                    Err(e) => {
                        attempt += 1;
                        if attempt >= 100 {
                            return Err(GridError::Execution(format!(
                                "socket: worker {index} cannot reach the coordinator: {e}"
                            )));
                        }
                        thread::sleep(Duration::from_millis(3));
                    }
                }
            }
        };
        let hello = link::hello(index as u64, link.last_received());
        if write_frame(&mut conn, &hello).is_err() {
            continue 'life;
        }
        let mut dec = Decoder::new();
        let mut io_ok = true;
        let mut handshook = false;
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            if let Some(st) = &state {
                // The slow-peer seam: stall before draining the socket,
                // so the kernel buffers fill and flow control pushes
                // back on the coordinator's link thread.
                if st.read_stall_ms > 0.0 {
                    spin_for(st.read_stall_ms, st.cost_scale);
                }
            }
            let n = match conn.read(&mut buf) {
                Ok(0) => continue 'life,
                Ok(n) => n,
                Err(_) => continue 'life,
            };
            let frames = dec.feed(&buf[..n])?;
            for f in frames {
                match link.on_receive(&f) {
                    Receive::Control => {
                        if !handshook {
                            if let Some(peer_last) = link::parse_hello_ack(&f) {
                                handshook = true;
                                for rf in link.retransmit_after(peer_last) {
                                    if write_frame(&mut conn, &rf).is_err() {
                                        io_ok = false;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    Receive::Duplicate => {}
                    Receive::Fresh => {
                        let mut wire = WireOut {
                            link: &mut link,
                            conn: &mut conn,
                            io_ok: &mut io_ok,
                            scale: state.as_ref().map_or(0.0, |s| s.cost_scale),
                        };
                        if !handle_msg(&mut state, &mut wire, &f.payload, services, index)? {
                            return Ok(());
                        }
                    }
                }
            }
            if io_ok && link.owes_ack() {
                let af = link.ack_frame();
                if write_frame(&mut conn, &af).is_err() {
                    io_ok = false;
                }
            }
            if !io_ok {
                continue 'life;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::check::{Check, Gen};
    use gridq_common::{DetRng, Value};
    use gridq_engine::fixtures::{call_plan, catalog, int_table, join_plan};
    use gridq_engine::service::FnService;

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
        assert_eq!(report.reconnects, 0);
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

    #[derive(Debug)]
    struct DropConn {
        remaining: AtomicU64,
    }

    impl ChaosHook for DropConn {
        fn conn_drop(&self, worker: usize) -> bool {
            worker == 0
                && self
                    .remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
        }
    }

    #[test]
    fn conn_drop_reconnects_and_loses_nothing() {
        let table = int_table("t", 0..200);
        let report = run_call(&table, |c| {
            c.chaos = Some(Arc::new(DropConn {
                remaining: AtomicU64::new(3),
            }));
        });
        assert_squares(&report.results, 200);
        assert!(report.reconnects >= 1, "{report:?}");
        assert!(report.delivery_gaps.is_empty(), "{report:?}");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "{audit:?}");
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

    /// One message of every tag, in tag order.
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
                hash_routing: rng.flip(),
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
            WireMsg::Data(Block {
                source: rng.usize_in(0, 300),
                items,
                retransmit: rng.flip(),
            }),
            WireMsg::Eos {
                stream: StreamTag::Probe,
                source: rng.usize_in(0, 300),
            },
            WireMsg::Drain { token: r_u64(rng) },
            WireMsg::Migrate(MigrateCmd {
                token: r_u64(rng),
                bucket_count: rng.flip().then(|| rng.u32_in(0, 70_000)),
                outgoing: rng.vec_of(0, 8, |r| r.u32_in(0, 70_000)),
            }),
            WireMsg::Migrated(rng.vec_of(0, 4, gen_routed)),
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
            WireMsg::Stray(gen_routed(rng)),
            WireMsg::Shutdown,
        ];
        messages.iter().map(WireMsg::encode).collect()
    }

    /// Bytes come from another process. For every tag — the block
    /// payloads of `MIGRATED`, `RESULTS` and `STATE_OUT` included —
    /// encode → decode → encode is the identity, and every truncation
    /// and single-byte mutation decodes to `Err` or to some valid
    /// message (one that itself round-trips) — never a panic (which
    /// `Check` reports as a failure), never an allocation sized by an
    /// unchecked length. The retired tag 14 is as unknown as any other.
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
                for (t, payload) in payloads.iter().enumerate() {
                    if payload[0] as usize != t {
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
        assert_eq!(gen_every_message(&mut DetRng::seeded(1)).len(), 14);
        let retired = WireMsg::decode(&[14, 0]).err().map(|e| e.to_string());
        assert!(
            retired.is_some_and(|e| e.contains("unknown frame tag 14")),
            "tag 14 is retired, not reused"
        );
        // The block payloads: a count beyond the bytes that remain is
        // rejected before anything is allocated for it.
        for t in [tag::MIGRATED, tag::RESULTS, tag::STATE_OUT] {
            let mut payload = vec![t];
            put_varint(&mut payload, u64::from(u32::MAX));
            payload.extend([0u8; 16]);
            assert!(WireMsg::decode(&payload).is_err(), "tag {t}");
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
