//! The small queries every substrate's tests, the chaos harness and the
//! examples run: an integer table, the `Square` service, and the two
//! single-stage plan shapes of the paper — a weighted service call (Q1)
//! and a hash-bucket join (Q2) — with data on node 0, evaluators on
//! nodes `1..=n` and a uniform initial distribution.
//!
//! They live here, needing nothing but engine types, so that the
//! simulator's and the executors' own tests can reach them without a
//! dependency cycle; `gridq_chaos::Workload` pairs them with the wire
//! spec and resolver the socket substrate needs.

use std::sync::Arc;

use gridq_common::{
    DataType, DistributionVector, Field, GridError, NodeId, QueryId, Schema, SubplanId, Tuple,
    Value,
};

use crate::distributed::{
    DistributedPlan, ExchangeSpec, ParallelStageSpec, RoutingPolicy, SourceSpec, StreamKeys,
};
use crate::evaluator::{EvaluatorFactory, HashJoinFactory, ServiceCallFactory, StreamTag};
use crate::expr::Expr;
use crate::physical::Catalog;
use crate::service::{FnService, Service, ServiceRegistry};
use crate::table::Table;

/// A one-column (`x: Int`) table holding `values` in order.
pub fn int_table(name: &str, values: impl IntoIterator<Item = i64>) -> Arc<Table> {
    let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
    let rows = values
        .into_iter()
        .map(|v| Tuple::new(vec![Value::Int(v)]))
        .collect();
    Arc::new(Table::new(name, schema, rows).expect("a one-column table matches its schema"))
}

/// The `Square` service (`Int -> Int`) at the given modelled per-call
/// cost. `gridq_exec::socket::standard_resolver` rebuilds the same
/// service by name on the far side of a socket.
pub fn square(cost_ms: f64) -> Arc<dyn Service> {
    Arc::new(FnService::new(
        "Square",
        vec![DataType::Int],
        DataType::Int,
        cost_ms,
        |args| {
            let v = args[0]
                .as_int()
                .ok_or_else(|| GridError::Execution("Square expects an Int".into()))?;
            Ok(Value::Int(v.saturating_mul(v)))
        },
    ))
}

/// A catalog holding exactly `tables`.
pub fn catalog(tables: &[&Arc<Table>]) -> Catalog {
    let mut catalog = Catalog::new();
    for table in tables {
        catalog.register(Arc::clone(table));
    }
    catalog
}

/// Result tuples as a sorted multiset of rendered value rows: what two
/// runs of one query must agree on. Sequence numbers are left out —
/// operators renumber them, so they differ between runs and substrates.
pub fn multiset(tuples: &[Tuple]) -> Vec<String> {
    let mut rows: Vec<String> = tuples.iter().map(|t| format!("{:?}", t.values())).collect();
    rows.sort_unstable();
    rows
}

/// A single-stage plan: `scans` (table, stream, per-tuple scan cost) on
/// node 0 feed `evaluators` clones of `factory` on nodes `1..=n`, split
/// uniformly — by weight, or over `bucket_count` hash buckets keyed on
/// column 0 of the build and probe streams.
pub fn single_stage_plan(
    query: u32,
    scans: &[(&str, StreamTag, f64)],
    factory: impl EvaluatorFactory + 'static,
    evaluators: usize,
    bucket_count: Option<u32>,
    buffer_tuples: usize,
) -> DistributedPlan {
    let initial = DistributionVector::uniform(evaluators);
    let routing = match bucket_count {
        None => RoutingPolicy::Weighted { initial },
        Some(bucket_count) => RoutingPolicy::HashBuckets {
            bucket_count,
            initial,
            keys: StreamKeys {
                build: Some(0),
                probe: Some(0),
                single: None,
            },
        },
    };
    DistributedPlan {
        query: QueryId::new(query),
        sources: scans
            .iter()
            .map(|&(table, stream, scan_cost_ms)| SourceSpec {
                table: table.to_string(),
                node: NodeId::new(0),
                stream,
                scan_cost_ms,
            })
            .collect(),
        stages: vec![ParallelStageSpec {
            id: SubplanId::new(1),
            factory: Arc::new(factory),
            nodes: (1..=evaluators as u32).map(NodeId::new).collect(),
            exchange: ExchangeSpec {
                routing,
                buffer_tuples,
            },
        }],
        collect_node: NodeId::new(0),
    }
}

/// The numbers of a [`call_plan`]; the default is the shape the chaos
/// matrix and the executors' tests run.
#[derive(Debug, Clone, PartialEq)]
pub struct CallShape {
    /// Evaluator partitions.
    pub evaluators: usize,
    /// Modelled cost of one `Square` call, ms.
    pub service_cost_ms: f64,
    /// Per-tuple scan cost at the data node, ms.
    pub scan_cost_ms: f64,
    /// Tuples per exchange buffer.
    pub buffer_tuples: usize,
}

impl Default for CallShape {
    fn default() -> Self {
        CallShape {
            evaluators: 2,
            service_cost_ms: 1.0,
            scan_cost_ms: 0.4,
            buffer_tuples: 10,
        }
    }
}

/// The Q1 shape: scan `table`, call `Square` on column 0, emit `sq`.
pub fn call_plan(table: &Table, shape: &CallShape) -> DistributedPlan {
    let factory = ServiceCallFactory::new(
        table.schema(),
        square(shape.service_cost_ms),
        vec![Expr::col(0)],
        "sq",
        false,
        ServiceRegistry::new(),
    );
    single_stage_plan(
        1,
        &[(table.name(), StreamTag::Single, shape.scan_cost_ms)],
        factory,
        shape.evaluators,
        None,
        shape.buffer_tuples,
    )
}

/// The numbers of a [`join_plan`]; the default is the shape the chaos
/// matrix and the executors' tests run.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinShape {
    /// Evaluator partitions.
    pub evaluators: usize,
    /// Modelled cost of inserting one build tuple, ms.
    pub build_cost_ms: f64,
    /// Modelled cost of probing with one tuple, ms.
    pub probe_cost_ms: f64,
    /// Per-tuple scan cost of the build and of the probe table, ms.
    pub scan_cost_ms: [f64; 2],
    /// Hash buckets of the exchange.
    pub bucket_count: u32,
    /// Tuples per exchange buffer.
    pub buffer_tuples: usize,
}

impl Default for JoinShape {
    fn default() -> Self {
        JoinShape {
            evaluators: 2,
            build_cost_ms: 0.1,
            probe_cost_ms: 0.5,
            scan_cost_ms: [0.1, 0.1],
            bucket_count: 16,
            buffer_tuples: 10,
        }
    }
}

/// The Q2 shape: `build` and `probe` hash-partitioned on column 0 into
/// an equi-join.
pub fn join_plan(build: &Table, probe: &Table, shape: &JoinShape) -> DistributedPlan {
    let factory = HashJoinFactory::new(
        build.schema(),
        probe.schema(),
        0,
        0,
        shape.build_cost_ms,
        shape.probe_cost_ms,
    );
    single_stage_plan(
        2,
        &[
            (build.name(), StreamTag::Build, shape.scan_cost_ms[0]),
            (probe.name(), StreamTag::Probe, shape.scan_cost_ms[1]),
        ],
        factory,
        shape.evaluators,
        Some(shape.bucket_count),
        shape.buffer_tuples,
    )
}
