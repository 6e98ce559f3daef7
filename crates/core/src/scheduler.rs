//! The scheduler: partitioning a logical plan across Grid resources.
//!
//! Mirrors the role of the GDQS optimiser: it consults the resource
//! registry for candidate machines, places scans on data nodes, and
//! partitions the expensive operator (operation call or hash join) across
//! the selected evaluation nodes — the intra-operator parallelism whose
//! balance the adaptivity architecture then maintains at run time.

use std::sync::Arc;

use gridq_common::{DistributionVector, GridError, NodeId, QueryId, Result, SubplanId};
use gridq_engine::distributed::{
    DistributedPlan, ExchangeSpec, ParallelStageSpec, RoutingPolicy, SourceSpec, StreamKeys,
};
use gridq_engine::evaluator::{FilterMapFactory, HashJoinFactory, ServiceCallFactory, StreamTag};
use gridq_engine::service::ServiceRegistry;
use gridq_engine::LogicalPlan;
use gridq_grid::ResourceRegistry;

/// Per-tuple scan cost at data nodes, ms.
const SCAN_COST_MS: f64 = 1.0;
/// Base per-tuple hash-join build cost, ms.
const JOIN_BUILD_COST_MS: f64 = 2.0;
/// Base per-tuple hash-join probe cost, ms.
const JOIN_PROBE_COST_MS: f64 = 4.0;
/// Base per-tuple cost of filter/project stages, ms.
const MAP_COST_MS: f64 = 0.5;
/// Tuples per exchange buffer.
const BUFFER_TUPLES: usize = 100;
/// Hash buckets for stateful exchanges (at least one per partition).
const BUCKET_COUNT: u32 = 64;

/// The data node holding the base tables, and every registered compute
/// node to partition the expensive operator across.
fn pick_nodes(registry: &ResourceRegistry) -> Result<(NodeId, Vec<NodeId>)> {
    let data_node = registry
        .data_nodes()
        .first()
        .map(|n| n.id)
        .ok_or_else(|| GridError::Schedule("no data node registered".into()))?;
    let available = registry.nodes().iter().filter(|n| !n.hosts_data).count();
    if available == 0 {
        return Err(GridError::Schedule("no compute nodes registered".into()));
    }
    let picked = registry.select_compute_nodes(available)?;
    Ok((data_node, picked.iter().map(|n| n.id).collect()))
}

/// Schedules a logical plan onto the Grid, producing a partitioned
/// distributed plan over every compute node.
///
/// Supported shapes (the paper's query class):
/// - `Call(Scan)` — Q1: the operation call is partitioned (weighted
///   routing, stateless).
/// - `Project(Join(Scan, Scan))` and bare `Join(Scan, Scan)` — Q2: the
///   hash join is partitioned (hash-bucket routing, stateful; any
///   projection is pushed into the join partitions).
/// - `Filter(Scan)` / `Project(Scan)` / `Project(Filter(Scan))` — the
///   filter/projection pipeline is partitioned (weighted, stateless).
///
/// Other shapes are rejected with a `Schedule` error; execute them
/// locally via [`gridq_engine::physical::execute_local`].
pub fn schedule(
    query: QueryId,
    plan: &LogicalPlan,
    registry: &ResourceRegistry,
    services: &ServiceRegistry,
) -> Result<DistributedPlan> {
    let (data_node, eval_nodes) = pick_nodes(registry)?;
    let parallelism = eval_nodes.len();
    let stage_id = SubplanId::new(1);

    match plan {
        LogicalPlan::Call {
            input,
            service,
            args,
            output_name,
            keep_input,
            ..
        } => {
            let LogicalPlan::Scan { table, schema, .. } = input.as_ref() else {
                return Err(GridError::Schedule(
                    "operation calls are schedulable over a single scan".into(),
                ));
            };
            let svc = Arc::clone(services.get(service)?);
            let factory = ServiceCallFactory::new(
                schema,
                svc,
                args.clone(),
                output_name,
                *keep_input,
                services.clone(),
            );
            Ok(DistributedPlan {
                query,
                sources: vec![SourceSpec {
                    table: table.clone(),
                    node: data_node,
                    stream: StreamTag::Single,
                    scan_cost_ms: SCAN_COST_MS,
                }],
                stages: vec![ParallelStageSpec {
                    id: stage_id,
                    factory: Arc::new(factory),
                    nodes: eval_nodes,
                    exchange: ExchangeSpec {
                        routing: RoutingPolicy::Weighted {
                            initial: DistributionVector::uniform(parallelism),
                        },
                        buffer_tuples: BUFFER_TUPLES,
                    },
                }],
                collect_node: data_node,
            })
        }
        LogicalPlan::Join { .. } => {
            schedule_join(query, plan, None, data_node, eval_nodes, services)
        }
        LogicalPlan::Project {
            input,
            exprs,
            fields,
        } if matches!(input.as_ref(), LogicalPlan::Join { .. }) => schedule_join(
            query,
            input,
            Some((exprs.clone(), fields.clone())),
            data_node,
            eval_nodes,
            services,
        ),
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => {
            schedule_map(query, plan, data_node, eval_nodes, services)
        }
        LogicalPlan::Scan { .. } => Err(GridError::Schedule(
            "bare scans have no partitionable operator; run locally".into(),
        )),
    }
}

fn schedule_join(
    query: QueryId,
    join: &LogicalPlan,
    projection: Option<(Vec<gridq_engine::Expr>, Vec<gridq_common::Field>)>,
    data_node: NodeId,
    eval_nodes: Vec<NodeId>,
    services: &ServiceRegistry,
) -> Result<DistributedPlan> {
    let LogicalPlan::Join {
        left,
        right,
        left_key,
        right_key,
    } = join
    else {
        unreachable!("caller matched Join");
    };
    let (
        LogicalPlan::Scan {
            table: left_table,
            schema: left_schema,
            ..
        },
        LogicalPlan::Scan {
            table: right_table,
            schema: right_schema,
            ..
        },
    ) = (left.as_ref(), right.as_ref())
    else {
        return Err(GridError::Schedule(
            "joins are schedulable over two base-table scans".into(),
        ));
    };
    let parallelism = eval_nodes.len();
    let mut factory = HashJoinFactory::new(
        left_schema,
        right_schema,
        *left_key,
        *right_key,
        JOIN_BUILD_COST_MS,
        JOIN_PROBE_COST_MS,
    );
    if let Some((exprs, fields)) = projection {
        factory = factory.with_projection(exprs, fields, services.clone());
    }
    let bucket_count = BUCKET_COUNT.max(parallelism as u32);
    Ok(DistributedPlan {
        query,
        sources: vec![
            SourceSpec {
                table: left_table.clone(),
                node: data_node,
                stream: StreamTag::Build,
                scan_cost_ms: SCAN_COST_MS,
            },
            SourceSpec {
                table: right_table.clone(),
                node: data_node,
                stream: StreamTag::Probe,
                scan_cost_ms: SCAN_COST_MS,
            },
        ],
        stages: vec![ParallelStageSpec {
            id: SubplanId::new(1),
            factory: Arc::new(factory),
            nodes: eval_nodes,
            exchange: ExchangeSpec {
                routing: RoutingPolicy::HashBuckets {
                    bucket_count,
                    initial: DistributionVector::uniform(parallelism),
                    keys: StreamKeys {
                        build: Some(*left_key),
                        probe: Some(*right_key),
                        single: None,
                    },
                },
                buffer_tuples: BUFFER_TUPLES,
            },
        }],
        collect_node: data_node,
    })
}

fn schedule_map(
    query: QueryId,
    plan: &LogicalPlan,
    data_node: NodeId,
    eval_nodes: Vec<NodeId>,
    services: &ServiceRegistry,
) -> Result<DistributedPlan> {
    // Accepted pipelines over one scan: Filter(Scan), Project(Scan),
    // Project(Filter(Scan)).
    let (projection, below) = match plan {
        LogicalPlan::Project {
            input,
            exprs,
            fields,
        } => (Some((exprs.clone(), fields.clone())), input.as_ref()),
        other => (None, other),
    };
    let (predicate, scan) = match below {
        LogicalPlan::Filter { input, predicate } => (Some(predicate.clone()), input.as_ref()),
        other => (None, other),
    };
    let LogicalPlan::Scan { table, schema, .. } = scan else {
        return Err(GridError::Schedule(
            "filter/projection pipelines are schedulable over a single scan".into(),
        ));
    };
    let parallelism = eval_nodes.len();
    let factory =
        FilterMapFactory::new(schema, predicate, projection, MAP_COST_MS, services.clone());
    Ok(DistributedPlan {
        query,
        sources: vec![SourceSpec {
            table: table.clone(),
            node: data_node,
            stream: StreamTag::Single,
            scan_cost_ms: SCAN_COST_MS,
        }],
        stages: vec![ParallelStageSpec {
            id: SubplanId::new(1),
            factory: Arc::new(factory),
            nodes: eval_nodes,
            exchange: ExchangeSpec {
                routing: RoutingPolicy::Weighted {
                    initial: DistributionVector::uniform(parallelism),
                },
                buffer_tuples: BUFFER_TUPLES,
            },
        }],
        collect_node: data_node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::{DataType, Field, Schema};
    use gridq_engine::service::FnService;
    use gridq_engine::Expr;
    use gridq_grid::NodeSpec;

    fn registry(computes: usize) -> ResourceRegistry {
        let mut r = ResourceRegistry::new();
        r.register(NodeSpec::data(NodeId::new(0), "store")).unwrap();
        for i in 0..computes {
            r.register(NodeSpec::compute(
                NodeId::new(i as u32 + 1),
                format!("c{i}"),
            ))
            .unwrap();
        }
        r
    }

    fn services() -> ServiceRegistry {
        let mut s = ServiceRegistry::new();
        s.register(Arc::new(FnService::new(
            "F",
            vec![DataType::Str],
            DataType::Float,
            1.0,
            |_| Ok(gridq_common::Value::Float(0.0)),
        )));
        s
    }

    fn scan(table: &str, cols: &[(&str, DataType)]) -> LogicalPlan {
        let fields = cols
            .iter()
            .map(|(c, t)| Field::new(format!("{table}.{c}"), *t))
            .collect();
        LogicalPlan::Scan {
            table: table.into(),
            alias: table.into(),
            schema: Schema::new(fields),
        }
    }

    #[test]
    fn schedules_call_over_scan() {
        let plan = LogicalPlan::Call {
            input: Box::new(scan("t", &[("s", DataType::Str)])),
            service: "F".into(),
            args: vec![Expr::col(0)],
            output_name: "f".into(),
            keep_input: false,
            schema: Schema::new(vec![Field::new("f", DataType::Float)]),
        };
        let dp = schedule(QueryId::new(1), &plan, &registry(3), &services()).unwrap();
        assert_eq!(dp.sources.len(), 1);
        assert_eq!(dp.stages[0].nodes.len(), 3);
        assert!(matches!(
            dp.stages[0].exchange.routing,
            RoutingPolicy::Weighted { .. }
        ));
        dp.validate().unwrap();
    }

    #[test]
    fn schedules_projected_join() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("p", &[("orf", DataType::Str)])),
            right: Box::new(scan(
                "i",
                &[("orf1", DataType::Str), ("orf2", DataType::Str)],
            )),
            left_key: 0,
            right_key: 0,
        };
        let plan = LogicalPlan::Project {
            input: Box::new(join),
            exprs: vec![Expr::col(2)],
            fields: vec![Field::new("orf2", DataType::Str)],
        };
        let dp = schedule(QueryId::new(2), &plan, &registry(2), &services()).unwrap();
        assert_eq!(dp.sources.len(), 2);
        assert!(dp.stages[0].factory.stateful());
        assert_eq!(dp.stages[0].factory.schema().len(), 1);
        assert!(matches!(
            dp.stages[0].exchange.routing,
            RoutingPolicy::HashBuckets { .. }
        ));
        dp.validate().unwrap();
    }

    #[test]
    fn schedules_filter_pipeline() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("t", &[("x", DataType::Int)])),
            predicate: Expr::col(0).eq(Expr::lit(1i64)),
        };
        let dp = schedule(QueryId::new(3), &plan, &registry(2), &services()).unwrap();
        assert!(!dp.stages[0].factory.stateful());
    }

    #[test]
    fn unsupported_shapes_rejected() {
        let bare = scan("t", &[("x", DataType::Int)]);
        assert!(schedule(QueryId::new(4), &bare, &registry(2), &services()).is_err());
    }

    #[test]
    fn missing_resources_rejected() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("t", &[("x", DataType::Int)])),
            predicate: Expr::lit(true),
        };
        // No compute nodes.
        let mut only_data = ResourceRegistry::new();
        only_data
            .register(NodeSpec::data(NodeId::new(0), "store"))
            .unwrap();
        assert!(schedule(QueryId::new(5), &plan, &only_data, &services()).is_err());
        // No data node.
        let mut only_compute = ResourceRegistry::new();
        only_compute
            .register(NodeSpec::compute(NodeId::new(1), "c"))
            .unwrap();
        assert!(schedule(QueryId::new(6), &plan, &only_compute, &services()).is_err());
    }
}
