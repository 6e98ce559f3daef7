#![warn(missing_docs)]

//! The query engine: expressions, in-memory tables, iterator-model
//! physical operators, logical plans, and the partitioned/distributed plan
//! representation evaluated by the simulator and the threaded executor.
//!
//! The engine follows the iterator (Volcano) pipelining model of the
//! OGSA-DQP evaluation services: every operator exposes
//! [`ops::Operator::next`], and data communication between plan fragments
//! is encapsulated in *exchange* boundaries described by
//! [`distributed::ExchangeSpec`]. [`fixtures`] holds the small tables,
//! the `Square` service and the two single-stage plan shapes that every
//! substrate's tests and the chaos harness share.

pub mod distributed;
pub mod evaluator;
pub mod expr;
pub mod fixtures;
pub mod logical;
pub mod ops;
pub mod physical;
pub mod service;
pub mod table;

pub use distributed::{
    DistributedPlan, ExchangeSpec, ParallelStageSpec, RoutingPolicy, SourceSpec,
};
pub use evaluator::{EvaluatorFactory, PartitionEvaluator, StreamTag};
pub use expr::Expr;
pub use logical::LogicalPlan;
pub use physical::Catalog;
pub use service::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats, FnService, Service,
    ServiceRegistry,
};
pub use table::Table;
