#![warn(missing_docs)]

//! Foundation types shared by every `gridq` crate.
//!
//! This crate deliberately has no dependencies: it defines identifiers,
//! virtual time, relational values/schemas/tuples, deterministic random
//! number generation, error types, and the windowed statistics used by the
//! adaptivity components of the paper (running averages over a bounded
//! window with the minimum and maximum samples discarded).

pub mod cast;
pub mod chaos;
pub mod check;
pub mod dist;
pub mod error;
pub mod ids;
pub mod obs;
pub mod report;
pub mod rng;
pub mod schema;
pub mod stats;
pub mod sync;
pub mod time;
pub mod tuple;
pub mod value;
pub mod wire;

pub use chaos::{ChaosHook, NetAction, NotifyKind, NullChaos, RecallPhase, StallSite};
pub use dist::{BucketMap, BucketMove, DistributionVector};
pub use error::{GridError, Result};
pub use ids::{BucketId, NodeId, OperatorId, PartitionId, QueryId, SubplanId};
pub use obs::{Journal, MetricSink, NullSink, TimelineKind};
pub use report::{DeliveryGap, LogAudit, LoopCounts};
pub use rng::DetRng;
pub use schema::{DataType, Field, Schema};
pub use stats::TrimmedWindow;
pub use time::SimTime;
pub use tuple::Tuple;
pub use value::Value;
