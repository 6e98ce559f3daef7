#![warn(missing_docs)]

//! The distributed query service façade — the GDQS of the paper.
//!
//! A [`GridQueryProcessor`] owns the resource registry, metadata catalog,
//! and service registry; accepts SQL; parses and binds it (via
//! `gridq-sql`); schedules the logical plan over the available Grid
//! nodes with intra-operator parallelism (via [`scheduler`]); and
//! executes the partitioned plan on the virtual-time Grid with the
//! adaptivity components attached (via `gridq-sim`).
//!
//! ```
//! use gridq_core::{ExecutionOptions, GridQueryProcessor};
//! use gridq_workload::demo_catalog;
//!
//! let mut qp = GridQueryProcessor::with_demo_grid(2);
//! qp.register_catalog(demo_catalog(300, 470, 64, 42));
//! let report = qp
//!     .run_sql(
//!         "select EntropyAnalyser(p.sequence) from protein_sequences p",
//!         ExecutionOptions::default(),
//!     )
//!     .expect("query runs");
//! assert_eq!(report.tuples_output, 300);
//! ```

pub mod processor;
pub mod scheduler;

pub use processor::{ExecutionOptions, GridQueryProcessor};
pub use scheduler::schedule;
