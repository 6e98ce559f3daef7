//! # gridq — Adaptive Grid Query Processing
//!
//! A Rust reproduction of *"Adapting to Changing Resource Performance in
//! Grid Query Processing"* (Gounaris, Smith, Paton, Sakellariou, Fernandes,
//! Watson; VLDB DMG Workshop 2005): a distributed query processor whose
//! partitioned (intra-operator parallel) plans rebalance their tuple
//! workload at run time in response to changing node performance, for both
//! stateless and stateful operators.
//!
//! This umbrella crate re-exports the workspace crates:
//!
//! - [`common`] — ids, values, schemas, tuples, virtual time, RNG, stats.
//! - [`engine`] — iterator-model operators and plan representations.
//! - [`sql`] — a mini SQL front end for the paper's query class.
//! - [`recovery`] — checkpoint/acknowledgement recovery logs (the substrate
//!   for retrospective repartitioning).
//! - [`grid`] — Grid resource models: nodes, network, perturbations.
//! - [`adapt`] — the paper's contribution: monitoring events (M1/M2),
//!   `MonitoringEventDetector`, `Diagnoser` (A1/A2), `Responder` (R1/R2).
//! - [`sim`] — a deterministic discrete-event simulator that executes
//!   partitioned plans over the Grid models in virtual time.
//! - [`exec`] — a real multi-threaded executor running the same plans and
//!   the same adaptivity components against wall-clock time.
//! - [`obs`] — the observability layer: a shared metrics registry and the
//!   structured adaptivity timeline both substrates record into.
//! - [`workload`] — the paper's protein workloads (Q1/Q2) and experiment
//!   configurations.
//! - [`core`] — the `GridQueryProcessor` façade (GDQS equivalent):
//!   SQL → plan → schedule → adaptive execution.
//! - [`chaos`] — a deterministic fault-injection harness with invariant
//!   oracles (tuple/log conservation, recall safety, timeline causality,
//!   teardown hygiene), and the one harness (`Workload`, `Knobs`,
//!   `run_on`) that runs a query described once on the simulator, on
//!   threads and over sockets.
//!
//! ## Quickstart
//!
//! ```
//! use gridq::core::{GridQueryProcessor, ExecutionOptions};
//! use gridq::workload::demo_catalog;
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

pub use gridq_adapt as adapt;
pub use gridq_chaos as chaos;
pub use gridq_common as common;
pub use gridq_core as core;
pub use gridq_engine as engine;
pub use gridq_exec as exec;
pub use gridq_grid as grid;
pub use gridq_obs as obs;
pub use gridq_recovery as recovery;
pub use gridq_sim as sim;
pub use gridq_sql as sql;
pub use gridq_workload as workload;
