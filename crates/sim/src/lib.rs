#![warn(missing_docs)]

//! A deterministic discrete-event simulator for distributed query
//! execution on the Grid.
//!
//! The paper evaluates its adaptivity architecture on three real machines
//! running Globus/OGSA-DQP; this crate substitutes that testbed with a
//! virtual-time simulation that preserves the behaviours the experiments
//! measure:
//!
//! - **pipelined parallelism** — source scans stream tuples through
//!   exchanges into the partitioned stage while it processes;
//!   "the incoming queues within exchanges can fit the complete dataset";
//! - **per-tuple costs** — processing cost scales with the hosting node's
//!   speed, perturbation schedule, and a small noise term;
//! - **buffered communication** — tuples travel in buffers whose
//!   transmission cost follows the network model and is reported in M2
//!   notifications;
//! - **checkpoint/acknowledgement recovery logs** at every exchange
//!   producer (the substrate for retrospective adaptation);
//! - **the adaptivity loop** — self-monitoring events feed per-node
//!   MonitoringEventDetectors; filtered updates travel (with control
//!   latency) to the Diagnoser; accepted proposals are deployed by the
//!   Responder either prospectively (R2) or retrospectively (R1, with
//!   queue/state migration and log management costs).
//!
//! Execution is fully deterministic given the configuration seed.

pub mod config;
pub mod events;
pub mod exec;

pub use config::SimulationConfig;
pub use exec::Simulation;
pub use gridq_obs::RunReport;
