#![warn(missing_docs)]

//! The benchmark's own arithmetic and names.
//!
//! Everything that reads a clock, touches `/proc`, runs an executor or
//! prints lives in the `gridq-benchmark` binary (`src/bin/`); this
//! library holds only what can be tested on fixed inputs: order
//! statistics, the result-multiset digest, span self-time subtraction,
//! the null-cost bound, `/proc` text parsing, and the catalogue of
//! workload and metric names that `BENCHMARK.json` is generated from.

pub mod catalogue;
pub mod digest;
pub mod nullcost;
pub mod procfs;
pub mod spans;
pub mod stats;
