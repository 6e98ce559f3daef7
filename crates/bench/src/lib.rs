#![warn(missing_docs)]

//! The reproduction harness: one runner per table/figure of the paper's
//! evaluation (§3.2), run by the `repro` binary.
//!
//! Each runner executes the relevant experiment configurations on the
//! virtual-time simulator and reports response times *normalised to the
//! unperturbed static system*, exactly as the paper does ("the results
//! are normalised, so that the response time corresponding to
//! no ad / no imb is set to 1 unit for each query").

pub mod runners;

pub use runners::{Cell, Series};
