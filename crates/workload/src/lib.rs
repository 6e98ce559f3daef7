#![warn(missing_docs)]

//! Workloads: the paper's demo database and experiment configurations.
//!
//! The experiments use two tables from the OGSA-DQP demo database —
//! `protein_sequences` (3000 fixed-length tuples in the experiments) and
//! `protein_interactions` (4700 tuples) — plus the `EntropyAnalyser` web
//! service. This crate generates synthetic equivalents with the same
//! cardinalities and shapes, implements a real Shannon-entropy analyser,
//! and packages the two benchmark queries:
//!
//! - **Q1**: `select EntropyAnalyser(p.sequence) from protein_sequences p`
//!   — computation-intensive, partitioned operation call.
//! - **Q2**: `select i.ORF2 from protein_sequences p, protein_interactions
//!   i where i.ORF1 = p.ORF` — a partitioned hash join.

pub mod data;
pub mod entropy;
pub mod experiments;

pub use data::{demo_catalog, protein_interactions, protein_sequences};
pub use entropy::{shannon_entropy, EntropyAnalyser};
pub use experiments::{Q1Experiment, Q2Experiment};
