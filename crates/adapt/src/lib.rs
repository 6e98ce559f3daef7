#![warn(missing_docs)]

//! The adaptivity architecture — the paper's primary contribution.
//!
//! Adaptive query evaluation services (AGQESs) extend the static query
//! engine with three loosely-coupled components that separate the
//! *monitoring*, *assessment*, and *response* stages of an adaptation:
//!
//! 1. The self-monitoring query engine emits raw notifications:
//!    [`M1`] (per-tuple processing cost, leaf wait time, selectivity —
//!    one per `monitoring_interval` tuples produced) and [`M2`]
//!    (per-buffer communication cost — one per buffer sent).
//! 2. A [`MonitoringEventDetector`] on each node groups these by operator
//!    (M1) and by producer/recipient pair (M2), maintains a running
//!    average over a bounded window *discarding the minimum and maximum*,
//!    and notifies subscribed Diagnosers only when the average moves by
//!    more than [`THRES_M`].
//! 3. The [`Diagnoser`] knows the current distribution vector `W` and the
//!    smoothed per-partition costs `c(p_i)`; under assessment policy
//!    [`AssessmentPolicy::A1`] it uses processing costs alone, under
//!    [`AssessmentPolicy::A2`] it adds the communication cost of
//!    delivering tuples to each partition. It proposes the balanced
//!    vector `W'` with `w'_i ∝ 1/c(p_i)` and notifies the Responder when
//!    some component of `W'` differs from `W` by more than `thres_a`.
//! 4. The [`Responder`] gates proposals on query progress (adapting a
//!    nearly-finished query cannot pay for itself) and on a cooldown
//!    ([`COOLDOWN_MS`]), and issues an [`AdaptationCommand`] that either
//!    only redirects future tuples ([`ResponsePolicy::R2`],
//!    *prospective*) or additionally
//!    recalls and redistributes the unacknowledged tuples in the
//!    producers' recovery logs ([`ResponsePolicy::R1`], *retrospective* —
//!    mandatory for stateful operators).
//!
//! All components are pure state machines driven by explicit timestamps,
//! so the same code runs against the virtual-time simulator and the
//! wall-clock threaded executor. The substrates carry the
//! notifications between them: the simulator through its event queue,
//! the threaded executor over an `mpsc` channel.

pub mod config;
pub mod detector;
pub mod diagnoser;
pub mod notifications;
pub mod responder;

pub use config::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy, COOLDOWN_MS, THRES_M};
pub use detector::{CommUpdate, CostUpdate, DetectorOutput, MonitoringEventDetector};
pub use diagnoser::{Diagnoser, Imbalance};
pub use notifications::{ProducerId, M1, M2};
pub use responder::{AdaptationCommand, Responder, ResponderDecision};
