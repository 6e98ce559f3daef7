#![warn(missing_docs)]

//! Observability for the adaptivity control loop.
//!
//! The paper's contribution is a *self-monitoring* control loop
//! (M1/M2 → MonitoringEventDetector → Diagnoser → Responder), but the
//! loop itself needs observing: when an adaptation fires late, never
//! fires, or oscillates, counters scattered across components are not
//! enough to tell why. This crate provides the dedicated instrumentation
//! layer, offline-first like the rest of the workspace (no external
//! dependencies):
//!
//! - [`MetricsRegistry`] — named atomic counters, gauges, and
//!   fixed-bucket histograms, shared via `Arc` so the producer, consumer,
//!   and adaptivity threads of `gridq-exec` and the virtual-time loop of
//!   `gridq-sim` record into the same registry. It implements
//!   [`gridq_common::obs::MetricSink`], the trait hook the instrumented
//!   adaptivity components record through.
//! - [`Timeline`] — a bounded, append-only structured event journal
//!   capturing every hop of the control loop: raw M1/M2 received,
//!   detector gate fire/suppress with window state, diagnosis with the
//!   proposed `W'` and per-partition costs `c(p_i)`, responder
//!   accept/decline reason, and deployment into the router. Events carry
//!   sequence numbers and causal back-references (`raw_seq`,
//!   `notify_seq`, `diagnosis_seq`) so a deployed adaptation is traceable
//!   back to the raw monitoring events that triggered it.
//! - [`ObsReport`] — a snapshot of both, exportable as JSON lines (one
//!   metrics line followed by one line per timeline event). The
//!   [`json`] module includes a minimal parser used by tests and CI to
//!   keep the export format honest.
//! - [`RunReport`] — what one run measured, in one shape on every
//!   substrate; its `obs` field is the snapshot above.

pub mod json;
pub mod registry;
pub mod timeline;

use std::sync::Arc;

use gridq_common::obs::{Journal, MetricSink};
use gridq_common::{DeliveryGap, GridError, LogAudit, LoopCounts, Result, SimTime, Tuple};

pub use json::Json;
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use timeline::{Timeline, TimelineEvent, TimelineKind};

/// Configuration of the observability layer for one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. When false, executions skip snapshot export (the
    /// report's `obs` field stays `None`).
    pub enabled: bool,
    /// Maximum number of timeline events retained. When the journal is
    /// full the *oldest* events are evicted (and counted as dropped) so
    /// that the most recent control-loop activity is always visible.
    pub timeline_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            timeline_capacity: 16_384,
        }
    }
}

impl ObsConfig {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.enabled && self.timeline_capacity == 0 {
            return Err(GridError::Config(
                "obs timeline capacity must be positive when obs is enabled".into(),
            ));
        }
        Ok(())
    }

    /// A disabled configuration.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            ..Default::default()
        }
    }
}

/// The shared observability context of one execution: a metrics registry
/// plus an adaptivity timeline. Cloning shares the same underlying
/// storage (both members are `Arc`s), which is how the threads of an
/// execution record into one place.
#[derive(Debug, Clone)]
pub struct Obs {
    metrics: Arc<MetricsRegistry>,
    timeline: Arc<Timeline>,
}

impl Obs {
    /// Creates a fresh context with the given timeline capacity.
    pub fn new(timeline_capacity: usize) -> Self {
        Obs {
            metrics: Arc::new(MetricsRegistry::new()),
            timeline: Arc::new(Timeline::new(timeline_capacity)),
        }
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The shared adaptivity timeline.
    pub fn timeline(&self) -> &Arc<Timeline> {
        &self.timeline
    }

    /// The registry as a [`MetricSink`] trait object, for attaching to
    /// instrumented components.
    pub fn sink(&self) -> Arc<dyn MetricSink> {
        Arc::clone(&self.metrics) as Arc<dyn MetricSink>
    }

    /// Records a timeline event, returning its sequence number.
    pub fn record(&self, at_ms: f64, wall_ms: Option<f64>, kind: TimelineKind) -> u64 {
        self.timeline.record(at_ms, wall_ms, kind)
    }

    /// Snapshots both the registry and the timeline into an exportable
    /// report.
    pub fn report(&self) -> ObsReport {
        let (events, dropped_events) = self.timeline.snapshot();
        ObsReport {
            metrics: self.metrics.snapshot(),
            events,
            dropped_events,
        }
    }
}

/// Records in model time only, as the simulator has no other clock.
impl Journal for Obs {
    fn record(&self, at: SimTime, kind: TimelineKind) -> u64 {
        self.timeline.record(at.as_millis(), None, kind)
    }
}

/// An exportable snapshot of one execution's observability state: the
/// [`RunReport::obs`] of every substrate that keeps a timeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Counter/gauge/histogram values at snapshot time.
    pub metrics: MetricsSnapshot,
    /// The retained adaptivity timeline, oldest first.
    pub events: Vec<TimelineEvent>,
    /// Timeline events evicted because the journal was full.
    pub dropped_events: u64,
}

impl ObsReport {
    /// Serializes the report as JSON lines: one `"metrics"` line followed
    /// by one line per timeline event. Every line is a self-contained
    /// JSON object with a `"kind"` discriminator.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 128);
        out.push_str(&self.metrics.to_json_line(self.dropped_events));
        out.push('\n');
        for event in &self.events {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// What one run of a query measured, in the same shape on every
/// substrate: the simulator, threads and sockets.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Response time, ms: wall-clock on threads and sockets, virtual on
    /// the simulator.
    pub wall_ms: f64,
    /// Result tuples collected (on the simulator only when its
    /// configuration asks for them).
    pub results: Vec<Tuple>,
    /// Result tuples delivered to the collector, collected or not.
    pub tuples_output: u64,
    /// Input tuples processed per partition (replayed or migrated tuples
    /// count at every partition that processed them).
    pub per_partition_processed: Vec<u64>,
    /// Raw M1 events the control loop received.
    pub raw_m1_events: u64,
    /// Raw M2 events the control loop received.
    pub raw_m2_events: u64,
    /// Detector notifications that reached the Diagnoser.
    pub detector_notifications: u64,
    /// Imbalances the Diagnoser proposed.
    pub imbalances_reported: u64,
    /// Adaptations deployed into the router.
    pub adaptations_deployed: u64,
    /// Proposals declined because the query was near completion.
    pub declined_near_completion: u64,
    /// Proposals declined during the post-adaptation cooldown.
    pub declined_cooldown: u64,
    /// Evaluator partitions that died.
    pub nodes_failed: u64,
    /// Failovers that moved a dead partition's work to the survivors.
    pub failovers_completed: u64,
    /// Recovery-log entries those failovers replayed.
    pub tuples_replayed: u64,
    /// Deploys attributed to a co-tenant's load (service plane only).
    pub tenant_rebalances: u64,
    /// Recalls that ran the full drain-migrate-resume protocol.
    pub recalls_completed: u64,
    /// Recalls abandoned before or during deploying.
    pub recalls_aborted: u64,
    /// Operator-state tuples shipped between partitions by recalls.
    pub state_tuples_migrated: u64,
    /// In-flight tuples re-routed by recalls and redistributions.
    pub tuples_recalled: u64,
    /// Always 0: a producer ends its stream on acknowledgements and
    /// deaths, and never retransmits a window. Kept because the engine
    /// benchmark names it.
    pub tuples_retransmitted: u64,
    /// Windows written off because their destination died with failover
    /// off, one per (source, dest) edge; the query completes anyway.
    pub delivery_gaps: Vec<DeliveryGap>,
    /// Tuples whose block push failed because the consumer was gone.
    pub send_failures: u64,
    /// Conservation audit of each source's recovery log, indexed like
    /// the plan's sources.
    pub log_audits: Vec<LogAudit>,
    /// High-water mark of live consumer dedup-filter entries, maximised
    /// over partitions: bounded by the unacknowledged windows, not by
    /// the input size.
    pub dedup_peak_entries: u64,
    /// The final routing distribution.
    pub final_distribution: Vec<f64>,
    /// Observability snapshot; `None` with obs off, and on sockets.
    pub obs: Option<ObsReport>,
    /// Always 0: a dropped socket connection is its worker's death, and
    /// nothing reconnects. Kept only because the `benchmark/` workspace
    /// names it.
    pub reconnects: u64,
    /// Blocks recalls and failovers moved outside the data plane, each
    /// at most `buffer_tuples` long: a recall costs at most
    /// 2·(⌈moved / `buffer_tuples`⌉ + partitions) of them.
    pub recall_blocks: u64,
    /// The largest frame payload a worker connection carried, either way,
    /// bytes (sockets): bounded by one block of tuples.
    pub largest_frame_bytes: u64,
}

impl RunReport {
    /// Copies the control loop's counts — the one place a report takes
    /// them from.
    pub fn count_loop(&mut self, counts: LoopCounts) {
        self.raw_m1_events = counts.raw_m1;
        self.raw_m2_events = counts.raw_m2;
        self.detector_notifications = counts.notifications;
        self.imbalances_reported = counts.diagnoses;
        self.adaptations_deployed = counts.deploys;
        self.declined_near_completion = counts.declined_near_completion;
        self.declined_cooldown = counts.declined_cooldown;
        self.nodes_failed = counts.node_downs;
        self.failovers_completed = counts.failovers;
        self.tuples_replayed = counts.replayed;
    }

    /// The ratio between the largest and smallest per-partition processed
    /// counts (1.0 = perfectly balanced); `None` when a partition
    /// processed nothing.
    pub fn balance_ratio(&self) -> Option<f64> {
        let max = *self.per_partition_processed.iter().max()?;
        let min = *self.per_partition_processed.iter().min()?;
        (min > 0).then(|| max as f64 / min as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_ratio() {
        let r = RunReport {
            per_partition_processed: vec![100, 121],
            ..Default::default()
        };
        assert!((r.balance_ratio().unwrap() - 1.21).abs() < 1e-12);
        let zero = RunReport {
            per_partition_processed: vec![10, 0],
            ..Default::default()
        };
        assert_eq!(zero.balance_ratio(), None);
        assert_eq!(RunReport::default().balance_ratio(), None);
    }

    #[test]
    fn obs_config_validation() {
        assert!(ObsConfig::default().validate().is_ok());
        assert!(ObsConfig::disabled().validate().is_ok());
        let bad = ObsConfig {
            enabled: true,
            timeline_capacity: 0,
        };
        assert!(bad.validate().is_err());
        // A zero capacity is fine while disabled.
        let off = ObsConfig {
            enabled: false,
            timeline_capacity: 0,
        };
        assert!(off.validate().is_ok());
    }

    #[test]
    fn report_json_lines_parse_and_roundtrip_kinds() {
        let obs = Obs::new(16);
        obs.sink().incr("detector.raw_events", 3);
        obs.sink().set_gauge("adapt.tracked_streams", 2.0);
        obs.sink().observe("detector.m1_cost_ms", 1.5);
        let raw = obs.record(
            1.0,
            None,
            TimelineKind::RawM1 {
                partition: "sp1.0".into(),
                node: "n1".into(),
                cost_per_tuple_ms: 5.0,
                leaf_wait_ms: 0.0,
                gate_fired: true,
            },
        );
        let notify = obs.record(
            1.0,
            None,
            TimelineKind::DetectorNotify {
                scope: "sp1.0".into(),
                avg_cost_ms: 5.0,
                window_len: 1,
                raw_seq: raw,
            },
        );
        let diag = obs.record(
            2.0,
            None,
            TimelineKind::Diagnosis {
                stage: "sp1".into(),
                proposed: vec![0.9, 0.1],
                costs: vec![1.0, 9.0],
                notify_seq: notify,
            },
        );
        obs.record(
            2.0,
            Some(0.5),
            TimelineKind::ResponderDecision {
                decision: "accepted".into(),
                progress: 0.5,
                diagnosis_seq: diag,
            },
        );
        obs.record(
            3.0,
            None,
            TimelineKind::Deploy {
                stage: "sp1".into(),
                weights: vec![0.9, 0.1],
                retrospective: false,
                diagnosis_seq: diag,
            },
        );
        let report = obs.report();
        let text = report.to_json_lines();
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 6);
        let metrics = Json::parse(lines[0]).unwrap();
        assert_eq!(
            metrics.get("kind").and_then(Json::as_str),
            Some("metrics"),
            "first line is the registry snapshot"
        );
        assert_eq!(
            metrics
                .get("counters")
                .and_then(|c| c.get("detector.raw_events"))
                .and_then(Json::as_u64),
            Some(3)
        );
        for line in &lines[1..] {
            let obj = Json::parse(line).unwrap();
            assert!(obj.get("kind").and_then(Json::as_str).is_some());
            assert!(obj.get("seq").and_then(Json::as_u64).is_some());
        }
        // The deploy line links back to the diagnosis.
        let deploy = Json::parse(lines[5]).unwrap();
        assert_eq!(deploy.get("kind").and_then(Json::as_str), Some("deploy"));
        assert_eq!(
            deploy.get("diagnosis_seq").and_then(Json::as_u64),
            Some(diag)
        );
    }
}
