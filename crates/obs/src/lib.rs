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

pub mod json;
pub mod registry;
pub mod timeline;

use std::sync::Arc;

use gridq_common::obs::MetricSink;
use gridq_common::{GridError, Result};

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

/// An exportable snapshot of one execution's observability state, carried
/// on `ExecutionReport`/`ThreadedReport`.
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

#[cfg(test)]
mod tests {
    use super::*;

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
