//! Adaptivity configuration.

use gridq_common::{GridError, Result};

/// How the Diagnoser computes the cost per tuple `c(p_i)` of a subplan
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssessmentPolicy {
    /// Only M1 processing costs. Assumes communication overlaps with
    /// processing under pipelined parallelism (the paper finds this holds
    /// in its experiments and A1 makes the better repartitioning
    /// decisions there).
    #[default]
    A1,
    /// M1 processing costs plus the M2 communication cost of delivering
    /// tuples to the partition (same-machine delivery costs zero).
    A2,
}

/// How the Responder deploys a new distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResponsePolicy {
    /// Prospective: only tuples not yet routed follow the new
    /// distribution. Cheap, but tuples already sent to a slow node stay
    /// there; insufficient for stateful operators.
    #[default]
    R2,
    /// Retrospective: tuples still in the producers' recovery logs are
    /// recalled and redistributed, recreating operator state on the new
    /// owners. Higher overhead, better balance under large
    /// perturbations, and required for correct stateful repartitioning.
    R1,
}

/// The paper's `thresM`: relative change of a stream's windowed average
/// needed before the [`MonitoringEventDetector`] notifies the Diagnoser
/// (20 %). Fixed in the paper, and no experiment here varies it.
///
/// [`MonitoringEventDetector`]: crate::MonitoringEventDetector
pub const THRES_M: f64 = 0.2;

/// Minimum model-time between two adaptations of one query, in
/// milliseconds: the [`Responder`](crate::Responder) declines a proposal
/// arriving sooner after the last deploy — at most one redistribution
/// per query per 50 model-ms, tenant rebalances included.
pub const COOLDOWN_MS: f64 = 50.0;

/// The settings of the adaptivity pipeline an experiment varies. The
/// defaults are the paper's: monitoring every 10 tuples, detector window
/// of 25 events, `thres_a` of 20 % (`thresM` and the cooldown are the
/// fixed [`THRES_M`] and [`COOLDOWN_MS`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivityConfig {
    /// Master switch; when false no monitoring events are produced at all.
    pub enabled: bool,
    /// One M1 notification per this many tuples produced (0 disables
    /// monitoring even when `enabled`, reproducing the paper's
    /// "frequency 0" configuration).
    pub monitoring_interval_tuples: u32,
    /// Detector window length (events).
    pub detector_window: usize,
    /// Relative change of a distribution component needed before the
    /// Diagnoser notifies the Responder.
    pub thres_a: f64,
    /// Assessment policy (A1/A2).
    pub assessment: AssessmentPolicy,
    /// Response policy (R1/R2).
    pub response: ResponsePolicy,
    /// The Responder declines to adapt once estimated progress exceeds
    /// this fraction (it "contacts all the evaluators that produce data
    /// to estimate the progress of execution").
    pub progress_cutoff: f64,
}

impl Default for AdaptivityConfig {
    fn default() -> Self {
        AdaptivityConfig {
            enabled: true,
            monitoring_interval_tuples: 10,
            detector_window: 25,
            thres_a: 0.2,
            assessment: AssessmentPolicy::A1,
            response: ResponsePolicy::R2,
            progress_cutoff: 0.95,
        }
    }
}

impl AdaptivityConfig {
    /// A disabled configuration (the static system).
    pub fn disabled() -> Self {
        AdaptivityConfig {
            enabled: false,
            ..Default::default()
        }
    }

    /// The paper's default configuration with the given policies.
    pub fn with_policies(assessment: AssessmentPolicy, response: ResponsePolicy) -> Self {
        AdaptivityConfig {
            assessment,
            response,
            ..Default::default()
        }
    }

    /// True when raw monitoring events should be generated.
    pub fn monitoring_active(&self) -> bool {
        self.enabled && self.monitoring_interval_tuples > 0
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.detector_window == 0 {
            return Err(GridError::Config("detector window must be positive".into()));
        }
        if !(0.0..=10.0).contains(&self.thres_a) {
            return Err(GridError::Config(
                "thres_a must be non-negative and sane".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.progress_cutoff) {
            return Err(GridError::Config(
                "progress cutoff must lie in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // Literal config constants round-trip bit-exactly.
    #[allow(clippy::float_cmp)]
    fn defaults_match_paper() {
        let c = AdaptivityConfig::default();
        assert_eq!(c.monitoring_interval_tuples, 10);
        assert_eq!(c.detector_window, 25);
        assert_eq!(THRES_M, 0.2);
        assert_eq!(c.thres_a, 0.2);
        assert_eq!(COOLDOWN_MS, 50.0);
        assert_eq!(c.assessment, AssessmentPolicy::A1);
        assert_eq!(c.response, ResponsePolicy::R2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn disabled_switch() {
        let c = AdaptivityConfig::disabled();
        assert!(!c.enabled);
        assert!(!c.monitoring_active());
    }

    #[test]
    fn zero_interval_disables_monitoring() {
        let c = AdaptivityConfig {
            monitoring_interval_tuples: 0,
            ..Default::default()
        };
        assert!(c.enabled);
        assert!(!c.monitoring_active());
    }

    #[test]
    fn validation_catches_bad_ranges() {
        let mut c = AdaptivityConfig {
            detector_window: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.detector_window = 25;
        c.progress_cutoff = 1.5;
        assert!(c.validate().is_err());
        c.progress_cutoff = 0.9;
        c.thres_a = -0.1;
        assert!(c.validate().is_err());
    }
}
