//! Windowed statistics for the monitoring pipeline.
//!
//! The paper's `MonitoringEventDetector` computes "the running average of
//! the cost over a window of a certain length, discarding the minimum and
//! maximum values" (default window: the last 25 events), and notifies the
//! Diagnoser only when that average changes by more than a threshold.
//! [`TrimmedWindow`] implements exactly that statistic;
//! [`ChangeDetector`] implements the threshold gate.

use std::collections::VecDeque;

/// A sliding window of the last `capacity` samples whose mean is computed
/// with one minimum and one maximum sample discarded (when at least three
/// samples are present).
///
/// Non-finite samples (NaN, ±∞) are rejected rather than stored: a single
/// NaN would otherwise poison [`TrimmedWindow::trimmed_mean`] for the next
/// `capacity` pushes, silencing every downstream change detector fed by
/// it. Rejections are counted and exposed via [`TrimmedWindow::rejected`]
/// so the monitoring layer can surface them.
#[derive(Debug, Clone)]
pub struct TrimmedWindow {
    samples: VecDeque<f64>,
    capacity: usize,
    rejected: u64,
}

impl TrimmedWindow {
    /// Creates a window holding the last `capacity` samples.
    /// `capacity` must be at least 1.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "window capacity must be positive");
        TrimmedWindow {
            samples: VecDeque::with_capacity(capacity),
            capacity,
            rejected: 0,
        }
    }

    /// Adds a sample, evicting the oldest if the window is full. Returns
    /// `false` (and leaves the window untouched) for non-finite samples.
    pub fn push(&mut self, sample: f64) -> bool {
        if !sample.is_finite() {
            self.rejected += 1;
            return false;
        }
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
        true
    }

    /// Number of non-finite samples rejected since construction.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been observed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The trimmed mean: the average of the window with a single minimum
    /// and single maximum discarded. With fewer than three samples the
    /// plain mean is returned; with no samples, `None`.
    pub fn trimmed_mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len();
        let sum: f64 = self.samples.iter().sum();
        if n < 3 {
            return Some(sum / n as f64);
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &s in &self.samples {
            if s < min {
                min = s;
            }
            if s > max {
                max = s;
            }
        }
        Some((sum - min - max) / (n - 2) as f64)
    }

    /// Clears all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

/// Emits a value only when it has moved by more than `threshold`
/// (relative, e.g. `0.2` = 20 %) from the last emitted value.
///
/// The first observed value is always emitted so that downstream
/// subscribers learn the initial level.
#[derive(Debug, Clone)]
pub struct ChangeDetector {
    threshold: f64,
    last_emitted: Option<f64>,
}

impl ChangeDetector {
    /// Creates a detector with a relative threshold (`0.2` = 20 %).
    pub fn new(threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        ChangeDetector {
            threshold,
            last_emitted: None,
        }
    }

    /// Observes a value; returns `true` if it should be propagated
    /// (first value, or relative change beyond the threshold), updating
    /// the reference level when it fires.
    ///
    /// Non-finite values are rejected: they return `false` and leave the
    /// reference level untouched. Accepting a NaN as the new baseline
    /// would silence the detector permanently — `(x - NaN).abs() / d >
    /// thres` is false for every future `x` — so the previous finite
    /// baseline is kept instead.
    pub fn observe(&mut self, value: f64) -> bool {
        if !value.is_finite() {
            return false;
        }
        match self.last_emitted {
            None => {
                self.last_emitted = Some(value);
                true
            }
            Some(prev) => {
                let denom = prev.abs().max(f64::MIN_POSITIVE);
                if (value - prev).abs() / denom > self.threshold {
                    self.last_emitted = Some(value);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The last value that fired, if any.
    pub fn last_emitted(&self) -> Option<f64> {
        self.last_emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_has_no_mean() {
        let w = TrimmedWindow::new(5);
        assert!(w.is_empty());
        assert_eq!(w.trimmed_mean(), None);
    }

    #[test]
    fn small_windows_use_plain_mean() {
        let mut w = TrimmedWindow::new(10);
        w.push(2.0);
        assert_eq!(w.trimmed_mean(), Some(2.0));
        w.push(4.0);
        assert_eq!(w.trimmed_mean(), Some(3.0));
    }

    #[test]
    fn trimmed_mean_discards_min_and_max() {
        let mut w = TrimmedWindow::new(10);
        for s in [1.0, 100.0, 5.0, 5.0, 5.0] {
            w.push(s);
        }
        // min=1, max=100 discarded -> mean of three fives.
        assert_eq!(w.trimmed_mean(), Some(5.0));
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = TrimmedWindow::new(3);
        for s in [10.0, 20.0, 30.0, 40.0] {
            w.push(s);
        }
        assert_eq!(w.len(), 3);
        // Window now [20,30,40]; trimmed mean discards 20 and 40.
        assert_eq!(w.trimmed_mean(), Some(30.0));
    }

    #[test]
    fn trimmed_mean_discards_one_duplicate_extreme() {
        let mut w = TrimmedWindow::new(10);
        for s in [1.0, 1.0, 5.0, 9.0, 9.0] {
            w.push(s);
        }
        // One 1.0 and one 9.0 removed: (1 + 5 + 9) / 3 = 5.
        assert_eq!(w.trimmed_mean(), Some(5.0));
    }

    #[test]
    fn change_detector_fires_on_first_value() {
        let mut d = ChangeDetector::new(0.2);
        assert!(d.observe(10.0));
        assert_eq!(d.last_emitted(), Some(10.0));
    }

    #[test]
    fn change_detector_threshold_is_relative() {
        let mut d = ChangeDetector::new(0.2);
        assert!(d.observe(10.0));
        assert!(!d.observe(11.9)); // +19% — below threshold
        assert!(!d.observe(8.1)); // -19%
        assert!(d.observe(12.1)); // +21% — fires, re-baselines
        assert!(!d.observe(13.0)); // +7.4% from 12.1
        assert!(d.observe(15.0)); // +24% from 12.1
    }

    #[test]
    fn change_detector_handles_zero_baseline() {
        let mut d = ChangeDetector::new(0.2);
        assert!(d.observe(0.0));
        // Any nonzero move from zero is an infinite relative change.
        assert!(d.observe(0.001));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TrimmedWindow::new(0);
    }

    #[test]
    fn change_detector_rejects_non_finite_and_keeps_baseline() {
        // Regression: a NaN observation used to become the new baseline,
        // after which `(x - NaN).abs() / d > thres` was false for every
        // future x and the detector never fired again.
        let mut d = ChangeDetector::new(0.2);
        assert!(d.observe(10.0));
        assert!(!d.observe(f64::NAN));
        assert!(!d.observe(f64::INFINITY));
        assert!(!d.observe(f64::NEG_INFINITY));
        // The finite baseline survived: a real 50% change still fires.
        assert_eq!(d.last_emitted(), Some(10.0));
        assert!(d.observe(15.0));
        assert_eq!(d.last_emitted(), Some(15.0));
    }

    #[test]
    fn change_detector_rejects_non_finite_first_value() {
        let mut d = ChangeDetector::new(0.2);
        assert!(!d.observe(f64::NAN));
        assert_eq!(d.last_emitted(), None);
        // The first *finite* value is the one that establishes the level.
        assert!(d.observe(3.0));
    }

    #[test]
    fn trimmed_window_skips_non_finite_samples() {
        let mut w = TrimmedWindow::new(4);
        assert!(w.push(1.0));
        assert!(!w.push(f64::NAN));
        assert!(!w.push(f64::INFINITY));
        assert!(w.push(3.0));
        // Only the finite samples count; the mean stays finite.
        assert_eq!(w.len(), 2);
        assert_eq!(w.trimmed_mean(), Some(2.0));
        assert_eq!(w.rejected(), 2);
    }

    #[test]
    fn trimmed_window_all_rejected_stays_empty() {
        let mut w = TrimmedWindow::new(4);
        assert!(!w.push(f64::NAN));
        assert!(w.is_empty());
        assert_eq!(w.trimmed_mean(), None);
        assert_eq!(w.rejected(), 1);
    }
}
