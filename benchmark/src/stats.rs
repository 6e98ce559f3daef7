//! Order statistics over timing samples.
//!
//! Two picks are used throughout: a nearest-rank percentile (a value that
//! was actually measured, never an interpolation between two runs) and
//! the quartiles of Python's `statistics.quantiles(values, n=4)`, which
//! is what the harness that judges this benchmark computes — the
//! `repeat` subcommand must agree with it to the last digit.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The label used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Sorts samples ascending; non-finite samples are dropped (a NaN has no
/// rank, and a timing can never legitimately be one).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `None` for an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The nearest-rank `p`-th percentile the sample can support: lowered as
/// far as needed to leave `beyond` samples above it, but never below the
/// median. A tail percentile with nothing beyond it is just the slowest
/// sample, which says more about the machine's worst moment than about
/// the program; with 5000 samples and `beyond = 10` this is the plain
/// p99, with 20 it is the median.
pub fn supported_percentile(sorted: &[f64], p: f64, beyond: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize;
    let median_rank = n.div_ceil(2);
    let rank = rank.min(n.saturating_sub(beyond)).max(median_rank);
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The median of an ascending slice, averaging the two middle samples of
/// an even count (as Python's `statistics.median` does).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three quartile cut points of an ascending slice by the exclusive
/// method (`statistics.quantiles(values, n=4)`). Needs two samples.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let m = sorted.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        // `delta` is in quarters of the gap between samples j-1 and j and
        // may fall outside 0..=4 at the clamped ends, where the method
        // extrapolates.
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// What one metric's samples looked like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples kept.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile (the median itself when there is one sample).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises samples in any order; `None` when none are finite.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let s = sorted(values);
        let median = median(&s)?;
        let [q1, _, q3] = quartiles(&s).unwrap_or([median; 3]);
        Some(Summary {
            count: s.len(),
            min: s[0],
            q1,
            median,
            q3,
            max: s[s.len() - 1],
        })
    }

    /// Inter-quartile range as a share of the median (0 for a zero
    /// median, where no share is defined).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The share of `first` by which `second` is worse, negative when it is
/// better. A zero `first` admits no share: any worsening reads as
/// infinite, none as zero.
pub fn worse_by(first: f64, second: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    if first == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / first.abs()
    }
}
