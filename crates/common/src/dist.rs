//! Workload distribution vectors and hash-bucket maps.
//!
//! The Diagnoser of the paper represents "the current tuple distribution
//! policy ... as a vector `W = (w1, w2, ..., wn)` where `wi` represents the
//! proportion of tuples that is sent to `pi`", and proposes a balanced
//! vector with `wi` inversely proportional to the cost per tuple `c(pi)`.
//! For stateful operators the vector is realised as a *bucket map*: tuples
//! are routed by `hash(key) % bucket_count` and adaptation reassigns whole
//! buckets between partitions (migrating the state of moved buckets).

use crate::error::{GridError, Result};

/// A normalised workload distribution across `n` partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionVector {
    weights: Vec<f64>,
}

impl DistributionVector {
    /// Creates a vector from raw non-negative weights, normalising them to
    /// sum to 1. Fails if the slice is empty, contains a negative or
    /// non-finite weight, or sums to zero.
    pub fn new(raw: &[f64]) -> Result<Self> {
        if raw.is_empty() {
            return Err(GridError::Config("empty distribution vector".into()));
        }
        let mut sum = 0.0;
        for &w in raw {
            if !w.is_finite() || w < 0.0 {
                return Err(GridError::Config(format!(
                    "invalid distribution weight {w}"
                )));
            }
            sum += w;
        }
        if sum <= 0.0 {
            return Err(GridError::Config("distribution weights sum to zero".into()));
        }
        Ok(DistributionVector {
            weights: raw.iter().map(|w| w / sum).collect(),
        })
    }

    /// The uniform distribution over `n` partitions.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "need at least one partition");
        DistributionVector {
            weights: vec![1.0 / n as f64; n],
        }
    }

    /// The balanced distribution for the given per-tuple costs: weights
    /// inversely proportional to cost. Zero or non-finite costs are
    /// treated as the smallest positive observed cost (a partition that
    /// has reported no cost yet should not absorb everything).
    pub fn balanced_for_costs(costs: &[f64]) -> Result<Self> {
        if costs.is_empty() {
            return Err(GridError::Config("no costs provided".into()));
        }
        let min_positive = costs
            .iter()
            .copied()
            .filter(|c| c.is_finite() && *c > 0.0)
            .fold(f64::INFINITY, f64::min);
        if !min_positive.is_finite() {
            // No cost information at all: fall back to uniform.
            return Ok(DistributionVector::uniform(costs.len()));
        }
        let inv: Vec<f64> = costs
            .iter()
            .map(|&c| {
                let c = if c.is_finite() && c > 0.0 {
                    c
                } else {
                    min_positive
                };
                1.0 / c
            })
            .collect();
        DistributionVector::new(&inv)
    }

    /// The normalised weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Always false: construction guarantees at least one weight.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The largest pairwise absolute difference between this vector and
    /// `other`, i.e. `max_i |w_i - w'_i|`. The Responder is only notified
    /// when this exceeds the `thresA` threshold.
    pub fn max_abs_diff(&self, other: &DistributionVector) -> f64 {
        assert_eq!(self.len(), other.len(), "dimension mismatch");
        self.weights
            .iter()
            .zip(other.weights.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// The largest relative change of a component from `self` to `other`:
    /// `max_i |w'_i - w_i| / w_i` (components with negligible current
    /// weight are compared absolutely). This is the quantity gated by the
    /// Diagnoser's `thres_a`.
    pub fn max_rel_diff(&self, other: &DistributionVector) -> f64 {
        assert_eq!(self.len(), other.len(), "dimension mismatch");
        const FLOOR: f64 = 1e-6;
        self.weights
            .iter()
            .zip(other.weights.iter())
            .map(|(w, w2)| {
                let delta = (w2 - w).abs();
                if *w > FLOOR {
                    delta / w
                } else {
                    delta
                }
            })
            .fold(0.0, f64::max)
    }

    /// Splits `total` items into integer shares following the weights,
    /// using largest-remainder rounding so the shares sum to `total`.
    pub fn integer_shares(&self, total: usize) -> Vec<usize> {
        let mut shares: Vec<usize> = Vec::with_capacity(self.len());
        let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(self.len());
        let mut assigned = 0usize;
        for (i, &w) in self.weights.iter().enumerate() {
            let exact = w * total as f64;
            let floor = exact.floor() as usize;
            shares.push(floor);
            assigned += floor;
            remainders.push((i, exact - floor as f64));
        }
        remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut leftover = total - assigned;
        for (i, _) in remainders {
            if leftover == 0 {
                break;
            }
            shares[i] += 1;
            leftover -= 1;
        }
        shares
    }
}

/// The hash bucket of a key hash among `bucket_count` buckets: the one
/// place the `hash → bucket` rule is spelled, for the router's map and
/// for an evaluator sorting its own state and held tuples by bucket.
pub fn bucket_for_hash(hash: u64, bucket_count: u32) -> u32 {
    (hash % u64::from(bucket_count)) as u32
}

/// A bucket moved between partitions by a rebalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketMove {
    /// The bucket index.
    pub bucket: u32,
    /// Previous owning partition.
    pub from: u32,
    /// New owning partition.
    pub to: u32,
}

/// Maps hash buckets to partitions. Tuples are routed by
/// `hash(key) % bucket_count` and the owning partition of that bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketMap {
    owner: Vec<u32>,
    partitions: u32,
}

impl BucketMap {
    /// Creates a map of `bucket_count` buckets spread over `partitions`
    /// partitions following `dist` (largest-remainder shares, buckets
    /// assigned in index order).
    pub fn new(bucket_count: u32, partitions: u32, dist: &DistributionVector) -> Result<Self> {
        if partitions == 0 || bucket_count == 0 {
            return Err(GridError::Config(
                "bucket map needs at least one bucket and partition".into(),
            ));
        }
        if dist.len() != partitions as usize {
            return Err(GridError::Config(format!(
                "distribution has {} entries for {partitions} partitions",
                dist.len()
            )));
        }
        let shares = dist.integer_shares(bucket_count as usize);
        let mut owner = Vec::with_capacity(bucket_count as usize);
        for (p, &share) in shares.iter().enumerate() {
            owner.extend(std::iter::repeat_n(p as u32, share));
        }
        debug_assert_eq!(owner.len(), bucket_count as usize);
        Ok(BucketMap { owner, partitions })
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> u32 {
        self.owner.len() as u32
    }

    /// Number of partitions.
    pub fn partitions(&self) -> u32 {
        self.partitions
    }

    /// The partition owning `bucket`.
    pub fn owner_of(&self, bucket: u32) -> u32 {
        self.owner[bucket as usize]
    }

    /// The bucket for a key hash.
    pub fn bucket_for_hash(&self, hash: u64) -> u32 {
        bucket_for_hash(hash, self.bucket_count())
    }

    /// The partition for a key hash.
    pub fn partition_for_hash(&self, hash: u64) -> u32 {
        self.owner_of(self.bucket_for_hash(hash))
    }

    /// Buckets currently owned by `partition`.
    pub fn buckets_of(&self, partition: u32) -> Vec<u32> {
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == partition)
            .map(|(b, _)| b as u32)
            .collect()
    }

    /// The fraction of buckets owned by each partition.
    pub fn effective_distribution(&self) -> DistributionVector {
        let mut counts = vec![0.0; self.partitions as usize];
        for &p in &self.owner {
            counts[p as usize] += 1.0;
        }
        // At least one bucket exists, but a partition may own zero buckets;
        // that is fine — weights normalise over the total.
        DistributionVector::new(&counts)
            .unwrap_or_else(|_| DistributionVector::uniform(self.partitions as usize))
    }

    /// Rebalances the map toward `target`, moving as few buckets as
    /// possible: partitions over their target share give up their
    /// highest-index buckets to partitions under their share. Returns the
    /// performed moves (state for these buckets must be migrated).
    pub fn rebalance(&mut self, target: &DistributionVector) -> Result<Vec<BucketMove>> {
        if target.len() != self.partitions as usize {
            return Err(GridError::Config(format!(
                "target distribution has {} entries for {} partitions",
                target.len(),
                self.partitions
            )));
        }
        let total = self.owner.len();
        let targets = target.integer_shares(total);
        let mut counts = vec![0usize; self.partitions as usize];
        for &p in &self.owner {
            counts[p as usize] += 1;
        }
        // Buckets to give away, per over-quota partition (highest index
        // first so reassignment is deterministic).
        let mut surplus: Vec<u32> = Vec::new();
        for p in 0..self.partitions as usize {
            if counts[p] > targets[p] {
                let mut owned: Vec<u32> = self
                    .owner
                    .iter()
                    .enumerate()
                    .filter(|(_, &o)| o == p as u32)
                    .map(|(b, _)| b as u32)
                    .collect();
                owned.sort_unstable_by(|a, b| b.cmp(a));
                surplus.extend(owned.into_iter().take(counts[p] - targets[p]));
            }
        }
        let mut moves = Vec::new();
        let mut surplus_iter = surplus.into_iter();
        for p in 0..self.partitions as usize {
            while counts[p] < targets[p] {
                let bucket = surplus_iter
                    .next()
                    .expect("surplus and deficit always balance");
                let from = self.owner[bucket as usize];
                counts[from as usize] -= 1;
                counts[p] += 1;
                self.owner[bucket as usize] = p as u32;
                moves.push(BucketMove {
                    bucket,
                    from,
                    to: p as u32,
                });
            }
        }
        Ok(moves)
    }
}

#[cfg(test)]
// Tests compare against stored literals and exactly-representable
// constants, where bit-exact equality is the intended assertion.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn new_normalises() {
        let d = DistributionVector::new(&[1.0, 3.0]).unwrap();
        assert_eq!(d.weights(), &[0.25, 0.75]);
    }

    #[test]
    fn invalid_vectors_rejected() {
        assert!(DistributionVector::new(&[]).is_err());
        assert!(DistributionVector::new(&[-1.0, 2.0]).is_err());
        assert!(DistributionVector::new(&[0.0, 0.0]).is_err());
        assert!(DistributionVector::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn uniform() {
        let d = DistributionVector::uniform(4);
        assert_eq!(d.weights(), &[0.25; 4]);
    }

    #[test]
    fn balanced_is_inverse_cost() {
        // Costs 1 and 10 -> weights 10/11 and 1/11.
        let d = DistributionVector::balanced_for_costs(&[1.0, 10.0]).unwrap();
        assert!((d.weights()[0] - 10.0 / 11.0).abs() < 1e-12);
        assert!((d.weights()[1] - 1.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_handles_missing_costs() {
        let d = DistributionVector::balanced_for_costs(&[0.0, 2.0]).unwrap();
        // Zero cost treated as the min positive (2.0) -> uniform.
        assert_eq!(d.weights(), &[0.5, 0.5]);
        let d = DistributionVector::balanced_for_costs(&[0.0, 0.0]).unwrap();
        assert_eq!(d.weights(), &[0.5, 0.5]);
    }

    #[test]
    fn max_abs_diff() {
        let a = DistributionVector::uniform(2);
        let b = DistributionVector::new(&[0.8, 0.2]).unwrap();
        assert!((a.max_abs_diff(&b) - 0.3).abs() < 1e-12);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn max_rel_diff_relative_to_current() {
        let a = DistributionVector::uniform(2);
        let b = DistributionVector::new(&[0.6, 0.4]).unwrap();
        // |0.6-0.5|/0.5 = 0.2
        assert!((a.max_rel_diff(&b) - 0.2).abs() < 1e-12);
        let c = DistributionVector::new(&[10.0, 1.0]).unwrap();
        let d = DistributionVector::new(&[10.0, 2.0]).unwrap();
        // Small component doubles: relative change ≈ 0.83 driven by w2.
        assert!(c.max_rel_diff(&d) > 0.5);
    }

    #[test]
    fn integer_shares_sum_to_total() {
        let d = DistributionVector::new(&[1.0, 1.0, 1.0]).unwrap();
        let shares = d.integer_shares(10);
        assert_eq!(shares.iter().sum::<usize>(), 10);
        // Largest remainder: 4,3,3 in some order.
        let mut sorted = shares.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![3, 3, 4]);
    }

    #[test]
    fn bucket_map_initial_assignment() {
        let d = DistributionVector::uniform(2);
        let m = BucketMap::new(8, 2, &d).unwrap();
        assert_eq!(m.buckets_of(0).len(), 4);
        assert_eq!(m.buckets_of(1).len(), 4);
        assert_eq!(m.effective_distribution().weights(), &[0.5, 0.5]);
    }

    #[test]
    fn bucket_map_routing_is_stable() {
        let d = DistributionVector::uniform(2);
        let m = BucketMap::new(8, 2, &d).unwrap();
        for h in [0u64, 5, 7, 123_456] {
            assert_eq!(m.partition_for_hash(h), m.partition_for_hash(h));
            assert!(m.bucket_for_hash(h) < 8);
        }
    }

    #[test]
    fn rebalance_moves_minimum_buckets() {
        let d = DistributionVector::uniform(2);
        let mut m = BucketMap::new(10, 2, &d).unwrap();
        let target = DistributionVector::new(&[0.8, 0.2]).unwrap();
        let moves = m.rebalance(&target).unwrap();
        // 5 -> 8 buckets on partition 0: exactly 3 moves.
        assert_eq!(moves.len(), 3);
        assert_eq!(m.buckets_of(0).len(), 8);
        assert_eq!(m.buckets_of(1).len(), 2);
        for mv in &moves {
            assert_eq!(mv.from, 1);
            assert_eq!(mv.to, 0);
        }
    }

    #[test]
    fn rebalance_to_same_distribution_is_noop() {
        let d = DistributionVector::new(&[0.7, 0.3]).unwrap();
        let mut m = BucketMap::new(10, 2, &d).unwrap();
        let moves = m.rebalance(&d).unwrap();
        assert!(moves.is_empty());
    }

    #[test]
    fn rebalance_dimension_mismatch() {
        let d = DistributionVector::uniform(2);
        let mut m = BucketMap::new(4, 2, &d).unwrap();
        let bad = DistributionVector::uniform(3);
        assert!(m.rebalance(&bad).is_err());
    }

    #[test]
    fn bucket_map_three_partitions() {
        let d = DistributionVector::uniform(3);
        let mut m = BucketMap::new(12, 3, &d).unwrap();
        assert_eq!(m.buckets_of(0).len(), 4);
        let target = DistributionVector::new(&[6.0, 5.0, 1.0]).unwrap();
        let moves = m.rebalance(&target).unwrap();
        assert_eq!(m.buckets_of(0).len(), 6);
        assert_eq!(m.buckets_of(1).len(), 5);
        assert_eq!(m.buckets_of(2).len(), 1);
        let total_moved: usize = moves.len();
        assert_eq!(total_moved, 2 + 1); // p0 gains 2, p1 gains 1
    }
}
