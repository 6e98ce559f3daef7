//! Deterministic random number generation.
//!
//! Simulation results must be exactly reproducible from a seed, so the
//! workspace uses its own small generator (xoshiro256** seeded via
//! SplitMix64) instead of thread-local entropy. Gaussian variates come from
//! the Box–Muller transform; the paper's Fig. 5 uses normally distributed
//! per-tuple perturbations clamped to a range, which
//! [`DetRng::normal_clamped`] provides.

/// A seeded xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
    /// Cached second Gaussian variate from Box–Muller.
    spare_normal: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng {
            state,
            spare_normal: None,
        }
    }

    /// Derives an independent stream for a subcomponent. Streams created
    /// with distinct labels from the same parent are decorrelated.
    pub fn fork(&mut self, label: u64) -> DetRng {
        let base = self.next_u64();
        DetRng::seeded(base ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit value (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits -> double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Requires `lo <= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Requires `n > 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // small `n` used here (bucket counts, node counts).
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Standard normal variate via Box–Muller.
    pub fn normal_std(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u == 0 so ln is finite.
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal_std()
    }

    /// Normal variate clamped to `[lo, hi]`. This models the paper's
    /// Fig. 5 perturbations, where per-tuple costs vary "in a normally
    /// distributed way" within a stated range while keeping the mean
    /// stable: the range endpoints are treated as mean ± 3σ.
    pub fn normal_clamped(&mut self, mean: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= mean && mean <= hi);
        let spread = (hi - mean).max(mean - lo);
        let sigma = spread / 3.0;
        self.normal(mean, sigma).clamp(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = DetRng::seeded(42);
        let mut b = DetRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seeded(1);
        let mut b = DetRng::seeded(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = DetRng::seeded(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = DetRng::seeded(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_bounds() {
        let mut rng = DetRng::seeded(3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::seeded(5);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn normal_clamped_stays_in_range() {
        let mut rng = DetRng::seeded(9);
        let mut saw_spread = false;
        for _ in 0..10_000 {
            let x = rng.normal_clamped(30.0, 1.0, 60.0);
            assert!((1.0..=60.0).contains(&x));
            if (x - 30.0).abs() > 5.0 {
                saw_spread = true;
            }
        }
        assert!(saw_spread, "clamped normal should actually vary");
    }

    #[test]
    fn forked_streams_decorrelate() {
        let mut parent = DetRng::seeded(21);
        let mut a = parent.fork(1);
        let mut b = parent.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
