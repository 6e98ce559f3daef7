//! Perturbation models: artificial load on Grid nodes.
//!
//! The paper creates machine perturbation in two ways: "(i) programming a
//! computation to iterate over the same function multiple times, and (ii)
//! inserting sleep() calls" — i.e. a multiplicative cost factor and an
//! additive per-tuple delay. The rapid-change experiments of Fig. 5
//! further vary the factor "for each incoming tuple in a normally
//! distributed way, so that the mean value remains stable".

use gridq_common::{DetRng, SimTime};

/// A load model applied to a node's per-tuple operator costs.
#[derive(Debug, Clone, PartialEq)]
pub enum Perturbation {
    /// No artificial load.
    None,
    /// The operator cost is multiplied by `factor` ("k times costlier").
    CostFactor(f64),
    /// A fixed delay is added before each tuple (the `sleep()` method).
    SleepMs(f64),
    /// A per-tuple factor drawn from a normal distribution with the given
    /// mean, clamped to `[lo, hi]` (range endpoints ≈ mean ± 3σ).
    NormalFactor {
        /// Mean multiplicative factor.
        mean: f64,
        /// Lower clamp.
        lo: f64,
        /// Upper clamp.
        hi: f64,
    },
}

impl Perturbation {
    /// Applies the perturbation to a base per-tuple cost, drawing any
    /// randomness from `rng`. A non-finite product (a NaN or infinite
    /// delay/factor slipping past [`Perturbation::validate`]) falls back
    /// to the unperturbed base cost: the sample is rejected rather than
    /// poisoning the event queue's total order.
    pub fn apply(&self, base_ms: f64, rng: &mut DetRng) -> f64 {
        // Reject invalid parameters before touching the rng: a NaN
        // NormalFactor bound would trip the sampler's range assertion.
        if self.validate().is_err() {
            return base_ms;
        }
        let out = match self {
            Perturbation::None => base_ms,
            Perturbation::CostFactor(k) => base_ms * k,
            Perturbation::SleepMs(ms) => base_ms + ms,
            Perturbation::NormalFactor { mean, lo, hi } => {
                base_ms * rng.normal_clamped(*mean, *lo, *hi)
            }
        };
        if out.is_finite() {
            out
        } else {
            base_ms
        }
    }

    /// Rejects non-finite delays and factors with a loud error. Run
    /// entry points validate every installed schedule so a NaN
    /// perturbation delay is refused at construction time instead of
    /// being silently clamped somewhere inside the event queue.
    pub fn validate(&self) -> gridq_common::Result<()> {
        let bad = match self {
            Perturbation::None => None,
            Perturbation::CostFactor(k) if !k.is_finite() => Some(format!("CostFactor({k})")),
            Perturbation::SleepMs(ms) if !ms.is_finite() => Some(format!("SleepMs({ms})")),
            Perturbation::NormalFactor { mean, lo, hi }
                if !(mean.is_finite() && lo.is_finite() && hi.is_finite()) =>
            {
                Some(format!("NormalFactor {{ {mean}, {lo}, {hi} }}"))
            }
            _ => None,
        };
        match bad {
            Some(which) => Err(gridq_common::GridError::Config(format!(
                "non-finite perturbation {which}: delays and factors must be finite"
            ))),
            None => Ok(()),
        }
    }

    /// The expected multiplicative factor (1.0 for additive models).
    pub fn mean_factor(&self) -> f64 {
        match self {
            Perturbation::None | Perturbation::SleepMs(_) => 1.0,
            Perturbation::CostFactor(k) => *k,
            Perturbation::NormalFactor { mean, .. } => *mean,
        }
    }
}

/// A time-indexed sequence of perturbation phases for one node.
///
/// Phases are given as `(start_time, perturbation)` pairs; the active
/// perturbation at time `t` is the last phase whose start does not exceed
/// `t`. Before the first phase the node is unperturbed.
///
/// Phase intervals are **half-open**: phase `i` covers
/// `[from_i, from_{i+1})` and the final phase covers `[from_n, ∞)`. A
/// probe landing exactly on a phase start therefore observes the *new*
/// phase, never the old one. This boundary convention is load-bearing:
/// the simulator evaluates schedules at exact `SimTime` event stamps and
/// the chaos harness schedules perturbation bursts at exact boundaries,
/// so activation at `t == from` must be deterministic rather than
/// dependent on float jitter around the boundary.
#[derive(Debug, Clone, Default)]
pub struct PerturbationSchedule {
    phases: Vec<(SimTime, Perturbation)>,
}

impl PerturbationSchedule {
    /// An empty schedule (never perturbed).
    pub fn none() -> Self {
        Self::default()
    }

    /// A schedule applying `p` from time zero for the whole run.
    pub fn constant(p: Perturbation) -> Self {
        PerturbationSchedule {
            phases: vec![(SimTime::ZERO, p)],
        }
    }

    /// Appends a phase starting at `from`. Phases must be appended in
    /// non-decreasing start order; ties are permitted, and among phases
    /// sharing a start time the last appended one wins (its predecessors
    /// cover an empty half-open interval).
    pub fn then_at(mut self, from: SimTime, p: Perturbation) -> Self {
        if let Some((last, _)) = self.phases.last() {
            assert!(
                from >= *last,
                "schedule phases must be in non-decreasing time order"
            );
        }
        self.phases.push((from, p));
        self
    }

    /// The perturbation active at time `t`: the last phase with
    /// `from <= t`, so a phase activates exactly *at* its start time
    /// (half-open intervals — see the type-level docs).
    pub fn active_at(&self, t: SimTime) -> &Perturbation {
        let mut active = &Perturbation::None;
        for (from, p) in &self.phases {
            if *from <= t {
                active = p;
            } else {
                break;
            }
        }
        active
    }

    /// True if no phase ever applies load.
    pub fn is_trivial(&self) -> bool {
        self.phases.iter().all(|(_, p)| *p == Perturbation::None)
    }

    /// Validates every phase (see [`Perturbation::validate`]), naming the
    /// offending phase index in the error.
    pub fn validate(&self) -> gridq_common::Result<()> {
        for (i, (_, p)) in self.phases.iter().enumerate() {
            p.validate()
                .map_err(|e| gridq_common::GridError::Config(format!("schedule phase {i}: {e}")))?;
        }
        Ok(())
    }

    /// Counts phases holding non-finite delays/factors. Such phases are
    /// inert at apply time ([`Perturbation::apply`] rejects the sample),
    /// so this is the reporting side: run entry points surface the count
    /// as a metric, mirroring `detector.rejected_samples`.
    pub fn non_finite_phases(&self) -> u64 {
        self.phases
            .iter()
            .filter(|(_, p)| p.validate().is_err())
            .count() as u64
    }
}

#[cfg(test)]
// Tests compare against stored literals and exactly-representable
// constants, where bit-exact equality is the intended assertion.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn apply_models() {
        let mut rng = DetRng::seeded(1);
        assert_eq!(Perturbation::None.apply(2.0, &mut rng), 2.0);
        assert_eq!(Perturbation::CostFactor(10.0).apply(2.0, &mut rng), 20.0);
        assert_eq!(Perturbation::SleepMs(5.0).apply(2.0, &mut rng), 7.0);
    }

    #[test]
    fn normal_factor_mean_is_stable() {
        let p = Perturbation::NormalFactor {
            mean: 30.0,
            lo: 20.0,
            hi: 40.0,
        };
        let mut rng = DetRng::seeded(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| p.apply(1.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 30.0).abs() < 0.3, "mean {mean}");
        for _ in 0..1000 {
            let v = p.apply(1.0, &mut rng);
            assert!((20.0..=40.0).contains(&v));
        }
    }

    #[test]
    fn schedule_phases_activate_in_order() {
        let s = PerturbationSchedule::none()
            .then_at(SimTime::from_millis(100.0), Perturbation::CostFactor(10.0))
            .then_at(SimTime::from_millis(200.0), Perturbation::None);
        assert_eq!(*s.active_at(SimTime::from_millis(0.0)), Perturbation::None);
        assert_eq!(
            *s.active_at(SimTime::from_millis(150.0)),
            Perturbation::CostFactor(10.0)
        );
        assert_eq!(
            *s.active_at(SimTime::from_millis(250.0)),
            Perturbation::None
        );
    }

    #[test]
    fn constant_schedule() {
        let s = PerturbationSchedule::constant(Perturbation::SleepMs(10.0));
        assert_eq!(
            *s.active_at(SimTime::from_millis(0.0)),
            Perturbation::SleepMs(10.0)
        );
        assert!(!s.is_trivial());
        assert!(PerturbationSchedule::none().is_trivial());
    }

    #[test]
    fn mean_factor() {
        assert_eq!(Perturbation::CostFactor(20.0).mean_factor(), 20.0);
        assert_eq!(Perturbation::SleepMs(10.0).mean_factor(), 1.0);
        assert_eq!(
            Perturbation::NormalFactor {
                mean: 30.0,
                lo: 1.0,
                hi: 60.0
            }
            .mean_factor(),
            30.0
        );
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_phase_panics() {
        let _ = PerturbationSchedule::none()
            .then_at(SimTime::from_millis(100.0), Perturbation::None)
            .then_at(SimTime::from_millis(50.0), Perturbation::None);
    }

    #[test]
    fn phase_boundary_is_half_open() {
        let s = PerturbationSchedule::none()
            .then_at(SimTime::from_millis(100.0), Perturbation::CostFactor(10.0))
            .then_at(SimTime::from_millis(200.0), Perturbation::SleepMs(5.0));
        // Just before a boundary the previous phase still holds...
        assert_eq!(
            *s.active_at(SimTime::from_millis(99.999)),
            Perturbation::None
        );
        // ...and exactly at the boundary the new phase is already active.
        assert_eq!(
            *s.active_at(SimTime::from_millis(100.0)),
            Perturbation::CostFactor(10.0)
        );
        assert_eq!(
            *s.active_at(SimTime::from_millis(199.999)),
            Perturbation::CostFactor(10.0)
        );
        assert_eq!(
            *s.active_at(SimTime::from_millis(200.0)),
            Perturbation::SleepMs(5.0)
        );
    }

    #[test]
    fn coincident_phase_starts_resolve_to_the_last_appended() {
        let s = PerturbationSchedule::none()
            .then_at(SimTime::from_millis(100.0), Perturbation::CostFactor(2.0))
            .then_at(SimTime::from_millis(100.0), Perturbation::CostFactor(3.0));
        assert_eq!(
            *s.active_at(SimTime::from_millis(100.0)),
            Perturbation::CostFactor(3.0)
        );
        assert_eq!(*s.active_at(SimTime::from_millis(99.0)), Perturbation::None);
    }

    /// Property: non-finite perturbation delays are rejected at
    /// validation, and even unvalidated they can never produce a
    /// non-finite cost out of `apply` — the sample falls back to the
    /// base cost instead of reaching the event queue as NaN.
    #[test]
    fn non_finite_delays_are_rejected_and_contained() {
        use gridq_common::check::{Check, Gen};

        Check::new("perturbation_non_finite_delays").cases(200).run(
            |rng| {
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                let v = *rng.pick(&bad);
                let p = match rng.usize_in(0, 3) {
                    0 => Perturbation::SleepMs(v),
                    1 => Perturbation::CostFactor(v),
                    _ => Perturbation::NormalFactor {
                        mean: v,
                        lo: v,
                        hi: v,
                    },
                };
                (p, rng.f64_in(0.0, 50.0))
            },
            |(p, base)| {
                if p.validate().is_ok() {
                    return Err(format!("{p:?} passed validation"));
                }
                let s = PerturbationSchedule::constant(p.clone());
                if s.validate().is_ok() {
                    return Err(format!("schedule holding {p:?} passed validation"));
                }
                let mut rng = DetRng::seeded(7);
                let applied = p.apply(*base, &mut rng);
                if !applied.is_finite() {
                    return Err(format!("{p:?}.apply({base}) -> {applied}"));
                }
                // The rejected sample leaves the cost unperturbed, and the
                // timestamp it feeds stays finite.
                if applied != *base {
                    return Err(format!("{p:?}.apply({base}) -> {applied}, want base"));
                }
                let t = SimTime::from_millis(applied);
                if !t.as_millis().is_finite() {
                    return Err(format!("timestamp {t} not finite"));
                }
                Ok(())
            },
        );
    }

    /// Property check of `active_at` against a naive reference scan, with
    /// probes pinned to exact phase starts so the half-open boundary can
    /// never silently regress to an exclusive one.
    #[test]
    fn active_at_matches_naive_reference_on_random_schedules() {
        use gridq_common::check::{Check, Gen};

        Check::new("perturbation_schedule_active_at")
            .cases(200)
            .run(
                |rng| {
                    let mut starts = rng.vec_of(0, 8, |r| r.f64_in(0.0, 1000.0));
                    starts.sort_by(f64::total_cmp);
                    // Occasionally force a coincident pair to exercise ties.
                    if starts.len() >= 2 && rng.flip() {
                        starts[1] = starts[0];
                    }
                    starts
                        .into_iter()
                        .enumerate()
                        .map(|(i, from)| (from, 2.0 + i as f64))
                        .collect::<Vec<(f64, f64)>>()
                },
                |phases| {
                    let schedule =
                        phases
                            .iter()
                            .fold(PerturbationSchedule::none(), |s, (from, factor)| {
                                s.then_at(
                                    SimTime::from_millis(*from),
                                    Perturbation::CostFactor(*factor),
                                )
                            });
                    // Probe every exact boundary plus points strictly inside
                    // and outside each interval.
                    // Clamp below-zero probes: SimTime::from_millis clamps
                    // negatives to zero, and the reference compares raw f64s.
                    let mut probes = vec![0.0, 1e6];
                    for (from, _) in phases {
                        probes.extend([*from, (from - 0.125).max(0.0), from + 0.125]);
                    }
                    for t in probes {
                        let expected = phases
                            .iter()
                            .rev()
                            .find(|(from, _)| *from <= t)
                            .map_or(Perturbation::None, |(_, factor)| {
                                Perturbation::CostFactor(*factor)
                            });
                        let got = schedule.active_at(SimTime::from_millis(t));
                        if *got != expected {
                            return Err(format!(
                                "at t={t}: schedule says {got:?}, reference says {expected:?}"
                            ));
                        }
                    }
                    Ok(())
                },
            );
    }
}
