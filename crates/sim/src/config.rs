//! Simulation configuration.

use std::sync::Arc;

use gridq_adapt::AdaptivityConfig;
use gridq_common::{ChaosHook, GridError, Result};
use gridq_obs::ObsConfig;

/// Cost-model and protocol parameters of a simulated execution.
///
/// The per-tuple overhead knobs model work the real prototype performs
/// that is not captured by operator base costs: deserializing incoming
/// buffers, producing raw monitoring events, and maintaining recovery
/// logs "in a tidy manner" when retrospective responses are enabled (the
/// paper measures ~6 % overhead for prospective and ~15 % for
/// retrospective adaptivity when no imbalance exists).
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Adaptivity pipeline configuration.
    pub adaptivity: AdaptivityConfig,
    /// Tuples covered by one checkpoint window in the recovery logs.
    pub checkpoint_interval: usize,
    /// Per-tuple cost of receiving/deserializing at a consumer, in ms
    /// (the paper's "significant I/O and communication costs" per tuple).
    pub receive_cost_ms: f64,
    /// Per-tuple consumer-side overhead when adaptivity is enabled
    /// (self-monitoring instrumentation and log bookkeeping).
    pub adapt_overhead_ms: f64,
    /// Additional per-tuple consumer-side overhead when the response
    /// policy is retrospective (tidy log management for discard and
    /// redistribution).
    pub r1_overhead_ms: f64,
    /// Seed for the deterministic RNG driving noise and perturbation
    /// sampling.
    pub seed: u64,
    /// Whether to retain the full result set in the report (tests use
    /// this to compare against local reference execution).
    pub collect_results: bool,
    /// Observability layer configuration (metrics registry and
    /// adaptivity timeline).
    pub obs: ObsConfig,
    /// Fault-injection hook consulted at the chaos seams (exchange
    /// sends, checkpoint acks, monitoring notifications, per-tuple
    /// work). `None` injects nothing and leaves behavior identical to
    /// an uninstrumented run. Installing a hook switches the run into
    /// resilient mode: producers retransmit unacknowledged checkpoint
    /// windows (six rounds at most) and consumers deduplicate
    /// redelivered tuples, so data-plane loss and duplication heal instead
    /// of corrupting the result.
    pub chaos: Option<Arc<dyn ChaosHook>>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            adaptivity: AdaptivityConfig::default(),
            checkpoint_interval: 50,
            receive_cost_ms: 0.0,
            adapt_overhead_ms: 0.0,
            r1_overhead_ms: 0.0,
            seed: 0x5eed,
            collect_results: false,
            obs: ObsConfig::default(),
            chaos: None,
        }
    }
}

impl SimulationConfig {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        self.adaptivity.validate()?;
        self.obs.validate()?;
        if self.checkpoint_interval == 0 {
            return Err(GridError::Config(
                "checkpoint interval must be positive".into(),
            ));
        }
        for (name, v) in [
            ("receive_cost_ms", self.receive_cost_ms),
            ("adapt_overhead_ms", self.adapt_overhead_ms),
            ("r1_overhead_ms", self.r1_overhead_ms),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(GridError::Config(format!("{name} must be non-negative")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SimulationConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_values_rejected() {
        let mut c = SimulationConfig {
            checkpoint_interval: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.checkpoint_interval = 10;
        c.receive_cost_ms = -1.0;
        assert!(c.validate().is_err());
        c.receive_cost_ms = f64::NAN;
        assert!(c.validate().is_err());
    }
}
