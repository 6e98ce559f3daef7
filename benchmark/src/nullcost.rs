//! The null-cost argument, as a checked bound.
//!
//! The executors pay a modelled cost by sleeping
//! `Duration::from_secs_f64(model_ms * cost_scale / 1000)` once per block
//! and skip the sleep when that `Duration` is zero. `from_secs_f64`
//! rounds to whole nanoseconds, so with a small enough `cost_scale` no
//! call ever sleeps and the engine's own work is all that is left —
//! while the M1 events still carry the modelled costs the detector
//! expects. `cost_scale = 0` would say the same more directly but is
//! rejected by `validate()`, and this benchmark changes no source file.

use std::time::Duration;

/// The `cost_scale` the null-cost workloads run at.
pub const NULL_COST_SCALE: f64 = 1e-12;

/// True when an executor would really sleep for a `model_ms` charge at
/// `cost_scale` (the same arithmetic as its private `spin_for`).
pub fn would_sleep(model_ms: f64, cost_scale: f64) -> bool {
    let secs = model_ms * cost_scale / 1000.0;
    secs.is_finite() && !Duration::from_secs_f64(secs.max(0.0)).is_zero()
}

/// The largest modelled charge one sleep call can accumulate, in model
/// milliseconds. A consumer pays per block (`block_tuples` tuples of at
/// most `consumer_tuple_ms`, inflated by the perturbation `factor`); a
/// producer pays the scan cost of every row staged since its last flush,
/// which is at most one block per destination.
pub fn max_call_model_ms(
    block_tuples: usize,
    partitions: usize,
    scan_tuple_ms: f64,
    consumer_tuple_ms: f64,
    factor: f64,
) -> f64 {
    let block = block_tuples.max(1) as f64;
    let producer = block * partitions.max(1) as f64 * scan_tuple_ms;
    let consumer = block * consumer_tuple_ms * factor.max(1.0);
    producer.max(consumer)
}

/// Checks that a plan whose largest per-call charge is `model_ms` never
/// sleeps at `cost_scale`; the error names the numbers.
pub fn check_null_cost(model_ms: f64, cost_scale: f64) -> Result<(), String> {
    if would_sleep(model_ms, cost_scale) {
        Err(format!(
            "not null-cost: a {model_ms} model-ms charge at cost_scale {cost_scale:e} \
             rounds to a non-zero sleep"
        ))
    } else {
        Ok(())
    }
}
