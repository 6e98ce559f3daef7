// Positive fixture for the `wall-clock` rule (negative when presented
// at an allowlisted clock site such as crates/common/src/sync/ring.rs).
use std::time::{Instant, SystemTime};

pub fn elapsed_ms(start: Instant) -> f64 {
    // Taking an `Instant` as input is fine; *reading* the clock is not.
    let now = Instant::now();
    now.duration_since(start).as_secs_f64() * 1000.0
}

pub fn stamp() -> SystemTime {
    SystemTime::now()
}
