//! Greedy minimisation of failing fault plans.
//!
//! When a scenario fails, the shrinker re-runs it under progressively
//! smaller event lists (the same halving-then-single-removal candidate
//! order as [`gridq_common::check::shrink_vec`]) and keeps the smallest
//! plan that still fails, so a report carries a minimal reproducer
//! instead of the full generated bundle.

use gridq_common::check::shrink_vec;

use crate::plan::FaultPlan;
use crate::runner::{Runner, Scenario, ScenarioOutcome};

/// Upper bound on adopted shrink steps; each step strictly reduces the
/// event count, so this is a safety net, not a tuning knob.
const MAX_STEPS: usize = 64;

/// Shrinks a failing plan to a smaller plan that still fails, returning
/// the outcome of the minimal reproducer. If the failure vanishes under
/// every candidate (a flaky fault interaction), the original outcome is
/// returned unchanged.
pub fn shrink_failure(
    runner: &mut Runner,
    scenario: Scenario,
    failing: ScenarioOutcome,
) -> ScenarioOutcome {
    debug_assert!(!failing.passed(), "only failing outcomes shrink");
    let mut best = failing;
    for _ in 0..MAX_STEPS {
        let mut advanced = false;
        for events in shrink_vec(&best.plan.events) {
            if events.len() >= best.plan.events.len() {
                continue;
            }
            let candidate = FaultPlan {
                seed: best.plan.seed,
                events,
            };
            let outcome = runner.run_with_plan(scenario, candidate);
            if !outcome.passed() {
                best = outcome;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultEvent, FaultFamily};
    use crate::runner::{Policy, Substrate};

    /// An unrecoverable death (a consumer crash with failover off, on
    /// threads) padded with harmless delays must shrink to a smaller
    /// reproducer that still breaks conservation: the crash alone.
    #[test]
    fn shrinks_to_a_smaller_breaking_reproducer() {
        let mut runner = Runner::new();
        let scenario = Scenario {
            seed: 0,
            family: FaultFamily::NodeCrash,
            substrate: Substrate::Threaded,
            policy: Policy::Static,
        };
        let mut events: Vec<FaultEvent> = (1..=6)
            .map(|nth| FaultEvent::DelayData {
                source: 0,
                dest: 0,
                nth,
                delay_ms: 4.0,
            })
            .collect();
        events.insert(3, FaultEvent::CrashConsumer { worker: 1, nth: 5 });
        let original_len = events.len();
        let failing = runner.run_with_plan(scenario, FaultPlan { seed: 0, events });
        assert!(
            !failing.passed(),
            "an unrecoverable death must break an oracle: {failing:?}"
        );
        let minimal = shrink_failure(&mut runner, scenario, failing);
        assert!(!minimal.passed(), "shrinking must preserve the failure");
        assert!(
            minimal.plan.events.len() < original_len,
            "reproducer must shrink: {:?}",
            minimal.plan
        );
        assert!(
            minimal
                .plan
                .events
                .iter()
                .all(|e| matches!(e, FaultEvent::CrashConsumer { .. })),
            "the harmless delays must shrink away: {:?}",
            minimal.plan
        );
    }
}
