#![warn(missing_docs)]

//! Deterministic fault injection with invariant oracles over the
//! execution substrates (simulator, threaded, and sockets).
//!
//! The adaptivity control loop (monitor → assess → respond) and the
//! recall/recovery protocols underneath it make strong promises: no
//! tuple is lost or duplicated, aborted recalls leave no partial state,
//! every deployed adaptation traces back to a diagnosis, and teardown
//! retires every tracked stream. This crate *attacks* those promises
//! deterministically and checks them mechanically:
//!
//! - [`FaultPlan`] is a seeded, replayable list of [`FaultEvent`]s, each
//!   aimed at one occurrence of one seam (the `nth` buffer on one
//!   exchange edge, the `nth` checkpoint ack, a worker's `nth` received
//!   message — or `nth` recall command of one round — to die on, a
//!   perturbation burst). A
//!   cell's plan depends on its seed, family and topology only: the
//!   simulator and the threads run the same plan.
//! - [`PlanHook`] injects a plan through the narrow
//!   [`gridq_common::ChaosHook`] seams every substrate exposes.
//! - The [`oracle`] module judges every faulted run against an unfaulted
//!   reference: tuple conservation, recovery-log conservation, recall
//!   safety, timeline causality, teardown hygiene, tenant isolation, and
//!   a replay of the control loop's decisions.
//! - [`harness`] describes a query once ([`Workload`]) and runs it on
//!   any substrate ([`run_on`]): the one place plans meet their wire
//!   specs and run knobs become substrate configs. Every substrate
//!   returns the same `gridq_obs::RunReport`.
//! - [`Runner`] executes `(seed, family, substrate, policy)` matrix
//!   cells through it; [`shrink_failure`] minimises a failing plan to a small
//!   reproducer, mirroring `gridq_common::check`'s shrinking.
//! - [`socket_matrix`] covers the socket substrate: the node crash, a
//!   death mid-recall, and the wire-level fault families (partial
//!   writes, slow peers), which have no seam on the in-process
//!   substrates.
//!
//! Replaying is by seed: `GRIDQ_CHAOS_SEED=<n>` makes the `chaos` binary
//! run just that seed's matrix, regenerating the same plans and
//! reproducing the failure bit-for-bit — both substrates derive all
//! randomness from seeded [`gridq_common::DetRng`] streams. Every JSON
//! report records the scenario's seed and exact plan; it is written for
//! CI and for people, never read back.
//!
//! The fault model is honest about what the system can survive (see
//! [`gridq_common::chaos`]): monitoring notifications and checkpoint
//! notifications are best-effort and may be lost; checkpoint acks may be
//! delayed or duplicated; every channel — a recall's replies, the data
//! plane — is FIFO-or-dead: a worker answers each barrier or dies, and
//! its death is the answer. Duplicated data buffers are absorbed by
//! consumer-side deduplication, so [`FaultEvent::DuplicateData`] is a
//! live matrix family, and [`FaultFamily::NodeCrash`] and
//! [`FaultFamily::CrashMidRecall`] kill a worker outright through the
//! same `crash_worker` seam on every substrate. What remains
//! deliberately unrecoverable — and proves the oracles fail loudly — is
//! crashing a consumer with failover disabled.

pub mod harness;
pub mod hook;
pub mod oracle;
pub mod plan;
pub mod runner;
pub mod shrink;

pub use harness::{run_on, Knobs, Workload};
pub use hook::PlanHook;
pub use oracle::{judge, Verdict};
pub use plan::{FaultEvent, FaultFamily, FaultPlan, Topology};
pub use runner::{
    matrix, socket_matrix, Policy, Runner, Scenario, ScenarioOutcome, Substrate, ORACLES,
};
pub use shrink::shrink_failure;

#[cfg(test)]
mod tests {
    use super::*;

    fn conservation_fails(outcome: &ScenarioOutcome) {
        assert!(!outcome.passed(), "must fail loudly: {outcome:?}");
        let conservation = outcome
            .verdicts
            .iter()
            .find(|v| v.oracle == "conservation")
            .expect("conservation verdict present");
        assert!(
            !conservation.passed,
            "conservation must be the oracle that fails: {outcome:?}"
        );
    }

    /// A duplicated buffer leaves the result multiset identical to the
    /// reference on every substrate.
    #[test]
    fn single_data_faults_heal_on_both_substrates() {
        let mut runner = Runner::new();
        for substrate in Substrate::ALL {
            let event = FaultEvent::DuplicateData {
                source: 0,
                dest: 1,
                nth: 1,
            };
            let scenario = Scenario {
                seed: 0,
                family: FaultFamily::DataDup,
                substrate,
                policy: Policy::Static,
            };
            let plan = FaultPlan {
                seed: 0,
                events: vec![event.clone()],
            };
            let outcome = runner.run_with_plan(scenario, plan);
            assert!(
                outcome.passed(),
                "{}/{:?} must heal: {outcome:?}",
                substrate.name(),
                event
            );
        }
    }

    /// The loud-failure proof: a consumer killed through the
    /// `crash_worker` seam with failover disabled (static policy, on
    /// threads) loses its share of the result for good — written off as
    /// a delivery gap as soon as its death is reported — and MUST fail
    /// the conservation oracle, harmless delays around it or not. A
    /// green chaos report means something because this plan demonstrably
    /// turns it red.
    #[test]
    fn unfailedover_consumer_crash_fails_the_conservation_oracle() {
        let mut runner = Runner::new();
        let scenario = Scenario {
            seed: 0,
            family: FaultFamily::NodeCrash,
            substrate: Substrate::Threaded,
            policy: Policy::Static,
        };
        let crash = FaultEvent::CrashConsumer { worker: 1, nth: 5 };
        let delays = (1..=6).map(|nth| FaultEvent::DelayData {
            source: 0,
            dest: 0,
            nth,
            delay_ms: 4.0,
        });
        for events in [vec![crash.clone()], delays.chain([crash]).collect()] {
            let outcome = runner.run_with_plan(scenario, FaultPlan { seed: 0, events });
            conservation_fails(&outcome);
        }
    }
}
