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
//!   exchange edge, the `nth` checkpoint ack, a recall control reply, a
//!   node crash, a perturbation burst).
//! - [`PlanHook`] injects a plan through the narrow
//!   [`gridq_common::ChaosHook`] seams both substrates expose.
//! - The [`oracle`] module judges every faulted run against an unfaulted
//!   reference: tuple conservation, recovery-log conservation, recall
//!   safety, timeline causality, and teardown hygiene.
//! - [`harness`] describes a query once ([`Workload`]) and runs it on
//!   any substrate ([`run_on`]): the one place plans meet their wire
//!   specs, run knobs become substrate configs, and reports become a
//!   [`RunSummary`].
//! - [`Runner`] executes `(seed, family, substrate, policy)` matrix
//!   cells through it; [`shrink_failure`] minimises a failing plan to a small
//!   reproducer, mirroring `gridq_common::check`'s shrinking.
//! - [`socket_matrix`] covers the socket substrate's wire-level fault
//!   families (connection drops, partial writes, slow peers), which
//!   have no seam on the in-process substrates.
//!
//! Replaying is by seed: `GRIDQ_CHAOS_SEED=<n>` makes the `chaos` binary
//! run just that seed's matrix, regenerating the same plans and
//! reproducing the failure bit-for-bit — both substrates derive all
//! randomness from seeded [`gridq_common::DetRng`] streams. Every JSON
//! report records the scenario's seed and exact plan; it is written for
//! CI and for people, never read back.
//!
//! The fault model is honest about what the system can survive (see
//! [`gridq_common::chaos`]): control-plane traffic (monitoring
//! notifications, checkpoint acks, recall replies) is best-effort and
//! may be lost or duplicated; data-plane traffic is at-least-once —
//! dropped buffers are retransmitted from the producers' recovery logs
//! and duplicated buffers are absorbed by consumer-side deduplication,
//! so [`FaultEvent::DropData`] / [`FaultEvent::DuplicateData`] are live
//! matrix families, and [`FaultFamily::NodeCrash`] kills a worker
//! outright on either substrate. What remains deliberately
//! unrecoverable — and proves the oracles fail loudly — is exhausting
//! the retry budget (every copy of a window dropped) or crashing a
//! consumer with failover disabled.

pub mod harness;
pub mod hook;
pub mod oracle;
pub mod plan;
pub mod runner;
pub mod shrink;

pub use harness::{run_on, Knobs, Workload};
pub use hook::PlanHook;
pub use oracle::{judge, RunSummary, Verdict};
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

    /// Transient data-plane loss and duplication now heal: a single
    /// dropped or duplicated buffer leaves the result multiset identical
    /// to the reference on both substrates.
    #[test]
    fn single_data_faults_heal_on_both_substrates() {
        let mut runner = Runner::new();
        for substrate in Substrate::ALL {
            for event in [
                FaultEvent::DropData {
                    source: 0,
                    dest: 0,
                    nth: 1,
                },
                FaultEvent::DuplicateData {
                    source: 0,
                    dest: 1,
                    nth: 1,
                },
            ] {
                let scenario = Scenario {
                    seed: 0,
                    family: FaultFamily::DataLoss,
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
    }

    /// The loud-failure proof on the simulator: dropping *every* copy of
    /// an edge's traffic — initial delivery and all retransmission
    /// rounds — exhausts the retry budget, degrades into explicit
    /// delivery gaps, and MUST fail the conservation oracle. A green
    /// chaos report means something because this plan demonstrably turns
    /// it red.
    #[test]
    fn severed_edge_fails_the_conservation_oracle_on_sim() {
        let mut runner = Runner::new();
        let scenario = Scenario {
            seed: 0,
            family: FaultFamily::DataLoss,
            substrate: Substrate::Sim,
            policy: Policy::Static,
        };
        let events = (1..=25)
            .map(|nth| FaultEvent::DropData {
                source: 0,
                dest: 1,
                nth,
            })
            .collect();
        let outcome = runner.run_with_plan(scenario, FaultPlan { seed: 0, events });
        conservation_fails(&outcome);
    }

    /// The loud-failure proof on real threads: a consumer killed through
    /// the `crash_worker` seam with failover disabled (static policy)
    /// loses its share of the result for good once the retry budget is
    /// spent.
    #[test]
    fn unfailedover_consumer_crash_fails_the_conservation_oracle() {
        let mut runner = Runner::new();
        let scenario = Scenario {
            seed: 0,
            family: FaultFamily::NodeCrash,
            substrate: Substrate::Threaded,
            policy: Policy::Static,
        };
        let plan = FaultPlan {
            seed: 0,
            events: vec![FaultEvent::CrashConsumer { worker: 1, nth: 5 }],
        };
        let outcome = runner.run_with_plan(scenario, plan);
        conservation_fails(&outcome);
    }
}
