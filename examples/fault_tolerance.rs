//! Fault tolerance on the adaptivity substrate (beyond the paper's
//! evaluation): the checkpoint/acknowledgement recovery logs that make
//! retrospective adaptation possible also recover from evaluator-node
//! failures. Producers re-send every unacknowledged tuple of a failed
//! partition — rebuilding migrated join state from the never-acknowledged
//! build log — and the collector deduplicates redelivered results.
//!
//! One crash plan runs on both in-process substrates: a consumer is
//! killed on its 10th received message (a buffer arriving in the
//! simulator, an inbox message on threads), a failover recall replays
//! its recovery-log entries onto the survivor, and the join result is
//! identical to an unfaulted run on either.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use std::sync::Arc;

use gridq::chaos::{
    run_on, FaultEvent, FaultFamily, FaultPlan, Knobs, PlanHook, Policy, Runner, Scenario,
    Substrate, Workload,
};
use gridq::engine::fixtures::multiset;
use gridq::obs::TimelineKind;
use gridq::workload::experiments::Q2Experiment;

fn main() {
    let q2 = Workload::q2(&Q2Experiment {
        sequences: 60,
        interactions: 300,
        probe_cost_ms: 0.5,
        build_cost_ms: 0.1,
        receive_cost_ms: 1.0,
        bucket_count: 16,
        buffer_tuples: 10,
        ..Default::default()
    });
    let crash_plan = FaultPlan {
        seed: 0,
        events: vec![FaultEvent::CrashConsumer { worker: 1, nth: 10 }],
    };
    println!(
        "Q2 (60 sequences, 300 interactions, 2 evaluators) under the crash plan {}",
        crash_plan.to_json()
    );
    for substrate in [Substrate::Sim, Substrate::Threaded] {
        let healthy = run_on(
            substrate,
            &q2,
            &Knobs {
                cost_scale: 0.002,
                ..Knobs::default()
            },
        )
        .expect("healthy run");
        // The dying worker reports its crash on the way out (a slow one
        // reports nothing and is waited for); the responder drives a
        // failover recall that zeroes the dead partition's weight and
        // replays its unacknowledged log entries onto the survivor.
        let faulted = run_on(
            substrate,
            &q2,
            &Knobs {
                adaptivity: Policy::R1.adaptivity(),
                cost_scale: 0.002,
                checkpoint_interval: 8,
                chaos: Some(Arc::new(PlanHook::new(&crash_plan))),
                failover: true,
                ..Knobs::default()
            },
        )
        .expect("faulted run");
        assert_eq!(
            multiset(&healthy.results),
            multiset(&faulted.results),
            "failover must reproduce the unfaulted result multiset"
        );
        assert_eq!((faulted.nodes_failed, faulted.failovers_completed), (1, 1));
        println!(
            "\n=== {} ===\n\
             healthy: {:.0} ms, {} join results\n\
             consumer 1 killed on its 10th message:\n\
             \x20  {:.0} ms ({:.2}x), {} results (identical multiset to healthy run)\n\
             \x20  {} death(s) reported, {} failover recall(s) completed\n\
             \x20  {} tuples replayed, {} delivery gaps\n\
             \x20  final routing weights {:?} (dead partition pinned to zero)",
            substrate.name(),
            healthy.wall_ms,
            healthy.results.len(),
            faulted.wall_ms,
            faulted.wall_ms / healthy.wall_ms,
            faulted.results.len(),
            faulted.nodes_failed,
            faulted.failovers_completed,
            faulted.tuples_replayed,
            faulted.delivery_gaps.len(),
            faulted.final_distribution,
        );
        for event in faulted.obs.iter().flat_map(|o| &o.events) {
            if matches!(
                event.kind,
                TimelineKind::NodeDown { .. } | TimelineKind::Failover { .. }
            ) {
                println!("      {}", event.to_json_line());
            }
        }
        for audit in &faulted.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
        }
        println!("   every recovery log balances: recorded = pruned + retired + unacked");
    }
    println!(
        "\nThe recovery path is the paper's own substrate: recovery logs hold \
         exactly the unacknowledged tuples (including all join state), so a \
         failed partition's work is replayed on the survivors."
    );

    // The same guarantees, checked mechanically: generate a seeded fault
    // plan per family, inject it through the chaos hooks, and let the
    // invariant oracles judge the run against an unfaulted reference.
    // Set GRIDQ_CHAOS_SEED=<n> to replay a different (or a failing) seed.
    let seed = std::env::var("GRIDQ_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    println!("\n=== seeded chaos runs (GRIDQ_CHAOS_SEED={seed}) ===");
    let mut runner = Runner::new();
    for family in [
        FaultFamily::NotifyLoss,
        FaultFamily::Stall,
        FaultFamily::CrashMidRecall,
    ] {
        let scenario = Scenario {
            seed,
            family,
            substrate: Substrate::Sim,
            policy: Policy::R1,
        };
        let outcome = runner.run_scenario(scenario);
        println!(
            "\n{}: {} fault(s) fired, plan {}",
            scenario.label(),
            outcome.fired_events,
            outcome.plan.to_json()
        );
        for v in &outcome.verdicts {
            println!(
                "   {} {:<18} {}",
                if v.passed { "pass" } else { "FAIL" },
                v.oracle,
                v.detail
            );
        }
        assert!(outcome.passed(), "chaos oracles must pass: {outcome:?}");
    }
}
