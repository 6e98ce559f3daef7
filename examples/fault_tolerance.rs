//! Fault tolerance on the adaptivity substrate (beyond the paper's
//! evaluation): the checkpoint/acknowledgement recovery logs that make
//! retrospective adaptation possible also recover from evaluator-node
//! failures. Producers re-send every unacknowledged tuple of a failed
//! partition — rebuilding migrated join state from the never-acknowledged
//! build log — and the collector deduplicates redelivered results.
//!
//! The same failure class is then replayed on the threaded substrate:
//! a consumer *thread* is killed mid-run, its exit notice reports the
//! crash, and a failover recall replays its recovery-log entries onto
//! the survivor — the join result is byte-identical to an unfaulted run.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use std::sync::Arc;

use gridq::adapt::AdaptivityConfig;
use gridq::chaos::{
    FaultEvent, FaultFamily, FaultPlan, Knobs, PlanHook, Policy, Runner, Scenario, Substrate,
    Workload,
};
use gridq::common::{NodeId, SimTime};
use gridq::engine::fixtures::multiset;
use gridq::exec::RetryPolicy;
use gridq::grid::GridEnvironment;
use gridq::obs::TimelineKind;
use gridq::sim::{Simulation, SimulationConfig};
use gridq::workload::experiments::Q2Experiment;

fn main() {
    let q2 = Q2Experiment::default();
    println!(
        "Q2: hash join of {} sequences with {} interactions over {} evaluators\n",
        q2.sequences, q2.interactions, q2.evaluators
    );

    let env = GridEnvironment::demo(q2.evaluators);
    let config = SimulationConfig {
        collect_results: false,
        receive_cost_ms: q2.receive_cost_ms,
        adaptivity: AdaptivityConfig::disabled(),
        ..Default::default()
    };
    let sim = Simulation::new(env, q2.catalog(), config).expect("simulation builds");
    let plan = q2.plan();

    let healthy = sim.run(&plan).expect("healthy run");
    println!(
        "healthy run: {:.0} ms, {} join results",
        healthy.wall_ms, healthy.tuples_output
    );

    for fraction in [0.2, 0.5, 0.8] {
        let fail_at = SimTime::from_millis(healthy.wall_ms * fraction);
        let report = sim
            .run_with_failures(&plan, &[(NodeId::new(2), fail_at)])
            .expect("failure run");
        assert_eq!(
            report.tuples_output, healthy.tuples_output,
            "recovery must deliver the full join result exactly once"
        );
        println!(
            "\nnode2 fails at {:.0}% of the run:\n\
             \x20  response {:.0} ms ({:.2}x), {} results (complete), \
             {} tuples replayed from logs",
            fraction * 100.0,
            report.wall_ms,
            report.wall_ms / healthy.wall_ms,
            report.tuples_output,
            report.tuples_replayed,
        );
        for event in report.obs.iter().flat_map(|o| &o.events) {
            if matches!(
                event.kind,
                TimelineKind::NodeDown { .. } | TimelineKind::Failover { .. }
            ) {
                println!("      {}", event.to_json_line());
            }
        }
    }
    println!(
        "\nThe recovery path is the paper's own substrate: recovery logs hold \
         exactly the unacknowledged tuples (including all join state), so a \
         failed partition's work is replayed on the survivors."
    );

    // The same failure on real threads: a smaller Q2 instance, with one
    // consumer thread killed on its 10th received message. The dying
    // thread reports its crash on the way out (a slow one reports
    // nothing and is waited for); the responder drives a failover recall
    // that zeroes the dead partition's weight and replays its
    // unacknowledged log entries onto the survivor.
    println!("\n=== threaded substrate: consumer thread killed mid-run ===");
    let q2t = Workload::q2(&Q2Experiment {
        sequences: 60,
        interactions: 300,
        probe_cost_ms: 0.5,
        build_cost_ms: 0.1,
        receive_cost_ms: 1.0,
        bucket_count: 16,
        buffer_tuples: 10,
        ..Default::default()
    });
    let baseline = q2t
        .run_threaded(&Knobs {
            cost_scale: 0.002,
            ..Knobs::default()
        })
        .expect("healthy threaded run");
    println!(
        "healthy threaded run: {:.0} ms, {} join results",
        baseline.wall_ms,
        baseline.results.len()
    );

    let crash_plan = FaultPlan {
        seed: 0,
        events: vec![FaultEvent::CrashConsumer { worker: 1, nth: 10 }],
    };
    let faulted = q2t
        .run_threaded(&Knobs {
            adaptivity: Policy::R1.adaptivity(),
            cost_scale: 0.002,
            checkpoint_interval: 8,
            chaos: Some(Arc::new(PlanHook::new(&crash_plan))),
            delivery_retry: RetryPolicy {
                base_ms: 20.0,
                max_retries: 8,
            },
            failover: true,
            ..Knobs::default()
        })
        .expect("faulted threaded run");
    assert_eq!(
        multiset(&baseline.results),
        multiset(&faulted.results),
        "failover must reproduce the unfaulted result multiset"
    );
    println!(
        "consumer 1 killed on its 10th message:\n\
         \x20  {:.0} ms ({:.2}x), {} results (identical multiset to healthy run)\n\
         \x20  {} death(s) reported, {} failover recall(s) completed\n\
         \x20  {} tuples retransmitted from recovery logs, {} delivery gaps\n\
         \x20  final routing weights {:?} (dead partition pinned to zero)",
        faulted.wall_ms,
        faulted.wall_ms / baseline.wall_ms,
        faulted.results.len(),
        faulted.nodes_failed,
        faulted.failovers_completed,
        faulted.tuples_retransmitted,
        faulted.delivery_gaps.len(),
        faulted.final_distribution,
    );
    for audit in &faulted.log_audits {
        assert!(audit.conserved(), "log audit must balance: {audit:?}");
    }
    println!("   every recovery log balances: recorded = pruned + retired + unacked");

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
