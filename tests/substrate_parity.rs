//! Cross-substrate equivalence: the simulator, the threaded executor,
//! and the socket substrate must produce *identical result multisets*
//! for the same plan under the same perturbation — statically, under
//! prospective (R2) adaptation, and under retrospective (R1) adaptation
//! of a stateful hash join.
//!
//! Every cell describes its query once, as a `Workload`, and runs it
//! through the harness in `gridq::chaos`; a `RunSummary` holds the
//! result as a sorted multiset of rendered rows because the substrates
//! assign sequence numbers independently. The socket substrate scripts
//! its adaptation trigger (the decision stack is covered by the
//! sim/threaded cells); what its cells pin is that the *wire* data plane
//! — real frames over real connections — routes, recalls, and collects
//! the same tuples as the in-process substrates.

use std::sync::Arc;

use gridq::chaos::oracle::log_conservation;
use gridq::chaos::{
    run_on, FaultEvent, FaultPlan, Knobs, PlanHook, Policy, RunSummary, Substrate, Workload,
};
use gridq::common::{NodeId, RecallPhase, SimTime};
use gridq::exec::RetryPolicy;
use gridq::obs::TimelineKind;

mod common;
use common::{node_2_slow, q2, q2_r1, r1_knobs, r2_knobs, static_knobs};

fn q1() -> Workload {
    common::q1(600)
}

/// Cross-substrate agreement, stated once: the same workload on each
/// substrate returns `rows` rows, the first substrate's multiset on
/// every other, and recovery logs that all balance.
fn agree(
    substrates: &[Substrate],
    w: &Workload,
    knobs: impl Fn(Substrate) -> Knobs,
    rows: usize,
) -> Vec<RunSummary> {
    let runs: Vec<RunSummary> = substrates
        .iter()
        .map(|&s| run_on(s, w, &knobs(s)).unwrap_or_else(|e| panic!("{}: {e}", s.name())))
        .collect();
    for (s, run) in substrates.iter().zip(&runs) {
        assert_eq!(run.results.len(), rows, "{}", s.name());
        assert_eq!(
            run.results,
            runs[0].results,
            "{} and {} disagree",
            s.name(),
            substrates[0].name()
        );
        let audit = log_conservation(run);
        assert!(audit.passed, "{}: {}", s.name(), audit.detail);
    }
    runs
}

fn recalls_finished(run: &RunSummary) -> usize {
    let obs = run.obs.as_ref().expect("obs on by default");
    obs.events
        .iter()
        .filter(|e| matches!(e.kind, TimelineKind::RecallFinish { .. }))
        .count()
}

const IN_PROCESS: [Substrate; 2] = [Substrate::Sim, Substrate::Threaded];

#[test]
fn static_runs_agree_across_substrates() {
    agree(&IN_PROCESS, &q1(), |_| static_knobs(), 600);
}

#[test]
fn prospective_r2_runs_agree_across_substrates() {
    // The slow scan keeps the producer streaming for ~30 ms instead of
    // ~6: the loop must decide from each partition's first M1s before
    // routed/total passes the responder's 0.95 cut-off, and at ~6 ms a
    // loaded host lost that race a few times in a hundred.
    let w = node_2_slow(q1()).scan_cost_ms(&[5.0]);
    // Rerouting future tuples must not change what the query returns.
    let runs = agree(&IN_PROCESS, &w, |_| r2_knobs(), 600);
    assert!(
        runs[0].adaptations_deployed >= 1,
        "sim must adapt under the 10x imbalance"
    );
    assert!(
        runs[1].adaptations_deployed >= 1,
        "threaded executor must adapt under the 10x imbalance"
    );
}

#[test]
fn retrospective_r1_stateful_runs_agree_across_substrates() {
    let w = q2_r1();
    let sim = run_on(Substrate::Sim, &w, &r1_knobs(Substrate::Sim)).unwrap();
    let threaded = w.run_threaded(&r1_knobs(Substrate::Threaded)).unwrap();
    // Unperturbed static reference for the expected join output; scan
    // costs never change result values.
    let baseline = run_on(Substrate::Threaded, &q2(), &static_knobs()).unwrap();

    // The threaded run actually exercised the recall protocol, and its
    // recovery logs account for every recorded tuple: nothing was lost
    // (the probe log drains to zero unacknowledged entries) and nothing
    // was duplicated (the multisets below are exactly the baseline).
    assert!(
        threaded.adaptations_deployed >= 1 && threaded.recalls_completed >= 1,
        "expected a completed retrospective recall: {threaded:?}"
    );
    assert_eq!(threaded.log_audits.len(), 2);
    for audit in &threaded.log_audits {
        assert!(audit.conserved(), "log audit must balance: {audit:?}");
    }
    assert_eq!(
        threaded.log_audits[1].unacked, 0,
        "probe log must drain: {:?}",
        threaded.log_audits[1]
    );
    // The simulator's logs obey the same rules: a recall moves entries
    // into open windows without using up marker ids, so every marker the
    // probe log closes is sent and its window drains.
    assert_eq!(sim.log_audits.len(), 2);
    for audit in &sim.log_audits {
        assert!(audit.conserved(), "sim log audit must balance: {audit:?}");
    }
    assert_eq!(
        sim.log_audits[1].unacked, 0,
        "sim probe log must drain: {:?}",
        sim.log_audits[1]
    );

    assert_eq!(baseline.results.len(), 300);
    assert_eq!(baseline.results, sim.results);
    assert_eq!(baseline.results, RunSummary::from(threaded).results);
}

/// Node-failure parity: killing an evaluator mid-run — a simulated node
/// death on the simulator, a consumer thread killed through the chaos
/// seam on the threaded executor — must leave the result multiset
/// identical to an unfaulted reference run. Recovery-log replay plus
/// failover rerouting is exactly-once end to end on both substrates.
#[test]
fn node_failure_runs_match_the_unfaulted_reference() {
    let w = q2();

    // Unfaulted threaded reference: the expected join output.
    let reference = run_on(Substrate::Threaded, &w, &static_knobs()).unwrap();
    assert_eq!(reference.results.len(), 300);

    // Simulator: evaluator node 2 dies halfway through the healthy run;
    // producers replay its unacknowledged log entries onto node 1.
    let healthy = w.simulate(&Knobs::default()).unwrap();
    let fail_at = SimTime::from_millis(healthy.response_time_ms * 0.5);
    let sim_failed = run_on(
        Substrate::Sim,
        &w,
        &Knobs {
            node_failures: vec![(NodeId::new(2), fail_at)],
            ..Knobs::default()
        },
    )
    .unwrap();
    assert_eq!(reference.results, sim_failed.results);

    // Threaded executor: consumer 1 is killed on its 10th received
    // message; its exit notice reports the crash and the failover recall
    // replays its log entries to the survivor.
    let crash = plan_hook(vec![FaultEvent::CrashConsumer { worker: 1, nth: 10 }]);
    let threaded = w.run_threaded(&failover_knobs(&crash)).unwrap();
    assert_eq!(threaded.nodes_failed, 1, "one death reported: {threaded:?}");
    assert!(
        threaded.failovers_completed >= 1,
        "the failover recall must complete: {threaded:?}"
    );
    assert!(
        threaded.delivery_gaps.is_empty(),
        "replay + retransmission loses nothing: {threaded:?}"
    );
    for audit in &threaded.log_audits {
        assert!(audit.conserved(), "log audit must balance: {audit:?}");
    }
    // The killed consumer never reached an end-of-stream, yet the
    // run-wide processed count (advanced once per block) missed nothing
    // it had processed.
    let obs = threaded.obs.as_ref().expect("obs on by default");
    assert_eq!(
        obs.metrics.counters["exec.tuples_processed"],
        threaded.per_partition_processed.iter().sum::<u64>(),
        "{:?}",
        threaded.per_partition_processed
    );
    assert_eq!(reference.results, RunSummary::from(threaded).results);
}

/// Real milliseconds per model millisecond in the failover cells.
const FAILOVER_COST_SCALE: f64 = 0.002;

fn plan_hook(events: Vec<FaultEvent>) -> Arc<PlanHook> {
    Arc::new(PlanHook::new(&FaultPlan { seed: 0, events }))
}

/// A threaded failover cell: live R1 on short checkpoint windows, a
/// retry budget that outlasts the failover recall, and `hook`'s faults
/// injected through the chaos seams.
fn failover_knobs(hook: &Arc<PlanHook>) -> Knobs {
    Knobs {
        adaptivity: Policy::R1.adaptivity(),
        cost_scale: FAILOVER_COST_SCALE,
        checkpoint_interval: 8,
        chaos: Some(Arc::clone(hook) as _),
        delivery_retry: RetryPolicy {
            base_ms: 20.0,
            max_retries: 8,
        },
        failover: true,
        ..Knobs::default()
    }
}

/// A slow consumer is not a dead one: worker 1 stalls once for a full
/// second of real time, far longer than any plausible time-out, and
/// the run neither declares it dead nor fails it over. Only a crash is
/// reported as a death.
#[test]
fn a_slow_consumer_is_not_a_dead_one() {
    let w = q2();
    let reference = run_on(Substrate::Threaded, &w, &static_knobs()).unwrap();
    // One real second, in model milliseconds.
    let second = 1000.0 / FAILOVER_COST_SCALE;
    let stall = plan_hook(vec![FaultEvent::StallConsumer {
        worker: 1,
        nth: 1,
        ms: second,
    }]);
    let slow = w.run_threaded(&failover_knobs(&stall)).unwrap();
    assert_eq!(stall.fired(), [0], "the stall was injected");
    assert_eq!(slow.nodes_failed, 0, "a stall is not a death: {slow:?}");
    assert_eq!(slow.failovers_completed, 0, "{slow:?}");
    assert!(slow.delivery_gaps.is_empty(), "{slow:?}");
    assert_eq!(reference.results, RunSummary::from(slow).results);
}

/// A failover whose first attempt loses worker 0's drain reply times out
/// and is retried at once, and the retry completes. The join is
/// unperturbed, so the failover is the run's first recall and the lost
/// reply is its.
#[test]
fn a_failover_that_loses_a_drain_reply_is_retried_and_completes() {
    let w = q2();
    let reference = run_on(Substrate::Threaded, &w, &static_knobs()).unwrap();
    let faults = plan_hook(vec![
        FaultEvent::CrashConsumer { worker: 1, nth: 10 },
        FaultEvent::LoseRecallCtrl {
            phase: RecallPhase::Drain,
            worker: 0,
            nth: 1,
        },
    ]);
    let run = w
        .run_threaded(&Knobs {
            recall_timeout_ms: 200,
            ..failover_knobs(&faults)
        })
        .unwrap();
    assert_eq!(faults.fired(), [0, 1], "the crash, then the lost reply");
    assert_eq!(run.nodes_failed, 1, "{run:?}");
    assert_eq!(run.failovers_completed, 1, "{run:?}");
    assert!(run.delivery_gaps.is_empty(), "{run:?}");
    assert_eq!(reference.results, RunSummary::from(run).results);
}

/// Static three-way parity: the same Q1 plan over the simulator, the
/// threaded executor, and real socket connections returns one multiset.
#[test]
fn socket_static_run_agrees_with_both_in_process_substrates() {
    let w = q1();
    let runs = agree(&IN_PROCESS, &w, |_| static_knobs(), 600);
    let socket = w.run_socket(&static_knobs()).unwrap();
    assert_eq!(socket.results.len(), 600);
    assert_eq!(socket.reconnects, 0, "healthy run: {socket:?}");
    let socket = RunSummary::from(socket);
    assert_eq!(runs[0].results, socket.results);
    assert_eq!(runs[1].results, socket.results);
}

/// Prospective parity: a mid-run routing swap over the wire must not
/// change what the query returns, matching the R2 runs on the
/// in-process substrates (whose swap the control loop triggers).
#[test]
fn socket_prospective_swap_agrees_with_r2_on_both_substrates() {
    let runs = agree(&Substrate::ALL, &node_2_slow(q1()), |_| r2_knobs(), 600);
    assert_eq!(
        runs[2].adaptations_deployed, 1,
        "the scripted swap must deploy: {:?}",
        runs[2]
    );
}

/// Retrospective stateful parity: a drain–migrate–resume recall over
/// real connections — operator state shipped between worker processes'
/// address spaces via the coordinator — preserves the join's multiset
/// exactly, matching the R1 runs on both in-process substrates.
#[test]
fn socket_retrospective_recall_agrees_with_r1_on_both_substrates() {
    let w = q2_r1();
    let runs = agree(&IN_PROCESS, &w, r1_knobs, 300);
    let socket = w.run_socket(&r1_knobs(Substrate::Socket)).unwrap();
    assert_eq!(
        socket.recalls_completed, 1,
        "the scripted recall must complete: {socket:?}"
    );
    assert!(
        socket.state_tuples_migrated >= 1,
        "a recall at these weights moves build state: {socket:?}"
    );
    assert_eq!(socket.results.len(), 300);
    for audit in &socket.log_audits {
        assert!(audit.conserved(), "log audit must balance: {audit:?}");
    }
    let socket = RunSummary::from(socket);
    assert_eq!(runs[0].results, socket.results);
    assert_eq!(runs[1].results, socket.results);
}

/// The three cells above as one statement each: a workload and its
/// knobs, handed to all three substrates in a single call.
#[test]
fn every_substrate_agrees_on_the_static_r2_and_r1_workloads() {
    let runs = agree(&Substrate::ALL, &q1(), |_| static_knobs(), 600);
    assert!(
        runs.iter().all(|r| r.adaptations_deployed == 0),
        "static runs deploy nothing: {runs:?}"
    );

    let w = node_2_slow(q1()).scan_cost_ms(&[5.0]);
    let runs = agree(&Substrate::ALL, &w, |_| r2_knobs(), 600);
    for (s, run) in Substrate::ALL.iter().zip(&runs) {
        assert!(
            run.adaptations_deployed >= 1,
            "{} must adapt under the 10x imbalance",
            s.name()
        );
    }

    let runs = agree(&Substrate::ALL, &q2_r1(), r1_knobs, 300);
    let baseline = run_on(Substrate::Threaded, &q2(), &static_knobs()).unwrap();
    assert_eq!(baseline.results, runs[0].results);
    let [_, threaded, socket] = &runs[..] else {
        unreachable!("three substrates ran")
    };
    assert!(
        threaded.adaptations_deployed >= 1 && recalls_finished(threaded) >= 1,
        "expected a completed retrospective recall: {threaded:?}"
    );
    assert_eq!(threaded.log_audits.len(), 2);
    assert_eq!(
        threaded.log_audits[1].unacked, 0,
        "probe log must drain: {:?}",
        threaded.log_audits[1]
    );
    assert_eq!(
        socket.adaptations_deployed, 1,
        "the scripted recall must complete: {socket:?}"
    );
    assert!(
        socket.state_tuples_migrated >= 1,
        "a recall at these weights moves build state: {socket:?}"
    );
}
