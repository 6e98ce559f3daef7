//! Cross-substrate equivalence: the simulator, the threaded executor,
//! and the socket substrate must produce *identical result multisets*
//! for the same plan under the same perturbation — statically, under
//! prospective (R2) adaptation, and under retrospective (R1) adaptation
//! of a stateful hash join.
//!
//! Every cell describes its query once, as a `Workload`, and runs it
//! through the harness in `gridq::chaos`; every substrate returns the
//! same `RunReport`, and cells compare those directly — results as a
//! sorted multiset of rendered rows, because the substrates assign
//! sequence numbers independently. Fault plans are the chaos harness's
//! too, and mean the same faults on both in-process substrates. The
//! socket substrate scripts
//! its adaptation trigger (the decision stack is covered by the
//! sim/threaded cells); what its cells pin is that the *wire* data plane
//! — real frames over real connections — routes, recalls, and collects
//! the same tuples as the in-process substrates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridq::chaos::oracle::{conservation, log_conservation, recall_safety, replay};
use gridq::chaos::{run_on, FaultEvent, FaultPlan, Knobs, PlanHook, Policy, Substrate, Workload};
use gridq::common::{ChaosHook, RecallPhase};
use gridq::engine::fixtures::{multiset, CallShape, JoinShape};
use gridq::obs::{RunReport, TimelineKind};

mod common;
use common::{node_2_slow, q2, q2_r1, r1_knobs, r2_knobs, static_knobs};

fn q1() -> Workload {
    common::q1(600)
}

/// The run's results as a sorted multiset of rendered rows.
fn rows(run: &RunReport) -> Vec<String> {
    multiset(&run.results)
}

/// Cross-substrate agreement, stated once: the same workload on each
/// substrate returns `count` rows, the first substrate's multiset on
/// every other, and recovery logs that all balance.
fn agree(
    substrates: &[Substrate],
    w: &Workload,
    knobs: impl Fn(Substrate) -> Knobs,
    count: usize,
) -> Vec<RunReport> {
    let runs: Vec<RunReport> = substrates
        .iter()
        .map(|&s| run_on(s, w, &knobs(s)).unwrap_or_else(|e| panic!("{}: {e}", s.name())))
        .collect();
    for (s, run) in substrates.iter().zip(&runs) {
        assert_eq!(run.results.len(), count, "{}", s.name());
        assert_eq!(
            rows(run),
            rows(&runs[0]),
            "{} and {} disagree",
            s.name(),
            substrates[0].name()
        );
        let audit = log_conservation(run);
        assert!(audit.passed, "{}: {}", s.name(), audit.detail);
    }
    runs
}

fn recalls_finished(run: &RunReport) -> usize {
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
    assert_eq!(rows(&baseline), rows(&sim));
    assert_eq!(rows(&baseline), rows(&threaded));
}

/// Node-failure parity: one crash plan — consumer 1 killed on its 10th
/// received message, through the `crash_worker` seam — on both
/// in-process substrates. Each reports the death once and fails it over
/// once; recovery-log replay plus failover rerouting is exactly-once end
/// to end, and the loop's decisions replay from the timeline.
#[test]
fn node_failure_runs_match_the_unfaulted_reference() {
    let w = q2();
    let reference = run_on(Substrate::Threaded, &w, &static_knobs()).unwrap();
    assert_eq!(reference.results.len(), 300);
    for substrate in IN_PROCESS {
        let name = substrate.name();
        let crash = plan_hook(vec![FaultEvent::CrashConsumer { worker: 1, nth: 10 }]);
        let run = run_on(substrate, &w, &failover_knobs(&crash)).unwrap();
        assert_eq!(crash.fired(), [0], "{name}: the crash fired");
        assert_eq!(
            (run.nodes_failed, run.failovers_completed),
            (1, 1),
            "{name}: one death, one failover: {run:?}"
        );
        assert!(
            run.delivery_gaps.is_empty(),
            "{name}: the failover replay loses nothing: {run:?}"
        );
        for audit in &run.log_audits {
            assert!(
                audit.conserved(),
                "{name}: log audit must balance: {audit:?}"
            );
        }
        // The killed consumer never finished, yet the run-wide
        // processed count missed nothing it had processed.
        let processed = match substrate {
            Substrate::Sim => "sim.tuples_processed",
            _ => "exec.tuples_processed",
        };
        let obs = run.obs.as_ref().expect("obs on by default");
        assert_eq!(
            obs.metrics.counters[processed],
            run.per_partition_processed.iter().sum::<u64>(),
            "{name}: {:?}",
            run.per_partition_processed
        );
        assert_eq!(rows(&reference), rows(&run), "{name}");
        let verdict = replay(&run);
        assert!(verdict.passed, "{name}: {}", verdict.detail);
    }
}

/// A worker that dies on a recall's command answers the barrier with its
/// death, on the simulator as on threads, and nothing waits out a
/// time-out. A death on the Drain abandons the recall before the swap —
/// no deploy for that decision — and one on the Migrate leaves it
/// deployed but not completed. Either way the death fails over like any
/// other, the results whole.
#[test]
fn a_death_mid_recall_answers_the_barrier_and_fails_over() {
    let w = q2_r1();
    let reference = run_on(Substrate::Threaded, &q2(), &static_knobs()).unwrap();
    for (substrate, phase) in IN_PROCESS
        .into_iter()
        .flat_map(|s| [RecallPhase::Drain, RecallPhase::Migrate].map(|phase| (s, phase)))
    {
        let name = format!("{}/{phase:?}", substrate.name());
        let crash = plan_hook(vec![FaultEvent::CrashOnRecall {
            phase,
            worker: 0,
            nth: 1,
        }]);
        let run = run_on(substrate, &w, &failover(&crash, r1_knobs(substrate))).unwrap();
        assert_eq!(crash.fired(), [0], "{name}: the worker died mid-recall");
        assert!(run.recalls_aborted >= 1, "{name}: {run:?}");
        assert_eq!(
            (run.nodes_failed, run.failovers_completed),
            (1, 1),
            "{name}: one death, one failover: {run:?}"
        );
        assert!(run.delivery_gaps.is_empty(), "{name}: {run:?}");
        let obs = run.obs.as_ref().expect("obs on by default");
        let first_accepted = obs.events.iter().find_map(|e| match &e.kind {
            TimelineKind::ResponderDecision {
                decision,
                diagnosis_seq,
                ..
            } if decision == "accepted" => Some(*diagnosis_seq),
            _ => None,
        });
        let first_accepted = first_accepted.expect("the loop accepted a proposal");
        let deployed = obs.events.iter().any(|e| {
            matches!(
                e.kind,
                TimelineKind::Deploy { diagnosis_seq, .. } if diagnosis_seq == first_accepted
            )
        });
        assert_eq!(
            deployed,
            phase == RecallPhase::Migrate,
            "{name}: only a death after the swap leaves the recall deployed"
        );
        for verdict in [
            conservation(&reference, &run),
            log_conservation(&run),
            recall_safety(&run),
            replay(&run),
        ] {
            assert!(
                verdict.passed,
                "{name}: {}: {}",
                verdict.oracle, verdict.detail
            );
        }
    }
}

/// Real milliseconds per model millisecond in the failover cells.
const FAILOVER_COST_SCALE: f64 = 0.002;

fn plan_hook(events: Vec<FaultEvent>) -> Arc<PlanHook> {
    Arc::new(PlanHook::new(&FaultPlan { seed: 0, events }))
}

/// A threaded failover cell: live R1 on short checkpoint windows, and
/// `hook`'s faults injected through the chaos seams.
fn failover_knobs(hook: &Arc<PlanHook>) -> Knobs {
    let knobs = Knobs {
        adaptivity: Policy::R1.adaptivity(),
        cost_scale: FAILOVER_COST_SCALE,
        checkpoint_interval: 8,
        ..Knobs::default()
    };
    failover(hook, knobs)
}

/// `knobs` with `hook`'s faults injected and a dead worker failed over:
/// its producers end their streams only once the failover replay has
/// drained its windows.
fn failover(hook: &Arc<PlanHook>, knobs: Knobs) -> Knobs {
    Knobs {
        chaos: Some(Arc::clone(hook) as _),
        failover: true,
        ..knobs
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
    assert_eq!(rows(&reference), rows(&slow));
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
    assert_eq!(rows(&runs[0]), rows(&socket));
    assert_eq!(rows(&runs[1]), rows(&socket));
    assert!(
        runs.iter()
            .chain([&socket])
            .all(|r| r.adaptations_deployed == 0),
        "a static run deploys nothing"
    );
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
    assert_eq!(rows(&runs[0]), rows(&socket));
    assert_eq!(rows(&runs[1]), rows(&socket));
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
    assert_eq!(rows(&baseline), rows(&runs[0]));
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

/// A hook that never fires: the run is resilient, and the hook counts
/// how often each worker is asked whether it dies — once per message it
/// receives.
#[derive(Debug, Default)]
struct CountingHook {
    asked: [AtomicU64; 2],
}

impl ChaosHook for CountingHook {
    fn crash_worker(&self, worker: usize, _recall: Option<RecallPhase>) -> bool {
        self.asked[worker].fetch_add(1, Ordering::Relaxed);
        false
    }
}

/// No fault, no second send. A resilient run with nothing injected sends
/// each window once and has it acknowledged once, on every substrate, at
/// a short and at the default checkpoint interval: a producer ends its
/// stream on the acks, not on a timer that fires before they come. With
/// nothing sent twice, what a worker receives is the same from run to
/// run, so an nth-message fault is the same fault every time.
#[test]
fn a_run_without_faults_sends_each_window_once() {
    let workloads = [
        (
            "call 100",
            Workload::call("t", 100, &CallShape::default()),
            100,
        ),
        (
            "join 20/100",
            Workload::join(("b", 20), ("p", 100), &JoinShape::default()),
            20,
        ),
        (
            "join 200/1000",
            Workload::join(("b", 200), ("p", 1000), &JoinShape::default()),
            200,
        ),
    ];
    for (name, w, rows) in &workloads {
        for checkpoint_interval in [8, 50] {
            for substrate in Substrate::ALL {
                let runs = if substrate == Substrate::Sim { 1 } else { 3 };
                let asked: Vec<[u64; 2]> = (0..runs)
                    .map(|_| {
                        let hook = Arc::new(CountingHook::default());
                        let knobs = Knobs {
                            cost_scale: 0.002,
                            checkpoint_interval,
                            chaos: Some(Arc::clone(&hook) as _),
                            ..Knobs::default()
                        };
                        let label = format!("{name}/{checkpoint_interval}/{}", substrate.name());
                        let run = run_on(substrate, w, &knobs).expect(&label);
                        assert_eq!(run.results.len(), *rows, "{label}");
                        for audit in &run.log_audits {
                            assert!(audit.conserved(), "{label}: {audit:?}");
                            assert_eq!(audit.acks_duplicate, 0, "{label}: {audit:?}");
                        }
                        hook.asked.each_ref().map(|a| a.load(Ordering::Relaxed))
                    })
                    .collect();
                assert!(
                    asked.windows(2).all(|pair| pair[0] == pair[1]),
                    "{name}/{checkpoint_interval}/{}: {asked:?}",
                    substrate.name()
                );
            }
        }
    }
}
