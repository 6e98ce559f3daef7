//! Tier-1 chaos smoke: a pinned corner of the full chaos matrix runs on
//! every `cargo test`, so fault-injection regressions surface before the
//! seeded CI matrix does. Three pinned seeds × seven shared fault
//! families (notification drop, thread stall, crash mid-recall, data
//! loss, data duplication, node crash, block-boundary drop/dup pairs) on
//! the sim and threaded substrates, plus the three socket-only families
//! (conn_drop, partial_write, slow_peer — their seams do not exist
//! in-process) on the socket substrate; every oracle green, and every
//! report line what CI uploads: JSON naming its cell, plan and oracles. The data-plane
//! families are live here — dropped blocks heal through whole-block
//! recovery-log retransmission, duplicated blocks are absorbed by
//! consumer range dedup, a killed threaded consumer fails over from its
//! own exit notice, and a severed socket heals through the reconnect
//! handshake plus link-level retransmission.

use gridq::chaos::{
    FaultEvent, FaultFamily, FaultPlan, Policy, Runner, Scenario, ScenarioOutcome, Substrate,
    ORACLES,
};
use gridq::obs::Json;

const SEEDS: [u64; 3] = [1, 7, 1303];
const FAMILIES: [FaultFamily; 7] = [
    FaultFamily::NotifyLoss,
    FaultFamily::Stall,
    FaultFamily::CrashMidRecall,
    FaultFamily::DataLoss,
    FaultFamily::DataDup,
    FaultFamily::NodeCrash,
    FaultFamily::BlockBoundary,
];

/// The pinned (family, substrate) cells: each family runs on exactly the
/// substrates whose seams it targets — crash/stall/notify faults have no
/// socket analogue, and the socket families have no in-process one.
fn pinned_cells() -> Vec<(FaultFamily, Substrate)> {
    let mut cells = Vec::new();
    for family in FAMILIES {
        for substrate in [Substrate::Sim, Substrate::Threaded] {
            cells.push((family, substrate));
        }
    }
    for family in FaultFamily::SOCKET {
        cells.push((family, Substrate::Socket));
    }
    cells
}

#[test]
fn pinned_cells_pass_every_oracle_and_round_trip() {
    let mut runner = Runner::new();
    let mut lines = Vec::new();
    let mut outcomes = Vec::new();
    for seed in SEEDS {
        for (family, substrate) in pinned_cells() {
            {
                let scenario = Scenario {
                    seed,
                    family,
                    substrate,
                    policy: Policy::R1,
                };
                let outcome = runner.run_scenario(scenario);
                assert!(
                    outcome.passed(),
                    "{} must pass: {outcome:?}",
                    scenario.label()
                );
                assert_eq!(
                    outcome.verdicts.len(),
                    ORACLES.len(),
                    "every oracle judges every run"
                );
                for (verdict, name) in outcome.verdicts.iter().zip(ORACLES) {
                    assert_eq!(verdict.oracle, name, "oracles report in a stable order");
                    assert!(
                        verdict.passed,
                        "{}: oracle {name} failed: {}",
                        scenario.label(),
                        verdict.detail
                    );
                }
                lines.push(outcome.to_json());
                outcomes.push(outcome);
            }
        }
    }
    // Every report line, and the aggregate report (what the `chaos`
    // binary writes and CI uploads), parses as JSON and names its cell,
    // plan and oracles. Nothing reads a report back: it is a record,
    // replay is by seed.
    for (line, outcome) in lines.iter().zip(&outcomes) {
        assert_report_cell(&Json::parse(line).expect("report line parses"), outcome);
    }
    let report = format!("[{}]", lines.join(","));
    let doc = Json::parse(&report).expect("aggregate report parses");
    let cells = doc.as_array().expect("report is an array");
    assert_eq!(cells.len(), SEEDS.len() * pinned_cells().len());
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        assert_report_cell(cell, outcome);
    }
}

/// One cell of a chaos report: its seed, family, substrate, policy, the
/// number of plan events, a pass, and every oracle in `ORACLES` order.
fn assert_report_cell(cell: &Json, outcome: &ScenarioOutcome) {
    let s = outcome.scenario;
    let str_field = |key: &str| cell.get(key).and_then(Json::as_str);
    assert_eq!(cell.get("seed").and_then(Json::as_u64), Some(s.seed));
    assert_eq!(str_field("family"), Some(s.family.name()));
    assert_eq!(str_field("substrate"), Some(s.substrate.name()));
    assert_eq!(str_field("policy"), Some(s.policy.name()));
    let events = cell.get("plan").and_then(|p| p.get("events"));
    assert_eq!(
        events.and_then(Json::as_array).map(|e| e.len()),
        Some(outcome.plan.events.len())
    );
    assert_eq!(cell.get("passed").and_then(Json::as_bool), Some(true));
    let oracles: Vec<&str> = cell
        .get("verdicts")
        .and_then(Json::as_array)
        .expect("verdicts array")
        .iter()
        .filter_map(|v| v.get("oracle").and_then(Json::as_str))
        .collect();
    assert_eq!(oracles, ORACLES);
}

/// A node killed by a chaos fault must not leak detector/diagnoser
/// per-stream state: the teardown oracle reads the
/// `adapt.tracked_streams_after_teardown` gauge and the chaos report
/// surfaces the verdict. The detail message pins the gauge path (an
/// obs-disabled run would pass vacuously with a different message).
#[test]
fn chaos_killed_node_retires_every_tracked_stream() {
    let mut runner = Runner::new();
    for seed in SEEDS {
        let scenario = Scenario {
            seed,
            family: FaultFamily::CrashMidRecall,
            substrate: Substrate::Sim,
            policy: Policy::R1,
        };
        let outcome = runner.run_scenario(scenario);
        assert!(outcome.passed(), "{outcome:?}");
        let teardown = outcome
            .verdicts
            .iter()
            .find(|v| v.oracle == "teardown")
            .expect("teardown verdict present");
        assert!(teardown.passed);
        assert_eq!(
            teardown.detail, "tracked streams fully evicted at teardown",
            "the gauge must actually be read, not skipped"
        );
    }
}

/// The acceptance fixture: a deliberately unrecoverable data-plane fault
/// — every copy of one edge's traffic dropped until the retry budget is
/// spent — must fail the conservation oracle, and shrinking must keep
/// the failure while cutting the plan down to an all-drop reproducer.
#[test]
fn broken_oracle_fixture_fails_loudly_and_shrinks_small() {
    let mut runner = Runner::new();
    let scenario = Scenario {
        seed: 0,
        family: FaultFamily::DataLoss,
        substrate: Substrate::Sim,
        policy: Policy::Static,
    };
    let mut events: Vec<FaultEvent> = (1..=25)
        .map(|nth| FaultEvent::DropData {
            source: 0,
            dest: 1,
            nth,
        })
        .collect();
    for nth in 1..=7 {
        events.push(FaultEvent::DelayData {
            source: 0,
            dest: 0,
            nth,
            delay_ms: 3.0,
        });
    }
    let original_len = events.len();
    let failing = runner.run_with_plan(scenario, FaultPlan { seed: 0, events });
    assert!(!failing.passed(), "permanent data loss must fail an oracle");
    assert!(failing
        .verdicts
        .iter()
        .any(|v| v.oracle == "conservation" && !v.passed));
    let minimal = gridq::chaos::shrink_failure(&mut runner, scenario, failing);
    assert!(!minimal.passed(), "shrinking must preserve the failure");
    assert!(
        minimal.plan.events.len() < original_len,
        "reproducer must shrink, got {:?}",
        minimal.plan
    );
    assert!(
        minimal
            .plan
            .events
            .iter()
            .all(|e| matches!(e, FaultEvent::DropData { .. })),
        "the harmless delays must shrink away: {:?}",
        minimal.plan
    );
}
