//! Property-based tests on the simulator's end-to-end invariants:
//! whatever the perturbations and adaptivity policy, no tuple is ever
//! lost or duplicated, and execution is deterministic.

use std::sync::Arc;

use gridq_adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq_common::check::{Check, Gen};
use gridq_common::{DataType, DetRng, NodeId, Value};
use gridq_engine::evaluator::{HashJoinFactory, ServiceCallFactory, StreamTag};
use gridq_engine::fixtures::{catalog, int_table, single_stage_plan};
use gridq_engine::service::{FnService, ServiceRegistry};
use gridq_engine::Expr;
use gridq_grid::{GridEnvironment, Perturbation};
use gridq_sim::{Simulation, SimulationConfig};

fn adaptivity(on: bool, retrospective: bool) -> AdaptivityConfig {
    if !on {
        AdaptivityConfig::disabled()
    } else if retrospective {
        AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1)
    } else {
        AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R2)
    }
}

fn perturbation(rng: &mut DetRng) -> Perturbation {
    match rng.usize_in(0, 4) {
        0 => Perturbation::None,
        1 => Perturbation::CostFactor(rng.f64_in(2.0, 30.0)),
        2 => Perturbation::SleepMs(rng.f64_in(1.0, 40.0)),
        _ => {
            let m = rng.f64_in(10.0, 30.0);
            Perturbation::NormalFactor {
                mean: m,
                lo: 1.0,
                hi: m * 2.0 - 1.0,
            }
        }
    }
}

/// A service-call plan emits exactly one output per input tuple,
/// under every perturbation and adaptivity policy, with correct
/// values.
#[test]
fn call_plan_conserves_tuples() {
    Check::new("call plan conserves tuples").cases(24).run(
        |rng| {
            (
                rng.usize_in(20, 300),
                rng.usize_in(2, 4),
                perturbation(rng),
                rng.flip(),
                rng.usize_in(1, 40),
            )
        },
        |(n, parts, pert, retrospective, buffer)| {
            let (n, parts, buffer) = (*n, *parts, *buffer);
            let table = int_table("t", 0..n as i64);
            let factory = ServiceCallFactory::new(
                table.schema(),
                Arc::new(FnService::new(
                    "Neg",
                    vec![DataType::Int],
                    DataType::Int,
                    1.0,
                    |args| Ok(Value::Int(-args[0].as_int().unwrap())),
                )),
                vec![Expr::col(0)],
                "neg",
                false,
                ServiceRegistry::new(),
            );
            let scans = [("t", StreamTag::Single, 0.3)];
            let plan = single_stage_plan(1, &scans, factory, parts, None, buffer);
            let mut env = GridEnvironment::demo(parts);
            env.perturb(NodeId::new(parts as u32), pert.clone());
            let config = SimulationConfig {
                adaptivity: adaptivity(true, *retrospective),
                collect_results: true,
                receive_cost_ms: 0.5,
                ..Default::default()
            };
            let report = Simulation::new(env, catalog(&[&table]), config)
                .map_err(|e| e.to_string())?
                .run(&plan)
                .map_err(|e| e.to_string())?;
            if report.tuples_output as usize != n {
                return Err(format!("{} tuples out, expected {n}", report.tuples_output));
            }
            let mut got: Vec<i64> = report
                .results
                .iter()
                .map(|t| t.value(0).as_int().unwrap())
                .collect();
            got.sort_unstable();
            let expect: Vec<i64> = (1 - n as i64..=0).collect();
            if got != expect {
                return Err(format!("wrong values: {got:?}"));
            }
            let processed: u64 = report.per_partition_processed.iter().sum();
            if processed as usize != n {
                return Err(format!("{processed} processed, expected {n}"));
            }
            Ok(())
        },
    );
}

/// A hash-join plan produces exactly the reference join result under
/// perturbation and retrospective adaptation (state migration must
/// not lose or duplicate matches).
#[test]
fn join_plan_matches_reference() {
    Check::new("join plan matches reference").cases(24).run(
        |rng| {
            (
                rng.vec_of(5, 80, |r| r.i64_in(0, 60)),
                rng.vec_of(5, 120, |r| r.i64_in(0, 80)),
                perturbation(rng),
                rng.flip(),
                rng.u32_in(4, 40),
            )
        },
        |(build_keys, probe_keys, pert, adaptive, buckets)| {
            let build = int_table("b", build_keys.iter().copied());
            let probe = int_table("p", probe_keys.iter().copied());
            let factory = HashJoinFactory::new(build.schema(), probe.schema(), 0, 0, 0.2, 1.5);
            let scans = [("b", StreamTag::Build, 0.2), ("p", StreamTag::Probe, 0.2)];
            let plan = single_stage_plan(2, &scans, factory, 2, Some(*buckets), 10);
            let mut env = GridEnvironment::demo(2);
            env.perturb(NodeId::new(2), pert.clone());
            let config = SimulationConfig {
                adaptivity: adaptivity(*adaptive, true),
                collect_results: true,
                receive_cost_ms: 0.5,
                ..Default::default()
            };
            let report = Simulation::new(env, catalog(&[&build, &probe]), config)
                .map_err(|e| e.to_string())?
                .run(&plan)
                .map_err(|e| e.to_string())?;
            // Reference join (multiset of joined pairs).
            let mut expect: Vec<(i64, i64)> = Vec::new();
            for &p in probe_keys {
                for &b in build_keys {
                    if b == p {
                        expect.push((b, p));
                    }
                }
            }
            expect.sort_unstable();
            let mut got: Vec<(i64, i64)> = report
                .results
                .iter()
                .map(|t| (t.value(0).as_int().unwrap(), t.value(1).as_int().unwrap()))
                .collect();
            got.sort_unstable();
            if got != expect {
                return Err(format!(
                    "join mismatch: {} pairs got, {} expected",
                    got.len(),
                    expect.len()
                ));
            }
            Ok(())
        },
    );
}
