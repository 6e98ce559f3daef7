//! The scenario runner: executes one `(seed, family, substrate, policy)`
//! cell by running a fixed workload twice — once clean (the reference,
//! cached per substrate/policy) and once under the generated
//! [`FaultPlan`] — and judging the pair with every oracle.
//!
//! Workloads are small and fixed so scenario outcomes are comparable
//! across seeds: R1 cells run a stateful hash-join (the recall
//! protocol's home turf) with one node perturbed so the control loop has
//! a real imbalance to correct; R2 cells run a stateless service-call
//! plan with the same standing perturbation; static cells run the
//! service-call plan unperturbed. `CrashNode` events become simulator
//! node failures and `CrashConsumer` events kill a threaded worker
//! through the `crash_worker` seam (with failover enabled under R1, so
//! the dying worker's exit notice makes the death survivable);
//! perturbation bursts are installed through each substrate's
//! perturbation mechanism (the threaded executor applies them for the
//! whole run, since its perturbations are constant by design).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gridq_adapt::{AdaptivityConfig, ResponsePolicy};
use gridq_common::{ChaosHook, GridError, NodeId, Result, SimTime};
use gridq_engine::fixtures::{CallShape, JoinShape};
use gridq_exec::socket::ScriptedAdaptation;
use gridq_exec::RetryPolicy;
use gridq_grid::Perturbation;
use gridq_obs::json::JsonObj;

use crate::harness::{run_on, Knobs, Workload};
use crate::hook::PlanHook;
use crate::oracle::{judge, judge_tenant, RunSummary, Verdict};
use crate::plan::{FaultFamily, FaultPlan, Topology};

/// Which execution substrate a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Substrate {
    /// The discrete-event virtual-time simulator (`gridq-sim`).
    Sim,
    /// The OS-thread executor (`gridq-exec`).
    Threaded,
    /// The socket substrate: coordinator + workers over real
    /// length-prefixed socket connections (`gridq-exec::socket`).
    Socket,
}

impl Substrate {
    /// Every substrate, in matrix order.
    pub const ALL: [Substrate; 3] = [Substrate::Sim, Substrate::Threaded, Substrate::Socket];

    /// Stable name used in JSON and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            Substrate::Sim => "sim",
            Substrate::Threaded => "threaded",
            Substrate::Socket => "socket",
        }
    }
}

/// The adaptivity policy a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Adaptivity disabled.
    Static,
    /// Retrospective responses (recall protocol, stateful stages).
    R1,
    /// Prospective responses (in-place routing swap).
    R2,
}

impl Policy {
    /// Every policy, in matrix order.
    pub const ALL: [Policy; 3] = [Policy::Static, Policy::R1, Policy::R2];

    /// Stable name used in JSON and CLI arguments.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Static => "static",
            Policy::R1 => "r1",
            Policy::R2 => "r2",
        }
    }

    /// The adaptivity configuration the policy stands for.
    pub fn adaptivity(&self) -> AdaptivityConfig {
        match self {
            Policy::Static => AdaptivityConfig::disabled(),
            Policy::R1 => AdaptivityConfig {
                response: ResponsePolicy::R1,
                ..Default::default()
            },
            Policy::R2 => AdaptivityConfig::default(),
        }
    }
}

/// One cell of the chaos matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Seed the fault plan is generated from.
    pub seed: u64,
    /// Fault family to inject.
    pub family: FaultFamily,
    /// Substrate to run on.
    pub substrate: Substrate,
    /// Adaptivity policy.
    pub policy: Policy,
}

impl Scenario {
    /// A compact `family/substrate/policy/seedN` label for reports.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/seed{}",
            self.family.name(),
            self.substrate.name(),
            self.policy.name(),
            self.seed
        )
    }

    /// The exchange topology of this scenario's workload, which the
    /// plan generator aims its faults at.
    pub fn topology(&self) -> Topology {
        Topology {
            sources: match self.policy {
                Policy::R1 => 2,
                _ => 1,
            },
            workers: WORKERS,
            simulated: self.substrate == Substrate::Sim,
        }
    }
}

/// A judged scenario run: the plan that was injected, every oracle's
/// verdict, and how many fault events actually materialised.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The cell that ran.
    pub scenario: Scenario,
    /// The exact plan injected (recorded in the report; a failure replays
    /// from the seed).
    pub plan: FaultPlan,
    /// Every oracle's judgment (empty when the run itself errored).
    pub verdicts: Vec<Verdict>,
    /// Fault events that actually fired (hook events whose `nth`
    /// occurrence happened, plus crash/burst events, which always apply).
    pub fired_events: usize,
    /// Wall-clock duration of the faulted run + judging, milliseconds.
    pub wall_ms: f64,
    /// Error that aborted the run, if any. An errored run fails.
    pub error: Option<String>,
}

impl ScenarioOutcome {
    /// True when the run completed and every oracle passed.
    pub fn passed(&self) -> bool {
        self.error.is_none() && !self.verdicts.is_empty() && self.verdicts.iter().all(|v| v.passed)
    }

    /// Serializes the outcome as a one-line JSON object.
    pub fn to_json(&self) -> String {
        let verdicts: Vec<String> = self
            .verdicts
            .iter()
            .map(|v| {
                let mut o = JsonObj::new();
                o.str("oracle", v.oracle)
                    .bool("passed", v.passed)
                    .str("detail", &v.detail);
                o.finish()
            })
            .collect();
        let mut o = JsonObj::new();
        o.int("seed", self.scenario.seed)
            .str("family", self.scenario.family.name())
            .str("substrate", self.scenario.substrate.name())
            .str("policy", self.scenario.policy.name())
            .raw("plan", &self.plan.to_json())
            .int("fired_events", self.fired_events as u64)
            .num("wall_ms", self.wall_ms)
            .bool("passed", self.passed());
        match &self.error {
            Some(e) => o.str("error", e),
            None => o.raw("error", "null"),
        };
        o.raw("verdicts", &format!("[{}]", verdicts.join(",")));
        o.finish()
    }
}

/// The stable oracle names, in judging order.
pub const ORACLES: [&str; 6] = [
    "conservation",
    "log_conservation",
    "recall_safety",
    "timeline_causality",
    "teardown",
    "tenant_isolation",
];

/// Stage partitions in every chaos workload.
const WORKERS: usize = 2;

/// The shared-seam substrates the classic matrix runs on; socket-only
/// fault families get their own matrix ([`socket_matrix`]) because
/// their seams (connection drops, partial writes, slow peers) do not
/// exist on the in-process substrates.
const CLASSIC: [Substrate; 2] = [Substrate::Sim, Substrate::Threaded];

/// The scenario matrix for one seed: every shared-seam fault family on
/// the sim and threaded substrates under R1 (the policy with the most
/// protocol surface), plus spot-checks of R2 and static cells.
pub fn matrix(seed: u64) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for family in FaultFamily::ALL {
        if family.socket_only() || family.service_plane() {
            continue;
        }
        for substrate in CLASSIC {
            cells.push(Scenario {
                seed,
                family,
                substrate,
                policy: Policy::R1,
            });
        }
    }
    // Co-residency cells run only where the service plane multiplexes
    // live queries: the threaded substrate, under both response policies.
    for policy in [Policy::R1, Policy::R2] {
        cells.push(Scenario {
            seed,
            family: FaultFamily::TenantInterference,
            substrate: Substrate::Threaded,
            policy,
        });
    }
    for substrate in CLASSIC {
        cells.push(Scenario {
            seed,
            family: FaultFamily::NotifyLoss,
            substrate,
            policy: Policy::R2,
        });
        cells.push(Scenario {
            seed,
            family: FaultFamily::Stall,
            substrate,
            policy: Policy::Static,
        });
    }
    cells.push(Scenario {
        seed,
        family: FaultFamily::PerturbBurst,
        substrate: Substrate::Sim,
        policy: Policy::R2,
    });
    cells
}

/// The socket-substrate matrix for one seed: every socket-only fault
/// family (connection drop, partial write, slow peer) under every
/// policy, so each wire-level fault is exercised against the static,
/// prospective, and retrospective data planes.
pub fn socket_matrix(seed: u64) -> Vec<Scenario> {
    let mut cells = Vec::new();
    for family in FaultFamily::SOCKET {
        for policy in Policy::ALL {
            cells.push(Scenario {
                seed,
                family,
                substrate: Substrate::Socket,
                policy,
            });
        }
    }
    cells
}

/// Runs scenarios, caching one unfaulted reference run per
/// `(substrate, policy)` pair so a seed matrix does not re-run it per
/// cell.
#[derive(Debug, Default)]
pub struct Runner {
    references: HashMap<(Substrate, Policy), RunSummary>,
}

impl Runner {
    /// A runner with an empty reference cache.
    pub fn new() -> Runner {
        Runner::default()
    }

    /// Generates the scenario's fault plan from its seed and runs it.
    pub fn run_scenario(&mut self, scenario: Scenario) -> ScenarioOutcome {
        let plan = FaultPlan::generate(scenario.seed, scenario.family, scenario.topology());
        self.run_with_plan(scenario, plan)
    }

    /// Runs a scenario under an explicit plan (the shrinker's entry
    /// point). Run errors are captured in the outcome, not returned:
    /// an errored cell is a failed cell, not a broken harness.
    pub fn run_with_plan(&mut self, scenario: Scenario, plan: FaultPlan) -> ScenarioOutcome {
        // The harness's one wall-clock site: scenario timing for reports.
        let started = Instant::now();
        let mut outcome = ScenarioOutcome {
            scenario,
            plan,
            verdicts: Vec::new(),
            fired_events: 0,
            wall_ms: 0.0,
            error: None,
        };
        let reference = match self.reference(scenario.substrate, scenario.policy) {
            Ok(r) => r.clone(),
            Err(e) => {
                outcome.error = Some(format!("reference run failed: {e}"));
                outcome.wall_ms = started.elapsed().as_secs_f64() * 1000.0;
                return outcome;
            }
        };
        // Tenant-interference cells run two co-resident queries through
        // the service plane and judge the *unfaulted* one; every other
        // cell runs the single-query workload and judges it directly.
        let judged = if scenario.family == FaultFamily::TenantInterference {
            execute_tenant(scenario.substrate, scenario.policy, &outcome.plan)
                .map(|(summary, fired)| (judge_tenant(&reference, &summary), fired))
        } else {
            execute(scenario.substrate, scenario.policy, &outcome.plan)
                .map(|(summary, fired)| (judge(&reference, &summary), fired))
        };
        match judged {
            Ok((verdicts, fired)) => {
                outcome.verdicts = verdicts;
                outcome.fired_events = fired;
            }
            Err(e) => outcome.error = Some(e.to_string()),
        }
        outcome.wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        outcome
    }

    /// The cached unfaulted reference for a substrate/policy pair.
    pub fn reference(&mut self, substrate: Substrate, policy: Policy) -> Result<&RunSummary> {
        use std::collections::hash_map::Entry;
        match self.references.entry((substrate, policy)) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let (summary, _) = execute(substrate, policy, &FaultPlan::empty())?;
                Ok(e.insert(summary))
            }
        }
    }
}

/// Executes the workload for `(substrate, policy)` under `plan` and
/// summarizes the run for the oracles. Returns the summary and the
/// number of fault events that materialised.
fn execute(substrate: Substrate, policy: Policy, plan: &FaultPlan) -> Result<(RunSummary, usize)> {
    let hook = Arc::new(PlanHook::new(plan));
    let chaos = Some(Arc::clone(&hook) as Arc<dyn ChaosHook>);
    let summary = run_on(
        substrate,
        &workload(policy),
        &knobs(substrate, policy, plan, chaos)?,
    )?;
    // Crash and burst events are realised by the runner, not the hook,
    // and always apply once the run starts.
    let realised = plan.events.iter().filter(|e| !e.hook_mediated()).count();
    Ok((summary, hook.fired().len() + realised))
}

/// Executes a tenant-interference cell: two copies of the policy's
/// workload run co-resident through one [`QueryService`] on the threaded
/// substrate, with the fault plan's chaos hook attached to the *first*
/// query only. Returns the **unfaulted second** query's summary — the
/// tenant-isolation oracle judges that one against the cached solo
/// reference — plus the number of fault events that fired in the first.
fn execute_tenant(
    substrate: Substrate,
    policy: Policy,
    plan: &FaultPlan,
) -> Result<(RunSummary, usize)> {
    use gridq_engine::AdmissionConfig;
    use gridq_exec::{QueryOutcome, QueryService, ServiceConfig};

    if substrate != Substrate::Threaded {
        return Err(GridError::Config(
            "tenant_interference needs the service plane, which multiplexes live \
             queries only on the threaded substrate"
                .into(),
        ));
    }
    if !plan.crashes().is_empty() || !plan.consumer_crashes().is_empty() {
        return Err(GridError::Config(
            "tenant_interference studies isolation, not crash recovery; its plans \
             carry stalls, delays, and notify drops only"
                .into(),
        ));
    }
    let hook = Arc::new(PlanHook::new(plan));
    // Two submissions of the same fixed workload: identical tables,
    // identical plans, so the co-resident query's reference is the same
    // cached solo run the single-query cells use.
    let w = workload(policy);
    let faulted = knobs(
        substrate,
        policy,
        plan,
        Some(Arc::clone(&hook) as Arc<dyn ChaosHook>),
    )?;
    let clean = knobs(substrate, policy, plan, None)?;
    let service = QueryService::new(ServiceConfig {
        admission: AdmissionConfig {
            max_concurrent: 2,
            queue_depth: 2,
        },
    })?;
    let report = service.run_batch(vec![
        w.submission(substrate, &faulted)?,
        w.submission(substrate, &clean)?,
    ]);
    let co_resident = match report.queries.into_iter().nth(1) {
        Some((_, QueryOutcome::Threaded(r))) => RunSummary::from(r),
        Some((id, other)) => {
            return Err(GridError::Execution(format!(
                "co-resident query {id} did not complete on the threaded substrate: {other:?}"
            )))
        }
        None => {
            return Err(GridError::Execution(
                "service batch returned no co-resident outcome".into(),
            ))
        }
    };
    Ok((co_resident, hook.fired().len()))
}

/// How a cell runs its workload: the policy, the plan's crash and burst
/// events, and the pacing each substrate needs for its recalls to have
/// in-flight work to pause.
fn knobs(
    substrate: Substrate,
    policy: Policy,
    plan: &FaultPlan,
    chaos: Option<Arc<dyn ChaosHook>>,
) -> Result<Knobs> {
    let evaluator_node = |evaluator: usize| NodeId::new((evaluator % WORKERS) as u32 + 1);
    let mut knobs = Knobs {
        adaptivity: policy.adaptivity(),
        checkpoint_interval: 8,
        chaos,
        bursts: plan
            .bursts()
            .into_iter()
            .map(|(evaluator, from_ms, factor)| {
                let burst = Perturbation::CostFactor(factor);
                (evaluator_node(evaluator), from_ms, burst)
            })
            .collect(),
        ..Knobs::default()
    };
    let crashing = !plan.consumer_crashes().is_empty();
    match substrate {
        Substrate::Sim => {
            knobs.node_failures = plan
                .crashes()
                .into_iter()
                .map(|(evaluator, at_ms)| (evaluator_node(evaluator), SimTime::from_millis(at_ms)))
                .collect();
        }
        Substrate::Threaded => {
            if !plan.crashes().is_empty() {
                return Err(GridError::Config(
                    "crash_node faults require the simulator; the threaded analogues are \
                     crash_consumer and lose_recall_ctrl"
                        .into(),
                ));
            }
            knobs.cost_scale = match policy {
                Policy::R1 => 0.01,
                _ => 0.002,
            };
            knobs.recall_timeout_ms = 500;
            // A killed consumer is survivable only under R1 (failover
            // rides the recall machinery). Any other policy leaves
            // failover off, so the crash degrades into explicit delivery
            // gaps that the conservation oracle flags — the deliberately
            // unrecoverable cell; a short retry budget keeps that
            // degradation quick.
            if crashing && policy == Policy::R1 {
                knobs.failover = true;
                knobs.delivery_retry = RetryPolicy {
                    base_ms: 20.0,
                    max_retries: 8,
                };
            } else if crashing {
                knobs.delivery_retry = RetryPolicy {
                    base_ms: 5.0,
                    max_retries: 4,
                };
            }
        }
        Substrate::Socket => {
            if crashing || !plan.crashes().is_empty() {
                return Err(GridError::Config(
                    "crash faults have no socket analogue; the socket families are \
                     conn_drop, partial_write, and slow_peer"
                        .into(),
                ));
            }
            // The socket substrate scripts its adaptations (the decision
            // stack is exercised by the other substrates): each policy
            // gets the move it would make against the standing node-2
            // imbalance.
            (knobs.script, knobs.cost_scale) = match policy {
                Policy::R1 => (
                    vec![ScriptedAdaptation {
                        after_routed: 120,
                        weights: vec![0.75, 0.25],
                        retrospective: true,
                    }],
                    0.05,
                ),
                Policy::R2 => (
                    vec![ScriptedAdaptation {
                        after_routed: 60,
                        weights: vec![0.8, 0.2],
                        retrospective: false,
                    }],
                    0.01,
                ),
                Policy::Static => (Vec::new(), 0.01),
            };
            knobs.receive_cost_ms = 0.5;
            knobs.recall_timeout_ms = 2_000;
        }
    }
    Ok(knobs)
}

/// The fixed workload for a policy: R1 exercises the stateful hash-join
/// recall path; R2 and static run the stateless service-call plan. The
/// slow probe scan keeps producers alive while the imbalance is
/// diagnosed, so R1 recalls reliably have something to pause. Adaptive
/// policies run against a standing 10x cost factor on node 2 (present in
/// the reference run too), so there is a real imbalance to correct.
fn workload(policy: Policy) -> Workload {
    let imbalanced = |w: Workload| w.perturbed(NodeId::new(2), Perturbation::CostFactor(10.0));
    match policy {
        Policy::R1 => imbalanced(Workload::join(
            ("chaos_build", 60),
            ("chaos_probe", 300),
            &JoinShape {
                scan_cost_ms: [1.0, 10.0],
                ..JoinShape::default()
            },
        )),
        Policy::R2 => imbalanced(Workload::call("chaos_t", 200, &CallShape::default())),
        Policy::Static => Workload::call("chaos_t", 200, &CallShape::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultEvent;
    use gridq_obs::Json;

    #[test]
    fn matrix_covers_every_shared_family_on_sim_and_threads() {
        let cells = matrix(1);
        for family in FaultFamily::ALL {
            for substrate in CLASSIC {
                // Service-plane cells exist only where the service plane
                // does: the threaded substrate.
                let expected = if family.service_plane() {
                    substrate == Substrate::Threaded
                } else {
                    !family.socket_only()
                };
                assert_eq!(
                    cells
                        .iter()
                        .any(|c| c.family == family && c.substrate == substrate),
                    expected,
                    "matrix coverage wrong for {}/{}",
                    family.name(),
                    substrate.name()
                );
            }
        }
        assert!(cells.iter().all(|c| c.substrate != Substrate::Socket));
        assert!(cells.iter().any(|c| c.policy == Policy::R2));
        assert!(cells.iter().any(|c| c.policy == Policy::Static));
        // Both response policies get a co-residency cell.
        for policy in [Policy::R1, Policy::R2] {
            assert!(cells
                .iter()
                .any(|c| c.family == FaultFamily::TenantInterference && c.policy == policy));
        }
    }

    #[test]
    fn tenant_interference_isolates_the_unfaulted_co_resident_query() {
        let mut runner = Runner::new();
        for policy in [Policy::R1, Policy::R2] {
            let scenario = Scenario {
                seed: 7,
                family: FaultFamily::TenantInterference,
                substrate: Substrate::Threaded,
                policy,
            };
            let outcome = runner.run_scenario(scenario);
            assert!(outcome.passed(), "{}: {outcome:?}", scenario.label());
            assert!(
                outcome.fired_events > 0,
                "faults must land in the faulted query"
            );
            let isolation = outcome
                .verdicts
                .iter()
                .find(|v| v.oracle == "tenant_isolation")
                .expect("tenant_isolation verdict present");
            assert!(
                isolation.detail.contains("co-resident"),
                "the real isolation oracle must run, not the trivial pass: {}",
                isolation.detail
            );
        }
        // The service plane lives on the threaded substrate only; a sim
        // tenant cell is a loud error, not a vacuous pass.
        let sim = runner.run_scenario(Scenario {
            seed: 7,
            family: FaultFamily::TenantInterference,
            substrate: Substrate::Sim,
            policy: Policy::R1,
        });
        assert!(!sim.passed());
        assert!(
            sim.error
                .as_deref()
                .unwrap_or_default()
                .contains("service plane"),
            "{sim:?}"
        );
    }

    #[test]
    fn socket_matrix_covers_every_socket_family_under_every_policy() {
        let cells = socket_matrix(1);
        assert_eq!(cells.len(), FaultFamily::SOCKET.len() * Policy::ALL.len());
        for family in FaultFamily::SOCKET {
            for policy in Policy::ALL {
                assert!(
                    cells.iter().any(|c| c.family == family
                        && c.policy == policy
                        && c.substrate == Substrate::Socket),
                    "socket matrix must cover {}/{}",
                    family.name(),
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn crash_plans_are_rejected_on_sockets() {
        let mut runner = Runner::new();
        let scenario = Scenario {
            seed: 1,
            family: FaultFamily::NodeCrash,
            substrate: Substrate::Socket,
            policy: Policy::Static,
        };
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::CrashConsumer { worker: 0, nth: 3 }],
        };
        let outcome = runner.run_with_plan(scenario, plan);
        assert!(!outcome.passed());
        assert!(
            outcome
                .error
                .as_deref()
                .unwrap_or("")
                .contains("no socket analogue"),
            "{outcome:?}"
        );
    }

    #[test]
    fn socket_conn_drop_cell_passes_under_static() {
        let mut runner = Runner::new();
        let outcome = runner.run_scenario(Scenario {
            seed: 1,
            family: FaultFamily::ConnDrop,
            substrate: Substrate::Socket,
            policy: Policy::Static,
        });
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(outcome.verdicts.len(), ORACLES.len());
    }

    #[test]
    fn names_are_distinct() {
        let subs = Substrate::ALL.map(|s| s.name());
        let pols = Policy::ALL.map(|p| p.name());
        for names in [&subs[..], &pols[..]] {
            for (i, a) in names.iter().enumerate() {
                assert!(!names[i + 1..].contains(a), "{a} named twice");
            }
        }
    }

    #[test]
    fn crash_plans_are_rejected_on_threads() {
        let mut runner = Runner::new();
        let scenario = Scenario {
            seed: 1,
            family: FaultFamily::CrashMidRecall,
            substrate: Substrate::Threaded,
            policy: Policy::Static,
        };
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent::CrashNode {
                evaluator: 0,
                at_ms: 100.0,
            }],
        };
        let outcome = runner.run_with_plan(scenario, plan);
        assert!(!outcome.passed());
        assert!(
            outcome.error.as_deref().unwrap_or("").contains("simulator"),
            "{outcome:?}"
        );
    }

    /// A report line is a record for CI and people, not an input: it
    /// must parse as JSON and name its cell, plan size, verdict and
    /// oracles (in `ORACLES` order).
    fn assert_report_line(line: &str, outcome: &ScenarioOutcome) {
        let j = Json::parse(line).expect("report line parses");
        let s = outcome.scenario;
        assert_eq!(j.get("seed").and_then(Json::as_u64), Some(s.seed));
        assert_eq!(
            j.get("family").and_then(Json::as_str),
            Some(s.family.name())
        );
        assert_eq!(
            j.get("substrate").and_then(Json::as_str),
            Some(s.substrate.name())
        );
        assert_eq!(
            j.get("policy").and_then(Json::as_str),
            Some(s.policy.name())
        );
        let events = j
            .get("plan")
            .and_then(|p| p.get("events"))
            .and_then(Json::as_array);
        assert_eq!(events.map(|e| e.len()), Some(outcome.plan.events.len()));
        assert_eq!(
            j.get("passed").and_then(Json::as_bool),
            Some(outcome.passed())
        );
        let oracles: Vec<&str> = j
            .get("verdicts")
            .and_then(Json::as_array)
            .expect("verdicts array")
            .iter()
            .filter_map(|v| v.get("oracle").and_then(Json::as_str))
            .collect();
        let expected: Vec<&str> = outcome.verdicts.iter().map(|v| v.oracle).collect();
        assert_eq!(oracles, expected);
    }

    #[test]
    fn sim_static_cell_passes_and_reports() {
        let mut runner = Runner::new();
        let outcome = runner.run_scenario(Scenario {
            seed: 1,
            family: FaultFamily::Stall,
            substrate: Substrate::Sim,
            policy: Policy::Static,
        });
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(outcome.verdicts.len(), ORACLES.len());
        assert!(outcome.verdicts.iter().map(|v| v.oracle).eq(ORACLES));
        assert_report_line(&outcome.to_json(), &outcome);
    }

    #[test]
    fn outcome_json_captures_errors() {
        let outcome = ScenarioOutcome {
            scenario: Scenario {
                seed: 7,
                family: FaultFamily::AckChaos,
                substrate: Substrate::Threaded,
                policy: Policy::R1,
            },
            plan: FaultPlan::empty(),
            verdicts: Vec::new(),
            fired_events: 0,
            wall_ms: 12.5,
            error: Some("worker thread(s) panicked: consumer 1".into()),
        };
        assert!(!outcome.passed());
        let line = outcome.to_json();
        assert_report_line(&line, &outcome);
        let j = Json::parse(&line).expect("report line parses");
        assert_eq!(
            j.get("error").and_then(Json::as_str),
            outcome.error.as_deref()
        );
    }
}
