//! The long-lived query service plane.
//!
//! The paper's AGQES nodes are Grid *services* (OGSA-DQP heritage): they
//! outlive any single query. This module turns the one-shot executors
//! into such a service. A [`QueryService`] admits N concurrent queries
//! through the engine's [`AdmissionController`] (bounded run queue, loud
//! rejection), multiplexes them over shared evaluator nodes on either
//! the threaded or the socket substrate, and hosts the *cross-query*
//! adaptivity loop: a shared [`ContentionLedger`] models the cost
//! inflation co-resident tenants induce on a node, and a shared
//! [`CrossQueryDiagnoser`] turns one query's M1 cost shifts on shared
//! nodes into tenant rebalances deployed through that query's existing
//! adaptation path.
//!
//! Every admitted query gets a fresh [`QueryId`] epoch from the
//! controller; the plan shipped to the substrate is re-tagged with it,
//! so recovery-log windows, detector streams, and obs-timeline events
//! of one query can never be confused with another's.
//!
//! Isolation model per substrate:
//! - **threaded**: queries share the process; the ledger injects the
//!   modelled contention factor into co-resident consumers' cost model,
//!   and tenant rebalances are diagnosed live.
//! - **socket**: each query spawns its own worker processes; contention
//!   between them is real OS scheduling, not modelled, and adaptations
//!   remain scripted (the decision stack is exercised on the other
//!   substrates). Admission, epoch tagging, and per-query isolation
//!   still apply.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use gridq_adapt::tenancy::{CrossQueryDiagnoser, TenantCostUpdate, TenantRebalance};
use gridq_common::sync::Mutex;
use gridq_common::{cast, DistributionVector, NodeId, QueryId, Result, SimTime, Tuple};
use gridq_engine::distributed::{DistributedPlan, RoutingPolicy};
use gridq_engine::physical::Catalog;
use gridq_engine::service::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats,
};

use crate::socket::{SocketConfig, SocketExecutor, SocketReport};
use crate::{ThreadedConfig, ThreadedExecutor, ThreadedReport};

/// Modelled per-tuple cost inflation per extra co-resident tenant on a
/// shared node (threaded substrate only). `1.0` means a second tenant
/// doubles the modelled cost — strong enough that the detector's
/// [`THRES_M`](gridq_adapt::THRES_M) gate sees it within one window.
pub const CONTENTION_ALPHA: f64 = 1.0;

/// The modelled cost factor on a node `tenants` queries share:
/// `1 + CONTENTION_ALPHA * (tenants - 1)`, and 1 for a node nobody else
/// is on.
pub(crate) fn contention_factor(tenants: u32) -> f64 {
    1.0 + CONTENTION_ALPHA * cast::count_to_f64(u64::from(tenants.saturating_sub(1)))
}

/// Shared per-node tenant counts. The threaded substrate multiplies
/// every consumer's modelled per-tuple cost by `contention_factor` of
/// its node's count, so co-residency *shows up in the M1 stream* exactly
/// like a slow Grid node would — which is what lets the unchanged
/// detector/diagnoser machinery observe it.
#[derive(Debug, Default)]
pub struct ContentionLedger {
    nodes: Mutex<HashMap<NodeId, Arc<AtomicU32>>>,
}

impl ContentionLedger {
    /// Registers one query's arrival on `nodes` (each distinct node is
    /// counted once regardless of how many partitions it hosts).
    pub fn enter(&self, nodes: &[NodeId]) {
        let mut map = self.nodes.lock();
        let mut seen: Vec<NodeId> = Vec::new();
        for &node in nodes {
            if seen.contains(&node) {
                continue;
            }
            seen.push(node);
            map.entry(node)
                .or_insert_with(|| Arc::new(AtomicU32::new(0)))
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Registers one query's departure from `nodes`. Entries that drop
    /// to zero tenants are evicted so the map stays bounded by the set
    /// of currently occupied nodes.
    pub fn exit(&self, nodes: &[NodeId]) {
        let mut map = self.nodes.lock();
        let mut seen: Vec<NodeId> = Vec::new();
        for &node in nodes {
            if seen.contains(&node) {
                continue;
            }
            seen.push(node);
            if let Some(ctr) = map.get(&node) {
                let prev = ctr.load(Ordering::Relaxed);
                if prev > 0 {
                    ctr.store(prev - 1, Ordering::Relaxed);
                }
                if prev <= 1 {
                    // Late readers holding the Arc see 0; the map entry
                    // itself is evicted so the ledger stays bounded by
                    // the occupied-node set.
                    map.remove(&node);
                }
            }
        }
    }

    /// Live tenant count on a node.
    pub fn tenants(&self, node: NodeId) -> u32 {
        self.nodes
            .lock()
            .get(&node)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// The shared counter for a node; consumer threads clone this once
    /// and read it lock-free per tuple.
    pub fn counter(&self, node: NodeId) -> Arc<AtomicU32> {
        Arc::clone(
            self.nodes
                .lock()
                .entry(node)
                .or_insert_with(|| Arc::new(AtomicU32::new(0))),
        )
    }
}

/// The per-query handle the service injects into [`ThreadedConfig`]:
/// the shared ledger plus the shared cross-query diagnoser, and this
/// query's partition→node placement so the adaptivity thread can
/// attribute cost updates to nodes.
#[derive(Clone)]
pub struct TenancyHandle {
    nodes: Vec<NodeId>,
    ledger: Arc<ContentionLedger>,
    diagnoser: Arc<Mutex<CrossQueryDiagnoser>>,
}

impl std::fmt::Debug for TenancyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenancyHandle")
            .field("nodes", &self.nodes)
            .finish_non_exhaustive()
    }
}

impl TenancyHandle {
    /// Builds a handle for a query whose stage partitions live on
    /// `nodes` (index = partition index).
    pub fn new(
        nodes: Vec<NodeId>,
        ledger: Arc<ContentionLedger>,
        diagnoser: Arc<Mutex<CrossQueryDiagnoser>>,
    ) -> Self {
        TenancyHandle {
            nodes,
            ledger,
            diagnoser,
        }
    }

    /// The shared ledger.
    pub fn ledger(&self) -> &Arc<ContentionLedger> {
        &self.ledger
    }

    /// The node hosting partition `index`, if known.
    pub fn node_for(&self, index: u32) -> Option<NodeId> {
        self.nodes.get(index as usize).copied()
    }

    /// Forwards one smoothed M1 cost to the shared cross-query
    /// diagnoser; returns a tenant rebalance when contention induced by
    /// a co-resident query is diagnosed.
    pub fn observe_cost(
        &self,
        query: QueryId,
        partition: gridq_common::PartitionId,
        avg_cost_ms: f64,
        at: SimTime,
    ) -> Option<TenantRebalance> {
        let node = self.node_for(partition.index)?;
        self.diagnoser.lock().on_cost_update(&TenantCostUpdate {
            query,
            partition,
            node,
            avg_cost_ms,
            at,
        })
    }

    /// Records that a tenant rebalance was deployed for `query`.
    pub fn deployed(&self, query: QueryId, dist: DistributionVector) {
        self.diagnoser.lock().set_distribution(query, dist);
    }
}

/// Service-plane configuration. The tenancy model's parameters are
/// constants: [`CONTENTION_ALPHA`] and those of [`CrossQueryDiagnoser`].
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Admission bounds (run slots and queue depth).
    pub admission: AdmissionConfig,
}

/// Which substrate runs a submitted query, with its full configuration.
/// Both variants box their config so the enum stays pointer-sized on the
/// submission path.
pub enum QueryRun {
    /// In-process threads; live adaptivity and modelled contention.
    Threaded(Box<ThreadedConfig>),
    /// Process-per-node over sockets; scripted adaptations.
    Socket(Box<SocketConfig>),
}

impl QueryRun {
    /// Builds the threaded variant.
    pub fn threaded(config: ThreadedConfig) -> Self {
        QueryRun::Threaded(Box::new(config))
    }
}

/// One query handed to the service.
pub struct QuerySubmission {
    /// The catalog the substrate scans.
    pub catalog: Catalog,
    /// The plan. Its `query` id is *overwritten* with the admission
    /// epoch the controller allocates.
    pub plan: DistributedPlan,
    /// Substrate choice and configuration.
    pub run: QueryRun,
}

/// What became of one submission.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// Ran to completion on the threaded substrate.
    Threaded(ThreadedReport),
    /// Ran to completion on the socket substrate.
    Socket(SocketReport),
    /// Refused at admission: run slots and queue were full. Loud by
    /// construction — the reason is returned to the submitter and
    /// counted in [`AdmissionStats::rejected`].
    Rejected {
        /// The controller's saturation report.
        reason: String,
    },
    /// Admitted but failed during execution.
    Failed {
        /// The execution error.
        error: String,
    },
}

impl QueryOutcome {
    /// Result tuples, when the query completed.
    pub fn results(&self) -> Option<&[Tuple]> {
        match self {
            QueryOutcome::Threaded(r) | QueryOutcome::Socket(r) => Some(&r.results),
            _ => None,
        }
    }

    /// True when the query ran to completion.
    pub fn completed(&self) -> bool {
        matches!(self, QueryOutcome::Threaded(_) | QueryOutcome::Socket(_))
    }
}

/// What a batch of submissions produced, in submission order.
#[derive(Debug)]
pub struct ServiceReport {
    /// Per-submission outcome, tagged with the allocated query epoch.
    pub queries: Vec<(QueryId, QueryOutcome)>,
    /// Admission statistics over the batch.
    pub admission: AdmissionStats,
    /// Cross-query tenant rebalances deployed (summed over threaded
    /// reports).
    pub tenant_rebalances: u64,
}

struct ServiceState {
    controller: AdmissionController,
    /// Promotion tickets for queued queries: completing a running query
    /// signals the longest-waiting ticket (FIFO, driven by the
    /// controller's queue order).
    tickets: HashMap<QueryId, mpsc::Sender<()>>,
}

/// A long-lived query service: admission control plus bounded concurrent
/// execution over shared evaluator nodes. Thread-safe; submitting
/// sessions call [`QueryService::submit_and_wait`] from their own
/// threads (the run queue physically *is* those blocked threads).
pub struct QueryService {
    state: Mutex<ServiceState>,
    ledger: Arc<ContentionLedger>,
    diagnoser: Arc<Mutex<CrossQueryDiagnoser>>,
}

impl QueryService {
    /// Creates a service with the given bounds and tenancy model.
    pub fn new(config: ServiceConfig) -> Result<Self> {
        Ok(QueryService {
            state: Mutex::new(ServiceState {
                controller: AdmissionController::new(config.admission)?,
                tickets: HashMap::new(),
            }),
            ledger: Arc::new(ContentionLedger::default()),
            diagnoser: Arc::new(Mutex::new(CrossQueryDiagnoser::new())),
        })
    }

    /// The shared contention ledger (for inspection in tests/benches).
    pub fn ledger(&self) -> &Arc<ContentionLedger> {
        &self.ledger
    }

    /// Admission statistics so far.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.state.lock().controller.stats().clone()
    }

    /// Submits one query and blocks until it completes (or is rejected).
    /// Each concurrent session calls this from its own thread.
    pub fn submit_and_wait(&self, submission: QuerySubmission) -> (QueryId, QueryOutcome) {
        let (id, ticket) = {
            let mut st = self.state.lock();
            match st.controller.submit() {
                AdmissionDecision::Admitted(id) => (id, None),
                AdmissionDecision::Enqueued { id, .. } => {
                    let (tx, rx) = mpsc::channel();
                    st.tickets.insert(id, tx);
                    (id, Some(rx))
                }
                AdmissionDecision::Rejected { id, reason } => {
                    return (id, QueryOutcome::Rejected { reason })
                }
            }
        };
        if let Some(rx) = ticket {
            // Block until a completing query promotes us. A closed
            // channel means the promotion already happened (or the
            // service is tearing down); either way we hold a run slot
            // per the controller's accounting, so proceed.
            let _ = rx.recv();
        }
        let outcome = self.execute(id, submission);
        self.complete(id);
        (id, outcome)
    }

    /// Runs a batch of submissions concurrently, admission decided in
    /// vector order. Returns outcomes in the same order.
    pub fn run_batch(&self, submissions: Vec<QuerySubmission>) -> ServiceReport {
        let n = submissions.len();
        let mut slots: Vec<Option<(QueryId, QueryOutcome)>> = Vec::new();
        slots.resize_with(n, || None);
        thread::scope(|s| {
            let mut handles = Vec::new();
            for (i, sub) in submissions.into_iter().enumerate() {
                handles.push(s.spawn(move || (i, self.submit_and_wait(sub))));
            }
            for h in handles {
                if let Ok((i, out)) = h.join() {
                    slots[i] = Some(out);
                }
            }
        });
        let queries: Vec<(QueryId, QueryOutcome)> = slots
            .into_iter()
            .map(|s| {
                s.unwrap_or((
                    QueryId::new(0),
                    QueryOutcome::Failed {
                        error: "submission thread panicked".into(),
                    },
                ))
            })
            .collect();
        let tenant_rebalances = queries
            .iter()
            .map(|(_, o)| match o {
                QueryOutcome::Threaded(r) => r.tenant_rebalances,
                _ => 0,
            })
            .sum();
        ServiceReport {
            admission: self.admission_stats(),
            tenant_rebalances,
            queries,
        }
    }

    fn complete(&self, id: QueryId) {
        let promoted = {
            let mut st = self.state.lock();
            match st.controller.complete(id) {
                Ok(next) => next.and_then(|n| st.tickets.remove(&n)),
                Err(_) => None,
            }
        };
        if let Some(tx) = promoted {
            // A dead receiver means the waiter is gone; the slot frees
            // again when its thread unwinds — nothing to do.
            let _ = tx.send(());
        }
    }

    fn execute(&self, id: QueryId, submission: QuerySubmission) -> QueryOutcome {
        let mut plan = submission.plan;
        // Epoch tagging: everything downstream — recovery-log windows,
        // detector streams, timeline events — carries this id.
        plan.query = id;
        match submission.run {
            QueryRun::Threaded(config) => {
                let mut config = *config;
                let placement = stage_placement(&plan);
                if let Some((nodes, initial)) = &placement {
                    self.diagnoser
                        .lock()
                        .register_query(id, nodes.clone(), initial.clone());
                    self.ledger.enter(nodes);
                    config.tenancy = Some(TenancyHandle::new(
                        nodes.clone(),
                        Arc::clone(&self.ledger),
                        Arc::clone(&self.diagnoser),
                    ));
                }
                let out = ThreadedExecutor::new(submission.catalog, config).run(&plan);
                if let Some((nodes, _)) = &placement {
                    self.ledger.exit(nodes);
                    self.diagnoser.lock().deregister_query(id);
                }
                match out {
                    Ok(report) => QueryOutcome::Threaded(report),
                    Err(e) => QueryOutcome::Failed {
                        error: e.to_string(),
                    },
                }
            }
            QueryRun::Socket(config) => {
                match SocketExecutor::new(submission.catalog, *config).run(&plan) {
                    Ok(report) => QueryOutcome::Socket(report),
                    Err(e) => QueryOutcome::Failed {
                        error: e.to_string(),
                    },
                }
            }
        }
    }
}

/// The first stage's partition→node placement and initially deployed
/// distribution — what the cross-query diagnoser needs to know about a
/// tenant.
fn stage_placement(plan: &DistributedPlan) -> Option<(Vec<NodeId>, DistributionVector)> {
    let stage = plan.stages.first()?;
    let initial = match &stage.exchange.routing {
        RoutingPolicy::Weighted { initial } => initial.clone(),
        RoutingPolicy::HashBuckets { initial, .. } => initial.clone(),
    };
    Some((stage.nodes.clone(), initial))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_tenants_and_inflates_cost() {
        let ledger = ContentionLedger::default();
        let shared = [NodeId::new(1), NodeId::new(2)];
        let factor = |node: u32| contention_factor(ledger.tenants(NodeId::new(node)));
        assert!((factor(1) - 1.0).abs() < 1e-12);
        ledger.enter(&shared);
        assert_eq!(ledger.tenants(NodeId::new(1)), 1);
        // One tenant: no inflation.
        assert!((factor(1) - 1.0).abs() < 1e-12);
        ledger.enter(&[NodeId::new(1)]);
        assert_eq!(ledger.tenants(NodeId::new(1)), 2);
        // Two tenants: one alpha more.
        assert!((factor(1) - (1.0 + CONTENTION_ALPHA)).abs() < 1e-12);
        ledger.enter(&[NodeId::new(1)]);
        assert!((factor(1) - (1.0 + 2.0 * CONTENTION_ALPHA)).abs() < 1e-12);
        ledger.exit(&[NodeId::new(1)]);
        ledger.exit(&[NodeId::new(1)]);
        ledger.exit(&shared);
        assert_eq!(ledger.tenants(NodeId::new(1)), 0);
        assert_eq!(ledger.tenants(NodeId::new(2)), 0);
    }

    #[test]
    fn ledger_counts_a_query_once_per_node() {
        let ledger = ContentionLedger::default();
        // Two partitions co-hosted on one node still count as one tenant.
        ledger.enter(&[NodeId::new(3), NodeId::new(3)]);
        assert_eq!(ledger.tenants(NodeId::new(3)), 1);
        ledger.exit(&[NodeId::new(3), NodeId::new(3)]);
        assert_eq!(ledger.tenants(NodeId::new(3)), 0);
    }

    #[test]
    fn counter_is_shared_with_live_entries() {
        let ledger = ContentionLedger::default();
        let ctr = ledger.counter(NodeId::new(7));
        ledger.enter(&[NodeId::new(7)]);
        assert_eq!(ctr.load(Ordering::Relaxed), 1);
        ledger.enter(&[NodeId::new(7)]);
        assert_eq!(ctr.load(Ordering::Relaxed), 2);
    }
}
