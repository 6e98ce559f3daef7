//! The long-lived query service plane.
//!
//! The paper's AGQES nodes are Grid *services* (OGSA-DQP heritage): they
//! outlive any single query. This module turns the one-shot executors
//! into such a service. A [`QueryService`] admits N concurrent queries
//! through the engine's [`AdmissionController`] (bounded run queue, loud
//! rejection), and multiplexes them over shared evaluator nodes on either
//! the threaded or the socket substrate. Its one piece of tenancy state
//! is the shared [`ContentionLedger`]: which admitted query sits on which
//! node. It models the cost inflation co-resident tenants induce on a
//! node, and it names the co-tenant when a query's own diagnosis
//! rebalances away from a shared node — there is no second diagnoser.
//!
//! Every admitted query gets a fresh [`QueryId`] epoch from the
//! controller; the plan shipped to the substrate is re-tagged with it,
//! so recovery-log windows, detector streams, and obs-timeline events
//! of one query can never be confused with another's.
//!
//! Isolation model per substrate:
//! - **threaded**: queries share the process; the ledger injects the
//!   modelled contention factor into co-resident consumers' cost model,
//!   each query's own detector → diagnoser → responder chain reacts to
//!   it, and an accepted rebalance away from a shared node is recorded
//!   as a tenant rebalance.
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

use gridq_common::sync::Mutex;
use gridq_common::{cast, NodeId, QueryId, Result, Tuple};
use gridq_engine::distributed::DistributedPlan;
use gridq_engine::physical::Catalog;
use gridq_engine::service::{
    AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats,
};
use gridq_obs::RunReport;

use crate::socket::{SocketConfig, SocketExecutor};
use crate::{ThreadedConfig, ThreadedExecutor};

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

/// The service plane's tenancy registry: which admitted queries sit on
/// which node. The threaded substrate multiplies every consumer's
/// modelled per-tuple cost by `contention_factor` of its node's tenant
/// count, so co-residency *shows up in the M1 stream* exactly like a
/// slow Grid node would — which is what lets the unchanged
/// detector/diagnoser machinery observe it. When that machinery deploys
/// a rebalance away from a shared node, the ledger names the co-tenant.
#[derive(Debug, Default)]
pub struct ContentionLedger {
    nodes: Mutex<HashMap<NodeId, Tenants>>,
}

/// One node's tenants, their count mirrored into the counter consumers
/// read lock-free per tuple.
#[derive(Debug, Default)]
struct Tenants {
    queries: Vec<QueryId>,
    count: Arc<AtomicU32>,
}

impl ContentionLedger {
    /// Registers `query`'s arrival on `nodes` (each distinct node is
    /// counted once regardless of how many partitions it hosts).
    pub fn enter(&self, query: QueryId, nodes: &[NodeId]) {
        let mut map = self.nodes.lock();
        for &node in nodes {
            let tenants = map.entry(node).or_default();
            if !tenants.queries.contains(&query) {
                tenants.queries.push(query);
                tenants.count.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Registers `query`'s departure from every node it entered. Nodes
    /// left without tenants are evicted, so the map stays bounded by the
    /// occupied-node set; late readers holding a counter see 0.
    pub fn exit(&self, query: QueryId) {
        self.nodes.lock().retain(|_, tenants| {
            if let Some(i) = tenants.queries.iter().position(|&q| q == query) {
                tenants.queries.swap_remove(i);
                tenants.count.fetch_sub(1, Ordering::Relaxed);
            }
            !tenants.queries.is_empty()
        });
    }

    /// Live tenant count on a node.
    pub fn tenants(&self, node: NodeId) -> u32 {
        self.nodes
            .lock()
            .get(&node)
            .map_or(0, |t| t.count.load(Ordering::Relaxed))
    }

    /// The query other than `query` that a rebalance away from `node` is
    /// attributed to: the lowest-id co-tenant, or `None` on a node
    /// `query` has to itself.
    pub fn co_tenant(&self, query: QueryId, node: NodeId) -> Option<QueryId> {
        let map = self.nodes.lock();
        let others = map.get(&node)?.queries.iter().filter(|&&q| q != query);
        others.min().copied()
    }

    /// The shared counter for a node; consumer threads clone this once
    /// and read it lock-free per tuple.
    pub fn counter(&self, node: NodeId) -> Arc<AtomicU32> {
        Arc::clone(&self.nodes.lock().entry(node).or_default().count)
    }
}

/// Service-plane configuration. The tenancy model's one parameter is a
/// constant, [`CONTENTION_ALPHA`].
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
    Threaded(RunReport),
    /// Ran to completion on the socket substrate.
    Socket(RunReport),
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
    /// Tenant rebalances deployed: accepted rebalances away from a node
    /// shared with another query (summed over threaded reports).
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
}

impl QueryService {
    /// Creates a service with the given admission bounds.
    pub fn new(config: ServiceConfig) -> Result<Self> {
        Ok(QueryService {
            state: Mutex::new(ServiceState {
                controller: AdmissionController::new(config.admission)?,
                tickets: HashMap::new(),
            }),
            ledger: Arc::new(ContentionLedger::default()),
        })
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
                if let Some(stage) = plan.stages.first() {
                    self.ledger.enter(id, &stage.nodes);
                    config.tenancy = Some(Arc::clone(&self.ledger));
                }
                let out = ThreadedExecutor::new(submission.catalog, config).run(&plan);
                self.ledger.exit(id);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u32) -> QueryId {
        QueryId::new(id)
    }

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    #[test]
    fn ledger_counts_tenants_and_inflates_cost() {
        let ledger = ContentionLedger::default();
        let factor = |node: u32| contention_factor(ledger.tenants(n(node)));
        assert!((factor(1) - 1.0).abs() < 1e-12);
        ledger.enter(q(1), &[n(1), n(2)]);
        assert_eq!(ledger.tenants(n(1)), 1);
        // One tenant: no inflation.
        assert!((factor(1) - 1.0).abs() < 1e-12);
        ledger.enter(q(2), &[n(1)]);
        assert_eq!(ledger.tenants(n(1)), 2);
        // Two tenants: one alpha more.
        assert!((factor(1) - (1.0 + CONTENTION_ALPHA)).abs() < 1e-12);
        ledger.enter(q(3), &[n(1)]);
        assert!((factor(1) - (1.0 + 2.0 * CONTENTION_ALPHA)).abs() < 1e-12);
        ledger.exit(q(2));
        ledger.exit(q(3));
        ledger.exit(q(1));
        assert_eq!(ledger.tenants(n(1)), 0);
        assert_eq!(ledger.tenants(n(2)), 0);
    }

    #[test]
    fn ledger_counts_a_query_once_per_node() {
        let ledger = ContentionLedger::default();
        // Two partitions co-hosted on one node still count as one tenant,
        // and so does entering twice.
        ledger.enter(q(1), &[n(3), n(3)]);
        ledger.enter(q(1), &[n(3)]);
        assert_eq!(ledger.tenants(n(3)), 1);
        ledger.exit(q(1));
        assert_eq!(ledger.tenants(n(3)), 0);
    }

    #[test]
    fn counter_is_shared_with_live_entries() {
        let ledger = ContentionLedger::default();
        let ctr = ledger.counter(n(7));
        ledger.enter(q(1), &[n(7)]);
        assert_eq!(ctr.load(Ordering::Relaxed), 1);
        ledger.enter(q(2), &[n(7)]);
        assert_eq!(ctr.load(Ordering::Relaxed), 2);
        ledger.exit(q(1));
        assert_eq!(ctr.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn ledger_names_the_co_tenant_a_rebalance_is_attributed_to() {
        let ledger = ContentionLedger::default();
        // Node 2 is shared by queries 1, 3 and 4; nodes 1 and 3 are
        // private to queries 1 and 4.
        ledger.enter(q(4), &[n(3), n(2)]);
        ledger.enter(q(1), &[n(1), n(2)]);
        ledger.enter(q(3), &[n(2)]);
        // A shared node names the lowest-id other query.
        assert_eq!(ledger.co_tenant(q(1), n(2)), Some(q(3)));
        assert_eq!(ledger.co_tenant(q(4), n(2)), Some(q(1)));
        // A private node, or one the ledger never saw, names none.
        assert_eq!(ledger.co_tenant(q(1), n(1)), None);
        assert_eq!(ledger.co_tenant(q(4), n(3)), None);
        assert_eq!(ledger.co_tenant(q(1), n(9)), None);
        // After `exit` the query is no longer named, and a co-resident's
        // entry survives.
        ledger.exit(q(1));
        assert_eq!(ledger.co_tenant(q(4), n(2)), Some(q(3)));
        assert_eq!(ledger.co_tenant(q(3), n(2)), Some(q(4)));
        assert_eq!(ledger.tenants(n(1)), 0);
        assert_eq!(ledger.tenants(n(3)), 1);
        ledger.exit(q(3));
        assert_eq!(ledger.co_tenant(q(4), n(2)), None);
        assert_eq!(ledger.tenants(n(2)), 1);
    }
}
