//! Cross-query (tenant-level) diagnosis for the service plane.
//!
//! The paper's Diagnoser balances *partitions of one query*. When a
//! long-lived service admits concurrent queries onto shared evaluator
//! nodes, a second kind of imbalance appears: the cost a query observes
//! on a node is inflated by a co-resident tenant, not by the node
//! itself. The [`CrossQueryDiagnoser`] watches smoothed per-partition
//! costs across *all* admitted queries, knows which queries share which
//! nodes, and — in the spirit of the multi-agent performance-tuning
//! framework of Roy et al. — proposes a *tenant rebalance*: a weight
//! shift for the affected query away from the contended node, deployed
//! through the existing adaptation (recall) protocol of that query.
//!
//! Like the per-query components it is a pure state machine driven by
//! explicit timestamps, so it runs identically under the simulator and
//! the wall-clock executors.

use std::collections::HashMap;

use gridq_common::{DistributionVector, NodeId, PartitionId, QueryId, SimTime};

use crate::config::COOLDOWN_MS;

/// Minimum relative change between a query's current and proposed
/// distribution before a tenant rebalance is worth deploying — the tenant
/// analogue of `thres_a`, but fixed: `repro ablation` sweeps `thres_a`,
/// and nothing sweeps this one.
pub const THRES_T: f64 = 0.2;

/// Cost updates a query must deliver before it is eligible for
/// cross-query diagnosis (avoids reacting to cold windows).
pub const MIN_UPDATES: u64 = 2;

/// A smoothed cost observation forwarded from one query's detector to
/// the shared cross-query diagnoser.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantCostUpdate {
    /// The reporting query.
    pub query: QueryId,
    /// The partition whose cost changed.
    pub partition: PartitionId,
    /// The node hosting that partition.
    pub node: NodeId,
    /// Trimmed windowed average processing cost per tuple, milliseconds.
    pub avg_cost_ms: f64,
    /// Time of the triggering detector notification.
    pub at: SimTime,
}

/// A proposed tenant rebalance: shift `query`'s weights away from a node
/// whose cost is inflated by a co-resident tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRebalance {
    /// The query whose distribution should change.
    pub query: QueryId,
    /// The co-resident tenant diagnosed as the source of contention.
    pub induced_by: QueryId,
    /// The contended node.
    pub node: NodeId,
    /// The proposed balanced distribution for `query`.
    pub proposed: DistributionVector,
    /// The per-partition costs that produced the proposal.
    pub costs: Vec<f64>,
    /// Diagnosis time.
    pub at: SimTime,
}

#[derive(Debug)]
struct TenantState {
    /// Partition index → hosting node.
    nodes: Vec<NodeId>,
    /// The distribution currently deployed for this query.
    current: DistributionVector,
    /// Latest smoothed cost per partition index.
    costs: HashMap<u32, f64>,
    updates: u64,
    last_proposal_at: Option<SimTime>,
}

/// Tenant-level diagnoser shared by every query admitted to a service
/// plane. Registration and eviction are scoped per query: one query's
/// teardown never disturbs another's state.
#[derive(Debug, Default)]
pub struct CrossQueryDiagnoser {
    queries: HashMap<QueryId, TenantState>,
    /// Cost updates received across all tenants.
    pub updates_received: u64,
    /// Rebalance proposals issued.
    pub proposals_issued: u64,
}

impl CrossQueryDiagnoser {
    /// Creates an empty diagnoser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an admitted query: its partition→node placement and the
    /// initially deployed distribution.
    pub fn register_query(
        &mut self,
        query: QueryId,
        nodes: Vec<NodeId>,
        initial: DistributionVector,
    ) {
        assert_eq!(
            nodes.len(),
            initial.len(),
            "placement/distribution mismatch"
        );
        self.queries.insert(
            query,
            TenantState {
                nodes,
                current: initial,
                costs: HashMap::new(),
                updates: 0,
                last_proposal_at: None,
            },
        );
    }

    /// Evicts everything tracked for `query` (teardown). Co-resident
    /// tenants are untouched.
    pub fn deregister_query(&mut self, query: QueryId) {
        self.queries.remove(&query);
    }

    /// Number of currently registered tenants.
    pub fn tracked_queries(&self) -> usize {
        self.queries.len()
    }

    /// Records that a rebalance was deployed for `query` (`W ← W'`).
    pub fn set_distribution(&mut self, query: QueryId, dist: DistributionVector) {
        if let Some(state) = self.queries.get_mut(&query) {
            if dist.len() == state.current.len() {
                state.current = dist;
            }
        }
    }

    /// The registered tenants sharing `node` other than `query` itself.
    pub fn co_tenants(&self, query: QueryId, node: NodeId) -> Vec<QueryId> {
        let mut out: Vec<QueryId> = self
            .queries
            .iter()
            .filter(|(q, s)| **q != query && s.nodes.contains(&node))
            .map(|(q, _)| *q)
            .collect();
        out.sort_by_key(|q| q.index());
        out
    }

    /// Feeds one smoothed cost observation. Returns a rebalance proposal
    /// for the reporting query when (a) every partition has reported,
    /// (b) the balanced vector differs from the current one by more than
    /// [`THRES_T`], (c) the costliest partition sits on a node shared
    /// with another registered tenant, and (d) [`COOLDOWN_MS`] has passed
    /// since the query's last proposal.
    pub fn on_cost_update(&mut self, update: &TenantCostUpdate) -> Option<TenantRebalance> {
        self.updates_received += 1;
        let state = self.queries.get_mut(&update.query)?;
        state.updates += 1;
        state
            .costs
            .insert(update.partition.index, update.avg_cost_ms);
        if state.updates < MIN_UPDATES || state.costs.len() < state.nodes.len() {
            return None;
        }
        if let Some(last) = state.last_proposal_at {
            if update.at.as_millis() - last.as_millis() < COOLDOWN_MS {
                return None;
            }
        }
        let mut costs = Vec::with_capacity(state.nodes.len());
        for i in 0..state.nodes.len() {
            costs.push(*state.costs.get(&(i as u32))?);
        }
        let proposed = DistributionVector::balanced_for_costs(&costs).ok()?;
        if state.current.max_rel_diff(&proposed) <= THRES_T {
            return None;
        }
        // The contended partition is the costliest one; contention is
        // only diagnosed as *cross-query* when its node is shared.
        let (hot_index, _) = costs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))?;
        let hot_node = state.nodes[hot_index];
        state.last_proposal_at = Some(update.at);
        let induced_by = *self.co_tenants(update.query, hot_node).first()?;
        self.proposals_issued += 1;
        Some(TenantRebalance {
            query: update.query,
            induced_by,
            node: hot_node,
            proposed,
            costs,
            at: update.at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::SubplanId;

    fn update(query: u32, index: u32, node: u32, cost: f64, at_ms: f64) -> TenantCostUpdate {
        TenantCostUpdate {
            query: QueryId::new(query),
            partition: PartitionId::new(SubplanId::new(1), index),
            node: NodeId::new(node),
            avg_cost_ms: cost,
            at: SimTime::from_millis(at_ms),
        }
    }

    fn diagnoser() -> CrossQueryDiagnoser {
        let mut d = CrossQueryDiagnoser::new();
        // Two queries share node 2; node 1 and node 3 are private.
        d.register_query(
            QueryId::new(1),
            vec![NodeId::new(1), NodeId::new(2)],
            DistributionVector::uniform(2),
        );
        d.register_query(
            QueryId::new(2),
            vec![NodeId::new(3), NodeId::new(2)],
            DistributionVector::uniform(2),
        );
        d
    }

    #[test]
    fn contention_on_a_shared_node_proposes_a_rebalance() {
        let mut d = diagnoser();
        assert!(d.on_cost_update(&update(1, 0, 1, 1.0, 0.0)).is_none());
        let r = d
            .on_cost_update(&update(1, 1, 2, 10.0, 1.0))
            .expect("shared-node contention must propose a rebalance");
        assert_eq!(r.query, QueryId::new(1));
        assert_eq!(r.induced_by, QueryId::new(2));
        assert_eq!(r.node, NodeId::new(2));
        // Weight shifts away from the contended node.
        assert!(r.proposed.weights()[1] < 0.5);
        assert_eq!(d.proposals_issued, 1);
    }

    #[test]
    fn contention_on_a_private_node_is_not_cross_query() {
        let mut d = diagnoser();
        // Query 1's *private* node 1 is the expensive one: not tenant-induced.
        let _ = d.on_cost_update(&update(1, 0, 1, 10.0, 0.0));
        assert!(d.on_cost_update(&update(1, 1, 2, 1.0, 1.0)).is_none());
    }

    #[test]
    fn balanced_costs_stay_quiet() {
        let mut d = diagnoser();
        let _ = d.on_cost_update(&update(1, 0, 1, 2.0, 0.0));
        assert!(d.on_cost_update(&update(1, 1, 2, 2.0, 1.0)).is_none());
    }

    #[test]
    fn cooldown_gates_repeat_proposals() {
        let mut d = diagnoser();
        let _ = d.on_cost_update(&update(1, 0, 1, 1.0, 0.0));
        assert!(d.on_cost_update(&update(1, 1, 2, 10.0, 1.0)).is_some());
        // Within the cooldown: quiet, even though the imbalance persists.
        assert!(d.on_cost_update(&update(1, 1, 2, 12.0, 10.0)).is_none());
        // After the cooldown it may fire again.
        assert!(d.on_cost_update(&update(1, 1, 2, 12.0, 100.0)).is_some());
    }

    #[test]
    fn deregistration_is_scoped_per_query() {
        let mut d = diagnoser();
        let _ = d.on_cost_update(&update(2, 0, 3, 1.0, 0.0));
        d.deregister_query(QueryId::new(1));
        assert_eq!(d.tracked_queries(), 1);
        // Query 2's state survived: one more update completes its cost
        // picture, but node 2 is no longer shared so no proposal fires.
        assert!(d.on_cost_update(&update(2, 1, 2, 10.0, 1.0)).is_none());
        // Updates for the deregistered query are ignored, not tracked.
        assert!(d.on_cost_update(&update(1, 0, 1, 1.0, 2.0)).is_none());
        assert_eq!(d.tracked_queries(), 1);
    }

    #[test]
    fn deployed_distribution_resets_the_baseline() {
        let mut d = diagnoser();
        let _ = d.on_cost_update(&update(1, 0, 1, 1.0, 0.0));
        let r = d.on_cost_update(&update(1, 1, 2, 10.0, 1.0)).unwrap();
        d.set_distribution(QueryId::new(1), r.proposed.clone());
        // The same costs now match the deployed vector: quiet even after
        // the cooldown expires.
        assert!(d.on_cost_update(&update(1, 1, 2, 10.0, 200.0)).is_none());
    }
}
