//! Distributed (partitioned) plan representation and tuple routing.
//!
//! A [`DistributedPlan`] describes the paper's execution shape: source
//! scans on data nodes feed, through *exchanges*, a chain of partitioned
//! stages whose clones run on evaluation nodes, and the final stage
//! delivers to a collector. The exchange's routing policy is the object of
//! adaptation: a [`Router`] realises the current distribution vector `W`
//! (stateless stages) or bucket map (stateful stages), and the Responder
//! mutates it at run time.

use std::sync::Arc;

use gridq_common::{
    BucketMap, BucketMove, DistributionVector, GridError, NodeId, QueryId, Result, SubplanId, Tuple,
};

use crate::evaluator::{EvaluatorFactory, StreamTag};

/// Which column provides the routing key for each stream of a
/// hash-partitioned exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamKeys {
    /// Key column for `StreamTag::Single`.
    pub single: Option<usize>,
    /// Key column for `StreamTag::Build`.
    pub build: Option<usize>,
    /// Key column for `StreamTag::Probe`.
    pub probe: Option<usize>,
}

impl StreamKeys {
    /// The key column for a stream, if configured.
    pub fn for_stream(&self, stream: StreamTag) -> Option<usize> {
        match stream {
            StreamTag::Single => self.single,
            StreamTag::Build => self.build,
            StreamTag::Probe => self.probe,
        }
    }
}

/// How an exchange distributes tuples over the consuming partitions.
#[derive(Debug, Clone)]
pub enum RoutingPolicy {
    /// Stateless weighted split following a distribution vector. Any
    /// tuple may go to any partition, so prospective (R2) adaptation is
    /// sufficient for correctness.
    Weighted {
        /// The initial distribution.
        initial: DistributionVector,
    },
    /// Hash partitioning on a key column: `stable_hash(key) % buckets`
    /// selects a bucket, and a bucket map assigns buckets to partitions.
    /// Changing the map requires migrating the state of moved buckets
    /// (retrospective, R1).
    HashBuckets {
        /// Number of hash buckets (granularity of rebalancing).
        bucket_count: u32,
        /// The initial bucket distribution over partitions.
        initial: DistributionVector,
        /// Key columns per stream.
        keys: StreamKeys,
    },
}

/// An exchange boundary: the edge between a producer (source or stage) and
/// a consuming partitioned stage.
#[derive(Debug, Clone)]
pub struct ExchangeSpec {
    /// Routing policy.
    pub routing: RoutingPolicy,
    /// Tuples per transmission buffer (the paper sends data in buffers of
    /// tuples over SOAP/HTTP; M2 notifications are per buffer).
    pub buffer_tuples: usize,
}

/// A source scan: a table partition read on a data node.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Table name (resolved against the catalog at execution time).
    pub table: String,
    /// The node hosting the data (exposed as a Grid Data Service).
    pub node: NodeId,
    /// Which input stream of the first stage this source feeds.
    pub stream: StreamTag,
    /// Base per-tuple retrieval cost in milliseconds.
    pub scan_cost_ms: f64,
}

/// A partitioned stage: `nodes.len()` clones of an evaluator.
#[derive(Clone)]
pub struct ParallelStageSpec {
    /// Stable identifier of the subplan this stage evaluates.
    pub id: SubplanId,
    /// Creates the per-partition evaluator clones.
    pub factory: Arc<dyn EvaluatorFactory>,
    /// The node hosting each partition (partition `i` on `nodes[i]`).
    pub nodes: Vec<NodeId>,
    /// The exchange feeding this stage.
    pub exchange: ExchangeSpec,
}

impl std::fmt::Debug for ParallelStageSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelStageSpec")
            .field("id", &self.id)
            .field("op", &self.factory.name())
            .field("nodes", &self.nodes)
            .field("exchange", &self.exchange)
            .finish()
    }
}

/// A complete partitioned query plan.
#[derive(Clone)]
pub struct DistributedPlan {
    /// The query this plan evaluates.
    pub query: QueryId,
    /// Source scans feeding the first stage.
    pub sources: Vec<SourceSpec>,
    /// Partitioned stages in pipeline order; stage `k` feeds stage `k+1`
    /// through stage `k+1`'s exchange.
    pub stages: Vec<ParallelStageSpec>,
    /// The node collecting final results (the query submitter's GDQS).
    pub collect_node: NodeId,
}

impl DistributedPlan {
    /// Validates structural invariants: at least one source and stage,
    /// partition counts matching routing dimensions, sensible buffer
    /// sizes.
    pub fn validate(&self) -> Result<()> {
        if self.sources.is_empty() {
            return Err(GridError::Plan("plan has no sources".into()));
        }
        if self.stages.is_empty() {
            return Err(GridError::Plan("plan has no stages".into()));
        }
        for stage in &self.stages {
            if stage.nodes.is_empty() {
                return Err(GridError::Plan(format!(
                    "stage {} has no partitions",
                    stage.id
                )));
            }
            if stage.exchange.buffer_tuples == 0 {
                return Err(GridError::Plan(format!(
                    "stage {} exchange buffer must hold at least one tuple",
                    stage.id
                )));
            }
            let dist_len = match &stage.exchange.routing {
                RoutingPolicy::Weighted { initial } => initial.len(),
                RoutingPolicy::HashBuckets {
                    initial,
                    bucket_count,
                    ..
                } => {
                    if *bucket_count < stage.nodes.len() as u32 {
                        return Err(GridError::Plan(format!(
                            "stage {}: {bucket_count} buckets cannot cover {} partitions",
                            stage.id,
                            stage.nodes.len()
                        )));
                    }
                    initial.len()
                }
            };
            if dist_len != stage.nodes.len() {
                return Err(GridError::Plan(format!(
                    "stage {}: routing over {dist_len} partitions but {} nodes",
                    stage.id,
                    stage.nodes.len()
                )));
            }
            if stage.factory.stateful()
                && !matches!(stage.exchange.routing, RoutingPolicy::HashBuckets { .. })
            {
                return Err(GridError::Plan(format!(
                    "stateful stage {} requires hash-bucket routing",
                    stage.id
                )));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for DistributedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistributedPlan")
            .field("query", &self.query)
            .field("sources", &self.sources)
            .field("stages", &self.stages)
            .field("collect_node", &self.collect_node)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Runtime routing.
// ---------------------------------------------------------------------------

/// The move plan of a retrospective bucket-map deploy, grouped per old
/// owner for the recall protocol.
#[derive(Debug, Clone, Default)]
pub struct RecallMoves {
    /// Every bucket move the deploy produced.
    pub moves: Vec<BucketMove>,
    /// `outgoing[p]` — the buckets partition `p` must hand over, sorted.
    /// Empty for every partition under weighted routing.
    pub outgoing: Vec<Vec<u32>>,
}

impl RecallMoves {
    /// True when the deploy moved no buckets (weighted routing, or a
    /// rebalance that landed on the same map).
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// The mutable routing state of one exchange at run time.
///
/// Weighted routing uses smooth weighted round-robin: deterministic,
/// starvation-free, and converging to the target proportions without
/// randomness. Hash routing delegates to a [`BucketMap`].
#[derive(Debug, Clone)]
pub enum Router {
    /// Stateless weighted split.
    Weighted {
        /// Target weights.
        weights: DistributionVector,
        /// Smooth-WRR credit per partition.
        credits: Vec<f64>,
    },
    /// Hash-bucket routing.
    Hash {
        /// Bucket ownership map.
        map: BucketMap,
        /// Key columns per stream.
        keys: StreamKeys,
    },
}

impl Router {
    /// Builds the router for an exchange spec.
    pub fn from_policy(policy: &RoutingPolicy, partitions: u32) -> Result<Router> {
        match policy {
            RoutingPolicy::Weighted { initial } => {
                if initial.len() != partitions as usize {
                    return Err(GridError::Plan(format!(
                        "weights for {} partitions, expected {partitions}",
                        initial.len()
                    )));
                }
                Ok(Router::Weighted {
                    weights: initial.clone(),
                    credits: vec![0.0; partitions as usize],
                })
            }
            RoutingPolicy::HashBuckets {
                bucket_count,
                initial,
                keys,
            } => Ok(Router::Hash {
                map: BucketMap::new(*bucket_count, partitions, initial)?,
                keys: *keys,
            }),
        }
    }

    /// Number of consuming partitions.
    pub fn partitions(&self) -> u32 {
        match self {
            Router::Weighted { credits, .. } => credits.len() as u32,
            Router::Hash { map, .. } => map.partitions(),
        }
    }

    /// Routes one tuple, returning the destination partition index.
    pub fn route(&mut self, stream: StreamTag, tuple: &Tuple) -> Result<u32> {
        match self {
            Router::Weighted { weights, credits } => {
                let mut best = 0usize;
                let mut best_credit = f64::NEG_INFINITY;
                for (i, c) in credits.iter_mut().enumerate() {
                    *c += weights.weights()[i];
                    if *c > best_credit {
                        best_credit = *c;
                        best = i;
                    }
                }
                credits[best] -= 1.0;
                Ok(best as u32)
            }
            Router::Hash { map, keys } => {
                let col = keys.for_stream(stream).ok_or_else(|| {
                    GridError::Execution(format!("no routing key configured for {stream:?} stream"))
                })?;
                let hash = tuple.value(col).stable_hash();
                Ok(map.partition_for_hash(hash))
            }
        }
    }

    /// The current effective distribution.
    pub fn current_distribution(&self) -> DistributionVector {
        match self {
            Router::Weighted { weights, .. } => weights.clone(),
            Router::Hash { map, .. } => map.effective_distribution(),
        }
    }

    /// Applies a new target distribution. For weighted routing this swaps
    /// the weights (credits are kept so routing stays smooth); for hash
    /// routing it rebalances the bucket map and returns the bucket moves
    /// whose state must be migrated.
    pub fn apply_distribution(&mut self, target: &DistributionVector) -> Result<Vec<BucketMove>> {
        match self {
            Router::Weighted { weights, credits } => {
                if target.len() != weights.len() {
                    return Err(GridError::Adaptivity(format!(
                        "new distribution has {} entries, expected {}",
                        target.len(),
                        weights.len()
                    )));
                }
                *weights = target.clone();
                // A partition whose weight drops to exactly zero must
                // never be picked again, whatever credit it had
                // accumulated (a failed node would silently swallow the
                // stragglers). Restore a neutral credit if weight comes
                // back.
                for (credit, &w) in credits.iter_mut().zip(target.weights()) {
                    if w == 0.0 {
                        *credit = f64::NEG_INFINITY;
                    } else if credit.is_infinite() {
                        *credit = 0.0;
                    }
                }
                Ok(Vec::new())
            }
            Router::Hash { map, .. } => map.rebalance(target),
        }
    }

    /// Applies a new target distribution for a **retrospective** (R1)
    /// deploy, returning the bucket moves grouped in the shape the recall
    /// protocol consumes: for each partition, the buckets it must hand
    /// over. Weighted routing has no per-bucket state, so the move plan
    /// is empty and only future tuples (plus any recalled staging) are
    /// affected.
    pub fn apply_retrospective(&mut self, target: &DistributionVector) -> Result<RecallMoves> {
        let partitions = self.partitions() as usize;
        let moves = self.apply_distribution(target)?;
        let mut outgoing: Vec<Vec<u32>> = vec![Vec::new(); partitions];
        for mv in &moves {
            outgoing[mv.from as usize].push(mv.bucket);
        }
        for buckets in &mut outgoing {
            buckets.sort_unstable();
        }
        Ok(RecallMoves { moves, outgoing })
    }

    /// For hash routing, the bucket count; `None` for weighted routing.
    pub fn bucket_count(&self) -> Option<u32> {
        match self {
            Router::Weighted { .. } => None,
            Router::Hash { map, .. } => Some(map.bucket_count()),
        }
    }

    /// For hash routing, the bucket a tuple belongs to on a stream.
    pub fn bucket_of(&self, stream: StreamTag, tuple: &Tuple) -> Option<u32> {
        match self {
            Router::Weighted { .. } => None,
            Router::Hash { map, keys } => {
                let col = keys.for_stream(stream)?;
                Some(map.bucket_for_hash(tuple.value(col).stable_hash()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::Value;

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    #[test]
    fn weighted_router_follows_weights() {
        let policy = RoutingPolicy::Weighted {
            initial: DistributionVector::new(&[3.0, 1.0]).unwrap(),
        };
        let mut router = Router::from_policy(&policy, 2).unwrap();
        let mut counts = [0usize; 2];
        for i in 0..400 {
            counts[router.route(StreamTag::Single, &t(i)).unwrap() as usize] += 1;
        }
        assert_eq!(counts[0], 300);
        assert_eq!(counts[1], 100);
    }

    #[test]
    fn weighted_router_is_smooth() {
        // With equal weights, consecutive tuples alternate rather than
        // bursting.
        let policy = RoutingPolicy::Weighted {
            initial: DistributionVector::uniform(2),
        };
        let mut router = Router::from_policy(&policy, 2).unwrap();
        let seq: Vec<u32> = (0..6)
            .map(|i| router.route(StreamTag::Single, &t(i)).unwrap())
            .collect();
        assert_eq!(seq, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn zero_weight_partition_is_never_picked_even_with_credit() {
        // A partition with accumulated credit whose weight drops to zero
        // (e.g. its node failed) must receive nothing further.
        let policy = RoutingPolicy::Weighted {
            initial: DistributionVector::new(&[1.0, 9.0]).unwrap(),
        };
        let mut router = Router::from_policy(&policy, 2).unwrap();
        // Build up credit imbalance.
        for i in 0..7 {
            let _ = router.route(StreamTag::Single, &t(i)).unwrap();
        }
        router
            .apply_distribution(&DistributionVector::new(&[1.0, 0.0]).unwrap())
            .unwrap();
        for i in 0..50 {
            assert_eq!(router.route(StreamTag::Single, &t(i)).unwrap(), 0);
        }
        // Weight coming back re-enables the partition.
        router
            .apply_distribution(&DistributionVector::uniform(2))
            .unwrap();
        let picked: std::collections::HashSet<u32> = (0..10)
            .map(|i| router.route(StreamTag::Single, &t(i)).unwrap())
            .collect();
        assert!(picked.contains(&1), "revived partition must be usable");
    }

    #[test]
    fn weighted_router_reweights_on_apply() {
        let policy = RoutingPolicy::Weighted {
            initial: DistributionVector::uniform(2),
        };
        let mut router = Router::from_policy(&policy, 2).unwrap();
        router
            .apply_distribution(&DistributionVector::new(&[1.0, 0.0]).unwrap())
            .unwrap();
        for i in 0..10 {
            assert_eq!(router.route(StreamTag::Single, &t(i)).unwrap(), 0);
        }
    }

    #[test]
    fn hash_router_routes_by_key_consistently() {
        let policy = RoutingPolicy::HashBuckets {
            bucket_count: 16,
            initial: DistributionVector::uniform(2),
            keys: StreamKeys {
                single: Some(0),
                ..Default::default()
            },
        };
        let mut router = Router::from_policy(&policy, 2).unwrap();
        for i in 0..50 {
            let a = router.route(StreamTag::Single, &t(i)).unwrap();
            let b = router.route(StreamTag::Single, &t(i)).unwrap();
            assert_eq!(a, b, "same key must route to same partition");
        }
    }

    #[test]
    fn hash_router_build_probe_agree() {
        let policy = RoutingPolicy::HashBuckets {
            bucket_count: 16,
            initial: DistributionVector::uniform(3),
            keys: StreamKeys {
                build: Some(0),
                probe: Some(0),
                single: None,
            },
        };
        let mut router = Router::from_policy(&policy, 3).unwrap();
        for i in 0..50 {
            let b = router.route(StreamTag::Build, &t(i)).unwrap();
            let p = router.route(StreamTag::Probe, &t(i)).unwrap();
            assert_eq!(b, p, "build and probe of the same key must colocate");
        }
    }

    #[test]
    fn hash_router_missing_key_errors() {
        let policy = RoutingPolicy::HashBuckets {
            bucket_count: 4,
            initial: DistributionVector::uniform(2),
            keys: StreamKeys::default(),
        };
        let mut router = Router::from_policy(&policy, 2).unwrap();
        assert!(router.route(StreamTag::Single, &t(1)).is_err());
    }

    #[test]
    fn hash_router_rebalance_returns_moves() {
        let policy = RoutingPolicy::HashBuckets {
            bucket_count: 10,
            initial: DistributionVector::uniform(2),
            keys: StreamKeys {
                single: Some(0),
                ..Default::default()
            },
        };
        let mut router = Router::from_policy(&policy, 2).unwrap();
        let moves = router
            .apply_distribution(&DistributionVector::new(&[0.9, 0.1]).unwrap())
            .unwrap();
        assert_eq!(moves.len(), 4); // 5 -> 9 buckets for partition 0
        let dist = router.current_distribution();
        assert!((dist.weights()[0] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn apply_retrospective_groups_moves_by_old_owner() {
        let policy = RoutingPolicy::HashBuckets {
            bucket_count: 10,
            initial: DistributionVector::uniform(2),
            keys: StreamKeys {
                single: Some(0),
                ..Default::default()
            },
        };
        let mut router = Router::from_policy(&policy, 2).unwrap();
        let plan = router
            .apply_retrospective(&DistributionVector::new(&[0.9, 0.1]).unwrap())
            .unwrap();
        assert_eq!(plan.moves.len(), 4);
        assert_eq!(plan.outgoing.len(), 2);
        // All four buckets leave partition 1 for partition 0.
        assert!(plan.outgoing[0].is_empty());
        assert_eq!(plan.outgoing[1].len(), 4);
        let mut sorted = plan.outgoing[1].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, plan.outgoing[1], "outgoing buckets are sorted");
        for mv in &plan.moves {
            assert_eq!(mv.from, 1);
            assert_eq!(mv.to, 0);
            assert!(plan.outgoing[1].contains(&mv.bucket));
        }
        // Every moved bucket now routes to its new owner.
        // (partition_for_hash is exercised via route on matching keys.)
        assert!((router.current_distribution().weights()[0] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn apply_retrospective_on_weighted_is_empty_plan() {
        let policy = RoutingPolicy::Weighted {
            initial: DistributionVector::uniform(2),
        };
        let mut router = Router::from_policy(&policy, 2).unwrap();
        let plan = router
            .apply_retrospective(&DistributionVector::new(&[0.8, 0.2]).unwrap())
            .unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.outgoing, vec![Vec::<u32>::new(); 2]);
        assert!((router.current_distribution().weights()[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let policy = RoutingPolicy::Weighted {
            initial: DistributionVector::uniform(3),
        };
        assert!(Router::from_policy(&policy, 2).is_err());
        let mut ok = Router::from_policy(&policy, 3).unwrap();
        assert!(ok
            .apply_distribution(&DistributionVector::uniform(2))
            .is_err());
    }
}
