//! The adaptivity timeline: a bounded, append-only journal of every hop
//! of the control loop.
//!
//! Each recorded event gets a global sequence number; downstream hops
//! reference the sequence number of the upstream event that caused them
//! (`raw_seq` → `notify_seq` → `diagnosis_seq`), so a deployed
//! adaptation can be traced back to the raw monitoring events behind it.
//! The journal is a ring: when full, the *oldest* events are evicted and
//! counted, keeping memory bounded on long executions while preserving
//! the most recent control-loop activity.

use std::collections::VecDeque;

use gridq_common::sync::Mutex;

use crate::json::{num_array, JsonObj};

/// One hop of the adaptivity control loop.
#[derive(Debug, Clone, PartialEq)]
pub enum TimelineKind {
    /// An M1 monitoring event (per-tuple processing cost of a partition)
    /// arrived at the detector.
    RawM1 {
        /// Partition label, e.g. `"sp1.0"`.
        partition: String,
        /// Node currently hosting the partition.
        node: String,
        /// Reported cost per tuple in model milliseconds.
        cost_per_tuple_ms: f64,
        /// Average time the partition spent waiting for input per tuple
        /// of the batch, in model milliseconds (the A2 diagnoser's leaf
        /// signal).
        leaf_wait_ms: f64,
        /// Whether the detector's `THRES_M` gate fired on this event.
        gate_fired: bool,
    },
    /// An M2 monitoring event (communication cost of a producer→recipient
    /// link) arrived at the detector.
    RawM2 {
        /// Producer label.
        producer: String,
        /// Recipient label, e.g. `"sp1.0"`.
        recipient: String,
        /// Reported cost per tuple in model milliseconds.
        cost_per_tuple_ms: f64,
        /// Whether the detector's `THRES_M` gate fired on this event.
        gate_fired: bool,
    },
    /// The detector notified the diagnoser (the gate fired).
    DetectorNotify {
        /// What changed: the partition (M1) or link (M2) label.
        scope: String,
        /// The trimmed-window average that fired the gate.
        avg_cost_ms: f64,
        /// Number of samples in the window at notify time.
        window_len: usize,
        /// Sequence number of the raw event that triggered this.
        raw_seq: u64,
    },
    /// The diagnoser assessed the current distribution and proposed a new
    /// one (`W'`).
    Diagnosis {
        /// Stage (subplan) label.
        stage: String,
        /// Proposed per-partition weights `W'`.
        proposed: Vec<f64>,
        /// Per-partition total costs `c(p_i)` the proposal derives from.
        costs: Vec<f64>,
        /// Sequence number of the detector notification behind this.
        notify_seq: u64,
    },
    /// The responder accepted or declined a diagnosis.
    ResponderDecision {
        /// `"accepted"`, `"declined_near_completion"`, or
        /// `"declined_cooldown"`.
        decision: String,
        /// Sequence number of the diagnosis decided on.
        diagnosis_seq: u64,
    },
    /// A new distribution was deployed into the router.
    Deploy {
        /// Stage (subplan) label.
        stage: String,
        /// The deployed per-partition weights.
        weights: Vec<f64>,
        /// Whether retrospective (R1) rebalancing of queued work applied.
        retrospective: bool,
        /// Sequence number of the diagnosis this deploys.
        diagnosis_seq: u64,
    },
    /// A retrospective (R1) recall started: producers are paused and the
    /// substrate is recalling unacknowledged work for redistribution.
    RecallStart {
        /// Stage (subplan) label.
        stage: String,
        /// The redistribution epoch this recall establishes.
        epoch: u64,
        /// Sequence number of the deploy this recall realises.
        deploy_seq: u64,
    },
    /// A retrospective recall finished: moved-bucket state and recalled
    /// tuples have been re-delivered under the new distribution.
    RecallFinish {
        /// The redistribution epoch the recall established.
        epoch: u64,
        /// Operator-state tuples migrated between partitions.
        state_tuples_migrated: u64,
        /// Queued/staged tuples recalled and re-routed.
        tuples_recalled: u64,
        /// Sequence number of the matching [`TimelineKind::RecallStart`].
        start_seq: u64,
    },
    /// The responder accepted a diagnosis whose costliest partition sits
    /// on a node shared with another query (service plane only): the
    /// deploy that follows is a tenant rebalance, attributed to that
    /// co-tenant. An annotation on the query's own chain, not a link in
    /// it — the [`TimelineKind::Deploy`] still links the diagnosis.
    TenantRebalance {
        /// The query whose distribution shifts.
        query: String,
        /// The co-resident tenant the contention is attributed to.
        induced_by: String,
        /// The contended node.
        node: String,
        /// Sequence number of the accepted [`TimelineKind::Diagnosis`].
        diagnosis_seq: u64,
    },
    /// A node died: its consumer thread reported its own crash on the way
    /// out (threaded substrate), or a `NodeFail` event fired (simulator).
    NodeDown {
        /// Partition label of the dead node, e.g. `"sp1.1"`.
        partition: String,
    },
    /// Node-failure failover finished: work was redistributed away from
    /// the dead partition and its recovery-log entries were replayed to
    /// the surviving owners.
    Failover {
        /// Partition label of the dead node.
        partition: String,
        /// Recovery-log entries replayed to new owners.
        replayed: u64,
        /// Sequence number of the [`TimelineKind::NodeDown`] that
        /// triggered this failover.
        down_seq: u64,
    },
}

impl TimelineKind {
    /// The `"kind"` discriminator used in the JSON export.
    pub fn kind_str(&self) -> &'static str {
        match self {
            TimelineKind::RawM1 { .. } => "raw_m1",
            TimelineKind::RawM2 { .. } => "raw_m2",
            TimelineKind::DetectorNotify { .. } => "detector_notify",
            TimelineKind::Diagnosis { .. } => "diagnosis",
            TimelineKind::ResponderDecision { .. } => "responder",
            TimelineKind::Deploy { .. } => "deploy",
            TimelineKind::RecallStart { .. } => "recall_start",
            TimelineKind::RecallFinish { .. } => "recall_finish",
            TimelineKind::TenantRebalance { .. } => "tenant_rebalance",
            TimelineKind::NodeDown { .. } => "node_down",
            TimelineKind::Failover { .. } => "failover",
        }
    }
}

/// A journal entry: a [`TimelineKind`] stamped with its sequence number,
/// model time, and (for threaded executions) wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Global sequence number, assigned at record time.
    pub seq: u64,
    /// Model time in milliseconds (virtual time in the simulator, scaled
    /// model time in the threaded executor).
    pub at_ms: f64,
    /// Wall-clock milliseconds since execution start; `None` in the
    /// simulator, where only virtual time exists.
    pub wall_ms: Option<f64>,
    /// What happened.
    pub kind: TimelineKind,
}

impl TimelineEvent {
    /// Serializes the event as one self-contained JSON object line.
    pub fn to_json_line(&self) -> String {
        let mut obj = JsonObj::new();
        obj.str("kind", self.kind.kind_str())
            .int("seq", self.seq)
            .num("at_ms", self.at_ms)
            .opt_num("wall_ms", self.wall_ms);
        match &self.kind {
            TimelineKind::RawM1 {
                partition,
                node,
                cost_per_tuple_ms,
                leaf_wait_ms,
                gate_fired,
            } => {
                obj.str("partition", partition)
                    .str("node", node)
                    .num("cost_per_tuple_ms", *cost_per_tuple_ms)
                    .num("leaf_wait_ms", *leaf_wait_ms)
                    .bool("gate_fired", *gate_fired);
            }
            TimelineKind::RawM2 {
                producer,
                recipient,
                cost_per_tuple_ms,
                gate_fired,
            } => {
                obj.str("producer", producer)
                    .str("recipient", recipient)
                    .num("cost_per_tuple_ms", *cost_per_tuple_ms)
                    .bool("gate_fired", *gate_fired);
            }
            TimelineKind::DetectorNotify {
                scope,
                avg_cost_ms,
                window_len,
                raw_seq,
            } => {
                obj.str("scope", scope)
                    .num("avg_cost_ms", *avg_cost_ms)
                    .int("window_len", *window_len as u64)
                    .int("raw_seq", *raw_seq);
            }
            TimelineKind::Diagnosis {
                stage,
                proposed,
                costs,
                notify_seq,
            } => {
                obj.str("stage", stage)
                    .raw("proposed", &num_array(proposed))
                    .raw("costs", &num_array(costs))
                    .int("notify_seq", *notify_seq);
            }
            TimelineKind::ResponderDecision {
                decision,
                diagnosis_seq,
            } => {
                obj.str("decision", decision)
                    .int("diagnosis_seq", *diagnosis_seq);
            }
            TimelineKind::Deploy {
                stage,
                weights,
                retrospective,
                diagnosis_seq,
            } => {
                obj.str("stage", stage)
                    .raw("weights", &num_array(weights))
                    .bool("retrospective", *retrospective)
                    .int("diagnosis_seq", *diagnosis_seq);
            }
            TimelineKind::RecallStart {
                stage,
                epoch,
                deploy_seq,
            } => {
                obj.str("stage", stage)
                    .int("epoch", *epoch)
                    .int("deploy_seq", *deploy_seq);
            }
            TimelineKind::RecallFinish {
                epoch,
                state_tuples_migrated,
                tuples_recalled,
                start_seq,
            } => {
                obj.int("epoch", *epoch)
                    .int("state_tuples_migrated", *state_tuples_migrated)
                    .int("tuples_recalled", *tuples_recalled)
                    .int("start_seq", *start_seq);
            }
            TimelineKind::TenantRebalance {
                query,
                induced_by,
                node,
                diagnosis_seq,
            } => {
                obj.str("query", query)
                    .str("induced_by", induced_by)
                    .str("node", node)
                    .int("diagnosis_seq", *diagnosis_seq);
            }
            TimelineKind::NodeDown { partition } => {
                obj.str("partition", partition);
            }
            TimelineKind::Failover {
                partition,
                replayed,
                down_seq,
            } => {
                obj.str("partition", partition)
                    .int("replayed", *replayed)
                    .int("down_seq", *down_seq);
            }
        }
        obj.finish()
    }
}

#[derive(Debug, Default)]
struct TimelineInner {
    events: VecDeque<TimelineEvent>,
    next_seq: u64,
    dropped: u64,
}

/// The bounded journal. Thread-safe: the threaded executor records from
/// several threads; sequence numbers are assigned under the lock so they
/// are globally ordered.
#[derive(Debug)]
pub struct Timeline {
    capacity: usize,
    inner: Mutex<TimelineInner>,
}

impl Timeline {
    /// Creates a journal retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Timeline {
            capacity,
            inner: Mutex::new(TimelineInner::default()),
        }
    }

    /// Appends an event, returning its sequence number. When the journal
    /// is full the oldest event is evicted and counted as dropped.
    pub fn record(&self, at_ms: f64, wall_ms: Option<f64>, kind: TimelineKind) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if self.capacity == 0 {
            inner.dropped += 1;
            return seq;
        }
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(TimelineEvent {
            seq,
            at_ms,
            wall_ms,
            kind,
        });
        seq
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Copies out the retained events (oldest first) and the dropped
    /// count.
    pub fn snapshot(&self) -> (Vec<TimelineEvent>, u64) {
        let inner = self.inner.lock();
        (inner.events.iter().cloned().collect(), inner.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_kind(i: u64) -> TimelineKind {
        TimelineKind::RawM1 {
            partition: format!("sp1.{i}"),
            node: "n1".into(),
            cost_per_tuple_ms: i as f64,
            leaf_wait_ms: 0.0,
            gate_fired: false,
        }
    }

    #[test]
    fn sequence_numbers_are_contiguous_and_survive_eviction() {
        let t = Timeline::new(3);
        for i in 0..5 {
            assert_eq!(t.record(i as f64, None, sample_kind(i)), i);
        }
        let (events, dropped) = t.snapshot();
        assert_eq!(dropped, 2);
        // The oldest two were evicted; the rest keep their original seqs.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn zero_capacity_drops_everything_but_still_numbers() {
        let t = Timeline::new(0);
        assert_eq!(t.record(0.0, None, sample_kind(0)), 0);
        assert_eq!(t.record(1.0, None, sample_kind(1)), 1);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn every_kind_serializes_to_parseable_json() {
        let kinds = vec![
            TimelineKind::RawM1 {
                partition: "sp1.0".into(),
                node: "n2".into(),
                cost_per_tuple_ms: 2.5,
                leaf_wait_ms: 0.75,
                gate_fired: true,
            },
            TimelineKind::RawM2 {
                producer: "scan0".into(),
                recipient: "sp1.1".into(),
                cost_per_tuple_ms: 0.5,
                gate_fired: false,
            },
            TimelineKind::DetectorNotify {
                scope: "sp1.0".into(),
                avg_cost_ms: 2.5,
                window_len: 25,
                raw_seq: 0,
            },
            TimelineKind::Diagnosis {
                stage: "sp1".into(),
                proposed: vec![0.8, 0.2],
                costs: vec![1.0, 4.0],
                notify_seq: 2,
            },
            TimelineKind::ResponderDecision {
                decision: "declined_cooldown".into(),
                diagnosis_seq: 3,
            },
            TimelineKind::Deploy {
                stage: "sp1".into(),
                weights: vec![0.8, 0.2],
                retrospective: true,
                diagnosis_seq: 3,
            },
            TimelineKind::RecallStart {
                stage: "sp1".into(),
                epoch: 1,
                deploy_seq: 5,
            },
            TimelineKind::RecallFinish {
                epoch: 1,
                state_tuples_migrated: 12,
                tuples_recalled: 4,
                start_seq: 6,
            },
            TimelineKind::NodeDown {
                partition: "sp1.1".into(),
            },
            TimelineKind::Failover {
                partition: "sp1.1".into(),
                replayed: 42,
                down_seq: 8,
            },
            TimelineKind::TenantRebalance {
                query: "q2".into(),
                induced_by: "q1".into(),
                node: "n2".into(),
                diagnosis_seq: 3,
            },
        ];
        let t = Timeline::new(16);
        for (i, kind) in kinds.into_iter().enumerate() {
            t.record(i as f64, Some(i as f64 * 0.1), kind);
        }
        let (events, _) = t.snapshot();
        let kind_strs: Vec<&str> = events.iter().map(|e| e.kind.kind_str()).collect();
        assert_eq!(
            kind_strs,
            vec![
                "raw_m1",
                "raw_m2",
                "detector_notify",
                "diagnosis",
                "responder",
                "deploy",
                "recall_start",
                "recall_finish",
                "node_down",
                "failover",
                "tenant_rebalance"
            ]
        );
        for event in &events {
            let parsed = Json::parse(&event.to_json_line()).unwrap();
            assert_eq!(
                parsed.get("kind").and_then(Json::as_str),
                Some(event.kind.kind_str())
            );
            assert_eq!(parsed.get("seq").and_then(Json::as_u64), Some(event.seq));
            assert!(parsed.get("at_ms").and_then(Json::as_f64).is_some());
        }
        // Spot-check causal back-references survive the roundtrip.
        let diag = Json::parse(&events[3].to_json_line()).unwrap();
        assert_eq!(diag.get("notify_seq").and_then(Json::as_u64), Some(2));
        let deploy = Json::parse(&events[5].to_json_line()).unwrap();
        assert_eq!(deploy.get("diagnosis_seq").and_then(Json::as_u64), Some(3));
        assert_eq!(
            deploy
                .get("weights")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
        // The recall pair carries its own causal links: the start points
        // at the deploy, the finish at the start.
        let start = Json::parse(&events[6].to_json_line()).unwrap();
        assert_eq!(start.get("deploy_seq").and_then(Json::as_u64), Some(5));
        assert_eq!(start.get("epoch").and_then(Json::as_u64), Some(1));
        let finish = Json::parse(&events[7].to_json_line()).unwrap();
        assert_eq!(finish.get("start_seq").and_then(Json::as_u64), Some(6));
        assert_eq!(
            finish.get("state_tuples_migrated").and_then(Json::as_u64),
            Some(12)
        );
        let m1 = Json::parse(&events[0].to_json_line()).unwrap();
        assert_eq!(m1.get("leaf_wait_ms").and_then(Json::as_f64), Some(0.75));
        // The failover pair links back to the node-down declaration.
        let failover = Json::parse(&events[9].to_json_line()).unwrap();
        assert_eq!(failover.get("down_seq").and_then(Json::as_u64), Some(8));
        assert_eq!(failover.get("replayed").and_then(Json::as_u64), Some(42));
        assert_eq!(
            failover.get("partition").and_then(Json::as_str),
            Some("sp1.1")
        );
        // A tenant rebalance annotates the accepted diagnosis.
        let tenant = Json::parse(&events[10].to_json_line()).unwrap();
        assert_eq!(tenant.get("diagnosis_seq").and_then(Json::as_u64), Some(3));
        assert_eq!(tenant.get("induced_by").and_then(Json::as_str), Some("q1"));
    }
}
