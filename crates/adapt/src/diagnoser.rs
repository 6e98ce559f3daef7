//! The Diagnoser: the assessment stage.
//!
//! "The Diagnoser gathers information produced by
//! MonitoringEventDetectors to establish whether there is workload
//! imbalance. ... To balance execution, the objective is to allocate a
//! workload `w_i` to each AGQES that is inversely proportional to
//! `c(p_i)`. The Diagnoser computes the balanced vector `W'`. However, it
//! only notifies the Responder ... if there exists a pair ... which
//! exceeds a threshold `thres_a`. This is to avoid triggering adaptations
//! with low expected benefit."

use std::collections::HashMap;

use gridq_common::{DistributionVector, SimTime, SubplanId};

use crate::config::{AdaptivityConfig, AssessmentPolicy};
use crate::detector::{CommUpdate, CostUpdate};
use crate::notifications::ProducerId;

/// An imbalance diagnosis delivered to the Responder.
#[derive(Debug, Clone, PartialEq)]
pub struct Imbalance {
    /// The partitioned subplan that is imbalanced.
    pub stage: SubplanId,
    /// The proposed balanced distribution `W'`.
    pub proposed: DistributionVector,
    /// The per-partition costs `c(p_i)` that produced the proposal (0 for
    /// a dead partition, which takes no weight).
    pub costs: Vec<f64>,
    /// Diagnosis time.
    pub at: SimTime,
}

/// Assesses one partitioned subplan for workload imbalance.
#[derive(Debug)]
pub struct Diagnoser {
    stage: SubplanId,
    partitions: u32,
    assessment: AssessmentPolicy,
    thres_a: f64,
    /// The distribution currently deployed ("the Diagnoser is aware of
    /// the current tuple distribution policy").
    current: DistributionVector,
    /// Latest smoothed per-partition processing cost.
    proc_cost: HashMap<u32, f64>,
    /// Latest smoothed per-tuple communication cost per
    /// (producer, recipient-partition).
    comm_cost: HashMap<(ProducerId, u32), f64>,
    /// Partitions retired by a node death: they report no cost and are
    /// proposed no weight.
    dead: Vec<bool>,
}

impl Diagnoser {
    /// Creates a diagnoser for a stage with `partitions` partitions and
    /// the given initially-deployed distribution.
    pub fn new(
        stage: SubplanId,
        partitions: u32,
        initial: DistributionVector,
        config: &AdaptivityConfig,
    ) -> Self {
        assert_eq!(initial.len(), partitions as usize);
        Diagnoser {
            stage,
            partitions,
            assessment: config.assessment,
            thres_a: config.thres_a,
            current: initial,
            proc_cost: HashMap::new(),
            comm_cost: HashMap::new(),
            dead: vec![false; partitions as usize],
        }
    }

    /// Records that the Responder deployed a new distribution
    /// (`W ← W'`).
    pub fn set_distribution(&mut self, dist: DistributionVector) {
        assert_eq!(dist.len(), self.partitions as usize);
        self.current = dist;
    }

    /// Which partitions have been retired, by index.
    pub fn dead(&self) -> &[bool] {
        &self.dead
    }

    /// Partition `index` died: its costs are forgotten, later updates
    /// about it are ignored, and every proposal gives it weight 0.
    pub fn retire_partition(&mut self, index: u32) {
        if let Some(dead) = self.dead.get_mut(index as usize) {
            *dead = true;
        }
        self.proc_cost.remove(&index);
        self.comm_cost
            .retain(|(_, recipient), _| *recipient != index);
    }

    fn is_dead(&self, index: u32) -> bool {
        self.dead.get(index as usize) == Some(&true)
    }

    /// Feeds a processing-cost update from a detector.
    pub fn on_cost_update(&mut self, update: &CostUpdate) -> Option<Imbalance> {
        if update.partition.subplan != self.stage || self.is_dead(update.partition.index) {
            return None;
        }
        self.proc_cost
            .insert(update.partition.index, update.avg_cost_ms);
        self.assess(update.at)
    }

    /// Feeds a communication-cost update from a detector. Only used under
    /// assessment policy A2.
    pub fn on_comm_update(&mut self, update: &CommUpdate) -> Option<Imbalance> {
        if update.recipient.subplan != self.stage || self.is_dead(update.recipient.index) {
            return None;
        }
        self.comm_cost.insert(
            (update.producer, update.recipient.index),
            update.avg_cost_per_tuple_ms,
        );
        if self.assessment == AssessmentPolicy::A2 {
            self.assess(update.at)
        } else {
            None
        }
    }

    /// The effective cost per tuple of partition `i` under the configured
    /// assessment policy, if known.
    fn cost_of(&self, i: u32) -> Option<f64> {
        let proc = *self.proc_cost.get(&i)?;
        match self.assessment {
            AssessmentPolicy::A1 => Some(proc),
            AssessmentPolicy::A2 => {
                // Average the latest per-producer delivery costs for this
                // partition; partitions with no reported communication
                // cost (e.g. co-located) contribute zero.
                let (sum, n) = self
                    .comm_cost
                    .iter()
                    .filter(|((_, recipient), _)| *recipient == i)
                    .fold((0.0, 0u32), |(s, n), (_, &c)| (s + c, n + 1));
                let comm = if n == 0 { 0.0 } else { sum / f64::from(n) };
                Some(proc + comm)
            }
        }
    }

    fn assess(&mut self, at: SimTime) -> Option<Imbalance> {
        // Need cost information for every live partition before
        // proposing a rebalance: a partition that has not reported yet
        // would be assigned a default cost and could absorb the whole
        // workload.
        let mut costs = vec![0.0; self.partitions as usize];
        let mut live = Vec::with_capacity(costs.len());
        for i in (0..self.partitions).filter(|&i| !self.is_dead(i)) {
            costs[i as usize] = self.cost_of(i)?;
            live.push(costs[i as usize]);
        }
        // Dead partitions are proposed no weight; the survivors share it
        // by cost.
        let balanced = DistributionVector::balanced_for_costs(&live).ok()?;
        let mut shares = balanced.weights().iter().copied();
        let share = |&dead: &bool| {
            if dead {
                0.0
            } else {
                shares.next().unwrap_or(0.0)
            }
        };
        let weights: Vec<f64> = self.dead.iter().map(share).collect();
        let proposed = DistributionVector::from_normalized(&weights).ok()?;
        if self.current.max_rel_diff(&proposed) > self.thres_a {
            Some(Imbalance {
                stage: self.stage,
                proposed,
                costs,
                at,
            })
        } else {
            None
        }
    }

    /// Number of cost entries currently tracked (per-partition processing
    /// costs plus per-link communication costs).
    pub fn tracked_cost_entries(&self) -> usize {
        self.proc_cost.len() + self.comm_cost.len()
    }

    /// Drops all tracked cost state. Call at query teardown.
    pub fn reset_for_query(&mut self) {
        self.proc_cost.clear();
        self.comm_cost.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResponsePolicy;
    use gridq_common::PartitionId;

    fn cost_update(index: u32, cost: f64) -> CostUpdate {
        CostUpdate {
            partition: PartitionId::new(SubplanId::new(1), index),
            avg_cost_ms: cost,
            avg_wait_ms: 0.0,
            selectivity: 1.0,
            window_len: 1,
            at: SimTime::from_millis(10.0),
        }
    }

    fn comm_update(index: u32, cost: f64) -> CommUpdate {
        CommUpdate {
            producer: ProducerId::Source(0),
            recipient: PartitionId::new(SubplanId::new(1), index),
            avg_cost_per_tuple_ms: cost,
            window_len: 1,
            at: SimTime::from_millis(10.0),
        }
    }

    fn diagnoser(assessment: AssessmentPolicy) -> Diagnoser {
        let config = AdaptivityConfig::with_policies(assessment, ResponsePolicy::R2);
        Diagnoser::new(
            SubplanId::new(1),
            2,
            DistributionVector::uniform(2),
            &config,
        )
    }

    #[test]
    fn waits_for_all_partitions() {
        let mut d = diagnoser(AssessmentPolicy::A1);
        // Only one partition has reported: no diagnosis possible.
        assert_eq!(d.on_cost_update(&cost_update(0, 2.0)), None);
        // Second partition reports a 10x cost: diagnosis fires.
        let imb = d.on_cost_update(&cost_update(1, 20.0)).unwrap();
        let w = imb.proposed.weights();
        assert!((w[0] - 10.0 / 11.0).abs() < 1e-9);
        assert!((w[1] - 1.0 / 11.0).abs() < 1e-9);
        assert_eq!(imb.stage, SubplanId::new(1));
    }

    #[test]
    fn balanced_costs_stay_quiet() {
        let mut d = diagnoser(AssessmentPolicy::A1);
        assert_eq!(d.on_cost_update(&cost_update(0, 2.0)), None);
        assert_eq!(d.on_cost_update(&cost_update(1, 2.1)), None); // ~5% off
    }

    #[test]
    fn set_distribution_rebaselines() {
        let mut d = diagnoser(AssessmentPolicy::A1);
        let _ = d.on_cost_update(&cost_update(0, 2.0));
        let imb = d.on_cost_update(&cost_update(1, 20.0)).unwrap();
        d.set_distribution(imb.proposed.clone());
        // Same costs re-reported: proposal equals current, so quiet.
        assert_eq!(d.on_cost_update(&cost_update(0, 2.0)), None);
        assert_eq!(d.on_cost_update(&cost_update(1, 20.0)), None);
    }

    #[test]
    fn a1_ignores_communication() {
        let mut d = diagnoser(AssessmentPolicy::A1);
        let _ = d.on_cost_update(&cost_update(0, 2.0));
        let _ = d.on_cost_update(&cost_update(1, 2.0));
        // Huge comm cost to partition 1 — ignored by A1.
        assert_eq!(d.on_comm_update(&comm_update(1, 50.0)), None);
    }

    #[test]
    fn a2_adds_communication() {
        let mut d = diagnoser(AssessmentPolicy::A2);
        let _ = d.on_cost_update(&cost_update(0, 2.0));
        let _ = d.on_cost_update(&cost_update(1, 2.0));
        // Comm cost makes partition 1 effectively 2+6=8 vs 2.
        let imb = d.on_comm_update(&comm_update(1, 6.0)).unwrap();
        let w = imb.proposed.weights();
        assert!(w[0] > 0.7, "weights {w:?}");
        assert_eq!(imb.costs, vec![2.0, 8.0]);
    }

    #[test]
    fn other_stage_updates_ignored() {
        let mut d = diagnoser(AssessmentPolicy::A1);
        let other = CostUpdate {
            partition: PartitionId::new(SubplanId::new(9), 0),
            avg_cost_ms: 100.0,
            avg_wait_ms: 0.0,
            selectivity: 1.0,
            window_len: 1,
            at: SimTime::ZERO,
        };
        assert_eq!(d.on_cost_update(&other), None);
        assert_eq!(d.tracked_cost_entries(), 0);
    }

    #[test]
    fn reset_evicts_cost_state() {
        let mut d = diagnoser(AssessmentPolicy::A2);
        let _ = d.on_cost_update(&cost_update(0, 2.0));
        let _ = d.on_cost_update(&cost_update(1, 2.0));
        let _ = d.on_comm_update(&comm_update(0, 1.0));
        let _ = d.on_comm_update(&comm_update(1, 1.0));
        assert_eq!(d.tracked_cost_entries(), 4);
        d.reset_for_query();
        assert_eq!(d.tracked_cost_entries(), 0);
    }

    #[test]
    fn a_dead_partition_is_proposed_no_weight() {
        let config = AdaptivityConfig::default();
        let mut d = Diagnoser::new(
            SubplanId::new(1),
            3,
            DistributionVector::uniform(3),
            &config,
        );
        let _ = d.on_cost_update(&cost_update(0, 1.0));
        let _ = d.on_cost_update(&cost_update(1, 1.0));
        let _ = d.on_cost_update(&cost_update(2, 1.0));
        d.retire_partition(2);
        assert_eq!(d.dead(), &[false, false, true]);
        assert_eq!(d.tracked_cost_entries(), 2, "its cost is forgotten");
        assert_eq!(d.on_cost_update(&cost_update(2, 1.0)), None, "and stays so");
        assert_eq!(d.tracked_cost_entries(), 2);
        let imb = d.on_cost_update(&cost_update(0, 3.0)).unwrap();
        assert_eq!(imb.proposed.weights(), &[0.25, 0.75, 0.0]);
        assert_eq!(imb.costs, vec![3.0, 1.0, 0.0]);
        // Once the survivors' split is in force, their costs propose it
        // again, which is no imbalance.
        d.set_distribution(imb.proposed);
        assert_eq!(d.on_cost_update(&cost_update(1, 1.0)), None);
    }

    #[test]
    fn three_partition_proposal() {
        let config = AdaptivityConfig::default();
        let mut d = Diagnoser::new(
            SubplanId::new(1),
            3,
            DistributionVector::uniform(3),
            &config,
        );
        let _ = d.on_cost_update(&cost_update(0, 1.0));
        let _ = d.on_cost_update(&cost_update(1, 1.0));
        let imb = d.on_cost_update(&cost_update(2, 10.0)).unwrap();
        let w = imb.proposed.weights();
        assert!((w[0] - w[1]).abs() < 1e-12);
        assert!(w[2] < w[0] / 5.0);
    }
}
