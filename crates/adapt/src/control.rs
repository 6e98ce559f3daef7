//! The control loop of one query, written once for every substrate:
//! raw M1/M2 → detector → Diagnoser → Responder → deploy.
//!
//! Like the data plane's protocol core, [`ControlLoop`] owns no thread
//! and reads no clock. Each input arrives with its model time — a raw
//! M1 or M2, a detector [`Notice`] with a progress reading, a deploy, its
//! acknowledgement, a node down, a finished failover — and the loop
//! answers with timeline records (into its [`Journal`]) and at most one
//! thing for the driver to deliver. The drivers keep only delivery: the
//! simulator schedules a [`Notice`] and an [`Accepted`] deploy with its
//! modelled control latencies, the threaded adaptation thread hands both
//! on at once.
//!
//! The loop also counts its own records ([`LoopCounts`]), whether or
//! not a timeline keeps them: a driver's report copies these counts and
//! never keeps its own.
//!
//! Because every input the loop consumes is recorded — the raw events
//! with their values, the progress reading on each
//! [`TimelineKind::ResponderDecision`], the instant of each
//! [`TimelineKind::DeployAck`] — a timeline that evicted nothing replays
//! through a fresh loop to the same decisions ([`crate::replay()`]).

use std::sync::Arc;

use gridq_common::cast;
use gridq_common::obs::{Journal, MetricSink, TimelineKind};
use gridq_common::{DistributionVector, LoopCounts, PartitionId, QueryId, SimTime, SubplanId};

use crate::config::{AdaptivityConfig, ResponsePolicy};
use crate::detector::{DetectorOutput, MonitoringEventDetector};
use crate::diagnoser::Diagnoser;
use crate::notifications::{M1, M2};
use crate::responder::{AdaptationCommand, Responder, ResponderDecision};

/// A detector notification on its way to the Diagnoser.
#[derive(Debug, Clone)]
pub struct Notice {
    /// A `Cost` or `Comm` update, never `Quiet`.
    output: DetectorOutput,
    raw_seq: u64,
}

impl Notice {
    /// The time of the raw event that fired the detector.
    pub fn at(&self) -> SimTime {
        match &self.output {
            DetectorOutput::Cost(u) => u.at,
            DetectorOutput::Comm(u) => u.at,
            DetectorOutput::Quiet => SimTime::ZERO,
        }
    }
}

/// A proposal the Responder accepted, for the driver to deploy.
#[derive(Debug, Clone, PartialEq)]
pub struct Accepted {
    /// What to deploy.
    pub command: AdaptationCommand,
    /// Sequence number of the diagnosis behind it (0 for a scripted
    /// command, which has none).
    pub diagnosis_seq: u64,
    /// The per-partition costs `c(p_i)` the diagnosis derived `W'` from
    /// (empty for a scripted command).
    pub costs: Vec<f64>,
}

impl Accepted {
    /// A command no diagnosis produced.
    pub fn scripted(command: AdaptationCommand) -> Self {
        Accepted {
            command,
            diagnosis_seq: 0,
            costs: Vec::new(),
        }
    }

    /// The partition the diagnosis found costliest.
    pub fn costliest(&self) -> Option<usize> {
        let hottest = self.costs.iter().enumerate();
        hottest.max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i)
    }
}

/// Detector, Diagnoser and Responder of one query's partitioned stage,
/// and the rules that connect them.
#[derive(Debug)]
pub struct ControlLoop {
    query: QueryId,
    stage: SubplanId,
    response: ResponsePolicy,
    detector: MonitoringEventDetector,
    diagnoser: Diagnoser,
    responder: Responder,
    counts: LoopCounts,
    journal: Arc<dyn Journal>,
    sink: Arc<dyn MetricSink>,
}

impl ControlLoop {
    /// A loop for `query`'s stage, starting from the deployed `initial`
    /// distribution. With adaptivity enabled it records its
    /// [`TimelineKind::LoopStart`] at once.
    pub fn new(
        query: QueryId,
        stage: SubplanId,
        initial: DistributionVector,
        config: &AdaptivityConfig,
        journal: Arc<dyn Journal>,
        sink: Arc<dyn MetricSink>,
    ) -> Self {
        if config.enabled {
            journal.record(
                SimTime::ZERO,
                TimelineKind::LoopStart {
                    query: query.to_string(),
                    stage: stage.to_string(),
                    initial: initial.weights().to_vec(),
                    assessment: format!("{:?}", config.assessment),
                    response: format!("{:?}", config.response),
                    thres_a: config.thres_a,
                    detector_window: config.detector_window,
                    progress_cutoff: config.progress_cutoff,
                },
            );
        }
        let mut detector = MonitoringEventDetector::new(config);
        detector.set_metric_sink(Arc::clone(&sink));
        let diagnoser = Diagnoser::new(
            stage,
            cast::index_to_u32(initial.len()).unwrap_or(u32::MAX),
            initial,
            config,
        );
        ControlLoop {
            query,
            stage,
            response: config.response,
            detector,
            diagnoser,
            responder: Responder::new(config),
            counts: LoopCounts::default(),
            journal,
            sink,
        }
    }

    /// What the loop has counted so far.
    pub fn counts(&self) -> LoopCounts {
        self.counts
    }

    /// Which partitions have been reported dead, by index.
    pub fn dead(&self) -> &[bool] {
        self.diagnoser.dead()
    }

    /// A raw M1 reaches the detector.
    pub fn on_m1(&mut self, event: &M1) -> Option<Notice> {
        self.counts.raw_m1 += 1;
        let output = self.detector.on_m1(event);
        let raw_seq = self.journal.record(
            event.at,
            TimelineKind::RawM1 {
                partition: event.partition.to_string(),
                node: event.node.to_string(),
                cost_per_tuple_ms: event.cost_per_tuple_ms,
                leaf_wait_ms: event.leaf_wait_ms,
                gate_fired: !matches!(output, DetectorOutput::Quiet),
            },
        );
        Self::notice(output, raw_seq)
    }

    /// A raw M2 reaches the detector.
    pub fn on_m2(&mut self, event: &M2) -> Option<Notice> {
        self.counts.raw_m2 += 1;
        let output = self.detector.on_m2(event);
        let raw_seq = self.journal.record(
            event.at,
            TimelineKind::RawM2 {
                producer: event.producer.to_string(),
                recipient: event.recipient.to_string(),
                cost_per_tuple_ms: event.cost_per_tuple_ms(),
                gate_fired: !matches!(output, DetectorOutput::Quiet),
            },
        );
        Self::notice(output, raw_seq)
    }

    fn notice(output: DetectorOutput, raw_seq: u64) -> Option<Notice> {
        match output {
            DetectorOutput::Quiet => None,
            output => Some(Notice { output, raw_seq }),
        }
    }

    /// The Responder's progress estimate from the producing evaluators'
    /// counts: a retrospective (R1) adaptation can still recall queued
    /// tuples, so it reads the *processed* fraction; a prospective (R2)
    /// one only affects tuples not yet routed, so it reads the routed
    /// fraction. Replayed and resent tuples can push a count past the
    /// total; like the paper's estimator this is a heuristic, so it is
    /// clamped rather than tracked by identity.
    pub fn progress(&self, processed: u64, routed: u64, total: u64) -> f64 {
        if total == 0 {
            return 1.0;
        }
        let done = match self.response {
            ResponsePolicy::R1 => processed,
            ResponsePolicy::R2 => routed,
        };
        cast::ratio(done, total).min(1.0)
    }

    /// A notice reaches the Diagnoser at `now`, with the progress reading
    /// the Responder would take. Returns the accepted proposal, if any;
    /// accepting already makes `W'` the Diagnoser's current distribution.
    pub fn on_notice(&mut self, notice: Notice, now: SimTime, progress: f64) -> Option<Accepted> {
        let (imbalance, notify_seq) = match &notice.output {
            DetectorOutput::Quiet => return None,
            DetectorOutput::Cost(update) => {
                self.counts.notifications += 1;
                let notify_seq = self.journal.record(
                    update.at,
                    TimelineKind::DetectorNotify {
                        scope: update.partition.to_string(),
                        avg_cost_ms: update.avg_cost_ms,
                        window_len: update.window_len,
                        raw_seq: notice.raw_seq,
                    },
                );
                (self.diagnoser.on_cost_update(update)?, notify_seq)
            }
            DetectorOutput::Comm(update) => {
                self.counts.notifications += 1;
                let notify_seq = self.journal.record(
                    update.at,
                    TimelineKind::DetectorNotify {
                        scope: format!("{}->{}", update.producer, update.recipient),
                        avg_cost_ms: update.avg_cost_per_tuple_ms,
                        window_len: update.window_len,
                        raw_seq: notice.raw_seq,
                    },
                );
                (self.diagnoser.on_comm_update(update)?, notify_seq)
            }
        };
        self.counts.diagnoses += 1;
        let diagnosis_seq = self.journal.record(
            imbalance.at,
            TimelineKind::Diagnosis {
                stage: imbalance.stage.to_string(),
                proposed: imbalance.proposed.weights().to_vec(),
                costs: imbalance.costs.clone(),
                notify_seq,
            },
        );
        let (decision, command) = self.responder.on_imbalance(&imbalance, progress);
        match decision {
            ResponderDecision::Accepted => {}
            ResponderDecision::NearCompletion => self.counts.declined_near_completion += 1,
            ResponderDecision::CoolingDown => self.counts.declined_cooldown += 1,
        }
        self.journal.record(
            now,
            TimelineKind::ResponderDecision {
                decision: decision.as_str().to_string(),
                progress,
                diagnosis_seq,
            },
        );
        let command = command?;
        self.diagnoser
            .set_distribution(command.new_distribution.clone());
        Some(Accepted {
            command,
            diagnosis_seq,
            costs: imbalance.costs,
        })
    }

    /// What deploying `accepted` puts into the router: its `W'` with every
    /// dead partition's weight zeroed (a diagnosis computed from
    /// pre-failure observations may still weight one). Becomes the
    /// Diagnoser's current distribution. `None` when no live partition
    /// keeps any weight: nothing sane can be deployed.
    pub fn target(&mut self, accepted: &Accepted) -> Option<DistributionVector> {
        let mut target = accepted.command.new_distribution.clone();
        let weights = target.weights();
        let dead = self.diagnoser.dead();
        if weights.iter().zip(dead).any(|(&w, &dead)| dead && w > 0.0) {
            let live: Vec<f64> = weights
                .iter()
                .zip(dead)
                .map(|(&w, &dead)| if dead { 0.0 } else { w })
                .collect();
            target = DistributionVector::new(&live).ok()?;
        }
        self.diagnoser.set_distribution(target.clone());
        Some(target)
    }

    /// The driver swapped `target` into the router at `at`: records the
    /// [`TimelineKind::Deploy`] and returns its sequence number.
    pub fn deployed(
        &mut self,
        accepted: &Accepted,
        target: &DistributionVector,
        at: SimTime,
    ) -> u64 {
        self.counts.deploys += 1;
        self.journal.record(
            at,
            TimelineKind::Deploy {
                stage: accepted.command.stage.to_string(),
                weights: target.weights().to_vec(),
                retrospective: accepted.command.retrospective,
                diagnosis_seq: accepted.diagnosis_seq,
            },
        )
    }

    /// The substrate finished applying deploy `deploy_seq` at `at`, any
    /// recall included: the cooldown runs from here.
    pub fn acknowledged(&mut self, deploy_seq: u64, at: SimTime) {
        self.journal
            .record(at, TimelineKind::DeployAck { deploy_seq });
        self.responder.on_deploy_acknowledged(at);
    }

    /// The partitions at `indices` (all on one node) died at `at`. The
    /// Responder accepts the failover unconditionally and restarts its
    /// cooldown; the detector forgets the dead partitions' streams, which
    /// will never report again; the Diagnoser drops their costs and
    /// assesses the survivors alone, so a proposal never weights a dead
    /// partition and the `thres_a` test compares the vector that would
    /// be deployed. [`Self::target`] still clamps a proposal accepted
    /// before the death. Returns one [`TimelineKind::NodeDown`] sequence
    /// number per partition.
    pub fn node_down(&mut self, indices: &[u32], at: SimTime) -> Vec<u64> {
        self.responder.on_node_failure(at);
        let mut down = Vec::with_capacity(indices.len());
        for &index in indices {
            let partition = PartitionId::new(self.stage, index);
            self.counts.node_downs += 1;
            self.diagnoser.retire_partition(index);
            self.detector.retire_partition(self.query, partition);
            down.push(self.journal.record(
                at,
                TimelineKind::NodeDown {
                    partition: partition.to_string(),
                },
            ));
        }
        down
    }

    /// The failover for dead partition `index` (announced as `down_seq`)
    /// deployed `weights` and replayed `replayed` recovery-log entries,
    /// finishing at `at`.
    pub fn failed_over(
        &mut self,
        index: u32,
        down_seq: u64,
        replayed: u64,
        weights: DistributionVector,
        at: SimTime,
    ) {
        self.counts.failovers += 1;
        self.counts.replayed += replayed;
        self.journal.record(
            at,
            TimelineKind::Failover {
                partition: PartitionId::new(self.stage, index).to_string(),
                replayed,
                weights: weights.weights().to_vec(),
                down_seq,
            },
        );
        self.diagnoser.set_distribution(weights);
        self.responder.on_deploy_acknowledged(at);
    }

    /// Query teardown: surfaces how much per-stream state the loop
    /// accumulated (`adapt.tracked_streams_at_teardown`), evicts it, and
    /// surfaces what is left (`adapt.tracked_streams_after_teardown`,
    /// which the chaos oracles hold at zero even after a node crash).
    pub fn teardown(&mut self) {
        let tracked = self.detector.tracked_streams() + self.diagnoser.tracked_cost_entries();
        self.detector.reset_for_query(self.query);
        self.diagnoser.reset_for_query();
        let after = self.detector.tracked_streams() + self.diagnoser.tracked_cost_entries();
        debug_assert_eq!(after, 0);
        self.sink.set_gauge(
            "adapt.tracked_streams_at_teardown",
            cast::usize_to_f64(tracked),
        );
        self.sink.set_gauge(
            "adapt.tracked_streams_after_teardown",
            cast::usize_to_f64(after),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AssessmentPolicy, COOLDOWN_MS};
    use crate::notifications::ProducerId;
    use gridq_common::obs::NullSink;
    use gridq_common::sync::Mutex;
    use gridq_common::NodeId;

    /// A journal that keeps every record, to count them.
    #[derive(Debug, Default)]
    struct Tape(Mutex<Vec<TimelineKind>>);

    impl Journal for Tape {
        fn record(&self, _at: SimTime, kind: TimelineKind) -> u64 {
            let mut tape = self.0.lock();
            tape.push(kind);
            tape.len() as u64
        }
    }

    impl Tape {
        fn count(&self, of: fn(&TimelineKind) -> bool) -> u64 {
            self.0.lock().iter().filter(|k| of(k)).count() as u64
        }
    }

    /// A taped A1/R1 loop over `partitions` whose detector window is one
    /// sample, so each M1 reports its cost as is.
    fn taped(partitions: usize) -> (ControlLoop, Arc<Tape>) {
        let tape = Arc::new(Tape::default());
        let config = AdaptivityConfig {
            detector_window: 1,
            ..AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1)
        };
        let control = ControlLoop::new(
            QueryId::new(0),
            SubplanId::new(1),
            DistributionVector::uniform(partitions),
            &config,
            Arc::clone(&tape) as Arc<dyn Journal>,
            Arc::new(NullSink),
        );
        (control, tape)
    }

    /// Partition `index` reports `cost` at `at_ms`; a notice reaches the
    /// Diagnoser at once, early in the query. Returns what was accepted.
    fn report(c: &mut ControlLoop, index: u32, cost: f64, at_ms: f64) -> Option<Accepted> {
        let at = SimTime::from_millis(at_ms);
        let notice = c.on_m1(&M1 {
            query: QueryId::new(0),
            partition: PartitionId::new(SubplanId::new(1), index),
            node: NodeId::new(index + 1),
            cost_per_tuple_ms: cost,
            leaf_wait_ms: 0.0,
            selectivity: 1.0,
            tuples_produced: 1,
            at,
        })?;
        c.on_notice(notice, at, 0.1)
    }

    /// Deploys `accepted` the way a driver does, acknowledging at once.
    fn deploy(c: &mut ControlLoop, accepted: &Accepted, at_ms: f64) {
        let at = SimTime::from_millis(at_ms);
        let target = c.target(accepted).unwrap();
        let seq = c.deployed(accepted, &target, at);
        c.acknowledged(seq, at);
    }

    fn control(response: ResponsePolicy) -> ControlLoop {
        ControlLoop::new(
            QueryId::new(0),
            SubplanId::new(1),
            DistributionVector::uniform(3),
            &AdaptivityConfig::with_policies(AssessmentPolicy::A1, response),
            Arc::new(NullSink),
            Arc::new(NullSink),
        )
    }

    fn proposal(weights: &[f64]) -> Accepted {
        Accepted::scripted(AdaptationCommand {
            stage: SubplanId::new(1),
            new_distribution: DistributionVector::new(weights).unwrap(),
            retrospective: true,
            at: SimTime::ZERO,
        })
    }

    #[test]
    fn a_dead_partition_never_regains_weight() {
        let mut c = control(ResponsePolicy::R1);
        let live = c.target(&proposal(&[0.2, 0.3, 0.5])).unwrap();
        assert_eq!(live.weights(), &[0.2, 0.3, 0.5], "nothing dead: verbatim");
        c.node_down(&[2], SimTime::from_millis(5.0));
        assert_eq!(c.dead(), &[false, false, true]);
        let clamped = c.target(&proposal(&[0.2, 0.3, 0.5])).unwrap();
        assert!((clamped.weights()[0] - 0.4).abs() < 1e-12);
        assert!((clamped.weights()[1] - 0.6).abs() < 1e-12);
        assert!(clamped.weights()[2].abs() < f64::EPSILON);
        c.node_down(&[0, 1], SimTime::from_millis(6.0));
        assert_eq!(
            c.target(&proposal(&[0.2, 0.3, 0.5])),
            None,
            "no live weight"
        );
    }

    /// After a death the survivors' costs imply the W already in force:
    /// no diagnosis, so no deploy (under R1 that deploy would be a full
    /// recall that moves nothing).
    #[test]
    fn after_a_death_the_survivors_costs_deploy_nothing() {
        let (mut c, tape) = taped(2);
        assert!(report(&mut c, 0, 1.0, 1.0).is_none());
        assert!(report(&mut c, 1, 1.0, 1.0).is_none(), "balanced");
        let down = c.node_down(&[0], SimTime::from_millis(10.0));
        let only_survivor = DistributionVector::new(&[0.0, 1.0]).unwrap();
        c.failed_over(0, down[0], 0, only_survivor, SimTime::from_millis(10.0));
        // Well past the cooldown, the survivor reports a new cost: the
        // vector it implies is the one in force.
        let later = 10.0 + 2.0 * COOLDOWN_MS;
        assert_eq!(report(&mut c, 1, 2.0, later), None);
        assert_eq!(report(&mut c, 1, 5.0, later + 1.0), None);
        assert_eq!(c.counts().notifications, 4, "each report reached it");
        assert_eq!(c.counts().diagnoses, 0);
        assert_eq!(tape.count(|k| matches!(k, TimelineKind::Deploy { .. })), 0);
    }

    /// Every count the loop hands a report is the number of one kind of
    /// record in its journal.
    #[test]
    fn each_count_is_the_number_of_its_records() {
        let (mut c, tape) = taped(3);
        for index in 0..3 {
            assert!(report(&mut c, index, 1.0, 1.0).is_none());
        }
        let accepted = report(&mut c, 2, 4.0, 2.0).expect("p2 slowed: rebalance");
        deploy(&mut c, &accepted, 2.0);
        assert!(
            report(&mut c, 2, 8.0, 10.0).is_none(),
            "declined: cooling down"
        );
        // A raw M2 notifies too; A1 assesses no communication cost.
        let notice = c.on_m2(&M2 {
            query: QueryId::new(0),
            producer: ProducerId::Source(0),
            recipient: PartitionId::new(SubplanId::new(1), 0),
            send_cost_ms: 3.0,
            tuples_in_buffer: 3,
            at: SimTime::from_millis(11.0),
        });
        assert!(c
            .on_notice(notice.unwrap(), SimTime::from_millis(11.0), 0.1)
            .is_none());
        let down = c.node_down(&[2], SimTime::from_millis(20.0));
        let survivors = DistributionVector::new(&[0.5, 0.5, 0.0]).unwrap();
        c.failed_over(2, down[0], 7, survivors, SimTime::from_millis(20.0));

        let counts = c.counts();
        let records = |of: fn(&TimelineKind) -> bool| tape.count(of);
        assert_eq!(
            counts.raw_m1,
            records(|k| matches!(k, TimelineKind::RawM1 { .. }))
        );
        assert_eq!(
            counts.raw_m2,
            records(|k| matches!(k, TimelineKind::RawM2 { .. }))
        );
        assert_eq!(
            counts.notifications,
            records(|k| matches!(k, TimelineKind::DetectorNotify { .. }))
        );
        assert_eq!(
            counts.diagnoses,
            records(|k| matches!(k, TimelineKind::Diagnosis { .. }))
        );
        assert_eq!(
            counts.deploys,
            records(|k| matches!(k, TimelineKind::Deploy { .. }))
        );
        assert_eq!(
            counts.node_downs,
            records(|k| matches!(k, TimelineKind::NodeDown { .. }))
        );
        assert_eq!(
            counts.failovers,
            records(|k| matches!(k, TimelineKind::Failover { .. }))
        );
        assert_eq!(
            counts.declined_cooldown + counts.declined_near_completion,
            records(|k| matches!(
                k,
                TimelineKind::ResponderDecision { decision, .. } if decision != "accepted"
            ))
        );
        assert_eq!(
            counts,
            LoopCounts {
                raw_m1: 5,
                raw_m2: 1,
                notifications: 6,
                diagnoses: 2,
                declined_near_completion: 0,
                declined_cooldown: 1,
                deploys: 1,
                node_downs: 1,
                failovers: 1,
                replayed: 7,
            }
        );
    }

    #[test]
    fn progress_reads_processed_under_r1_and_routed_under_r2() {
        let (r1, r2) = (control(ResponsePolicy::R1), control(ResponsePolicy::R2));
        assert!((r1.progress(30, 90, 100) - 0.3).abs() < 1e-12);
        assert!((r2.progress(30, 90, 100) - 0.9).abs() < 1e-12);
        // Replayed tuples can overcount; nothing to route is complete.
        assert!((r1.progress(130, 0, 100) - 1.0).abs() < f64::EPSILON);
        assert!((r2.progress(0, 0, 0) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn the_costliest_partition_is_the_attributed_one() {
        let mut accepted = proposal(&[0.5, 0.5]);
        assert_eq!(accepted.costliest(), None, "a script has no costs");
        accepted.costs = vec![1.0, 7.5, 2.0];
        assert_eq!(accepted.costliest(), Some(1));
    }
}
