//! Replay: a recorded timeline fed back through a fresh [`ControlLoop`].
//!
//! A timeline holds every input the loop consumed: its
//! [`TimelineKind::LoopStart`] settings, each raw M1/M2 with its values,
//! the order in which notifications reached the Diagnoser (a
//! [`TimelineKind::DetectorNotify`] is recorded on arrival), the progress
//! reading on each [`TimelineKind::ResponderDecision`], each deploy and
//! the instant of its [`TimelineKind::DeployAck`], node deaths and
//! failovers. [`replay`] feeds those inputs to a new loop, in the
//! recorded order and at the recorded instants, and checks that the loop
//! writes every one of its records again — the same kind, fields and
//! model time, bit for bit. Whatever substrate recorded the run, its
//! control decisions thereby become a deterministic fixture.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use gridq_common::obs::{Journal, NullSink, TimelineKind};
use gridq_common::sync::Mutex;
use gridq_common::{DistributionVector, NodeId, PartitionId, QueryId, SimTime, SubplanId};

use crate::config::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use crate::control::{Accepted, ControlLoop, Notice};
use crate::notifications::{ProducerId, M1, M2};
use crate::responder::AdaptationCommand;

/// What a replay reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Replayed {
    /// Loop records written again, each equal to the recorded one.
    pub records: usize,
    /// Of those, deploys.
    pub deploys: usize,
}

/// Where a replay stopped reproducing the recording.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Sequence number of the first recorded event not reproduced
    /// (`u64::MAX`: the replay wrote past the end of the recording).
    pub seq: u64,
    /// What differed.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replay diverged at seq {}: {}", self.seq, self.detail)
    }
}

impl std::error::Error for Divergence {}

/// The records a replay checks: the loop's own. The drivers' (recall
/// start and finish, tenant attribution) are not its output.
fn loop_record(kind: &TimelineKind) -> bool {
    !matches!(
        kind,
        TimelineKind::RecallStart { .. }
            | TimelineKind::RecallFinish { .. }
            | TimelineKind::TenantRebalance { .. }
    )
}

/// The replaying loop's journal: each record it is handed must equal the
/// next recorded one, whose sequence number it answers with — so the
/// replayed records' causal links compare equal to the recorded ones.
#[derive(Debug)]
struct Playback {
    recorded: Mutex<VecDeque<(u64, f64, TimelineKind)>>,
    outcome: Mutex<Result<Replayed, Divergence>>,
}

impl Playback {
    fn next(&self) -> Option<(u64, f64, TimelineKind)> {
        self.recorded.lock().front().cloned()
    }

    fn diverge(&self, seq: u64, detail: String) {
        let mut outcome = self.outcome.lock();
        if outcome.is_ok() {
            *outcome = Err(Divergence { seq, detail });
        }
    }

    fn diverged(&self) -> bool {
        self.outcome.lock().is_err()
    }
}

impl Journal for Playback {
    fn record(&self, at: SimTime, kind: TimelineKind) -> u64 {
        let Some((seq, recorded_at, recorded)) = self.recorded.lock().pop_front() else {
            self.diverge(u64::MAX, format!("replay wrote {kind:?} past the end"));
            return u64::MAX;
        };
        if recorded != kind || recorded_at.to_bits() != at.as_millis().to_bits() {
            self.diverge(
                seq,
                format!(
                    "recorded {recorded:?} at {recorded_at} ms, replayed {kind:?} at {} ms",
                    at.as_millis()
                ),
            );
        } else if let Ok(done) = &mut *self.outcome.lock() {
            done.records += 1;
            done.deploys += usize::from(matches!(kind, TimelineKind::Deploy { .. }));
        }
        seq
    }
}

fn number(label: &str, prefix: &str) -> Option<u32> {
    label.strip_prefix(prefix)?.parse().ok()
}

fn partition(label: &str) -> Option<PartitionId> {
    let (stage, index) = label.split_once('.')?;
    Some(PartitionId::new(
        SubplanId::new(number(stage, "sp")?),
        index.parse().ok()?,
    ))
}

fn producer(label: &str) -> Option<ProducerId> {
    match number(label, "src") {
        Some(source) => Some(ProducerId::Source(source)),
        None => partition(label).map(ProducerId::Partition),
    }
}

/// The loop a [`TimelineKind::LoopStart`] describes.
fn start(kind: &TimelineKind, journal: Arc<Playback>) -> Option<(QueryId, SubplanId, ControlLoop)> {
    let TimelineKind::LoopStart {
        query,
        stage,
        initial,
        assessment,
        response,
        thres_a,
        detector_window,
        progress_cutoff,
    } = kind
    else {
        return None;
    };
    let config = AdaptivityConfig {
        assessment: match assessment.as_str() {
            "A1" => AssessmentPolicy::A1,
            "A2" => AssessmentPolicy::A2,
            _ => return None,
        },
        response: match response.as_str() {
            "R1" => ResponsePolicy::R1,
            "R2" => ResponsePolicy::R2,
            _ => return None,
        },
        thres_a: *thres_a,
        detector_window: *detector_window,
        progress_cutoff: *progress_cutoff,
        ..AdaptivityConfig::default()
    };
    let query = QueryId::new(number(query, "q")?);
    let stage = SubplanId::new(number(stage, "sp")?);
    let initial = DistributionVector::from_normalized(initial).ok()?;
    let control = ControlLoop::new(query, stage, initial, &config, journal, Arc::new(NullSink));
    Some((query, stage, control))
}

/// Feeds a recorded timeline — `(seq, at_ms, kind)` in sequence order,
/// nothing evicted — back through a fresh [`ControlLoop`], and checks
/// that the loop reproduces every one of its records.
pub fn replay<'a>(
    timeline: impl IntoIterator<Item = (u64, f64, &'a TimelineKind)>,
) -> Result<Replayed, Divergence> {
    let recorded: VecDeque<(u64, f64, TimelineKind)> = timeline
        .into_iter()
        .filter(|(_, _, kind)| loop_record(kind))
        .map(|(seq, at, kind)| (seq, at, kind.clone()))
        .collect();
    // The decision each notification led to, by the notification's seq:
    // the instant it was taken and the progress it read. And the
    // diagnoses a deploy was recorded for.
    let mut diagnosis_of = HashMap::new();
    let mut decision_on = HashMap::new();
    let mut deployed = HashSet::new();
    for (seq, at, kind) in &recorded {
        match kind {
            TimelineKind::Diagnosis { notify_seq, .. } => {
                diagnosis_of.insert(*notify_seq, *seq);
            }
            TimelineKind::ResponderDecision {
                progress,
                diagnosis_seq,
                ..
            } => {
                decision_on.insert(*diagnosis_seq, (*at, *progress));
            }
            TimelineKind::Deploy { diagnosis_seq, .. } => {
                deployed.insert(*diagnosis_seq);
            }
            _ => {}
        }
    }
    let Some((first, _, header)) = recorded.front().cloned() else {
        return Ok(Replayed::default());
    };
    let playback = Arc::new(Playback {
        recorded: Mutex::new(recorded),
        outcome: Mutex::new(Ok(Replayed::default())),
    });
    let unreadable = |seq: u64| Divergence {
        seq,
        detail: "a recorded label or setting does not parse".into(),
    };
    let (query, stage, mut control) =
        start(&header, Arc::clone(&playback)).ok_or_else(|| unreadable(first))?;
    let mut notices: HashMap<u64, Notice> = HashMap::new();
    let mut pending: HashMap<u64, Accepted> = HashMap::new();
    while let Some((seq, at_ms, kind)) = playback.next() {
        if playback.diverged() {
            break;
        }
        let at = SimTime::from_millis(at_ms);
        match kind {
            TimelineKind::RawM1 {
                partition: label,
                node,
                cost_per_tuple_ms,
                leaf_wait_ms,
                ..
            } => {
                let event = M1 {
                    query,
                    partition: partition(&label).ok_or_else(|| unreadable(seq))?,
                    node: NodeId::new(number(&node, "node").ok_or_else(|| unreadable(seq))?),
                    cost_per_tuple_ms,
                    leaf_wait_ms,
                    selectivity: 1.0,
                    tuples_produced: 0,
                    at,
                };
                if let Some(notice) = control.on_m1(&event) {
                    notices.insert(seq, notice);
                }
            }
            TimelineKind::RawM2 {
                producer: from,
                recipient,
                cost_per_tuple_ms,
                ..
            } => {
                // One tuple at the per-tuple cost: the detector reads
                // the same quotient, bit for bit.
                let event = M2 {
                    query,
                    producer: producer(&from).ok_or_else(|| unreadable(seq))?,
                    recipient: partition(&recipient).ok_or_else(|| unreadable(seq))?,
                    send_cost_ms: cost_per_tuple_ms,
                    tuples_in_buffer: 1,
                    at,
                };
                if let Some(notice) = control.on_m2(&event) {
                    notices.insert(seq, notice);
                }
            }
            TimelineKind::DetectorNotify { raw_seq, .. } => {
                let Some(notice) = notices.remove(&raw_seq) else {
                    return Err(Divergence {
                        seq,
                        detail: format!("the replayed detector raised no notice on seq {raw_seq}"),
                    });
                };
                let (now, progress) = diagnosis_of
                    .get(&seq)
                    .and_then(|d| decision_on.get(d))
                    .map_or((notice.at(), 0.0), |&(at, p)| (SimTime::from_millis(at), p));
                if let Some(accepted) = control.on_notice(notice, now, progress) {
                    if deployed.contains(&accepted.diagnosis_seq) {
                        pending.insert(accepted.diagnosis_seq, accepted);
                    } else {
                        // Accepted but never swapped in (an abandoned
                        // recall): the drivers still made it the
                        // Diagnoser's distribution at once.
                        control.target(&accepted);
                    }
                }
            }
            TimelineKind::Deploy {
                weights,
                retrospective,
                diagnosis_seq,
                ..
            } => {
                let accepted = match pending.remove(&diagnosis_seq) {
                    Some(accepted) => accepted,
                    None => Accepted::scripted(AdaptationCommand {
                        stage,
                        new_distribution: DistributionVector::from_normalized(&weights)
                            .map_err(|_| unreadable(seq))?,
                        retrospective,
                        at,
                    }),
                };
                let target = control.target(&accepted).ok_or_else(|| Divergence {
                    seq,
                    detail: "the replayed deploy keeps no live partition".into(),
                })?;
                control.deployed(&accepted, &target, at);
            }
            TimelineKind::DeployAck { deploy_seq } => control.acknowledged(deploy_seq, at),
            TimelineKind::NodeDown { partition: label } => {
                let index = partition(&label).ok_or_else(|| unreadable(seq))?.index;
                control.node_down(&[index], at);
            }
            TimelineKind::Failover {
                partition: label,
                replayed,
                weights,
                down_seq,
            } => {
                let index = partition(&label).ok_or_else(|| unreadable(seq))?.index;
                let weights =
                    DistributionVector::from_normalized(&weights).map_err(|_| unreadable(seq))?;
                control.failed_over(index, down_seq, replayed, weights, at);
            }
            other => {
                return Err(Divergence {
                    seq,
                    detail: format!("recorded {other:?}, which the replay did not write"),
                })
            }
        }
        if playback.next().is_some_and(|(next, _, _)| next == seq) {
            return Err(Divergence {
                seq,
                detail: "the replayed loop wrote nothing for this input".into(),
            });
        }
    }
    let outcome = playback.outcome.lock().clone();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m1(partition: u32, cost: f64, at_ms: f64) -> M1 {
        M1 {
            query: QueryId::new(3),
            partition: PartitionId::new(SubplanId::new(1), partition),
            node: NodeId::new(partition + 1),
            cost_per_tuple_ms: cost,
            leaf_wait_ms: 0.25,
            selectivity: 1.0,
            tuples_produced: 0,
            at: SimTime::from_millis(at_ms),
        }
    }

    /// A journal that keeps everything, as a timeline that evicts
    /// nothing does.
    #[derive(Debug, Default)]
    struct Keep(Mutex<Vec<(u64, f64, TimelineKind)>>);

    impl Journal for Keep {
        fn record(&self, at: SimTime, kind: TimelineKind) -> u64 {
            let mut all = self.0.lock();
            let seq = all.len() as u64;
            all.push((seq, at.as_millis(), kind));
            seq
        }
    }

    /// Drives a loop the way the simulator does — notices delivered
    /// late, a deploy applied later still, a node death and its failover
    /// in between — and replays what it recorded.
    fn recorded_run() -> Vec<(u64, f64, TimelineKind)> {
        let keep = Arc::new(Keep::default());
        let config = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1);
        let mut control = ControlLoop::new(
            QueryId::new(3),
            SubplanId::new(1),
            DistributionVector::uniform(3),
            &config,
            Arc::clone(&keep) as Arc<dyn Journal>,
            Arc::new(NullSink),
        );
        let mut notices = Vec::new();
        for i in 0..30 {
            let t = f64::from(i) * 10.0;
            for p in 0..3 {
                let cost = if p == 2 && i >= 10 { 10.0 } else { 1.0 };
                if let Some(n) = control.on_m1(&m1(p, cost, t + f64::from(p))) {
                    notices.push(n);
                }
            }
            // Deliveries lag by two rounds.
            while notices.len() > 2 {
                let n = notices.remove(0);
                let now = SimTime::from_millis(n.at().as_millis() + 20.0);
                if let Some(accepted) = control.on_notice(n, now, f64::from(i) / 40.0) {
                    let target = control.target(&accepted).unwrap();
                    let at = SimTime::from_millis(now.as_millis() + 3.0);
                    let seq = control.deployed(&accepted, &target, at);
                    control.acknowledged(seq, SimTime::from_millis(at.as_millis() + 5.0));
                }
            }
            if i == 20 {
                let at = SimTime::from_millis(t + 4.0);
                let down = control.node_down(&[1], at);
                let weights = DistributionVector::new(&[0.9, 0.0, 0.1]).unwrap();
                control.failed_over(1, down[0], 12, weights, at);
            }
        }
        let all = keep.0.lock().clone();
        all
    }

    #[test]
    fn a_recorded_loop_replays_to_the_same_records() {
        let recorded = recorded_run();
        let deploys = recorded
            .iter()
            .filter(|(_, _, k)| matches!(k, TimelineKind::Deploy { .. }))
            .count();
        assert!(deploys >= 1, "the fixture must deploy: {recorded:?}");
        let replayed = replay(recorded.iter().map(|(s, a, k)| (*s, *a, k))).unwrap();
        assert_eq!(replayed.records, recorded.len());
        assert_eq!(replayed.deploys, deploys);
    }

    #[test]
    fn a_tampered_recording_diverges_where_it_was_tampered() {
        let mut recorded = recorded_run();
        // A progress reading past the cut-off: the Responder would have
        // declined what the recording says it accepted.
        let (seq, _, kind) = recorded
            .iter_mut()
            .find(|(_, _, k)| matches!(k, TimelineKind::ResponderDecision { .. }))
            .unwrap();
        if let TimelineKind::ResponderDecision { progress, .. } = kind {
            *progress = 0.99;
        }
        let seq = *seq;
        let err = replay(recorded.iter().map(|(s, a, k)| (*s, *a, k))).unwrap_err();
        assert_eq!(err.seq, seq, "{err}");
    }

    #[test]
    fn labels_parse_back() {
        assert_eq!(
            partition("sp1.2"),
            Some(PartitionId::new(SubplanId::new(1), 2))
        );
        assert_eq!(producer("src3"), Some(ProducerId::Source(3)));
        assert_eq!(
            producer("sp2.0"),
            Some(ProducerId::Partition(PartitionId::new(
                SubplanId::new(2),
                0
            )))
        );
        assert_eq!(partition("node2"), None);
    }
}
