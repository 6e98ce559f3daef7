//! The MonitoringEventDetector.
//!
//! "The MonitoringEventDetector component collects such information and
//! acts as a source of notifications on the dynamic behaviour of
//! distributed resources and of query execution": it groups M1 events by
//! the generating operator and M2 events by the (producer, recipient)
//! pair, computes a running average over a window of fixed length
//! discarding the minimum and maximum values, and emits a notification to
//! subscribed Diagnosers only when that average changes by more than
//! [`THRES_M`].

use std::collections::HashMap;
use std::sync::Arc;

use gridq_common::obs::{MetricSink, NullSink};
use gridq_common::stats::ChangeDetector;
use gridq_common::{PartitionId, QueryId, SimTime, TrimmedWindow};

use crate::config::{AdaptivityConfig, THRES_M};
use crate::notifications::{ProducerId, M1, M2};

/// A filtered cost notification sent to the Diagnoser: the windowed
/// per-tuple processing cost of one subplan partition changed
/// significantly.
#[derive(Debug, Clone, PartialEq)]
pub struct CostUpdate {
    /// The partition whose cost changed.
    pub partition: PartitionId,
    /// Trimmed windowed average processing cost per tuple, milliseconds.
    pub avg_cost_ms: f64,
    /// Trimmed windowed average leaf wait per tuple, milliseconds.
    pub avg_wait_ms: f64,
    /// Latest observed selectivity.
    pub selectivity: f64,
    /// Number of samples in the detector window at notify time.
    pub window_len: usize,
    /// Time of the triggering raw event.
    pub at: SimTime,
}

/// A filtered communication-cost notification: the windowed per-tuple
/// send cost on one producer→recipient stream changed significantly.
#[derive(Debug, Clone, PartialEq)]
pub struct CommUpdate {
    /// The sending producer.
    pub producer: ProducerId,
    /// The receiving partition.
    pub recipient: PartitionId,
    /// Trimmed windowed average send cost per tuple, milliseconds.
    pub avg_cost_per_tuple_ms: f64,
    /// Number of samples in the detector window at notify time.
    pub window_len: usize,
    /// Time of the triggering raw event.
    pub at: SimTime,
}

/// Output of feeding one raw event to the detector.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorOutput {
    /// Nothing crossed the threshold.
    Quiet,
    /// Notify the Diagnoser of a processing-cost change.
    Cost(CostUpdate),
    /// Notify the Diagnoser of a communication-cost change.
    Comm(CommUpdate),
}

#[derive(Debug)]
struct Tracked {
    window: TrimmedWindow,
    gate: ChangeDetector,
    wait_window: TrimmedWindow,
}

/// Groups and filters raw monitoring events. One detector instance runs
/// on each node hosting a monitored subplan (grouping keys keep streams
/// from different partitions — and different queries — separate even
/// when co-hosted, so a service plane can share one detector across
/// concurrent queries without cross-talk).
#[derive(Debug)]
pub struct MonitoringEventDetector {
    window_len: usize,
    m1: HashMap<(QueryId, PartitionId), Tracked>,
    m2: HashMap<(QueryId, ProducerId, PartitionId), Tracked>,
    sink: Arc<dyn MetricSink>,
    /// Raw events received.
    pub raw_events_seen: u64,
    /// Notifications emitted to Diagnosers.
    pub notifications_sent: u64,
    /// Non-finite cost samples rejected instead of entering a window.
    pub rejected_samples: u64,
}

impl MonitoringEventDetector {
    /// Creates a detector with the configured window.
    pub fn new(config: &AdaptivityConfig) -> Self {
        MonitoringEventDetector {
            window_len: config.detector_window,
            m1: HashMap::new(),
            m2: HashMap::new(),
            sink: Arc::new(NullSink),
            raw_events_seen: 0,
            notifications_sent: 0,
            rejected_samples: 0,
        }
    }

    /// Attaches a metrics sink; `NullSink` is used until one is set.
    pub fn set_metric_sink(&mut self, sink: Arc<dyn MetricSink>) {
        self.sink = sink;
    }

    fn tracked<K: std::hash::Hash + Eq + Copy>(
        map: &mut HashMap<K, Tracked>,
        key: K,
        window_len: usize,
    ) -> &mut Tracked {
        map.entry(key).or_insert_with(|| Tracked {
            window: TrimmedWindow::new(window_len),
            gate: ChangeDetector::new(THRES_M),
            wait_window: TrimmedWindow::new(window_len),
        })
    }

    fn reject(&mut self) {
        self.rejected_samples += 1;
        self.sink.incr("detector.rejected_samples", 1);
    }

    /// Feeds an M1 event.
    pub fn on_m1(&mut self, event: &M1) -> DetectorOutput {
        self.raw_events_seen += 1;
        self.sink.incr("detector.raw_events", 1);
        let key = (event.query, event.partition);
        let tracked = Self::tracked(&mut self.m1, key, self.window_len);
        let cost_ok = tracked.window.push(event.cost_per_tuple_ms);
        let wait_ok = tracked.wait_window.push(event.leaf_wait_ms);
        if !cost_ok {
            self.reject();
        }
        if !wait_ok {
            self.reject();
        }
        // The window can be empty here: if every sample so far was
        // non-finite, nothing was stored. Staying Quiet (rather than
        // panicking or poisoning the gate) is the whole point of
        // rejecting such samples.
        let Some(tracked) = self.m1.get_mut(&key) else {
            return DetectorOutput::Quiet;
        };
        let Some(avg) = tracked.window.trimmed_mean() else {
            return DetectorOutput::Quiet;
        };
        self.sink.observe("detector.m1_avg_cost_ms", avg);
        if tracked.gate.observe(avg) {
            let window_len = tracked.window.len();
            let avg_wait_ms = tracked.wait_window.trimmed_mean().unwrap_or(0.0);
            self.notifications_sent += 1;
            self.sink.incr("detector.notifications", 1);
            DetectorOutput::Cost(CostUpdate {
                partition: event.partition,
                avg_cost_ms: avg,
                avg_wait_ms,
                selectivity: event.selectivity,
                window_len,
                at: event.at,
            })
        } else {
            DetectorOutput::Quiet
        }
    }

    /// Feeds an M2 event.
    pub fn on_m2(&mut self, event: &M2) -> DetectorOutput {
        self.raw_events_seen += 1;
        self.sink.incr("detector.raw_events", 1);
        let key = (event.query, event.producer, event.recipient);
        let tracked = Self::tracked(&mut self.m2, key, self.window_len);
        if !tracked.window.push(event.cost_per_tuple_ms()) {
            self.reject();
        }
        let Some(tracked) = self.m2.get_mut(&key) else {
            return DetectorOutput::Quiet;
        };
        let Some(avg) = tracked.window.trimmed_mean() else {
            return DetectorOutput::Quiet;
        };
        self.sink.observe("detector.m2_avg_cost_ms", avg);
        if tracked.gate.observe(avg) {
            let window_len = tracked.window.len();
            self.notifications_sent += 1;
            self.sink.incr("detector.notifications", 1);
            DetectorOutput::Comm(CommUpdate {
                producer: event.producer,
                recipient: event.recipient,
                avg_cost_per_tuple_ms: avg,
                window_len,
                at: event.at,
            })
        } else {
            DetectorOutput::Quiet
        }
    }

    /// Number of monitored streams currently tracked (M1 partitions plus
    /// M2 producer→recipient pairs).
    pub fn tracked_streams(&self) -> usize {
        self.m1.len() + self.m2.len()
    }

    /// Drops all window/gate state for one of `query`'s partitions: its
    /// M1 stream and every M2 stream delivering to it. Call when a
    /// partition is retired (e.g. its node failed) so detector state
    /// cannot grow without bound across a long-running session. Streams
    /// belonging to other queries are untouched.
    pub fn retire_partition(&mut self, query: QueryId, partition: PartitionId) {
        self.m1.remove(&(query, partition));
        self.m2
            .retain(|(q, _, recipient), _| *q != query || *recipient != partition);
    }

    /// Drops every stream tracked for `query`. Call at that query's
    /// teardown; counters and co-resident queries' streams are
    /// preserved. (A global clear here was the service-plane footgun:
    /// one query's teardown must never evict another's windows.)
    pub fn reset_for_query(&mut self, query: QueryId) {
        self.m1.retain(|(q, _), _| *q != query);
        self.m2.retain(|(q, _, _), _| *q != query);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::{NodeId, QueryId, SubplanId};

    fn config() -> AdaptivityConfig {
        AdaptivityConfig::default()
    }

    fn m1(partition_index: u32, cost: f64, at_ms: f64) -> M1 {
        M1 {
            query: QueryId::new(0),
            partition: PartitionId::new(SubplanId::new(1), partition_index),
            node: NodeId::new(partition_index + 1),
            cost_per_tuple_ms: cost,
            leaf_wait_ms: 0.1,
            selectivity: 1.0,
            tuples_produced: 10,
            at: SimTime::from_millis(at_ms),
        }
    }

    fn m2(recipient_index: u32, cost: f64, tuples: usize) -> M2 {
        M2 {
            query: QueryId::new(0),
            producer: ProducerId::Source(0),
            recipient: PartitionId::new(SubplanId::new(1), recipient_index),
            send_cost_ms: cost,
            tuples_in_buffer: tuples,
            at: SimTime::ZERO,
        }
    }

    #[test]
    fn first_event_always_notifies() {
        let mut d = MonitoringEventDetector::new(&config());
        assert!(matches!(d.on_m1(&m1(0, 2.0, 0.0)), DetectorOutput::Cost(_)));
        assert_eq!(d.notifications_sent, 1);
    }

    #[test]
    fn stable_costs_stay_quiet() {
        let mut d = MonitoringEventDetector::new(&config());
        let _ = d.on_m1(&m1(0, 2.0, 0.0));
        for i in 1..50 {
            // ±5% jitter — under the 20% threshold.
            let cost = 2.0 * (1.0 + if i % 2 == 0 { 0.05 } else { -0.05 });
            assert_eq!(d.on_m1(&m1(0, cost, i as f64)), DetectorOutput::Quiet);
        }
        assert_eq!(d.notifications_sent, 1);
        assert_eq!(d.raw_events_seen, 50);
    }

    #[test]
    fn sustained_change_notifies() {
        // The cost steps from 2.0 to `2.0 * factor` and stays there; the
        // windowed average needs a few samples to follow, and the gate
        // fires once it has moved by more than THRES_M — a 10x jump and a
        // 21 % shift do, a 19 % shift never does.
        for (factor, fires) in [
            (10.0, true),
            (1.0 + THRES_M + 0.01, true),
            (1.0 + THRES_M - 0.01, false),
        ] {
            let mut d = MonitoringEventDetector::new(&config());
            let _ = d.on_m1(&m1(0, 2.0, 0.0));
            let fired_at = (1..60).find_map(|i| match d.on_m1(&m1(0, 2.0 * factor, i as f64)) {
                DetectorOutput::Cost(u) => Some((i, u.avg_cost_ms)),
                _ => None,
            });
            if !fires {
                assert_eq!(fired_at, None, "a {factor}x shift is under the gate");
                continue;
            }
            let (i, avg) =
                fired_at.unwrap_or_else(|| panic!("detector must notice a {factor}x change"));
            assert!(i <= 3, "should fire within a few samples, fired at {i}");
            assert!(
                avg > 2.0 * (1.0 + THRES_M),
                "reported average {avg} must reflect the jump"
            );
        }
    }

    #[test]
    fn outlier_spike_is_discarded_by_trimming() {
        let mut d = MonitoringEventDetector::new(&config());
        let _ = d.on_m1(&m1(0, 2.0, 0.0));
        // Fill the window with stable samples.
        for i in 1..20 {
            let _ = d.on_m1(&m1(0, 2.0, i as f64));
        }
        let before = d.notifications_sent;
        // One enormous spike: the trimmed mean discards the max, so no
        // notification fires.
        assert_eq!(d.on_m1(&m1(0, 200.0, 20.0)), DetectorOutput::Quiet);
        assert_eq!(d.notifications_sent, before);
    }

    #[test]
    fn partitions_are_tracked_independently() {
        let mut d = MonitoringEventDetector::new(&config());
        assert!(matches!(d.on_m1(&m1(0, 2.0, 0.0)), DetectorOutput::Cost(_)));
        // A different partition gets its own window and fires its own
        // first notification.
        assert!(matches!(d.on_m1(&m1(1, 2.0, 0.0)), DetectorOutput::Cost(_)));
    }

    #[test]
    fn m2_streams_grouped_by_producer_recipient() {
        let mut d = MonitoringEventDetector::new(&config());
        assert!(matches!(d.on_m2(&m2(0, 5.0, 50)), DetectorOutput::Comm(_)));
        assert!(matches!(d.on_m2(&m2(1, 5.0, 50)), DetectorOutput::Comm(_)));
        // Stable costs on an existing stream stay quiet.
        assert_eq!(d.on_m2(&m2(0, 5.0, 50)), DetectorOutput::Quiet);
    }

    #[test]
    fn m2_reports_per_tuple_cost() {
        let mut d = MonitoringEventDetector::new(&config());
        if let DetectorOutput::Comm(u) = d.on_m2(&m2(0, 10.0, 100)) {
            assert!((u.avg_cost_per_tuple_ms - 0.1).abs() < 1e-12);
            assert_eq!(u.window_len, 1);
        } else {
            panic!("first M2 must notify");
        }
    }

    #[test]
    fn non_finite_first_sample_stays_quiet_instead_of_panicking() {
        // Regression: a NaN cost on a *new* stream used to panic on
        // `trimmed_mean().expect(...)` because the rejected sample left
        // the window empty.
        let mut d = MonitoringEventDetector::new(&config());
        assert_eq!(d.on_m1(&m1(0, f64::NAN, 0.0)), DetectorOutput::Quiet);
        assert_eq!(d.rejected_samples, 1);
        assert_eq!(d.notifications_sent, 0);
        // The first finite sample then notifies as usual.
        assert!(matches!(d.on_m1(&m1(0, 2.0, 1.0)), DetectorOutput::Cost(_)));
        // Same for M2.
        let mut d = MonitoringEventDetector::new(&config());
        assert_eq!(d.on_m2(&m2(0, f64::NAN, 10)), DetectorOutput::Quiet);
        assert!(matches!(d.on_m2(&m2(0, 5.0, 10)), DetectorOutput::Comm(_)));
    }

    #[test]
    fn non_finite_samples_do_not_silence_an_established_stream() {
        // Regression: a burst of NaN costs used to enter the window,
        // poison the trimmed mean, and (worse) become the gate baseline —
        // after which no finite change ever fired again.
        let mut d = MonitoringEventDetector::new(&config());
        let _ = d.on_m1(&m1(0, 2.0, 0.0));
        for i in 1..30 {
            assert_eq!(
                d.on_m1(&m1(0, f64::NAN, i as f64)),
                DetectorOutput::Quiet,
                "NaN samples must not notify"
            );
        }
        assert_eq!(d.rejected_samples, 29);
        // A genuine 10x shift is still detected afterwards.
        let mut fired = false;
        for i in 30..60 {
            if matches!(d.on_m1(&m1(0, 20.0, i as f64)), DetectorOutput::Cost(_)) {
                fired = true;
                break;
            }
        }
        assert!(fired, "detector must recover after a NaN burst");
    }

    #[test]
    fn retire_and_reset_evict_tracked_state() {
        let mut d = MonitoringEventDetector::new(&config());
        let _ = d.on_m1(&m1(0, 2.0, 0.0));
        let _ = d.on_m1(&m1(1, 2.0, 0.0));
        let _ = d.on_m2(&m2(0, 5.0, 10));
        let _ = d.on_m2(&m2(1, 5.0, 10));
        assert_eq!(d.tracked_streams(), 4);
        // Retiring partition 0 drops its M1 stream and the M2 stream
        // delivering to it.
        d.retire_partition(QueryId::new(0), PartitionId::new(SubplanId::new(1), 0));
        assert_eq!(d.tracked_streams(), 2);
        d.reset_for_query(QueryId::new(0));
        assert_eq!(d.tracked_streams(), 0);
        // Counters survive for reporting.
        assert_eq!(d.raw_events_seen, 4);
    }

    fn m1_for(query: u32, partition_index: u32, cost: f64, at_ms: f64) -> M1 {
        let mut e = m1(partition_index, cost, at_ms);
        e.query = QueryId::new(query);
        e
    }

    #[test]
    fn queries_are_tracked_independently() {
        // Two queries sharing a detector each get their own window and
        // gate, even for the same partition index.
        let mut d = MonitoringEventDetector::new(&config());
        assert!(matches!(
            d.on_m1(&m1_for(1, 0, 2.0, 0.0)),
            DetectorOutput::Cost(_)
        ));
        assert!(matches!(
            d.on_m1(&m1_for(2, 0, 2.0, 0.0)),
            DetectorOutput::Cost(_)
        ));
        assert_eq!(d.tracked_streams(), 2);
        // Retiring query 1's partition leaves query 2's stream tracked.
        d.retire_partition(QueryId::new(1), PartitionId::new(SubplanId::new(1), 0));
        assert_eq!(d.tracked_streams(), 1);
    }

    #[test]
    fn teardown_of_one_query_leaves_the_other_adapting() {
        // Regression for the service-plane footgun: two interleaved
        // queries; tearing the first down must not evict the second's
        // detector windows, and the second must still notice a sustained
        // cost shift afterwards.
        let mut d = MonitoringEventDetector::new(&config());
        for i in 0..10 {
            let _ = d.on_m1(&m1_for(1, 0, 2.0, i as f64));
            let _ = d.on_m1(&m1_for(2, 0, 2.0, i as f64));
            let mut e2 = m2(0, 5.0, 10);
            e2.query = QueryId::new(2);
            let _ = d.on_m2(&e2);
        }
        assert_eq!(d.tracked_streams(), 3);
        // Query 1 finishes and tears down.
        d.reset_for_query(QueryId::new(1));
        assert_eq!(d.tracked_streams(), 2, "query 2's streams must survive");
        // Query 2's established baseline is intact: a stable sample stays
        // quiet (a fresh window would re-notify on first observation)...
        assert_eq!(d.on_m1(&m1_for(2, 0, 2.0, 10.0)), DetectorOutput::Quiet);
        // ...and a genuine 10x shift still fires.
        let mut fired = false;
        for i in 11..40 {
            if matches!(
                d.on_m1(&m1_for(2, 0, 20.0, i as f64)),
                DetectorOutput::Cost(_)
            ) {
                fired = true;
                break;
            }
        }
        assert!(fired, "query 2 must keep adapting after query 1 teardown");
    }
}
