//! Monitoring stride-sampling guarantees on both substrates.
//!
//! The M1 sampling stride (`monitoring_interval_tuples`) must be a
//! property of the *tuple stream*, not of the transport framing: the
//! stride phase carries across exchange buffers / tuple blocks, so a
//! partition that processed `n` tuples at stride `k` emits exactly
//! `floor(n / k)` periodic M1 events (the threaded executor adds one
//! forced tail flush at end-of-stream so the last partial batch is not
//! lost). A stride that reset per block would emit *zero* periodic
//! events whenever the block size is below the interval — which is why
//! these tests pin a block size (7) strictly smaller than the stride
//! (10) and coprime to it.
//!
//! The second pair of tests pins the estimator itself: each partition's
//! mean M1 cost under stride sampling must match its mean under
//! exhaustive (stride-1) monitoring, on both substrates.
//!
//! The last pair pins the threaded *transport*: samples reach the
//! adaptation thread a block at a time while their number stays the
//! stride's, and the run-wide processed count, advanced at the same
//! hand-over, is whole at every teardown.

mod common;

use std::collections::BTreeMap;

use gridq::adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq::chaos::{Knobs, Substrate, Workload};
use gridq::common::NodeId;
use gridq::grid::Perturbation;
use gridq::obs::TimelineKind;
use gridq::workload::experiments::Q1Experiment;

const STRIDE: u32 = 10;

/// Q1 sized so every partition crosses several stride boundaries, with
/// an exchange buffer (7) smaller than and coprime to the stride (10);
/// `perturbed` runs node 2 four times slower.
fn q1(perturbed: bool) -> Workload {
    let w = Workload::q1(&Q1Experiment {
        tuples: 250,
        buffer_tuples: 7,
        ..Default::default()
    });
    if perturbed {
        w.perturbed(NodeId::new(2), Perturbation::CostFactor(4.0))
    } else {
        w
    }
}

/// A1/R2 sampling M1 every `interval` tuples.
fn knobs(interval: u32) -> Knobs {
    Knobs {
        adaptivity: AdaptivityConfig {
            monitoring_interval_tuples: interval,
            ..AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R2)
        },
        cost_scale: 0.002,
        ..Knobs::default()
    }
}

/// Mean M1 cost per partition, from the `RawM1` timeline events.
///
/// Compared per partition, never pooled: live A1/R2 deploys land at
/// wall-clock-dependent moments on the threaded substrate, so the
/// partition split differs between two runs, and a pooled mean follows
/// the split (node 2 costs 4x; a 30 % vs 40 % share there already moves
/// the pooled mean by ~15 %). The modelled cost per tuple does not depend
/// on how many tuples a partition got.
fn m1_mean_by_partition(obs: &gridq::obs::ObsReport) -> BTreeMap<String, f64> {
    assert_eq!(obs.dropped_events, 0, "the timeline kept every M1");
    let mut sums: BTreeMap<String, (f64, u32)> = BTreeMap::new();
    for event in &obs.events {
        if let TimelineKind::RawM1 {
            partition,
            cost_per_tuple_ms,
            ..
        } = &event.kind
        {
            let slot = sums.entry(partition.clone()).or_default();
            slot.0 += cost_per_tuple_ms;
            slot.1 += 1;
        }
    }
    sums.into_iter()
        .map(|(p, (sum, n))| (p, sum / f64::from(n)))
        .collect()
}

/// Every partition's sampled M1 mean must stay within 10 % of its
/// exhaustive (stride-1) mean.
fn assert_sampled_matches_exhaustive(
    exhaustive: &gridq::obs::ObsReport,
    sampled: &gridq::obs::ObsReport,
) {
    let e = m1_mean_by_partition(exhaustive);
    let s = m1_mean_by_partition(sampled);
    assert_eq!(e.len(), 2, "both partitions reported under stride 1: {e:?}");
    assert_eq!(
        e.keys().collect::<Vec<_>>(),
        s.keys().collect::<Vec<_>>(),
        "the same partitions reported under both strides"
    );
    for (partition, e_mean) in &e {
        let s_mean = s[partition];
        assert!(
            (s_mean - e_mean).abs() / e_mean < 0.10,
            "{partition}: sampled M1 mean {s_mean:.3} must stay within 10% of \
             exhaustive {e_mean:.3}"
        );
    }
}

#[test]
fn threaded_stride_phase_carries_across_blocks() {
    let report = q1(false).run_threaded(&knobs(STRIDE)).unwrap();
    assert_eq!(report.results.len(), 250);
    let stride = u64::from(STRIDE);
    // floor(n/k) periodic events per partition plus one forced tail
    // flush for a partial last batch: ceil(n/k) in total.
    let expected: u64 = report
        .per_partition_processed
        .iter()
        .map(|n| n.div_ceil(stride))
        .sum();
    assert_eq!(
        report.raw_m1_events, expected,
        "per-partition processed: {:?}",
        report.per_partition_processed
    );
    // The discriminator: blocks hold 7 tuples, the stride is 10. If the
    // stride phase reset at block boundaries no periodic M1 would ever
    // fire, leaving only the forced tails (one per partition).
    assert!(
        report.raw_m1_events > report.per_partition_processed.len() as u64,
        "periodic M1s must fire across block boundaries: {report:?}"
    );
}

#[test]
fn sim_stride_phase_carries_across_buffers() {
    let report = q1(false).simulate(&knobs(STRIDE)).unwrap();
    assert_eq!(report.results.len(), 250);
    let stride = u64::from(STRIDE);
    // The simulator emits periodic M1s only (no forced tail).
    let expected: u64 = report
        .per_partition_processed
        .iter()
        .map(|n| n / stride)
        .sum();
    assert_eq!(
        report.raw_m1_events, expected,
        "per-partition processed: {:?}",
        report.per_partition_processed
    );
    assert!(
        report.raw_m1_events > 0,
        "periodic M1s must fire across buffer boundaries: {report:?}"
    );
}

#[test]
fn threaded_sampled_m1_mean_matches_exhaustive() {
    // Node 2 runs 4x slower, so the two partitions' cost streams differ:
    // a biased sampler (one that over-weights short tail batches) would
    // drift from the exhaustive mean.
    let exhaustive = q1(true).run_threaded(&knobs(1)).unwrap();
    let sampled = q1(true).run_threaded(&knobs(STRIDE)).unwrap();
    assert_sampled_matches_exhaustive(
        exhaustive.obs.as_ref().expect("obs on by default"),
        sampled.obs.as_ref().expect("obs on by default"),
    );
}

#[test]
fn sim_sampled_m1_mean_matches_exhaustive() {
    let exhaustive = q1(true).simulate(&knobs(1)).unwrap();
    let sampled = q1(true).simulate(&knobs(STRIDE)).unwrap();
    assert_sampled_matches_exhaustive(
        exhaustive.obs.as_ref().expect("obs on by default"),
        sampled.obs.as_ref().expect("obs on by default"),
    );
}

#[test]
fn threaded_m1_hand_overs_are_per_block_and_samples_are_not() {
    const BLOCK: u64 = 100;
    let w = Workload::q1(&Q1Experiment {
        tuples: 3000,
        buffer_tuples: BLOCK as usize,
        ..Default::default()
    });
    let report = w.run_threaded(&knobs(STRIDE)).unwrap();
    let per_partition = &report.per_partition_processed;
    assert_eq!(per_partition.iter().sum::<u64>(), 3000);
    // Sampling is untouched by the transport: floor(n/k) periodic
    // samples and the forced tail, per partition.
    let samples: u64 = per_partition
        .iter()
        .map(|n| n.div_ceil(u64::from(STRIDE)))
        .sum();
    assert_eq!(report.raw_m1_events, samples, "{per_partition:?}");
    // A count, not a speed: a consumer hands over at most once per data
    // block and once at its (single) end-of-stream, ten samples a block
    // here. A transport back to one send per sample would read `samples`.
    let counters = &report
        .obs
        .as_ref()
        .expect("obs on by default")
        .metrics
        .counters;
    let handovers = counters["exec.m1_handovers"];
    let bound: u64 = per_partition.iter().map(|n| n.div_ceil(BLOCK) + 1).sum();
    assert!(
        (1..=bound).contains(&handovers),
        "{handovers} hand-overs for {samples} samples, bound {bound}: {per_partition:?}"
    );
    assert!(
        bound * 5 < samples,
        "the bound tells the two transports apart"
    );
}

/// `exec.tuples_processed` is advanced together with the run-wide count
/// the responder reads as progress, once per hand-over; whatever way the
/// consumers end, it has seen every tuple they processed.
#[test]
fn threaded_processed_count_is_whole_at_teardown() {
    let whole = |report: &gridq::obs::RunReport| {
        let obs = report.obs.as_ref().expect("obs on by default");
        assert_eq!(
            obs.metrics.counters["exec.tuples_processed"],
            report.per_partition_processed.iter().sum::<u64>(),
            "{:?}",
            report.per_partition_processed
        );
    };
    // Monitoring off: no M1 to hand over, the count alone.
    let static_run = q1(false).run_threaded(&common::static_knobs()).unwrap();
    assert_eq!(static_run.per_partition_processed.iter().sum::<u64>(), 250);
    whole(&static_run);
    // A recall: state and held probes are processed again where they
    // land (`on_migrated`, the held-probe replay), in blocks of their own.
    let knobs = common::r1_knobs(Substrate::Threaded);
    let recalled = common::q2_r1().run_threaded(&knobs).unwrap();
    assert!(recalled.recalls_completed >= 1, "{recalled:?}");
    whole(&recalled);
}
