//! The benchmark's own arithmetic, on fixed inputs.

use gridq_benchmark::catalogue::{self, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use gridq_benchmark::digest::Digest;
use gridq_benchmark::nullcost::{check_null_cost, max_call_model_ms, would_sleep, NULL_COST_SCALE};
use gridq_benchmark::procfs::{cpu_ticks, status_kb, ticks_to_ms};
use gridq_benchmark::spans::SpanStore;
use gridq_benchmark::stats::{
    median, percentile, quartiles, sorted, supported_percentile, worse_by, Better, Summary,
};
use gridq_common::{Tuple, Value};
use gridq_obs::Json;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

// --- percentile and quartile picks -----------------------------------------

#[test]
fn percentile_is_nearest_rank_and_always_a_measured_sample() {
    let s = sorted(&[50.0, 10.0, 40.0, 20.0, 30.0]);
    assert_eq!(percentile(&s, 50.0), Some(30.0));
    assert_eq!(percentile(&s, 99.0), Some(50.0));
    assert_eq!(percentile(&s, 20.0), Some(10.0));
    assert_eq!(percentile(&s, 21.0), Some(20.0));
    assert_eq!(percentile(&s, 0.0), Some(10.0));
    assert_eq!(percentile(&s, 100.0), Some(50.0));
    assert_eq!(percentile(&[], 50.0), None);
    // 5000 samples: p99 leaves exactly 50 beyond it.
    let many: Vec<f64> = (1..=5000).map(f64::from).collect();
    assert_eq!(percentile(&many, 99.0), Some(4950.0));
}

#[test]
fn supported_percentile_keeps_ten_samples_beyond_it() {
    let of = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
    // Enough samples: the plain p99.
    assert_eq!(supported_percentile(&of(5000), 99.0, 10), Some(4950.0));
    assert_eq!(supported_percentile(&of(3000), 99.0, 10), Some(2970.0));
    // 500 samples: p99 would leave only 5 beyond, so it gives way to p98.
    assert_eq!(supported_percentile(&of(500), 99.0, 10), Some(490.0));
    // A whole-query run: 28 samples support the 18th, 20 only the median,
    // and fewer never drop below the median.
    assert_eq!(supported_percentile(&of(28), 99.0, 10), Some(18.0));
    assert_eq!(
        supported_percentile(&of(20), 99.0, 10),
        percentile(&of(20), 50.0)
    );
    assert_eq!(
        supported_percentile(&of(15), 99.0, 10),
        percentile(&of(15), 50.0)
    );
    assert_eq!(supported_percentile(&of(1), 99.0, 10), Some(1.0));
    assert_eq!(supported_percentile(&[], 99.0, 10), None);
}

#[test]
fn sorted_drops_non_finite_samples() {
    assert_eq!(sorted(&[2.0, f64::NAN, 1.0, f64::INFINITY]), vec![1.0, 2.0]);
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[1.0, 2.0, 3.0]), Some(2.0));
    assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = quartiles(&ten).unwrap();
    assert!(
        close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
        "{q:?}"
    );
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    let q = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
    assert!(
        close(q[0], 1.5) && close(q[1], 4.0) && close(q[2], 12.0),
        "{q:?}"
    );
    // statistics.quantiles([3, 7], n=4) == [2.0, 5.0, 8.0]: two samples extrapolate.
    let q = quartiles(&[3.0, 7.0]).unwrap();
    assert!(
        close(q[0], 2.0) && close(q[1], 5.0) && close(q[2], 8.0),
        "{q:?}"
    );
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn summary_spread_is_iqr_over_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&ten).unwrap();
    assert_eq!((s.count, s.min, s.max), (10, 1.0, 10.0));
    assert!(close(s.spread(), (8.25 - 2.75) / 5.5));
    let one = Summary::of(&[4.0]).unwrap();
    assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
    assert_eq!(Summary::of(&[]), None);
}

#[test]
fn worse_by_respects_direction() {
    assert!(close(worse_by(100.0, 110.0, Better::Lower), 0.10));
    assert!(close(worse_by(100.0, 90.0, Better::Lower), -0.10));
    assert!(close(worse_by(100.0, 90.0, Better::Higher), 0.10));
    assert_eq!(worse_by(0.0, 1.0, Better::Lower), f64::INFINITY);
    assert_eq!(worse_by(0.0, 0.0, Better::Lower), 0.0);
}

// --- the order-independent digest ------------------------------------------

fn rows() -> Vec<Tuple> {
    (0..200)
        .map(|i| {
            Tuple::with_seq(
                vec![
                    Value::str(format!("ORF{i:06}")),
                    Value::Float(f64::from(i) * 0.5),
                ],
                i as u64,
            )
        })
        .collect()
}

#[test]
fn digest_is_permutation_invariant_and_ignores_sequence_numbers() {
    let forward = rows();
    let mut shuffled = rows();
    shuffled.reverse();
    shuffled.swap(3, 77);
    let renumbered: Vec<Tuple> = forward.iter().map(|t| t.renumbered(9)).collect();
    assert_eq!(Digest::of(&forward), Digest::of(&shuffled));
    assert_eq!(Digest::of(&forward), Digest::of(&renumbered));
    assert_eq!(Digest::of(&forward).count, 200);
}

#[test]
fn digest_catches_one_dropped_duplicated_or_altered_tuple() {
    let reference = Digest::of(&rows());
    let mut dropped = rows();
    dropped.remove(41);
    assert_ne!(Digest::of(&dropped), reference);

    let mut duplicated = rows();
    duplicated.push(duplicated[41].clone());
    assert_ne!(Digest::of(&duplicated), reference);

    // Same count, one value off by the smallest step: the count cannot
    // tell, the folds must.
    let mut altered = rows();
    altered[41] = Tuple::new(vec![
        Value::str("ORF000041"),
        Value::Float(20.5 + f64::EPSILON * 16.0),
    ]);
    let d = Digest::of(&altered);
    assert_eq!(d.count, reference.count);
    assert_ne!(d, reference);

    // Two columns swapped inside one tuple: position matters.
    let a = Digest::of(&[Tuple::new(vec![Value::Int(1), Value::Int(2)])]);
    let b = Digest::of(&[Tuple::new(vec![Value::Int(2), Value::Int(1)])]);
    assert_ne!(a, b);

    // One tuple replaced by a copy of another: xor alone would cancel on
    // a pair, the sum does not.
    let mut replaced = rows();
    replaced[10] = replaced[11].clone();
    assert_ne!(Digest::of(&replaced), reference);
}

// --- span self time -----------------------------------------------------------

#[test]
fn self_time_subtracts_what_children_cover() {
    let mut store = SpanStore::new("t");
    let root = store.open("run", None, 0);
    let block = store.record("block", Some(root), 100, 1100);
    store.record("scan", Some(block), 100, 300);
    store.record("route", Some(block), 300, 350);
    store.record("operator", Some(block), 400, 1000);
    store.close(root, 2000);
    let selfs = store.self_times();
    // run: 2000 - block's 1000; block: 1000 - (200 + 50 + 600).
    assert_eq!(selfs, vec![1000, 150, 200, 50, 600]);
    let totals = store.totals();
    assert_eq!(totals["block"].total_ns, 1000);
    assert_eq!(totals["block"].self_ns, 150);
    assert_eq!(totals["scan"].calls, 1);
}

#[test]
fn overlapping_and_overhanging_children_are_not_subtracted_twice() {
    let mut store = SpanStore::new("t");
    let parent = store.record("parent", None, 1000, 2000);
    // Two concurrent children overlapping on 1200..1500, one hanging out
    // past the parent's end, one wholly outside it.
    store.record("a", Some(parent), 1100, 1500);
    store.record("b", Some(parent), 1200, 1700);
    store.record("c", Some(parent), 1900, 2500);
    store.record("d", Some(parent), 3000, 4000);
    // Covered: 1100..1700 and 1900..2000 = 700.
    assert_eq!(store.self_times()[parent as usize], 300);
}

#[test]
fn spans_serialise_one_json_object_per_line_under_the_run_id() {
    let mut store = SpanStore::new("q1-seed7");
    let root = store.record("run", None, 0, 50);
    store.record("engine.scan", Some(root), 10, 30);
    let text = store.to_json_lines();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    let child = Json::parse(lines[1]).unwrap();
    assert_eq!(child.get("run").and_then(Json::as_str), Some("q1-seed7"));
    assert_eq!(
        child.get("name").and_then(Json::as_str),
        Some("engine.scan")
    );
    assert_eq!(child.get("parent").and_then(Json::as_u64), Some(0));
    assert_eq!(child.get("self_ns").and_then(Json::as_u64), Some(20));
    let root = Json::parse(lines[0]).unwrap();
    assert!(root.get("parent").unwrap().is_null());
    assert_eq!(root.get("self_ns").and_then(Json::as_u64), Some(30));
}

// --- the null-cost bound --------------------------------------------------------

#[test]
fn null_cost_bound_fails_at_1e_9_and_holds_at_1e_12() {
    // A 100-tuple Q2 block: probe 4 + receive 10 model-ms per tuple.
    let block = max_call_model_ms(100, 2, 0.8, 14.0, 1.0);
    assert!(close(block, 1400.0));
    assert!(would_sleep(block, 1e-9), "1.4 ns rounds to a 1 ns sleep");
    assert!(check_null_cost(block, 1e-9).is_err());
    assert!(!would_sleep(block, NULL_COST_SCALE));
    assert!(check_null_cost(block, NULL_COST_SCALE).is_ok());
    // The bound is half a nanosecond: 5e5 model-ms at 1e-12.
    assert!(!would_sleep(4.9e5, NULL_COST_SCALE));
    assert!(would_sleep(5.1e5, NULL_COST_SCALE));
    // The paper-fidelity scale sleeps, as it must.
    assert!(would_sleep(block, 0.01));
}

#[test]
fn max_call_takes_the_dearer_of_producer_and_consumer() {
    // Producer: 100 rows x 2 destinations x 1.0 scan = 200;
    // consumer: 100 x 3.5 = 350.
    assert!(close(max_call_model_ms(100, 2, 1.0, 3.5, 1.0), 350.0));
    // A slow scan makes the producer the dearer side.
    assert!(close(max_call_model_ms(100, 2, 10.0, 3.5, 1.0), 2000.0));
    // A perturbation factor inflates the consumer only.
    assert!(close(max_call_model_ms(100, 2, 1.0, 3.5, 10.0), 3500.0));
}

// --- /proc parsing ----------------------------------------------------------------

#[test]
fn stat_fields_are_counted_from_the_last_parenthesis() {
    let plain = "1234 (gridq-benchmark) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                 731 42 0 0 20 0 5 0 100 200000 300 18446744073709551615";
    assert_eq!(cpu_ticks(plain), Some(773));
    // A command name with spaces and parentheses of its own.
    let nasty = "99 (a (b) c d) R 1 99 99 0 -1 0 0 0 0 0 7 5 0 0 20 0 1 0 1 1 1 1";
    assert_eq!(cpu_ticks(nasty), Some(12));
    assert_eq!(cpu_ticks("garbage"), None);
    assert_eq!(cpu_ticks("1 (x) S 1 2"), None);
    assert!(close(ticks_to_ms(773), 7730.0));
}

#[test]
fn status_field_is_matched_by_whole_name() {
    let status = "Name:\tgridq-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  181504 kB\n\
                  VmRSS:\t   90000 kB\nThreads:\t5\n";
    assert_eq!(status_kb(status, "VmHWM"), Some(181_504));
    assert_eq!(status_kb(status, "VmRSS"), Some(90_000));
    assert_eq!(status_kb(status, "Vm"), None);
    assert_eq!(status_kb(status, "Threads"), None, "not a kB field");
    assert_eq!(status_kb(status, "VmSwap"), None);
}

// --- the catalogue and BENCHMARK.json ---------------------------------------------

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn catalogue_stays_inside_the_contract_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    let mut names = std::collections::BTreeSet::new();
    for w in WORKLOADS {
        assert!(is_name(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: {}",
            w.name,
            w.why.len()
        );
        assert!(names.insert(w.name), "{} used twice", w.name);
    }
    for m in END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(names.insert(m.name), "{} used twice", m.name);
    }
    for m in PER_LAYER {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(
            !m.moves.is_empty(),
            "{} names nothing it should move",
            m.name
        );
        assert!(names.insert(m.name), "{} used twice", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert!(
        close(setup.bound, widest),
        "setup_s carries the largest bound"
    );
}

#[test]
fn benchmark_json_is_the_catalogue_written_out() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        catalogue::benchmark_json(),
        "regenerate with `gridq-benchmark describe > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
    // The file is read by a JSON parser, not by this crate: check it
    // parses flat, and has exactly the contract's keys.
    let doc = Json::parse(&on_disk.replace('\n', " ")).unwrap();
    for key in [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ] {
        assert!(doc.get(key).is_some(), "missing {key}");
    }
    assert_eq!(
        doc.get("workloads").and_then(Json::as_array).unwrap().len(),
        WORKLOADS.len()
    );
    assert_eq!(
        doc.get("per_layer").and_then(Json::as_array).unwrap().len(),
        PER_LAYER.len()
    );
    let paths = doc.get("paths").and_then(Json::as_array).unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
}
