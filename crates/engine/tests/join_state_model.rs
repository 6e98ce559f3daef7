//! Model test of the hash-join evaluator's build side: the arena with
//! per-hash chains must behave exactly like a table of per-hash `Vec`s.
//! Generated schedules interleave build, probe and `extract_state` over
//! duplicate and NULL keys; every probe's outputs must match the model's
//! in content and order, and every extraction and state size must match
//! as multisets and counts.

use std::collections::{BTreeMap, HashSet};

use gridq_common::check::{shrink_vec, Check, Gen};
use gridq_common::dist::bucket_for_hash;
use gridq_common::{DataType, DetRng, Field, Schema, Tuple, Value};
use gridq_engine::evaluator::{HashJoinFactory, StreamTag};
use gridq_engine::EvaluatorFactory;

#[derive(Debug, Clone)]
enum Step {
    Build(Value),
    Probe(Value),
    Extract(Vec<u32>),
}

/// The build side as it was kept before the arena: one `Vec` per key
/// hash, appended in arrival order, a whole hash extracted at once.
#[derive(Default)]
struct Model {
    table: BTreeMap<u64, Vec<Tuple>>,
}

impl Model {
    fn build(&mut self, tuple: &Tuple) {
        let key = tuple.value(0);
        if !key.is_null() {
            self.table
                .entry(key.stable_hash())
                .or_default()
                .push(tuple.clone());
        }
    }

    fn probe(&self, tuple: &Tuple) -> Vec<Tuple> {
        let key = tuple.value(0);
        if key.is_null() {
            return Vec::new();
        }
        self.table
            .get(&key.stable_hash())
            .into_iter()
            .flatten()
            .filter(|b| b.value(0).sql_eq(key))
            .map(|b| b.concat(tuple).renumbered(tuple.seq()))
            .collect()
    }

    fn extract(&mut self, bucket_count: u32, buckets: &[u32]) -> Vec<Tuple> {
        let mut extracted = Vec::new();
        self.table.retain(|&hash, tuples| {
            if buckets.contains(&bucket_for_hash(hash, bucket_count)) {
                extracted.append(tuples);
                false
            } else {
                true
            }
        });
        extracted
    }

    fn state_size(&self) -> usize {
        self.table.values().map(Vec::len).sum()
    }
}

fn key(rng: &mut DetRng) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::str(format!("orf{}", rng.below(4))),
        _ => Value::Int(rng.i64_in(0, 8)),
    }
}

fn step(rng: &mut DetRng, bucket_count: u32) -> Step {
    match rng.below(8) {
        0..=3 => Step::Build(key(rng)),
        4..=6 => Step::Probe(key(rng)),
        _ => Step::Extract(rng.vec_of(0, 4, |r| r.u32_in(0, bucket_count))),
    }
}

/// Sorts tuples into a canonical order, so two multisets compare equal
/// exactly when they hold the same tuples.
fn multiset(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by_cached_key(|t| format!("{t:?}"));
    tuples
}

fn run(bucket_count: u32, steps: &[Step]) -> Result<(), String> {
    let schema = |name: &str| {
        Schema::new(vec![
            Field::new(name, DataType::Int),
            Field::new("arrival", DataType::Int),
        ])
    };
    let factory = HashJoinFactory::new(&schema("k"), &schema("k2"), 0, 0, 0.1, 1.0);
    let mut eval = factory.create(0);
    let mut model = Model::default();
    for (i, step) in steps.iter().enumerate() {
        let arrival = Value::Int(i as i64);
        let seq = i as u64;
        match step {
            Step::Build(k) => {
                let t = Tuple::with_seq(vec![k.clone(), arrival], seq);
                eval.process(StreamTag::Build, &t)
                    .map_err(|e| e.to_string())?;
                model.build(&t);
            }
            Step::Probe(k) => {
                let t = Tuple::with_seq(vec![k.clone(), arrival], seq);
                let got = eval
                    .process(StreamTag::Probe, &t)
                    .map_err(|e| e.to_string())?
                    .outputs;
                let want = model.probe(&t);
                if got != want {
                    return Err(format!(
                        "step {i}: probe {t:?} gave {got:?}, model {want:?}"
                    ));
                }
            }
            Step::Extract(buckets) => {
                let got: Vec<Tuple> = eval
                    .extract_state(bucket_count, buckets)
                    .into_iter()
                    .map(|(tag, t)| (tag == StreamTag::Build).then_some(t).ok_or("not build"))
                    .collect::<Result<_, _>>()?;
                let want = model.extract(bucket_count, buckets);
                if multiset(got.clone()) != multiset(want.clone()) {
                    return Err(format!(
                        "step {i}: extract {buckets:?} gave {got:?}, model {want:?}"
                    ));
                }
            }
        }
        if eval.state_size() != model.state_size() {
            return Err(format!(
                "step {i}: state_size {} against the model's {}",
                eval.state_size(),
                model.state_size()
            ));
        }
    }
    Ok(())
}

#[test]
fn the_arena_behaves_like_a_vec_per_key_hash() {
    Check::new("join build arena matches the per-hash Vec model").run_shrink(
        |rng| {
            let bucket_count = *rng.pick(&[1, 16, 64]);
            (bucket_count, rng.vec_of(0, 160, |r| step(r, bucket_count)))
        },
        |(buckets, steps)| {
            shrink_vec(steps)
                .into_iter()
                .map(|s| (*buckets, s))
                .collect()
        },
        |(buckets, steps)| run(*buckets, steps),
    );
}

#[test]
fn a_schedule_with_every_step_kind_and_duplicates_is_generated() {
    // The property above is only as strong as its schedules: make sure
    // the generator reaches duplicate keys, NULL keys, a non-empty
    // extraction and every bucket count.
    let mut counts = HashSet::new();
    let mut saw = [false; 4];
    for seed in 0..64 {
        let mut rng = DetRng::seeded(seed);
        let bucket_count = *rng.pick(&[1u32, 16, 64]);
        counts.insert(bucket_count);
        let steps = rng.vec_of(0, 160, |r| step(r, bucket_count));
        let mut built = HashSet::new();
        for s in &steps {
            match s {
                Step::Build(Value::Null) => saw[0] = true,
                Step::Build(k) => saw[1] |= !built.insert(format!("{k:?}")),
                Step::Extract(b) => saw[2] |= !b.is_empty(),
                Step::Probe(_) => saw[3] = true,
            }
        }
    }
    assert_eq!(saw, [true; 4]);
    assert_eq!(counts.len(), 3);
}
