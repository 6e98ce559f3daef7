//! Property-based tests on routing: the exchange router is the object
//! the adaptivity architecture mutates at run time, so its invariants
//! carry the correctness of every adaptation.

use gridq_common::check::{Check, Gen};
use gridq_common::dist::bucket_for_hash;
use gridq_common::{DetRng, DistributionVector, Tuple, Value};
use gridq_engine::distributed::{Router, RoutingPolicy, StreamKeys};
use gridq_engine::evaluator::StreamTag;
use gridq_engine::fixtures::{int_table, join_plan, JoinShape};

fn weights(rng: &mut DetRng) -> Vec<f64> {
    rng.vec_of(2, 6, |r| r.f64_in(0.05, 10.0))
}

fn t(v: i64) -> Tuple {
    Tuple::new(vec![Value::Int(v)])
}

/// Smooth weighted round-robin tracks the target proportions with
/// bounded drift: after N tuples, each partition's count is within
/// `partitions` of `N * w_i`.
#[test]
fn weighted_routing_tracks_weights() {
    Check::new("weighted routing tracks weights").run(
        |rng| (weights(rng), rng.usize_in(100, 1000)),
        |(raw, n)| {
            let dist = DistributionVector::new(raw).map_err(|e| e.to_string())?;
            let parts = dist.len();
            let mut router = Router::from_policy(
                &RoutingPolicy::Weighted {
                    initial: dist.clone(),
                },
                parts as u32,
            )
            .map_err(|e| e.to_string())?;
            let mut counts = vec![0usize; parts];
            for i in 0..*n {
                let dest = router
                    .route(StreamTag::Single, &t(i as i64))
                    .map_err(|e| e.to_string())?;
                counts[dest as usize] += 1;
            }
            for (i, &c) in counts.iter().enumerate() {
                let expected = dist.weights()[i] * *n as f64;
                if (c as f64 - expected).abs() > parts as f64 + 1.0 {
                    return Err(format!(
                        "partition {i}: {c} vs expected {expected:.1} (weights {:?})",
                        dist.weights()
                    ));
                }
            }
            Ok(())
        },
    );
}

/// Re-applying a new distribution mid-stream still respects the new
/// proportions for the remaining tuples.
#[test]
fn weighted_routing_honours_reweighting() {
    Check::new("weighted routing honours reweighting").run(
        |rng| (weights(rng), rng.usize_in(200, 600)),
        |(before, n)| {
            let parts = before.len();
            let dist = DistributionVector::new(before).map_err(|e| e.to_string())?;
            let mut router =
                Router::from_policy(&RoutingPolicy::Weighted { initial: dist }, parts as u32)
                    .map_err(|e| e.to_string())?;
            for i in 0..*n {
                let _ = router
                    .route(StreamTag::Single, &t(i as i64))
                    .map_err(|e| e.to_string())?;
            }
            // Shift everything to partition 0.
            let mut target = vec![0.0; parts];
            target[0] = 1.0;
            router
                .apply_distribution(&DistributionVector::new(&target).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            // Credits from the old regime may grant a few tuples elsewhere,
            // then everything goes to partition 0.
            let mut elsewhere = 0;
            for i in 0..*n {
                if router
                    .route(StreamTag::Single, &t(i as i64))
                    .map_err(|e| e.to_string())?
                    != 0
                {
                    elsewhere += 1;
                }
            }
            if elsewhere > parts {
                return Err(format!(
                    "at most a credit's worth of stragglers, got {elsewhere}"
                ));
            }
            Ok(())
        },
    );
}

/// Hash routing is a function of the key: equal keys always land on
/// the same partition, on both streams, before and after rebalance
/// (the *assignment* changes, but stays consistent per key).
#[test]
fn hash_routing_is_key_consistent() {
    Check::new("hash routing is key consistent").run(
        |rng| {
            (
                rng.vec_of(1, 100, |r| r.i64_in(-1000, 1000)),
                rng.u32_in(4, 64),
                weights(rng),
            )
        },
        |(keys, buckets, target_raw)| {
            let parts = target_raw.len().min(4) as u32;
            let buckets = (*buckets).max(parts);
            let policy = RoutingPolicy::HashBuckets {
                bucket_count: buckets,
                initial: DistributionVector::uniform(parts as usize),
                keys: StreamKeys {
                    build: Some(0),
                    probe: Some(0),
                    single: Some(0),
                },
            };
            let mut router = Router::from_policy(&policy, parts).map_err(|e| e.to_string())?;
            for &k in keys {
                let a = router
                    .route(StreamTag::Build, &t(k))
                    .map_err(|e| e.to_string())?;
                let b = router
                    .route(StreamTag::Probe, &t(k))
                    .map_err(|e| e.to_string())?;
                if a != b {
                    return Err(format!("key {k} routed to {a} on build, {b} on probe"));
                }
                if a >= parts {
                    return Err(format!("key {k} routed out of range: {a}"));
                }
            }
            let before: Vec<u32> = keys
                .iter()
                .map(|&k| router.route(StreamTag::Single, &t(k)).unwrap())
                .collect();
            let target = DistributionVector::new(&target_raw[..parts as usize])
                .map_err(|e| e.to_string())?;
            let moves = router
                .apply_distribution(&target)
                .map_err(|e| e.to_string())?;
            let after: Vec<u32> = keys
                .iter()
                .map(|&k| router.route(StreamTag::Single, &t(k)).unwrap())
                .collect();
            // A key's destination changes iff its bucket was moved.
            let moved: std::collections::HashSet<u32> = moves.iter().map(|m| m.bucket).collect();
            for (i, &k) in keys.iter().enumerate() {
                let bucket = router
                    .bucket_of(StreamTag::Single, &t(k))
                    .ok_or_else(|| format!("no bucket for key {k}"))?;
                if moved.contains(&bucket) {
                    // Destination must now match the move target.
                    let mv = moves.iter().find(|m| m.bucket == bucket).unwrap();
                    if after[i] != mv.to || before[i] != mv.from {
                        return Err(format!(
                            "moved key {k}: was {} now {}, move says {} -> {}",
                            before[i], after[i], mv.from, mv.to
                        ));
                    }
                } else if before[i] != after[i] {
                    return Err(format!("unmoved key {k} rerouted"));
                }
            }
            Ok(())
        },
    );
}

/// The router and the evaluator agree on every tuple's bucket: what a
/// consumer surrenders for a bucket `W′` moves (its own state and held
/// probes, sorted by `key_hash` through the shared `dist` function) is
/// exactly what the router will send to the new owner.
#[test]
fn the_evaluator_and_the_router_place_every_key_in_the_same_bucket() {
    Check::new("evaluator and router agree on buckets").run(
        |rng| {
            let key = |r: &mut DetRng| match r.below(4) {
                0 => Value::Null,
                1 => Value::str(format!("orf{}", r.below(50))),
                _ => Value::Int(r.i64_in(-1000, 1000)),
            };
            (rng.vec_of(1, 100, key), rng.u32_in(2, 300))
        },
        |(keys, buckets)| {
            let table = int_table("t", 0..1);
            let shape = JoinShape {
                bucket_count: *buckets,
                ..JoinShape::default()
            };
            let plan = join_plan(&table, &table, &shape);
            let stage = &plan.stages[0];
            let router = Router::from_policy(&stage.exchange.routing, shape.evaluators as u32)
                .map_err(|e| e.to_string())?;
            let evaluator = stage.factory.create(0);
            for key in keys {
                let tuple = Tuple::new(vec![key.clone()]);
                for stream in [StreamTag::Build, StreamTag::Probe] {
                    let by_router = router.bucket_of(stream, &tuple);
                    let hash = evaluator.key_hash(stream, &tuple);
                    let by_evaluator = hash.map(|h| bucket_for_hash(h, *buckets));
                    if by_router.is_none() || by_router != by_evaluator {
                        return Err(format!(
                            "{key:?} on {stream:?}: router {by_router:?}, evaluator {by_evaluator:?}"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

/// The bucket map's effective distribution converges to the target
/// within one bucket's granularity.
#[test]
fn rebalance_reaches_target_within_granularity() {
    Check::new("rebalance reaches target within granularity").run(
        |rng| (weights(rng), rng.u32_in(8, 128)),
        |(target_raw, buckets)| {
            let parts = target_raw.len() as u32;
            let buckets = (*buckets).max(parts);
            let policy = RoutingPolicy::HashBuckets {
                bucket_count: buckets,
                initial: DistributionVector::uniform(parts as usize),
                keys: StreamKeys {
                    single: Some(0),
                    ..Default::default()
                },
            };
            let mut router = Router::from_policy(&policy, parts).map_err(|e| e.to_string())?;
            let target = DistributionVector::new(target_raw).map_err(|e| e.to_string())?;
            router
                .apply_distribution(&target)
                .map_err(|e| e.to_string())?;
            let effective = router.current_distribution();
            for (e, w) in effective.weights().iter().zip(target.weights()) {
                if (e - w).abs() > 1.0 / f64::from(buckets) + 1e-9 {
                    return Err(format!(
                        "effective {e} vs target {w} with {buckets} buckets"
                    ));
                }
            }
            Ok(())
        },
    );
}
