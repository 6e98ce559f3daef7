//! Delivery-robustness tests: data-plane loss and duplication heal
//! through recovery-log retransmission and consumer-side deduplication,
//! and exhausted retry budgets degrade into explicit delivery gaps
//! instead of hangs. Node deaths are `failures.rs`'s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridq_adapt::AdaptivityConfig;
use gridq_common::{ChaosHook, NetAction};
use gridq_engine::fixtures::{
    call_plan, catalog, int_table, join_plan, multiset, CallShape, JoinShape,
};
use gridq_grid::GridEnvironment;
use gridq_sim::{Simulation, SimulationConfig};

/// The Q1 shape of these tests over two partitions.
fn call_shape() -> CallShape {
    CallShape {
        service_cost_ms: 1.5,
        scan_cost_ms: 0.5,
        ..Default::default()
    }
}

/// The Q2 shape of these tests over two partitions.
fn join_shape() -> JoinShape {
    JoinShape {
        build_cost_ms: 0.2,
        probe_cost_ms: 1.5,
        scan_cost_ms: [0.3, 0.3],
        bucket_count: 32,
        ..Default::default()
    }
}

fn config(chaos: Option<Arc<dyn ChaosHook>>) -> SimulationConfig {
    SimulationConfig {
        adaptivity: AdaptivityConfig::disabled(),
        collect_results: true,
        receive_cost_ms: 0.5,
        checkpoint_interval: 8,
        chaos,
        ..Default::default()
    }
}

/// Drops the first `budget` data-plane buffers on every edge.
#[derive(Debug)]
struct DropFirst {
    budget: u64,
    dropped: AtomicU64,
}

impl ChaosHook for DropFirst {
    fn on_data(&self, _source: usize, _dest: usize) -> NetAction {
        if self.dropped.fetch_add(1, Ordering::Relaxed) < self.budget {
            NetAction::Drop
        } else {
            NetAction::Deliver
        }
    }
}

/// Duplicates every `nth` data-plane buffer.
#[derive(Debug)]
struct DupEvery {
    nth: u64,
    sent: AtomicU64,
}

impl ChaosHook for DupEvery {
    fn on_data(&self, _source: usize, _dest: usize) -> NetAction {
        if self
            .sent
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.nth)
        {
            NetAction::Duplicate
        } else {
            NetAction::Deliver
        }
    }
}

/// Severs one destination entirely: every data buffer addressed to it
/// is lost, initial deliveries and retransmissions alike.
#[derive(Debug)]
struct SeverDest(usize);

impl ChaosHook for SeverDest {
    fn on_data(&self, _source: usize, dest: usize) -> NetAction {
        if dest == self.0 {
            NetAction::Drop
        } else {
            NetAction::Deliver
        }
    }
}

#[test]
fn dropped_buffers_are_retransmitted_until_the_result_is_whole() {
    let table = int_table("t", 0..300);
    let plan = call_plan(&table, &call_shape());
    let clean = Simulation::new(GridEnvironment::demo(2), catalog(&[&table]), config(None))
        .unwrap()
        .run(&plan)
        .unwrap();
    assert_eq!(clean.tuples_output, 300);

    let hook = Arc::new(DropFirst {
        budget: 6,
        dropped: AtomicU64::new(0),
    });
    let report = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&table]),
        config(Some(hook)),
    )
    .unwrap()
    .run(&plan)
    .unwrap();
    assert!(
        report.tuples_retransmitted > 0,
        "drops must trigger the retry loop: {:?}",
        report.obs
    );
    assert!(
        report.delivery_gaps.is_empty(),
        "{:?}",
        report.delivery_gaps
    );
    assert_eq!(
        multiset(&report.results),
        multiset(&clean.results),
        "retransmission must restore the exact result multiset"
    );
    for audit in &report.log_audits {
        assert!(audit.conserved(), "log audit must balance: {audit:?}");
    }
}

#[test]
fn duplicated_buffers_are_absorbed_by_consumer_dedup() {
    let table = int_table("t", 0..300);
    let plan = call_plan(&table, &call_shape());
    let clean = Simulation::new(GridEnvironment::demo(2), catalog(&[&table]), config(None))
        .unwrap()
        .run(&plan)
        .unwrap();

    let hook = Arc::new(DupEvery {
        nth: 3,
        sent: AtomicU64::new(0),
    });
    let report = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&table]),
        config(Some(hook)),
    )
    .unwrap()
    .run(&plan)
    .unwrap();
    assert_eq!(
        multiset(&report.results),
        multiset(&clean.results),
        "duplicated deliveries must not duplicate results: {:?}",
        report.obs
    );
    assert!(report.delivery_gaps.is_empty());
    for audit in &report.log_audits {
        assert!(audit.conserved(), "log audit must balance: {audit:?}");
        assert!(
            audit.acks_duplicate > 0 || audit.acks_accepted > 0,
            "duplicated markers surface as duplicate acks: {audit:?}"
        );
    }
}

#[test]
fn join_heals_lost_build_and_probe_buffers() {
    let build = int_table("build", 0..96);
    let probe = int_table("probe", (0..200).map(|i| i % 128));
    let plan = join_plan(&build, &probe, &join_shape());
    let clean = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&build, &probe]),
        config(None),
    )
    .unwrap()
    .run(&plan)
    .unwrap();

    let hook = Arc::new(DropFirst {
        budget: 4,
        dropped: AtomicU64::new(0),
    });
    let report = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&build, &probe]),
        config(Some(hook)),
    )
    .unwrap()
    .run(&plan)
    .unwrap();
    assert!(report.tuples_retransmitted > 0, "{:?}", report.obs);
    assert!(
        report.delivery_gaps.is_empty(),
        "{:?}",
        report.delivery_gaps
    );
    assert_eq!(
        multiset(&report.results),
        multiset(&clean.results),
        "join state rebuilt from retained build log must reproduce the \
         clean multiset: {:?}",
        report.obs
    );
}

#[test]
fn exhausted_retries_degrade_into_explicit_gaps_not_a_hang() {
    let table = int_table("t", 0..200);
    let plan = call_plan(&table, &call_shape());
    let hook = Arc::new(SeverDest(1));
    let report = Simulation::new(
        GridEnvironment::demo(2),
        catalog(&[&table]),
        config(Some(hook)),
    )
    .unwrap()
    .run(&plan)
    .unwrap();
    assert!(
        !report.delivery_gaps.is_empty(),
        "a severed destination must surface as gaps: {:?}",
        report.obs
    );
    for gap in &report.delivery_gaps {
        assert_eq!(gap.dest, 1);
        assert!(gap.tuples > 0);
    }
    let lost: u64 = report.delivery_gaps.iter().map(|g| g.tuples).sum();
    assert_eq!(
        report.tuples_output + lost,
        200,
        "every input is either delivered or accounted for in a gap: {:?}",
        report.delivery_gaps
    );
}
