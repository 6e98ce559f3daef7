//! Delivery-robustness tests: data-plane duplication heals through
//! consumer-side deduplication. Node deaths are `failures.rs`'s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridq_adapt::AdaptivityConfig;
use gridq_common::{ChaosHook, NetAction};
use gridq_engine::fixtures::{call_plan, catalog, int_table, multiset, CallShape};
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
