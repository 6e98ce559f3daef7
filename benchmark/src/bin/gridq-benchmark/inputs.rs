//! Inputs made from `--seed`: tables, catalogs, plans, and the reference
//! result each run is checked against.

use std::sync::Arc;

use gridq_benchmark::digest::Digest;
use gridq_benchmark::nullcost::{check_null_cost, max_call_model_ms, NULL_COST_SCALE};
use gridq_common::{GridError, Result};
use gridq_engine::distributed::DistributedPlan;
use gridq_engine::service::Service;
use gridq_engine::{Catalog, StreamTag};
use gridq_exec::socket::{ServiceResolver, WireStageSpec};
use gridq_workload::{
    protein_interactions, protein_sequences, EntropyAnalyser, Q1Experiment, Q2Experiment,
};

use crate::measure::Clock;

/// Input sizes and repetition floors. `--quick` is one tenth of the
/// sizes with three repetitions; the paper-fidelity workload keeps the
/// paper's own size either way.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub q1_tuples: usize,
    pub q2_sequences: usize,
    pub q2_interactions: usize,
    pub service_tuples: usize,
    /// Fewest measured repetitions of a whole-query workload.
    pub min_reps: usize,
    /// Fewest measured queries on `service_mixed`.
    pub min_queries: usize,
    /// Fewest repetitions of each half of a traced pass.
    pub traced_reps: usize,
    pub traced_queries: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Self {
        if quick {
            Sizes {
                q1_tuples: 40_000,
                q2_sequences: 10_000,
                q2_interactions: 15_666,
                service_tuples: 200,
                min_reps: 3,
                min_queries: 100,
                traced_reps: 2,
                traced_queries: 50,
            }
        } else {
            Sizes {
                q1_tuples: 400_000,
                q2_sequences: 100_000,
                q2_interactions: 156_666,
                service_tuples: 2000,
                min_reps: 15,
                min_queries: 1500,
                traced_reps: 5,
                traced_queries: 500,
            }
        }
    }
}

/// One generated input: the experiment that describes it, its tables,
/// its plan and the digest of the right answer.
pub struct Input<E> {
    pub exp: E,
    pub catalog: Catalog,
    pub plan: DistributedPlan,
    pub reference: Digest,
    /// Input tuples over all sources.
    pub tuples: u64,
    /// Wall time of table generation alone, nanoseconds.
    pub gen_ns: u64,
}

/// The plan's own evaluator fed every tuple single-threaded: build
/// sources first (the iterator model consumes the build input first),
/// then everything else.
pub fn reference(plan: &DistributedPlan, catalog: &Catalog) -> Result<Digest> {
    let mut evaluator = plan.stages[0].factory.create(0);
    let mut digest = Digest::default();
    for want_build in [true, false] {
        for source in &plan.sources {
            if (source.stream == StreamTag::Build) != want_build {
                continue;
            }
            let table = catalog.get(&source.table)?;
            for row in table.rows() {
                for out in evaluator.process(source.stream, row)?.outputs {
                    digest.add(out.values());
                }
            }
        }
    }
    Ok(digest)
}

impl<E> Input<E> {
    /// Generates the tables, builds the plan and computes the reference.
    fn build(
        clock: &Clock,
        exp: E,
        catalog: impl FnOnce(&E) -> Catalog,
        plan: impl FnOnce(&E) -> DistributedPlan,
    ) -> Result<Self> {
        let t0 = clock.ns();
        let catalog = catalog(&exp);
        let gen_ns = clock.ns() - t0;
        let plan = plan(&exp);
        let mut tuples = 0;
        for source in &plan.sources {
            tuples += catalog.get(&source.table)?.len() as u64;
        }
        Ok(Input {
            reference: reference(&plan, &catalog)?,
            tuples,
            exp,
            catalog,
            plan,
            gen_ns,
        })
    }

    /// Table generation alone, nanoseconds per input tuple.
    pub fn gen_ns_per_tuple(&self) -> f64 {
        self.gen_ns as f64 / self.tuples.max(1) as f64
    }
}

/// Q1 over `tuples` sequences; the table seed is `--seed`.
pub fn q1_input(clock: &Clock, tuples: usize, seed: u64) -> Result<Input<Q1Experiment>> {
    let exp = Q1Experiment {
        tuples,
        seed,
        ..Default::default()
    };
    Input::build(clock, exp, Q1Experiment::catalog, Q1Experiment::plan)
}

/// Q2 over `sequences` build and `interactions` probe tuples, with the
/// paper's costs and 64 hash buckets.
pub fn q2_input(
    clock: &Clock,
    sequences: usize,
    interactions: usize,
    seed: u64,
) -> Result<Input<Q2Experiment>> {
    let exp = Q2Experiment {
        sequences,
        interactions,
        seed,
        ..Default::default()
    };
    Input::build(clock, exp, Q2Experiment::catalog, Q2Experiment::plan)
}

/// Resolves the one service the workloads call, on workers that rebuild
/// the stage from a wire spec.
pub fn resolver() -> ServiceResolver {
    Arc::new(|name: &str, cost_ms: f64| {
        (name == "EntropyAnalyser")
            .then(|| Arc::new(EntropyAnalyser::new(cost_ms)) as Arc<dyn Service>)
    })
}

/// Q1's stage as the socket workers rebuild it.
pub fn q1_spec(exp: &Q1Experiment) -> WireStageSpec {
    WireStageSpec::ServiceCall {
        input_schema: protein_sequences(1, exp.seq_len, exp.seed).schema().clone(),
        service: "EntropyAnalyser".into(),
        service_cost_ms: exp.ws_cost_ms,
        arg_cols: vec![1],
        output_name: "entropy".into(),
        keep_input: false,
    }
}

/// Q2's stage as the socket workers rebuild it.
pub fn q2_spec(exp: &Q2Experiment) -> WireStageSpec {
    WireStageSpec::HashJoin {
        build_schema: protein_sequences(1, exp.seq_len, exp.seed).schema().clone(),
        probe_schema: protein_interactions(1, 1, exp.seed).schema().clone(),
        build_key: 0,
        probe_key: 0,
        build_cost_ms: exp.build_cost_ms,
        probe_cost_ms: exp.probe_cost_ms,
    }
}

/// Asserts that a null-cost run of `plan` never sleeps: the largest
/// charge any one sleep call can accumulate (a block of tuples at the
/// dearest per-tuple cost, or a producer's rows staged across all
/// destinations) still rounds to a zero `Duration`.
pub fn assert_null_cost(
    plan: &DistributedPlan,
    operator_tuple_ms: f64,
    receive_ms: f64,
) -> Result<()> {
    let stage = &plan.stages[0];
    let scan = plan
        .sources
        .iter()
        .map(|s| s.scan_cost_ms)
        .fold(0.0, f64::max);
    let worst = max_call_model_ms(
        stage.exchange.buffer_tuples,
        stage.nodes.len(),
        scan,
        operator_tuple_ms + receive_ms,
        1.0,
    );
    check_null_cost(worst, NULL_COST_SCALE).map_err(GridError::Config)
}
