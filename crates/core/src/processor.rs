//! The `GridQueryProcessor`: SQL in, adaptive distributed execution out.

use std::sync::Arc;

use gridq_adapt::AdaptivityConfig;
use gridq_common::{QueryId, Result};
use gridq_engine::physical::{execute_local, Catalog};
use gridq_engine::service::{Service, ServiceRegistry};
use gridq_engine::LogicalPlan;
use gridq_grid::GridEnvironment;
use gridq_sim::{ExecutionReport, Simulation, SimulationConfig};
use gridq_sql::plan_sql;
use gridq_workload::EntropyAnalyser;

use crate::scheduler::schedule;

/// Per-tuple receive cost at evaluators (simulation cost model), ms.
const RECEIVE_COST_MS: f64 = 4.5;
/// Simulation seed.
const SEED: u64 = 0x6009;

/// Per-query execution options.
#[derive(Debug, Clone, Default)]
pub struct ExecutionOptions {
    /// Adaptivity configuration (defaults to the paper's defaults with
    /// adaptivity enabled).
    pub adaptivity: AdaptivityConfig,
    /// Whether to keep the full result set in the report.
    pub collect_results: bool,
}

impl ExecutionOptions {
    /// Options with adaptivity disabled (the static system).
    pub fn static_system() -> Self {
        ExecutionOptions {
            adaptivity: AdaptivityConfig::disabled(),
            ..Default::default()
        }
    }

    /// Builder: sets the adaptivity configuration.
    pub fn with_adaptivity(mut self, adaptivity: AdaptivityConfig) -> Self {
        self.adaptivity = adaptivity;
        self
    }

    /// Builder: retains result tuples in the report.
    pub fn keep_results(mut self) -> Self {
        self.collect_results = true;
        self
    }
}

/// The distributed query service: owns the Grid environment, catalog,
/// and service registry, and runs queries end to end.
pub struct GridQueryProcessor {
    env: GridEnvironment,
    catalog: Catalog,
    services: ServiceRegistry,
    next_query: u32,
}

impl GridQueryProcessor {
    /// Creates a processor over an explicit Grid environment.
    pub fn new(env: GridEnvironment) -> Self {
        GridQueryProcessor {
            env,
            catalog: Catalog::new(),
            services: ServiceRegistry::new(),
            next_query: 1,
        }
    }

    /// Creates a processor over a demo Grid: one data node plus
    /// `evaluators` compute nodes on a 100 Mbps LAN, with the
    /// `EntropyAnalyser` web service registered.
    pub fn with_demo_grid(evaluators: usize) -> Self {
        let mut qp = GridQueryProcessor::new(GridEnvironment::demo(evaluators));
        qp.register_service(Arc::new(EntropyAnalyser::new(2.5)));
        qp
    }

    /// Replaces the metadata catalog.
    pub fn register_catalog(&mut self, catalog: Catalog) {
        self.catalog = catalog;
    }

    /// Registers a callable service.
    pub fn register_service(&mut self, service: Arc<dyn Service>) {
        self.services.register(service);
    }

    /// The Grid environment.
    pub fn env(&self) -> &GridEnvironment {
        &self.env
    }

    /// The Grid environment (mutable, e.g. to install perturbations).
    pub fn env_mut(&mut self) -> &mut GridEnvironment {
        &mut self.env
    }

    /// The metadata catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The service registry.
    pub fn services(&self) -> &ServiceRegistry {
        &self.services
    }

    /// Parses and binds SQL into a logical plan.
    pub fn plan(&self, sql: &str) -> Result<LogicalPlan> {
        plan_sql(sql, &self.catalog, &self.services)
    }

    /// Explains a query: the bound logical plan and the schedule.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let logical = self.plan(sql)?;
        let query = QueryId::new(self.next_query);
        let distributed = schedule(query, &logical, self.env.registry(), &self.services)?;
        let stage = &distributed.stages[0];
        let nodes: Vec<String> = stage.nodes.iter().map(ToString::to_string).collect();
        let sources: Vec<String> = distributed
            .sources
            .iter()
            .map(|s| format!("{} on {}", s.table, s.node))
            .collect();
        Ok(format!(
            "Logical plan:\n{}\nSchedule:\n  sources: [{}]\n  stage {}: {} over {} partitions on [{}]\n  collect at {}\n",
            logical.display_tree(),
            sources.join(", "),
            stage.id,
            stage.factory.name(),
            stage.nodes.len(),
            nodes.join(", "),
            distributed.collect_node,
        ))
    }

    /// Runs SQL on the distributed Grid with the configured adaptivity,
    /// returning the execution report.
    pub fn run_sql(&mut self, sql: &str, options: ExecutionOptions) -> Result<ExecutionReport> {
        let logical = self.plan(sql)?;
        let query = QueryId::new(self.next_query);
        self.next_query += 1;
        let distributed = schedule(query, &logical, self.env.registry(), &self.services)?;
        let sim_config = SimulationConfig {
            adaptivity: options.adaptivity,
            receive_cost_ms: RECEIVE_COST_MS,
            collect_results: options.collect_results,
            seed: SEED,
            ..Default::default()
        };
        let sim = Simulation::new(self.env.clone(), self.catalog.clone(), sim_config)?;
        sim.run(&distributed)
    }

    /// Runs SQL locally on a single node (the reference path for result
    /// correctness; also the fallback for plan shapes the scheduler does
    /// not partition).
    pub fn run_local(&self, sql: &str) -> Result<Vec<gridq_common::Tuple>> {
        let logical = self.plan(sql)?;
        execute_local(&logical, &self.catalog, &self.services)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_adapt::{AssessmentPolicy, ResponsePolicy};
    use gridq_common::NodeId;
    use gridq_engine::fixtures::multiset;
    use gridq_grid::Perturbation;
    use gridq_workload::demo_catalog;

    fn processor(evaluators: usize, seqs: usize, inters: usize) -> GridQueryProcessor {
        let mut qp = GridQueryProcessor::with_demo_grid(evaluators);
        qp.register_catalog(demo_catalog(seqs, inters, 32, 11));
        qp
    }

    const Q1: &str = "select EntropyAnalyser(p.sequence) from protein_sequences p";
    const Q2: &str = "select i.ORF2 from protein_sequences p, protein_interactions i \
                      where i.ORF1 = p.ORF";

    #[test]
    fn q1_runs_and_matches_local_reference() {
        let mut qp = processor(2, 120, 150);
        let report = qp
            .run_sql(Q1, ExecutionOptions::static_system().keep_results())
            .unwrap();
        assert_eq!(report.tuples_output, 120);
        let local = qp.run_local(Q1).unwrap();
        assert_eq!(multiset(&report.results), multiset(&local));
    }

    #[test]
    fn q2_runs_and_matches_local_reference() {
        let mut qp = processor(2, 100, 140);
        let report = qp
            .run_sql(Q2, ExecutionOptions::static_system().keep_results())
            .unwrap();
        let local = qp.run_local(Q2).unwrap();
        assert_eq!(report.tuples_output as usize, local.len());
        assert_eq!(multiset(&report.results), multiset(&local));
    }

    #[test]
    fn q2_with_r1_adaptivity_stays_correct_under_perturbation() {
        let mut qp = processor(2, 150, 220);
        qp.env_mut()
            .perturb(NodeId::new(2), Perturbation::SleepMs(12.0));
        let options = ExecutionOptions::default()
            .with_adaptivity(AdaptivityConfig::with_policies(
                AssessmentPolicy::A1,
                ResponsePolicy::R1,
            ))
            .keep_results();
        let report = qp.run_sql(Q2, options).unwrap();
        let local = qp.run_local(Q2).unwrap();
        assert_eq!(multiset(&report.results), multiset(&local));
    }

    #[test]
    fn q2_defaults_to_r1_requirement() {
        // The default response policy is R2; a stateful stage must be
        // rejected rather than silently corrupting results.
        let mut qp = processor(2, 50, 60);
        let err = qp.run_sql(Q2, ExecutionOptions::default()).unwrap_err();
        assert!(err.to_string().contains("retrospective"));
    }

    #[test]
    fn explain_mentions_stage_and_nodes() {
        let qp = processor(3, 10, 10);
        let text = qp.explain(Q1).unwrap();
        assert!(text.contains("op_call"));
        assert!(text.contains("3 partitions"));
        assert!(text.contains("protein_sequences"));
    }

    #[test]
    fn unknown_sql_objects_error_cleanly() {
        let mut qp = processor(2, 10, 10);
        assert!(qp
            .run_sql("select x from nope n", ExecutionOptions::default())
            .is_err());
        assert!(qp
            .run_local("select Nope(p.orf) from protein_sequences p")
            .is_err());
    }

    #[test]
    fn filter_pipeline_is_schedulable() {
        let mut qp = processor(2, 60, 10);
        let sql = "select p.orf from protein_sequences p where p.orf <> 'ORF000000'";
        let report = qp
            .run_sql(sql, ExecutionOptions::static_system().keep_results())
            .unwrap();
        assert_eq!(report.tuples_output, 59);
        let local = qp.run_local(sql).unwrap();
        assert_eq!(multiset(&report.results), multiset(&local));
    }
}
