//! The complete Grid environment: nodes, network, perturbations, noise.

use std::collections::HashMap;

use gridq_common::{DetRng, GridError, NodeId, Result, SimTime};

use crate::network::NetworkModel;
use crate::node::NodeSpec;
use crate::perturbation::{Perturbation, PerturbationSchedule};
use crate::registry::ResourceRegistry;

/// The environment a query executes in: the registry of nodes, the
/// network between them, each node's perturbation schedule, and a small
/// multiplicative noise term modelling the "slight fluctuations in
/// performance that are inevitable in a real wide-area environment".
#[derive(Debug, Clone)]
pub struct GridEnvironment {
    registry: ResourceRegistry,
    network: NetworkModel,
    perturbations: HashMap<NodeId, PerturbationSchedule>,
    /// Standard deviation of multiplicative cost noise (e.g. `0.03` for
    /// ±3 %); zero disables noise.
    pub cost_noise_sigma: f64,
}

impl GridEnvironment {
    /// Creates an environment over a registry and network, with no
    /// perturbations and mild (2 %) cost noise.
    pub fn new(registry: ResourceRegistry, network: NetworkModel) -> Self {
        GridEnvironment {
            registry,
            network,
            perturbations: HashMap::new(),
            cost_noise_sigma: 0.02,
        }
    }

    /// A convenience environment: one data node (`node0`) plus
    /// `evaluators` compute nodes on a 100 Mbps LAN.
    pub fn demo(evaluators: usize) -> Self {
        let mut registry = ResourceRegistry::new();
        registry
            .register(NodeSpec::data(NodeId::new(0), "datastore"))
            .expect("fresh registry");
        for i in 0..evaluators {
            let id = NodeId::new(i as u32 + 1);
            registry
                .register(NodeSpec::compute(id, format!("eval{i}")))
                .expect("fresh registry");
        }
        GridEnvironment::new(registry, NetworkModel::lan_100mbps())
    }

    /// The resource registry.
    pub fn registry(&self) -> &ResourceRegistry {
        &self.registry
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Sets a node's perturbation schedule.
    pub fn set_perturbation(&mut self, node: NodeId, schedule: PerturbationSchedule) {
        self.perturbations.insert(node, schedule);
    }

    /// Counts installed perturbation phases whose delays/factors are
    /// non-finite. Those phases never perturb (the sample is rejected at
    /// apply time); runs surface this count as the
    /// `env.rejected_perturbations` metric.
    pub fn rejected_perturbation_phases(&self) -> u64 {
        self.perturbations
            .values()
            .map(PerturbationSchedule::non_finite_phases)
            .sum()
    }

    /// Applies a constant perturbation to a node for the whole run.
    pub fn perturb(&mut self, node: NodeId, p: Perturbation) {
        self.set_perturbation(node, PerturbationSchedule::constant(p));
    }

    /// The perturbation active on `node` at time `t`.
    pub fn perturbation_at(&self, node: NodeId, t: SimTime) -> &Perturbation {
        self.perturbations
            .get(&node)
            .map(|s| s.active_at(t))
            .unwrap_or(&Perturbation::None)
    }

    /// The effective cost, in milliseconds, for work with base cost
    /// `base_ms` executed on `node` at time `t`: base cost divided by the
    /// node's speed, perturbed per the node's schedule, with
    /// multiplicative noise applied.
    pub fn effective_cost_ms(
        &self,
        node: NodeId,
        base_ms: f64,
        t: SimTime,
        rng: &mut DetRng,
    ) -> Result<f64> {
        let spec = self
            .registry
            .get(node)
            .map_err(|_| GridError::Execution(format!("cost query for unknown node {node}")))?;
        let scaled = base_ms / spec.speed;
        let perturbed = self.perturbation_at(node, t).apply(scaled, rng);
        let noisy = if self.cost_noise_sigma > 0.0 {
            perturbed * rng.normal(1.0, self.cost_noise_sigma).max(0.1)
        } else {
            perturbed
        };
        Ok(noisy.max(0.0))
    }

    /// Buffer transmission cost between nodes (see
    /// [`NetworkModel::buffer_cost_ms`]).
    pub fn buffer_cost_ms(&self, from: NodeId, to: NodeId, tuples: usize, bytes: usize) -> f64 {
        self.network.buffer_cost_ms(from, to, tuples, bytes)
    }

    /// Control message cost between nodes.
    pub fn control_cost_ms(&self, from: NodeId, to: NodeId) -> f64 {
        self.network.control_cost_ms(from, to)
    }
}

#[cfg(test)]
// Tests compare against stored literals and exactly-representable
// constants, where bit-exact equality is the intended assertion.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn demo_environment_shape() {
        let env = GridEnvironment::demo(2);
        assert_eq!(env.registry().len(), 3);
        assert_eq!(env.registry().data_nodes().len(), 1);
        assert_eq!(env.registry().select_compute_nodes(2).unwrap().len(), 2);
    }

    #[test]
    fn effective_cost_reflects_perturbation() {
        let mut env = GridEnvironment::demo(2);
        env.cost_noise_sigma = 0.0;
        let node = NodeId::new(1);
        let mut rng = DetRng::seeded(3);
        let base = env
            .effective_cost_ms(node, 2.0, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(base, 2.0);
        env.perturb(node, Perturbation::CostFactor(10.0));
        let perturbed = env
            .effective_cost_ms(node, 2.0, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(perturbed, 20.0);
        // Other nodes unaffected.
        let other = env
            .effective_cost_ms(NodeId::new(2), 2.0, SimTime::ZERO, &mut rng)
            .unwrap();
        assert_eq!(other, 2.0);
    }

    #[test]
    fn noise_perturbs_mildly() {
        let env = GridEnvironment::demo(1);
        let mut rng = DetRng::seeded(4);
        let n = 10_000;
        let node = NodeId::new(1);
        let mean: f64 = (0..n)
            .map(|_| {
                env.effective_cost_ms(node, 1.0, SimTime::ZERO, &mut rng)
                    .unwrap()
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn unknown_node_cost_errors() {
        let env = GridEnvironment::demo(1);
        let mut rng = DetRng::seeded(5);
        assert!(env
            .effective_cost_ms(NodeId::new(9), 1.0, SimTime::ZERO, &mut rng)
            .is_err());
    }

    #[test]
    fn schedule_switches_over_time() {
        let mut env = GridEnvironment::demo(1);
        env.cost_noise_sigma = 0.0;
        let node = NodeId::new(1);
        env.set_perturbation(
            node,
            PerturbationSchedule::none()
                .then_at(SimTime::from_millis(100.0), Perturbation::SleepMs(10.0)),
        );
        let mut rng = DetRng::seeded(6);
        let before = env
            .effective_cost_ms(node, 1.0, SimTime::from_millis(50.0), &mut rng)
            .unwrap();
        let after = env
            .effective_cost_ms(node, 1.0, SimTime::from_millis(150.0), &mut rng)
            .unwrap();
        assert_eq!(before, 1.0);
        assert_eq!(after, 11.0);
    }
}
