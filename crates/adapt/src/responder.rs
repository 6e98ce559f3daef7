//! The Responder: the response stage.
//!
//! "The Responder receives notifications about imbalance from the
//! Diagnoser in the form of proposed enhanced workload distribution
//! vectors W'. To decide whether to accept this proposal, it contacts all
//! the evaluators that produce data to estimate the progress of
//! execution. If the execution is not close to completion, it notifies
//! the evaluators that need to change their distribution policy, and the
//! Diagnosers that need to update the information about the current tuple
//! distribution."

use std::sync::Arc;

use gridq_common::obs::{MetricSink, NullSink};
use gridq_common::{DistributionVector, SimTime, SubplanId};

use crate::config::{AdaptivityConfig, ResponsePolicy, COOLDOWN_MS};
use crate::diagnoser::Imbalance;

/// The command issued to the execution substrate when a proposal is
/// accepted.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationCommand {
    /// The stage whose exchange routing changes.
    pub stage: SubplanId,
    /// The new distribution `W'` to deploy.
    pub new_distribution: DistributionVector,
    /// When true (R1), producers additionally recall the unacknowledged
    /// tuples from their recovery logs and redistribute them (recreating
    /// operator state on the new owners); when false (R2) only future
    /// tuples are affected.
    pub retrospective: bool,
    /// Decision time.
    pub at: SimTime,
}

/// Why a proposal was declined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponderDecision {
    /// The proposal was deployed.
    Accepted,
    /// The query was too close to completion for the adaptation to pay
    /// off.
    NearCompletion,
    /// A previous adaptation was deployed too recently.
    CoolingDown,
}

impl ResponderDecision {
    /// A stable string label for logs and timeline export.
    pub fn as_str(&self) -> &'static str {
        match self {
            ResponderDecision::Accepted => "accepted",
            ResponderDecision::NearCompletion => "declined_near_completion",
            ResponderDecision::CoolingDown => "declined_cooldown",
        }
    }
}

/// Accepts or declines imbalance proposals.
#[derive(Debug)]
pub struct Responder {
    response: ResponsePolicy,
    progress_cutoff: f64,
    last_adaptation: Option<SimTime>,
    sink: Arc<dyn MetricSink>,
    /// Proposals received.
    pub proposals_received: u64,
    /// Adaptations deployed.
    pub adaptations_deployed: u64,
    /// Proposals declined near completion.
    pub declined_near_completion: u64,
    /// Proposals declined during cooldown.
    pub declined_cooldown: u64,
    /// Deploy acknowledgements received from the execution substrate.
    pub deploys_acknowledged: u64,
    /// Node-failure failovers accepted (never declined).
    pub node_failovers: u64,
}

impl Responder {
    /// Creates a responder with the configured policy and gates.
    pub fn new(config: &AdaptivityConfig) -> Self {
        Responder {
            response: config.response,
            progress_cutoff: config.progress_cutoff,
            last_adaptation: None,
            sink: Arc::new(NullSink),
            proposals_received: 0,
            adaptations_deployed: 0,
            declined_near_completion: 0,
            declined_cooldown: 0,
            deploys_acknowledged: 0,
            node_failovers: 0,
        }
    }

    /// Attaches a metrics sink; `NullSink` is used until one is set.
    pub fn set_metric_sink(&mut self, sink: Arc<dyn MetricSink>) {
        self.sink = sink;
    }

    /// The configured response policy.
    pub fn policy(&self) -> ResponsePolicy {
        self.response
    }

    /// Considers an imbalance proposal. `progress` is the estimated
    /// fraction of the query's input already routed (obtained from the
    /// producing evaluators). Returns the command to deploy, if accepted.
    pub fn on_imbalance(
        &mut self,
        imbalance: &Imbalance,
        progress: f64,
    ) -> (ResponderDecision, Option<AdaptationCommand>) {
        self.proposals_received += 1;
        self.sink.incr("responder.proposals", 1);
        if progress >= self.progress_cutoff {
            self.declined_near_completion += 1;
            self.sink.incr("responder.declined_near_completion", 1);
            return (ResponderDecision::NearCompletion, None);
        }
        if let Some(last) = self.last_adaptation {
            if imbalance.at.since(last) < COOLDOWN_MS {
                self.declined_cooldown += 1;
                self.sink.incr("responder.declined_cooldown", 1);
                return (ResponderDecision::CoolingDown, None);
            }
        }
        self.last_adaptation = Some(imbalance.at);
        self.adaptations_deployed += 1;
        self.sink.incr("responder.deployed", 1);
        let command = AdaptationCommand {
            stage: imbalance.stage,
            new_distribution: imbalance.proposed.clone(),
            retrospective: self.response == ResponsePolicy::R1,
            at: imbalance.at,
        };
        (ResponderDecision::Accepted, Some(command))
    }

    /// Reports that the execution substrate finished applying a deployed
    /// command at `at`. A retrospective recall takes real time, so the
    /// cooldown restarts from completion rather than from the decision —
    /// otherwise a second adaptation could be accepted while the first
    /// recall is still migrating state.
    pub fn on_deploy_acknowledged(&mut self, at: SimTime) {
        self.deploys_acknowledged += 1;
        self.sink.incr("responder.deploys_acknowledged", 1);
        match self.last_adaptation {
            Some(last) if at.since(last) <= 0.0 => {}
            _ => self.last_adaptation = Some(at),
        }
    }

    /// Records a node-failure failover decision. Unlike a performance
    /// proposal this is never declined: the progress cutoff and the
    /// cooldown do not apply, because a dead partition processes nothing
    /// no matter how close the query is to completion or how recently a
    /// rebalance ran. It does *restart* the cooldown, so a performance
    /// rebalance cannot fire while the failover recall is still
    /// migrating state.
    pub fn on_node_failure(&mut self, at: SimTime) {
        self.node_failovers += 1;
        self.sink.incr("responder.node_failovers", 1);
        match self.last_adaptation {
            Some(last) if at.since(last) <= 0.0 => {}
            _ => self.last_adaptation = Some(at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AssessmentPolicy;

    fn imbalance(at_ms: f64) -> Imbalance {
        Imbalance {
            stage: SubplanId::new(1),
            proposed: DistributionVector::new(&[0.9, 0.1]).unwrap(),
            costs: vec![1.0, 9.0],
            at: SimTime::from_millis(at_ms),
        }
    }

    #[test]
    fn accepts_and_reports_policy() {
        let config = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1);
        let mut r = Responder::new(&config);
        let (decision, cmd) = r.on_imbalance(&imbalance(100.0), 0.3);
        assert_eq!(decision, ResponderDecision::Accepted);
        let cmd = cmd.unwrap();
        assert!(cmd.retrospective);
        assert_eq!(cmd.stage, SubplanId::new(1));
        assert_eq!(r.adaptations_deployed, 1);
    }

    #[test]
    fn prospective_commands_are_not_retrospective() {
        let config = AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R2);
        let mut r = Responder::new(&config);
        let (_, cmd) = r.on_imbalance(&imbalance(100.0), 0.3);
        assert!(!cmd.unwrap().retrospective);
    }

    #[test]
    fn declines_near_completion() {
        let mut r = Responder::new(&AdaptivityConfig::default());
        let (decision, cmd) = r.on_imbalance(&imbalance(100.0), 0.99);
        assert_eq!(decision, ResponderDecision::NearCompletion);
        assert!(cmd.is_none());
        assert_eq!(r.declined_near_completion, 1);
        assert_eq!(r.adaptations_deployed, 0);
    }

    #[test]
    fn cooldown_gates_back_to_back_adaptations() {
        let mut r = Responder::new(&AdaptivityConfig::default());
        let (d1, _) = r.on_imbalance(&imbalance(10.0), 0.1);
        assert_eq!(d1, ResponderDecision::Accepted);
        let (d2, _) = r.on_imbalance(&imbalance(10.0 + COOLDOWN_MS / 2.0), 0.1);
        assert_eq!(d2, ResponderDecision::CoolingDown);
        let (d3, _) = r.on_imbalance(&imbalance(10.0 + 2.0 * COOLDOWN_MS), 0.1);
        assert_eq!(d3, ResponderDecision::Accepted);
        assert_eq!(r.proposals_received, 3);
        assert_eq!(r.adaptations_deployed, 2);
        assert_eq!(r.declined_cooldown, 1);
    }

    #[test]
    fn proposal_exactly_at_cooldown_boundary_is_accepted() {
        // Pins the boundary semantics: the gate is `since(last) <
        // COOLDOWN_MS`, so a proposal arriving just before the cooldown
        // ends is declined and one arriving *exactly* COOLDOWN_MS after
        // the last deploy is accepted.
        let mut r = Responder::new(&AdaptivityConfig::default());
        let (d1, _) = r.on_imbalance(&imbalance(10.0), 0.1);
        assert_eq!(d1, ResponderDecision::Accepted);
        let (d2, _) = r.on_imbalance(&imbalance(10.0 + COOLDOWN_MS - 0.001), 0.1);
        assert_eq!(d2, ResponderDecision::CoolingDown);
        let (d3, _) = r.on_imbalance(&imbalance(10.0 + COOLDOWN_MS), 0.1);
        assert_eq!(d3, ResponderDecision::Accepted);
        assert_eq!(r.declined_cooldown, 1);
    }

    #[test]
    fn deploy_ack_restarts_cooldown_from_completion() {
        let mut r = Responder::new(&AdaptivityConfig::default());
        let (d1, _) = r.on_imbalance(&imbalance(10.0), 0.1);
        assert_eq!(d1, ResponderDecision::Accepted);
        // The recall realising the deploy finishes 0.8 cooldowns later.
        let done = 10.0 + 0.8 * COOLDOWN_MS;
        r.on_deploy_acknowledged(SimTime::from_millis(done));
        assert_eq!(r.deploys_acknowledged, 1);
        // A whole cooldown after the decision but not after completion:
        // still cooling down.
        let (d2, _) = r.on_imbalance(&imbalance(10.0 + 1.2 * COOLDOWN_MS), 0.1);
        assert_eq!(d2, ResponderDecision::CoolingDown);
        let (d3, _) = r.on_imbalance(&imbalance(done + COOLDOWN_MS), 0.1);
        assert_eq!(d3, ResponderDecision::Accepted);
    }

    #[test]
    fn stale_deploy_ack_never_rewinds_cooldown() {
        let mut r = Responder::new(&AdaptivityConfig::default());
        let (d1, _) = r.on_imbalance(&imbalance(200.0), 0.1);
        assert_eq!(d1, ResponderDecision::Accepted);
        // An acknowledgement carrying an older timestamp (clock skew,
        // late delivery) must not shorten the cooldown window.
        r.on_deploy_acknowledged(SimTime::from_millis(200.0 - 3.0 * COOLDOWN_MS));
        let (d2, _) = r.on_imbalance(&imbalance(200.0 + COOLDOWN_MS / 2.0), 0.1);
        assert_eq!(d2, ResponderDecision::CoolingDown);
    }

    #[test]
    fn node_failure_bypasses_gates_but_restarts_cooldown() {
        let mut r = Responder::new(&AdaptivityConfig::default());
        let (d1, _) = r.on_imbalance(&imbalance(10.0), 0.1);
        assert_eq!(d1, ResponderDecision::Accepted);
        // Deep inside the cooldown a node dies. The failover is accepted
        // unconditionally...
        let failed = 10.0 + 0.4 * COOLDOWN_MS;
        r.on_node_failure(SimTime::from_millis(failed));
        assert_eq!(r.node_failovers, 1);
        // ...and restarts the cooldown: a performance proposal more than
        // a cooldown after the original deploy (but not after the
        // failover) is still declined.
        let (d2, _) = r.on_imbalance(&imbalance(10.0 + 1.2 * COOLDOWN_MS), 0.1);
        assert_eq!(d2, ResponderDecision::CoolingDown);
        let (d3, _) = r.on_imbalance(&imbalance(failed + COOLDOWN_MS), 0.1);
        assert_eq!(d3, ResponderDecision::Accepted);
        // A failover stamped in the past never rewinds the cooldown.
        r.on_node_failure(SimTime::from_millis(failed));
        let (d4, _) = r.on_imbalance(&imbalance(failed + 1.4 * COOLDOWN_MS), 0.1);
        assert_eq!(d4, ResponderDecision::CoolingDown);
    }

    #[test]
    fn decision_labels_are_stable() {
        assert_eq!(ResponderDecision::Accepted.as_str(), "accepted");
        assert_eq!(
            ResponderDecision::NearCompletion.as_str(),
            "declined_near_completion"
        );
        assert_eq!(ResponderDecision::CoolingDown.as_str(), "declined_cooldown");
    }
}
