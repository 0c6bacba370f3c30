//! Critical-link analysis for §3, "Handling Failures".
//!
//! The paper's fully specified routes require "reliable message delivery
//! on every hop (using acknowledgments and retransmissions)"; milestone
//! routing relaxes that only where a detour exists. This module finds
//! the links with no detour and the plan traffic that crosses them. The
//! rounds themselves run under loss in [`crate::faults::FaultyExec`],
//! whose makespan, retransmissions and energy grow with the failure
//! rate when every hop is pinned — the §3 motivation for milestones.

use m2m_graph::bridges::bridges;
use m2m_graph::NodeId;
use m2m_netsim::Network;

use crate::schedule::Schedule;

/// Radio links the communication layer cannot route around: the bridges
/// of the connectivity graph. Milestone routing (§3) only helps where a
/// detour exists; a deployment review should treat these links — and any
/// plan traffic crossing them — as the dominant failure risk.
pub fn critical_links(network: &Network) -> Vec<(NodeId, NodeId)> {
    bridges(network.graph())
}

/// The subset of a schedule's messages that cross a critical link
/// (in either direction), as indices into `schedule.messages`.
pub fn messages_on_critical_links(network: &Network, schedule: &Schedule) -> Vec<usize> {
    let critical = critical_links(network);
    schedule
        .messages
        .iter()
        .enumerate()
        .filter(|(_, m)| {
            let (a, b) = m.edge;
            let key = if a < b { (a, b) } else { (b, a) };
            critical.binary_search(&key).is_ok()
        })
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::CompiledSchedule;
    use crate::faults::{FaultOutcome, FaultyExec, RetryPolicy};
    use crate::plan::GlobalPlan;
    use crate::slots::assign_slots;
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_netsim::failure::DeliveryModel;
    use m2m_netsim::{Deployment, RoutingMode, RoutingTables};

    fn setup() -> (Network, CompiledSchedule) {
        let net = Network::with_default_energy(Deployment::great_duck_island(6));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(8, 10, 2));
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let compiled = CompiledSchedule::compile(&net, &spec, &plan).unwrap();
        (net, compiled)
    }

    /// One round of `compiled` under `model` with unlimited retries, on
    /// a fresh engine and scratch.
    fn one_round(
        net: &Network,
        compiled: &CompiledSchedule,
        model: &DeliveryModel,
        salt: u64,
        max_slots: u32,
    ) -> FaultOutcome {
        let engine = FaultyExec::new(net, compiled);
        let readings = vec![1.0; compiled.sources().len()];
        let policy = RetryPolicy::unlimited(max_slots);
        engine.run(&readings, model, &policy, salt, &mut engine.scratch())
    }

    #[test]
    fn reliable_links_match_the_static_schedule() {
        let (net, compiled) = setup();
        let out = one_round(&net, &compiled, &DeliveryModel::reliable(), 0, 10_000);
        assert!(out.delivered);
        assert_eq!(out.retransmissions, 0);
        let slots = assign_slots(&net, compiled.schedule());
        assert_eq!(out.slots_used, slots.slot_count);
        let baseline = compiled.schedule().round_cost(net.energy());
        assert!((out.cost.total_uj() - baseline.total_uj()).abs() < 1e-6);
        assert_eq!(out.cost.messages, baseline.messages);
    }

    #[test]
    fn fault_engine_reuse_matches_one_shot() {
        let (net, compiled) = setup();
        let engine = FaultyExec::new(&net, &compiled);
        let mut scratch = engine.scratch();
        let readings = vec![1.0; compiled.sources().len()];
        let policy = RetryPolicy::unlimited(10_000);
        let flaky = DeliveryModel::uniform(0.3, 5);
        for salt in [0u64, 7, 99] {
            let fresh = one_round(&net, &compiled, &flaky, salt, 10_000);
            let reused = engine.run(&readings, &flaky, &policy, salt, &mut scratch);
            assert_eq!(fresh, reused, "salt={salt}");
        }
    }

    #[test]
    fn energy_grows_with_failure_rate() {
        let (net, compiled) = setup();
        let engine = FaultyExec::new(&net, &compiled);
        let batch = vec![vec![1.0; compiled.sources().len()]; 10];
        let policy = RetryPolicy::unlimited(10_000);
        let mut previous = 0.0;
        for p in [0.0, 0.2, 0.4] {
            let model = DeliveryModel::uniform(p, 9);
            let outcomes = engine.run_rounds(&batch, &model, &policy, 0, 1);
            assert!(
                outcomes.iter().all(|o| o.delivered),
                "p={p} must still deliver eventually"
            );
            let energy = outcomes.iter().map(|o| o.cost.total_uj()).sum::<f64>() / 10.0;
            assert!(energy >= previous, "energy must grow with p (p={p})");
            previous = energy;
        }
    }

    #[test]
    fn critical_links_on_a_line_are_every_link() {
        let net = Network::with_default_energy(Deployment::grid(4, 1, 10.0, 12.0));
        assert_eq!(critical_links(&net).len(), 3);
    }

    #[test]
    fn critical_message_detection() {
        // A line network forces every message over critical links.
        let net = Network::with_default_energy(Deployment::grid(5, 1, 10.0, 12.0));
        let mut spec = crate::spec::AggregationSpec::new();
        spec.add_function(
            m2m_graph::NodeId(4),
            crate::agg::AggregateFunction::weighted_sum([(m2m_graph::NodeId(0), 1.0)]),
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let compiled = CompiledSchedule::compile(&net, &spec, &plan).unwrap();
        let critical = messages_on_critical_links(&net, compiled.schedule());
        assert_eq!(critical.len(), compiled.schedule().messages.len());
    }

    #[test]
    fn dense_networks_have_few_critical_messages() {
        let (net, compiled) = setup();
        let critical = messages_on_critical_links(&net, compiled.schedule());
        // The GDI layout is well-connected; only a small fraction of
        // traffic should ride bridges.
        assert!(
            critical.len() * 4 <= compiled.schedule().messages.len(),
            "{} of {} messages on bridges",
            critical.len(),
            compiled.schedule().messages.len()
        );
    }

    #[test]
    fn slot_budget_can_be_exhausted() {
        let (net, compiled) = setup();
        let hopeless = DeliveryModel::uniform(1.0, 2);
        let out = one_round(&net, &compiled, &hopeless, 3, 50);
        assert!(!out.delivered);
        assert_eq!(out.cost.messages, 0);
        assert!(out.retransmissions > 0);
    }
}
