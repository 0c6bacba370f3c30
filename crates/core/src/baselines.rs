//! The paper's comparison algorithms (§4).
//!
//! * **Multicast** — "simply multicasts raw values to destinations": every
//!   edge carries all its sources raw; aggregation happens only at the
//!   destinations themselves.
//! * **Aggregation** — pure in-network aggregation in the TAG lineage:
//!   every value travels as a destination-specific unit and units for the
//!   same destination merge as soon as their routes converge; there is no
//!   multicast sharing, so a source feeding two destinations pays twice.
//! * **Optimal** — the paper's contribution: the per-edge vertex-cover
//!   balance of the two ([`GlobalPlan::build`]).
//! * **Flood** — "sources flood the entire network using broadcasts";
//!   needs no in-network state. Per the paper, each node delays and
//!   batches, combining every value it relays into one broadcast per
//!   round, so each node transmits one message carrying all source values
//!   and every radio neighbor receives it.
//!
//! The first three produce a [`GlobalPlan`] and run on the same schedule
//! and energy accounting; flood does not route on multicast trees, so its
//! cost is computed directly from the broadcast model.

use std::sync::Arc;

use m2m_netsim::Network;
use m2m_netsim::RoutingTables;

use crate::agg::RAW_VALUE_BYTES;
use crate::edge_opt::{build_edge_problems, price, EdgeSolution};
use crate::metrics::RoundCost;
use crate::plan::GlobalPlan;
use crate::spec::AggregationSpec;
use crate::topo::Topology;

/// The algorithms compared in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's optimal many-to-many aggregation plan.
    Optimal,
    /// Raw multicast only.
    Multicast,
    /// In-network aggregation only.
    Aggregation,
    /// Network-wide flooding with per-node batching.
    Flood,
}

impl Algorithm {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Optimal => "Optimal",
            Algorithm::Multicast => "Multicast",
            Algorithm::Aggregation => "Aggregation",
            Algorithm::Flood => "Flood",
        }
    }

    /// The tree-routed algorithms (everything but flood).
    pub const PLANNED: [Algorithm; 3] = [
        Algorithm::Optimal,
        Algorithm::Multicast,
        Algorithm::Aggregation,
    ];
}

/// Builds the plan a tree-routed algorithm uses.
///
/// # Panics
/// Panics if called with [`Algorithm::Flood`], which has no plan — use
/// [`flood_round_cost`].
pub fn plan_for_algorithm(
    network: &Network,
    spec: &AggregationSpec,
    routing: &RoutingTables,
    algorithm: Algorithm,
) -> GlobalPlan {
    match algorithm {
        Algorithm::Optimal => GlobalPlan::build(network, spec, routing),
        Algorithm::Multicast | Algorithm::Aggregation => {
            let topo = Arc::new(Topology::snapshot(spec, routing));
            let problems = build_edge_problems(&topo);
            let record_bytes = |d| {
                spec.function(d)
                    .expect("function exists")
                    .partial_record_bytes()
            };
            let solutions = problems
                .iter()
                .map(|p| {
                    let (raw, agg) = if algorithm == Algorithm::Multicast {
                        (p.sources.clone(), Vec::new())
                    } else {
                        (Vec::new(), p.groups.clone())
                    };
                    let cost_bytes = price(&raw, &agg, &record_bytes);
                    EdgeSolution {
                        edge: p.edge,
                        raw,
                        agg,
                        cost_bytes,
                    }
                })
                .collect();
            GlobalPlan::from_solutions(spec, topo, problems, solutions)
        }
        Algorithm::Flood => panic!("flood has no multicast-tree plan; use flood_round_cost"),
    }
}

/// Energy of one flood round: every node broadcasts one batched message
/// containing every source value (flooding delivers every value to every
/// node exactly once per round) and receives one such message — the
/// paper's flood "reduces the per-message overhead" with delays/batching
/// and relies on broadcast efficiency, so each node pays for the first
/// copy it hears and suppresses duplicates without powering the radio
/// (ideal duplicate suppression; without it flood would never approach
/// the tree algorithms, contradicting the paper's heavy-workload result).
pub fn flood_round_cost(network: &Network, spec: &AggregationSpec) -> RoundCost {
    let source_count = spec.all_sources().len();
    let body = source_count as u32 * RAW_VALUE_BYTES;
    let mut cost = RoundCost::default();
    if source_count == 0 {
        return cost;
    }
    let energy = network.energy();
    for _ in network.nodes() {
        cost.tx_uj += energy.tx_cost_uj(body);
        cost.rx_uj += energy.rx_cost_uj(body);
        cost.messages += 1;
        cost.units += source_count;
        cost.payload_bytes += u64::from(body);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use crate::schedule::build_schedule;
    use m2m_graph::NodeId;
    use m2m_netsim::{Deployment, RoutingMode};

    fn setup() -> (Network, AggregationSpec, RoutingTables) {
        let net = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(12),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0), (NodeId(2), 1.0)]),
        );
        spec.add_function(
            NodeId(15),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0), (NodeId(6), 1.0)]),
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        (net, spec, routing)
    }

    #[test]
    fn all_planned_algorithms_validate() {
        let (net, spec, routing) = setup();
        for alg in Algorithm::PLANNED {
            let plan = plan_for_algorithm(&net, &spec, &routing, alg);
            plan.validate(&spec, &routing)
                .unwrap_or_else(|e| panic!("{} invalid: {e}", alg.name()));
        }
    }

    #[test]
    fn optimal_payload_never_exceeds_baselines() {
        // Per-edge the optimal cover is at most the all-raw cover
        // (multicast) and at most the all-groups cover (aggregation), so
        // the totals are ordered too.
        let (net, spec, routing) = setup();
        let optimal = plan_for_algorithm(&net, &spec, &routing, Algorithm::Optimal);
        let multicast = plan_for_algorithm(&net, &spec, &routing, Algorithm::Multicast);
        let aggregation = plan_for_algorithm(&net, &spec, &routing, Algorithm::Aggregation);
        assert!(optimal.total_payload_bytes() <= multicast.total_payload_bytes());
        assert!(optimal.total_payload_bytes() <= aggregation.total_payload_bytes());
    }

    #[test]
    fn multicast_plan_has_no_records() {
        let (net, spec, routing) = setup();
        let plan = plan_for_algorithm(&net, &spec, &routing, Algorithm::Multicast);
        assert!(plan.solutions().iter().all(|s| s.agg.is_empty()));
        assert_eq!(plan.repair_count(), 0);
    }

    #[test]
    fn aggregation_plan_has_no_raws() {
        let (net, spec, routing) = setup();
        let plan = plan_for_algorithm(&net, &spec, &routing, Algorithm::Aggregation);
        assert!(plan.solutions().iter().all(|s| s.raw.is_empty()));
    }

    #[test]
    fn baseline_plans_schedule_cleanly() {
        let (net, spec, routing) = setup();
        for alg in Algorithm::PLANNED {
            let plan = plan_for_algorithm(&net, &spec, &routing, alg);
            let schedule =
                build_schedule(&spec, &plan).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert!(!schedule.units.is_empty());
        }
    }

    #[test]
    fn flood_cost_scales_with_sources_and_nodes() {
        let (net, spec, _) = setup();
        let cost = flood_round_cost(&net, &spec);
        assert_eq!(cost.messages, net.node_count());
        // Body = distinct sources × 4 bytes, transmitted once per node.
        let distinct = spec.all_sources().len();
        assert_eq!(distinct, 4); // {0, 1, 2, 6}
        assert_eq!(cost.payload_bytes, (net.node_count() * distinct * 4) as u64);
        assert!(cost.total_uj() > 0.0);
    }

    #[test]
    fn flood_of_empty_spec_is_free() {
        let (net, _, _) = setup();
        let empty = AggregationSpec::new();
        assert_eq!(flood_round_cost(&net, &empty), RoundCost::default());
    }

    #[test]
    #[should_panic(expected = "flood has no multicast-tree plan")]
    fn flood_plan_panics() {
        let (net, spec, routing) = setup();
        let _ = plan_for_algorithm(&net, &spec, &routing, Algorithm::Flood);
    }
}
