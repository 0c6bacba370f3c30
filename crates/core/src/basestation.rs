//! Out-of-network control — the §1 strawman the paper argues against.
//!
//! "One possible approach is out-of-network control of sensors: all
//! sources send data to the base station, where all control signals are
//! computed and sent to destinations." The paper rejects it because (i)
//! round trips grow with network size and (ii) nodes near the base
//! station become bottlenecks and "deplete their energy earlier than
//! other nodes".
//!
//! This module implements that baseline faithfully — batched collection
//! up a shortest-path tree to the station, computation at the station,
//! batched dissemination of the control outputs back down — with per-node
//! energy accounting, so both claims are measurable:
//! [`NodeEnergyLedger::hotspot`] lands at or next to the station, and
//! [`project_lifetime`](crate::metrics::project_lifetime) shows the
//! first-death round arriving much earlier than under in-network control.

use std::collections::BTreeMap;

use m2m_graph::bfs::bfs_distances;
use m2m_graph::spt::ShortestPathTree;
use m2m_graph::NodeId;
use m2m_netsim::Network;

use crate::agg::RAW_VALUE_BYTES;
use crate::metrics::{NodeEnergyLedger, RoundCost};
use crate::spec::AggregationSpec;

/// Size of one computed control output on air (a single float, like a raw
/// reading).
pub const CONTROL_OUTPUT_BYTES: u32 = 4;

/// Picks the base-station node: the node minimizing total hop distance to
/// all others (the 1-median of the hop metric), ties toward the lower id.
/// Real deployments place the station centrally for exactly this reason.
pub fn choose_station(network: &Network) -> NodeId {
    let mut best: Option<(u64, NodeId)> = None;
    for v in network.nodes() {
        let dist = bfs_distances(network.graph(), v);
        let total: u64 = dist
            .iter()
            .map(|d| u64::from(d.unwrap_or(u32::MAX / 2)))
            .sum();
        if best.is_none_or(|(b, _)| total < b) {
            best = Some((total, v));
        }
    }
    best.expect("network has at least one node").1
}

/// The out-of-network plan: every source's collection route and every
/// destination's delivery route, over the station's shortest-path tree.
#[derive(Clone, Debug)]
pub struct BaseStationPlan {
    station: NodeId,
    /// Per directed collection edge (child → parent, toward the station):
    /// number of source values batched across it.
    collection_load: BTreeMap<(NodeId, NodeId), u32>,
    /// Per directed delivery edge (parent → child, away from the
    /// station): number of control outputs batched across it.
    delivery_load: BTreeMap<(NodeId, NodeId), u32>,
}

impl BaseStationPlan {
    /// Builds the plan for a workload. Sources and destinations must be
    /// reachable from the station (true on connected deployments).
    ///
    /// # Panics
    /// Panics if a source or destination cannot reach the station.
    pub fn build(network: &Network, spec: &AggregationSpec, station: NodeId) -> Self {
        let spt = ShortestPathTree::build(network.graph(), station);
        let mut collection_load: BTreeMap<(NodeId, NodeId), u32> = BTreeMap::new();
        for s in spec.all_sources() {
            let path = spt
                .path_to(s)
                .unwrap_or_else(|| panic!("source {s} cannot reach the station"));
            // Collection flows child → parent: reverse the root path.
            for hop in path.windows(2) {
                *collection_load.entry((hop[1], hop[0])).or_insert(0) += 1;
            }
        }
        let mut delivery_load: BTreeMap<(NodeId, NodeId), u32> = BTreeMap::new();
        for d in spec.destinations() {
            let path = spt
                .path_to(d)
                .unwrap_or_else(|| panic!("destination {d} cannot reach the station"));
            for hop in path.windows(2) {
                *delivery_load.entry((hop[0], hop[1])).or_insert(0) += 1;
            }
        }
        BaseStationPlan {
            station,
            collection_load,
            delivery_load,
        }
    }

    /// The station node.
    #[inline]
    pub fn station(&self) -> NodeId {
        self.station
    }

    /// Energy of one control round: one batched message per used
    /// collection edge (carrying every source value routed through it) and
    /// one per used delivery edge (carrying every control output routed
    /// through it), charged per node.
    pub fn round_cost(&self, network: &Network) -> (RoundCost, NodeEnergyLedger) {
        let energy = network.energy();
        let mut cost = RoundCost::default();
        let mut ledger = NodeEnergyLedger::new(network.node_count());
        let mut charge = |edge: (NodeId, NodeId), units: u32, unit_bytes: u32| {
            let body = units * unit_bytes;
            let tx = energy.tx_cost_uj(body);
            let rx = energy.rx_cost_uj(body);
            ledger.charge_tx(edge.0, tx);
            ledger.charge_rx(edge.1, rx);
            cost.tx_uj += tx;
            cost.rx_uj += rx;
            cost.messages += 1;
            cost.units += units as usize;
            cost.payload_bytes += u64::from(body);
        };
        for (&edge, &units) in &self.collection_load {
            charge(edge, units, RAW_VALUE_BYTES);
        }
        for (&edge, &units) in &self.delivery_load {
            charge(edge, units, CONTROL_OUTPUT_BYTES);
        }
        (cost, ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_netsim::Deployment;

    #[test]
    fn station_is_hop_median() {
        // On a 5-node line the median node minimizes total distance.
        let net = Network::with_default_energy(Deployment::grid(5, 1, 10.0, 12.0));
        assert_eq!(choose_station(&net), NodeId(2));
    }

    #[test]
    fn line_collection_costs_one_message_per_hop() {
        let net = Network::with_default_energy(Deployment::grid(4, 1, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        // Destination 0 aggregates source 3; station at 0.
        spec.add_function(
            NodeId(0),
            AggregateFunction::weighted_sum([(NodeId(3), 1.0)]),
        );
        let plan = BaseStationPlan::build(&net, &spec, NodeId(0));
        let (cost, _) = plan.round_cost(&net);
        // 3 collection hops; destination 0 == station, so no delivery.
        assert_eq!(cost.messages, 3);
        assert_eq!(cost.units, 3);
    }

    #[test]
    fn batching_shares_edges() {
        let net = Network::with_default_energy(Deployment::grid(4, 1, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(0),
            AggregateFunction::weighted_sum([(NodeId(2), 1.0), (NodeId(3), 1.0)]),
        );
        let plan = BaseStationPlan::build(&net, &spec, NodeId(0));
        // Edge 1→0 carries both values in ONE message of two units.
        assert_eq!(plan.collection_load[&(NodeId(1), NodeId(0))], 2);
        let (cost, _) = plan.round_cost(&net);
        assert_eq!(cost.messages, 3); // edges 3→2, 2→1, 1→0
        assert_eq!(cost.units, 1 + 2 + 2);
    }

    #[test]
    fn hotspot_sits_next_to_the_station() {
        let net = Network::with_default_energy(Deployment::great_duck_island(3));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(14, 15, 4));
        let station = choose_station(&net);
        let plan = BaseStationPlan::build(&net, &spec, station);
        let (_, ledger) = plan.round_cost(&net);
        let (hot, _) = ledger.hotspot();
        let hops = net.hop_distance(station, hot).unwrap();
        assert!(
            hops <= 1,
            "hotspot {hot} should be the station {station} or adjacent, is {hops} hops away"
        );
    }

    #[test]
    #[should_panic(expected = "cannot reach the station")]
    fn disconnected_source_panics() {
        let net = Network::with_default_energy(Deployment::grid(2, 1, 100.0, 10.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(0),
            AggregateFunction::weighted_sum([(NodeId(1), 1.0)]),
        );
        let _ = BaseStationPlan::build(&net, &spec, NodeId(0));
    }
}
