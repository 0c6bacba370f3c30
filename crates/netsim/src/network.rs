//! The sensor network: deployment + radio graph + energy model.
//!
//! Building a network costs the radio graph and nothing more; there is
//! no all-pairs hop matrix, whose O(n²) time and memory every build would
//! pay. Hop queries run one BFS each, and a caller that needs many
//! distances from one node runs [`m2m_graph::bfs::bfs_distances`] once.

use m2m_graph::bfs::bfs_distances;
use m2m_graph::{Graph, NodeId};

use crate::deployment::Deployment;
use crate::energy::EnergyModel;

/// A simulated sensor network.
///
/// Bundles the deployment geometry, the derived unit-disk radio graph and
/// the energy model.
#[derive(Clone, Debug)]
pub struct Network {
    deployment: Deployment,
    graph: Graph,
    energy: EnergyModel,
}

impl Network {
    /// Builds a network from a deployment with the given energy model.
    pub fn new(deployment: Deployment, energy: EnergyModel) -> Self {
        let _span = m2m_telemetry::span(m2m_telemetry::layer::NETWORK_BUILD);
        let graph = deployment.radio_graph();
        Network {
            deployment,
            graph,
            energy,
        }
    }

    /// Builds a network with the default Mica2 energy model.
    pub fn with_default_energy(deployment: Deployment) -> Self {
        Self::new(deployment, EnergyModel::mica2())
    }

    /// Builds a network from an explicit connectivity graph, bypassing
    /// geometry — used for worked examples (e.g. the paper's Figure 1
    /// topology) and tests that need an exact topology. The deployment is
    /// degenerate (all nodes at the origin).
    pub fn from_graph(graph: Graph, energy: EnergyModel) -> Self {
        let positions = vec![crate::position::Position::new(0.0, 0.0); graph.node_count()];
        let deployment = Deployment::from_positions(positions, 0.0, 0.0, 1.0);
        Network {
            deployment,
            graph,
            energy,
        }
    }

    /// The deployment geometry.
    #[inline]
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The radio connectivity graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The energy model.
    #[inline]
    pub fn energy(&self) -> &EnergyModel {
        &self.energy
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes()
    }

    /// One-hop radio neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.graph.neighbors(v)
    }

    /// Hop distance between two nodes, `None` if disconnected. One BFS
    /// per call.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        bfs_distances(&self.graph, a)[b.index()]
    }

    /// A 64-bit FNV-1a fingerprint of the network: the node count, every
    /// position's x and y bits, and every radio edge in
    /// [`Graph::edges`] order. Two networks of one size with different
    /// positions or links fingerprint differently (up to a hash
    /// collision); checkpoints carry it so restore refuses another network.
    pub fn fingerprint(&self) -> u64 {
        let positions = self.deployment.positions().iter();
        let edges = self.graph.edges();
        std::iter::once(self.node_count() as u64)
            .chain(positions.flat_map(|p| [p.x.to_bits(), p.y.to_bits()]))
            .chain(edges.flat_map(|(a, b)| [u64::from(a.0), u64::from(b.0)]))
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Nodes at exactly `h` hops from `v`, ascending id order. One BFS per
    /// call.
    pub fn nodes_at_hops(&self, v: NodeId, h: u32) -> Vec<NodeId> {
        bfs_distances(&self.graph, v)
            .iter()
            .enumerate()
            .filter(|&(_, d)| *d == Some(h))
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;

    fn line_network() -> Network {
        // 4 nodes in a row, 10 m apart, 12 m range: a path graph.
        Network::with_default_energy(Deployment::grid(4, 1, 10.0, 12.0))
    }

    #[test]
    fn line_topology_hops() {
        let net = line_network();
        assert_eq!(net.hop_distance(NodeId(0), NodeId(3)), Some(3));
        assert_eq!(net.hop_distance(NodeId(1), NodeId(1)), Some(0));
        assert_eq!(net.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
    }

    #[test]
    fn nodes_at_hops_rings() {
        let net = line_network();
        assert_eq!(net.nodes_at_hops(NodeId(0), 2), vec![NodeId(2)]);
        assert_eq!(net.nodes_at_hops(NodeId(1), 1), vec![NodeId(0), NodeId(2)]);
        assert!(net.nodes_at_hops(NodeId(0), 9).is_empty());
    }

    #[test]
    fn disconnected_pairs_have_no_distance() {
        let net = Network::with_default_energy(Deployment::grid(2, 1, 100.0, 10.0));
        assert_eq!(net.hop_distance(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn fingerprints_tell_links_and_positions_apart() {
        let graph = |edges: [(u32, u32); 2]| {
            let mut g = Graph::new(3);
            for (a, b) in edges {
                g.add_edge(NodeId(a), NodeId(b));
            }
            g
        };
        let (path, star) = (graph([(0, 1), (1, 2)]), graph([(0, 1), (0, 2)]));
        let a = Network::from_graph(path.clone(), EnergyModel::mica2());
        let b = Network::from_graph(star, EnergyModel::mica2());
        assert_eq!(a.node_count(), b.node_count());
        assert_ne!(a.fingerprint(), b.fingerprint(), "same size, other links");
        let again = Network::from_graph(path, EnergyModel::mica2());
        assert_eq!(a.fingerprint(), again.fingerprint(), "a pure function");
        // The same radio graph (a 4-neighbour grid) at another spacing.
        let near = Network::with_default_energy(Deployment::grid(5, 5, 10.0, 12.0));
        let far = Network::with_default_energy(Deployment::grid(5, 5, 11.0, 12.0));
        assert_eq!(near.graph().edge_count(), far.graph().edge_count());
        assert_ne!(near.fingerprint(), far.fingerprint(), "other positions");
    }

    #[test]
    fn hop_queries_match_grid_geometry() {
        // Distances on a large and a small grid follow the geometry.
        let big = Network::with_default_energy(Deployment::grid(60, 50, 10.0, 12.0));
        assert_eq!(big.hop_distance(NodeId(0), NodeId(59)), Some(59));
        assert_eq!(big.nodes_at_hops(NodeId(0), 1), vec![NodeId(1), NodeId(60)]);
        let small = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0));
        assert_eq!(small.hop_distance(NodeId(0), NodeId(15)), Some(6));
    }
}
