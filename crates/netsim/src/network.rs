//! The sensor network: deployment + radio graph + energy model.

use m2m_graph::bfs::{all_pairs_hops, bfs_distances, HopDistances};
use m2m_graph::{Graph, NodeId};

use crate::deployment::Deployment;
use crate::energy::EnergyModel;

/// Largest node count for which the all-pairs hop matrix is materialized
/// eagerly. The matrix is O(n²) memory (≈ 800 MB at 10k nodes, fatally
/// more at 100k); above this threshold hop queries fall back to a
/// per-call BFS with identical results. Workload generation at scale uses
/// uniform source selection, which never asks for hop distances.
pub const HOP_MATRIX_MAX_NODES: usize = 2048;

/// A simulated sensor network.
///
/// Bundles the deployment geometry, the derived unit-disk radio graph, the
/// energy model, and — for deployments up to [`HOP_MATRIX_MAX_NODES`]
/// nodes — a cached all-pairs hop-distance matrix (used heavily by
/// workload generation and routing).
#[derive(Clone, Debug)]
pub struct Network {
    deployment: Deployment,
    graph: Graph,
    energy: EnergyModel,
    /// Row `v` holds BFS distances from `v`; empty above the threshold.
    hops: Vec<HopDistances>,
}

fn hops_if_small(graph: &Graph) -> Vec<HopDistances> {
    if graph.node_count() <= HOP_MATRIX_MAX_NODES {
        all_pairs_hops(graph)
    } else {
        Vec::new()
    }
}

impl Network {
    /// Builds a network from a deployment with the given energy model.
    pub fn new(deployment: Deployment, energy: EnergyModel) -> Self {
        let _span = m2m_telemetry::span(m2m_telemetry::layer::NETWORK_BUILD);
        let graph = deployment.radio_graph();
        let hops = hops_if_small(&graph);
        Network {
            deployment,
            graph,
            energy,
            hops,
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
        let hops = hops_if_small(&graph);
        Network {
            deployment,
            graph,
            energy,
            hops,
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

    /// Hop distance between two nodes, `None` if disconnected.
    ///
    /// O(1) from the cached matrix up to [`HOP_MATRIX_MAX_NODES`] nodes;
    /// one BFS per call above it.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if !self.hops.is_empty() {
            self.hops[a.index()][b.index()]
        } else {
            bfs_distances(&self.graph, a)[b.index()]
        }
    }

    /// Nodes at exactly `h` hops from `v`, ascending id order.
    ///
    /// Same matrix-or-BFS behavior as [`Self::hop_distance`].
    pub fn nodes_at_hops(&self, v: NodeId, h: u32) -> Vec<NodeId> {
        let collect = |row: &[Option<u32>]| {
            row.iter()
                .enumerate()
                .filter(|&(_, d)| *d == Some(h))
                .map(|(i, _)| NodeId::from_index(i))
                .collect()
        };
        if !self.hops.is_empty() {
            collect(&self.hops[v.index()])
        } else {
            collect(&bfs_distances(&self.graph, v))
        }
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
    fn hop_queries_agree_across_the_matrix_threshold() {
        // A 60×50 grid (3000 nodes) exceeds HOP_MATRIX_MAX_NODES, so it
        // takes the per-call BFS path; a small grid with the same local
        // structure takes the matrix path. Distances must agree with the
        // geometry either way.
        let big = Network::with_default_energy(Deployment::grid(60, 50, 10.0, 12.0));
        assert!(big.node_count() > HOP_MATRIX_MAX_NODES);
        assert_eq!(big.hop_distance(NodeId(0), NodeId(59)), Some(59));
        assert_eq!(big.nodes_at_hops(NodeId(0), 1), vec![NodeId(1), NodeId(60)]);
        let small = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0));
        assert_eq!(small.hop_distance(NodeId(0), NodeId(15)), Some(6));
    }
}
