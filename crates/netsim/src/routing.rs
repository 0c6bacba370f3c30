//! Multicast routing for many-to-many aggregation.
//!
//! §2.1 fixes a multicast tree per source, rooted at the source and
//! spanning its destinations, subject to two restrictions: *minimality*
//! (pruning) and *path sharing* (two directed i→…→j paths in different
//! trees are identical). §4 builds the trees with "a standard algorithm for
//! constructing single-source multicast trees", which encourages but does
//! not guarantee sharing. We implement both:
//!
//! * [`RoutingMode::ShortestPathTrees`] — the paper's experimental setup:
//!   a canonical per-source BFS shortest-path tree pruned to the source's
//!   destinations,
//! * [`RoutingMode::SharedSpanningTree`] — all routes constrained to one
//!   global spanning tree, so the sharing restriction holds *by
//!   construction* (any i→j path in any tree is the unique tree path).
//!   This is the mode under which Theorem 1 applies unconditionally; it is
//!   used by the property tests and available to library users who want
//!   the guarantee at the cost of longer routes,
//! * [`RoutingMode::SteinerTrees`] — per-source Takahashi–Matsuyama
//!   Steiner trees, trading route length for fewer tree edges; the
//!   direction the paper's Figure 5 discussion points at.
//!
//! All three modes, and link-quality routing
//! ([`crate::quality::weighted_routing`]), build straight into a flat
//! [`RoutingForest`] (see [`crate::forest`]): per-tree state lives in
//! shared CSR slabs sized by Σ|T_s| instead of one node-count-sized
//! parent vector per source, and queries go through the borrowing
//! [`TreeView`]. Pre-built [`MulticastTree`]s (milestone routing's
//! virtual trees) enter through [`RoutingTables::from_trees`].

use std::collections::BTreeMap;

use m2m_graph::spt::MulticastTree;
use m2m_graph::NodeId;

pub use crate::forest::TreeView;
use crate::forest::{build_shared_forest, build_spt_forest, build_steiner_forest, RoutingForest};
use crate::network::Network;

/// Telemetry counter: routing-table constructions.
pub const ROUTING_BUILDS: &str = "routing.builds";
/// Telemetry counter: multicast trees constructed across all builds.
pub const ROUTING_TREES: &str = "routing.trees";
/// Telemetry counter: directed tree edges summed across all builds
/// (the paper's `Σ|T_s|` state bound, Theorem 3).
pub const ROUTING_TREE_EDGES: &str = "routing.tree_edges";

/// How multicast trees are constructed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum RoutingMode {
    /// Per-source canonical shortest-path trees (the paper's §4 setup).
    #[default]
    ShortestPathTrees,
    /// All routes restricted to a single global spanning tree; satisfies
    /// the §2.1 path-sharing restriction by construction.
    SharedSpanningTree,
    /// Per-source Takahashi–Matsuyama Steiner trees: fewer edges per tree
    /// (terminals attach to the nearest point of the growing tree) at the
    /// cost of longer individual routes. Addresses the tree-construction
    /// artifact the paper observes in its Figure 5 discussion.
    SteinerTrees,
}

impl RoutingMode {
    /// Every mode, in declaration order.
    pub const ALL: [RoutingMode; 3] = [
        RoutingMode::ShortestPathTrees,
        RoutingMode::SharedSpanningTree,
        RoutingMode::SteinerTrees,
    ];

    /// The mode's short name (checkpoints, the `scenario` CLI);
    /// `parse(name)` round-trips.
    pub fn name(self) -> &'static str {
        match self {
            RoutingMode::ShortestPathTrees => "spt",
            RoutingMode::SharedSpanningTree => "shared",
            RoutingMode::SteinerTrees => "steiner",
        }
    }

    /// The mode [`RoutingMode::name`] calls `name`, if any.
    pub fn parse(name: &str) -> Option<RoutingMode> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// The multicast trees for a workload: one per source, packed into a
/// [`RoutingForest`].
#[derive(Clone, Debug)]
pub struct RoutingTables {
    mode: RoutingMode,
    forest: RoutingForest,
    /// All distinct directed physical edges used by any tree, sorted —
    /// computed once at construction (trees are immutable afterwards).
    directed_edges: Vec<(NodeId, NodeId)>,
}

impl RoutingTables {
    /// Builds multicast trees for every `(source, destinations)` demand.
    ///
    /// Destinations unreachable from their source are dropped from the
    /// tree (and therefore from the plan); with connected deployments this
    /// does not occur.
    pub fn build(
        network: &Network,
        demands: &BTreeMap<NodeId, Vec<NodeId>>,
        mode: RoutingMode,
    ) -> Self {
        let _span = m2m_telemetry::span(m2m_telemetry::layer::ROUTING_BUILD);
        let forest = match mode {
            RoutingMode::ShortestPathTrees => build_spt_forest(network.graph(), demands),
            RoutingMode::SharedSpanningTree => build_shared_forest(network.graph(), demands),
            RoutingMode::SteinerTrees => build_steiner_forest(network.graph(), demands),
        };
        Self::from_forest(mode, forest)
    }

    /// Builds routing tables directly from pre-constructed trees (used by
    /// milestone routing, which synthesizes *virtual* trees whose edges
    /// are not radio links).
    pub fn from_trees(mode: RoutingMode, trees: BTreeMap<NodeId, MulticastTree>) -> Self {
        Self::from_forest(mode, RoutingForest::from_trees(&trees))
    }

    /// Builds routing tables around an already-packed forest.
    pub fn from_forest(mode: RoutingMode, forest: RoutingForest) -> Self {
        let mut directed_edges: Vec<(NodeId, NodeId)> =
            forest.trees().flat_map(|(_, t)| t.edges()).collect();
        directed_edges.sort_unstable();
        directed_edges.dedup();
        if m2m_telemetry::enabled() {
            m2m_telemetry::counter(ROUTING_BUILDS, 1);
            m2m_telemetry::counter(ROUTING_TREES, forest.source_count() as u64);
            let tree_edges: usize = forest
                .trees()
                .map(|(_, t)| t.size().saturating_sub(1))
                .sum();
            m2m_telemetry::counter(ROUTING_TREE_EDGES, tree_edges as u64);
        }
        RoutingTables {
            mode,
            forest,
            directed_edges,
        }
    }

    /// The routing mode the tables were built with.
    #[inline]
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// The packed forest backing these tables.
    #[inline]
    pub fn forest(&self) -> &RoutingForest {
        &self.forest
    }

    /// The multicast tree rooted at `source`, if that source has demands.
    pub fn tree(&self, source: NodeId) -> Option<TreeView<'_>> {
        self.forest.tree(source)
    }

    /// Iterator over `(source, tree)` pairs in ascending source order.
    pub fn trees(&self) -> impl Iterator<Item = (NodeId, TreeView<'_>)> {
        self.forest.trees()
    }

    /// Number of sources with routing state.
    #[inline]
    pub fn source_count(&self) -> usize {
        self.forest.source_count()
    }

    /// Sum of tree sizes, the paper's `Σ|T_s|` (Theorem 3).
    pub fn total_tree_size(&self) -> usize {
        self.forest.total_tree_size()
    }

    /// All distinct directed physical edges used by any tree, sorted.
    /// Cached at construction — calling this in a loop is free.
    #[inline]
    pub fn directed_edges(&self) -> &[(NodeId, NodeId)] {
        &self.directed_edges
    }

    /// Resident bytes of the routing state's backing storage, for the
    /// scaling benchmark's per-stage memory column.
    pub fn slab_bytes(&self) -> usize {
        self.forest.slab_bytes()
            + self.directed_edges.len() * std::mem::size_of::<(NodeId, NodeId)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::network::Network;

    fn grid_network() -> Network {
        // 4×4 grid, 10 m spacing, 12 m range (no diagonals).
        Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0))
    }

    fn demands(pairs: &[(u32, &[u32])]) -> BTreeMap<NodeId, Vec<NodeId>> {
        pairs
            .iter()
            .map(|&(s, ds)| (NodeId(s), ds.iter().map(|&d| NodeId(d)).collect()))
            .collect()
    }

    #[test]
    fn every_mode_name_round_trips() {
        for mode in RoutingMode::ALL {
            assert_eq!(RoutingMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(RoutingMode::parse("sst"), None);
    }

    #[test]
    fn spt_mode_builds_shortest_routes() {
        let net = grid_network();
        let d = demands(&[(0, &[15])]);
        let rt = RoutingTables::build(&net, &d, RoutingMode::ShortestPathTrees);
        let tree = rt.tree(NodeId(0)).unwrap();
        let path = tree.path_to(NodeId(15)).unwrap();
        assert_eq!(
            path.len() as u32 - 1,
            net.hop_distance(NodeId(0), NodeId(15)).unwrap()
        );
    }

    #[test]
    fn shared_mode_paths_live_on_one_tree() {
        let net = grid_network();
        let d = demands(&[(0, &[15]), (3, &[12])]);
        let rt = RoutingTables::build(&net, &d, RoutingMode::SharedSpanningTree);
        // Collect the undirected edges used by each tree; they must all be
        // edges of the single global spanning tree, which has n-1 edges.
        let mut undirected: Vec<(NodeId, NodeId)> = rt
            .directed_edges()
            .iter()
            .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        undirected.sort_unstable();
        undirected.dedup();
        assert!(undirected.len() < net.node_count());
    }

    #[test]
    fn shared_mode_sharing_restriction_holds() {
        // For every pair of trees and every ordered node pair (i, j)
        // reachable in both, the directed paths must be identical (§2.1).
        let net = grid_network();
        let d = demands(&[(0, &[15, 12]), (3, &[12, 15]), (5, &[10, 15])]);
        let rt = RoutingTables::build(&net, &d, RoutingMode::SharedSpanningTree);
        let trees: Vec<_> = rt.trees().map(|(_, t)| t).collect();
        let path_between = |t: &TreeView<'_>, i: NodeId, j: NodeId| -> Option<Vec<NodeId>> {
            // Directed path i→j within the tree: j's root path must pass i.
            let pj = t.path_to(j)?;
            let pos = pj.iter().position(|&v| v == i)?;
            Some(pj[pos..].to_vec())
        };
        for a in 0..trees.len() {
            for b in (a + 1)..trees.len() {
                for &i in trees[a].nodes() {
                    for &j in trees[a].nodes() {
                        if i == j {
                            continue;
                        }
                        if let (Some(pa), Some(pb)) =
                            (path_between(&trees[a], i, j), path_between(&trees[b], i, j))
                        {
                            assert_eq!(pa, pb, "paths {i}→{j} differ between trees");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn steiner_mode_uses_no_more_edges_than_spt() {
        let net = grid_network();
        // Sources at two corners, each multicasting to the far column —
        // the regime where a Steiner tree shares a spine.
        let d = demands(&[(0, &[12, 13, 14, 15]), (3, &[12, 13, 14, 15])]);
        let spt = RoutingTables::build(&net, &d, RoutingMode::ShortestPathTrees);
        let steiner = RoutingTables::build(&net, &d, RoutingMode::SteinerTrees);
        assert!(steiner.total_tree_size() <= spt.total_tree_size());
        // Steiner trees still span every destination.
        for (_, tree) in steiner.trees() {
            assert_eq!(tree.destinations().len(), 4);
        }
    }

    #[test]
    fn trees_span_exactly_their_destinations() {
        let net = grid_network();
        let d = demands(&[(5, &[0, 3, 15])]);
        for mode in [
            RoutingMode::ShortestPathTrees,
            RoutingMode::SharedSpanningTree,
            RoutingMode::SteinerTrees,
        ] {
            let rt = RoutingTables::build(&net, &d, mode);
            let tree = rt.tree(NodeId(5)).unwrap();
            assert_eq!(tree.destinations(), &[NodeId(0), NodeId(3), NodeId(15)]);
            for &dest in tree.destinations() {
                assert!(tree.path_to(dest).is_some());
            }
        }
    }

    #[test]
    fn directed_edges_deduplicate_across_trees() {
        let net = grid_network();
        // Sources 0 and 1 both route to 15; their trees share edges.
        let d = demands(&[(0, &[15]), (1, &[15])]);
        let rt = RoutingTables::build(&net, &d, RoutingMode::ShortestPathTrees);
        let edges = rt.directed_edges();
        let mut sorted = edges.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(edges, sorted.as_slice());
    }

    #[test]
    fn source_equal_to_destination_yields_trivial_tree() {
        let net = grid_network();
        let d = demands(&[(4, &[4])]);
        let rt = RoutingTables::build(&net, &d, RoutingMode::ShortestPathTrees);
        let tree = rt.tree(NodeId(4)).unwrap();
        assert_eq!(tree.size(), 1);
        assert_eq!(tree.edges().count(), 0);
    }

    #[test]
    fn forest_matches_legacy_tree_construction() {
        // The packed forest must reproduce the tree-at-a-time oracles
        // exactly, mode by mode (the property tests widen this to random
        // deployments).
        use m2m_graph::spt::ShortestPathTree;
        let net = grid_network();
        let d = demands(&[(0, &[15, 10]), (3, &[12]), (6, &[0, 9, 11])]);
        let rt = RoutingTables::build(&net, &d, RoutingMode::ShortestPathTrees);
        for (&s, targets) in &d {
            let oracle = ShortestPathTree::build(net.graph(), s).prune_to(targets);
            let view = rt.tree(s).unwrap();
            assert_eq!(view.nodes(), oracle.nodes());
            assert_eq!(view.destinations(), oracle.destinations());
            for &v in view.nodes() {
                assert_eq!(view.parent(v), oracle.parent(v));
            }
        }
    }
}
