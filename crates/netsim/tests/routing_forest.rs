//! Oracle property tests for the packed routing forest.
//!
//! The flat [`m2m_netsim::RoutingForest`] replaced per-source
//! `MulticastTree` construction wholesale, so these tests pin it — mode
//! by mode, over random connected deployments — against the legacy
//! tree-at-a-time algorithms it displaced: `ShortestPathTree::prune_to`,
//! the global-spanning-tree re-root (ported verbatim below), and
//! Takahashi–Matsuyama. Every observable of a tree must agree: node
//! set, destination set, parent pointers, directed edge list, root
//! paths, and per-edge destination routing. A second property guards
//! the shared [`m2m_graph::RoutingScratch`] arena: building each source
//! alone (fresh scratch) must be bit-identical to the multi-source
//! build that reuses the arena across sources. A third pins the
//! ETX-weighted forest of `quality::weighted_routing` against the
//! per-source Dijkstra build it replaced (ported below).

use std::collections::BTreeMap;

use proptest::prelude::*;

use m2m_graph::dijkstra::dijkstra;
use m2m_graph::spt::{MulticastTree, ShortestPathTree};
use m2m_graph::NodeId;
use m2m_netsim::quality::weighted_routing;
use m2m_netsim::routing::TreeView;
use m2m_netsim::{Deployment, LinkQuality, Network, RoutingMode, RoutingTables};

fn network(seed: u64) -> Network {
    Network::with_default_energy(Deployment::connected_uniform(40, 100.0, 100.0, 45.0, seed))
}

fn to_demands(raw: BTreeMap<u32, Vec<u32>>) -> BTreeMap<NodeId, Vec<NodeId>> {
    raw.into_iter()
        .map(|(s, ds)| (NodeId(s), ds.into_iter().map(NodeId).collect()))
        .collect()
}

/// The pre-forest shared-tree extraction, ported verbatim from the old
/// `RoutingTables::build`: mark the global tree paths source→destination
/// (splicing root paths at the LCA), then re-root the induced subtree at
/// the source with a BFS over the kept nodes.
fn legacy_shared_subtree(
    net: &Network,
    global: &ShortestPathTree,
    source: NodeId,
    destinations: &[NodeId],
) -> MulticastTree {
    let n = net.node_count();
    let mut tree_adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in net.nodes() {
        if let Some(p) = global.parent(v) {
            tree_adj[v.index()].push(p);
            tree_adj[p.index()].push(v);
        }
    }
    let mut keep = vec![false; n];
    keep[source.index()] = true;
    let mut reached = Vec::new();
    for &d in destinations {
        let (Some(ps), Some(pd)) = (global.path_to(source), global.path_to(d)) else {
            continue;
        };
        reached.push(d);
        let mut lca_idx = 0;
        while lca_idx + 1 < ps.len() && lca_idx + 1 < pd.len() && ps[lca_idx + 1] == pd[lca_idx + 1]
        {
            lca_idx += 1;
        }
        for &v in &ps[lca_idx..] {
            keep[v.index()] = true;
        }
        for &v in &pd[lca_idx..] {
            keep[v.index()] = true;
        }
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[source.index()] = true;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in &tree_adj[u.index()] {
            if keep[v.index()] && !visited[v.index()] {
                visited[v.index()] = true;
                parent[v.index()] = Some(u);
                queue.push_back(v);
            }
        }
    }
    MulticastTree::from_parents(source, parent, reached)
}

/// Legacy tree-at-a-time construction for a whole demand set.
fn legacy_trees(
    net: &Network,
    demands: &BTreeMap<NodeId, Vec<NodeId>>,
    mode: RoutingMode,
) -> BTreeMap<NodeId, MulticastTree> {
    match mode {
        RoutingMode::ShortestPathTrees => demands
            .iter()
            .map(|(&s, dests)| (s, ShortestPathTree::build(net.graph(), s).prune_to(dests)))
            .collect(),
        RoutingMode::SharedSpanningTree => {
            let global = ShortestPathTree::build(net.graph(), NodeId(0));
            demands
                .iter()
                .map(|(&s, dests)| (s, legacy_shared_subtree(net, &global, s, dests)))
                .collect()
        }
        RoutingMode::SteinerTrees => demands
            .iter()
            .map(|(&s, dests)| {
                (
                    s,
                    m2m_graph::steiner::takahashi_matsuyama(net.graph(), s, dests),
                )
            })
            .collect(),
    }
}

/// The pre-forest ETX routing, ported verbatim from the old
/// `quality::weighted_routing`: one allocating Dijkstra per source, the
/// keep-set of every source→destination path, and
/// `MulticastTree::from_parents` (the root is always kept).
fn legacy_weighted_trees(
    net: &Network,
    demands: &BTreeMap<NodeId, Vec<NodeId>>,
    quality: &LinkQuality,
) -> BTreeMap<NodeId, MulticastTree> {
    let n = net.node_count();
    demands
        .iter()
        .map(|(&s, dests)| {
            let sp = dijkstra(net.graph(), s, |a, b| quality.weight(a, b));
            let mut keep = vec![false; n];
            keep[s.index()] = true;
            let mut reached = Vec::new();
            for &d in dests {
                let Some(path) = sp.path_to(d) else { continue };
                reached.push(d);
                for v in path {
                    keep[v.index()] = true;
                }
            }
            let mut parent: Vec<Option<NodeId>> = vec![None; n];
            for i in 0..n {
                if keep[i] && i != s.index() {
                    parent[i] = sp.parent[i];
                }
            }
            (s, MulticastTree::from_parents(s, parent, reached))
        })
        .collect()
}

/// A link-quality map of one of three kinds: perfect, distance-based,
/// or distance-based and then drifted.
fn quality(net: &Network, kind: u64, max_loss: f64, seed: u64) -> LinkQuality {
    match kind {
        0 => LinkQuality::perfect(net),
        1 => LinkQuality::distance_based(net, max_loss, seed),
        _ => LinkQuality::distance_based(net, max_loss, seed).with_drift(0.5, seed + 1),
    }
}

/// Every observable of the packed view must match the legacy tree.
fn assert_view_matches(s: NodeId, view: TreeView<'_>, oracle: &MulticastTree) {
    assert_eq!(view.root(), oracle.root(), "root of tree {s}");
    assert_eq!(view.size(), oracle.size(), "size of tree {s}");
    assert_eq!(view.nodes(), oracle.nodes(), "node set of tree {s}");
    assert_eq!(
        view.destinations(),
        oracle.destinations(),
        "destinations of tree {s}"
    );
    for &v in view.nodes() {
        assert_eq!(
            view.parent(v),
            oracle.parent(v),
            "parent of {v} in tree {s}"
        );
    }
    assert_eq!(
        view.edges().collect::<Vec<_>>(),
        oracle.edges().collect::<Vec<_>>(),
        "directed edges of tree {s}"
    );
    for &d in oracle.destinations() {
        assert_eq!(view.path_to(d), oracle.path_to(d), "path {s}→{d}");
    }
    for (a, b) in oracle.edges() {
        assert_eq!(
            view.destinations_through(a, b),
            oracle.destinations_through(a, b),
            "destinations through ({a}, {b}) in tree {s}"
        );
    }
}

fn demand_strategy() -> impl Strategy<Value = BTreeMap<u32, Vec<u32>>> {
    prop::collection::btree_map(0u32..40, prop::collection::vec(0u32..40, 1..6), 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Packed forest ≡ legacy per-source trees in all three modes.
    #[test]
    fn forest_matches_legacy_trees(
        seed in 0u64..100,
        raw_demands in demand_strategy(),
    ) {
        let net = network(seed);
        let demands = to_demands(raw_demands);
        for mode in RoutingMode::ALL {
            let rt = RoutingTables::build(&net, &demands, mode);
            let oracle = legacy_trees(&net, &demands, mode);
            prop_assert_eq!(rt.source_count(), oracle.len());
            for (s, tree) in &oracle {
                let view = rt.tree(*s).expect("forest has every demanded source");
                assert_view_matches(*s, view, tree);
            }
            // The deduplicated directed-edge union must also agree.
            let mut expected: Vec<(NodeId, NodeId)> =
                oracle.values().flat_map(MulticastTree::edges).collect();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(rt.directed_edges(), &expected[..], "mode {:?}", mode);
        }
    }

    /// Scratch-arena reuse regression: one build reuses a single
    /// `RoutingScratch` across all sources; building each source by
    /// itself resets from a fresh arena. The trees must be bit-identical,
    /// or the epoch-stamp reset is leaking state between sources.
    #[test]
    fn arena_reuse_matches_fresh_per_source_builds(
        seed in 0u64..100,
        raw_demands in demand_strategy(),
    ) {
        let net = network(seed);
        let demands = to_demands(raw_demands);
        for mode in RoutingMode::ALL {
            let combined = RoutingTables::build(&net, &demands, mode);
            for (s, dests) in &demands {
                let solo_demand: BTreeMap<NodeId, Vec<NodeId>> =
                    [(*s, dests.clone())].into();
                let solo = RoutingTables::build(&net, &solo_demand, mode);
                let combined_view = combined.tree(*s).expect("source routed");
                let solo_view = solo.tree(*s).expect("source routed");
                prop_assert_eq!(combined_view.nodes(), solo_view.nodes());
                prop_assert_eq!(combined_view.destinations(), solo_view.destinations());
                for &v in combined_view.nodes() {
                    prop_assert_eq!(combined_view.parent(v), solo_view.parent(v));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ETX forest ≡ the legacy per-source Dijkstra trees: every tree's
    /// nodes, parents, destinations and edges, the deduplicated directed
    /// edges, and the mode tag. Every other source also demands itself.
    #[test]
    fn weighted_forest_matches_legacy_etx_trees(
        seed in 0u64..100,
        raw_demands in demand_strategy(),
        kind in 0u64..3,
        max_loss in 0.0f64..0.95,
        quality_seed in 0u64..1_000,
    ) {
        let net = network(seed);
        let mut demands = to_demands(raw_demands);
        for (s, dests) in demands.iter_mut().step_by(2) {
            dests.push(*s);
        }
        let q = quality(&net, kind, max_loss, quality_seed);
        let rt = weighted_routing(&net, &demands, &q);
        prop_assert_eq!(rt.mode(), RoutingMode::ShortestPathTrees);
        let oracle = legacy_weighted_trees(&net, &demands, &q);
        prop_assert_eq!(rt.source_count(), oracle.len());
        for (s, tree) in &oracle {
            let view = rt.tree(*s).expect("forest has every demanded source");
            assert_view_matches(*s, view, tree);
        }
        let mut expected: Vec<(NodeId, NodeId)> =
            oracle.values().flat_map(MulticastTree::edges).collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(rt.directed_edges(), &expected[..], "quality kind {}", kind);
    }
}
