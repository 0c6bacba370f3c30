//! Interned topology snapshot: the dense index layer under the planner.
//!
//! Every stage of the Theorem 1 pipeline — per-edge problem building,
//! the parallel solve fan-out, the §2.3 raw-availability repair sweep,
//! the Corollary 1 memo, incremental maintenance, scheduling, and the
//! compiled executor — operates on the *same* set of demanded directed
//! edges: the edges that appear on some routing path from a source to a
//! destination that actually demands it. Historically each stage
//! re-derived that set into its own `BTreeMap<DirectedEdge, _>`;
//! [`Topology::snapshot`] derives it once per `(spec, routing)` pair and
//! assigns every node and edge a dense index, so downstream stages store
//! flat slabs in [`EdgeIdx`] order and look edges up in O(1) instead of
//! O(log n) pointer-chasing.
//!
//! A snapshot is immutable. It is invalidated — meaning a new one must
//! be taken — whenever the routing tables change or the spec's
//! source→destination demand structure changes; weight-only spec changes
//! keep it valid. [`crate::dynamics::PlanMaintainer`] snapshots per
//! install and diffs old-vs-new through the edge lookup table.
//!
//! ## Ordering invariant
//!
//! The edge slab is sorted ascending by `(tail, head)`, so iterating
//! solutions in [`EdgeIdx`] order is *exactly* the iteration order of the
//! old `BTreeMap<DirectedEdge, _>` planner state. Every bit-identity
//! argument in `plan`/`schedule`/`exec` leans on this.

use std::sync::Arc;

use m2m_graph::NodeId;
use m2m_netsim::RoutingTables;

use crate::edge_opt::DirectedEdge;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::spec::AggregationSpec;

/// Dense index of a node within a [`Topology`] snapshot.
///
/// Indexes the snapshot's sorted node slab; `NodeIdx` order equals
/// [`NodeId`] order within one snapshot. Indices are meaningless across
/// snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

impl NodeIdx {
    /// The index as a `usize`, for slab addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense index of a directed edge within a [`Topology`] snapshot.
///
/// Indexes the snapshot's sorted edge slab; `EdgeIdx` order equals
/// `(tail, head)` lexicographic order within one snapshot. Indices are
/// meaningless across snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeIdx(pub u32);

impl EdgeIdx {
    /// The index as a `usize`, for slab addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One demanded destination of a tree plus its route, pre-resolved to
/// edge indices and interned path suffixes.
///
/// `hops[k]` is the `k`-th edge on the route from the tree's source to
/// `destination`, paired with the route's remaining node suffix *after*
/// that edge's tail (head through destination inclusive) — exactly the
/// suffix an [`crate::edge_opt::AggGroup`] on that edge carries. Empty
/// `hops` means the source aggregates for itself (`s == d`).
#[derive(Clone, Debug)]
pub struct DestPath {
    destination: NodeId,
    hops: Vec<(EdgeIdx, Arc<[NodeId]>)>,
}

impl DestPath {
    /// The demanded destination this path leads to.
    #[inline]
    pub fn destination(&self) -> NodeId {
        self.destination
    }

    /// The route as `(edge, remaining-suffix)` pairs, source-outward.
    #[inline]
    pub fn hops(&self) -> &[(EdgeIdx, Arc<[NodeId]>)] {
        &self.hops
    }
}

/// CSR adjacency for the demanded portion of one source's multicast
/// tree, plus the per-destination routes through it.
#[derive(Clone, Debug)]
pub struct TreeTopo {
    source: NodeId,
    /// Demanded tree nodes, parents strictly before children;
    /// `order[0]` is the source.
    order: Vec<NodeIdx>,
    /// CSR offsets into `children`; length `order.len() + 1`.
    child_start: Vec<u32>,
    /// Flat child lists: `(position in order, connecting edge)`.
    children: Vec<(u32, EdgeIdx)>,
    dest_paths: Vec<DestPath>,
}

impl TreeTopo {
    /// The tree's source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Demanded tree nodes in parent-before-child order.
    #[inline]
    pub fn order(&self) -> &[NodeIdx] {
        &self.order
    }

    /// Children of the node at position `pos` in [`Self::order`], each
    /// as `(child position, tree edge into the child)`.
    #[inline]
    pub fn children_of(&self, pos: u32) -> &[(u32, EdgeIdx)] {
        let lo = self.child_start[pos as usize] as usize;
        let hi = self.child_start[pos as usize + 1] as usize;
        &self.children[lo..hi]
    }

    /// The demanded destinations and their routes, in the routing
    /// table's destination order (ascending).
    #[inline]
    pub fn dest_paths(&self) -> &[DestPath] {
        &self.dest_paths
    }
}

/// The interned topology: sorted node/edge slabs with O(1) edge lookup
/// and per-tree CSR adjacency, snapshotted once per `(spec, routing)`.
///
/// Only *demanded* structure is interned: a tree appears only if its
/// source has at least one reachable demanded destination, and an edge
/// appears only if some demanded `(source, destination)` route crosses
/// it. This is precisely the edge set the planner solves (the old
/// `BTreeMap` builders skipped undemanded edges the same way).
#[derive(Clone, Debug)]
pub struct Topology {
    nodes: Vec<NodeId>,
    edges: Vec<DirectedEdge>,
    edge_lookup: FxHashMap<DirectedEdge, EdgeIdx>,
    trees: Vec<TreeTopo>,
    sources: Vec<NodeId>,
    slab_bytes: usize,
}

impl Topology {
    /// Snapshots the demanded topology of `(spec, routing)`.
    ///
    /// Walks each routing tree's destinations (ascending source, then
    /// ascending destination), keeping only destinations the spec
    /// actually demands from that source, and interns every node and
    /// directed edge on the surviving routes.
    pub fn snapshot(spec: &AggregationSpec, routing: &RoutingTables) -> Topology {
        let _span = crate::telemetry::span(crate::telemetry::layer::TOPO_INTERN);
        // Pass 1: walk every demanded route once through a single reused
        // path buffer (routes are re-walked from the forest in pass 2
        // instead of being materialized as one `Vec<NodeId>` each).
        let mut demanded_by_tree: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        let mut path: Vec<NodeId> = Vec::new();
        let mut edges: Vec<DirectedEdge> = Vec::new();
        let mut nodes: Vec<NodeId> = Vec::new();
        for (s, tree) in routing.trees() {
            let mut demanded: Vec<NodeId> = Vec::new();
            for &d in tree.destinations() {
                if !spec.is_source_of(s, d) {
                    continue;
                }
                assert!(
                    tree.write_path_to(d, &mut path),
                    "tree spans its destinations by construction"
                );
                nodes.extend_from_slice(&path);
                edges.extend(path.windows(2).map(|h| (h[0], h[1])));
                demanded.push(d);
            }
            if !demanded.is_empty() {
                demanded_by_tree.push((s, demanded));
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        edges.sort_unstable();
        edges.dedup();
        let edge_lookup: FxHashMap<DirectedEdge, EdgeIdx> = edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, EdgeIdx(i as u32)))
            .collect();
        let node_idx_of = |id: NodeId| -> NodeIdx {
            NodeIdx(nodes.binary_search(&id).expect("interned node") as u32)
        };

        // Pass 2: per-tree CSR plus resolved destination routes. Path
        // suffixes are interned across the whole snapshot so every edge
        // problem and schedule lookup shares one allocation per distinct
        // remaining route.
        let mut suffixes: FxHashSet<Arc<[NodeId]>> = FxHashSet::default();
        let mut suffix_bytes = 0usize;
        let mut intern = |tail: &[NodeId]| -> Arc<[NodeId]> {
            if let Some(existing) = suffixes.get(tail) {
                Arc::clone(existing)
            } else {
                let arc: Arc<[NodeId]> = tail.into();
                suffix_bytes += std::mem::size_of_val(tail);
                suffixes.insert(Arc::clone(&arc));
                arc
            }
        };
        let mut trees = Vec::with_capacity(demanded_by_tree.len());
        let mut sources = Vec::with_capacity(demanded_by_tree.len());
        for (s, demanded) in demanded_by_tree {
            sources.push(s);
            let tree = routing.tree(s).expect("tree existed in pass 1");
            let mut order: Vec<NodeIdx> = vec![node_idx_of(s)];
            let mut pos_of: FxHashMap<NodeId, u32> = FxHashMap::default();
            pos_of.insert(s, 0);
            let mut child_lists: Vec<Vec<(u32, EdgeIdx)>> = vec![Vec::new()];
            let mut dest_paths = Vec::with_capacity(demanded.len());
            for d in demanded {
                assert!(tree.write_path_to(d, &mut path), "route existed in pass 1");
                let mut hops = Vec::with_capacity(path.len().saturating_sub(1));
                for idx in 0..path.len().saturating_sub(1) {
                    let (tail, head) = (path[idx], path[idx + 1]);
                    let edge_idx = edge_lookup[&(tail, head)];
                    hops.push((edge_idx, intern(&path[idx + 1..])));
                    let parent = pos_of[&tail];
                    if let std::collections::hash_map::Entry::Vacant(slot) = pos_of.entry(head) {
                        let pos = order.len() as u32;
                        slot.insert(pos);
                        order.push(node_idx_of(head));
                        child_lists.push(Vec::new());
                        child_lists[parent as usize].push((pos, edge_idx));
                    }
                }
                dest_paths.push(DestPath {
                    destination: d,
                    hops,
                });
            }
            let mut child_start = Vec::with_capacity(order.len() + 1);
            let mut children = Vec::new();
            child_start.push(0);
            for list in &child_lists {
                children.extend_from_slice(list);
                child_start.push(children.len() as u32);
            }
            trees.push(TreeTopo {
                source: s,
                order,
                child_start,
                children,
                dest_paths,
            });
        }

        let tree_bytes: usize = trees
            .iter()
            .map(|t| {
                t.order.len() * std::mem::size_of::<NodeIdx>()
                    + t.child_start.len() * std::mem::size_of::<u32>()
                    + t.children.len() * std::mem::size_of::<(u32, EdgeIdx)>()
                    + t.dest_paths
                        .iter()
                        .map(|dp| {
                            std::mem::size_of::<NodeId>()
                                + dp.hops.len() * std::mem::size_of::<(EdgeIdx, Arc<[NodeId]>)>()
                        })
                        .sum::<usize>()
            })
            .sum();
        let slab_bytes = nodes.len() * std::mem::size_of::<NodeId>()
            + edges.len() * std::mem::size_of::<DirectedEdge>()
            + edge_lookup.len() * std::mem::size_of::<(DirectedEdge, EdgeIdx)>()
            + sources.len() * std::mem::size_of::<NodeId>()
            + tree_bytes
            + suffix_bytes;

        Topology {
            nodes,
            edges,
            edge_lookup,
            trees,
            sources,
            slab_bytes,
        }
    }

    /// Resident bytes of the snapshot's slabs (node/edge slabs, lookup
    /// table, per-tree CSR, destination routes, interned suffixes) —
    /// the scaling benchmark's per-stage memory column.
    #[inline]
    pub fn slab_bytes(&self) -> usize {
        self.slab_bytes
    }

    /// The interned nodes, ascending.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The demanded directed edges, ascending by `(tail, head)`.
    #[inline]
    pub fn edges(&self) -> &[DirectedEdge] {
        &self.edges
    }

    /// Number of demanded directed edges (the slab length every
    /// per-edge stage shares).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// O(1) lookup of a directed edge's dense index; `None` if the edge
    /// is not demanded in this snapshot.
    #[inline]
    pub fn edge_idx(&self, edge: DirectedEdge) -> Option<EdgeIdx> {
        self.edge_lookup.get(&edge).copied()
    }

    /// The directed edge at a dense index.
    #[inline]
    pub fn edge(&self, idx: EdgeIdx) -> DirectedEdge {
        self.edges[idx.index()]
    }

    /// The node at a dense index.
    #[inline]
    pub fn node(&self, idx: NodeIdx) -> NodeId {
        self.nodes[idx.index()]
    }

    /// Per-source demanded trees, ascending by source.
    #[inline]
    pub fn trees(&self) -> &[TreeTopo] {
        &self.trees
    }

    /// Sources with at least one demanded destination, ascending —
    /// exactly the sources whose readings the executor needs.
    #[inline]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The `(source, destination)` pairs this snapshot was demanded for,
    /// sorted ascending. A spec matches this topology exactly when its
    /// own pair set (every destination of every function, per source)
    /// equals this one — the check [`crate::session::SessionBuilder`]
    /// runs before reusing a caller-supplied substrate.
    pub fn demanded_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs: Vec<(NodeId, NodeId)> = self
            .trees
            .iter()
            .flat_map(|tree| {
                tree.dest_paths()
                    .iter()
                    .map(move |dp| (tree.source(), dp.destination()))
            })
            .collect();
        pairs.sort_unstable();
        pairs
    }
}

/// A growable fixed-stride bitset for dirty tracking over dense indices
/// ([`EdgeIdx`] in the maintainer, destination ids in the memo).
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty bitset pre-sized for indices `0..len`.
    pub fn with_capacity(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Sets bit `i` (growing as needed); returns `true` if newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Whether bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Clears every bit, keeping capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use crate::spec::AggregationSpec;
    use m2m_netsim::{Deployment, Network, RoutingMode};

    fn demo() -> (Network, AggregationSpec, RoutingTables) {
        let network = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 15.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(0),
            AggregateFunction::weighted_sum([
                (NodeId(5), 1.0),
                (NodeId(10), 1.0),
                (NodeId(15), 1.0),
            ]),
        );
        spec.add_function(
            NodeId(3),
            AggregateFunction::weighted_sum([(NodeId(5), 1.0), (NodeId(12), 1.0)]),
        );
        let routing = RoutingTables::build(
            &network,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        (network, spec, routing)
    }

    #[test]
    fn edge_slab_is_sorted_and_lookup_roundtrips() {
        let (_n, spec, routing) = demo();
        let topo = Topology::snapshot(&spec, &routing);
        assert!(topo.edge_count() > 0);
        assert!(topo.edges().windows(2).all(|w| w[0] < w[1]));
        for (i, &e) in topo.edges().iter().enumerate() {
            assert_eq!(topo.edge_idx(e), Some(EdgeIdx(i as u32)));
            assert_eq!(topo.edge(EdgeIdx(i as u32)), e);
        }
        assert_eq!(topo.edge_idx((NodeId(999), NodeId(998))), None);
    }

    #[test]
    fn trees_cover_exactly_demanded_pairs() {
        let (_n, spec, routing) = demo();
        let topo = Topology::snapshot(&spec, &routing);
        // Sources ascending, matching the tree slab.
        let tree_sources: Vec<NodeId> = topo.trees().iter().map(|t| t.source()).collect();
        assert_eq!(tree_sources, topo.sources());
        assert!(tree_sources.windows(2).all(|w| w[0] < w[1]));
        // Every (source, destination) demanded pair appears exactly once.
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for tree in topo.trees() {
            for dp in tree.dest_paths() {
                pairs.push((tree.source(), dp.destination()));
                assert!(spec.is_source_of(tree.source(), dp.destination()));
            }
        }
        pairs.sort_unstable();
        let mut expected: Vec<(NodeId, NodeId)> = Vec::new();
        for (s, tree) in routing.trees() {
            for &d in tree.destinations() {
                if spec.is_source_of(s, d) {
                    expected.push((s, d));
                }
            }
        }
        expected.sort_unstable();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn csr_adjacency_matches_dest_path_edges() {
        let (_n, spec, routing) = demo();
        let topo = Topology::snapshot(&spec, &routing);
        for tree in topo.trees() {
            // Edges reachable through the CSR...
            let mut csr_edges: Vec<EdgeIdx> = Vec::new();
            let mut stack = vec![0u32];
            while let Some(pos) = stack.pop() {
                for &(child, e) in tree.children_of(pos) {
                    csr_edges.push(e);
                    stack.push(child);
                }
            }
            csr_edges.sort_unstable();
            // ...are exactly the edges on the demanded routes.
            let mut path_edges: Vec<EdgeIdx> = tree
                .dest_paths()
                .iter()
                .flat_map(|dp| dp.hops().iter().map(|&(e, _)| e))
                .collect();
            path_edges.sort_unstable();
            path_edges.dedup();
            assert_eq!(csr_edges, path_edges);
            // Parent-before-child: position 0 is the source and every
            // child position exceeds its parent's.
            for pos in 0..tree.order().len() as u32 {
                for &(child, _) in tree.children_of(pos) {
                    assert!(child > pos);
                }
            }
        }
    }

    #[test]
    fn suffixes_are_interned_across_trees() {
        let (_n, spec, routing) = demo();
        let topo = Topology::snapshot(&spec, &routing);
        let mut by_content: std::collections::HashMap<Vec<NodeId>, *const [NodeId]> =
            std::collections::HashMap::new();
        for tree in topo.trees() {
            for dp in tree.dest_paths() {
                for (_, suffix) in dp.hops() {
                    let key = suffix.to_vec();
                    let ptr = Arc::as_ptr(suffix);
                    let prev = by_content.entry(key).or_insert(ptr);
                    assert!(std::ptr::eq(*prev, ptr), "same suffix, distinct allocs");
                }
            }
        }
    }

    #[test]
    fn bitset_insert_contains_count() {
        let mut bits = BitSet::with_capacity(10);
        assert!(!bits.any());
        assert!(bits.insert(3));
        assert!(!bits.insert(3));
        assert!(bits.insert(130)); // beyond initial capacity: grows
        assert!(bits.contains(3));
        assert!(bits.contains(130));
        assert!(!bits.contains(64));
        assert_eq!(bits.count(), 2);
        assert!(bits.any());
        bits.clear();
        assert_eq!(bits.count(), 0);
        assert!(!bits.contains(3));
    }
}
