//! Dijkstra shortest paths for graphs with non-negative link weights.
//!
//! The simulator's default routing is hop-based BFS, but milestone routing
//! and link-quality-aware route selection (§3, "Flexibility Trade-Off in
//! Routing") need weighted shortest paths, e.g. with weights derived from
//! expected transmission counts over lossy links.
//!
//! This allocating, closure-weighted version is a reference
//! implementation that only tests call: routing runs the arena
//! [`crate::scratch::RoutingScratch::dijkstra`] over a per-entry weight
//! slab, and the tests hold it to this one. It assumes
//! every path sum fits in a `u64`; the arena version also handles dead
//! links (weight `u64::MAX`), which this one would add without a check.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::adjacency::Graph;
use crate::node::NodeId;
use crate::tiebreak::offer_wins;

/// Result of a single-source Dijkstra run.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// Distance from the root to each node; `None` if unreachable.
    pub dist: Vec<Option<u64>>,
    /// Predecessor of each node on its canonical shortest path; `None` for
    /// the root and unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Reconstructs the root→`target` path (inclusive of both endpoints),
    /// or `None` if `target` is unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        self.dist[target.index()]?;
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Runs Dijkstra from `root`, with the weight of edge `{u, v}` supplied by
/// `weight(u, v)`.
///
/// Ties are broken toward the lower-id predecessor so the returned
/// shortest-path forest is canonical: the same inputs always produce the
/// same routes.
pub fn dijkstra<W>(graph: &Graph, root: NodeId, mut weight: W) -> ShortestPaths
where
    W: FnMut(NodeId, NodeId) -> u64,
{
    let n = graph.node_count();
    let mut dist: Vec<Option<u64>> = vec![None; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
    dist[root.index()] = Some(0);
    heap.push(Reverse((0, root)));
    while let Some(Reverse((du, u))) = heap.pop() {
        if dist[u.index()] != Some(du) {
            continue; // stale entry
        }
        for &v in graph.neighbors(u) {
            let w = weight(u, v);
            let cand = du + w;
            if offer_wins(cand, u, dist[v.index()], parent[v.index()]) {
                dist[v.index()] = Some(cand);
                parent[v.index()] = Some(u);
                heap.push(Reverse((cand, v)));
            }
        }
    }
    ShortestPaths { dist, parent }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 --1-- 1 --1-- 2
    ///  \------5------/
    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(0), NodeId(2));
        g
    }

    fn tri_weight(u: NodeId, v: NodeId) -> u64 {
        if (u.0, v.0) == (0, 2) || (u.0, v.0) == (2, 0) {
            5
        } else {
            1
        }
    }

    #[test]
    fn picks_the_cheaper_two_hop_route() {
        let sp = dijkstra(&triangle(), NodeId(0), tri_weight);
        assert_eq!(sp.dist, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(
            sp.path_to(NodeId(2)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn unit_weights_match_bfs() {
        let mut g = Graph::new(6);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (3, 5)] {
            g.add_edge(NodeId(a), NodeId(b));
        }
        let sp = dijkstra(&g, NodeId(0), |_, _| 1);
        let bfs = crate::bfs::bfs_distances(&g, NodeId(0));
        for (v, &hops) in bfs.iter().enumerate() {
            assert_eq!(sp.dist[v].map(|d| d as u32), hops);
        }
    }

    #[test]
    fn tie_break_prefers_low_id_parent() {
        // Two equal routes to node 3: via 1 or via 2.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        let sp = dijkstra(&g, NodeId(0), |_, _| 1);
        assert_eq!(sp.parent[3], Some(NodeId(1)));
    }

    #[test]
    fn unreachable_has_no_path() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        let sp = dijkstra(&g, NodeId(0), |_, _| 1);
        assert_eq!(sp.path_to(NodeId(2)), None);
    }

    #[test]
    fn path_to_root_is_singleton() {
        let sp = dijkstra(&triangle(), NodeId(0), tri_weight);
        assert_eq!(sp.path_to(NodeId(0)).unwrap(), vec![NodeId(0)]);
    }
}
