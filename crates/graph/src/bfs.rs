//! Breadth-first search: hop distances and traversal orders.

use std::collections::VecDeque;

use crate::adjacency::Graph;
use crate::node::NodeId;

/// Hop distance from a BFS root to every node; `None` for unreachable nodes.
pub type HopDistances = Vec<Option<u32>>;

/// Computes hop distances from `root` to every node.
pub fn bfs_distances(graph: &Graph, root: NodeId) -> HopDistances {
    let mut dist: HopDistances = vec![None; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[root.index()] = Some(0);
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued node has a distance");
        for &v in graph.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Returns the nodes reachable from `root` in BFS order (root first,
/// neighbors visited in ascending id order).
pub fn bfs_order(graph: &Graph, root: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; graph.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen[root.index()] = true;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in graph.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(NodeId::from_index(i), NodeId::from_index((i + 1) % n));
        }
        g
    }

    #[test]
    fn distances_on_a_path() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn distances_on_a_cycle() {
        let g = cycle_graph(6);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(
            d,
            vec![Some(0), Some(1), Some(2), Some(3), Some(2), Some(1)]
        );
    }

    #[test]
    fn unreachable_nodes_are_none() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[2], None);
    }

    #[test]
    fn order_is_deterministic_by_id() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(3));
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        assert_eq!(
            bfs_order(&g, NodeId(0)),
            vec![NodeId(0), NodeId(1), NodeId(3), NodeId(2)]
        );
    }

    #[test]
    fn all_pairs_symmetry() {
        let g = cycle_graph(5);
        let m: Vec<HopDistances> = g.nodes().map(|v| bfs_distances(&g, v)).collect();
        for (a, row) in m.iter().enumerate() {
            for (b, &val) in row.iter().enumerate() {
                assert_eq!(val, m[b][a]);
            }
        }
    }
}
