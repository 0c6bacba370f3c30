//! Takahashi–Matsuyama Steiner-tree heuristic for multicast trees.
//!
//! The paper's Figure 5 discussion observes that its "standard algorithm
//! for constructing single-source multicast trees … tends to create many
//! edges that are not shared across trees" and calls joint
//! routing/processing design future work. This module provides the
//! classic alternative: grow the tree from the source by repeatedly
//! attaching the *closest remaining destination* via its shortest path to
//! the current tree (2-approximation of the Steiner minimum). Trees built
//! this way use fewer edges than a union of source-rooted shortest paths,
//! at the cost of longer individual routes.
//!
//! This per-tree version is a reference implementation that only tests
//! call: `m2m-netsim`'s Steiner routing mode builds every tree in one
//! flat forest that replicates this construction round for round, and
//! its tests hold the forest to this one.

use std::collections::VecDeque;

use crate::adjacency::Graph;
use crate::node::NodeId;
use crate::spt::MulticastTree;

/// Builds a multicast tree rooted at `root` spanning the reachable
/// `terminals` with the Takahashi–Matsuyama heuristic. Ties (equidistant
/// terminals, equal-length attachment paths) break toward lower node ids,
/// so the construction is deterministic.
pub fn takahashi_matsuyama(graph: &Graph, root: NodeId, terminals: &[NodeId]) -> MulticastTree {
    let n = graph.node_count();
    let mut in_tree = vec![false; n];
    in_tree[root.index()] = true;
    // Parent pointers toward the root (the final tree directs edges away
    // from the root; MulticastTree stores child → parent).
    let mut parent: Vec<Option<NodeId>> = vec![None; n];

    let mut remaining: Vec<NodeId> = terminals.iter().copied().filter(|&t| t != root).collect();
    remaining.sort_unstable();
    remaining.dedup();
    let mut reached: Vec<NodeId> = if terminals.contains(&root) {
        vec![root]
    } else {
        Vec::new()
    };

    while !remaining.is_empty() {
        // Multi-source BFS from every tree node.
        let mut dist = vec![u32::MAX; n];
        let mut via: Vec<Option<NodeId>> = vec![None; n];
        let mut queue = VecDeque::new();
        for i in 0..n {
            if in_tree[i] {
                dist[i] = 0;
                queue.push_back(NodeId::from_index(i));
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    via[v.index()] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        // Closest reachable terminal (lowest id on ties — `remaining` is
        // sorted and we use strict improvement).
        let Some((&next, _)) = remaining
            .iter()
            .map(|t| (t, dist[t.index()]))
            .filter(|&(_, d)| d != u32::MAX)
            .min_by_key(|&(t, d)| (d, *t))
        else {
            break; // every remaining terminal is unreachable
        };
        // Attach the path from the tree to `next`.
        let mut cur = next;
        while !in_tree[cur.index()] {
            let prev = via[cur.index()].expect("reachable node has a BFS predecessor");
            parent[cur.index()] = Some(prev);
            in_tree[cur.index()] = true;
            cur = prev;
        }
        reached.push(next);
        remaining.retain(|&t| t != next);
    }

    MulticastTree::from_parents(root, parent, reached)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2
    /// |   |
    /// 3-4-5
    fn grid() -> Graph {
        let mut g = Graph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 3), (2, 5), (3, 4), (4, 5)] {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }

    #[test]
    fn spans_all_terminals() {
        let t = takahashi_matsuyama(&grid(), NodeId(0), &[NodeId(2), NodeId(4)]);
        assert_eq!(t.destinations(), &[NodeId(2), NodeId(4)]);
        for &d in t.destinations() {
            assert!(t.path_to(d).is_some());
        }
        assert_eq!(t.edges().count(), t.size() - 1);
    }

    #[test]
    fn reuses_tree_edges_for_near_terminals() {
        // Terminals 1 and 2 lie on one line from 0: one shared path.
        let t = takahashi_matsuyama(&grid(), NodeId(0), &[NodeId(1), NodeId(2)]);
        assert_eq!(t.size(), 3); // 0, 1, 2 only
    }

    #[test]
    fn steiner_beats_shortest_path_union_on_the_classic_case() {
        // Star-with-long-arms: SPT union takes separate arms; Steiner
        // routes through the shared spine.
        // 0 - 1 - 2 - 3 (spine), terminals 4,5 hang off 3; plus direct
        // long paths 0-6-7-4 and 0-8-9-5 of equal length.
        let mut g = Graph::new(10);
        for (a, b) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (3, 5),
            (0, 6),
            (6, 7),
            (7, 4),
            (0, 8),
            (8, 9),
            (9, 5),
        ] {
            g.add_edge(NodeId(a), NodeId(b));
        }
        let steiner = takahashi_matsuyama(&g, NodeId(0), &[NodeId(4), NodeId(5)]);
        let spt =
            crate::spt::ShortestPathTree::build(&g, NodeId(0)).prune_to(&[NodeId(4), NodeId(5)]);
        assert!(
            steiner.size() <= spt.size(),
            "steiner {} nodes vs spt {} nodes",
            steiner.size(),
            spt.size()
        );
    }

    #[test]
    fn unreachable_terminals_are_dropped() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        // 2, 3 disconnected.
        let t = takahashi_matsuyama(&g, NodeId(0), &[NodeId(1), NodeId(3)]);
        assert_eq!(t.destinations(), &[NodeId(1)]);
    }

    #[test]
    fn root_as_terminal_is_fine() {
        let t = takahashi_matsuyama(&grid(), NodeId(0), &[NodeId(0), NodeId(5)]);
        assert_eq!(t.destinations(), &[NodeId(0), NodeId(5)]);
    }

    #[test]
    fn deterministic() {
        let g = grid();
        let a = takahashi_matsuyama(&g, NodeId(1), &[NodeId(3), NodeId(5), NodeId(4)]);
        let b = takahashi_matsuyama(&g, NodeId(1), &[NodeId(3), NodeId(5), NodeId(4)]);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }
}
