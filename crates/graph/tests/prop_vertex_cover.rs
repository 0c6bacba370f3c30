//! Property tests for the vertex-cover kernel: the flow-based solver must
//! match exhaustive search on random weighted instances, and agree with
//! Hopcroft–Karp through König's theorem on unweighted instances.

use m2m_graph::bipartite::BipartiteGraph;
use m2m_graph::vertex_cover::{brute_force_min_cover, min_weight_vertex_cover};
use matching::hopcroft_karp;
use proptest::prelude::*;

/// A random bipartite instance: side sizes, per-vertex weights, edge mask.
#[derive(Debug, Clone)]
struct Instance {
    left_weights: Vec<u64>,
    right_weights: Vec<u64>,
    edges: Vec<(usize, usize)>,
}

impl Instance {
    fn build(&self) -> BipartiteGraph {
        let mut g = BipartiteGraph::new();
        for &w in &self.left_weights {
            g.add_left(w);
        }
        for &w in &self.right_weights {
            g.add_right(w);
        }
        for &(u, v) in &self.edges {
            g.add_edge(u, v);
        }
        g
    }
}

fn instance_strategy(max_side: usize, max_weight: u64) -> impl Strategy<Value = Instance> {
    (1..=max_side, 1..=max_side).prop_flat_map(move |(nl, nr)| {
        (
            prop::collection::vec(1..=max_weight, nl),
            prop::collection::vec(1..=max_weight, nr),
            prop::collection::vec((0..nl, 0..nr), 0..=(nl * nr).min(24)),
        )
            .prop_map(|(left_weights, right_weights, edges)| Instance {
                left_weights,
                right_weights,
                edges,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flow-based solver returns a valid cover with the same weight as
    /// exhaustive search.
    #[test]
    fn flow_cover_matches_brute_force(inst in instance_strategy(6, 9)) {
        let g = inst.build();
        let fast = min_weight_vertex_cover(&g);
        let slow = brute_force_min_cover(&g);
        prop_assert!(fast.is_valid_cover(&g));
        prop_assert_eq!(fast.weight, slow.weight);
    }

    /// König: with unit weights, min cover size == max matching size.
    #[test]
    fn koenig_duality_holds(inst in instance_strategy(8, 1)) {
        let g = inst.build();
        let cover = min_weight_vertex_cover(&g);
        let nl = g.left_count();
        let mut adj = vec![Vec::new(); nl];
        for &(u, v) in g.edges() {
            adj[u].push(v);
        }
        let matching = hopcroft_karp(nl, g.right_count(), &adj);
        prop_assert_eq!(cover.weight as usize, matching.size());
    }

    /// The cover never costs more than either trivial cover: all-left
    /// (pure multicast) or all-right (pure aggregation). This is the §2.2
    /// guarantee that *optimal* dominates both baselines per edge.
    #[test]
    fn cover_beats_both_trivial_covers(inst in instance_strategy(6, 9)) {
        let g = inst.build();
        let cover = min_weight_vertex_cover(&g);
        // Only vertices with at least one incident edge need counting:
        // the trivial covers need not include isolated vertices.
        let mut left_touched = vec![false; g.left_count()];
        let mut right_touched = vec![false; g.right_count()];
        for &(u, v) in g.edges() {
            left_touched[u] = true;
            right_touched[v] = true;
        }
        let all_left: u64 = (0..g.left_count())
            .filter(|&u| left_touched[u])
            .map(|u| g.left_weight(u))
            .sum();
        let all_right: u64 = (0..g.right_count())
            .filter(|&v| right_touched[v])
            .map(|v| g.right_weight(v))
            .sum();
        prop_assert!(cover.weight <= all_left);
        prop_assert!(cover.weight <= all_right);
    }

    /// Determinism: solving the same instance twice gives the same cover.
    #[test]
    fn solver_is_deterministic(inst in instance_strategy(6, 9)) {
        let g = inst.build();
        let a = min_weight_vertex_cover(&g);
        let b = min_weight_vertex_cover(&g);
        prop_assert_eq!(a, b);
    }
}

mod matching {
    //! Hopcroft–Karp maximum bipartite matching.
    //!
    //! Used to cross-check the vertex-cover solver: by König's theorem, on an
    //! *unweighted* bipartite graph the size of a maximum matching equals the
    //! size of a minimum vertex cover. `koenig_duality_holds` above pits the
    //! two implementations against each other on random graphs.

    use std::collections::VecDeque;

    /// A maximum matching on a bipartite graph with `nl` left and `nr` right
    /// vertices.
    #[derive(Clone, Debug)]
    pub struct Matching {
        /// `pair_left[u]` = matched right vertex of `u`, if any.
        pub pair_left: Vec<Option<usize>>,
        /// `pair_right[v]` = matched left vertex of `v`, if any.
        pub pair_right: Vec<Option<usize>>,
    }

    impl Matching {
        /// Number of matched pairs.
        pub fn size(&self) -> usize {
            self.pair_left.iter().filter(|p| p.is_some()).count()
        }
    }

    /// Computes a maximum matching with Hopcroft–Karp in `O(E·√V)`.
    ///
    /// `adj[u]` lists the right neighbors of left vertex `u`.
    pub fn hopcroft_karp(nl: usize, nr: usize, adj: &[Vec<usize>]) -> Matching {
        assert_eq!(adj.len(), nl, "adjacency must cover every left vertex");
        const NIL: usize = usize::MAX;
        let mut pair_u = vec![NIL; nl];
        let mut pair_v = vec![NIL; nr];
        let mut dist = vec![u32::MAX; nl];

        // BFS phase: layers of alternating paths starting from free left
        // vertices. Returns true if an augmenting path exists.
        let bfs = |pair_u: &[usize], pair_v: &[usize], dist: &mut [u32]| -> bool {
            let mut q = VecDeque::new();
            let mut found = false;
            for u in 0..nl {
                if pair_u[u] == NIL {
                    dist[u] = 0;
                    q.push_back(u);
                } else {
                    dist[u] = u32::MAX;
                }
            }
            while let Some(u) = q.pop_front() {
                for &v in &adj[u] {
                    match pair_v[v] {
                        NIL => found = true,
                        w => {
                            if dist[w] == u32::MAX {
                                dist[w] = dist[u] + 1;
                                q.push_back(w);
                            }
                        }
                    }
                }
            }
            found
        };

        fn dfs(
            u: usize,
            adj: &[Vec<usize>],
            pair_u: &mut [usize],
            pair_v: &mut [usize],
            dist: &mut [u32],
        ) -> bool {
            const NIL: usize = usize::MAX;
            for i in 0..adj[u].len() {
                let v = adj[u][i];
                let w = pair_v[v];
                if w == NIL || (dist[w] == dist[u] + 1 && dfs(w, adj, pair_u, pair_v, dist)) {
                    pair_u[u] = v;
                    pair_v[v] = u;
                    return true;
                }
            }
            dist[u] = u32::MAX;
            false
        }

        while bfs(&pair_u, &pair_v, &mut dist) {
            for u in 0..nl {
                if pair_u[u] == NIL {
                    dfs(u, adj, &mut pair_u, &mut pair_v, &mut dist);
                }
            }
        }

        Matching {
            pair_left: pair_u
                .into_iter()
                .map(|v| (v != NIL).then_some(v))
                .collect(),
            pair_right: pair_v
                .into_iter()
                .map(|u| (u != NIL).then_some(u))
                .collect(),
        }
    }

    mod tests {
        use super::*;

        #[test]
        fn perfect_matching_on_complete_k33() {
            let adj = vec![vec![0, 1, 2]; 3];
            let m = hopcroft_karp(3, 3, &adj);
            assert_eq!(m.size(), 3);
            // Matching must be consistent in both directions.
            for (u, &pv) in m.pair_left.iter().enumerate() {
                let v = pv.unwrap();
                assert_eq!(m.pair_right[v], Some(u));
            }
        }

        #[test]
        fn star_matches_one() {
            // One left vertex connected to three right vertices.
            let adj = vec![vec![0, 1, 2]];
            assert_eq!(hopcroft_karp(1, 3, &adj).size(), 1);
        }

        #[test]
        fn augmenting_path_is_found() {
            // u0-{v0}, u1-{v0,v1}: greedy could match u1→v0 and strand u0;
            // Hopcroft–Karp must find the size-2 matching.
            let adj = vec![vec![0], vec![0, 1]];
            assert_eq!(hopcroft_karp(2, 2, &adj).size(), 2);
        }

        #[test]
        fn empty_graph() {
            let m = hopcroft_karp(2, 2, &[vec![], vec![]]);
            assert_eq!(m.size(), 0);
        }

        #[test]
        fn koenig_on_figure2() {
            // Figure 2 instance, unweighted: max matching = min cover = 3.
            let adj = vec![vec![0, 1, 2], vec![0, 1], vec![0, 1], vec![0]];
            assert_eq!(hopcroft_karp(4, 3, &adj).size(), 3);
        }
    }
}
