//! Differential testing of the two max-flow implementations: Dinic (the
//! vertex-cover kernel's engine) and push–relabel must agree on random
//! networks, and both must match the brute-force min cut on small ones.

use m2m_graph::maxflow::FlowNetwork;
use proptest::prelude::*;
use push_relabel::{push_relabel_max_flow, CapArc};

#[derive(Debug, Clone)]
struct RandomNetwork {
    n: usize,
    arcs: Vec<(usize, usize, u64)>,
}

fn network_strategy(max_n: usize) -> impl Strategy<Value = RandomNetwork> {
    (2..=max_n).prop_flat_map(move |n| {
        prop::collection::vec((0..n, 0..n, 1u64..50), 0..n * 3)
            .prop_map(move |arcs| RandomNetwork { n, arcs })
    })
}

fn dinic_value(net: &RandomNetwork) -> u64 {
    let mut flow = FlowNetwork::new(net.n);
    for &(u, v, c) in &net.arcs {
        if u != v {
            flow.add_arc(u, v, c);
        }
    }
    flow.max_flow(0, net.n - 1)
}

fn push_relabel_value(net: &RandomNetwork) -> u64 {
    let arcs: Vec<CapArc> = net
        .arcs
        .iter()
        .map(|&(from, to, cap)| CapArc { from, to, cap })
        .collect();
    push_relabel_max_flow(net.n, &arcs, 0, net.n - 1)
}

/// Exhaustive min-cut over all source-side subsets (s inside, t outside).
fn brute_force_min_cut(net: &RandomNetwork) -> u64 {
    let n = net.n;
    assert!(n <= 12);
    let s = 0usize;
    let t = n - 1;
    let mut best = u64::MAX;
    for mask in 0u32..(1 << n) {
        if mask & (1 << s) == 0 || mask & (1 << t) != 0 {
            continue;
        }
        let cut: u64 = net
            .arcs
            .iter()
            .filter(|&&(u, v, _)| u != v && mask & (1 << u) != 0 && mask & (1 << v) == 0)
            .map(|&(_, _, c)| c)
            .sum();
        best = best.min(cut);
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The two implementations agree on arbitrary networks.
    #[test]
    fn dinic_equals_push_relabel(net in network_strategy(14)) {
        prop_assert_eq!(dinic_value(&net), push_relabel_value(&net));
    }

    /// Max-flow equals min-cut (both implementations) on small networks.
    #[test]
    fn max_flow_min_cut_duality(net in network_strategy(9)) {
        let cut = brute_force_min_cut(&net);
        prop_assert_eq!(dinic_value(&net), cut);
        prop_assert_eq!(push_relabel_value(&net), cut);
    }
}

mod push_relabel {
    //! Push–relabel maximum flow (FIFO vertex selection).
    //!
    //! A second, independently implemented max-flow algorithm. Its only job
    //! is *differential testing*: the vertex-cover kernel rests on
    //! `m2m_graph::maxflow` (Dinic), and the property tests above check
    //! both algorithms agree on random networks — the same
    //! defense-in-depth the cover solver gets from Hopcroft–Karp via
    //! König's theorem (`tests/prop_vertex_cover.rs`).

    use std::collections::BTreeMap;

    /// A directed arc with capacity, for [`push_relabel_max_flow`].
    #[derive(Clone, Copy, Debug)]
    pub struct CapArc {
        /// Tail vertex.
        pub from: usize,
        /// Head vertex.
        pub to: usize,
        /// Capacity.
        pub cap: u64,
    }

    /// Computes the s→t max-flow value with the push–relabel method.
    ///
    /// # Panics
    /// Panics if `s == t` or an arc endpoint is out of range.
    pub fn push_relabel_max_flow(n: usize, arcs: &[CapArc], s: usize, t: usize) -> u64 {
        assert_ne!(s, t, "source and sink must differ");
        // Residual graph: adjacency of (to, rev index) with capacities.
        struct Edge {
            to: usize,
            cap: u64,
            rev: usize,
        }
        let mut adj: Vec<Vec<Edge>> = (0..n).map(|_| Vec::new()).collect();
        // Merge parallel arcs so residual bookkeeping stays simple.
        let mut merged: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for a in arcs {
            assert!(a.from < n && a.to < n, "arc endpoint out of range");
            if a.from != a.to {
                *merged.entry((a.from, a.to)).or_insert(0) += a.cap;
            }
        }
        for (&(u, v), &cap) in &merged {
            let ru = adj[u].len();
            let rv = adj[v].len();
            adj[u].push(Edge {
                to: v,
                cap,
                rev: rv,
            });
            adj[v].push(Edge {
                to: u,
                cap: 0,
                rev: ru,
            });
        }

        let mut height = vec![0usize; n];
        let mut excess = vec![0u64; n];
        height[s] = n;

        // Saturate source arcs.
        for i in 0..adj[s].len() {
            let (to, cap) = (adj[s][i].to, adj[s][i].cap);
            if cap > 0 {
                adj[s][i].cap = 0;
                let rev = adj[s][i].rev;
                adj[to][rev].cap += cap;
                excess[to] += cap;
            }
        }

        // FIFO active list (simple and adequate at our sizes).
        let mut active: Vec<usize> = (0..n)
            .filter(|&v| v != s && v != t && excess[v] > 0)
            .collect();
        while let Some(&u) = active.first() {
            let mut pushed_any = false;
            for i in 0..adj[u].len() {
                if excess[u] == 0 {
                    break;
                }
                let (to, cap) = (adj[u][i].to, adj[u][i].cap);
                if cap > 0 && height[u] == height[to] + 1 {
                    let delta = excess[u].min(cap);
                    adj[u][i].cap -= delta;
                    let rev = adj[u][i].rev;
                    adj[to][rev].cap += delta;
                    excess[u] -= delta;
                    excess[to] += delta;
                    pushed_any = true;
                    if to != s && to != t && !active.contains(&to) {
                        active.push(to);
                    }
                }
            }
            if excess[u] == 0 {
                active.retain(|&v| v != u);
            } else if !pushed_any {
                // Relabel: one above the lowest admissible neighbor.
                let min_h = adj[u]
                    .iter()
                    .filter(|e| e.cap > 0)
                    .map(|e| height[e.to])
                    .min()
                    .expect("active vertex has residual arcs");
                height[u] = min_h + 1;
            }
        }
        excess[t]
    }

    mod tests {
        use super::*;

        fn arcs(list: &[(usize, usize, u64)]) -> Vec<CapArc> {
            list.iter()
                .map(|&(from, to, cap)| CapArc { from, to, cap })
                .collect()
        }

        #[test]
        fn single_arc() {
            assert_eq!(push_relabel_max_flow(2, &arcs(&[(0, 1, 7)]), 0, 1), 7);
        }

        #[test]
        fn diamond() {
            let a = arcs(&[(0, 1, 2), (1, 3, 2), (0, 2, 3), (2, 3, 3)]);
            assert_eq!(push_relabel_max_flow(4, &a, 0, 3), 5);
        }

        #[test]
        fn bottleneck() {
            let a = arcs(&[(0, 1, 10), (0, 2, 10), (1, 3, 1), (2, 3, 1), (3, 4, 1)]);
            assert_eq!(push_relabel_max_flow(5, &a, 0, 4), 1);
        }

        #[test]
        fn disconnected_sink() {
            assert_eq!(push_relabel_max_flow(3, &arcs(&[(0, 1, 4)]), 0, 2), 0);
        }

        #[test]
        fn parallel_arcs_add_up() {
            let a = arcs(&[(0, 1, 3), (0, 1, 4)]);
            assert_eq!(push_relabel_max_flow(2, &a, 0, 1), 7);
        }

        #[test]
        fn back_and_forth_network() {
            // Flow must route around a tempting dead end.
            let a = arcs(&[(0, 1, 5), (1, 2, 3), (1, 3, 5), (3, 2, 2), (2, 4, 5)]);
            assert_eq!(push_relabel_max_flow(5, &a, 0, 4), 5);
        }
    }
}
