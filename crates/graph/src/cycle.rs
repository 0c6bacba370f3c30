//! Directed-graph cycle detection and topological ordering.
//!
//! The message merger of §3 must never merge two messages if the combined
//! wait-for relation would contain a cycle (Theorem 2 guarantees the
//! *unmerged* plan is acyclic; merging can re-introduce cycles).
//! [`topological_order`] operates on ad-hoc directed graphs given as arc
//! lists over dense vertex indices, and returns `None` on a cycle.

/// Returns a topological order of `0..n` under the arcs `from → to`, or
/// `None` if the directed graph contains a cycle. (Kahn's algorithm;
/// deterministic: the initially ready vertices are consumed in ascending
/// index order, then each vertex becomes ready in the order its last
/// incoming arc is consumed, out-arcs being scanned in `arcs` order.)
pub fn topological_order(n: usize, arcs: &[(usize, usize)]) -> Option<Vec<usize>> {
    // Out-lists as one CSR slab (a counting sort by tail that keeps each
    // tail's arcs in input order), not one vector per vertex.
    let mut start = vec![0usize; n + 1];
    let mut indegree = vec![0usize; n];
    for &(a, b) in arcs {
        assert!(a < n && b < n, "arc endpoint out of range");
        start[a + 1] += 1;
        indegree[b] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut out = vec![0usize; arcs.len()];
    for &(a, b) in arcs {
        out[start[a]] = b;
        start[a] += 1;
    }
    // `start[a]` now holds the end of `a`'s run, which is where the next
    // vertex's run begins.
    start.rotate_right(1);
    start[0] = 0;
    // The order doubles as the FIFO queue of ready vertices.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    order.extend((0..n).filter(|&v| indegree[v] == 0));
    let mut head = 0;
    while let Some(&v) = order.get(head) {
        head += 1;
        for &w in &out[start[v]..start[v + 1]] {
            indegree[w] -= 1;
            if indegree[w] == 0 {
                order.push(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_orders_respect_arcs() {
        let arcs = [(0, 2), (1, 2), (2, 3)];
        let order = topological_order(4, &arcs).unwrap();
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        for &(a, b) in &arcs {
            assert!(pos(a) < pos(b));
        }
    }

    #[test]
    fn self_loop_is_a_cycle() {
        assert_eq!(topological_order(1, &[(0, 0)]), None);
    }

    #[test]
    fn two_cycle_detected() {
        assert_eq!(topological_order(2, &[(0, 1), (1, 0)]), None);
    }

    #[test]
    fn long_cycle_detected() {
        assert_eq!(
            topological_order(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]),
            None
        );
    }

    #[test]
    fn empty_graph_is_acyclic() {
        assert_eq!(topological_order(3, &[]), Some(vec![0, 1, 2]));
    }

    #[test]
    fn parallel_arcs_are_fine() {
        assert_eq!(topological_order(2, &[(0, 1), (0, 1)]), Some(vec![0, 1]));
    }
}
