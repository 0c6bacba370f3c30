//! Undirected adjacency-list graphs.

use crate::node::NodeId;

/// An undirected graph over dense node ids `0..n`.
///
/// Neighbor lists are kept sorted by id so iteration order (and therefore
/// every tie-break downstream) is deterministic.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Graph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::from_index)
    }

    /// Adds the undirected edge `{a, b}`. Duplicate and self edges are
    /// ignored, so the graph stays simple.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert!(a.index() < self.adj.len(), "node {a} out of range");
        assert!(b.index() < self.adj.len(), "node {b} out of range");
        if a == b || self.has_edge(a, b) {
            return;
        }
        let insert_sorted = |list: &mut Vec<NodeId>, v: NodeId| {
            let pos = list.partition_point(|&x| x < v);
            list.insert(pos, v);
        };
        insert_sorted(&mut self.adj[a.index()], b);
        insert_sorted(&mut self.adj[b.index()], a);
        self.edge_count += 1;
    }

    /// Returns true if the undirected edge `{a, b}` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.adj[a.index()].binary_search(&b).is_ok()
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v.index()]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Iterator over undirected edges as `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |a| {
            self.neighbors(a)
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// Returns true if every node is reachable from node 0 (vacuously true
    /// for the empty graph).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let order = crate::bfs::bfs_order(self, NodeId(0));
        order.len() == n
    }
}

/// Read-only neighbor access, implemented by both [`Graph`] and
/// [`CsrAdjacency`]. Traversals ([`crate::scratch::RoutingScratch`]) are
/// generic over this so hot loops can run on the flattened layout while
/// tests and one-shot callers keep passing a [`Graph`] directly.
pub trait Adjacency {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Sorted neighbor list of `v`.
    fn neighbors(&self, v: NodeId) -> &[NodeId];
}

impl Adjacency for Graph {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }
    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        Graph::neighbors(self, v)
    }
}

/// A compressed-sparse-row snapshot of a [`Graph`]: all neighbor lists
/// packed into one contiguous slab with per-node offsets.
///
/// `Graph` keeps one `Vec` per node, which is the right shape for
/// incremental construction but costs a pointer chase into a scattered
/// heap allocation per visited node. Routing runs thousands of
/// traversals over a graph that never changes between them, so the
/// forest builders snapshot it once (O(V+E)) and traverse the slab.
/// Neighbor order is preserved exactly, so every traversal — and every
/// downstream tie-break — is bit-identical to running on the `Graph`.
#[derive(Clone, Debug)]
pub struct CsrAdjacency {
    start: Vec<u32>,
    neighbors: Vec<NodeId>,
}

impl CsrAdjacency {
    /// Flattens `graph` into CSR form.
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut start = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * graph.edge_count());
        start.push(0);
        for v in graph.nodes() {
            neighbors.extend_from_slice(graph.neighbors(v));
            start.push(neighbors.len() as u32);
        }
        CsrAdjacency { start, neighbors }
    }

    /// Number of adjacency entries: twice the undirected edge count.
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Positions of `v`'s entries in the flat slab: `neighbors(v)[j]`
    /// sits at `entry_range(v).start + j`. A slab of per-entry values
    /// (such as one link weight per entry) indexed this way stays aligned
    /// with the adjacency.
    #[inline]
    pub fn entry_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.start[v.index()] as usize..self.start[v.index() + 1] as usize
    }

    /// Resident bytes of the slabs.
    pub fn slab_bytes(&self) -> usize {
        self.start.len() * std::mem::size_of::<u32>()
            + self.neighbors.len() * std::mem::size_of::<NodeId>()
    }
}

impl Adjacency for CsrAdjacency {
    #[inline]
    fn node_count(&self) -> usize {
        self.start.len() - 1
    }
    #[inline]
    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.entry_range(v)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(NodeId::from_index(i - 1), NodeId::from_index(i));
        }
        g
    }

    #[test]
    fn add_edge_is_symmetric_and_sorted() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(2), NodeId(0));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(2), NodeId(1));
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(0));
        g.add_edge(NodeId(1), NodeId(1));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = path_graph(4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
            ]
        );
    }

    #[test]
    fn connectivity() {
        assert!(path_graph(5).is_connected());
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(3));
        assert!(!g.is_connected());
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(5));
    }

    #[test]
    fn csr_mirrors_graph_exactly() {
        let mut g = Graph::new(5);
        for (a, b) in [(0, 1), (1, 2), (0, 3), (3, 4), (1, 4)] {
            g.add_edge(NodeId(a), NodeId(b));
        }
        let csr = CsrAdjacency::from_graph(&g);
        assert_eq!(Adjacency::node_count(&csr), g.node_count());
        for v in g.nodes() {
            assert_eq!(Adjacency::neighbors(&csr, v), g.neighbors(v), "node {v}");
        }
        // Entry ranges tile the slab in node order.
        assert_eq!(csr.entry_count(), 2 * g.edge_count());
        let mut next = 0;
        for v in g.nodes() {
            let range = csr.entry_range(v);
            assert_eq!((range.start, range.len()), (next, g.degree(v)), "node {v}");
            next = range.end;
        }
        // Isolated trailing node keeps an empty window.
        let lonely = CsrAdjacency::from_graph(&Graph::new(3));
        assert_eq!(Adjacency::node_count(&lonely), 3);
        assert!(Adjacency::neighbors(&lonely, NodeId(2)).is_empty());
    }
}
