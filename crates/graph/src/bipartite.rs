//! Bipartite graphs with weighted vertices.
//!
//! §2.2 reduces the single-edge optimization to weighted bipartite vertex
//! cover: the left side `U` holds source vertices (weight = raw value
//! size), the right side `V` holds destination vertices (weight = partial
//! aggregate record size), and an edge `(u, v)` records `u ~_e v`.

/// A vertex-weighted bipartite graph `(U, V, E)`.
///
/// Sides are indexed densely: `u ∈ 0..left_count`, `v ∈ 0..right_count`.
/// Callers keep their own mapping from these indices back to domain
/// entities (e.g. sensor-network node ids).
#[derive(Clone, Debug, Default)]
pub struct BipartiteGraph {
    left_weights: Vec<u64>,
    right_weights: Vec<u64>,
    /// Edges as `(u, v)` pairs, deduplicated lazily by construction order.
    edges: Vec<(usize, usize)>,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a left (source-side) vertex with the given weight; returns its
    /// index in `U`.
    pub fn add_left(&mut self, weight: u64) -> usize {
        self.left_weights.push(weight);
        self.left_weights.len() - 1
    }

    /// Adds a right (destination-side) vertex with the given weight;
    /// returns its index in `V`.
    pub fn add_right(&mut self, weight: u64) -> usize {
        self.right_weights.push(weight);
        self.right_weights.len() - 1
    }

    /// Adds the edge `(u, v)`. Duplicate edges are ignored.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.left_weights.len(), "left vertex {u} out of range");
        assert!(
            v < self.right_weights.len(),
            "right vertex {v} out of range"
        );
        if !self.edges.contains(&(u, v)) {
            self.edges.push((u, v));
        }
    }

    /// Adds the edge `(u, v)` without scanning for duplicates — for
    /// callers whose pairs are already deduplicated (the linear
    /// `contains` check in [`BipartiteGraph::add_edge`] is quadratic over
    /// a whole edge list). A duplicate inserted here would not change any
    /// cover's validity or weight, but would inflate `edges().len()`.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added.
    pub fn add_edge_unchecked(&mut self, u: usize, v: usize) {
        assert!(u < self.left_weights.len(), "left vertex {u} out of range");
        assert!(
            v < self.right_weights.len(),
            "right vertex {v} out of range"
        );
        self.edges.push((u, v));
    }

    /// Removes all vertices and edges, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.left_weights.clear();
        self.right_weights.clear();
        self.edges.clear();
    }

    /// Number of left vertices `|U|`.
    #[inline]
    pub fn left_count(&self) -> usize {
        self.left_weights.len()
    }

    /// Number of right vertices `|V|`.
    #[inline]
    pub fn right_count(&self) -> usize {
        self.right_weights.len()
    }

    /// Weight of left vertex `u`.
    #[inline]
    pub fn left_weight(&self, u: usize) -> u64 {
        self.left_weights[u]
    }

    /// Weight of right vertex `v`.
    #[inline]
    pub fn right_weight(&self, v: usize) -> u64 {
        self.right_weights[v]
    }

    /// The edge list.
    #[inline]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let mut g = BipartiteGraph::new();
        let a = g.add_left(3);
        let b = g.add_left(5);
        let x = g.add_right(2);
        g.add_edge(a, x);
        g.add_edge(b, x);
        g.add_edge(a, x); // duplicate ignored
        assert_eq!(g.left_count(), 2);
        assert_eq!(g.right_count(), 1);
        assert_eq!(g.edges(), &[(a, x), (b, x)]);
        assert_eq!(g.left_weight(b), 5);
        assert_eq!(g.right_weight(x), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_with_missing_vertex_panics() {
        let mut g = BipartiteGraph::new();
        g.add_left(1);
        g.add_edge(0, 0);
    }
}
