//! Reusable per-source routing arena.
//!
//! Building routing tables runs one BFS / Dijkstra / tree-prune per
//! source (the ETX trees run one Dijkstra per destination instead).
//! The legacy path allocated four node-count-sized vectors per
//! source (`bfs_distances`, SPT parents, prune keep-marks, and the
//! per-tree parent slab), which at 10k+ nodes makes the allocator and
//! cache misses — not graph traversal — the dominant cost.
//!
//! [`RoutingScratch`] replaces all of that with slabs that are allocated
//! once and recycled across runs using *epoch stamps*: each slot carries
//! the epoch in which it was last written, and a slot is only meaningful
//! when its stamp matches the current epoch. Starting a new run is a
//! single counter increment — O(touched), not O(n) — and no per-run
//! allocation survives.
//!
//! The arena provides:
//!
//! * [`RoutingScratch::bfs`] — hop distances from one root, matching
//!   [`crate::bfs::bfs_distances`] exactly;
//! * [`RoutingScratch::spt_parent`] — the canonical lowest-id-closer
//!   parent of [`crate::spt::ShortestPathTree`], memoized on demand so a
//!   pruned multicast tree only pays for parents along kept paths;
//! * [`RoutingScratch::dijkstra`] — weighted shortest paths on an
//!   indexed 4-ary heap with decrease-key, reading one weight per
//!   adjacency entry from a slab aligned with a [`CsrAdjacency`] and
//!   matching [`crate::dijkstra::dijkstra`] bit for bit (same
//!   [`crate::tiebreak::offer_wins`] rule; see that module for why heap
//!   layout cannot change results). Dead links (weight `u64::MAX`) are
//!   never relaxed and path sums are checked, so they cannot wrap;
//! * [`RoutingScratch::dijkstra_until_marked`] — the same run stopped
//!   once every marked target has been popped, the weighted twin of
//!   [`RoutingScratch::bfs_until_marked`]: with positive weights every
//!   chain to a popped node already equals the full run's;
//! * [`RoutingScratch::bfs_from_seeds`] — the multi-source BFS used by
//!   Steiner tree growth, recording the first discoverer of each node in
//!   the exact seed-ascending queue order the legacy implementation used;
//! * a mark set and an auxiliary tag set with an independent lifetime
//!   ([`RoutingScratch::clear_marks`]), for prune keep-sets, Steiner
//!   in-tree membership, and shared-tree re-rooting.

use crate::adjacency::{Adjacency, CsrAdjacency};
use crate::node::NodeId;
use crate::tiebreak::offer_wins;

/// Distance value of a touched-but-unreached slot.
const INF: u64 = u64::MAX;
/// Parent slot not yet computed (distinct from "computed, root/none").
const PARENT_UNSET: u32 = u32::MAX;
/// Parent computed: the node is a root (or has no closer neighbor).
const PARENT_NONE: u32 = u32::MAX - 1;
/// The node is not currently in the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// Reusable arena for per-source shortest-path runs. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct RoutingScratch {
    /// Current run epoch; `stamp[i] == epoch` marks slot `i` live.
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u64>,
    parent: Vec<u32>,
    heap_pos: Vec<u32>,
    /// Mark/aux epoch, independent of the run epoch: Steiner keeps its
    /// in-tree set alive across many BFS epochs.
    mark_epoch: u32,
    mark_stamp: Vec<u32>,
    aux_stamp: Vec<u32>,
    aux: Vec<u32>,
    heap: Vec<u32>,
    /// BFS frontier: a plain vec with a read cursor instead of a ring
    /// buffer — every node enters at most once per run, so the vec never
    /// needs to wrap and pops compile to an indexed read.
    queue: Vec<u32>,
    queue_head: usize,
}

impl RoutingScratch {
    /// Creates an empty arena; slabs grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resident bytes of the arena's slabs.
    pub fn slab_bytes(&self) -> usize {
        self.stamp.len() * 4
            + self.dist.len() * 8
            + self.parent.len() * 4
            + self.heap_pos.len() * 4
            + self.mark_stamp.len() * 4
            + self.aux_stamp.len() * 4
            + self.aux.len() * 4
            + self.heap.capacity() * 4
            + self.queue.capacity() * 4
    }

    /// Starts a fresh run over `n` nodes, invalidating all distance,
    /// parent, and heap state from the previous run in O(1) (amortized:
    /// stamps are cleared in bulk once every `u32::MAX` runs).
    pub fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, INF);
            self.parent.resize(n, PARENT_UNSET);
            self.heap_pos.resize(n, NOT_IN_HEAP);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.heap.clear();
        self.queue.clear();
        self.queue_head = 0;
    }

    /// Pops the next BFS frontier node, if any.
    #[inline]
    fn queue_pop(&mut self) -> Option<u32> {
        let v = self.queue.get(self.queue_head).copied();
        self.queue_head += v.is_some() as usize;
        v
    }

    /// Ensures slot `i` is stamped for the current epoch, resetting it on
    /// first touch.
    #[inline]
    fn touch(&mut self, i: usize) {
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.dist[i] = INF;
            self.parent[i] = PARENT_UNSET;
            self.heap_pos[i] = NOT_IN_HEAP;
        }
    }

    /// Distance of `v` in the current run, or `None` if unreached.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Option<u64> {
        let i = v.index();
        if i < self.stamp.len() && self.stamp[i] == self.epoch && self.dist[i] != INF {
            Some(self.dist[i])
        } else {
            None
        }
    }

    /// Parent of `v` recorded by the current run (`None` for roots,
    /// unreached nodes, and — for BFS runs — nodes whose SPT parent has
    /// not been demanded yet; use [`Self::spt_parent`] there).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let i = v.index();
        if i < self.stamp.len() && self.stamp[i] == self.epoch && self.parent[i] < PARENT_NONE {
            Some(NodeId(self.parent[i]))
        } else {
            None
        }
    }

    /// Runs BFS from `root`, recording hop distances only. Identical to
    /// [`crate::bfs::bfs_distances`]: `dist(v)` is `Some(hops)` exactly
    /// for reachable `v`. Parents stay unset so [`Self::spt_parent`] can
    /// memoize canonical parents on demand.
    pub fn bfs<A: Adjacency>(&mut self, graph: &A, root: NodeId) {
        self.bfs_until_marked(graph, root, usize::MAX);
    }

    /// BFS from `root` that stops once `pending` currently-marked nodes
    /// have been *discovered* (final distance assigned). Pass
    /// `usize::MAX` to flood the whole component.
    ///
    /// Every distance this records equals the full-flood distance, and —
    /// because all nodes strictly closer than the last-discovered mark
    /// are already settled — [`Self::spt_parent`] chains walked from any
    /// marked node are bit-identical to chains after a full flood:
    /// candidate predecessors sit one hop *closer*, so every candidate
    /// has its final distance recorded, and undiscovered neighbors are
    /// correctly rejected (they can only be at equal or greater
    /// distance). The multicast-tree builders exploit this by marking a
    /// source's destinations and paying only for the flood up to the
    /// farthest one.
    pub fn bfs_until_marked<A: Adjacency>(&mut self, graph: &A, root: NodeId, mut pending: usize) {
        self.begin(graph.node_count());
        self.touch(root.index());
        self.dist[root.index()] = 0;
        self.parent[root.index()] = PARENT_NONE;
        if self.is_marked(root) {
            pending = pending.saturating_sub(1);
        }
        if pending == 0 {
            return;
        }
        self.queue.push(root.0);
        'flood: while let Some(u) = self.queue_pop() {
            let du = self.dist[u as usize];
            for &v in graph.neighbors(NodeId(u)) {
                let i = v.index();
                if self.stamp[i] != self.epoch {
                    // Discovery: lighter than `touch` — BFS never reads
                    // `heap_pos`, and a later Dijkstra epoch re-touches.
                    self.stamp[i] = self.epoch;
                    self.dist[i] = du + 1;
                    self.parent[i] = PARENT_UNSET;
                    if self.mark_stamp.get(i) == Some(&self.mark_epoch) {
                        pending -= 1;
                        if pending == 0 {
                            break 'flood;
                        }
                    }
                    self.queue.push(v.0);
                }
            }
        }
    }

    /// The canonical SPT parent of `v` for the BFS run of the current
    /// epoch: the lowest-id neighbor one hop closer to the root, exactly
    /// as [`crate::spt::ShortestPathTree::build`] assigns it — but
    /// computed (and memoized) only for the nodes actually asked about.
    ///
    /// Returns `None` for the root and for unreached nodes. Must only be
    /// used after [`Self::bfs`]; mixing with [`Self::dijkstra`] or
    /// [`Self::bfs_from_seeds`] in the same epoch would read their
    /// parent records instead.
    pub fn spt_parent<A: Adjacency>(&mut self, graph: &A, v: NodeId) -> Option<NodeId> {
        let i = v.index();
        if i >= self.stamp.len() || self.stamp[i] != self.epoch || self.dist[i] == INF {
            return None;
        }
        if self.parent[i] != PARENT_UNSET {
            return if self.parent[i] == PARENT_NONE {
                None
            } else {
                Some(NodeId(self.parent[i]))
            };
        }
        let dv = self.dist[i];
        let mut best: Option<NodeId> = None;
        for &u in graph.neighbors(v) {
            if self.dist(u) == Some(dv - 1) && offer_wins(dv, u, best.map(|_| dv), best) {
                best = Some(u);
            }
        }
        debug_assert!(best.is_some(), "non-root reachable node must have a parent");
        self.parent[i] = best.map_or(PARENT_NONE, |p| p.0);
        best
    }

    /// Multi-source BFS used for Steiner tree growth: all `seeds` start
    /// at distance 0 and are enqueued in the order given (callers pass
    /// ascending id order to reproduce the legacy queue order), and each
    /// discovered node's parent records its *first discoverer* — the
    /// `via` pointer the attach walk follows. Seeds get no parent.
    pub fn bfs_from_seeds<A: Adjacency>(&mut self, graph: &A, seeds: &[NodeId]) {
        self.begin(graph.node_count());
        for &s in seeds {
            self.touch(s.index());
            self.dist[s.index()] = 0;
            self.parent[s.index()] = PARENT_NONE;
            self.queue.push(s.0);
        }
        while let Some(u) = self.queue_pop() {
            let du = self.dist[u as usize];
            for &v in graph.neighbors(NodeId(u)) {
                let i = v.index();
                if self.stamp[i] != self.epoch {
                    self.stamp[i] = self.epoch;
                    self.dist[i] = du + 1;
                    self.parent[i] = u;
                    self.queue.push(v.0);
                }
            }
        }
    }

    /// Runs Dijkstra from `root` on an indexed 4-ary heap with
    /// decrease-key. `weights` holds one weight per adjacency entry of
    /// `graph` (see [`CsrAdjacency::entry_range`]); a weight of
    /// `u64::MAX` is a dead link and is never relaxed, and a path whose
    /// sum would reach `u64::MAX` is dropped instead of wrapping. On
    /// every other input it produces the same distances and parents as
    /// [`crate::dijkstra::dijkstra`]: both apply [`offer_wins`] to every
    /// optimal predecessor, which pins the result independent of heap
    /// order.
    pub fn dijkstra(&mut self, graph: &CsrAdjacency, root: NodeId, weights: &[u64]) {
        self.dijkstra_until_marked(graph, root, weights, usize::MAX);
    }

    /// [`Self::dijkstra`] that stops once `pending` currently-marked
    /// nodes have been *popped* (distance final). Pass `usize::MAX` to
    /// settle the whole component.
    ///
    /// With every weight positive, the chains [`Self::extend_path_to`]
    /// walks from any popped node are bit-identical to a full run's. A
    /// popped node's optimal predecessors all lie strictly closer, so
    /// each was popped before it and offered it a path; [`offer_wins`]
    /// has therefore already settled its parent to the min-id optimal
    /// predecessor, and every node on its chain was popped earlier still.
    /// Every node strictly closer than the last popped mark is final too.
    /// The ETX forest builder runs it from each destination, marks that
    /// destination's sources, and pays only for the run up to the
    /// farthest one: over symmetric weights, those distances serve every
    /// one of its sources.
    ///
    /// # Panics
    /// Panics unless `weights` has one entry per adjacency entry.
    pub fn dijkstra_until_marked(
        &mut self,
        graph: &CsrAdjacency,
        root: NodeId,
        weights: &[u64],
        mut pending: usize,
    ) {
        assert_eq!(
            weights.len(),
            graph.entry_count(),
            "one weight per adjacency entry"
        );
        self.begin(graph.node_count());
        self.touch(root.index());
        self.dist[root.index()] = 0;
        self.parent[root.index()] = PARENT_NONE;
        if pending == 0 {
            return;
        }
        self.heap_push(root.0);
        while let Some(u) = self.heap_pop() {
            if self.is_marked(NodeId(u)) {
                pending -= 1;
                if pending == 0 {
                    break;
                }
            }
            let du = self.dist[u as usize];
            let entries = graph.entry_range(NodeId(u));
            let neighbors = graph.neighbors(NodeId(u));
            for (&v, &w) in neighbors.iter().zip(&weights[entries]) {
                // A dead link (infinite ETX) carries nothing, and a sum
                // that reaches the unreached sentinel is no path either.
                let Some(cand) = du.checked_add(w).filter(|&c| c != INF) else {
                    continue;
                };
                let i = v.index();
                self.touch(i);
                let incumbent_dist = (self.dist[i] != INF).then_some(self.dist[i]);
                let incumbent_parent =
                    (self.parent[i] < PARENT_NONE).then_some(NodeId(self.parent[i]));
                if offer_wins(cand, NodeId(u), incumbent_dist, incumbent_parent) {
                    self.dist[i] = cand;
                    self.parent[i] = u;
                    self.heap_push(v.0);
                }
            }
        }
    }

    /// Appends the root→`v` chain of the current run to `path` (root
    /// first), following recorded parents. Returns `false` (leaving
    /// `path` untouched) if `v` is unreached. For BFS runs, parents must
    /// have been materialized along the chain via [`Self::spt_parent`].
    pub fn extend_path_to(&self, v: NodeId, path: &mut Vec<NodeId>) -> bool {
        if self.dist(v).is_none() {
            return false;
        }
        let start = path.len();
        path.push(v);
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path[start..].reverse();
        true
    }

    // ----- mark / aux set (independent lifetime) -----

    /// Invalidates the mark and aux sets and ensures they cover `n`
    /// nodes. Marks live across [`Self::begin`] calls: Steiner keeps its
    /// in-tree set while re-running BFS every growth round.
    pub fn clear_marks(&mut self, n: usize) {
        if self.mark_stamp.len() < n {
            self.mark_stamp.resize(n, 0);
            self.aux_stamp.resize(n, 0);
            self.aux.resize(n, 0);
        }
        if self.mark_epoch == u32::MAX {
            self.mark_stamp.iter_mut().for_each(|s| *s = 0);
            self.aux_stamp.iter_mut().for_each(|s| *s = 0);
            self.mark_epoch = 0;
        }
        self.mark_epoch += 1;
    }

    /// Marks `v`; returns `true` if it was not marked before.
    #[inline]
    pub fn mark(&mut self, v: NodeId) -> bool {
        let fresh = self.mark_stamp[v.index()] != self.mark_epoch;
        self.mark_stamp[v.index()] = self.mark_epoch;
        fresh
    }

    /// Whether `v` is marked.
    #[inline]
    pub fn is_marked(&self, v: NodeId) -> bool {
        v.index() < self.mark_stamp.len() && self.mark_stamp[v.index()] == self.mark_epoch
    }

    /// Tags `v` with an arbitrary value, valid until the next
    /// [`Self::clear_marks`]. Used by shared-tree re-rooting to record,
    /// for each ancestor of the source, the chain successor toward it.
    #[inline]
    pub fn set_aux(&mut self, v: NodeId, value: u32) {
        self.aux_stamp[v.index()] = self.mark_epoch;
        self.aux[v.index()] = value;
    }

    /// The tag set on `v` since the last [`Self::clear_marks`], if any.
    #[inline]
    pub fn aux(&self, v: NodeId) -> Option<u32> {
        if v.index() < self.aux_stamp.len() && self.aux_stamp[v.index()] == self.mark_epoch {
            Some(self.aux[v.index()])
        } else {
            None
        }
    }

    // ----- indexed 4-ary min-heap keyed by (dist, node id) -----

    #[inline]
    fn heap_key(&self, node: u32) -> (u64, u32) {
        (self.dist[node as usize], node)
    }

    /// Inserts `node` or restores heap order after its key decreased.
    fn heap_push(&mut self, node: u32) {
        let pos = self.heap_pos[node as usize];
        if pos == NOT_IN_HEAP {
            self.heap.push(node);
            self.heap_pos[node as usize] = (self.heap.len() - 1) as u32;
            self.sift_up(self.heap.len() - 1);
        } else {
            self.sift_up(pos as usize);
        }
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        self.heap_pos[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        let node = self.heap[i];
        let key = self.heap_key(node);
        while i > 0 {
            let up = (i - 1) / 4;
            let above = self.heap[up];
            if self.heap_key(above) <= key {
                break;
            }
            self.heap[i] = above;
            self.heap_pos[above as usize] = i as u32;
            i = up;
        }
        self.heap[i] = node;
        self.heap_pos[node as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let node = self.heap[i];
        let key = self.heap_key(node);
        loop {
            let first_child = i * 4 + 1;
            if first_child >= self.heap.len() {
                break;
            }
            let mut best = first_child;
            let mut best_key = self.heap_key(self.heap[first_child]);
            let end = (first_child + 4).min(self.heap.len());
            for c in first_child + 1..end {
                let ck = self.heap_key(self.heap[c]);
                if ck < best_key {
                    best = c;
                    best_key = ck;
                }
            }
            if key <= best_key {
                break;
            }
            let child = self.heap[best];
            self.heap[i] = child;
            self.heap_pos[child as usize] = i as u32;
            i = best;
        }
        self.heap[i] = node;
        self.heap_pos[node as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::Graph;
    use crate::bfs::bfs_distances;
    use crate::dijkstra::dijkstra;
    use crate::spt::ShortestPathTree;

    /// A 2×3 grid plus a pendant and an isolated node:
    /// 0-1-2
    /// | | |
    /// 3-4-5-6    7
    fn grid() -> Graph {
        let mut g = Graph::new(8);
        for (a, b) in [
            (0, 1),
            (1, 2),
            (3, 4),
            (4, 5),
            (0, 3),
            (1, 4),
            (2, 5),
            (5, 6),
        ] {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }

    fn weight(u: NodeId, v: NodeId) -> u64 {
        // Deterministic, asymmetric-free positive weights.
        1 + ((u.0 ^ v.0) % 3) as u64
    }

    /// One `weight(u, v)` per adjacency entry of `csr`, in entry order.
    fn weight_slab(csr: &CsrAdjacency, weight: impl Fn(NodeId, NodeId) -> u64) -> Vec<u64> {
        let mut slab = Vec::with_capacity(csr.entry_count());
        for u in (0..Adjacency::node_count(csr)).map(NodeId::from_index) {
            slab.extend(csr.neighbors(u).iter().map(|&v| weight(u, v)));
        }
        slab
    }

    #[test]
    fn bfs_matches_bfs_distances_for_every_root() {
        let g = grid();
        let mut scratch = RoutingScratch::new();
        for root in g.nodes() {
            scratch.bfs(&g, root);
            let oracle = bfs_distances(&g, root);
            for v in g.nodes() {
                assert_eq!(
                    scratch.dist(v),
                    oracle[v.index()].map(u64::from),
                    "root {root} node {v}"
                );
            }
        }
    }

    #[test]
    fn spt_parent_matches_shortest_path_tree() {
        let g = grid();
        let mut scratch = RoutingScratch::new();
        for root in g.nodes() {
            scratch.bfs(&g, root);
            let spt = ShortestPathTree::build(&g, root);
            for v in g.nodes() {
                assert_eq!(
                    scratch.spt_parent(&g, v),
                    spt.parent(v),
                    "root {root} node {v}"
                );
            }
        }
    }

    #[test]
    fn dijkstra_matches_binary_heap_dijkstra() {
        let g = grid();
        let csr = CsrAdjacency::from_graph(&g);
        let slab = weight_slab(&csr, weight);
        let mut scratch = RoutingScratch::new();
        for root in g.nodes() {
            scratch.dijkstra(&csr, root, &slab);
            let oracle = dijkstra(&g, root, weight);
            for v in g.nodes() {
                assert_eq!(
                    scratch.dist(v),
                    oracle.dist[v.index()],
                    "root {root} node {v}"
                );
                assert_eq!(
                    scratch.parent(v),
                    oracle.parent[v.index()],
                    "root {root} node {v}"
                );
            }
        }
    }

    #[test]
    fn dijkstra_reproduces_low_id_tie_break() {
        // Same diamond as dijkstra::tests::tie_break_prefers_low_id_parent.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        let csr = CsrAdjacency::from_graph(&g);
        let mut scratch = RoutingScratch::new();
        scratch.dijkstra(&csr, NodeId(0), &vec![1; csr.entry_count()]);
        assert_eq!(scratch.parent(NodeId(3)), Some(NodeId(1)));
        let oracle = dijkstra(&g, NodeId(0), |_, _| 1);
        assert_eq!(scratch.parent(NodeId(3)), oracle.parent[3]);
    }

    #[test]
    fn early_exit_chains_equal_a_full_runs() {
        // Every root, every target pair (the root itself included): the
        // run stopped at the last popped target gives each target the
        // distance and root chain of the full run.
        let g = grid();
        let csr = CsrAdjacency::from_graph(&g);
        let slab = weight_slab(&csr, weight);
        let (mut full, mut early) = (RoutingScratch::new(), RoutingScratch::new());
        let mut stopped_early = 0;
        for root in g.nodes() {
            full.dijkstra(&csr, root, &slab);
            for a in g.nodes() {
                for b in g.nodes() {
                    early.clear_marks(g.node_count());
                    let pending = usize::from(early.mark(a)) + usize::from(early.mark(b));
                    early.dijkstra_until_marked(&csr, root, &slab, pending);
                    for t in [a, b] {
                        assert_eq!(early.dist(t), full.dist(t), "root {root} target {t}");
                        let (mut want, mut got) = (Vec::new(), Vec::new());
                        full.extend_path_to(t, &mut want);
                        early.extend_path_to(t, &mut got);
                        assert_eq!(got, want, "root {root} target {t}");
                    }
                    stopped_early += usize::from(g.nodes().any(|v| early.dist(v) != full.dist(v)));
                }
            }
        }
        assert!(
            stopped_early > 0,
            "no run exited before settling its component"
        );
    }

    #[test]
    fn dead_links_are_never_relaxed_and_sums_never_wrap() {
        // Triangle: 0-1 costs 1000, 0-2 costs 2000, 1-2 is dead.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        let csr = CsrAdjacency::from_graph(&g);
        let slab = weight_slab(&csr, |u, v| match (u.0.min(v.0), u.0.max(v.0)) {
            (0, 1) => 1000,
            (0, 2) => 2000,
            _ => u64::MAX,
        });
        let mut scratch = RoutingScratch::new();
        scratch.dijkstra(&csr, NodeId(0), &slab);
        assert_eq!(scratch.dist(NodeId(2)), Some(2000));
        assert_eq!(scratch.parent(NodeId(2)), Some(NodeId(0)));
        assert_eq!(scratch.parent(NodeId(1)), Some(NodeId(0)));
        scratch.dijkstra(&csr, NodeId(1), &slab);
        assert_eq!(scratch.dist(NodeId(2)), Some(3000));
        assert_eq!(scratch.parent(NodeId(2)), Some(NodeId(0)));

        // A path whose sum would reach `u64::MAX` is no path: 0-1-2 with
        // finite weights that sum to exactly `u64::MAX`, then past it.
        let mut line = Graph::new(3);
        line.add_edge(NodeId(0), NodeId(1));
        line.add_edge(NodeId(1), NodeId(2));
        let csr = CsrAdjacency::from_graph(&line);
        for tail in [1, u64::MAX - 1] {
            let slab = weight_slab(&csr, |u, v| {
                if u.0.max(v.0) == 1 {
                    u64::MAX - 1
                } else {
                    tail
                }
            });
            scratch.dijkstra(&csr, NodeId(0), &slab);
            assert_eq!(scratch.dist(NodeId(1)), Some(u64::MAX - 1));
            assert_eq!(scratch.dist(NodeId(2)), None, "tail {tail}");
            assert_eq!(scratch.parent(NodeId(2)), None, "tail {tail}");
        }
    }

    #[test]
    fn reuse_across_runs_is_identical_to_fresh_scratch() {
        let g = grid();
        let mut small = Graph::new(3);
        small.add_edge(NodeId(0), NodeId(1));
        small.add_edge(NodeId(1), NodeId(2));

        // Interleave runs over graphs of different sizes, then compare
        // against a fresh arena on the final run.
        let mut reused = RoutingScratch::new();
        let csr = CsrAdjacency::from_graph(&g);
        reused.dijkstra(&csr, NodeId(6), &weight_slab(&csr, weight));
        reused.bfs(&small, NodeId(2));
        reused.bfs(&g, NodeId(1));
        for v in g.nodes() {
            reused.spt_parent(&g, v);
        }
        reused.bfs(&g, NodeId(4));

        let mut fresh = RoutingScratch::new();
        fresh.bfs(&g, NodeId(4));
        for v in g.nodes() {
            assert_eq!(reused.dist(v), fresh.dist(v), "{v}");
            assert_eq!(reused.spt_parent(&g, v), fresh.spt_parent(&g, v), "{v}");
        }
    }

    #[test]
    fn bfs_from_seeds_records_first_discoverer() {
        let g = grid();
        let mut scratch = RoutingScratch::new();
        scratch.bfs_from_seeds(&g, &[NodeId(0), NodeId(5)]);
        assert_eq!(scratch.dist(NodeId(0)), Some(0));
        assert_eq!(scratch.dist(NodeId(5)), Some(0));
        assert_eq!(scratch.parent(NodeId(0)), None);
        // 4 is adjacent to both seeds; seed 0's neighbors enqueue first,
        // but 4 is only adjacent to seed 5 among the seeds... check: 4's
        // neighbors are 1, 3, 5. Seed 0 discovers 1 and 3; seed 5
        // discovers 4 and 6 directly.
        assert_eq!(scratch.parent(NodeId(4)), Some(NodeId(5)));
        assert_eq!(scratch.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(scratch.dist(NodeId(1)), Some(1));
        assert_eq!(scratch.dist(NodeId(7)), None);
    }

    #[test]
    fn marks_survive_begin_but_not_clear_marks() {
        let g = grid();
        let mut scratch = RoutingScratch::new();
        scratch.clear_marks(g.node_count());
        assert!(scratch.mark(NodeId(3)));
        assert!(!scratch.mark(NodeId(3)));
        scratch.set_aux(NodeId(3), 42);
        scratch.bfs(&g, NodeId(0)); // begin() must not disturb marks
        assert!(scratch.is_marked(NodeId(3)));
        assert_eq!(scratch.aux(NodeId(3)), Some(42));
        assert_eq!(scratch.aux(NodeId(4)), None);
        scratch.clear_marks(g.node_count());
        assert!(!scratch.is_marked(NodeId(3)));
        assert_eq!(scratch.aux(NodeId(3)), None);
    }

    #[test]
    fn extend_path_follows_memoized_parents() {
        let g = grid();
        let mut scratch = RoutingScratch::new();
        scratch.bfs(&g, NodeId(0));
        // Materialize parents along the chain to 6.
        let mut cur = NodeId(6);
        while let Some(p) = scratch.spt_parent(&g, cur) {
            cur = p;
        }
        let mut path = Vec::new();
        assert!(scratch.extend_path_to(NodeId(6), &mut path));
        let spt = ShortestPathTree::build(&g, NodeId(0));
        assert_eq!(path, spt.path_to(NodeId(6)).unwrap());
        assert!(!scratch.extend_path_to(NodeId(7), &mut path));
    }
}
