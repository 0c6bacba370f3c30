//! Flat-slab routing forests.
//!
//! The legacy routing state stored one [`MulticastTree`] per source in a
//! `BTreeMap`, each tree carrying a node-count-sized parent vector. At
//! 10k nodes × 10k sources that is ~800 MB of mostly-`None` parents and
//! one heap allocation per tree — the dominant cost of plan builds. A
//! [`RoutingForest`] packs *all* trees into six shared slabs in CSR
//! (compressed sparse row) form:
//!
//! ```text
//! sources:    [s0, s1, ...]                     ascending source ids
//! node_start: [0, |T0|, |T0|+|T1|, ...]         per-tree node ranges
//! nodes:      [tree0 nodes asc | tree1 ... ]    member ids, ascending per tree
//! parent_pos: [tree0 parents   | tree1 ... ]    parent as *local position*
//! dest_start: [0, |D0|, ...]                    per-tree destination ranges
//! dests:      [tree0 dests     | tree1 ... ]    sorted per tree
//! ```
//!
//! Storage is proportional to Σ|T_s| (the paper's Theorem 3 state bound)
//! instead of `sources × n`, and a whole forest is six allocations.
//! [`TreeView`] is a `Copy` window over one tree's rows exposing the full
//! `MulticastTree` read API (`parent`, `path_to`, `edges`,
//! `destinations_through`, …), so plan construction, validation, and the
//! executors are agnostic to the storage change.
//!
//! The three construction modes of [`crate::routing::RoutingMode`], and
//! the ETX-weighted trees of [`crate::quality::weighted_routing`], build
//! directly into the slabs through one shared [`m2m_graph::RoutingScratch`]
//! arena. The three modes search once per source, step for step as the
//! tree-at-a-time construction they replace. The ETX trees search once
//! per destination instead: weights are symmetric, so one destination's
//! distances hold every one of its sources' chains, and the chains are
//! read off them by the lowest-id tie-break the per-source search
//! applies. Each builder is bit-identical to the tree-at-a-time
//! construction (see the per-function notes — the property tests in
//! `tests/routing_forest.rs` pin the equivalence over random
//! deployments).

use std::collections::BTreeMap;

use m2m_graph::adjacency::{Adjacency, CsrAdjacency};
use m2m_graph::spt::{MulticastTree, ShortestPathTree};
use m2m_graph::{Graph, NodeId, RoutingScratch};

/// `parent_pos` sentinel: the node is its tree's root.
const ROOT: u32 = u32::MAX;

/// All multicast trees of a workload, packed into shared CSR slabs.
/// See the module docs for the layout.
#[derive(Clone, Debug, Default)]
pub struct RoutingForest {
    sources: Vec<NodeId>,
    node_start: Vec<u32>,
    nodes: Vec<NodeId>,
    parent_pos: Vec<u32>,
    dest_start: Vec<u32>,
    dests: Vec<NodeId>,
}

impl RoutingForest {
    /// Converts per-source [`MulticastTree`]s (e.g. the virtual trees of
    /// milestone routing) into forest form.
    pub fn from_trees(trees: &BTreeMap<NodeId, MulticastTree>) -> Self {
        let mut builder = ForestBuilder::new(trees.len());
        for (&s, t) in trees {
            builder.push_tree(s, t.nodes(), |v| t.parent(v), t.destinations());
        }
        builder.finish()
    }

    /// Number of trees (sources) in the forest.
    #[inline]
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// The sources with routing state, ascending.
    #[inline]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The tree rooted at `source`, if present.
    pub fn tree(&self, source: NodeId) -> Option<TreeView<'_>> {
        let idx = self.sources.binary_search(&source).ok()?;
        Some(self.tree_at(idx))
    }

    /// The tree at position `idx` in source order.
    pub fn tree_at(&self, idx: usize) -> TreeView<'_> {
        let nr = self.node_start[idx] as usize..self.node_start[idx + 1] as usize;
        let dr = self.dest_start[idx] as usize..self.dest_start[idx + 1] as usize;
        TreeView {
            root: self.sources[idx],
            nodes: &self.nodes[nr.clone()],
            parent_pos: &self.parent_pos[nr],
            destinations: &self.dests[dr],
        }
    }

    /// Iterator over `(source, tree)` pairs in ascending source order.
    pub fn trees(&self) -> impl Iterator<Item = (NodeId, TreeView<'_>)> {
        (0..self.sources.len()).map(|i| (self.sources[i], self.tree_at(i)))
    }

    /// Sum of tree sizes, the paper's `Σ|T_s|` (Theorem 3).
    #[inline]
    pub fn total_tree_size(&self) -> usize {
        self.nodes.len()
    }

    /// Resident bytes of the forest slabs.
    pub fn slab_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sources.len() * size_of::<NodeId>()
            + self.node_start.len() * 4
            + self.nodes.len() * size_of::<NodeId>()
            + self.parent_pos.len() * 4
            + self.dest_start.len() * 4
            + self.dests.len() * size_of::<NodeId>()
    }
}

/// A read-only window over one tree of a [`RoutingForest`]. Mirrors the
/// query API of [`MulticastTree`]; being two slices wide, it is `Copy`.
#[derive(Clone, Copy, Debug)]
pub struct TreeView<'a> {
    root: NodeId,
    nodes: &'a [NodeId],
    parent_pos: &'a [u32],
    destinations: &'a [NodeId],
}

impl<'a> TreeView<'a> {
    /// The source at the root of the tree.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Nodes in the tree, ascending id order.
    #[inline]
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// Destinations spanned by the tree, sorted.
    #[inline]
    pub fn destinations(&self) -> &'a [NodeId] {
        self.destinations
    }

    /// Number of nodes in the tree (the paper's `|T_s|`, Theorem 3).
    #[inline]
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true if `v` is in the tree.
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Parent of `v` within the tree (`None` for the root or non-members).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let pos = self.nodes.binary_search(&v).ok()?;
        let pp = self.parent_pos[pos];
        (pp != ROOT).then(|| self.nodes[pp as usize])
    }

    /// Directed edges `(parent → child)` of the tree, in ascending child
    /// order (the order [`MulticastTree::edges`] produced).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        let nodes = self.nodes;
        self.parent_pos
            .iter()
            .enumerate()
            .filter(|&(_, &pp)| pp != ROOT)
            .map(move |(i, &pp)| (nodes[pp as usize], nodes[i]))
    }

    /// The root→`dest` path within the tree (inclusive), or `None` if
    /// `dest` is not a member.
    pub fn path_to(&self, dest: NodeId) -> Option<Vec<NodeId>> {
        let mut path = Vec::new();
        self.write_path_to(dest, &mut path).then_some(path)
    }

    /// Allocation-free variant of [`Self::path_to`]: replaces `out` with
    /// the root→`dest` path and returns `true`, or returns `false`
    /// (leaving `out` cleared) if `dest` is not a member.
    pub fn write_path_to(&self, dest: NodeId, out: &mut Vec<NodeId>) -> bool {
        out.clear();
        let Ok(mut pos) = self.nodes.binary_search(&dest) else {
            return false;
        };
        out.push(self.nodes[pos]);
        while self.parent_pos[pos] != ROOT {
            pos = self.parent_pos[pos] as usize;
            out.push(self.nodes[pos]);
        }
        out.reverse();
        true
    }

    /// Destinations whose root-path traverses the directed edge
    /// `tail→head` — the `s ~_e d` relation of §2.2 restricted to this
    /// tree.
    pub fn destinations_through(&self, tail: NodeId, head: NodeId) -> Vec<NodeId> {
        self.destinations
            .iter()
            .copied()
            .filter(|&d| {
                let Ok(mut pos) = self.nodes.binary_search(&d) else {
                    return false;
                };
                while self.parent_pos[pos] != ROOT {
                    let pp = self.parent_pos[pos] as usize;
                    if self.nodes[pp] == tail && self.nodes[pos] == head {
                        return true;
                    }
                    pos = pp;
                }
                false
            })
            .collect()
    }
}

/// Accumulates trees into forest slabs. Trees must be pushed in ascending
/// source order.
struct ForestBuilder {
    forest: RoutingForest,
}

impl ForestBuilder {
    fn new(sources_hint: usize) -> Self {
        let mut forest = RoutingForest {
            sources: Vec::with_capacity(sources_hint),
            node_start: Vec::with_capacity(sources_hint + 1),
            dest_start: Vec::with_capacity(sources_hint + 1),
            ..RoutingForest::default()
        };
        forest.node_start.push(0);
        forest.dest_start.push(0);
        ForestBuilder { forest }
    }

    /// Appends one tree. `members` must be ascending, `destinations`
    /// sorted and deduplicated, and `parent_of` must return a member for
    /// every non-root member.
    fn push_tree(
        &mut self,
        source: NodeId,
        members: &[NodeId],
        mut parent_of: impl FnMut(NodeId) -> Option<NodeId>,
        destinations: &[NodeId],
    ) {
        let f = &mut self.forest;
        debug_assert!(f.sources.last().is_none_or(|&prev| prev < source));
        f.sources.push(source);
        f.nodes.extend_from_slice(members);
        for &v in members {
            let pp = match parent_of(v) {
                None => ROOT,
                Some(p) => members
                    .binary_search(&p)
                    .unwrap_or_else(|_| panic!("parent {p} of {v} is not a tree member"))
                    as u32,
            };
            f.parent_pos.push(pp);
        }
        f.dests.extend_from_slice(destinations);
        f.node_start.push(f.nodes.len() as u32);
        f.dest_start.push(f.dests.len() as u32);
    }

    fn finish(self) -> RoutingForest {
        self.forest
    }
}

/// Marks the distinct `targets` (after clearing every mark) and returns
/// how many there are: the `pending` count of a run that stops at the
/// last of them.
fn mark_targets<'a>(
    scratch: &mut RoutingScratch,
    n: usize,
    targets: impl IntoIterator<Item = &'a NodeId>,
) -> usize {
    scratch.clear_marks(n);
    let mut pending = 0;
    for &d in targets {
        pending += usize::from(scratch.mark(d));
    }
    pending
}

/// The keep-set walk of the pruned shortest-path trees: for each target
/// the current run reached, pushes onto `kept` (and marks) every node of
/// its root chain up to the first one already marked, stepping with
/// `parent`. Leaves `kept` sorted and `reached` holding the reached
/// targets, sorted and deduplicated.
fn keep_chains(
    scratch: &mut RoutingScratch,
    targets: &[NodeId],
    kept: &mut Vec<NodeId>,
    reached: &mut Vec<NodeId>,
    mut parent: impl FnMut(&mut RoutingScratch, NodeId) -> Option<NodeId>,
) {
    reached.clear();
    for &d in targets {
        if scratch.dist(d).is_none() {
            continue;
        }
        reached.push(d);
        let mut cur = d;
        while scratch.mark(cur) {
            kept.push(cur);
            match parent(scratch, cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
    }
    kept.sort_unstable();
    reached.sort_unstable();
    reached.dedup();
}

/// Builds the per-source pruned shortest-path-tree forest
/// ([`crate::routing::RoutingMode::ShortestPathTrees`]).
///
/// Equivalent to `ShortestPathTree::build(graph, s).prune_to(dests)` per
/// source: one arena BFS gives the same hop distances as
/// `bfs_distances`, the keep-set walk marks exactly the nodes
/// `prune_to` keeps (following the same canonical parents, computed on
/// demand via [`RoutingScratch::spt_parent`] instead of for all `n`
/// nodes up front), and destinations are the reachable targets, sorted.
pub fn build_spt_forest(graph: &Graph, demands: &BTreeMap<NodeId, Vec<NodeId>>) -> RoutingForest {
    let n = graph.node_count();
    let csr = CsrAdjacency::from_graph(graph);
    let mut scratch = RoutingScratch::new();
    let mut builder = ForestBuilder::new(demands.len());
    let mut kept: Vec<NodeId> = Vec::new();
    let mut reached: Vec<NodeId> = Vec::new();
    for (&s, targets) in demands {
        // Mark this source's targets and flood only until the farthest
        // one is discovered; distances and canonical parents along every
        // kept chain equal the full flood's (see `bfs_until_marked`).
        // An unreachable target simply never unmarks, degrading to the
        // full component flood the legacy build always paid.
        let pending = mark_targets(&mut scratch, n, targets);
        scratch.bfs_until_marked(&csr, s, pending);
        scratch.clear_marks(n);
        kept.clear();
        keep_chains(&mut scratch, targets, &mut kept, &mut reached, |sc, v| {
            sc.spt_parent(&csr, v)
        });
        builder.push_tree(s, &kept, |v| scratch.spt_parent(&csr, v), &reached);
    }
    builder.finish()
}

/// Builds the pruned ETX shortest-path forest of
/// [`crate::quality::weighted_routing`] from the destination side, with
/// `weights` holding one link weight per adjacency entry of `csr`:
/// symmetric (`w(u→v) = w(v→u)`), at least 1, and `u64::MAX` for a dead
/// link. Every tree is bit-identical to the per-source build it
/// replaced: one [`m2m_graph::dijkstra::dijkstra`] from each source, the
/// keep-set of its root→destination paths, and
/// [`MulticastTree::from_parents`]. The root is a member even when no
/// destination is reachable; a destination the source cannot reach,
/// including one behind dead links only, is dropped; a source that
/// demands itself keeps itself as a destination.
///
/// One arena Dijkstra runs from each destination d and stops once the
/// last of d's sources is popped ([`RoutingScratch::dijkstra_until_marked`]).
/// Weights are symmetric, so d's distances `dist_d` are the distances
/// every (s, d) pair needs. The *lens* of (s, d) is every node reachable
/// from s over *tight* links, where v→x is tight when
/// `dist_d(x) + w(v, x) = dist_d(v)`: the nodes of every shortest s→d
/// path. For a lens node v, a neighbour u is an optimal predecessor of v
/// in s's search exactly when u is in the lens and u→v is tight, because
/// `dist_s(u) + w(u, v) = dist_s(v)` extends to a shortest s→d path
/// through u. So s's tree gives v the lowest-id tight lens predecessor,
/// the parent the per-source search settles on by
/// [`m2m_graph::tiebreak::offer_wins`]. One walk over the lens offers
/// every tight link to its head and keeps the lowest id; the chain then
/// follows those parents from d back to s.
///
/// The stopped run is exact:
/// - every lens node other than s is strictly closer to d than s,
///   since every weight is at least 1 (`ETX_SCALE` for ETX), so the run
///   popped it, with its final distance, before it stopped;
/// - a node the run touched but did not pop holds a tentative distance
///   of at least `dist_d(s)`, so a link into it is never tight;
/// - a dead link never passes the tight test either: its checked sum
///   overflows.
///
/// The trees come out per (destination, source) pair. Each pair's chain
/// is kept in destination order, and the trees are assembled in
/// ascending source order, where a chain stops at the first node an
/// earlier chain of the same source already kept, as in the per-source
/// keep-set walk. A spec with more destinations than sources runs more
/// searches here than a per-source build would.
pub(crate) fn build_weighted_forest_from_destinations(
    csr: &CsrAdjacency,
    weights: &[u64],
    demands: &BTreeMap<NodeId, Vec<NodeId>>,
) -> RoutingForest {
    let n = csr.node_count();
    let pairs: usize = demands.values().map(Vec::len).sum();
    // Every (destination, source, pair) triple, grouped by destination;
    // `pair` numbers the (source, destination) pairs in `demands` order.
    let mut by_destination: Vec<(NodeId, NodeId, usize)> = Vec::with_capacity(pairs);
    for (&s, targets) in demands {
        for &d in targets {
            by_destination.push((d, s, by_destination.len()));
        }
    }
    by_destination.sort_unstable();

    // Pair j's chain is `chains[span[j].0..span[j].1]`: the destination
    // first, then each node's parent in the source's tree, up to the
    // source's child. It is empty when the source is the destination or
    // cannot reach it.
    let mut span = vec![(0, 0); pairs];
    // One node per hop; a few doublings reach the total.
    let mut chains: Vec<NodeId> = Vec::with_capacity(4 * pairs);
    let mut stack: Vec<NodeId> = Vec::new();
    let mut scratch = RoutingScratch::new();
    for group in by_destination.chunk_by(|a, b| a.0 == b.0) {
        let d = group[0].0;
        let pending = mark_targets(&mut scratch, n, group.iter().map(|(_, s, _)| s));
        scratch.dijkstra_until_marked(csr, d, weights, pending);
        for &(_, s, j) in group {
            let start = chains.len();
            if s != d && scratch.dist(s).is_some() {
                tag_lens_parents(&mut scratch, csr, weights, s, &mut stack);
                let mut cur = d;
                while cur != s {
                    chains.push(cur);
                    cur = NodeId(scratch.aux(cur).expect("a lens node has a parent"));
                }
            }
            span[j] = (start, chains.len());
        }
    }

    let mut builder = ForestBuilder::new(demands.len());
    let mut kept: Vec<NodeId> = Vec::new();
    let mut reached: Vec<NodeId> = Vec::new();
    let mut spans = span.iter();
    for (&s, targets) in demands {
        scratch.clear_marks(n);
        scratch.mark(s);
        kept.clear();
        kept.push(s);
        reached.clear();
        for &d in targets {
            let &(a, b) = spans.next().expect("one span per pair");
            let chain = &chains[a..b];
            if chain.is_empty() && d != s {
                continue; // unreachable
            }
            reached.push(d);
            for (i, &v) in chain.iter().enumerate() {
                if !scratch.mark(v) {
                    break; // an earlier chain kept the rest
                }
                kept.push(v);
                scratch.set_aux(v, chain.get(i + 1).unwrap_or(&s).0);
            }
        }
        kept.sort_unstable();
        reached.sort_unstable();
        reached.dedup();
        builder.push_tree(s, &kept, |v| scratch.aux(v).map(NodeId), &reached);
    }
    builder.finish()
}

/// Marks the lens of (s, d) for the destination run of the current
/// epoch (every node reachable from `s` over tight links; see
/// [`build_weighted_forest_from_destinations`]) and tags each lens node
/// other than `s` with its lowest-id tight lens predecessor.
fn tag_lens_parents(
    scratch: &mut RoutingScratch,
    csr: &CsrAdjacency,
    weights: &[u64],
    s: NodeId,
    stack: &mut Vec<NodeId>,
) {
    scratch.clear_marks(csr.node_count());
    scratch.mark(s);
    stack.clear();
    stack.push(s);
    while let Some(v) = stack.pop() {
        let dv = scratch.dist(v).expect("a lens node was popped");
        for (&x, &w) in csr.neighbors(v).iter().zip(&weights[csr.entry_range(v)]) {
            let tight = scratch.dist(x).and_then(|dx| dx.checked_add(w)) == Some(dv);
            if !tight {
                continue;
            }
            if scratch.aux(x).is_none_or(|p| v.0 < p) {
                scratch.set_aux(x, v.0);
            }
            if scratch.mark(x) {
                stack.push(x);
            }
        }
    }
}

/// Builds the shared-spanning-tree forest
/// ([`crate::routing::RoutingMode::SharedSpanningTree`]): every tree is
/// the union of the unique global-tree paths source→destination,
/// re-rooted at the source.
///
/// Equivalent to the legacy per-source extract-and-BFS-re-root: the LCA
/// found by lifting to equal depth equals the longest-common-prefix
/// splice point of the two root paths, the marked node set is the same
/// path union, and because tree paths are unique the re-rooted parent of
/// a kept node is forced — the chain successor toward the source for the
/// source's ancestors (recorded in the arena's aux tags), the global
/// parent for everyone else — with no per-source adjacency or BFS.
pub fn build_shared_forest(
    graph: &Graph,
    demands: &BTreeMap<NodeId, Vec<NodeId>>,
) -> RoutingForest {
    let n = graph.node_count();
    let global = ShortestPathTree::build(graph, NodeId(0));
    let mut scratch = RoutingScratch::new();
    let mut builder = ForestBuilder::new(demands.len());
    let mut kept: Vec<NodeId> = Vec::new();
    let mut reached: Vec<NodeId> = Vec::new();
    for (&s, targets) in demands {
        scratch.clear_marks(n);
        // Tag every proper ancestor of `s` with its chain successor
        // toward `s`: the re-rooted parent along that chain.
        let mut child = s;
        while let Some(p) = global.parent(child) {
            scratch.set_aux(p, child.0);
            child = p;
        }
        kept.clear();
        reached.clear();
        scratch.mark(s);
        kept.push(s);
        if global.distance(s).is_some() {
            for &d in targets {
                let Some(dd) = global.distance(d) else {
                    continue;
                };
                reached.push(d);
                // Mark both root-paths down from the LCA, found by
                // lifting the deeper endpoint to equal depth and then
                // lifting both in lockstep.
                let (mut a, mut b) = (s, d);
                let (mut da, mut db) = (global.distance(s).expect("checked above"), dd);
                while da > db {
                    if scratch.mark(a) {
                        kept.push(a);
                    }
                    a = global.parent(a).expect("deeper node has a parent");
                    da -= 1;
                }
                while db > da {
                    if scratch.mark(b) {
                        kept.push(b);
                    }
                    b = global.parent(b).expect("deeper node has a parent");
                    db -= 1;
                }
                while a != b {
                    if scratch.mark(a) {
                        kept.push(a);
                    }
                    if scratch.mark(b) {
                        kept.push(b);
                    }
                    a = global
                        .parent(a)
                        .expect("distinct equal-depth nodes have parents");
                    b = global
                        .parent(b)
                        .expect("distinct equal-depth nodes have parents");
                }
                if scratch.mark(a) {
                    kept.push(a); // the LCA itself
                }
            }
        }
        kept.sort_unstable();
        reached.sort_unstable();
        reached.dedup();
        builder.push_tree(
            s,
            &kept,
            |v| {
                if v == s {
                    None
                } else if let Some(c) = scratch.aux(v) {
                    Some(NodeId(c))
                } else {
                    Some(
                        global
                            .parent(v)
                            .expect("kept non-ancestor has a global parent"),
                    )
                }
            },
            &reached,
        );
    }
    builder.finish()
}

/// Builds the Takahashi–Matsuyama Steiner forest
/// ([`crate::routing::RoutingMode::SteinerTrees`]).
///
/// Replicates [`m2m_graph::steiner::takahashi_matsuyama`] round for
/// round. The `via` pointer of that construction is *queue-order
/// dependent* (first discoverer wins), so the arena BFS seeds each round
/// with the in-tree nodes in ascending id order — exactly the legacy
/// `for i in 0..n` seeding — making the discovered paths, and therefore
/// the grown tree, identical.
pub fn build_steiner_forest(
    graph: &Graph,
    demands: &BTreeMap<NodeId, Vec<NodeId>>,
) -> RoutingForest {
    let n = graph.node_count();
    let csr = CsrAdjacency::from_graph(graph);
    let mut scratch = RoutingScratch::new();
    let mut builder = ForestBuilder::new(demands.len());
    let mut kept: Vec<NodeId> = Vec::new();
    let mut reached: Vec<NodeId> = Vec::new();
    let mut parents: Vec<(NodeId, NodeId)> = Vec::new();
    for (&s, targets) in demands {
        scratch.clear_marks(n);
        kept.clear();
        reached.clear();
        parents.clear();
        scratch.mark(s);
        kept.push(s);
        let mut remaining: Vec<NodeId> = targets.iter().copied().filter(|&t| t != s).collect();
        remaining.sort_unstable();
        remaining.dedup();
        if targets.contains(&s) {
            reached.push(s);
        }
        while !remaining.is_empty() {
            // `kept` is maintained in ascending order, so the seed queue
            // matches the legacy 0..n in-tree scan.
            scratch.bfs_from_seeds(&csr, &kept);
            let Some((_, next)) = remaining
                .iter()
                .filter_map(|&t| scratch.dist(t).map(|d| (d, t)))
                .min()
            else {
                break; // every remaining terminal is unreachable
            };
            let mut cur = next;
            while !scratch.is_marked(cur) {
                let prev = scratch
                    .parent(cur)
                    .expect("reachable node has a BFS predecessor");
                parents.push((cur, prev));
                scratch.mark(cur);
                let at = kept.binary_search(&cur).unwrap_err();
                kept.insert(at, cur);
                cur = prev;
            }
            reached.push(next);
            remaining.retain(|&t| t != next);
        }
        parents.sort_unstable();
        reached.sort_unstable();
        reached.dedup();
        builder.push_tree(
            s,
            &kept,
            |v| {
                parents
                    .binary_search_by_key(&v, |&(c, _)| c)
                    .ok()
                    .map(|i| parents[i].1)
            },
            &reached,
        );
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0-1-2
    /// | | |
    /// 3-4-5
    fn grid() -> Graph {
        let mut g = Graph::new(6);
        for (a, b) in [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)] {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }

    fn demands(pairs: &[(u32, &[u32])]) -> BTreeMap<NodeId, Vec<NodeId>> {
        pairs
            .iter()
            .map(|&(s, ds)| (NodeId(s), ds.iter().map(|&d| NodeId(d)).collect()))
            .collect()
    }

    #[test]
    fn spt_forest_matches_prune_to() {
        let g = grid();
        let d = demands(&[(0, &[4, 2]), (3, &[2])]);
        let forest = build_spt_forest(&g, &d);
        for (&s, targets) in &d {
            let oracle = ShortestPathTree::build(&g, s).prune_to(targets);
            let view = forest.tree(s).unwrap();
            assert_eq!(view.nodes(), oracle.nodes());
            assert_eq!(view.destinations(), oracle.destinations());
            for &v in view.nodes() {
                assert_eq!(view.parent(v), oracle.parent(v), "source {s} node {v}");
            }
        }
    }

    #[test]
    fn tree_view_paths_and_edges() {
        let g = grid();
        let d = demands(&[(0, &[4, 2])]);
        let forest = build_spt_forest(&g, &d);
        let view = forest.tree(NodeId(0)).unwrap();
        let oracle = ShortestPathTree::build(&g, NodeId(0)).prune_to(&[NodeId(4), NodeId(2)]);
        assert_eq!(view.path_to(NodeId(4)), oracle.path_to(NodeId(4)));
        assert_eq!(view.path_to(NodeId(5)), None);
        assert_eq!(
            view.edges().collect::<Vec<_>>(),
            oracle.edges().collect::<Vec<_>>()
        );
        assert_eq!(
            view.destinations_through(NodeId(0), NodeId(1)),
            oracle.destinations_through(NodeId(0), NodeId(1))
        );
        let mut buf = vec![NodeId(9)];
        assert!(view.write_path_to(NodeId(2), &mut buf));
        assert_eq!(Some(buf), oracle.path_to(NodeId(2)));
    }

    #[test]
    fn from_trees_round_trips() {
        let g = grid();
        let trees: BTreeMap<NodeId, MulticastTree> = [(
            NodeId(1),
            ShortestPathTree::build(&g, NodeId(1)).prune_to(&[NodeId(3), NodeId(5)]),
        )]
        .into();
        let forest = RoutingForest::from_trees(&trees);
        let view = forest.tree(NodeId(1)).unwrap();
        let oracle = &trees[&NodeId(1)];
        assert_eq!(view.nodes(), oracle.nodes());
        assert_eq!(view.destinations(), oracle.destinations());
        assert_eq!(
            view.edges().collect::<Vec<_>>(),
            oracle.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_and_trivial_trees() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        // Source 0's only target is unreachable → empty tree (matching
        // prune_to); source 1 targets itself → single-node tree.
        let d = demands(&[(0, &[2]), (1, &[1])]);
        let forest = build_spt_forest(&g, &d);
        let empty = forest.tree(NodeId(0)).unwrap();
        assert_eq!(empty.size(), 0);
        assert_eq!(empty.destinations(), &[] as &[NodeId]);
        assert_eq!(empty.path_to(NodeId(0)), None);
        let trivial = forest.tree(NodeId(1)).unwrap();
        assert_eq!(trivial.nodes(), &[NodeId(1)]);
        assert_eq!(trivial.destinations(), &[NodeId(1)]);
        assert_eq!(trivial.path_to(NodeId(1)), Some(vec![NodeId(1)]));
        assert_eq!(trivial.edges().count(), 0);
        assert!(forest.tree(NodeId(2)).is_none());
    }
}
