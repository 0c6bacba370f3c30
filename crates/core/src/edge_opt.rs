//! Single-edge optimization (§2.2).
//!
//! For each directed multicast edge `e : i → j`, decide what crosses it:
//! per source `s ∈ S_e` a **raw** value (usable by every destination of
//! `s` downstream), or per destination `d ∈ D_e` one **partial aggregate
//! record** covering all of `d`'s sources routed through `e`. Any valid
//! choice is a vertex cover of the bipartite graph `(S_e, D_e, ∼_e)`;
//! minimizing transmitted bytes is minimum-weight bipartite vertex cover,
//! solved exactly via min-cut ([`m2m_graph::vertex_cover`]).
//!
//! ## Continuation groups
//!
//! The paper's formulation assumes the §2.1 *path-sharing* restriction:
//! once units for a destination converge they continue on a single path,
//! so one record per destination per edge suffices. With per-source
//! shortest-path trees (the paper's own experimental routing) sharing is
//! encouraged but not guaranteed: two sources' routes to the same
//! destination may cross an edge together and diverge later, and a single
//! merged record could not be split again. We therefore generalize the
//! right side of the bipartite graph from destinations to **continuation
//! groups** — `(destination, exact remaining path)` — so a record is only
//! ever formed from units that stay together all the way to the
//! destination. Under the sharing restriction every destination has
//! exactly one group per edge and the formulation reduces to the paper's
//! (property-tested in `tests/plan_invariants.rs`).
//!
//! ## Tiebreaking
//!
//! Theorem 1 requires every single-edge problem to have a *unique*
//! minimum, arranged by adding "minuscule weights … consistent for all
//! instances across all edges" (§2.3). We scale byte sizes by
//! [`WEIGHT_SCALE`] and add a per-node priority that is the same in every
//! edge problem; the cover is then extracted from the canonical
//! source-minimal min cut, making solutions deterministic and globally
//! consistent.

use std::sync::Arc;

use m2m_graph::bipartite::BipartiteGraph;
use m2m_graph::vertex_cover::{min_weight_vertex_cover_with, CoverScratch};
use m2m_graph::NodeId;

use crate::agg::RAW_VALUE_BYTES;
use crate::parallel::parallel_map_with;
use crate::spec::AggregationSpec;
use crate::topo::Topology;

/// A directed physical edge `tail → head`.
pub type DirectedEdge = (NodeId, NodeId);

/// Byte sizes are scaled by this factor before the per-node tiebreak
/// priorities are added, so priorities can never outweigh a real byte.
pub const WEIGHT_SCALE: u64 = 1 << 20;

/// A continuation group: a destination plus the exact remaining route of
/// its units after the edge's head. Units in one group stay together all
/// the way to the destination and may safely share one partial record.
///
/// The suffix is a shared slice: every edge along a route stores a *view*
/// of the same interned path tail, so cloning a group (which the
/// optimizer does once per chosen record, per problem snapshot, and per
/// Corollary-1 reuse) is a reference-count bump instead of a path copy.
/// `Ord`/`Eq`/`Hash` all delegate to the slice contents, so interning is
/// invisible to every map and comparison.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AggGroup {
    /// The destination this record is for.
    pub destination: NodeId,
    /// Remaining path from the edge's head to the destination, inclusive
    /// of both endpoints (`suffix[0]` = head; `suffix.last()` =
    /// destination). A one-element suffix means the head *is* the
    /// destination.
    pub suffix: Arc<[NodeId]>,
}

/// The inputs to one single-edge optimization: `(S_e, D_e, ∼_e)` with
/// destinations refined into continuation groups.
///
/// Equality compares the full problem inputs. With the record sizes of
/// the destinations the groups name, a problem is a solve's key
/// ([`crate::memo`]): an edge whose key is unchanged keeps its solution
/// verbatim, both across incremental updates ([`crate::dynamics`]) and
/// across plan builds and tenants ([`crate::memo::SharedSolveCache`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EdgeProblem {
    /// The directed edge `i → j`.
    pub edge: DirectedEdge,
    /// Sources routed through the edge (`S_e`), sorted.
    pub sources: Vec<NodeId>,
    /// Continuation groups (`D_e` refined), sorted.
    pub groups: Vec<AggGroup>,
    /// The `∼_e` relation as `(source index, group index)` pairs, sorted.
    pub pairs: Vec<(usize, usize)>,
}

impl EdgeProblem {
    /// Distinct destinations in `D_e`, ascending. Borrows the sorted
    /// group slab directly — `groups` order is `(destination, suffix)`,
    /// so destinations stream out in ascending runs and deduplication is
    /// a one-element look-back; no allocation.
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut last: Option<NodeId> = None;
        self.groups.iter().map(|g| g.destination).filter(move |&d| {
            if last == Some(d) {
                false
            } else {
                last = Some(d);
                true
            }
        })
    }

    /// True if every destination has a single continuation group — i.e.
    /// the paper's sharing restriction holds at this edge and the problem
    /// coincides with the paper's exact formulation.
    ///
    /// Unlike [`Self::destinations`] this does not assume the group slab
    /// is sorted, so it stays a valid diagnostic on hand-built or mutated
    /// problems.
    pub fn is_sharing_coherent(&self) -> bool {
        let mut dests: Vec<NodeId> = self.groups.iter().map(|g| g.destination).collect();
        dests.sort_unstable();
        dests.dedup();
        dests.len() == self.groups.len()
    }

    /// Sources feeding the given group, ascending (pairs are sorted, so
    /// filtering them streams sources in source-index order). Borrows
    /// the problem; collect only if ownership is needed.
    pub fn group_sources(&self, group_idx: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.pairs
            .iter()
            .filter(move |&&(_, g)| g == group_idx)
            .map(|&(s, _)| self.sources[s])
    }
}

/// The optimizer's decision for one edge.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EdgeSolution {
    /// The directed edge.
    pub edge: DirectedEdge,
    /// Sources transmitted raw across this edge, sorted.
    pub raw: Vec<NodeId>,
    /// Continuation groups transmitted as partial aggregate records,
    /// sorted.
    pub agg: Vec<AggGroup>,
    /// Total payload bytes crossing the edge (excluding message headers,
    /// which depend on message merging — see [`crate::schedule`]).
    pub cost_bytes: u64,
}

impl EdgeSolution {
    /// Number of message units (raw values + partial records) on the edge.
    pub fn unit_count(&self) -> usize {
        self.raw.len() + self.agg.len()
    }

    /// True if source `s` crosses the edge raw.
    pub fn transmits_raw(&self, s: NodeId) -> bool {
        self.raw.binary_search(&s).is_ok()
    }

    /// True if the group is transmitted as a partial record.
    pub fn transmits_group(&self, group: &AggGroup) -> bool {
        self.agg.binary_search(group).is_ok()
    }
}

/// Per-node tiebreak priority, identical across all edge problems (§2.3).
/// Sources and destinations get disjoint odd/even priorities so a source
/// role and a destination role of the same physical node stay distinct.
fn source_priority(s: NodeId) -> u64 {
    2 * u64::from(s.0) + 1
}

fn destination_priority(d: NodeId) -> u64 {
    2 * u64::from(d.0) + 2
}

/// Reusable workspace for [`solve_edge_with`]: the bipartite graph and
/// the min-cut solver's flow network. One per worker thread; a plan build
/// solving thousands of edges through one scratch performs no per-solve
/// graph allocations in the steady state.
#[derive(Clone, Debug, Default)]
pub struct EdgeSolveScratch {
    graph: BipartiteGraph,
    cover: CoverScratch,
}

impl EdgeSolveScratch {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Solves one single-edge problem exactly.
///
/// The returned solution is the minimum-byte choice; ties are broken by
/// the consistent per-node priorities and the canonical min cut.
pub fn solve_edge(problem: &EdgeProblem, spec: &AggregationSpec) -> EdgeSolution {
    solve_edge_with(&mut EdgeSolveScratch::new(), problem, spec)
}

/// [`solve_edge`] with caller-provided scratch buffers. Output is
/// identical to a fresh-workspace solve for identical inputs — the
/// scratch is fully reset per call, so solutions stay deterministic no
/// matter which worker thread (and solve history) a problem lands on.
pub fn solve_edge_with(
    scratch: &mut EdgeSolveScratch,
    problem: &EdgeProblem,
    spec: &AggregationSpec,
) -> EdgeSolution {
    solve_edge_sized(scratch, problem, &|d| {
        spec.function(d)
            .expect("group destination must have a function")
            .partial_record_bytes()
    })
}

/// [`solve_edge_with`] with record sizes supplied by a callback instead
/// of a whole [`AggregationSpec`]. This is the solve as one *node* runs
/// it in the distributed protocol ([`crate::dvc`]): the edge's tail
/// knows only the per-destination record widths it learned from demand
/// messages, never the global spec. Given the same sizes the cover —
/// and hence the solution — is identical to the centralized one, because
/// weights and tiebreak priorities are built from exactly the same
/// numbers.
pub fn solve_edge_sized(
    scratch: &mut EdgeSolveScratch,
    problem: &EdgeProblem,
    record_bytes: &dyn Fn(NodeId) -> u32,
) -> EdgeSolution {
    let graph = &mut scratch.graph;
    graph.clear();
    for &s in &problem.sources {
        graph.add_left(u64::from(RAW_VALUE_BYTES) * WEIGHT_SCALE + source_priority(s));
    }
    for g in &problem.groups {
        let bytes = record_bytes(g.destination);
        graph.add_right(u64::from(bytes) * WEIGHT_SCALE + destination_priority(g.destination));
    }
    for &(si, gi) in &problem.pairs {
        // Pairs are sorted + deduplicated by construction, so skip the
        // linear duplicate scan of `add_edge`.
        graph.add_edge_unchecked(si, gi);
    }
    let cover = min_weight_vertex_cover_with(&mut scratch.cover, graph);
    if crate::telemetry::enabled() {
        use crate::telemetry::names;
        let flow = scratch.cover.last_flow_stats();
        crate::telemetry::counter(names::EDGE_OPT_SOLVES, 1);
        crate::telemetry::counter(names::EDGE_OPT_RAW_UNITS, cover.left.len() as u64);
        crate::telemetry::counter(names::EDGE_OPT_RECORD_UNITS, cover.right.len() as u64);
        crate::telemetry::counter(names::MAXFLOW_BFS_PHASES, flow.bfs_phases);
        crate::telemetry::counter(names::MAXFLOW_AUGMENTING_PATHS, flow.augmenting_paths);
        crate::telemetry::observe(
            names::EDGE_OPT_COVER_SIZE,
            (cover.left.len() + cover.right.len()) as u64,
        );
    }
    let raw: Vec<NodeId> = cover.left.iter().map(|&i| problem.sources[i]).collect();
    let agg: Vec<AggGroup> = cover
        .right
        .iter()
        .map(|&i| problem.groups[i].clone())
        .collect();
    let cost_bytes = price(&raw, &agg, record_bytes);
    debug_assert!(raw.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(agg.windows(2).all(|w| w[0] < w[1]));
    EdgeSolution {
        edge: problem.edge,
        raw,
        agg,
        cost_bytes,
    }
}

/// Removes `s` from an edge solution's raw set and forces every
/// continuation group `s` participates in into the aggregate set,
/// preserving cover validity — the §2.3 availability patch, with record
/// sizes supplied by a callback so a lone node (or the centralized
/// sweep in [`crate::plan`]) can apply it from whatever size knowledge
/// it has.
///
/// # Panics
/// Panics if `s` is not a source of `problem`.
pub fn patch_edge_sized(
    problem: &EdgeProblem,
    sol: &mut EdgeSolution,
    s: NodeId,
    record_bytes: &dyn Fn(NodeId) -> u32,
) {
    if let Ok(pos) = sol.raw.binary_search(&s) {
        sol.raw.remove(pos);
    }
    let si = problem
        .sources
        .binary_search(&s)
        .expect("patched source must be in the edge problem");
    for &(psi, gi) in &problem.pairs {
        if psi != si {
            continue;
        }
        let group = &problem.groups[gi];
        if let Err(pos) = sol.agg.binary_search(group) {
            sol.agg.insert(pos, group.clone());
        }
    }
    sol.cost_bytes = price(&sol.raw, &sol.agg, record_bytes);
}

/// The payload bytes of an edge that carries the `raw` values and the
/// `agg` records, each record `record_bytes(destination)` wide: the one
/// pricing rule of solves, patches, baselines and checkpoint restore.
pub(crate) fn price(raw: &[NodeId], agg: &[AggGroup], record_bytes: &dyn Fn(NodeId) -> u32) -> u64 {
    let records: u64 = agg
        .iter()
        .map(|g| u64::from(record_bytes(g.destination)))
        .sum();
    raw.len() as u64 * u64::from(RAW_VALUE_BYTES) + records
}

/// Solves a batch of single-edge problems on up to `threads` workers,
/// returning solutions in input order (one per problem reference).
///
/// Theorem 1 is the license for the fan-out: each problem is solved
/// independently and composes into the global optimum, so scheduling is
/// free to be arbitrary as long as collection is ordered — which
/// [`parallel_map_with`] guarantees. The output is bit-identical to a
/// serial `problems.iter().map(|p| solve_edge(p, spec))` at any thread
/// count. An empty batch returns at once and opens no span, so an all-hit
/// cache lookup logs no solve.
pub fn solve_edge_batch(
    problems: &[&EdgeProblem],
    spec: &AggregationSpec,
    threads: usize,
) -> Vec<EdgeSolution> {
    if problems.is_empty() {
        return Vec::new();
    }
    let _span = crate::telemetry::span(crate::telemetry::layer::EDGE_OPT_SOLVE);
    parallel_map_with(
        problems,
        threads,
        EdgeSolveScratch::new,
        |scratch, &problem| solve_edge_with(scratch, problem, spec),
    )
}

/// Solves a dense slab of single-edge problems on up to `threads`
/// workers, returning solutions aligned with the input slab (i.e. in
/// [`crate::topo::EdgeIdx`] order when handed `build_edge_problems`
/// output).
///
/// This is the chunked counterpart of [`solve_edge_batch`]: the slab is
/// statically split into one contiguous span per worker
/// ([`crate::parallel::parallel_chunks_mut`]), so the fan-out costs one
/// task dispatch per worker instead of one atomic claim per edge, and
/// each worker reuses one [`EdgeSolveScratch`] across its whole span.
/// Output is bit-identical to the serial solve at any thread count
/// (Theorem 1 plus per-call scratch reset).
pub fn solve_edge_slab(
    problems: &[EdgeProblem],
    spec: &AggregationSpec,
    threads: usize,
) -> Vec<EdgeSolution> {
    let _span = crate::telemetry::span(crate::telemetry::layer::EDGE_OPT_SOLVE);
    let mut slots: Vec<Option<EdgeSolution>> = Vec::with_capacity(problems.len());
    slots.resize_with(problems.len(), || None);
    crate::parallel::parallel_chunks_mut(
        problems,
        &mut slots,
        1,
        threads,
        EdgeSolveScratch::new,
        |scratch, chunk, out| {
            for (slot, problem) in out.iter_mut().zip(chunk) {
                *slot = Some(solve_edge_with(scratch, problem, spec));
            }
        },
    );
    slots
        .into_iter()
        .map(|s| s.expect("every span slot filled"))
        .collect()
}

/// Builds the per-edge optimization problems for a whole workload,
/// returning one [`EdgeProblem`] per demanded edge in
/// [`crate::topo::EdgeIdx`] order: walks every demanded
/// source→destination route in the snapshot and registers the source,
/// the continuation group, and the `∼_e` pair on every edge.
///
/// Demand filtering and suffix interning happen once, inside
/// [`Topology::snapshot`]; the slab this returns is aligned with
/// `topo.edges()`, and since that slab is sorted the problems come out
/// in exactly the ascending-edge order the old `BTreeMap` builder
/// produced.
pub fn build_edge_problems(topo: &Topology) -> Vec<EdgeProblem> {
    let _span = crate::telemetry::span(crate::telemetry::layer::EDGE_OPT_PROBLEMS);
    // Flat bucketing instead of one `BTreeMap` pair per edge: count
    // registrations per edge, carve one shared buffer into per-edge
    // spans by prefix sum, drop every `(source, group)` registration
    // into its span, then freeze each span independently. Three linear
    // walks and one sort per edge — no tree rebalancing, and the only
    // allocations are the final per-problem vectors.
    let ne = topo.edge_count();
    let mut start = vec![0u32; ne + 1];
    for tree in topo.trees() {
        for dp in tree.dest_paths() {
            for (edge_idx, _) in dp.hops() {
                start[edge_idx.index() + 1] += 1;
            }
        }
    }
    for e in 0..ne {
        start[e + 1] += start[e];
    }
    let empty_suffix: Arc<[NodeId]> = Arc::from(&[][..]);
    let filler = (
        NodeId(0),
        AggGroup {
            destination: NodeId(0),
            suffix: empty_suffix,
        },
    );
    let mut flat: Vec<(NodeId, AggGroup)> = vec![filler; start[ne] as usize];
    let mut cursor = start.clone();
    for tree in topo.trees() {
        let s = tree.source();
        for dp in tree.dest_paths() {
            let d = dp.destination();
            for (edge_idx, suffix) in dp.hops() {
                let c = &mut cursor[edge_idx.index()];
                flat[*c as usize] = (
                    s,
                    AggGroup {
                        destination: d,
                        suffix: Arc::clone(suffix),
                    },
                );
                *c += 1;
            }
        }
    }

    (0..ne)
        .map(|e| {
            let span = &mut flat[start[e] as usize..start[e + 1] as usize];
            // Sorting registrations by `(source, group)` makes sources
            // stream out in ascending runs, and — because mapping through
            // the sorted dedup'd slabs is monotone — yields the pair list
            // already in sorted order, exactly as the map-based builder
            // produced it.
            span.sort_unstable();
            let mut sources: Vec<NodeId> = Vec::new();
            for (s, _) in span.iter() {
                if sources.last() != Some(s) {
                    sources.push(*s);
                }
            }
            let mut groups: Vec<AggGroup> = span.iter().map(|(_, g)| g.clone()).collect();
            groups.sort_unstable();
            groups.dedup();
            let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(span.len());
            let mut prev: Option<&(NodeId, AggGroup)> = None;
            for ent in span.iter() {
                if prev == Some(ent) {
                    continue;
                }
                prev = Some(ent);
                let si = sources.binary_search(&ent.0).expect("source registered");
                let gi = groups.binary_search(&ent.1).expect("group registered");
                pairs.push((si, gi));
            }
            EdgeProblem {
                edge: topo.edges()[e],
                sources,
                groups,
                pairs,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;

    /// Builds the paper's Figure 2 single-edge instance directly.
    fn figure2_problem() -> (EdgeProblem, AggregationSpec) {
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let (k, l, m) = (NodeId(10), NodeId(11), NodeId(12));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            k,
            AggregateFunction::weighted_sum([(a, 1.0), (b, 1.0), (c, 1.0), (d, 1.0)]),
        );
        spec.add_function(
            l,
            AggregateFunction::weighted_sum([(a, 1.0), (b, 1.0), (c, 1.0)]),
        );
        spec.add_function(m, AggregateFunction::weighted_sum([(a, 1.0)]));
        let mk_group = |dest: NodeId| AggGroup {
            destination: dest,
            // All destinations share the continuation via node 5 (the "j"
            // of Figure 1(C)); exact shape is irrelevant to the solve.
            suffix: vec![NodeId(5), dest].into(),
        };
        let problem = EdgeProblem {
            edge: (NodeId(4), NodeId(5)),
            sources: vec![a, b, c, d],
            groups: vec![mk_group(k), mk_group(l), mk_group(m)],
            pairs: vec![
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (3, 0),
            ],
        };
        (problem, spec)
    }

    #[test]
    fn figure2_solution_matches_paper() {
        // "a solution … includes source a and destinations k and l" —
        // one raw + two records = 3 units, 12 payload bytes at 4 B each.
        let (problem, spec) = figure2_problem();
        let sol = solve_edge(&problem, &spec);
        assert_eq!(sol.raw, vec![NodeId(0)]);
        let agg_dests: Vec<NodeId> = sol.agg.iter().map(|g| g.destination).collect();
        assert_eq!(agg_dests, vec![NodeId(10), NodeId(11)]);
        assert_eq!(sol.unit_count(), 3);
        assert_eq!(sol.cost_bytes, 12);
    }

    #[test]
    fn solution_is_a_cover() {
        let (problem, spec) = figure2_problem();
        let sol = solve_edge(&problem, &spec);
        for &(si, gi) in &problem.pairs {
            let s = problem.sources[si];
            let g = &problem.groups[gi];
            assert!(
                sol.transmits_raw(s) || sol.transmits_group(g),
                "pair ({s}, {}) uncovered",
                g.destination
            );
        }
    }

    #[test]
    fn solve_is_deterministic() {
        let (problem, spec) = figure2_problem();
        assert_eq!(solve_edge(&problem, &spec), solve_edge(&problem, &spec));
    }

    #[test]
    fn coherence_detection() {
        let (problem, _) = figure2_problem();
        assert!(problem.is_sharing_coherent());
        let mut incoherent = problem.clone();
        incoherent.groups.push(AggGroup {
            destination: NodeId(10),
            suffix: vec![NodeId(6), NodeId(10)].into(),
        });
        incoherent.pairs.push((3, 3));
        assert!(!incoherent.is_sharing_coherent());
    }

    #[test]
    fn group_sources_lookup() {
        let (problem, _) = figure2_problem();
        assert_eq!(
            problem.group_sources(0).collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(
            problem.group_sources(2).collect::<Vec<_>>(),
            vec![NodeId(0)]
        );
    }

    #[test]
    fn build_edge_problems_merges_trees_on_shared_edges() {
        use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};
        // 4-node line: sources 0 and 1 both feed destination 3; the edge
        // 2→3 is shared by both trees and must carry both sources.
        let net = Network::with_default_energy(Deployment::grid(4, 1, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(3),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 2.0)]),
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let topo = Topology::snapshot(&spec, &routing);
        let problems = build_edge_problems(&topo);
        let at = |edge| {
            let idx = topo.edge_idx(edge).expect("edge is demanded");
            &problems[idx.index()]
        };
        let shared = at((NodeId(2), NodeId(3)));
        assert_eq!(shared.sources, vec![NodeId(0), NodeId(1)]);
        assert_eq!(shared.groups.len(), 1, "one destination, one group");
        assert_eq!(shared.pairs.len(), 2);
        // Upstream edge 0→1 carries only source 0.
        let first = at((NodeId(0), NodeId(1)));
        assert_eq!(first.sources, vec![NodeId(0)]);
        // No reverse edges appear.
        assert!(topo.edge_idx((NodeId(3), NodeId(2))).is_none());
    }

    #[test]
    fn build_edge_problems_dedups_repeated_pairs() {
        use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};
        let net = Network::with_default_energy(Deployment::grid(3, 1, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(2),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0)]),
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let problems = build_edge_problems(&Topology::snapshot(&spec, &routing));
        for p in &problems {
            let mut pairs = p.pairs.clone();
            pairs.dedup();
            assert_eq!(pairs, p.pairs, "pairs must be deduplicated and sorted");
        }
    }
}
