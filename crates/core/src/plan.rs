//! Global plan assembly (§2.3).
//!
//! Theorem 1: optimal solutions to the individual per-edge vertex-cover
//! problems combine into a consistent, globally optimal plan — provided
//! the multicast trees satisfy the §2.1 path-sharing restriction and every
//! per-edge problem has a unique minimum (arranged by the consistent
//! tiebreak weights in [`crate::edge_opt`]).
//!
//! The only possible inconsistency is *raw-availability*: an upstream edge
//! aggregates a value while a downstream edge wants it raw; once
//! aggregated, the raw value cannot be recovered. [`GlobalPlan::build`]
//! therefore runs a top-down sweep along every multicast tree that tracks
//! raw availability and, if a violation is found, *repairs* the downstream
//! edge by forcing aggregation (a strictly feasibility-preserving patch).
//! Under the [`m2m_netsim::RoutingMode::SharedSpanningTree`] mode the
//! sharing restriction holds by construction and — per Theorem 1 — the
//! sweep never fires; with per-source shortest-path trees (the paper's §4
//! setup) violations are rare and counted in
//! [`GlobalPlan::repair_count`].
//!
//! ## Dense layout
//!
//! The plan stores flat slabs — `Vec<EdgeProblem>` / `Vec<EdgeSolution>`
//! in [`crate::topo::EdgeIdx`] order — plus the shared
//! [`Topology`] snapshot that defines that order. Because the edge slab
//! is sorted, slab order coincides with the ascending-key iteration of
//! the `BTreeMap`s this module used to hold, so downstream consumers
//! (scheduling, execution) see the exact same edge sequence. Ordered
//! maps survive only as boundary *views* ([`GlobalPlan::solution_map`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use m2m_graph::NodeId;
use m2m_netsim::{Network, RoutingTables};

use crate::edge_opt::{
    build_edge_problems, solve_edge_slab, AggGroup, DirectedEdge, EdgeProblem, EdgeSolution,
};
use crate::memo::SharedSolveCache;
use crate::parallel;
use crate::spec::AggregationSpec;
use crate::topo::Topology;

/// Checks (in debug builds) that every multicast edge is a radio link.
fn debug_assert_radio_links(network: &Network, routing: &RoutingTables) {
    debug_assert!(
        routing
            .directed_edges()
            .iter()
            .all(|&(a, b)| network.graph().has_edge(a, b)),
        "every multicast edge must be a radio link"
    );
}

/// The assembled network-wide many-to-many aggregation plan. It is the
/// one owner of its slabs: the problems, the swept solutions, and the
/// per-edge solve results the sweep replaced.
#[derive(Clone, Debug)]
pub struct GlobalPlan {
    topo: Arc<Topology>,
    problems: Vec<EdgeProblem>,
    solutions: Vec<EdgeSolution>,
    /// The pre-sweep solution of each edge the §2.3 sweep patched, by
    /// ascending slot (empty when the sharing restriction holds).
    originals: Vec<(usize, EdgeSolution)>,
    repairs: usize,
}

impl GlobalPlan {
    /// Builds the optimal plan: solves every single-edge problem
    /// independently — fanned out across worker threads, see
    /// [`crate::parallel`] — then runs the consistency sweep. The result
    /// is bit-identical at every thread count (Theorem 1 plus ordered
    /// collection); `M2M_THREADS=1` reproduces a serial build exactly.
    pub fn build(network: &Network, spec: &AggregationSpec, routing: &RoutingTables) -> Self {
        Self::build_with_threads(network, spec, routing, parallel::max_threads())
    }

    /// [`GlobalPlan::build`] with an explicit worker count.
    pub fn build_with_threads(
        network: &Network,
        spec: &AggregationSpec,
        routing: &RoutingTables,
        threads: usize,
    ) -> Self {
        debug_assert_radio_links(network, routing);
        Self::build_unchecked_with_threads(spec, routing, threads)
    }

    /// Like [`GlobalPlan::build`] but without checking that the routing
    /// edges are radio links — used for milestone routing, whose virtual
    /// edges span multiple physical hops.
    pub fn build_unchecked(spec: &AggregationSpec, routing: &RoutingTables) -> Self {
        Self::build_unchecked_with_threads(spec, routing, parallel::max_threads())
    }

    /// [`GlobalPlan::build_unchecked`] with an explicit worker count.
    pub fn build_unchecked_with_threads(
        spec: &AggregationSpec,
        routing: &RoutingTables,
        threads: usize,
    ) -> Self {
        Self::build_solving(spec, routing, |problems| {
            solve_edge_slab(problems, spec, threads)
        })
    }

    /// [`GlobalPlan::build`] through a [`SharedSolveCache`]: edges whose
    /// solve key (problem plus record sizes, see [`crate::memo`]) an
    /// earlier build already solved reuse that solution verbatim —
    /// Corollary 1 applied *across* plan builds. Misses are fanned out in
    /// parallel. The resulting plan is bit-identical to
    /// [`GlobalPlan::build`].
    pub fn build_cached(
        network: &Network,
        spec: &AggregationSpec,
        routing: &RoutingTables,
        cache: &mut SharedSolveCache,
    ) -> Self {
        debug_assert_radio_links(network, routing);
        Self::build_solving(spec, routing, |problems| {
            cache.solve_all(problems, spec, parallel::max_threads())
        })
    }

    /// The build body both paths share: intern the topology, build the
    /// per-edge problems, `solve` them, assemble.
    fn build_solving(
        spec: &AggregationSpec,
        routing: &RoutingTables,
        solve: impl FnOnce(&[EdgeProblem]) -> Vec<EdgeSolution>,
    ) -> Self {
        let topo = Arc::new(Topology::snapshot(spec, routing));
        let problems = build_edge_problems(&topo);
        let solutions = solve(&problems);
        let plan = Self::from_solutions(spec, topo, problems, solutions);
        if crate::telemetry::enabled() {
            crate::telemetry::counter(crate::telemetry::names::PLAN_BUILDS, 1);
            crate::telemetry::counter(crate::telemetry::names::PLAN_REPAIRS, plan.repairs as u64);
        }
        plan
    }

    /// Builds a plan from per-edge solutions in [`crate::topo::EdgeIdx`]
    /// order, running the §2.3 availability sweep over them so every plan
    /// handed out is executable. Every build path funnels through here:
    /// the builds above, the baseline algorithms and the incremental
    /// maintainer.
    pub fn from_solutions(
        spec: &AggregationSpec,
        topo: Arc<Topology>,
        problems: Vec<EdgeProblem>,
        mut solutions: Vec<EdgeSolution>,
    ) -> Self {
        let _span = crate::telemetry::span(crate::telemetry::layer::PLAN_ASSEMBLE);
        debug_assert_eq!(problems.len(), topo.edge_count());
        debug_assert_eq!(solutions.len(), topo.edge_count());
        let (repairs, originals) = repair_availability(spec, &topo, &problems, &mut solutions);
        GlobalPlan {
            topo,
            problems,
            solutions,
            originals,
            repairs,
        }
    }

    /// The per-edge solve results in slab order, before the §2.3 sweep
    /// patched any of them: the reusable basis that incremental updates
    /// keep and checkpoints persist ([`GlobalPlan::solutions`] holds the
    /// swept copies).
    pub(crate) fn base_solutions(&self) -> impl ExactSizeIterator<Item = &EdgeSolution> {
        let mut originals = self.originals.iter().peekable();
        self.solutions.iter().enumerate().map(move |(slot, swept)| {
            let original = originals.next_if(|&&(patched, _)| patched == slot);
            original.map_or(swept, |(_, original)| original)
        })
    }

    /// Moves [`GlobalPlan::base_solutions`] out, leaving the plan without
    /// solutions: only for a caller that replaces or drops it next.
    pub(crate) fn take_base_solutions(&mut self) -> Vec<EdgeSolution> {
        let mut base = std::mem::take(&mut self.solutions);
        for (slot, original) in self.originals.drain(..) {
            base[slot] = original;
        }
        base
    }

    /// The per-edge problems, one per demanded edge in
    /// [`crate::topo::EdgeIdx`] order.
    #[inline]
    pub fn problems(&self) -> &[EdgeProblem] {
        &self.problems
    }

    /// The per-edge solutions, one per demanded edge in
    /// [`crate::topo::EdgeIdx`] order (ascending by directed edge).
    #[inline]
    pub fn solutions(&self) -> &[EdgeSolution] {
        &self.solutions
    }

    /// The interned topology this plan's slabs are laid out over.
    #[inline]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The demanded directed edges, ascending — the slab order of
    /// [`GlobalPlan::problems`] and [`GlobalPlan::solutions`].
    #[inline]
    pub fn edges(&self) -> &[DirectedEdge] {
        self.topo.edges()
    }

    /// Iterates `(edge, solution)` pairs in ascending edge order —
    /// the same sequence the old `BTreeMap` iteration produced.
    pub fn iter_solutions(&self) -> impl Iterator<Item = (DirectedEdge, &EdgeSolution)> {
        self.topo.edges().iter().copied().zip(self.solutions.iter())
    }

    /// The solution for one edge (O(1) via the topology's edge lookup).
    pub fn solution(&self, edge: DirectedEdge) -> Option<&EdgeSolution> {
        self.topo
            .edge_idx(edge)
            .map(|idx| &self.solutions[idx.index()])
    }

    /// The problem for one edge (O(1) via the topology's edge lookup).
    pub fn problem(&self, edge: DirectedEdge) -> Option<&EdgeProblem> {
        self.topo
            .edge_idx(edge)
            .map(|idx| &self.problems[idx.index()])
    }

    /// An ordered-map *view* of the solutions, cloned from the slab —
    /// for API boundaries and diagnostics only; hot paths use the slab.
    pub fn solution_map(&self) -> BTreeMap<DirectedEdge, EdgeSolution> {
        self.iter_solutions().map(|(e, s)| (e, s.clone())).collect()
    }

    /// Number of edges patched by the consistency sweep (0 when the
    /// sharing restriction holds — Theorem 1).
    #[inline]
    pub fn repair_count(&self) -> usize {
        self.repairs
    }

    /// Total payload bytes per round across all edges (headers excluded).
    pub fn total_payload_bytes(&self) -> u64 {
        self.solutions.iter().map(|s| s.cost_bytes).sum()
    }

    /// One-glance statistics of the plan.
    pub fn summary(&self) -> PlanSummary {
        PlanSummary {
            edges: self.solutions.len(),
            raw_units: self.solutions.iter().map(|s| s.raw.len()).sum(),
            record_units: self.solutions.iter().map(|s| s.agg.len()).sum(),
            payload_bytes: self.total_payload_bytes(),
            repairs: self.repairs,
            coherent_edges: self
                .problems
                .iter()
                .filter(|p| p.is_sharing_coherent())
                .count(),
        }
    }

    /// Total message units per round across all edges.
    pub fn total_units(&self) -> usize {
        self.solutions.iter().map(|s| s.unit_count()).sum()
    }

    /// Validates the plan by symbolically routing every `(s, d)` pair:
    /// the value must leave its source raw, may switch to a partial record
    /// exactly once (where its group is chosen), and every edge it crosses
    /// must transmit it in the state the plan claims.
    pub fn validate(&self, spec: &AggregationSpec, routing: &RoutingTables) -> Result<(), String> {
        for (s, tree) in routing.trees() {
            for &d in tree.destinations() {
                if !spec.is_source_of(s, d) {
                    continue;
                }
                let path = tree.path_to(d).expect("tree spans destination");
                let mut raw = true;
                for (idx, hop) in path.windows(2).enumerate() {
                    let edge = (hop[0], hop[1]);
                    let sol = self
                        .solution(edge)
                        .ok_or_else(|| format!("no solution for edge {edge:?}"))?;
                    let group = AggGroup {
                        destination: d,
                        suffix: path[idx + 1..].into(),
                    };
                    if raw {
                        if sol.transmits_raw(s) {
                            // stays raw
                        } else if sol.transmits_group(&group) {
                            raw = false;
                        } else {
                            return Err(format!("pair ({s}, {d}) uncovered on edge {edge:?}"));
                        }
                    } else if !sol.transmits_group(&group) {
                        return Err(format!("record for ({s}, {d}) dropped on edge {edge:?}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks raw-availability consistency *without* repairs, i.e. whether
    /// the independently obtained per-edge optima already compose — the
    /// Theorem 1 property. Returns the number of violations. Takes a map
    /// view (see [`GlobalPlan::solution_map`]) so diagnostics can probe
    /// partial or hand-edited solution sets.
    pub fn count_inconsistencies(
        spec: &AggregationSpec,
        routing: &RoutingTables,
        solutions: &BTreeMap<DirectedEdge, EdgeSolution>,
    ) -> usize {
        let mut violations = 0;
        for (s, tree) in routing.trees() {
            for &d in tree.destinations() {
                if !spec.is_source_of(s, d) {
                    continue;
                }
                let path = tree.path_to(d).expect("tree spans destination");
                let mut avail = true;
                for hop in path.windows(2) {
                    let edge = (hop[0], hop[1]);
                    let Some(sol) = solutions.get(&edge) else {
                        continue;
                    };
                    if sol.transmits_raw(s) {
                        if !avail {
                            violations += 1;
                        }
                    } else {
                        avail = false;
                    }
                }
            }
        }
        violations
    }
}

/// The §2.3 sweep over the interned topology: one depth-first descent of
/// each tree's CSR adjacency, tracking whether the tree's raw value is
/// still available, patching any edge that wants a raw value an upstream
/// edge already aggregated.
///
/// This visits each tree edge exactly once, where the old per-destination
/// path walks revisited shared prefixes — yet the patch set and count are
/// identical: within a tree the path to any edge is unique, a patch fires
/// only where upstream availability is *already* false, and patching
/// (raw → aggregated) cannot flip any downstream availability from false
/// to true. So the set of patched edges is a function of the original
/// solutions — `{e : raw(e) ∧ ¬avail(tail(e))}` — independent of visit
/// order, and the old walks counted each such edge once too (after the
/// first patch the `transmits_raw` guard fails on revisits). Returns the
/// number of patches and the pre-sweep original of each patched edge,
/// by ascending slot.
fn repair_availability(
    spec: &AggregationSpec,
    topo: &Topology,
    problems: &[EdgeProblem],
    solutions: &mut [EdgeSolution],
) -> (usize, Vec<(usize, EdgeSolution)>) {
    let mut repairs = 0;
    let mut originals: Vec<(usize, EdgeSolution)> = Vec::new();
    let mut stack: Vec<(u32, bool)> = Vec::new();
    for tree in topo.trees() {
        let s = tree.source();
        stack.clear();
        stack.push((0, true));
        while let Some((pos, avail)) = stack.pop() {
            for &(child, e) in tree.children_of(pos) {
                let sol = &mut solutions[e.index()];
                let raw = sol.transmits_raw(s);
                if raw && !avail {
                    originals.push((e.index(), sol.clone()));
                    patch_edge(spec, &problems[e.index()], sol, s);
                    repairs += 1;
                }
                stack.push((child, avail && raw));
            }
        }
    }
    // Stable, so each slot's first copy is the one taken before any patch.
    originals.sort_by_key(|&(slot, _)| slot);
    originals.dedup_by_key(|&mut (slot, _)| slot);
    (repairs, originals)
}

/// Removes `s` from an edge's raw set and forces every continuation group
/// `s` participates in into the aggregate set, preserving cover validity.
/// Delegates to [`crate::edge_opt::patch_edge_sized`] with spec-derived
/// record sizes — the same patch a node applies locally in the
/// distributed sweep ([`crate::dvc`]).
fn patch_edge(spec: &AggregationSpec, problem: &EdgeProblem, sol: &mut EdgeSolution, s: NodeId) {
    crate::edge_opt::patch_edge_sized(problem, sol, s, &|d| {
        spec.function(d)
            .expect("function exists")
            .partial_record_bytes()
    });
}

/// Aggregate statistics of a [`GlobalPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanSummary {
    /// Directed edges carrying traffic.
    pub edges: usize,
    /// Raw message units per round.
    pub raw_units: usize,
    /// Partial-record message units per round.
    pub record_units: usize,
    /// Payload bytes per round (headers excluded).
    pub payload_bytes: u64,
    /// Edges patched by the consistency sweep.
    pub repairs: usize,
    /// Edges whose problem matches the paper's exact (sharing-coherent)
    /// formulation.
    pub coherent_edges: usize,
}

impl std::fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} edges, {} raw + {} record units, {} payload bytes/round, \
             {} repairs, {}/{} coherent edges",
            self.edges,
            self.raw_units,
            self.record_units,
            self.payload_bytes,
            self.repairs,
            self.coherent_edges,
            self.edges
        )
    }
}

/// Size of each destination's *aggregation tree* `A_d` (Theorem 3): the
/// union of the multicast paths from `d`'s sources to `d`, measured in
/// nodes.
pub fn aggregation_tree_sizes(
    spec: &AggregationSpec,
    routing: &RoutingTables,
) -> BTreeMap<NodeId, usize> {
    let mut sizes = BTreeMap::new();
    for (d, f) in spec.functions() {
        let mut nodes: Vec<NodeId> = Vec::new();
        for s in f.sources() {
            if let Some(tree) = routing.tree(s) {
                if let Some(path) = tree.path_to(d) {
                    nodes.extend(path);
                }
            }
        }
        nodes.sort_unstable();
        nodes.dedup();
        sizes.insert(d, nodes.len());
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggregateFunction, RAW_VALUE_BYTES};
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_netsim::{Deployment, RoutingMode};

    fn grid_network() -> Network {
        Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0))
    }

    fn build_all(
        net: &Network,
        spec: &AggregationSpec,
        mode: RoutingMode,
    ) -> (RoutingTables, GlobalPlan) {
        let routing = RoutingTables::build(net, &spec.source_to_destinations(), mode);
        let plan = GlobalPlan::build(net, spec, &routing);
        (routing, plan)
    }

    fn small_spec() -> AggregationSpec {
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(12),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 2.0), (NodeId(5), 0.5)]),
        );
        spec.add_function(
            NodeId(15),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0), (NodeId(2), 1.0)]),
        );
        spec
    }

    #[test]
    fn parallel_builds_are_bit_identical_across_modes() {
        // The chunked slab solve must reproduce the serial build exactly
        // in every routing mode — Theorem 1 says per-edge solves compose
        // independently, so thread count may never show in the output.
        let net = Network::with_default_energy(Deployment::grid(6, 6, 10.0, 12.0));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(9, 12, 7));
        for mode in [
            RoutingMode::ShortestPathTrees,
            RoutingMode::SharedSpanningTree,
            RoutingMode::SteinerTrees,
        ] {
            let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
            let serial = GlobalPlan::build_with_threads(&net, &spec, &routing, 1);
            for threads in [2, 8] {
                let plan = GlobalPlan::build_with_threads(&net, &spec, &routing, threads);
                assert_eq!(
                    plan.solutions(),
                    serial.solutions(),
                    "{mode:?} diverged at {threads} threads"
                );
                assert_eq!(plan.problems(), serial.problems());
                assert_eq!(plan.total_payload_bytes(), serial.total_payload_bytes());
            }
        }
    }

    #[test]
    fn plan_validates_in_both_routing_modes() {
        let net = grid_network();
        let spec = small_spec();
        for mode in [
            RoutingMode::ShortestPathTrees,
            RoutingMode::SharedSpanningTree,
        ] {
            let (routing, plan) = build_all(&net, &spec, mode);
            plan.validate(&spec, &routing).expect("plan must validate");
        }
    }

    #[test]
    fn shared_tree_mode_needs_no_repairs() {
        // Theorem 1 under the sharing restriction.
        let net = grid_network();
        let spec = small_spec();
        let (_, plan) = build_all(&net, &spec, RoutingMode::SharedSpanningTree);
        assert_eq!(plan.repair_count(), 0);
    }

    #[test]
    fn plan_cost_is_positive_and_bounded() {
        let net = grid_network();
        let spec = small_spec();
        let (routing, plan) = build_all(&net, &spec, RoutingMode::ShortestPathTrees);
        assert!(plan.total_payload_bytes() > 0);
        // Upper bound: pure multicast payload (every edge carries all its
        // raw values).
        let multicast_bytes: u64 = plan
            .problems()
            .iter()
            .map(|p| p.sources.len() as u64 * u64::from(RAW_VALUE_BYTES))
            .sum();
        assert!(plan.total_payload_bytes() <= multicast_bytes);
        let _ = routing;
    }

    #[test]
    fn validate_detects_corruption() {
        let net = grid_network();
        let spec = small_spec();
        let (routing, plan) = build_all(&net, &spec, RoutingMode::ShortestPathTrees);
        let mut broken = plan.clone();
        // Drop one edge's units entirely.
        broken.solutions[0].raw.clear();
        broken.solutions[0].agg.clear();
        assert!(broken.validate(&spec, &routing).is_err());
    }

    #[test]
    fn slab_order_matches_sorted_edges() {
        let net = grid_network();
        let spec = small_spec();
        let (_, plan) = build_all(&net, &spec, RoutingMode::ShortestPathTrees);
        assert!(plan.edges().windows(2).all(|w| w[0] < w[1]));
        for (i, (edge, sol)) in plan.iter_solutions().enumerate() {
            assert_eq!(plan.edges()[i], edge);
            assert_eq!(sol.edge, edge);
            assert_eq!(plan.problems()[i].edge, edge);
            assert_eq!(plan.solution(edge).unwrap(), sol);
        }
        // The boundary view is the slab, re-keyed.
        let view = plan.solution_map();
        assert_eq!(view.len(), plan.solutions().len());
        assert!(view
            .iter()
            .map(|(&e, _)| e)
            .eq(plan.edges().iter().copied()));
    }

    #[test]
    fn larger_random_workload_builds_and_validates() {
        let net = Network::with_default_energy(Deployment::great_duck_island(2));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(14, 10, 3));
        for mode in [
            RoutingMode::ShortestPathTrees,
            RoutingMode::SharedSpanningTree,
        ] {
            let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
            let plan = GlobalPlan::build(&net, &spec, &routing);
            plan.validate(&spec, &routing).expect("plan must validate");
            if mode == RoutingMode::SharedSpanningTree {
                assert_eq!(plan.repair_count(), 0, "Theorem 1 violated in shared mode");
            }
        }
    }

    #[test]
    fn count_inconsistencies_detects_forced_violations() {
        // Force an upstream edge to aggregate while downstream still wants
        // the raw value — the exact §2.3 threat case.
        let net = Network::with_default_energy(Deployment::grid(4, 1, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(3),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0)]),
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            m2m_netsim::RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let mut solutions = plan.solution_map();
        // Corrupt the first edge: aggregate the lone source there.
        let first = solutions.get_mut(&(NodeId(0), NodeId(1))).unwrap();
        let group = plan.problem((NodeId(0), NodeId(1))).unwrap().groups[0].clone();
        first.raw.clear();
        first.agg = vec![group];
        // Downstream edges still transmit raw → inconsistencies counted.
        let violations = GlobalPlan::count_inconsistencies(&spec, &routing, &solutions);
        assert!(violations > 0);
        // The untouched plan is consistent.
        assert_eq!(
            GlobalPlan::count_inconsistencies(&spec, &routing, &plan.solution_map()),
            0
        );
    }

    #[test]
    fn from_solutions_repairs_an_availability_violation() {
        // Same corruption as above: upstream aggregates, downstream wants
        // raw. `from_solutions` must patch it.
        let net = Network::with_default_energy(Deployment::grid(4, 1, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(3),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0)]),
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let mut corrupted = plan.solutions().to_vec();
        let idx = plan
            .topology()
            .edge_idx((NodeId(0), NodeId(1)))
            .unwrap()
            .index();
        let group = plan.problems()[idx].groups[0].clone();
        corrupted[idx].raw.clear();
        corrupted[idx].agg = vec![group];

        let swept = GlobalPlan::from_solutions(
            &spec,
            Arc::clone(plan.topology()),
            plan.problems().to_vec(),
            corrupted,
        );
        assert!(swept.repair_count() > 0, "sweep must patch the violation");
    }

    #[test]
    fn summary_is_consistent_with_accessors() {
        let net = grid_network();
        let spec = small_spec();
        let (_, plan) = build_all(&net, &spec, RoutingMode::ShortestPathTrees);
        let s = plan.summary();
        assert_eq!(s.edges, plan.solutions().len());
        assert_eq!(s.raw_units + s.record_units, plan.total_units());
        assert_eq!(s.payload_bytes, plan.total_payload_bytes());
        assert_eq!(s.repairs, plan.repair_count());
        assert!(s.coherent_edges <= s.edges);
        let text = s.to_string();
        assert!(text.contains("payload bytes/round"));
    }

    #[test]
    fn aggregation_tree_sizes_cover_paths() {
        let net = grid_network();
        let spec = small_spec();
        let (routing, _) = build_all(&net, &spec, RoutingMode::ShortestPathTrees);
        let sizes = aggregation_tree_sizes(&spec, &routing);
        // d=15 aggregates 0,1,2; its aggregation tree must contain at
        // least the 4 corner-path nodes.
        assert!(sizes[&NodeId(15)] >= 4);
        assert_eq!(sizes.len(), 2);
    }
}
