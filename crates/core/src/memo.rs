//! Cross-build solve memoization (Corollary 1, applied across builds).
//!
//! Corollary 1 says an edge whose single-edge inputs `(S_e, D_e, ∼_e)`
//! are unchanged keeps its solution. [`crate::dynamics`] exploits this
//! *within* one maintained plan; a [`SolveCache`] exploits it *across*
//! independent plan builds — benchmark campaigns, scaled-series sweeps,
//! and baseline comparisons rebuild plans over the same deployment again
//! and again, and most edges recur with identical problems.
//!
//! Soundness: [`crate::edge_opt::solve_edge`] is a pure function of the
//! problem and of the byte sizes the spec assigns (each destination's
//! partial-record size; the raw size is a global constant). The cache
//! keeps its entries aligned with the caller's edge slab — one slot per
//! [`crate::topo::EdgeIdx`] — and remembers the record size every cached
//! solve assumed per destination. A later build whose spec assigns a
//! *different* size to any remembered destination marks that destination
//! dirty in a bitset and drops exactly the entries whose problems
//! mention a dirty destination; entries mentioning only clean
//! destinations would re-solve to the same bits (the solve depends only
//! on the problem and the record sizes of the destinations it names), so
//! keeping them is sound where the old policy — clearing the whole cache
//! — merely wasted them. Per-node tiebreak priorities depend only on
//! node ids, which are part of the problem itself.

use std::collections::{BTreeMap, HashMap};

use m2m_graph::NodeId;

use crate::edge_opt::{solve_edge_batch, DirectedEdge, EdgeProblem, EdgeSolution};
use crate::spec::AggregationSpec;
use crate::topo::BitSet;

/// One cached per-edge solve: the exact problem it answered and its
/// solution. A slot hits only if the stored problem equals the incoming
/// one bit-for-bit.
#[derive(Clone, Debug)]
struct CacheEntry {
    problem: EdgeProblem,
    solution: EdgeSolution,
}

/// A reusable `EdgeProblem → EdgeSolution` memo shared across plan
/// builds, slab-aligned by [`crate::topo::EdgeIdx`]. See the module docs
/// for the soundness argument.
#[derive(Clone, Debug, Default)]
pub struct SolveCache {
    /// The edge of each slot, mirroring the last batch's slab order.
    edges: Vec<DirectedEdge>,
    /// One slot per edge; `None` = never solved or invalidated.
    entries: Vec<Option<CacheEntry>>,
    /// The partial-record size each cached solve assumed, per destination.
    record_sizes: BTreeMap<NodeId, u32>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl SolveCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached solutions currently held.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// True if no solutions are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| e.is_none())
    }

    /// Lookups served from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh solve since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Record-size invalidations since construction: batches where a
    /// destination the cache had already seen arrived with a different
    /// partial-record size, forcing the entries that mention it out.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Fraction of lookups served from the cache (0.0 when no lookups
    /// have happened yet — an empty history serves nothing).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drops all cached solutions (counters are kept).
    pub fn clear(&mut self) {
        self.edges.clear();
        self.entries.clear();
        self.record_sizes.clear();
    }

    /// Solves every problem in the batch — one per demanded edge, in
    /// [`crate::topo::EdgeIdx`] order — serving repeats from the cache
    /// and fanning the misses out over `threads` workers. The returned
    /// slab is bit-identical to solving every problem fresh — cached or
    /// not, a problem has exactly one solution (unique minima, §2.3).
    pub fn solve_all(
        &mut self,
        problems: &[EdgeProblem],
        spec: &AggregationSpec,
        threads: usize,
    ) -> Vec<EdgeSolution> {
        let _span = crate::telemetry::span(crate::telemetry::layer::MEMO_SOLVE_ALL);
        // Per-destination dirty bitset: a destination whose remembered
        // record size disagrees with today's spec invalidates exactly the
        // entries that mention it.
        let mut dirty = BitSet::default();
        for (d, f) in spec.functions() {
            if self
                .record_sizes
                .get(&d)
                .is_some_and(|&bytes| bytes != f.partial_record_bytes())
            {
                dirty.insert(d.0 as usize);
            }
        }
        if dirty.any() {
            self.invalidations += 1;
            crate::telemetry::counter(crate::telemetry::names::MEMO_INVALIDATIONS, 1);
            for slot in &mut self.entries {
                let stale = slot.as_ref().is_some_and(|e| {
                    e.problem
                        .groups
                        .iter()
                        .any(|g| dirty.contains(g.destination.0 as usize))
                });
                if stale {
                    *slot = None;
                }
            }
        }
        for (d, f) in spec.functions() {
            self.record_sizes.insert(d, f.partial_record_bytes());
        }

        // Re-align the slots when the topology (and hence the edge slab)
        // changed since the last batch: surviving entries follow their
        // edge to its new index; entries for edges no longer demanded
        // are dropped.
        let aligned = self.edges.len() == problems.len()
            && self.edges.iter().zip(problems).all(|(&e, p)| e == p.edge);
        if !aligned {
            let mut by_edge: HashMap<DirectedEdge, CacheEntry> = self
                .entries
                .drain(..)
                .flatten()
                .map(|e| (e.problem.edge, e))
                .collect();
            self.edges = problems.iter().map(|p| p.edge).collect();
            self.entries = self.edges.iter().map(|e| by_edge.remove(e)).collect();
        }

        // Hit/miss partition, slot by slot.
        let (hits_before, misses_before) = (self.hits, self.misses);
        let mut out: Vec<Option<EdgeSolution>> = Vec::with_capacity(problems.len());
        let mut missing: Vec<(usize, &EdgeProblem)> = Vec::new();
        for (idx, problem) in problems.iter().enumerate() {
            match self.entries[idx].as_ref().filter(|e| e.problem == *problem) {
                Some(entry) => {
                    self.hits += 1;
                    out.push(Some(entry.solution.clone()));
                }
                None => {
                    self.misses += 1;
                    missing.push((idx, problem));
                    out.push(None);
                }
            }
        }
        if crate::telemetry::enabled() {
            use crate::telemetry::names;
            crate::telemetry::counter(names::MEMO_HITS, self.hits - hits_before);
            crate::telemetry::counter(names::MEMO_MISSES, self.misses - misses_before);
        }
        let refs: Vec<&EdgeProblem> = missing.iter().map(|&(_, p)| p).collect();
        let solved = solve_edge_batch(&refs, spec, threads);
        for (&(idx, problem), solution) in missing.iter().zip(&solved) {
            self.entries[idx] = Some(CacheEntry {
                problem: problem.clone(),
                solution: solution.clone(),
            });
            out[idx] = Some(solution.clone());
        }
        out.into_iter()
            .map(|s| s.expect("every slot is filled by a hit or a solve"))
            .collect()
    }
}

/// The content key a [`SharedSolveCache`] stores solves under: the exact
/// single-edge problem plus the partial-record size of every destination
/// the problem names. Those are the *only* inputs
/// [`crate::edge_opt::solve_edge`] reads (the raw size is a global
/// constant and tiebreak priorities are functions of the node ids inside
/// the problem), so two lookups with equal keys must produce bit-equal
/// solutions — even when they come from different tenants' specs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct SharedKey {
    problem: EdgeProblem,
    /// `(destination, partial_record_bytes)` for each destination the
    /// problem's groups name, sorted by destination.
    record_sizes: Vec<(NodeId, u32)>,
}

impl SharedKey {
    fn new(problem: &EdgeProblem, spec: &AggregationSpec) -> Self {
        let record_sizes: BTreeMap<NodeId, u32> = problem
            .groups
            .iter()
            .map(|g| {
                let bytes = spec
                    .function(g.destination)
                    .map(|f| f.partial_record_bytes())
                    .unwrap_or(0);
                (g.destination, bytes)
            })
            .collect();
        SharedKey {
            problem: problem.clone(),
            record_sizes: record_sizes.into_iter().collect(),
        }
    }
}

/// A cross-tenant `EdgeProblem → EdgeSolution` memo for the multi-tenant
/// plan service ([`crate::service`]).
///
/// [`SolveCache`] is slab-aligned: it mirrors *one* maintained plan's
/// edge slab and drops entries whenever the slab realigns — the right
/// shape for rebuilding one plan over and over, and the wrong one for
/// many tenants whose slabs all differ. A `SharedSolveCache` is keyed by
/// problem *content* instead ([`SharedKey`]), so tenant N's admission
/// hits on every edge any earlier tenant already solved with the same
/// single-edge inputs and record sizes, regardless of slab layout. The
/// returned slab is bit-identical to solving fresh (unique minima, §2.3),
/// which is what keeps service tenants bit-identical to isolated
/// sessions.
#[derive(Clone, Debug, Default)]
pub struct SharedSolveCache {
    entries: HashMap<SharedKey, EdgeSolution>,
    hits: u64,
    misses: u64,
}

impl SharedSolveCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached solutions currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no solutions are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh solve since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups served from the cache (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drops all cached solutions (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Solves every problem in the batch — one per demanded edge, in the
    /// caller's slab order — serving content-equal repeats from the cache
    /// and fanning the misses out over `threads` workers. Bit-identical
    /// to [`crate::edge_opt::solve_edge_slab`] on the same inputs.
    pub fn solve_all(
        &mut self,
        problems: &[EdgeProblem],
        spec: &AggregationSpec,
        threads: usize,
    ) -> Vec<EdgeSolution> {
        let _span = crate::telemetry::span(crate::telemetry::layer::MEMO_SOLVE_ALL);
        let (hits_before, misses_before) = (self.hits, self.misses);
        let mut out: Vec<Option<EdgeSolution>> = Vec::with_capacity(problems.len());
        let mut missing: Vec<(usize, SharedKey, &EdgeProblem)> = Vec::new();
        for (idx, problem) in problems.iter().enumerate() {
            let key = SharedKey::new(problem, spec);
            match self.entries.get(&key) {
                Some(solution) => {
                    self.hits += 1;
                    out.push(Some(solution.clone()));
                }
                None => {
                    self.misses += 1;
                    missing.push((idx, key, problem));
                    out.push(None);
                }
            }
        }
        if crate::telemetry::enabled() {
            use crate::telemetry::names;
            crate::telemetry::counter(names::MEMO_HITS, self.hits - hits_before);
            crate::telemetry::counter(names::MEMO_MISSES, self.misses - misses_before);
        }
        let refs: Vec<&EdgeProblem> = missing.iter().map(|&(_, _, p)| p).collect();
        let solved = solve_edge_batch(&refs, spec, threads);
        for ((idx, key, _), solution) in missing.into_iter().zip(solved) {
            out[idx] = Some(solution.clone());
            self.entries.insert(key, solution);
        }
        out.into_iter()
            .map(|s| s.expect("every slot is filled by a hit or a solve"))
            .collect()
    }

    /// Installs an already-known solution for `problem` under `spec`'s
    /// record sizes without counting a lookup — the checkpoint-restore
    /// path ([`crate::service::PlanService::restore`]) uses this to warm
    /// the cache from persisted plan slabs so the first post-restart
    /// admission of a recurring shape hits instead of re-solving.
    pub fn seed(&mut self, problem: &EdgeProblem, spec: &AggregationSpec, solution: EdgeSolution) {
        self.entries.insert(SharedKey::new(problem, spec), solution);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use crate::edge_opt::AggGroup;
    use crate::plan::GlobalPlan;
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

    /// One hand-built single-edge problem feeding destination `d` from
    /// two sources across the given edge.
    fn tiny_problem_on(edge: DirectedEdge, d: NodeId) -> EdgeProblem {
        let group = AggGroup {
            destination: d,
            suffix: vec![edge.1, d].into(),
        };
        EdgeProblem {
            edge,
            sources: vec![NodeId(0), NodeId(1)],
            groups: vec![group],
            pairs: vec![(0, 0), (1, 0)],
        }
    }

    fn tiny_problem(d: NodeId) -> EdgeProblem {
        tiny_problem_on((NodeId(4), NodeId(5)), d)
    }

    #[test]
    fn hit_rate_is_zero_before_any_lookup() {
        let cache = SolveCache::new();
        assert_eq!(cache.hit_rate(), 0.0, "no lookups: nothing was served");
    }

    #[test]
    fn direct_hit_and_miss_accounting() {
        let d = NodeId(9);
        let mut spec = AggregationSpec::new();
        spec.add_function(
            d,
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0)]),
        );
        let problems = vec![tiny_problem(d)];

        let mut cache = SolveCache::new();
        assert_eq!(
            (cache.hits(), cache.misses(), cache.invalidations()),
            (0, 0, 0)
        );
        assert_eq!(cache.hit_rate(), 0.0, "no lookups yet");

        let first = cache.solve_all(&problems, &spec, 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1), "cold solve misses");
        assert_eq!(cache.len(), 1);

        let second = cache.solve_all(&problems, &spec, 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "repeat is a hit");
        assert_eq!(cache.invalidations(), 0);
        assert_eq!(first, second, "cached result is bit-identical");
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn direct_invalidation_accounting() {
        let d = NodeId(9);
        let mut sum_spec = AggregationSpec::new();
        sum_spec.add_function(
            d,
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0)]),
        );
        // Same destination, different aggregate kind ⇒ different
        // partial-record size ⇒ remembered entries must be dropped.
        let mut avg_spec = AggregationSpec::new();
        avg_spec.add_function(
            d,
            AggregateFunction::weighted_average([(NodeId(0), 1.0), (NodeId(1), 1.0)]),
        );
        assert_ne!(
            sum_spec.function(d).unwrap().partial_record_bytes(),
            avg_spec.function(d).unwrap().partial_record_bytes(),
            "test needs kinds with distinct record sizes"
        );
        let problems = vec![tiny_problem(d)];

        let mut cache = SolveCache::new();
        cache.solve_all(&problems, &sum_spec, 1);
        assert_eq!(cache.len(), 1);
        let solved_avg = cache.solve_all(&problems, &avg_spec, 1);
        assert_eq!(cache.invalidations(), 1, "size conflict drops the entry");
        assert_eq!((cache.hits(), cache.misses()), (0, 2), "re-solve is a miss");
        assert_eq!(
            solved_avg[0],
            crate::edge_opt::solve_edge(&problems[0], &avg_spec)
        );
        // Back to the original sizes: conflicts again (the avg size is
        // now the remembered one).
        cache.solve_all(&problems, &sum_spec, 1);
        assert_eq!(cache.invalidations(), 2);
    }

    #[test]
    fn selective_invalidation_matches_full_resolve() {
        // Two edges: one problem mentions the destination whose record
        // size changes, the other does not. The old policy cleared both;
        // the dirty-bitset policy keeps the clean one — and must still
        // return exactly what a from-scratch solve returns.
        let (d_changed, d_stable) = (NodeId(9), NodeId(11));
        let mk_spec = |avg: bool| {
            let mut spec = AggregationSpec::new();
            let weights = [(NodeId(0), 1.0), (NodeId(1), 1.0)];
            if avg {
                spec.add_function(d_changed, AggregateFunction::weighted_average(weights));
            } else {
                spec.add_function(d_changed, AggregateFunction::weighted_sum(weights));
            }
            spec.add_function(d_stable, AggregateFunction::weighted_sum(weights));
            spec
        };
        let problems = vec![
            tiny_problem_on((NodeId(4), NodeId(5)), d_changed),
            tiny_problem_on((NodeId(5), NodeId(6)), d_stable),
        ];

        let mut cache = SolveCache::new();
        cache.solve_all(&problems, &mk_spec(false), 1);
        assert_eq!(cache.len(), 2);

        let after = cache.solve_all(&problems, &mk_spec(true), 1);
        assert_eq!(cache.invalidations(), 1);
        // Bit-identical to the old full-clear policy's answer: a fresh
        // per-problem solve under the new spec.
        let fresh: Vec<_> = problems
            .iter()
            .map(|p| crate::edge_opt::solve_edge(p, &mk_spec(true)))
            .collect();
        assert_eq!(after, fresh);
        // The refinement: only the entry naming the dirty destination
        // re-solved; the clean one was served from cache.
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let d = NodeId(9);
        let mut spec = AggregationSpec::new();
        spec.add_function(
            d,
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0)]),
        );
        let problems = vec![tiny_problem(d)];
        let mut cache = SolveCache::new();
        cache.solve_all(&problems, &spec, 1);
        cache.solve_all(&problems, &spec, 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(
            (cache.hits(), cache.misses()),
            (1, 1),
            "clear keeps counters"
        );
        cache.solve_all(&problems, &spec, 1);
        assert_eq!(cache.misses(), 2, "cleared entry must be re-solved");
        assert_eq!(
            cache.invalidations(),
            0,
            "explicit clear is not an invalidation"
        );
    }

    fn setup() -> (Network, AggregationSpec, RoutingTables) {
        let net = Network::with_default_energy(Deployment::great_duck_island(11));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(12, 10, 5));
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        (net, spec, routing)
    }

    #[test]
    fn cached_build_matches_uncached() {
        let (net, spec, routing) = setup();
        let mut cache = SolveCache::new();
        let cold = GlobalPlan::build_cached(&net, &spec, &routing, &mut cache);
        let plain = GlobalPlan::build(&net, &spec, &routing);
        assert_eq!(cold.solutions(), plain.solutions());
        assert_eq!(cold.repair_count(), plain.repair_count());
        assert_eq!(cache.hits(), 0);
        assert!(cache.misses() > 0);
    }

    #[test]
    fn second_identical_build_is_all_hits() {
        let (net, spec, routing) = setup();
        let mut cache = SolveCache::new();
        let first = GlobalPlan::build_cached(&net, &spec, &routing, &mut cache);
        let misses_after_first = cache.misses();
        let second = GlobalPlan::build_cached(&net, &spec, &routing, &mut cache);
        assert_eq!(first.solutions(), second.solutions());
        assert_eq!(cache.misses(), misses_after_first, "no new solves");
        assert_eq!(cache.hits(), misses_after_first, "every edge served cached");
    }

    #[test]
    fn overlapping_workload_reuses_shared_edges() {
        let (net, spec, routing) = setup();
        let mut cache = SolveCache::new();
        GlobalPlan::build_cached(&net, &spec, &routing, &mut cache);
        // Grow the workload: unchanged edges must hit the cache, and the
        // result must still match a fresh build.
        let mut bigger = spec.clone();
        let extra_dest = net.nodes().find(|&v| bigger.function(v).is_none()).unwrap();
        let sources: Vec<_> = bigger
            .all_sources()
            .into_iter()
            .filter(|&s| s != extra_dest)
            .take(3)
            .map(|s| (s, 1.0))
            .collect();
        bigger.add_function(
            extra_dest,
            crate::agg::AggregateFunction::weighted_sum(sources),
        );
        let routing2 = RoutingTables::build(
            &net,
            &bigger.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let cached = GlobalPlan::build_cached(&net, &bigger, &routing2, &mut cache);
        let fresh = GlobalPlan::build(&net, &bigger, &routing2);
        assert_eq!(cached.solutions(), fresh.solutions());
        assert!(
            cache.hits() > 0,
            "overlapping edges should be served cached"
        );
    }

    #[test]
    fn shared_cache_matches_fresh_solves_and_hits_across_slabs() {
        let d = NodeId(9);
        let mut spec = AggregationSpec::new();
        spec.add_function(
            d,
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0)]),
        );
        // Two slabs that share one problem but disagree on layout — the
        // slab-aligned SolveCache would realign and still hit only when
        // indices line up; the shared cache hits on content.
        let shared = tiny_problem_on((NodeId(4), NodeId(5)), d);
        let only_a = tiny_problem_on((NodeId(5), NodeId(6)), d);
        let slab_a = vec![only_a.clone(), shared.clone()];
        let slab_b = vec![shared.clone()];

        let mut cache = SharedSolveCache::new();
        let got_a = cache.solve_all(&slab_a, &spec, 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 2), "cold slab misses");
        let fresh_a: Vec<_> = slab_a
            .iter()
            .map(|p| crate::edge_opt::solve_edge(p, &spec))
            .collect();
        assert_eq!(got_a, fresh_a, "cached slab is bit-identical to fresh");

        let got_b = cache.solve_all(&slab_b, &spec, 1);
        assert_eq!(
            (cache.hits(), cache.misses()),
            (1, 2),
            "the shared problem hits from a differently laid-out slab"
        );
        assert_eq!(got_b[0], crate::edge_opt::solve_edge(&shared, &spec));
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn shared_cache_record_sizes_partition_the_key() {
        let d = NodeId(9);
        let weights = [(NodeId(0), 1.0), (NodeId(1), 1.0)];
        let mut sum_spec = AggregationSpec::new();
        sum_spec.add_function(d, AggregateFunction::weighted_sum(weights));
        let mut avg_spec = AggregationSpec::new();
        avg_spec.add_function(d, AggregateFunction::weighted_average(weights));
        let problems = vec![tiny_problem(d)];

        let mut cache = SharedSolveCache::new();
        let sum_sol = cache.solve_all(&problems, &sum_spec, 1);
        // Same problem, different record size for the named destination:
        // a different key, not a stale hit.
        let avg_sol = cache.solve_all(&problems, &avg_spec, 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2, "both sizes live side by side");
        assert_eq!(
            avg_sol[0],
            crate::edge_opt::solve_edge(&problems[0], &avg_spec)
        );
        // Both shapes now hit — neither evicted the other.
        assert_eq!(cache.solve_all(&problems, &sum_spec, 1), sum_sol);
        assert_eq!(cache.solve_all(&problems, &avg_spec, 1), avg_sol);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn shared_cache_seed_serves_without_a_solve() {
        let d = NodeId(9);
        let mut spec = AggregationSpec::new();
        spec.add_function(
            d,
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0)]),
        );
        let problems = vec![tiny_problem(d)];
        let solution = crate::edge_opt::solve_edge(&problems[0], &spec);

        let mut cache = SharedSolveCache::new();
        cache.seed(&problems[0], &spec, solution.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "seeding is free");
        let got = cache.solve_all(&problems, &spec, 1);
        assert_eq!(
            (cache.hits(), cache.misses()),
            (1, 0),
            "restored entry hits"
        );
        assert_eq!(got[0], solution);
    }

    #[test]
    fn changed_record_sizes_invalidate_the_cache() {
        let (net, spec, routing) = setup();
        let mut cache = SolveCache::new();
        GlobalPlan::build_cached(&net, &spec, &routing, &mut cache);
        assert!(!cache.is_empty());
        // A different workload shape ⇒ different destination record sizes
        // ⇒ the fingerprint must not let stale entries survive.
        let other = generate_workload(&net, &WorkloadConfig::paper_default(12, 4, 2));
        let routing3 = RoutingTables::build(
            &net,
            &other.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let cached = GlobalPlan::build_cached(&net, &other, &routing3, &mut cache);
        let fresh = GlobalPlan::build(&net, &other, &routing3);
        assert_eq!(cached.solutions(), fresh.solutions());
    }
}
