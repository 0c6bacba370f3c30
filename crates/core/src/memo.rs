//! Corollary 1's reuse rule, and the cross-build solve memo built on it.
//!
//! Corollary 1 says an edge whose single-edge inputs are unchanged keeps
//! its solution. [`crate::edge_opt::solve_edge`] reads two inputs: the
//! [`EdgeProblem`] `(S_e, D_e, ∼_e)` and the partial-record size of every
//! destination the problem's groups name, because the §2.2 cover weighs
//! each record by it. (The raw size is a global constant, and tiebreak
//! priorities are functions of the node ids inside the problem.) The two
//! together are a solve's *key*, written down once here (`record_sizes`
//! plus the problem). Two solves with equal keys return bit-equal
//! solutions (unique minima, §2.3), whichever spec or slab they came from:
//!
//! * `same_key` is the test [`crate::dynamics::PlanMaintainer`] runs on
//!   each edge after an update, comparing two keys in place;
//! * [`SharedSolveCache`] stores solves under their keys, so a plan build
//!   or a service tenant hits on every edge an earlier build solved with
//!   the same inputs.

use std::collections::HashMap;

use crate::edge_opt::{solve_edge_batch, EdgeProblem, EdgeSolution};
use crate::spec::AggregationSpec;

/// The record sizes a solve of `problem` under `spec` reads: one per
/// destination the problem's groups name, in
/// [`EdgeProblem::destinations`] order (0 for a destination `spec` has no
/// function for).
fn record_sizes<'a>(
    problem: &'a EdgeProblem,
    spec: &'a AggregationSpec,
) -> impl Iterator<Item = u32> + 'a {
    problem
        .destinations()
        .map(|d| spec.function(d).map_or(0, |f| f.partial_record_bytes()))
}

/// True when `new` under `new_spec` has the same solve key as `old` under
/// `old_spec`, so `old`'s solution answers `new` verbatim (Corollary 1).
/// Compares in place and allocates nothing. When both sides are priced by
/// the one spec (the same reference, as after a route change), equal
/// problems name equal sizes, so no size is looked up.
pub(crate) fn same_key(
    old: &EdgeProblem,
    old_spec: &AggregationSpec,
    new: &EdgeProblem,
    new_spec: &AggregationSpec,
) -> bool {
    old == new
        && (std::ptr::eq(old_spec, new_spec)
            || record_sizes(old, old_spec).eq(record_sizes(new, new_spec)))
}

/// A solve's key, owned: the problem plus its `record_sizes`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct SolveKey {
    problem: EdgeProblem,
    record_sizes: Vec<u32>,
}

impl SolveKey {
    fn new(problem: &EdgeProblem, spec: &AggregationSpec) -> Self {
        SolveKey {
            problem: problem.clone(),
            record_sizes: record_sizes(problem, spec).collect(),
        }
    }
}

/// An `EdgeProblem → EdgeSolution` memo keyed by solve key, shared by
/// plan rebuilds ([`crate::plan::GlobalPlan::build_cached`]) and by the
/// tenants of the plan service ([`crate::service`]). Keys carry no slab
/// position, so tenant N's admission hits on every edge any earlier
/// tenant solved with the same inputs, whatever its slab layout. The
/// returned slab is bit-identical to solving fresh, which is what keeps
/// service tenants bit-identical to isolated sessions.
#[derive(Clone, Debug, Default)]
pub struct SharedSolveCache {
    entries: HashMap<SolveKey, EdgeSolution>,
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
    /// caller's slab order — serving every problem whose solve key is
    /// cached from the cache and fanning the misses out over `threads`
    /// workers. Bit-identical to [`crate::edge_opt::solve_edge_slab`] on
    /// the same inputs.
    pub fn solve_all(
        &mut self,
        problems: &[EdgeProblem],
        spec: &AggregationSpec,
        threads: usize,
    ) -> Vec<EdgeSolution> {
        let _span = crate::telemetry::span(crate::telemetry::layer::MEMO_SOLVE_ALL);
        let (hits_before, misses_before) = (self.hits, self.misses);
        let mut out: Vec<Option<EdgeSolution>> = Vec::with_capacity(problems.len());
        let mut missing: Vec<(usize, SolveKey, &EdgeProblem)> = Vec::new();
        for (idx, problem) in problems.iter().enumerate() {
            let key = SolveKey::new(problem, spec);
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
        self.entries.insert(SolveKey::new(problem, spec), solution);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use crate::edge_opt::{AggGroup, DirectedEdge};
    use crate::plan::GlobalPlan;
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_graph::NodeId;
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
        let cache = SharedSolveCache::new();
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

        let mut cache = SharedSolveCache::new();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.hit_rate(), 0.0, "no lookups yet");

        let first = cache.solve_all(&problems, &spec, 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1), "cold solve misses");
        assert_eq!(cache.len(), 1);

        let second = cache.solve_all(&problems, &spec, 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "repeat is a hit");
        assert_eq!(first, second, "cached result is bit-identical");
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn selective_invalidation_matches_full_resolve() {
        // Two edges: one problem names the destination whose record size
        // changes, the other does not. Only the first key changes, so
        // only it re-solves — and the slab must still equal a fresh solve.
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

        let mut cache = SharedSolveCache::new();
        cache.solve_all(&problems, &mk_spec(false), 1);
        assert_eq!(cache.len(), 2);

        let after = cache.solve_all(&problems, &mk_spec(true), 1);
        let fresh: Vec<_> = problems
            .iter()
            .map(|p| crate::edge_opt::solve_edge(p, &mk_spec(true)))
            .collect();
        assert_eq!(after, fresh);
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
        let mut cache = SharedSolveCache::new();
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
    }

    #[test]
    fn same_key_agrees_with_cache_lookups() {
        // The maintainer's in-place test and the cache's lookup are one
        // rule: a solve cached for one (problem, spec) serves another
        // exactly when `same_key` says their keys match.
        let (d, other) = (NodeId(9), NodeId(11));
        let weights = [(NodeId(0), 1.0), (NodeId(1), 1.0)];
        let specs: Vec<AggregationSpec> = [
            AggregateFunction::weighted_sum(weights),
            AggregateFunction::weighted_average(weights),
            AggregateFunction::new(crate::agg::AggregateKind::Max, weights),
        ]
        .into_iter()
        .map(|f| {
            let mut spec = AggregationSpec::new();
            spec.add_function(d, f);
            spec.add_function(other, AggregateFunction::weighted_sum(weights));
            spec
        })
        .collect();
        let problems = [
            tiny_problem(d),
            tiny_problem(other),
            tiny_problem_on((NodeId(5), NodeId(6)), d),
        ];
        let inputs: Vec<(&EdgeProblem, &AggregationSpec)> = problems
            .iter()
            .flat_map(|p| specs.iter().map(move |s| (p, s)))
            .collect();
        for &(a, sa) in &inputs {
            for &(b, sb) in &inputs {
                let mut cache = SharedSolveCache::new();
                cache.seed(a, sa, crate::edge_opt::solve_edge(a, sa));
                cache.solve_all(std::slice::from_ref(b), sb, 1);
                assert_eq!(same_key(a, sa, b, sb), cache.hits() == 1);
            }
        }
        // Sum and max price records alike, so a swap between them keeps
        // the key; a swap to average does not.
        assert!(same_key(&problems[0], &specs[0], &problems[0], &specs[2]));
        assert!(!same_key(&problems[0], &specs[0], &problems[0], &specs[1]));
        // A destination the problem does not name may change freely.
        assert!(same_key(&problems[1], &specs[0], &problems[1], &specs[1]));
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
        let mut cache = SharedSolveCache::new();
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
        let mut cache = SharedSolveCache::new();
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
        let mut cache = SharedSolveCache::new();
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
        // Two slabs that share one problem but disagree on layout: the
        // cache hits on the key, not on the slab position.
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
        let mut cache = SharedSolveCache::new();
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
