//! Dynamic adaptation (§3, "Adapting to Dynamic Situations").
//!
//! Corollary 1: the globally optimal plan is unchanged at every edge whose
//! single-edge inputs are unchanged. So when the workload changes — a
//! source added to or removed from a function, a destination deployed or
//! retired — only the edges whose `(S_e, D_e, ∼_e)` inputs actually
//! changed need re-optimization, and only their incident nodes need new
//! state disseminated. [`PlanMaintainer`] implements exactly this: it
//! diffs the per-edge problems before and after the update, reuses
//! solutions for unchanged problems verbatim, re-solves the rest, and
//! reports how local the update was.

use std::sync::Arc;

use m2m_graph::NodeId;
use m2m_netsim::{Network, RoutingMode, RoutingTables};

use crate::agg::AggregateFunction;
use crate::edge_opt::{
    build_edge_problems, solve_edge_batch, solve_edge_slab, EdgeProblem, EdgeSolution,
};
use crate::parallel;
use crate::plan::GlobalPlan;
use crate::spec::AggregationSpec;
use crate::topo::{BitSet, Topology};

/// A change to the aggregation workload.
#[derive(Clone, Debug)]
pub enum WorkloadUpdate {
    /// Add (or re-weight) a source of an existing destination.
    AddSource {
        /// The destination whose function gains the source.
        destination: NodeId,
        /// The new source.
        source: NodeId,
        /// Its weight `α_s`.
        weight: f64,
    },
    /// Remove a source from a destination's function.
    RemoveSource {
        /// The destination whose function loses the source.
        destination: NodeId,
        /// The source to remove.
        source: NodeId,
    },
    /// Install a new aggregation function (new destination).
    AddDestination {
        /// The new destination.
        destination: NodeId,
        /// Its function.
        function: AggregateFunction,
    },
    /// Retire a destination and its function.
    RemoveDestination {
        /// The destination to retire.
        destination: NodeId,
    },
}

/// How local an update turned out to be.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Edges whose single-edge problem changed and were re-solved.
    pub edges_reoptimized: usize,
    /// Edges whose solution was kept verbatim (Corollary 1).
    pub edges_reused: usize,
    /// Edges that newly appeared or disappeared from the plan.
    pub edges_added_or_removed: usize,
}

impl UpdateStats {
    /// Total edges in the new plan.
    pub fn edges_total(&self) -> usize {
        self.edges_reoptimized + self.edges_reused
    }

    /// Fraction of the new plan's edges that did *not* need re-solving.
    pub fn reuse_fraction(&self) -> f64 {
        if self.edges_total() == 0 {
            return 1.0;
        }
        self.edges_reused as f64 / self.edges_total() as f64
    }
}

/// Maintains a plan across workload updates with incremental
/// re-optimization.
#[derive(Clone, Debug)]
pub struct PlanMaintainer {
    network: Arc<Network>,
    spec: AggregationSpec,
    mode: RoutingMode,
    routing: Arc<RoutingTables>,
    /// The interned topology the slabs below are laid out over.
    topo: Arc<Topology>,
    /// Pre-repair per-edge optima in `EdgeIdx` order, reusable across
    /// updates (repairs are applied on a copy when the public plan is
    /// assembled).
    base_solutions: Vec<EdgeSolution>,
    problems: Vec<EdgeProblem>,
    plan: GlobalPlan,
}

impl PlanMaintainer {
    /// Builds the initial plan. Accepts the network by value or as a
    /// shared [`Arc`], so service tenants and standalone maintainers can
    /// share one deployment without cloning it.
    pub fn new(network: impl Into<Arc<Network>>, spec: AggregationSpec, mode: RoutingMode) -> Self {
        let network = network.into();
        let routing = RoutingTables::build(&network, &spec.source_to_destinations(), mode);
        let topo = Arc::new(Topology::snapshot(&spec, &routing));
        let problems = build_edge_problems(&topo);
        let base_solutions = solve_edge_slab(&problems, &spec, parallel::max_threads());
        let routing = Arc::new(routing);
        Self::from_parts(network, spec, mode, routing, topo, problems, base_solutions)
    }

    /// Wraps an already-planned substrate without re-routing or
    /// re-solving: the caller supplies the routing tables, the interned
    /// topology snapshot for `(spec, routing)`, the per-edge problems in
    /// the topology's slab order, and the matching **pre-repair**
    /// solutions (from [`crate::edge_opt::solve_edge_slab`], a shared
    /// [`crate::memo::SharedSolveCache`], or a restored service
    /// checkpoint). The public plan is assembled exactly as
    /// [`PlanMaintainer::new`] assembles it from the same parts, so a
    /// maintainer built this way is bit-identical to one that planned
    /// from scratch.
    ///
    /// # Panics
    /// Panics if the parts are inconsistent (problems that do not match
    /// the topology's edge slab, or solutions that do not answer their
    /// problems — the repair sweep and schedule assembly check both).
    pub fn from_parts(
        network: impl Into<Arc<Network>>,
        spec: AggregationSpec,
        mode: RoutingMode,
        routing: Arc<RoutingTables>,
        topo: Arc<Topology>,
        problems: Vec<EdgeProblem>,
        base_solutions: Vec<EdgeSolution>,
    ) -> Self {
        let plan = GlobalPlan::from_solutions(
            &spec,
            Arc::clone(&topo),
            problems.clone(),
            base_solutions.clone(),
        );
        PlanMaintainer {
            network: network.into(),
            spec,
            mode,
            routing,
            topo,
            base_solutions,
            problems,
            plan,
        }
    }

    /// The current plan.
    #[inline]
    pub fn plan(&self) -> &GlobalPlan {
        &self.plan
    }

    /// The current workload.
    #[inline]
    pub fn spec(&self) -> &AggregationSpec {
        &self.spec
    }

    /// The network the plan is maintained for.
    #[inline]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// A shared handle to the network (cheap to clone into another
    /// maintainer or session over the same deployment).
    #[inline]
    pub fn network_arc(&self) -> Arc<Network> {
        Arc::clone(&self.network)
    }

    /// The current routing tables.
    #[inline]
    pub fn routing(&self) -> &RoutingTables {
        &self.routing
    }

    /// A shared handle to the current routing tables.
    #[inline]
    pub fn routing_arc(&self) -> Arc<RoutingTables> {
        Arc::clone(&self.routing)
    }

    /// The interned topology snapshot the plan's slabs are laid out over.
    #[inline]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The routing mode workload-driven re-routes rebuild tables with.
    #[inline]
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// The per-edge problems in slab order (pre-repair inputs).
    #[inline]
    pub fn problems(&self) -> &[EdgeProblem] {
        &self.problems
    }

    /// The pre-repair per-edge solutions in slab order — the reusable
    /// basis [`PlanMaintainer::from_parts`] accepts back (the public
    /// [`PlanMaintainer::plan`] holds the *post-repair* copies).
    #[inline]
    pub fn base_solutions(&self) -> &[EdgeSolution] {
        &self.base_solutions
    }

    /// Applies one update, re-optimizing only the edges whose single-edge
    /// inputs changed.
    ///
    /// # Panics
    /// Panics on malformed updates (unknown destination, removing a
    /// function's last source).
    pub fn apply(&mut self, update: WorkloadUpdate) -> UpdateStats {
        match update {
            WorkloadUpdate::AddSource {
                destination,
                source,
                weight,
            } => {
                self.spec
                    .function_mut(destination)
                    .unwrap_or_else(|| panic!("no function at {destination}"))
                    .set_weight(source, weight);
            }
            WorkloadUpdate::RemoveSource {
                destination,
                source,
            } => {
                self.spec
                    .function_mut(destination)
                    .unwrap_or_else(|| panic!("no function at {destination}"))
                    .remove_source(source);
            }
            WorkloadUpdate::AddDestination {
                destination,
                function,
            } => {
                self.spec.add_function(destination, function);
            }
            WorkloadUpdate::RemoveDestination { destination } => {
                assert!(
                    self.spec.remove_function(destination).is_some(),
                    "no function at {destination}"
                );
            }
        }
        self.reoptimize()
    }

    /// Installs externally supplied routing tables (e.g. ETX-weighted
    /// trees rebuilt after link-stability changes — §3: "changes to
    /// multicast trees … may happen if stability of certain routes have
    /// changed significantly"), re-solving only the edges whose
    /// single-edge inputs changed.
    pub fn apply_route_change(&mut self, new_routing: RoutingTables) -> UpdateStats {
        self.install(new_routing)
    }

    /// Re-routes with the maintainer's own mode, diffs per-edge problems
    /// against the previous state, and re-solves only the changed ones.
    fn reoptimize(&mut self) -> UpdateStats {
        let new_routing = RoutingTables::build(
            &self.network,
            &self.spec.source_to_destinations(),
            self.mode,
        );
        self.install(new_routing)
    }

    /// Shared Corollary 1 machinery: diff, reuse, re-solve, reassemble.
    /// The re-solve set — the edges whose problems actually changed — is
    /// fanned out across worker threads; Theorem 1 makes the solves
    /// independent and ordered collection keeps the plan bit-identical to
    /// a serial re-solve.
    fn install(&mut self, new_routing: RoutingTables) -> UpdateStats {
        let _span = crate::telemetry::span(crate::telemetry::layer::DYNAMICS_ROUTE_CHANGE);
        let new_topo = Arc::new(Topology::snapshot(&self.spec, &new_routing));
        let new_problems = build_edge_problems(&new_topo);

        // Dirty-edge bitset over the *new* slab: an edge is dirty when
        // its problem is brand new or changed; everything else reuses its
        // solution verbatim (Corollary 1). The old snapshot's O(1) edge
        // lookup does the diff — no map re-keying.
        let mut stats = UpdateStats::default();
        let mut dirty = BitSet::with_capacity(new_problems.len());
        for (idx, problem) in new_problems.iter().enumerate() {
            match self.topo.edge_idx(problem.edge) {
                Some(old) if self.problems[old.index()] == *problem => {
                    stats.edges_reused += 1;
                }
                existing => {
                    stats.edges_reoptimized += 1;
                    if existing.is_none() {
                        stats.edges_added_or_removed += 1;
                    }
                    dirty.insert(idx);
                }
            }
        }
        let to_solve: Vec<&EdgeProblem> = new_problems
            .iter()
            .enumerate()
            .filter(|&(idx, _)| dirty.contains(idx))
            .map(|(_, p)| p)
            .collect();
        let solved = solve_edge_batch(&to_solve, &self.spec, parallel::max_threads());
        let mut fresh = solved.into_iter();
        let new_solutions: Vec<EdgeSolution> = new_problems
            .iter()
            .enumerate()
            .map(|(idx, problem)| {
                if dirty.contains(idx) {
                    fresh.next().expect("one solve per dirty edge")
                } else {
                    let old = self.topo.edge_idx(problem.edge).expect("reused edge");
                    self.base_solutions[old.index()].clone()
                }
            })
            .collect();
        stats.edges_added_or_removed += self
            .topo
            .edges()
            .iter()
            .filter(|&&e| new_topo.edge_idx(e).is_none())
            .count();

        if crate::telemetry::enabled() {
            use crate::telemetry::names;
            crate::telemetry::counter(names::DYNAMICS_UPDATES, 1);
            crate::telemetry::counter(names::DYNAMICS_EDGES_REUSED, stats.edges_reused as u64);
            crate::telemetry::counter(
                names::DYNAMICS_EDGES_REOPTIMIZED,
                stats.edges_reoptimized as u64,
            );
        }
        self.plan = GlobalPlan::from_solutions(
            &self.spec,
            Arc::clone(&new_topo),
            new_problems.clone(),
            new_solutions.clone(),
        );
        self.routing = Arc::new(new_routing);
        self.topo = new_topo;
        self.problems = new_problems;
        self.base_solutions = new_solutions;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_netsim::Deployment;

    fn maintainer() -> PlanMaintainer {
        let net = Network::with_default_energy(Deployment::great_duck_island(4));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(10, 8, 21));
        PlanMaintainer::new(net, spec, RoutingMode::ShortestPathTrees)
    }

    #[test]
    fn incremental_matches_from_scratch() {
        let mut m = maintainer();
        let d = m.spec().destinations().next().unwrap();
        // Pick a source not yet feeding d.
        let s = m
            .spec()
            .all_sources()
            .into_iter()
            .find(|&s| !m.spec().is_source_of(s, d) && s != d)
            .unwrap();
        m.apply(WorkloadUpdate::AddSource {
            destination: d,
            source: s,
            weight: 1.0,
        });
        // Rebuild from scratch and compare total cost.
        let scratch = PlanMaintainer::new(
            m.network.clone(),
            m.spec().clone(),
            RoutingMode::ShortestPathTrees,
        );
        assert_eq!(
            m.plan().total_payload_bytes(),
            scratch.plan().total_payload_bytes()
        );
        m.plan().validate(m.spec(), m.routing()).unwrap();
    }

    #[test]
    fn small_update_is_local() {
        let mut m = maintainer();
        let d = m.spec().destinations().next().unwrap();
        let s = m
            .spec()
            .all_sources()
            .into_iter()
            .find(|&s| !m.spec().is_source_of(s, d) && s != d)
            .unwrap();
        let stats = m.apply(WorkloadUpdate::AddSource {
            destination: d,
            source: s,
            weight: 1.0,
        });
        // Corollary 1: most of the plan survives a one-pair change.
        assert!(
            stats.reuse_fraction() > 0.5,
            "expected a local update, reused only {:.0}%",
            stats.reuse_fraction() * 100.0
        );
    }

    #[test]
    fn reuse_fraction_of_an_edgeless_plan_is_total() {
        // Regression: an update can leave a plan with zero edges (e.g. the
        // last destination removed, or every source co-located with its
        // destination). The fraction must not divide by zero — "nothing
        // needed re-solving" reads as full reuse.
        let stats = UpdateStats::default();
        assert_eq!(stats.edges_total(), 0);
        assert_eq!(stats.reuse_fraction(), 1.0);
    }

    #[test]
    fn remove_then_readd_is_identity() {
        let mut m = maintainer();
        let before = m.plan().total_payload_bytes();
        let (d, f) = {
            let (d, f) = m.spec().functions().next().unwrap();
            (d, f.clone())
        };
        // Pick a removable source (function keeps ≥1 source).
        let s = f.sources().next().unwrap();
        let w = f.weight(s).unwrap();
        m.apply(WorkloadUpdate::RemoveSource {
            destination: d,
            source: s,
        });
        m.apply(WorkloadUpdate::AddSource {
            destination: d,
            source: s,
            weight: w,
        });
        assert_eq!(m.plan().total_payload_bytes(), before);
        m.plan().validate(m.spec(), m.routing()).unwrap();
    }

    #[test]
    fn destination_lifecycle() {
        let mut m = maintainer();
        let new_dest = m
            .network
            .nodes()
            .find(|&v| m.spec().function(v).is_none())
            .unwrap();
        let sources: Vec<NodeId> = m
            .spec()
            .all_sources()
            .into_iter()
            .filter(|&s| s != new_dest)
            .take(4)
            .collect();
        let stats = m.apply(WorkloadUpdate::AddDestination {
            destination: new_dest,
            function: AggregateFunction::weighted_sum(
                sources.iter().map(|&s| (s, 1.0)).collect::<Vec<_>>(),
            ),
        });
        assert!(stats.edges_reoptimized > 0);
        m.plan().validate(m.spec(), m.routing()).unwrap();
        let stats = m.apply(WorkloadUpdate::RemoveDestination {
            destination: new_dest,
        });
        assert!(stats.edges_total() > 0);
        m.plan().validate(m.spec(), m.routing()).unwrap();
    }

    #[test]
    fn route_change_is_incremental_and_correct() {
        use m2m_netsim::quality::{weighted_routing, LinkQuality};
        let mut m = maintainer();
        let before_bytes = m.plan().total_payload_bytes();
        // Reroute over ETX-weighted trees after links degrade.
        let quality = LinkQuality::distance_based(&m.network, 0.5, 3);
        let new_routing =
            weighted_routing(&m.network, &m.spec().source_to_destinations(), &quality);
        let stats = m.apply_route_change(new_routing);
        assert!(stats.edges_total() > 0);
        m.plan().validate(m.spec(), m.routing()).unwrap();
        // Some edges typically survive (shared short routes), and the
        // plan matches a from-scratch build over the same routing.
        let scratch = GlobalPlan::build_unchecked(m.spec(), m.routing());
        assert_eq!(
            m.plan().total_payload_bytes(),
            scratch.total_payload_bytes()
        );
        let _ = before_bytes;
    }

    #[test]
    #[should_panic(expected = "no function at")]
    fn bad_update_panics() {
        let mut m = maintainer();
        let ghost = m
            .network
            .nodes()
            .find(|v| m.spec().function(*v).is_none())
            .unwrap();
        m.apply(WorkloadUpdate::RemoveDestination { destination: ghost });
    }
}
