//! Property tests for the paper's theorems.
//!
//! * **Theorem 1** — under the path-sharing restriction (the
//!   shared-spanning-tree routing mode), independently solved per-edge
//!   optima are already consistent: no raw-availability violation exists
//!   before any repair, and every edge problem has exactly one
//!   continuation group per destination.
//! * **Theorem 2** — the wait-for relation among message units is acyclic.
//! * **Theorem 3** — total node-table state is `O(min(Σ|T_s|, Σ|A_d|))`.
//! * Per-edge optimality: every solved cover weighs no more than either
//!   trivial cover, and matches brute force on small instances.

use std::collections::BTreeMap;

use proptest::prelude::*;

use m2m_core::agg::RAW_VALUE_BYTES;
use m2m_core::edge_opt::{
    build_edge_problems, solve_edge, AggGroup, DirectedEdge, EdgeProblem, EdgeSolution,
};
use m2m_core::plan::{aggregation_tree_sizes, GlobalPlan};
use m2m_core::schedule::build_schedule;
use m2m_core::spec::AggregationSpec;
use m2m_core::tables::NodeTables;
use m2m_core::topo::Topology;
use m2m_core::workload::{generate_workload, SourceSelection, WorkloadConfig};
use m2m_graph::bipartite::BipartiteGraph;
use m2m_graph::vertex_cover::brute_force_min_cover;
use m2m_graph::NodeId;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

/// A compact strategy over workload shapes on a fixed 68-node network.
fn workload_strategy() -> impl Strategy<Value = WorkloadConfig> {
    (2usize..14, 3usize..14, 0u32..=10, any::<u64>()).prop_map(|(dests, sources, tenths, seed)| {
        WorkloadConfig {
            destination_count: dests,
            sources_per_destination: sources,
            selection: SourceSelection::Dispersion {
                dispersion: f64::from(tenths) / 10.0,
                max_hops: 4,
            },
            kind: m2m_core::agg::AggregateKind::WeightedAverage,
            seed,
        }
    })
}

fn network() -> Network {
    Network::with_default_energy(Deployment::great_duck_island(77))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1: with the sharing restriction, per-edge optima compose
    /// with zero inconsistencies and zero repairs, and the per-edge
    /// problems coincide with the paper's exact formulation (one
    /// continuation group per destination).
    #[test]
    fn theorem_1_composability_under_sharing(cfg in workload_strategy()) {
        let net = network();
        let spec = generate_workload(&net, &cfg);
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::SharedSpanningTree,
        );
        let problems = build_edge_problems(&Topology::snapshot(&spec, &routing));
        for p in &problems {
            prop_assert!(
                p.is_sharing_coherent(),
                "edge {:?} has split continuation groups under sharing",
                p.edge
            );
        }
        let solutions: BTreeMap<_, _> = problems
            .iter()
            .map(|p| (p.edge, solve_edge(p, &spec)))
            .collect();
        prop_assert_eq!(
            GlobalPlan::count_inconsistencies(&spec, &routing, &solutions),
            0
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        prop_assert_eq!(plan.repair_count(), 0);
        prop_assert!(plan.validate(&spec, &routing).is_ok());
    }

    /// Theorem 2: wait-for acyclicity, in both routing modes.
    #[test]
    fn theorem_2_acyclic_wait_for(cfg in workload_strategy()) {
        let net = network();
        let spec = generate_workload(&net, &cfg);
        for mode in [RoutingMode::ShortestPathTrees, RoutingMode::SharedSpanningTree, RoutingMode::SteinerTrees] {
            let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
            let plan = GlobalPlan::build(&net, &spec, &routing);
            let schedule = build_schedule(&spec, &plan);
            prop_assert!(schedule.is_ok(), "{mode:?}: {:?}", schedule.err());
            let schedule = schedule.unwrap();
            prop_assert_eq!(schedule.topo_order.len(), schedule.units.len());
        }
    }

    /// Theorem 3: total node-table state is within a small constant of
    /// `min(Σ|T_s|, Σ|A_d|)`.
    #[test]
    fn theorem_3_state_bound(cfg in workload_strategy()) {
        let net = network();
        let spec = generate_workload(&net, &cfg);
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let tables = NodeTables::build(&spec, &plan);
        let tree_total: usize = routing.total_tree_size();
        let agg_total: usize = aggregation_tree_sizes(&spec, &routing).values().sum();
        let bound = 6 * tree_total.min(agg_total);
        prop_assert!(
            tables.total_entries() <= bound,
            "state {} exceeds 6·min(Σ|T_s|={tree_total}, Σ|A_d|={agg_total})",
            tables.total_entries()
        );
    }

    /// Every per-edge solution is a minimum-byte cover: no worse than the
    /// all-raw (multicast) or all-records (aggregation) trivial covers,
    /// and exactly optimal vs brute force on small instances.
    #[test]
    fn per_edge_solutions_are_optimal(cfg in workload_strategy()) {
        let net = network();
        let spec = generate_workload(&net, &cfg);
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let problems = build_edge_problems(&Topology::snapshot(&spec, &routing));
        for p in &problems {
            let sol = solve_edge(p, &spec);
            let all_raw = p.sources.len() as u64 * 4;
            let all_records: u64 = p
                .groups
                .iter()
                .map(|g| u64::from(spec.function(g.destination).unwrap().partial_record_bytes()))
                .sum();
            prop_assert!(sol.cost_bytes <= all_raw);
            prop_assert!(sol.cost_bytes <= all_records);

            if p.sources.len() + p.groups.len() <= 14 {
                // Brute-force the unscaled byte-weight instance.
                let mut g = BipartiteGraph::new();
                for _ in &p.sources {
                    g.add_left(4);
                }
                for grp in &p.groups {
                    g.add_right(u64::from(
                        spec.function(grp.destination).unwrap().partial_record_bytes(),
                    ));
                }
                for &(si, gi) in &p.pairs {
                    g.add_edge(si, gi);
                }
                let best = brute_force_min_cover(&g);
                prop_assert_eq!(sol.cost_bytes, best.weight, "edge {:?}", p.edge);
            }
        }
    }

    /// Plan construction is deterministic.
    #[test]
    fn plan_is_deterministic(cfg in workload_strategy()) {
        let net = network();
        let spec = generate_workload(&net, &cfg);
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let a = GlobalPlan::build(&net, &spec, &routing);
        let b = GlobalPlan::build(&net, &spec, &routing);
        prop_assert_eq!(a.solutions(), b.solutions());
    }

    /// Repairs are rare even without the sharing guarantee, and the plan
    /// always validates.
    #[test]
    fn spt_mode_plans_validate(cfg in workload_strategy()) {
        let net = network();
        let spec = generate_workload(&net, &cfg);
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        prop_assert!(plan.validate(&spec, &routing).is_ok());
        // Not asserting zero — just that the sweep terminates with a
        // bounded number of patches.
        prop_assert!(plan.repair_count() <= plan.solutions().len());
    }

    /// The distributed node automata reproduce the central runtime's
    /// results on arbitrary workloads (the §3 tables are load-bearing).
    #[cfg(feature = "test-oracle")]
    #[test]
    fn distributed_runtime_matches_central(cfg in workload_strategy()) {
        use m2m_core::exec::{CompiledSchedule, ExecState};
        use m2m_core::node_machine::run_distributed_round;
        use m2m_core::tables::NodeTables;
        use std::collections::BTreeMap as Map;
        let net = network();
        let spec = generate_workload(&net, &cfg);
        let readings: Map<m2m_graph::NodeId, f64> = net
            .nodes()
            .map(|v| (v, f64::from(v.0) * 0.37 - 11.0))
            .collect();
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let compiled = CompiledSchedule::compile(&net, &spec, &plan).unwrap();
        let mut state = ExecState::for_schedule(&compiled);
        compiled.run_round_on(&readings, &mut state);
        let central = state.result_map(&compiled);
        let tables = NodeTables::build(&spec, &plan);
        let distributed = run_distributed_round(&spec, &tables, &readings);
        prop_assert!(distributed.is_ok(), "{:?}", distributed.err());
        let distributed = distributed.unwrap();
        for (d, _) in spec.functions() {
            prop_assert!(
                (central[&d] - distributed.results[&d]).abs() < 1e-9,
                "dest {d}: {} vs {}",
                central[&d],
                distributed.results[&d]
            );
        }
    }
}

// ---------------------------------------------------------------------
// Pre-refactor oracle: the plan pipeline as it existed before the dense
// core — problems accumulated in an ordered map keyed by directed edge
// while walking the routing trees, solved serially one edge at a time,
// then repaired by per-destination path walks. The dense-slab build must
// be bit-identical to this at every thread count.
// ---------------------------------------------------------------------

/// Map-keyed problem construction: walk every demanded `(s, d)` route and
/// register the source, continuation group, and `∼_e` pair on each edge,
/// then freeze insertion order into sorted dense indices.
fn oracle_problems(
    spec: &AggregationSpec,
    routing: &RoutingTables,
) -> BTreeMap<DirectedEdge, EdgeProblem> {
    struct Builder {
        sources: BTreeMap<NodeId, usize>,
        groups: BTreeMap<AggGroup, usize>,
        pairs: Vec<(usize, usize)>,
    }
    let mut acc: BTreeMap<DirectedEdge, Builder> = BTreeMap::new();
    for (s, tree) in routing.trees() {
        for &d in tree.destinations() {
            if !spec.is_source_of(s, d) {
                continue;
            }
            let path = tree.path_to(d).expect("tree spans destination");
            for (idx, hop) in path.windows(2).enumerate() {
                let b = acc.entry((hop[0], hop[1])).or_insert_with(|| Builder {
                    sources: BTreeMap::new(),
                    groups: BTreeMap::new(),
                    pairs: Vec::new(),
                });
                let next_source = b.sources.len();
                let si = *b.sources.entry(s).or_insert(next_source);
                let group = AggGroup {
                    destination: d,
                    suffix: path[idx + 1..].into(),
                };
                let next_group = b.groups.len();
                let gi = *b.groups.entry(group).or_insert(next_group);
                b.pairs.push((si, gi));
            }
        }
    }
    acc.into_iter()
        .map(|(edge, b)| {
            let mut src_order: Vec<(NodeId, usize)> =
                b.sources.iter().map(|(&s, &i)| (s, i)).collect();
            src_order.sort_unstable();
            let mut src_remap = vec![0usize; src_order.len()];
            for (new_idx, &(_, old_idx)) in src_order.iter().enumerate() {
                src_remap[old_idx] = new_idx;
            }
            let mut grp_order: Vec<(AggGroup, usize)> =
                b.groups.iter().map(|(g, &i)| (g.clone(), i)).collect();
            grp_order.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut grp_remap = vec![0usize; grp_order.len()];
            for (new_idx, (_, old_idx)) in grp_order.iter().enumerate() {
                grp_remap[*old_idx] = new_idx;
            }
            let mut pairs: Vec<(usize, usize)> = b
                .pairs
                .iter()
                .map(|&(si, gi)| (src_remap[si], grp_remap[gi]))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            let problem = EdgeProblem {
                edge,
                sources: src_order.into_iter().map(|(s, _)| s).collect(),
                groups: grp_order.into_iter().map(|(g, _)| g).collect(),
                pairs,
            };
            (edge, problem)
        })
        .collect()
}

/// The pre-refactor §2.3 patch: drop `s` from the edge's raw set, force
/// every group `s` participates in into the aggregate set, re-derive cost.
fn oracle_patch(spec: &AggregationSpec, problem: &EdgeProblem, sol: &mut EdgeSolution, s: NodeId) {
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
    sol.cost_bytes = sol.raw.len() as u64 * u64::from(RAW_VALUE_BYTES)
        + sol
            .agg
            .iter()
            .map(|g| {
                u64::from(
                    spec.function(g.destination)
                        .expect("function exists")
                        .partial_record_bytes(),
                )
            })
            .sum::<u64>();
}

/// The pre-refactor availability sweep: one walk per demanded `(s, d)`
/// path (revisiting shared prefixes), tracking raw availability and
/// patching any edge that still wants the raw value after an upstream
/// edge aggregated it.
fn oracle_repair(
    spec: &AggregationSpec,
    routing: &RoutingTables,
    problems: &BTreeMap<DirectedEdge, EdgeProblem>,
    solutions: &mut BTreeMap<DirectedEdge, EdgeSolution>,
) -> usize {
    let mut repairs = 0;
    for (s, tree) in routing.trees() {
        for &d in tree.destinations() {
            if !spec.is_source_of(s, d) {
                continue;
            }
            let path = tree.path_to(d).expect("tree spans destination");
            let mut avail = true;
            for hop in path.windows(2) {
                let edge = (hop[0], hop[1]);
                let sol = solutions.get_mut(&edge).expect("solution exists");
                let raw = sol.transmits_raw(s);
                if raw && !avail {
                    oracle_patch(spec, &problems[&edge], sol, s);
                    repairs += 1;
                }
                avail = avail && raw;
            }
        }
    }
    repairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The dense-slab `GlobalPlan` is bit-identical to the pre-refactor
    /// pipeline — same per-edge problems, same raw/agg decisions after
    /// repair, same total cost, same repair count — across all three
    /// routing modes and at 1, 2, and 8 worker threads.
    #[test]
    fn dense_core_matches_pre_refactor_oracle(cfg in workload_strategy()) {
        let net = network();
        let spec = generate_workload(&net, &cfg);
        for mode in [
            RoutingMode::ShortestPathTrees,
            RoutingMode::SharedSpanningTree,
            RoutingMode::SteinerTrees,
        ] {
            let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
            let problems = oracle_problems(&spec, &routing);
            let mut solutions: BTreeMap<DirectedEdge, EdgeSolution> = problems
                .iter()
                .map(|(&edge, p)| (edge, solve_edge(p, &spec)))
                .collect();
            let repairs = oracle_repair(&spec, &routing, &problems, &mut solutions);
            let oracle_cost: u64 = solutions.values().map(|s| s.cost_bytes).sum();

            for threads in [1usize, 2, 8] {
                let plan = GlobalPlan::build_with_threads(&net, &spec, &routing, threads);
                prop_assert_eq!(
                    plan.problems().len(),
                    problems.len(),
                    "{mode:?}/{threads}: edge count"
                );
                for (p, (edge, op)) in plan.problems().iter().zip(problems.iter()) {
                    prop_assert_eq!(&p.edge, edge, "{:?}/{}: slab order", mode, threads);
                    prop_assert_eq!(p, op, "{:?}/{}: problem inputs", mode, threads);
                }
                for (sol, (edge, osol)) in plan.solutions().iter().zip(solutions.iter()) {
                    prop_assert_eq!(&sol.edge, edge, "{:?}/{}: slab order", mode, threads);
                    prop_assert_eq!(sol, osol, "{:?}/{}: edge decisions", mode, threads);
                }
                prop_assert_eq!(plan.total_payload_bytes(), oracle_cost);
                prop_assert_eq!(plan.repair_count(), repairs, "{mode:?}/{threads}");
            }
        }
    }
}
