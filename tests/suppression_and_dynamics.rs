//! Integration tests for the §3 mechanisms: temporal suppression with
//! override, incremental re-optimization (Corollary 1), and milestone
//! routing.

use std::collections::BTreeSet;

use m2m_core::dynamics::{PlanMaintainer, WorkloadUpdate};
use m2m_core::milestones::{build_milestone_routing, expected_round_cost, MilestoneConfig};
use m2m_core::plan::GlobalPlan;
use m2m_core::schedule::build_schedule;
use m2m_core::spec::AggregationSpec;
use m2m_core::suppression::{OverridePolicy, SuppressionSim};
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

fn setup(seed: u64) -> (Network, AggregationSpec, RoutingTables, GlobalPlan) {
    let net = Network::with_default_energy(Deployment::great_duck_island(seed));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(12, 12, seed));
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&net, &spec, &routing);
    (net, spec, routing, plan)
}

#[test]
fn suppression_full_change_reproduces_static_cost() {
    for seed in [3u64, 8, 21] {
        let (net, spec, routing, plan) = setup(seed);
        let schedule = build_schedule(&spec, &plan).unwrap();
        if schedule.max_messages_on_any_edge() != 1 {
            continue; // the model's one-message-per-edge assumption
        }
        let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
        let all: BTreeSet<NodeId> = spec.all_sources().into_iter().collect();
        let supp = sim.round_cost(&all, OverridePolicy::None);
        let stat = schedule.round_cost(net.energy());
        assert_eq!(supp.payload_bytes, stat.payload_bytes, "seed {seed}");
        assert_eq!(supp.messages, stat.messages, "seed {seed}");
        assert!(
            (supp.total_uj() - stat.total_uj()).abs() < 1e-6,
            "seed {seed}"
        );
    }
}

#[test]
fn suppression_cost_is_monotone_in_change_set() {
    let (net, spec, routing, plan) = setup(5);
    let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
    let sources = spec.all_sources();
    let mut previous = 0.0;
    for k in [0usize, 2, 5, 10, sources.len()] {
        let changed: BTreeSet<NodeId> = sources.iter().copied().take(k).collect();
        let cost = sim.round_cost(&changed, OverridePolicy::None).total_uj();
        assert!(cost >= previous, "cost must grow with the change set");
        previous = cost;
    }
}

#[test]
fn override_single_lonely_change_saves_energy() {
    // The paper's motivating case: one changed value whose default plan
    // would spawn several partial records — overriding to raw must not
    // cost more than the default.
    let (net, spec, routing, plan) = setup(13);
    let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
    for s in spec.all_sources().into_iter().take(10) {
        let changed: BTreeSet<NodeId> = [s].into_iter().collect();
        let base = sim.round_cost(&changed, OverridePolicy::None).total_uj();
        let aggr = sim
            .round_cost(&changed, OverridePolicy::Aggressive)
            .total_uj();
        assert!(
            aggr <= base + 1e-9,
            "single-change override must not hurt (source {s}: {aggr} vs {base})"
        );
    }
}

#[test]
fn incremental_updates_match_scratch_builds() {
    let net = Network::with_default_energy(Deployment::great_duck_island(30));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(10, 10, 4));
    let mut maintainer = PlanMaintainer::new(net.clone(), spec, RoutingMode::ShortestPathTrees);

    // A churn sequence touching every update type.
    let d = maintainer.spec().destinations().nth(2).unwrap();
    let add = maintainer
        .spec()
        .all_sources()
        .into_iter()
        .find(|&s| !maintainer.spec().is_source_of(s, d) && s != d)
        .unwrap();
    let remove = maintainer
        .spec()
        .function(d)
        .unwrap()
        .sources()
        .next()
        .unwrap();
    let fresh = net
        .nodes()
        .find(|&v| maintainer.spec().function(v).is_none())
        .unwrap();
    let fresh_fn = m2m_core::agg::AggregateFunction::weighted_average(
        maintainer
            .spec()
            .all_sources()
            .into_iter()
            .filter(|&s| s != fresh)
            .take(6)
            .map(|s| (s, 1.0))
            .collect::<Vec<_>>(),
    );
    // Replace another destination's function by one over the same sources
    // whose partial records are larger: the problems stay the same, but
    // every solve naming it is priced differently (Corollary 1's inputs
    // include the record sizes).
    let (kept, kept_fn) = {
        let (v, f) = maintainer
            .spec()
            .functions()
            .find(|&(v, _)| v != d)
            .unwrap();
        (v, f.clone())
    };
    let wider = m2m_core::agg::AggregateFunction::new(
        m2m_core::agg::AggregateKind::WeightedVariance,
        kept_fn.sources().map(|s| (s, kept_fn.weight(s).unwrap())),
    );
    assert_ne!(
        wider.partial_record_bytes(),
        kept_fn.partial_record_bytes(),
        "the replacement must change the record size"
    );
    let updates = vec![
        WorkloadUpdate::AddSource {
            destination: d,
            source: add,
            weight: 2.0,
        },
        WorkloadUpdate::RemoveSource {
            destination: d,
            source: remove,
        },
        WorkloadUpdate::AddDestination {
            destination: fresh,
            function: fresh_fn,
        },
        WorkloadUpdate::RemoveDestination { destination: fresh },
        WorkloadUpdate::AddDestination {
            destination: kept,
            function: wider,
        },
    ];
    for update in updates {
        let stats = maintainer.apply(update);
        let scratch = GlobalPlan::build(&net, maintainer.spec(), maintainer.routing());
        assert_eq!(
            maintainer.plan().solutions(),
            scratch.solutions(),
            "incremental and scratch solution slabs must agree"
        );
        assert_eq!(
            maintainer.plan().total_payload_bytes(),
            scratch.total_payload_bytes(),
            "incremental and scratch plans must agree"
        );
        maintainer
            .plan()
            .validate(maintainer.spec(), maintainer.routing())
            .unwrap();
        assert!(stats.edges_total() > 0);
    }
}

#[test]
fn corollary_1_updates_are_local() {
    let net = Network::with_default_energy(Deployment::great_duck_island(42));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(14, 14, 2));
    let mut maintainer = PlanMaintainer::new(net, spec, RoutingMode::ShortestPathTrees);
    let d = maintainer.spec().destinations().next().unwrap();
    let s = maintainer
        .spec()
        .all_sources()
        .into_iter()
        .find(|&s| !maintainer.spec().is_source_of(s, d) && s != d)
        .unwrap();
    let stats = maintainer.apply(WorkloadUpdate::AddSource {
        destination: d,
        source: s,
        weight: 1.0,
    });
    assert!(
        stats.reuse_fraction() >= 0.5,
        "one-pair update should keep most edges: reused {:.0}%",
        stats.reuse_fraction() * 100.0
    );
}

#[test]
fn milestone_trade_off() {
    let (net, spec, routing, _) = setup(18);
    let pinned_cfg = MilestoneConfig {
        spacing: 1,
        detour_overhead: 0.5,
    };
    let flexible_cfg = MilestoneConfig {
        spacing: 3,
        detour_overhead: 0.5,
    };
    let pinned = build_milestone_routing(&net, &routing, &pinned_cfg);
    let flexible = build_milestone_routing(&net, &routing, &flexible_cfg);
    let pinned_plan = GlobalPlan::build_unchecked(&spec, &pinned.routing);
    let flexible_plan = GlobalPlan::build_unchecked(&spec, &flexible.routing);
    pinned_plan.validate(&spec, &pinned.routing).unwrap();
    flexible_plan.validate(&spec, &flexible.routing).unwrap();

    // Fewer milestones ⇒ fewer convergence points ⇒ the *physical*
    // byte·hop volume can only stay equal or grow (a virtual edge's
    // payload is relayed over every physical hop it spans).
    let byte_hops = |plan: &GlobalPlan, m: &m2m_core::milestones::MilestoneRouting| -> u64 {
        plan.iter_solutions()
            .map(|(e, sol)| {
                sol.cost_bytes * u64::from(m.edge_lengths.get(&e).copied().unwrap_or(1))
            })
            .sum()
    };
    assert!(
        byte_hops(&flexible_plan, &flexible) >= byte_hops(&pinned_plan, &pinned),
        "coarser milestones cannot reduce physical payload volume"
    );

    // But pinned routing degrades faster as links get flaky.
    let ratio =
        |plan: &GlobalPlan, m: &m2m_core::milestones::MilestoneRouting, cfg: &MilestoneConfig| {
            let lo = expected_round_cost(plan, m, net.energy(), 0.0, cfg).total_uj();
            let hi = expected_round_cost(plan, m, net.energy(), 0.5, cfg).total_uj();
            hi / lo
        };
    assert!(
        ratio(&pinned_plan, &pinned, &pinned_cfg) > ratio(&flexible_plan, &flexible, &flexible_cfg)
    );
}
