//! Stress tests: larger networks, heavier workloads, and long churn
//! sequences. These are sized to stay fast in debug builds while pushing
//! well past the unit tests' scale.

use std::collections::BTreeMap;

use m2m_core::baselines::{plan_for_algorithm, Algorithm};
use m2m_core::dynamics::{PlanMaintainer, WorkloadUpdate};
use m2m_core::exec::{CompiledSchedule, ExecState};
use m2m_core::schedule::build_schedule;
use m2m_core::workload::{generate_workload, SourceSelection, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

#[test]
fn hundred_fifty_node_network_end_to_end() {
    let deployment = Deployment::scaled_series(&[150], 3).remove(0);
    let net = Network::with_default_energy(deployment);
    let n = net.node_count();
    let spec = generate_workload(
        &net,
        &WorkloadConfig {
            selection: SourceSelection::Uniform,
            ..WorkloadConfig::paper_default(n / 4, (n * 15) / 100, 8)
        },
    );
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = plan_for_algorithm(&net, &spec, &routing, Algorithm::Optimal);
    plan.validate(&spec, &routing).unwrap();
    let readings: BTreeMap<NodeId, f64> = net
        .nodes()
        .map(|v| (v, f64::from(v.0) * 0.3 - 20.0))
        .collect();
    let compiled = CompiledSchedule::compile(&net, &spec, &plan).unwrap();
    let mut state = ExecState::for_schedule(&compiled);
    compiled.run_round_on(&readings, &mut state);
    let results = state.result_map(&compiled);
    for (d, f) in spec.functions() {
        assert!((results[&d] - f.reference_result(&readings)).abs() < 1e-9);
    }
    // The distributed automata (a test oracle behind the `test-oracle`
    // feature) agree at this scale too.
    #[cfg(feature = "test-oracle")]
    {
        use m2m_core::node_machine::run_distributed_round;
        use m2m_core::tables::NodeTables;
        let tables = NodeTables::build(&spec, &plan);
        let distributed = run_distributed_round(&spec, &tables, &readings).unwrap();
        for (d, _) in spec.functions() {
            assert!((results[&d] - distributed.results[&d]).abs() < 1e-9);
        }
    }
}

#[test]
fn dense_workload_every_node_is_a_destination() {
    // Figure 3's rightmost point: every node a destination, heavy trees.
    let net = Network::with_default_energy(Deployment::great_duck_island(40));
    let n = net.node_count();
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(n, 20, 2));
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = plan_for_algorithm(&net, &spec, &routing, Algorithm::Optimal);
    plan.validate(&spec, &routing).unwrap();
    let schedule = build_schedule(&spec, &plan).unwrap();
    // Theorem 2: units on an edge merge into one message unless a
    // wait-for cycle forces a split, which dense shortest-path-tree
    // workloads occasionally do. Perfect merging must still be the
    // overwhelmingly common case.
    assert!(schedule.max_messages_on_any_edge() <= 2);
    let mut per_edge: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for m in &schedule.messages {
        *per_edge.entry(m.edge).or_default() += 1;
    }
    let merged = per_edge.values().filter(|&&c| c == 1).count();
    assert!(
        merged * 10 >= per_edge.len() * 9,
        "only {merged}/{} edges fully merged",
        per_edge.len()
    );
    // Every node participates.
    let mut touched = vec![false; n];
    for m in &schedule.messages {
        touched[m.edge.0.index()] = true;
        touched[m.edge.1.index()] = true;
    }
    assert!(touched.iter().filter(|&&t| t).count() >= n * 9 / 10);
}

#[test]
fn twenty_update_churn_sequence_stays_consistent() {
    let net = Network::with_default_energy(Deployment::great_duck_island(51));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(12, 10, 5));
    let mut maintainer = PlanMaintainer::new(net.clone(), spec, RoutingMode::ShortestPathTrees);

    // A deterministic pseudo-random churn stream.
    let mut state = 0x1234_5678u64;
    let mut next = |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    for step in 0..20 {
        let dests: Vec<NodeId> = maintainer.spec().destinations().collect();
        let d = dests[next(dests.len() as u64) as usize];
        let f = maintainer.spec().function(d).unwrap().clone();
        let update = if f.source_count() > 3 && next(2) == 0 {
            let victims: Vec<NodeId> = f.sources().collect();
            WorkloadUpdate::RemoveSource {
                destination: d,
                source: victims[next(victims.len() as u64) as usize],
            }
        } else {
            let candidates: Vec<NodeId> = net
                .nodes()
                .filter(|&s| !f.has_source(s) && s != d)
                .collect();
            WorkloadUpdate::AddSource {
                destination: d,
                source: candidates[next(candidates.len() as u64) as usize],
                weight: 1.0 + next(5) as f64 * 0.25,
            }
        };
        let stats = maintainer.apply(update);
        assert!(stats.edges_total() > 0, "step {step} emptied the plan");
        maintainer
            .plan()
            .validate(maintainer.spec(), maintainer.routing())
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        // Incremental result matches a from-scratch rebuild.
        let scratch =
            m2m_core::plan::GlobalPlan::build(&net, maintainer.spec(), maintainer.routing());
        assert_eq!(
            maintainer.plan().total_payload_bytes(),
            scratch.total_payload_bytes(),
            "step {step}: incremental diverged from scratch"
        );
    }
}

#[test]
fn long_suppression_run_is_stable() {
    use m2m_core::plan::GlobalPlan;
    use m2m_core::suppression::{OverridePolicy, SuppressionSim};
    let net = Network::with_default_energy(Deployment::great_duck_island(60));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(15, 15, 6));
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&net, &spec, &routing);
    let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
    // 200 rounds at several probabilities; costs must be finite, ordered,
    // and reproducible.
    let mut last = 0.0;
    for p in [0.1, 0.3, 0.6, 0.9] {
        let a = sim.average_cost(&spec, p, 200, OverridePolicy::Medium, 99);
        let b = sim.average_cost(&spec, p, 200, OverridePolicy::Medium, 99);
        assert!(
            (a.total_uj() - b.total_uj()).abs() < 1e-9,
            "p={p} not reproducible"
        );
        assert!(a.total_uj().is_finite() && a.total_uj() >= last);
        last = a.total_uj();
    }
}
