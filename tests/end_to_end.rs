//! End-to-end correctness: for every algorithm, routing mode, aggregate
//! kind, and a spread of random workloads, the value delivered at every
//! destination equals the out-of-network reference computation, and the
//! schedule obeys the paper's structural claims (one message per edge,
//! acyclic wait-for).

use std::collections::BTreeMap;

use m2m_core::agg::AggregateKind;
use m2m_core::baselines::{plan_for_algorithm, Algorithm};
use m2m_core::exec::{CompiledSchedule, ExecState};
use m2m_core::metrics::RoundCost;
use m2m_core::plan::GlobalPlan;
use m2m_core::spec::AggregationSpec;
use m2m_core::workload::{generate_workload, SourceSelection, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

struct Round {
    results: BTreeMap<NodeId, f64>,
    cost: RoundCost,
}

/// One round on the compiled executor (the public execution surface).
fn execute_round(
    net: &Network,
    spec: &AggregationSpec,
    plan: &GlobalPlan,
    readings: &BTreeMap<NodeId, f64>,
) -> Round {
    let compiled = CompiledSchedule::compile(net, spec, plan).expect("plan must be schedulable");
    let mut state = ExecState::for_schedule(&compiled);
    let cost = compiled.run_round_on(readings, &mut state);
    Round {
        results: state.result_map(&compiled),
        cost,
    }
}

fn readings_for(net: &Network, salt: u64) -> BTreeMap<NodeId, f64> {
    net.nodes()
        .map(|v| {
            let x = (u64::from(v.0) * 2654435761 + salt * 40503) % 1000;
            (v, x as f64 / 10.0 - 50.0)
        })
        .collect()
}

#[test]
fn all_algorithms_all_modes_match_reference() {
    let net = Network::with_default_energy(Deployment::great_duck_island(6));
    for seed in [1u64, 2, 3] {
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(10, 12, seed));
        let readings = readings_for(&net, seed);
        for mode in [
            RoutingMode::ShortestPathTrees,
            RoutingMode::SharedSpanningTree,
            RoutingMode::SteinerTrees,
        ] {
            let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
            for alg in Algorithm::PLANNED {
                let plan = plan_for_algorithm(&net, &spec, &routing, alg);
                plan.validate(&spec, &routing)
                    .unwrap_or_else(|e| panic!("{seed}/{mode:?}/{}: {e}", alg.name()));
                let round = execute_round(&net, &spec, &plan, &readings);
                assert_eq!(round.results.len(), spec.destination_count());
                for (d, f) in spec.functions() {
                    let expected = f.reference_result(&readings);
                    let got = round.results[&d];
                    assert!(
                        (got - expected).abs() < 1e-9,
                        "{seed}/{mode:?}/{}: dest {d} got {got}, want {expected}",
                        alg.name()
                    );
                }
            }
        }
    }
}

#[test]
fn every_aggregate_kind_survives_the_full_pipeline() {
    let net = Network::with_default_energy(Deployment::great_duck_island(9));
    let readings = readings_for(&net, 5);
    for kind in [
        AggregateKind::WeightedSum,
        AggregateKind::WeightedAverage,
        AggregateKind::WeightedVariance,
        AggregateKind::Min,
        AggregateKind::Max,
        AggregateKind::Count,
        AggregateKind::Range,
    ] {
        let spec = generate_workload(
            &net,
            &WorkloadConfig {
                kind,
                ..WorkloadConfig::paper_default(8, 10, 33)
            },
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = plan_for_algorithm(&net, &spec, &routing, Algorithm::Optimal);
        let round = execute_round(&net, &spec, &plan, &readings);
        for (d, f) in spec.functions() {
            let expected = f.reference_result(&readings);
            assert!(
                (round.results[&d] - expected).abs() < 1e-9,
                "{kind:?}: dest {d}"
            );
        }
    }
}

#[test]
fn geometric_mean_end_to_end_on_positive_readings() {
    let net = Network::with_default_energy(Deployment::great_duck_island(9));
    let readings: BTreeMap<NodeId, f64> = net
        .nodes()
        .map(|v| (v, 1.0 + f64::from(v.0 % 17)))
        .collect();
    let spec = generate_workload(
        &net,
        &WorkloadConfig {
            kind: AggregateKind::GeometricMean,
            ..WorkloadConfig::paper_default(8, 10, 33)
        },
    );
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = plan_for_algorithm(&net, &spec, &routing, Algorithm::Optimal);
    let round = execute_round(&net, &spec, &plan, &readings);
    for (d, f) in spec.functions() {
        let expected = f.reference_result(&readings);
        assert!(
            (round.results[&d] - expected).abs() < 1e-9 * expected.abs().max(1.0),
            "dest {d}"
        );
    }
}

#[test]
fn one_message_per_edge_as_in_the_paper() {
    // "for all our experiments, our approach only sends one message per
    // multicast tree edge, regardless of the number of trees sharing this
    // edge" (§3).
    let net = Network::with_default_energy(Deployment::great_duck_island(12));
    for seed in [4u64, 5] {
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(20, 20, seed));
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = plan_for_algorithm(&net, &spec, &routing, Algorithm::Optimal);
        let schedule = m2m_core::schedule::build_schedule(&spec, &plan).unwrap();
        assert_eq!(schedule.max_messages_on_any_edge(), 1, "seed {seed}");
        // Theorem 2 witnessed by the topological order's existence.
        assert_eq!(schedule.topo_order.len(), schedule.units.len());
    }
}

#[test]
fn uniform_source_selection_end_to_end() {
    // The Figure 6 style workload (sources uniform over the network)
    // exercises long routes; results must still be exact.
    let net =
        Network::with_default_energy(Deployment::connected_uniform(80, 130.0, 220.0, 50.0, 44));
    let spec = generate_workload(
        &net,
        &WorkloadConfig {
            selection: SourceSelection::Uniform,
            ..WorkloadConfig::paper_default(20, 12, 3)
        },
    );
    let readings = readings_for(&net, 77);
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = plan_for_algorithm(&net, &spec, &routing, Algorithm::Optimal);
    let round = execute_round(&net, &spec, &plan, &readings);
    for (d, f) in spec.functions() {
        assert!((round.results[&d] - f.reference_result(&readings)).abs() < 1e-9);
    }
}

#[cfg(feature = "test-oracle")]
#[test]
fn distributed_automata_agree_with_central_runtime() {
    // The event-driven node machines (driven solely by the §3 tables)
    // must produce exactly the central runtime's results, for every
    // algorithm and routing mode.
    use m2m_core::node_machine::run_distributed_round;
    use m2m_core::tables::NodeTables;
    let net = Network::with_default_energy(Deployment::great_duck_island(18));
    for seed in [2u64, 9] {
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(12, 12, seed));
        let readings = readings_for(&net, seed);
        for mode in [
            RoutingMode::ShortestPathTrees,
            RoutingMode::SharedSpanningTree,
            RoutingMode::SteinerTrees,
        ] {
            let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
            for alg in Algorithm::PLANNED {
                let plan = plan_for_algorithm(&net, &spec, &routing, alg);
                let central = execute_round(&net, &spec, &plan, &readings);
                let tables = NodeTables::build(&spec, &plan);
                let distributed = run_distributed_round(&spec, &tables, &readings)
                    .unwrap_or_else(|e| panic!("{seed}/{mode:?}/{}: {e}", alg.name()));
                for (d, _) in spec.functions() {
                    assert!(
                        (central.results[&d] - distributed.results[&d]).abs() < 1e-9,
                        "{seed}/{mode:?}/{}: dest {d} central {} vs distributed {}",
                        alg.name(),
                        central.results[&d],
                        distributed.results[&d]
                    );
                }
                // Same traffic: one wire message per active plan edge.
                assert_eq!(distributed.messages.len(), plan.solutions().len());
            }
        }
    }
}

#[test]
fn energy_accounting_is_internally_consistent() {
    let net = Network::with_default_energy(Deployment::great_duck_island(15));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(14, 15, 6));
    let readings = readings_for(&net, 9);
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = plan_for_algorithm(&net, &spec, &routing, Algorithm::Optimal);
    let round = execute_round(&net, &spec, &plan, &readings);
    // Payload bytes in the cost equal the plan's payload accounting.
    assert_eq!(round.cost.payload_bytes, plan.total_payload_bytes());
    assert_eq!(round.cost.units, plan.total_units());
    // Energy is at least per-byte cost of all payload, plus headers.
    let e = net.energy();
    let floor = round.cost.payload_bytes as f64 * (e.tx_uj_per_byte + e.rx_uj_per_byte);
    assert!(round.cost.total_uj() > floor);
}
