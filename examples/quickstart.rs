//! Quickstart: build a network, declare two aggregation functions, let the
//! optimizer balance multicast against in-network aggregation, and execute
//! one round through the [`Session`] facade.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::collections::BTreeMap;

use m2m_core::prelude::*;

fn main() {
    // A 5×5 grid of sensors, 10 m apart, with a 12 m radio range.
    let network = Network::with_default_energy(Deployment::grid(5, 5, 10.0, 12.0));
    println!(
        "network: {} nodes, {} radio links",
        network.node_count(),
        network.graph().edge_count()
    );

    // Two control points, each aggregating a weighted average of readings
    // at other nodes. Node 12 (the grid center) watches four corners-ish
    // nodes; node 4 watches an overlapping set — the many-to-many part.
    let mut spec = AggregationSpec::new();
    spec.add_function(
        NodeId(12),
        AggregateFunction::weighted_average([
            (NodeId(0), 1.0),
            (NodeId(4), 0.5),
            (NodeId(20), 1.5),
            (NodeId(24), 1.0),
        ]),
    );
    spec.add_function(
        NodeId(4),
        AggregateFunction::weighted_average([
            (NodeId(0), 2.0),
            (NodeId(20), 1.0),
            (NodeId(22), 1.0),
        ]),
    );

    // One Session wires routing, the per-edge optimal plan, and the
    // compiled executor together; `Config` would add thread/trace/retry
    // knobs here if the defaults ever need overriding.
    let mut session = Session::builder(network, spec.clone())
        .routing_mode(RoutingMode::ShortestPathTrees)
        .build();
    let plan = session.maintainer().plan();
    println!(
        "plan: {} edges, {} message units, {} payload bytes/round, {} repairs",
        plan.solutions().len(),
        plan.total_units(),
        plan.total_payload_bytes(),
        plan.repair_count()
    );

    // Execute one round on synthetic readings and verify the results
    // against direct computation.
    let readings: BTreeMap<NodeId, f64> = session
        .network()
        .nodes()
        .map(|v| (v, 20.0 + f64::from(v.0 % 7)))
        .collect();
    let report = session.run(&readings);
    for (dest, value) in &report.result_map() {
        let expected = spec.function(*dest).unwrap().reference_result(&readings);
        println!("destination {dest}: aggregate = {value:.4} (expected {expected:.4})");
        assert!((value - expected).abs() < 1e-9);
    }
    println!(
        "round energy: {:.2} mJ across {} messages",
        report.cost().total_mj(),
        report.cost().messages
    );

    // Compare with the single-technique baselines.
    let routing = RoutingTables::build(
        session.network(),
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    for alg in [Algorithm::Multicast, Algorithm::Aggregation] {
        let baseline = plan_for_algorithm(session.network(), &spec, &routing, alg);
        let compiled = CompiledSchedule::compile(session.network(), &spec, &baseline)
            .expect("baseline plan is schedulable");
        println!(
            "{:<12} {:.2} mJ",
            alg.name(),
            compiled.round_cost().total_mj()
        );
    }
}
