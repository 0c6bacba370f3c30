//! Property: the compiled executor is bit-identical to the reference.
//!
//! [`m2m_core::exec::CompiledSchedule`] lowers a schedule into flat
//! dense-index arrays once and then runs rounds allocation-free; the
//! reference path ([`m2m_core::runtime::execute_round`]) rebuilds the
//! schedule and evaluates over map-keyed state every round. The lowering
//! preserves the schedule's topological unit order and each unit's
//! contribution order, so the two must agree *exactly* — same `f64` bits
//! in every destination result, same round cost, same per-edge message
//! counts — over any deployment, workload, and routing mode, and the
//! batched epoch driver must reproduce the serial outcome at any thread
//! count.
//!
//! The reference executor only exists behind the `test-oracle` feature
//! (run with `cargo test --features test-oracle --test exec_equivalence`).

use std::collections::BTreeMap;

use m2m_core::exec::{run_epochs_slab, CompiledSchedule, ExecState, DEFAULT_LANE_WIDTH};
use m2m_core::plan::GlobalPlan;
use m2m_core::runtime::execute_round;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};
use proptest::prelude::*;

fn reading(source: NodeId, round: usize, salt: u64) -> f64 {
    let s = source.index() as f64;
    let r = round as f64;
    let k = salt as f64;
    (s * 0.61 + r * 1.27 + k * 0.083).sin() * 40.0 - s * 0.02
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn compiled_rounds_match_the_reference_bit_for_bit(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        value_salt in 0u64..10_000,
        dest_count in 4usize..14,
        sources_per in 3usize..10,
        mode_pick in 0usize..3,
    ) {
        let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
        let spec = generate_workload(
            &net,
            &WorkloadConfig::paper_default(dest_count, sources_per, wl_seed),
        );
        let mode = match mode_pick {
            0 => RoutingMode::ShortestPathTrees,
            1 => RoutingMode::SharedSpanningTree,
            _ => RoutingMode::SteinerTrees,
        };
        let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
        let plan = GlobalPlan::build(&net, &spec, &routing);

        let compiled = CompiledSchedule::compile(&net, &spec, &plan)
            .expect("plan must be schedulable");
        let mut state = ExecState::for_schedule(&compiled);

        const ROUNDS: usize = 5;
        let mut batch: Vec<Vec<f64>> = Vec::with_capacity(ROUNDS);
        let mut expected: Vec<Vec<f64>> = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            let readings: BTreeMap<NodeId, f64> = compiled
                .sources()
                .ids()
                .iter()
                .map(|&s| (s, reading(s, round, value_salt)))
                .collect();
            let reference = execute_round(&net, &spec, &plan, &readings);
            let cost = compiled.run_round_on(&readings, &mut state);

            // Same results (exact f64 bits), same cost, same traffic.
            prop_assert_eq!(state.result_map(&compiled), reference.results);
            prop_assert_eq!(cost, reference.cost);
            prop_assert_eq!(
                compiled.schedule().messages_per_edge(),
                reference.schedule.messages_per_edge()
            );

            batch.push(readings.values().copied().collect());
            expected.push(state.results().to_vec());
        }

        // The epoch driver must reproduce the serial outcome at any
        // worker count (deterministic in-order collection).
        let serial = run_epochs_slab(&compiled, &batch, DEFAULT_LANE_WIDTH, 1);
        prop_assert_eq!(serial.rounds(), ROUNDS);
        for (round, want) in expected.iter().enumerate() {
            prop_assert_eq!(serial.round(round), want.as_slice(), "round = {}", round);
            prop_assert_eq!(serial.cost(), compiled.round_cost());
        }
        for threads in [2usize, 8] {
            let parallel = run_epochs_slab(&compiled, &batch, DEFAULT_LANE_WIDTH, threads);
            prop_assert_eq!(&parallel, &serial, "threads = {}", threads);
        }
    }

    /// The plan-build thread count never leaks into execution: plans
    /// assembled at 2 or 8 workers have the same solution slabs and repair
    /// count as the serial build, and the schedules compiled from them
    /// produce the same `f64` bits and round cost — across all three
    /// routing modes.
    #[test]
    fn plan_thread_count_never_changes_executed_bits(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        value_salt in 0u64..10_000,
        mode_pick in 0usize..3,
    ) {
        let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(8, 6, wl_seed));
        let mode = match mode_pick {
            0 => RoutingMode::ShortestPathTrees,
            1 => RoutingMode::SharedSpanningTree,
            _ => RoutingMode::SteinerTrees,
        };
        let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);

        let reference = GlobalPlan::build_with_threads(&net, &spec, &routing, 1);
        let compiled_ref = CompiledSchedule::compile(&net, &spec, &reference)
            .expect("plan must be schedulable");
        let readings: BTreeMap<NodeId, f64> = compiled_ref
            .sources()
            .ids()
            .iter()
            .map(|&s| (s, reading(s, 0, value_salt)))
            .collect();
        let mut state = ExecState::for_schedule(&compiled_ref);
        let ref_cost = compiled_ref.run_round_on(&readings, &mut state);
        let ref_results = state.result_map(&compiled_ref);

        for threads in [2usize, 8] {
            let plan = GlobalPlan::build_with_threads(&net, &spec, &routing, threads);
            prop_assert_eq!(plan.solutions(), reference.solutions(), "threads = {}", threads);
            prop_assert_eq!(plan.repair_count(), reference.repair_count());
            let compiled = CompiledSchedule::compile(&net, &spec, &plan)
                .expect("plan must be schedulable");
            let mut st = ExecState::for_schedule(&compiled);
            let cost = compiled.run_round_on(&readings, &mut st);
            prop_assert_eq!(st.result_map(&compiled), ref_results.clone());
            prop_assert_eq!(cost, ref_cost);
        }
    }
}
