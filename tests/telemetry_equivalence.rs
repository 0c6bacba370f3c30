//! Property: telemetry never changes what the system computes.
//!
//! The tracing facade (`m2m_core::telemetry`) instruments the optimizer
//! and the executor, so the hard guarantee it must keep is that flipping
//! the flag is *unobservable* from the outside: the same deployments
//! must produce bit-identical [`m2m_core::plan::GlobalPlan`] solutions
//! (at 1, 2, and 8 optimizer threads), bit-identical per-round results,
//! and identical round costs whether tracing is enabled or disabled.
//! Counters may only ever read state, never steer it.
//!
//! This file holds exactly one test because the trace flag is process
//! global: a sibling test flipping it concurrently would race. The
//! enabled/disabled comparison lives inside each proptest case instead.

use std::collections::BTreeMap;

use m2m_core::exec::{run_epochs_slab, CompiledSchedule, ExecState, DEFAULT_LANE_WIDTH};
use m2m_core::metrics::RoundCost;
use m2m_core::plan::GlobalPlan;
use m2m_core::telemetry;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};
use proptest::prelude::*;

fn reading(source: NodeId, round: usize, salt: u64) -> f64 {
    let s = source.index() as f64;
    let r = round as f64;
    let k = salt as f64;
    (s * 0.53 + r * 1.31 + k * 0.071).sin() * 35.0 + s * 0.015
}

/// Everything observable from one full optimize-compile-execute pass.
fn full_pass(
    net: &Network,
    spec: &m2m_core::spec::AggregationSpec,
    routing: &RoutingTables,
    value_salt: u64,
    traced: bool,
) -> (Vec<GlobalPlan>, Vec<(Vec<u64>, RoundCost)>) {
    telemetry::set_enabled(traced);
    let plans: Vec<GlobalPlan> = [1usize, 2, 8]
        .iter()
        .map(|&threads| GlobalPlan::build_with_threads(net, spec, routing, threads))
        .collect();
    let compiled =
        CompiledSchedule::compile(net, spec, &plans[0]).expect("plan must be schedulable");
    let mut state = ExecState::for_schedule(&compiled);
    let batch: Vec<Vec<f64>> = (0..4)
        .map(|round| {
            let readings: BTreeMap<NodeId, f64> = compiled
                .sources()
                .ids()
                .iter()
                .map(|&s| (s, reading(s, round, value_salt)))
                .collect();
            state.load_readings(&compiled, &readings);
            state.readings_mut().to_vec()
        })
        .collect();
    // Per thread count: every round's result bits and the round cost.
    let outcomes = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let slab = run_epochs_slab(&compiled, &batch, DEFAULT_LANE_WIDTH, threads);
            let bits = slab.results().iter().map(|x| x.to_bits()).collect();
            (bits, slab.cost())
        })
        .collect();
    telemetry::set_enabled(false);
    (plans, outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tracing_is_unobservable_in_plans_results_and_costs(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        value_salt in 0u64..10_000,
        dest_count in 4usize..12,
        sources_per in 3usize..9,
    ) {
        let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
        let spec = generate_workload(
            &net,
            &WorkloadConfig::paper_default(dest_count, sources_per, wl_seed),
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );

        telemetry::reset();
        let (plans_off, outcomes_off) = full_pass(&net, &spec, &routing, value_salt, false);
        let silent = telemetry::snapshot();
        prop_assert_eq!(
            silent.counter(telemetry::names::EDGE_OPT_SOLVES), 0,
            "disabled tracing must record nothing"
        );

        let (plans_on, outcomes_on) = full_pass(&net, &spec, &routing, value_salt, true);
        let recorded = telemetry::snapshot();
        telemetry::reset();
        prop_assert!(
            recorded.counter(telemetry::names::EDGE_OPT_SOLVES) > 0,
            "enabled tracing must record the solves"
        );
        prop_assert!(recorded.counter(telemetry::names::EXEC_ROUNDS) >= 12);

        // The guarantee: bit-identical plans at every thread count,
        // bit-identical results and identical costs at every thread
        // count. The results compare as exact f64 bits.
        for (off, on) in plans_off.iter().zip(&plans_on) {
            prop_assert_eq!(off.solutions(), on.solutions());
        }
        prop_assert_eq!(outcomes_off, outcomes_on);
    }
}
