//! Property: the lane-batched executor is bit-identical to the scalar
//! round.
//!
//! [`m2m_core::exec::CompiledSchedule::run_rounds_batched`] executes `W`
//! independent rounds per pass with the round index as the fastest-moving
//! lane dimension. Lanes are whole rounds — within-round op order and
//! merge association are untouched — so every written result must carry
//! the **exact `f64` bits** of a scalar
//! [`run_round`](m2m_core::exec::CompiledSchedule::run_round) of the same
//! readings: across every aggregate kind (including the multi-component
//! `WeightedVariance`, `Range`, and the log-space `GeometricMean`), all
//! three routing modes, every supported lane width, 1/2/8 worker threads,
//! ragged tails (`rounds % W != 0`), and NaN/±inf readings (comparisons
//! go through `to_bits`, since `NaN != NaN` under `PartialEq`).

use m2m_core::agg::{AggregateFunction, AggregateKind};
use m2m_core::exec::{
    run_epochs_slab, CompiledSchedule, ExecState, DEFAULT_LANE_WIDTH, SUPPORTED_LANE_WIDTHS,
};
use m2m_core::plan::GlobalPlan;
use m2m_core::spec::AggregationSpec;
use m2m_graph::NodeId;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};
use proptest::prelude::*;

const KINDS: [AggregateKind; 8] = [
    AggregateKind::WeightedSum,
    AggregateKind::WeightedAverage,
    AggregateKind::WeightedVariance,
    AggregateKind::Min,
    AggregateKind::Max,
    AggregateKind::Count,
    AggregateKind::Range,
    AggregateKind::GeometricMean,
];

/// Splitmix-style deterministic index stream for spec construction.
struct Pick(u64);

impl Pick {
    fn next(&mut self, m: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % m
    }
}

/// A workload where every destination runs `kind`, with distinct sources
/// and positive weights (GeometricMean requires positive weight sums).
fn build_spec(
    net: &Network,
    kind: AggregateKind,
    dest_count: usize,
    sources_per: usize,
    seed: u64,
) -> AggregationSpec {
    let nodes: Vec<NodeId> = net.nodes().collect();
    let mut pick = Pick(seed);
    let mut spec = AggregationSpec::new();
    for _ in 0..dest_count {
        let dest = nodes[pick.next(nodes.len())];
        let start = pick.next(nodes.len());
        let stride = 1 + pick.next(7);
        let mut pairs: Vec<(NodeId, f64)> = Vec::new();
        for k in 0..sources_per {
            let s = nodes[(start + k * stride) % nodes.len()];
            if pairs.iter().all(|&(p, _)| p != s) {
                pairs.push((s, 0.5 + pick.next(200) as f64 / 100.0));
            }
        }
        spec.add_function(dest, AggregateFunction::new(kind, pairs));
    }
    spec
}

/// Deterministic readings: strictly positive for `GeometricMean` (its
/// pre-aggregation asserts positivity), NaN/±inf sprinkled in for every
/// other kind to pin down lane-vs-scalar float semantics.
fn reading(kind: AggregateKind, slot: usize, round: usize, salt: u64) -> f64 {
    let base = ((slot as f64) * 0.59 + (round as f64) * 1.33 + (salt as f64) * 0.091).sin() * 30.0
        - slot as f64 * 0.04;
    if kind == AggregateKind::GeometricMean {
        return base.abs() + 0.125;
    }
    match (slot * 13 + round * 29 + salt as usize) % 23 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => base,
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batched_rounds_match_scalar_bit_for_bit(
        place_seed in 0u64..10_000,
        spec_seed in 0u64..10_000,
        value_salt in 0u64..10_000,
        mode_pick in 0usize..3,
        dest_count in 3usize..9,
        sources_per in 3usize..8,
        round_count in 1usize..20,
    ) {
        let mode = match mode_pick {
            0 => RoutingMode::ShortestPathTrees,
            1 => RoutingMode::SharedSpanningTree,
            _ => RoutingMode::SteinerTrees,
        };
        let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
        for kind in KINDS {
        let spec = build_spec(&net, kind, dest_count, sources_per, spec_seed);
        let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let compiled = CompiledSchedule::compile(&net, &spec, &plan)
            .expect("plan must be schedulable");

        let slots = compiled.sources().len();
        let dests = compiled.destination_count();
        let rounds: Vec<Vec<f64>> = (0..round_count)
            .map(|r| (0..slots).map(|s| reading(kind, s, r, value_salt)).collect())
            .collect();

        // The oracle: one scalar run_round per reading row.
        let mut scalar = ExecState::for_schedule(&compiled);
        let mut expected: Vec<f64> = Vec::with_capacity(round_count * dests);
        for row in &rounds {
            scalar.readings_mut().copy_from_slice(row);
            compiled.run_round(&mut scalar);
            expected.extend_from_slice(scalar.results());
        }
        let expected_bits = bits(&expected);

        // Every lane width, including ragged tails (round_count % W != 0).
        for width in SUPPORTED_LANE_WIDTHS {
            let mut state = ExecState::batched(&compiled, width);
            let mut out = vec![0.0; round_count * dests];
            let cost = compiled.run_rounds_batched(&rounds, &mut state, &mut out);
            prop_assert_eq!(cost, compiled.round_cost());
            prop_assert_eq!(&bits(&out), &expected_bits, "width = {}", width);

            // The chunked fan-out at every thread count, same width.
            for threads in [1usize, 2, 8] {
                let slab = run_epochs_slab(&compiled, &rounds, width, threads);
                prop_assert_eq!(
                    &bits(slab.results()),
                    &expected_bits,
                    "width = {}, threads = {}",
                    width,
                    threads
                );
                prop_assert_eq!(slab.cost(), compiled.round_cost());
                prop_assert_eq!(slab.rounds(), round_count);
            }
        }

        // Round by round through the slab's per-round view, at the
        // default width.
        for threads in [1usize, 2, 8] {
            let slab = run_epochs_slab(&compiled, &rounds, DEFAULT_LANE_WIDTH, threads);
            prop_assert_eq!(slab.rounds(), round_count);
            for r in 0..round_count {
                prop_assert_eq!(
                    &bits(slab.round(r)),
                    &expected_bits[r * dests..(r + 1) * dests].to_vec(),
                    "round = {}, threads = {}",
                    r,
                    threads
                );
                prop_assert_eq!(slab.cost(), compiled.round_cost());
            }
        }
        }
    }
}
