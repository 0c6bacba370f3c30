//! Property: observability never changes what the lossy runtime computes.
//!
//! The flight recorder and the per-node accumulator planes
//! (`m2m_core::telemetry::timeseries`) instrument the fault engine and
//! the compiled executor, so the hard guarantee they must keep is that
//! flipping `M2M_OBS` is *unobservable* from the outside: the same
//! deployment, workload, loss model, and salt stream must produce
//! bit-identical [`m2m_core::faults::FaultOutcome`]s (results, coverage,
//! costs, retry counts, link events) and bit-identical reliable-path
//! epochs whether observability is enabled or disabled. Planes and
//! recorder may only ever read outcomes, never steer them.
//!
//! This file holds exactly one test because the obs flag is process
//! global: a sibling test flipping it concurrently would race. The
//! enabled/disabled comparison lives inside each proptest case instead.

use m2m_core::config::{Config, Runtime};
use m2m_core::exec::{run_epochs_slab, DEFAULT_LANE_WIDTH};
use m2m_core::faults::FaultOutcome;
use m2m_core::metrics::RoundCost;
use m2m_core::session::Session;
use m2m_core::telemetry::timeseries;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::failure::DeliveryModel;
use m2m_netsim::{Deployment, Network, RoutingMode};
use proptest::prelude::*;

fn reading(source: NodeId, round: usize, salt: u64) -> f64 {
    let s = source.index() as f64;
    let r = round as f64;
    let k = salt as f64;
    (s * 0.47 + r * 1.13 + k * 0.083).sin() * 30.0 + s * 0.02
}

/// Everything observable from one lossy session run: a batched stretch,
/// then single-round stretches (both recorder feeds), plus the
/// reliable-path epoch results.
fn full_pass(
    net: &Network,
    spec: &m2m_core::spec::AggregationSpec,
    loss_p: f64,
    value_salt: u64,
    obs: bool,
) -> (Vec<FaultOutcome>, (Vec<u64>, RoundCost)) {
    // Session::build applies the config, which installs the obs flag.
    let config = Config::builder().obs(obs).obs_cap(64).build();
    let mut session = Session::builder(net.clone(), spec.clone())
        .routing_mode(RoutingMode::ShortestPathTrees)
        .config(config)
        .runtime(Runtime::Lossy)
        .delivery(DeliveryModel::uniform(loss_p, 17))
        .base_salt(value_salt)
        .build();
    assert_eq!(timeseries::obs_enabled(), obs);
    assert_eq!(session.recorder().is_some(), obs);

    let batch: Vec<Vec<f64>> = (0..6)
        .map(|round| {
            session
                .compiled()
                .sources()
                .ids()
                .iter()
                .map(|&s| reading(s, round, value_salt))
                .collect()
        })
        .collect();

    let mut outcomes: Vec<FaultOutcome> = session
        .run_rounds(&batch[..4])
        .into_iter()
        .map(|r| r.fault().expect("lossy runtime").clone())
        .collect();
    for row in &batch[4..] {
        let readings = session
            .compiled()
            .sources()
            .ids()
            .iter()
            .copied()
            .zip(row.iter().copied())
            .collect();
        outcomes.push(
            session
                .run(&readings)
                .fault()
                .expect("lossy runtime")
                .clone(),
        );
    }

    // The reliable-path epochs: every round's result bits and the cost.
    let slab = run_epochs_slab(
        session.compiled(),
        &batch,
        DEFAULT_LANE_WIDTH,
        session.config().resolved_threads(),
    );
    let epochs = (
        slab.results().iter().map(|x| x.to_bits()).collect(),
        slab.cost(),
    );

    if obs {
        let rec = session.recorder().expect("obs session has a recorder");
        let totals = rec.totals();
        assert_eq!(totals.rounds, outcomes.len() as u64);
        assert_eq!(
            totals.retransmissions,
            outcomes
                .iter()
                .map(|o| o.retransmissions as u64)
                .sum::<u64>()
        );
        assert_eq!(
            totals.dropped,
            outcomes
                .iter()
                .map(|o| o.dropped_messages as u64)
                .sum::<u64>()
        );
        let dump = session.obs_dump().expect("dump renders");
        assert!(
            m2m_core::telemetry::json::JsonValue::parse(&dump.render()).is_ok(),
            "dump must round-trip as JSON"
        );
    }
    timeseries::set_obs_enabled(false);
    (outcomes, epochs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn observability_is_unobservable_in_lossy_outcomes(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        value_salt in 0u64..10_000,
        loss_pct in 0u32..40,
        dest_count in 4usize..10,
        sources_per in 3usize..8,
    ) {
        let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
        let spec = generate_workload(
            &net,
            &WorkloadConfig::paper_default(dest_count, sources_per, wl_seed),
        );
        let loss_p = f64::from(loss_pct) / 100.0;

        timeseries::reset_planes();
        let (out_off, epochs_off) = full_pass(&net, &spec, loss_p, value_salt, false);
        let silent = timeseries::planes_snapshot();
        prop_assert!(
            silent.is_zero(),
            "disabled observability must record nothing"
        );

        let (out_on, epochs_on) = full_pass(&net, &spec, loss_p, value_salt, true);
        let recorded = timeseries::planes_snapshot();
        timeseries::reset_planes();
        // 6 lossy rounds plus 6 reliable epochs hit the planes.
        prop_assert_eq!(recorded.rounds(), 12, "enabled planes count every round");
        prop_assert!(
            recorded.msgs_tx().iter().sum::<u64>() > 0,
            "enabled planes must see traffic"
        );

        // The guarantee: flipping the flag is invisible in outcomes.
        // FaultOutcome equality covers results, coverage, exact f64
        // cost bits, retries, drops, and per-link failure events.
        prop_assert_eq!(out_off, out_on);
        prop_assert_eq!(epochs_off, epochs_on);
    }
}
