//! Regression: the lossy executor's per-node planes balance exactly
//! against its outcomes, over batches that mix rounds that delivered
//! every message with rounds that dropped some.
//!
//! [`FaultyExec`] tallies each round per message in its scratch and
//! scatters the tallies onto the node planes once, when the scratch
//! flushes; a round that delivered everything skips the dense delivery
//! pass. Both kinds of round, and both flush paths (the first flush
//! adopts the registry's universe, later ones write in place), must
//! land in the same books as the outcomes.
//!
//! One test per file: the obs flag is process global, and a sibling
//! test flipping it concurrently would race.

use m2m_core::exec::CompiledSchedule;
use m2m_core::faults::{FaultOutcome, FaultyExec, RetryPolicy};
use m2m_core::plan::GlobalPlan;
use m2m_core::telemetry::timeseries;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_netsim::failure::DeliveryModel;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

#[test]
fn lossy_plane_totals_match_the_outcomes() {
    let net = Network::with_default_energy(Deployment::great_duck_island(5));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(10, 8, 5));
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&net, &spec, &routing);
    let compiled = CompiledSchedule::compile(&net, &spec, &plan).expect("schedulable plan");
    let faulty = FaultyExec::new(&net, &compiled);
    let sources = compiled.sources().len();
    let batch: Vec<Vec<f64>> = (0..48)
        .map(|r| (0..sources).map(|s| (r * 7 + s) as f64 * 0.5).collect())
        .collect();

    timeseries::set_obs_enabled(true);
    timeseries::reset_planes();
    let outs = faulty.run_rounds(
        &batch,
        &DeliveryModel::uniform(0.12, 41),
        &RetryPolicy::bounded(3, 1, 10_000),
        0x600c,
        2,
    );
    let planes = timeseries::planes_snapshot();
    timeseries::set_obs_enabled(false);
    timeseries::reset_planes();

    assert!(
        outs.iter().any(|o| o.delivered) && outs.iter().any(|o| !o.delivered),
        "the batch must mix fully delivered rounds with rounds that dropped"
    );
    let total = |f: fn(&FaultOutcome) -> u64| outs.iter().map(f).sum::<u64>();
    let retransmissions = total(|o| o.retransmissions as u64);
    let delivered = total(|o| o.cost.messages as u64);
    assert_eq!(planes.rounds(), outs.len() as u64);
    assert_eq!(planes.retries().iter().sum::<u64>(), retransmissions);
    assert_eq!(
        planes.drops().iter().sum::<u64>(),
        total(|o| o.dropped_messages as u64)
    );
    assert_eq!(planes.msgs_rx().iter().sum::<u64>(), delivered);
    assert_eq!(
        planes.msgs_tx().iter().sum::<u64>(),
        delivered + retransmissions,
        "every attempt either delivered or failed"
    );
    // The default Mica2 costs (33.0 / 12.5 µJ per byte) make every
    // per-message energy a multiple of 0.5 µJ, so the per-node and the
    // per-round sums are exact whatever order they add in.
    let tx: f64 = outs.iter().map(|o| o.cost.tx_uj).sum();
    let rx: f64 = outs.iter().map(|o| o.cost.rx_uj).sum();
    assert_eq!(planes.energy_tx_uj().iter().sum::<f64>(), tx);
    assert_eq!(planes.energy_rx_uj().iter().sum::<f64>(), rx);
}
