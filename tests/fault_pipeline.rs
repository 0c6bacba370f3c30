//! The fault-tolerant pipeline end to end, through the [`Session`] facade:
//! injected link outages degrade exactly the demanded sources behind them,
//! bounded retry budgets drop what unlimited budgets deliver, the
//! degradation tracker accumulates per-destination staleness, ETX drift
//! past the configured hysteresis fires the churn loop (reroute →
//! incremental re-plan → recompile), and every retry/hysteresis knob flows
//! from the environment into [`Config`].

use std::collections::BTreeMap;

use m2m_core::config::{
    self, Config, Runtime, BACKOFF_ENV, HYSTERESIS_ENV, MAX_SLOTS_ENV, RETRIES_ENV,
};
use m2m_core::prelude::*;

/// Line network 0-1-2-3-4 with one aggregate at the far end: node 4 sums
/// sources 0 and 3, so killing link 0-1 loses exactly source 0.
fn line_session(config: Config, delivery: DeliveryModel) -> Session {
    let net = Network::with_default_energy(Deployment::grid(5, 1, 10.0, 12.0));
    let mut spec = AggregationSpec::new();
    spec.add_function(
        NodeId(4),
        AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(3), 2.0)]),
    );
    Session::builder(net, spec)
        .routing_mode(RoutingMode::ShortestPathTrees)
        .config(config)
        .runtime(Runtime::Lossy)
        .delivery(delivery)
        .build()
}

fn readings_for(session: &Session) -> BTreeMap<NodeId, f64> {
    session
        .network()
        .nodes()
        .map(|v| (v, f64::from(v.0) * 1.5 + 1.0))
        .collect()
}

#[test]
fn an_injected_outage_degrades_exactly_the_sources_behind_it() {
    let trace = FailureTrace::new().down(NodeId(0), NodeId(1), 0, u64::MAX);
    let config = Config::builder().retries(3).max_slots(1_000).build();
    let mut session = line_session(config, DeliveryModel::trace(trace));
    let readings = readings_for(&session);

    let report = session.run(&readings);
    assert!(!report.delivered());
    let out = report.fault().expect("lossy runtime");
    assert!(!out.delivered);
    assert!(out.dropped_messages >= 1);
    assert_eq!(out.degraded_destinations(), 1);

    let cov = &out.coverage[0];
    assert_eq!(cov.destination, NodeId(4));
    assert_eq!(cov.demanded, 2);
    assert_eq!(cov.covered, 1);
    assert_eq!(cov.missing, vec![NodeId(0)]);
    assert!((cov.fraction() - 0.5).abs() < 1e-12);

    // The survivor still aggregates: f_4 = 2·v_3 from what arrived.
    let partial = out.results[0].expect("source 3 still feeds destination 4");
    assert!((partial - 2.0 * readings[&NodeId(3)]).abs() < 1e-9);
}

#[test]
fn bounded_budgets_drop_what_unlimited_budgets_deliver() {
    let lossy = DeliveryModel::uniform(0.45, 99);
    let stingy = Config::builder().retries(1).max_slots(10_000).build();
    let patient = Config::builder().retries(0).max_slots(10_000).build();

    let mut dropped_total = 0usize;
    let mut session = line_session(stingy, lossy.clone());
    let readings = readings_for(&session);
    for _ in 0..20 {
        dropped_total += session
            .run(&readings)
            .fault()
            .expect("lossy runtime")
            .dropped_messages;
    }
    assert!(
        dropped_total > 0,
        "a single attempt at p=0.45 must eventually drop a message"
    );

    let mut session = line_session(patient, lossy);
    let readings = readings_for(&session);
    for _ in 0..20 {
        let report = session.run(&readings);
        let out = report.fault().expect("lossy runtime");
        assert!(out.delivered, "unlimited retries must deliver every round");
        assert_eq!(out.dropped_messages, 0);
        assert_eq!(out.degraded_destinations(), 0);
    }
}

#[test]
fn the_degradation_tracker_accumulates_staleness_per_destination() {
    let trace = FailureTrace::new().down(NodeId(0), NodeId(1), 0, u64::MAX);
    let config = Config::builder().retries(2).max_slots(1_000).build();
    let mut session = line_session(config, DeliveryModel::trace(trace));
    let readings = readings_for(&session);

    const ROUNDS: u64 = 5;
    for _ in 0..ROUNDS {
        session.run(&readings);
    }
    let tracker = session.degradation();
    assert_eq!(tracker.rounds(), ROUNDS);
    assert_eq!(tracker.staleness(NodeId(4)), ROUNDS);
    assert_eq!(tracker.max_staleness(), ROUNDS);

    // A reliable session never goes stale.
    let config = Config::builder().retries(2).build();
    let mut session = line_session(config, DeliveryModel::reliable());
    let readings = readings_for(&session);
    for _ in 0..ROUNDS {
        session.run(&readings);
    }
    assert_eq!(session.degradation().max_staleness(), 0);
    assert_eq!(session.degradation().rounds(), ROUNDS);
}

#[test]
fn quality_drift_past_hysteresis_fires_the_churn_loop() {
    let net = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0));
    let mut spec = AggregationSpec::new();
    spec.add_function(
        NodeId(15),
        AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(2), 1.0), (NodeId(8), 1.0)]),
    );
    spec.add_function(
        NodeId(3),
        AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(12), 1.0)]),
    );
    let baseline = LinkQuality::perfect(&net);
    let config = Config::builder().hysteresis(0.25).build();
    let mut session = Session::builder(net, spec)
        .quality(baseline.clone())
        .config(config)
        .build();
    let recompiles_before = session.recompiles();

    // No drift: the churn controller absorbs the observation.
    assert!(session.observe_quality(&baseline).is_none());
    let churn = session.churn().expect("quality is tracked");
    assert_eq!(churn.reroutes(), 0);
    assert_eq!(churn.suppressed(), 1);

    // Degrade a link the perfect-quality routes rely on far past the
    // hysteresis band (ETX 1 → 2.5, drift 1.5 > 0.25): reroute fires.
    let mut drifted = baseline.clone();
    drifted.set_loss(NodeId(0), NodeId(1), 0.6);
    let stats = session
        .observe_quality(&drifted)
        .expect("drift past hysteresis must reroute");
    assert!(stats.edges_total() > 0);
    assert!(session.recompiles() > recompiles_before);
    let churn = session.churn().expect("quality is tracked");
    assert_eq!(churn.reroutes(), 1);

    // The rebased baseline absorbs the same observation.
    assert!(session.observe_quality(&drifted).is_none());

    // And the rerouted session still computes exact aggregates.
    let readings: BTreeMap<NodeId, f64> = session
        .network()
        .nodes()
        .map(|v| (v, f64::from(v.0) + 0.25))
        .collect();
    let results = session.run(&readings).result_map();
    for (d, v) in &results {
        let expected = session
            .spec()
            .function(*d)
            .unwrap()
            .reference_result(&readings);
        assert!((v - expected).abs() < 1e-9);
    }
}

#[test]
fn retry_and_hysteresis_knobs_flow_from_the_environment() {
    // This is the only test in the workspace touching these variables,
    // and it reads them back synchronously before clearing them.
    std::env::set_var(RETRIES_ENV, "2");
    std::env::set_var(BACKOFF_ENV, "3");
    std::env::set_var(MAX_SLOTS_ENV, "1234");
    std::env::set_var(HYSTERESIS_ENV, "0.5");
    let cfg = Config::from_env();
    std::env::remove_var(RETRIES_ENV);
    std::env::remove_var(BACKOFF_ENV);
    std::env::remove_var(MAX_SLOTS_ENV);
    std::env::remove_var(HYSTERESIS_ENV);

    assert_eq!(cfg.retries(), 2);
    assert_eq!(cfg.backoff_slots(), 3);
    assert_eq!(cfg.max_slots(), 1234);
    assert!((cfg.hysteresis() - 0.5).abs() < 1e-12);
    assert_eq!(cfg.retry_policy(), RetryPolicy::bounded(2, 3, 1234));

    // Unset variables fall back to the documented defaults.
    let cfg = Config::from_env();
    assert_eq!(cfg.retries(), config::DEFAULT_RETRIES);
    assert_eq!(cfg.max_slots(), config::DEFAULT_MAX_SLOTS);
    assert!((cfg.hysteresis() - config::DEFAULT_HYSTERESIS).abs() < 1e-12);
}
