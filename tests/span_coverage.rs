//! Coverage: with observability on, a service admission and one lossy
//! round leave one Chrome event for every pipeline layer they run
//! through, each named from `m2m_core::telemetry::layer` — the spans
//! sit inside the layers' functions, so the service's front end is
//! traced without a stanza of its own.
//!
//! This file holds exactly one test because the obs flag and the span
//! log are process global: a sibling test flipping the flag concurrently
//! would race.

use std::collections::BTreeMap;

use m2m_core::config::{Config, Runtime};
use m2m_core::service::PlanService;
use m2m_core::telemetry::{layer, timeseries};
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::{Deployment, Network};

#[test]
fn an_admission_and_a_lossy_round_trace_every_layer_they_run() {
    let net = Network::with_default_energy(Deployment::great_duck_island(5));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(6, 5, 13));
    // Routing and interning run before the tenant's session applies the
    // service config, so the flag goes on first.
    timeseries::set_obs_enabled(true);
    timeseries::reset_span_events();
    let config = Config::builder().obs(true).runtime(Runtime::Lossy).build();
    let mut service = PlanService::with_config(net, config);
    let tenant = service.admit(spec).tenant;
    let sources = service
        .tenant(tenant)
        .expect("admitted")
        .compiled()
        .sources()
        .ids()
        .to_vec();
    let readings: BTreeMap<NodeId, f64> = sources.iter().map(|&s| (s, 1.0)).collect();
    let report = service.run(tenant, &readings).expect("tenant runs");
    assert!(report.fault().is_some(), "the round ran lossy");
    let names = timeseries::span_event_names();
    timeseries::set_obs_enabled(false);

    for want in [
        layer::ROUTING_BUILD,
        layer::TOPO_INTERN,
        layer::EDGE_OPT_PROBLEMS,
        layer::MEMO_SOLVE_ALL,
        layer::PLAN_ASSEMBLE,
        layer::SCHEDULE_BUILD,
        layer::EXEC_LOWER,
        layer::FAULTS_LOWER,
        layer::FAULTS_ROUND,
    ] {
        assert!(names.contains(&want), "no {want} span in {names:?}");
    }
    assert!(
        names.iter().all(|n| layer::ALL.contains(n)),
        "every span is a layer span: {names:?}"
    );
}
