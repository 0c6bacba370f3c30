//! The event-driven simulator lowers no TDMA slots: its clock never
//! reads one. With tracing on, lowering a [`m2m_core::sim::SimExec`]
//! leaves the `slots.set_bytes` counter (every slot assignment adds the
//! bytes of its slot sets) at zero, while lowering a
//! [`m2m_core::faults::FaultyExec`] over the same schedule moves it.
//!
//! This file holds exactly one test because the trace flag and the
//! counters are process global: a sibling test assigning slots
//! concurrently would race.

use m2m_core::exec::CompiledSchedule;
use m2m_core::faults::FaultyExec;
use m2m_core::plan::GlobalPlan;
use m2m_core::sim::SimExec;
use m2m_core::telemetry::{self, names};
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

#[test]
fn lowering_the_simulator_assigns_no_slots() {
    let net = Network::with_default_energy(Deployment::great_duck_island(3));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(8, 6, 5));
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&net, &spec, &routing);
    let compiled = CompiledSchedule::compile(&net, &spec, &plan).expect("schedulable");

    telemetry::set_enabled(true);
    telemetry::reset();
    let sim = SimExec::new(&net, &compiled);
    let after_sim = telemetry::snapshot();
    let faults = FaultyExec::new(&net, &compiled);
    let after_faults = telemetry::snapshot();
    telemetry::set_enabled(false);

    assert!(sim.message_count() > 0);
    assert_eq!(after_sim.counter(names::SIM_BUILDS), 1);
    assert_eq!(
        after_sim.counter(names::SLOTS_SET_BYTES),
        0,
        "the simulator's lowering assigned TDMA slots"
    );
    assert!(faults.slot_schedule().slot_count > 0);
    assert!(
        after_faults.counter(names::SLOTS_SET_BYTES) > 0,
        "a slot assignment under tracing moves the counter"
    );
}
