//! Failure handling end to end (§3): TDMA slots, retransmissions under
//! transient link failures, critical-link analysis, and the milestone
//! trade-off.
//!
//! ```text
//! cargo run --example failure_resilience
//! ```

use m2m_core::exec::CompiledSchedule;
use m2m_core::faults::{FaultOutcome, FaultyExec, RetryPolicy};
use m2m_core::milestones::{build_milestone_routing, expected_round_cost, MilestoneConfig};
use m2m_core::plan::GlobalPlan;
use m2m_core::prelude::*;
use m2m_core::resilience::{critical_links, messages_on_critical_links};
use m2m_core::slots::assign_slots;
use m2m_core::workload::generate_workload;
use m2m_netsim::failure::DeliveryModel;

fn main() {
    let network = Network::with_default_energy(Deployment::great_duck_island(77));
    let spec = generate_workload(&network, &WorkloadConfig::paper_default(14, 15, 2));
    let routing = RoutingTables::build(
        &network,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&network, &spec, &routing);
    let compiled = CompiledSchedule::compile(&network, &spec, &plan).expect("schedulable");
    let slots = assign_slots(&network, compiled.schedule());

    println!(
        "plan: {} | slots: {} (radio-on {:.0}% of round)",
        plan.summary(),
        slots.slot_count,
        slots.listen_fraction(compiled.schedule(), &network) * 100.0
    );

    // Critical links: bridges of the radio graph have no detour.
    let bridges = critical_links(&network);
    let risky = messages_on_critical_links(&network, compiled.schedule());
    println!(
        "critical links: {} of {} radio links; {} of {} messages cross one",
        bridges.len(),
        network.graph().edge_count(),
        risky.len(),
        compiled.schedule().messages.len()
    );

    // Retransmissions under increasing failure rates: 20 rounds each,
    // with unlimited retries up to a 10k-slot budget. Delivery does not
    // depend on the readings.
    println!("\nfailure_p  slots  retransmissions  energy(mJ)  delivery");
    let engine = FaultyExec::new(&network, &compiled);
    let batch = vec![vec![0.0; compiled.sources().len()]; 20];
    for p in [0.0, 0.1, 0.2, 0.4] {
        let model = DeliveryModel::uniform(p, 11);
        let outcomes = engine.run_rounds(&batch, &model, &RetryPolicy::unlimited(10_000), 0, 1);
        let mean = |f: fn(&FaultOutcome) -> f64| {
            outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
        };
        println!(
            "{p:>9.1} {:>6.1} {:>16.1} {:>11.2} {:>9.2}",
            mean(|o| f64::from(o.slots_used)),
            mean(|o| o.retransmissions as f64),
            mean(|o| o.cost.total_uj()) / 1000.0,
            mean(|o| f64::from(u8::from(o.delivered))),
        );
    }

    // Milestones: pinned hops vs flexible segments as links get flaky.
    println!("\nmilestone spacing vs expected round energy (mJ):");
    println!("failure_p  pinned(1)  spacing 3");
    let pinned_cfg = MilestoneConfig {
        spacing: 1,
        detour_overhead: 0.5,
    };
    let flex_cfg = MilestoneConfig {
        spacing: 3,
        detour_overhead: 0.5,
    };
    let pinned = build_milestone_routing(&network, &routing, &pinned_cfg);
    let flexible = build_milestone_routing(&network, &routing, &flex_cfg);
    let pinned_plan = GlobalPlan::build_unchecked(&spec, &pinned.routing);
    let flex_plan = GlobalPlan::build_unchecked(&spec, &flexible.routing);
    for p in [0.0, 0.2, 0.4, 0.6] {
        let a = expected_round_cost(&pinned_plan, &pinned, network.energy(), p, &pinned_cfg);
        let b = expected_round_cost(&flex_plan, &flexible, network.energy(), p, &flex_cfg);
        println!("{p:>9.1} {:>10.1} {:>10.1}", a.total_mj(), b.total_mj());
    }
    println!("\npinned routing wins on reliable links; flexibility wins as p grows.");
}
