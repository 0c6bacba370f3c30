//! Property: three runtimes, one answer — to the bit.
//!
//! The compiled executor ([`m2m_core::exec`]), the discrete-event
//! simulator ([`m2m_core::sim`]), and the table-programmed node automata
//! ([`m2m_core::node_machine`]) execute the same plan through radically
//! different machinery: flat op arrays, an event wheel with bounded
//! per-link queues, and per-node automata exchanging wire messages. At
//! p = 0 all three must produce **bit-identical** per-destination
//! results — same `f64` bits — across every routing mode, any retry
//! policy, and any queue bound / link latency, because all three fold
//! contributions in the same canonical order. Under real loss, the
//! simulator must be a pure function of `(readings, model, policy,
//! salt)`: replays are exact, and the queue bound never changes results
//! (it is pressure accounting, not a drop policy). And when the loss
//! itself does not depend on the clock (permanently dead links), the
//! TDMA delivery pass ([`m2m_core::faults`]) and the event wheel decide the
//! same delivery vector, so they must settle the same answer.

use std::collections::BTreeMap;

use m2m_core::exec::{CompiledSchedule, ExecState};
use m2m_core::faults::{FaultyExec, RetryPolicy};
use m2m_core::plan::GlobalPlan;
use m2m_core::sim::{SimExec, SimParams};
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::failure::FailureTrace;
use m2m_netsim::{DeliveryModel, Deployment, Network, RoutingMode, RoutingTables};
use proptest::prelude::*;

fn reading(source: NodeId, round: usize, salt: u64) -> f64 {
    let s = source.index() as f64;
    let r = round as f64;
    let k = salt as f64;
    (s * 0.91 + r * 1.37 + k * 0.043).sin() * 28.0 + s * 0.01
}

struct Built {
    // Read only by the node-automata check, which needs `test-oracle`.
    #[cfg_attr(not(feature = "test-oracle"), allow(dead_code))]
    spec: m2m_core::spec::AggregationSpec,
    #[cfg_attr(not(feature = "test-oracle"), allow(dead_code))]
    plan: GlobalPlan,
    compiled: CompiledSchedule,
    net: Network,
}

fn build(
    place_seed: u64,
    wl_seed: u64,
    dests: usize,
    sources_per: usize,
    mode: RoutingMode,
) -> Built {
    let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
    let spec = generate_workload(
        &net,
        &WorkloadConfig::paper_default(dests, sources_per, wl_seed),
    );
    let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
    let plan = GlobalPlan::build(&net, &spec, &routing);
    let compiled = CompiledSchedule::compile(&net, &spec, &plan).expect("schedulable");
    Built {
        spec,
        plan,
        compiled,
        net,
    }
}

fn mode_of(pick: usize) -> RoutingMode {
    match pick {
        0 => RoutingMode::ShortestPathTrees,
        1 => RoutingMode::SharedSpanningTree,
        _ => RoutingMode::SteinerTrees,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Compiled executor, event simulator, and node automata agree to
    /// the bit at p = 0, for any retry policy and any sim parameters.
    #[test]
    fn three_runtimes_are_bit_identical_when_lossless(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        value_salt in 0u64..10_000,
        round_salt in 0u64..1_000_000,
        dest_count in 4usize..10,
        sources_per in 3usize..8,
        mode_pick in 0usize..3,
        knobs in 0u64..1_000_000,
    ) {
        // Pack the sim knobs into one seed: the compat proptest only
        // implements `Strategy` for tuples of up to eight ranges.
        let queue_cap = 1 + (knobs % 63) as u32;
        let latency = 1 + ((knobs >> 6) % 4) as u32;
        let policy_pick = ((knobs >> 9) % 3) as usize;
        let b = build(place_seed, wl_seed, dest_count, sources_per, mode_of(mode_pick));

        let readings_map: BTreeMap<NodeId, f64> = b
            .compiled
            .sources()
            .ids()
            .iter()
            .map(|&s| (s, reading(s, 0, value_salt)))
            .collect();

        // Runtime 1: the compiled executor.
        let mut state = ExecState::for_schedule(&b.compiled);
        let plain_cost = b.compiled.run_round_on(&readings_map, &mut state);
        let dests: Vec<NodeId> = b.compiled.destinations().collect();
        let exact: Vec<f64> = state.results().to_vec();

        // Runtime 2: the discrete-event simulator, lossless.
        let policy = match policy_pick {
            0 => RetryPolicy::unlimited(100_000),
            1 => RetryPolicy::bounded(0, 0, 100_000),
            _ => RetryPolicy::bounded(6, 3, 100_000),
        };
        let sim = SimExec::with_params(
            &b.net,
            &b.compiled,
            SimParams { queue_cap, latency },
        );
        let mut st = sim.state();
        let out = sim.run_on(&readings_map, &DeliveryModel::reliable(), &policy, round_salt, &mut st);
        prop_assert!(out.outcome.delivered);
        prop_assert_eq!(out.outcome.retransmissions, 0);
        prop_assert_eq!(out.queue_overflows == 0, queue_cap as usize >= out.peak_queue_depth as usize);
        for (i, d) in dests.iter().enumerate() {
            let got = out.outcome.results[i].expect("lossless round delivers");
            prop_assert_eq!(got.to_bits(), exact[i].to_bits(), "sim vs exec at {}", d);
        }
        prop_assert_eq!(out.outcome.cost, plain_cost, "sim cost must be bit-identical");

        // Runtime 3: the node automata, driven purely by their tables
        // (a test oracle behind the `test-oracle` feature).
        #[cfg(feature = "test-oracle")]
        {
            use m2m_core::node_machine::run_distributed_round;
            use m2m_core::tables::NodeTables;
            let tables = NodeTables::build(&b.spec, &b.plan);
            let round = run_distributed_round(&b.spec, &tables, &readings_map)
                .expect("Theorem 2: no deadlock");
            for (i, d) in dests.iter().enumerate() {
                let got = round.results[d];
                prop_assert_eq!(got.to_bits(), exact[i].to_bits(), "automata vs exec at {}", d);
            }
        }
    }

    /// Under loss the simulator is replayable and queue-bound invariant:
    /// the bound is accounting, never a drop policy.
    #[test]
    fn lossy_sim_rounds_replay_exactly_and_ignore_the_queue_bound(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        value_salt in 0u64..10_000,
        base_salt in 0u64..1_000_000,
        p in 0.05f64..0.45,
        mode_pick in 0usize..3,
    ) {
        let b = build(place_seed, wl_seed, 7, 5, mode_of(mode_pick));
        let model = DeliveryModel::uniform(p, place_seed ^ 0xd15c);
        let policy = RetryPolicy::bounded(4, 1, 100_000);
        let readings_map: BTreeMap<NodeId, f64> = b
            .compiled
            .sources()
            .ids()
            .iter()
            .map(|&s| (s, reading(s, 1, value_salt)))
            .collect();

        let roomy = SimExec::with_params(&b.net, &b.compiled, SimParams { queue_cap: 1024, latency: 1 });
        let tight = SimExec::with_params(&b.net, &b.compiled, SimParams { queue_cap: 1, latency: 1 });
        let mut st_roomy = roomy.state();
        let mut st_tight = tight.state();
        let a = roomy.run_on(&readings_map, &model, &policy, base_salt, &mut st_roomy);
        let c = tight.run_on(&readings_map, &model, &policy, base_salt, &mut st_tight);
        prop_assert_eq!(&a.outcome, &c.outcome, "queue bound must not change outcomes");
        prop_assert!(c.queue_overflows >= a.queue_overflows);

        // Replay through the same warm state: identical outcome, bit for bit.
        let replay = roomy.run_on(&readings_map, &model, &policy, base_salt, &mut st_roomy);
        prop_assert_eq!(&a.outcome, &replay.outcome);
        prop_assert_eq!(a.events, replay.events);
        prop_assert_eq!(a.ticks, replay.ticks);
    }

    /// The answer depends on the delivery vector alone: with 1–4 message
    /// links dead for the whole round, every clock attempts each doomed
    /// message exactly `max_attempts` times and delivers everything else
    /// first time, so the TDMA delivery pass and the event wheel (any queue
    /// bound, any latency) produce equal outcomes up to the clock reading.
    #[test]
    fn both_clocks_settle_the_same_answer_over_dead_links(
        place_seed in 0u64..10_000,
        wl_seed in 0u64..10_000,
        value_salt in 0u64..10_000,
        round_salt in 0u64..1_000_000,
        dest_count in 4usize..10,
        mode_pick in 0usize..3,
        knobs in 0u64..1_000_000,
        link_seed in 0u64..1_000_000,
    ) {
        let queue_cap = 1 + (knobs % 63) as u32;
        let latency = 1 + ((knobs >> 6) % 4) as u32;
        let max_attempts = 1 + ((knobs >> 9) % 4) as u32;
        let backoff = ((knobs >> 12) % 3) as u32;
        let dead_links = 1 + ((knobs >> 14) % 4) as usize;
        let b = build(place_seed, wl_seed, dest_count, 5, mode_of(mode_pick));

        let messages = &b.compiled.schedule().messages;
        let mut trace = FailureTrace::new();
        for k in 0..dead_links as u64 {
            let pick = link_seed.wrapping_mul(2_654_435_761).wrapping_add(k * 40_503);
            let (tail, head) = messages[(pick % messages.len() as u64) as usize].edge;
            trace = trace.down(tail, head, 0, u64::MAX);
        }
        let model = DeliveryModel::trace(trace);
        let policy = RetryPolicy::bounded(max_attempts, backoff, 100_000);
        let readings_map: BTreeMap<NodeId, f64> = b
            .compiled
            .sources()
            .ids()
            .iter()
            .map(|&s| (s, reading(s, 2, value_salt)))
            .collect();

        let faulty = FaultyExec::new(&b.net, &b.compiled);
        let mut scratch = faulty.scratch();
        let mut tdma = faulty.run_on(&readings_map, &model, &policy, round_salt, &mut scratch);
        let sim = SimExec::with_params(&b.net, &b.compiled, SimParams { queue_cap, latency });
        let mut st = sim.state();
        let mut wheel = sim.run_on(&readings_map, &model, &policy, round_salt, &mut st).outcome;
        prop_assert!(tdma.dropped_messages >= 1, "a dead message link must drop its message");
        tdma.slots_used = 0;
        wheel.slots_used = 0;
        prop_assert_eq!(tdma, wheel);
    }
}
