//! Collision-free transmission slots (§3: "construct a detailed
//! transmission schedule from the global plan, aimed at avoiding
//! collisions and reducing node listening time").
//!
//! Messages are assigned TDMA slots subject to:
//!
//! * **precedence** — a message is sent strictly after every message
//!   carrying units it waits for (data must arrive before it can be
//!   merged or forwarded);
//! * **half-duplex** — a node cannot transmit two messages, nor transmit
//!   and receive, in the same slot;
//! * **interference** — a receiver hears every in-range transmitter, so
//!   no other node within radio range of a receiver (and no second
//!   message to the same receiver) may transmit in its slot.
//!
//! Assignment is greedy in wait-for topological order, taking the
//! smallest feasible slot — the classic list-scheduling heuristic. The
//! resulting `slot_count` is the round's makespan; a node only needs its
//! radio on in the slots where it sends or receives, which is the
//! "reducing node listening time" payoff (quantified by
//! [`SlotSchedule::listen_fraction`]).
//!
//! Feasibility is read from per-node slot sets rather than by scanning
//! every placed message: each node a message touches keeps the slots
//! where it sends or receives, where a neighbour transmits, and where a
//! neighbour receives, so a candidate slot costs four lookups. The
//! tests keep the scanning assignment as an oracle.
//!
//! Precedence comes from the message graph the schedule already holds
//! ([`crate::schedule::build_schedule`] derives it once); nothing here
//! re-derives messages from units. Only the TDMA executor
//! ([`crate::faults::FaultyExec`]) assigns slots; the event-driven
//! simulator runs on its own clock and lowers none.

use std::collections::BTreeMap;

use m2m_graph::cycle::topological_order;
use m2m_graph::NodeId;
use m2m_netsim::Network;

use crate::schedule::{Message, Schedule};

/// A TDMA slot assignment for one round of a schedule's messages.
#[derive(Clone, Debug)]
pub struct SlotSchedule {
    /// Slot of each message (indexed like `Schedule::messages`).
    pub slots: Vec<u32>,
    /// Total number of slots (the makespan).
    pub slot_count: u32,
}

impl SlotSchedule {
    /// The slot after which destination `d` has received every input to
    /// its final evaluation — the *control latency* of `d` in slots.
    /// Returns 0 for a destination whose inputs are all local.
    pub fn destination_latency(&self, schedule: &Schedule, d: NodeId) -> u32 {
        use crate::schedule::Contribution;
        let Some(inputs) = schedule.destination_inputs.get(&d) else {
            return 0;
        };
        inputs
            .iter()
            .filter_map(|c| match c {
                // A locally pre-aggregated value: free if it is the
                // destination's own reading, otherwise it arrived as the
                // raw unit on the final edge into `d`.
                Contribution::Pre(s) if *s == d => None,
                Contribution::Pre(s) => schedule
                    .units
                    .iter()
                    .position(|u| {
                        u.edge.1 == d
                            && matches!(u.content,
                                crate::schedule::UnitContent::Raw(src) if src == *s)
                    })
                    .map(|u| self.slots[schedule.message_of[u] as usize] + 1),
                Contribution::FromUnit(u) => Some(self.slots[schedule.message_of[*u] as usize] + 1),
            })
            .max()
            .unwrap_or(0)
    }

    /// Fraction of (node, slot) pairs in which a node must have its radio
    /// on (sending or receiving), over nodes that participate at all.
    /// Lower is better — an always-on MAC would score 1.0.
    pub fn listen_fraction(&self, schedule: &Schedule, network: &Network) -> f64 {
        if self.slot_count == 0 {
            return 0.0;
        }
        let mut active = vec![false; network.node_count()];
        let mut on_slots: BTreeMap<(NodeId, u32), ()> = BTreeMap::new();
        for (m, msg) in schedule.messages.iter().enumerate() {
            let slot = self.slots[m];
            active[msg.edge.0.index()] = true;
            active[msg.edge.1.index()] = true;
            on_slots.insert((msg.edge.0, slot), ());
            on_slots.insert((msg.edge.1, slot), ());
        }
        let participants = active.iter().filter(|&&a| a).count();
        if participants == 0 {
            return 0.0;
        }
        on_slots.len() as f64 / (participants as f64 * f64::from(self.slot_count))
    }
}

/// True if two directed transmissions cannot share a slot.
#[cfg(test)]
fn conflicts(network: &Network, a: (NodeId, NodeId), b: (NodeId, NodeId)) -> bool {
    let (sa, ra) = a;
    let (sb, rb) = b;
    // Half-duplex at every endpoint.
    if sa == sb || ra == rb || sa == rb || sb == ra {
        return true;
    }
    // Interference: a foreign transmitter within range of a receiver.
    network.graph().has_edge(sb, ra) || network.graph().has_edge(sa, rb)
}

/// Assigns collision-free slots to every message of `schedule`.
///
/// Messages take slots in wait-for topological order, each the smallest
/// slot after its predecessors' that conflicts with no message already
/// placed. Two transmissions conflict when they share an endpoint, or
/// when either one's sender is a radio neighbour of the other's
/// receiver. So per node touched by a message, three slot sets answer
/// the test in four lookups: the slots where the node sends or receives,
/// where a neighbour transmits, and where a neighbour receives.
///
/// # Panics
/// Panics if the message-level wait-for graph is cyclic, which
/// [`crate::schedule::build_schedule`] already prevents.
pub fn assign_slots(network: &Network, schedule: &Schedule) -> SlotSchedule {
    let mut sets = NodeSlotSets::new(network.node_count(), &schedule.messages);
    let mut earliest = vec![0u32; schedule.messages.len()];
    let mut slots = vec![0u32; schedule.messages.len()];
    let mut slot_count = 0u32;
    for m in message_order(schedule) {
        let (s, r) = schedule.messages[m].edge;
        let slot = sets.first_free(s, r, earliest[m]);
        sets.occupy(network, s, r, slot);
        slots[m] = slot;
        slot_count = slot_count.max(slot + 1);
        release_successors(schedule, m, slot, &mut earliest);
    }
    crate::telemetry::counter(
        crate::telemetry::names::SLOTS_SET_BYTES,
        sets.bytes() as u64,
    );
    SlotSchedule { slots, slot_count }
}

/// The messages in wait-for topological order: Kahn's order over the
/// schedule's message arcs, which the successor lists give sorted.
fn message_order(schedule: &Schedule) -> Vec<usize> {
    let message_count = schedule.messages.len();
    let arcs: Vec<(usize, usize)> = (0..message_count)
        .flat_map(|m| schedule.successors(m).iter().map(move |&n| (m, n as usize)))
        .collect();
    topological_order(message_count, &arcs)
        .expect("message wait-for graph is acyclic (checked at merge time)")
}

/// Message `m` went in `slot`: nothing waiting on it may go before
/// `slot + 1`.
fn release_successors(schedule: &Schedule, m: usize, slot: u32, earliest: &mut [u32]) {
    for &n in schedule.successors(m) {
        let n = n as usize;
        earliest[n] = earliest[n].max(slot + 1);
    }
}

/// The slot-set kinds: the node sends or receives, a neighbour
/// transmits, a neighbour receives.
const ACTIVE: usize = 0;
const NEAR_TX: usize = 1;
const NEAR_RX: usize = 2;
const KINDS: usize = 3;

/// Per-node slot sets, one growable bitset of each kind per node that
/// some message touches; nodes no message touches get no storage.
struct NodeSlotSets {
    /// Compact index of each network node, `u32::MAX` if untouched.
    index: Vec<u32>,
    /// Per touched node, the three bitsets interleaved word by word:
    /// word `w` of kind `k` is `words[KINDS * w + k]`.
    words: Vec<Vec<u64>>,
}

impl NodeSlotSets {
    fn new(node_count: usize, messages: &[Message]) -> Self {
        let mut index = vec![u32::MAX; node_count];
        let mut touched = 0u32;
        for m in messages {
            for v in [m.edge.0, m.edge.1] {
                if index[v.index()] == u32::MAX {
                    index[v.index()] = touched;
                    touched += 1;
                }
            }
        }
        NodeSlotSets {
            index,
            words: vec![Vec::new(); touched as usize],
        }
    }

    /// Bytes held by the sets and the node index.
    fn bytes(&self) -> usize {
        let words: usize = self.words.iter().map(Vec::capacity).sum();
        8 * words + std::mem::size_of::<Vec<u64>>() * self.words.len() + 4 * self.index.len()
    }

    /// Word `w` of kind `kind` at `v`; zero past the end or untouched.
    fn word(&self, v: NodeId, kind: usize, w: usize) -> u64 {
        match self.index[v.index()] {
            u32::MAX => 0,
            i => self.words[i as usize]
                .get(KINDS * w + kind)
                .copied()
                .unwrap_or(0),
        }
    }

    fn insert(&mut self, v: NodeId, kind: usize, slot: u32) {
        let i = self.index[v.index()];
        if i == u32::MAX {
            return;
        }
        let words = &mut self.words[i as usize];
        let w = slot as usize / 64;
        if words.len() <= KINDS * w + kind {
            words.resize(KINDS * (w + 1), 0);
        }
        words[KINDS * w + kind] |= 1 << (slot % 64);
    }

    /// The smallest slot at or after `earliest` in which `s → r` conflicts
    /// with no occupied transmission: neither endpoint is busy, no
    /// neighbour of `r` transmits, and no neighbour of `s` receives.
    fn first_free(&self, s: NodeId, r: NodeId, earliest: u32) -> u32 {
        let mut w = earliest as usize / 64;
        let mut below = (1u64 << (earliest % 64)) - 1;
        loop {
            let taken = below
                | self.word(s, ACTIVE, w)
                | self.word(r, ACTIVE, w)
                | self.word(r, NEAR_TX, w)
                | self.word(s, NEAR_RX, w);
            if taken != u64::MAX {
                return (w * 64) as u32 + taken.trailing_ones();
            }
            w += 1;
            below = 0;
        }
    }

    /// Records `s → r` transmitting in `slot`.
    fn occupy(&mut self, network: &Network, s: NodeId, r: NodeId, slot: u32) {
        self.insert(s, ACTIVE, slot);
        self.insert(r, ACTIVE, slot);
        for &v in network.neighbors(s) {
            self.insert(v, NEAR_TX, slot);
        }
        for &v in network.neighbors(r) {
            self.insert(v, NEAR_RX, slot);
        }
    }
}

/// Slot assignment by definition: every candidate slot scans every
/// placed message. The oracle [`assign_slots`] is tested against.
#[cfg(test)]
fn assign_slots_oracle(network: &Network, schedule: &Schedule) -> SlotSchedule {
    let message_count = schedule.messages.len();
    let mut earliest = vec![0u32; message_count];
    let mut slots = vec![0u32; message_count];
    let mut assigned = vec![false; message_count];
    let mut slot_count = 0u32;
    for m in message_order(schedule) {
        let mut slot = earliest[m];
        'search: loop {
            for other in 0..message_count {
                if assigned[other]
                    && slots[other] == slot
                    && conflicts(
                        network,
                        schedule.messages[m].edge,
                        schedule.messages[other].edge,
                    )
                {
                    slot += 1;
                    continue 'search;
                }
            }
            break;
        }
        slots[m] = slot;
        assigned[m] = true;
        slot_count = slot_count.max(slot + 1);
        release_successors(schedule, m, slot, &mut earliest);
    }
    SlotSchedule { slots, slot_count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use crate::plan::GlobalPlan;
    use crate::schedule::{build_schedule, synthetic_schedule};
    use crate::spec::AggregationSpec;
    use crate::workload::{generate_workload, SourceSelection, WorkloadConfig};
    use m2m_netsim::{Deployment, RoutingMode, RoutingTables};
    use proptest::prelude::*;

    const MODES: [RoutingMode; 3] = [
        RoutingMode::ShortestPathTrees,
        RoutingMode::SharedSpanningTree,
        RoutingMode::SteinerTrees,
    ];

    fn assert_matches_oracle(net: &Network, schedule: &Schedule) {
        let fast = assign_slots(net, schedule);
        let oracle = assign_slots_oracle(net, schedule);
        assert_eq!(fast.slots, oracle.slots);
        assert_eq!(fast.slot_count, oracle.slot_count);
    }

    fn slot_all(net: &Network, spec: &AggregationSpec) -> (Schedule, SlotSchedule) {
        let routing = RoutingTables::build(
            net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(net, spec, &routing);
        let schedule = build_schedule(spec, &plan).unwrap();
        let slots = assign_slots(net, &schedule);
        (schedule, slots)
    }

    /// Exhaustively checks every constraint on an assignment.
    fn verify(net: &Network, schedule: &Schedule, slots: &SlotSchedule) {
        // No two conflicting messages share a slot.
        for a in 0..schedule.messages.len() {
            for b in (a + 1)..schedule.messages.len() {
                if slots.slots[a] == slots.slots[b] {
                    assert!(
                        !conflicts(net, schedule.messages[a].edge, schedule.messages[b].edge),
                        "messages {a} and {b} conflict in slot {}",
                        slots.slots[a]
                    );
                }
            }
        }
        // Precedence respected at the unit level.
        let mut message_of = vec![usize::MAX; schedule.units.len()];
        for (m, msg) in schedule.messages.iter().enumerate() {
            for &u in &msg.units {
                message_of[u] = m;
            }
        }
        for &(u, v) in &schedule.unit_arcs {
            let (mu, mv) = (message_of[u], message_of[v]);
            if mu != mv {
                assert!(
                    slots.slots[mu] < slots.slots[mv],
                    "dependency sent in slot {} but dependent in {}",
                    slots.slots[mu],
                    slots.slots[mv]
                );
            }
        }
    }

    #[test]
    fn line_pipeline_is_sequential() {
        // A 4-node chain: each hop must wait for the previous one.
        let net = Network::with_default_energy(Deployment::grid(4, 1, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(3),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0)]),
        );
        let (schedule, slots) = slot_all(&net, &spec);
        verify(&net, &schedule, &slots);
        assert_eq!(slots.slot_count, 3, "three dependent hops need three slots");
    }

    #[test]
    fn random_workload_schedules_are_valid() {
        let net = Network::with_default_energy(Deployment::great_duck_island(4));
        for seed in [1u64, 7, 13] {
            let spec = generate_workload(&net, &WorkloadConfig::paper_default(10, 10, seed));
            let (schedule, slots) = slot_all(&net, &spec);
            verify(&net, &schedule, &slots);
            assert!(slots.slot_count >= 1);
        }
    }

    #[test]
    fn makespan_at_least_longest_dependency_chain() {
        let net = Network::with_default_energy(Deployment::great_duck_island(4));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(8, 12, 3));
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        // Longest source→destination path length lower-bounds the makespan.
        let longest = routing
            .trees()
            .flat_map(|(_, t)| {
                t.destinations()
                    .iter()
                    .map(|&d| t.path_to(d).unwrap().len() as u32 - 1)
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap();
        let (schedule, slots) = slot_all(&net, &spec);
        verify(&net, &schedule, &slots);
        assert!(slots.slot_count >= longest);
    }

    #[test]
    fn listening_time_is_reduced() {
        // With slots, nodes are radio-on for well under the whole round.
        let net = Network::with_default_energy(Deployment::great_duck_island(4));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(12, 12, 9));
        let (schedule, slots) = slot_all(&net, &spec);
        let fraction = slots.listen_fraction(&schedule, &net);
        assert!(
            fraction > 0.0 && fraction < 0.8,
            "listen fraction {fraction}"
        );
    }

    #[test]
    fn destination_latency_on_a_line_equals_path_length() {
        let net = Network::with_default_energy(Deployment::grid(4, 1, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(3),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0)]),
        );
        let (schedule, slots) = slot_all(&net, &spec);
        // Three hops, delivered after slot 3.
        assert_eq!(slots.destination_latency(&schedule, NodeId(3)), 3);
    }

    #[test]
    fn local_only_destination_has_zero_latency() {
        let net = Network::with_default_energy(Deployment::grid(3, 1, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        // Node 1 aggregates itself and its neighbor 0 (one hop).
        spec.add_function(
            NodeId(1),
            AggregateFunction::weighted_sum([(NodeId(1), 1.0), (NodeId(0), 1.0)]),
        );
        let (schedule, slots) = slot_all(&net, &spec);
        // One hop arrives after slot 1; the self-reading is local.
        assert_eq!(slots.destination_latency(&schedule, NodeId(1)), 1);
        // A destination with no inputs at all would be 0 — covered by the
        // unwrap_or(0) path via a spec-less lookup.
        assert_eq!(slots.destination_latency(&schedule, NodeId(2)), 0);
    }

    #[test]
    fn latency_bounded_by_makespan() {
        let net = Network::with_default_energy(Deployment::great_duck_island(4));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(10, 12, 5));
        let (schedule, slots) = slot_all(&net, &spec);
        for d in spec.destinations() {
            assert!(slots.destination_latency(&schedule, d) <= slots.slot_count);
        }
    }

    #[test]
    fn parallel_far_apart_transmissions_share_slots() {
        // Two independent single-hop flows on opposite corners of a large
        // grid can go simultaneously.
        let net = Network::with_default_energy(Deployment::grid(8, 1, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(1),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0)]),
        );
        spec.add_function(
            NodeId(6),
            AggregateFunction::weighted_sum([(NodeId(7), 1.0)]),
        );
        let (schedule, slots) = slot_all(&net, &spec);
        verify(&net, &schedule, &slots);
        assert_eq!(slots.slot_count, 1, "independent distant hops fit one slot");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Real plans in every routing mode get the oracle's slots.
        #[test]
        fn slots_match_the_oracle_on_real_plans(
            place_seed in 0u64..10_000,
            wl_seed in 0u64..10_000,
            destinations in 4usize..16,
            uniform in 0u32..2,
        ) {
            let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
            let mut cfg = WorkloadConfig::paper_default(destinations, 10, wl_seed);
            if uniform == 1 {
                cfg.selection = SourceSelection::Uniform;
            }
            let spec = generate_workload(&net, &cfg);
            for mode in MODES {
                let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
                let plan = GlobalPlan::build(&net, &spec, &routing);
                let schedule = build_schedule(&spec, &plan).expect("schedulable");
                assert_matches_oracle(&net, &schedule);
            }
        }

        /// Synthetic schedules on a grid's links, many of them split by the
        /// merge fallback (several messages on one edge, which must take
        /// distinct slots), get the oracle's slots.
        #[test]
        fn slots_match_the_oracle_on_synthetic_schedules(
            seed in 0u64..1_000_000,
            edges in 2usize..12,
            max_units in 1usize..5,
            density in 0.02f64..0.4,
        ) {
            let net = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0));
            let links: Vec<(NodeId, NodeId)> = net
                .graph()
                .edges()
                .flat_map(|(a, b)| [(a, b), (b, a)])
                .collect();
            let stride = links.len() / edges;
            let pool: Vec<(NodeId, NodeId)> = (0..edges)
                .map(|i| links[(i * stride + seed as usize) % links.len()])
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let schedule = synthetic_schedule(seed, &pool, max_units, density);
            assert_matches_oracle(&net, &schedule);
        }
    }

    #[test]
    fn split_real_schedules_match_the_oracle() {
        // Steiner trees over a uniform 100-node workload: the merge
        // fallback leaves several messages on some edges.
        let net = Network::with_default_energy(Deployment::scaled_series(&[100], 0).remove(0));
        let cfg = WorkloadConfig {
            selection: SourceSelection::Uniform,
            ..WorkloadConfig::paper_default(20, 20, 0)
        };
        let spec = generate_workload(&net, &cfg);
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::SteinerTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let schedule = build_schedule(&spec, &plan).unwrap();
        assert!(schedule.max_messages_on_any_edge() > 1);
        let slots = assign_slots(&net, &schedule);
        verify(&net, &schedule, &slots);
        assert_matches_oracle(&net, &schedule);
    }
}
