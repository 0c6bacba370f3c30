//! Message units, the wait-for relation, and message merging (§3).
//!
//! Every raw value or partial aggregate record crossing an edge is a
//! *message unit*. Unit `u'` **waits for** unit `u` if `u` carries data
//! needed to compute or send `u'`. Theorem 2: under the routing
//! restrictions the wait-for relation is acyclic, so transmissions can be
//! scheduled; [`build_schedule`] verifies this and returns an error if a
//! cycle is ever found (it cannot be under the shared-spanning-tree mode,
//! and does not occur in practice with per-source shortest-path trees).
//!
//! Sending each unit as its own message is correct but wasteful; the
//! per-message header is paid once per message. The paper merges messages
//! greedily: two messages on the same edge merge unless the combined
//! wait-for relation would contain a cycle. "For all our experiments …
//! this algorithm is able to merge all messages along each edge into one"
//! — reproduced by the `messages-per-edge` statistics in the benches.

use std::collections::{BTreeMap, BTreeSet};

use m2m_graph::cycle::topological_order;
use m2m_graph::NodeId;
use m2m_netsim::EnergyModel;

use crate::agg::RAW_VALUE_BYTES;
use crate::edge_opt::{AggGroup, DirectedEdge};
use crate::metrics::{NodeEnergyLedger, RoundCost};
use crate::plan::GlobalPlan;
use crate::spec::AggregationSpec;
use crate::topo::EdgeIdx;

/// What a message unit carries.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnitContent {
    /// A raw source value, tagged by the source id.
    Raw(NodeId),
    /// A partial aggregate record, tagged by its continuation group.
    Record(AggGroup),
}

/// One message unit on one directed edge.
#[derive(Clone, Debug, PartialEq)]
pub struct Unit {
    /// The edge the unit crosses.
    pub edge: DirectedEdge,
    /// The payload.
    pub content: UnitContent,
    /// On-air payload size in bytes.
    pub size_bytes: u32,
}

/// An input merged into a record (or into a destination's final result).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Contribution {
    /// Pre-aggregate the raw value of this source here.
    Pre(NodeId),
    /// Merge the record carried by this unit (index into
    /// [`Schedule::units`]).
    FromUnit(usize),
}

/// A transmitted message: one or more units on the same edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// The edge the message crosses.
    pub edge: DirectedEdge,
    /// Indices into [`Schedule::units`].
    pub units: Vec<usize>,
}

/// The full transmission schedule for one round of a plan.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// All message units.
    pub units: Vec<Unit>,
    /// Wait-for arcs `(u, u')`: `u'` waits for `u`.
    pub unit_arcs: Vec<(usize, usize)>,
    /// For each record unit, the inputs merged at the edge tail. Empty for
    /// raw units.
    pub contributions: Vec<Vec<Contribution>>,
    /// Per destination, the inputs to its final evaluation.
    pub destination_inputs: BTreeMap<NodeId, Vec<Contribution>>,
    /// A topological order of the units (proof of Theorem 2 acyclicity).
    pub topo_order: Vec<usize>,
    /// The messages after greedy merging.
    pub messages: Vec<Message>,
    /// Messages per edge, computed once from `messages` at construction
    /// (the schedule is immutable, so this never changes).
    pub per_edge_messages: BTreeMap<DirectedEdge, usize>,
}

impl Schedule {
    /// Number of messages per edge, keyed by edge. The paper's greedy
    /// merger achieves one per edge in all its experiments. Computed once
    /// at construction; this accessor is free.
    pub fn messages_per_edge(&self) -> &BTreeMap<DirectedEdge, usize> {
        &self.per_edge_messages
    }

    /// The largest number of messages any edge needs.
    pub fn max_messages_on_any_edge(&self) -> usize {
        self.per_edge_messages.values().copied().max().unwrap_or(0)
    }

    /// Energy and traffic totals for transmitting this schedule once.
    pub fn round_cost(&self, energy: &EnergyModel) -> RoundCost {
        let mut cost = RoundCost::default();
        for m in &self.messages {
            let body: u32 = m.units.iter().map(|&u| self.units[u].size_bytes).sum();
            cost.tx_uj += energy.tx_cost_uj(body);
            cost.rx_uj += energy.rx_cost_uj(body);
            cost.messages += 1;
            cost.units += m.units.len();
            cost.payload_bytes += u64::from(body);
        }
        cost
    }

    /// Like [`Schedule::round_cost`] but also charges each transmission to
    /// the sender and each reception to the receiver in `ledger` — the
    /// per-node view §1's load-balancing argument needs.
    pub fn charge_round(&self, energy: &EnergyModel, ledger: &mut NodeEnergyLedger) -> RoundCost {
        let mut cost = RoundCost::default();
        for m in &self.messages {
            let body: u32 = m.units.iter().map(|&u| self.units[u].size_bytes).sum();
            let tx = energy.tx_cost_uj(body);
            let rx = energy.rx_cost_uj(body);
            ledger.charge_tx(m.edge.0, tx);
            ledger.charge_rx(m.edge.1, rx);
            cost.tx_uj += tx;
            cost.rx_uj += rx;
            cost.messages += 1;
            cost.units += m.units.len();
            cost.payload_bytes += u64::from(body);
        }
        cost
    }

    /// Energy with the §3 broadcast optimization: "use broadcast to
    /// transmit message units shared by multiple edges". A raw unit a node
    /// forwards on two or more outgoing edges is moved into one local
    /// broadcast heard by all the involved next hops (selective listening
    /// per the paper's footnote); everything else stays unicast.
    pub fn round_cost_with_broadcast(&self, energy: &EnergyModel) -> RoundCost {
        use std::collections::{BTreeMap, BTreeSet};
        // For each (tail, source): which outgoing edges carry the raw?
        let mut raw_fanout: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        for (i, u) in self.units.iter().enumerate() {
            if let UnitContent::Raw(s) = u.content {
                raw_fanout.entry((u.edge.0, s)).or_default().push(i);
            }
        }
        // Units that move into a per-node broadcast (transmitted once).
        let mut broadcast_units: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        let mut broadcast_recipients: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        let mut in_broadcast = vec![false; self.units.len()];
        for ((tail, _), unit_ids) in &raw_fanout {
            if unit_ids.len() < 2 {
                continue;
            }
            // One representative copy in the broadcast payload.
            broadcast_units.entry(*tail).or_default().push(unit_ids[0]);
            let recipients = broadcast_recipients.entry(*tail).or_default();
            for &u in unit_ids {
                in_broadcast[u] = true;
                recipients.insert(self.units[u].edge.1);
            }
        }

        let mut cost = RoundCost::default();
        for (tail, unit_ids) in &broadcast_units {
            let body: u32 = unit_ids.iter().map(|&u| self.units[u].size_bytes).sum();
            let listeners = broadcast_recipients[tail].len();
            cost.tx_uj += energy.tx_cost_uj(body);
            cost.rx_uj += listeners as f64 * energy.rx_cost_uj(body);
            cost.messages += 1;
            cost.units += unit_ids.len();
            cost.payload_bytes += u64::from(body);
        }
        for m in &self.messages {
            let remaining: Vec<usize> = m
                .units
                .iter()
                .copied()
                .filter(|&u| !in_broadcast[u])
                .collect();
            if remaining.is_empty() {
                continue;
            }
            let body: u32 = remaining.iter().map(|&u| self.units[u].size_bytes).sum();
            cost.tx_uj += energy.tx_cost_uj(body);
            cost.rx_uj += energy.rx_cost_uj(body);
            cost.messages += 1;
            cost.units += remaining.len();
            cost.payload_bytes += u64::from(body);
        }
        cost
    }
}

/// Builds the schedule for a plan: enumerates units, derives the wait-for
/// relation and per-record contributions by walking every `(s, d)` pair,
/// verifies acyclicity (Theorem 2), and merges messages greedily.
///
/// Unit enumeration follows the plan's solution slab in
/// [`crate::topo::EdgeIdx`] order — ascending by edge, raws before
/// records within an edge — which is exactly the order the old
/// `BTreeMap` iteration produced, so unit indices (and everything hung
/// off them: arcs, topological order, merging) are unchanged by the
/// dense layout. Unit lookups binary-search within one edge's solution
/// instead of probing a global ordered map.
///
/// Returns an error if the wait-for relation is cyclic, which would make
/// the plan unschedulable.
pub fn build_schedule(spec: &AggregationSpec, plan: &GlobalPlan) -> Result<Schedule, String> {
    let _span = crate::telemetry::span(crate::telemetry::layer::SCHEDULE_BUILD);
    let topo = plan.topology();
    let sols = plan.solutions();

    // 1. Enumerate units from the per-edge solutions, recording each
    // edge's first unit index.
    let mut units: Vec<Unit> = Vec::new();
    let mut unit_base: Vec<usize> = Vec::with_capacity(sols.len());
    for sol in sols {
        unit_base.push(units.len());
        for &s in &sol.raw {
            units.push(Unit {
                edge: sol.edge,
                content: UnitContent::Raw(s),
                size_bytes: RAW_VALUE_BYTES,
            });
        }
        for g in &sol.agg {
            let size = spec
                .function(g.destination)
                .expect("destination has a function")
                .partial_record_bytes();
            units.push(Unit {
                edge: sol.edge,
                content: UnitContent::Record(g.clone()),
                size_bytes: size,
            });
        }
    }
    // Within an edge: raws first (sorted), then records (sorted by
    // group), mirroring the enumeration above.
    let raw_unit = |e: EdgeIdx, s: NodeId| -> Option<usize> {
        let sol = &sols[e.index()];
        sol.raw
            .binary_search(&s)
            .ok()
            .map(|pos| unit_base[e.index()] + pos)
    };
    let record_unit = |e: EdgeIdx, d: NodeId, suffix: &[NodeId]| -> Option<usize> {
        let sol = &sols[e.index()];
        sol.agg
            .binary_search_by(|g| (g.destination, &g.suffix[..]).cmp(&(d, suffix)))
            .ok()
            .map(|pos| unit_base[e.index()] + sol.raw.len() + pos)
    };

    // 2. Walk every pair to collect arcs, contributions, and final inputs.
    let mut arcs: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut contributions: Vec<BTreeSet<Contribution>> = vec![BTreeSet::new(); units.len()];
    let mut dest_inputs: BTreeMap<NodeId, BTreeSet<Contribution>> = BTreeMap::new();

    for tree in topo.trees() {
        let s = tree.source();
        for dp in tree.dest_paths() {
            let d = dp.destination();
            if dp.hops().is_empty() {
                // s == d: local contribution only.
                dest_inputs
                    .entry(d)
                    .or_default()
                    .insert(Contribution::Pre(s));
                continue;
            }
            let mut prev: Option<usize> = None;
            let mut raw = true;
            for (e, suffix) in dp.hops() {
                let cur = if raw {
                    if let Some(u) = raw_unit(*e, s) {
                        u
                    } else {
                        let u = record_unit(*e, d, suffix).ok_or_else(|| {
                            let edge = topo.edge(*e);
                            format!("pair ({s}, {d}) uncovered on edge {edge:?}")
                        })?;
                        contributions[u].insert(Contribution::Pre(s));
                        raw = false;
                        u
                    }
                } else {
                    let u = record_unit(*e, d, suffix).ok_or_else(|| {
                        let edge = topo.edge(*e);
                        format!("record for ({s}, {d}) dropped on {edge:?}")
                    })?;
                    if let Some(p) = prev {
                        if p != u {
                            contributions[u].insert(Contribution::FromUnit(p));
                        }
                    }
                    u
                };
                if let Some(p) = prev {
                    if p != cur {
                        arcs.insert((p, cur));
                    }
                }
                prev = Some(cur);
            }
            let last = prev.expect("path has at least one edge");
            let input = if raw {
                Contribution::Pre(s)
            } else {
                Contribution::FromUnit(last)
            };
            dest_inputs.entry(d).or_default().insert(input);
        }
    }

    let unit_arcs: Vec<(usize, usize)> = arcs.into_iter().collect();

    // 3. Theorem 2: the wait-for relation must be acyclic.
    let topo_order = topological_order(units.len(), &unit_arcs)
        .ok_or_else(|| "wait-for cycle among message units".to_string())?;

    // 4. Greedy message merging, edge by edge: first try the paper's
    // common case (all units on the edge in one message); if that creates
    // a cycle at the message level, fall back to incremental merging.
    let messages = merge_messages(&units, &unit_arcs);
    let mut per_edge_messages: BTreeMap<DirectedEdge, usize> = BTreeMap::new();
    for m in &messages {
        *per_edge_messages.entry(m.edge).or_insert(0) += 1;
    }

    Ok(Schedule {
        units,
        unit_arcs,
        contributions: contributions
            .into_iter()
            .map(|set| set.into_iter().collect())
            .collect(),
        destination_inputs: dest_inputs
            .into_iter()
            .map(|(d, set)| (d, set.into_iter().collect()))
            .collect(),
        topo_order,
        messages,
        per_edge_messages,
    })
}

/// Greedily merges units into messages without creating wait-for cycles
/// at the message level.
fn merge_messages(units: &[Unit], unit_arcs: &[(usize, usize)]) -> Vec<Message> {
    // Partition assignment: unit -> message id. Start with singletons.
    let mut assignment: Vec<usize> = (0..units.len()).collect();
    let mut message_count = units.len();

    // Returns true if the message-level graph under `assignment` (with
    // `a` and `b` hypothetically merged) is acyclic.
    let acyclic_with = |assignment: &[usize], merged: Option<(usize, usize)>| -> bool {
        let remap = |m: usize| -> usize {
            match merged {
                Some((a, b)) if m == b => a,
                _ => m,
            }
        };
        let arcs: Vec<(usize, usize)> = unit_arcs
            .iter()
            .map(|&(u, v)| (remap(assignment[u]), remap(assignment[v])))
            .filter(|&(a, b)| a != b)
            .collect();
        topological_order(units.len(), &arcs).is_some()
    };

    // Units per edge, in index order.
    let mut per_edge: BTreeMap<DirectedEdge, Vec<usize>> = BTreeMap::new();
    for (i, u) in units.iter().enumerate() {
        per_edge.entry(u.edge).or_default().push(i);
    }

    for edge_units in per_edge.values() {
        if edge_units.len() < 2 {
            continue;
        }
        // Fast path: merge everything on the edge into the first unit's
        // message in one shot.
        let target = assignment[edge_units[0]];
        let saved = assignment.clone();
        for &u in &edge_units[1..] {
            assignment[u] = target;
        }
        if acyclic_with(&assignment, None) {
            message_count -= edge_units.len() - 1;
            continue;
        }
        // Slow path: incremental greedy merging with cycle checks.
        assignment = saved;
        for i in 1..edge_units.len() {
            let u = edge_units[i];
            for &v in &edge_units[..i] {
                let (a, b) = (assignment[v], assignment[u]);
                if a == b {
                    break;
                }
                if acyclic_with(&assignment, Some((a, b))) {
                    for slot in assignment.iter_mut() {
                        if *slot == b {
                            *slot = a;
                        }
                    }
                    message_count -= 1;
                    break;
                }
            }
        }
    }

    // Freeze messages.
    let mut grouped: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (u, &m) in assignment.iter().enumerate() {
        grouped.entry(m).or_default().push(u);
    }
    debug_assert_eq!(grouped.len(), message_count);
    grouped
        .into_values()
        .map(|unit_ids| Message {
            edge: units[unit_ids[0]].edge,
            units: unit_ids,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

    fn build(
        spec: &AggregationSpec,
        mode: RoutingMode,
    ) -> (Network, RoutingTables, GlobalPlan, Schedule) {
        let net = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0));
        let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
        let plan = GlobalPlan::build(&net, spec, &routing);
        let schedule = build_schedule(spec, &plan).expect("schedulable");
        (net, routing, plan, schedule)
    }

    fn spec() -> AggregationSpec {
        let mut s = AggregationSpec::new();
        s.add_function(
            NodeId(12),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0), (NodeId(2), 1.0)]),
        );
        s.add_function(
            NodeId(15),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(2), 1.0)]),
        );
        s
    }

    #[test]
    fn units_match_plan_solutions() {
        let s = spec();
        let (_, _, plan, schedule) = build(&s, RoutingMode::ShortestPathTrees);
        assert_eq!(schedule.units.len(), plan.total_units());
    }

    #[test]
    fn wait_for_is_acyclic_in_both_modes() {
        let s = spec();
        for mode in [
            RoutingMode::ShortestPathTrees,
            RoutingMode::SharedSpanningTree,
        ] {
            let (_, _, _, schedule) = build(&s, mode);
            assert_eq!(schedule.topo_order.len(), schedule.units.len());
        }
    }

    #[test]
    fn merging_yields_one_message_per_edge() {
        // The paper: "our approach only sends one message per multicast
        // tree edge" in all experiments.
        let s = spec();
        let (_, _, _, schedule) = build(&s, RoutingMode::ShortestPathTrees);
        assert_eq!(schedule.max_messages_on_any_edge(), 1);
    }

    #[test]
    fn every_destination_has_inputs() {
        let s = spec();
        let (_, _, _, schedule) = build(&s, RoutingMode::ShortestPathTrees);
        assert_eq!(schedule.destination_inputs.len(), 2);
        for inputs in schedule.destination_inputs.values() {
            assert!(!inputs.is_empty());
        }
    }

    #[test]
    fn merged_cost_is_cheaper_than_unmerged() {
        let s = spec();
        let (net, _, _, schedule) = build(&s, RoutingMode::ShortestPathTrees);
        let merged = schedule.round_cost(net.energy());
        // Unmerged: one message per unit.
        let mut unmerged = RoundCost::default();
        for u in &schedule.units {
            unmerged.tx_uj += net.energy().tx_cost_uj(u.size_bytes);
            unmerged.rx_uj += net.energy().rx_cost_uj(u.size_bytes);
            unmerged.messages += 1;
            unmerged.units += 1;
            unmerged.payload_bytes += u64::from(u.size_bytes);
        }
        assert!(merged.total_uj() <= unmerged.total_uj());
        assert!(merged.messages <= unmerged.messages);
        assert_eq!(merged.units, unmerged.units);
        assert_eq!(merged.payload_bytes, unmerged.payload_bytes);
    }

    #[test]
    fn charge_round_matches_totals_and_attributes_per_node() {
        let s = spec();
        let (net, _, _, schedule) = build(&s, RoutingMode::ShortestPathTrees);
        let mut ledger = NodeEnergyLedger::new(net.node_count());
        let charged = schedule.charge_round(net.energy(), &mut ledger);
        let plain = schedule.round_cost(net.energy());
        assert!((charged.total_uj() - plain.total_uj()).abs() < 1e-9);
        assert!((ledger.total_uj() - plain.total_uj()).abs() < 1e-9);
        // Sources transmit, so they carry nonzero energy.
        assert!(ledger.node_total_uj(NodeId(0)) > 0.0);
    }

    #[test]
    fn broadcast_helps_on_wide_fanout() {
        // One source whose raw value fans out to three destinations via
        // three edges from the same relay: broadcast sends it once.
        use m2m_graph::Graph;
        let mut g = Graph::new(5);
        g.add_edge(NodeId(0), NodeId(1)); // source -> relay
        for t in [2, 3, 4] {
            g.add_edge(NodeId(1), NodeId(t)); // relay -> dests
        }
        let net = Network::from_graph(g, m2m_netsim::EnergyModel::mica2());
        let mut s = AggregationSpec::new();
        for t in [2u32, 3, 4] {
            s.add_function(
                NodeId(t),
                AggregateFunction::weighted_sum([(NodeId(0), 1.0)]),
            );
        }
        let routing = RoutingTables::build(
            &net,
            &s.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &s, &routing);
        let schedule = build_schedule(&s, &plan).unwrap();
        let unicast = schedule.round_cost(net.energy());
        let broadcast = schedule.round_cost_with_broadcast(net.energy());
        assert!(
            broadcast.total_uj() < unicast.total_uj(),
            "broadcast {:.1} must beat unicast {:.1} on a 3-way fanout",
            broadcast.total_uj(),
            unicast.total_uj()
        );
        assert!(broadcast.messages < unicast.messages);
    }

    #[test]
    fn broadcast_is_identity_without_shared_raws() {
        // A single chain has no multi-edge fanout at any node.
        let mut s = AggregationSpec::new();
        s.add_function(
            NodeId(3),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0)]),
        );
        let (net, _, _, schedule) = {
            let net = Network::with_default_energy(m2m_netsim::Deployment::grid(4, 1, 10.0, 12.0));
            let routing = RoutingTables::build(
                &net,
                &s.source_to_destinations(),
                RoutingMode::ShortestPathTrees,
            );
            let plan = GlobalPlan::build(&net, &s, &routing);
            let schedule = build_schedule(&s, &plan).unwrap();
            (net, routing, plan, schedule)
        };
        let unicast = schedule.round_cost(net.energy());
        let broadcast = schedule.round_cost_with_broadcast(net.energy());
        assert_eq!(unicast, broadcast);
    }

    #[test]
    fn merge_splits_messages_to_break_cycles() {
        // Hand-built wait-for pattern that forbids full per-edge merging:
        // edges A and B each carry two units, with u0(A) → u1(B) and
        // u3(B) → u2(A). Merging each edge into one message creates the
        // message-level cycle A → B → A; the greedy merger must keep at
        // least three messages.
        let edge_a = (NodeId(0), NodeId(1));
        let edge_b = (NodeId(1), NodeId(0));
        let mk = |edge| Unit {
            edge,
            content: UnitContent::Raw(NodeId(9)),
            size_bytes: 4,
        };
        let units = vec![mk(edge_a), mk(edge_b), mk(edge_a), mk(edge_b)];
        let arcs = vec![(0usize, 1usize), (3, 2)];
        let messages = merge_messages(&units, &arcs);
        assert!(
            messages.len() >= 3,
            "cycle must prevent full merging, got {} messages",
            messages.len()
        );
        // And the message-level graph is acyclic.
        let mut message_of = vec![0usize; units.len()];
        for (m, msg) in messages.iter().enumerate() {
            for &u in &msg.units {
                message_of[u] = m;
            }
        }
        let msg_arcs: Vec<(usize, usize)> = arcs
            .iter()
            .map(|&(u, v)| (message_of[u], message_of[v]))
            .filter(|&(a, b)| a != b)
            .collect();
        assert!(
            m2m_graph::cycle::topological_order(messages.len(), &msg_arcs).is_some(),
            "merged message graph must be acyclic"
        );
    }

    #[test]
    fn record_units_have_contributions() {
        let s = spec();
        let (_, _, _, schedule) = build(&s, RoutingMode::ShortestPathTrees);
        for (i, u) in schedule.units.iter().enumerate() {
            match u.content {
                UnitContent::Raw(_) => assert!(schedule.contributions[i].is_empty()),
                UnitContent::Record(_) => {
                    // Every record is either freshly formed (has Pre
                    // contributions) or a continuation (has FromUnit).
                    assert!(
                        !schedule.contributions[i].is_empty(),
                        "record unit {i} has no inputs"
                    );
                }
            }
        }
    }
}
