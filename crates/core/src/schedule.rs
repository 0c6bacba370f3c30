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
//!
//! The merge is near-linear. One topological sort of the graph with every
//! edge fully merged decides the common case, where the greedy answer is
//! one message per edge. Only when that graph is cyclic does the greedy
//! per-edge loop run, over a contracted unit graph whose cycle checks are
//! searches bounded by a dynamic topological order (Pearce & Kelly). Both
//! paths make the decisions of the original quadratic loop, which the
//! tests keep as an oracle.
//!
//! The merge also fixes the *message graph*, which the schedule records
//! once: each unit's message, each message's payload bytes, and the
//! wait-for relation between messages, deduplicated (successors ascending,
//! plus predecessor counts). The slot assigner, the compiled lowering and
//! both loss-aware clocks read it from here instead of re-deriving it
//! from the unit arcs.

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
    // The message graph, derived once from `messages` at construction.
    /// The message carrying each unit.
    pub(crate) message_of: Vec<u32>,
    /// Each message's payload bytes: the sum of its units' sizes.
    pub(crate) message_bytes: Vec<u32>,
    /// The deduplicated message wait-for relation: a successor CSR
    /// (see [`Schedule::successors`]) and each message's number of
    /// distinct predecessors.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    pub(crate) pred_count: Vec<u32>,
}

impl Schedule {
    /// Assembles a schedule around its merged messages, deriving what
    /// depends on them alone: the per-edge counts and the message graph.
    fn new(
        units: Vec<Unit>,
        unit_arcs: Vec<(usize, usize)>,
        contributions: Vec<Vec<Contribution>>,
        destination_inputs: BTreeMap<NodeId, Vec<Contribution>>,
        topo_order: Vec<usize>,
        messages: Vec<Message>,
    ) -> Self {
        let mut per_edge_messages: BTreeMap<DirectedEdge, usize> = BTreeMap::new();
        let mut message_of = vec![0u32; units.len()];
        let mut message_bytes = Vec::with_capacity(messages.len());
        for (m, msg) in messages.iter().enumerate() {
            *per_edge_messages.entry(msg.edge).or_insert(0) += 1;
            for &u in &msg.units {
                message_of[u] = m as u32;
            }
            message_bytes.push(msg.units.iter().map(|&u| units[u].size_bytes).sum());
        }
        let mut arcs: Vec<(u32, u32)> = unit_arcs
            .iter()
            .map(|&(u, v)| (message_of[u], message_of[v]))
            .filter(|&(a, b)| a != b)
            .collect();
        arcs.sort_unstable();
        arcs.dedup();
        // Sorted arcs are the successor lists, tail by tail.
        let mut succ_start = vec![0u32; messages.len() + 1];
        let mut pred_count = vec![0u32; messages.len()];
        for &(a, b) in &arcs {
            succ_start[a as usize + 1] += 1;
            pred_count[b as usize] += 1;
        }
        for m in 0..messages.len() {
            succ_start[m + 1] += succ_start[m];
        }
        let succ = arcs.iter().map(|&(_, b)| b).collect();
        Schedule {
            units,
            unit_arcs,
            contributions,
            destination_inputs,
            topo_order,
            messages,
            per_edge_messages,
            message_of,
            message_bytes,
            succ_start,
            succ,
            pred_count,
        }
    }

    /// The messages waiting on message `m`, ascending and distinct.
    #[inline]
    pub(crate) fn successors(&self, m: usize) -> &[u32] {
        &self.succ[self.succ_start[m] as usize..self.succ_start[m + 1] as usize]
    }

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
        for (m, &body) in self.messages.iter().zip(&self.message_bytes) {
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
        for (m, &body) in self.messages.iter().zip(&self.message_bytes) {
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
    Ok(Schedule::new(
        units,
        unit_arcs,
        contributions
            .into_iter()
            .map(|set| set.into_iter().collect())
            .collect(),
        dest_inputs
            .into_iter()
            .map(|(d, set)| (d, set.into_iter().collect()))
            .collect(),
        topo_order,
        messages,
    ))
}

/// Greedily merges units into messages without creating wait-for cycles
/// at the message level.
///
/// The greedy rule: edges in ascending order; on each edge, first try all
/// of its units as one message; if that closes a cycle, add the units one
/// at a time in index order, each joining the edge's first message (by
/// lowest unit) that it can join without closing a cycle, or else
/// starting a new one. Messages come out ordered by their lowest unit.
///
/// No wait-for arc joins two units of one edge (an arc joins consecutive
/// hops of one path), so every state the loop passes through refines the
/// state with every edge fully merged, and a cycle in a refinement maps
/// onto a cycle of that full merge. So when the full merge is acyclic,
/// which one O(units + arcs) sort decides, every step of the loop
/// succeeds and the answer is one message per edge. Otherwise the loop
/// runs ([`merge_greedy`]).
fn merge_messages(units: &[Unit], unit_arcs: &[(usize, usize)]) -> Vec<Message> {
    debug_assert!(
        unit_arcs
            .iter()
            .all(|&(u, v)| units[u].edge != units[v].edge),
        "a wait-for arc joins two units of one edge"
    );
    let edges = EdgeUnits::new(units);
    let edge_arcs = edges.merged_arcs(unit_arcs);
    if topological_order(edges.len(), &edge_arcs).is_some() {
        let mut messages: Vec<Message> = edges
            .iter()
            .map(|edge_units| Message {
                edge: units[edge_units[0]].edge,
                units: edge_units.to_vec(),
            })
            .collect();
        messages.sort_by_key(|m| m.units[0]);
        return messages;
    }
    crate::telemetry::counter(crate::telemetry::names::SCHEDULE_MERGE_FALLBACKS, 1);
    merge_greedy(&edges, units, unit_arcs)
}

/// Unit indices grouped by edge: edges ascending, units ascending within
/// an edge.
struct EdgeUnits {
    /// Unit indices sorted by `(edge, index)`.
    units: Vec<usize>,
    /// `units[start[e]..start[e + 1]]` are edge `e`'s units.
    start: Vec<usize>,
    /// The edge (group) of each unit.
    edge_of: Vec<usize>,
}

impl EdgeUnits {
    fn new(units: &[Unit]) -> Self {
        let mut order: Vec<usize> = (0..units.len()).collect();
        // Stable, and linear on the already edge-ordered units that
        // `build_schedule` enumerates.
        order.sort_by_key(|&u| units[u].edge);
        let mut start = vec![0];
        let mut edge_of = vec![0; units.len()];
        for (i, &u) in order.iter().enumerate() {
            if i > 0 && units[u].edge != units[order[i - 1]].edge {
                start.push(i);
            }
            edge_of[u] = start.len() - 1;
        }
        if !order.is_empty() {
            start.push(order.len());
        }
        EdgeUnits {
            units: order,
            start,
            edge_of,
        }
    }

    /// Number of edges.
    fn len(&self) -> usize {
        self.start.len() - 1
    }

    fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.start.windows(2).map(|w| &self.units[w[0]..w[1]])
    }

    /// The wait-for arcs between edges with every edge fully merged.
    fn merged_arcs(&self, unit_arcs: &[(usize, usize)]) -> Vec<(usize, usize)> {
        unit_arcs
            .iter()
            .map(|&(u, v)| (self.edge_of[u], self.edge_of[v]))
            .filter(|&(a, b)| a != b)
            .collect()
    }
}

/// The greedy per-edge loop, for wait-for graphs whose full merge is
/// cyclic.
fn merge_greedy(edges: &EdgeUnits, units: &[Unit], unit_arcs: &[(usize, usize)]) -> Vec<Message> {
    let mut graph = ContractedGraph::new(units.len(), unit_arcs);
    let mut open: Vec<usize> = Vec::new();
    for edge_units in edges.iter() {
        if edge_units.len() < 2 || graph.try_merge(edge_units) {
            continue;
        }
        // `open` holds one unit of each of this edge's messages, in
        // creation order; the units not yet placed are still singletons.
        open.clear();
        open.push(edge_units[0]);
        for &u in &edge_units[1..] {
            let joined = open.iter().any(|&m| {
                let m = graph.find(m);
                graph.try_merge(&[m, u])
            });
            if !joined {
                open.push(u);
            }
        }
    }
    // Freeze: messages in order of their lowest unit.
    let mut message_of_root = vec![usize::MAX; units.len()];
    let mut messages: Vec<Message> = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        let root = graph.find(u);
        if message_of_root[root] == usize::MAX {
            message_of_root[root] = messages.len();
            messages.push(Message {
                edge: unit.edge,
                units: Vec::new(),
            });
        }
        messages[message_of_root[root]].units.push(u);
    }
    messages
}

const NIL: usize = usize::MAX;

/// The unit wait-for graph with merged messages contracted in place.
///
/// A union-find over units names each message by a root unit. Each
/// arc sits in its tail's out-list and its head's in-list (intrusive
/// linked lists), and a merge splices the merged messages' lists, so no
/// assignment is relabelled. `ord` is a topological order of the roots,
/// kept up to date across merges by Pearce & Kelly's dynamic
/// topological order: a merge only searches, and only reorders, the
/// messages whose positions lie between those of the messages it joins.
struct ContractedGraph {
    parent: Vec<usize>,
    size: Vec<usize>,
    ord: Vec<usize>,
    tail: Vec<usize>,
    head: Vec<usize>,
    next_out: Vec<usize>,
    next_in: Vec<usize>,
    /// `(first, last)` arc of each root's out-list and in-list.
    out_list: Vec<(usize, usize)>,
    in_list: Vec<(usize, usize)>,
    /// Per-search stamps: `member` marks the messages being joined,
    /// `seen` the messages a search has reached.
    member: Vec<u32>,
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<usize>,
    forward: Vec<usize>,
    backward: Vec<usize>,
    pool: Vec<usize>,
}

impl ContractedGraph {
    fn new(n: usize, arcs: &[(usize, usize)]) -> Self {
        let order =
            topological_order(n, arcs).expect("the unit wait-for graph is acyclic (Theorem 2)");
        let mut ord = vec![0; n];
        for (pos, &u) in order.iter().enumerate() {
            ord[u] = pos;
        }
        let mut g = ContractedGraph {
            parent: (0..n).collect(),
            size: vec![1; n],
            ord,
            tail: Vec::with_capacity(arcs.len()),
            head: Vec::with_capacity(arcs.len()),
            next_out: vec![NIL; arcs.len()],
            next_in: vec![NIL; arcs.len()],
            out_list: vec![(NIL, NIL); n],
            in_list: vec![(NIL, NIL); n],
            member: vec![0; n],
            seen: vec![0; n],
            stamp: 0,
            stack: Vec::new(),
            forward: Vec::new(),
            backward: Vec::new(),
            pool: Vec::new(),
        };
        for (a, &(u, v)) in arcs.iter().enumerate() {
            g.tail.push(u);
            g.head.push(v);
            append(&mut g.out_list[u], &mut g.next_out, a);
            append(&mut g.in_list[v], &mut g.next_in, a);
        }
        g
    }

    /// The root of `u`'s message (path halving).
    fn find(&mut self, mut u: usize) -> usize {
        while self.parent[u] != u {
            self.parent[u] = self.parent[self.parent[u]];
            u = self.parent[u];
        }
        u
    }

    /// Merges the messages rooted at `roots` (distinct, all on one edge)
    /// into one, unless that closes a cycle; returns whether it merged.
    ///
    /// With `lo` and `hi` the lowest and highest position among `roots`,
    /// the merge closes a cycle exactly when one root reaches another,
    /// and every message on such a path lies at a position up to `hi`.
    /// Otherwise the messages that reach a root from above `lo` move just
    /// below the merged message, and those a root reaches below `hi` just
    /// above it, inside the positions the affected messages held.
    fn try_merge(&mut self, roots: &[usize]) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &r in roots {
            self.member[r] = stamp;
            lo = lo.min(self.ord[r]);
            hi = hi.max(self.ord[r]);
        }
        self.forward.clear();
        self.stack.clear();
        self.stack.extend_from_slice(roots);
        while let Some(x) = self.stack.pop() {
            let mut a = self.out_list[x].0;
            while a != NIL {
                let t = self.find(self.head[a]);
                a = self.next_out[a];
                if self.member[t] == stamp {
                    return false;
                }
                if self.ord[t] > hi || self.seen[t] == stamp {
                    continue;
                }
                self.seen[t] = stamp;
                self.forward.push(t);
                self.stack.push(t);
            }
        }
        self.backward.clear();
        self.stack.extend_from_slice(roots);
        while let Some(x) = self.stack.pop() {
            let mut a = self.in_list[x].0;
            while a != NIL {
                let t = self.find(self.tail[a]);
                a = self.next_in[a];
                if self.member[t] == stamp || self.ord[t] < lo || self.seen[t] == stamp {
                    continue;
                }
                self.seen[t] = stamp;
                self.backward.push(t);
                self.stack.push(t);
            }
        }
        // Reorder inside the pool of affected positions: predecessors
        // lowest, then the merged message, successors highest.
        let ord = &mut self.ord;
        self.pool.clear();
        self.pool.extend(
            self.backward
                .iter()
                .chain(roots)
                .chain(&self.forward)
                .map(|&v| ord[v]),
        );
        self.pool.sort_unstable();
        self.backward.sort_unstable_by_key(|&v| ord[v]);
        self.forward.sort_unstable_by_key(|&v| ord[v]);
        for (&v, &pos) in self.backward.iter().zip(&self.pool) {
            ord[v] = pos;
        }
        let merged_pos = self.pool[self.backward.len()];
        let top = self.pool.len() - self.forward.len();
        for (&v, &pos) in self.forward.iter().zip(&self.pool[top..]) {
            ord[v] = pos;
        }
        let mut root = roots[0];
        for &r in &roots[1..] {
            root = self.union(root, r);
        }
        self.ord[root] = merged_pos;
        true
    }

    /// Joins two roots (the smaller message under the larger), splicing
    /// their arc lists; returns the new root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (root, child) = if self.size[a] >= self.size[b] {
            (a, b)
        } else {
            (b, a)
        };
        self.parent[child] = root;
        self.size[root] += self.size[child];
        splice(&mut self.out_list, &mut self.next_out, root, child);
        splice(&mut self.in_list, &mut self.next_in, root, child);
        root
    }
}

/// Appends arc `a` to the list `(first, last)`.
fn append(list: &mut (usize, usize), next: &mut [usize], a: usize) {
    if list.1 == NIL {
        list.0 = a;
    } else {
        next[list.1] = a;
    }
    list.1 = a;
}

/// Moves `child`'s list onto the end of `root`'s.
fn splice(lists: &mut [(usize, usize)], next: &mut [usize], root: usize, child: usize) {
    let (first, last) = std::mem::replace(&mut lists[child], (NIL, NIL));
    if first == NIL {
        return;
    }
    if lists[root].1 == NIL {
        lists[root].0 = first;
    } else {
        next[lists[root].1] = first;
    }
    lists[root].1 = last;
}

/// The greedy merge by definition: per edge, clone the assignment and
/// sort the whole unit graph for each candidate merge. The oracle the
/// one-shot and contracted merges are tested against.
#[cfg(test)]
fn merge_messages_oracle(units: &[Unit], unit_arcs: &[(usize, usize)]) -> Vec<Message> {
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

/// A synthetic unit graph for merge and slot tests: units on edges drawn
/// from `edge_pool`, interleaved in index order, and wait-for arcs that
/// run forward in a random ranking of the units, never between two units
/// of one edge, each kept with probability `density`. Arcs come sorted
/// and unique, as [`build_schedule`] produces them.
#[cfg(test)]
pub(crate) fn synthetic_units(
    seed: u64,
    edge_pool: &[DirectedEdge],
    max_units_per_edge: usize,
    density: f64,
) -> (Vec<Unit>, Vec<(usize, usize)>) {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut units = Vec::new();
    for &edge in edge_pool {
        for _ in 0..rng.random_range(1..=max_units_per_edge) {
            units.push(Unit {
                edge,
                content: UnitContent::Raw(edge.0),
                size_bytes: RAW_VALUE_BYTES,
            });
        }
    }
    units.shuffle(&mut rng);
    let mut rank: Vec<usize> = (0..units.len()).collect();
    rank.shuffle(&mut rng);
    let mut arcs = Vec::new();
    for u in 0..units.len() {
        for v in 0..units.len() {
            if rank[u] < rank[v]
                && units[u].edge != units[v].edge
                && rng.random_range(0.0..1.0) < density
            {
                arcs.push((u, v));
            }
        }
    }
    (units, arcs)
}

/// A schedule over [`synthetic_units`], merged by [`merge_messages`],
/// for slot tests; it carries no contributions or destination inputs.
#[cfg(test)]
pub(crate) fn synthetic_schedule(
    seed: u64,
    edge_pool: &[DirectedEdge],
    max_units_per_edge: usize,
    density: f64,
) -> Schedule {
    let (units, unit_arcs) = synthetic_units(seed, edge_pool, max_units_per_edge, density);
    let topo_order = topological_order(units.len(), &unit_arcs).expect("ranked arcs are acyclic");
    let messages = merge_messages(&units, &unit_arcs);
    let contributions = vec![Vec::new(); units.len()];
    Schedule::new(
        units,
        unit_arcs,
        contributions,
        BTreeMap::new(),
        topo_order,
        messages,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use crate::workload::{generate_workload, SourceSelection, WorkloadConfig};
    use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};
    use proptest::prelude::*;

    const MODES: [RoutingMode; 3] = [
        RoutingMode::ShortestPathTrees,
        RoutingMode::SharedSpanningTree,
        RoutingMode::SteinerTrees,
    ];

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
        assert_eq!(messages, merge_messages_oracle(&units, &arcs));
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
    fn full_merge_is_acyclic(units: &[Unit], arcs: &[(usize, usize)]) -> bool {
        let edges = EdgeUnits::new(units);
        topological_order(edges.len(), &edges.merged_arcs(arcs)).is_some()
    }

    /// `edges` edges `(e, e + 1)`, ascending.
    fn edge_chain(edges: u32) -> Vec<DirectedEdge> {
        (0..edges).map(|e| (NodeId(e), NodeId(e + 1))).collect()
    }

    /// Checks the stored message graph against its definition: each
    /// unit's message and each message's bytes as the merge left them,
    /// and exactly the distinct message pairs that unit arcs join.
    fn assert_graph_matches_definition(schedule: &Schedule) {
        let mut message_of = vec![0u32; schedule.units.len()];
        for (m, msg) in schedule.messages.iter().enumerate() {
            let bytes: u32 = msg
                .units
                .iter()
                .map(|&u| schedule.units[u].size_bytes)
                .sum();
            assert_eq!(schedule.message_bytes[m], bytes, "bytes of message {m}");
            for &u in &msg.units {
                message_of[u] = m as u32;
            }
        }
        assert_eq!(schedule.message_of, message_of);
        let mut preds: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); schedule.messages.len()];
        for &(u, v) in &schedule.unit_arcs {
            let (a, b) = (message_of[u], message_of[v]);
            if a != b {
                preds[b as usize].insert(a);
                assert!(
                    schedule.successors(a as usize).contains(&b),
                    "unit arc {u} -> {v} joins message {a} to {b}, which is not in the graph"
                );
            }
        }
        let mut arcs = 0;
        for (m, distinct) in preds.iter().enumerate() {
            assert_eq!(
                schedule.pred_count[m] as usize,
                distinct.len(),
                "message {m}"
            );
            let succ = schedule.successors(m);
            assert!(succ.windows(2).all(|w| w[0] < w[1]), "{succ:?} ascending");
            assert!(!succ.contains(&(m as u32)), "message {m} waits on itself");
            arcs += succ.len();
        }
        assert_eq!(arcs, preds.iter().map(BTreeSet::len).sum::<usize>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random unit graphs, most of whose full merges are cyclic,
        /// the one-shot and contracted merges choose the oracle's exact
        /// partition.
        #[test]
        fn merge_matches_the_oracle_on_synthetic_graphs(
            seed in 0u64..1_000_000,
            edges in 2u32..7,
            max_units in 1usize..6,
            density in 0.02f64..0.5,
        ) {
            let (units, arcs) = synthetic_units(seed, &edge_chain(edges), max_units, density);
            prop_assert_eq!(
                merge_messages(&units, &arcs),
                merge_messages_oracle(&units, &arcs)
            );
        }

        /// The stored message graph matches its definition on real plans
        /// in every routing mode and on synthetic schedules, many of them
        /// split by the merge fallback.
        #[test]
        fn message_graph_matches_its_definition(
            place_seed in 0u64..10_000,
            wl_seed in 0u64..10_000,
            destinations in 4usize..16,
            edges in 2u32..7,
            max_units in 1usize..6,
            density in 0.02f64..0.5,
        ) {
            let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
            let spec = generate_workload(&net, &WorkloadConfig::paper_default(destinations, 10, wl_seed));
            for mode in MODES {
                let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
                let plan = GlobalPlan::build(&net, &spec, &routing);
                assert_graph_matches_definition(&build_schedule(&spec, &plan).expect("schedulable"));
            }
            assert_graph_matches_definition(&synthetic_schedule(
                wl_seed,
                &edge_chain(edges),
                max_units,
                density,
            ));
        }

        /// Real plans in every routing mode: the same messages as the
        /// oracle, whichever path the merge takes.
        #[test]
        fn merge_matches_the_oracle_on_real_plans(
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
                prop_assert_eq!(
                    &schedule.messages,
                    &merge_messages_oracle(&schedule.units, &schedule.unit_arcs)
                );
            }
        }
    }

    /// The synthetic cases exercise both paths: some full merges are
    /// acyclic and take the one-shot answer, others need the greedy loop,
    /// and in some of those the loop splits an edge. All match the
    /// oracle, and every split schedule's message graph matches its
    /// definition.
    #[test]
    fn synthetic_graphs_reach_both_merge_paths() {
        let (mut one_shot, mut fallback, mut split) = (0, 0, 0);
        for seed in 0..400u64 {
            let edges = 2 + (seed % 5) as u32;
            let density = [0.02, 0.08, 0.2, 0.4][(seed % 4) as usize];
            let (units, arcs) = synthetic_units(seed, &edge_chain(edges), 5, density);
            let merged = merge_messages(&units, &arcs);
            assert_eq!(merged, merge_messages_oracle(&units, &arcs), "seed {seed}");
            if full_merge_is_acyclic(&units, &arcs) {
                one_shot += 1;
            } else {
                fallback += 1;
                if merged.len() > edges as usize {
                    split += 1;
                    let schedule = synthetic_schedule(seed, &edge_chain(edges), 5, density);
                    assert_graph_matches_definition(&schedule);
                }
            }
        }
        assert!(one_shot >= 40, "{one_shot} one-shot cases");
        assert!(fallback >= 40, "{fallback} fallback cases");
        assert!(split >= 20, "{split} fallback cases split an edge");
    }

    /// Steiner trees over a uniform 100-node workload: the full merge is
    /// cyclic, and the greedy loop splits edges, exactly as the oracle.
    #[test]
    fn real_plans_that_need_the_fallback_match_the_oracle() {
        for seed in 0..2u64 {
            let net =
                Network::with_default_energy(Deployment::scaled_series(&[100], seed).remove(0));
            let cfg = WorkloadConfig {
                selection: SourceSelection::Uniform,
                ..WorkloadConfig::paper_default(20, 20, seed)
            };
            let spec = generate_workload(&net, &cfg);
            let routing = RoutingTables::build(
                &net,
                &spec.source_to_destinations(),
                RoutingMode::SteinerTrees,
            );
            let plan = GlobalPlan::build(&net, &spec, &routing);
            let schedule = build_schedule(&spec, &plan).expect("schedulable");
            let (units, arcs) = (&schedule.units, &schedule.unit_arcs);
            assert!(!full_merge_is_acyclic(units, arcs));
            assert!(schedule.max_messages_on_any_edge() > 1);
            assert_eq!(schedule.messages, merge_messages_oracle(units, arcs));
            assert_graph_matches_definition(&schedule);
        }
    }

    #[test]
    fn an_acyclic_full_merge_is_one_message_per_edge() {
        // u0(A) → u1(B) and u2(A) → u3(B): merging each edge whole leaves
        // the single arc A → B.
        let edge_a = (NodeId(0), NodeId(1));
        let edge_b = (NodeId(1), NodeId(2));
        let mk = |edge| Unit {
            edge,
            content: UnitContent::Raw(NodeId(9)),
            size_bytes: 4,
        };
        let units = vec![mk(edge_a), mk(edge_b), mk(edge_a), mk(edge_b)];
        let arcs = vec![(0usize, 1usize), (2, 3)];
        assert!(full_merge_is_acyclic(&units, &arcs));
        let messages = merge_messages(&units, &arcs);
        assert_eq!(
            messages,
            vec![
                Message {
                    edge: edge_a,
                    units: vec![0, 2]
                },
                Message {
                    edge: edge_b,
                    units: vec![1, 3]
                },
            ]
        );
        assert_eq!(messages, merge_messages_oracle(&units, &arcs));
    }
}
