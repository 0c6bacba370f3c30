//! Temporal suppression and dynamic override (§3, "Continuous Control
//! with Suppression").
//!
//! With temporal suppression a source transmits only the *change* in its
//! value (when it exceeds a threshold); for linear functions such as
//! weighted sums the changes aggregate exactly like the values themselves.
//! The installed ("default") plan is optimized for the all-sources-change
//! case, so on a round where few values changed it can be suboptimal: the
//! paper's example sends two raw deltas in two units where the default
//! plan would send two partial records plus a raw (three units).
//!
//! The **override** mechanism lets a node deviate at runtime: instead of
//! pre-aggregating a raw delta for destinations `d1, d2, …`, it may keep
//! forwarding it raw — with the consequence that the delta stays raw *all
//! the way* to those destinations, because only this node stores the
//! pre-aggregation state. Three policies from the paper's evaluation:
//!
//! * **aggressive** — override whenever locally no worse,
//! * **medium** — override when locally ~25% cheaper,
//! * **conservative** — override only when locally ≥2× cheaper.
//!
//! Figure 7 compares the policies' per-round energy against the default
//! plan applied to the same changed values ("full recomputation", which
//! is optimal when the change probability is 1).
//!
//! Like the compiled executor ([`crate::exec`]), the simulator interns
//! everything — sources, edges, raw units, record groups, transition
//! decisions — into dense `u32` ids at construction, so the per-round
//! cost evaluation runs over flat arrays and a reusable
//! [`SuppressionScratch`] with zero heap allocation. Figure 7 calls it
//! hundreds of times per plan.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use m2m_graph::NodeId;
use m2m_netsim::{Network, RoutingTables};

use crate::agg::RAW_VALUE_BYTES;
use crate::edge_opt::{AggGroup, DirectedEdge};
use crate::metrics::RoundCost;
use crate::plan::GlobalPlan;
use crate::spec::AggregationSpec;

/// Runtime override policy (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OverridePolicy {
    /// Never override: execute the default plan on the changed values.
    None,
    /// Override whenever raw forwarding is locally no more expensive.
    Aggressive,
    /// Override when raw forwarding is locally ≥25% cheaper.
    Medium,
    /// Override only when raw forwarding is locally ≥2× cheaper.
    Conservative,
}

impl OverridePolicy {
    /// `(marginal_aware, factor)`: raw forwarding must satisfy
    /// `raw_cost * factor ≤ agg_cost` to trigger an override, where
    /// `agg_cost` is the *marginal* record cost (shared records are free)
    /// for marginal-aware policies, and the full record cost for the
    /// naive aggressive policy — which is what makes aggressive overrides
    /// backfire when other contributors would have shared the record
    /// (the downstream-opportunity loss the paper describes).
    fn decision(self) -> (bool, f64) {
        match self {
            OverridePolicy::None => (true, f64::INFINITY),
            OverridePolicy::Aggressive => (false, 1.0),
            OverridePolicy::Medium => (true, 1.0),
            OverridePolicy::Conservative => (true, 2.0),
        }
    }

    /// Display name matching the paper's Figure 7 legend.
    pub fn name(self) -> &'static str {
        match self {
            OverridePolicy::None => "Recompute",
            OverridePolicy::Aggressive => "Aggressive",
            OverridePolicy::Medium => "Medium",
            OverridePolicy::Conservative => "Conservative",
        }
    }
}

/// Where the pre-aggregation state for a value lives (§3's trade-off:
/// "A more flexible alternative is to store the pre-aggregation function
/// of a value at every node on the multicast path from the source to the
/// destination, but more state would have to be stored in the network").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatePlacement {
    /// Only the default transition node holds `w_{d,s}` (the paper's
    /// default): an overridden delta travels raw all the way to its
    /// destinations.
    TransitionOnly,
    /// Every node on the path holds `w_{d,s}`: an overridden delta can
    /// rejoin a downstream record, at the cost of more in-network state
    /// (quantified by [`SuppressionSim::state_entries`]).
    EveryNode,
}

/// Sentinel for "no transition" / "no record" in the dense pair layout.
const NONE_ID: u32 = u32::MAX;

/// One `(source, destination)` pair lowered to dense ids. Ranges index
/// the simulator's flat pools.
#[derive(Clone, Debug)]
struct DensePair {
    /// Slot into [`SuppressionSim::sources`].
    source: u32,
    /// Range into `raw_pool`: raw units under the default plan.
    raw_units: (u32, u32),
    /// Transition group id, or [`NONE_ID`] if the pair never transitions.
    group: u32,
    /// Record id of the pair's first (forming) record, or [`NONE_ID`].
    first_rec: u32,
    /// Range into `chain_pool`: the record chain from the transition on.
    chain: (u32, u32),
    /// Range into `override_pool`: raw units of the override route.
    /// Aligned with `chain` — `chain[i]` crosses `override[i]`'s edge.
    overrides: (u32, u32),
}

/// One `(transition node, source)` override decision point. All pairs in
/// a group share the source, so the whole group is active exactly when
/// that source changed — its record set and raw fan-out are fixed at
/// construction.
#[derive(Clone, Debug)]
struct TransitionGroup {
    /// Slot into [`SuppressionSim::sources`].
    source: u32,
    /// Range into `group_rec_pool`: distinct first records the source
    /// feeds here, in ascending `(edge, group)` order.
    records: (u32, u32),
    /// Distinct outgoing edges raw forwarding would use.
    raw_out_count: u32,
}

/// Precomputed suppression executor for one plan. See the module docs
/// for the dense layout; the legacy BTreeMap-per-round evaluation was
/// replaced by flat-array passes over a [`SuppressionScratch`].
#[derive(Clone, Debug)]
pub struct SuppressionSim {
    /// All sources, ascending; defines the changed-mask slot order.
    sources: Vec<NodeId>,
    pairs: Vec<DensePair>,
    /// Transition groups in ascending `(node, source)` order — the
    /// decision iteration order of the reference three-pass model.
    groups: Vec<TransitionGroup>,
    group_rec_pool: Vec<u32>,
    /// Raw unit ids, per pair in path order.
    raw_pool: Vec<u32>,
    /// Record ids, per pair in chain order.
    chain_pool: Vec<u32>,
    /// Raw unit ids of override routes, per pair in path order.
    override_pool: Vec<u32>,
    /// Per raw unit id: its edge id. Raw unit ids ascend in
    /// `(edge, source)` order, deduplicating multicast sharing.
    raw_unit_edge: Vec<u32>,
    /// Per record id: its edge id. Record ids ascend in `(edge, group)`
    /// order.
    rec_edge: Vec<u32>,
    /// Per record id: the partial-record byte size of its destination.
    rec_bytes: Vec<u32>,
    /// All directed edges any unit can cross, ascending; the final cost
    /// accumulation runs in this (the reference `BTreeMap`) order.
    edges: Vec<DirectedEdge>,
    header_bytes: u32,
    tx_fixed_uj: f64,
    rx_fixed_uj: f64,
    tx_per_byte: f64,
    rx_per_byte: f64,
}

/// Reusable per-round scratch for [`SuppressionSim`]: allocate once, run
/// any number of rounds allocation-free.
#[derive(Clone, Debug)]
pub struct SuppressionScratch {
    /// Which sources changed this round, by source slot.
    changed: Vec<bool>,
    /// Active pre-aggregated inputs per forming record.
    forming: Vec<u32>,
    /// Override decision per transition group.
    overridden: Vec<bool>,
    /// Record activity per record id.
    active_rec: Vec<bool>,
    /// Raw activity per raw unit id.
    raw_active: Vec<bool>,
    /// Accumulated body bytes per edge id.
    edge_body: Vec<u32>,
    /// Accumulated unit count per edge id.
    edge_units: Vec<usize>,
}

impl SuppressionSim {
    /// Prepares the simulator. The spec's functions must support delta
    /// maintenance (checked).
    ///
    /// # Panics
    /// Panics if any function cannot be maintained from deltas.
    pub fn new(
        network: &Network,
        spec: &AggregationSpec,
        routing: &RoutingTables,
        plan: &GlobalPlan,
    ) -> Self {
        let mut record_bytes_of: BTreeMap<NodeId, u32> = BTreeMap::new();
        for (d, f) in spec.functions() {
            assert!(
                f.kind().supports_delta_maintenance(),
                "temporal suppression requires delta-maintainable functions; {d} has {:?}",
                f.kind()
            );
            record_bytes_of.insert(d, f.partial_record_bytes());
        }

        // Build-time view of one pair, interned below.
        struct PairPlan {
            source: NodeId,
            raw_edges: Vec<DirectedEdge>,
            transition: Option<(NodeId, (DirectedEdge, AggGroup))>,
            record_chain: Vec<(DirectedEdge, AggGroup)>,
            override_raw_edges: Vec<DirectedEdge>,
        }

        let mut pair_plans = Vec::new();
        for (s, tree) in routing.trees() {
            for &d in tree.destinations() {
                if !spec.is_source_of(s, d) {
                    continue;
                }
                let path = tree.path_to(d).expect("tree spans destination");
                let mut raw_edges = Vec::new();
                let mut transition = None;
                let mut record_chain = Vec::new();
                let mut override_raw_edges = Vec::new();
                let mut raw = true;
                for (idx, hop) in path.windows(2).enumerate() {
                    let edge = (hop[0], hop[1]);
                    let sol = plan.solution(edge).expect("plan covers edge");
                    let group = AggGroup {
                        destination: d,
                        suffix: path[idx + 1..].into(),
                    };
                    if raw && sol.transmits_raw(s) {
                        raw_edges.push(edge);
                    } else {
                        if raw {
                            transition = Some((hop[0], (edge, group.clone())));
                            override_raw_edges =
                                path[idx..].windows(2).map(|w| (w[0], w[1])).collect();
                            raw = false;
                        }
                        record_chain.push((edge, group));
                    }
                }
                pair_plans.push(PairPlan {
                    source: s,
                    raw_edges,
                    transition,
                    record_chain,
                    override_raw_edges,
                });
            }
        }

        // Intern: sources, edges, raw units (edge, source), records
        // (edge, group). All id spaces ascend in their key order, so
        // id-order iteration reproduces the reference BTree orders.
        let sources = spec.all_sources();
        let slot_of = |s: NodeId| -> u32 {
            sources
                .binary_search(&s)
                .expect("pair source is a spec source") as u32
        };

        let mut edge_keys: BTreeSet<DirectedEdge> = BTreeSet::new();
        let mut raw_keys: BTreeSet<(DirectedEdge, NodeId)> = BTreeSet::new();
        let mut rec_keys: BTreeSet<(DirectedEdge, AggGroup)> = BTreeSet::new();
        for p in &pair_plans {
            for &e in &p.raw_edges {
                edge_keys.insert(e);
                raw_keys.insert((e, p.source));
            }
            for &e in &p.override_raw_edges {
                edge_keys.insert(e);
                raw_keys.insert((e, p.source));
            }
            for (e, g) in &p.record_chain {
                edge_keys.insert(*e);
                rec_keys.insert((*e, g.clone()));
            }
        }
        let edges: Vec<DirectedEdge> = edge_keys.into_iter().collect();
        let edge_id =
            |e: DirectedEdge| -> u32 { edges.binary_search(&e).expect("edge interned") as u32 };
        let raw_list: Vec<(DirectedEdge, NodeId)> = raw_keys.into_iter().collect();
        let raw_id = |e: DirectedEdge, s: NodeId| -> u32 {
            raw_list.binary_search(&(e, s)).expect("raw unit interned") as u32
        };
        let rec_list: Vec<(DirectedEdge, AggGroup)> = rec_keys.into_iter().collect();
        let rec_id = |key: &(DirectedEdge, AggGroup)| -> u32 {
            rec_list.binary_search(key).expect("record interned") as u32
        };
        let raw_unit_edge: Vec<u32> = raw_list.iter().map(|&(e, _)| edge_id(e)).collect();
        let rec_edge: Vec<u32> = rec_list.iter().map(|&(e, _)| edge_id(e)).collect();
        let rec_bytes: Vec<u32> = rec_list
            .iter()
            .map(|(_, g)| record_bytes_of[&g.destination])
            .collect();

        // Transition groups per (node, source), ascending.
        let mut group_map: BTreeMap<(NodeId, NodeId), (BTreeSet<u32>, BTreeSet<DirectedEdge>)> =
            BTreeMap::new();
        for p in &pair_plans {
            if let Some((node, ref first)) = p.transition {
                let entry = group_map.entry((node, p.source)).or_default();
                entry.0.insert(rec_id(first));
                if let Some(&edge) = p.override_raw_edges.first() {
                    entry.1.insert(edge);
                }
            }
        }
        let group_ids: BTreeMap<(NodeId, NodeId), u32> = group_map
            .keys()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        let mut groups = Vec::with_capacity(group_map.len());
        let mut group_rec_pool: Vec<u32> = Vec::new();
        for (&(_, source), (records, raw_out)) in &group_map {
            let start = group_rec_pool.len() as u32;
            group_rec_pool.extend(records.iter().copied());
            groups.push(TransitionGroup {
                source: slot_of(source),
                records: (start, group_rec_pool.len() as u32),
                raw_out_count: raw_out.len() as u32,
            });
        }

        // Dense pairs over flat pools.
        let mut pairs = Vec::with_capacity(pair_plans.len());
        let mut raw_pool: Vec<u32> = Vec::new();
        let mut chain_pool: Vec<u32> = Vec::new();
        let mut override_pool: Vec<u32> = Vec::new();
        for p in &pair_plans {
            let raw_start = raw_pool.len() as u32;
            raw_pool.extend(p.raw_edges.iter().map(|&e| raw_id(e, p.source)));
            let chain_start = chain_pool.len() as u32;
            chain_pool.extend(p.record_chain.iter().map(&rec_id));
            let override_start = override_pool.len() as u32;
            override_pool.extend(p.override_raw_edges.iter().map(|&e| raw_id(e, p.source)));
            let (group, first_rec) = match &p.transition {
                Some((node, first)) => (group_ids[&(*node, p.source)], rec_id(first)),
                None => (NONE_ID, NONE_ID),
            };
            pairs.push(DensePair {
                source: slot_of(p.source),
                raw_units: (raw_start, raw_pool.len() as u32),
                group,
                first_rec,
                chain: (chain_start, chain_pool.len() as u32),
                overrides: (override_start, override_pool.len() as u32),
            });
        }

        crate::m2m_log!(
            crate::telemetry::Level::Debug,
            "suppression sim compiled: {} pairs, {} edges, {} raw units, {} records, {} transition groups",
            pairs.len(),
            edges.len(),
            raw_list.len(),
            rec_list.len(),
            groups.len()
        );

        let e = network.energy();
        SuppressionSim {
            sources,
            pairs,
            groups,
            group_rec_pool,
            raw_pool,
            chain_pool,
            override_pool,
            raw_unit_edge,
            rec_edge,
            rec_bytes,
            edges,
            header_bytes: e.header_bytes,
            tx_fixed_uj: e.tx_fixed_uj,
            rx_fixed_uj: e.rx_fixed_uj,
            tx_per_byte: e.tx_uj_per_byte,
            rx_per_byte: e.rx_uj_per_byte,
        }
    }

    /// Allocates a scratch arena sized for this simulator.
    pub fn scratch(&self) -> SuppressionScratch {
        SuppressionScratch {
            changed: vec![false; self.sources.len()],
            forming: vec![0; self.rec_edge.len()],
            overridden: vec![false; self.groups.len()],
            active_rec: vec![false; self.rec_edge.len()],
            raw_active: vec![false; self.raw_unit_edge.len()],
            edge_body: vec![0; self.edges.len()],
            edge_units: vec![0; self.edges.len()],
        }
    }

    /// Cost of one round in which exactly `changed` sources transmit
    /// deltas, under the given override policy with the paper's default
    /// state placement ([`StatePlacement::TransitionOnly`]). Assumes
    /// (like the paper's experiments) that all units on an edge merge
    /// into one message.
    pub fn round_cost(&self, changed: &BTreeSet<NodeId>, policy: OverridePolicy) -> RoundCost {
        self.round_cost_with_placement(changed, policy, StatePlacement::TransitionOnly)
    }

    /// Like [`SuppressionSim::round_cost`] with an explicit state
    /// placement. Under [`StatePlacement::EveryNode`] an overridden delta
    /// rejoins its default record chain at the first point where the
    /// record is active anyway (another contributor changed), recovering
    /// the downstream aggregation opportunities the default placement
    /// loses.
    pub fn round_cost_with_placement(
        &self,
        changed: &BTreeSet<NodeId>,
        policy: OverridePolicy,
        placement: StatePlacement,
    ) -> RoundCost {
        let mut scratch = self.scratch();
        self.round_cost_with(changed, policy, placement, &mut scratch)
    }

    /// Allocation-free variant: reuses `scratch` across rounds. This is
    /// the hot path: after the changed-source mask, three passes over
    /// flat arrays, no allocation.
    ///
    /// # Panics
    /// Panics if `scratch` was sized for a different simulator.
    pub fn round_cost_with(
        &self,
        changed: &BTreeSet<NodeId>,
        policy: OverridePolicy,
        placement: StatePlacement,
        scratch: &mut SuppressionScratch,
    ) -> RoundCost {
        assert_eq!(
            scratch.changed.len(),
            self.sources.len(),
            "scratch/sim mismatch"
        );
        for (slot, s) in self.sources.iter().enumerate() {
            scratch.changed[slot] = changed.contains(s);
        }
        let range = |r: (u32, u32)| r.0 as usize..r.1 as usize;

        // Pass A: default-plan activity — how many *active* inputs does
        // each freshly formed record have (pre-aggregated deltas at its
        // forming node)? Chained records inherit activity.
        scratch.forming.fill(0);
        for p in &self.pairs {
            if p.first_rec != NONE_ID && scratch.changed[p.source as usize] {
                scratch.forming[p.first_rec as usize] += 1;
            }
        }

        // Pass B: override decisions, one per (node, source), in
        // ascending (node, source) order.
        let (marginal_aware, factor) = policy.decision();
        for (g, group) in self.groups.iter().enumerate() {
            if !scratch.changed[group.source as usize] {
                scratch.overridden[g] = false;
                continue;
            }
            // Cost of aggregating here. Marginal-aware policies treat
            // records other changed values already activate as free; the
            // naive aggressive policy charges every record in full.
            let agg_cost: f64 = self.group_rec_pool[range(group.records)]
                .iter()
                .map(|&rec| {
                    if marginal_aware && scratch.forming[rec as usize] > 1 {
                        0.0
                    } else {
                        f64::from(self.rec_bytes[rec as usize])
                    }
                })
                .sum();
            let raw_cost = f64::from(RAW_VALUE_BYTES) * f64::from(group.raw_out_count);
            scratch.overridden[g] = raw_cost * factor <= agg_cost;
        }

        // Pass C: final activity. Records first — the chains an
        // EveryNode-placement override may rejoin — then raw units,
        // deduplicated per (edge, source) by the raw-unit interning
        // (multicast sharing).
        scratch.active_rec.fill(false);
        scratch.raw_active.fill(false);
        for p in &self.pairs {
            if !scratch.changed[p.source as usize] {
                continue;
            }
            if p.group != NONE_ID && !scratch.overridden[p.group as usize] {
                for &rec in &self.chain_pool[range(p.chain)] {
                    scratch.active_rec[rec as usize] = true;
                }
            }
        }
        for p in &self.pairs {
            if !scratch.changed[p.source as usize] {
                continue;
            }
            for &ru in &self.raw_pool[range(p.raw_units)] {
                scratch.raw_active[ru as usize] = true;
            }
            if p.group != NONE_ID && scratch.overridden[p.group as usize] {
                // With state only at the transition node, the delta
                // stays raw all the way. With state everywhere it can
                // rejoin the first already-active record of its chain
                // (chain[i] crosses the same hop as overrides[i]).
                let chain = &self.chain_pool[range(p.chain)];
                let overrides = &self.override_pool[range(p.overrides)];
                let rejoin_at = match placement {
                    StatePlacement::TransitionOnly => overrides.len(),
                    StatePlacement::EveryNode => chain
                        .iter()
                        .position(|&rec| scratch.active_rec[rec as usize])
                        .unwrap_or(overrides.len()),
                };
                for &ru in &overrides[..rejoin_at] {
                    scratch.raw_active[ru as usize] = true;
                }
            }
        }

        // Cost: one message per edge with ≥1 active unit, accumulated in
        // ascending edge order (the reference BTreeMap order).
        scratch.edge_body.fill(0);
        scratch.edge_units.fill(0);
        for (ru, &active) in scratch.raw_active.iter().enumerate() {
            if active {
                let e = self.raw_unit_edge[ru] as usize;
                scratch.edge_body[e] += RAW_VALUE_BYTES;
                scratch.edge_units[e] += 1;
            }
        }
        for (rec, &active) in scratch.active_rec.iter().enumerate() {
            if active {
                let e = self.rec_edge[rec] as usize;
                scratch.edge_body[e] += self.rec_bytes[rec];
                scratch.edge_units[e] += 1;
            }
        }
        let mut cost = RoundCost::default();
        for (body, &units) in scratch.edge_body.iter().zip(&scratch.edge_units) {
            if units == 0 {
                continue;
            }
            let on_air = f64::from(self.header_bytes + body);
            cost.tx_uj += self.tx_fixed_uj + on_air * self.tx_per_byte;
            cost.rx_uj += self.rx_fixed_uj + on_air * self.rx_per_byte;
            cost.messages += 1;
            cost.units += units;
            cost.payload_bytes += u64::from(*body);
        }
        cost
    }

    /// Number of pre-aggregation state entries the network must store
    /// under a placement — the "more state" side of the §3 trade-off.
    pub fn state_entries(&self, placement: StatePlacement) -> usize {
        self.pairs
            .iter()
            .map(|p| match (p.group, placement) {
                (NONE_ID, _) => 0,
                (_, StatePlacement::TransitionOnly) => 1,
                // One entry per node from the transition to (but not
                // including) the destination.
                (_, StatePlacement::EveryNode) => (p.overrides.1 - p.overrides.0) as usize,
            })
            .sum()
    }

    /// Average per-round cost over `rounds` rounds in which each source
    /// changes independently with probability `change_probability`.
    pub fn average_cost(
        &self,
        spec: &AggregationSpec,
        change_probability: f64,
        rounds: u32,
        policy: OverridePolicy,
        seed: u64,
    ) -> RoundCost {
        assert!((0.0..=1.0).contains(&change_probability));
        let mut rng = StdRng::seed_from_u64(seed);
        let sources = spec.all_sources();
        let mut scratch = self.scratch();
        let mut changed: BTreeSet<NodeId> = BTreeSet::new();
        let mut total = RoundCost::default();
        for _ in 0..rounds {
            changed.clear();
            changed.extend(
                sources
                    .iter()
                    .copied()
                    .filter(|_| rng.random_range(0.0..1.0) < change_probability),
            );
            total.accumulate(&self.round_cost_with(
                &changed,
                policy,
                StatePlacement::TransitionOnly,
                &mut scratch,
            ));
        }
        RoundCost {
            tx_uj: total.tx_uj / f64::from(rounds),
            rx_uj: total.rx_uj / f64::from(rounds),
            messages: total.messages / rounds as usize,
            units: total.units / rounds as usize,
            payload_bytes: total.payload_bytes / u64::from(rounds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use crate::schedule::build_schedule;
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_netsim::{Deployment, RoutingMode};

    fn setup() -> (Network, AggregationSpec, RoutingTables, GlobalPlan) {
        let net = Network::with_default_energy(Deployment::great_duck_island(3));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(12, 10, 7));
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        (net, spec, routing, plan)
    }

    #[test]
    fn full_change_matches_schedule_cost() {
        // With every source changed and no overrides, the suppression
        // model must reproduce the static schedule's cost (both assume
        // full per-edge merging).
        let (net, spec, routing, plan) = setup();
        let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
        let all: BTreeSet<NodeId> = spec.all_sources().into_iter().collect();
        let supp = sim.round_cost(&all, OverridePolicy::None);
        let schedule = build_schedule(&spec, &plan).unwrap();
        if schedule.max_messages_on_any_edge() == 1 {
            let sched = schedule.round_cost(net.energy());
            assert_eq!(supp.messages, sched.messages);
            assert_eq!(supp.payload_bytes, sched.payload_bytes);
            assert!((supp.total_uj() - sched.total_uj()).abs() < 1e-6);
        }
    }

    #[test]
    fn no_change_costs_nothing() {
        let (net, spec, routing, plan) = setup();
        let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
        let cost = sim.round_cost(&BTreeSet::new(), OverridePolicy::Aggressive);
        assert_eq!(cost, RoundCost::default());
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // Interleaving rounds through one scratch must give the same
        // costs as fresh evaluations — the scratch resets fully per call.
        let (net, spec, routing, plan) = setup();
        let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
        let sources = spec.all_sources();
        let rounds: Vec<BTreeSet<NodeId>> = vec![
            sources.iter().copied().take(5).collect(),
            BTreeSet::new(),
            sources.iter().copied().collect(),
            sources.iter().copied().step_by(3).collect(),
        ];
        let mut scratch = sim.scratch();
        for changed in &rounds {
            for policy in [
                OverridePolicy::None,
                OverridePolicy::Aggressive,
                OverridePolicy::Medium,
            ] {
                for placement in [StatePlacement::TransitionOnly, StatePlacement::EveryNode] {
                    let fresh = sim.round_cost_with_placement(changed, policy, placement);
                    let reused = sim.round_cost_with(changed, policy, placement, &mut scratch);
                    assert_eq!(fresh, reused, "{policy:?}/{placement:?}");
                }
            }
        }
    }

    #[test]
    fn fewer_changes_cost_less() {
        let (net, spec, routing, plan) = setup();
        let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
        let low = sim.average_cost(&spec, 0.05, 20, OverridePolicy::None, 1);
        let high = sim.average_cost(&spec, 0.8, 20, OverridePolicy::None, 1);
        assert!(low.total_uj() < high.total_uj());
    }

    #[test]
    fn override_helps_at_low_change_probability() {
        // The paper: "When change probability is low, override policies
        // earn savings of 10–15%".
        let (net, spec, routing, plan) = setup();
        let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
        let base = sim.average_cost(&spec, 0.05, 50, OverridePolicy::None, 2);
        let aggressive = sim.average_cost(&spec, 0.05, 50, OverridePolicy::Aggressive, 2);
        assert!(
            aggressive.total_uj() <= base.total_uj(),
            "aggressive {:.1} should not exceed base {:.1} at p=0.05",
            aggressive.total_uj(),
            base.total_uj()
        );
    }

    #[test]
    fn policies_are_ordered_by_eagerness() {
        // Aggressive overrides at least as often as medium, medium at
        // least as often as conservative — measured indirectly: at a low
        // change probability their unit counts are weakly decreasing in
        // caution... we assert only the well-defined relation: None never
        // overrides, so any policy's message count is ≤ None's.
        let (net, spec, routing, plan) = setup();
        let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
        let changed: BTreeSet<NodeId> = spec.all_sources().into_iter().take(3).collect();
        let base = sim.round_cost(&changed, OverridePolicy::None);
        for p in [
            OverridePolicy::Aggressive,
            OverridePolicy::Medium,
            OverridePolicy::Conservative,
        ] {
            let c = sim.round_cost(&changed, p);
            assert!(c.messages <= base.messages + 3, "{}", p.name());
        }
    }

    #[test]
    fn every_node_state_never_costs_more() {
        // With pre-aggregation state everywhere, an overridden delta
        // rejoins active record chains downstream — cost can only drop.
        let (net, spec, routing, plan) = setup();
        let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
        let sources = spec.all_sources();
        for take in [3usize, 8, 20] {
            let changed: BTreeSet<NodeId> = sources.iter().copied().take(take).collect();
            let transition_only = sim.round_cost_with_placement(
                &changed,
                OverridePolicy::Aggressive,
                StatePlacement::TransitionOnly,
            );
            let everywhere = sim.round_cost_with_placement(
                &changed,
                OverridePolicy::Aggressive,
                StatePlacement::EveryNode,
            );
            assert!(
                everywhere.total_uj() <= transition_only.total_uj() + 1e-9,
                "take={take}: everywhere {:.1} > transition-only {:.1}",
                everywhere.total_uj(),
                transition_only.total_uj()
            );
        }
    }

    #[test]
    fn every_node_placement_needs_more_state() {
        let (net, spec, routing, plan) = setup();
        let sim = SuppressionSim::new(&net, &spec, &routing, &plan);
        let lean = sim.state_entries(StatePlacement::TransitionOnly);
        let fat = sim.state_entries(StatePlacement::EveryNode);
        assert!(
            fat >= lean,
            "every-node state ({fat}) must be at least transition-only ({lean})"
        );
    }

    #[test]
    #[should_panic(expected = "delta-maintainable")]
    fn non_linear_functions_rejected() {
        let net = Network::with_default_energy(Deployment::grid(3, 3, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(0),
            AggregateFunction::new(crate::agg::AggregateKind::Min, [(NodeId(8), 1.0)]),
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let _ = SuppressionSim::new(&net, &spec, &routing, &plan);
    }
}
