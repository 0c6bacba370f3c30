//! The fault-tolerant epoch pipeline: loss-aware execution of a compiled
//! schedule, with bounded retransmission, per-destination degradation
//! accounting, and a hysteresis-gated churn driver.
//!
//! The paper's evaluation context — Mica2-class radios — is exactly where
//! an optimal static plan meets lossy links. This module closes that gap
//! in three pieces:
//!
//! * [`FaultyExec`] — a loss-aware mode of [`CompiledSchedule`]: the TDMA
//!   slot schedule is simulated against a seeded
//!   [`DeliveryModel`] (uniform Bernoulli, per-link ETX-derived, or a
//!   scripted [`m2m_netsim::failure::FailureTrace`]), each message retried
//!   under a [`RetryPolicy`] with every attempt charged through the Mica2
//!   energy model. That delivery pass only decides the round's *delivery
//!   vector* (per message: delivered, dropped, attempts);
//!   `Settler::settle` then folds the compiled op stream over
//!   whatever actually arrived, producing per-destination results,
//!   coverage fractions, and missing-source sets ([`FaultOutcome`]).
//!   The event-driven runtime in [`crate::sim`] decides delivery on a
//!   different clock and settles through the same step: every node
//!   folds whichever units reached it, so the answer depends on which
//!   messages got through, not when.
//!
//!   Both clocks share one `Settler` (the compiled schedule plus the op
//!   gates, raw relay chains, gate fan-out and demanded sets `settle`
//!   needs) and read the message graph and per-message facts from the
//!   schedule and its lowering; `FaultyExec` adds only its TDMA slots and
//!   the messages in slot order. Slot assignment puts every message at
//!   least one slot after each of its predecessors, so that order is a
//!   topological order of the message graph, and *one pass* over it
//!   decides delivery, settling each message after its predecessors. A
//!   message is ready in the latest of its assigned slot and, per
//!   predecessor `p`, the slot `p` resolved in, plus one when the
//!   message lies ahead of `p` in message order: a rescan of every
//!   message every slot, in ascending order, first attempts it there.
//!   Its attempt `k` goes in slot `ready + k·(backoff + 1)` while that is
//!   inside the budget, so every attempt draws the same
//!   `(link, salt + slot)` value the rescan would. Links are resolved
//!   into per-message [`m2m_netsim::LinkLoss`] oracles once per call
//!   (once per batch in [`FaultyExec::run_rounds`]) rather than looked up
//!   per attempt.
//!
//!   `settle` runs the compiled fold of the round's readings first, then
//!   re-folds only the steps a loss touched: each step whose op gates
//!   read a unit of an undelivered message, and every consumer of a
//!   re-folded record. Every other step keeps its compiled record and
//!   its full-delivery coverage row.
//! * [`DegradationTracker`] — per-destination staleness: how many
//!   consecutive rounds a destination has gone without full coverage.
//! * [`ChurnController`] — the loop closure: when observed link quality
//!   drifts past a relative-ETX hysteresis threshold, it fires a reroute
//!   (the caller rebuilds [`m2m_netsim::quality::weighted_routing`] tables
//!   and pushes them through
//!   [`crate::dynamics::PlanMaintainer::apply_route_change`]); drift below
//!   the threshold is absorbed, so the plan tracks the network without
//!   thrashing.
//!
//! **Equivalence contract**: with a reliable delivery model (or loss
//! probability 0) and any retry policy, every message is delivered on its
//! first attempt, nothing is re-folded, and [`FaultOutcome::results`] /
//! [`FaultOutcome::cost`] are **bit-identical** to
//! [`CompiledSchedule::run_round`] — the same float associativity, the
//! same cost accumulation order. The property test
//! `tests/fault_equivalence.rs` pins this across routing modes and thread
//! counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use m2m_graph::NodeId;
use m2m_netsim::quality::{etx_of_loss, LinkQuality};
use m2m_netsim::{DeliveryModel, LinkLoss, Network};
use m2m_telemetry::timeseries::record_planes;

use crate::agg::{with_lane_kernel, LaneKernel};
use crate::exec::{CompiledSchedule, ExecState, MessageFacts, OpTag};
use crate::metrics::RoundCost;
use crate::parallel;
use crate::schedule::{Contribution, UnitContent};
use crate::slots::{assign_slots, SlotSchedule};
use crate::telemetry::names;

/// Per-message retry discipline for one fault-tolerant round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum transmission attempts per message; `0` means unlimited
    /// (retry until the slot budget runs out — the §3 "acknowledgments
    /// and retransmissions" discipline).
    pub max_attempts: u32,
    /// Extra slots to wait after a failed attempt before retrying.
    pub backoff_slots: u32,
    /// Slot budget for the whole round.
    pub max_slots: u32,
}

impl RetryPolicy {
    /// Unlimited retries, no backoff — the legacy resilience semantics.
    pub const fn unlimited(max_slots: u32) -> Self {
        RetryPolicy {
            max_attempts: 0,
            backoff_slots: 0,
            max_slots,
        }
    }

    /// Bounded retries with backoff.
    pub const fn bounded(max_attempts: u32, backoff_slots: u32, max_slots: u32) -> Self {
        RetryPolicy {
            max_attempts,
            backoff_slots,
            max_slots,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::bounded(8, 0, 10_000)
    }
}

/// One link's failure summary for one round: `failures` transmission
/// attempts on `tail → head` failed; `dropped` marks the message as
/// abandoned (retry budget exhausted) rather than eventually delivered.
/// Always populated (it is empty when nothing failed), so a
/// [`FaultOutcome`] compares equal whether or not observability is on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkEvent {
    /// Transmitting endpoint.
    pub tail: NodeId,
    /// Receiving endpoint.
    pub head: NodeId,
    /// Failed transmission attempts on this link this round.
    pub failures: u32,
    /// True if the message was abandoned after exhausting its budget.
    pub dropped: bool,
}

/// Per-destination coverage after a degraded round.
#[derive(Clone, Debug, PartialEq)]
pub struct DestCoverage {
    /// The destination.
    pub destination: NodeId,
    /// Sources whose contributions reached the destination this round.
    pub covered: usize,
    /// Sources the destination's function demands.
    pub demanded: usize,
    /// The demanded sources that did **not** arrive (ascending).
    pub missing: Vec<NodeId>,
}

impl DestCoverage {
    /// Covered fraction in `[0, 1]` (1.0 for a zero-source function).
    pub fn fraction(&self) -> f64 {
        if self.demanded == 0 {
            1.0
        } else {
            self.covered as f64 / self.demanded as f64
        }
    }

    /// True if every demanded source arrived.
    pub fn complete(&self) -> bool {
        self.covered == self.demanded
    }
}

/// The outcome of one fault-tolerant round.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultOutcome {
    /// Per-destination results in ascending destination order
    /// ([`CompiledSchedule::destinations`]); `None` when no input at all
    /// survived for that destination.
    pub results: Vec<Option<f64>>,
    /// Per-destination coverage, aligned with `results`.
    pub coverage: Vec<DestCoverage>,
    /// Energy including retransmissions: every attempt pays transmit
    /// energy, reception is paid only on delivery.
    pub cost: RoundCost,
    /// Slots actually used (≥ the failure-free makespan when lossy).
    pub slots_used: u32,
    /// Failed transmission attempts.
    pub retransmissions: usize,
    /// Messages abandoned after exhausting their retry budget.
    pub dropped_messages: usize,
    /// True if every message was delivered within the slot budget.
    pub delivered: bool,
    /// Per-link failure summaries in message order (empty when every
    /// attempt succeeded). The flight recorder's event feed.
    pub link_events: Vec<LinkEvent>,
}

impl FaultOutcome {
    /// Destinations with partial coverage this round.
    pub fn degraded_destinations(&self) -> usize {
        self.coverage.iter().filter(|c| !c.complete()).count()
    }
}

/// Reusable scratch for [`FaultyExec::run`] — allocate once (per worker),
/// run any number of rounds without further allocation (outcomes and the
/// per-call link table excepted).
///
/// When observability is on ([`m2m_telemetry::timeseries::obs_enabled`]),
/// each settled round adds its per-message counts to this worker's
/// tallies; dropping the scratch — end of a worker's chunk, end of a
/// serial run — turns them into per-node planes once and flushes those
/// into the process-wide plane registry.
#[derive(Clone, Debug)]
pub struct FaultScratch {
    /// The round's delivery vector, per message: delivered, abandoned
    /// after exhausting its retry budget, and transmission attempts.
    /// Whichever clock ran the round fills these; `Settler::settle`
    /// turns them into the answer.
    pub(crate) delivered: Vec<bool>,
    pub(crate) dropped: Vec<bool>,
    pub(crate) attempts: Vec<u32>,
    /// Bitset of the messages with a failed attempt this round (either
    /// clock): the round's link events, in message order.
    pub(crate) failed: Vec<u64>,
    /// The delivery pass's per-message earliest slot, raised by each
    /// resolved predecessor; `u32::MAX` once a predecessor never resolves.
    earliest: Vec<u32>,
    fold: FoldScratch,
    tally: PlaneTally,
}

impl Drop for FaultScratch {
    fn drop(&mut self) {
        // No-op when nothing was recorded (observability off).
        self.tally.flush();
    }
}

/// What `Settler::settle` folds a round with: the compiled fold of its
/// readings, and the re-folded steps over it.
#[derive(Clone, Debug)]
struct FoldScratch {
    /// The compiled fold, one lane.
    exec: ExecState,
    /// Bitset of the steps to re-fold: record steps in topological order,
    /// then destination steps ascending.
    dirty: Vec<u64>,
    /// Per record step, read where `dirty` is set: the re-folded record
    /// (`None` when nothing survived) and its coverage row (`words`
    /// each).
    records: Vec<Option<(f64, f64, f64)>>,
    cover: Vec<u64>,
    /// The coverage row of the op run being re-folded.
    row: Vec<u64>,
}

/// Per-message observability counts summed over every round one scratch
/// settled with observability on, and the per-message node slots and
/// energies that turn them into per-node planes at flush. A round costs
/// one dense add of its deliveries (none when it delivered everything)
/// plus one sparse add per message that failed an attempt; the per-node
/// scatter runs once per scratch.
#[derive(Clone, Debug, Default)]
struct PlaneTally {
    messages: Arc<[MessageFacts]>,
    /// The compiled obs profile, whose sorted ids are the plane universe.
    universe: Arc<m2m_telemetry::timeseries::NodePlanes>,
    /// Per message: deliveries outside the full rounds, failed attempts,
    /// rounds dropped.
    delivered: Vec<u32>,
    failures: Vec<u64>,
    dropped: Vec<u32>,
    /// Rounds counted, and how many of them delivered every message.
    rounds: u32,
    full_rounds: u32,
}

impl PlaneTally {
    /// Counts one round and its deliveries; the round's failures follow
    /// through [`PlaneTally::add_failures`].
    fn add_round(&mut self, delivered: &[bool], delivered_all: bool) {
        if self.rounds == u32::MAX {
            self.flush(); // keep the u32 counts exact
        }
        if self.delivered.is_empty() {
            let n = self.messages.len();
            self.delivered = vec![0; n];
            self.failures = vec![0; n];
            self.dropped = vec![0; n];
        }
        if delivered_all {
            self.full_rounds += 1;
        } else {
            for (sum, &d) in self.delivered.iter_mut().zip(delivered) {
                *sum += u32::from(d);
            }
        }
        self.rounds += 1;
    }

    /// Counts message `m`'s failed attempts this round, and its drop.
    fn add_failures(&mut self, m: usize, failures: u32, dropped: bool) {
        self.failures[m] += u64::from(failures);
        self.dropped[m] += u32::from(dropped);
    }

    /// Flushes the tallies into the process-wide per-node planes — every
    /// attempt pays tx at the tail, delivery pays rx at the head,
    /// failures count as retries at the tail, abandonment as a drop at
    /// the tail; the same arithmetic as `Settler::accumulate_cost` and
    /// the global counters, so plane totals reconcile exactly.
    fn flush(&mut self) {
        if self.rounds == 0 {
            return;
        }
        record_planes(self.universe.ids(), |planes| {
            for (m, msg) in self.messages.iter().enumerate() {
                let delivered = u64::from(self.delivered[m]) + u64::from(self.full_rounds);
                let failures = self.failures[m];
                if delivered + failures == 0 {
                    continue;
                }
                let tail = msg.tail_slot as usize;
                planes.record_tx(tail, delivered + failures, msg.tx_uj);
                if delivered > 0 {
                    planes.record_rx(msg.head_slot as usize, delivered, msg.rx_uj);
                }
                planes.record_retries(tail, failures);
                if self.dropped[m] > 0 {
                    planes.record_drops(tail, u64::from(self.dropped[m]));
                }
            }
            planes.add_rounds(u64::from(self.rounds));
        });
        self.delivered.fill(0);
        self.failures.fill(0);
        self.dropped.fill(0);
        self.rounds = 0;
        self.full_rounds = 0;
    }
}

/// What both loss-aware clocks share: the compiled schedule, and the
/// tables `Settler::settle` turns a delivery vector into a
/// [`FaultOutcome`] with — an *op gate* per compiled op (the message unit
/// whose delivery the op's datum depends on), raw relay chains, the steps
/// each unit's delivery gates, full-delivery coverage rows, and each
/// destination's demanded sources. Built once per compiled schedule.
///
/// A *step* indexes the compiled op runs in their fold order: record
/// steps `0..R` in topological order, then destination step `i` at
/// `R + i`.
#[derive(Clone, Debug)]
pub(crate) struct Settler {
    compiled: CompiledSchedule,
    /// Aligned 1:1 with the compiled op stream: the unit that must be
    /// delivered for the op's datum to be present at its consumption
    /// point, or `u32::MAX` for locally available data.
    op_gate: Vec<u32>,
    /// Per unit: the upstream raw unit this unit's datum was relayed
    /// from ([`RAW_ORIGIN`] at the source itself, [`NOT_RAW`] for record
    /// units). A raw datum is present only if *every* hop of its relay
    /// chain was delivered — a node cannot forward a raw value it never
    /// received — whereas a record unit usefully re-forms from whatever
    /// survived, so it gates on its own hop alone.
    raw_parent: Vec<u32>,
    /// Per unit, the steps whose op gates read its delivery, ascending: a
    /// record unit's consumers, and for a raw unit every step with a
    /// `Pre` op whose relay chain crosses it. Unit `u`'s steps are
    /// `gated[gated_start[u]..gated_start[u + 1]]`.
    gated_start: Vec<u32>,
    gated: Vec<u32>,
    /// Per unit: the record step forming it (`u32::MAX` for raw units).
    record_step: Vec<u32>,
    /// Bitset words per coverage row.
    words: usize,
    /// Full-delivery coverage rows (`words` each): per record step, and
    /// per destination (its demanded sources).
    record_cover: Vec<u64>,
    demanded_bits: Vec<u64>,
    /// Per-destination demanded-source counts.
    demanded: Vec<usize>,
}

/// [`Settler::raw_parent`] marker: the unit is not a raw relay (record
/// units gate on their own hop only).
pub(crate) const NOT_RAW: u32 = u32::MAX;
/// [`Settler::raw_parent`] marker: the raw unit leaves the source node
/// itself — the head of its relay chain.
pub(crate) const RAW_ORIGIN: u32 = u32::MAX - 1;

impl Settler {
    /// Builds the settle tables for `compiled`: the op gates, by
    /// replaying the compiler's lowering walk against the schedule's
    /// contribution lists; the steps each unit gates, by walking every
    /// op's relay chain; and the full-delivery coverage rows, by one
    /// cover-only walk of the op runs.
    ///
    /// # Panics
    /// Panics if the schedule violates the structural invariants the gate
    /// construction relies on (it cannot, for a schedule produced by
    /// [`crate::schedule::build_schedule`]).
    pub(crate) fn new(compiled: &CompiledSchedule) -> Self {
        let schedule = compiled.schedule();
        // The raw unit delivering source `s` into node `v` is unique: a
        // multicast tree has one path from `s` through `v`.
        let mut raw_into: BTreeMap<(NodeId, NodeId), u32> = BTreeMap::new();
        for (i, u) in schedule.units.iter().enumerate() {
            if let UnitContent::Raw(s) = u.content {
                let prev = raw_into.insert((u.edge.1, s), i as u32);
                assert!(
                    prev.is_none(),
                    "source {s} delivered raw into {} twice",
                    u.edge.1
                );
            }
        }
        // Relay chains: a raw unit leaving any node other than the source
        // itself carries a datum that first had to arrive there raw.
        let mut raw_parent = vec![NOT_RAW; schedule.units.len()];
        for (i, u) in schedule.units.iter().enumerate() {
            if let UnitContent::Raw(s) = u.content {
                raw_parent[i] = if u.edge.0 == s {
                    RAW_ORIGIN
                } else {
                    *raw_into.get(&(u.edge.0, s)).unwrap_or_else(|| {
                        panic!(
                            "raw unit {i} relays {s} from {} without an inbound hop",
                            u.edge.0
                        )
                    })
                };
            }
        }
        let gate_for = |c: &Contribution, at: NodeId| -> u32 {
            match *c {
                Contribution::Pre(s) if s == at => u32::MAX,
                Contribution::Pre(s) => *raw_into
                    .get(&(at, s))
                    .unwrap_or_else(|| panic!("no raw unit carries {s} into {at}")),
                Contribution::FromUnit(p) => p as u32,
            }
        };

        // Replay the lowering walk in the compiler's order — record steps
        // in topological order, then destination steps ascending — so the
        // gates align 1:1 with the compiled op stream.
        let mut op_gate: Vec<u32> = Vec::with_capacity(compiled.ops.len());
        for step in &compiled.record_steps {
            let u = step.unit as usize;
            let contribs = &schedule.contributions[u];
            assert_eq!(
                contribs.len(),
                step.op_count as usize,
                "op run of unit {u} diverged from its contribution list"
            );
            let at = schedule.units[u].edge.0; // records form at the tail
            for c in contribs {
                op_gate.push(gate_for(c, at));
            }
        }
        for (i, step) in compiled.dest_steps.iter().enumerate() {
            let (d, inputs) = schedule
                .destination_inputs
                .iter()
                .nth(i)
                .expect("dest step beyond destination_inputs");
            assert_eq!(*d, step.dest, "destination order diverged");
            assert_eq!(inputs.len(), step.op_count as usize);
            for c in inputs {
                op_gate.push(gate_for(c, *d));
            }
        }
        assert_eq!(op_gate.len(), compiled.ops.len(), "op gate misaligned");
        // Each gate must agree with its op's variant: FromUnit gates on
        // the referenced unit itself.
        for (i, &gate) in op_gate.iter().enumerate() {
            if compiled.ops.tags[i] == OpTag::FromUnit {
                let unit = compiled.ops.args[i];
                assert_eq!(gate, unit, "FromUnit op must gate on its own unit");
            }
        }

        // Gate fan-out as a CSR: count, then fill, each step once per unit
        // its gates read. Steps are visited ascending, so a unit's repeats
        // are adjacent and its list comes out sorted.
        let units = compiled.unit_count;
        let runs = || {
            let records = compiled
                .record_steps
                .iter()
                .map(|s| (s.first_op, s.op_count));
            records.chain(compiled.dest_steps.iter().map(|s| (s.first_op, s.op_count)))
        };
        let chain = |gate: u32| {
            std::iter::successors((gate != u32::MAX).then_some(gate), |&u| {
                match raw_parent[u as usize] {
                    NOT_RAW | RAW_ORIGIN => None,
                    parent => Some(parent),
                }
            })
        };
        let mut seen = vec![u32::MAX; units];
        let mut each_pair = |visit: &mut dyn FnMut(usize, u32)| {
            seen.fill(u32::MAX);
            for (j, (first, count)) in runs().enumerate() {
                for &gate in &op_gate[first as usize..(first + count) as usize] {
                    for u in chain(gate) {
                        let u = u as usize;
                        if std::mem::replace(&mut seen[u], j as u32) != j as u32 {
                            visit(u, j as u32);
                        }
                    }
                }
            }
        };
        let mut gated_start = vec![0u32; units + 1];
        each_pair(&mut |u, _| gated_start[u + 1] += 1);
        for u in 0..units {
            gated_start[u + 1] += gated_start[u];
        }
        let mut gated = vec![0u32; gated_start[units] as usize];
        let mut cursor = gated_start[..units].to_vec();
        each_pair(&mut |u, j| {
            gated[cursor[u] as usize] = j;
            cursor[u] += 1;
        });
        let mut record_step = vec![u32::MAX; units];
        for (r, step) in compiled.record_steps.iter().enumerate() {
            record_step[step.unit as usize] = r as u32;
        }

        // Full-delivery coverage, one cover-only walk in fold order: a run
        // covers its `Pre` sources and every record it merges.
        let words = compiled.sources.len().div_ceil(64).max(1);
        let ops = &compiled.ops;
        let cover_run = |first: u32, count: u32, record_cover: &[u64], row: &mut [u64]| {
            for k in first as usize..(first + count) as usize {
                let arg = ops.args[k] as usize;
                match ops.tags[k] {
                    OpTag::Pre => row[arg / 64] |= 1 << (arg % 64),
                    OpTag::FromUnit => {
                        let r = record_step[arg] as usize;
                        for (have, &more) in row.iter_mut().zip(&record_cover[r * words..]) {
                            *have |= more;
                        }
                    }
                }
            }
        };
        let mut record_cover = vec![0u64; compiled.record_steps.len() * words];
        for (r, step) in compiled.record_steps.iter().enumerate() {
            // A record merges only records formed before it.
            let (formed, rest) = record_cover.split_at_mut(r * words);
            cover_run(step.first_op, step.op_count, formed, &mut rest[..words]);
        }
        let mut demanded_bits = vec![0u64; compiled.dest_steps.len() * words];
        for (row, step) in demanded_bits.chunks_mut(words).zip(&compiled.dest_steps) {
            cover_run(step.first_op, step.op_count, &record_cover, row);
        }
        let demanded = demanded_bits
            .chunks(words)
            .map(|row| row.iter().map(|w| w.count_ones() as usize).sum())
            .collect();
        Settler {
            compiled: compiled.clone(),
            op_gate,
            raw_parent,
            gated_start,
            gated,
            record_step,
            words,
            record_cover,
            demanded_bits,
            demanded,
        }
    }

    /// The compiled schedule both clocks run.
    #[inline]
    pub(crate) fn compiled(&self) -> &CompiledSchedule {
        &self.compiled
    }

    /// Allocates a scratch arena sized for this schedule.
    pub(crate) fn scratch(&self) -> FaultScratch {
        let messages = self.compiled.message_facts.len();
        let records = self.compiled.record_steps.len();
        let steps = records + self.compiled.dest_steps.len();
        FaultScratch {
            delivered: vec![false; messages],
            dropped: vec![false; messages],
            attempts: vec![0; messages],
            failed: vec![0; messages.div_ceil(64)],
            earliest: vec![0; messages],
            fold: FoldScratch {
                exec: ExecState::for_schedule(&self.compiled),
                dirty: vec![0; steps.div_ceil(64)],
                records: vec![None; records],
                cover: vec![0; records * self.words],
                row: vec![0; self.words],
            },
            tally: PlaneTally {
                messages: Arc::clone(&self.compiled.message_facts),
                universe: Arc::clone(&self.compiled.obs_profile),
                ..PlaneTally::default()
            },
        }
    }

    /// The round's cost, accumulated in message order — the same order
    /// (and hence the same float sum) as [`crate::schedule::Schedule::round_cost`],
    /// so a lossless round's cost is bit-identical to the static one.
    fn accumulate_cost(&self, scratch: &FaultScratch) -> RoundCost {
        let bytes = &self.compiled.schedule().message_bytes;
        let mut cost = RoundCost::default();
        for (m, (msg, &body)) in self.compiled.message_facts.iter().zip(bytes).enumerate() {
            if scratch.attempts[m] > 0 {
                cost.tx_uj += msg.tx_uj * f64::from(scratch.attempts[m]);
            }
            if scratch.delivered[m] {
                cost.rx_uj += msg.rx_uj;
                cost.messages += 1;
                cost.units += msg.unit_count as usize;
                cost.payload_bytes += u64::from(body);
            }
        }
        cost
    }

    /// True if the datum behind `gate` is present: locally available, or
    /// its carrying unit's message was delivered — and, for a raw datum,
    /// every upstream hop of its relay chain too (a node cannot forward a
    /// raw value it never received; record units re-form at each hop, so
    /// they gate on their own hop alone). `message_of` is the schedule's
    /// unit→message slab, read once per op run by the caller.
    fn gate_open(&self, gate: u32, message_of: &[u32], delivered: &[bool]) -> bool {
        if gate == u32::MAX {
            return true;
        }
        let mut unit = gate;
        loop {
            if !delivered[message_of[unit as usize] as usize] {
                return false;
            }
            match self.raw_parent[unit as usize] {
                NOT_RAW | RAW_ORIGIN => return true,
                parent => unit = parent,
            }
        }
    }

    /// Marks, in `dirty`, every step whose op gates read unit `u`.
    fn mark_gated(&self, u: usize, dirty: &mut [u64]) {
        let steps = &self.gated[self.gated_start[u] as usize..self.gated_start[u + 1] as usize];
        for &j in steps {
            dirty[j as usize / 64] |= 1 << (j % 64);
        }
    }

    /// Re-folds one op run against the round's delivery vector, in the
    /// compiled op order, skipping ops whose gate is closed. A `FromUnit`
    /// op merges the re-folded record of a dirty step (or nothing, when
    /// none survived there) or the compiled record of a clean one, and
    /// ORs in that record's coverage row. Leaves the run's coverage row in
    /// `fold.row`. With every gate open and every input clean this is
    /// [`CompiledSchedule::round_window`]'s fold, op for op.
    fn refold<K: LaneKernel>(
        &self,
        first_op: u32,
        op_count: u32,
        readings: &[f64],
        delivered: &[bool],
        fold: &mut FoldScratch,
    ) -> Option<(f64, f64, f64)> {
        let words = self.words;
        let ops = &self.compiled.ops;
        let message_of = &self.compiled.schedule().message_of;
        fold.row.fill(0);
        let mut acc: Option<(f64, f64, f64)> = None;
        let lo = first_op as usize;
        for k in lo..lo + op_count as usize {
            if !self.gate_open(self.op_gate[k], message_of, delivered) {
                continue;
            }
            let arg = ops.args[k] as usize;
            let part = match ops.tags[k] {
                OpTag::Pre => {
                    fold.row[arg / 64] |= 1 << (arg % 64);
                    K::pre(ops.alphas[k], readings[arg])
                }
                OpTag::FromUnit => {
                    let r = self.record_step[arg] as usize;
                    let (row, record) = if is_set(&fold.dirty, r) {
                        (&fold.cover[r * words..(r + 1) * words], fold.records[r])
                    } else {
                        let exec = &fold.exec;
                        let record = (exec.rec0[arg], exec.rec1[arg], exec.rec2[arg]);
                        (&self.record_cover[r * words..(r + 1) * words], Some(record))
                    };
                    for (have, &more) in fold.row.iter_mut().zip(row) {
                        *have |= more;
                    }
                    match record {
                        Some(record) => record,
                        None => continue, // delivered, but nothing survived upstream
                    }
                }
            };
            acc = Some(match acc {
                None => part,
                Some(prev) => K::merge(prev, part),
            });
        }
        acc
    }

    /// The round's per-destination results and coverage: the compiled
    /// fold of `readings`, then a gated re-fold of only the steps a loss
    /// touched — those whose op gates read a unit of an undelivered
    /// message, and the consumers of every re-folded record. A clean
    /// step's gated fold *is* its compiled fold (every gate open, every
    /// record it merges clean), so keeping its compiled record and
    /// full-delivery coverage row changes no bit.
    fn fold(
        &self,
        readings: &[f64],
        scratch: &mut FaultScratch,
    ) -> (Vec<Option<f64>>, Vec<DestCoverage>) {
        let compiled = &self.compiled;
        let FaultScratch {
            delivered, fold, ..
        } = scratch;
        let delivered: &[bool] = delivered;
        fold.exec.readings_mut().copy_from_slice(readings);
        compiled.round_window::<1>(&mut fold.exec);

        fold.dirty.fill(0);
        let messages = &compiled.schedule().messages;
        for (m, _) in delivered.iter().enumerate().filter(|&(_, &d)| !d) {
            for &u in &messages[m].units {
                self.mark_gated(u, &mut fold.dirty);
            }
        }
        // Record steps ascending: a re-folded record marks only its
        // consumers, which come later, so one sweep sees every mark.
        let words = self.words;
        let records = compiled.record_steps.len();
        let mut r = 0;
        while let Some(next) = next_set_bit(&fold.dirty, r).filter(|&next| next < records) {
            let step = &compiled.record_steps[next];
            let record = with_lane_kernel!(step.kind, K => {
                self.refold::<K>(step.first_op, step.op_count, readings, delivered, fold)
            });
            fold.records[next] = record;
            fold.cover[next * words..(next + 1) * words].copy_from_slice(&fold.row);
            self.mark_gated(step.unit as usize, &mut fold.dirty);
            r = next + 1;
        }

        let dests = compiled.dest_steps.len();
        let mut results = Vec::with_capacity(dests);
        let mut coverage = Vec::with_capacity(dests);
        for (i, step) in compiled.dest_steps.iter().enumerate() {
            if !is_set(&fold.dirty, records + i) {
                results.push(Some(fold.exec.results()[i]));
                coverage.push(DestCoverage {
                    destination: step.dest,
                    covered: self.demanded[i],
                    demanded: self.demanded[i],
                    missing: Vec::new(),
                });
                continue;
            }
            results.push(with_lane_kernel!(step.kind, K => {
                self.refold::<K>(step.first_op, step.op_count, readings, delivered, fold)
                    .map(K::eval)
            }));
            coverage.push(self.coverage(i, step.dest, &fold.row));
        }
        (results, coverage)
    }

    /// Destination `i`'s coverage when its fold covered `row`, a subset of
    /// its demanded row.
    fn coverage(&self, i: usize, destination: NodeId, row: &[u64]) -> DestCoverage {
        let words = self.words;
        let demanded_row = &self.demanded_bits[i * words..(i + 1) * words];
        let covered: usize = row.iter().map(|w| w.count_ones() as usize).sum();
        let mut missing = Vec::with_capacity(self.demanded[i] - covered);
        for (w, (&have, &want)) in row.iter().zip(demanded_row).enumerate() {
            let mut lost = want & !have;
            while lost != 0 {
                missing.push(
                    self.compiled
                        .sources
                        .id(w * 64 + lost.trailing_zeros() as usize),
                );
                lost &= lost - 1;
            }
        }
        DestCoverage {
            destination,
            covered,
            demanded: self.demanded[i],
            missing,
        }
    }

    /// Per-link failure summaries of the messages with a failed attempt,
    /// in message order — unconditional, so an outcome is identical with
    /// observability on or off, and empty when lossless — adding each to
    /// the plane tallies when `obs` is on.
    fn link_events(&self, scratch: &mut FaultScratch, obs: bool) -> Vec<LinkEvent> {
        let messages = &self.compiled.schedule().messages;
        let count = scratch.failed.iter().map(|w| w.count_ones() as usize).sum();
        let mut events = Vec::with_capacity(count);
        for (w, &word) in scratch.failed.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let m = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let failures = scratch.attempts[m] - u32::from(scratch.delivered[m]);
                let dropped = scratch.dropped[m];
                let (tail, head) = messages[m].edge;
                events.push(LinkEvent {
                    tail,
                    head,
                    failures,
                    dropped,
                });
                if obs {
                    scratch.tally.add_failures(m, failures, dropped);
                }
            }
        }
        events
    }

    /// Settles a round once its clock has decided delivery: turns the
    /// delivery vector in `scratch` (per message: delivered, dropped,
    /// attempts, and the failed-attempt bitset) plus `readings` into the
    /// [`FaultOutcome`] — plane tallies, cost, link events, the degraded
    /// fold and coverage. Both clocks end here: [`FaultyExec::run`] after
    /// its delivery pass and [`crate::sim::SimExec::run`] after its event
    /// wheel stops. Every node folds whichever units reached it, so the
    /// answer depends on the delivery vector alone, not on when each
    /// message arrived.
    pub(crate) fn settle(
        &self,
        readings: &[f64],
        scratch: &mut FaultScratch,
        slots_used: u32,
        retransmissions: usize,
        dropped: usize,
    ) -> FaultOutcome {
        crate::telemetry::counter(names::FAULTS_RETRANSMISSIONS, retransmissions as u64);
        crate::telemetry::counter(names::FAULTS_DROPPED_MESSAGES, dropped as u64);
        let cost = self.accumulate_cost(scratch);
        let delivered_all = scratch.delivered.iter().all(|&d| d);
        let obs = m2m_telemetry::timeseries::obs_enabled();
        if obs {
            scratch.tally.add_round(&scratch.delivered, delivered_all);
        }
        let link_events = self.link_events(scratch, obs);
        let (results, coverage) = self.fold(readings, scratch);
        let degraded = coverage.iter().filter(|c| !c.complete()).count();
        crate::telemetry::counter(names::FAULTS_DEGRADED_DESTINATIONS, degraded as u64);

        FaultOutcome {
            results,
            coverage,
            cost,
            slots_used,
            retransmissions,
            dropped_messages: dropped,
            delivered: delivered_all,
            link_events,
        }
    }
}

/// True if bit `i` of `bits` is set.
#[inline]
fn is_set(bits: &[u64], i: usize) -> bool {
    (bits[i / 64] >> (i % 64)) & 1 != 0
}

/// The first set bit of `bits` at or after `from`, if any.
fn next_set_bit(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = bits.get(w)? & (u64::MAX << (from % 64));
    while word == 0 {
        w += 1;
        word = *bits.get(w)?;
    }
    Some(w * 64 + word.trailing_zeros() as usize)
}

/// The loss-aware executor: the shared settle tables (`Settler`) of a
/// [`CompiledSchedule`] plus its TDMA slot assignment. Built once per
/// plan; see the module docs for the two-phase round (the delivery pass,
/// then `Settler::settle`).
#[derive(Clone, Debug)]
pub struct FaultyExec {
    settler: Settler,
    slots: SlotSchedule,
    /// Messages in assigned-slot order, ascending within a slot. Slot
    /// assignment puts every message at least one slot after each of its
    /// predecessors, so this is a topological order of the message graph.
    by_slot: Vec<u32>,
}

impl FaultyExec {
    /// Lowers `compiled` for fault-tolerant execution: builds the shared
    /// settle tables, assigns TDMA slots, and orders messages by slot.
    ///
    /// # Panics
    /// Panics if the schedule violates the structural invariants the gate
    /// construction relies on (it cannot, for a schedule produced by
    /// [`crate::schedule::build_schedule`]).
    pub fn new(network: &Network, compiled: &CompiledSchedule) -> Self {
        let _span = crate::telemetry::span(crate::telemetry::layer::FAULTS_LOWER);
        crate::telemetry::counter(names::FAULTS_BUILDS, 1);
        let settler = Settler::new(compiled);
        let slots = assign_slots(network, compiled.schedule());
        let mut by_slot: Vec<u32> = (0..slots.slots.len() as u32).collect();
        by_slot.sort_by_key(|&m| slots.slots[m as usize]); // stable
        debug_assert!(
            (0..slots.slots.len()).all(|m| compiled
                .schedule()
                .successors(m)
                .iter()
                .all(|&s| slots.slots[s as usize] > slots.slots[m])),
            "a successor shares or precedes its predecessor's slot"
        );
        crate::m2m_log!(
            crate::telemetry::Level::Debug,
            "fault exec compiled: {} messages, {} ops gated, {} slot makespan",
            slots.slots.len(),
            settler.op_gate.len(),
            slots.slot_count
        );
        FaultyExec {
            settler,
            slots,
            by_slot,
        }
    }

    /// The compiled schedule this executor runs.
    #[inline]
    pub fn compiled(&self) -> &CompiledSchedule {
        &self.settler.compiled
    }

    /// The TDMA slot assignment the delivery simulation follows.
    #[inline]
    pub fn slot_schedule(&self) -> &SlotSchedule {
        &self.slots
    }

    /// Allocates a scratch arena sized for this executor.
    pub fn scratch(&self) -> FaultScratch {
        self.settler.scratch()
    }

    /// Resolves every message's link under `model` once: the per-message
    /// [`LinkLoss`] oracles the delivery pass asks instead of the model.
    fn link_losses<'m>(&self, model: &'m DeliveryModel) -> Vec<LinkLoss<'m>> {
        self.compiled()
            .schedule()
            .messages
            .iter()
            .map(|msg| model.link(msg.edge.0, msg.edge.1))
            .collect()
    }

    /// Phase A: the TDMA delivery pass. A message is attempted once per
    /// eligible slot — at or after its assigned slot, past its backoff,
    /// with every predecessor *resolved* (delivered or dropped) — until it
    /// is delivered, exhausts `policy.max_attempts`, or the slot budget
    /// ends; an attempt of message `m` in slot `t` asks `links[m]` at tick
    /// `round_salt + t`. Returns `(slots_used, retransmissions, dropped)`
    /// and fills the delivery vector in `scratch`.
    ///
    /// One walk in slot order settles every message after its
    /// predecessors, so its slots follow from theirs. It is ready in the
    /// latest of its assigned slot and, per predecessor `p`, the slot `p`
    /// resolved in, plus one when it lies ahead of `p` in message order:
    /// where an ascending rescan of every message every slot, which the
    /// test module keeps as the reference, first attempts it. Its attempt
    /// `k` goes in slot `ready + k·(backoff + 1)`, saturating; the first
    /// one past the budget leaves it, and everything waiting on it,
    /// unresolved. `slots_used` is the budget when anything is left
    /// unresolved, else the last resolution slot, plus one if a message
    /// was delivered in it.
    fn deliver(
        &self,
        links: &[LinkLoss<'_>],
        policy: &RetryPolicy,
        round_salt: u64,
        scratch: &mut FaultScratch,
    ) -> (u32, usize, usize) {
        let FaultScratch {
            delivered,
            dropped,
            attempts,
            failed,
            earliest,
            ..
        } = scratch;
        delivered.fill(false);
        dropped.fill(false);
        attempts.fill(0);
        failed.fill(0);
        earliest.copy_from_slice(&self.slots.slots);
        let schedule = self.compiled().schedule();
        let stride = policy.backoff_slots.saturating_add(1);
        let mut retransmissions = 0usize;
        let mut dropped_count = 0usize;
        let (mut last, mut delivered_last, mut unresolved) = (0u32, false, false);
        for &m in &self.by_slot {
            let m = m as usize;
            let mut slot = earliest[m];
            let mut resolved = false;
            while slot < policy.max_slots {
                attempts[m] += 1;
                if !links[m].is_down(round_salt.wrapping_add(u64::from(slot))) {
                    delivered[m] = true;
                    resolved = true;
                    break;
                }
                retransmissions += 1;
                failed[m / 64] |= 1 << (m % 64);
                if policy.max_attempts > 0 && attempts[m] >= policy.max_attempts {
                    dropped[m] = true;
                    dropped_count += 1;
                    resolved = true;
                    break;
                }
                slot = slot.saturating_add(stride);
            }
            if resolved {
                if slot > last {
                    (last, delivered_last) = (slot, delivered[m]);
                } else if slot == last {
                    delivered_last |= delivered[m];
                }
            } else {
                unresolved = true;
            }
            for &s in schedule.successors(m) {
                let s = s as usize;
                // `slot < max_slots`, so the `+ 1` cannot overflow.
                let at = if resolved {
                    slot + u32::from(s < m)
                } else {
                    u32::MAX
                };
                earliest[s] = earliest[s].max(at);
            }
        }
        let slots_used = if unresolved {
            policy.max_slots
        } else {
            last + u32::from(delivered_last)
        };
        (slots_used, retransmissions, dropped_count)
    }

    /// Runs one fault-tolerant round: the TDMA delivery pass under
    /// `model` and `policy`, then `Settler::settle` over `readings`
    /// (dense, in [`CompiledSchedule::sources`] slot order). `round_salt`
    /// decorrelates this round's losses from other rounds'.
    ///
    /// # Panics
    /// Panics if `readings` or `scratch` is sized for a different
    /// executor.
    pub fn run(
        &self,
        readings: &[f64],
        model: &DeliveryModel,
        policy: &RetryPolicy,
        round_salt: u64,
        scratch: &mut FaultScratch,
    ) -> FaultOutcome {
        let links = self.link_losses(model);
        self.run_linked(readings, &links, policy, round_salt, scratch)
    }

    /// [`FaultyExec::run`] over links already resolved by
    /// `FaultyExec::link_losses`.
    fn run_linked(
        &self,
        readings: &[f64],
        links: &[LinkLoss<'_>],
        policy: &RetryPolicy,
        round_salt: u64,
        scratch: &mut FaultScratch,
    ) -> FaultOutcome {
        let _span = crate::telemetry::span(crate::telemetry::layer::FAULTS_ROUND);
        crate::telemetry::counter(names::FAULTS_ROUNDS, 1);
        assert_eq!(
            readings.len(),
            self.compiled().sources.len(),
            "reading vector length must match the interned source count"
        );
        assert_eq!(
            scratch.delivered.len(),
            self.compiled().message_facts.len(),
            "scratch/executor mismatch"
        );
        let (slots_used, retransmissions, dropped) =
            self.deliver(links, policy, round_salt, scratch);
        self.settler
            .settle(readings, scratch, slots_used, retransmissions, dropped)
    }

    /// Like [`FaultyExec::run`] but taking readings keyed by node id (the
    /// reference input shape).
    ///
    /// # Panics
    /// Panics if a source reading is missing.
    pub fn run_on(
        &self,
        readings: &BTreeMap<NodeId, f64>,
        model: &DeliveryModel,
        policy: &RetryPolicy,
        round_salt: u64,
        scratch: &mut FaultScratch,
    ) -> FaultOutcome {
        let dense = self.compiled().dense_readings(readings);
        self.run(&dense, model, policy, round_salt, scratch)
    }

    /// Runs one round per entry of `rounds` (dense reading vectors)
    /// across up to `threads` workers, salting round `i` with
    /// `base_salt + i * SALT_STRIDE`. Links are resolved once for the
    /// whole batch. Results come back in input order, so the output is
    /// identical at any thread count.
    pub fn run_rounds(
        &self,
        rounds: &[Vec<f64>],
        model: &DeliveryModel,
        policy: &RetryPolicy,
        base_salt: u64,
        threads: usize,
    ) -> Vec<FaultOutcome> {
        let links = self.link_losses(model);
        let indexed: Vec<(usize, &Vec<f64>)> = rounds.iter().enumerate().collect();
        parallel::parallel_map_with(
            &indexed,
            threads,
            || self.scratch(),
            |scratch, &(i, readings)| {
                let salt = base_salt.wrapping_add(i as u64 * SALT_STRIDE);
                self.run_linked(readings, &links, policy, salt, scratch)
            },
        )
    }
}

/// Per-round salt stride: a prime far larger than any slot budget, so no
/// two rounds share a `(link, tick)` coordinate.
pub const SALT_STRIDE: u64 = 1_000_003;

/// Per-destination staleness: how many consecutive rounds each
/// destination has ended with partial coverage. Complements the per-round
/// [`DestCoverage`] with the time dimension — a controller steering an
/// actuator cares whether its signal is one round stale or fifty.
#[derive(Clone, Debug, Default)]
pub struct DegradationTracker {
    staleness: BTreeMap<NodeId, u64>,
    rounds: u64,
}

impl DegradationTracker {
    /// A tracker with no history.
    pub fn new() -> Self {
        DegradationTracker::default()
    }

    /// Folds one round's outcome in: destinations with full coverage
    /// reset to 0, degraded ones age by one round.
    pub fn observe(&mut self, outcome: &FaultOutcome) {
        self.rounds += 1;
        for c in &outcome.coverage {
            if c.complete() {
                self.staleness.insert(c.destination, 0);
            } else {
                *self.staleness.entry(c.destination).or_insert(0) += 1;
            }
        }
    }

    /// Rounds since destination `d` last saw full coverage (0 if it was
    /// complete last round or has never been observed).
    pub fn staleness(&self, d: NodeId) -> u64 {
        self.staleness.get(&d).copied().unwrap_or(0)
    }

    /// The worst staleness over all observed destinations.
    pub fn max_staleness(&self) -> u64 {
        self.staleness.values().copied().max().unwrap_or(0)
    }

    /// Forgets all staleness history (the round count is kept). Called
    /// when routes change: staleness measured a path that no longer
    /// exists, so aging the new path by the old one's debt would report
    /// outages the new routes never caused.
    pub fn reset_staleness(&mut self) {
        self.staleness.clear();
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// The churn driver's gate: compares observed link quality against the
/// baseline the current routes were built for, and fires a reroute only
/// when the worst relative ETX drift exceeds the hysteresis threshold.
/// The caller owns the actual loop closure (recompute
/// [`m2m_netsim::quality::weighted_routing`], push it through
/// [`crate::dynamics::PlanMaintainer::apply_route_change`], then
/// [`ChurnController::rebase`]); [`crate::session::Session`] wires the
/// whole cycle together.
#[derive(Clone, Debug)]
pub struct ChurnController {
    baseline: LinkQuality,
    hysteresis: f64,
    reroutes: usize,
    suppressed: usize,
}

impl ChurnController {
    /// A controller whose current routes were built for `baseline`.
    ///
    /// # Panics
    /// Panics unless `hysteresis` is finite and non-negative.
    pub fn new(baseline: LinkQuality, hysteresis: f64) -> Self {
        assert!(
            hysteresis.is_finite() && hysteresis >= 0.0,
            "hysteresis must be finite and >= 0"
        );
        ChurnController {
            baseline,
            hysteresis,
            reroutes: 0,
            suppressed: 0,
        }
    }

    /// The worst relative ETX drift of any link either map models:
    /// `max |etx_now − etx_base| / etx_base`. A link that died or came
    /// back (infinite ETX on one side only) drifts without bound; one
    /// dead on both sides does not drift. A link one map does not model
    /// is dead there, as [`LinkQuality::loss`] reads it.
    pub fn drift(&self, current: &LinkQuality) -> f64 {
        // Both link slabs ascend, so one merge walks every link of both.
        let (mut base, mut now) = (self.baseline.links().peekable(), current.links().peekable());
        let mut worst = 0.0f64;
        loop {
            let Some(link) = base.peek().into_iter().chain(now.peek()).map(|l| l.0).min() else {
                return worst;
            };
            let base_loss = base.next_if(|&(l, _)| l == link).map_or(1.0, |(_, p)| p);
            let now_loss = now.next_if(|&(l, _)| l == link).map_or(1.0, |(_, p)| p);
            let (base, now) = (etx_of_loss(base_loss), etx_of_loss(now_loss));
            let drift = if base.is_finite() {
                (now - base).abs() / base
            } else if now.is_finite() {
                f64::INFINITY
            } else {
                0.0
            };
            worst = worst.max(drift);
        }
    }

    /// Observes `current` quality: returns true (and counts a reroute) if
    /// drift exceeds the hysteresis threshold, false (and counts a
    /// suppression) otherwise. On true the caller must rebuild routes and
    /// then [`ChurnController::rebase`].
    pub fn should_reroute(&mut self, current: &LinkQuality) -> bool {
        if self.drift(current) > self.hysteresis {
            self.reroutes += 1;
            crate::telemetry::counter(names::FAULTS_REROUTES, 1);
            true
        } else {
            self.suppressed += 1;
            crate::telemetry::counter(names::FAULTS_REROUTES_SUPPRESSED, 1);
            false
        }
    }

    /// Adopts `baseline` as the quality the (just rebuilt) routes match.
    pub fn rebase(&mut self, baseline: LinkQuality) {
        self.baseline = baseline;
    }

    /// Reroutes fired so far.
    pub fn reroutes(&self) -> usize {
        self.reroutes
    }

    /// Observations absorbed below the threshold so far.
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggregateFunction, AggregateKind, PartialRecord};
    use crate::exec::Op;
    use crate::plan::GlobalPlan;
    use crate::spec::AggregationSpec;
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_netsim::failure::FailureTrace;
    use m2m_netsim::{Deployment, RoutingMode, RoutingTables};
    use proptest::prelude::*;

    const MODES: [RoutingMode; 3] = [
        RoutingMode::ShortestPathTrees,
        RoutingMode::SharedSpanningTree,
        RoutingMode::SteinerTrees,
    ];

    fn network() -> Network {
        Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0))
    }

    fn spec() -> AggregationSpec {
        let mut s = AggregationSpec::new();
        s.add_function(
            NodeId(12),
            AggregateFunction::new(
                AggregateKind::WeightedAverage,
                [
                    (NodeId(0), 1.0),
                    (NodeId(1), 2.0),
                    (NodeId(3), 0.5),
                    (NodeId(6), 1.5),
                ],
            ),
        );
        s.add_function(
            NodeId(15),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0), (NodeId(2), 3.0)]),
        );
        s.add_function(
            NodeId(3),
            AggregateFunction::weighted_sum([(NodeId(0), 2.0), (NodeId(3), 1.0)]),
        );
        s
    }

    fn compile(net: &Network, spec: &AggregationSpec, mode: RoutingMode) -> CompiledSchedule {
        let routing = RoutingTables::build(net, &spec.source_to_destinations(), mode);
        let plan = GlobalPlan::build(net, spec, &routing);
        CompiledSchedule::compile(net, spec, &plan).unwrap()
    }

    fn dense_readings(compiled: &CompiledSchedule) -> Vec<f64> {
        compiled
            .sources()
            .ids()
            .iter()
            .map(|s| f64::from(s.0) * 1.25 - 3.0)
            .collect()
    }

    #[test]
    fn lossless_round_is_bit_identical_to_compiled() {
        let net = network();
        let spec = spec();
        for mode in [
            RoutingMode::ShortestPathTrees,
            RoutingMode::SharedSpanningTree,
            RoutingMode::SteinerTrees,
        ] {
            let compiled = compile(&net, &spec, mode);
            let faulty = FaultyExec::new(&net, &compiled);
            let readings = dense_readings(&compiled);
            let mut state = ExecState::for_schedule(&compiled);
            state.readings_mut().copy_from_slice(&readings);
            let plain_cost = compiled.run_round(&mut state);
            let mut scratch = faulty.scratch();
            for policy in [
                RetryPolicy::unlimited(10_000),
                RetryPolicy::bounded(1, 0, 10_000),
                RetryPolicy::bounded(0, 3, 10_000),
            ] {
                let out = faulty.run(
                    &readings,
                    &DeliveryModel::reliable(),
                    &policy,
                    42,
                    &mut scratch,
                );
                assert!(out.delivered);
                assert_eq!(out.retransmissions, 0);
                assert_eq!(out.dropped_messages, 0);
                assert_eq!(out.cost, plain_cost, "{mode:?}: cost must be bitwise equal");
                let exact: Vec<Option<f64>> = state.results().iter().map(|&r| Some(r)).collect();
                assert_eq!(
                    out.results, exact,
                    "{mode:?}: results must be bitwise equal"
                );
                assert_eq!(out.degraded_destinations(), 0);
                for c in &out.coverage {
                    assert!(c.complete());
                    assert_eq!(c.fraction(), 1.0);
                    assert!(c.missing.is_empty());
                }
            }
        }
    }

    #[test]
    fn demanded_sources_match_the_spec() {
        let net = network();
        let spec = spec();
        let compiled = compile(&net, &spec, RoutingMode::ShortestPathTrees);
        let faulty = FaultyExec::new(&net, &compiled);
        let readings = dense_readings(&compiled);
        let mut scratch = faulty.scratch();
        let out = faulty.run(
            &readings,
            &DeliveryModel::reliable(),
            &RetryPolicy::default(),
            0,
            &mut scratch,
        );
        for c in &out.coverage {
            let f = spec.function(c.destination).unwrap();
            assert_eq!(
                c.demanded,
                f.sources().count(),
                "destination {} demanded-set size",
                c.destination
            );
        }
    }

    #[test]
    fn lossy_rounds_retransmit_and_still_deliver_with_unlimited_retries() {
        let net = network();
        let spec = spec();
        let compiled = compile(&net, &spec, RoutingMode::ShortestPathTrees);
        let faulty = FaultyExec::new(&net, &compiled);
        let readings = dense_readings(&compiled);
        let mut scratch = faulty.scratch();
        let out = faulty.run(
            &readings,
            &DeliveryModel::uniform(0.3, 7),
            &RetryPolicy::unlimited(10_000),
            1,
            &mut scratch,
        );
        assert!(out.delivered);
        assert!(out.retransmissions > 0);
        assert_eq!(out.dropped_messages, 0);
        assert_eq!(out.degraded_destinations(), 0);
        assert!(out.slots_used >= faulty.slot_schedule().slot_count);
        // Retransmissions burn tx energy beyond the static round.
        assert!(out.cost.tx_uj > compiled.round_cost().tx_uj);
        assert!((out.cost.rx_uj - compiled.round_cost().rx_uj).abs() < 1e-9);
    }

    #[test]
    fn a_dead_link_degrades_exactly_its_downstream_destinations() {
        // Line network 0-1-2-3-4: dest 4 aggregates 0 and 3. Killing link
        // 0-1 forever loses source 0 but not source 3.
        let net = Network::with_default_energy(Deployment::grid(5, 1, 10.0, 12.0));
        let mut s = AggregationSpec::new();
        s.add_function(
            NodeId(4),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(3), 1.0)]),
        );
        let compiled = compile(&net, &s, RoutingMode::ShortestPathTrees);
        let faulty = FaultyExec::new(&net, &compiled);
        let trace = FailureTrace::new().down(NodeId(0), NodeId(1), 0, u64::MAX);
        let model = DeliveryModel::trace(trace);
        let readings = dense_readings(&compiled);
        let mut scratch = faulty.scratch();
        let out = faulty.run(
            &readings,
            &model,
            &RetryPolicy::bounded(3, 0, 1_000),
            0,
            &mut scratch,
        );
        assert!(!out.delivered);
        assert!(out.dropped_messages >= 1);
        assert_eq!(out.coverage.len(), 1);
        let c = &out.coverage[0];
        assert_eq!(c.destination, NodeId(4));
        assert_eq!(c.demanded, 2);
        assert_eq!(c.covered, 1);
        assert_eq!(c.missing, vec![NodeId(0)]);
        assert!((c.fraction() - 0.5).abs() < 1e-12);
        // The surviving half still evaluates: result is Σ over {3} only.
        let idx = compiled.sources().slot(NodeId(3)).unwrap();
        let expected = readings[idx];
        assert_eq!(out.results[0], Some(expected));
    }

    #[test]
    fn a_retry_slot_past_u32_max_saturates_on_both_clocks() {
        // A backoff that overflows the slot counter must push the retry
        // past the budget, as the event wheel's u64 ticks do, rather than
        // panic (debug) or wrap into an immediate retry (release).
        let net = Network::with_default_energy(Deployment::grid(5, 1, 10.0, 12.0));
        let mut s = AggregationSpec::new();
        s.add_function(
            NodeId(4),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(3), 1.0)]),
        );
        let compiled = compile(&net, &s, RoutingMode::ShortestPathTrees);
        let faulty = FaultyExec::new(&net, &compiled);
        let model =
            DeliveryModel::trace(FailureTrace::new().down(NodeId(0), NodeId(1), 0, u64::MAX));
        let policy = RetryPolicy::bounded(3, u32::MAX, 100);
        let readings = dense_readings(&compiled);
        let mut slots = faulty.run(&readings, &model, &policy, 0, &mut faulty.scratch());
        let sim = crate::sim::SimExec::new(&net, &compiled);
        let mut ticks = sim
            .run(&readings, &model, &policy, 0, &mut sim.state())
            .outcome;
        for out in [&slots, &ticks] {
            assert_eq!(
                out.retransmissions, 1,
                "one attempt, then a retry beyond the budget"
            );
            assert_eq!(out.dropped_messages, 0);
            assert_eq!(
                out.link_events,
                vec![LinkEvent {
                    tail: NodeId(0),
                    head: NodeId(1),
                    failures: 1,
                    dropped: false,
                }]
            );
        }
        slots.slots_used = 0;
        ticks.slots_used = 0;
        assert_eq!(slots, ticks);
    }

    /// The full-rescan slot loop, kept as the delivery pass's reference:
    /// every slot visits every message in ascending order and attempts
    /// each one at or past its assigned slot, past its backoff, with
    /// every predecessor resolved, asking `model` afresh per attempt. Its
    /// retry slot saturates like the pass's. Returns the delivery vector
    /// (delivered, dropped, attempts) and `(slots_used, retransmissions,
    /// dropped)`.
    #[allow(clippy::type_complexity)]
    fn rescan_delivery(
        faulty: &FaultyExec,
        model: &DeliveryModel,
        policy: &RetryPolicy,
        round_salt: u64,
    ) -> (Vec<bool>, Vec<bool>, Vec<u32>, (u32, usize, usize)) {
        let schedule = faulty.compiled().schedule();
        let message_count = schedule.messages.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); message_count];
        for p in 0..message_count {
            for &s in schedule.successors(p) {
                preds[s as usize].push(p);
            }
        }
        let mut delivered = vec![false; message_count];
        let mut dropped = vec![false; message_count];
        let mut attempts = vec![0u32; message_count];
        let mut next_attempt = vec![0u32; message_count];
        let mut slots_used = 0u32;
        let mut retransmissions = 0usize;
        let mut dropped_count = 0usize;
        let mut remaining = message_count;
        for slot in 0..policy.max_slots {
            if remaining == 0 {
                break;
            }
            let mut progressed = false;
            for m in 0..message_count {
                if delivered[m]
                    || dropped[m]
                    || faulty.slots.slots[m] > slot
                    || next_attempt[m] > slot
                {
                    continue;
                }
                if preds[m].iter().any(|&p| !delivered[p] && !dropped[p]) {
                    continue;
                }
                attempts[m] += 1;
                let (a, b) = schedule.messages[m].edge;
                if model.is_down(a, b, round_salt.wrapping_add(u64::from(slot))) {
                    retransmissions += 1;
                    if policy.max_attempts > 0 && attempts[m] >= policy.max_attempts {
                        dropped[m] = true;
                        dropped_count += 1;
                        remaining -= 1;
                    } else {
                        next_attempt[m] =
                            slot.saturating_add(1).saturating_add(policy.backoff_slots);
                    }
                    continue;
                }
                delivered[m] = true;
                remaining -= 1;
                slots_used = slots_used.max(slot + 1);
                progressed = true;
            }
            if !progressed && remaining > 0 {
                slots_used = slots_used.max(slot + 1);
            }
        }
        let counts = (slots_used, retransmissions, dropped_count);
        (delivered, dropped, attempts, counts)
    }

    /// The scalar gated fold the settle's compiled fold and re-fold
    /// replaced, kept as their reference: every op run in fold order
    /// (record steps topologically, then destinations ascending)
    /// left-folds its ops through the enum records, skipping ops whose
    /// gate is closed or whose source record came up empty. Returns the
    /// destination results and their coverage rows (`words` each).
    fn fold_gated(
        settler: &Settler,
        readings: &[f64],
        delivered: &[bool],
    ) -> (Vec<Option<f64>>, Vec<u64>) {
        let compiled = &settler.compiled;
        let words = settler.words;
        let message_of = &compiled.schedule().message_of;
        let fold_step = |first_op: u32,
                         op_count: u32,
                         kind: AggregateKind,
                         records: &[Option<PartialRecord>],
                         unit_cover: &[u64],
                         row: &mut [u64]| {
            row.fill(0);
            let mut acc: Option<PartialRecord> = None;
            for k in first_op as usize..(first_op + op_count) as usize {
                if !settler.gate_open(settler.op_gate[k], message_of, delivered) {
                    continue;
                }
                let part = match compiled.ops.get(k) {
                    Op::Pre { slot, alpha } => {
                        row[slot as usize / 64] |= 1 << (slot % 64);
                        kind.pre_aggregate_weighted(alpha, readings[slot as usize])
                    }
                    Op::FromUnit { unit } => {
                        let src = &unit_cover[unit as usize * words..][..words];
                        for (have, &more) in row.iter_mut().zip(src) {
                            *have |= more;
                        }
                        match records[unit as usize] {
                            Some(r) => r,
                            None => continue, // delivered, but nothing survived upstream
                        }
                    }
                };
                acc = Some(match acc {
                    None => part,
                    Some(prev) => kind.merge_records(prev, part),
                });
            }
            acc
        };
        let mut records: Vec<Option<PartialRecord>> = vec![None; compiled.unit_count];
        let mut unit_cover = vec![0u64; compiled.unit_count * words];
        let mut row = vec![0u64; words];
        for step in &compiled.record_steps {
            let acc = fold_step(
                step.first_op,
                step.op_count,
                step.kind,
                &records,
                &unit_cover,
                &mut row,
            );
            records[step.unit as usize] = acc;
            unit_cover[step.unit as usize * words..][..words].copy_from_slice(&row);
        }
        let mut results = Vec::new();
        let mut cover = vec![0u64; compiled.dest_steps.len() * words];
        for (step, row) in compiled.dest_steps.iter().zip(cover.chunks_mut(words)) {
            let acc = fold_step(
                step.first_op,
                step.op_count,
                step.kind,
                &records,
                &unit_cover,
                row,
            );
            results.push(acc.map(|r| step.kind.evaluate_record(r)));
        }
        (results, cover)
    }

    /// Readings in `kind`'s domain: strictly positive for
    /// `GeometricMean`, signed for every other kind.
    fn kind_readings(compiled: &CompiledSchedule, kind: AggregateKind, seed: u64) -> Vec<f64> {
        (0..compiled.sources().len())
            .map(|s| {
                let x = (s as f64 * 0.59 + (seed % 1_000) as f64 * 0.091).sin() * 30.0
                    - s as f64 * 0.04;
                if kind == AggregateKind::GeometricMean {
                    x.abs() + 0.125
                } else {
                    x
                }
            })
            .collect()
    }

    /// A small seeded hash for picking links in the loss-model builders.
    fn pick(seed: u64, m: usize) -> u64 {
        let h = (seed ^ m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 29)
    }

    /// Per-link loss from distance-based link quality, with some message
    /// links forced to p = 1 and p = 0 and some left out of the map.
    fn per_link_model(net: &Network, faulty: &FaultyExec, p: f64, seed: u64) -> DeliveryModel {
        let mut quality = LinkQuality::distance_based(net, p, seed);
        for (m, msg) in faulty.compiled().schedule().messages.iter().enumerate() {
            match pick(seed, m) % 8 {
                0 => quality.set_loss(msg.edge.0, msg.edge.1, 1.0),
                1 => quality.set_loss(msg.edge.0, msg.edge.1, 0.0),
                _ => {}
            }
        }
        let absent: Vec<(NodeId, NodeId)> = faulty
            .compiled()
            .schedule()
            .messages
            .iter()
            .enumerate()
            .filter(|&(m, _)| pick(seed, m) % 8 == 2)
            .map(|(_, msg)| (msg.edge.0.min(msg.edge.1), msg.edge.0.max(msg.edge.1)))
            .collect();
        DeliveryModel::PerLink {
            loss: quality
                .links()
                .filter(|(key, _)| !absent.contains(key))
                .collect(),
            seed,
        }
    }

    /// A scripted trace: some message links down for a stretch of each
    /// round in `salts`, one in sixteen down for good.
    fn trace_model(faulty: &FaultyExec, salts: &[u64], seed: u64) -> DeliveryModel {
        let span = u64::from(faulty.slot_schedule().slot_count.max(2));
        let mut trace = FailureTrace::new();
        for (m, msg) in faulty.compiled().schedule().messages.iter().enumerate() {
            let h = pick(seed, m);
            let (a, b) = msg.edge;
            match h % 16 {
                0 => trace = trace.down(a, b, 0, u64::MAX),
                1..=5 => {
                    for &salt in salts {
                        let from = salt + (h >> 8) % span;
                        trace = trace.down(a, b, from, from + 1 + (h >> 20) % span);
                    }
                }
                _ => {}
            }
        }
        DeliveryModel::trace(trace)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The one-pass delivery decides exactly what the full rescan
        /// decides: the same per-message delivery vector and the same
        /// `(slots_used, retransmissions, dropped)`, over every routing
        /// mode, all three loss models, and retry policies with unlimited
        /// attempts, backoff, and slot budgets below the makespan.
        #[test]
        fn delivery_pass_matches_the_full_rescan(
            place_seed in 0u64..10_000,
            wl_seed in 0u64..10_000,
            loss_seed in 0u64..10_000,
            base_salt in 0u64..1_000_000,
            p in 0.05f64..0.6,
        ) {
            let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
            let spec = generate_workload(&net, &WorkloadConfig::paper_default(8, 6, wl_seed));
            let salts: Vec<u64> = (0..4).map(|i| base_salt + i * SALT_STRIDE).collect();
            for mode in MODES {
                let compiled = compile(&net, &spec, mode);
                let faulty = FaultyExec::new(&net, &compiled);
                let half = faulty.slot_schedule().slot_count / 2;
                let models = [
                    DeliveryModel::uniform(p, loss_seed),
                    per_link_model(&net, &faulty, p, loss_seed),
                    trace_model(&faulty, &salts, loss_seed),
                ];
                let policies = [
                    RetryPolicy::unlimited(1_000),
                    RetryPolicy::bounded(0, 2, 1_000),
                    RetryPolicy::bounded(3, 0, 1_000),
                    RetryPolicy::bounded(4, 3, 1_000),
                    RetryPolicy::bounded(3, 1, 1),
                    RetryPolicy::bounded(2, 0, half),
                    RetryPolicy::unlimited(half),
                ];
                let mut scratch = faulty.scratch();
                for model in &models {
                    let links = faulty.link_losses(model);
                    for policy in &policies {
                        for &salt in &salts {
                            let (delivered, dropped, attempts, counts) =
                                rescan_delivery(&faulty, model, policy, salt);
                            let passed = faulty.deliver(&links, policy, salt, &mut scratch);
                            let at = format!("{mode:?} {policy:?} salt {salt}");
                            prop_assert_eq!(passed, counts, "{}", at);
                            prop_assert_eq!(&scratch.attempts, &attempts, "{}", at);
                            prop_assert_eq!(&scratch.delivered, &delivered, "{}", at);
                            prop_assert_eq!(&scratch.dropped, &dropped, "{}", at);
                        }
                    }
                }
            }
        }

        /// The settle's compiled fold plus re-fold answers what the scalar
        /// gated fold answers over the same delivery vector, on every
        /// aggregate kind: the same bits in every result (`None` where no
        /// input survived) and the same coverage row per destination, over
        /// every routing mode, all three loss models, and retry budgets
        /// down to one attempt and two slots, which lose whole
        /// destinations.
        #[test]
        fn settle_matches_the_gated_fold_on_every_kind(
            place_seed in 0u64..10_000,
            wl_seed in 0u64..10_000,
            loss_seed in 0u64..10_000,
            base_salt in 0u64..1_000_000,
            p in 0.1f64..0.6,
        ) {
            let net = Network::with_default_energy(Deployment::great_duck_island(place_seed));
            let salts: Vec<u64> = (0..2).map(|i| base_salt + i * SALT_STRIDE).collect();
            for kind in AggregateKind::ALL {
                let config = WorkloadConfig { kind, ..WorkloadConfig::paper_default(8, 6, wl_seed) };
                let spec = generate_workload(&net, &config);
                for mode in MODES {
                    let compiled = compile(&net, &spec, mode);
                    let faulty = FaultyExec::new(&net, &compiled);
                    let settler = &faulty.settler;
                    let words = settler.words;
                    let readings = kind_readings(&compiled, kind, loss_seed);
                    let everything = vec![true; compiled.message_facts.len()];
                    let (_, demanded) = fold_gated(settler, &readings, &everything);
                    prop_assert_eq!(&demanded, &settler.demanded_bits, "{:?} {:?}", kind, mode);
                    let models = [
                        DeliveryModel::uniform(p, loss_seed),
                        per_link_model(&net, &faulty, p, loss_seed),
                        trace_model(&faulty, &salts, loss_seed),
                    ];
                    let policies = [
                        RetryPolicy::bounded(3, 0, 1_000),
                        RetryPolicy::bounded(2, 1, 1_000),
                        RetryPolicy::bounded(1, 0, 1_000),
                        RetryPolicy::bounded(1, 0, 2),
                    ];
                    let mut scratch = faulty.scratch();
                    for model in &models {
                        for policy in &policies {
                            for &salt in &salts {
                                let out = faulty.run(&readings, model, policy, salt, &mut scratch);
                                let (results, rows) = fold_gated(settler, &readings, &scratch.delivered);
                                let at = format!("{kind:?} {mode:?} {policy:?} salt {salt}");
                                let bits = |r: &[Option<f64>]| -> Vec<Option<u64>> {
                                    r.iter().map(|x| x.map(f64::to_bits)).collect()
                                };
                                prop_assert_eq!(bits(&out.results), bits(&results), "{}", at);
                                prop_assert_eq!(out.coverage.len(), rows.len() / words, "{}", at);
                                for (i, c) in out.coverage.iter().enumerate() {
                                    // The outcome's row: demanded minus missing.
                                    let mut row = settler.demanded_bits[i * words..][..words].to_vec();
                                    for &s in &c.missing {
                                        let slot = compiled.sources().slot(s).unwrap();
                                        row[slot / 64] &= !(1 << (slot % 64));
                                    }
                                    let want = &rows[i * words..][..words];
                                    prop_assert_eq!(&row[..], want, "{} destination {}", at, c.destination);
                                    let covered: u32 = want.iter().map(|w| w.count_ones()).sum();
                                    prop_assert_eq!(c.covered, covered as usize, "{}", at);
                                    prop_assert_eq!(c.demanded, settler.demanded[i], "{}", at);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn run_rounds_is_deterministic_across_thread_counts() {
        let net = network();
        let spec = spec();
        let compiled = compile(&net, &spec, RoutingMode::ShortestPathTrees);
        let faulty = FaultyExec::new(&net, &compiled);
        let slots = compiled.sources().len();
        let rounds: Vec<Vec<f64>> = (0..13)
            .map(|r| (0..slots).map(|s| (r * 17 + s) as f64 * 0.25).collect())
            .collect();
        let model = DeliveryModel::uniform(0.25, 11);
        let policy = RetryPolicy::bounded(4, 1, 5_000);
        let serial = faulty.run_rounds(&rounds, &model, &policy, 99, 1);
        for threads in [2, 8] {
            assert_eq!(
                faulty.run_rounds(&rounds, &model, &policy, 99, threads),
                serial,
                "threads={threads}"
            );
        }
        // And rerunning gives the same outcomes (seeded, replayable).
        assert_eq!(faulty.run_rounds(&rounds, &model, &policy, 99, 4), serial);
    }

    #[test]
    fn degradation_tracker_ages_and_resets() {
        let mk = |complete: bool| FaultOutcome {
            results: vec![None],
            coverage: vec![DestCoverage {
                destination: NodeId(9),
                covered: usize::from(complete),
                demanded: 1,
                missing: if complete { vec![] } else { vec![NodeId(1)] },
            }],
            cost: RoundCost::default(),
            slots_used: 0,
            retransmissions: 0,
            dropped_messages: 0,
            delivered: complete,
            link_events: vec![],
        };
        let mut t = DegradationTracker::new();
        t.observe(&mk(false));
        t.observe(&mk(false));
        assert_eq!(t.staleness(NodeId(9)), 2);
        assert_eq!(t.max_staleness(), 2);
        t.observe(&mk(true));
        assert_eq!(t.staleness(NodeId(9)), 0);
        assert_eq!(t.rounds(), 3);
        assert_eq!(t.staleness(NodeId(1)), 0, "unobserved dest is fresh");
    }

    /// One-destination outcome with the given coverage, for tracker
    /// edge-case tests.
    fn coverage_outcome(dest: NodeId, complete: bool) -> FaultOutcome {
        FaultOutcome {
            results: vec![None],
            coverage: vec![DestCoverage {
                destination: dest,
                covered: usize::from(complete),
                demanded: 1,
                missing: if complete { vec![] } else { vec![NodeId(1)] },
            }],
            cost: RoundCost::default(),
            slots_used: 0,
            retransmissions: 0,
            dropped_messages: 0,
            delivered: complete,
            link_events: vec![],
        }
    }

    #[test]
    fn degradation_tracker_never_covered_destination_ages_unboundedly() {
        // A destination that never sees full coverage must age one round
        // per round — no cap, no wraparound, no accidental reset.
        let mut t = DegradationTracker::new();
        for round in 1..=1_000u64 {
            t.observe(&coverage_outcome(NodeId(7), false));
            assert_eq!(t.staleness(NodeId(7)), round);
        }
        assert_eq!(t.max_staleness(), 1_000);
        assert_eq!(t.rounds(), 1_000);
    }

    #[test]
    fn degradation_tracker_recovers_fully_after_long_outage() {
        // A single complete round clears an arbitrarily long outage —
        // staleness is "rounds since last full coverage", not a decaying
        // average — and a relapse restarts the count from one.
        let mut t = DegradationTracker::new();
        for _ in 0..500 {
            t.observe(&coverage_outcome(NodeId(7), false));
        }
        assert_eq!(t.staleness(NodeId(7)), 500);
        t.observe(&coverage_outcome(NodeId(7), true));
        assert_eq!(t.staleness(NodeId(7)), 0);
        assert_eq!(t.max_staleness(), 0);
        t.observe(&coverage_outcome(NodeId(7), false));
        assert_eq!(t.staleness(NodeId(7)), 1, "relapse restarts from 1");
    }

    #[test]
    fn degradation_tracker_reset_forgets_debt_but_keeps_rounds() {
        // A reroute makes accumulated staleness meaningless (it measured
        // paths that no longer exist): reset clears every destination's
        // debt, keeps the round count, and aging restarts from scratch.
        let mut t = DegradationTracker::new();
        for _ in 0..9 {
            t.observe(&coverage_outcome(NodeId(7), false));
            t.observe(&coverage_outcome(NodeId(8), false));
        }
        assert_eq!(t.max_staleness(), 9);
        t.reset_staleness();
        assert_eq!(t.staleness(NodeId(7)), 0);
        assert_eq!(t.staleness(NodeId(8)), 0);
        assert_eq!(t.max_staleness(), 0);
        assert_eq!(t.rounds(), 18, "reset must not rewrite history length");
        t.observe(&coverage_outcome(NodeId(7), false));
        assert_eq!(t.staleness(NodeId(7)), 1, "post-reset aging is fresh");
    }

    #[test]
    fn churn_controller_respects_hysteresis() {
        let net = network();
        let base = LinkQuality::distance_based(&net, 0.2, 3);
        let mut ctl = ChurnController::new(base.clone(), 0.3);
        // No drift: suppressed.
        assert!(!ctl.should_reroute(&base));
        assert_eq!(ctl.suppressed(), 1);
        // Small drift stays under the threshold.
        let small = base.with_drift(0.05, 7);
        assert!(ctl.drift(&small) < 0.3);
        assert!(!ctl.should_reroute(&small));
        // A link collapsing to near-unusable blows way past it.
        let mut bad = base.clone();
        let ((a, b), _) = base.links().next().unwrap();
        bad.set_loss(a, b, 0.95);
        assert!(ctl.drift(&bad) > 0.3);
        assert!(ctl.should_reroute(&bad));
        assert_eq!(ctl.reroutes(), 1);
        ctl.rebase(bad.clone());
        assert!(!ctl.should_reroute(&bad), "rebase resets the reference");
    }

    #[test]
    fn churn_drift_is_unbounded_when_a_link_dies_or_revives() {
        let net = network();
        let base = LinkQuality::distance_based(&net, 0.2, 3);
        let ((a, b), _) = base.links().nth(3).unwrap();
        let mut dead = base.clone();
        dead.set_loss(a, b, 1.0);
        let mut revived = dead.clone();
        revived.set_loss(a, b, 0.0);
        // clean -> dead
        assert_eq!(ChurnController::new(base, 0.3).drift(&dead), f64::INFINITY);
        let mut ctl = ChurnController::new(dead.clone(), 0.3);
        // dead -> dead: no drift
        assert_eq!(ctl.drift(&dead), 0.0);
        // dead -> clean: the revived link must trigger a reroute
        assert_eq!(ctl.drift(&revived), f64::INFINITY);
        assert!(ctl.should_reroute(&revived));
        // A baseline link the current map lacks reads as dead, and a
        // current link the baseline lacks reads as revived.
        let mut extra = revived.clone();
        extra.set_loss(NodeId(0), NodeId(15), 0.1);
        assert_eq!(
            ChurnController::new(extra.clone(), 0.3).drift(&revived),
            f64::INFINITY
        );
        assert_eq!(
            ChurnController::new(revived.clone(), 0.3).drift(&extra),
            f64::INFINITY
        );
        // Unmodeled on one side and dead on the other does not drift.
        let mut dead_extra = revived.clone();
        dead_extra.set_loss(NodeId(0), NodeId(15), 1.0);
        assert_eq!(ChurnController::new(revived, 0.3).drift(&dead_extra), 0.0);
    }
}
