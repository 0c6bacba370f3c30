//! Compiled round execution: build the schedule once, run epochs
//! allocation-free.
//!
//! The paper's steady-state model (§2) runs one plan unchanged for
//! thousands of epochs between workload updates, yet the reference
//! executor (`runtime::execute_round`, a test oracle behind the
//! `test-oracle` feature) rebuilds the full [`Schedule`] — including the
//! greedy message merger and its per-edge acyclicity checks — on every
//! round. [`CompiledSchedule`] lowers the schedule **once** into flat
//! dense-index arrays:
//!
//! * source node ids are interned to dense `u32` slots by a [`NodeIndex`];
//! * record units are listed in topological (wait-for) order, so every
//!   dependency is computed before its consumer, exactly as the reference
//!   path walks `Schedule::topo_order`;
//! * each unit's contributions become a contiguous run of `Op`s —
//!   `Pre { slot, alpha }` with the pre-aggregation weight baked in, or
//!   `FromUnit { unit }` pointing at an already-computed record;
//! * per-destination final evaluations are laid out in ascending
//!   destination order (the `BTreeMap` iteration order of the reference);
//! * each message's execution facts — unit count, per-attempt transmit
//!   and receive energy, and its endpoints' slots in the per-node
//!   observability planes — are recorded once, and the round's
//!   [`RoundCost`] and one reliable round's per-node profile are folded
//!   from them (both depend only on the message structure, not the
//!   readings). The loss-aware clocks ([`crate::faults`], [`crate::sim`])
//!   read the same facts per attempt.
//!
//! The op stream itself is stored as a **structure of arrays**
//! (`OpStream`: tag, argument, and weight slabs instead of an
//! enum-of-structs `Vec<Op>`), and all record state lives in dense `f64`
//! **component planes** rather than `Vec<Option<PartialRecord>>`: every
//! aggregate kind decomposes into at most three `f64` components (the
//! crate-private `agg::LaneKernel`), so a record unit is three
//! contiguous `f64` lanes, not a 32-byte tagged union. The fold over an
//! op run is monomorphized per [`AggregateKind`] — the kind dispatch
//! happens once per run, and the inner loop is branch-free arithmetic
//! over the component lanes.
//!
//! [`CompiledSchedule::run_round`] executes one epoch against an
//! [`ExecState`] scratch arena with **zero heap allocation** and no map
//! lookups: every access is an index into a flat array. Because the ops
//! preserve the reference path's contribution order and the lane kernels
//! perform exactly the arithmetic of
//! ([`AggregateKind::pre_aggregate_weighted`],
//! [`AggregateKind::merge_records`], [`AggregateKind::evaluate_record`]),
//! the results are **bit-identical** to `execute_round` — the same float
//! associativity order, asserted by `tests/exec_equivalence.rs`.
//!
//! [`CompiledSchedule::run_rounds_batched`] goes further: it executes
//! `W ∈ {1, 4, 8, 16}` **independent rounds per pass**, with the round
//! index as the fastest-moving lane dimension of every plane, so the
//! per-op work is a straight-line loop over `W` adjacent `f64`s that the
//! compiler auto-vectorizes. Lanes are whole rounds — no within-round
//! float association changes — so each lane's bits equal a scalar
//! [`CompiledSchedule::run_round`] of the same readings
//! (`tests/batched_equivalence.rs` pins this, NaN/∞ included).
//!
//! [`run_epochs_slab`] fans independent rounds (distinct reading vectors)
//! across worker threads in **chunked batches**: each worker owns one
//! lane-batched [`ExecState`] arena and writes its rounds' results
//! directly into a disjoint span of one preallocated output slab
//! ([`EpochSlab`]) — no per-round task dispatch, no per-round result
//! allocation. A live plan's compiled schedule belongs to its
//! [`crate::session::Session`], which recompiles only when an update
//! changed the plan's structure (Corollary 1) and otherwise refreshes the
//! baked-in weights in place ([`CompiledSchedule::refresh_weights`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use m2m_graph::NodeId;
use m2m_netsim::{EnergyModel, Network};

use crate::agg::{with_lane_kernel, AggregateFunction, AggregateKind, LaneKernel};
use crate::metrics::RoundCost;
use crate::parallel;
use crate::plan::GlobalPlan;
use crate::schedule::{build_schedule, Contribution, Schedule, UnitContent};
use crate::spec::AggregationSpec;

/// Dense interning of node ids: the sorted set of ids is the slot space,
/// so `slot` is a binary search (compile/load time only — the hot path
/// works purely in slots).
#[derive(Clone, Debug)]
pub struct NodeIndex {
    ids: Vec<NodeId>,
}

impl NodeIndex {
    fn from_ids(mut ids: Vec<NodeId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        NodeIndex { ids }
    }

    /// The dense slot of `id`, if interned.
    #[inline]
    pub fn slot(&self, id: NodeId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The node id at `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn id(&self, slot: usize) -> NodeId {
        self.ids[slot]
    }

    /// All interned ids in slot order (ascending).
    #[inline]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Number of interned ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no ids are interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// One lowered contribution, as a value. Mirrors [`Contribution`] with
/// all lookups (weight, reading slot) resolved at compile time. The hot
/// path never materializes these — ops are stored as a structure of
/// arrays ([`OpStream`]) — but the fault-tolerant executor
/// ([`crate::faults`]) replays the stream through [`OpStream::get`]
/// views when folding degraded rounds.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// Pre-aggregate the reading in `slot` with weight `alpha`.
    Pre { slot: u32, alpha: f64 },
    /// Merge the record computed for unit `unit`.
    FromUnit { unit: u32 },
}

/// Discriminant slab entry of an [`OpStream`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpTag {
    /// The op's argument is a reading slot; its weight is in `alphas`.
    Pre,
    /// The op's argument is a record unit index.
    FromUnit,
}

/// The compiled op stream in structure-of-arrays form: one tag slab, one
/// argument slab (reading slot for `Pre`, unit index for `FromUnit`),
/// and one weight slab (`α` for `Pre`, `0.0` filler for `FromUnit`).
/// Splitting the enum this way keeps the hot fold's per-op decode to two
/// narrow loads plus one `f64` load, with no padding dragged through the
/// cache — and lets [`CompiledSchedule::refresh_weights`] re-bake
/// weights by walking the `alphas` slab alone.
#[derive(Clone, Debug, Default)]
pub(crate) struct OpStream {
    pub(crate) tags: Vec<OpTag>,
    pub(crate) args: Vec<u32>,
    pub(crate) alphas: Vec<f64>,
}

impl OpStream {
    fn push_pre(&mut self, slot: u32, alpha: f64) {
        self.tags.push(OpTag::Pre);
        self.args.push(slot);
        self.alphas.push(alpha);
    }

    fn push_from_unit(&mut self, unit: u32) {
        self.tags.push(OpTag::FromUnit);
        self.args.push(unit);
        self.alphas.push(0.0);
    }

    /// Number of ops in the stream.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.tags.len()
    }

    /// The op at `i`, re-assembled as a value (cold paths only).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Op {
        match self.tags[i] {
            OpTag::Pre => Op::Pre {
                slot: self.args[i],
                alpha: self.alphas[i],
            },
            OpTag::FromUnit => Op::FromUnit { unit: self.args[i] },
        }
    }
}

/// One record unit to compute, in topological order. The ops in
/// `first_op .. first_op + op_count` are folded left-to-right in the
/// reference path's contribution order.
#[derive(Clone, Debug)]
pub(crate) struct RecordStep {
    /// Index into [`ExecState::records`] (== the unit's schedule index).
    pub(crate) unit: u32,
    /// The destination whose merging function applies.
    pub(crate) dest: NodeId,
    pub(crate) kind: AggregateKind,
    pub(crate) first_op: u32,
    pub(crate) op_count: u32,
}

/// One destination's final evaluation, in ascending destination order.
#[derive(Clone, Debug)]
pub(crate) struct DestStep {
    pub(crate) dest: NodeId,
    pub(crate) kind: AggregateKind,
    pub(crate) first_op: u32,
    pub(crate) op_count: u32,
}

/// One message's lowered execution facts, in schedule message order.
/// Its edge and payload bytes stay on the [`Schedule`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct MessageFacts {
    pub(crate) unit_count: u32,
    /// Slots of the message's tail / head in the obs profile's node
    /// universe, so a per-node plane update is two array stores.
    pub(crate) tail_slot: u32,
    pub(crate) head_slot: u32,
    /// Energy of one transmission attempt / one reception.
    pub(crate) tx_uj: f64,
    pub(crate) rx_uj: f64,
}

/// A schedule lowered to flat dense-index arrays, executable with zero
/// heap allocation per round. Built once per plan; see the module docs.
#[derive(Clone, Debug)]
pub struct CompiledSchedule {
    pub(crate) sources: NodeIndex,
    pub(crate) ops: OpStream,
    pub(crate) record_steps: Vec<RecordStep>,
    pub(crate) dest_steps: Vec<DestStep>,
    pub(crate) unit_count: usize,
    pub(crate) message_facts: Arc<[MessageFacts]>,
    round_cost: RoundCost,
    schedule: Arc<Schedule>,
    /// One reliable round's per-node observability profile (tx/rx counts
    /// and energies). The reliable path is readings-independent, so the
    /// hot loop only *counts* rounds; flushing multiplies this template.
    /// Its sorted node ids are the plane universe of every executor over
    /// this schedule.
    pub(crate) obs_profile: Arc<m2m_telemetry::timeseries::NodePlanes>,
}

impl CompiledSchedule {
    /// Builds the schedule for `plan` and lowers it. Errors if the plan
    /// is unschedulable (wait-for cycle, Theorem 2).
    ///
    /// Source interning reuses the plan's [`crate::topo::Topology`]
    /// snapshot: every demanded `(s, d)` pair produces exactly one `Pre(s)`
    /// contribution somewhere in the schedule (at the raw→record
    /// transition, or as a destination input when the pair stays raw or is
    /// local), so the topology's source set equals the set of `Pre`
    /// sources and no scan over the contributions is needed.
    pub fn compile(
        network: &Network,
        spec: &AggregationSpec,
        plan: &GlobalPlan,
    ) -> Result<Self, String> {
        crate::telemetry::counter(crate::telemetry::names::EXEC_COMPILES, 1);
        let schedule = build_schedule(spec, plan)?;
        let sources = NodeIndex::from_ids(plan.topology().sources().to_vec());
        Ok(Self::from_schedule_with_sources(
            network.energy(),
            spec,
            schedule,
            sources,
        ))
    }

    /// Lowers an already-built schedule, deriving the source set by
    /// scanning its `Pre` contributions.
    pub fn from_schedule(energy: &EnergyModel, spec: &AggregationSpec, schedule: Schedule) -> Self {
        let sources = NodeIndex::from_ids(pre_sources(&schedule));
        Self::from_schedule_with_sources(energy, spec, schedule, sources)
    }

    fn from_schedule_with_sources(
        energy: &EnergyModel,
        spec: &AggregationSpec,
        schedule: Schedule,
        sources: NodeIndex,
    ) -> Self {
        let _span = crate::telemetry::span(crate::telemetry::layer::EXEC_LOWER);
        debug_assert_eq!(
            sources.ids(),
            NodeIndex::from_ids(pre_sources(&schedule)).ids(),
            "interned sources must equal the schedule's Pre sources"
        );
        let function = |d: NodeId| -> &AggregateFunction {
            spec.function(d).expect("destination has a function")
        };
        let mut ops = OpStream::default();
        let mut lower_run = |f: &AggregateFunction, contribs: &[Contribution]| -> (u32, u32) {
            let first_op = ops.len() as u32;
            for c in contribs {
                match *c {
                    Contribution::Pre(s) => ops.push_pre(
                        sources.slot(s).expect("source interned above") as u32,
                        f.weight(s)
                            .unwrap_or_else(|| panic!("{s} is not a source of this function")),
                    ),
                    Contribution::FromUnit(u) => ops.push_from_unit(u as u32),
                }
            }
            (first_op, ops.len() as u32 - first_op)
        };

        // Record units in topological order — dependencies first, exactly
        // like the reference walk over `topo_order`.
        let mut record_steps: Vec<RecordStep> = Vec::new();
        for &u in &schedule.topo_order {
            let UnitContent::Record(ref group) = schedule.units[u].content else {
                continue;
            };
            let f = function(group.destination);
            let (first_op, op_count) = lower_run(f, &schedule.contributions[u]);
            record_steps.push(RecordStep {
                unit: u as u32,
                dest: group.destination,
                kind: f.kind(),
                first_op,
                op_count,
            });
        }

        // Destination evaluations in ascending id order (BTreeMap order).
        let mut dest_steps: Vec<DestStep> = Vec::new();
        for (&d, inputs) in &schedule.destination_inputs {
            let f = function(d);
            let (first_op, op_count) = lower_run(f, inputs);
            dest_steps.push(DestStep {
                dest: d,
                kind: f.kind(),
                first_op,
                op_count,
            });
        }

        // Per message: its facts, then the round cost and one reliable
        // round's per-node profile folded from them in message order —
        // every message pays tx at its tail and rx at its head, the
        // arithmetic of `Schedule::round_cost`, per node.
        let mut obs_profile = m2m_telemetry::timeseries::NodePlanes::for_ids(
            schedule
                .messages
                .iter()
                .flat_map(|m| [u64::from(m.edge.0 .0), u64::from(m.edge.1 .0)])
                .collect(),
        );
        let plane_slot = |n: NodeId| -> u32 {
            obs_profile
                .slot(u64::from(n.0))
                .expect("endpoint in profile universe") as u32
        };
        let message_facts: Arc<[MessageFacts]> = schedule
            .messages
            .iter()
            .enumerate()
            .map(|(m, msg)| MessageFacts {
                unit_count: msg.units.len() as u32,
                tail_slot: plane_slot(msg.edge.0),
                head_slot: plane_slot(msg.edge.1),
                tx_uj: energy.tx_cost_uj(schedule.message_bytes[m]),
                rx_uj: energy.rx_cost_uj(schedule.message_bytes[m]),
            })
            .collect();
        let mut round_cost = RoundCost::default();
        for (m, msg) in message_facts.iter().enumerate() {
            round_cost.tx_uj += msg.tx_uj;
            round_cost.rx_uj += msg.rx_uj;
            round_cost.messages += 1;
            round_cost.units += msg.unit_count as usize;
            round_cost.payload_bytes += u64::from(schedule.message_bytes[m]);
            obs_profile.record_tx(msg.tail_slot as usize, 1, msg.tx_uj);
            obs_profile.record_rx(msg.head_slot as usize, 1, msg.rx_uj);
        }
        obs_profile.add_rounds(1);

        CompiledSchedule {
            sources,
            ops,
            record_steps,
            dest_steps,
            unit_count: schedule.units.len(),
            message_facts,
            round_cost,
            schedule: Arc::new(schedule),
            obs_profile: Arc::new(obs_profile),
        }
    }

    /// The interned source ids (slot order defines the layout of
    /// [`ExecState::readings_mut`] and of each row passed to
    /// [`run_epochs_slab`]).
    #[inline]
    pub fn sources(&self) -> &NodeIndex {
        &self.sources
    }

    /// `readings` (keyed by node id) as a dense vector in source slot
    /// order.
    ///
    /// # Panics
    /// Panics if a source reading is missing.
    pub(crate) fn dense_readings(&self, readings: &BTreeMap<NodeId, f64>) -> Vec<f64> {
        let reading = |s| {
            *readings
                .get(s)
                .unwrap_or_else(|| panic!("no reading for source {s}"))
        };
        self.sources.ids().iter().map(reading).collect()
    }

    /// Destinations in result order (ascending id).
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dest_steps.iter().map(|s| s.dest)
    }

    /// Number of destinations (length of [`ExecState::results`]).
    #[inline]
    pub fn destination_count(&self) -> usize {
        self.dest_steps.len()
    }

    /// The underlying schedule (message structure, per-edge counts).
    #[inline]
    pub fn schedule(&self) -> &Arc<Schedule> {
        &self.schedule
    }

    /// The precomputed per-round cost (independent of readings).
    #[inline]
    pub fn round_cost(&self) -> RoundCost {
        self.round_cost
    }

    /// Executes one round against the readings already loaded in `state`
    /// (see [`ExecState::load_readings`] / [`ExecState::readings_mut`]),
    /// leaving per-destination results in [`ExecState::results`].
    ///
    /// This is the scalar hot path — the `W = 1` instantiation of the
    /// lane-batched engine: no heap allocation, no map lookups, kind
    /// dispatch once per op run.
    ///
    /// # Panics
    /// Panics if `state` was sized for a different compiled schedule or
    /// built with a lane width other than 1.
    pub fn run_round(&self, state: &mut ExecState) -> RoundCost {
        // One relaxed load when tracing is off — the documented cost of
        // instrumenting the hot path.
        crate::telemetry::counter(crate::telemetry::names::EXEC_ROUNDS, 1);
        if m2m_telemetry::timeseries::obs_enabled() {
            state.obs_rounds += 1;
        }
        assert_eq!(state.width, 1, "run_round needs a width-1 state");
        self.check_state(state);
        self.round_window::<1>(state);
        self.round_cost
    }

    fn check_state(&self, state: &ExecState) {
        let w = state.width;
        assert_eq!(
            state.readings.len(),
            self.sources.len() * w,
            "state/schedule mismatch"
        );
        assert_eq!(
            state.rec0.len(),
            self.unit_count * w,
            "state/schedule mismatch"
        );
        assert_eq!(
            state.results.len(),
            self.dest_steps.len() * w,
            "state/schedule mismatch"
        );
    }

    /// Executes one window of `W` rounds whose readings are loaded
    /// lane-major in `state.readings`. Lanes are independent rounds: all
    /// arithmetic is per-lane, in the compiled op order, so each lane is
    /// bit-identical to a scalar round of the same readings.
    fn round_window<const W: usize>(&self, state: &mut ExecState) {
        for step in &self.record_steps {
            assert!(
                step.op_count > 0,
                "record unit {} for {} has no contributions",
                step.unit,
                step.dest
            );
            let base = step.unit as usize * W;
            with_lane_kernel!(step.kind, K => {
                let (a0, a1, a2) = fold_run::<K, W>(
                    &self.ops,
                    step.first_op,
                    step.op_count,
                    &state.readings,
                    &state.rec0,
                    &state.rec1,
                    &state.rec2,
                );
                state.rec0[base..base + W].copy_from_slice(&a0);
                if K::COMPS > 1 {
                    state.rec1[base..base + W].copy_from_slice(&a1);
                }
                if K::COMPS > 2 {
                    state.rec2[base..base + W].copy_from_slice(&a2);
                }
            });
        }
        for (i, step) in self.dest_steps.iter().enumerate() {
            assert!(
                step.op_count > 0,
                "destination {} received no inputs",
                step.dest
            );
            let base = i * W;
            with_lane_kernel!(step.kind, K => {
                let (a0, a1, a2) = fold_run::<K, W>(
                    &self.ops,
                    step.first_op,
                    step.op_count,
                    &state.readings,
                    &state.rec0,
                    &state.rec1,
                    &state.rec2,
                );
                for w in 0..W {
                    state.results[base + w] = K::eval((a0[w], a1[w], a2[w]));
                }
            });
        }
    }

    /// Executes one round per entry of `rounds` (dense reading vectors in
    /// [`CompiledSchedule::sources`] slot order), `state.width()` lanes
    /// at a time, writing per-destination results round-major into `out`
    /// (`out[r * destination_count + d]`). Ragged tails (final window
    /// shorter than the lane width) are handled by replicating the last
    /// round into the pad lanes and discarding their results — pad lanes
    /// never touch real output, and lanes never interact, so every
    /// written result is bit-identical to a scalar [`Self::run_round`].
    ///
    /// Allocation-free given a prepared `state` and `out` slab; this is
    /// the engine under [`run_epochs_slab`].
    ///
    /// # Panics
    /// Panics if `state` was sized for a different schedule, a reading
    /// vector has the wrong length, or `out` is not exactly
    /// `rounds.len() * destination_count` long.
    pub fn run_rounds_batched(
        &self,
        rounds: &[Vec<f64>],
        state: &mut ExecState,
        out: &mut [f64],
    ) -> RoundCost {
        crate::telemetry::counter(crate::telemetry::names::EXEC_ROUNDS, rounds.len() as u64);
        if m2m_telemetry::timeseries::obs_enabled() {
            state.obs_rounds += rounds.len() as u64;
        }
        self.check_state(state);
        let dests = self.dest_steps.len();
        assert_eq!(
            out.len(),
            rounds.len() * dests,
            "output slab must be rounds x destinations"
        );
        let width = state.width;
        let mut r0 = 0;
        while r0 < rounds.len() {
            let lanes = (rounds.len() - r0).min(width);
            // Transpose this window's rounds into lane-major readings;
            // pad lanes replicate the window's last real round.
            for lane in 0..width {
                let row = &rounds[r0 + lane.min(lanes - 1)];
                assert_eq!(
                    row.len(),
                    self.sources.len(),
                    "reading vector length must match the interned source count"
                );
                for (slot, &v) in row.iter().enumerate() {
                    state.readings[slot * width + lane] = v;
                }
            }
            match width {
                1 => self.round_window::<1>(state),
                4 => self.round_window::<4>(state),
                8 => self.round_window::<8>(state),
                16 => self.round_window::<16>(state),
                w => unreachable!("unsupported lane width {w}"),
            }
            for lane in 0..lanes {
                let dst = (r0 + lane) * dests;
                for d in 0..dests {
                    out[dst + d] = state.results[d * width + lane];
                }
            }
            r0 += lanes;
        }
        self.round_cost
    }

    /// Convenience wrapper: loads `readings` (keyed by node id, as the
    /// reference path takes them) into `state` and runs one round.
    ///
    /// # Panics
    /// Panics if a source reading is missing.
    pub fn run_round_on(
        &self,
        readings: &BTreeMap<NodeId, f64>,
        state: &mut ExecState,
    ) -> RoundCost {
        state.load_readings(self, readings);
        self.run_round(state)
    }

    /// Re-bakes the pre-aggregation weights `α_{d,s}` from `spec` into the
    /// compiled ops, in place. Sound only for pure re-weight updates —
    /// ones that change no `(source, destination)` pair, no aggregate
    /// kind, and no routing — because those leave every per-edge problem
    /// (and hence the schedule structure) unchanged while still changing
    /// the arithmetic. [`crate::session::Session`] decides
    /// refresh-vs-recompile.
    ///
    /// # Panics
    /// Panics if a destination or source disappeared from `spec`, or if a
    /// destination's aggregate kind changed (both require a recompile).
    pub fn refresh_weights(&mut self, spec: &AggregationSpec) {
        // Split borrows: the step tables and the source interning are read
        // while only the `alphas` slab is written, so a pure re-weight
        // allocates nothing.
        let CompiledSchedule {
            sources,
            ops,
            record_steps,
            dest_steps,
            ..
        } = self;
        let runs = record_steps
            .iter()
            .map(|s| (s.dest, s.kind, s.first_op, s.op_count))
            .chain(
                dest_steps
                    .iter()
                    .map(|s| (s.dest, s.kind, s.first_op, s.op_count)),
            );
        for (dest, kind, first_op, op_count) in runs {
            let f = spec
                .function(dest)
                .unwrap_or_else(|| panic!("no function at {dest}; recompile instead"));
            assert_eq!(
                f.kind(),
                kind,
                "aggregate kind changed at {dest}; recompile instead"
            );
            let lo = first_op as usize;
            for i in lo..lo + op_count as usize {
                if ops.tags[i] == OpTag::Pre {
                    let s = sources.ids[ops.args[i] as usize];
                    ops.alphas[i] = f
                        .weight(s)
                        .unwrap_or_else(|| panic!("{s} no longer a source of {dest}; recompile"));
                }
            }
        }
    }
}

/// Every source that appears as a `Pre` contribution in `schedule`
/// (duplicates included; callers dedup via [`NodeIndex::from_ids`]).
fn pre_sources(schedule: &Schedule) -> Vec<NodeId> {
    let mut source_ids: Vec<NodeId> = Vec::new();
    let pres = schedule
        .contributions
        .iter()
        .chain(schedule.destination_inputs.values());
    for contribs in pres {
        for c in contribs {
            if let Contribution::Pre(s) = c {
                source_ids.push(*s);
            }
        }
    }
    source_ids
}

/// Lane widths [`ExecState::batched`] accepts. Powers of two up to one
/// cache line of `f64`s per plane row; 1 is the scalar path.
pub const SUPPORTED_LANE_WIDTHS: [usize; 4] = [1, 4, 8, 16];

/// Default lane width for [`run_epochs_slab`] batching
/// (overridable per [`crate::config::Config::lanes`]).
pub const DEFAULT_LANE_WIDTH: usize = 8;

// Three component planes cover every kernel, by the agg-side contract.
const _: () = assert!(crate::agg::MAX_COMPONENTS == 3);

/// Monomorphized left fold of a contiguous op run over `W` lanes at once.
///
/// The kind dispatch happened before the call (see
/// [`crate::agg::with_lane_kernel`]); in here every `K::pre`/`K::merge`
/// is a concrete inlined arithmetic kernel, so each op decodes once and
/// then runs a straight-line loop over `W` adjacent `f64`s — the shape
/// the auto-vectorizer wants. Per lane, the op order and the
/// merge-association order are exactly those of the reference path's left
/// fold, so lane `w` of the result is bit-identical to a scalar fold of
/// lane `w`'s round.
///
/// `count` must be ≥ 1 (the compiler never emits an empty run; callers
/// assert with the empty-run panics the scalar path always had).
#[inline(always)]
fn fold_run<K: LaneKernel, const W: usize>(
    ops: &OpStream,
    first: u32,
    count: u32,
    readings: &[f64],
    rec0: &[f64],
    rec1: &[f64],
    rec2: &[f64],
) -> ([f64; W], [f64; W], [f64; W]) {
    let lo = first as usize;
    let hi = lo + count as usize;
    let mut a0 = [0.0f64; W];
    let mut a1 = [0.0f64; W];
    let mut a2 = [0.0f64; W];
    for i in lo..hi {
        let arg = ops.args[i] as usize;
        match ops.tags[i] {
            OpTag::Pre => {
                let alpha = ops.alphas[i];
                let base = arg * W;
                if i == lo {
                    for w in 0..W {
                        let p = K::pre(alpha, readings[base + w]);
                        a0[w] = p.0;
                        a1[w] = p.1;
                        a2[w] = p.2;
                    }
                } else {
                    for w in 0..W {
                        let p = K::pre(alpha, readings[base + w]);
                        let m = K::merge((a0[w], a1[w], a2[w]), p);
                        a0[w] = m.0;
                        a1[w] = m.1;
                        a2[w] = m.2;
                    }
                }
            }
            OpTag::FromUnit => {
                let base = arg * W;
                if i == lo {
                    a0[..W].copy_from_slice(&rec0[base..base + W]);
                    if K::COMPS > 1 {
                        a1[..W].copy_from_slice(&rec1[base..base + W]);
                    }
                    if K::COMPS > 2 {
                        a2[..W].copy_from_slice(&rec2[base..base + W]);
                    }
                } else {
                    for w in 0..W {
                        let p = (
                            rec0[base + w],
                            if K::COMPS > 1 { rec1[base + w] } else { 0.0 },
                            if K::COMPS > 2 { rec2[base + w] } else { 0.0 },
                        );
                        let m = K::merge((a0[w], a1[w], a2[w]), p);
                        a0[w] = m.0;
                        a1[w] = m.1;
                        a2[w] = m.2;
                    }
                }
            }
        }
    }
    (a0, a1, a2)
}

/// Reusable scratch arena for [`CompiledSchedule::run_round`] /
/// [`CompiledSchedule::run_rounds_batched`]. Allocate once (per worker),
/// run any number of rounds.
///
/// All state is dense `f64` planes with the lane index fastest-moving:
/// `readings[slot * width + lane]`, record component `c` of unit `u` at
/// `rec{c}[u * width + lane]`, `results[dest * width + lane]`. A record
/// is *not* a tagged union here — every aggregate kind decomposes into at
/// most three `f64` components (`agg::MAX_COMPONENTS`; counts ride in
/// `f64`, exact below 2^53), and only the first `LaneKernel::COMPS`
/// planes of a unit carry meaning for its kind.
#[derive(Clone, Debug)]
pub struct ExecState {
    /// Lane count `W`: rounds executed per [`CompiledSchedule::round_window`] pass.
    width: usize,
    /// One reading per interned source per lane, lane-major.
    readings: Vec<f64>,
    /// Record component planes: `unit_count * width` each.
    rec0: Vec<f64>,
    rec1: Vec<f64>,
    rec2: Vec<f64>,
    /// One result per destination per lane, lane-major.
    results: Vec<f64>,
    /// The compiled schedule's static one-round profile (shared).
    obs_profile: Arc<m2m_telemetry::timeseries::NodePlanes>,
    /// Rounds run since the last observability flush. The reliable path
    /// is readings-independent per node, so counting is the *entire*
    /// per-round observability cost; [`ExecState::flush_obs`] multiplies
    /// the profile by this count into the global plane registry.
    obs_rounds: u64,
}

impl ExecState {
    /// Allocates scalar (width-1) scratch sized for `compiled` — the
    /// shape [`CompiledSchedule::run_round`] requires.
    pub fn for_schedule(compiled: &CompiledSchedule) -> Self {
        Self::batched(compiled, 1)
    }

    /// Allocates lane-batched scratch sized for `compiled` with `width`
    /// lanes per plane row.
    ///
    /// # Panics
    /// Panics unless `width` is one of [`SUPPORTED_LANE_WIDTHS`].
    pub fn batched(compiled: &CompiledSchedule, width: usize) -> Self {
        assert!(
            SUPPORTED_LANE_WIDTHS.contains(&width),
            "unsupported lane width {width} (supported: {SUPPORTED_LANE_WIDTHS:?})"
        );
        ExecState {
            width,
            readings: vec![0.0; compiled.sources.len() * width],
            rec0: vec![0.0; compiled.unit_count * width],
            rec1: vec![0.0; compiled.unit_count * width],
            rec2: vec![0.0; compiled.unit_count * width],
            results: vec![0.0; compiled.dest_steps.len() * width],
            obs_profile: Arc::clone(&compiled.obs_profile),
            obs_rounds: 0,
        }
    }

    /// Flushes the rounds counted since the last flush into the global
    /// per-node plane registry (profile × count). Called on chunk
    /// completion by [`run_epochs_slab`]; dropping the state is the
    /// backstop, so counts can never be lost.
    pub fn flush_obs(&mut self) {
        if self.obs_rounds > 0 {
            m2m_telemetry::timeseries::merge_planes_scaled(&self.obs_profile, self.obs_rounds);
            self.obs_rounds = 0;
        }
    }

    /// The lane count this arena was allocated for.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Copies the readings of every interned source out of a per-node map
    /// (the reference path's input shape). Width-1 states only.
    ///
    /// # Panics
    /// Panics if a source reading is missing or the state is lane-batched.
    pub fn load_readings(&mut self, compiled: &CompiledSchedule, readings: &BTreeMap<NodeId, f64>) {
        assert_eq!(self.width, 1, "load_readings needs a width-1 state");
        for (slot, &s) in compiled.sources.ids().iter().enumerate() {
            self.readings[slot] = *readings
                .get(&s)
                .unwrap_or_else(|| panic!("no reading for source {s}"));
        }
    }

    /// Mutable access to the reading plane (slot order =
    /// [`CompiledSchedule::sources`] order; lane-major when batched), for
    /// callers that already keep readings dense.
    #[inline]
    pub fn readings_mut(&mut self) -> &mut [f64] {
        &mut self.readings
    }

    /// Per-destination results of the last round, in ascending
    /// destination order ([`CompiledSchedule::destinations`]);
    /// lane-major (`results[dest * width + lane]`) when batched.
    #[inline]
    pub fn results(&self) -> &[f64] {
        &self.results
    }

    /// The last round's results keyed by destination id (allocates — use
    /// [`ExecState::results`] on the hot path). Width-1 states only.
    ///
    /// # Panics
    /// Panics if the state is lane-batched.
    pub fn result_map(&self, compiled: &CompiledSchedule) -> BTreeMap<NodeId, f64> {
        assert_eq!(self.width, 1, "result_map needs a width-1 state");
        compiled
            .dest_steps
            .iter()
            .zip(&self.results)
            .map(|(s, &r)| (s.dest, r))
            .collect()
    }
}

impl Drop for ExecState {
    fn drop(&mut self) {
        self.flush_obs();
    }
}

/// The preallocated output of [`run_epochs_slab`]: one flat
/// rounds × destinations `f64` slab plus the (readings-independent) round
/// cost — no per-round `Vec`, no per-round allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochSlab {
    results: Vec<f64>,
    rounds: usize,
    dests: usize,
    cost: RoundCost,
}

impl EpochSlab {
    /// All results, round-major: `results()[r * destination_count + d]`.
    #[inline]
    pub fn results(&self) -> &[f64] {
        &self.results
    }

    /// Round `r`'s per-destination results, in ascending destination
    /// order.
    ///
    /// # Panics
    /// Panics if `r` is out of range.
    #[inline]
    pub fn round(&self, r: usize) -> &[f64] {
        &self.results[r * self.dests..(r + 1) * self.dests]
    }

    /// Number of rounds executed.
    #[inline]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of destinations per round.
    #[inline]
    pub fn destination_count(&self) -> usize {
        self.dests
    }

    /// The per-round cost (identical for every round — it only depends on
    /// the message structure).
    #[inline]
    pub fn cost(&self) -> RoundCost {
        self.cost
    }
}

/// Runs one round per entry of `rounds` — each a dense reading vector in
/// [`CompiledSchedule::sources`] slot order — through the lane-batched
/// engine (`width` lanes per pass), fanned across up to `threads` workers
/// in **chunked batches**: the rounds are statically partitioned into one
/// contiguous chunk per worker, each worker owns one lane-batched
/// [`ExecState`] arena, and every chunk writes its results directly into
/// its disjoint span of the preallocated slab. One task dispatch per
/// worker instead of one per round, and zero per-round allocation.
///
/// Because lanes are independent rounds, every round's bits are those of
/// a scalar [`CompiledSchedule::run_round`] no matter how the rounds land
/// in chunks or lane windows — the output is identical at any `width`
/// and any thread count.
///
/// `threads` is a ceiling, not a quota: the fan-out never spawns more
/// workers than the machine's available parallelism. A statically
/// partitioned chunk fan-out cannot profit from oversubscription — extra
/// workers on a saturated machine only add scheduling overhead — and the
/// worker count cannot change the results, so clamping is free.
///
/// # Panics
/// Panics if any reading vector has the wrong length or `width` is not
/// one of [`SUPPORTED_LANE_WIDTHS`].
pub fn run_epochs_slab(
    compiled: &CompiledSchedule,
    rounds: &[Vec<f64>],
    width: usize,
    threads: usize,
) -> EpochSlab {
    let _span = crate::telemetry::span(crate::telemetry::layer::EXEC_ROUNDS);
    let threads = threads.min(std::thread::available_parallelism().map_or(1, |p| p.get()));
    let dests = compiled.dest_steps.len();
    let mut results = vec![0.0; rounds.len() * dests];
    if rounds.is_empty() || dests == 0 {
        // Nothing to fan out (but a destination-free schedule still
        // counts its rounds and checks its inputs).
        if !rounds.is_empty() {
            let mut state = ExecState::batched(compiled, width);
            compiled.run_rounds_batched(rounds, &mut state, &mut results);
        }
        return EpochSlab {
            results,
            rounds: rounds.len(),
            dests,
            cost: compiled.round_cost,
        };
    }
    parallel::parallel_chunks_mut(
        rounds,
        &mut results,
        dests,
        threads,
        || ExecState::batched(compiled, width),
        |state, round_chunk, out_chunk| {
            compiled.run_rounds_batched(round_chunk, state, out_chunk);
            // Chunk done: fold this worker's round count into the global
            // plane registry now, not just at arena drop — the registry
            // is complete the moment the fan-out returns.
            state.flush_obs();
        },
    );
    EpochSlab {
        results,
        rounds: rounds.len(),
        dests,
        cost: compiled.round_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateKind;
    use crate::baselines::{plan_for_algorithm, Algorithm};
    use crate::runtime::execute_round;
    use m2m_netsim::{Deployment, RoutingMode, RoutingTables};

    fn network() -> Network {
        Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0))
    }

    fn readings(net: &Network) -> BTreeMap<NodeId, f64> {
        net.nodes()
            .map(|v| (v, f64::from(v.0) * 1.25 - 3.0))
            .collect()
    }

    fn spec(kind: AggregateKind) -> AggregationSpec {
        let mut s = AggregationSpec::new();
        s.add_function(
            NodeId(12),
            AggregateFunction::new(
                kind,
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
            AggregateFunction::new(kind, [(NodeId(0), 1.0), (NodeId(1), 1.0), (NodeId(2), 3.0)]),
        );
        s.add_function(
            NodeId(3),
            AggregateFunction::new(kind, [(NodeId(0), 2.0), (NodeId(12), 1.0)]),
        );
        s
    }

    #[test]
    fn compiled_is_bit_identical_to_reference() {
        let net = network();
        let vals = readings(&net);
        for kind in [
            AggregateKind::WeightedSum,
            AggregateKind::WeightedAverage,
            AggregateKind::WeightedVariance,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Count,
        ] {
            let spec = spec(kind);
            for mode in [
                RoutingMode::ShortestPathTrees,
                RoutingMode::SharedSpanningTree,
            ] {
                let routing = RoutingTables::build(&net, &spec.source_to_destinations(), mode);
                for alg in Algorithm::PLANNED {
                    let plan = plan_for_algorithm(&net, &spec, &routing, alg);
                    let reference = execute_round(&net, &spec, &plan, &vals);
                    let compiled = CompiledSchedule::compile(&net, &spec, &plan).unwrap();
                    let mut state = ExecState::for_schedule(&compiled);
                    let cost = compiled.run_round_on(&vals, &mut state);
                    assert_eq!(cost, reference.cost, "{kind:?}/{mode:?}");
                    assert_eq!(
                        state.result_map(&compiled),
                        reference.results,
                        "{kind:?}/{mode:?}: results must be bit-identical"
                    );
                    assert_eq!(
                        compiled.schedule().messages_per_edge(),
                        reference.schedule.messages_per_edge()
                    );
                }
            }
        }
    }

    #[test]
    fn run_epochs_matches_serial_at_any_thread_count() {
        let net = network();
        let spec = spec(AggregateKind::WeightedAverage);
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        let compiled = CompiledSchedule::compile(&net, &spec, &plan).unwrap();
        let slots = compiled.sources().len();
        let rounds: Vec<Vec<f64>> = (0..17)
            .map(|r| {
                (0..slots)
                    .map(|s| (r * 31 + s) as f64 * 0.5 - 4.0)
                    .collect()
            })
            .collect();
        let serial = run_epochs_slab(&compiled, &rounds, DEFAULT_LANE_WIDTH, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                run_epochs_slab(&compiled, &rounds, DEFAULT_LANE_WIDTH, threads),
                serial,
                "threads={threads}"
            );
        }
        // And each epoch equals a standalone run_round.
        let mut state = ExecState::for_schedule(&compiled);
        for (r, round) in rounds.iter().enumerate() {
            state.readings_mut().copy_from_slice(round);
            let cost = compiled.run_round(&mut state);
            assert_eq!(state.results(), serial.round(r));
            assert_eq!(cost, serial.cost());
        }
    }
}
