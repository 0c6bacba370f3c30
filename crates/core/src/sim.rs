//! The discrete-event distributed node runtime: every node an autonomous
//! component advancing on a shared event clock, with bounded per-link
//! message queues and a binary-heap event wheel — the execution model the
//! paper's motes actually live in, scaled to 100k–1M nodes.
//!
//! # Architecture
//!
//! [`SimExec`] is a clock over tables built once elsewhere: the message
//! graph of the [`crate::schedule::Schedule`], the per-message facts and
//! per-node plane universe of the [`CompiledSchedule`], and the settle
//! tables it shares with [`crate::faults::FaultyExec`] (op gates, relay
//! chains, demanded sets). It lowers no TDMA slots: its clock never reads
//! one.
//!
//! * **Components** — one per message endpoint, interned as dense slots
//!   of the sorted endpoint universe (the compiled observability
//!   profile's node ids). Each component owns one radio and one bounded
//!   outbound FIFO, represented intrusively: a `next` link per message
//!   plus head/tail/depth per component — no per-node allocation.
//! * **Event wheel** — a `BinaryHeap` of `(tick, seq)`-ordered events;
//!   `seq` is a monotone push counter, so the pop order is a total order
//!   independent of heap internals: runs are bit-replayable.
//! * **Message graph** — the schedule's successor CSR and predecessor
//!   counts, the same graph the TDMA delivery pass walks in slot order,
//!   so resolution is push-driven.
//! * **One answer path** — the wheel only decides delivery, filling the
//!   per-message delivery vector and failed-attempt bitset of the
//!   [`FaultScratch`] inside [`SimState`]; `Settler::settle` turns it
//!   into the answer (the compiled fold of the readings, re-folded where
//!   a loss touched it), the same step the TDMA executor ends with. The
//!   hot loop performs no heap allocation ([`SimState`] is reusable
//!   scratch).
//!
//! # One round
//!
//! A message becomes **ready** when every predecessor message has
//! *resolved* (delivered or lost), and joins its node's outbound FIFO.
//! The radio transmits the queue head once per tick; each attempt asks
//! the shared [`DeliveryModel`] with the same `(link, salt + tick)`
//! coordinate discipline the TDMA executor uses, so losses come from
//! the same seeded streams. A failed attempt backs off
//! [`RetryPolicy::backoff_slots`] ticks and retries; exhausting
//! `max_attempts` abandons the message (a `Lost` event still resolves
//! its successors — the protocol moves on). A delivered or lost message
//! decrements its successors' pending counts, cascading readiness.
//!
//! The round ends when the wheel drains or the tick budget
//! (`policy.max_slots`) expires, mirroring the TDMA slot budget. The
//! delivery vector is then final and `Settler::settle` folds every
//! node's records and every destination's result from whatever
//! arrived. That is what the protocol computes: a node folds a
//! message's records when the message is ready, and every op's gate
//! rides in a predecessor of the message that carries the op (raw relay
//! chains are transitively upstream), so the gates it sees then are
//! already final.
//!
//! **Equivalence contract**: at loss probability 0 (any retry policy),
//! every gate is open and every fold includes every op in the compiled
//! order, so [`SimOutcome::outcome`] results / cost / coverage are
//! **bit-identical** to [`crate::faults::FaultyExec::run`] and hence to
//! [`CompiledSchedule::run_round`] (`tests/sim_equivalence.rs` pins this
//! across routing modes). Under loss the two executors draw from the
//! same seeded per-link streams but index them by different clocks
//! (event ticks vs TDMA slots), so individual rounds may degrade
//! differently — both are valid schedules of the same protocol. Where
//! they decide the same delivery vector (links dead for the whole
//! round), they settle the same outcome up to the clock reading.
//!
//! The per-link queue bound is **backpressure accounting**, not a drop
//! policy: pushes past the bound are counted (per node and in total,
//! surfaced as [`SimOutcome::queue_overflows`] and flight-recorder
//! [`m2m_telemetry::timeseries::EventKind::QueueOverflow`] events) but
//! never discard messages, so determinism and the p=0 equivalence hold
//! for any bound while congested nodes remain visible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use m2m_graph::NodeId;
use m2m_netsim::{DeliveryModel, Network};

use crate::exec::CompiledSchedule;
use crate::faults::{FaultOutcome, FaultScratch, RetryPolicy, Settler};
use crate::telemetry::names;

/// Simulator tuning knobs, read from [`crate::config::Config`] by
/// [`crate::session::Session`] (`M2M_SIM_QUEUE` / `M2M_SIM_LATENCY`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimParams {
    /// Outbound FIFO depth per node before pushes count as overflow
    /// (accounting only — see the module docs).
    pub queue_cap: u32,
    /// Ticks a transmission spends in flight before delivery resolves.
    pub latency: u32,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            queue_cap: crate::config::DEFAULT_SIM_QUEUE,
            latency: crate::config::DEFAULT_SIM_LATENCY,
        }
    }
}

/// What one event is about. Payload is a dense index: the component for
/// `Tx`, the message for `Deliver` / `Lost`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EvKind {
    /// The component's radio attempts its queue head.
    Tx(u32),
    /// A transmitted message arrives at its head node.
    Deliver(u32),
    /// An abandoned message's loss becomes known downstream.
    Lost(u32),
}

/// One scheduled event. Ordering is `(time, seq)` — `seq` is unique per
/// push, so the wheel's pop order is total and replayable regardless of
/// heap layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ev {
    time: u64,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Queue-link sentinel: no next message / empty queue.
const NO_MSG: u32 = u32::MAX;

/// The outcome of one event-driven round: the usual loss-aware
/// [`FaultOutcome`] plus the simulator's own counters.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    /// Results / coverage / cost / link events, with the exact
    /// [`FaultOutcome`] semantics (`slots_used` is the final event tick).
    pub outcome: FaultOutcome,
    /// Events processed by the wheel this round.
    pub events: u64,
    /// The tick of the last processed event.
    pub ticks: u64,
    /// Deepest any node's outbound FIFO got this round.
    pub peak_queue_depth: u32,
    /// Pushes past the configured queue bound (accounting only).
    pub queue_overflows: u64,
    /// Nodes whose queue overflowed, with their overflow push counts
    /// (ascending node id; empty when nothing overflowed).
    pub overflow_nodes: Vec<(NodeId, u32)>,
}

/// Reusable scratch for [`SimExec::run`] — allocate once, run any number
/// of rounds without further allocation (outcomes excepted). It holds
/// only clock state plus one [`FaultScratch`], which carries the round's
/// delivery vector into `Settler::settle` and, on drop, flushes the
/// worker-local observability planes.
#[derive(Clone, Debug)]
pub struct SimState {
    heap: BinaryHeap<std::cmp::Reverse<Ev>>,
    seq: u64,
    /// Unresolved predecessors left per message.
    pending: Vec<u32>,
    /// Intrusive FIFO links (per message).
    next_in_q: Vec<u32>,
    /// Per component: queue head / tail / depth, radio busy flag.
    q_head: Vec<u32>,
    q_tail: Vec<u32>,
    q_depth: Vec<u32>,
    radio_busy: Vec<bool>,
    /// Per component: pushes past the bound (sparse, via `touched`).
    overflow_at: Vec<u32>,
    touched_overflow: Vec<u32>,
    scratch: FaultScratch,
}

/// The event-driven executor. Built once per plan; see the module docs.
#[derive(Clone, Debug)]
pub struct SimExec {
    settler: Settler,
    params: SimParams,
}

impl SimExec {
    /// Lowers `compiled` for event-driven execution with default
    /// parameters.
    pub fn new(network: &Network, compiled: &CompiledSchedule) -> Self {
        Self::with_params(network, compiled, SimParams::default())
    }

    /// Lowers `compiled` with explicit [`SimParams`]. The event clock
    /// reads no radio geometry, so `_network` goes unused: unlike
    /// [`crate::faults::FaultyExec::new`], this lowering assigns no TDMA
    /// slots.
    ///
    /// # Panics
    /// Panics if `params.queue_cap` or `params.latency` is zero.
    pub fn with_params(_network: &Network, compiled: &CompiledSchedule, params: SimParams) -> Self {
        let _span = crate::telemetry::span(crate::telemetry::layer::SIM_LOWER);
        assert!(params.queue_cap >= 1, "queue bound must be >= 1");
        assert!(params.latency >= 1, "link latency must be >= 1 tick");
        crate::telemetry::counter(names::SIM_BUILDS, 1);
        let sim = SimExec {
            settler: Settler::new(compiled),
            params,
        };
        crate::m2m_log!(
            crate::telemetry::Level::Debug,
            "sim compiled: {} components, {} messages",
            sim.component_count(),
            sim.message_count()
        );
        sim
    }

    /// The compiled schedule this simulator runs.
    #[inline]
    pub fn compiled(&self) -> &CompiledSchedule {
        self.settler.compiled()
    }

    /// The simulator's tuning knobs.
    #[inline]
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Components (distinct message endpoints) in the simulation.
    #[inline]
    pub fn component_count(&self) -> usize {
        self.compiled().obs_profile.len()
    }

    /// Messages in one round of the simulation.
    #[inline]
    pub fn message_count(&self) -> usize {
        self.compiled().message_facts.len()
    }

    /// Allocates a scratch arena sized for this simulator.
    pub fn state(&self) -> SimState {
        let messages = self.message_count();
        let components = self.component_count();
        SimState {
            heap: BinaryHeap::with_capacity(messages * 2 + components),
            seq: 0,
            pending: vec![0; messages],
            next_in_q: vec![NO_MSG; messages],
            q_head: vec![NO_MSG; components],
            q_tail: vec![NO_MSG; components],
            q_depth: vec![0; components],
            radio_busy: vec![false; components],
            overflow_at: vec![0; components],
            touched_overflow: Vec::new(),
            scratch: self.settler.scratch(),
        }
    }

    /// A message's predecessors have all resolved: it joins its sender's
    /// outbound FIFO, waking the radio if idle. Updates the
    /// `(peak_depth, overflows)` accounting.
    fn ready(
        &self,
        m: u32,
        now: u64,
        st: &mut SimState,
        peak_depth: &mut u32,
        overflows: &mut u64,
    ) {
        let comp = self.compiled().message_facts[m as usize].tail_slot as usize;
        st.next_in_q[m as usize] = NO_MSG;
        if st.q_tail[comp] == NO_MSG {
            st.q_head[comp] = m;
        } else {
            st.next_in_q[st.q_tail[comp] as usize] = m;
        }
        st.q_tail[comp] = m;
        st.q_depth[comp] += 1;
        *peak_depth = (*peak_depth).max(st.q_depth[comp]);
        if st.q_depth[comp] > self.params.queue_cap {
            *overflows += 1;
            if st.overflow_at[comp] == 0 {
                st.touched_overflow.push(comp as u32);
            }
            st.overflow_at[comp] += 1;
        }
        if !st.radio_busy[comp] {
            st.radio_busy[comp] = true;
            push_event(st, now + 1, EvKind::Tx(comp as u32));
        }
    }

    /// A message resolved (delivered or lost): cascade readiness to its
    /// successors.
    fn resolve(
        &self,
        m: u32,
        now: u64,
        st: &mut SimState,
        peak_depth: &mut u32,
        overflows: &mut u64,
    ) {
        for &s in self.compiled().schedule().successors(m as usize) {
            st.pending[s as usize] -= 1;
            if st.pending[s as usize] == 0 {
                self.ready(s, now, st, peak_depth, overflows);
            }
        }
    }

    /// Runs one event-driven round over `readings` (dense, in
    /// [`CompiledSchedule::sources`] slot order), drawing losses from
    /// `model` at `(link, round_salt + tick)` coordinates.
    ///
    /// # Panics
    /// Panics if `readings` or `state` is sized for a different
    /// simulator.
    pub fn run(
        &self,
        readings: &[f64],
        model: &DeliveryModel,
        policy: &RetryPolicy,
        round_salt: u64,
        st: &mut SimState,
    ) -> SimOutcome {
        let _span = crate::telemetry::span(crate::telemetry::layer::SIM_ROUND);
        crate::telemetry::counter(names::SIM_ROUNDS, 1);
        assert_eq!(
            readings.len(),
            self.compiled().sources.len(),
            "reading vector length must match the interned source count"
        );
        assert_eq!(
            st.pending.len(),
            self.message_count(),
            "state/simulator mismatch"
        );
        self.reset(st);

        let budget = u64::from(policy.max_slots);
        let latency = u64::from(self.params.latency);
        let mut events = 0u64;
        let mut now = 0u64;
        let mut retransmissions = 0usize;
        let mut dropped_count = 0usize;
        let mut peak_depth = 0u32;
        let mut overflows = 0u64;

        // Tick 0: source-local messages are ready immediately.
        let schedule = self.compiled().schedule();
        for m in 0..self.message_count() as u32 {
            if schedule.pred_count[m as usize] == 0 {
                self.ready(m, 0, st, &mut peak_depth, &mut overflows);
            }
        }

        while let Some(std::cmp::Reverse(ev)) = st.heap.pop() {
            if ev.time > budget {
                now = budget;
                break;
            }
            now = ev.time;
            events += 1;
            match ev.kind {
                EvKind::Tx(comp) => {
                    let c = comp as usize;
                    let m = st.q_head[c];
                    if m == NO_MSG {
                        st.radio_busy[c] = false;
                        continue;
                    }
                    let (tail, head) = schedule.messages[m as usize].edge;
                    let attempts = &mut st.scratch.attempts[m as usize];
                    *attempts += 1;
                    if model.is_down(tail, head, round_salt.wrapping_add(now)) {
                        retransmissions += 1;
                        st.scratch.failed[m as usize / 64] |= 1 << (m % 64);
                        if policy.max_attempts > 0 && *attempts >= policy.max_attempts {
                            st.scratch.dropped[m as usize] = true;
                            dropped_count += 1;
                            pop_queue(st, c);
                            push_event(st, now + latency, EvKind::Lost(m));
                            push_event(st, now + 1, EvKind::Tx(comp));
                        } else {
                            push_event(
                                st,
                                now + 1 + u64::from(policy.backoff_slots),
                                EvKind::Tx(comp),
                            );
                        }
                    } else {
                        st.scratch.delivered[m as usize] = true;
                        pop_queue(st, c);
                        push_event(st, now + latency, EvKind::Deliver(m));
                        push_event(st, now + 1, EvKind::Tx(comp));
                    }
                }
                EvKind::Deliver(m) | EvKind::Lost(m) => {
                    self.resolve(m, now, st, &mut peak_depth, &mut overflows);
                }
            }
        }

        crate::telemetry::counter(names::SIM_EVENTS, events);
        crate::telemetry::counter(names::SIM_QUEUE_OVERFLOWS, overflows);

        // The wheel stopped (drained, or the tick budget ran out — the
        // event-clock analogue of running out of TDMA slots), so the
        // delivery vector is final: settle the answer from it.
        let outcome = self.settler.settle(
            readings,
            &mut st.scratch,
            now.min(u64::from(u32::MAX)) as u32,
            retransmissions,
            dropped_count,
        );

        let components = self.compiled().obs_profile.ids();
        let mut overflow_nodes: Vec<(NodeId, u32)> = st
            .touched_overflow
            .iter()
            .map(|&c| {
                (
                    NodeId(components[c as usize] as u32),
                    st.overflow_at[c as usize],
                )
            })
            .collect();
        overflow_nodes.sort_unstable_by_key(|&(n, _)| n);

        SimOutcome {
            outcome,
            events,
            ticks: now,
            peak_queue_depth: peak_depth,
            queue_overflows: overflows,
            overflow_nodes,
        }
    }

    /// Like [`SimExec::run`] but taking readings keyed by node id.
    ///
    /// # Panics
    /// Panics if a source reading is missing.
    pub fn run_on(
        &self,
        readings: &std::collections::BTreeMap<NodeId, f64>,
        model: &DeliveryModel,
        policy: &RetryPolicy,
        round_salt: u64,
        st: &mut SimState,
    ) -> SimOutcome {
        let dense = self.compiled().dense_readings(readings);
        self.run(&dense, model, policy, round_salt, st)
    }

    /// Rewinds `st` to a fresh round without releasing capacity.
    fn reset(&self, st: &mut SimState) {
        st.heap.clear();
        st.seq = 0;
        st.scratch.delivered.fill(false);
        st.scratch.dropped.fill(false);
        st.scratch.attempts.fill(0);
        st.scratch.failed.fill(0);
        st.pending
            .copy_from_slice(&self.compiled().schedule().pred_count);
        st.next_in_q.fill(NO_MSG);
        st.q_head.fill(NO_MSG);
        st.q_tail.fill(NO_MSG);
        st.q_depth.fill(0);
        st.radio_busy.fill(false);
        for &c in &st.touched_overflow {
            st.overflow_at[c as usize] = 0;
        }
        st.touched_overflow.clear();
    }
}

/// Pushes an event with the next monotone sequence number.
#[inline]
fn push_event(st: &mut SimState, time: u64, kind: EvKind) {
    let ev = Ev {
        time,
        seq: st.seq,
        kind,
    };
    st.seq = st.seq.wrapping_add(1);
    st.heap.push(std::cmp::Reverse(ev));
}

/// Pops the queue head of component `c`.
#[inline]
fn pop_queue(st: &mut SimState, c: usize) {
    let head = st.q_head[c];
    debug_assert_ne!(head, NO_MSG, "pop from empty queue");
    let next = st.next_in_q[head as usize];
    st.q_head[c] = next;
    if next == NO_MSG {
        st.q_tail[c] = NO_MSG;
    }
    st.q_depth[c] -= 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggregateFunction, AggregateKind};
    use crate::exec::ExecState;
    use crate::plan::GlobalPlan;
    use crate::spec::AggregationSpec;
    use m2m_netsim::failure::FailureTrace;
    use m2m_netsim::{Deployment, RoutingMode, RoutingTables};

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
            let sim = SimExec::new(&net, &compiled);
            let readings = dense_readings(&compiled);
            let mut state = ExecState::for_schedule(&compiled);
            state.readings_mut().copy_from_slice(&readings);
            let plain_cost = compiled.run_round(&mut state);
            let mut st = sim.state();
            for policy in [
                RetryPolicy::unlimited(10_000),
                RetryPolicy::bounded(1, 0, 10_000),
                RetryPolicy::bounded(3, 2, 10_000),
            ] {
                let out = sim.run(&readings, &DeliveryModel::reliable(), &policy, 42, &mut st);
                assert!(out.outcome.delivered);
                assert_eq!(out.outcome.retransmissions, 0);
                assert_eq!(out.queue_overflows, 0);
                assert_eq!(out.outcome.cost, plain_cost, "{mode:?}: bitwise cost");
                let exact: Vec<Option<f64>> = state.results().iter().map(|&r| Some(r)).collect();
                assert_eq!(out.outcome.results, exact, "{mode:?}: bitwise results");
                for c in &out.outcome.coverage {
                    assert!(c.complete());
                }
            }
        }
    }

    #[test]
    fn lossy_rounds_are_replayable_and_still_converge_unlimited() {
        let net = network();
        let spec = spec();
        let compiled = compile(&net, &spec, RoutingMode::ShortestPathTrees);
        let sim = SimExec::new(&net, &compiled);
        let readings = dense_readings(&compiled);
        let model = DeliveryModel::uniform(0.3, 7);
        let policy = RetryPolicy::unlimited(100_000);
        let mut st = sim.state();
        let a = sim.run(&readings, &model, &policy, 5, &mut st);
        let b = sim.run(&readings, &model, &policy, 5, &mut st);
        assert_eq!(a, b, "seeded event rounds must replay bit-identically");
        assert!(a.outcome.delivered, "unlimited retries deliver everything");
        assert!(a.outcome.retransmissions > 0);
        assert!(a.events > 0 && a.ticks > 0);
    }

    #[test]
    fn a_dead_link_degrades_exactly_its_downstream_destinations() {
        let net = Network::with_default_energy(Deployment::grid(5, 1, 10.0, 12.0));
        let mut s = AggregationSpec::new();
        s.add_function(
            NodeId(4),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(3), 1.0)]),
        );
        let compiled = compile(&net, &s, RoutingMode::ShortestPathTrees);
        let sim = SimExec::new(&net, &compiled);
        let trace = FailureTrace::new().down(NodeId(0), NodeId(1), 0, u64::MAX);
        let model = DeliveryModel::trace(trace);
        let readings = dense_readings(&compiled);
        let mut st = sim.state();
        let out = sim.run(
            &readings,
            &model,
            &RetryPolicy::bounded(3, 0, 1_000),
            0,
            &mut st,
        );
        assert!(!out.outcome.delivered);
        assert!(out.outcome.dropped_messages >= 1);
        let c = &out.outcome.coverage[0];
        assert_eq!(c.destination, NodeId(4));
        assert_eq!((c.covered, c.demanded), (1, 2));
        assert_eq!(c.missing, vec![NodeId(0)]);
        let idx = compiled.sources().slot(NodeId(3)).unwrap();
        assert_eq!(out.outcome.results[0], Some(readings[idx]));
    }

    #[test]
    fn queue_bound_accounting_never_changes_results() {
        let net = network();
        let spec = spec();
        let compiled = compile(&net, &spec, RoutingMode::SharedSpanningTree);
        let readings = dense_readings(&compiled);
        let model = DeliveryModel::uniform(0.2, 3);
        let policy = RetryPolicy::bounded(4, 1, 100_000);
        let loose = SimExec::with_params(
            &net,
            &compiled,
            SimParams {
                queue_cap: 1_024,
                latency: 1,
            },
        );
        let tight = SimExec::with_params(
            &net,
            &compiled,
            SimParams {
                queue_cap: 1,
                latency: 1,
            },
        );
        let mut st_a = loose.state();
        let mut st_b = tight.state();
        let a = loose.run(&readings, &model, &policy, 11, &mut st_a);
        let b = tight.run(&readings, &model, &policy, 11, &mut st_b);
        assert_eq!(a.outcome, b.outcome, "the bound is accounting only");
        assert!(b.queue_overflows >= a.queue_overflows);
        assert_eq!(b.peak_queue_depth, a.peak_queue_depth);
    }

    #[test]
    fn latency_delays_ticks_but_not_results() {
        let net = network();
        let spec = spec();
        let compiled = compile(&net, &spec, RoutingMode::ShortestPathTrees);
        let readings = dense_readings(&compiled);
        let policy = RetryPolicy::unlimited(100_000);
        let fast = SimExec::new(&net, &compiled);
        let slow = SimExec::with_params(
            &net,
            &compiled,
            SimParams {
                queue_cap: 64,
                latency: 5,
            },
        );
        let mut st_a = fast.state();
        let mut st_b = slow.state();
        let a = fast.run(&readings, &DeliveryModel::reliable(), &policy, 0, &mut st_a);
        let b = slow.run(&readings, &DeliveryModel::reliable(), &policy, 0, &mut st_b);
        assert_eq!(a.outcome.results, b.outcome.results);
        assert_eq!(a.outcome.cost, b.outcome.cost);
        assert!(b.ticks > a.ticks, "higher link latency stretches the clock");
    }
}
