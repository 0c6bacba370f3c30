//! Time-series observability primitives: dense per-node accumulator
//! planes, a bounded ring buffer for structured per-round events, and
//! the Chrome `trace_event` log the layer spans ([`crate::span`]) append
//! to.
//!
//! The counter facade in the crate root answers "how much, in total";
//! this module answers *where* and *when*: which node spent the energy,
//! which round lost coverage, which pipeline layer took the time. It is
//! the substrate the session-level flight recorder
//! (`m2m_core::obs::FlightRecorder`) and the `m2m_obs` bin read from.
//!
//! # The obs flag
//!
//! Everything here is gated by the observability bit of the crate's
//! flag word ([`obs_enabled`], env `M2M_OBS`), next to the tracing bit:
//! when off — the default — every hot-path site costs one relaxed load,
//! and the property test `tests/obs_equivalence.rs` pins that flipping
//! the flag never changes a result bit. The bit is separate from
//! `M2M_TRACE` because the planes are dense per-node state, an order of
//! magnitude heavier than the counter shards; either can be on without
//! the other.
//!
//! # Planes and the flush contract
//!
//! A [`NodePlanes`] is a set of dense columns (energy, messages tx/rx,
//! retries, drops) over a fixed sorted node-id universe. Hot loops keep
//! their counts in per-worker scratch — no locks, no allocation — and
//! when a worker finishes its chunk (or its scratch is dropped) they are
//! flushed into the process-wide registry with [`record_planes`] (or, for
//! a static per-round profile, [`merge_planes_scaled`]);
//! [`planes_snapshot`] aggregates for readers. The registry merges by
//! node id, so planes from executors with different node universes
//! combine correctly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::JsonValue;

/// Environment variable enabling the observability planes and recorders
/// at first use (`1`, `true`, `on`, `yes`, case-insensitive).
pub const OBS_ENV: &str = "M2M_OBS";

/// Schema version stamped into every recorder dump ([`Event`] kinds,
/// plane columns, series fields). Bump on any incompatible change.
pub const OBS_SCHEMA_VERSION: u64 = 1;

/// True if observability collection is enabled. One relaxed atomic load
/// and a branch on the hot path (the env read happens once).
#[inline]
pub fn obs_enabled() -> bool {
    crate::flags() & crate::OBS != 0
}

/// Turns observability collection on or off programmatically (overrides
/// `M2M_OBS`).
pub fn set_obs_enabled(on: bool) {
    crate::set_flag(crate::OBS, on);
}

// ---------------------------------------------------------------------
// Dense per-node accumulator planes.
// ---------------------------------------------------------------------

/// Dense per-node accumulator planes over a fixed, sorted node-id
/// universe: energy spent transmitting / receiving (µJ), messages
/// transmitted / received, failed transmission attempts (retries), and
/// messages abandoned (drops). Updates are plain array stores — the
/// allocation-free shape hot loops need — and instances merge by node id
/// so per-worker locals fold into the global registry losslessly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodePlanes {
    ids: Vec<u64>,
    energy_tx_uj: Vec<f64>,
    energy_rx_uj: Vec<f64>,
    msgs_tx: Vec<u64>,
    msgs_rx: Vec<u64>,
    retries: Vec<u64>,
    drops: Vec<u64>,
    rounds: u64,
    touched: bool,
}

impl NodePlanes {
    /// Planes over the given node ids (sorted and deduplicated here).
    pub fn for_ids(mut ids: Vec<u64>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        let n = ids.len();
        NodePlanes {
            ids,
            energy_tx_uj: vec![0.0; n],
            energy_rx_uj: vec![0.0; n],
            msgs_tx: vec![0; n],
            msgs_rx: vec![0; n],
            retries: vec![0; n],
            drops: vec![0; n],
            rounds: 0,
            touched: false,
        }
    }

    /// Number of nodes in the universe.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted node-id universe.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The dense slot of `id`, if it is in the universe.
    #[inline]
    pub fn slot(&self, id: u64) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Records `attempts` transmission attempts at `slot`, each paying
    /// `uj_per_attempt` µJ.
    #[inline]
    pub fn record_tx(&mut self, slot: usize, attempts: u64, uj_per_attempt: f64) {
        self.msgs_tx[slot] += attempts;
        self.energy_tx_uj[slot] += uj_per_attempt * attempts as f64;
        self.touched = true;
    }

    /// Records `messages` successful receptions at `slot`, each paying
    /// `uj_per_message` µJ.
    #[inline]
    pub fn record_rx(&mut self, slot: usize, messages: u64, uj_per_message: f64) {
        self.msgs_rx[slot] += messages;
        self.energy_rx_uj[slot] += uj_per_message * messages as f64;
        self.touched = true;
    }

    /// Records `n` failed transmission attempts at `slot`.
    #[inline]
    pub fn record_retries(&mut self, slot: usize, n: u64) {
        self.retries[slot] += n;
        self.touched = true;
    }

    /// Records `n` messages abandoned at `slot` (retry budget exhausted).
    #[inline]
    pub fn record_drops(&mut self, slot: usize, n: u64) {
        self.drops[slot] += n;
        self.touched = true;
    }

    /// Counts `n` rounds folded into these planes.
    #[inline]
    pub fn add_rounds(&mut self, n: u64) {
        self.rounds += n;
        self.touched = true;
    }

    /// Rounds folded in so far.
    #[inline]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// True if nothing was recorded since construction / the last
    /// [`NodePlanes::clear`].
    #[inline]
    pub fn is_zero(&self) -> bool {
        !self.touched
    }

    /// Transmit energy (µJ) per node, aligned with [`NodePlanes::ids`].
    #[inline]
    pub fn energy_tx_uj(&self) -> &[f64] {
        &self.energy_tx_uj
    }

    /// Receive energy (µJ) per node, aligned with [`NodePlanes::ids`].
    #[inline]
    pub fn energy_rx_uj(&self) -> &[f64] {
        &self.energy_rx_uj
    }

    /// Messages transmitted (attempts included) per node.
    #[inline]
    pub fn msgs_tx(&self) -> &[u64] {
        &self.msgs_tx
    }

    /// Messages received per node.
    #[inline]
    pub fn msgs_rx(&self) -> &[u64] {
        &self.msgs_rx
    }

    /// Failed transmission attempts per node.
    #[inline]
    pub fn retries(&self) -> &[u64] {
        &self.retries
    }

    /// Messages abandoned per node.
    #[inline]
    pub fn drops(&self) -> &[u64] {
        &self.drops
    }

    /// Total energy (tx + rx, µJ) spent at `slot`.
    #[inline]
    pub fn energy_uj(&self, slot: usize) -> f64 {
        self.energy_tx_uj[slot] + self.energy_rx_uj[slot]
    }

    /// Remaining battery estimate (µJ) at `slot`, given each node
    /// started with `budget_uj`. Clamped at zero — a depleted node does
    /// not go negative.
    #[inline]
    pub fn battery_uj(&self, slot: usize, budget_uj: f64) -> f64 {
        (budget_uj - self.energy_uj(slot)).max(0.0)
    }

    /// Zeroes every column in place, keeping the node universe.
    pub fn clear(&mut self) {
        self.energy_tx_uj.fill(0.0);
        self.energy_rx_uj.fill(0.0);
        self.msgs_tx.fill(0);
        self.msgs_rx.fill(0);
        self.retries.fill(0);
        self.drops.fill(0);
        self.rounds = 0;
        self.touched = false;
    }

    /// Merges `other` into `self` (`other` scaled by `factor`), aligning
    /// by node id; ids in `other` missing from `self`'s universe are
    /// adopted. `factor` lets a static per-round template stand in for
    /// `factor` identical rounds.
    pub fn merge_scaled(&mut self, other: &NodePlanes, factor: u64) {
        if other.is_zero() || factor == 0 {
            return;
        }
        if self.ids != other.ids {
            self.adopt_union(&other.ids);
        }
        let f = factor as f64;
        for (i, &id) in other.ids.iter().enumerate() {
            let s = self.slot(id).expect("union adopted above");
            self.energy_tx_uj[s] += other.energy_tx_uj[i] * f;
            self.energy_rx_uj[s] += other.energy_rx_uj[i] * f;
            self.msgs_tx[s] += other.msgs_tx[i] * factor;
            self.msgs_rx[s] += other.msgs_rx[i] * factor;
            self.retries[s] += other.retries[i] * factor;
            self.drops[s] += other.drops[i] * factor;
        }
        self.rounds += other.rounds * factor;
        self.touched = true;
    }

    /// [`NodePlanes::merge_scaled`] with `factor == 1`.
    pub fn merge(&mut self, other: &NodePlanes) {
        self.merge_scaled(other, 1);
    }

    /// Grows the universe to the union of `self.ids` and `extra`,
    /// re-laying every column.
    fn adopt_union(&mut self, extra: &[u64]) {
        let mut union: Vec<u64> = self.ids.iter().chain(extra).copied().collect();
        union.sort_unstable();
        union.dedup();
        let mut fresh = NodePlanes::for_ids(union);
        for (i, &id) in self.ids.iter().enumerate() {
            let s = fresh.slot(id).expect("union contains every old id");
            fresh.energy_tx_uj[s] = self.energy_tx_uj[i];
            fresh.energy_rx_uj[s] = self.energy_rx_uj[i];
            fresh.msgs_tx[s] = self.msgs_tx[i];
            fresh.msgs_rx[s] = self.msgs_rx[i];
            fresh.retries[s] = self.retries[i];
            fresh.drops[s] = self.drops[i];
        }
        fresh.rounds = self.rounds;
        fresh.touched = self.touched;
        *self = fresh;
    }

    /// The planes as a JSON array of per-node objects (ascending id),
    /// including a battery estimate against `battery_budget_uj`. Floats
    /// render with 3 decimals — µJ resolution beyond that is noise.
    pub fn to_json(&self, battery_budget_uj: f64) -> JsonValue {
        let nodes: Vec<JsonValue> = (0..self.len())
            .map(|i| {
                JsonValue::object()
                    .with("node", self.ids[i])
                    .with("energy_tx_uj", JsonValue::float(self.energy_tx_uj[i], 3))
                    .with("energy_rx_uj", JsonValue::float(self.energy_rx_uj[i], 3))
                    .with("msgs_tx", self.msgs_tx[i])
                    .with("msgs_rx", self.msgs_rx[i])
                    .with("retries", self.retries[i])
                    .with("drops", self.drops[i])
                    .with(
                        "battery_uj",
                        JsonValue::float(self.battery_uj(i, battery_budget_uj), 3),
                    )
            })
            .collect();
        JsonValue::Array(nodes)
    }
}

fn planes_registry() -> &'static Mutex<NodePlanes> {
    static REGISTRY: OnceLock<Mutex<NodePlanes>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(NodePlanes::default()))
}

/// Flushes per-node records into the process-wide plane registry:
/// `record` writes through the slots of `ids` (sorted, deduplicated).
/// Once the registry's universe is exactly `ids` — every flush of one
/// executor after its first — `record` writes into the registry itself,
/// under its lock, so a flush allocates and merges nothing; otherwise it
/// fills a fresh shard that is merged in by node id. Called on chunk
/// completion / scratch drop — never per round — so the registry lock
/// stays off the hot path.
pub fn record_planes(ids: &[u64], record: impl FnOnce(&mut NodePlanes)) {
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids must be sorted and unique"
    );
    let mut registry = planes_registry().lock().expect("plane registry poisoned");
    if registry.ids() == ids {
        record(&mut registry);
    } else {
        let mut shard = NodePlanes::for_ids(ids.to_vec());
        record(&mut shard);
        registry.merge(&shard);
    }
}

/// Merges `template` scaled by `rounds` into the registry — the shape the
/// reliable executor uses, whose per-round per-node profile is static.
pub fn merge_planes_scaled(template: &NodePlanes, rounds: u64) {
    if template.is_zero() || rounds == 0 {
        return;
    }
    planes_registry()
        .lock()
        .expect("plane registry poisoned")
        .merge_scaled(template, rounds);
}

/// A copy of the process-wide accumulated planes (non-destructive).
pub fn planes_snapshot() -> NodePlanes {
    planes_registry()
        .lock()
        .expect("plane registry poisoned")
        .clone()
}

/// Empties the process-wide plane registry (universe included).
pub fn reset_planes() {
    *planes_registry().lock().expect("plane registry poisoned") = NodePlanes::default();
}

// ---------------------------------------------------------------------
// Bounded structured-event ring.
// ---------------------------------------------------------------------

/// Marker for an absent node operand in an [`Event`].
pub const NO_NODE: u64 = u64::MAX;

/// What happened — the structured event vocabulary of the flight
/// recorder. Variants are part of [`OBS_SCHEMA_VERSION`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A link saw failed transmission attempts this round but the
    /// message still got through (`a` → `b`, `value` = failures).
    LinkDrop,
    /// A message was abandoned after exhausting its retry budget
    /// (`a` → `b`, `value` = attempts made).
    RetryExhausted,
    /// A destination ended the round with partial coverage (`a` = dest,
    /// `value` = missing sources).
    CoverageLoss,
    /// A destination transitioned fresh → stale (`a` = dest).
    StaleEnter,
    /// A destination recovered full coverage (`a` = dest, `value` =
    /// rounds it had been stale).
    StaleClear,
    /// The churn gate fired and routes were rebuilt.
    Reroute,
    /// The churn gate absorbed a drift observation.
    RerouteSuppressed,
    /// Routing tables were replaced outside the churn loop.
    RouteChange,
    /// One event-driven simulator round completed (`value` = peak
    /// per-node queue depth observed during the round).
    SimRound,
    /// A node's bounded outbound link queue was pushed past its
    /// configured depth this round (`a` = node, `value` = overflow
    /// pushes).
    QueueOverflow,
}

impl EventKind {
    /// The stable wire name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::LinkDrop => "link_drop",
            EventKind::RetryExhausted => "retry_exhausted",
            EventKind::CoverageLoss => "coverage_loss",
            EventKind::StaleEnter => "stale_enter",
            EventKind::StaleClear => "stale_clear",
            EventKind::Reroute => "reroute",
            EventKind::RerouteSuppressed => "reroute_suppressed",
            EventKind::RouteChange => "route_change",
            EventKind::SimRound => "sim_round",
            EventKind::QueueOverflow => "queue_overflow",
        }
    }
}

/// One structured per-round event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// The session round the event belongs to.
    pub round: u64,
    /// What happened.
    pub kind: EventKind,
    /// Primary node operand (tail / destination), or [`NO_NODE`].
    pub a: u64,
    /// Secondary node operand (head), or [`NO_NODE`].
    pub b: u64,
    /// Kind-specific magnitude (failures, missing sources, staleness).
    pub value: u64,
}

impl Event {
    /// The event as a JSON object (absent operands omitted).
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object()
            .with("round", self.round)
            .with("kind", self.kind.name());
        if self.a != NO_NODE {
            obj.push("a", self.a);
        }
        if self.b != NO_NODE {
            obj.push("b", self.b);
        }
        obj.push("value", self.value);
        obj
    }
}

/// A bounded ring buffer of [`Event`]s: pushes are O(1), the newest
/// `capacity` events are kept, and the count of overwritten (lost-to-
/// capacity) events is tracked so a dump can say it is partial.
#[derive(Clone, Debug)]
pub struct EventRing {
    cap: usize,
    buf: Vec<Event>,
    /// Index of the oldest event once the buffer is full (0 before).
    head: usize,
    overwritten: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event ring capacity must be positive");
        EventRing {
            cap: capacity,
            buf: Vec::new(),
            head: 0,
            overwritten: 0,
        }
    }

    /// The configured capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no events are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    #[inline]
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Appends an event, evicting the oldest when full.
    #[inline]
    pub fn push(&mut self, e: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            // Compare-and-wrap, not `%`: the flight recorder pushes one
            // event per failed link per round, and a division each
            // doubled the cost of a push.
            self.buf[self.head] = e;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.overwritten += 1;
        }
    }

    /// Events oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let n = self.buf.len();
        (0..n).map(move |i| &self.buf[(self.head + i) % n])
    }

    /// The ring as a JSON array (oldest → newest).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Event::to_json).collect())
    }
}

// ---------------------------------------------------------------------
// Span events → Chrome trace_event JSON.
// ---------------------------------------------------------------------

/// Hard cap on retained span events; later spans are counted but not
/// stored (a runaway loop must not grow the trace without bound).
const SPAN_EVENT_CAP: usize = 65_536;

#[derive(Clone, Copy, Debug)]
struct SpanEvent {
    name: &'static str,
    ts_us: u64,
    dur_us: u64,
    tid: u64,
}

#[derive(Default)]
struct SpanLog {
    events: Vec<SpanEvent>,
    dropped: u64,
}

fn span_log() -> &'static Mutex<SpanLog> {
    static LOG: OnceLock<Mutex<SpanLog>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(SpanLog::default()))
}

/// The instant span-event timestamps count from (pinned on first use).
pub(crate) fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Appends one Chrome `"ph": "X"` complete event for a span that started
/// at `start` and ran for `elapsed` (called by the span's drop).
pub(crate) fn record_span_event(name: &'static str, start: Instant, elapsed: Duration) {
    let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    let event = SpanEvent {
        name,
        ts_us: us(start.duration_since(trace_epoch())),
        dur_us: us(elapsed),
        tid: current_tid(),
    };
    let mut log = span_log().lock().expect("span log poisoned");
    if log.events.len() < SPAN_EVENT_CAP {
        log.events.push(event);
    } else {
        log.dropped += 1;
    }
}

/// The recorded span events as a Chrome `trace_event` document
/// (`{"traceEvents": [...]}` with complete `"ph": "X"` events),
/// loadable in Perfetto or speedscope.
pub fn chrome_trace() -> JsonValue {
    let log = span_log().lock().expect("span log poisoned");
    let events: Vec<JsonValue> = log
        .events
        .iter()
        .map(|e| {
            JsonValue::object()
                .with("name", e.name)
                .with("ph", "X")
                .with("ts", e.ts_us)
                .with("dur", e.dur_us)
                .with("pid", 1u64)
                .with("tid", e.tid)
        })
        .collect();
    JsonValue::object()
        .with("traceEvents", JsonValue::Array(events))
        .with("displayTimeUnit", "ms")
        .with("m2m_spans_dropped", log.dropped)
}

/// The names of the recorded span events, in recording order.
pub fn span_event_names() -> Vec<&'static str> {
    let log = span_log().lock().expect("span log poisoned");
    log.events.iter().map(|e| e.name).collect()
}

/// Clears the recorded span events.
pub fn reset_span_events() {
    let mut log = span_log().lock().expect("span log poisoned");
    log.events.clear();
    log.dropped = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::tests::lock;

    #[test]
    fn planes_record_and_report() {
        let mut p = NodePlanes::for_ids(vec![7, 3, 3, 11]);
        assert_eq!(p.ids(), &[3, 7, 11]);
        let s7 = p.slot(7).unwrap();
        p.record_tx(s7, 3, 10.0);
        p.record_retries(s7, 2);
        p.record_drops(s7, 1);
        let s11 = p.slot(11).unwrap();
        p.record_rx(s11, 1, 4.5);
        p.add_rounds(1);
        assert_eq!(p.msgs_tx()[s7], 3);
        assert_eq!(p.retries()[s7], 2);
        assert_eq!(p.drops()[s7], 1);
        assert_eq!(p.msgs_rx()[s11], 1);
        assert!((p.energy_uj(s7) - 30.0).abs() < 1e-12);
        assert!((p.battery_uj(s7, 100.0) - 70.0).abs() < 1e-12);
        assert_eq!(p.battery_uj(s7, 1.0), 0.0, "battery clamps at zero");
        assert_eq!(p.rounds(), 1);
        assert!(!p.is_zero());
        p.clear();
        assert!(p.is_zero());
        assert_eq!(p.ids(), &[3, 7, 11], "clear keeps the universe");
    }

    #[test]
    fn planes_merge_aligns_by_id_and_scales() {
        let mut a = NodePlanes::for_ids(vec![1, 2]);
        a.record_tx(0, 1, 2.0);
        a.add_rounds(1);
        let mut b = NodePlanes::for_ids(vec![2, 9]);
        b.record_tx(1, 4, 0.5);
        b.record_rx(0, 1, 1.0);
        b.add_rounds(1);
        a.merge_scaled(&b, 3);
        assert_eq!(a.ids(), &[1, 2, 9]);
        let s1 = a.slot(1).unwrap();
        let s2 = a.slot(2).unwrap();
        let s9 = a.slot(9).unwrap();
        assert_eq!(a.msgs_tx()[s1], 1);
        assert_eq!(a.msgs_rx()[s2], 3, "scaled by 3");
        assert_eq!(a.msgs_tx()[s9], 12);
        assert!((a.energy_tx_uj()[s9] - 6.0).abs() < 1e-12);
        assert_eq!(a.rounds(), 4);
    }

    #[test]
    fn plane_registry_merges_and_resets() {
        let _g = lock();
        reset_planes();
        // The first flush adopts the universe; later ones write in place,
        // and a flush over a different universe merges by node id.
        record_planes(&[5], |p| p.record_tx(0, 2, 1.0));
        record_planes(&[5], |p| p.record_tx(0, 1, 1.0));
        record_planes(&[4, 5], |p| p.record_retries(1, 3));
        let snap = planes_snapshot();
        assert_eq!(snap.ids(), &[4, 5]);
        assert_eq!(snap.msgs_tx()[snap.slot(5).unwrap()], 3);
        assert_eq!(snap.retries()[snap.slot(5).unwrap()], 3);
        assert_eq!(snap.retries()[snap.slot(4).unwrap()], 0);
        let mut template = NodePlanes::for_ids(vec![5]);
        template.record_rx(0, 1, 3.0);
        template.add_rounds(1);
        merge_planes_scaled(&template, 10);
        let snap = planes_snapshot();
        assert_eq!(snap.msgs_rx()[snap.slot(5).unwrap()], 10);
        assert_eq!(snap.rounds(), 10);
        reset_planes();
        assert!(planes_snapshot().is_empty());
    }

    #[test]
    fn event_ring_keeps_newest_and_counts_losses() {
        let mut ring = EventRing::new(3);
        let mk = |round| Event {
            round,
            kind: EventKind::LinkDrop,
            a: 1,
            b: 2,
            value: round,
        };
        for r in 0..5 {
            ring.push(mk(r));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.overwritten(), 2);
        let rounds: Vec<u64> = ring.iter().map(|e| e.round).collect();
        assert_eq!(rounds, vec![2, 3, 4], "newest three, oldest first");
        let json = ring.to_json().render();
        assert!(json.contains("\"link_drop\""));
    }

    #[test]
    fn event_json_omits_absent_operands() {
        let e = Event {
            round: 9,
            kind: EventKind::Reroute,
            a: NO_NODE,
            b: NO_NODE,
            value: 0,
        };
        let json = e.to_json().render();
        assert!(json.contains("\"reroute\""));
        assert!(!json.contains("\"a\""));
    }

    #[test]
    fn obs_flag_toggles() {
        let _g = lock();
        set_obs_enabled(true);
        assert!(obs_enabled());
        set_obs_enabled(false);
        assert!(!obs_enabled());
    }
}
