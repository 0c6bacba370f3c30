//! Counting-allocator proof that the distributed runner's warm message
//! path stops allocating.
//!
//! The original `node_machine` prototype rebuilt every automaton per
//! round and allocated a fresh `Vec<WireUnit>` per emitted message —
//! O(machines + messages) heap traffic per round. The reworked
//! [`m2m_core::node_machine::DistributedRunner`] boots once, rearms in
//! place, and cycles unit buffers through a
//! [`m2m_core::node_machine::UnitPool`]; once warm, a round's unit
//! buffers come entirely from the free list. This test installs a
//! counting global allocator and pins both facts: the pool reports zero
//! fresh buffers across warm rounds, and a warm fast-path round
//! performs a small fraction of the allocations of the logging path
//! (which deliberately keeps every message and therefore pays the
//! prototype's per-message cost). The absolute counts printed here are
//! recorded in EXPERIMENTS.md.
//!
//! It also pins the lossy executor's warm batch: past a per-batch
//! constant (the worker's scratch and the resolved link table), a round
//! of [`m2m_core::faults::FaultyExec::run_rounds`] allocates its result,
//! coverage and link-event vectors, each sized once, plus one missing
//! list per degraded destination.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use m2m_core::exec::CompiledSchedule;
use m2m_core::faults::{FaultyExec, RetryPolicy};
use m2m_core::node_machine::DistributedRunner;
use m2m_core::plan::GlobalPlan;
use m2m_core::tables::NodeTables;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::quality::LinkQuality;
use m2m_netsim::{DeliveryModel, Deployment, Network, RoutingMode, RoutingTables};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The count is process-wide, so each test holds this for its whole run:
/// no other test's allocations land inside its measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn warm_runner_rounds_allocate_a_fraction_of_the_logged_path() {
    let _serial = serial();
    let net = Network::with_default_energy(Deployment::great_duck_island(11));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(12, 8, 3));
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&net, &spec, &routing);
    let tables = NodeTables::build(&spec, &plan);

    const MEASURED: usize = 10;
    // Pre-build every round's readings so measurement sees only the
    // runner's own allocations.
    let rounds: Vec<BTreeMap<NodeId, f64>> = (0..(3 + MEASURED))
        .map(|r| {
            net.nodes()
                .map(|v| (v, f64::from(v.0 % 13) * 0.5 + r as f64))
                .collect()
        })
        .collect();

    let mut runner = DistributedRunner::new(&tables);
    // Warm-up: populate the pool and grow every buffer to its high-water
    // capacity.
    for readings in &rounds[..3] {
        runner.run_round(&spec, readings).unwrap();
    }
    let fresh_after_warmup = runner.pool().fresh_allocations();

    let before = allocs();
    for readings in &rounds[3..] {
        let results = runner.run_round(&spec, readings).unwrap();
        assert!(!results.is_empty());
    }
    let warm = allocs() - before;

    assert_eq!(
        runner.pool().fresh_allocations(),
        fresh_after_warmup,
        "warm rounds must draw every unit buffer from the pool"
    );

    // The logging path keeps each message alive (the prototype's
    // behavior): every emitted message costs a fresh buffer, plus the
    // log itself.
    let before = allocs();
    let mut messages = 0usize;
    for readings in &rounds[3..] {
        let round = runner.run_round_logged(&spec, readings).unwrap();
        messages += round.messages.len();
    }
    let logged = allocs() - before;

    println!(
        "alloc_budget: {MEASURED} warm rounds = {warm} allocations, \
         {MEASURED} logged rounds = {logged} allocations ({messages} messages), \
         pool fresh = {fresh_after_warmup}, pool reuses = {}",
        runner.pool().reuses()
    );
    assert!(
        warm * 3 < logged,
        "warm path must allocate far less than the logging path \
         (warm {warm} vs logged {logged})"
    );
    // Per-round heap traffic must not scale with message count: the
    // per-destination result map is the only remaining per-round churn.
    let per_round = warm as usize / MEASURED;
    assert!(
        per_round < messages / MEASURED,
        "warm per-round allocations ({per_round}) must stay below one per message \
         ({} messages per round)",
        messages / MEASURED
    );
}

#[test]
fn warm_lossy_rounds_allocate_three_vectors_plus_one_per_degraded_destination() {
    let _serial = serial();
    let net = Network::with_default_energy(Deployment::great_duck_island(11));
    let spec = generate_workload(&net, &WorkloadConfig::paper_default(12, 8, 3));
    let routing = RoutingTables::build(
        &net,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&net, &spec, &routing);
    let compiled = CompiledSchedule::compile(&net, &spec, &plan).unwrap();
    let faulty = FaultyExec::new(&net, &compiled);
    let model = DeliveryModel::from_quality(&LinkQuality::distance_based(&net, 0.3, 5), 7);
    let policy = RetryPolicy::bounded(3, 0, 10_000);

    const ROUNDS: usize = 64;
    // The scratch (about fifteen vectors), the link table, the round
    // index and the outcome vector, with room to spare.
    const PER_BATCH: u64 = 32;
    let slots = compiled.sources().len();
    let rounds: Vec<Vec<f64>> = (0..ROUNDS)
        .map(|r| (0..slots).map(|s| (r * 7 + s) as f64 * 0.5).collect())
        .collect();
    // Warm-up: first use of any lazily built process state.
    faulty.run_rounds(&rounds[..2], &model, &policy, 1, 1);

    let before = allocs();
    let outcomes = faulty.run_rounds(&rounds, &model, &policy, 99, 1);
    let batch = allocs() - before;
    let degraded: usize = outcomes.iter().map(|o| o.degraded_destinations()).sum();
    let retransmissions: usize = outcomes.iter().map(|o| o.retransmissions).sum();
    println!(
        "alloc_budget: {ROUNDS} warm lossy rounds = {batch} allocations, \
         {degraded} degraded destinations, {retransmissions} retransmissions"
    );
    assert!(
        retransmissions > ROUNDS,
        "the loss model must fail attempts in most rounds"
    );
    let budget = 3 * ROUNDS as u64 + degraded as u64 + PER_BATCH;
    assert!(
        batch <= budget,
        "a warm batch of {ROUNDS} lossy rounds made {batch} allocations, over \
         3 per round + {degraded} degraded destinations + {PER_BATCH} per batch = {budget}"
    );
}
