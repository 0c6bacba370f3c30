//! Discrete-event simulator benchmark: lossy epochs through
//! [`m2m_core::sim::SimExec`] over a density-preserving scaled series
//! (1k/10k/100k nodes by default), plus the distributed cover solve's
//! convergence columns.
//!
//! Each size point builds the full pipeline (workload → routing → plan →
//! compiled schedule), lowers it onto the event wheel, and drives a
//! lossy epoch (uniform p = 0.1, bounded retries) through one reusable
//! [`m2m_core::sim::SimState`] — the headline column is simulator events
//! per second. Delivery is reported over every (destination, round)
//! pair as the mean, median, 1st-percentile and minimum covered
//! fraction (`coverage_*`): at 100k nodes some message exhausts its
//! retries in nearly every round, so "rounds where every destination
//! was complete" would read zero.
//!
//! Before timing anything it proves the simulator is the compiled
//! executor plus loss (p = 0 must be bit-identical to
//! [`CompiledSchedule::run_round_on`]) and that the distributed per-edge
//! cover solve ([`m2m_core::dvc`]) converged to exactly the centralized
//! plan's solutions, recording its protocol rounds and message count.
//!
//! Usage: `cargo run --release -p m2m-bench --bin bench_sim \
//!         [--smoke] [--check <artifact.json>] [--nodes N1,N2,...]
//!         [output.json] [rounds]`
//!
//! `--smoke` runs the 1k-node point and prints machine-readable lines
//! for `scripts/verify.sh`:
//!
//! * `smoke_sim_events_per_sec=` — lossy-epoch event throughput, gated
//!   against the `M2M_SIM_FLOOR` regression floor by the verify script;
//! * `smoke_sim_digest=` — FNV-1a over every outcome of the epoch,
//!   which must be identical across back-to-back runs (and is replayed
//!   in-process through a warm state before being printed).
//!
//! `--check` parses an existing artifact and asserts the schema the
//! gate relies on, including the `coverage_*` columns and that every
//! size recorded `dvc_agrees`.

use std::collections::BTreeMap;

use m2m_bench::report::{bench_report, time_ns, JsonValue};
use m2m_bench::stats::quantile;
use m2m_core::dvc::solve_distributed;
use m2m_core::exec::{CompiledSchedule, ExecState};
use m2m_core::faults::{DestCoverage, RetryPolicy, SALT_STRIDE};
use m2m_core::plan::GlobalPlan;
use m2m_core::sim::{SimExec, SimOutcome};
use m2m_core::telemetry::Level;
use m2m_core::workload::{generate_workload, SourceSelection, WorkloadConfig};
use m2m_core::{m2m_log, telemetry};
use m2m_graph::NodeId;
use m2m_netsim::failure::DeliveryModel;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

/// Workload seed shared by every size point (deployment and demand).
const SEED: u64 = 7;
/// Base round salt; per-round salts advance by [`SALT_STRIDE`] exactly
/// like `core::session` epochs.
const BASE_SALT: u64 = 0x51b3_e57e;
/// Uniform per-link loss probability for the timed epoch.
const LOSS_P: f64 = 0.1;

/// Destinations for an `n`-node point: enough demand to keep every
/// region of the deployment busy, pinned at 250 so the 100k point
/// isolates event-wheel scaling rather than plan-size scaling.
fn destinations_for(n: usize) -> usize {
    (n / 40).clamp(8, 250)
}

/// Lossy rounds per epoch: fewer where each round is expensive.
fn rounds_for(n: usize) -> usize {
    if n <= 2_500 {
        32
    } else if n <= 25_000 {
        8
    } else {
        4
    }
}

/// Deterministic synthetic reading for `(source, round)` — no RNG so the
/// artifact is reproducible byte-for-byte across runs and machines.
fn reading(source: NodeId, round: usize) -> f64 {
    let s = source.index() as f64;
    let r = round as f64;
    (s * 0.67 + r * 1.13).sin() * 40.0 + s * 0.01
}

/// FNV-1a over every field of every simulated outcome: result bits,
/// coverage, cost, event/tick counts, queue pressure.
fn digest_outcomes(outcomes: &[SimOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bits: u64| {
        h ^= bits;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for out in outcomes {
        for r in &out.outcome.results {
            match r {
                Some(v) => fold(v.to_bits()),
                None => fold(u64::MAX),
            }
        }
        for c in &out.outcome.coverage {
            fold(u64::from(c.destination.0));
            fold(c.covered as u64);
            fold(c.demanded as u64);
        }
        fold(out.outcome.cost.tx_uj.to_bits());
        fold(out.outcome.cost.rx_uj.to_bits());
        fold(out.outcome.cost.messages as u64);
        fold(out.outcome.retransmissions as u64);
        fold(out.events);
        fold(out.ticks);
        fold(u64::from(out.peak_queue_depth));
        fold(out.queue_overflows);
        for &(node, pushes) in &out.overflow_nodes {
            fold(u64::from(node.0));
            fold(u64::from(pushes));
        }
    }
    h
}

struct SizePoint {
    nodes: usize,
    destinations: usize,
    sources: usize,
    messages: usize,
    components: usize,
    rounds: usize,
    events: u64,
    events_per_sec: f64,
    /// Per-destination-round covered fractions: mean, p50, p01, min.
    coverage: [f64; 4],
    retransmissions: usize,
    peak_queue_depth: u32,
    queue_overflows: u64,
    digest: u64,
    dvc_rounds: u64,
    dvc_messages: u64,
    dvc_patches: usize,
    dvc_agrees: bool,
}

fn run_size(n: usize, rounds: usize) -> SizePoint {
    let deployment = Deployment::scaled_series(&[n], SEED).remove(0);
    let network = Network::with_default_energy(deployment);
    let dests = destinations_for(n);
    let cfg = WorkloadConfig {
        selection: SourceSelection::Uniform,
        ..WorkloadConfig::paper_default(dests, 20, SEED)
    };
    let spec = generate_workload(&network, &cfg);
    let routing = RoutingTables::build(
        &network,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&network, &spec, &routing);
    let compiled = CompiledSchedule::compile(&network, &spec, &plan).expect("schedulable plan");
    let sim = SimExec::new(&network, &compiled);
    m2m_log!(
        Level::Info,
        "n={n}: {dests} destinations, {} sources, {} messages/round, {} components",
        compiled.sources().len(),
        sim.message_count(),
        sim.component_count()
    );

    // The simulator is the compiled executor plus loss: at p = 0 the
    // per-destination results must agree to the bit.
    let sources = compiled.sources().ids().to_vec();
    let readings_map: BTreeMap<NodeId, f64> = sources.iter().map(|&s| (s, reading(s, 0))).collect();
    let mut exec_state = ExecState::for_schedule(&compiled);
    compiled.run_round_on(&readings_map, &mut exec_state);
    let mut st = sim.state();
    let lossless = sim.run_on(
        &readings_map,
        &DeliveryModel::reliable(),
        &RetryPolicy::unlimited(1_000_000),
        BASE_SALT,
        &mut st,
    );
    assert!(
        lossless.outcome.delivered,
        "n={n}: lossless round undelivered"
    );
    for (got, want) in lossless.outcome.results.iter().zip(exec_state.results()) {
        assert_eq!(
            got.expect("lossless result").to_bits(),
            want.to_bits(),
            "n={n}: simulator diverged from the compiled executor at p=0"
        );
    }

    // The distributed cover solve must have converged to exactly the
    // centralized optimum; record its protocol effort.
    let dvc = solve_distributed(plan.topology(), &spec);
    let dvc_agrees = dvc.agrees_with(plan.solutions()) && dvc.patches == plan.repair_count();
    assert!(
        dvc_agrees,
        "n={n}: distributed solve diverged from the plan"
    );

    // The timed lossy epoch, through one warm state.
    let model = DeliveryModel::uniform(LOSS_P, SEED ^ 0xd15c);
    let policy = RetryPolicy::bounded(4, 1, 1_000_000);
    let batch: Vec<Vec<f64>> = (0..rounds)
        .map(|round| sources.iter().map(|&s| reading(s, round)).collect())
        .collect();
    let mut outcomes: Vec<SimOutcome> = Vec::with_capacity(rounds);
    let epoch_ns = time_ns(|| {
        for (round, readings) in batch.iter().enumerate() {
            let salt = BASE_SALT.wrapping_add((round as u64).wrapping_mul(SALT_STRIDE));
            outcomes.push(sim.run(readings, &model, &policy, salt, &mut st));
        }
    });
    let digest = digest_outcomes(&outcomes);

    // Replay the epoch through the same warm state: the simulator is a
    // pure function of (readings, model, policy, salt).
    let mut replay: Vec<SimOutcome> = Vec::with_capacity(rounds);
    for (round, readings) in batch.iter().enumerate() {
        let salt = BASE_SALT.wrapping_add((round as u64).wrapping_mul(SALT_STRIDE));
        replay.push(sim.run(readings, &model, &policy, salt, &mut st));
    }
    assert_eq!(
        digest_outcomes(&replay),
        digest,
        "n={n}: epoch replay diverged"
    );

    let events: u64 = outcomes.iter().map(|o| o.events).sum();
    let events_per_sec = events as f64 / (epoch_ns / 1e9).max(1e-9);
    let mut fractions: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.outcome.coverage.iter().map(DestCoverage::fraction))
        .collect();
    fractions.sort_by(f64::total_cmp);
    let coverage = [
        fractions.iter().sum::<f64>() / fractions.len() as f64,
        quantile(&fractions, 0.5),
        quantile(&fractions, 0.01),
        fractions[0],
    ];
    let retransmissions: usize = outcomes.iter().map(|o| o.outcome.retransmissions).sum();
    let peak_queue_depth = outcomes
        .iter()
        .map(|o| o.peak_queue_depth)
        .max()
        .unwrap_or(0);
    let queue_overflows: u64 = outcomes.iter().map(|o| o.queue_overflows).sum();

    m2m_log!(
        Level::Info,
        "n={n}: {rounds} lossy rounds, {events} events ({events_per_sec:.0}/s), \
         coverage mean {:.4} / p01 {:.4}, {retransmissions} retx, \
         peak queue {peak_queue_depth}, dvc {} rounds / {} messages, digest 0x{digest:016x}",
        coverage[0],
        coverage[2],
        dvc.rounds,
        dvc.messages
    );

    SizePoint {
        nodes: n,
        destinations: dests,
        sources: sources.len(),
        messages: sim.message_count(),
        components: sim.component_count(),
        rounds,
        events,
        events_per_sec,
        coverage,
        retransmissions,
        peak_queue_depth,
        queue_overflows,
        digest,
        dvc_rounds: dvc.rounds,
        dvc_messages: dvc.messages,
        dvc_patches: dvc.patches,
        dvc_agrees,
    }
}

/// `--check`: parse an artifact and assert the schema the gate relies on.
fn check_artifact(path: &str) {
    let value = m2m_bench::report::check_header(path, "sim_runtime");
    let sizes = m2m_bench::report::require_rows(
        path,
        &value,
        "sizes",
        &[
            "nodes",
            "events",
            "events_per_sec",
            "coverage_mean",
            "coverage_p50",
            "coverage_p01",
            "coverage_min",
            "digest",
            "dvc_rounds",
        ],
    );
    for row in sizes {
        assert!(
            matches!(row.get("dvc_agrees"), Some(JsonValue::Bool(true))),
            "{path}: a size point recorded a diverged distributed solve"
        );
    }
    println!("check_ok={path} sizes={}", sizes.len());
}

fn main() {
    telemetry::init_logging(Level::Info);
    let cli = m2m_bench::report::BenchCli::parse("BENCH_sim.json");
    if let Some(path) = &cli.check {
        check_artifact(path);
        return;
    }
    let smoke = cli.smoke;
    let mut nodes = cli.nodes;
    if nodes.is_empty() {
        nodes = vec![1_000, 10_000, 100_000];
    }
    if smoke {
        nodes = vec![1_000];
    }

    let mut rows = Vec::new();
    let mut smoke_point = None;
    for &n in &nodes {
        let rounds = cli.count.unwrap_or(if smoke { 12 } else { rounds_for(n) });
        let point = run_size(n, rounds);
        rows.push(
            JsonValue::object()
                .with("nodes", point.nodes)
                .with("destinations", point.destinations)
                .with("sources", point.sources)
                .with("messages_per_round", point.messages)
                .with("components", point.components)
                .with("rounds", point.rounds)
                .with("loss_p", JsonValue::float(LOSS_P, 3))
                .with("events", point.events)
                .with("events_per_sec", JsonValue::float(point.events_per_sec, 0))
                .with("coverage_mean", JsonValue::float(point.coverage[0], 4))
                .with("coverage_p50", JsonValue::float(point.coverage[1], 4))
                .with("coverage_p01", JsonValue::float(point.coverage[2], 4))
                .with("coverage_min", JsonValue::float(point.coverage[3], 4))
                .with("retransmissions", point.retransmissions)
                .with("peak_queue_depth", u64::from(point.peak_queue_depth))
                .with("queue_overflows", point.queue_overflows)
                .with("digest", format!("0x{:016x}", point.digest))
                .with("dvc_rounds", point.dvc_rounds)
                .with("dvc_messages", point.dvc_messages)
                .with("dvc_patches", point.dvc_patches)
                .with("dvc_agrees", point.dvc_agrees),
        );
        smoke_point = Some(point);
    }

    if smoke {
        let point = smoke_point.expect("smoke point ran");
        println!("smoke_sim_events_per_sec={:.2}", point.events_per_sec);
        println!("smoke_sim_digest=0x{:016x}", point.digest);
        return;
    }

    let report = bench_report("sim_runtime", "scaled_series_uniform")
        .with("sources_per_destination", 20usize)
        .with("seed", SEED)
        .with("sizes", JsonValue::Array(rows));
    m2m_bench::report::write_report(&cli.out_path, &report);
    if let Some(path) = telemetry::export_if_requested() {
        m2m_log!(Level::Info, "exported telemetry snapshot to {path}");
    }
}
