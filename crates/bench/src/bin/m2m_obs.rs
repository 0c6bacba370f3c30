//! Flight-recorder renderer and observability regression gate.
//!
//! Runs a 250-node lossy session with the observability layer enabled
//! ([`M2M_OBS`]-equivalent, forced on in-process), then renders what the
//! flight recorder captured: a per-node hotspot table (energy, messages,
//! retries, drops, battery estimate), a round-by-round coverage/energy
//! timeline, and a versioned JSON artifact (`BENCH_obs.json`). Before
//! rendering anything it proves the books balance: the per-node planes,
//! the recorder's running totals, the global telemetry counters, and the
//! per-round outcomes must agree *exactly* on retransmissions, drops,
//! and round counts (energy reconciles within float-summation
//! tolerance, since planes sum per node while outcomes sum per message).
//!
//! It also measures what observability costs: the same batch is timed
//! through a session with the layer off and one with it on over
//! [`PAIRS`] alternating pairs, outcome digests are required to be
//! bit-identical in every pair (observability must never change
//! results), and the median on/off ratio is reported.
//!
//! Usage: `cargo run --release -p m2m-bench --bin m2m_obs -- \
//!         [--smoke] [--check [artifact.json]] [--nodes N] \
//!         [output.json] [rounds] [trace.json]`
//!
//! `--smoke` skips the artifact and prints the [`GATES`]: the outcome
//! digest and the enabled-path overhead, which `scripts/verify.sh`
//! holds under [`OVERHEAD_BUDGET_PCT`] (see [`m2m_bench::harness`]).
//! `--check` validates an existing artifact's schema, its pair count and
//! its committed overhead. The optional third positional writes the
//! layer spans the run recorded (`routing.build` → `topo.intern` →
//! `edge_opt.problems` → … → `faults.lower` → `faults.round`, the
//! [`m2m_core::telemetry::layer`] names) as Chrome `trace_event` JSON
//! loadable in Perfetto or speedscope.
//!
//! [`M2M_OBS`]: m2m_core::config::OBS_ENV

use m2m_bench::harness::{print_gates, Digest, Gate, Kind};
use m2m_bench::report::{
    bench_report, check_header, median_ns, require_fields, require_rows, time_ns, BenchCli,
    JsonValue,
};
use m2m_core::config::{Config, Runtime};
use m2m_core::faults::FaultOutcome;
use m2m_core::obs::DEFAULT_BATTERY_UJ;
use m2m_core::session::Session;
use m2m_core::telemetry::timeseries;
use m2m_core::telemetry::{layer, names, Level};
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_core::{m2m_log, telemetry};
use m2m_graph::NodeId;
use m2m_netsim::failure::DeliveryModel;
use m2m_netsim::{Deployment, Network, RoutingMode};

/// What `--smoke` prints for `scripts/verify.sh` to judge. The overhead
/// is a wall-clock median, so a busy host may skew one run: it gets
/// three attempts.
const GATES: &[Gate] = &[
    Gate::new("digest", Kind::Same),
    Gate::new("overhead_pct", Kind::Max(OVERHEAD_BUDGET_PCT)).retried(3),
];
/// Enabled-path budget: obs on may cost at most this percentage of the
/// off path's batch time (also the artifact check's bound).
const OVERHEAD_BUDGET_PCT: f64 = 5.0;
/// Off/on pairs behind the overhead median; `--check` rejects an
/// artifact that records another count.
const PAIRS: usize = 41;

const BASE_SALT: u64 = 0x0b5e_7a11;
/// Loss probability for the showcase session.
const LOSS_P: f64 = 0.15;

/// Deterministic synthetic reading for `(source, round)` — no RNG so
/// runs are reproducible byte-for-byte.
fn reading(source: NodeId, round: usize) -> f64 {
    let s = source.index() as f64;
    let r = round as f64;
    (s * 0.53 + r * 0.97).sin() * 40.0 + s * 0.01
}

fn build_session(network: &Network, obs: bool, cap: usize) -> Session {
    let n = network.node_count();
    let spec = generate_workload(network, &WorkloadConfig::paper_default(n / 4, 20, 7));
    let config = Config::builder().trace(true).obs(obs).obs_cap(cap).build();
    Session::builder(network.clone(), spec)
        .routing_mode(RoutingMode::ShortestPathTrees)
        .config(config)
        .runtime(Runtime::Lossy)
        .delivery(DeliveryModel::uniform(LOSS_P, 11))
        .base_salt(BASE_SALT)
        .build()
}

/// Runs a batch through the unified [`Session::run_rounds`] dispatcher
/// and unwraps the lossy-runtime outcomes the digests and books consume.
fn lossy_batch(session: &mut Session, batch: &[Vec<f64>]) -> Vec<FaultOutcome> {
    session
        .run_rounds(batch)
        .into_iter()
        .map(|r| r.fault().expect("lossy runtime").clone())
        .collect()
}

/// Exact-integer and tolerant-float reconciliation of the three books:
/// planes (where), recorder totals (when), global counters + summed
/// outcomes (how much). Panics on any imbalance.
fn reconcile(session: &Session, outcomes: &[FaultOutcome]) {
    let planes = timeseries::planes_snapshot();
    let totals = *session.recorder().expect("obs session").totals();
    let snap = telemetry::snapshot();

    let sum_retx: u64 = outcomes.iter().map(|o| o.retransmissions as u64).sum();
    let sum_drop: u64 = outcomes.iter().map(|o| o.dropped_messages as u64).sum();
    let sum_tx: f64 = outcomes.iter().map(|o| o.cost.tx_uj).sum();
    let sum_rx: f64 = outcomes.iter().map(|o| o.cost.rx_uj).sum();

    let plane_retx: u64 = planes.retries().iter().sum();
    let plane_drop: u64 = planes.drops().iter().sum();
    let plane_tx: f64 = planes.energy_tx_uj().iter().sum();
    let plane_rx: f64 = planes.energy_rx_uj().iter().sum();

    // Integer books must balance exactly.
    assert_eq!(plane_retx, sum_retx, "plane retries != summed outcomes");
    assert_eq!(plane_drop, sum_drop, "plane drops != summed outcomes");
    assert_eq!(
        plane_retx,
        snap.counter(names::FAULTS_RETRANSMISSIONS),
        "plane retries != global counter"
    );
    assert_eq!(
        plane_drop,
        snap.counter(names::FAULTS_DROPPED_MESSAGES),
        "plane drops != global counter"
    );
    assert_eq!(totals.retransmissions, sum_retx, "recorder retx drifted");
    assert_eq!(totals.dropped, sum_drop, "recorder drops drifted");
    assert_eq!(totals.rounds, outcomes.len() as u64, "recorder rounds");
    assert_eq!(planes.rounds(), outcomes.len() as u64, "plane rounds");
    assert_eq!(
        planes.rounds(),
        snap.counter(names::FAULTS_ROUNDS),
        "plane rounds != global counter"
    );

    // Energy books sum the same µJ in different orders (per node vs per
    // message), so they agree to float tolerance, not bit-exactly.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!(close(plane_tx, sum_tx), "plane tx {plane_tx} vs {sum_tx}");
    assert!(close(plane_rx, sum_rx), "plane rx {plane_rx} vs {sum_rx}");
    assert!(close(totals.tx_uj, sum_tx), "recorder tx energy drifted");
    assert!(close(totals.rx_uj, sum_rx), "recorder rx energy drifted");
}

/// Renders the per-node hotspot table (top `limit` nodes by energy).
fn print_hotspots(limit: usize) {
    let planes = timeseries::planes_snapshot();
    let mut order: Vec<usize> = (0..planes.len()).collect();
    order.sort_by(|&a, &b| planes.energy_uj(b).total_cmp(&planes.energy_uj(a)));
    println!(
        "hotspots (top {limit} of {} nodes by energy):",
        planes.len()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6} {:>9}",
        "node", "tx_uj", "rx_uj", "msgs_tx", "msgs_rx", "retries", "drops", "battery%"
    );
    for &slot in order.iter().take(limit) {
        let battery_pct = planes.battery_uj(slot, DEFAULT_BATTERY_UJ) / DEFAULT_BATTERY_UJ * 100.0;
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>8} {:>8} {:>8} {:>6} {:>9.5}",
            planes.ids()[slot],
            planes.energy_tx_uj()[slot],
            planes.energy_rx_uj()[slot],
            planes.msgs_tx()[slot],
            planes.msgs_rx()[slot],
            planes.retries()[slot],
            planes.drops()[slot],
            battery_pct,
        );
    }
}

/// Renders the per-round coverage/energy timeline (at most `limit`
/// evenly spaced points).
fn print_timeline(session: &Session, limit: usize) {
    let rec = session.recorder().expect("obs session");
    let points: Vec<_> = rec.series().collect();
    let step = points.len().div_ceil(limit).max(1);
    println!(
        "timeline ({} points, stride {}, {} evicted):",
        points.len(),
        rec.every(),
        rec.series_evicted()
    );
    println!(
        "{:>6} {:>9} {:>9} {:>12} {:>6} {:>6} {:>6}",
        "round", "coverage", "degraded", "energy_uj", "retx", "drops", "slots"
    );
    for p in points.iter().step_by(step) {
        println!(
            "{:>6} {:>9.4} {:>9} {:>12.1} {:>6} {:>6} {:>6}",
            p.round,
            p.coverage(),
            p.degraded,
            p.tx_uj + p.rx_uj,
            p.retransmissions,
            p.dropped,
            p.slots_used,
        );
    }
}

/// `--check`: parse an artifact and assert the schema the gate relies
/// on, including the committed overhead staying under the budget.
fn check_artifact(path: &str) {
    let value = check_header(path, "obs");
    let obs = value
        .get("obs")
        .unwrap_or_else(|| panic!("{path}: missing obs section"));
    let schema = obs
        .get("m2m_obs_schema")
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("{path}: obs dump missing m2m_obs_schema"));
    assert_eq!(
        schema,
        timeseries::OBS_SCHEMA_VERSION,
        "{path}: unexpected obs schema {schema}"
    );
    require_fields(
        path,
        "obs dump",
        obs,
        &[
            "stride",
            "cap",
            "totals",
            "series",
            "events",
            "plane_rounds",
        ],
    );
    let nodes = require_rows(
        path,
        obs,
        "nodes",
        &["node", "energy_tx_uj", "retries", "drops", "battery_uj"],
    );
    assert_eq!(
        value.get("samples").and_then(JsonValue::as_u64),
        Some(PAIRS as u64),
        "{path}: samples must record the {PAIRS} off/on pairs"
    );
    let rounds = obs
        .get("totals")
        .and_then(|t| t.get("rounds"))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("{path}: obs totals missing rounds"));
    assert!(rounds > 0, "{path}: artifact recorded no rounds");
    let overhead = value
        .get("overhead")
        .and_then(|o| o.get("overhead_pct"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("{path}: missing overhead.overhead_pct"));
    assert!(
        overhead < OVERHEAD_BUDGET_PCT,
        "{path}: committed overhead {overhead:.2}% breaches the {OVERHEAD_BUDGET_PCT}% budget"
    );
    assert_eq!(
        value.get("reconcile").and_then(JsonValue::as_str),
        Some("exact"),
        "{path}: artifact was not reconciled"
    );
    println!("check_ok={path} nodes={} rounds={rounds}", nodes.len());
}

fn main() {
    telemetry::init_logging(Level::Info);
    let cli = BenchCli::parse("BENCH_obs.json");
    if let Some(path) = &cli.check {
        check_artifact(path);
        return;
    }
    let node_count = cli.nodes.first().copied().unwrap_or(250);
    // Smoke runs the full batch too: a pair is ~15 ms, long enough that
    // a millisecond hiccup of the host moves one side by a few percent.
    let rounds = cli.count.unwrap_or(96);
    let trace_path = cli.rest.first().cloned();

    let deployment = Deployment::scaled_series(&[node_count], 7).remove(0);
    let network = Network::with_default_energy(deployment);

    // Two sessions for the overhead race (identical salts, batches, and
    // loss stream; only the observability layer differs), plus a fresh
    // one for the reconciled showcase run.
    let mut off = build_session(&network, false, 4096);
    let mut on = build_session(&network, true, 4096);
    let sources = on.compiled().sources().ids().to_vec();
    let batch: Vec<Vec<f64>> = (0..rounds)
        .map(|round| sources.iter().map(|&s| reading(s, round)).collect())
        .collect();
    m2m_log!(
        Level::Info,
        "deployment: {} nodes, {} sources, {} messages/round, p={LOSS_P}",
        network.node_count(),
        sources.len(),
        on.compiled().schedule().messages.len(),
    );

    // Overhead race: per pair, run the batch with the layer off and on;
    // both sessions advance their salt streams in lockstep, so the
    // outcome digests must match bit for bit. Pairs alternate which side
    // runs first, so a host slowing down or speeding up within a pair
    // favours neither side, and the overhead is the median of the pairs'
    // on/off ratios. One untimed warmup batch per session first — cold
    // caches and pool spin-up otherwise land entirely on the first pair.
    let timed_batch = |session: &mut Session, obs: bool| {
        timeseries::set_obs_enabled(obs);
        let mut digest = Digest::default();
        let ns = time_ns(|| digest = Digest::outcomes(&lossy_batch(session, &batch)));
        (ns, digest)
    };
    timed_batch(&mut off, false);
    timed_batch(&mut on, true);
    let mut on_ns = Vec::with_capacity(PAIRS);
    let mut off_ns = Vec::with_capacity(PAIRS);
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut digest = Digest::default();
    for pair in 0..PAIRS {
        let (off_side, on_side) = if pair % 2 == 0 {
            let off_side = timed_batch(&mut off, false);
            (off_side, timed_batch(&mut on, true))
        } else {
            let on_side = timed_batch(&mut on, true);
            (timed_batch(&mut off, false), on_side)
        };
        assert_eq!(on_side.1, off_side.1, "observability changed the outcomes");
        digest = on_side.1;
        off_ns.push(off_side.0);
        on_ns.push(on_side.0);
        ratios.push(on_side.0 / off_side.0);
    }
    let rps_on = 1e9 * rounds as f64 / median_ns(&mut on_ns);
    let rps_off = 1e9 * rounds as f64 / median_ns(&mut off_ns);
    let overhead_pct = (median_ns(&mut ratios) - 1.0) * 100.0;

    // Reconciled showcase run: fresh session, fresh books. The ring cap
    // bounds the committed artifact's size; totals stay exact across
    // eviction, so reconciliation is cap-independent.
    let mut session = build_session(&network, true, 512);
    timeseries::set_obs_enabled(true);
    telemetry::set_enabled(true);
    telemetry::reset();
    timeseries::reset_planes();
    let outcomes = lossy_batch(&mut session, &batch);
    reconcile(&session, &outcomes);
    m2m_log!(Level::Info, "reconcile: planes == recorder == counters");

    print_hotspots(10);
    print_timeline(&session, 12);

    if cli.smoke {
        print_gates(
            GATES,
            &[("digest", &digest), ("overhead_pct", &overhead_pct)],
        );
        return;
    }

    let dump = session.obs_dump().expect("obs session dumps");
    let report = bench_report("obs", &format!("scaled_series_{node_count}"))
        .with("nodes", network.node_count())
        .with("rounds", rounds)
        .with("loss_p", JsonValue::float(LOSS_P, 2))
        .with("samples", PAIRS)
        .with("base_salt", BASE_SALT)
        .with(
            "overhead",
            JsonValue::object()
                .with("rounds_per_sec_on", JsonValue::float(rps_on, 1))
                .with("rounds_per_sec_off", JsonValue::float(rps_off, 1))
                .with("overhead_pct", JsonValue::float(overhead_pct, 3))
                .with("budget_pct", JsonValue::float(OVERHEAD_BUDGET_PCT, 1))
                .with("digest", digest.to_string()),
        )
        .with("reconcile", "exact")
        .with("obs", dump);
    m2m_bench::report::write_report(&cli.out_path, &report);

    if let Some(path) = trace_path {
        let names = timeseries::span_event_names();
        if let Some(stray) = names.iter().find(|n| !layer::ALL.contains(n)) {
            panic!("span {stray} is not a layer name");
        }
        let trace = timeseries::chrome_trace().render();
        std::fs::write(&path, &trace).expect("write chrome trace");
        m2m_log!(Level::Info, "wrote {} layer spans to {path}", names.len());
    }
}
