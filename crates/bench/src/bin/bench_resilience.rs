//! Machine-readable fault-tolerance benchmark.
//!
//! Exercises the loss-aware executor ([`m2m_core::faults::FaultyExec`])
//! over the three delivery models it supports — a uniform Bernoulli
//! sweep, per-link losses derived from distance-based ETX quality, and an
//! injected [`FailureTrace`] outage — and writes coverage, retransmission,
//! drop, and energy statistics to `BENCH_resilience.json`. Before timing
//! anything it proves the lossy path is the compiled path plus loss
//! (p = 0 must be bit-identical to [`CompiledSchedule::run_round_on`])
//! and that batched lossy rounds are thread-count invariant: the digest
//! printed per scenario folds every result, coverage set, and cost, so
//! two runs — or the same run at 1, 2, and 8 workers — agree on the
//! digest iff they computed bit-identical outcomes.
//!
//! Usage: `cargo run --release -p m2m-bench --bin bench_resilience \
//!         [--smoke] [--check <artifact.json>] [output.json] [rounds]`
//!
//! `--smoke` runs a reduced batch and exits non-zero on any equivalence
//! or determinism violation — the regression gate wired into
//! `scripts/verify.sh`. `--check` parses an existing artifact and
//! asserts the schema it gates on (version 2 with a `scenarios` array),
//! so the committed JSON can never drift unparseable.

use std::collections::BTreeMap;

use m2m_bench::report::{bench_report, median_ns, time_ns, JsonValue};
use m2m_core::exec::{CompiledSchedule, ExecState};
use m2m_core::faults::{FaultOutcome, FaultyExec, RetryPolicy, SALT_STRIDE};
use m2m_core::plan::GlobalPlan;
use m2m_core::telemetry::Level;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_core::{m2m_log, telemetry};
use m2m_graph::NodeId;
use m2m_netsim::failure::{DeliveryModel, FailureTrace};
use m2m_netsim::quality::LinkQuality;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const BASE_SALT: u64 = 0xbe9c_ff5a;

/// Deterministic synthetic reading for `(source, round)` — no RNG so the
/// artifact is reproducible byte-for-byte across runs and machines.
fn reading(source: NodeId, round: usize) -> f64 {
    let s = source.index() as f64;
    let r = round as f64;
    (s * 0.41 + r * 1.07).sin() * 50.0 + s * 0.01
}

/// FNV-1a over every field of every outcome: results (presence and
/// bits), coverage sets, cost, slots, retransmissions, drops.
fn digest_outcomes(outcomes: &[FaultOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bits: u64| {
        h ^= bits;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for out in outcomes {
        for r in &out.results {
            match r {
                Some(v) => fold(v.to_bits()),
                None => fold(u64::MAX),
            }
        }
        for c in &out.coverage {
            fold(u64::from(c.destination.0));
            fold(c.covered as u64);
            fold(c.demanded as u64);
            for &m in &c.missing {
                fold(u64::from(m.0));
            }
        }
        fold(out.cost.tx_uj.to_bits());
        fold(out.cost.rx_uj.to_bits());
        fold(out.cost.messages as u64);
        fold(out.cost.units as u64);
        fold(out.cost.payload_bytes);
        fold(u64::from(out.slots_used));
        fold(out.retransmissions as u64);
        fold(out.dropped_messages as u64);
        fold(u64::from(out.delivered));
    }
    h
}

/// Runs one scenario batch, asserts thread-count invariance, and returns
/// the aggregate row for the artifact plus the digest.
fn scenario_row(
    name: &str,
    faulty: &FaultyExec,
    batch: &[Vec<f64>],
    model: &DeliveryModel,
    policy: &RetryPolicy,
    samples: usize,
) -> (JsonValue, u64) {
    let serial = faulty.run_rounds(batch, model, policy, BASE_SALT, 1);
    for &threads in &THREAD_COUNTS[1..] {
        let parallel = faulty.run_rounds(batch, model, policy, BASE_SALT, threads);
        assert_eq!(parallel, serial, "{name}: divergence at {threads} threads");
    }
    let digest = digest_outcomes(&serial);

    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        times.push(
            time_ns(|| {
                let replay = faulty.run_rounds(batch, model, policy, BASE_SALT, 2);
                assert_eq!(digest_outcomes(&replay), digest, "{name}: replay diverged");
            }) / batch.len() as f64,
        );
    }
    let med = median_ns(&mut times);

    let rounds = serial.len() as f64;
    let delivered = serial.iter().filter(|o| o.delivered).count() as f64 / rounds;
    let coverage: f64 = serial
        .iter()
        .flat_map(|o| o.coverage.iter())
        .map(m2m_core::faults::DestCoverage::fraction)
        .sum::<f64>()
        / serial
            .iter()
            .map(|o| o.coverage.len())
            .sum::<usize>()
            .max(1) as f64;
    let retx: usize = serial.iter().map(|o| o.retransmissions).sum();
    let dropped: usize = serial.iter().map(|o| o.dropped_messages).sum();
    let energy_mj: f64 = serial.iter().map(|o| o.cost.total_mj()).sum::<f64>() / rounds;
    let slots: f64 = serial.iter().map(|o| f64::from(o.slots_used)).sum::<f64>() / rounds;

    m2m_log!(
        Level::Info,
        "{name}: delivered {delivered:.2}, coverage {coverage:.3}, {retx} retx, \
         {dropped} dropped, {energy_mj:.2} mJ/round, digest 0x{digest:016x}"
    );
    let row = JsonValue::object()
        .with("scenario", name)
        .with("rounds", serial.len())
        .with("delivered_fraction", JsonValue::float(delivered, 4))
        .with("mean_coverage", JsonValue::float(coverage, 6))
        .with("retransmissions", retx)
        .with("dropped_messages", dropped)
        .with("mean_energy_mj_per_round", JsonValue::float(energy_mj, 4))
        .with("mean_slots_per_round", JsonValue::float(slots, 2))
        .with("median_ns_per_round", JsonValue::float(med, 0))
        .with("digest", format!("0x{digest:016x}"));
    (row, digest)
}

/// `--check`: parse an artifact and assert the schema the gate relies on.
fn check_artifact(path: &str) {
    let value = m2m_bench::report::check_header(path, "resilience");
    let scenarios = m2m_bench::report::require_rows(
        path,
        &value,
        "scenarios",
        &["scenario", "delivered_fraction", "mean_coverage", "digest"],
    );
    println!("check_ok={path} scenarios={}", scenarios.len());
}

fn main() {
    telemetry::init_logging(Level::Info);
    let cli = m2m_bench::report::BenchCli::parse("BENCH_resilience.json");
    let smoke = cli.smoke;
    if let Some(path) = &cli.check {
        check_artifact(path);
        return;
    }
    let out_path = cli.out_path;
    let rounds: usize = cli.count.unwrap_or(if smoke { 16 } else { 64 });
    let samples = if smoke { 3 } else { 7 };

    let network = Network::with_default_energy(Deployment::great_duck_island(7));
    let n = network.node_count();
    let spec = generate_workload(&network, &WorkloadConfig::paper_default(12, 10, 7));
    let routing = RoutingTables::build(
        &network,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&network, &spec, &routing);
    let compiled = CompiledSchedule::compile(&network, &spec, &plan).expect("schedulable plan");
    let faulty = FaultyExec::new(&network, &compiled);
    let policy = RetryPolicy::bounded(4, 1, 10_000);

    m2m_log!(
        Level::Info,
        "deployment: {n} nodes, {} destinations, {} sources, {} messages/round",
        spec.destinations().count(),
        compiled.sources().len(),
        compiled.schedule().messages.len(),
    );

    // Equivalence first: at p = 0 every retry policy must reproduce the
    // plain compiled round bit for bit, or no lossy number means anything.
    let probe: BTreeMap<NodeId, f64> = compiled
        .sources()
        .ids()
        .iter()
        .map(|&s| (s, reading(s, 0)))
        .collect();
    let mut state = ExecState::for_schedule(&compiled);
    let plain_cost = compiled.run_round_on(&probe, &mut state);
    let exact: Vec<Option<f64>> = state.results().iter().map(|&r| Some(r)).collect();
    let mut scratch = faulty.scratch();
    let out = faulty.run_on(
        &probe,
        &DeliveryModel::reliable(),
        &policy,
        BASE_SALT,
        &mut scratch,
    );
    assert_eq!(
        out.results, exact,
        "p=0 results diverged from compiled path"
    );
    assert_eq!(out.cost, plain_cost, "p=0 cost diverged from compiled path");
    assert_eq!(out.retransmissions, 0);
    m2m_log!(Level::Info, "p=0 equivalence: lossy path == compiled path");

    let batch: Vec<Vec<f64>> = (0..rounds)
        .map(|round| {
            compiled
                .sources()
                .ids()
                .iter()
                .map(|&s| reading(s, round))
                .collect()
        })
        .collect();

    let mut scenario_rows = Vec::new();
    let mut digests = Vec::new();

    // Uniform Bernoulli sweep.
    for p in [0.0, 0.1, 0.2, 0.3] {
        let model = DeliveryModel::uniform(p, 11);
        let (row, digest) = scenario_row(
            &format!("bernoulli_p{p:.1}"),
            &faulty,
            &batch,
            &model,
            &policy,
            samples,
        );
        scenario_rows.push(row);
        digests.push(digest);
    }

    // Per-link losses derived from distance-based ETX quality.
    let quality = LinkQuality::distance_based(&network, 0.3, 7);
    let model = DeliveryModel::from_quality(&quality, 13);
    let (row, digest) = scenario_row("etx_per_link", &faulty, &batch, &model, &policy, samples);
    scenario_rows.push(row);
    digests.push(digest);

    // Injected outage: the first scheduled message's link is down for
    // every tick (trace windows live in the salted tick space the
    // executor draws from, so a persistent window is the reproducible
    // scenario), exercising drop and coverage accounting.
    let outage = compiled.schedule().messages[0].edge;
    let trace = FailureTrace::new().down(outage.0, outage.1, 0, u64::MAX);
    let model = DeliveryModel::trace(trace);
    let (row, digest) = scenario_row("trace_outage", &faulty, &batch, &model, &policy, samples);
    scenario_rows.push(row);
    digests.push(digest);

    if smoke {
        // Machine-readable lines for scripts/verify.sh: one digest per
        // scenario, stable across reruns and thread counts.
        for (row, digest) in scenario_rows.iter().zip(&digests) {
            let name = row
                .get("scenario")
                .and_then(JsonValue::as_str)
                .expect("scenario rows are named");
            println!("smoke_digest_{name}=0x{digest:016x}");
        }
        m2m_log!(
            Level::Info,
            "smoke: {} scenarios, all thread-count invariant — OK",
            scenario_rows.len()
        );
        return;
    }

    let report = bench_report("resilience", "great_duck_island_77n")
        .with("nodes", n)
        .with("destinations", spec.destinations().count())
        .with("sources", compiled.sources().len())
        .with("messages_per_round", compiled.schedule().messages.len())
        .with("rounds", rounds)
        .with("samples", samples)
        .with("base_salt", BASE_SALT)
        .with("salt_stride", SALT_STRIDE)
        .with(
            "retry_policy",
            JsonValue::object()
                .with("max_attempts", policy.max_attempts)
                .with("backoff_slots", policy.backoff_slots)
                .with("max_slots", policy.max_slots),
        )
        .with("thread_counts_verified", {
            JsonValue::Array(THREAD_COUNTS.iter().map(|&t| JsonValue::from(t)).collect())
        })
        .with("scenarios", JsonValue::Array(scenario_rows));
    m2m_bench::report::write_report(&out_path, &report);
    m2m_bench::report::export_telemetry();
}
