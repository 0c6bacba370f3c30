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
//!         [--smoke] [--check [artifact.json]] [output.json] [rounds]`
//!
//! `--smoke` runs a reduced 16-round batch and prints one digest per
//! scenario, the [`GATES`]; any equivalence or determinism violation
//! fails the run itself. `--check` validates an artifact (version 2 with
//! a `scenarios` array) and re-runs every scenario at the artifact's
//! round count ([`PIN`]): each must reproduce its committed digest, so a
//! change to lossy semantics fails there instead of passing as a
//! same-build comparison. `scripts/verify.sh` judges both; see
//! [`m2m_bench::harness`].

use std::collections::BTreeMap;
use std::fmt::Display;

use m2m_bench::harness::{print_gates, Digest, Gate, Kind, Pin};
use m2m_bench::report::{bench_report, median_run, JsonValue};
use m2m_core::exec::{CompiledSchedule, ExecState};
use m2m_core::faults::{FaultyExec, RetryPolicy, SALT_STRIDE};
use m2m_core::plan::GlobalPlan;
use m2m_core::telemetry::Level;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_core::{m2m_log, telemetry};
use m2m_graph::NodeId;
use m2m_netsim::failure::{DeliveryModel, FailureTrace};
use m2m_netsim::quality::LinkQuality;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

/// What `--smoke` prints for `scripts/verify.sh` to judge: one digest
/// per scenario, which tracing may not move.
const GATES: &[Gate] = &[
    Gate::new("bernoulli_p0.0", Kind::Same),
    Gate::new("bernoulli_p0.1", Kind::Same),
    Gate::new("bernoulli_p0.2", Kind::Same),
    Gate::new("bernoulli_p0.3", Kind::Same),
    Gate::new("etx_per_link", Kind::Same),
    Gate::new("trace_outage", Kind::Same),
];
/// `--check` re-runs every scenario row.
const PIN: Pin = Pin {
    rows: "scenarios",
    key: "scenario",
    values: &[],
    digest: "digest",
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const BASE_SALT: u64 = 0xbe9c_ff5a;

/// Deterministic synthetic reading for `(source, round)` — no RNG so the
/// artifact is reproducible byte-for-byte across runs and machines.
fn reading(source: NodeId, round: usize) -> f64 {
    let s = source.index() as f64;
    let r = round as f64;
    (s * 0.41 + r * 1.07).sin() * 50.0 + s * 0.01
}

/// Runs one scenario batch, asserts thread-count invariance, and returns
/// the aggregate row for the artifact, digest included.
fn scenario_row(
    name: &str,
    faulty: &FaultyExec,
    batch: &[Vec<f64>],
    model: &DeliveryModel,
    policy: &RetryPolicy,
    samples: usize,
) -> JsonValue {
    let serial = faulty.run_rounds(batch, model, policy, BASE_SALT, 1);
    for &threads in &THREAD_COUNTS[1..] {
        let parallel = faulty.run_rounds(batch, model, policy, BASE_SALT, threads);
        assert_eq!(parallel, serial, "{name}: divergence at {threads} threads");
    }
    let digest = Digest::outcomes(&serial);

    let (_, batch_ns) = median_run(samples, || {
        let replay = faulty.run_rounds(batch, model, policy, BASE_SALT, 2);
        assert_eq!(Digest::outcomes(&replay), digest, "{name}: replay diverged");
    });
    let med = batch_ns / batch.len() as f64;

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
         {dropped} dropped, {energy_mj:.2} mJ/round, digest {digest}"
    );
    JsonValue::object()
        .with("scenario", name)
        .with("rounds", serial.len())
        .with("delivered_fraction", JsonValue::float(delivered, 4))
        .with("mean_coverage", JsonValue::float(coverage, 6))
        .with("retransmissions", retx)
        .with("dropped_messages", dropped)
        .with("mean_energy_mj_per_round", JsonValue::float(energy_mj, 4))
        .with("mean_slots_per_round", JsonValue::float(slots, 2))
        .with("median_ns_per_round", JsonValue::float(med, 0))
        .with("digest", digest.to_string())
}

/// `--check`: the artifact's schema, returning the parsed document.
fn check_artifact(path: &str) -> JsonValue {
    let value = m2m_bench::report::check_header(path, "resilience");
    m2m_bench::report::require_rows(
        path,
        &value,
        "scenarios",
        &["scenario", "delivered_fraction", "mean_coverage", "digest"],
    );
    value
}

fn main() {
    telemetry::init_logging(Level::Info);
    let cli = m2m_bench::report::BenchCli::parse("BENCH_resilience.json");
    let smoke = cli.smoke;
    // `--check` re-runs the committed artifact's batch, timed once.
    let committed = cli.check.as_deref().map(|p| (p, check_artifact(p)));
    let rounds = match &committed {
        Some((_, doc)) => doc
            .get("rounds")
            .and_then(JsonValue::as_u64)
            .expect("rounds") as usize,
        None => cli.count.unwrap_or(if smoke { 16 } else { 64 }),
    };
    let samples = match (&committed, smoke) {
        (Some(_), _) => 1,
        (None, true) => 3,
        (None, false) => 7,
    };

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
    let mut scenario = |name: &str, model: &DeliveryModel| {
        scenario_rows.push(scenario_row(name, &faulty, &batch, model, &policy, samples));
    };
    // Uniform Bernoulli sweep.
    for p in [0.0, 0.1, 0.2, 0.3] {
        let model = DeliveryModel::uniform(p, 11);
        scenario(&format!("bernoulli_p{p:.1}"), &model);
    }
    // Per-link losses derived from distance-based ETX quality.
    let quality = LinkQuality::distance_based(&network, 0.3, 7);
    scenario("etx_per_link", &DeliveryModel::from_quality(&quality, 13));
    // Injected outage: the first scheduled message's link is down for
    // every tick (trace windows live in the salted tick space the
    // executor draws from, so a persistent window is the reproducible
    // scenario), exercising drop and coverage accounting.
    let outage = compiled.schedule().messages[0].edge;
    let trace = FailureTrace::new().down(outage.0, outage.1, 0, u64::MAX);
    scenario("trace_outage", &DeliveryModel::trace(trace));
    let digests: Vec<(&str, &str)> = scenario_rows
        .iter()
        .map(|row| {
            let field = |key| row.get(key).and_then(JsonValue::as_str).expect(key);
            (field("scenario"), field("digest"))
        })
        .collect();

    if let Some((path, doc)) = committed {
        let pinned = PIN.check(path, &doc, |row| {
            let name = row.get("scenario").and_then(JsonValue::as_str);
            let rerun = digests.iter().find(|(n, _)| Some(*n) == name);
            rerun.map_or_else(String::new, |(_, d)| d.to_string())
        });
        println!("check_ok={path} scenarios={pinned}");
        return;
    }
    if smoke {
        let values: Vec<(&str, &dyn Display)> = digests.iter().map(|(n, d)| (*n, d as _)).collect();
        print_gates(GATES, &values);
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
    m2m_bench::report::write_report(&cli.out_path, &report);
    m2m_bench::report::export_telemetry();
}
