//! Machine-readable round-execution benchmark.
//!
//! Compares the naive per-round path ([`m2m_core::runtime::execute_round`],
//! which rebuilds the schedule every round) against the compiled executor
//! ([`m2m_core::exec::CompiledSchedule`], built once and run over flat
//! arrays) on the largest scaled-series deployment (Figure 6's 250-node
//! point). Verifies bit-exact agreement before timing anything, sweeps
//! the epoch driver over several thread counts, writes the medians to
//! `BENCH_runtime.json` so regressions are diffable in CI and across
//! machines, and then replays the workload with tracing enabled so the
//! artifact embeds a telemetry counter snapshot (solves, memo hit rate,
//! recompiles vs refreshes, per-phase wall time).
//!
//! The schema-v2 artifact also carries a **lane-width sweep**: the
//! scalar `run_round` loop against `run_rounds_batched` at every
//! supported width (W = 1/4/8/16), each verified bit-identical to the
//! scalar path before it is timed, plus the chunked epoch fan-out
//! ([`m2m_core::exec::run_epochs_slab`]) across several thread counts.
//!
//! Usage: `cargo run --release -p m2m-bench --bin bench_runtime \
//!         [--smoke] [--check <artifact.json>] [--nodes N] [output.json] [samples]`
//!
//! `--check` validates an existing artifact (header, the naive /
//! compiled / batched sections, the lane-width and epoch sweeps)
//! without benchmarking.
//!
//! `--nodes N` sizes the scaled-series deployment (default 250, the
//! Figure 6 point; EXPERIMENTS.md tabulates 50/250/1000).
//!
//! `--smoke` runs a handful of samples and exits non-zero if the
//! compiled path is not at least as fast as the naive one — the cheap
//! regression gate wired into `scripts/verify.sh`. Smoke mode also
//! prints machine-readable `smoke_*` lines on stdout: a digest folding
//! every epoch result and round cost (so the verify gate can assert that
//! a traced run computes bit-identical numbers to an untraced one), an
//! in-process tracing-off vs tracing-on timing of the compiled hot
//! path (so the gate can bound instrumentation overhead without
//! cross-process timing noise), and `smoke_batched_speedup=` — the
//! lane-batched path's rounds/sec over the *same-run* naive baseline, a
//! machine-independent ratio verify.sh holds a floor against.

use std::collections::BTreeMap;

use m2m_bench::report::{
    bench_report, check_header, median_ns, require_fields, require_rows, telemetry_section,
    time_ns, JsonValue,
};
use m2m_core::exec::{
    run_epochs, run_epochs_slab, CompiledSchedule, EpochDriver, EpochOutcome, ExecState,
    DEFAULT_LANE_WIDTH, SUPPORTED_LANE_WIDTHS,
};
use m2m_core::memo::SolveCache;
use m2m_core::plan::GlobalPlan;
use m2m_core::runtime::execute_round;
use m2m_core::telemetry::Level;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_core::{dynamics::WorkloadUpdate, m2m_log, telemetry};
use m2m_graph::NodeId;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Deterministic synthetic reading for `(source, round)` — no RNG so the
/// benchmark is reproducible byte-for-byte across runs and machines.
fn reading(source: NodeId, round: usize) -> f64 {
    let s = source.index() as f64;
    let r = round as f64;
    (s * 0.37 + r * 1.13).sin() * 50.0 + s * 0.01
}

/// FNV-1a over the bit patterns of every result and cost field, so two
/// runs agree on the digest iff they computed bit-identical outcomes.
fn digest_outcomes(outcomes: &[EpochOutcome]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bits: u64| {
        h ^= bits;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for outcome in outcomes {
        for &r in &outcome.results {
            fold(r.to_bits());
        }
        fold(outcome.cost.tx_uj.to_bits());
        fold(outcome.cost.rx_uj.to_bits());
        fold(outcome.cost.messages as u64);
        fold(outcome.cost.units as u64);
        fold(outcome.cost.payload_bytes);
    }
    h
}

/// `--check`: parse an artifact and assert the schema its readers rely on.
fn check_artifact(path: &str) {
    let value = check_header(path, "round_execution");
    require_fields(
        path,
        "artifact",
        &value,
        &["nodes", "samples", "naive", "compiled", "batched"],
    );
    for section in ["naive", "compiled", "batched"] {
        let row = value.get(section).expect("checked above");
        require_fields(
            path,
            section,
            row,
            &["median_ns_per_round", "rounds_per_sec"],
        );
    }
    let widths = require_rows(path, &value, "lane_widths", &["width", "rounds_per_sec"]);
    let epochs = require_rows(path, &value, "epochs", &["threads", "rounds_per_sec"]);
    println!(
        "check_ok={path} lane_widths={} epochs={}",
        widths.len(),
        epochs.len()
    );
}

fn main() {
    telemetry::init_logging(Level::Info);
    let cli = m2m_bench::report::BenchCli::parse("BENCH_runtime.json");
    if let Some(path) = &cli.check {
        check_artifact(path);
        return;
    }
    let smoke = cli.smoke;
    let node_count: usize = cli.nodes.first().copied().unwrap_or(250);
    let out_path = cli.out_path;
    let samples: usize = cli.count.unwrap_or(if smoke { 5 } else { 9 });
    // The naive path rebuilds the schedule every round, so one sample is
    // one round; the compiled path is so much faster that a sample times
    // a whole batch of rounds to stay above clock resolution.
    let compiled_batch: usize = if smoke { 64 } else { 512 };

    let deployment = Deployment::scaled_series(&[node_count], 7).remove(0);
    let network = Network::with_default_energy(deployment);
    let n = network.node_count();
    let spec = generate_workload(&network, &WorkloadConfig::paper_default(n / 4, 20, 7));
    let routing = RoutingTables::build(
        &network,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&network, &spec, &routing);

    let compiled = CompiledSchedule::compile(&network, &spec, &plan).expect("schedulable plan");
    let mut state = ExecState::for_schedule(&compiled);

    // Correctness first: the compiled path must be bit-identical to the
    // reference executor before any of its timings mean anything.
    let probe: BTreeMap<NodeId, f64> = compiled
        .sources()
        .ids()
        .iter()
        .map(|&s| (s, reading(s, 0)))
        .collect();
    let reference = execute_round(&network, &spec, &plan, &probe);
    let cost = compiled.run_round_on(&probe, &mut state);
    assert_eq!(state.result_map(&compiled), reference.results);
    assert_eq!(cost, reference.cost);

    m2m_log!(
        Level::Info,
        "deployment: {n} nodes, {} destinations, {} sources, {} schedule units",
        spec.destinations().count(),
        compiled.sources().len(),
        compiled.schedule().units.len(),
    );

    // Naive: schedule rebuilt from the plan on every round.
    let mut naive_times: Vec<f64> = Vec::with_capacity(samples);
    for round in 0..samples {
        let readings: BTreeMap<NodeId, f64> = compiled
            .sources()
            .ids()
            .iter()
            .map(|&s| (s, reading(s, round)))
            .collect();
        let mut result = None;
        naive_times.push(time_ns(|| {
            result = Some(execute_round(&network, &spec, &plan, &readings));
        }));
        assert!(result.expect("executed").cost.total_uj() > 0.0);
    }
    let naive_ns = median_ns(&mut naive_times);
    let naive_rps = 1e9 / naive_ns;
    m2m_log!(
        Level::Info,
        "naive execute_round: {naive_ns:.0} ns/round ({naive_rps:.1} rounds/sec)"
    );

    // Compiled, single state, serial: the per-round hot path.
    let batch: Vec<Vec<f64>> = (0..compiled_batch)
        .map(|round| {
            compiled
                .sources()
                .ids()
                .iter()
                .map(|&s| reading(s, round))
                .collect()
        })
        .collect();
    let run_batch = |state: &mut ExecState| {
        for row in &batch {
            state.readings_mut().copy_from_slice(row);
            compiled.run_round(state);
        }
    };
    let mut compiled_times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        compiled_times.push(time_ns(|| run_batch(&mut state)) / compiled_batch as f64);
    }
    let compiled_ns = median_ns(&mut compiled_times);
    let compiled_rps = 1e9 / compiled_ns;
    let speedup = naive_ns / compiled_ns;
    m2m_log!(
        Level::Info,
        "compiled run_round: {compiled_ns:.0} ns/round ({compiled_rps:.1} rounds/sec, \
         {speedup:.1}x vs naive)"
    );

    // Lane-width sweep: `run_rounds_batched` at every supported width.
    // Each width is proven bit-identical to the scalar loop above before
    // a single timing sample is taken.
    let dests = compiled.destination_count();
    let mut expected: Vec<f64> = Vec::with_capacity(compiled_batch * dests);
    for row in &batch {
        state.readings_mut().copy_from_slice(row);
        compiled.run_round(&mut state);
        expected.extend_from_slice(state.results());
    }
    let expected_bits: Vec<u64> = expected.iter().map(|x| x.to_bits()).collect();
    let mut lane_rows = Vec::new();
    let mut batched_default_ns = compiled_ns;
    for width in SUPPORTED_LANE_WIDTHS {
        let mut lane_state = ExecState::batched(&compiled, width);
        let mut out = vec![0.0; compiled_batch * dests];
        compiled.run_rounds_batched(&batch, &mut lane_state, &mut out);
        let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            got, expected_bits,
            "lane width {width} diverged from scalar"
        );
        let mut times: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            times.push(
                time_ns(|| {
                    compiled.run_rounds_batched(&batch, &mut lane_state, &mut out);
                }) / compiled_batch as f64,
            );
        }
        let med = median_ns(&mut times);
        if width == DEFAULT_LANE_WIDTH {
            batched_default_ns = med;
        }
        let rps = 1e9 / med;
        m2m_log!(
            Level::Info,
            "batched W={width}: {med:.0} ns/round ({rps:.1} rounds/sec, \
             {:.2}x vs scalar, {:.1}x vs naive)",
            compiled_ns / med,
            naive_ns / med
        );
        lane_rows.push(
            JsonValue::object()
                .with("width", width)
                .with("median_ns_per_round", JsonValue::float(med, 0))
                .with("rounds_per_sec", JsonValue::float(rps, 1))
                .with("speedup_vs_scalar", JsonValue::float(compiled_ns / med, 3))
                .with("speedup_vs_naive", JsonValue::float(naive_ns / med, 3)),
        );
    }
    let batched_rps = 1e9 / batched_default_ns;
    let batched_speedup = naive_ns / batched_default_ns;

    // Epoch fan-out at several worker counts, batched at the default lane
    // width. The scalar loop's results are the reference: every thread
    // count must reproduce them bit-for-bit. `run_epochs` (the outcome
    // shape) stays the digest source so the smoke digest is comparable
    // across schema versions.
    let serial_outcomes = run_epochs(&compiled, &batch, 1);
    let mut epoch_rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        let mut times: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut slab = None;
            times.push(
                time_ns(|| {
                    slab = Some(run_epochs_slab(
                        &compiled,
                        &batch,
                        DEFAULT_LANE_WIDTH,
                        threads,
                    ));
                }) / compiled_batch as f64,
            );
            let slab = slab.expect("ran");
            let got: Vec<u64> = slab.results().iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, expected_bits, "divergence at {threads} threads");
            assert_eq!(slab.cost(), compiled.round_cost());
        }
        let med = median_ns(&mut times);
        let rps = 1e9 / med;
        m2m_log!(
            Level::Info,
            "run_epochs_slab threads {threads}: {med:.0} ns/round ({rps:.1} rounds/sec, \
             {:.1}x vs naive)",
            naive_ns / med
        );
        epoch_rows.push(
            JsonValue::object()
                .with("threads", threads)
                .with("lane_width", DEFAULT_LANE_WIDTH)
                .with("median_ns_per_round", JsonValue::float(med, 0))
                .with("rounds_per_sec", JsonValue::float(rps, 1))
                .with("speedup_vs_naive", JsonValue::float(naive_ns / med, 3)),
        );
    }

    if smoke {
        assert!(
            compiled_ns <= naive_ns,
            "regression: compiled path ({compiled_ns:.0} ns/round) slower than naive \
             execute_round ({naive_ns:.0} ns/round)"
        );
        assert!(
            batched_default_ns <= naive_ns,
            "regression: batched path ({batched_default_ns:.0} ns/round) slower than naive \
             execute_round ({naive_ns:.0} ns/round)"
        );

        // Tracing on must compute the exact same numbers as tracing off.
        // Measure both states in the same process, interleaved, so the
        // comparison is immune to cross-process scheduling noise.
        // More probes than timing samples: the min estimator converges
        // with probe count, and the cross-process drift gate in verify.sh
        // needs the two processes' minima to agree within ~2%.
        let was_enabled = telemetry::enabled();
        let probes = samples.max(25);
        let mut off_times: Vec<f64> = Vec::with_capacity(probes);
        let mut on_times: Vec<f64> = Vec::with_capacity(probes);
        for _ in 0..probes {
            telemetry::set_enabled(false);
            off_times.push(time_ns(|| run_batch(&mut state)) / compiled_batch as f64);
            telemetry::set_enabled(true);
            on_times.push(time_ns(|| run_batch(&mut state)) / compiled_batch as f64);
        }
        telemetry::set_enabled(false);
        let traced_off = run_epochs(&compiled, &batch, 2);
        telemetry::set_enabled(true);
        let traced_on = run_epochs(&compiled, &batch, 2);
        telemetry::set_enabled(was_enabled);
        assert_eq!(traced_off, serial_outcomes, "tracing-off run diverged");
        assert_eq!(traced_on, serial_outcomes, "tracing-on run diverged");

        // Minimum over the probes: the most repeatable estimator of the
        // loop's true cost (every slower sample is the same code plus
        // scheduler interference), so two processes gating on
        // `smoke_disabled_ns` agree far more tightly than medians would.
        let off_ns = off_times.iter().copied().fold(f64::INFINITY, f64::min);
        let on_ns = on_times.iter().copied().fold(f64::INFINITY, f64::min);
        let overhead_pct = (on_ns - off_ns) / off_ns * 100.0;
        // Machine-readable lines for scripts/verify.sh. The digest folds
        // every epoch result and cost computed above under the ambient
        // M2M_TRACE state, so runs with different trace settings must
        // print the same digest.
        println!("smoke_digest=0x{:016x}", digest_outcomes(&serial_outcomes));
        println!("smoke_disabled_ns={off_ns:.1}");
        println!("smoke_enabled_ns={on_ns:.1}");
        println!("smoke_overhead_pct={overhead_pct:.2}");
        // Same-run ratio of the lane-batched hot path over the naive
        // interpreter — machine-independent, so verify.sh can hold an
        // absolute floor against it on any hardware.
        println!("smoke_batched_speedup={batched_speedup:.1}");
        m2m_log!(
            Level::Info,
            "smoke: compiled path is {speedup:.1}x the naive path (batched W={DEFAULT_LANE_WIDTH}: \
             {batched_speedup:.1}x), tracing overhead \
             {overhead_pct:.2}% ({off_ns:.0} ns off / {on_ns:.0} ns on) — OK"
        );
        if let Some(path) = telemetry::export_if_requested() {
            m2m_log!(Level::Info, "exported telemetry snapshot to {path}");
        }
        return;
    }

    // Instrumented replay, outside the timed phases: a memoized plan
    // build, a compile, an epoch batch, and one refresh plus one
    // recompile through the epoch driver, so the artifact records the
    // optimizer/executor work behind the timings above.
    let telemetry_json = telemetry_section(|| {
        let mut cache = SolveCache::new();
        let cold = GlobalPlan::build_cached(&network, &spec, &routing, &mut cache);
        let warm = GlobalPlan::build_cached(&network, &spec, &routing, &mut cache);
        assert_eq!(cold.solutions(), warm.solutions());
        let traced = CompiledSchedule::compile(&network, &spec, &warm).expect("schedulable plan");
        let outcomes = run_epochs(&traced, &batch, 2);
        assert_eq!(outcomes, serial_outcomes, "traced replay diverged");

        let mut driver = EpochDriver::new(
            network.clone(),
            spec.clone(),
            RoutingMode::ShortestPathTrees,
        );
        let (dest, source, weight) = spec
            .functions()
            .flat_map(|(d, f)| {
                f.sources()
                    .map(move |s| (d, s, f.weight(s).expect("weighted")))
            })
            .next()
            .expect("workload has at least one pair");
        driver.apply(WorkloadUpdate::AddSource {
            destination: dest,
            source,
            weight: weight * 1.5,
        });
        driver.apply(WorkloadUpdate::RemoveSource {
            destination: dest,
            source,
        });
        assert!(driver.refreshes() >= 1, "reweight should refresh in place");
        assert!(driver.recompiles() >= 1, "source removal should recompile");
    });

    let report = bench_report("round_execution", &format!("scaled_series_{n}"))
        .with("nodes", n)
        .with("destinations", spec.destinations().count())
        .with("sources", compiled.sources().len())
        .with("schedule_units", compiled.schedule().units.len())
        .with("samples", samples)
        .with("rounds_per_sample", compiled_batch)
        .with(
            "naive",
            JsonValue::object()
                .with("median_ns_per_round", JsonValue::float(naive_ns, 0))
                .with("rounds_per_sec", JsonValue::float(naive_rps, 1)),
        )
        .with(
            "compiled",
            JsonValue::object()
                .with("median_ns_per_round", JsonValue::float(compiled_ns, 0))
                .with("rounds_per_sec", JsonValue::float(compiled_rps, 1))
                .with("speedup_vs_naive", JsonValue::float(speedup, 3)),
        )
        .with(
            "batched",
            JsonValue::object()
                .with("lane_width", DEFAULT_LANE_WIDTH)
                .with(
                    "median_ns_per_round",
                    JsonValue::float(batched_default_ns, 0),
                )
                .with("rounds_per_sec", JsonValue::float(batched_rps, 1))
                .with(
                    "speedup_vs_scalar",
                    JsonValue::float(compiled_ns / batched_default_ns, 3),
                )
                .with("speedup_vs_naive", JsonValue::float(batched_speedup, 3)),
        )
        .with("lane_widths", JsonValue::Array(lane_rows))
        .with("epochs", JsonValue::Array(epoch_rows))
        .with("telemetry", telemetry_json);
    m2m_bench::report::write_report(&out_path, &report);
    if let Some(path) = telemetry::export_if_requested() {
        m2m_log!(Level::Info, "exported telemetry snapshot to {path}");
    }
}
