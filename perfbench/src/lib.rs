//! The pipeline benchmark: spec → first answered round → steady state,
//! end to end and layer by layer. See `perfbench/README.md` for the
//! workloads, metrics and how to run it.
//!
//! Two binaries share this library. `perfbench` measures the end-to-end
//! metrics with tracing off. `perfbench_traced` installs a counting
//! allocator, records spans around every layer call, replays the
//! pipeline from public functions and reports the per-layer metrics.

pub mod gauge;
pub mod inputs;
pub mod procstat;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;

use m2m_core::config::{self, Config, Runtime, DEFAULT_HYSTERESIS, DEFAULT_MAX_SLOTS};
use m2m_core::config::{
    DEFAULT_OBS_CAP, DEFAULT_OBS_EVERY, DEFAULT_SIM_LATENCY, DEFAULT_SIM_QUEUE,
};
use m2m_core::exec::DEFAULT_LANE_WIDTH;
use m2m_core::telemetry::Level;

use workloads::{Ctx, Outcome, WORKLOADS};

/// Transmission attempts per message on lossy links.
const ATTEMPTS: u32 = 3;
/// A second seed, never used while tuning, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 8_675_309;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    spans: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut spans) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--spans" => spans = Some(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        spans,
    })
}

/// Drops every inherited `M2M_*` variable, so `Config::builder()` starts
/// from the documented defaults, then sets every field explicitly and
/// installs the result process-wide before any pipeline call.
fn isolated_config() -> Result<Config, String> {
    let inherited: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("M2M_"))
        .collect();
    for k in inherited {
        std::env::remove_var(k);
    }
    let cfg = Config::builder()
        .threads(1)
        .trace(false)
        .obs(false)
        .log(Level::Off)
        .retries(ATTEMPTS)
        .backoff_slots(0)
        .max_slots(DEFAULT_MAX_SLOTS)
        .hysteresis(DEFAULT_HYSTERESIS)
        .lanes(DEFAULT_LANE_WIDTH)
        .obs_every(DEFAULT_OBS_EVERY)
        .obs_cap(DEFAULT_OBS_CAP)
        .sim_queue(DEFAULT_SIM_QUEUE)
        .sim_latency(DEFAULT_SIM_LATENCY)
        .runtime(Runtime::Compiled)
        .build();
    if cfg.trace_out().is_some() {
        return Err("trace output survived environment isolation".into());
    }
    config::install(cfg.clone()).map_err(|_| "process config was already installed")?;
    Ok(cfg)
}

fn online_cpus() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The op latency quantile `q`: the mean over the run's deployments of
/// each one's quantile, at the reference speed or in wall time.
fn op_quantile(out: &Outcome, q: f64, wall: bool) -> f64 {
    let per: Vec<f64> = out
        .op_ms
        .iter()
        .map(|ops| workloads::quantile(ops, q, wall))
        .collect();
    stats::mean(&per)
}

/// The gated metrics. Every time is at the reference speed (see
/// [`gauge`]).
fn end_to_end(out: &Outcome) -> Metrics {
    let rounds = out.rounds.max(1) as f64;
    vec![
        (
            "setup_s".into(),
            workloads::quantile(&out.setup_s, 0.5, false),
            "s",
        ),
        ("op_p75_ms".into(), op_quantile(out, 0.75, false), "ms"),
        ("op_p90_ms".into(), op_quantile(out, 0.9, false), "ms"),
        ("energy_mj_per_round".into(), out.energy_mj / rounds, "mJ"),
        ("coverage_mean".into(), out.coverage / rounds, "fraction"),
        (
            "peak_rss_mb".into(),
            procstat::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        ),
    ]
}

/// The median gauge reading around the timed ops (µs).
fn gauge_us(out: &Outcome) -> f64 {
    let passes: Vec<f64> = out.op_ms.iter().flatten().map(|t| t.pass_us).collect();
    stats::median(&passes)
}

/// The gated times as wall times, and the gauge reading they ran at:
/// printed beside the gated figures, never gated themselves.
fn wall_times(out: &Outcome) -> Metrics {
    vec![
        (
            "setup_wall_s".into(),
            workloads::quantile(&out.setup_s, 0.5, true),
            "s",
        ),
        ("op_wall_p75_ms".into(), op_quantile(out, 0.75, true), "ms"),
        ("op_wall_p90_ms".into(), op_quantile(out, 0.9, true), "ms"),
        ("gauge_pass_us".into(), gauge_us(out), "us"),
    ]
}

/// Stages whose self allocations the traced run reports, with the
/// span they come from.
const ALLOC_STAGES: [(&str, &str); 18] = [
    ("network", "network.build"),
    ("routing", "routing.build"),
    ("quality", "quality.weighted_routing"),
    ("topo", "topo.intern"),
    ("problems", "edge_opt.problems"),
    ("solve", "edge_opt.solve"),
    ("memo", "memo.solve_all"),
    ("plan", "plan.assemble"),
    ("schedule", "schedule.build"),
    ("exec_lower", "exec.lower"),
    ("exec_rounds", "exec.rounds"),
    ("faults_lower", "faults.lower"),
    ("faults_rounds", "faults.rounds"),
    ("sim_lower", "sim.lower"),
    ("sim_rounds", "sim.rounds"),
    ("route_change", "dynamics.route_change"),
    ("recompile", "dynamics.recompile"),
    ("admit", "service.admit_warm"),
];

/// Spans of the reroute path, which churn_adapt's replay times per op.
const CHURN_STAGES: [&str; 4] = [
    "quality.weighted_routing",
    "dynamics.route_change",
    "dynamics.recompile",
    "faults.lower",
];

fn per_layer(
    out: &Outcome,
    spans: &[trace::SpanRec],
    counts: &replay::Counts,
    rows: &replay::Rows,
) -> Result<Metrics, String> {
    let all = trace::stats(spans, |_| true);
    // On churn_adapt the reroute stages come only from the replayed churn
    // ops (ETX to ETX), not from the pipeline's single SPT-to-ETX step.
    let churn = trace::stats(spans, |s| s.op == replay::CHURN_OP);
    let source = |name: &str| {
        if !churn.is_empty() && CHURN_STAGES.contains(&name) {
            &churn
        } else {
            &all
        }
    };
    let med = |name: &str, pick: fn(&trace::SpanStats) -> &Vec<f64>| -> Result<f64, String> {
        source(name)
            .get(name)
            .map(|s| stats::median(pick(s)))
            .ok_or(format!("no span {name} was recorded"))
    };
    let self_ms = |name: &str| med(name, |s| &s.self_ns).map(|ns| ns / 1e6);
    let mut m: Metrics = Vec::new();
    for (metric, span) in [
        ("network.build_ms", "network.build"),
        ("routing.build_ms", "routing.build"),
        ("quality.weighted_routing_ms", "quality.weighted_routing"),
        ("topo.intern_ms", "topo.intern"),
        ("edge_opt.problems_ms", "edge_opt.problems"),
        ("edge_opt.solve_ms", "edge_opt.solve"),
        ("memo.solve_all_ms", "memo.solve_all"),
        ("plan.assemble_ms", "plan.assemble"),
        ("schedule.build_ms", "schedule.build"),
        ("exec.lower_ms", "exec.lower"),
        ("faults.lower_ms", "faults.lower"),
        ("sim.lower_ms", "sim.lower"),
        ("dynamics.route_change_ms", "dynamics.route_change"),
        ("dynamics.recompile_ms", "dynamics.recompile"),
        ("service.admit_warm_ms", "service.admit_warm"),
        ("service.admit_cold_ms", "service.admit_cold"),
        ("service.session_build_ms", "service.session_build"),
        ("service.evict_ms", "service.evict"),
    ] {
        m.push((metric.into(), self_ms(span)?, "ms"));
    }
    let total_ms = med("service.substrate", |s| &s.total_ns)? / 1e6;
    m.push(("service.substrate_ms".into(), total_ms, "ms"));
    let exec_ns = med("exec.rounds", |s| &s.self_ns)?;
    let session_ns = med("replay.session_rounds", |s| &s.self_ns)?;
    let per = |ns: f64, n: usize| ns / n.max(1) as f64;
    m.push((
        "exec.ns_per_round".into(),
        per(exec_ns, rows.compiled),
        "ns",
    ));
    m.push((
        "session.report_ns_per_round".into(),
        per(session_ns - exec_ns, rows.compiled),
        "ns",
    ));
    m.push((
        "faults.ns_per_round".into(),
        per(med("faults.rounds", |s| &s.self_ns)?, rows.lossy),
        "ns",
    ));
    let sim_ns = med("sim.rounds", |s| &s.self_ns)?;
    m.push(("sim.ns_per_round".into(), per(sim_ns, rows.sim), "ns"));
    let events = counts.get("sim.events_total").map_or(1.0, |c| c.0);
    m.push(("sim.ns_per_event".into(), sim_ns / events.max(1.0), "ns"));
    let warm = all.get("service.admit_warm").map_or(0, |s| s.self_ns.len()) as f64;
    let cold = all.get("service.admit_cold").map_or(0, |s| s.self_ns.len()) as f64;
    m.push((
        "service.warm_admit_fraction".into(),
        warm / (warm + cold),
        "fraction",
    ));
    for (name, (value, unit)) in counts {
        if *name != "sim.events_total" {
            m.push(((*name).into(), *value, unit));
        }
    }
    for (stage, span) in ALLOC_STAGES {
        let per_round = match span {
            "exec.rounds" => rows.compiled,
            "faults.rounds" => rows.lossy,
            "sim.rounds" => rows.sim,
            _ => 1,
        } as f64;
        m.push((
            format!("alloc.{stage}.count"),
            med(span, |s| &s.self_allocs)? / per_round,
            "count",
        ));
        m.push((
            format!("alloc.{stage}.bytes"),
            med(span, |s| &s.self_bytes)? / per_round,
            "bytes",
        ));
    }
    for (phase, d) in &out.phases {
        m.push((format!("proc.{phase}.sched_wait_ms"), d.sched_wait_ms, "ms"));
        m.push((format!("proc.{phase}.steal_ticks"), d.steal_ticks, "count"));
        m.push((format!("proc.{phase}.minflt"), d.minflt, "count"));
    }
    Ok(m)
}

fn json_metrics(m: &Metrics) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in m.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // JSON has no NaN or infinity; a non-finite value also makes the
        // run incorrect (see `main_entry`).
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

/// Runs one workload as the binary's `main`; returns the exit code.
pub fn main_entry(traced: bool) -> i32 {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let cfg = match isolated_config() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    println!(
        "# workload={} seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(traced)
    );
    println!("# config {cfg:?}");
    println!(
        "# online_cpus={} available_parallelism={}",
        online_cpus(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if traced {
        trace::enable(1 << 16);
    }
    // Builds the gauge's kernel data before anything is timed.
    gauge::pass_us();
    let ctx = Ctx {
        cfg,
        seed: args.seed,
        seconds: args.seconds,
    };
    let run = std::panic::catch_unwind(|| workloads::run(&args.workload, &ctx));
    let mut out = match run {
        Ok(out) => out,
        Err(_) => {
            eprintln!("perfbench: the workload panicked");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            return 1;
        }
    };
    let e2e = end_to_end(&out);
    let mut spans = Vec::new();
    let metrics = if traced {
        let p = procstat::sample();
        let replayed = out.replay.as_ref().map(|inp| {
            std::panic::catch_unwind(|| replay::run(&ctx, inp))
                .unwrap_or_else(|_| Err("the replay panicked".into()))
        });
        out.phase("replay", &p);
        spans = trace::take();
        let layered = match replayed {
            Some(Ok((counts, rows))) => per_layer(&out, &spans, &counts, &rows).map(|mut m| {
                m.push(("proc.gauge_pass_us".into(), gauge_us(&out), "us"));
                m
            }),
            Some(Err(e)) => Err(e),
            None => Err("the workload recorded no replay inputs".into()),
        };
        match layered {
            Ok(m) => m,
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("traced replay: {e}"));
                Vec::new()
            }
        }
    } else {
        e2e.clone()
    };
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, trace::to_jsonl(&spans)) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
        }
    }

    for (phase, d) in &out.phases {
        println!(
            "# proc {phase}: sched_wait_ms={:.3} steal_ticks={} minflt={}",
            d.sched_wait_ms, d.steal_ticks, d.minflt
        );
    }
    for (name, value, unit) in &out.named {
        println!("metric {name} {value} {unit}");
    }
    for (name, value, unit) in e2e.iter().chain(&wall_times(&out)) {
        println!("metric {name} {value} {unit}");
    }
    for e in &out.errors {
        println!("# failed: {e}");
    }
    let ops: Vec<workloads::Timing> = out.op_ms.concat();
    if !ops.is_empty() {
        let q = |p: f64| workloads::quantile(&ops, p, false);
        println!(
            "# op_ms at the reference speed, all deployments: p05={} p10={} p25={} p50={} p75={} p95={}",
            q(0.05),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.95)
        );
    }
    println!(
        "# ops={} failed={} samples setup={} op={}",
        out.attempted,
        out.failed,
        out.setup_s.len(),
        ops.len()
    );
    println!("# digest={:016x}", out.digest.0);
    println!("# e2e {}", json_metrics(&e2e));
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = out.failed == 0 && finite && !metrics.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&metrics)
    );
    i32::from(!correct)
}
