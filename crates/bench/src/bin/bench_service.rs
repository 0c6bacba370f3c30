//! Multi-tenant plan-service benchmark: admission throughput and the
//! marginal cost of the Nth query on one shared 1k-node deployment.
//!
//! A [`PlanService`] admits tenants drawn from a small pool of workload
//! templates, so later admissions repeat earlier demand shapes exactly —
//! the regime the service optimizes for: interned routing substrates and
//! the cross-tenant [`SharedSolveCache`] turn the Nth admission into a
//! lookup over everything an earlier tenant already solved. Every
//! admission is timed individually; the headline columns are
//! specs-admitted/sec and the marginal-cost curve (admission wall time at
//! tenants 1/8/64/256).
//!
//! Before writing anything the run proves the sharing is free:
//!
//! * a repeat tenant's plan and round results are **bit-identical** to a
//!   [`Session`] built in isolation over the same network;
//! * the 64th tenant's admission costs at most 25% of the 1st tenant's
//!   cold build (asserted in-run, recorded in the artifact);
//! * checkpoint → restore → checkpoint round-trips byte-identically,
//!   the restore performs zero fresh solves, and a lossy tenant's salt
//!   stream replays bit-for-bit from its resumed cursor.
//!
//! Usage: `cargo run --release -p m2m-bench --bin bench_service -- \
//!         [--smoke] [--check [artifact.json]] [--nodes N] \
//!         [output.json] [tenants]`
//!
//! `--smoke` admits a reduced 64-tenant fleet and prints the [`GATES`]:
//! the final checkpoint's digest and the admission throughput.
//! `scripts/verify.sh` judges them; see [`m2m_bench::harness`].
//! `--check` validates an existing artifact, including the committed
//! marginal-cost bound.

use std::collections::BTreeMap;
use std::sync::Arc;

use m2m_bench::harness::{print_gates, Digest, Gate, Kind};
use m2m_bench::report::{
    bench_report, check_header, require_fields, require_rows, time_ns, BenchCli, JsonValue,
};
use m2m_core::config::{Config, Runtime};
use m2m_core::service::{PlanService, TenantId, TenantOptions};
use m2m_core::session::Session;
use m2m_core::spec::AggregationSpec;
use m2m_core::telemetry::Level;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_core::{m2m_log, telemetry};
use m2m_graph::NodeId;
use m2m_netsim::failure::DeliveryModel;
use m2m_netsim::{Deployment, Network, RoutingMode};

/// What `--smoke` prints for `scripts/verify.sh` to judge.
const GATES: &[Gate] = &[
    // The admitted specs, plan slabs and salt cursors, byte for byte.
    Gate::new("digest", Kind::Same),
    Gate::new("admits_per_sec", Kind::Min(5.0)),
];

/// Deployment/workload seed shared by every run.
const SEED: u64 = 7;
/// Distinct workload templates in the tenant pool; admissions cycle
/// through them, so tenant T repeats template T mod POOL.
const POOL: usize = 8;
/// Base salt for the lossy showcase tenant's replayable stream.
const BASE_SALT: u64 = 0x5e7_f1ee7;
/// The in-run bound: the 64th admission may cost at most this fraction
/// of the 1st (mirrored by the artifact check).
const MARGINAL_BUDGET: f64 = 0.25;
/// Tenant counts the marginal-cost curve samples (1-indexed).
const CURVE_POINTS: [usize; 4] = [1, 8, 64, 256];

/// The template pool: `POOL` distinct demand shapes over `net`.
fn templates(net: &Network) -> Vec<AggregationSpec> {
    let dests = (net.node_count() / 40).clamp(8, 250);
    (0..POOL as u64)
        .map(|i| generate_workload(net, &WorkloadConfig::paper_default(dests, 20, SEED + i)))
        .collect()
}

fn readings(net: &Network) -> BTreeMap<NodeId, f64> {
    net.nodes()
        .map(|v| {
            let x = f64::from(v.0) * 0.73;
            (v, x.sin() * 35.0 + f64::from(v.0) * 0.01)
        })
        .collect()
}

struct AdmitPoint {
    tenant: usize,
    admit_ns: f64,
    solves_fresh: u64,
    solves_cached: u64,
    reused_substrate: bool,
}

fn main() {
    telemetry::init_logging(Level::Info);
    let cli = BenchCli::parse("BENCH_service.json");
    if let Some(path) = &cli.check {
        check_artifact(path);
        return;
    }
    let node_count = cli.nodes.first().copied().unwrap_or(1_000);
    let tenant_count = cli.count.unwrap_or(if cli.smoke { 64 } else { 256 });
    assert!(
        tenant_count >= 64,
        "the marginal-cost bound needs 64 tenants"
    );

    let deployment = Deployment::scaled_series(&[node_count], SEED).remove(0);
    let net = Arc::new(Network::with_default_energy(deployment));
    let pool = templates(&net);
    let vals = readings(&net);
    m2m_log!(
        Level::Info,
        "deployment: {} nodes, {POOL} templates, {tenant_count} tenants",
        net.node_count()
    );

    // Timed admission sweep: every tenant individually, pool cycling.
    // Steiner routing makes the cold front-end honest: the Takahashi–
    // Matsuyama forest is the expensive part a repeat tenant skips.
    let mut svc = PlanService::new(Arc::clone(&net));
    let mut admits: Vec<AdmitPoint> = Vec::with_capacity(tenant_count);
    let mut ids: Vec<TenantId> = Vec::with_capacity(tenant_count);
    for t in 0..tenant_count {
        let spec = pool[t % POOL].clone();
        let options = TenantOptions {
            mode: RoutingMode::SteinerTrees,
            ..TenantOptions::default()
        };
        let mut admission = None;
        let ns = time_ns(|| admission = Some(svc.admit_with(spec, options)));
        let admission = admission.expect("admission ran");
        ids.push(admission.tenant);
        admits.push(AdmitPoint {
            tenant: t + 1,
            admit_ns: ns,
            solves_fresh: admission.solves_fresh,
            solves_cached: admission.solves_cached,
            reused_substrate: admission.reused_substrate,
        });
    }
    let total_ns: f64 = admits.iter().map(|a| a.admit_ns).sum();
    let admits_per_sec = tenant_count as f64 / (total_ns / 1e9).max(1e-9);
    let marginal_64 = admits[63].admit_ns / admits[0].admit_ns;
    assert!(
        marginal_64 <= MARGINAL_BUDGET,
        "64th admission cost {:.1}% of the 1st — budget is {:.0}%",
        marginal_64 * 100.0,
        MARGINAL_BUDGET * 100.0
    );
    assert!(
        admits[63].solves_fresh == 0 && admits[63].reused_substrate,
        "the 64th tenant repeats a template and must be served cached"
    );
    let cache_hit_rate = {
        let cache = svc.solve_cache();
        let c = cache.lock().expect("cache");
        c.hit_rate()
    };

    // Sharing is free: a repeat tenant is bit-identical to isolation.
    let probe = ids[POOL]; // first repeat of template 0
    let mut isolated = Session::builder(Arc::clone(&net), pool[0].clone())
        .routing_mode(RoutingMode::SteinerTrees)
        .build();
    assert_eq!(
        svc.tenant(probe)
            .expect("admitted")
            .driver()
            .maintainer()
            .plan()
            .solutions(),
        isolated.driver().maintainer().plan().solutions(),
        "shared-substrate plan diverged from the isolated build"
    );
    let got = svc.run(probe, &vals).expect("probe runs");
    let expect = isolated.run(&vals);
    assert_eq!(
        got, expect,
        "shared-substrate round diverged from isolation"
    );

    // Cross-tenant multi-query pricing over every admitted plan.
    let sharing = svc.sharing_report();
    m2m_log!(
        Level::Info,
        "sharing: {} tenants, {:.1}% payload saved, raw {} -> {}, records {} -> {}",
        sharing.tenants,
        sharing.savings_fraction() * 100.0,
        sharing.raw_units_isolated,
        sharing.raw_units_shared,
        sharing.record_units_isolated,
        sharing.record_units_shared
    );

    // Checkpoint/restore: advance a lossy tenant's salt stream, then
    // prove the round-trip is byte-identical, solve-free, and replays.
    let lossy = svc
        .admit_with(
            pool[0].clone(),
            TenantOptions {
                runtime: Some(Runtime::Lossy),
                delivery: DeliveryModel::uniform(0.1, SEED ^ 0xd15c),
                base_salt: BASE_SALT,
                ..TenantOptions::default()
            },
        )
        .tenant;
    for _ in 0..3 {
        svc.run(lossy, &vals).expect("lossy tenant runs");
    }
    let text = svc.checkpoint();
    let digest = Digest::text(&text);
    let mut restored =
        PlanService::restore(Arc::clone(&net), Config::default(), &text).expect("restores");
    assert_eq!(
        restored.solve_cache().lock().expect("cache").misses(),
        0,
        "restore must be served entirely from the persisted slabs"
    );
    assert_eq!(
        Digest::text(&restored.checkpoint()),
        digest,
        "checkpoint must round-trip byte-identically"
    );
    restored
        .tenant_mut(lossy)
        .expect("restored")
        .set_delivery(DeliveryModel::uniform(0.1, SEED ^ 0xd15c));
    for round in 0..2 {
        let a = svc.run(lossy, &vals).expect("original");
        let b = restored.run(lossy, &vals).expect("restored");
        assert_eq!(a, b, "replay round {round} diverged after restore");
    }
    m2m_log!(
        Level::Info,
        "checkpoint: {} bytes, digest {digest}, restore solve-free, replay exact",
        text.len()
    );

    let curve: Vec<&AdmitPoint> = CURVE_POINTS
        .iter()
        .filter(|&&p| p <= tenant_count)
        .map(|&p| &admits[p - 1])
        .collect();
    for a in &curve {
        m2m_log!(
            Level::Info,
            "tenant {:>3}: {:>12.0} ns admit, {} fresh / {} cached solves, substrate {}",
            a.tenant,
            a.admit_ns,
            a.solves_fresh,
            a.solves_cached,
            if a.reused_substrate {
                "reused"
            } else {
                "built"
            }
        );
    }

    if cli.smoke {
        print_gates(
            GATES,
            &[("digest", &digest), ("admits_per_sec", &admits_per_sec)],
        );
        return;
    }

    let report = bench_report("service", &format!("scaled_series_{node_count}"))
        .with("nodes", net.node_count())
        .with("templates", POOL)
        .with("tenants", tenant_count)
        .with("seed", SEED)
        .with("admits_per_sec", JsonValue::float(admits_per_sec, 2))
        .with("marginal_64_pct", JsonValue::float(marginal_64 * 100.0, 3))
        .with(
            "marginal_budget_pct",
            JsonValue::float(MARGINAL_BUDGET * 100.0, 1),
        )
        .with("cache_hit_rate", JsonValue::float(cache_hit_rate, 4))
        .with("substrates", svc.substrate_count())
        .with("bit_identical", true)
        .with(
            "curve",
            JsonValue::Array(
                curve
                    .iter()
                    .map(|a| {
                        JsonValue::object()
                            .with("tenant", a.tenant)
                            .with("admit_ns", JsonValue::float(a.admit_ns, 0))
                            .with("solves_fresh", a.solves_fresh)
                            .with("solves_cached", a.solves_cached)
                            .with("reused_substrate", a.reused_substrate)
                    })
                    .collect(),
            ),
        )
        .with(
            "sharing",
            JsonValue::object()
                .with("tenants", sharing.tenants)
                .with("raw_units_isolated", sharing.raw_units_isolated)
                .with("raw_units_shared", sharing.raw_units_shared)
                .with("record_units_isolated", sharing.record_units_isolated)
                .with("record_units_shared", sharing.record_units_shared)
                .with("payload_bytes_isolated", sharing.payload_bytes_isolated)
                .with("payload_bytes_shared", sharing.payload_bytes_shared)
                .with(
                    "savings_fraction",
                    JsonValue::float(sharing.savings_fraction(), 4),
                ),
        )
        .with(
            "checkpoint",
            JsonValue::object()
                .with("bytes", text.len())
                .with("digest", digest.to_string())
                .with("restore_fresh_solves", 0usize)
                .with("replay", "bit-identical"),
        );
    m2m_bench::report::write_report(&cli.out_path, &report);
    m2m_bench::report::export_telemetry();
}

/// `--check`: parse an artifact and assert the schema the gate relies
/// on, including the committed marginal-cost bound.
fn check_artifact(path: &str) {
    let value = check_header(path, "service");
    require_fields(
        path,
        "artifact",
        &value,
        &[
            "nodes",
            "tenants",
            "admits_per_sec",
            "cache_hit_rate",
            "sharing",
            "checkpoint",
        ],
    );
    let marginal = value
        .get("marginal_64_pct")
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("{path}: missing marginal_64_pct"));
    let budget = value
        .get("marginal_budget_pct")
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("{path}: missing marginal_budget_pct"));
    assert!(
        marginal <= budget,
        "{path}: 64th-tenant marginal cost {marginal:.2}% breaches the {budget:.0}% budget"
    );
    assert!(
        matches!(value.get("bit_identical"), Some(JsonValue::Bool(true))),
        "{path}: artifact did not assert tenant bit-identity"
    );
    let curve = require_rows(
        path,
        &value,
        "curve",
        &["tenant", "admit_ns", "solves_fresh", "solves_cached"],
    );
    assert_eq!(
        value
            .get("checkpoint")
            .and_then(|c| c.get("replay"))
            .and_then(JsonValue::as_str),
        Some("bit-identical"),
        "{path}: checkpoint replay was not verified"
    );
    println!("check_ok={path} curve_points={}", curve.len());
}
