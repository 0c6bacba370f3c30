//! Plan front-end scaling benchmark: routing → topology interning →
//! edge-problem construction → per-edge solves, each stage timed
//! separately over a density-preserving scaled series (1k/10k/100k
//! nodes by default).
//!
//! The workload follows the paper's network-size setup (Figure 6):
//! destinations sampled uniformly, each destination's sources sampled
//! uniformly from the whole network. Demand volume is n/4 destinations
//! × 20 sources per destination up to 10k nodes; above that the demand
//! count is pinned at 250 destinations so the sweep isolates graph-size
//! scaling in the per-source routing stage (and completes in minutes).
//!
//! Usage: `bench_scale [--smoke] [--check <artifact.json>] [--nodes N1,N2,...] [out.json]`
//!
//! `--check` validates an existing artifact (header and every size row's
//! stage timings and forest digest) without benchmarking.
//!
//! `--smoke` runs the 1k-node point once and prints machine-readable
//! `smoke_*` lines for scripts/verify.sh:
//!
//! * `smoke_builds_per_sec=` — serial spec→plan front-end builds per
//!   second (routing + intern + problems + solve), gated against the
//!   `M2M_BUILD_FLOOR` regression floor by the verify script;
//! * `smoke_forest_digest=` — FNV-1a over the routing forest's directed
//!   edge set, which must be identical across back-to-back runs (and is
//!   cross-checked in-process against the per-tree edge union).

use m2m_bench::report::{bench_report, median_ns, time_ns, JsonValue};
use m2m_core::edge_opt::{build_edge_problems, solve_edge_slab};
use m2m_core::plan::GlobalPlan;
use m2m_core::telemetry::Level;
use m2m_core::topo::Topology;
use m2m_core::workload::{generate_workload, SourceSelection, WorkloadConfig};
use m2m_core::{m2m_log, telemetry};
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

/// Workload seed shared by every size point (deployment and demand).
const SEED: u64 = 7;

/// Destinations for an `n`-node point: the paper's 25% up to 10k nodes,
/// pinned above that so the sweep isolates graph-size scaling.
fn destinations_for(n: usize) -> usize {
    if n <= 10_000 {
        (n / 4).max(4)
    } else {
        250
    }
}

/// Timing samples per stage: more where a run is cheap.
fn samples_for(n: usize) -> usize {
    if n <= 2_500 {
        5
    } else if n <= 25_000 {
        2
    } else {
        1
    }
}

/// FNV-1a over the directed edge set, the forest's structural digest.
fn digest_edges(edges: &[(m2m_graph::NodeId, m2m_graph::NodeId)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bits: u64| {
        h ^= bits;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &(a, b) in edges {
        fold(u64::from(a.0));
        fold(u64::from(b.0));
    }
    h
}

struct SizePoint {
    nodes: usize,
    destinations: usize,
    sources: usize,
    edge_count: usize,
    routing_ns: f64,
    intern_ns: f64,
    problems_ns: f64,
    solve_ns: f64,
    frontend_ns: f64,
    routing_slab_bytes: usize,
    topo_slab_bytes: usize,
    digest: u64,
}

fn run_size(n: usize, samples: usize) -> SizePoint {
    let deployment = Deployment::scaled_series(&[n], SEED).remove(0);
    let network = Network::with_default_energy(deployment);
    let dests = destinations_for(n);
    let cfg = WorkloadConfig {
        selection: SourceSelection::Uniform,
        ..WorkloadConfig::paper_default(dests, 20, SEED)
    };
    let spec = generate_workload(&network, &cfg);
    let demands = spec.source_to_destinations();
    m2m_log!(
        Level::Info,
        "n={n}: {} destinations, {} sources, {} radio links",
        dests,
        demands.len(),
        network.graph().edge_count()
    );

    let mut routing_times = Vec::with_capacity(samples);
    let mut routing = None;
    for _ in 0..samples {
        routing_times.push(time_ns(|| {
            routing = Some(RoutingTables::build(
                &network,
                &demands,
                RoutingMode::ShortestPathTrees,
            ));
        }));
    }
    let routing = routing.expect("routing built");
    let routing_ns = median_ns(&mut routing_times);

    // The cached directed edge set must agree with the per-tree union —
    // the forest and its tree views describe one structure.
    let mut union: Vec<(m2m_graph::NodeId, m2m_graph::NodeId)> = routing
        .trees()
        .flat_map(|(_, t)| t.edges().collect::<Vec<_>>())
        .collect();
    union.sort_unstable();
    union.dedup();
    assert_eq!(
        union,
        routing.directed_edges(),
        "directed-edge cache diverged from the per-tree union"
    );
    let digest = digest_edges(routing.directed_edges());

    let mut intern_times = Vec::with_capacity(samples);
    let mut topo = None;
    for _ in 0..samples {
        intern_times.push(time_ns(|| {
            topo = Some(Topology::snapshot(&spec, &routing));
        }));
    }
    let topo = topo.expect("snapshot taken");
    let intern_ns = median_ns(&mut intern_times);

    let mut problem_times = Vec::with_capacity(samples);
    let mut problems = None;
    for _ in 0..samples {
        problem_times.push(time_ns(|| {
            problems = Some(build_edge_problems(&topo));
        }));
    }
    let problems = problems.expect("problems built");
    let problems_ns = median_ns(&mut problem_times);

    let mut solve_times = Vec::with_capacity(samples);
    let mut solutions = None;
    for _ in 0..samples {
        solve_times.push(time_ns(|| {
            solutions = Some(solve_edge_slab(&problems, &spec, 1));
        }));
    }
    let solutions = solutions.expect("solved");
    assert_eq!(solutions.len(), problems.len());
    let solve_ns = median_ns(&mut solve_times);

    // Cross-check: the staged pipeline above must agree with the real
    // plan builder (which adds the repair sweep on top).
    let plan = GlobalPlan::build_with_threads(&network, &spec, &routing, 1);
    assert_eq!(plan.problems().len(), problems.len());

    let frontend_ns = routing_ns + intern_ns + problems_ns + solve_ns;
    m2m_log!(
        Level::Info,
        "n={n}: routing {:.2} ms, intern {:.2} ms, problems {:.2} ms, \
         solve {:.2} ms ({} edges, {:.2} ms front-end)",
        routing_ns / 1e6,
        intern_ns / 1e6,
        problems_ns / 1e6,
        solve_ns / 1e6,
        problems.len(),
        frontend_ns / 1e6
    );

    SizePoint {
        nodes: n,
        destinations: dests,
        sources: demands.len(),
        edge_count: problems.len(),
        routing_ns,
        intern_ns,
        problems_ns,
        solve_ns,
        frontend_ns,
        routing_slab_bytes: routing.slab_bytes(),
        topo_slab_bytes: topo.slab_bytes(),
        digest,
    }
}

/// `--check`: parse an artifact and assert the schema its readers rely on.
fn check_artifact(path: &str) {
    let value = m2m_bench::report::check_header(path, "plan_frontend_scale");
    let sizes = m2m_bench::report::require_rows(
        path,
        &value,
        "sizes",
        &[
            "nodes",
            "routing_ns",
            "intern_ns",
            "problems_ns",
            "solve_ns",
            "frontend_ns",
            "forest_digest",
        ],
    );
    println!("check_ok={path} sizes={}", sizes.len());
}

fn main() {
    telemetry::init_logging(Level::Info);
    let cli = m2m_bench::report::BenchCli::parse("BENCH_scale.json");
    if let Some(path) = &cli.check {
        check_artifact(path);
        return;
    }
    let smoke = cli.smoke;
    let out_path = cli.out_path;
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
        let point = run_size(n, if smoke { 2 } else { samples_for(n) });
        rows.push(
            JsonValue::object()
                .with("nodes", point.nodes)
                .with("destinations", point.destinations)
                .with("sources", point.sources)
                .with("edge_count", point.edge_count)
                .with("routing_ns", JsonValue::float(point.routing_ns, 0))
                .with("intern_ns", JsonValue::float(point.intern_ns, 0))
                .with("problems_ns", JsonValue::float(point.problems_ns, 0))
                .with("solve_ns", JsonValue::float(point.solve_ns, 0))
                .with("frontend_ns", JsonValue::float(point.frontend_ns, 0))
                .with("routing_slab_bytes", point.routing_slab_bytes)
                .with("topo_slab_bytes", point.topo_slab_bytes)
                .with("forest_digest", format!("0x{:016x}", point.digest)),
        );
        smoke_point = Some(point);
    }

    if smoke {
        let point = smoke_point.expect("smoke point ran");
        println!(
            "smoke_builds_per_sec={:.2}",
            1e9 / point.frontend_ns.max(1.0)
        );
        println!("smoke_forest_digest=0x{:016x}", point.digest);
        return;
    }

    let report = bench_report("plan_frontend_scale", "scaled_series_uniform")
        .with("sources_per_destination", 20usize)
        .with("seed", SEED)
        .with("sizes", JsonValue::Array(rows));
    m2m_bench::report::write_report(&out_path, &report);
    if let Some(path) = telemetry::export_if_requested() {
        m2m_log!(Level::Info, "exported telemetry snapshot to {path}");
    }
}
