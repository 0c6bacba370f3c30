//! Plan front-end scaling benchmark: routing → topology interning →
//! edge-problem construction → per-edge solves, each stage timed
//! separately over a density-preserving scaled series (1k/10k/100k
//! nodes by default). Beside the hop-routed front end, every size also
//! times ETX routing on the same demands (`quality::weighted_routing`
//! under one fixed distance-based loss map, its weight slab included).
//!
//! The workload follows the paper's network-size setup (Figure 6):
//! destinations sampled uniformly, each destination's sources sampled
//! uniformly from the whole network. Demand volume is n/4 destinations
//! × 20 sources per destination up to 10k nodes; above that the demand
//! count is pinned at 250 destinations so the sweep isolates graph-size
//! scaling in the per-source routing stage (and completes in minutes).
//!
//! Usage: `bench_scale [--smoke] [--check [artifact.json]] [--nodes N1,N2,...] [out.json]`
//!
//! `--smoke` runs the 1k-node point once and prints the [`GATES`]:
//! the hop and ETX routing forests' digests (FNV-1a over a forest's
//! directed edge set, which is cross-checked in-process against the
//! per-tree edge union) and the serial spec→plan front-end builds per
//! second (routing + intern + problems + solve). `--check` validates an
//! artifact (header and every size row's stage timings and both forest
//! digests) and re-routes the [`PIN`]ned 1k row's hop forest and the
//! [`ETX_PIN`]ned row's ETX forest, which must reproduce their committed
//! digests — the same digests `--smoke` prints. `scripts/verify.sh`
//! judges both; see [`m2m_bench::harness`].

use m2m_bench::harness::{print_gates, Digest, Gate, Kind, Pin};
use m2m_bench::report::{bench_report, median_run, JsonValue};
use m2m_core::edge_opt::{build_edge_problems, solve_edge_slab};
use m2m_core::plan::GlobalPlan;
use m2m_core::spec::AggregationSpec;
use m2m_core::telemetry::Level;
use m2m_core::topo::Topology;
use m2m_core::workload::{generate_workload, SourceSelection, WorkloadConfig};
use m2m_core::{m2m_log, telemetry};
use m2m_netsim::quality::weighted_routing;
use m2m_netsim::{Deployment, LinkQuality, Network, RoutingMode, RoutingTables};

/// What `--smoke` prints for `scripts/verify.sh` to judge.
const GATES: &[Gate] = &[
    // Arena reuse may never perturb routing structure, traced or not.
    Gate::new("forest_digest", Kind::Same),
    Gate::new("etx_forest_digest", Kind::Same),
    Gate::new("builds_per_sec", Kind::Min(2.0)),
];
/// The row `--check` re-routes: the 1k point, the size `--smoke` runs.
const PIN: Pin = Pin {
    rows: "sizes",
    key: "nodes",
    values: &[SMOKE_NODES as u64],
    digest: "forest_digest",
};
/// The same row's ETX forest.
const ETX_PIN: Pin = Pin {
    digest: "etx_forest_digest",
    ..PIN
};
const SMOKE_NODES: usize = 1_000;

/// Workload seed shared by every size point (deployment, demand and
/// link quality).
const SEED: u64 = 7;

/// Loss of a link at the full radio range in the ETX stage's map.
const ETX_MAX_LOSS: f64 = 0.3;

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
fn forest_digest(routing: &RoutingTables) -> Digest {
    let mut h = Digest::default();
    for &(a, b) in routing.directed_edges() {
        h.fold(u64::from(a.0));
        h.fold(u64::from(b.0));
    }
    h
}

/// The `n`-node point's deployment and uniform-source workload.
fn workload(n: usize) -> (Network, AggregationSpec) {
    let deployment = Deployment::scaled_series(&[n], SEED).remove(0);
    let network = Network::with_default_energy(deployment);
    let cfg = WorkloadConfig {
        selection: SourceSelection::Uniform,
        ..WorkloadConfig::paper_default(destinations_for(n), 20, SEED)
    };
    let spec = generate_workload(&network, &cfg);
    (network, spec)
}

/// The ETX stage's link-quality map for `network`.
fn etx_quality(network: &Network) -> LinkQuality {
    LinkQuality::distance_based(network, ETX_MAX_LOSS, SEED)
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
    digest: Digest,
    etx_routing_ns: f64,
    etx_digest: Digest,
}

fn run_size(n: usize, samples: usize) -> SizePoint {
    let (network, spec) = workload(n);
    let dests = destinations_for(n);
    let demands = spec.source_to_destinations();
    m2m_log!(
        Level::Info,
        "n={n}: {} destinations, {} sources, {} radio links",
        dests,
        demands.len(),
        network.graph().edge_count()
    );

    let (routing, routing_ns) = median_run(samples, || {
        RoutingTables::build(&network, &demands, RoutingMode::ShortestPathTrees)
    });

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
    let digest = forest_digest(&routing);

    let (topo, intern_ns) = median_run(samples, || Topology::snapshot(&spec, &routing));
    let (problems, problems_ns) = median_run(samples, || build_edge_problems(&topo));
    let (solutions, solve_ns) = median_run(samples, || solve_edge_slab(&problems, &spec, 1));
    assert_eq!(solutions.len(), problems.len());

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

    let quality = etx_quality(&network);
    let (etx, etx_routing_ns) =
        median_run(samples, || weighted_routing(&network, &demands, &quality));
    let etx_digest = forest_digest(&etx);
    m2m_log!(
        Level::Info,
        "n={n}: ETX routing {:.2} ms ({} tree edges)",
        etx_routing_ns / 1e6,
        etx.directed_edges().len()
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
        etx_routing_ns,
        etx_digest,
    }
}

/// `--check`: assert the schema the artifact's readers rely on, then
/// re-route the pinned row.
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
            "etx_routing_ns",
            "etx_forest_digest",
        ],
    );
    let nodes = |row: &JsonValue| row.get("nodes").and_then(JsonValue::as_u64).expect("nodes");
    let mut pinned = PIN.check(path, &value, |row| {
        let (network, spec) = workload(nodes(row) as usize);
        let routing = RoutingTables::build(
            &network,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        forest_digest(&routing).to_string()
    });
    pinned += ETX_PIN.check(path, &value, |row| {
        let (network, spec) = workload(nodes(row) as usize);
        let routing = weighted_routing(
            &network,
            &spec.source_to_destinations(),
            &etx_quality(&network),
        );
        forest_digest(&routing).to_string()
    });
    println!("check_ok={path} sizes={} pinned={pinned}", sizes.len());
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
        nodes = vec![SMOKE_NODES];
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
                .with("forest_digest", point.digest.to_string())
                .with("etx_routing_ns", JsonValue::float(point.etx_routing_ns, 0))
                .with("etx_forest_digest", point.etx_digest.to_string()),
        );
        smoke_point = Some(point);
    }

    if smoke {
        let point = smoke_point.expect("smoke point ran");
        let rate = 1e9 / point.frontend_ns.max(1.0);
        print_gates(
            GATES,
            &[
                ("forest_digest", &point.digest),
                ("etx_forest_digest", &point.etx_digest),
                ("builds_per_sec", &rate),
            ],
        );
        return;
    }

    let report = bench_report("plan_frontend_scale", "scaled_series_uniform")
        .with("sources_per_destination", 20usize)
        .with("seed", SEED)
        .with("sizes", JsonValue::Array(rows));
    m2m_bench::report::write_report(&out_path, &report);
    m2m_bench::report::export_telemetry();
}
