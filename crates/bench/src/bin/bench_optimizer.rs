//! Machine-readable optimizer benchmark.
//!
//! Builds the global plan for the largest scaled-series deployment
//! (Figure 6's 250-node point) at several worker counts, verifies that
//! every parallel build is bit-identical to the serial one, and writes
//! the medians to `BENCH_optimizer.json` so regressions are diffable in
//! CI and across machines. Also measures the Corollary-1 memoized
//! rebuild ([`m2m_core::memo::SolveCache`]) and, after the timed phases,
//! replays the workload with tracing enabled to embed a telemetry
//! counter snapshot (solves, max-flow work, memo hit rate) into the
//! artifact.
//!
//! Usage: `cargo run --release -p m2m-bench --bin bench_optimizer \
//!         [--smoke] [--check [artifact.json]] [output.json] [samples] \
//!         [--nodes 1000,10000,100000]`
//!
//! `--smoke` runs the thread sweep and the memoized rebuild with two
//! samples each (both assert bit-identity with the serial plan) and
//! prints the [`GATES`]: a digest of every per-edge solution, which
//! `scripts/verify.sh` compares across an untraced and a traced process
//! (see [`m2m_bench::harness`]). `--check` validates an existing
//! artifact (header, the thread-scaling builds and the memoized rebuild)
//! without benchmarking.
//!
//! `--nodes` sweeps the thread-scaling build phase over a comma list of
//! deployment sizes (Figure 6's scaled series, default `250`), appending
//! one entry per size to a `sweep` array. The deep-dive sections
//! (memoized rebuild, dense-core breakdown, maintainer update,
//! telemetry) always run on the first size, so the default artifact
//! shape is unchanged. Large sweeps should lower `samples` accordingly.

use m2m_bench::harness::{print_gates, Digest, Gate, Kind};
use m2m_bench::report::{
    bench_report, median_ns, median_run, telemetry_section, time_ns, JsonValue,
};
use m2m_core::dynamics::{PlanMaintainer, WorkloadUpdate};
use m2m_core::edge_opt::build_edge_problems;
use m2m_core::memo::SolveCache;
use m2m_core::plan::GlobalPlan;
use m2m_core::telemetry::Level;
use m2m_core::topo::Topology;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_core::{m2m_log, telemetry};
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

/// What `--smoke` prints for `scripts/verify.sh` to judge.
const GATES: &[Gate] = &[
    // The debug text of every per-edge solution of the first size's
    // plan: neither the worker count (asserted in-run) nor tracing may
    // move a byte.
    Gate::new("plan_digest", Kind::Same),
];

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One scaled-series deployment with its workload and routing tables.
struct Instance {
    network: Network,
    spec: m2m_core::spec::AggregationSpec,
    routing: RoutingTables,
}

fn instance(size: usize) -> Instance {
    let deployment = Deployment::scaled_series(&[size], 7).remove(0);
    let network = Network::with_default_energy(deployment);
    let n = network.node_count();
    // Cap destination count at scale, matching `bench_scale`: beyond 10k
    // nodes the workload keeps 250 destinations so spec size doesn't
    // drown the front-end measurement.
    let dests = if n <= 10_000 { (n / 4).max(4) } else { 250 };
    let spec = generate_workload(&network, &WorkloadConfig::paper_default(dests, 20, 7));
    let routing = RoutingTables::build(
        &network,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    Instance {
        network,
        spec,
        routing,
    }
}

/// Thread-scaling build medians for one instance, verifying every
/// parallel build bit-identical to the serial reference. Returns the
/// per-thread-count JSON entries, the serial median, and the reference.
fn thread_sweep(inst: &Instance, samples: usize) -> (Vec<JsonValue>, f64, GlobalPlan) {
    let reference = GlobalPlan::build_with_threads(&inst.network, &inst.spec, &inst.routing, 1);
    let mut builds = Vec::new();
    let mut serial_median = 0.0f64;
    for &threads in &THREAD_COUNTS {
        let mut times: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut plan = None;
            times.push(time_ns(|| {
                plan = Some(GlobalPlan::build_with_threads(
                    &inst.network,
                    &inst.spec,
                    &inst.routing,
                    threads,
                ));
            }));
            assert_eq!(
                plan.expect("built").solutions(),
                reference.solutions(),
                "parallel build diverged at {threads} threads"
            );
        }
        let med = median_ns(&mut times);
        if threads == 1 {
            serial_median = med;
        }
        let speedup = serial_median / med;
        m2m_log!(
            Level::Info,
            "threads {threads}: median {:.2} ms (speedup {speedup:.2}x)",
            med / 1e6
        );
        builds.push(
            JsonValue::object()
                .with("threads", threads)
                .with("median_ns", JsonValue::float(med, 0))
                .with("speedup_vs_serial", JsonValue::float(speedup, 3)),
        );
    }
    (builds, serial_median, reference)
}

/// `--check`: parse an artifact and assert the schema its readers rely on.
fn check_artifact(path: &str) {
    let value = m2m_bench::report::check_header(path, "plan_build");
    m2m_bench::report::require_fields(
        path,
        "artifact",
        &value,
        &["nodes", "edge_count", "memoized_rebuild"],
    );
    let builds = m2m_bench::report::require_rows(
        path,
        &value,
        "builds",
        &["threads", "median_ns", "speedup_vs_serial"],
    );
    let memo = value.get("memoized_rebuild").expect("checked above");
    m2m_bench::report::require_fields(path, "memoized_rebuild", memo, &["median_ns", "hits"]);
    println!("check_ok={path} builds={}", builds.len());
}

fn main() {
    telemetry::init_logging(Level::Info);
    let cli = m2m_bench::report::BenchCli::parse("BENCH_optimizer.json");
    if let Some(path) = &cli.check {
        check_artifact(path);
        return;
    }
    let out_path = cli.out_path;
    let samples: usize = cli.count.unwrap_or(if cli.smoke { 2 } else { 11 });
    let mut sizes = cli.nodes;
    if sizes.is_empty() {
        sizes.push(250);
    }

    let mut sweep = Vec::new();
    let mut first: Option<(Instance, Vec<JsonValue>, f64, GlobalPlan)> = None;
    for &size in &sizes {
        let inst = instance(size);
        let n = inst.network.node_count();
        let edge_count = inst.routing.directed_edges().len();
        m2m_log!(
            Level::Info,
            "deployment: {n} nodes, {} destinations, {edge_count} directed edges",
            inst.spec.destinations().count()
        );
        let (builds, serial_median, reference) = thread_sweep(&inst, samples);
        sweep.push(
            JsonValue::object()
                .with("nodes", n)
                .with("destinations", inst.spec.destinations().count())
                .with("edge_count", reference.problems().len())
                .with("serial_median_ns", JsonValue::float(serial_median, 0))
                .with("builds", JsonValue::Array(builds.clone())),
        );
        if first.is_none() {
            first = Some((inst, builds, serial_median, reference));
        }
    }
    let (inst, builds, serial_median, reference) = first.expect("at least one size");
    let Instance {
        network,
        spec,
        routing,
    } = inst;
    let n = network.node_count();
    let edge_count = reference.problems().len();

    // Memoized rebuild: first build fills the cache, rebuilds are hits.
    let mut cache = SolveCache::new();
    let warm_plan = GlobalPlan::build_cached(&network, &spec, &routing, &mut cache);
    assert_eq!(warm_plan.solutions(), reference.solutions());
    let mut warm_times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut plan = None;
        warm_times.push(time_ns(|| {
            plan = Some(GlobalPlan::build_cached(
                &network, &spec, &routing, &mut cache,
            ));
        }));
        assert_eq!(plan.expect("built").solutions(), reference.solutions());
    }
    let warm_median = median_ns(&mut warm_times);
    m2m_log!(
        Level::Info,
        "memoized rebuild: median {:.2} ms ({} hits / {} misses)",
        warm_median / 1e6,
        cache.hits(),
        cache.misses()
    );

    if cli.smoke {
        let plan = Digest::text(&format!("{:?}", reference.solutions()));
        print_gates(GATES, &[("plan_digest", &plan)]);
        return;
    }

    // Instrumented replay, outside the timed phases: one cold build and
    // one memoized rebuild with every counter live, so the artifact
    // records how much work the numbers above actually represent.
    let telemetry = telemetry_section(|| {
        let mut cache = SolveCache::new();
        let cold = GlobalPlan::build_cached(&network, &spec, &routing, &mut cache);
        let warm = GlobalPlan::build_cached(&network, &spec, &routing, &mut cache);
        assert_eq!(cold.solutions(), warm.solutions());
    });

    // Dense-core section (schema v2, additive): how much of a build is
    // topology interning + problem construction, how big the interned
    // slabs are, and how local a one-pair maintainer update stays
    // (dirty-edge counts from the Corollary-1 diff).
    let (last_edges, intern_median) = median_run(samples, || {
        build_edge_problems(&Topology::snapshot(&spec, &routing)).len()
    });
    assert_eq!(last_edges, edge_count);
    let topo = reference.topology();
    let dest_paths: usize = topo.trees().iter().map(|t| t.dest_paths().len()).sum();

    let mut maintainer = PlanMaintainer::new(
        network.clone(),
        spec.clone(),
        RoutingMode::ShortestPathTrees,
    );
    let d = maintainer
        .spec()
        .destinations()
        .next()
        .expect("destination");
    let s = maintainer
        .spec()
        .all_sources()
        .into_iter()
        .find(|&s| !maintainer.spec().is_source_of(s, d) && s != d)
        .expect("addable source");
    let stats = maintainer.apply(WorkloadUpdate::AddSource {
        destination: d,
        source: s,
        weight: 1.0,
    });
    m2m_log!(
        Level::Info,
        "dense core: intern median {:.2} ms, one-pair update dirtied {}/{} edges",
        intern_median / 1e6,
        stats.edges_reoptimized,
        stats.edges_total()
    );

    let scenario = if sizes == [250] {
        "scaled_series_250".to_string()
    } else {
        format!(
            "scaled_series_{}",
            sizes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("_")
        )
    };
    let report = bench_report("plan_build", &scenario)
        .with("nodes", n)
        .with("destinations", spec.destinations().count())
        .with("edge_count", edge_count)
        .with("samples", samples)
        .with("builds", JsonValue::Array(builds))
        .with("sweep", JsonValue::Array(sweep))
        .with(
            "memoized_rebuild",
            JsonValue::object()
                .with("median_ns", JsonValue::float(warm_median, 0))
                .with("hits", cache.hits())
                .with("misses", cache.misses()),
        )
        .with(
            "dense_core",
            JsonValue::object()
                .with("intern_median_ns", JsonValue::float(intern_median, 0))
                .with("plan_build_median_ns", JsonValue::float(serial_median, 0))
                .with(
                    "slab_sizes",
                    JsonValue::object()
                        .with("nodes", topo.nodes().len())
                        .with("edges", topo.edge_count())
                        .with("trees", topo.trees().len())
                        .with("dest_paths", dest_paths),
                )
                .with(
                    "maintainer_update",
                    JsonValue::object()
                        .with("dirty_edges", stats.edges_reoptimized)
                        .with("reused_edges", stats.edges_reused)
                        .with("added_or_removed_edges", stats.edges_added_or_removed)
                        .with(
                            "reuse_fraction",
                            JsonValue::float(stats.reuse_fraction(), 3),
                        ),
                ),
        )
        .with("telemetry", telemetry);
    m2m_bench::report::write_report(&out_path, &report);
    m2m_bench::report::export_telemetry();
}
