//! Criterion micro-benchmarks for the optimizer kernels: the weighted
//! bipartite vertex-cover solve (the paper's single-edge optimization),
//! full global plan construction on the Great Duck Island layout, and the
//! serial-vs-parallel thread sweep on the largest scaled-series
//! deployment (see also `src/bin/bench_optimizer.rs` for the
//! machine-readable variant).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use m2m_core::memo::SharedSolveCache;
use m2m_core::plan::GlobalPlan;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::bipartite::BipartiteGraph;
use m2m_graph::vertex_cover::min_weight_vertex_cover;
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

/// A dense-ish bipartite instance of the kind single edges produce:
/// `n` sources × `n/2` destinations, ~40% of pairs related.
fn cover_instance(n: usize) -> BipartiteGraph {
    let mut g = BipartiteGraph::new();
    for i in 0..n {
        g.add_left(4 * (1 << 20) + i as u64);
    }
    let nd = (n / 2).max(1);
    for j in 0..nd {
        g.add_right(4 * (1 << 20) + 1000 + j as u64);
    }
    for i in 0..n {
        for j in 0..nd {
            if (i * 7 + j * 3) % 5 < 2 {
                g.add_edge(i, j);
            }
        }
    }
    g
}

fn bench_vertex_cover(c: &mut Criterion) {
    let mut group = c.benchmark_group("vertex_cover");
    for &n in &[8usize, 16, 32, 64] {
        let g = cover_instance(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(min_weight_vertex_cover(g)))
        });
    }
    group.finish();
}

fn bench_global_plan(c: &mut Criterion) {
    let network = Network::with_default_energy(Deployment::great_duck_island(1));
    let mut group = c.benchmark_group("global_plan_build");
    group.sample_size(20);
    for &(dests, sources) in &[(7usize, 10usize), (14, 20), (34, 20)] {
        let spec = generate_workload(&network, &WorkloadConfig::paper_default(dests, sources, 3));
        let routing = RoutingTables::build(
            &network,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{dests}d_{sources}s")),
            &(&spec, &routing),
            |b, (spec, routing)| b.iter(|| black_box(GlobalPlan::build(&network, spec, routing))),
        );
    }
    group.finish();
}

/// Serial vs parallel plan builds on the largest scaled-series
/// deployment (Figure 6's 250-node point). The plans are bit-identical
/// at every thread count; only wall-clock may differ.
fn bench_parallel_build(c: &mut Criterion) {
    let deployment = Deployment::scaled_series(&[250], 7).remove(0);
    let network = Network::with_default_energy(deployment);
    let n = network.node_count();
    let spec = generate_workload(&network, &WorkloadConfig::paper_default(n / 4, 20, 7));
    let routing = RoutingTables::build(
        &network,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let mut group = c.benchmark_group("plan_build_threads");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(GlobalPlan::build_with_threads(&network, &spec, &routing, t)))
        });
    }
    // Corollary-1 memo: every rebuild after the first is all cache hits.
    let mut cache = SharedSolveCache::new();
    let _warm = GlobalPlan::build_cached(&network, &spec, &routing, &mut cache);
    group.bench_function("memoized_rebuild", |b| {
        b.iter(|| {
            black_box(GlobalPlan::build_cached(
                &network, &spec, &routing, &mut cache,
            ))
        })
    });
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let network = Network::with_default_energy(Deployment::great_duck_island(1));
    let spec = generate_workload(&network, &WorkloadConfig::paper_default(14, 20, 3));
    let demands = spec.source_to_destinations();
    let mut group = c.benchmark_group("routing_build");
    for mode in [
        RoutingMode::ShortestPathTrees,
        RoutingMode::SharedSpanningTree,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode:?}")),
            &mode,
            |b, &mode| b.iter(|| black_box(RoutingTables::build(&network, &demands, mode))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_vertex_cover,
    bench_global_plan,
    bench_parallel_build,
    bench_routing
);
criterion_main!(benches);
