//! A gauge of the host's speed, and the scaling of wall times to a fixed
//! reference speed.
//!
//! The benchmark runs on a shared VM whose speed for this kind of code
//! swings by up to 2× between runs, and within a run from one few-second
//! spell to the next: the core's clock follows the load on the rest of
//! the machine, and so does the share of the core and its caches the
//! program gets. The gauge times a fixed pass of two small kernels of
//! the program's kind, owned by the benchmark and never changed: a
//! Dijkstra search over a 256-node graph and hash-map probes. The
//! benchmark gauges just before and just after every timed
//! region and reports the region at the reference speed, at which one
//! pass takes `REF_PASS_US`: `wall × REF_PASS_US ÷ pass`. A slower host
//! slows the pass as it slows the program, so the ratio holds still,
//! while a change to the program moves the region and not the pass.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use crate::inputs::mix;

/// The pass time that defines the reference speed (µs): about what one
/// pass took on the 2-vCPU Intel Xeon VM the benchmark was written on,
/// in that host's slower spells.
pub const REF_PASS_US: f64 = 60.0;

/// Passes per reading, after one more that only reloads the kernels'
/// data the timed code displaced (it takes two to three times as long
/// after a lossy batch as after an admission). The median is kept, so an
/// interrupt during one pass does not count.
const PASSES: usize = 3;
const GRAPH_NODES: u64 = 256;
const GRAPH_DEGREE: u64 = 8;
const HASH_ENTRIES: u64 = 16_384;
const HASH_PROBES: u64 = 2_048;

/// The kernels' fixed data. The hash map's hasher has fixed keys, so its
/// layout is the same in every process.
struct Kernels {
    adjacency: Vec<Vec<(u32, u32)>>,
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

fn kernels() -> &'static Kernels {
    static KERNELS: OnceLock<Kernels> = OnceLock::new();
    KERNELS.get_or_init(|| Kernels {
        adjacency: (0..GRAPH_NODES)
            .map(|v| {
                (0..GRAPH_DEGREE)
                    .map(|j| {
                        let to = mix(v * GRAPH_DEGREE + j) % GRAPH_NODES;
                        let weight = mix(v * 31 + j) % 100 + 1;
                        (to as u32, weight as u32)
                    })
                    .collect()
            })
            .collect(),
        table: (0..HASH_ENTRIES).map(|i| (mix(i), i)).collect(),
    })
}

fn dijkstra(k: &Kernels) -> u64 {
    let mut dist = vec![u32::MAX; k.adjacency.len()];
    let mut heap = BinaryHeap::new();
    dist[0] = 0;
    heap.push(Reverse((0u32, 0u32)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(u, w) in &k.adjacency[v as usize] {
            let nd = d + w;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist.iter().map(|&d| u64::from(d)).sum()
}

fn probes(k: &Kernels) -> u64 {
    (0..HASH_PROBES)
        .map(|i| k.table[&mix(i * 7 % HASH_ENTRIES)])
        .fold(0, u64::wrapping_add)
}

/// One reading: the median time of `PASSES` warm passes (µs); about
/// 0.3 ms in all.
pub fn pass_us() -> f64 {
    let k = kernels();
    let pass = || {
        let t = Instant::now();
        black_box(dijkstra(k) ^ probes(k));
        t.elapsed().as_secs_f64() * 1e6
    };
    pass();
    let mut times: Vec<f64> = (0..PASSES).map(|_| pass()).collect();
    times.sort_by(f64::total_cmp);
    times[PASSES / 2]
}

/// Runs `f` once; returns its result, its wall time in seconds and the
/// gauge read just before and just after it, averaged (µs). The
/// readings lie outside the wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = pass_us();
    let t = Instant::now();
    let value = f();
    let wall = t.elapsed().as_secs_f64();
    (value, wall, (before + pass_us()) / 2.0)
}

/// `wall` (any unit) at the reference speed, for a region gauged at
/// `pass_us`.
pub fn at_ref(wall: f64, pass_us: f64) -> f64 {
    wall * REF_PASS_US / pass_us
}
