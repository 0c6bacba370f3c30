//! Workload generators reproducing the paper's experimental setups (§4).
//!
//! The paper controls workloads with three knobs: the number of
//! destinations, the number of sources per destination, and a *dispersion
//! factor* `d ∈ [0, 1]` dictating the hop-distance profile of a
//! destination's sources: "the relative contribution from each hop
//! distance `h` is given by `d^(h−1) / Σ_{h=1}^{H} d^(h−1)`", capturing a
//! destination influenced most by close neighbors. `d = 0` puts every
//! source one hop away; `d = 1` spreads them uniformly over 1…H hops.
//! The network-size experiment (Figure 6) instead draws each destination's
//! sources uniformly from the whole network.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use m2m_graph::bfs::bfs_distances;
use m2m_graph::NodeId;
use m2m_netsim::Network;

use crate::agg::{AggregateFunction, AggregateKind};
use crate::spec::AggregationSpec;

/// How a destination's sources are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SourceSelection {
    /// The paper's dispersion model: hop distance `h ∈ 1..=max_hops` is
    /// chosen with probability ∝ `dispersion^(h−1)`, then a node uniform
    /// within that hop ring.
    Dispersion {
        /// The dispersion factor `d ∈ [0, 1]`.
        dispersion: f64,
        /// The distance limit `H` within which sources may be chosen
        /// (the paper uses 1–4 hops).
        max_hops: u32,
    },
    /// Sources drawn uniformly from the entire network (Figure 6 setup).
    Uniform,
}

/// Parameters of a generated workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of destination nodes (each gets one aggregation function).
    pub destination_count: usize,
    /// Number of sources per destination.
    pub sources_per_destination: usize,
    /// Source selection model.
    pub selection: SourceSelection,
    /// Aggregation function family used for every destination.
    pub kind: AggregateKind,
    /// RNG seed; the same seed over the same network reproduces the same
    /// workload exactly.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's default shape: dispersion 0.9 over 1–4 hops, weighted
    /// *average* functions — the paper's §2.1 running example, whose
    /// partial record (value + count) is larger than a raw value, which is
    /// exactly the raw-vs-aggregate size asymmetry §2.2 discusses.
    pub fn paper_default(
        destination_count: usize,
        sources_per_destination: usize,
        seed: u64,
    ) -> Self {
        WorkloadConfig {
            destination_count,
            sources_per_destination,
            selection: SourceSelection::Dispersion {
                dispersion: 0.9,
                max_hops: 4,
            },
            kind: AggregateKind::WeightedAverage,
            seed,
        }
    }
}

/// Generates an [`AggregationSpec`] over `network` per `config`.
///
/// Destinations are a uniform sample of nodes. Per destination, sources
/// are drawn per the selection model, excluding the destination itself.
/// Source weights `α_s` are drawn uniformly from `[0.5, 1.5]` — the paper
/// notes weights "may vary depending on distances between sources and
/// destinations"; any per-pair variation exercises the same code paths.
///
/// # Panics
/// Panics if the network is too small for the requested counts.
pub fn generate_workload(network: &Network, config: &WorkloadConfig) -> AggregationSpec {
    let n = network.node_count();
    assert!(
        config.destination_count <= n,
        "requested {} destinations from a {n}-node network",
        config.destination_count
    );
    assert!(
        config.sources_per_destination < n,
        "requested {} sources from a {n}-node network",
        config.sources_per_destination
    );
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut all: Vec<NodeId> = network.nodes().collect();
    all.shuffle(&mut rng);
    let mut destinations: Vec<NodeId> = all[..config.destination_count].to_vec();
    destinations.sort_unstable();

    let mut spec = AggregationSpec::new();
    for &dest in &destinations {
        let sources = match config.selection {
            SourceSelection::Dispersion {
                dispersion,
                max_hops,
            } => pick_dispersed_sources(
                network,
                dest,
                config.sources_per_destination,
                dispersion,
                max_hops,
                &mut rng,
            ),
            SourceSelection::Uniform => {
                let mut candidates: Vec<NodeId> = network.nodes().filter(|&v| v != dest).collect();
                candidates.shuffle(&mut rng);
                candidates[..config.sources_per_destination].to_vec()
            }
        };
        let weights = sources
            .into_iter()
            .map(|s| (s, rng.random_range(0.5..1.5)))
            .collect::<Vec<_>>();
        spec.add_function(dest, AggregateFunction::new(config.kind, weights));
    }
    spec
}

/// Draws `count` distinct sources for `dest` with the dispersion model.
///
/// Hop rings that run out of candidates are dropped from the distribution;
/// if all rings within `max_hops` are exhausted before `count` sources are
/// found, the hop limit is extended outward (this only matters on very
/// small networks).
fn pick_dispersed_sources(
    network: &Network,
    dest: NodeId,
    count: usize,
    dispersion: f64,
    max_hops: u32,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    assert!(
        (0.0..=1.0).contains(&dispersion),
        "dispersion must be in [0, 1]"
    );
    let mut by_hop = hop_rings(network, dest);
    let mut ring = |h: u32| -> Vec<NodeId> {
        by_hop
            .get_mut(h as usize)
            .map(std::mem::take)
            .unwrap_or_default()
    };
    let mut rings: Vec<Vec<NodeId>> = (1..=max_hops).map(&mut ring).collect();
    let mut picked = Vec::with_capacity(count);
    let mut extension = max_hops;
    while picked.len() < count {
        // Weight of ring h (1-indexed): d^(h-1); d=0 ⇒ only ring 1.
        let weights: Vec<f64> = rings
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if r.is_empty() {
                    0.0
                } else if i == 0 {
                    1.0
                } else {
                    dispersion.powi(i as i32)
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            // Either every ring within the limit is exhausted, or the
            // dispersion weights vanish (d = 0 with ring 1 exhausted).
            // Spill to the nearest nonempty ring; extend outward if all
            // rings are empty.
            if let Some(nearest) = rings.iter().position(|r| !r.is_empty()) {
                let ring_nodes = &mut rings[nearest];
                let idx = rng.random_range(0..ring_nodes.len());
                picked.push(ring_nodes.swap_remove(idx));
                continue;
            }
            extension += 1;
            let next = ring(extension);
            assert!(
                extension <= network.node_count() as u32,
                "network too small: cannot find {count} sources for {dest}"
            );
            rings.push(next);
            continue;
        }
        let mut x = rng.random_range(0.0..total);
        let mut chosen = 0;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                chosen = i;
                break;
            }
            x -= w;
        }
        let ring_nodes = &mut rings[chosen];
        let idx = rng.random_range(0..ring_nodes.len());
        picked.push(ring_nodes.swap_remove(idx));
    }
    picked.sort_unstable();
    picked
}

/// The hop rings around `dest` from one BFS: `rings[h]` holds the nodes
/// exactly `h` hops away in ascending id order, as
/// [`Network::nodes_at_hops`] lists them; rings past the farthest
/// reachable node are absent.
fn hop_rings(network: &Network, dest: NodeId) -> Vec<Vec<NodeId>> {
    let mut rings: Vec<Vec<NodeId>> = Vec::new();
    for (i, d) in bfs_distances(network.graph(), dest).into_iter().enumerate() {
        if let Some(d) = d {
            let d = d as usize;
            if rings.len() <= d {
                rings.resize_with(d + 1, Vec::new);
            }
            rings[d].push(NodeId::from_index(i));
        }
    }
    rings
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2m_netsim::Deployment;

    fn gdi() -> Network {
        Network::with_default_energy(Deployment::great_duck_island(5))
    }

    #[test]
    fn generates_requested_shape() {
        let net = gdi();
        let cfg = WorkloadConfig::paper_default(14, 20, 1);
        let spec = generate_workload(&net, &cfg);
        assert_eq!(spec.destination_count(), 14);
        for (_, f) in spec.functions() {
            assert_eq!(f.source_count(), 20);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let net = gdi();
        let cfg = WorkloadConfig::paper_default(10, 15, 77);
        let a = generate_workload(&net, &cfg);
        let b = generate_workload(&net, &cfg);
        let pairs = |s: &AggregationSpec| {
            s.functions()
                .map(|(d, f)| (d, f.sources().collect::<Vec<_>>()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&a), pairs(&b));
        let c = generate_workload(&net, &WorkloadConfig::paper_default(10, 15, 78));
        assert_ne!(pairs(&a), pairs(&c));
    }

    #[test]
    fn zero_dispersion_keeps_sources_adjacent() {
        let net = gdi();
        let mut cfg = WorkloadConfig::paper_default(8, 3, 3);
        cfg.selection = SourceSelection::Dispersion {
            dispersion: 0.0,
            max_hops: 4,
        };
        let spec = generate_workload(&net, &cfg);
        for (d, f) in spec.functions() {
            for s in f.sources() {
                // With d = 0 sources stay within one hop unless the ring
                // runs out; 3 sources fit in a GDI node's neighborhood for
                // most nodes — allow ring exhaustion to spill to 2 hops.
                assert!(net.hop_distance(d, s).unwrap() <= 2);
            }
        }
    }

    #[test]
    fn high_dispersion_reaches_farther() {
        let net = gdi();
        let far = WorkloadConfig {
            selection: SourceSelection::Dispersion {
                dispersion: 1.0,
                max_hops: 4,
            },
            ..WorkloadConfig::paper_default(10, 20, 9)
        };
        let spec = generate_workload(&net, &far);
        let max_hop = spec
            .functions()
            .flat_map(|(d, f)| {
                f.sources()
                    .map(|s| net.hop_distance(d, s).unwrap())
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap();
        assert!(
            max_hop >= 3,
            "uniform dispersion should reach ≥3 hops, got {max_hop}"
        );
    }

    #[test]
    fn uniform_selection_ignores_distance() {
        let net = gdi();
        let cfg = WorkloadConfig {
            selection: SourceSelection::Uniform,
            ..WorkloadConfig::paper_default(5, 10, 4)
        };
        let spec = generate_workload(&net, &cfg);
        for (d, f) in spec.functions() {
            assert_eq!(f.source_count(), 10);
            assert!(!f.has_source(d), "destination must not be its own source");
        }
    }

    #[test]
    fn sources_exclude_destination_and_are_distinct() {
        let net = gdi();
        let cfg = WorkloadConfig::paper_default(20, 20, 12);
        let spec = generate_workload(&net, &cfg);
        for (d, f) in spec.functions() {
            let sources: Vec<NodeId> = f.sources().collect();
            let mut dedup = sources.clone();
            dedup.dedup();
            assert_eq!(sources, dedup, "duplicate sources for {d}");
            assert!(!f.has_source(d));
        }
    }

    #[test]
    #[should_panic(expected = "destinations")]
    fn oversize_workload_rejected() {
        let net = gdi();
        generate_workload(&net, &WorkloadConfig::paper_default(100, 5, 0));
    }

    #[test]
    fn exhausted_rings_extend_beyond_max_hops() {
        // A long line: only 2 nodes within 1 hop of a middle node, so
        // requesting 6 sources with max_hops=1 must spill outward.
        let net = Network::with_default_energy(m2m_netsim::Deployment::grid(10, 1, 10.0, 12.0));
        let cfg = WorkloadConfig {
            destination_count: 1,
            sources_per_destination: 6,
            selection: SourceSelection::Dispersion {
                dispersion: 0.5,
                max_hops: 1,
            },
            kind: crate::agg::AggregateKind::WeightedSum,
            seed: 3,
        };
        let spec = generate_workload(&net, &cfg);
        let (d, f) = spec.functions().next().unwrap();
        assert_eq!(f.source_count(), 6);
        let max_hop = f
            .sources()
            .map(|s| net.hop_distance(d, s).unwrap())
            .max()
            .unwrap();
        assert!(max_hop > 1, "sources must spill past the 1-hop limit");
    }

    #[test]
    fn hop_rings_match_nodes_at_hops() {
        // Every destination's rings, ring by ring, on Great Duck Island
        // and on a 10-node line, whose rings run out at 9 hops — the
        // rings `pick_dispersed_sources` extends outward into.
        let line = Network::with_default_energy(m2m_netsim::Deployment::grid(10, 1, 10.0, 12.0));
        for net in [gdi(), line] {
            let n = net.node_count() as u32;
            for dest in net.nodes() {
                let rings = hop_rings(&net, dest);
                for h in 0..=n + 1 {
                    let ring = rings.get(h as usize).cloned().unwrap_or_default();
                    assert_eq!(ring, net.nodes_at_hops(dest, h), "{dest} at {h} hops");
                }
            }
        }
    }

    /// FNV-1a over every destination, source and weight bit of a spec.
    fn spec_digest(spec: &AggregationSpec) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (d, f) in spec.functions() {
            eat(u64::from(d.0));
            for s in f.sources() {
                eat(u64::from(s.0));
                eat(f.weight(s).expect("a source has a weight").to_bits());
            }
        }
        h
    }

    #[test]
    fn generated_specs_are_pinned() {
        // Digests of specs generated while hop rings came from an
        // all-pairs hop matrix; the one-BFS rings must reproduce them.
        let scaled = Network::with_default_energy(
            m2m_netsim::Deployment::scaled_series(&[1_000], 7).remove(0),
        );
        let line = Network::with_default_energy(m2m_netsim::Deployment::grid(10, 1, 10.0, 12.0));
        let spill = WorkloadConfig {
            destination_count: 4,
            sources_per_destination: 6,
            selection: SourceSelection::Dispersion {
                dispersion: 0.5,
                max_hops: 1,
            },
            kind: crate::agg::AggregateKind::WeightedSum,
            seed: 3,
        };
        let got: Vec<u64> = [1u64, 2, 3]
            .iter()
            .map(|&seed| {
                spec_digest(&generate_workload(
                    &gdi(),
                    &WorkloadConfig::paper_default(20, 20, seed),
                ))
            })
            .chain([1u64, 2, 3].iter().map(|&seed| {
                spec_digest(&generate_workload(
                    &scaled,
                    &WorkloadConfig::paper_default(25, 20, seed),
                ))
            }))
            .chain([spec_digest(&generate_workload(&line, &spill))])
            .collect();
        assert_eq!(got, PINNED_SPEC_DIGESTS);
    }

    /// Great Duck Island seeds 1–3, 1k scaled-series seeds 1–3, then the
    /// outward spill on a 10-node line.
    const PINNED_SPEC_DIGESTS: [u64; 7] = [
        0x2f0a_3453_a51e_4955,
        0xb2b7_fac7_fc63_5106,
        0x5f87_115f_f08a_a1e9,
        0x4754_02d1_628f_5f8f,
        0x23a4_e39d_7b96_8f70,
        0x8142_65ab_b788_2f7b,
        0x5bf1_a0c8_4a09_b936,
    ];
}
