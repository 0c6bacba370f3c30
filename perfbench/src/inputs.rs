//! Seeded input generation. Everything a workload hands the program —
//! node positions, aggregation specs, link qualities, the drift sequence
//! and sensor readings — is made here from the workload seed, before any
//! timing starts.

use std::collections::BTreeMap;

use m2m_core::spec::AggregationSpec;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_graph::NodeId;
use m2m_netsim::{Deployment, LinkQuality, Network, Position};

/// Loss at full radio range for the distance-based link model.
pub const MAX_LOSS: f64 = 0.3;
/// Per-link loss scaling of each drift step, in `[1 − m, 1 + m]`; large
/// enough that every step crosses the churn hysteresis.
pub const DRIFT_MAGNITUDE: f64 = 0.8;

/// splitmix64: derives independent sub-seeds and reading values.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sub-seed for input stream `stream` of workload seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream.wrapping_add(0x7065_7266)))
}

/// Generated node positions: the deployment a cold start rebuilds its
/// network from.
#[derive(Clone, Debug)]
pub struct Field {
    positions: Vec<Position>,
    width_m: f64,
    height_m: f64,
    range_m: f64,
}

impl Field {
    /// A connected uniform deployment of `nodes` nodes at the paper's
    /// density (the scaled series of Figure 6).
    pub fn generate(nodes: usize, seed: u64) -> Field {
        let d = Deployment::scaled_series(&[nodes], sub_seed(seed, 1))
            .pop()
            .expect("one deployment per requested size");
        Field {
            positions: d.positions().to_vec(),
            width_m: d.width_m(),
            height_m: d.height_m(),
            range_m: d.radio_range_m(),
        }
    }

    /// Builds the network (radio graph, hop matrix, energy model).
    pub fn network(&self) -> Network {
        Network::with_default_energy(Deployment::from_positions(
            self.positions.clone(),
            self.width_m,
            self.height_m,
            self.range_m,
        ))
    }
}

/// A paper-default spec (dispersion 0.9 over 1–4 hops, weighted average).
pub fn spec(net: &Network, destinations: usize, sources: usize, seed: u64) -> AggregationSpec {
    generate_workload(
        net,
        &WorkloadConfig::paper_default(destinations, sources, seed),
    )
}

/// Distance-based link quality for this seed.
pub fn quality(net: &Network, seed: u64) -> LinkQuality {
    LinkQuality::distance_based(net, MAX_LOSS, sub_seed(seed, 2))
}

/// Step `k` (from 1) of the drift sequence around `base`.
pub fn drift_step(base: &LinkQuality, seed: u64, k: u64) -> LinkQuality {
    base.with_drift(DRIFT_MAGNITUDE, sub_seed(seed, 100 + k))
}

fn reading(seed: u64, i: u64) -> f64 {
    // 53 random bits mapped to [-50, 50).
    (mix(seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03)) >> 11) as f64 / (1u64 << 53) as f64 * 100.0
        - 50.0
}

/// `rounds` dense reading rows of width `width`.
pub fn rows(width: usize, rounds: usize, seed: u64) -> Vec<Vec<f64>> {
    (0..rounds)
        .map(|r| {
            (0..width)
                .map(|c| reading(seed, (r * width + c) as u64))
                .collect()
        })
        .collect()
}

/// One reading per node, keyed by id.
pub fn reading_map(net: &Network, seed: u64) -> BTreeMap<NodeId, f64> {
    net.nodes()
        .map(|v| (v, reading(seed, u64::from(v.0))))
        .collect()
}
