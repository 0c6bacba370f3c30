//! Link-quality model and ETX-weighted route selection.
//!
//! §3 motivates route choice by stability: "If most parts of a route are
//! very unstable … it may be much more expensive for the communication
//! layer to traverse through pre-selected milestones". The standard
//! quality metric is ETX — the expected number of transmissions to get a
//! frame across a link, `1 / (1 − p_loss)`. This module derives a seeded
//! per-link loss map from a deployment (loss grows with distance relative
//! to the radio range, as it does physically) and offers ETX-weighted
//! multicast trees via [`weighted_routing`], so plans can prefer short
//! *reliable* routes over short lossy ones.

use std::collections::BTreeMap;

use m2m_graph::dijkstra::dijkstra;
use m2m_graph::spt::MulticastTree;
use m2m_graph::NodeId;

use crate::network::Network;
use crate::routing::{RoutingMode, RoutingTables};

/// Fixed-point ETX scale: weights handed to Dijkstra are
/// `round(etx × ETX_SCALE)` so integer shortest paths order like real
/// ETX sums.
pub const ETX_SCALE: f64 = 1000.0;

/// A per-link loss-probability map.
#[derive(Clone, Debug)]
pub struct LinkQuality {
    /// Loss probability per undirected link, keyed `(min, max)`.
    loss: BTreeMap<(NodeId, NodeId), f64>,
}

impl LinkQuality {
    /// Perfect links everywhere.
    pub fn perfect(network: &Network) -> Self {
        let loss = network.graph().edges().map(|e| (e, 0.0)).collect();
        LinkQuality { loss }
    }

    /// Distance-derived loss: a link at the full radio range loses
    /// `max_loss` of its frames; loss falls quadratically to ~0 at zero
    /// distance, plus a small seeded per-link perturbation. This mirrors
    /// the physical reality that marginal links are unreliable.
    pub fn distance_based(network: &Network, max_loss: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&max_loss), "max_loss must be in [0, 1)");
        let positions = network.deployment().positions();
        let range = network.deployment().radio_range_m();
        let loss = network
            .graph()
            .edges()
            .map(|(a, b)| {
                let dist = positions[a.index()].distance_to(&positions[b.index()]);
                let rel = if range > 0.0 {
                    (dist / range).min(1.0)
                } else {
                    0.0
                };
                let jitter = hash_unit(a.0, b.0, seed) * 0.1;
                let p = (max_loss * rel * rel + jitter * max_loss).min(0.95);
                ((a, b), p)
            })
            .collect();
        LinkQuality { loss }
    }

    /// Loss probability of link `{a, b}` (symmetric); 1.0 for non-links.
    pub fn loss(&self, a: NodeId, b: NodeId) -> f64 {
        let key = if a < b { (a, b) } else { (b, a) };
        self.loss.get(&key).copied().unwrap_or(1.0)
    }

    /// Expected transmissions to cross link `{a, b}`.
    pub fn etx(&self, a: NodeId, b: NodeId) -> f64 {
        1.0 / (1.0 - self.loss(a, b))
    }

    /// Integer Dijkstra weight of link `{a, b}`.
    pub fn weight(&self, a: NodeId, b: NodeId) -> u64 {
        (self.etx(a, b) * ETX_SCALE).round() as u64
    }

    /// Expected transmissions along a whole path.
    pub fn path_etx(&self, path: &[NodeId]) -> f64 {
        path.windows(2).map(|w| self.etx(w[0], w[1])).sum()
    }

    /// Iterates all modeled links as `((min, max), loss)`.
    pub fn links(&self) -> impl Iterator<Item = ((NodeId, NodeId), f64)> + '_ {
        self.loss.iter().map(|(&k, &p)| (k, p))
    }

    /// Overrides the loss probability of link `{a, b}` (inserting the
    /// link if it was not modeled). Used by churn drivers that degrade or
    /// repair individual links over time.
    ///
    /// # Panics
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    pub fn set_loss(&mut self, a: NodeId, b: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss must be in [0, 1]");
        let key = if a < b { (a, b) } else { (b, a) };
        self.loss.insert(key, p);
    }

    /// A drifted copy: each link's loss is scaled by a seeded factor in
    /// `[1 − magnitude, 1 + magnitude]` and clamped to `[0, 0.99]`. Models
    /// gradual environment-driven quality drift for churn experiments;
    /// deterministic per seed.
    #[must_use]
    pub fn with_drift(&self, magnitude: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&magnitude),
            "magnitude must be in [0, 1]"
        );
        let loss = self
            .loss
            .iter()
            .map(|(&(a, b), &p)| {
                let jitter = (hash_unit(a.0, b.0, seed) * 2.0 - 1.0) * magnitude;
                ((a, b), (p * (1.0 + jitter)).clamp(0.0, 0.99))
            })
            .collect();
        LinkQuality { loss }
    }
}

/// Deterministic unit-interval hash for per-link jitter.
fn hash_unit(a: u32, b: u32, seed: u64) -> f64 {
    let mut z = seed ^ (u64::from(a) << 32 | u64::from(b));
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Builds per-source multicast trees over ETX-weighted shortest paths:
/// each source's tree is its weighted shortest-path tree pruned to its
/// destinations. With perfect links this coincides with
/// [`RoutingMode::ShortestPathTrees`] up to tie-breaking.
pub fn weighted_routing(
    network: &Network,
    demands: &BTreeMap<NodeId, Vec<NodeId>>,
    quality: &LinkQuality,
) -> RoutingTables {
    let _span = m2m_telemetry::span(m2m_telemetry::layer::QUALITY_WEIGHTED_ROUTING);
    let n = network.node_count();
    let trees: BTreeMap<NodeId, MulticastTree> = demands
        .iter()
        .map(|(&s, dests)| {
            let sp = dijkstra(network.graph(), s, |a, b| quality.weight(a, b));
            // Keep only nodes on some source→destination weighted path.
            let mut keep = vec![false; n];
            keep[s.index()] = true;
            let mut reached = Vec::new();
            for &d in dests {
                let Some(path) = sp.path_to(d) else { continue };
                reached.push(d);
                for v in path {
                    keep[v.index()] = true;
                }
            }
            let mut parent: Vec<Option<NodeId>> = vec![None; n];
            for i in 0..n {
                if keep[i] && i != s.index() {
                    parent[i] = sp.parent[i];
                }
            }
            (s, MulticastTree::from_parents(s, parent, reached))
        })
        .collect();
    RoutingTables::from_trees(RoutingMode::ShortestPathTrees, trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;

    fn grid_network() -> Network {
        Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0))
    }

    #[test]
    fn perfect_quality_gives_unit_etx() {
        let net = grid_network();
        let q = LinkQuality::perfect(&net);
        assert_eq!(q.loss(NodeId(0), NodeId(1)), 0.0);
        assert_eq!(q.etx(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(q.weight(NodeId(0), NodeId(1)), ETX_SCALE as u64);
        // Non-links are unusable.
        assert_eq!(q.loss(NodeId(0), NodeId(15)), 1.0);
    }

    #[test]
    fn distance_based_loss_grows_with_distance() {
        // Mixed-length links: 10 m grid edges vs a deployment with a
        // longer diagonal-range radio.
        let net = Network::with_default_energy(Deployment::grid(3, 3, 10.0, 15.0));
        let q = LinkQuality::distance_based(&net, 0.5, 7);
        // Diagonal (~14.1 m) lossier than side (10 m) on average; compare
        // a specific pair to stay deterministic.
        let side = q.loss(NodeId(0), NodeId(1));
        let diag = q.loss(NodeId(0), NodeId(4));
        assert!(
            diag > side,
            "diagonal {diag} should lose more than side {side}"
        );
        assert!(q.etx(NodeId(0), NodeId(4)) > 1.0);
    }

    #[test]
    fn weighted_routing_avoids_lossy_links() {
        // Triangle: direct link 0-2 is terrible; detour via 1 is clean.
        let mut g = m2m_graph::Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(0), NodeId(2));
        let net = Network::from_graph(g, crate::energy::EnergyModel::mica2());
        let mut quality = LinkQuality::perfect(&net);
        quality.loss.insert((NodeId(0), NodeId(2)), 0.8); // ETX 5
        let demands: BTreeMap<NodeId, Vec<NodeId>> =
            [(NodeId(0), vec![NodeId(2)])].into_iter().collect();
        let rt = weighted_routing(&net, &demands, &quality);
        let path = rt.tree(NodeId(0)).unwrap().path_to(NodeId(2)).unwrap();
        assert_eq!(path, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn perfect_quality_matches_hop_routing_lengths() {
        let net = grid_network();
        let demands: BTreeMap<NodeId, Vec<NodeId>> = [(NodeId(0), vec![NodeId(15), NodeId(12)])]
            .into_iter()
            .collect();
        let q = LinkQuality::perfect(&net);
        let weighted = weighted_routing(&net, &demands, &q);
        let hops = RoutingTables::build(&net, &demands, RoutingMode::ShortestPathTrees);
        for d in [NodeId(15), NodeId(12)] {
            assert_eq!(
                weighted.tree(NodeId(0)).unwrap().path_to(d).unwrap().len(),
                hops.tree(NodeId(0)).unwrap().path_to(d).unwrap().len()
            );
        }
    }

    #[test]
    fn path_etx_sums_links() {
        let net = grid_network();
        let q = LinkQuality::perfect(&net);
        let path = [NodeId(0), NodeId(1), NodeId(2)];
        assert!((q.path_etx(&path) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let net = grid_network();
        let a = LinkQuality::distance_based(&net, 0.4, 5);
        let b = LinkQuality::distance_based(&net, 0.4, 5);
        for (x, y) in net.graph().edges() {
            assert_eq!(a.loss(x, y), b.loss(x, y));
        }
    }
}
