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
//!
//! [`LinkQuality`] keeps two parallel slabs, the modeled links in
//! ascending `(min, max)` order and their loss probabilities, so a lookup
//! is a binary search, a copy is two allocations, and a walk over every
//! link reads both slabs front to back. [`weighted_routing`] turns it into
//! one fixed-point weight per adjacency entry of the radio graph, in one
//! walk over the slab, and builds the flat forest from the destination
//! side: one Dijkstra per destination serves all of its sources, because
//! links are undirected and their weights symmetric (the forest module's
//! `build_weighted_forest_from_destinations`).
//! A link at loss 1.0, or one the map does not model, is dead: its ETX is
//! infinite, no route crosses it, and a destination reachable only over
//! dead links is dropped from its tree.

use std::collections::BTreeMap;

use m2m_graph::adjacency::{Adjacency, CsrAdjacency};
use m2m_graph::NodeId;

use crate::forest::build_weighted_forest_from_destinations;
use crate::network::Network;
use crate::routing::{RoutingMode, RoutingTables};

/// Fixed-point ETX scale: weights handed to Dijkstra are
/// `round(etx × ETX_SCALE)` so integer shortest paths order like real
/// ETX sums. A dead link's weight saturates to `u64::MAX`.
pub const ETX_SCALE: f64 = 1000.0;

/// Expected transmissions over a link with loss probability `loss`:
/// `1 / (1 − loss)`, infinite for a dead link (`loss == 1.0`).
#[inline]
pub fn etx_of_loss(loss: f64) -> f64 {
    1.0 / (1.0 - loss)
}

/// Dijkstra weight of a link with loss probability `loss`;
/// `u64::MAX` for a dead link.
fn weight_of_loss(loss: f64) -> u64 {
    (etx_of_loss(loss) * ETX_SCALE).round() as u64
}

/// A per-link loss-probability map.
#[derive(Clone, Debug)]
pub struct LinkQuality {
    /// Modeled undirected links, keyed `(min, max)`, ascending.
    links: Vec<(NodeId, NodeId)>,
    /// Loss probability of `links[i]`.
    loss: Vec<f64>,
}

impl LinkQuality {
    /// Perfect links everywhere.
    pub fn perfect(network: &Network) -> Self {
        let links: Vec<_> = network.graph().edges().collect();
        let loss = vec![0.0; links.len()];
        LinkQuality { links, loss }
    }

    /// Distance-derived loss: a link at the full radio range loses
    /// `max_loss` of its frames; loss falls quadratically to ~0 at zero
    /// distance, plus a small seeded per-link perturbation. This mirrors
    /// the physical reality that marginal links are unreliable.
    pub fn distance_based(network: &Network, max_loss: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&max_loss), "max_loss must be in [0, 1)");
        let positions = network.deployment().positions();
        let range = network.deployment().radio_range_m();
        // `Graph::edges` ascends by `(min, max)`: the slab order.
        let links: Vec<_> = network.graph().edges().collect();
        let loss = links
            .iter()
            .map(|&(a, b)| {
                let dist = positions[a.index()].distance_to(&positions[b.index()]);
                let rel = if range > 0.0 {
                    (dist / range).min(1.0)
                } else {
                    0.0
                };
                let jitter = hash_unit(a.0, b.0, seed) * 0.1;
                (max_loss * rel * rel + jitter * max_loss).min(0.95)
            })
            .collect();
        LinkQuality { links, loss }
    }

    /// Slab position of link `{a, b}`, or where it would be inserted.
    fn position(&self, a: NodeId, b: NodeId) -> Result<usize, usize> {
        let key = if a < b { (a, b) } else { (b, a) };
        self.links.binary_search(&key)
    }

    /// Loss probability of link `{a, b}` (symmetric); 1.0 for non-links.
    pub fn loss(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a, b).map_or(1.0, |i| self.loss[i])
    }

    /// Expected transmissions to cross link `{a, b}`.
    pub fn etx(&self, a: NodeId, b: NodeId) -> f64 {
        etx_of_loss(self.loss(a, b))
    }

    /// Integer Dijkstra weight of link `{a, b}`.
    pub fn weight(&self, a: NodeId, b: NodeId) -> u64 {
        weight_of_loss(self.loss(a, b))
    }

    /// Iterates all modeled links as `((min, max), loss)`, ascending.
    pub fn links(&self) -> impl Iterator<Item = ((NodeId, NodeId), f64)> + '_ {
        self.links.iter().copied().zip(self.loss.iter().copied())
    }

    /// Overrides the loss probability of link `{a, b}` (inserting the
    /// link if it was not modeled). Used by churn drivers that degrade or
    /// repair individual links over time.
    ///
    /// # Panics
    /// Panics unless `0.0 ≤ p ≤ 1.0`.
    pub fn set_loss(&mut self, a: NodeId, b: NodeId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss must be in [0, 1]");
        match self.position(a, b) {
            Ok(i) => self.loss[i] = p,
            Err(i) => {
                self.links.insert(i, (a.min(b), a.max(b)));
                self.loss.insert(i, p);
            }
        }
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
            .links()
            .map(|((a, b), p)| {
                let jitter = (hash_unit(a.0, b.0, seed) * 2.0 - 1.0) * magnitude;
                (p * (1.0 + jitter)).clamp(0.0, 0.99)
            })
            .collect();
        LinkQuality {
            links: self.links.clone(),
            loss,
        }
    }

    /// One Dijkstra weight per adjacency entry of `csr`, in entry order
    /// (see [`CsrAdjacency::entry_range`]); a dead link weighs
    /// `u64::MAX`, and so does a radio link the map does not model.
    ///
    /// One forward walk over the slab fills both entries of each link.
    /// Every row of `csr` ascends, and the slab, keyed `(min, max)`,
    /// meets a node's neighbours in ascending order too: first the lower
    /// ids, in links where the node is the `max`, then the higher ones.
    /// So one cursor per row only moves forward. A modeled link that is
    /// not a radio link is skipped.
    pub fn weights(&self, csr: &CsrAdjacency) -> Vec<u64> {
        let n = csr.node_count();
        let mut weights = vec![u64::MAX; csr.entry_count()];
        let mut cursor = vec![0u32; n];
        // The entry of `b` in `a`'s row, moving `a`'s cursor up to it.
        let mut seek = |a: NodeId, b: NodeId| {
            let row = csr.neighbors(a);
            let at = &mut cursor[a.index()];
            while row.get(*at as usize).is_some_and(|&v| v < b) {
                *at += 1;
            }
            (row.get(*at as usize) == Some(&b)).then(|| csr.entry_range(a).start + *at as usize)
        };
        for (&(a, b), &loss) in self.links.iter().zip(&self.loss) {
            if a.index() >= n {
                break;
            }
            let Some(ab) = seek(a, b) else { continue };
            let ba = seek(b, a).expect("radio links are symmetric");
            weights[ab] = weight_of_loss(loss);
            weights[ba] = weights[ab];
        }
        weights
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
/// destinations, rooted at the source even when no destination is
/// reachable. With perfect links this coincides with
/// [`RoutingMode::ShortestPathTrees`] up to tie-breaking, and the tables
/// carry that mode. Dead links are never crossed; a destination
/// reachable only over them is dropped. The trees are found with one
/// Dijkstra per destination, not per source (see the module docs).
pub fn weighted_routing(
    network: &Network,
    demands: &BTreeMap<NodeId, Vec<NodeId>>,
    quality: &LinkQuality,
) -> RoutingTables {
    let _span = m2m_telemetry::span(m2m_telemetry::layer::QUALITY_WEIGHTED_ROUTING);
    let csr = CsrAdjacency::from_graph(network.graph());
    let weights = quality.weights(&csr);
    RoutingTables::from_forest(
        RoutingMode::ShortestPathTrees,
        build_weighted_forest_from_destinations(&csr, &weights, demands),
    )
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
        quality.set_loss(NodeId(0), NodeId(2), 0.8); // ETX 5
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
    fn deterministic_per_seed() {
        let net = grid_network();
        let a = LinkQuality::distance_based(&net, 0.4, 5);
        let b = LinkQuality::distance_based(&net, 0.4, 5);
        for (x, y) in net.graph().edges() {
            assert_eq!(a.loss(x, y), b.loss(x, y));
        }
    }

    /// Triangle 0-1-2 with the given losses on 0-1, 0-2 and 1-2.
    fn triangle(losses: [f64; 3]) -> (Network, LinkQuality) {
        let mut g = m2m_graph::Graph::new(3);
        let links = [(0, 1), (0, 2), (1, 2)];
        for (a, b) in links {
            g.add_edge(NodeId(a), NodeId(b));
        }
        let net = Network::from_graph(g, crate::energy::EnergyModel::mica2());
        let mut quality = LinkQuality::perfect(&net);
        for ((a, b), p) in links.into_iter().zip(losses) {
            quality.set_loss(NodeId(a), NodeId(b), p);
        }
        (net, quality)
    }

    #[test]
    fn dead_links_are_never_routed_over() {
        // 1-2 is dead (infinite ETX): 0 reaches 2 directly, 1 through 0.
        let (net, quality) = triangle([0.0, 0.5, 1.0]);
        assert_eq!(quality.weight(NodeId(1), NodeId(2)), u64::MAX);
        let demands: BTreeMap<NodeId, Vec<NodeId>> =
            [(NodeId(0), vec![NodeId(2)]), (NodeId(1), vec![NodeId(2)])]
                .into_iter()
                .collect();
        let rt = weighted_routing(&net, &demands, &quality);
        let from0 = rt.tree(NodeId(0)).unwrap();
        assert_eq!(from0.nodes(), &[NodeId(0), NodeId(2)]);
        assert_eq!(from0.destinations(), &[NodeId(2)]);
        assert_eq!(
            from0.path_to(NodeId(2)).unwrap(),
            vec![NodeId(0), NodeId(2)]
        );
        let from1 = rt.tree(NodeId(1)).unwrap();
        assert_eq!(
            from1.path_to(NodeId(2)).unwrap(),
            vec![NodeId(1), NodeId(0), NodeId(2)]
        );
        assert_eq!(rt.mode(), RoutingMode::ShortestPathTrees);
    }

    #[test]
    fn destinations_behind_dead_links_only_are_dropped() {
        // Node 2 hangs off the rest by dead links alone.
        let (net, quality) = triangle([0.0, 1.0, 1.0]);
        let demands: BTreeMap<NodeId, Vec<NodeId>> = [
            (NodeId(0), vec![NodeId(1), NodeId(2)]),
            (NodeId(2), vec![NodeId(0), NodeId(1)]),
        ]
        .into_iter()
        .collect();
        let rt = weighted_routing(&net, &demands, &quality);
        let from0 = rt.tree(NodeId(0)).unwrap();
        assert_eq!(from0.nodes(), &[NodeId(0), NodeId(1)]);
        assert_eq!(from0.destinations(), &[NodeId(1)]);
        // A source that reaches nothing keeps its root-only tree.
        let from2 = rt.tree(NodeId(2)).unwrap();
        assert_eq!(from2.nodes(), &[NodeId(2)]);
        assert_eq!(from2.destinations(), &[] as &[NodeId]);
        assert_eq!(from2.edges().count(), 0);

        // A radio link the map does not model is dead too.
        let bigger = grid_network();
        let partial = LinkQuality::perfect(&Network::with_default_energy(Deployment::grid(
            2, 2, 10.0, 12.0,
        )));
        let demands: BTreeMap<NodeId, Vec<NodeId>> = [(NodeId(0), vec![NodeId(1), NodeId(15)])]
            .into_iter()
            .collect();
        let rt = weighted_routing(&bigger, &demands, &partial);
        assert_eq!(rt.tree(NodeId(0)).unwrap().destinations(), &[NodeId(1)]);
    }

    #[test]
    fn the_link_slab_stays_sorted_through_set_loss() {
        let net = grid_network();
        let mut q = LinkQuality::distance_based(&net, 0.3, 1);
        let before = q.links().count();
        q.set_loss(NodeId(15), NodeId(0), 0.25); // not a radio link
        q.set_loss(NodeId(1), NodeId(0), 0.5); // a modeled one
        assert_eq!(q.links().count(), before + 1);
        assert_eq!(q.loss(NodeId(0), NodeId(15)), 0.25);
        assert_eq!(q.loss(NodeId(0), NodeId(1)), 0.5);
        let keys: Vec<_> = q.links().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert!(keys.iter().all(|&(a, b)| a < b));
    }

    #[test]
    fn weights_follow_the_adjacency_entries() {
        let net = grid_network();
        // The map models the first three grid rows only, so the radio
        // links of the last row (nodes 12-15) are unmodeled.
        let three_rows = Network::with_default_energy(Deployment::grid(4, 3, 10.0, 12.0));
        let mut q = LinkQuality::distance_based(&three_rows, 0.4, 2);
        q.set_loss(NodeId(5), NodeId(6), 1.0);
        // Modeled links that are not radio links: within the network,
        // to a node past it, and wholly past it.
        q.set_loss(NodeId(0), NodeId(15), 0.25);
        q.set_loss(NodeId(3), NodeId(40), 0.1);
        q.set_loss(NodeId(20), NodeId(21), 0.1);
        let csr = CsrAdjacency::from_graph(net.graph());
        let weights = q.weights(&csr);
        assert_eq!(weights.len(), csr.entry_count());
        for a in net.nodes() {
            let row = &weights[csr.entry_range(a)];
            for (&b, &w) in csr.neighbors(a).iter().zip(row) {
                assert_eq!(w, q.weight(a, b), "{a}-{b}");
            }
        }
        let entry = |a: u32, b: u32| {
            let (a, b) = (NodeId(a), NodeId(b));
            let at = csr.neighbors(a).binary_search(&b).expect("a radio link");
            weights[csr.entry_range(a).start + at]
        };
        assert_eq!(entry(5, 6), u64::MAX, "dead");
        assert_eq!(entry(14, 15), u64::MAX, "unmodeled");
        assert_eq!(entry(11, 15), u64::MAX, "unmodeled");
        assert!(entry(6, 5) == entry(5, 6) && entry(10, 11) == entry(11, 10));
        assert!(entry(10, 11) < u64::MAX);
    }
}
