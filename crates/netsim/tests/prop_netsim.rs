//! Property tests for the simulator substrate: deployments, radio graphs,
//! routing trees, and the failure model.

use std::collections::BTreeMap;

use proptest::prelude::*;

use m2m_graph::NodeId;
use m2m_netsim::failure::LinkFailureModel;
use m2m_netsim::{
    DeliveryModel, Deployment, FailureTrace, LinkLoss, Network, RoutingMode, RoutingTables,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every sampled GDI-class deployment is connected, in-bounds, and
    /// reproducible from its seed.
    #[test]
    fn gdi_deployments_are_connected_and_deterministic(seed in 0u64..500) {
        let a = Deployment::great_duck_island(seed);
        let b = Deployment::great_duck_island(seed);
        prop_assert_eq!(a.positions(), b.positions());
        prop_assert!(a.radio_graph().is_connected());
        for p in a.positions() {
            prop_assert!(p.x >= 0.0 && p.x <= a.width_m());
            prop_assert!(p.y >= 0.0 && p.y <= a.height_m());
        }
    }

    /// Radio links are exactly the pairs within range (unit-disk model).
    #[test]
    fn radio_graph_matches_geometry(seed in 0u64..200) {
        let d = Deployment::connected_uniform(30, 80.0, 80.0, 40.0, seed);
        let g = d.radio_graph();
        for i in 0..d.node_count() {
            for j in (i + 1)..d.node_count() {
                let within = d.positions()[i].distance_to(&d.positions()[j])
                    <= d.radio_range_m();
                prop_assert_eq!(
                    g.has_edge(NodeId::from_index(i), NodeId::from_index(j)),
                    within
                );
            }
        }
    }

    /// In both routing modes, every tree: (i) spans exactly the requested
    /// reachable destinations, (ii) is minimal (every leaf is a
    /// destination), and (iii) uses only radio links in SPT mode.
    #[test]
    fn multicast_trees_are_minimal_spanners(
        seed in 0u64..100,
        raw_demands in prop::collection::btree_map(0u32..40, prop::collection::vec(0u32..40, 1..5), 1..6),
    ) {
        let net = Network::with_default_energy(Deployment::connected_uniform(
            40, 100.0, 100.0, 45.0, seed,
        ));
        let demands: BTreeMap<NodeId, Vec<NodeId>> = raw_demands
            .into_iter()
            .map(|(s, ds)| (NodeId(s), ds.into_iter().map(NodeId).collect()))
            .collect();
        for mode in [RoutingMode::ShortestPathTrees, RoutingMode::SharedSpanningTree] {
            let rt = RoutingTables::build(&net, &demands, mode);
            for (s, tree) in rt.trees() {
                let mut expected: Vec<NodeId> = demands[&s].clone();
                expected.sort_unstable();
                expected.dedup();
                prop_assert_eq!(tree.destinations(), &expected[..]);
                // Minimality: every leaf is a destination.
                for &v in tree.nodes() {
                    let is_leaf = tree.edges().all(|(p, _)| p != v);
                    if is_leaf && tree.size() > 1 {
                        prop_assert!(
                            tree.destinations().binary_search(&v).is_ok(),
                            "leaf {v} of tree {s} is not a destination"
                        );
                    }
                }
                // Real links only (both modes route over radio edges).
                for (a, b) in tree.edges() {
                    prop_assert!(net.graph().has_edge(a, b));
                }
                // Paths in SPT mode are shortest.
                if mode == RoutingMode::ShortestPathTrees {
                    for &d in tree.destinations() {
                        let path = tree.path_to(d).unwrap();
                        prop_assert_eq!(
                            (path.len() - 1) as u32,
                            net.hop_distance(s, d).unwrap()
                        );
                    }
                }
            }
        }
    }

    /// Failure model: deterministic, symmetric, and (statistically) close
    /// to its nominal probability.
    #[test]
    fn failure_model_properties(p in 0.0f64..1.0, seed in any::<u64>()) {
        let m = LinkFailureModel::new(p, seed);
        let mut down = 0u32;
        let trials = 2000u64;
        for r in 0..trials {
            let a = m.is_down(NodeId(1), NodeId(2), r);
            prop_assert_eq!(a, m.is_down(NodeId(2), NodeId(1), r));
            prop_assert_eq!(a, m.is_down(NodeId(1), NodeId(2), r));
            down += u32::from(a);
        }
        let rate = f64::from(down) / trials as f64;
        prop_assert!((rate - p).abs() < 0.06, "rate {rate} vs p {p}");
    }

    /// A link oracle resolved once answers every tick exactly as its model
    /// does: all three model kinds, both endpoint orders, p = 0 and p = 1
    /// links, and links the model never names.
    #[test]
    fn link_oracles_answer_like_their_model(
        p in 0.0f64..1.0,
        seed in any::<u64>(),
        base in 0u64..1_000_000,
    ) {
        let per_link = [
            ((NodeId(0), NodeId(1)), 0.0),
            ((NodeId(1), NodeId(2)), 1.0),
            ((NodeId(2), NodeId(3)), p),
            ((NodeId(3), NodeId(4)), p * 0.5),
        ];
        let trace = FailureTrace::new()
            .down(NodeId(1), NodeId(0), base, base + 7)
            .down(NodeId(2), NodeId(1), base + 3, base + 4)
            .down(NodeId(0), NodeId(1), base + 9, base + 11)
            .down(NodeId(4), NodeId(3), 0, u64::MAX);
        let models = [
            DeliveryModel::uniform(p, seed),
            DeliveryModel::uniform(0.0, seed),
            DeliveryModel::uniform(1.0, seed),
            DeliveryModel::PerLink {
                loss: per_link.into_iter().collect(),
                seed,
            },
            DeliveryModel::trace(trace.clone()),
        ];
        // Node 5 is named by neither the per-link map nor the trace: its
        // links are absent there (uniform loss covers every link).
        let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
        for model in &models {
            for &a in &nodes {
                for &b in &nodes {
                    if a == b {
                        continue;
                    }
                    let link = model.link(a, b);
                    prop_assert_eq!(link, model.link(b, a), "{:?} {}-{}", model, a, b);
                    if b == NodeId(5) && !matches!(model, DeliveryModel::Bernoulli(_)) {
                        prop_assert_eq!(link, LinkLoss::Never);
                    }
                    for tick in base..base + 16 {
                        let down = link.is_down(tick);
                        prop_assert_eq!(down, model.is_down(a, b, tick), "{:?} {}-{} @{}", model, a, b, tick);
                        prop_assert_eq!(down, model.is_down(b, a, tick), "{:?} {}-{} @{}", model, b, a, tick);
                        match model {
                            DeliveryModel::Bernoulli(m) => {
                                prop_assert_eq!(down, m.is_down(a, b, tick));
                            }
                            DeliveryModel::Trace(t) => {
                                prop_assert_eq!(down, t.is_down(a, b, tick));
                            }
                            DeliveryModel::PerLink { .. } => {}
                        }
                    }
                }
            }
        }
        // The p = 0 and p = 1 links are constant oracles.
        prop_assert_eq!(models[3].link(NodeId(1), NodeId(0)), LinkLoss::Never);
        prop_assert_eq!(models[3].link(NodeId(2), NodeId(1)), LinkLoss::Always);
        prop_assert_eq!(models[1].link(NodeId(0), NodeId(1)), LinkLoss::Never);
        prop_assert_eq!(models[2].link(NodeId(0), NodeId(1)), LinkLoss::Always);
    }
}
