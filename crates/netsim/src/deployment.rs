//! Node placement generators.
//!
//! The paper places nodes at "the coordinates of the 2003 deployment on
//! Great Duck Island, with some modification to filter out multiple nodes
//! at identical coordinates. The resulting configuration has 68 nodes in a
//! 106 × 203 m² area" (§4), with a 50 m radio range. The published
//! coordinates are not available, so [`Deployment::great_duck_island`]
//! generates a *seeded synthetic layout with the same node count, area,
//! aspect ratio, and radio range*, rejection-sampled until the radio graph
//! is connected. What the experiments exercise is the multi-hop topology
//! induced by density and range, which this preserves (see DESIGN.md,
//! "Substitutions").

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::position::Position;

/// The paper's radio range in meters (§4).
pub const PAPER_RADIO_RANGE_M: f64 = 50.0;

/// Node count of the (filtered) Great Duck Island configuration.
pub const GDI_NODE_COUNT: usize = 68;

/// Width of the Great Duck Island area (m).
pub const GDI_WIDTH_M: f64 = 106.0;

/// Height of the Great Duck Island area (m).
pub const GDI_HEIGHT_M: f64 = 203.0;

/// A set of fixed node locations within a rectangular area.
#[derive(Clone, Debug)]
pub struct Deployment {
    positions: Vec<Position>,
    width_m: f64,
    height_m: f64,
    radio_range_m: f64,
}

impl Deployment {
    /// Builds a deployment from explicit positions.
    ///
    /// # Panics
    /// Panics if the radio range is not positive or a coordinate is not
    /// finite.
    pub fn from_positions(
        positions: Vec<Position>,
        width_m: f64,
        height_m: f64,
        radio_range_m: f64,
    ) -> Self {
        assert!(radio_range_m > 0.0, "radio range must be positive");
        assert!(
            positions.iter().all(|p| p.x.is_finite() && p.y.is_finite()),
            "node coordinates must be finite"
        );
        Deployment {
            positions,
            width_m,
            height_m,
            radio_range_m,
        }
    }

    /// The synthetic Great Duck Island stand-in: 68 nodes in 106 × 203 m²
    /// with a 50 m radio range, rejection-sampled to be connected.
    ///
    /// ```
    /// use m2m_netsim::Deployment;
    ///
    /// let d = Deployment::great_duck_island(1);
    /// assert_eq!(d.node_count(), 68);
    /// assert!(d.radio_graph().is_connected());
    /// ```
    pub fn great_duck_island(seed: u64) -> Self {
        Self::connected_uniform(
            GDI_NODE_COUNT,
            GDI_WIDTH_M,
            GDI_HEIGHT_M,
            PAPER_RADIO_RANGE_M,
            seed,
        )
    }

    /// Uniform-random placement, resampled (up to 1000 attempts) until the
    /// radio graph is connected.
    ///
    /// # Panics
    /// Panics if no connected sample is found, which indicates the density
    /// is far too low for the requested range.
    pub fn connected_uniform(
        n: usize,
        width_m: f64,
        height_m: f64,
        radio_range_m: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..1000 {
            let positions: Vec<Position> = (0..n)
                .map(|_| {
                    Position::new(
                        rng.random_range(0.0..width_m),
                        rng.random_range(0.0..height_m),
                    )
                })
                .collect();
            let d = Deployment::from_positions(positions, width_m, height_m, radio_range_m);
            if d.radio_graph().is_connected() {
                return d;
            }
        }
        panic!(
            "could not sample a connected deployment: n={n}, area={width_m}x{height_m}, \
             range={radio_range_m}"
        );
    }

    /// Clustered placement: nodes gather around `clusters` seeded centers
    /// with Gaussian-ish spread, the way real forest deployments clump
    /// around stands of instrumented trees. Resampled until connected.
    ///
    /// # Panics
    /// Panics if no connected sample is found in 1000 attempts.
    pub fn clustered(
        n: usize,
        clusters: usize,
        width_m: f64,
        height_m: f64,
        spread_m: f64,
        radio_range_m: f64,
        seed: u64,
    ) -> Self {
        assert!(clusters >= 1, "need at least one cluster");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..1000 {
            let centers: Vec<Position> = (0..clusters)
                .map(|_| {
                    Position::new(
                        rng.random_range(0.2 * width_m..0.8 * width_m),
                        rng.random_range(0.2 * height_m..0.8 * height_m),
                    )
                })
                .collect();
            let positions: Vec<Position> = (0..n)
                .map(|i| {
                    let c = &centers[i % clusters];
                    // Sum of two uniforms ≈ triangular: a cheap Gaussian
                    // stand-in with bounded support.
                    let dx = (rng.random_range(-1.0..1.0f64) + rng.random_range(-1.0..1.0))
                        * spread_m
                        / 2.0;
                    let dy = (rng.random_range(-1.0..1.0f64) + rng.random_range(-1.0..1.0))
                        * spread_m
                        / 2.0;
                    Position::new(
                        (c.x + dx).clamp(0.0, width_m),
                        (c.y + dy).clamp(0.0, height_m),
                    )
                })
                .collect();
            let d = Deployment::from_positions(positions, width_m, height_m, radio_range_m);
            if d.radio_graph().is_connected() {
                return d;
            }
        }
        panic!(
            "could not sample a connected clustered deployment: n={n}, clusters={clusters}, \
             spread={spread_m}, range={radio_range_m}"
        );
    }

    /// Regular grid placement with the given spacing, useful for
    /// deterministic tests and worked examples.
    pub fn grid(cols: usize, rows: usize, spacing_m: f64, radio_range_m: f64) -> Self {
        let positions = (0..rows)
            .flat_map(|r| {
                (0..cols).map(move |c| Position::new(c as f64 * spacing_m, r as f64 * spacing_m))
            })
            .collect();
        Deployment {
            positions,
            width_m: (cols.max(1) - 1) as f64 * spacing_m,
            height_m: (rows.max(1) - 1) as f64 * spacing_m,
            radio_range_m,
        }
    }

    /// The Figure 6 series: networks of increasing node count with the area
    /// scaled to keep density constant (the paper: "a series of five
    /// simulated networks with increasing area and number of nodes",
    /// 50–250 nodes, 25% destinations, 15% of nodes as sources each).
    pub fn scaled_series(node_counts: &[usize], seed: u64) -> Vec<Deployment> {
        let base_density = GDI_NODE_COUNT as f64 / (GDI_WIDTH_M * GDI_HEIGHT_M);
        node_counts
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let area = n as f64 / base_density;
                // Keep the GDI aspect ratio as the area grows.
                let aspect = GDI_HEIGHT_M / GDI_WIDTH_M;
                let width = (area / aspect).sqrt();
                let height = width * aspect;
                Self::connected_uniform(
                    n,
                    width,
                    height,
                    PAPER_RADIO_RANGE_M,
                    seed.wrapping_add(i as u64),
                )
            })
            .collect()
    }

    /// Node positions, indexed by node id.
    #[inline]
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Deployment area width (m).
    #[inline]
    pub fn width_m(&self) -> f64 {
        self.width_m
    }

    /// Deployment area height (m).
    #[inline]
    pub fn height_m(&self) -> f64 {
        self.height_m
    }

    /// Radio range (m).
    #[inline]
    pub fn radio_range_m(&self) -> f64 {
        self.radio_range_m
    }

    /// Builds the unit-disk radio connectivity graph: nodes are linked iff
    /// within radio range.
    ///
    /// Candidate pairs come from a spatial hash with cells of radio-range
    /// side length (a node's neighbors all lie in its 3×3 cell block), so
    /// construction is near-linear in node count for the bounded-density
    /// deployments the scaled series produces — the exact pairwise scan is
    /// kept for small or degenerate (non-positive range) deployments. The
    /// produced edge *set* is identical either way, and `Graph::add_edge`
    /// keeps neighbor lists sorted regardless of insertion order, so
    /// everything downstream is unaffected. A coordinate too large for an
    /// `i64` cell saturates; a neighbor offset past `i64::MAX` or
    /// `i64::MIN` names no cell any node occupies and is skipped.
    pub fn radio_graph(&self) -> m2m_graph::Graph {
        let n = self.positions.len();
        let mut g = m2m_graph::Graph::new(n);
        let range = self.radio_range_m;
        if n < 512 || range <= 0.0 {
            for i in 0..n {
                for j in (i + 1)..n {
                    if self.positions[i].distance_to(&self.positions[j]) <= range {
                        g.add_edge(
                            m2m_graph::NodeId::from_index(i),
                            m2m_graph::NodeId::from_index(j),
                        );
                    }
                }
            }
            return g;
        }
        let cell_of = |p: &Position| ((p.x / range).floor() as i64, (p.y / range).floor() as i64);
        let mut bins: std::collections::HashMap<(i64, i64), Vec<u32>> =
            std::collections::HashMap::new();
        for (i, p) in self.positions.iter().enumerate() {
            bins.entry(cell_of(p)).or_default().push(i as u32);
        }
        for (i, p) in self.positions.iter().enumerate() {
            let (cx, cy) = cell_of(p);
            for dx in -1..=1 {
                for dy in -1..=1 {
                    let (Some(nx), Some(ny)) = (cx.checked_add(dx), cy.checked_add(dy)) else {
                        continue;
                    };
                    let Some(list) = bins.get(&(nx, ny)) else {
                        continue;
                    };
                    for &j in list {
                        if (j as usize) > i && self.positions[j as usize].distance_to(p) <= range {
                            g.add_edge(
                                m2m_graph::NodeId::from_index(i),
                                m2m_graph::NodeId::from_index(j as usize),
                            );
                        }
                    }
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2m_graph::NodeId;

    #[test]
    fn gdi_layout_matches_paper_parameters() {
        let d = Deployment::great_duck_island(7);
        assert_eq!(d.node_count(), 68);
        assert_eq!(d.width_m(), GDI_WIDTH_M);
        assert_eq!(d.height_m(), GDI_HEIGHT_M);
        assert_eq!(d.radio_range_m(), PAPER_RADIO_RANGE_M);
        assert!(d.radio_graph().is_connected());
        for p in d.positions() {
            assert!(p.x >= 0.0 && p.x <= GDI_WIDTH_M);
            assert!(p.y >= 0.0 && p.y <= GDI_HEIGHT_M);
        }
    }

    #[test]
    fn gdi_layout_is_seed_deterministic() {
        let a = Deployment::great_duck_island(42);
        let b = Deployment::great_duck_island(42);
        assert_eq!(a.positions(), b.positions());
        let c = Deployment::great_duck_island(43);
        assert_ne!(a.positions(), c.positions());
    }

    #[test]
    fn gdi_is_multi_hop() {
        // The paper's workloads draw sources from 1–4 hops away; the layout
        // must actually have multi-hop structure.
        let d = Deployment::great_duck_island(1);
        let g = d.radio_graph();
        let hops = m2m_graph::bfs::bfs_distances(&g, m2m_graph::NodeId(0));
        let max_hop = hops.iter().flatten().max().copied().unwrap();
        assert!(
            max_hop >= 3,
            "expected a multi-hop topology, max hop {max_hop}"
        );
    }

    #[test]
    fn grid_connectivity_depends_on_range() {
        let near = Deployment::grid(3, 3, 10.0, 10.5);
        assert!(near.radio_graph().is_connected());
        // Range below spacing: no links at all.
        let far = Deployment::grid(3, 3, 10.0, 9.5);
        assert_eq!(far.radio_graph().edge_count(), 0);
    }

    #[test]
    fn grid_diagonals_excluded_at_tight_range() {
        let d = Deployment::grid(2, 2, 10.0, 10.5);
        let g = d.radio_graph();
        // 4 side links, no diagonal (≈14.1 m).
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn clustered_layout_is_connected_and_clumped() {
        let d = Deployment::clustered(60, 4, 200.0, 200.0, 25.0, 60.0, 9);
        assert_eq!(d.node_count(), 60);
        assert!(d.radio_graph().is_connected());
        // Clumping: mean nearest-neighbor distance is far below the
        // uniform-random expectation (~½·sqrt(area/n) ≈ 12.9 m).
        let nn_mean: f64 = d
            .positions()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                d.positions()
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, q)| p.distance_to(q))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / 60.0;
        assert!(
            nn_mean < 10.0,
            "mean nearest neighbor {nn_mean:.1} m not clumped"
        );
    }

    #[test]
    fn clustered_layout_is_seed_deterministic() {
        let a = Deployment::clustered(40, 3, 150.0, 150.0, 20.0, 55.0, 4);
        let b = Deployment::clustered(40, 3, 150.0, 150.0, 20.0, 55.0, 4);
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn huge_coordinates_link_as_the_pairwise_scan_does() {
        // 512 nodes take the grid-bucket path. Node 3's cell index
        // saturates at `i64::MAX` and node 7's at `i64::MIN`; node 9 sits
        // on node 3, so the two link.
        let mut positions: Vec<Position> = (0..512)
            .map(|i| Position::new(f64::from(i) * 4.0, 0.0))
            .collect();
        positions[3].x = 1e300;
        positions[7].y = -1e300;
        positions[9].x = 1e300;
        let range = 5.0;
        let d = Deployment::from_positions(positions.clone(), 2048.0, 10.0, range);
        let got: Vec<_> = d.radio_graph().edges().collect();
        let mut want = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if positions[i].distance_to(&positions[j]) <= range {
                    want.push((NodeId::from_index(i), NodeId::from_index(j)));
                }
            }
        }
        assert!(want.contains(&(NodeId(3), NodeId(9))));
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "coordinates must be finite")]
    fn non_finite_coordinate_panics() {
        let positions = vec![Position::new(0.0, 0.0), Position::new(f64::INFINITY, 0.0)];
        let _ = Deployment::from_positions(positions, 10.0, 10.0, 5.0);
    }

    #[test]
    fn scaled_series_keeps_density() {
        let series = Deployment::scaled_series(&[50, 100], 11);
        assert_eq!(series.len(), 2);
        let density = |d: &Deployment| d.node_count() as f64 / (d.width_m() * d.height_m());
        let base = GDI_NODE_COUNT as f64 / (GDI_WIDTH_M * GDI_HEIGHT_M);
        for d in &series {
            assert!((density(d) - base).abs() / base < 1e-9);
            assert!(d.radio_graph().is_connected());
        }
        assert!(series[1].width_m() > series[0].width_m());
    }
}
