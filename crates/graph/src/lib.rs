//! Graph substrate for the many-to-many aggregation system.
//!
//! This crate implements, from scratch, every graph algorithm the paper's
//! optimizer depends on:
//!
//! * adjacency-list graphs with compact [`NodeId`] handles ([`Graph`]),
//! * breadth-first shortest hop distances ([`bfs`]),
//! * canonical shortest-path trees with deterministic tie-breaking
//!   ([`spt`]) — the "standard algorithm" the paper uses to build
//!   single-source multicast trees,
//! * the reusable routing arena ([`scratch`]): BFS, and Dijkstra for
//!   weighted links,
//! * Dinic maximum flow ([`maxflow`]), differentially tested against an
//!   independent push-relabel implementation in the crate's tests,
//! * **minimum-weight bipartite vertex cover** ([`vertex_cover`]) — the
//!   kernel of the paper's single-edge optimization (§2.2), cross-checked
//!   in the crate's tests against Hopcroft–Karp through König's theorem,
//! * topological ordering with cycle detection ([`cycle`]) — used by the
//!   message merger and the slot assigner (§3),
//! * bridge detection ([`bridges`]) — links with no runtime detour, used
//!   by the failure analysis around milestone routing (§3).
//!
//! Two modules are reference implementations that only tests call: the
//! allocating Dijkstra ([`dijkstra`]) and the Takahashi–Matsuyama Steiner
//! tree ([`steiner`]). The flat routing forests of `m2m-netsim` replicate
//! them and are held to them tree for tree.
//!
//! The crate has no dependencies and is usable independently of the sensor
//! network simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod bfs;
pub mod bipartite;
pub mod bridges;
pub mod cycle;
pub mod dijkstra;
pub mod maxflow;
pub mod node;
pub mod scratch;
pub mod spt;
pub mod steiner;
pub mod tiebreak;
pub mod vertex_cover;

pub use adjacency::Graph;
pub use bipartite::BipartiteGraph;
pub use node::NodeId;
pub use scratch::RoutingScratch;
pub use spt::ShortestPathTree;
pub use vertex_cover::{min_weight_vertex_cover, CoverSolution};
