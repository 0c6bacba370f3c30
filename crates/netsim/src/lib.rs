//! Sensor-network simulator substrate for many-to-many aggregation.
//!
//! The paper evaluates on "a simulation of a network of Mica2 motes" (§4):
//! fixed-location nodes, a 50 m radio range, a generic MAC layer, and an
//! energy metric that charges both sending and receiving, with a fixed
//! per-message header followed by the body. This crate rebuilds that
//! substrate:
//!
//! * [`position`] / [`deployment`] — node placement: a synthetic stand-in
//!   for the 2003 Great Duck Island layout (68 nodes, 106×203 m²), uniform
//!   and grid layouts, and the scaled series used by the network-size
//!   experiment (Figure 6),
//! * [`network`] — the unit-disk radio connectivity graph,
//! * [`energy`] — the Mica2-class energy model (per-message header cost +
//!   per-byte send/receive cost),
//! * [`routing`] — per-source multicast trees (the paper's "standard
//!   algorithm") plus a strict shared-spanning-tree mode that satisfies the
//!   §2.1 path-sharing restriction by construction,
//! * [`forest`] — the flat CSR slab packing of all those trees
//!   ([`RoutingForest`]/[`TreeView`]), sized by Σ|T_s| rather than
//!   `sources × nodes`,
//! * [`failure`] — seeded transient link-failure injection used by the
//!   milestone-routing experiments, plus the [`DeliveryModel`] /
//!   [`FailureTrace`] per-frame delivery oracles behind the fault-aware
//!   executor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deployment;
pub mod energy;
pub mod failure;
pub mod forest;
pub mod network;
pub mod position;
pub mod quality;
pub mod routing;

pub use deployment::Deployment;
pub use energy::EnergyModel;
pub use failure::{DeliveryModel, FailureTrace, LinkFailureModel, LinkLoss};
pub use forest::{RoutingForest, TreeView};
pub use network::Network;
pub use position::Position;
pub use quality::LinkQuality;
pub use routing::{RoutingMode, RoutingTables};
