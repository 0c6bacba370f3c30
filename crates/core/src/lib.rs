//! Many-to-many aggregation for sensor networks.
//!
//! This crate implements the optimizer and runtime of *Silberstein & Yang,
//! "Many-to-Many Aggregation for Sensor Networks" (ICDE 2007)*. Each
//! destination node needs an aggregate over readings at a set of source
//! nodes; sources serve many destinations. Given one multicast tree per
//! source (built by [`m2m_netsim::routing`]), the optimizer decides — per
//! directed tree edge, independently — which values cross the edge **raw**
//! (sharable via multicast) and which cross as destination-specific
//! **partial aggregate records** (compressed by in-network aggregation),
//! by solving a minimum-weight bipartite vertex cover (§2.2). Per-edge
//! optima compose into a consistent, globally optimal plan (Theorem 1).
//!
//! Crate map (paper section in parentheses):
//!
//! * [`agg`] — generalized algebraic aggregation functions: per-source
//!   pre-aggregation `w_{d,s}`, merging `m_d`, evaluation `e_d` (§2.1);
//! * [`spec`] — the many-to-many workload: which destination aggregates
//!   which sources, with what function;
//! * [`workload`] — the paper's workload generators (destination fraction,
//!   sources per destination, dispersion factor `d`; §4);
//! * [`edge_opt`] — the single-edge optimization as weighted bipartite
//!   vertex cover (§2.2);
//! * [`plan`] — global plan assembly, consistency verification and repair
//!   (§2.3, Theorem 1), and the §3 node state tables (Theorem 3);
//! * [`schedule`] — message units, wait-for graph (Theorem 2), greedy
//!   cycle-safe message merging (§3);
//! * [`tables`] — the §3 per-node state tables (raw / pre-aggregation /
//!   partial-aggregate / outgoing message, Theorem 3);
//! * [`baselines`] — the paper's comparison algorithms: multicast,
//!   aggregation, flood (§4);
//! * [`basestation`] — the §1 out-of-network control strawman, with
//!   per-node energy accounting;
//! * `runtime` — the interpreted reference executor, kept as a
//!   test-only oracle behind the `test-oracle` feature; the public
//!   execution surface is [`exec`];
//! * [`exec`] — the compiled steady-state executor: the schedule lowered
//!   once into flat dense-index arrays, epochs run allocation-free and
//!   bit-identical to the reference oracle, with batch fan-out over
//!   [`parallel`] and recompile-only-on-structure-change driving
//!   ([`dynamics`]);
//! * [`faults`] — the fault-tolerant epoch pipeline: seeded per-edge loss
//!   ([`m2m_netsim::failure::DeliveryModel`]), bounded retransmission
//!   charged through the energy model, per-destination coverage /
//!   staleness accounting, and the ETX-drift churn gate;
//! * [`config`] — the typed configuration surface ([`config::Config`]):
//!   one builder (seeded from the `M2M_*` environment) feeding threads,
//!   tracing, logging, and retry/hysteresis knobs to every layer;
//! * [`session`] — the unified [`session::Session`] facade wiring
//!   routing → plan → compiled executor → fault engine → churn loop,
//!   with one [`session::Session::run`] dispatching on the configured
//!   [`config::Runtime`];
//! * [`service`] — the multi-tenant plan service: many admitted
//!   [`spec::AggregationSpec`]s share one deployment, interned routing
//!   substrates, and a cross-tenant [`memo::SharedSolveCache`], with
//!   checkpoint/restore and the [`sharing`] multi-query index;
//! * [`node_machine`] — the *distributed* counterpart: event-driven node
//!   automata programmed solely by their §3 tables;
//! * [`sim`] — the discrete-event distributed runtime: every node a
//!   component on a shared event clock with bounded per-link queues and
//!   a binary-heap event wheel, drawing losses from the same seeded
//!   [`faults`] streams and bit-identical to the compiled executor when
//!   lossless (100k-node scale);
//! * [`dvc`] — the distributed per-edge vertex-cover solve: demand
//!   climbs the trees hop-by-hop, each edge's tail solves its own cover
//!   locally, and an availability wave repairs raw relays — converging
//!   to the centralized [`plan`] optimum exactly;
//! * [`obs`] — the session flight recorder: bounded per-round
//!   coverage/energy timeline + structured event ring over the lossy
//!   runtime, dumped (with the per-node accumulator planes from
//!   [`m2m_telemetry::timeseries`]) as versioned JSON (`M2M_OBS`);
//! * [`slots`] — collision-free TDMA transmission slots (§3);
//! * [`suppression`] — temporal suppression and the dynamic override
//!   policies (§3, Figure 7);
//! * [`dynamics`] — incremental re-optimization after workload/route
//!   changes (Corollary 1), priced by [`dissemination`];
//! * [`parallel`] — the scoped worker pool fanning per-edge solves across
//!   threads with deterministic, order-preserving collection (Theorem 1
//!   makes the fan-out safe);
//! * [`memo`] — cross-build solve memoization ([`memo::SolveCache`]),
//!   Corollary 1 applied across independent plan builds;
//! * [`milestones`] — milestone routing over virtual edges (§3);
//! * [`resilience`] — critical-link (bridge) analysis: the links §3's
//!   failure handling cannot route around;
//! * [`multi`] — the "multiple functions per destination" lift (§2.1);
//! * [`campaign`] — multi-round suppression campaigns with an audited
//!   precision/energy trade-off (§3's "up to desired precision");
//! * [`telemetry`] — the zero-overhead instrumentation facade (counters,
//!   span timers, histograms, `M2M_TRACE` control) plus the per-edge
//!   plan-explainability report;
//! * [`topo`] — the interned topology snapshot: dense [`topo::NodeIdx`] /
//!   [`topo::EdgeIdx`] indices, sorted edge slab with O(1) lookup, and
//!   per-tree CSR adjacency that every planning stage shares;
//! * [`textio`] — plain-text persistence for deployments and workloads.
//!
//! # Quickstart
//!
//! ```
//! use m2m_core::prelude::*;
//! use std::collections::BTreeMap;
//!
//! // A small grid network.
//! let net = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0));
//!
//! // Two destinations, each a weighted average over three sources.
//! let mut spec = AggregationSpec::new();
//! spec.add_function(
//!     NodeId(0),
//!     AggregateFunction::weighted_average([(NodeId(5), 1.0), (NodeId(10), 2.0), (NodeId(15), 1.0)]),
//! );
//! spec.add_function(
//!     NodeId(3),
//!     AggregateFunction::weighted_average([(NodeId(5), 1.0), (NodeId(10), 1.0), (NodeId(12), 4.0)]),
//! );
//!
//! // One Session wires routing, planning, and compiled execution.
//! let mut session = Session::builder(net, spec.clone())
//!     .routing_mode(RoutingMode::ShortestPathTrees)
//!     .build();
//!
//! // Execute one round on real readings and check every destination.
//! let readings: BTreeMap<NodeId, f64> =
//!     session.network().nodes().map(|v| (v, f64::from(v.0))).collect();
//! let report = session.run(&readings);
//! for (dest, result) in &report.result_map() {
//!     let expected = spec.function(*dest).unwrap().reference_result(&readings);
//!     assert!((result - expected).abs() < 1e-9);
//! }
//! println!("round energy: {:.3} mJ", report.cost().total_mj());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod baselines;
pub mod basestation;
pub mod campaign;
pub mod config;
pub mod dissemination;
pub mod dvc;
pub mod dynamics;
pub mod edge_opt;
pub mod exec;
pub mod faults;
pub mod fxhash;
pub mod memo;
pub mod metrics;
pub mod milestones;
pub mod multi;
pub mod node_machine;
pub mod obs;
pub mod parallel;
pub mod plan;
pub mod redundancy;
pub mod resilience;
#[cfg(any(test, feature = "test-oracle"))]
pub mod runtime;
pub mod schedule;
pub mod service;
pub mod session;
pub mod sharing;
pub mod sim;
pub mod slots;
pub mod spec;
pub mod suppression;
pub mod tables;
pub mod telemetry;
pub mod textio;
pub mod topo;
pub mod workload;

pub use m2m_telemetry::m2m_log;

/// Convenience re-exports for typical use.
pub mod prelude {
    pub use crate::agg::{AggregateFunction, AggregateKind, PartialRecord};
    pub use crate::baselines::{plan_for_algorithm, Algorithm};
    pub use crate::config::{Config, Runtime};
    pub use crate::dynamics::{PlanMaintainer, WorkloadUpdate};
    pub use crate::edge_opt::{EdgeProblem, EdgeSolution};
    pub use crate::exec::{
        run_epochs_slab, CompiledSchedule, EpochDriver, EpochSlab, ExecState, DEFAULT_LANE_WIDTH,
        SUPPORTED_LANE_WIDTHS,
    };
    pub use crate::faults::{
        ChurnController, DegradationTracker, DestCoverage, FaultOutcome, FaultyExec, RetryPolicy,
    };
    pub use crate::memo::{SharedSolveCache, SolveCache};
    pub use crate::metrics::RoundCost;
    pub use crate::obs::{FlightRecorder, RoundPoint};
    pub use crate::plan::GlobalPlan;
    pub use crate::service::{Admission, PlanService, TenantId, TenantOptions};
    pub use crate::session::{RoundDetail, RoundReport, Session, SessionBuilder};
    pub use crate::sharing::{
        multi_query_analysis, shared_record_analysis, MultiQueryReport, SharingReport,
    };
    pub use crate::spec::AggregationSpec;
    pub use crate::topo::{EdgeIdx, NodeIdx, Topology};
    pub use crate::workload::{generate_workload, WorkloadConfig};
    pub use m2m_graph::NodeId;
    pub use m2m_netsim::{
        DeliveryModel, Deployment, EnergyModel, FailureTrace, LinkQuality, Network, RoutingMode,
        RoutingTables,
    };
}
