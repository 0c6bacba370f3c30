//! Telemetry for the optimizer and executor: the shared instrumentation
//! facade plus the plan-explainability report.
//!
//! The facade itself lives in the dependency-free `m2m-telemetry` crate
//! (re-exported here wholesale), so `m2m-netsim` can emit events without
//! depending on this crate. This module adds what is core-specific:
//!
//! * [`names`] — the registry of counter names every instrumentation
//!   site in the workspace uses, so consumers (benchmarks, the verify
//!   gate) can read snapshots without grepping for string literals (span
//!   names are the pipeline layers of [`layer`]);
//! * [`explain`](fn@explain) / [`PlanExplain`] — a deterministic report
//!   that walks a [`GlobalPlan`] and states, per directed edge, which
//!   values cross raw and which as partial records, with the cover-side
//!   rationale and byte costs (§2.2's decision, made legible). Rendered
//!   as stable text (golden-tested) and JSON (consumed by the `explain`
//!   bench bin).
//!
//! Instrumentation is gated by one atomic flag word ([`enabled`],
//! [`timeseries::obs_enabled`]): when tracing and observability are off
//! — the default — every site, each layer [`span`] included, costs one
//! relaxed load. `M2M_TRACE=1` turns tracing on; [`snapshot`] aggregates
//! the per-thread shards, where each span leaves a histogram under its
//! layer name. The property test `tests/telemetry_equivalence.rs` pins
//! the contract that none of this ever changes a plan, a round result,
//! or a cost.

pub use m2m_telemetry::*;

use std::collections::BTreeMap;

use m2m_graph::NodeId;

use crate::agg::RAW_VALUE_BYTES;
use crate::edge_opt::{price, solve_edge, DirectedEdge, EdgeProblem, EdgeSolution};
use crate::plan::GlobalPlan;
use crate::spec::AggregationSpec;

/// Canonical counter / distribution names used by the instrumentation
/// sites across the workspace. One name, one site meaning — benchmark
/// exporters and the verify gate key on these. Span histograms are named
/// by their layer instead ([`crate::telemetry::layer`], e.g.
/// `plan.assemble`), one span inside each layer's function.
pub mod names {
    /// Single-edge vertex-cover problems solved ([`crate::edge_opt`]).
    pub const EDGE_OPT_SOLVES: &str = "edge_opt.solves";
    /// Sources chosen to cross an edge raw, summed over solves.
    pub const EDGE_OPT_RAW_UNITS: &str = "edge_opt.raw_units";
    /// Continuation groups chosen as partial records, summed over solves.
    pub const EDGE_OPT_RECORD_UNITS: &str = "edge_opt.record_units";
    /// Distribution of cover sizes (units per solved edge).
    pub const EDGE_OPT_COVER_SIZE: &str = "edge_opt.cover_size";
    /// Dinic BFS level-graph phases, summed over solves.
    pub const MAXFLOW_BFS_PHASES: &str = "maxflow.bfs_phases";
    /// Dinic augmenting paths, summed over solves.
    pub const MAXFLOW_AUGMENTING_PATHS: &str = "maxflow.augmenting_paths";

    /// [`crate::memo::SharedSolveCache`] lookups served from the cache.
    pub const MEMO_HITS: &str = "memo.hits";
    /// [`crate::memo::SharedSolveCache`] lookups that required a fresh solve.
    pub const MEMO_MISSES: &str = "memo.misses";

    /// Global plan assemblies ([`crate::plan::GlobalPlan`]).
    pub const PLAN_BUILDS: &str = "plan.builds";
    /// Edges patched by the §2.3 availability sweep, summed over builds.
    pub const PLAN_REPAIRS: &str = "plan.repairs";

    /// Incremental updates applied by [`crate::dynamics::PlanMaintainer`].
    pub const DYNAMICS_UPDATES: &str = "dynamics.updates";
    /// Edges reused verbatim across updates (Corollary 1).
    pub const DYNAMICS_EDGES_REUSED: &str = "dynamics.edges_reused";
    /// Edges re-solved because their single-edge inputs changed.
    pub const DYNAMICS_EDGES_REOPTIMIZED: &str = "dynamics.edges_reoptimized";

    /// Schedule builds whose fully merged message graph was cyclic, so
    /// the greedy per-edge merge loop ran ([`crate::schedule`]).
    pub const SCHEDULE_MERGE_FALLBACKS: &str = "schedule.merge_fallbacks";
    /// Bytes of per-node slot sets, summed over TDMA slot assignments
    /// ([`crate::slots::assign_slots`]).
    pub const SLOTS_SET_BYTES: &str = "slots.set_bytes";

    /// Schedule lowerings ([`crate::exec::CompiledSchedule`]).
    pub const EXEC_COMPILES: &str = "exec.compiles";
    /// Rounds executed through the compiled path.
    pub const EXEC_ROUNDS: &str = "exec.rounds";
    /// Updates that forced a full recompile of a live plan's compiled
    /// schedule ([`crate::session::Session`]).
    pub const EXEC_RECOMPILES: &str = "exec.recompiles";
    /// Updates absorbed as in-place weight refreshes.
    pub const EXEC_REFRESHES: &str = "exec.refreshes";

    /// Fault-tolerant rounds executed ([`crate::faults::FaultyExec`]).
    pub const FAULTS_ROUNDS: &str = "faults.rounds";
    /// Failed transmission attempts, summed over fault-tolerant rounds.
    pub const FAULTS_RETRANSMISSIONS: &str = "faults.retransmissions";
    /// Messages abandoned after exhausting their retry budget.
    pub const FAULTS_DROPPED_MESSAGES: &str = "faults.dropped_messages";
    /// Destinations that ended a round with partial source coverage.
    pub const FAULTS_DEGRADED_DESTINATIONS: &str = "faults.degraded_destinations";
    /// Fault-executor lowerings ([`crate::faults::FaultyExec::new`]).
    pub const FAULTS_BUILDS: &str = "faults.builds";
    /// Route recomputations triggered by ETX drift past the hysteresis
    /// threshold ([`crate::faults::ChurnController`]).
    pub const FAULTS_REROUTES: &str = "faults.reroutes";
    /// Drift observations absorbed below the hysteresis threshold.
    pub const FAULTS_REROUTES_SUPPRESSED: &str = "faults.reroutes_suppressed";

    /// Event-driven simulator lowerings ([`crate::sim::SimExec::new`]).
    pub const SIM_BUILDS: &str = "sim.builds";
    /// Rounds executed through the event-driven simulator.
    pub const SIM_ROUNDS: &str = "sim.rounds";
    /// Events processed by the simulator's event wheel, summed.
    pub const SIM_EVENTS: &str = "sim.events";
    /// Per-link queue pushes past the configured bound, summed.
    pub const SIM_QUEUE_OVERFLOWS: &str = "sim.queue_overflows";

    /// Distributed cover solves completed ([`crate::dvc`]).
    pub const DVC_SOLVES: &str = "dvc.solves";
    /// Negotiation rounds until the distributed solve converged, summed.
    pub const DVC_ROUNDS: &str = "dvc.rounds";
    /// Negotiation messages exchanged by the distributed solve, summed.
    pub const DVC_MESSAGES: &str = "dvc.messages";

    // Routing-tree construction counters are defined next to their site
    // in `m2m-netsim` (which cannot depend on this crate); re-exported
    // here so consumers have one namespace.
    pub use m2m_netsim::routing::{ROUTING_BUILDS, ROUTING_TREES, ROUTING_TREE_EDGES};
}

/// Why one transmitted unit is in the minimum-weight cover: a raw value
/// chosen on the source side of the bipartite graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawExplain {
    /// The source whose reading crosses the edge raw.
    pub source: NodeId,
    /// Bytes the raw value occupies.
    pub bytes: u32,
    /// Destinations downstream of this edge that consume the raw value —
    /// the multicast sharing that justifies the source-side choice.
    pub serves: Vec<NodeId>,
}

/// Why one transmitted unit is in the cover: a partial aggregate record
/// chosen on the destination side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordExplain {
    /// The destination the record is for.
    pub destination: NodeId,
    /// Bytes the partial record occupies.
    pub bytes: u32,
    /// Sources whose values the record compresses on this edge — the
    /// fan-in that justifies the destination-side choice.
    pub merges: Vec<NodeId>,
    /// Hops remaining from the edge's head to the destination.
    pub remaining_hops: usize,
}

/// The explainability report for one directed edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeExplain {
    /// The directed edge `tail → head`.
    pub edge: DirectedEdge,
    /// `|S_e|`: sources routed through the edge.
    pub sources: usize,
    /// `|D_e|` refined into continuation groups.
    pub groups: usize,
    /// Raw units in the chosen cover.
    pub raw: Vec<RawExplain>,
    /// Record units in the chosen cover.
    pub records: Vec<RecordExplain>,
    /// Payload bytes of the chosen cover.
    pub cost_bytes: u64,
    /// Cost of the all-raw alternative (pure multicast on this edge).
    pub all_raw_bytes: u64,
    /// Cost of the all-records alternative (pure aggregation).
    pub all_records_bytes: u64,
    /// True if the edge problem matches the paper's exact formulation
    /// (one continuation group per destination, §2.1 sharing).
    pub sharing_coherent: bool,
    /// True if the §2.3 availability sweep patched this edge away from
    /// its single-edge optimum (rare; only under per-source trees).
    pub repaired: bool,
}

impl EdgeExplain {
    /// One-line decision rationale for this edge.
    pub fn rationale(&self) -> String {
        if self.repaired {
            return format!(
                "repaired: upstream aggregation removed raw availability, \
                 forced {} record(s) (cover no longer the single-edge optimum)",
                self.records.len()
            );
        }
        let chosen = self.cost_bytes;
        if self.records.is_empty() {
            format!(
                "all-raw optimal at {chosen} B: every value is shared or \
                 no cheaper record covers it (all-records {} B)",
                self.all_records_bytes
            )
        } else if self.raw.is_empty() {
            format!(
                "all-records optimal at {chosen} B: fan-in compression beats \
                 multicasting raws (all-raw {} B)",
                self.all_raw_bytes
            )
        } else {
            format!(
                "mixed cover optimal at {chosen} B: raws kept where shared, \
                 records where fan-in compresses (all-raw {} B, all-records {} B)",
                self.all_raw_bytes, self.all_records_bytes
            )
        }
    }
}

/// The full plan-explainability report ([`explain`](fn@explain)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanExplain {
    /// Per-edge reports in ascending edge order (deterministic).
    pub edges: Vec<EdgeExplain>,
    /// Total payload bytes per round.
    pub payload_bytes: u64,
    /// Edges patched by the availability sweep.
    pub repairs: usize,
}

/// Walks a [`GlobalPlan`] and explains every per-edge decision. The
/// report is deterministic: edges ascend, and every inner list is sorted.
///
/// `repaired` edges are detected by re-solving each single-edge problem
/// and comparing with the installed solution — the sweep is the only
/// thing that ever moves a solution off its per-edge optimum.
pub fn explain(plan: &GlobalPlan, spec: &AggregationSpec) -> PlanExplain {
    let edges = plan
        .problems()
        .iter()
        .zip(plan.solutions())
        .map(|(problem, solution)| explain_edge(problem, solution, spec))
        .collect();
    PlanExplain {
        edges,
        payload_bytes: plan.total_payload_bytes(),
        repairs: plan.repair_count(),
    }
}

fn explain_edge(
    problem: &EdgeProblem,
    solution: &EdgeSolution,
    spec: &AggregationSpec,
) -> EdgeExplain {
    let record_bytes = |d: NodeId| -> u32 {
        spec.function(d)
            .expect("group destination must have a function")
            .partial_record_bytes()
    };
    let raw = solution
        .raw
        .iter()
        .map(|&s| {
            let si = problem
                .sources
                .binary_search(&s)
                .expect("raw source is in the problem");
            let mut serves: Vec<NodeId> = problem
                .pairs
                .iter()
                .filter(|&&(psi, _)| psi == si)
                .map(|&(_, gi)| problem.groups[gi].destination)
                .collect();
            serves.sort_unstable();
            serves.dedup();
            RawExplain {
                source: s,
                bytes: RAW_VALUE_BYTES,
                serves,
            }
        })
        .collect();
    let records = solution
        .agg
        .iter()
        .map(|group| {
            let gi = problem
                .groups
                .binary_search(group)
                .expect("record group is in the problem");
            RecordExplain {
                destination: group.destination,
                bytes: record_bytes(group.destination),
                merges: problem.group_sources(gi).collect(),
                remaining_hops: group.suffix.len().saturating_sub(1),
            }
        })
        .collect();
    let all_raw_bytes = price(&problem.sources, &[], &record_bytes);
    let all_records_bytes = price(&[], &problem.groups, &record_bytes);
    let repaired = &solve_edge(problem, spec) != solution;
    EdgeExplain {
        edge: problem.edge,
        sources: problem.sources.len(),
        groups: problem.groups.len(),
        raw,
        records,
        cost_bytes: solution.cost_bytes,
        all_raw_bytes,
        all_records_bytes,
        sharing_coherent: problem.is_sharing_coherent(),
        repaired,
    }
}

fn node_list(nodes: &[NodeId]) -> String {
    let parts: Vec<String> = nodes.iter().map(|n| n.to_string()).collect();
    parts.join(", ")
}

impl PlanExplain {
    /// Destinations appearing in the plan, with the payload bytes spent
    /// on records for each (ascending destination order).
    pub fn record_bytes_per_destination(&self) -> BTreeMap<NodeId, u64> {
        let mut per_dest: BTreeMap<NodeId, u64> = BTreeMap::new();
        for edge in &self.edges {
            for rec in &edge.records {
                *per_dest.entry(rec.destination).or_insert(0) += u64::from(rec.bytes);
            }
        }
        per_dest
    }

    /// The deterministic text rendering (golden-tested). Stable across
    /// runs and thread counts because the plan itself is.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let raw_units: usize = self.edges.iter().map(|e| e.raw.len()).sum();
        let record_units: usize = self.edges.iter().map(|e| e.records.len()).sum();
        let _ = writeln!(out, "plan explainability report");
        let _ = writeln!(
            out,
            "{} edges, {} raw + {} record units, {} payload bytes/round, {} repairs",
            self.edges.len(),
            raw_units,
            record_units,
            self.payload_bytes,
            self.repairs
        );
        for e in &self.edges {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "edge {} -> {}: {} source(s), {} group(s){}{}",
                e.edge.0,
                e.edge.1,
                e.sources,
                e.groups,
                if e.sharing_coherent {
                    ", coherent"
                } else {
                    ", incoherent"
                },
                if e.repaired { ", repaired" } else { "" },
            );
            for r in &e.raw {
                let _ = writeln!(
                    out,
                    "  raw {} ({} B) -> serves {}",
                    r.source,
                    r.bytes,
                    node_list(&r.serves)
                );
            }
            for r in &e.records {
                let _ = writeln!(
                    out,
                    "  rec {} ({} B) <- merges {} ({} hop(s) to go)",
                    r.destination,
                    r.bytes,
                    node_list(&r.merges),
                    r.remaining_hops
                );
            }
            let _ = writeln!(out, "  {}", e.rationale());
        }
        out
    }

    /// The JSON rendering, mirroring [`PlanExplain::to_text`] field for
    /// field (consumed by the `explain` bench bin).
    pub fn to_json(&self) -> json::JsonValue {
        use json::JsonValue;
        let edges: Vec<JsonValue> = self
            .edges
            .iter()
            .map(|e| {
                let raw: Vec<JsonValue> = e
                    .raw
                    .iter()
                    .map(|r| {
                        JsonValue::object()
                            .with("source", u64::from(r.source.0))
                            .with("bytes", r.bytes)
                            .with(
                                "serves",
                                JsonValue::Array(
                                    r.serves.iter().map(|d| u64::from(d.0).into()).collect(),
                                ),
                            )
                    })
                    .collect();
                let records: Vec<JsonValue> = e
                    .records
                    .iter()
                    .map(|r| {
                        JsonValue::object()
                            .with("destination", u64::from(r.destination.0))
                            .with("bytes", r.bytes)
                            .with(
                                "merges",
                                JsonValue::Array(
                                    r.merges.iter().map(|s| u64::from(s.0).into()).collect(),
                                ),
                            )
                            .with("remaining_hops", r.remaining_hops)
                    })
                    .collect();
                JsonValue::object()
                    .with("tail", u64::from(e.edge.0 .0))
                    .with("head", u64::from(e.edge.1 .0))
                    .with("sources", e.sources)
                    .with("groups", e.groups)
                    .with("raw", JsonValue::Array(raw))
                    .with("records", JsonValue::Array(records))
                    .with("cost_bytes", e.cost_bytes)
                    .with("all_raw_bytes", e.all_raw_bytes)
                    .with("all_records_bytes", e.all_records_bytes)
                    .with("sharing_coherent", e.sharing_coherent)
                    .with("repaired", e.repaired)
                    .with("rationale", e.rationale())
            })
            .collect();
        JsonValue::object()
            .with("payload_bytes", self.payload_bytes)
            .with("repairs", self.repairs)
            .with("edges", JsonValue::Array(edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

    fn setup() -> (AggregationSpec, RoutingTables, GlobalPlan) {
        let net = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(12),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 2.0), (NodeId(5), 0.5)]),
        );
        spec.add_function(
            NodeId(15),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0), (NodeId(2), 1.0)]),
        );
        let routing = RoutingTables::build(
            &net,
            &spec.source_to_destinations(),
            RoutingMode::ShortestPathTrees,
        );
        let plan = GlobalPlan::build(&net, &spec, &routing);
        (spec, routing, plan)
    }

    #[test]
    fn explain_covers_every_edge_and_is_deterministic() {
        let (spec, _routing, plan) = setup();
        let report = explain(&plan, &spec);
        assert_eq!(report.edges.len(), plan.solutions().len());
        assert_eq!(report.payload_bytes, plan.total_payload_bytes());
        assert_eq!(report, explain(&plan, &spec));
        // Edge order ascends.
        for w in report.edges.windows(2) {
            assert!(w[0].edge < w[1].edge);
        }
    }

    #[test]
    fn explain_costs_are_consistent_with_the_cover() {
        let (spec, _routing, plan) = setup();
        let report = explain(&plan, &spec);
        for e in &report.edges {
            let recomputed: u64 = e.raw.iter().map(|r| u64::from(r.bytes)).sum::<u64>()
                + e.records.iter().map(|r| u64::from(r.bytes)).sum::<u64>();
            assert_eq!(recomputed, e.cost_bytes, "edge {:?}", e.edge);
            // The chosen cover can never beat both degenerate covers.
            assert!(e.cost_bytes <= e.all_raw_bytes.max(e.all_records_bytes));
            // Every raw unit serves at least one destination; every record
            // merges at least one source.
            for r in &e.raw {
                assert!(!r.serves.is_empty());
            }
            for r in &e.records {
                assert!(!r.merges.is_empty());
            }
        }
    }

    #[test]
    fn unrepaired_optimal_plan_explains_as_optimal() {
        let (spec, _routing, plan) = setup();
        if plan.repair_count() == 0 {
            let report = explain(&plan, &spec);
            assert!(report.edges.iter().all(|e| !e.repaired));
        }
    }

    #[test]
    fn text_and_json_render_every_edge() {
        let (spec, _routing, plan) = setup();
        let report = explain(&plan, &spec);
        let text = report.to_text();
        assert!(text.starts_with("plan explainability report"));
        for e in &report.edges {
            assert!(text.contains(&format!("edge {} -> {}", e.edge.0, e.edge.1)));
        }
        let json = report.to_json().render();
        assert!(json.contains("\"payload_bytes\""));
        assert!(json.contains("\"rationale\""));
    }

    #[test]
    fn record_bytes_per_destination_sums_to_record_payload() {
        let (spec, _routing, plan) = setup();
        let report = explain(&plan, &spec);
        let per_dest = report.record_bytes_per_destination();
        let total: u64 = per_dest.values().sum();
        let from_edges: u64 = report
            .edges
            .iter()
            .flat_map(|e| e.records.iter().map(|r| u64::from(r.bytes)))
            .sum();
        assert_eq!(total, from_edges);
    }
}
