//! The span vocabulary: one name per pipeline layer, the same names the
//! pipeline benchmark reports its per-layer table under (`<name>_ms`).
//!
//! Each span sits inside the function that does the layer's work, so
//! every front end that calls the function is traced, whichever crate
//! it lives in. Spans nest: a plan build shows `topo.intern`,
//! `edge_opt.problems`, `edge_opt.solve` and `plan.assemble` side by
//! side, and `sim.lower` contains the `faults.lower` it builds on.

macro_rules! layers {
    ($($(#[doc = $doc:literal])* $id:ident = $name:literal,)*) => {
        $($(#[doc = $doc])* pub const $id: &str = $name;)*
        /// Every span name, in pipeline order.
        pub const ALL: &[&str] = &[$($id),*];
    };
}

layers! {
    /// `Network::new`: the radio graph and the hop matrix.
    NETWORK_BUILD = "network.build",
    /// `RoutingTables::build`: the multicast forest.
    ROUTING_BUILD = "routing.build",
    /// `quality::weighted_routing`: ETX-weighted multicast trees.
    QUALITY_WEIGHTED_ROUTING = "quality.weighted_routing",
    /// `Topology::snapshot`: the demanded topology, interned.
    TOPO_INTERN = "topo.intern",
    /// `build_edge_problems`: one vertex-cover problem per demanded edge.
    EDGE_OPT_PROBLEMS = "edge_opt.problems",
    /// `solve_edge_slab` / `solve_edge_batch`: the per-edge solve fan-out.
    EDGE_OPT_SOLVE = "edge_opt.solve",
    /// `SolveCache::solve_all` / `SharedSolveCache::solve_all`.
    MEMO_SOLVE_ALL = "memo.solve_all",
    /// Global plan assembly and its availability repair sweep.
    PLAN_ASSEMBLE = "plan.assemble",
    /// `build_schedule`: the §3 message schedule.
    SCHEDULE_BUILD = "schedule.build",
    /// Lowering a schedule into the compiled executor.
    EXEC_LOWER = "exec.lower",
    /// `FaultyExec::new`: the lossy executor's TDMA tables.
    FAULTS_LOWER = "faults.lower",
    /// `SimExec::with_params`: the event-driven executor.
    SIM_LOWER = "sim.lower",
    /// `PlanMaintainer` installing new routes (incremental re-plan).
    DYNAMICS_ROUTE_CHANGE = "dynamics.route_change",
    /// `run_epochs_slab`: one batch of compiled rounds.
    EXEC_ROUNDS = "exec.rounds",
    /// One lossy round.
    FAULTS_ROUND = "faults.round",
    /// One event-driven round.
    SIM_ROUND = "sim.round",
}
