//! The unified Session API: one object that owns the whole pipeline —
//! plan maintenance, compiled execution, fault-tolerant rounds, and the
//! quality-drift churn loop — configured through one typed
//! [`Config`].
//!
//! Before this module, a full deployment required wiring five layers by
//! hand: build routing tables, assemble a [`crate::plan::GlobalPlan`],
//! compile it, keep a [`crate::dynamics::PlanMaintainer`] in sync, and
//! (for lossy links) drive [`FaultyExec`] with fresh salts. [`Session`]
//! packages that wiring behind a builder:
//!
//! ```
//! use m2m_core::prelude::*;
//!
//! let net = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0));
//! let mut spec = AggregationSpec::new();
//! spec.add_function(
//!     NodeId(12),
//!     AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(5), 2.0)]),
//! );
//! let mut session = Session::builder(net, spec)
//!     .routing_mode(RoutingMode::ShortestPathTrees)
//!     .build();
//! let readings: std::collections::BTreeMap<NodeId, f64> =
//!     session.network().nodes().map(|v| (v, 1.0)).collect();
//! let report = session.run(&readings);
//! assert!((report.result(NodeId(12)).unwrap() - 3.0).abs() < 1e-9);
//! assert!(report.cost().total_uj() > 0.0);
//! ```
//!
//! # One `run`, three runtimes
//!
//! [`Session::run`] and [`Session::run_rounds`] dispatch on the
//! session's [`Runtime`] — [`Runtime::Compiled`] (the lock-step fast
//! path), [`Runtime::Lossy`] (per-link loss with retries, salts drawn
//! from the replayable stream), or [`Runtime::Sim`] (the discrete-event
//! runtime with queue/latency modeling). Choose it with
//! [`SessionBuilder::runtime`] or process-wide with
//! [`crate::config::ConfigBuilder::runtime`] / `M2M_RUNTIME`. Every
//! round comes back as one [`RoundReport`]; runtime-specific detail
//! stays reachable through [`RoundReport::fault`] and
//! [`RoundReport::sim`].
//!
//! The fault-tolerant loop adds a [`DeliveryModel`] and, optionally, a
//! tracked [`LinkQuality`]: lossy rounds execute under the configured
//! [`RetryPolicy`], feeding a [`DegradationTracker`];
//! [`Session::observe_quality`] closes the churn loop — ETX drift past
//! the configured hysteresis rebuilds the routing tables
//! ([`m2m_netsim::quality::weighted_routing`]), pushes them through the
//! incremental maintainer, and recompiles only what changed.
//!
//! # Shared substrates
//!
//! A session holds its deployment as `Arc<Network>` and accepts one by
//! value or shared ([`Session::builder`] takes `impl Into<Arc<Network>>`),
//! so many sessions — the tenants of a [`crate::service::PlanService`] —
//! can plan over one network without cloning it. A caller that already
//! holds interned routing tables and a topology snapshot for the same
//! `(spec, mode)` hands them in with [`SessionBuilder::substrate`], and
//! a cross-tenant [`SharedSolveCache`] with
//! [`SessionBuilder::solve_cache`]; both paths produce plans
//! bit-identical to planning from scratch (pure solves, unique minima).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use m2m_graph::NodeId;
use m2m_netsim::quality::{weighted_routing, LinkQuality};
use m2m_netsim::{DeliveryModel, Network, RoutingMode, RoutingTables};

use crate::agg::AggregateKind;
use crate::config::{Config, Runtime};
use crate::dynamics::{PlanMaintainer, UpdateStats, WorkloadUpdate};
use crate::edge_opt::{build_edge_problems, solve_edge_slab};
use crate::exec::{run_epochs_slab, CompiledSchedule, EpochSlab, ExecState};
use crate::faults::{
    ChurnController, DegradationTracker, FaultOutcome, FaultyExec, RetryPolicy, SALT_STRIDE,
};
use crate::memo::SharedSolveCache;
use crate::metrics::RoundCost;
use crate::obs::{FlightRecorder, DEFAULT_BATTERY_UJ};
use crate::service::demand_pairs;
use crate::sim::{SimExec, SimOutcome, SimState};
use crate::spec::AggregationSpec;
use crate::topo::Topology;

/// The default base salt for lossy rounds; chosen arbitrarily, fixed for
/// replayability. Override with [`SessionBuilder::base_salt`].
pub(crate) const DEFAULT_BASE_SALT: u64 = 0x6d32_6d5f_7365_6564; // "m2m_seed"

/// Builder for [`Session`] — see the module docs for the full tour.
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    network: Arc<Network>,
    spec: AggregationSpec,
    mode: RoutingMode,
    config: Config,
    delivery: DeliveryModel,
    quality: Option<LinkQuality>,
    base_salt: u64,
    runtime: Option<Runtime>,
    substrate: Option<(Arc<RoutingTables>, Arc<Topology>)>,
    solve_cache: Option<Arc<Mutex<SharedSolveCache>>>,
}

impl SessionBuilder {
    /// Routing-tree construction mode (default:
    /// [`RoutingMode::ShortestPathTrees`], the paper's standard
    /// algorithm). Ignored for the *initial* routes when a tracked
    /// quality is set (they are then ETX-weighted), but still used by
    /// the maintainer for workload-driven re-routes.
    #[must_use]
    pub fn routing_mode(mut self, mode: RoutingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the configuration (default: [`Config::from_env`]).
    #[must_use]
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// The runtime [`Session::run`] / [`Session::run_rounds`] dispatch
    /// to. Overrides the configuration's [`Config::runtime`] (which is
    /// the default when this is not set).
    #[must_use]
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// The delivery model lossy rounds run under (default: reliable).
    #[must_use]
    pub fn delivery(mut self, model: DeliveryModel) -> Self {
        self.delivery = model;
        self
    }

    /// Tracks link quality: the session plans on ETX-weighted routes for
    /// this baseline from the start, and [`Session::observe_quality`]
    /// arms the churn loop with the configured hysteresis.
    #[must_use]
    pub fn quality(mut self, quality: LinkQuality) -> Self {
        self.quality = Some(quality);
        self
    }

    /// Base salt for the lossy-round failure stream (fixed default, so
    /// sessions are replayable; change it to decorrelate experiments).
    #[must_use]
    pub fn base_salt(mut self, salt: u64) -> Self {
        self.base_salt = salt;
        self
    }

    /// Reuses an already-built substrate — interned routing tables and
    /// the matching topology snapshot — instead of routing and snapping
    /// from scratch. The resulting plan is bit-identical to a cold
    /// build: the snapshot fixes the edge slab, per-edge solves are pure,
    /// and assembly is deterministic.
    ///
    /// [`SessionBuilder::build`] panics if `routing`'s mode disagrees with
    /// the builder's [`SessionBuilder::routing_mode`] or if `topo`'s
    /// demanded pairs are not exactly the spec's
    /// ([`Topology::demanded_pairs`]).
    ///
    /// A tracked [`SessionBuilder::quality`] wins: the session then
    /// ignores the substrate (unchecked) and builds the plan the quality
    /// alone builds, on ETX-weighted routes.
    #[must_use]
    pub fn substrate(mut self, routing: Arc<RoutingTables>, topo: Arc<Topology>) -> Self {
        self.substrate = Some((routing, topo));
        self
    }

    /// Routes per-edge solves through a cross-tenant [`SharedSolveCache`]
    /// so content-equal problems solved by earlier sessions are served
    /// cached (bit-identical to fresh solves).
    #[must_use]
    pub fn solve_cache(mut self, cache: Arc<Mutex<SharedSolveCache>>) -> Self {
        self.solve_cache = Some(cache);
        self
    }

    /// Builds the session in one pass: routes (ETX-weighted when a
    /// quality is tracked, else the caller's substrate, else in the
    /// builder's mode), solves (through the shared cache if set), plans,
    /// and compiles once.
    ///
    /// # Panics
    /// Panics if the initial plan is unschedulable (Theorem 2 cycle), or
    /// if a supplied [`SessionBuilder::substrate`] does not match the
    /// builder's routing mode and spec.
    pub fn build(self) -> Session {
        let SessionBuilder {
            network,
            spec,
            mode,
            config,
            delivery,
            quality,
            base_salt,
            runtime,
            substrate,
            solve_cache,
        } = self;
        config.apply();
        let (routing, topo) = match (&quality, substrate) {
            (None, Some((routing, topo))) => {
                assert_eq!(
                    routing.mode(),
                    mode,
                    "substrate routing mode must match the builder's routing mode"
                );
                assert_eq!(
                    topo.demanded_pairs(),
                    demand_pairs(&spec),
                    "substrate topology must cover exactly the spec's demanded pairs"
                );
                (routing, topo)
            }
            (quality, _) => {
                let demands = spec.source_to_destinations();
                let routing = match quality {
                    Some(q) => weighted_routing(&network, &demands, q),
                    None => RoutingTables::build(&network, &demands, mode),
                };
                let topo = Arc::new(Topology::snapshot(&spec, &routing));
                (Arc::new(routing), topo)
            }
        };
        let problems = build_edge_problems(&topo);
        let threads = config.resolved_threads();
        let solutions = match &solve_cache {
            Some(cache) => cache
                .lock()
                .expect("shared solve cache poisoned")
                .solve_all(&problems, &spec, threads),
            None => solve_edge_slab(&problems, &spec, threads),
        };
        let maintainer =
            PlanMaintainer::from_parts(network, spec, mode, routing, topo, problems, solutions);
        Session::from_maintainer(maintainer, config, runtime, delivery, quality, base_salt, 0)
    }
}

/// Runtime-specific detail carried by a [`RoundReport`].
#[derive(Clone, Debug, PartialEq)]
pub enum RoundDetail {
    /// The compiled fast path: reliable links, every result present.
    Compiled,
    /// The lossy runtime's full outcome (coverage, retransmissions,
    /// link events).
    Lossy(FaultOutcome),
    /// The discrete-event runtime's full outcome (plus queue pressure).
    Sim(SimOutcome),
}

/// One round's outcome, uniform across runtimes: per-destination results
/// in [`CompiledSchedule::destinations`] order, the round's energy cost,
/// and whether every demanded value was delivered. Runtime-specific
/// detail stays reachable through [`RoundReport::detail`] (or the
/// [`RoundReport::fault`] / [`RoundReport::sim`] shortcuts).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundReport {
    destinations: Vec<NodeId>,
    results: Vec<Option<f64>>,
    cost: RoundCost,
    delivered: bool,
    detail: RoundDetail,
}

impl RoundReport {
    fn compiled(destinations: Vec<NodeId>, results: &[f64], cost: RoundCost) -> Self {
        RoundReport {
            destinations,
            results: results.iter().copied().map(Some).collect(),
            cost,
            delivered: true,
            detail: RoundDetail::Compiled,
        }
    }

    fn from_fault(destinations: Vec<NodeId>, out: FaultOutcome) -> Self {
        RoundReport {
            destinations,
            results: out.results.clone(),
            cost: out.cost,
            delivered: out.delivered,
            detail: RoundDetail::Lossy(out),
        }
    }

    fn from_sim(destinations: Vec<NodeId>, out: SimOutcome) -> Self {
        RoundReport {
            destinations,
            results: out.outcome.results.clone(),
            cost: out.outcome.cost,
            delivered: out.outcome.delivered,
            detail: RoundDetail::Sim(out),
        }
    }

    /// The destinations, in result order.
    #[inline]
    pub fn destinations(&self) -> &[NodeId] {
        &self.destinations
    }

    /// Per-destination results; `None` marks a destination whose value
    /// was lost this round (never on the compiled runtime).
    #[inline]
    pub fn results(&self) -> &[Option<f64>] {
        &self.results
    }

    /// The result delivered to `destination`, if any.
    pub fn result(&self, destination: NodeId) -> Option<f64> {
        self.destinations
            .iter()
            .position(|&d| d == destination)
            .and_then(|i| self.results[i])
    }

    /// The delivered results as a map (lost destinations are absent).
    pub fn result_map(&self) -> BTreeMap<NodeId, f64> {
        self.destinations
            .iter()
            .zip(&self.results)
            .filter_map(|(&d, r)| r.map(|v| (d, v)))
            .collect()
    }

    /// The round's energy cost.
    #[inline]
    pub fn cost(&self) -> RoundCost {
        self.cost
    }

    /// True when every demanded value reached its destination.
    #[inline]
    pub fn delivered(&self) -> bool {
        self.delivered
    }

    /// The runtime this round executed under.
    pub fn runtime(&self) -> Runtime {
        match self.detail {
            RoundDetail::Compiled => Runtime::Compiled,
            RoundDetail::Lossy(_) => Runtime::Lossy,
            RoundDetail::Sim(_) => Runtime::Sim,
        }
    }

    /// Runtime-specific detail.
    #[inline]
    pub fn detail(&self) -> &RoundDetail {
        &self.detail
    }

    /// The lossy runtime's full outcome, when this round ran under
    /// [`Runtime::Lossy`] or [`Runtime::Sim`] (a sim round wraps one).
    pub fn fault(&self) -> Option<&FaultOutcome> {
        match &self.detail {
            RoundDetail::Compiled => None,
            RoundDetail::Lossy(out) => Some(out),
            RoundDetail::Sim(out) => Some(&out.outcome),
        }
    }

    /// The discrete-event runtime's full outcome, when this round ran
    /// under [`Runtime::Sim`].
    pub fn sim(&self) -> Option<&SimOutcome> {
        match &self.detail {
            RoundDetail::Sim(out) => Some(out),
            _ => None,
        }
    }
}

/// One live aggregation deployment: plan, compiled executor, fault
/// engine, and churn loop behind a single facade. Construct with
/// [`Session::builder`].
///
/// The session is the one owner of its live plan and of everything
/// derived from it: the incremental maintainer, the compiled schedule,
/// and the lazily lowered lossy and sim executors. Every update runs
/// through one step that resyncs them: it recompiles when the update
/// changed the plan's structure — any re-solved, added or removed edge,
/// or a changed `(source, destination)` pair set or aggregate kind (a
/// destination adding itself as a source changes the schedule without
/// touching an edge problem) — and otherwise re-bakes the weights in
/// place ([`CompiledSchedule::refresh_weights`]).
#[derive(Debug)]
pub struct Session {
    config: Config,
    /// The runtime [`Session::run`] dispatches to.
    runtime: Runtime,
    maintainer: PlanMaintainer,
    /// The compiled executor for the maintainer's current plan.
    compiled: CompiledSchedule,
    recompiles: usize,
    refreshes: usize,
    delivery: DeliveryModel,
    /// Lowered from `compiled` on first use; dropped by every update.
    faults: Option<FaultyExec>,
    /// The discrete-event runtime and its warm state, lazily built and
    /// dropped alongside `faults`.
    sim: Option<(SimExec, SimState)>,
    churn: Option<ChurnController>,
    tracker: DegradationTracker,
    /// Present when the configuration enables observability
    /// ([`Config::obs`]); fed serially from every lossy round.
    recorder: Option<FlightRecorder>,
    base_salt: u64,
    /// Lossy rounds executed so far — advances the per-round salt.
    rounds_run: u64,
}

impl Session {
    /// The tail every session is built through, from a freshly planned
    /// maintainer ([`SessionBuilder::build`]) or a restored plan
    /// ([`crate::service::PlanService::restore`]): compiles the plan once,
    /// arms the churn loop when a quality is tracked, and starts the
    /// flight recorder, the degradation tracker and the salt cursor.
    ///
    /// # Panics
    /// Panics if the plan is unschedulable (Theorem 2 cycle).
    pub(crate) fn from_maintainer(
        maintainer: PlanMaintainer,
        config: Config,
        runtime: Option<Runtime>,
        delivery: DeliveryModel,
        quality: Option<LinkQuality>,
        base_salt: u64,
        rounds_run: u64,
    ) -> Session {
        let recorder = config
            .obs()
            .then(|| FlightRecorder::new(config.obs_every(), config.obs_cap()));
        Session {
            runtime: runtime.unwrap_or_else(|| config.runtime()),
            churn: quality.map(|q| ChurnController::new(q, config.hysteresis())),
            compiled: compile(&maintainer),
            maintainer,
            recompiles: 0,
            refreshes: 0,
            config,
            delivery,
            faults: None,
            sim: None,
            tracker: DegradationTracker::new(),
            recorder,
            base_salt,
            rounds_run,
        }
    }

    /// Starts building a session for `spec` over `network` (owned or
    /// shared — service tenants pass the deployment's `Arc`).
    pub fn builder(network: impl Into<Arc<Network>>, spec: AggregationSpec) -> SessionBuilder {
        SessionBuilder {
            network: network.into(),
            spec,
            mode: RoutingMode::ShortestPathTrees,
            config: Config::default(),
            delivery: DeliveryModel::reliable(),
            quality: None,
            base_salt: DEFAULT_BASE_SALT,
            runtime: None,
            substrate: None,
            solve_cache: None,
        }
    }

    /// The session's configuration.
    #[inline]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The runtime [`Session::run`] / [`Session::run_rounds`] execute
    /// under.
    #[inline]
    pub fn runtime(&self) -> Runtime {
        self.runtime
    }

    /// The network the plan is maintained for.
    #[inline]
    pub fn network(&self) -> &Network {
        self.maintainer.network()
    }

    /// A shared handle to the deployment this session plans over.
    #[inline]
    pub fn network_arc(&self) -> Arc<Network> {
        self.maintainer.network_arc()
    }

    /// The current workload.
    #[inline]
    pub fn spec(&self) -> &AggregationSpec {
        self.maintainer.spec()
    }

    /// The compiled executor for the current plan.
    #[inline]
    pub fn compiled(&self) -> &CompiledSchedule {
        &self.compiled
    }

    /// The incremental maintainer (plan, spec, routing).
    #[inline]
    pub fn maintainer(&self) -> &PlanMaintainer {
        &self.maintainer
    }

    /// How many updates forced a full recompile.
    #[inline]
    pub fn recompiles(&self) -> usize {
        self.recompiles
    }

    /// How many updates were absorbed as in-place weight refreshes.
    #[inline]
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// The delivery model lossy rounds run under.
    #[inline]
    pub fn delivery(&self) -> &DeliveryModel {
        &self.delivery
    }

    /// Swaps the delivery model (takes effect from the next lossy round).
    pub fn set_delivery(&mut self, model: DeliveryModel) {
        self.delivery = model;
    }

    /// The base salt the replayable failure stream draws from.
    #[inline]
    pub fn base_salt(&self) -> u64 {
        self.base_salt
    }

    /// Lossy/sim rounds executed so far — the salt-stream cursor. A
    /// service checkpoint persists it, and
    /// [`crate::service::PlanService::restore`] resumes the stream there.
    #[inline]
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Per-destination staleness accumulated over lossy rounds.
    #[inline]
    pub fn degradation(&self) -> &DegradationTracker {
        &self.tracker
    }

    /// The churn controller, if a tracked quality was configured.
    #[inline]
    pub fn churn(&self) -> Option<&ChurnController> {
        self.churn.as_ref()
    }

    /// The flight recorder, if observability is configured on.
    #[inline]
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Renders the flight recorder (plus the process-wide per-node
    /// planes) as the versioned observability dump, or `None` when
    /// observability is off. See [`FlightRecorder::dump`].
    pub fn obs_dump(&self) -> Option<m2m_telemetry::json::JsonValue> {
        self.recorder.as_ref().map(|r| r.dump(DEFAULT_BATTERY_UJ))
    }

    /// Executes one round under the session's [`Runtime`] and returns
    /// the unified [`RoundReport`]. A lossy or sim round is a one-row
    /// [`Session::run_rounds`] batch: it advances the replayable salt
    /// stream and feeds the degradation tracker; compiled rounds are pure
    /// and leave the cursor untouched.
    ///
    /// # Panics
    /// Panics if a source reading is missing.
    pub fn run(&mut self, readings: &BTreeMap<NodeId, f64>) -> RoundReport {
        let compiled = &self.compiled;
        match self.runtime {
            Runtime::Compiled => {
                let mut state = ExecState::for_schedule(compiled);
                let cost = compiled.run_round_on(readings, &mut state);
                RoundReport::compiled(compiled.destinations().collect(), state.results(), cost)
            }
            Runtime::Lossy | Runtime::Sim => {
                let row = compiled.dense_readings(readings);
                self.run_rounds(&[row]).pop().expect("one report per row")
            }
        }
    }

    /// Runs one round per dense reading row (in
    /// [`CompiledSchedule::sources`] slot order) under the session's
    /// [`Runtime`], returning one [`RoundReport`] per row. Batches are
    /// bit-identical to running the rows one at a time with
    /// [`Session::run`] at any configured thread count or lane width.
    pub fn run_rounds(&mut self, rounds: &[Vec<f64>]) -> Vec<RoundReport> {
        let destinations: Vec<NodeId> = self.compiled.destinations().collect();
        match self.runtime {
            Runtime::Compiled => {
                let slab = self.epochs_slab(rounds);
                (0..slab.rounds())
                    .map(|r| {
                        RoundReport::compiled(destinations.clone(), slab.round(r), slab.cost())
                    })
                    .collect()
            }
            Runtime::Lossy => self
                .lossy_rounds(rounds)
                .into_iter()
                .map(|out| RoundReport::from_fault(destinations.clone(), out))
                .collect(),
            Runtime::Sim => self
                .sim_rounds(rounds)
                .into_iter()
                .map(|out| RoundReport::from_sim(destinations.clone(), out))
                .collect(),
        }
    }

    /// The retry policy lossy rounds run under (from the configuration).
    #[inline]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.config.retry_policy()
    }

    fn epochs_slab(&self, rounds: &[Vec<f64>]) -> EpochSlab {
        run_epochs_slab(
            &self.compiled,
            rounds,
            self.config.lanes(),
            self.config.resolved_threads(),
        )
    }

    fn lossy_rounds(&mut self, rounds: &[Vec<f64>]) -> Vec<FaultOutcome> {
        self.ensure_faults();
        let policy = self.config.retry_policy();
        let first_round = self.rounds_run;
        let salt = self
            .base_salt
            .wrapping_add(first_round.wrapping_mul(SALT_STRIDE));
        self.rounds_run += rounds.len() as u64;
        let faults = self.faults.as_ref().expect("ensured above");
        let outcomes = faults.run_rounds(
            rounds,
            &self.delivery,
            &policy,
            salt,
            self.config.resolved_threads(),
        );
        for (i, out) in outcomes.iter().enumerate() {
            self.tracker.observe(out);
            if let Some(rec) = &mut self.recorder {
                rec.record_round(first_round + i as u64, out);
            }
        }
        outcomes
    }

    fn sim_rounds(&mut self, rounds: &[Vec<f64>]) -> Vec<SimOutcome> {
        self.ensure_sim();
        let policy = self.config.retry_policy();
        let first = self.rounds_run;
        self.rounds_run += rounds.len() as u64;
        let base_salt = self.base_salt;
        let delivery = &self.delivery;
        let (sim, st) = self.sim.as_mut().expect("ensured above");
        let outcomes: Vec<SimOutcome> = rounds
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let salt = base_salt.wrapping_add((first + i as u64).wrapping_mul(SALT_STRIDE));
                sim.run(row, delivery, &policy, salt, st)
            })
            .collect();
        for (i, out) in outcomes.iter().enumerate() {
            self.tracker.observe(&out.outcome);
            if let Some(rec) = &mut self.recorder {
                rec.record_round(first + i as u64, &out.outcome);
                rec.record_sim_round(first + i as u64, out);
            }
        }
        outcomes
    }

    /// Applies one workload update through the incremental maintainer;
    /// the compiled executor (and the fault engine, lazily) resync.
    pub fn apply(&mut self, update: WorkloadUpdate) -> UpdateStats {
        self.replan(|m| {
            let shape = spec_shape(m.spec());
            let stats = m.apply(update);
            (stats, spec_shape(m.spec()) != shape)
        })
    }

    /// Installs externally built routing tables and resyncs. Staleness
    /// measured the old paths, so it resets with them.
    pub fn apply_route_change(&mut self, routing: RoutingTables) -> UpdateStats {
        let stats = self.reroute(routing);
        if let Some(rec) = &mut self.recorder {
            rec.record_route_change(self.rounds_run);
        }
        stats
    }

    /// Installs new routes; staleness, which measured the old paths,
    /// resets with them. A route change leaves the spec alone, so only
    /// the maintainer's stats decide whether the plan's structure moved.
    fn reroute(&mut self, routing: RoutingTables) -> UpdateStats {
        self.tracker.reset_staleness();
        self.replan(|m| (m.apply_route_change(routing), false))
    }

    /// The one step every update runs through (see [`Session`]): the
    /// lossy and sim executors lowered from the old plan go first (they
    /// are rebuilt lazily on next use), `update` re-plans through the
    /// maintainer and reports its stats and whether it changed the
    /// spec's shape, and the compiled schedule follows.
    fn replan(
        &mut self,
        update: impl FnOnce(&mut PlanMaintainer) -> (UpdateStats, bool),
    ) -> UpdateStats {
        self.faults = None;
        self.sim = None;
        let (stats, reshaped) = update(&mut self.maintainer);
        if reshaped || stats.edges_reoptimized > 0 || stats.edges_added_or_removed > 0 {
            self.compiled = compile(&self.maintainer);
            self.recompiles += 1;
            crate::telemetry::counter(crate::telemetry::names::EXEC_RECOMPILES, 1);
        } else {
            self.compiled.refresh_weights(self.maintainer.spec());
            self.refreshes += 1;
            crate::telemetry::counter(crate::telemetry::names::EXEC_REFRESHES, 1);
        }
        stats
    }

    /// The churn loop: compares `current` quality against the tracked
    /// baseline; if the worst relative ETX drift exceeds the configured
    /// hysteresis, rebuilds ETX-weighted routes, pushes them through the
    /// maintainer (incremental re-optimization + recompile), and adopts
    /// `current` as the new baseline. Returns the update stats when a
    /// reroute fired, `None` when the drift was absorbed (or no quality
    /// is tracked).
    pub fn observe_quality(&mut self, current: &LinkQuality) -> Option<UpdateStats> {
        let churn = self.churn.as_mut()?;
        let fired = churn.should_reroute(current);
        if let Some(rec) = &mut self.recorder {
            rec.record_churn(self.rounds_run, fired);
        }
        if !fired {
            return None;
        }
        churn.rebase(current.clone());
        let demands = self.maintainer.spec().source_to_destinations();
        let routing = weighted_routing(self.maintainer.network(), &demands, current);
        Some(self.reroute(routing))
    }

    /// Writes the telemetry snapshot to the configured trace output, if
    /// any, returning the path written or the I/O error (see
    /// [`Config::export_telemetry`]).
    pub fn export_telemetry(&self) -> std::io::Result<Option<String>> {
        self.config.export_telemetry()
    }

    fn ensure_faults(&mut self) {
        if self.faults.is_none() {
            self.faults = Some(FaultyExec::new(self.maintainer.network(), &self.compiled));
        }
    }

    fn ensure_sim(&mut self) {
        if self.sim.is_none() {
            let sim = SimExec::with_params(
                self.maintainer.network(),
                &self.compiled,
                self.config.sim_params(),
            );
            let st = sim.state();
            self.sim = Some((sim, st));
        }
    }
}

/// Compiles the maintainer's current plan.
fn compile(maintainer: &PlanMaintainer) -> CompiledSchedule {
    CompiledSchedule::compile(maintainer.network(), maintainer.spec(), maintainer.plan())
        .expect("maintained plan must be schedulable")
}

/// Structure-relevant view of a workload: per destination, its kind and
/// sorted source set (weights excluded on purpose).
fn spec_shape(spec: &AggregationSpec) -> Vec<(NodeId, AggregateKind, Vec<NodeId>)> {
    spec.functions()
        .map(|(d, f)| (d, f.kind(), f.sources().collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use m2m_netsim::Deployment;

    fn network() -> Network {
        Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0))
    }

    fn spec() -> AggregationSpec {
        let mut s = AggregationSpec::new();
        s.add_function(
            NodeId(12),
            AggregateFunction::weighted_average([
                (NodeId(0), 1.0),
                (NodeId(1), 2.0),
                (NodeId(6), 1.5),
            ]),
        );
        s.add_function(
            NodeId(15),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(2), 3.0)]),
        );
        s
    }

    fn readings(net: &Network) -> BTreeMap<NodeId, f64> {
        net.nodes()
            .map(|v| (v, f64::from(v.0) * 0.5 + 1.0))
            .collect()
    }

    #[test]
    fn session_round_matches_the_reference_results() {
        let net = network();
        let spec = spec();
        let mut session = Session::builder(net, spec.clone()).build();
        assert_eq!(session.runtime(), Runtime::Compiled);
        let vals = readings(session.network());
        let report = session.run(&vals);
        assert!(report.cost().total_uj() > 0.0);
        assert!(report.delivered());
        assert_eq!(report.detail(), &RoundDetail::Compiled);
        for (d, f) in spec.functions() {
            let expected = f.reference_result(&vals);
            assert!(
                (report.result(d).unwrap() - expected).abs() < 1e-9,
                "destination {d}"
            );
        }
        let map = report.result_map();
        assert_eq!(map.len(), spec.destination_count());
    }

    #[test]
    fn reliable_lossy_rounds_agree_with_the_plain_path() {
        let net = Arc::new(network());
        let mut plain = Session::builder(Arc::clone(&net), spec()).build();
        let mut lossy = Session::builder(net, spec())
            .runtime(Runtime::Lossy)
            .config(Config::builder().retries(4).build())
            .build();
        let vals = readings(plain.network());
        let plain_report = plain.run(&vals);
        let report = lossy.run(&vals);
        assert!(report.delivered());
        assert!(report.fault().is_some(), "lossy detail rides along");
        assert_eq!(report.runtime(), Runtime::Lossy);
        for (&d, &r) in report.destinations().iter().zip(report.results()) {
            assert_eq!(r, plain_report.result(d), "destination {d}");
        }
        assert_eq!(lossy.degradation().rounds(), 1);
        assert_eq!(lossy.degradation().max_staleness(), 0);
        assert_eq!(lossy.rounds_run(), 1, "lossy rounds advance the cursor");
        assert_eq!(plain.rounds_run(), 0, "compiled rounds do not");
    }

    #[test]
    fn lossy_batches_are_replayable_and_feed_the_tracker() {
        let build = || {
            Session::builder(network(), spec())
                .runtime(Runtime::Lossy)
                .delivery(DeliveryModel::uniform(0.3, 9))
                .build()
        };
        let slots = build().compiled().sources().len();
        let rounds: Vec<Vec<f64>> = (0..6)
            .map(|r| (0..slots).map(|s| (r + s) as f64).collect())
            .collect();
        let mut a = build();
        let mut b = build();
        let batch = a.run_rounds(&rounds);
        assert_eq!(batch, b.run_rounds(&rounds));
        assert_eq!(a.degradation().rounds(), 6);
        // Sequential singles draw the same salts as the batch.
        let mut c = build();
        let dense_maps: Vec<BTreeMap<NodeId, f64>> = rounds
            .iter()
            .map(|row| {
                c.compiled()
                    .sources()
                    .ids()
                    .iter()
                    .zip(row)
                    .map(|(&s, &v)| (s, v))
                    .collect()
            })
            .collect();
        let singles: Vec<RoundReport> = dense_maps.iter().map(|m| c.run(m)).collect();
        assert_eq!(singles, batch);
    }

    /// Three weighted sums; destination 3 also reads destination 12.
    fn update_spec() -> AggregationSpec {
        let mut s = AggregationSpec::new();
        s.add_function(
            NodeId(12),
            AggregateFunction::weighted_sum([
                (NodeId(0), 1.0),
                (NodeId(1), 2.0),
                (NodeId(3), 0.5),
                (NodeId(6), 1.5),
            ]),
        );
        s.add_function(
            NodeId(15),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0), (NodeId(1), 1.0), (NodeId(2), 3.0)]),
        );
        s.add_function(
            NodeId(3),
            AggregateFunction::weighted_sum([(NodeId(0), 2.0), (NodeId(12), 1.0)]),
        );
        s
    }

    /// The session's round equals the interpreted oracle's round over the
    /// maintained plan, bit for bit.
    fn assert_round_matches_the_oracle(session: &mut Session) {
        let vals = readings(session.network());
        let m = session.maintainer();
        let reference = crate::runtime::execute_round(m.network(), m.spec(), m.plan(), &vals);
        let report = session.run(&vals);
        assert_eq!(report.result_map(), reference.results);
        assert_eq!(report.cost(), reference.cost);
    }

    #[test]
    fn reweight_refreshes_without_recompile() {
        let mut session = Session::builder(network(), update_spec()).build();
        // Re-weight an existing pair: no edge problem changes, so the
        // session must absorb it as a weight refresh.
        let stats = session.apply(WorkloadUpdate::AddSource {
            destination: NodeId(12),
            source: NodeId(1),
            weight: 7.5,
        });
        assert_eq!(
            stats.edges_reoptimized, 0,
            "pure re-weight must reuse every edge"
        );
        assert_eq!(session.refreshes(), 1);
        assert_eq!(session.recompiles(), 0);
        assert_round_matches_the_oracle(&mut session);
    }

    #[test]
    fn structural_updates_recompile_and_stay_correct() {
        let mut session = Session::builder(network(), update_spec()).build();
        // New destination: edges change, recompile.
        session.apply(WorkloadUpdate::AddDestination {
            destination: NodeId(5),
            function: AggregateFunction::weighted_sum([(NodeId(10), 1.0), (NodeId(14), 2.0)]),
        });
        assert_eq!(session.recompiles(), 1);
        assert_round_matches_the_oracle(&mut session);
        // A destination adding *itself* as a source touches no edge
        // problem (the path has length one) but changes the schedule's
        // final inputs — the shape diff must force a recompile.
        let stats = session.apply(WorkloadUpdate::AddSource {
            destination: NodeId(5),
            source: NodeId(5),
            weight: 3.0,
        });
        assert_eq!(stats.edges_reoptimized, 0, "local source touches no edge");
        assert_eq!(session.recompiles(), 2, "shape change must recompile");
        assert_round_matches_the_oracle(&mut session);
        // Source removal: edges shrink, recompile.
        session.apply(WorkloadUpdate::RemoveSource {
            destination: NodeId(12),
            source: NodeId(6),
        });
        assert_eq!(session.recompiles(), 3);
        assert_eq!(session.refreshes(), 0);
        assert_round_matches_the_oracle(&mut session);
    }

    #[test]
    fn route_change_resets_staleness_and_is_recorded() {
        use m2m_telemetry::timeseries::{self, EventKind};
        // Near-total loss with a single attempt: every round degrades.
        let mut session = Session::builder(network(), spec())
            .runtime(Runtime::Lossy)
            .delivery(DeliveryModel::uniform(0.95, 5))
            .config(Config::builder().retries(1).obs(true).obs_cap(64).build())
            .build();
        let slots = session.compiled().sources().len();
        let rounds: Vec<Vec<f64>> = (0..4)
            .map(|r| (0..slots).map(|s| (r + s) as f64).collect())
            .collect();
        session.run_rounds(&rounds);
        assert!(
            session.degradation().max_staleness() > 0,
            "p=0.95 with one attempt must degrade coverage"
        );
        let routing = RoutingTables::build(
            session.network(),
            &session.spec().source_to_destinations(),
            RoutingMode::SharedSpanningTree,
        );
        session.apply_route_change(routing);
        assert_eq!(
            session.degradation().max_staleness(),
            0,
            "new routes must not inherit the old paths' staleness debt"
        );
        let rec = session.recorder().expect("obs session records");
        assert!(
            rec.events().any(|e| e.kind == EventKind::RouteChange),
            "the recorder must log the route change"
        );
        assert!(
            rec.events().any(|e| e.kind == EventKind::StaleEnter),
            "degraded rounds must log staleness transitions"
        );
        timeseries::set_obs_enabled(false);
        timeseries::reset_planes();
    }

    #[test]
    fn quality_drift_past_hysteresis_reroutes_once() {
        let net = network();
        let base = LinkQuality::distance_based(&net, 0.15, 3);
        let mut session = Session::builder(net, spec())
            .quality(base.clone())
            .config(Config::builder().hysteresis(0.3).build())
            .build();
        // In-threshold drift: absorbed.
        assert!(session.observe_quality(&base.with_drift(0.02, 5)).is_none());
        assert_eq!(session.churn().unwrap().suppressed(), 1);
        let recompiles_before = session.recompiles();
        // Collapse one link the plan uses: drift blows past 30%.
        let mut bad = base.clone();
        let ((a, b), _) = base.links().next().unwrap();
        bad.set_loss(a, b, 0.9);
        let stats = session.observe_quality(&bad);
        assert!(stats.is_some(), "reroute must fire");
        assert_eq!(session.churn().unwrap().reroutes(), 1);
        assert!(session.recompiles() >= recompiles_before);
        // Rebased: the same quality no longer trips the gate.
        assert!(session.observe_quality(&bad).is_none());
        // The session still answers correctly after the reroute.
        let vals = readings(session.network());
        let report = session.run(&vals);
        let expected = session
            .spec()
            .function(NodeId(15))
            .unwrap()
            .reference_result(&vals);
        assert!((report.result(NodeId(15)).unwrap() - expected).abs() < 1e-9);
    }

    /// Lane width and thread count are pure throughput knobs: a
    /// compiled batch is the raw epoch slab, bit for bit, at every width
    /// and thread count.
    #[test]
    fn unified_batches_are_lane_and_thread_invariant() {
        let slots = Session::builder(network(), spec())
            .build()
            .compiled()
            .sources()
            .len();
        let rounds: Vec<Vec<f64>> = (0..11)
            .map(|r| (0..slots).map(|s| (r * 7 + s) as f64 * 0.3 - 2.0).collect())
            .collect();
        let mut session = Session::builder(network(), spec()).build();
        let reports = session.run_rounds(&rounds);
        let slab = run_epochs_slab(session.compiled(), &rounds, 1, 1);
        assert_eq!(reports.len(), rounds.len());
        assert_eq!(slab.destination_count(), 2);
        for (r, report) in reports.iter().enumerate() {
            let row: Vec<Option<f64>> = slab.round(r).iter().copied().map(Some).collect();
            assert_eq!(report.results(), row.as_slice());
            assert_eq!(report.cost(), slab.cost());
        }
        for w in crate::exec::SUPPORTED_LANE_WIDTHS {
            for threads in [1, 2] {
                let mut s = Session::builder(network(), spec())
                    .config(Config::builder().lanes(w).threads(threads).build())
                    .build();
                assert_eq!(
                    s.run_rounds(&rounds),
                    reports,
                    "width {w}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn sim_rounds_match_the_plain_path_and_record_queue_pressure() {
        use m2m_telemetry::timeseries::{self, EventKind};
        let net = Arc::new(network());
        let mut plain = Session::builder(Arc::clone(&net), spec()).build();
        let mut session = Session::builder(net, spec())
            .runtime(Runtime::Sim)
            .config(Config::builder().obs(true).obs_cap(64).build())
            .build();
        let vals = readings(session.network());
        let plain_report = plain.run(&vals);
        let report = session.run(&vals);
        assert!(report.delivered());
        let sim = report.sim().expect("sim detail rides along");
        assert!(sim.events > 0 && sim.ticks > 0);
        for (&d, &r) in report.destinations().iter().zip(report.results()) {
            assert_eq!(r, plain_report.result(d), "destination {d}");
        }
        assert_eq!(session.degradation().rounds(), 1);
        let rec = session.recorder().expect("obs session records");
        assert!(
            rec.events().any(|e| e.kind == EventKind::SimRound),
            "sim rounds must land in the event ring"
        );
        // Workload updates rebuild the simulator on next use.
        session.apply(WorkloadUpdate::AddDestination {
            destination: NodeId(9),
            function: AggregateFunction::weighted_sum([(NodeId(4), 1.0), (NodeId(8), 1.0)]),
        });
        let report = session.run(&vals);
        assert_eq!(report.results().len(), 3, "new destination joins");
        timeseries::set_obs_enabled(false);
        timeseries::reset_planes();
    }

    #[test]
    fn workload_updates_invalidate_the_fault_engine() {
        let mut session = Session::builder(network(), spec())
            .runtime(Runtime::Lossy)
            .build();
        let vals = readings(session.network());
        let report = session.run(&vals);
        assert_eq!(report.results().len(), 2);
        session.apply(WorkloadUpdate::AddDestination {
            destination: NodeId(9),
            function: AggregateFunction::weighted_sum([(NodeId(4), 1.0), (NodeId(8), 1.0)]),
        });
        let report = session.run(&vals);
        assert_eq!(
            report.results().len(),
            3,
            "new destination joins the results"
        );
        assert!(report.delivered());
    }

    #[test]
    fn substrate_reuse_is_bit_identical_to_a_cold_build() {
        let net = Arc::new(network());
        let cold = Session::builder(Arc::clone(&net), spec()).build();
        let routing = cold.maintainer().routing_arc();
        let topo = Arc::clone(cold.maintainer().topology());
        let mut warm = Session::builder(Arc::clone(&net), spec())
            .substrate(routing, topo)
            .build();
        assert_eq!(
            cold.maintainer().plan().solutions(),
            warm.maintainer().plan().solutions(),
            "substrate reuse must reproduce the cold plan bit-for-bit"
        );
        let vals = readings(warm.network());
        let mut cold = cold;
        assert_eq!(cold.run(&vals), warm.run(&vals));
    }

    #[test]
    fn shared_solve_cache_serves_a_twin_session_entirely_from_cache() {
        let net = Arc::new(network());
        let cache = Arc::new(Mutex::new(SharedSolveCache::new()));
        let mut first = Session::builder(Arc::clone(&net), spec())
            .solve_cache(Arc::clone(&cache))
            .build();
        let misses = cache.lock().unwrap().misses();
        assert!(misses > 0, "the first session solves fresh");
        assert_eq!(cache.lock().unwrap().hits(), 0);
        let mut twin = Session::builder(Arc::clone(&net), spec())
            .solve_cache(Arc::clone(&cache))
            .build();
        let c = cache.lock().unwrap();
        assert_eq!(c.misses(), misses, "the twin adds no fresh solves");
        assert_eq!(c.hits(), misses, "every twin edge is served cached");
        drop(c);
        let vals = readings(first.network());
        assert_eq!(first.run(&vals), twin.run(&vals));
        // And against a cache-free build: bit-identical plans.
        let plain = Session::builder(net, spec()).build();
        assert_eq!(
            plain.maintainer().plan().solutions(),
            twin.maintainer().plan().solutions()
        );
    }

    #[test]
    #[should_panic(expected = "substrate routing mode")]
    fn mismatched_substrate_mode_is_rejected() {
        let net = Arc::new(network());
        let cold = Session::builder(Arc::clone(&net), spec()).build();
        let routing = cold.maintainer().routing_arc();
        let topo = Arc::clone(cold.maintainer().topology());
        let _ = Session::builder(net, spec())
            .routing_mode(RoutingMode::SharedSpanningTree)
            .substrate(routing, topo)
            .build();
    }

    #[test]
    #[should_panic(expected = "demanded pairs")]
    fn mismatched_substrate_spec_is_rejected() {
        let net = Arc::new(network());
        let cold = Session::builder(Arc::clone(&net), spec()).build();
        let routing = cold.maintainer().routing_arc();
        let topo = Arc::clone(cold.maintainer().topology());
        let mut other = spec();
        other.add_function(
            NodeId(9),
            AggregateFunction::weighted_sum([(NodeId(4), 1.0)]),
        );
        let _ = Session::builder(net, other)
            .substrate(routing, topo)
            .build();
    }

    /// Link 0-1 carries source 0's hop routes, so ETX routes move off it.
    fn degraded_quality(net: &Network) -> LinkQuality {
        let mut quality = LinkQuality::distance_based(net, 0.3, 3);
        quality.set_loss(NodeId(0), NodeId(1), 0.9);
        quality
    }

    #[test]
    fn a_tracked_quality_session_plans_on_etx_routes_and_compiles_once() {
        let net = Arc::new(network());
        let quality = degraded_quality(&net);
        let delivery = DeliveryModel::from_quality(&quality, 7);
        let mut session = Session::builder(Arc::clone(&net), spec())
            .runtime(Runtime::Lossy)
            .delivery(delivery.clone())
            .quality(quality.clone())
            .build();
        assert_eq!(session.recompiles(), 0, "one compile");
        // The oracle is the two-step path: a hop-routed plan, then the ETX
        // reroute onto the same quality.
        let mut oracle =
            PlanMaintainer::new(Arc::clone(&net), spec(), RoutingMode::ShortestPathTrees);
        let hop_plan = oracle.plan().clone();
        let uses_0_1 = |r: &RoutingTables| r.directed_edges().contains(&(NodeId(0), NodeId(1)));
        assert!(uses_0_1(oracle.routing()));
        let demands = spec().source_to_destinations();
        oracle.apply_route_change(weighted_routing(&net, &demands, &quality));
        assert!(!uses_0_1(oracle.routing()));
        assert_ne!(hop_plan.solutions(), oracle.plan().solutions());
        let m = session.maintainer();
        assert_eq!(
            m.routing().directed_edges(),
            oracle.routing().directed_edges()
        );
        assert_eq!(m.plan().solutions(), oracle.plan().solutions());
        assert!(m.base_solutions().eq(oracle.base_solutions()));
        // The first lossy round matches the oracle plan's, salt for salt.
        let compiled = CompiledSchedule::compile(&net, oracle.spec(), oracle.plan()).unwrap();
        let vals = readings(&net);
        let want = FaultyExec::new(&net, &compiled).run_rounds(
            &[compiled.dense_readings(&vals)],
            &delivery,
            &session.retry_policy(),
            DEFAULT_BASE_SALT,
            1,
        );
        assert_eq!(session.run(&vals).fault(), Some(&want[0]));
    }

    #[test]
    fn quality_takes_precedence_over_a_supplied_substrate() {
        let net = Arc::new(network());
        let quality = degraded_quality(&net);
        let hop = Session::builder(Arc::clone(&net), spec()).build();
        let alone = Session::builder(Arc::clone(&net), spec())
            .quality(quality.clone())
            .build();
        let both = Session::builder(Arc::clone(&net), spec())
            .substrate(
                hop.maintainer().routing_arc(),
                Arc::clone(hop.maintainer().topology()),
            )
            .quality(quality)
            .build();
        let plan = |s: &Session| s.maintainer().plan().solutions().to_vec();
        assert_ne!(plan(&hop), plan(&alone), "the ETX plan differs");
        assert_eq!(plan(&both), plan(&alone));
        assert_eq!(
            both.maintainer().routing().directed_edges(),
            alone.maintainer().routing().directed_edges()
        );
    }
}
