//! The multi-tenant plan service: many concurrent aggregation queries
//! over one shared deployment.
//!
//! Corollary 1 makes per-edge solutions independent, which is exactly
//! what lets many long-lived queries share one sensor field: a raw unit
//! multicast on an edge serves *every* admitted query that covers it,
//! and two queries whose single-edge problems coincide get the same
//! solution bits. A [`PlanService`] turns that into an admission
//! pipeline:
//!
//! * **one deployment** — a single `Arc<Network>` every tenant plans
//!   over, never cloned;
//! * **interned substrates** — one `Arc<RoutingTables>` +
//!   `Arc<Topology>` per distinct `(routing mode, demanded pairs)`
//!   shape, refcounted and dropped on the last evict;
//! * **one shared solve memo** — a [`SharedSolveCache`] keyed by
//!   problem content, so the Nth admission solves only the edges no
//!   earlier tenant solved;
//! * **per-tenant sessions** — each tenant still owns a full
//!   [`Session`] whose plan is **bit-identical** to one built in
//!   isolation (pure solves, unique minima, deterministic assembly), so
//!   sharing the substrate never perturbs a tenant's results.
//!
//! [`PlanService::sharing_report`] prices the cross-tenant multi-query
//! optimization ([`crate::sharing::multi_query_analysis`]): distinct raw
//! `(edge, source)` multicasts and content-signed records across all
//! admitted plans versus the tenants planned in isolation.
//!
//! # Checkpoint / restore
//!
//! [`PlanService::checkpoint`] serializes the admitted specs, their
//! pre-repair plan slabs, and each tenant's salt cursor as a versioned
//! text artifact; [`PlanService::restore`] rebuilds the service from it.
//! Each tenant's plan is assembled once from its persisted slab,
//! validated, and handed to the tenant's session as is — no solve, no
//! second assembly — and the slab also seeds the shared cache, so a
//! later admission of a restored shape is served without a fresh solve.
//! Each tenant's replayable failure stream resumes at its persisted
//! round. Delivery models are runtime configuration, not plan state —
//! re-apply them after restore with [`Session::set_delivery`].
//!
//! ```text
//! m2m-service-checkpoint v2
//! network 25 0a166a8f5182fcfc     node count, Network::fingerprint in hex
//! next_id 1
//! tenants 1
//! tenant 0
//! mode spt                        RoutingMode::name
//! runtime compiled                Runtime::name
//! base_salt 7868471755695023460
//! rounds_run 0
//! function 12 weighted_sum        the tenant's spec: crate::textio's section
//! source 12 1 1
//! source 12 7 0.5
//! source 12 13 2
//! solutions 4                     the pre-repair slab, in slab order
//! solution 1 2 1 1 0 4            edge, raw sources, record groups, cost
//! solution 2 7 1 1 0 4
//! solution 7 12 0 1 12 1 12 4
//! solution 13 12 0 1 12 1 12 4
//! end
//! ```
//!
//! Each tenant's spec is written and read by the [`crate::textio`] codec,
//! which applies every spec rule once for both formats. Its weights
//! round-trip bit for bit, except that a NaN weight restores as the
//! canonical NaN. The fingerprint ties a checkpoint to its exact network
//! (positions and radio links), not just its size.

use std::collections::BTreeMap;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use m2m_graph::NodeId;
use m2m_netsim::{DeliveryModel, Network, RoutingMode, RoutingTables};

use crate::config::{Config, Runtime};
use crate::dynamics::PlanMaintainer;
use crate::edge_opt::{build_edge_problems, price, AggGroup, EdgeProblem, EdgeSolution};
use crate::memo::SharedSolveCache;
use crate::session::{RoundReport, Session, DEFAULT_BASE_SALT};
use crate::sharing::{multi_query_analysis, MultiQueryReport};
use crate::spec::AggregationSpec;
use crate::textio::{write_spec, Fields, SpecReader};
use crate::topo::Topology;

/// The checkpoint header's first token.
const CHECKPOINT_MAGIC: &str = "m2m-service-checkpoint";
/// The header's version; it bumps on any format change.
const CHECKPOINT_VERSION: &str = "v2";

/// A stable handle to an admitted tenant. Ids are never reused within a
/// service (they survive evictions), and a restored service resumes its
/// counter past every persisted id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Per-tenant admission options; [`TenantOptions::default`] matches a
/// plain `Session::builder(..).build()`.
#[derive(Clone, Debug)]
pub struct TenantOptions {
    /// Routing-tree construction mode for this tenant's substrate.
    pub mode: RoutingMode,
    /// Runtime override for [`Session::run`]; `None` follows the
    /// service configuration's [`Config::runtime`].
    pub runtime: Option<Runtime>,
    /// The delivery model the tenant's lossy rounds run under.
    pub delivery: DeliveryModel,
    /// Base salt of the tenant's replayable failure stream.
    pub base_salt: u64,
}

impl Default for TenantOptions {
    fn default() -> Self {
        TenantOptions {
            mode: RoutingMode::ShortestPathTrees,
            runtime: None,
            delivery: DeliveryModel::reliable(),
            base_salt: DEFAULT_BASE_SALT,
        }
    }
}

/// What an admission cost: whether the substrate was reused and how the
/// per-edge solves split between the shared cache and fresh work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// The admitted tenant's handle.
    pub tenant: TenantId,
    /// True when an interned substrate (routing + topology) was reused —
    /// the admission paid no routing or snapshot work.
    pub reused_substrate: bool,
    /// Per-edge solves served from the shared cache.
    pub solves_cached: u64,
    /// Per-edge solves computed fresh (the marginal edges).
    pub solves_fresh: u64,
}

/// Substrates are interned per routing mode and demanded-pair set: two
/// tenants with the same demand shape share routing tables and the
/// topology snapshot outright.
type SubstrateKey = (RoutingMode, Vec<(NodeId, NodeId)>);

#[derive(Debug)]
struct SubstrateEntry {
    routing: Arc<RoutingTables>,
    topo: Arc<Topology>,
    refs: usize,
}

#[derive(Debug)]
struct Tenant {
    session: Session,
    key: SubstrateKey,
}

/// The tenant registry: admits/evicts [`AggregationSpec`]s against one
/// shared deployment. See the module docs.
#[derive(Debug)]
pub struct PlanService {
    network: Arc<Network>,
    config: Config,
    cache: Arc<Mutex<SharedSolveCache>>,
    substrates: BTreeMap<SubstrateKey, SubstrateEntry>,
    tenants: BTreeMap<TenantId, Tenant>,
    next_id: u64,
    admitted_total: u64,
}

/// Every demanded `(source, destination)` pair of `spec`, ascending.
pub(crate) fn demand_pairs(spec: &AggregationSpec) -> Vec<(NodeId, NodeId)> {
    let mut pairs: Vec<(NodeId, NodeId)> = spec
        .source_to_destinations()
        .into_iter()
        .flat_map(|(s, ds)| ds.into_iter().map(move |d| (s, d)))
        .collect();
    pairs.sort_unstable();
    pairs
}

impl PlanService {
    /// Opens a service over `network` with [`Config::default`].
    pub fn new(network: impl Into<Arc<Network>>) -> Self {
        Self::with_config(network, Config::default())
    }

    /// Opens a service over `network`; every tenant session is built
    /// with `config`.
    pub fn with_config(network: impl Into<Arc<Network>>, config: Config) -> Self {
        PlanService {
            network: network.into(),
            config,
            cache: Arc::new(Mutex::new(SharedSolveCache::new())),
            substrates: BTreeMap::new(),
            tenants: BTreeMap::new(),
            next_id: 0,
            admitted_total: 0,
        }
    }

    /// The shared deployment.
    #[inline]
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// A shared handle to the deployment.
    #[inline]
    pub fn network_arc(&self) -> Arc<Network> {
        Arc::clone(&self.network)
    }

    /// The service configuration tenant sessions inherit.
    #[inline]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The cross-tenant solve cache (shared with every tenant build).
    #[inline]
    pub fn solve_cache(&self) -> Arc<Mutex<SharedSolveCache>> {
        Arc::clone(&self.cache)
    }

    /// Live tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenants are admitted.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Tenants admitted over the service's lifetime (evictions do not
    /// decrement).
    #[inline]
    pub fn admitted_total(&self) -> u64 {
        self.admitted_total
    }

    /// Distinct substrates currently interned.
    pub fn substrate_count(&self) -> usize {
        self.substrates.len()
    }

    /// Admits `spec` with [`TenantOptions::default`].
    ///
    /// # Panics
    /// Panics if the spec's plan is unschedulable (Theorem 2 cycle).
    pub fn admit(&mut self, spec: AggregationSpec) -> Admission {
        self.admit_with(spec, TenantOptions::default())
    }

    /// Admits `spec` as a new tenant: interns (or reuses) the substrate
    /// for its demand shape, solves its marginal edges through the
    /// shared cache, and builds a full per-tenant [`Session`] —
    /// bit-identical to one built in isolation over the same network.
    ///
    /// # Panics
    /// Panics if the spec's plan is unschedulable (Theorem 2 cycle), or
    /// once the tenant id `u64::MAX` has been handed out (only a restored
    /// checkpoint starts the id counter near it).
    pub fn admit_with(&mut self, spec: AggregationSpec, options: TenantOptions) -> Admission {
        let (key, reused_substrate) = self.intern(&spec, options.mode);
        let entry = &self.substrates[&key];
        let (hits_before, misses_before) = {
            let c = self.cache.lock().expect("solve cache poisoned");
            (c.hits(), c.misses())
        };
        let mut builder = Session::builder(Arc::clone(&self.network), spec)
            .routing_mode(options.mode)
            .config(self.config.clone())
            .delivery(options.delivery)
            .base_salt(options.base_salt)
            .substrate(Arc::clone(&entry.routing), Arc::clone(&entry.topo))
            .solve_cache(Arc::clone(&self.cache));
        if let Some(rt) = options.runtime {
            builder = builder.runtime(rt);
        }
        let session = builder.build();
        let (hits_after, misses_after) = {
            let c = self.cache.lock().expect("solve cache poisoned");
            (c.hits(), c.misses())
        };
        let id = TenantId(self.next_id);
        self.next_id = self
            .next_id
            .checked_add(1)
            .expect("every tenant id has been handed out");
        self.register(id, key, session);
        Admission {
            tenant: id,
            reused_substrate,
            solves_cached: hits_after - hits_before,
            solves_fresh: misses_after - misses_before,
        }
    }

    /// Registers a built tenant session under `id`: the tenant takes a
    /// reference on its interned substrate and counts as admitted.
    fn register(&mut self, id: TenantId, key: SubstrateKey, session: Session) {
        self.substrates
            .get_mut(&key)
            .expect("the tenant's substrate is interned")
            .refs += 1;
        self.admitted_total += 1;
        self.tenants.insert(id, Tenant { session, key });
    }

    /// Interns the substrate (routing tables and topology snapshot) for
    /// `spec`'s demand shape under `mode`, routing and snapping it on
    /// first use. Returns its key and whether it was interned already.
    fn intern(&mut self, spec: &AggregationSpec, mode: RoutingMode) -> (SubstrateKey, bool) {
        let key: SubstrateKey = (mode, demand_pairs(spec));
        let interned = self.substrates.contains_key(&key);
        self.substrates.entry(key.clone()).or_insert_with(|| {
            let routing = RoutingTables::build(&self.network, &spec.source_to_destinations(), mode);
            SubstrateEntry {
                topo: Arc::new(Topology::snapshot(spec, &routing)),
                routing: Arc::new(routing),
                refs: 0,
            }
        });
        (key, interned)
    }

    /// Evicts a tenant, dropping its session; the last tenant of a
    /// substrate drops the interned routing tables and topology with it.
    /// Returns false if the id is unknown (or already evicted).
    pub fn evict(&mut self, tenant: TenantId) -> bool {
        let Some(t) = self.tenants.remove(&tenant) else {
            return false;
        };
        if let Some(entry) = self.substrates.get_mut(&t.key) {
            entry.refs -= 1;
            if entry.refs == 0 {
                self.substrates.remove(&t.key);
            }
        }
        true
    }

    /// The tenant's session, if admitted.
    pub fn tenant(&self, tenant: TenantId) -> Option<&Session> {
        self.tenants.get(&tenant).map(|t| &t.session)
    }

    /// The tenant's session, mutably (run rounds, apply updates, swap
    /// delivery models).
    pub fn tenant_mut(&mut self, tenant: TenantId) -> Option<&mut Session> {
        self.tenants.get_mut(&tenant).map(|t| &mut t.session)
    }

    /// Live tenants, ascending by id.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, &Session)> {
        self.tenants.iter().map(|(&id, t)| (id, &t.session))
    }

    /// Runs one round for `tenant` under its session's runtime.
    ///
    /// # Panics
    /// Panics if a source reading is missing.
    pub fn run(
        &mut self,
        tenant: TenantId,
        readings: &BTreeMap<NodeId, f64>,
    ) -> Option<RoundReport> {
        self.tenant_mut(tenant).map(|s| s.run(readings))
    }

    /// The cross-tenant shared-unit index over every admitted plan: raw
    /// multicasts planned once for all covering tenants, records merged
    /// where content signatures coincide — priced against the tenants in
    /// isolation. See [`crate::sharing::multi_query_analysis`].
    pub fn sharing_report(&self) -> MultiQueryReport {
        multi_query_analysis(
            self.tenants
                .values()
                .map(|t| (t.session.spec(), t.session.maintainer().plan())),
        )
    }

    /// Serializes the service — admitted specs, pre-repair plan slabs,
    /// and salt cursors — as the versioned checkpoint text
    /// [`PlanService::restore`] accepts (layout in the module docs).
    pub fn checkpoint(&self) -> String {
        let net = &self.network;
        let mut out = String::new();
        out.push_str(&format!("{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n"));
        out.push_str(&format!(
            "network {} {:016x}\n",
            net.node_count(),
            net.fingerprint()
        ));
        out.push_str(&format!("next_id {}\n", self.next_id));
        out.push_str(&format!("tenants {}\n", self.tenants.len()));
        for (id, t) in &self.tenants {
            let s = &t.session;
            let m = s.maintainer();
            out.push_str(&format!("tenant {}\n", id.0));
            out.push_str(&format!("mode {}\n", m.mode().name()));
            out.push_str(&format!("runtime {}\n", s.runtime().name()));
            out.push_str(&format!("base_salt {}\n", s.base_salt()));
            out.push_str(&format!("rounds_run {}\n", s.rounds_run()));
            write_spec(&mut out, s.spec());
            out.push_str(&format!("solutions {}\n", m.base_solutions().len()));
            for sol in m.base_solutions() {
                out.push_str(&solution_line(sol));
                out.push('\n');
            }
            out.push_str("end\n");
        }
        out
    }

    /// Rebuilds a service over `network` from checkpoint text. Every
    /// persisted tenant keeps its id, base salt and runtime, and its salt
    /// cursor resumes at its persisted round. Its plan is assembled once
    /// from the persisted slab and validated against its spec and
    /// routing; the tenant's session is then built from that plan, so
    /// restoration performs **zero** solves and every restored plan is
    /// bit-identical to the one checkpointed. The slabs also seed the
    /// shared cache. The next admission takes the larger of the header's
    /// `next_id` and one past the largest persisted id.
    ///
    /// Declared counts never size an allocation beyond the input that
    /// remains, and node ids at or above the network's node count are
    /// rejected, not truncated.
    ///
    /// # Errors
    /// Returns a message naming the first malformed line (a line that
    /// breaks the format, a spec rule, a count or a solution that does
    /// not answer its edge's problem), another network, or a plan slab
    /// that fails validation.
    pub fn restore(
        network: impl Into<Arc<Network>>,
        config: Config,
        text: &str,
    ) -> Result<PlanService, String> {
        let mut service = PlanService::with_config(network, config);
        let mut lines = Lines::new(text);
        let mut f = lines.next(CHECKPOINT_MAGIC)?;
        f.expect(CHECKPOINT_MAGIC)?;
        let version = f.word("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(f.err(format!(
                "unsupported checkpoint version {version}; this build reads {CHECKPOINT_VERSION}"
            )));
        }
        f.end()?;
        let mut f = lines.next("network")?;
        f.expect("network")?;
        let nodes: usize = f.parse("node count")?;
        let fingerprint = f.word("fingerprint")?;
        let fingerprint = u64::from_str_radix(fingerprint, 16)
            .map_err(|e| f.err(format!("bad fingerprint '{fingerprint}': {e}")))?;
        f.end()?;
        let net = &service.network;
        if nodes != net.node_count() {
            return Err(f.err(format!(
                "checkpoint is for a {nodes}-node network, got {}",
                net.node_count()
            )));
        }
        if fingerprint != net.fingerprint() {
            return Err(f.err(format!(
                "checkpoint is for another {nodes}-node network, whose fingerprint is {:016x}",
                net.fingerprint()
            )));
        }
        // `admit` hands out `next_id` and then counts it up, so restore
        // leaves it below `u64::MAX`.
        let (next_id, f) = lines.value::<u64>("next_id")?;
        if next_id == u64::MAX {
            return Err(f.err("no id is left to admit next"));
        }
        let (tenant_count, _) = lines.value::<u64>("tenants")?;
        for _ in 0..tenant_count {
            service.restore_tenant(&mut lines)?;
        }
        service.next_id = service.next_id.max(next_id);
        Ok(service)
    }

    /// Reads one persisted tenant: its options and spec, then its slab,
    /// each solution checked against its edge's problem in the interned
    /// substrate. Assembles and validates the plan, seeds the cache with
    /// the slab, and builds the tenant's session from that plan under its
    /// persisted id.
    fn restore_tenant(&mut self, lines: &mut Lines<'_>) -> Result<(), String> {
        let (id, f) = lines.value::<u64>("tenant")?;
        if id >= u64::MAX - 1 {
            return Err(f.err("no id is left to admit next"));
        }
        let id = TenantId(id);
        if self.tenants.contains_key(&id) {
            return Err(f.err(format!("duplicate tenant id {id}")));
        }
        let mode = lines.named("mode", RoutingMode::parse)?;
        let runtime = lines.named("runtime", Runtime::parse)?;
        let (base_salt, _) = lines.value::<u64>("base_salt")?;
        let (rounds_run, _) = lines.value::<u64>("rounds_run")?;
        let nodes = self.network.node_count();
        let mut spec = SpecReader::new(nodes);
        let mut f = loop {
            let f = lines.next("solutions")?;
            if f.keyword() == "solutions" {
                break f;
            }
            spec.read(f)?;
        };
        let spec = spec.finish()?;
        // The persisted slab is checked against the interned substrate's
        // problems, in its slab order.
        let (key, _) = self.intern(&spec, mode);
        let topo = Arc::clone(&self.substrates[&key].topo);
        let problems = build_edge_problems(&topo);
        let count: u64 = f.parse("solution count")?;
        f.end()?;
        if count != problems.len() as u64 {
            return Err(f.err(format!(
                "{count} solutions for {} demanded edges",
                problems.len()
            )));
        }
        let mut solutions = Vec::with_capacity(problems.len());
        for problem in &problems {
            let mut f = lines.next("solution")?;
            let sol = parse_solution(&mut f, nodes)?;
            if !answers(problem, &sol, &spec) {
                return Err(f.err("solution does not answer its edge's problem"));
            }
            solutions.push(sol);
        }
        lines.next("end")?.expect("end")?;
        let plan = crate::plan::GlobalPlan::from_solutions(&spec, topo, problems, solutions);
        let routing = Arc::clone(&self.substrates[&key].routing);
        plan.validate(&spec, &routing)
            .map_err(|e| format!("tenant {id}: persisted plan failed validation: {e}"))?;
        {
            // A later admission of this shape then hits, as it would have
            // before the restart.
            let mut cache = self.cache.lock().expect("solve cache poisoned");
            for (problem, solution) in plan.problems().iter().zip(plan.base_solutions()) {
                cache.seed(problem, &spec, solution.clone());
            }
        }
        let maintainer = PlanMaintainer::from_plan(self.network_arc(), spec, mode, routing, plan);
        self.config.apply(); // as `SessionBuilder::build` does for an admission
        let session = Session::from_maintainer(
            maintainer,
            self.config.clone(),
            Some(runtime),
            DeliveryModel::reliable(),
            None,
            base_salt,
            rounds_run,
        );
        self.register(id, key, session);
        self.next_id = self.next_id.max(id.0 + 1);
        Ok(())
    }
}

/// Whether `sol` could be a solve of `problem`: the same edge, raw
/// sources and record groups drawn from the problem in ascending order,
/// and the cost those units price under `spec`. (Coverage is left to
/// [`crate::plan::GlobalPlan::validate`].)
fn answers(problem: &EdgeProblem, sol: &EdgeSolution, spec: &AggregationSpec) -> bool {
    fn drawn_from<T: Ord>(chosen: &[T], from: &[T]) -> bool {
        chosen.windows(2).all(|w| w[0] < w[1])
            && chosen.iter().all(|c| from.binary_search(c).is_ok())
    }
    // The problem's groups are the spec's, so each has a function.
    let record_bytes = |d| spec.function(d).map_or(0, |f| f.partial_record_bytes());
    sol.edge == problem.edge
        && drawn_from(&sol.raw, &problem.sources)
        && drawn_from(&sol.agg, &problem.groups)
        && sol.cost_bytes == price(&sol.raw, &sol.agg, &record_bytes)
}

/// A checkpoint's lines, numbered from 1.
struct Lines<'a> {
    lines: std::str::Lines<'a>,
    read: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            lines: text.lines(),
            read: 0,
        }
    }

    /// The next line's fields; `want` names what a truncated checkpoint
    /// lacks.
    fn next(&mut self, want: &str) -> Result<Fields<'a>, String> {
        let line = self
            .lines
            .next()
            .ok_or_else(|| format!("line {}: checkpoint ends before '{want}'", self.read + 1))?;
        self.read += 1;
        Ok(Fields::new(self.read, line))
    }

    /// A `keyword VALUE` line's value, with the line for later errors.
    fn value<T: FromStr>(&mut self, keyword: &str) -> Result<(T, Fields<'a>), String>
    where
        T::Err: std::fmt::Display,
    {
        let mut f = self.next(keyword)?;
        f.expect(keyword)?;
        let value = f.parse(keyword)?;
        f.end()?;
        Ok((value, f))
    }

    /// A `keyword NAME` line's value, read by a name table.
    fn named<T>(&mut self, keyword: &str, parse: impl Fn(&str) -> Option<T>) -> Result<T, String> {
        let mut f = self.next(keyword)?;
        f.expect(keyword)?;
        let value = f.named(keyword, parse)?;
        f.end()?;
        Ok(value)
    }
}

/// One checkpoint `solution` line, the inverse of [`parse_solution`].
fn solution_line(sol: &EdgeSolution) -> String {
    let mut line = format!(
        "solution {} {} {}",
        sol.edge.0 .0,
        sol.edge.1 .0,
        sol.raw.len()
    );
    for r in &sol.raw {
        line.push_str(&format!(" {}", r.0));
    }
    line.push_str(&format!(" {}", sol.agg.len()));
    for g in &sol.agg {
        line.push_str(&format!(" {} {}", g.destination.0, g.suffix.len()));
        for n in g.suffix.iter() {
            line.push_str(&format!(" {}", n.0));
        }
    }
    line.push_str(&format!(" {}", sol.cost_bytes));
    line
}

fn parse_solution(fields: &mut Fields<'_>, nodes: usize) -> Result<EdgeSolution, String> {
    fields.expect("solution")?;
    let from = fields.node("solution edge tail", nodes)?;
    let to = fields.node("solution edge head", nodes)?;
    let nraw = fields.parse("raw count")?;
    let mut raw = Vec::with_capacity(fields.capacity(nraw, 1));
    for _ in 0..nraw {
        raw.push(fields.node("raw source", nodes)?);
    }
    let nagg = fields.parse("agg count")?;
    let mut agg = Vec::with_capacity(fields.capacity(nagg, 2));
    for _ in 0..nagg {
        let destination = fields.node("agg destination", nodes)?;
        let suffix_len = fields.parse("suffix length")?;
        let mut suffix = Vec::with_capacity(fields.capacity(suffix_len, 1));
        for _ in 0..suffix_len {
            suffix.push(fields.node("suffix node", nodes)?);
        }
        agg.push(AggGroup {
            destination,
            suffix: suffix.into(),
        });
    }
    let cost_bytes = fields.parse("cost bytes")?;
    fields.end()?;
    Ok(EdgeSolution {
        edge: (from, to),
        raw,
        agg,
        cost_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggregateFunction;
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_netsim::Deployment;

    fn network() -> Network {
        Network::with_default_energy(Deployment::grid(5, 5, 10.0, 12.0))
    }

    fn spec_seeded(net: &Network, seed: u64) -> AggregationSpec {
        generate_workload(net, &WorkloadConfig::paper_default(4, 3, seed))
    }

    fn readings(net: &Network) -> BTreeMap<NodeId, f64> {
        net.nodes()
            .map(|v| (v, f64::from(v.0) * 0.25 - 1.5))
            .collect()
    }

    #[test]
    fn twin_admissions_reuse_substrate_and_cache() {
        let net = Arc::new(network());
        let mut svc = PlanService::new(Arc::clone(&net));
        let spec = spec_seeded(&net, 7);
        let first = svc.admit(spec.clone());
        assert!(!first.reused_substrate, "first admission routes fresh");
        assert_eq!(first.solves_cached, 0);
        assert!(first.solves_fresh > 0);
        let second = svc.admit(spec);
        assert!(second.reused_substrate, "same shape reuses the substrate");
        assert_eq!(second.solves_fresh, 0, "every edge is served cached");
        assert_eq!(second.solves_cached, first.solves_fresh);
        assert_eq!(svc.len(), 2);
        assert_eq!(svc.substrate_count(), 1);
        assert_eq!(svc.admitted_total(), 2);
    }

    #[test]
    fn tenants_are_bit_identical_to_isolated_sessions() {
        let net = Arc::new(network());
        let mut svc = PlanService::new(Arc::clone(&net));
        let vals = readings(&net);
        for seed in [3u64, 4, 5] {
            let spec = spec_seeded(&net, seed);
            let admission = svc.admit(spec.clone());
            let mut isolated = Session::builder(Arc::clone(&net), spec).build();
            let expect = isolated.run(&vals);
            let got = svc.run(admission.tenant, &vals).expect("admitted");
            assert_eq!(got, expect, "seed {seed}");
            assert_eq!(
                svc.tenant(admission.tenant)
                    .unwrap()
                    .maintainer()
                    .plan()
                    .solutions(),
                isolated.maintainer().plan().solutions(),
                "seed {seed}: plans must match bit-for-bit"
            );
        }
    }

    #[test]
    fn evicting_the_last_tenant_drops_the_substrate() {
        let net = Arc::new(network());
        let mut svc = PlanService::new(Arc::clone(&net));
        let spec = spec_seeded(&net, 9);
        let a = svc.admit(spec.clone());
        let b = svc.admit(spec);
        assert_eq!(svc.substrate_count(), 1);
        assert!(svc.evict(a.tenant));
        assert_eq!(svc.substrate_count(), 1, "tenant b still holds it");
        assert!(svc.evict(b.tenant));
        assert_eq!(svc.substrate_count(), 0, "last evict drops the intern");
        assert!(!svc.evict(b.tenant), "double evict is a no-op");
        assert_eq!(svc.admitted_total(), 2, "lifetime counter survives");
    }

    #[test]
    fn sharing_report_prices_duplicate_tenants() {
        let net = Arc::new(network());
        let mut svc = PlanService::new(Arc::clone(&net));
        let spec = spec_seeded(&net, 11);
        svc.admit(spec.clone());
        let solo = svc.sharing_report();
        svc.admit(spec);
        let duo = svc.sharing_report();
        assert_eq!(duo.tenants, 2);
        assert_eq!(
            duo.payload_bytes_shared, solo.payload_bytes_shared,
            "a clone tenant adds zero marginal payload"
        );
        assert!(duo.savings_fraction() > solo.savings_fraction());
    }

    #[test]
    fn checkpoint_restores_bit_identical_tenants_with_zero_solves() {
        let net = Arc::new(network());
        let mut svc = PlanService::new(Arc::clone(&net));
        let ids: Vec<TenantId> = [21u64, 22, 23]
            .iter()
            .map(|&seed| {
                svc.admit_with(
                    spec_seeded(&net, seed),
                    TenantOptions {
                        runtime: Some(Runtime::Lossy),
                        ..TenantOptions::default()
                    },
                )
                .tenant
            })
            .collect();
        // Advance one tenant's salt cursor so restore must resume it.
        let vals = readings(&net);
        svc.run(ids[1], &vals);
        svc.run(ids[1], &vals);
        let text = svc.checkpoint();
        let mut restored =
            PlanService::restore(Arc::clone(&net), Config::default(), &text).expect("restores");
        assert_eq!(restored.len(), 3);
        assert_eq!(
            restored.solve_cache().lock().unwrap().misses(),
            0,
            "restore must not solve anything fresh"
        );
        for &id in &ids {
            let orig = svc.tenant(id).unwrap();
            let back = restored.tenant(id).unwrap();
            assert_eq!(back.rounds_run(), orig.rounds_run(), "{id} cursor resumes");
            assert_eq!(back.base_salt(), orig.base_salt());
            assert_eq!(back.runtime(), orig.runtime());
            assert_eq!(
                back.maintainer().plan().solutions(),
                orig.maintainer().plan().solutions(),
                "{id}: restored plan is bit-identical"
            );
        }
        // Replay digests agree from the resumed cursor.
        let a = svc.run(ids[1], &vals).unwrap();
        let b = restored.run(ids[1], &vals).unwrap();
        assert_eq!(a, b, "the resumed salt stream replays the original");
        // The persisted slabs warmed the cache: re-admitting a restored
        // spec solves nothing.
        let again = restored.admit(restored.tenant(ids[0]).unwrap().spec().clone());
        assert_eq!(again.solves_fresh, 0, "the seeded cache serves every edge");
        assert!(again.solves_cached > 0);
        // New admissions continue past persisted ids.
        let next = restored.admit(spec_seeded(&net, 29));
        assert!(next.tenant.0 > ids[2].0);
    }

    #[test]
    fn restore_rejects_a_mismatched_network() {
        let net = Arc::new(network());
        let mut svc = PlanService::new(Arc::clone(&net));
        svc.admit(spec_seeded(&net, 5));
        let text = svc.checkpoint();
        let other = Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0));
        let err = PlanService::restore(other, Config::default(), &text).unwrap_err();
        assert!(err.contains("network"), "{err}");
        // The same size and radio links, other positions: the fingerprint
        // tells them apart.
        let moved = Network::with_default_energy(Deployment::grid(5, 5, 11.0, 12.0));
        assert_eq!(moved.graph().edge_count(), net.graph().edge_count());
        let err = PlanService::restore(moved, Config::default(), &text).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("another 25-node network"),
            "{err}"
        );
    }

    #[test]
    fn restore_rejects_a_v1_checkpoint_naming_its_version() {
        let err = edited_checkpoint(|lines| {
            lines[0] = "m2m-service-checkpoint v1".to_string();
        })
        .unwrap_err();
        assert!(
            err.starts_with("line 1:") && err.contains("version v1"),
            "{err}"
        );
    }

    /// A one-tenant checkpoint whose function (destination 12, weighted
    /// sum) reads sources 1, 7 and 13, with `edit` applied to its lines.
    fn edited_checkpoint(edit: impl Fn(&mut Vec<String>)) -> Result<PlanService, String> {
        let net = Arc::new(network());
        let mut svc = PlanService::new(Arc::clone(&net));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(12),
            AggregateFunction::weighted_sum([
                (NodeId(1), 1.0),
                (NodeId(7), 0.5),
                (NodeId(13), 2.0),
            ]),
        );
        svc.admit(spec);
        let mut lines: Vec<String> = svc.checkpoint().lines().map(String::from).collect();
        edit(&mut lines);
        PlanService::restore(net, Config::default(), &lines.join("\n"))
    }

    fn line_starting<'a>(lines: &'a mut [String], prefix: &str) -> &'a mut String {
        lines
            .iter_mut()
            .find(|l| l.starts_with(prefix))
            .expect("checkpoint has the line")
    }

    #[test]
    fn restore_accepts_the_unedited_checkpoint() {
        assert!(edited_checkpoint(|_| {}).is_ok());
    }

    #[test]
    fn restore_leaves_an_id_to_admit_next() {
        // A header `next_id` of `u64::MAX`, or a tenant id one below it,
        // would overflow the next admission's id counter.
        let err = edited_checkpoint(|lines| {
            *line_starting(lines, "next_id ") = format!("next_id {}", u64::MAX);
        })
        .unwrap_err();
        assert!(err.contains("'next_id 18446744073709551615'"), "{err}");
        let err = edited_checkpoint(|lines| {
            *line_starting(lines, "tenant ") = format!("tenant {}", u64::MAX - 1);
        })
        .unwrap_err();
        assert!(err.contains("'tenant 18446744073709551614'"), "{err}");
        // The last id that leaves room restores, and the next admission
        // takes it.
        let mut svc = edited_checkpoint(|lines| {
            *line_starting(lines, "next_id ") = format!("next_id {}", u64::MAX - 1);
        })
        .unwrap();
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(3),
            AggregateFunction::weighted_sum([(NodeId(0), 1.0)]),
        );
        assert_eq!(svc.admit(spec).tenant, TenantId(u64::MAX - 1));
    }

    #[test]
    fn restore_rejects_a_solution_count_beyond_the_input() {
        let err = edited_checkpoint(|lines| {
            *line_starting(lines, "solutions ") = "solutions 1152921504606846975".to_string();
        })
        .unwrap_err();
        assert!(err.contains("1152921504606846975 solutions for"), "{err}");
        assert!(
            err.starts_with("line ") && err.contains("'solutions 1152921504606846975'"),
            "the error names the line: {err}"
        );
    }

    #[test]
    fn restore_rejects_an_out_of_range_destination() {
        let err = edited_checkpoint(|lines| {
            let line = line_starting(lines, "function ");
            *line = line.replacen("function 12 ", "function 999 ", 1);
        })
        .unwrap_err();
        assert!(err.contains("destination 999 out of range"), "{err}");
        assert!(
            err.starts_with("line ") && err.contains("'function 999 weighted_sum'"),
            "the error names the line: {err}"
        );
    }

    #[test]
    fn restore_rejects_a_source_id_that_would_truncate() {
        // 4294967297 = 2^32 + 1, which `as u32` would read as node 1.
        let err = edited_checkpoint(|lines| {
            let line = line_starting(lines, "source ");
            assert_eq!(line, "source 12 1 1", "the first source is node 1");
            *line = "source 12 4294967297 1".to_string();
        })
        .unwrap_err();
        assert!(err.contains("source 4294967297 out of range"), "{err}");
        assert!(
            err.starts_with("line ") && err.contains("'source 12 4294967297 1'"),
            "the error names the line: {err}"
        );
    }

    #[test]
    fn restore_rejects_a_destination_named_twice() {
        // A later line for the same destination must not replace the
        // earlier one, which would leave a variance function seeded with
        // slabs solved for a sum.
        let err = edited_checkpoint(|lines| {
            let at = lines
                .iter()
                .position(|l| l.starts_with("function "))
                .expect("checkpoint has a function line");
            let second = lines[at].replacen(" weighted_sum", " weighted_variance", 1);
            lines.insert(at + 1, second);
        })
        .unwrap_err();
        assert!(err.contains("function 12 is already defined"), "{err}");
        assert!(
            err.starts_with("line ") && err.contains("'function 12 weighted_variance'"),
            "the error names the line: {err}"
        );
    }

    #[test]
    fn restore_rejects_a_source_named_twice_in_one_function() {
        let err = edited_checkpoint(|lines| {
            let line = line_starting(lines, "source 12 7 ");
            assert_eq!(line, "source 12 7 0.5", "the second source is node 7");
            *line = "source 12 1 0.5".to_string();
        })
        .unwrap_err();
        assert!(err.contains("source 1 named twice"), "{err}");
        assert!(
            err.starts_with("line ") && err.contains("'source 12 1 0.5'"),
            "the error names the line: {err}"
        );
    }

    #[test]
    fn restore_rejects_a_solution_that_does_not_answer_its_problem() {
        // A raw unit the edge does not route, a cost its units do not
        // price, and a reversed edge: plan validation catches none.
        for edit in [
            |sol: &mut EdgeSolution| sol.raw.push(NodeId(24)),
            |sol: &mut EdgeSolution| sol.cost_bytes += 1,
            |sol: &mut EdgeSolution| sol.edge = (sol.edge.1, sol.edge.0),
        ] {
            let edited = std::cell::RefCell::new(String::new());
            let err = edited_checkpoint(|lines| {
                let line = line_starting(lines, "solution ");
                let mut sol = parse_solution(&mut Fields::new(1, line), 25).unwrap();
                edit(&mut sol);
                *line = solution_line(&sol);
                *edited.borrow_mut() = line.clone();
            })
            .unwrap_err();
            assert!(err.contains("does not answer its edge's problem"), "{err}");
            assert!(
                err.starts_with("line ") && err.contains(&format!("'{}'", edited.borrow())),
                "the error names the line: {err}"
            );
        }
    }

    #[test]
    fn checkpoint_round_trips_a_swept_plan() {
        // Source 1's first hop aggregates its record (a valid cover, not
        // the solver's), so the §2.3 sweep patches the hops after it.
        let net = Arc::new(network());
        let mut svc = PlanService::new(Arc::clone(&net));
        let mut spec = AggregationSpec::new();
        spec.add_function(
            NodeId(24),
            AggregateFunction::weighted_sum([(NodeId(1), 1.0), (NodeId(7), 0.5)]),
        );
        let tenant = svc.admit(spec.clone()).tenant;
        let m = svc.tenant(tenant).unwrap().maintainer();
        let path = m
            .routing()
            .tree(NodeId(1))
            .unwrap()
            .path_to(NodeId(24))
            .unwrap();
        let slot = m.topology().edge_idx((path[0], path[1])).unwrap().index();
        let mut base: Vec<EdgeSolution> = m.base_solutions().cloned().collect();
        crate::edge_opt::patch_edge_sized(&m.problems()[slot], &mut base[slot], NodeId(1), &|d| {
            spec.function(d).unwrap().partial_record_bytes()
        });
        let text = svc.checkpoint().replace(
            &solution_line(m.base_solutions().nth(slot).unwrap()),
            &solution_line(&base[slot]),
        );
        let restored = PlanService::restore(Arc::clone(&net), Config::default(), &text).unwrap();
        let back = restored.tenant(tenant).unwrap().maintainer();
        assert!(back.plan().repair_count() > 0, "the sweep patches");
        assert!(back.base_solutions().eq(&base));
        assert_ne!(back.plan().solutions(), base.as_slice());
        assert_eq!(restored.checkpoint(), text, "the round trip is exact");
        let again = PlanService::restore(net, Config::default(), &text).unwrap();
        assert_eq!(
            again
                .tenant(tenant)
                .unwrap()
                .maintainer()
                .plan()
                .solutions(),
            back.plan().solutions()
        );
    }

    /// Tokens that break counts, ids, weights, kinds, modes and keywords.
    const REPLACEMENTS: [&str; 14] = [
        "0",
        "1",
        "-1",
        "x",
        "18446744073709551615",
        "4294967296",
        "NaN",
        "end",
        "function",
        "source",
        "solution",
        "shared",
        "weighted_variance",
        "lossy",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Every cut of a two-tenant checkpoint at a token boundary, and
        /// every copy of it with one token replaced by each of the
        /// [`REPLACEMENTS`], restores or fails with an `Err`; none panics.
        #[test]
        fn damaged_checkpoints_restore_or_fail_without_panicking(seed in 0u64..1_000) {
            let net = Arc::new(Network::with_default_energy(Deployment::grid(4, 4, 10.0, 12.0)));
            let mut svc = PlanService::new(Arc::clone(&net));
            for (i, mode) in [RoutingMode::ShortestPathTrees, RoutingMode::SharedSpanningTree]
                .into_iter()
                .enumerate()
            {
                let spec = generate_workload(
                    &net,
                    &WorkloadConfig::paper_default(2, 2, seed + i as u64),
                );
                svc.admit_with(spec, TenantOptions { mode, ..TenantOptions::default() });
            }
            let text = svc.checkpoint();
            let mut damaged: Vec<String> = text
                .char_indices()
                .filter(|&(_, c)| c.is_whitespace())
                .map(|(cut, _)| text[..cut].to_string())
                .collect();
            let lines: Vec<Vec<&str>> =
                text.lines().map(|l| l.split_whitespace().collect()).collect();
            for (i, line) in lines.iter().enumerate() {
                for j in 0..line.len() {
                    for replacement in REPLACEMENTS {
                        let mut copy = lines.clone();
                        copy[i][j] = replacement;
                        damaged.push(copy.iter().map(|l| l.join(" ") + "\n").collect());
                    }
                }
            }
            let next = generate_workload(&net, &WorkloadConfig::paper_default(2, 2, seed + 2));
            for text in &damaged {
                let net = Arc::clone(&net);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // A restored service must take the next admission.
                    PlanService::restore(net, Config::default(), text)
                        .map(|mut svc| svc.admit(next.clone()).tenant)
                }));
                proptest::prop_assert!(outcome.is_ok(), "panicked on:\n{}", text);
            }
        }
    }
}
