//! The three workloads. Each runs as one closed-loop client on one
//! thread: generate inputs, time repeated cold starts, warm up, then run a
//! fixed number of timed ops, checking outputs outside the timed region.
//!
//! Timed paths call only the user-facing API: `SessionBuilder`,
//! `Session::run` / `run_rounds` / `observe_quality`, and `PlanService`.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use m2m_core::config::{Config, Runtime};
use m2m_core::exec::run_epochs_slab;
use m2m_core::service::{PlanService, TenantId};
use m2m_core::session::{RoundReport, Session};
use m2m_core::spec::AggregationSpec;
use m2m_core::topo::Topology;
use m2m_graph::NodeId;
use m2m_netsim::quality::weighted_routing;
use m2m_netsim::{DeliveryModel, LinkQuality, Network};

use crate::gauge;
use crate::inputs::{self, sub_seed, Field};
use crate::procstat::{self, ProcDelta};
use crate::stats::{report_digest, Fnv};
use crate::trace;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["lossy_rounds", "churn_adapt", "tenant_stream"];

/// Node count of `lossy_rounds` and `churn_adapt`: the size ROADMAP states
/// its lossy and compile targets at.
const SMALL_NODES: usize = 250;
/// Paper-default spec at 250 nodes: 25 % destinations, 20 sources each.
const SMALL_DESTS: usize = 62;
const SOURCES: usize = 20;
/// The tenant workload's deployment and per-tenant spec size.
const LARGE_NODES: usize = 1000;
const TENANT_DESTS: usize = 25;
/// Live tenants kept by `tenant_stream`; the oldest is evicted beyond it.
const LIVE_TENANTS: usize = 64;
/// Templates in the sliding pool; every `POOL`-th admission is new.
const POOL: usize = 8;
/// Distinct reading batches cycled through by `lossy_rounds`.
const BATCH_RING: usize = 4;
/// Output checks per `lossy_rounds` run, and rows compared per check.
const ROUND_CHECKS: u64 = 20;
const CHECK_ROWS: usize = 8;
/// Reroutes between maintained-vs-cold checks in `churn_adapt`.
const CHURN_CHECK_EVERY: u64 = 50;

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub digest: Fnv,
    /// Set-up samples: the mean time of each group of cold starts (s).
    pub setup_s: Vec<Timing>,
    /// Timed op latencies (ms), one list per deployment the run uses.
    pub op_ms: Vec<Vec<Timing>>,
    pub energy_mj: f64,
    pub coverage: f64,
    pub rounds: u64,
    /// Workload-specific metrics, printed beside the generic ones.
    pub named: Vec<(&'static str, f64, &'static str)>,
    pub phases: Vec<(&'static str, ProcDelta)>,
    /// Inputs and recorded outputs the traced replay re-derives.
    pub replay: Option<ReplayInputs>,
}

/// The primary inputs of a run and the session outputs the traced
/// replay must reproduce bit for bit.
pub struct ReplayInputs {
    pub field: Field,
    pub spec: AggregationSpec,
    pub rows: Vec<Vec<f64>>,
    pub map: BTreeMap<NodeId, f64>,
    pub delivery: DeliveryModel,
    pub quality: LinkQuality,
    pub base_salt: u64,
    /// `(runtime, rows, salt cursor, per-round digests)` of recorded
    /// session batches.
    pub anchors: Vec<Anchor>,
    /// `(drift step, salt cursor, digest of the first answer)` of the
    /// first churn ops.
    pub churn: Vec<(u64, u64, u64)>,
    pub seed: u64,
}

/// One timed region: its wall time and the host-speed gauge reading
/// around it (see [`gauge`]).
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub wall: f64,
    pub pass_us: f64,
}

impl Timing {
    /// The wall time at the reference speed.
    pub fn at_ref(&self) -> f64 {
        gauge::at_ref(self.wall, self.pass_us)
    }
}

/// The quantile `q` of `xs` at the reference speed, or of their wall
/// times if `wall`.
pub fn quantile(xs: &[Timing], q: f64, wall: bool) -> f64 {
    let v: Vec<f64> = xs
        .iter()
        .map(|t| if wall { t.wall } else { t.at_ref() })
        .collect();
    crate::stats::quantile(&v, q)
}

pub struct Anchor {
    pub runtime: Runtime,
    pub rows: Vec<Vec<f64>>,
    pub cursor: u64,
    pub digests: Vec<u64>,
}

pub struct Ctx {
    pub cfg: Config,
    pub seed: u64,
    pub seconds: u64,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    fn observe(&mut self, r: &RoundReport) {
        self.digest.u64(report_digest(r));
        self.energy_mj += r.cost().total_mj();
        self.coverage += crate::stats::coverage(r);
        self.rounds += 1;
    }

    pub fn phase(&mut self, name: &'static str, start: &procstat::ProcSample) {
        self.phases.push((name, procstat::sample().since(start)));
    }
}

pub fn run(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "lossy_rounds" => lossy_rounds(ctx),
        "churn_adapt" => churn(ctx),
        "tenant_stream" => tenants(ctx),
        _ => unreachable!("workload names are validated by the CLI"),
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs one op under [`gauge::timed`]; returns its result and timing
/// (ms).
fn timed_ms<T>(op: impl FnOnce() -> T) -> (T, Timing) {
    let (value, wall, pass_us) = gauge::timed(op);
    (
        value,
        Timing {
            wall: wall * 1e3,
            pass_us,
        },
    )
}

/// Set-up samples per run, each the mean of a group of back-to-back
/// cold starts.
const SETUP_SAMPLES: usize = 11;

/// Times `group` cold starts back to back and records their mean as one
/// set-up sample, so that a sample spans about 0.2 s: a single cold start
/// is short enough to fall wholly inside one of the host's fast or slow
/// spells, and the median of single cold starts jumped between the two
/// from one process to the next. Returns what the first cold start
/// built; the others are dropped outside the timing.
fn setup_sample<T>(out: &mut Outcome, group: usize, cold: impl Fn(&mut Outcome) -> (T, f64)) -> T {
    let before = gauge::pass_us();
    let (first, mut total) = cold(out);
    for _ in 1..group {
        let (rest, s) = cold(out);
        drop(rest);
        total += s;
    }
    out.setup_s.push(Timing {
        wall: total / group as f64,
        pass_us: (before + gauge::pass_us()) / 2.0,
    });
    first
}

/// Rounds per timed `lossy_rounds` batch: small enough that its
/// readings and outcomes stay cache-resident.
const LOSSY_BATCH: usize = 32;
/// Timed batches per `--seconds`.
const LOSSY_PER_SECOND: u64 = 35;
/// Cold starts per set-up sample of `lossy_rounds`.
const LOSSY_SETUP_GROUP: usize = 3;

fn compare_rows(a: &[RoundReport], b: &[RoundReport]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} rounds vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let bits = |r: &RoundReport| -> Vec<Option<u64>> {
            r.results().iter().map(|v| v.map(f64::to_bits)).collect()
        };
        if bits(x) != bits(y) {
            return Err(format!("round {i}: results differ"));
        }
        if x.cost().total_uj().to_bits() != y.cost().total_uj().to_bits() {
            return Err(format!("round {i}: cost differs"));
        }
    }
    Ok(())
}

/// Deployments per `lossy_rounds` run. Plans of one size still differ in
/// round cost by up to a fifth from one deployment to the next, so each
/// run times four of them, one block of ops each, and averages their
/// quantiles: a costly deployment then moves a run's figure a quarter
/// as much.
const LOSSY_FIELDS: u64 = 4;

/// One `lossy_rounds` deployment's generated inputs.
struct LossyField {
    seed: u64,
    field: Field,
    spec: AggregationSpec,
    quality: LinkQuality,
    lossy: DeliveryModel,
    map: BTreeMap<NodeId, f64>,
    base_salt: u64,
}

impl LossyField {
    /// Deployment `k` of the run: the first one comes from the workload
    /// seed itself, so it equals `churn_adapt`'s for the same seed.
    fn generate(seed: u64, k: u64) -> LossyField {
        let seed = if k == 0 { seed } else { sub_seed(seed, 50 + k) };
        let field = Field::generate(SMALL_NODES, seed);
        let probe = field.network();
        let quality = inputs::quality(&probe, seed);
        LossyField {
            seed,
            spec: inputs::spec(&probe, SMALL_DESTS, SOURCES, sub_seed(seed, 3)),
            lossy: DeliveryModel::from_quality(&quality, sub_seed(seed, 4)),
            map: inputs::reading_map(&probe, sub_seed(seed, 5)),
            base_salt: sub_seed(seed, 6),
            quality,
            field,
        }
    }

    fn build(&self, ctx: &Ctx, net: Arc<Network>, rt: Runtime, d: DeliveryModel) -> Session {
        Session::builder(net, self.spec.clone())
            .config(ctx.cfg.clone())
            .runtime(rt)
            .delivery(d)
            .base_salt(self.base_salt)
            .build()
    }

    /// From generated inputs to the first answered Lossy round.
    fn cold_start(&self, ctx: &Ctx, out: &mut Outcome) -> (Session, f64) {
        let d = self.lossy.clone();
        let t = Instant::now();
        let net = Arc::new(self.field.network());
        let mut s = self.build(ctx, net, Runtime::Lossy, d);
        let first = s.run(&self.map);
        let dt = secs(t);
        out.digest.u64(report_digest(&first));
        (s, dt)
    }
}

/// `lossy_rounds`: Lossy sessions over 250-node deployments answering
/// fixed batches of rounds, one deployment after another.
fn lossy_rounds(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let fields: Vec<LossyField> = (0..LOSSY_FIELDS)
        .map(|k| LossyField::generate(ctx.seed, k))
        .collect();

    let p = procstat::sample();
    let sessions: Vec<Session> = fields
        .iter()
        .map(|f| setup_sample(&mut out, LOSSY_SETUP_GROUP, |o| f.cold_start(ctx, o)))
        .collect();
    out.phase("setup", &p);

    let block = LOSSY_PER_SECOND * ctx.seconds / LOSSY_FIELDS;
    let check_every = (block / ROUND_CHECKS).max(1) as usize;
    // The set-up samples left to take, spread evenly through the ops.
    let cold_every = (block * LOSSY_FIELDS / (SETUP_SAMPLES - fields.len()) as u64).max(1);
    let mut anchor = None;
    let mut op = 0u64;
    let mut batch_ms = Vec::new();
    let p = procstat::sample();
    for (f, mut session) in fields.iter().zip(sessions) {
        // Output checks run on their own sessions over the same network
        // and plan, so they never advance the measured session's salt
        // stream.
        let net = session.network_arc();
        let mut reference = f.build(
            ctx,
            Arc::clone(&net),
            Runtime::Compiled,
            DeliveryModel::reliable(),
        );
        let mut exact: Vec<Session> = [Runtime::Lossy, Runtime::Sim]
            .into_iter()
            .map(|rt| f.build(ctx, Arc::clone(&net), rt, DeliveryModel::reliable()))
            .collect();
        let width = session.compiled().sources().len();
        let ring: Vec<Vec<Vec<f64>>> = (0..BATCH_RING as u64)
            .map(|i| inputs::rows(width, LOSSY_BATCH, sub_seed(f.seed, 10 + i)))
            .collect();
        for rows in &ring {
            black_box(session.run_rounds(rows));
        }
        let mut times = Vec::new();
        for i in 0..block as usize {
            trace::set_op(op as u32);
            let rows = &ring[i % BATCH_RING];
            let cursor = session.rounds_run();
            out.attempted += 1;
            let (reports, t) = timed_ms(|| {
                let _s = trace::span("session.run_rounds");
                session.run_rounds(rows)
            });
            times.push(t);
            for r in &reports {
                out.observe(r);
            }
            if op == 0 {
                anchor = Some(Anchor {
                    runtime: Runtime::Lossy,
                    rows: rows.clone(),
                    cursor,
                    digests: reports.iter().map(report_digest).collect(),
                });
            }
            if i % check_every == 0 {
                // Lossy and simulated rounds at p = 0 must equal the
                // compiled rounds of the same plan bit for bit.
                let sample = &rows[..CHECK_ROWS.min(rows.len())];
                let want = reference.run_rounds(sample);
                for s in &mut exact {
                    if let Err(e) = compare_rows(&want, &s.run_rounds(sample)) {
                        out.fail(format!(
                            "op {op}: {} at p=0 vs compiled: {e}",
                            s.runtime().name()
                        ));
                    }
                }
            }
            op += 1;
            if op.is_multiple_of(cold_every) && out.setup_s.len() < SETUP_SAMPLES {
                drop(setup_sample(&mut out, LOSSY_SETUP_GROUP, |o| {
                    f.cold_start(ctx, o)
                }));
                // Re-warm what the cold starts displaced before the next
                // timed op.
                black_box(session.run_rounds(&ring[(i + 1) % BATCH_RING]));
            }
        }
        batch_ms.push(quantile(&times, 0.5, false));
        out.op_ms.push(times);
    }
    out.phase("ops", &p);

    out.named.push((
        "lossy_rounds_per_s",
        LOSSY_BATCH as f64 / (crate::stats::mean(&batch_ms) / 1e3),
        "rounds/s",
    ));
    // The replay re-derives the first deployment and its first batch.
    let f = fields.into_iter().next().expect("at least one deployment");
    let anchor = anchor.expect("op 0 records the replay anchor");
    out.replay = Some(ReplayInputs {
        rows: anchor.rows.clone(),
        field: f.field,
        spec: f.spec,
        map: f.map,
        delivery: f.lossy,
        quality: f.quality,
        base_salt: f.base_salt,
        anchors: vec![anchor],
        churn: Vec::new(),
        seed: f.seed,
    });
    out
}

/// Ops per `--seconds` of `churn_adapt`, never fewer than leave ten
/// samples beyond p90.
const CHURN_PER_SECOND: u64 = 4;
const CHURN_MIN_OPS: u64 = 100;
/// Lossy rounds answered after each reroute.
const CHURN_BATCH: usize = 16;
/// Reroutes the traced replay re-derives from public functions.
const CHURN_REPLAYED: usize = 15;

/// `churn_adapt`: one lossy session tracking link quality; each op feeds
/// the next drift step through `observe_quality` and answers the first
/// round on the new routes.
fn churn(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed;
    let mut out = Outcome::default();
    let field = Field::generate(SMALL_NODES, seed);
    let probe = field.network();
    let spec = inputs::spec(&probe, SMALL_DESTS, SOURCES, sub_seed(seed, 3));
    let q0 = inputs::quality(&probe, seed);
    let delivery_seed = sub_seed(seed, 4);
    let map = inputs::reading_map(&probe, sub_seed(seed, 5));
    let base_salt = sub_seed(seed, 6);

    let cold_start = |out: &mut Outcome| -> (Session, f64) {
        let d = DeliveryModel::from_quality(&q0, delivery_seed);
        let q = q0.clone();
        let t = Instant::now();
        let net = Arc::new(field.network());
        let mut s = Session::builder(net, spec.clone())
            .config(ctx.cfg.clone())
            .runtime(Runtime::Lossy)
            .delivery(d)
            .quality(q)
            .base_salt(base_salt)
            .build();
        let first = s.run(&map);
        let dt = secs(t);
        out.digest.u64(report_digest(&first));
        (s, dt)
    };

    // One churn cold start already lasts about 0.25 s.
    let p = procstat::sample();
    let mut session = setup_sample(&mut out, 1, cold_start);
    out.phase("setup", &p);

    let net = session.network_arc();
    let width = session.compiled().sources().len();
    let batch = inputs::rows(width, CHURN_BATCH, sub_seed(seed, 10));
    black_box(session.run_rounds(&batch));
    let ops = (CHURN_PER_SECOND * ctx.seconds).max(CHURN_MIN_OPS);
    let cold_every = (ops / SETUP_SAMPLES as u64).max(1);
    let mut churn_anchors = Vec::new();
    let (mut times, mut lossy_ms) = (Vec::new(), Vec::new());
    let p = procstat::sample();
    for k in 1..=ops {
        trace::set_op(k as u32);
        let q = inputs::drift_step(&q0, seed, k);
        // The radio environment drifts first; the session then observes it.
        session.set_delivery(DeliveryModel::from_quality(&q, delivery_seed));
        let cursor = session.rounds_run();
        out.attempted += 1;
        let ((fired, answer), t) = timed_ms(|| {
            let fired = {
                let _s = trace::span("session.observe_quality");
                session.observe_quality(&q)
            };
            let _s = trace::span("session.run");
            (fired, session.run(&map))
        });
        times.push(t);
        out.observe(&answer);
        if fired.is_none() {
            out.fail(format!("drift step {k} did not cross the hysteresis"));
        }
        if churn_anchors.len() < CHURN_REPLAYED {
            churn_anchors.push((k, cursor, report_digest(&answer)));
        }
        // The lossy batch below re-warms what a cold start displaces.
        if k % cold_every == 0 && out.setup_s.len() < SETUP_SAMPLES {
            drop(setup_sample(&mut out, 1, cold_start));
        }
        let (reports, t) = timed_ms(|| session.run_rounds(&batch));
        lossy_ms.push(t);
        for r in &reports {
            out.observe(r);
        }
        if k % CHURN_CHECK_EVERY == 1 {
            if let Err(e) = check_cold_reroute(ctx, &net, &session, &q, &batch) {
                out.fail(format!("op {k}: maintained vs cold session: {e}"));
            }
        }
    }
    out.phase("ops", &p);
    out.named
        .push(("adapt_p50_ms", quantile(&times, 0.5, false), "ms"));
    out.named
        .push(("adapt_p90_ms", quantile(&times, 0.9, false), "ms"));
    out.named.push((
        "churn_lossy_rounds_per_s",
        CHURN_BATCH as f64 / (quantile(&lossy_ms, 0.5, false) / 1e3),
        "rounds/s",
    ));
    out.op_ms.push(times);
    out.replay = Some(ReplayInputs {
        field,
        spec,
        rows: batch,
        map,
        delivery: DeliveryModel::from_quality(&q0, delivery_seed),
        quality: q0,
        base_salt,
        anchors: Vec::new(),
        churn: churn_anchors,
        seed,
    });
    out
}

/// The maintained session's compiled results must equal those of a cold
/// session built directly on the same ETX routes.
fn check_cold_reroute(
    ctx: &Ctx,
    net: &Arc<Network>,
    maintained: &Session,
    q: &LinkQuality,
    rows: &[Vec<f64>],
) -> Result<(), String> {
    let spec = maintained.spec().clone();
    let routing = weighted_routing(net, &spec.source_to_destinations(), q);
    let topo = Topology::snapshot(&spec, &routing);
    let mut cold = Session::builder(Arc::clone(net), spec)
        .config(ctx.cfg.clone())
        .runtime(Runtime::Compiled)
        .substrate(Arc::new(routing), Arc::new(topo))
        .build();
    let want = cold.run_rounds(rows);
    let got = run_epochs_slab(maintained.compiled(), rows, ctx.cfg.lanes(), 1);
    for (r, report) in want.iter().enumerate() {
        let a: Vec<u64> = report
            .results()
            .iter()
            .map(|v| v.map_or(u64::MAX, f64::to_bits))
            .collect();
        let b: Vec<u64> = got.round(r).iter().map(|v| v.to_bits()).collect();
        if a != b {
            return Err(format!("round {r} differs"));
        }
    }
    Ok(())
}

const TENANT_PER_SECOND: u64 = 110;
const TENANT_MIN_OPS: u64 = 1000;
/// Cold starts per set-up sample of `tenant_stream`.
const TENANT_SETUP_GROUP: usize = 3;
/// Rows the traced replay times each runtime's rounds over.
const REPLAY_ROWS: usize = 64;
/// Ops between isolated-session checks of a warm tenant.
const TENANT_CHECK_EVERY: usize = 97;

/// The admission sequence: a sliding pool of templates where every
/// `POOL`-th admission is a never-seen template replacing the oldest.
struct Templates {
    pool: VecDeque<AggregationSpec>,
    fresh: std::vec::IntoIter<AggregationSpec>,
    admitted: usize,
}

impl Templates {
    fn new(net: &Network, seed: u64, admissions: usize) -> Templates {
        let total = POOL + admissions / POOL + 1;
        let mut all: Vec<AggregationSpec> = (0..total as u64)
            .map(|i| inputs::spec(net, TENANT_DESTS, SOURCES, sub_seed(seed, 1000 + i)))
            .collect();
        let fresh = all.split_off(POOL);
        Templates {
            pool: all.into(),
            fresh: fresh.into_iter(),
            admitted: 0,
        }
    }

    fn next(&mut self) -> AggregationSpec {
        let a = self.admitted;
        self.admitted += 1;
        if a % POOL == POOL - 1 {
            let new = self.fresh.next().expect("templates sized for the run");
            self.pool.pop_front();
            self.pool.push_back(new.clone());
            new
        } else {
            self.pool[a % POOL].clone()
        }
    }
}

/// `tenant_stream`: one `PlanService` on a 1,000-node deployment with
/// 64 live tenants; each op evicts the oldest, admits the next spec and
/// answers its first compiled round.
fn tenants(ctx: &Ctx) -> Outcome {
    let seed = ctx.seed;
    let mut out = Outcome::default();
    let field = Field::generate(LARGE_NODES, seed);
    let probe = field.network();
    let ops = (TENANT_PER_SECOND * ctx.seconds).max(TENANT_MIN_OPS) as usize;
    let mut templates = Templates::new(&probe, seed, ops + LIVE_TENANTS + 1);
    let first_spec = templates.next();
    let map = inputs::reading_map(&probe, sub_seed(seed, 5));

    let cold_start = |out: &mut Outcome| -> ((PlanService, TenantId), f64) {
        let spec = first_spec.clone();
        let t = Instant::now();
        let net = Arc::new(field.network());
        let mut svc = PlanService::with_config(net, ctx.cfg.clone());
        let adm = svc.admit(spec);
        let first = svc.run(adm.tenant, &map).expect("admitted tenant is live");
        let dt = secs(t);
        out.digest.u64(report_digest(&first));
        ((svc, adm.tenant), dt)
    };

    let p = procstat::sample();
    let (mut svc, first_tenant) = setup_sample(&mut out, TENANT_SETUP_GROUP, cold_start);
    out.phase("setup", &p);

    let net = svc.network_arc();
    let mut live: VecDeque<_> = VecDeque::from([first_tenant]);
    while live.len() < LIVE_TENANTS {
        let adm = svc.admit(templates.next());
        black_box(svc.run(adm.tenant, &map));
        live.push_back(adm.tenant);
    }
    let cold_every = (ops / SETUP_SAMPLES).max(1);
    let (mut times, mut warm, mut cold, mut reused) = (Vec::new(), Vec::new(), Vec::new(), 0usize);
    let mut anchor = None;
    let p = procstat::sample();
    for i in 0..ops {
        trace::set_op(i as u32);
        let spec = templates.next();
        let check_spec = (i % TENANT_CHECK_EVERY == 0).then(|| spec.clone());
        out.attempted += 1;
        let ((adm, report), dt) = timed_ms(|| {
            if live.len() >= LIVE_TENANTS {
                let oldest = live.pop_front().expect("live tenants");
                let _s = trace::span("service.evict");
                svc.evict(oldest);
            }
            let adm = {
                let s = trace::span("service.admit");
                let adm = svc.admit(spec);
                s.rename(if adm.solves_fresh == 0 && adm.reused_substrate {
                    "service.admit_warm"
                } else {
                    "service.admit_cold"
                });
                adm
            };
            let _s = trace::span("session.run");
            let report = svc.run(adm.tenant, &map).expect("admitted tenant is live");
            (adm, report)
        });
        times.push(dt);
        live.push_back(adm.tenant);
        out.observe(&report);
        let is_warm = adm.solves_fresh == 0 && adm.reused_substrate;
        if is_warm {
            warm.push(dt);
        } else {
            cold.push(dt);
        }
        reused += usize::from(adm.reused_substrate);
        if let Some(spec) = check_spec {
            if i == 0 {
                let tenant = svc.tenant(adm.tenant).expect("admitted tenant is live");
                let row: Vec<f64> = tenant
                    .compiled()
                    .sources()
                    .ids()
                    .iter()
                    .map(|v| map[v])
                    .collect();
                anchor = Some((
                    spec.clone(),
                    Anchor {
                        runtime: Runtime::Compiled,
                        rows: vec![row],
                        cursor: 0,
                        digests: vec![report_digest(&report)],
                    },
                ));
            }
            if is_warm {
                // A warm tenant must answer exactly like an isolated session.
                let mut isolated = Session::builder(Arc::clone(&net), spec)
                    .config(ctx.cfg.clone())
                    .build();
                let want = isolated.run(&map);
                if let Err(e) = compare_rows(&[want], &[report]) {
                    out.fail(format!("op {i}: warm tenant vs isolated session: {e}"));
                }
            }
        }
        if (i + 1) % cold_every == 0 && out.setup_s.len() < SETUP_SAMPLES {
            drop(setup_sample(&mut out, TENANT_SETUP_GROUP, cold_start));
            // Re-warm what the cold starts displaced before the next timed op.
            let newest = *live.back().expect("live tenants");
            black_box(svc.run(newest, &map));
        }
    }
    out.phase("ops", &p);
    for (name, q) in [
        ("admit_p50_ms", 0.5),
        ("admit_p90_ms", 0.9),
        ("admit_p99_ms", 0.99),
    ] {
        out.named.push((name, quantile(&times, q, false), "ms"));
    }
    if !warm.is_empty() {
        out.named
            .push(("admit_warm_p50_ms", quantile(&warm, 0.5, false), "ms"));
    }
    if !cold.is_empty() {
        out.named
            .push(("admit_cold_p50_ms", quantile(&cold, 0.5, false), "ms"));
    }
    out.named.push((
        "substrate_reuse_fraction",
        reused as f64 / ops as f64,
        "fraction",
    ));
    out.op_ms.push(times);
    let (spec, anchor) = anchor.expect("op 0 records the replay anchor");
    let quality = inputs::quality(&probe, seed);
    let width = anchor.rows[0].len();
    out.replay = Some(ReplayInputs {
        field,
        spec,
        rows: inputs::rows(width, REPLAY_ROWS, sub_seed(seed, 10)),
        map,
        delivery: DeliveryModel::from_quality(&quality, sub_seed(seed, 4)),
        quality,
        base_salt: sub_seed(seed, 6),
        anchors: vec![anchor],
        churn: Vec::new(),
        seed,
    });
    out
}
