//! The traced decomposition: replays a session's pipeline layer by layer
//! from public functions, with a span around each call, and proves the
//! replay reproduces the session's recorded rounds bit for bit — so the
//! per-layer numbers cannot drift from what the end-to-end run timed.
//!
//! Every traced run replays the whole pipeline once per repetition on
//! its own workload's inputs, so every layer metric exists for every
//! workload; the op loop's own spans add per-op samples for the layers
//! the workload's ops call.

use std::collections::BTreeMap;
use std::sync::Arc;

use m2m_core::config::Runtime;
use m2m_core::dynamics::PlanMaintainer;
use m2m_core::edge_opt::{build_edge_problems, solve_edge_slab};
use m2m_core::exec::{run_epochs_slab, CompiledSchedule};
use m2m_core::faults::{FaultyExec, SALT_STRIDE};
use m2m_core::memo::SharedSolveCache;
use m2m_core::plan::GlobalPlan;
use m2m_core::schedule::build_schedule;
use m2m_core::service::PlanService;
use m2m_core::session::Session;
use m2m_core::sim::SimExec;
use m2m_core::topo::Topology;
use m2m_netsim::quality::weighted_routing;
use m2m_netsim::{DeliveryModel, RoutingMode, RoutingTables};

use crate::inputs::{self, sub_seed};
use crate::stats::{compiled_digest, fault_digest, report_digest, sim_digest};
use crate::trace::{span, timed};
use crate::workloads::{Ctx, ReplayInputs};

/// Whole-pipeline replays per traced run; layer times are medians over
/// them (and over the op loop's own spans where the ops call the layer).
pub const REPLAYS: usize = 3;
/// Op id of the churn replay's spans.
pub const CHURN_OP: u32 = u32::MAX - REPLAYS as u32;

/// Exact counts the replay observes, by metric name, with their units.
pub type Counts = BTreeMap<&'static str, (f64, &'static str)>;

/// Rows each round-running replay stage executed, for per-round scaling.
#[derive(Default)]
pub struct Rows {
    pub compiled: usize,
    pub lossy: usize,
    pub sim: usize,
}

fn salt(base: u64, round: u64) -> u64 {
    base.wrapping_add(round.wrapping_mul(SALT_STRIDE))
}

fn check(what: &str, got: &[u64], want: &[u64]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("replayed {what} differ from the session's"))
    }
}

pub fn run(ctx: &Ctx, inp: &ReplayInputs) -> Result<(Counts, Rows), String> {
    let mut counts = Counts::new();
    let mut rows = Rows::default();
    for rep in 0..REPLAYS {
        crate::trace::set_op(u32::MAX - rep as u32);
        pipeline(ctx, inp, &mut counts, &mut rows)?;
    }
    if !inp.churn.is_empty() {
        crate::trace::set_op(CHURN_OP);
        churn(ctx, inp, &mut counts)?;
    }
    Ok((counts, rows))
}

/// One pass over every layer: routing → intern → problems → solve
/// (plain and through the shared cache) → assemble → schedule → lower →
/// compiled, lossy and simulated rounds → ETX reroute → incremental
/// re-plan → service admission and eviction.
fn pipeline(
    ctx: &Ctx,
    inp: &ReplayInputs,
    counts: &mut Counts,
    rows_run: &mut Rows,
) -> Result<(), String> {
    let spec = &inp.spec;
    let cfg = &ctx.cfg;
    let policy = cfg.retry_policy();
    let net = Arc::new(timed("network.build", || inp.field.network()));
    let demands = spec.source_to_destinations();
    let (routing, topo) = {
        let _s = span("service.substrate");
        let routing = timed("routing.build", || {
            RoutingTables::build(&net, &demands, RoutingMode::ShortestPathTrees)
        });
        let topo = timed("topo.intern", || Topology::snapshot(spec, &routing));
        (Arc::new(routing), Arc::new(topo))
    };
    counts.insert(
        "routing.tree_edges",
        (routing.total_tree_size() as f64, "count"),
    );
    counts.insert("topo.edges", (topo.edge_count() as f64, "count"));
    counts.insert("topo.slab_bytes", (topo.slab_bytes() as f64, "bytes"));

    let problems = timed("edge_opt.problems", || build_edge_problems(&topo));
    let solutions = timed("edge_opt.solve", || solve_edge_slab(&problems, spec, 1));
    counts.insert("edge_opt.solves", (problems.len() as f64, "count"));
    let mut cache = SharedSolveCache::new();
    for _ in 0..2 {
        let cached = timed("memo.solve_all", || cache.solve_all(&problems, spec, 1));
        if cached != solutions {
            return Err("shared-cache solves differ from plain solves".into());
        }
    }
    counts.insert("memo.hit_rate", (cache.hit_rate(), "fraction"));
    counts.insert("memo.entries", (cache.len() as f64, "count"));

    let (p, s) = (problems.clone(), solutions.clone());
    let plan = timed("plan.assemble", || {
        GlobalPlan::from_solutions(spec, Arc::clone(&topo), p, s)
    });
    counts.insert("plan.repairs", (plan.repair_count() as f64, "count"));
    let schedule = timed("schedule.build", || build_schedule(spec, &plan))?;
    counts.insert("schedule.units", (schedule.units.len() as f64, "count"));
    counts.insert(
        "schedule.messages",
        (schedule.messages.len() as f64, "count"),
    );
    let messages = schedule.messages.len() as f64;
    let compiled = timed("exec.lower", || {
        CompiledSchedule::from_schedule(net.energy(), spec, schedule)
    });

    let session = |rt: Runtime| {
        Session::builder(Arc::clone(&net), spec.clone())
            .config(cfg.clone())
            .runtime(rt)
            .delivery(inp.delivery.clone())
            .base_salt(inp.base_salt)
            .build()
    };
    let anchor = |rt: Runtime| inp.anchors.iter().find(|a| a.runtime == rt);

    // Compiled rounds, and the same rows through Session::run_rounds: the
    // difference is the cost of building the per-round reports.
    let mut reference = session(Runtime::Compiled);
    if let Some(a) = anchor(Runtime::Compiled) {
        let slab = run_epochs_slab(&compiled, &a.rows, cfg.lanes(), 1);
        let got: Vec<u64> = (0..slab.rounds())
            .map(|r| compiled_digest(slab.round(r), &slab.cost()))
            .collect();
        check("compiled rounds", &got, &a.digests)?;
    }
    let rows = &inp.rows;
    // One untimed pass of each warms caches, so neither timed pass pays
    // for the other's first touch.
    run_epochs_slab(&compiled, rows, cfg.lanes(), 1);
    reference.run_rounds(rows);
    let slab = timed("exec.rounds", || {
        run_epochs_slab(&compiled, rows, cfg.lanes(), 1)
    });
    let got: Vec<u64> = (0..slab.rounds())
        .map(|r| compiled_digest(slab.round(r), &slab.cost()))
        .collect();
    let reports = timed("replay.session_rounds", || reference.run_rounds(rows));
    let want: Vec<u64> = reports.iter().map(report_digest).collect();
    check("compiled rounds", &got, &want)?;
    rows_run.compiled = rows.len();

    // Lossy rounds through the TDMA fault engine.
    let faults = timed("faults.lower", || FaultyExec::new(&net, &compiled));
    let (rows, cursor) = anchor(Runtime::Lossy).map_or((&inp.rows, 0), |a| (&a.rows, a.cursor));
    let outs = timed("faults.rounds", || {
        faults.run_rounds(rows, &inp.delivery, &policy, salt(inp.base_salt, cursor), 1)
    });
    let got: Vec<u64> = outs.iter().map(fault_digest).collect();
    let want = match anchor(Runtime::Lossy) {
        Some(a) => a.digests.clone(),
        None => session(Runtime::Lossy)
            .run_rounds(rows)
            .iter()
            .map(report_digest)
            .collect(),
    };
    check("lossy rounds", &got, &want)?;
    rows_run.lossy = rows.len();
    let n = outs.len() as f64;
    let retrans: f64 = outs.iter().map(|o| o.retransmissions as f64).sum();
    let dropped: f64 = outs.iter().map(|o| o.dropped_messages as f64).sum();
    let attempts = messages * n + retrans;
    counts.insert("faults.attempts_per_round", (attempts / n, "count"));
    counts.insert("faults.retransmissions_per_round", (retrans / n, "count"));
    counts.insert("faults.dropped_per_round", (dropped / n, "count"));
    counts.insert(
        "faults.delivery_ratio",
        ((messages * n - dropped) / attempts, "fraction"),
    );
    let fractions: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.coverage.iter().map(|c| c.fraction()))
        .collect();
    counts.insert(
        "faults.coverage_p01",
        (crate::stats::quantile(&fractions, 0.01), "fraction"),
    );

    // Simulated rounds on the event wheel.
    let sim = timed("sim.lower", || {
        SimExec::with_params(&net, &compiled, cfg.sim_params())
    });
    // No workload times Sim rounds, so a fresh Sim session is the reference.
    let mut state = sim.state();
    let rows = &inp.rows;
    let outs: Vec<_> = {
        let _s = span("sim.rounds");
        rows.iter()
            .enumerate()
            .map(|(i, row)| {
                let salt = salt(inp.base_salt, i as u64);
                sim.run(row, &inp.delivery, &policy, salt, &mut state)
            })
            .collect()
    };
    let got: Vec<u64> = outs.iter().map(sim_digest).collect();
    let want: Vec<u64> = session(Runtime::Sim)
        .run_rounds(rows)
        .iter()
        .map(report_digest)
        .collect();
    check("simulated rounds", &got, &want)?;
    rows_run.sim = rows.len();
    let n = outs.len() as f64;
    let events: f64 = outs.iter().map(|o| o.events as f64).sum();
    counts.insert("sim.events_per_round", (events / n, "count"));
    counts.insert("sim.events_total", (events, "count"));
    counts.insert(
        "sim.peak_queue_depth",
        (
            outs.iter().map(|o| o.peak_queue_depth).max().unwrap_or(0) as f64,
            "count",
        ),
    );
    counts.insert(
        "sim.queue_overflows",
        (
            outs.iter().map(|o| o.queue_overflows as f64).sum::<f64>() / n,
            "count",
        ),
    );

    // ETX reroute and the incremental re-plan it drives.
    let drifted = inputs::drift_step(&inp.quality, inp.seed, 1);
    let etx = timed("quality.weighted_routing", || {
        weighted_routing(&net, &demands, &drifted)
    });
    let mut maintainer = PlanMaintainer::from_parts(
        Arc::clone(&net),
        spec.clone(),
        RoutingMode::ShortestPathTrees,
        Arc::clone(&routing),
        Arc::clone(&topo),
        problems,
        solutions,
    );
    let stats = timed("dynamics.route_change", || {
        maintainer.apply_route_change(etx)
    });
    timed("dynamics.recompile", || {
        CompiledSchedule::compile(maintainer.network(), maintainer.spec(), maintainer.plan())
    })?;
    counts.insert(
        "dynamics.edges_reoptimized",
        (stats.edges_reoptimized as f64, "count"),
    );
    counts.insert(
        "dynamics.reuse_fraction",
        (stats.reuse_fraction(), "fraction"),
    );

    // Service admission: cold, then warm on the interned substrate, then
    // the warm path's session build replayed from public functions.
    let mut svc = PlanService::with_config(Arc::clone(&net), cfg.clone());
    let mut admitted = Vec::new();
    for _ in 0..2 {
        let s = spec.clone();
        let g = span("service.admit");
        let adm = svc.admit(s);
        g.rename(if adm.solves_fresh == 0 && adm.reused_substrate {
            "service.admit_warm"
        } else {
            "service.admit_cold"
        });
        drop(g);
        admitted.push(adm.tenant);
    }
    let want = report_digest(&reference.run(&inp.map));
    for &t in &admitted {
        let r = svc.run(t, &inp.map).ok_or("admitted tenant is live")?;
        check("service first rounds", &[report_digest(&r)], &[want])?;
    }
    let s = spec.clone();
    let mut built = timed("service.session_build", || {
        Session::builder(Arc::clone(&net), s)
            .config(cfg.clone())
            .substrate(Arc::clone(&routing), Arc::clone(&topo))
            .solve_cache(svc.solve_cache())
            .build()
    });
    check(
        "substrate session rounds",
        &[report_digest(&built.run(&inp.map))],
        &[want],
    )?;
    for t in admitted {
        timed("service.evict", || svc.evict(t));
    }
    Ok(())
}

/// Re-derives the first recorded churn ops: the session's initial
/// ETX-routed plan, then for each drift step the ETX reroute, the
/// incremental re-plan, the recompile, the fault engine's re-lowering and
/// the first answered round — which must equal the session's answer.
fn churn(ctx: &Ctx, inp: &ReplayInputs, counts: &mut Counts) -> Result<(), String> {
    let spec = &inp.spec;
    let policy = ctx.cfg.retry_policy();
    let net = Arc::new(inp.field.network());
    let demands = spec.source_to_destinations();
    let mut maintainer = PlanMaintainer::new(
        Arc::clone(&net),
        spec.clone(),
        RoutingMode::ShortestPathTrees,
    );
    maintainer.apply_route_change(weighted_routing(&net, &demands, &inp.quality));
    let delivery_seed = sub_seed(inp.seed, 4);
    let (mut reoptimized, mut reuse) = (Vec::new(), Vec::new());
    for &(k, cursor, want) in &inp.churn {
        let q = inputs::drift_step(&inp.quality, inp.seed, k);
        let etx = timed("quality.weighted_routing", || {
            weighted_routing(&net, &demands, &q)
        });
        let stats = timed("dynamics.route_change", || {
            maintainer.apply_route_change(etx)
        });
        reoptimized.push(stats.edges_reoptimized as f64);
        reuse.push(stats.reuse_fraction());
        let compiled = timed("dynamics.recompile", || {
            CompiledSchedule::compile(maintainer.network(), maintainer.spec(), maintainer.plan())
        })?;
        let faults = timed("faults.lower", || FaultyExec::new(&net, &compiled));
        let delivery = DeliveryModel::from_quality(&q, delivery_seed);
        let mut scratch = faults.scratch();
        let out = timed("faults.first_round", || {
            faults.run_on(
                &inp.map,
                &delivery,
                &policy,
                salt(inp.base_salt, cursor),
                &mut scratch,
            )
        });
        check(
            "first answers after a reroute",
            &[fault_digest(&out)],
            &[want],
        )?;
    }
    counts.insert(
        "dynamics.edges_reoptimized",
        (crate::stats::median(&reoptimized), "count"),
    );
    counts.insert(
        "dynamics.reuse_fraction",
        (crate::stats::median(&reuse), "fraction"),
    );
    Ok(())
}
