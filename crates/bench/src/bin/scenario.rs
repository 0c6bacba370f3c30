//! Scenario runner: evaluate any workload shape from the command line.
//!
//! ```text
//! cargo run --release -p m2m-bench --bin scenario -- \
//!     --nodes 100 --destinations 20 --sources 15 --dispersion 0.9 \
//!     --seed 7 --routing spt
//! ```
//!
//! Prints, for each algorithm, the round energy, message/unit counts, the
//! plan summary, the slot-schedule makespan, and the lifetime projection —
//! everything a deployment planner would want before committing to a
//! workload.

use m2m_core::baselines::{flood_round_cost, plan_for_algorithm, Algorithm};
use m2m_core::metrics::{project_lifetime, NodeEnergyLedger};
use m2m_core::schedule::build_schedule;
use m2m_core::slots::assign_slots;
use m2m_core::workload::{generate_workload, SourceSelection, WorkloadConfig};
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

#[derive(Debug)]
struct Args {
    nodes: usize,
    destinations: usize,
    sources: usize,
    dispersion: f64,
    max_hops: u32,
    seed: u64,
    routing: RoutingMode,
    /// Write the generated deployment + workload to this file.
    save: Option<String>,
    /// Load deployment + workload from this file instead of generating.
    load: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            nodes: 68,
            destinations: 14,
            sources: 20,
            dispersion: 0.9,
            max_hops: 4,
            seed: 1,
            routing: RoutingMode::ShortestPathTrees,
            save: None,
            load: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let modes = RoutingMode::ALL.map(RoutingMode::name).join("|");
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--nodes" => args.nodes = value()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--destinations" => {
                args.destinations = value()?
                    .parse()
                    .map_err(|e| format!("--destinations: {e}"))?
            }
            "--sources" => {
                args.sources = value()?.parse().map_err(|e| format!("--sources: {e}"))?
            }
            "--dispersion" => {
                args.dispersion = value()?.parse().map_err(|e| format!("--dispersion: {e}"))?
            }
            "--max-hops" => {
                args.max_hops = value()?.parse().map_err(|e| format!("--max-hops: {e}"))?
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--routing" => {
                let name = value()?;
                args.routing = RoutingMode::parse(&name)
                    .ok_or_else(|| format!("--routing must be {modes}, got {name}"))?;
            }
            "--save" => args.save = Some(value()?),
            "--load" => args.load = Some(value()?),
            "--help" | "-h" => {
                println!(
                    "usage: scenario [--nodes N] [--destinations N] [--sources N] \
                     [--dispersion F] [--max-hops N] [--seed N] \
                     [--routing {modes}] [--save FILE] [--load FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    m2m_core::telemetry::init_logging(m2m_core::telemetry::Level::Info);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            m2m_core::m2m_log!(m2m_core::telemetry::Level::Error, "error: {e}");
            std::process::exit(2);
        }
    };

    // Load a saved scenario, or generate one (scaling the area with the
    // node count at GDI density).
    let (network, spec) = if let Some(path) = &args.load {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let (deployment, spec) = m2m_core::textio::from_text(&text)
            .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
        (Network::with_default_energy(deployment), spec)
    } else {
        let network = if args.nodes == 68 {
            Network::with_default_energy(Deployment::great_duck_island(args.seed))
        } else {
            let series = Deployment::scaled_series(&[args.nodes], args.seed);
            Network::with_default_energy(series.into_iter().next().expect("one deployment"))
        };
        let cfg = WorkloadConfig {
            destination_count: args.destinations,
            sources_per_destination: args.sources,
            selection: SourceSelection::Dispersion {
                dispersion: args.dispersion,
                max_hops: args.max_hops,
            },
            kind: m2m_core::agg::AggregateKind::WeightedAverage,
            seed: args.seed,
        };
        let spec = generate_workload(&network, &cfg);
        (network, spec)
    };
    if let Some(path) = &args.save {
        let text = m2m_core::textio::to_text(network.deployment(), &spec);
        std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("scenario saved to {path}");
    }
    let routing = RoutingTables::build(&network, &spec.source_to_destinations(), args.routing);

    println!(
        "network: {} nodes, {} links | workload: {} destinations, {} (source, destination) pairs",
        network.node_count(),
        network.graph().edge_count(),
        spec.destination_count(),
        spec.pair_count()
    );
    println!();
    println!("algorithm    energy(mJ)  messages  units  slots  lifetime(rounds)");
    let battery_uj = 2.0 * 3600.0 * 3.0 * 1e6;
    for alg in Algorithm::PLANNED {
        let plan = plan_for_algorithm(&network, &spec, &routing, alg);
        let schedule = build_schedule(&spec, &plan).expect("schedulable");
        let mut ledger = NodeEnergyLedger::new(network.node_count());
        let cost = schedule.charge_round(network.energy(), &mut ledger);
        let slots = assign_slots(&network, &schedule);
        // A plan that moves no message spends no energy: no node dies.
        let life = if ledger.hotspot().1 > 0.0 {
            format!(
                "{:.0}",
                project_lifetime(&ledger, battery_uj).rounds_until_first_death
            )
        } else {
            "unbounded".to_string()
        };
        println!(
            "{:<12} {:>10.1} {:>9} {:>6} {:>6} {:>17}",
            alg.name(),
            cost.total_mj(),
            cost.messages,
            cost.units,
            slots.slot_count,
            life
        );
        if alg == Algorithm::Optimal {
            println!("             plan: {}", plan.summary());
        }
    }
    let flood = flood_round_cost(&network, &spec);
    println!(
        "{:<12} {:>10.1} {:>9} {:>6}",
        "Flood",
        flood.total_mj(),
        flood.messages,
        flood.units
    );
}
