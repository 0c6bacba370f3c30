//! Plan-explainability CLI: why does each edge carry what it carries?
//!
//! Builds the optimal plan for a workload (generated from flags, or
//! loaded from a `textio` scenario file) and prints the
//! [`m2m_core::telemetry::explain`] report: for every directed tree edge,
//! which values travel as raw readings and which as partial-aggregate
//! records, with the vertex-cover rationale and the byte costs of the
//! alternatives. Text by default, `--json` for the machine-readable
//! mirror.
//!
//! ```text
//! cargo run --release -p m2m-bench --bin explain -- \
//!     --nodes 30 --destinations 4 --sources 6 --seed 7 [--json]
//! ```

use m2m_core::plan::GlobalPlan;
use m2m_core::telemetry::{explain, Level};
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_core::{m2m_log, telemetry};
use m2m_netsim::{Deployment, Network, RoutingMode, RoutingTables};

struct Args {
    nodes: usize,
    destinations: usize,
    sources: usize,
    seed: u64,
    json: bool,
    load: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            nodes: 30,
            destinations: 4,
            sources: 6,
            seed: 7,
            json: false,
            load: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
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
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--json" => args.json = true,
            "--load" => args.load = Some(value()?),
            "--help" | "-h" => {
                println!(
                    "usage: explain [--nodes N] [--destinations N] [--sources N] [--seed N] \
                     [--load FILE] [--json]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    telemetry::init_logging(Level::Info);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            m2m_log!(Level::Error, "error: {e}");
            std::process::exit(2);
        }
    };

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
        let spec = generate_workload(
            &network,
            &WorkloadConfig::paper_default(args.destinations, args.sources, args.seed),
        );
        (network, spec)
    };

    let routing = RoutingTables::build(
        &network,
        &spec.source_to_destinations(),
        RoutingMode::ShortestPathTrees,
    );
    let plan = GlobalPlan::build(&network, &spec, &routing);
    let report = explain(&plan, &spec);
    if args.json {
        print!("{}", report.to_json().render());
    } else {
        print!("{}", report.to_text());
    }
    m2m_bench::report::export_telemetry();
}
