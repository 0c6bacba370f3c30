//! Figure-reproduction harness for the many-to-many aggregation paper.
//!
//! One binary per figure in §4 (`fig3` … `fig7`, plus `all_figures`),
//! each printing the same series the paper plots as a CSV-ish table:
//! x-value in the first column, one column per algorithm, average round
//! energy in mJ (Figures 3–6) or percent improvement (Figure 7).
//!
//! Absolute joules depend on radio constants the paper does not publish;
//! the reproduction target is the *shape*: who wins, by what factor, and
//! where the crossovers fall. See EXPERIMENTS.md for paper-vs-measured
//! notes per figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod gauge;
pub mod harness;
pub mod report;
pub mod stats;
pub mod svg;

use m2m_core::baselines::{flood_round_cost, plan_for_algorithm, Algorithm};
use m2m_core::schedule::build_schedule;
use m2m_core::spec::AggregationSpec;
use m2m_core::workload::{generate_workload, WorkloadConfig};
use m2m_netsim::{Network, RoutingMode, RoutingTables};

/// Seeds averaged per data point. The paper averages over random
/// workloads; three seeds keep the harness fast while smoothing noise.
pub const SEEDS: [u64; 3] = [11, 23, 47];

/// Computes one algorithm's average round energy (mJ) on one workload.
pub fn round_energy_mj(network: &Network, spec: &AggregationSpec, algorithm: Algorithm) -> f64 {
    match algorithm {
        Algorithm::Flood => flood_round_cost(network, spec).total_mj(),
        _ => {
            let routing = RoutingTables::build(
                network,
                &spec.source_to_destinations(),
                RoutingMode::ShortestPathTrees,
            );
            let plan = plan_for_algorithm(network, spec, &routing, algorithm);
            let schedule = build_schedule(spec, &plan).expect("plan must be schedulable");
            schedule.round_cost(network.energy()).total_mj()
        }
    }
}

/// Average round energy over the standard seed set for a workload-config
/// generator (`make_config(seed)`).
pub fn averaged_energy_mj(
    network: &Network,
    algorithm: Algorithm,
    make_config: impl FnMut(u64) -> WorkloadConfig,
) -> f64 {
    energy_summary_mj(network, algorithm, make_config).mean
}

/// Per-seed round energies summarized as mean ± spread.
pub fn energy_summary_mj(
    network: &Network,
    algorithm: Algorithm,
    mut make_config: impl FnMut(u64) -> WorkloadConfig,
) -> stats::Summary {
    let samples: Vec<f64> = SEEDS
        .iter()
        .map(|&seed| {
            let spec = generate_workload(network, &make_config(seed));
            round_energy_mj(network, &spec, algorithm)
        })
        .collect();
    stats::summarize(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2m_netsim::Deployment;

    #[test]
    fn harness_produces_positive_energies() {
        let net = Network::with_default_energy(Deployment::great_duck_island(1));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(7, 10, 3));
        for alg in [
            Algorithm::Optimal,
            Algorithm::Multicast,
            Algorithm::Aggregation,
            Algorithm::Flood,
        ] {
            let e = round_energy_mj(&net, &spec, alg);
            assert!(e > 0.0, "{} energy must be positive", alg.name());
        }
    }

    #[test]
    fn optimal_is_cheapest_planned_algorithm() {
        let net = Network::with_default_energy(Deployment::great_duck_island(1));
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(14, 15, 9));
        let optimal = round_energy_mj(&net, &spec, Algorithm::Optimal);
        let multicast = round_energy_mj(&net, &spec, Algorithm::Multicast);
        let aggregation = round_energy_mj(&net, &spec, Algorithm::Aggregation);
        assert!(optimal <= multicast + 1e-9);
        assert!(optimal <= aggregation + 1e-9);
    }
}
