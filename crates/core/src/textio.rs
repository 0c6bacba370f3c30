//! Plain-text persistence for deployments and workloads.
//!
//! Experiments need to be shareable and re-runnable: this module writes
//! and parses a simple line-oriented format (no external dependencies),
//! so a deployment + workload pair can be checked into a repository,
//! attached to a bug report, or fed to the `scenario` CLI.
//!
//! ```text
//! # m2m v1
//! deployment 106 203 50
//! node 0 12.5 88.25
//! node 1 47 191.0
//! function 5 weighted_average
//! source 5 0 1.5
//! source 5 1 0.75
//! ```
//!
//! Lines: `deployment W H RANGE` (a positive, finite radio range),
//! `node ID X Y` (ordered, dense ids), `function DEST KIND` (one per
//! destination), `source DEST SRC WEIGHT` (after its function). Blank
//! lines and `#` comments are ignored. Malformed input is an `Err` naming
//! the line, never a panic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use m2m_graph::NodeId;
use m2m_netsim::{Deployment, Position};

use crate::agg::{AggregateFunction, AggregateKind};
use crate::spec::AggregationSpec;

/// Serializes a deployment and workload to the text format.
pub fn to_text(deployment: &Deployment, spec: &AggregationSpec) -> String {
    let mut out = String::from("# m2m v1\n");
    let _ = writeln!(
        out,
        "deployment {} {} {}",
        deployment.width_m(),
        deployment.height_m(),
        deployment.radio_range_m()
    );
    for (i, p) in deployment.positions().iter().enumerate() {
        let _ = writeln!(out, "node {i} {} {}", p.x, p.y);
    }
    for (d, f) in spec.functions() {
        let _ = writeln!(out, "function {} {}", d.0, kind_name(f.kind()));
        for s in f.sources() {
            let _ = writeln!(out, "source {} {} {}", d.0, s.0, f.weight(s).unwrap());
        }
    }
    out
}

/// Parses the text format back into a deployment and workload.
pub fn from_text(text: &str) -> Result<(Deployment, AggregationSpec), String> {
    let mut dims: Option<(f64, f64, f64)> = None;
    let mut positions: Vec<Position> = Vec::new();
    // Functions under construction, by destination.
    let mut functions: BTreeMap<NodeId, (AggregateKind, Vec<(NodeId, f64)>)> = BTreeMap::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty line has a first token");
        let ctx = |what: &str| format!("line {}: {what}", lineno + 1);
        match keyword {
            "deployment" => {
                let mut f = || -> Result<f64, String> {
                    parts
                        .next()
                        .ok_or_else(|| ctx("deployment needs W H RANGE"))?
                        .parse()
                        .map_err(|e| ctx(&format!("bad number: {e}")))
                };
                let (w, h, range) = (f()?, f()?, f()?);
                if !(range.is_finite() && range > 0.0) {
                    return Err(ctx(&format!(
                        "radio range must be positive and finite, got {range}"
                    )));
                }
                dims = Some((w, h, range));
            }
            "node" => {
                let id: usize = parts
                    .next()
                    .ok_or_else(|| ctx("node needs ID X Y"))?
                    .parse()
                    .map_err(|e| ctx(&format!("bad id: {e}")))?;
                if id != positions.len() {
                    return Err(ctx(&format!(
                        "node ids must be dense and ordered; expected {}, got {id}",
                        positions.len()
                    )));
                }
                let mut f = || -> Result<f64, String> {
                    parts
                        .next()
                        .ok_or_else(|| ctx("node needs ID X Y"))?
                        .parse()
                        .map_err(|e| ctx(&format!("bad coordinate: {e}")))
                };
                positions.push(Position::new(f()?, f()?));
            }
            "function" => {
                let d: u32 = parts
                    .next()
                    .ok_or_else(|| ctx("function needs DEST KIND"))?
                    .parse()
                    .map_err(|e| ctx(&format!("bad destination: {e}")))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| ctx("function needs DEST KIND"))
                    .and_then(|k| parse_kind(k).ok_or_else(|| ctx(&format!("unknown kind {k}"))))?;
                if functions.insert(NodeId(d), (kind, Vec::new())).is_some() {
                    return Err(ctx(&format!("function {d} is already defined")));
                }
            }
            "source" => {
                let d: u32 = parts
                    .next()
                    .ok_or_else(|| ctx("source needs DEST SRC WEIGHT"))?
                    .parse()
                    .map_err(|e| ctx(&format!("bad destination: {e}")))?;
                let s: u32 = parts
                    .next()
                    .ok_or_else(|| ctx("source needs DEST SRC WEIGHT"))?
                    .parse()
                    .map_err(|e| ctx(&format!("bad source: {e}")))?;
                let w: f64 = parts
                    .next()
                    .ok_or_else(|| ctx("source needs DEST SRC WEIGHT"))?
                    .parse()
                    .map_err(|e| ctx(&format!("bad weight: {e}")))?;
                functions
                    .get_mut(&NodeId(d))
                    .ok_or_else(|| ctx(&format!("source before function for {d}")))?
                    .1
                    .push((NodeId(s), w));
            }
            other => return Err(ctx(&format!("unknown keyword {other}"))),
        }
        if parts.next().is_some() {
            return Err(format!("line {}: trailing tokens", lineno + 1));
        }
    }

    let (w, h, range) = dims.ok_or("missing deployment line")?;
    if positions.is_empty() {
        return Err("no nodes".into());
    }
    let deployment = Deployment::from_positions(positions, w, h, range);
    let mut spec = AggregationSpec::new();
    for (d, (kind, sources)) in functions {
        if sources.is_empty() {
            return Err(format!("function {d} has no sources"));
        }
        if d.index() >= deployment.node_count() {
            return Err(format!("function destination {d} out of range"));
        }
        for (s, _) in &sources {
            if s.index() >= deployment.node_count() {
                return Err(format!("source {s} out of range"));
            }
        }
        spec.add_function(d, AggregateFunction::new(kind, sources));
    }
    Ok((deployment, spec))
}

fn kind_name(kind: AggregateKind) -> &'static str {
    match kind {
        AggregateKind::WeightedSum => "weighted_sum",
        AggregateKind::WeightedAverage => "weighted_average",
        AggregateKind::WeightedVariance => "weighted_variance",
        AggregateKind::Min => "min",
        AggregateKind::Max => "max",
        AggregateKind::Count => "count",
        AggregateKind::Range => "range",
        AggregateKind::GeometricMean => "geometric_mean",
    }
}

fn parse_kind(name: &str) -> Option<AggregateKind> {
    Some(match name {
        "weighted_sum" => AggregateKind::WeightedSum,
        "weighted_average" => AggregateKind::WeightedAverage,
        "weighted_variance" => AggregateKind::WeightedVariance,
        "min" => AggregateKind::Min,
        "max" => AggregateKind::Max,
        "count" => AggregateKind::Count,
        "range" => AggregateKind::Range,
        "geometric_mean" => AggregateKind::GeometricMean,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_workload, WorkloadConfig};
    use m2m_netsim::Network;

    #[test]
    fn round_trip_preserves_everything() {
        let deployment = Deployment::great_duck_island(7);
        let net = Network::with_default_energy(deployment.clone());
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(9, 7, 3));
        let text = to_text(&deployment, &spec);
        let (d2, s2) = from_text(&text).expect("round trip parses");
        assert_eq!(d2.positions(), deployment.positions());
        assert_eq!(d2.radio_range_m(), deployment.radio_range_m());
        assert_eq!(s2.destination_count(), spec.destination_count());
        for (d, f) in spec.functions() {
            let g = s2.function(d).expect("function survives");
            assert_eq!(g.kind(), f.kind());
            assert_eq!(
                g.sources().collect::<Vec<_>>(),
                f.sources().collect::<Vec<_>>()
            );
            for s in f.sources() {
                assert_eq!(g.weight(s), f.weight(s));
            }
        }
    }

    #[test]
    fn every_kind_round_trips() {
        for kind in [
            AggregateKind::WeightedSum,
            AggregateKind::WeightedAverage,
            AggregateKind::WeightedVariance,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Count,
            AggregateKind::Range,
            AggregateKind::GeometricMean,
        ] {
            assert_eq!(parse_kind(kind_name(kind)), Some(kind));
        }
        assert_eq!(parse_kind("median"), None);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "\n# hello\ndeployment 10 10 5\nnode 0 1 1\n\nnode 1 2 2\n\
                    function 0 min\nsource 0 1 1.0\n";
        let (d, s) = from_text(text).unwrap();
        assert_eq!(d.node_count(), 2);
        assert_eq!(s.destination_count(), 1);
    }

    #[test]
    fn helpful_errors() {
        assert!(from_text("").unwrap_err().contains("missing deployment"));
        assert!(from_text("deployment 1 1 1\n")
            .unwrap_err()
            .contains("no nodes"));
        let gap = "deployment 1 1 1\nnode 1 0 0\n";
        assert!(from_text(gap).unwrap_err().contains("dense"));
        let orphan = "deployment 1 1 1\nnode 0 0 0\nsource 0 0 1.0\n";
        assert!(from_text(orphan).unwrap_err().contains("before function"));
        let badkind = "deployment 1 1 1\nnode 0 0 0\nfunction 0 median\n";
        assert!(from_text(badkind).unwrap_err().contains("unknown kind"));
        let oob = "deployment 1 1 1\nnode 0 0 0\nfunction 5 min\nsource 5 0 1.0\n";
        assert!(from_text(oob).unwrap_err().contains("out of range"));
        let trailing = "deployment 1 1 1 9\n";
        assert!(from_text(trailing).unwrap_err().contains("trailing"));
    }

    #[test]
    fn bad_radio_range_is_an_error_naming_the_line() {
        for range in ["0", "-5", "NaN", "inf"] {
            let text = format!("# m2m v1\ndeployment 10 10 {range}\nnode 0 1 1\n");
            let err = from_text(&text).unwrap_err();
            assert!(
                err.starts_with("line 2:") && err.contains("radio range"),
                "{range}: {err}"
            );
        }
    }

    #[test]
    fn second_function_for_a_destination_is_an_error() {
        let text = "deployment 10 10 5\nnode 0 1 1\nnode 1 2 2\nnode 2 3 3\n\
                    function 0 min\nsource 0 1 1.0\nfunction 0 max\nsource 0 2 1.0\n";
        let err = from_text(text).unwrap_err();
        assert!(
            err.starts_with("line 7:") && err.contains("already defined"),
            "{err}"
        );
    }

    /// Tokens that break numbers, ids, kinds and keywords.
    const REPLACEMENTS: [&str; 14] = [
        "0",
        "-1",
        "1e308",
        "NaN",
        "inf",
        "-inf",
        "4294967296",
        "x",
        "deployment",
        "node",
        "function",
        "source",
        "min",
        "#",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Every truncation of a serialized scenario, and every copy of it
        /// with one token replaced, parses or fails with an `Err`; none
        /// panics.
        #[test]
        fn damaged_scenarios_parse_or_fail_without_panicking(
            seed in 0u64..1_000,
            nodes in 6usize..14,
        ) {
            let deployment = Deployment::connected_uniform(nodes, 60.0, 60.0, 40.0, seed);
            let net = Network::with_default_energy(deployment.clone());
            let spec = generate_workload(&net, &WorkloadConfig::paper_default(2, 3, seed));
            let text = to_text(&deployment, &spec);
            let lines: Vec<Vec<&str>> =
                text.lines().map(|l| l.split_whitespace().collect()).collect();
            let mut damaged: Vec<String> = (0..text.len()).map(|cut| text[..cut].into()).collect();
            for (i, line) in lines.iter().enumerate() {
                for j in 0..line.len() {
                    for token in REPLACEMENTS {
                        let mut copy = lines.clone();
                        copy[i][j] = token;
                        damaged.push(copy.iter().map(|l| l.join(" ") + "\n").collect());
                    }
                }
            }
            for text in &damaged {
                let outcome = std::panic::catch_unwind(|| from_text(text).map(|_| ()));
                proptest::prop_assert!(outcome.is_ok(), "panicked on:\n{}", text);
            }
        }
    }

    #[test]
    fn parsed_workload_is_plannable() {
        let deployment = Deployment::great_duck_island(7);
        let net = Network::with_default_energy(deployment.clone());
        let spec = generate_workload(&net, &WorkloadConfig::paper_default(6, 6, 9));
        let (d2, s2) = from_text(&to_text(&deployment, &spec)).unwrap();
        let net2 = Network::with_default_energy(d2);
        let routing = m2m_netsim::RoutingTables::build(
            &net2,
            &s2.source_to_destinations(),
            m2m_netsim::RoutingMode::ShortestPathTrees,
        );
        let plan = crate::plan::GlobalPlan::build(&net2, &s2, &routing);
        plan.validate(&s2, &routing).unwrap();
    }
}
