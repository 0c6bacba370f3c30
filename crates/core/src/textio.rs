//! Plain-text persistence for deployments and workloads, and the one
//! codec for a persisted spec.
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
//! Lines: one `deployment W H RANGE` (a positive, finite radio range),
//! `node ID X Y` (ordered, dense ids, finite coordinates), then the spec
//! section: `function DEST KIND` (one per destination, kinds named by
//! [`AggregateKind::name`]) and `source DEST SRC WEIGHT` (after its
//! function, each source once per function, at least one per function).
//! Weights are written with `{}`, which round-trips every non-NaN `f64`
//! bit for bit; a NaN weight reads back as the canonical NaN. Blank lines
//! and `#` comments are ignored. Malformed input is an `Err` naming the
//! line number and quoting the line, never a panic.
//!
//! The service checkpoint ([`crate::service`]) persists each tenant's
//! spec as the same section: both formats tokenize with `Fields`, write
//! with `write_spec` and read with `SpecReader` (crate-private), so every
//! spec rule is applied once.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::str::FromStr;

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
    write_spec(&mut out, spec);
    out
}

/// Parses the text format back into a deployment and workload.
///
/// # Errors
/// Returns a message naming the first malformed line.
pub fn from_text(text: &str) -> Result<(Deployment, AggregationSpec), String> {
    let lines = || {
        text.lines()
            .enumerate()
            .map(|(i, line)| Fields::new(i + 1, line.trim()))
            .filter(|f| !f.keyword().is_empty() && !f.keyword().starts_with('#'))
    };
    // The geometry first, so the spec's node ids are checked, on their
    // own lines, against the node count.
    let mut dims: Option<(f64, f64, f64)> = None;
    let mut positions: Vec<Position> = Vec::new();
    for mut f in lines() {
        match f.keyword() {
            "deployment" => {
                if dims.is_some() {
                    return Err(f.err("second deployment line"));
                }
                let (w, h, range): (f64, f64, f64) =
                    (f.parse("width")?, f.parse("height")?, f.parse("range")?);
                if !(range.is_finite() && range > 0.0) {
                    return Err(f.err(format!(
                        "radio range must be positive and finite, got {range}"
                    )));
                }
                f.end()?;
                dims = Some((w, h, range));
            }
            "node" => {
                let id: usize = f.parse("node id")?;
                if id != positions.len() {
                    return Err(f.err(format!(
                        "node ids must be dense and ordered; expected {}, got {id}",
                        positions.len()
                    )));
                }
                let (x, y): (f64, f64) = (f.parse("x")?, f.parse("y")?);
                if !(x.is_finite() && y.is_finite()) {
                    return Err(f.err(format!("node coordinates must be finite, got ({x}, {y})")));
                }
                f.end()?;
                positions.push(Position::new(x, y));
            }
            _ => {}
        }
    }
    let (w, h, range) = dims.ok_or("missing deployment line")?;
    if positions.is_empty() {
        return Err("no nodes".into());
    }
    let mut spec = SpecReader::new(positions.len());
    for f in lines().filter(|f| !matches!(f.keyword(), "deployment" | "node")) {
        spec.read(f)?;
    }
    let spec = spec.finish()?;
    Ok((Deployment::from_positions(positions, w, h, range), spec))
}

/// Writes `spec` as a spec section: per destination, ascending, a
/// `function DEST KIND` line, then one `source DEST SRC WEIGHT` line per
/// source, ascending.
pub(crate) fn write_spec(out: &mut String, spec: &AggregationSpec) {
    for (d, f) in spec.functions() {
        let _ = writeln!(out, "function {} {}", d.0, f.kind().name());
        for s in f.sources() {
            let w = f.weight(s).expect("a source has a weight");
            let _ = writeln!(out, "source {} {} {w}", d.0, s.0);
        }
    }
}

/// One line's keyword and whitespace-separated fields, with its 1-based
/// line number: every error names the line and quotes it.
pub(crate) struct Fields<'a> {
    lineno: usize,
    line: &'a str,
    keyword: &'a str,
    toks: std::vec::IntoIter<&'a str>,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(lineno: usize, line: &'a str) -> Self {
        let mut toks = line.split_whitespace();
        Fields {
            lineno,
            line,
            keyword: toks.next().unwrap_or(""),
            toks: toks.collect::<Vec<_>>().into_iter(),
        }
    }

    /// The line's first token (empty for a blank line).
    pub(crate) fn keyword(&self) -> &'a str {
        self.keyword
    }

    /// `what`, prefixed with the line number and followed by the line.
    pub(crate) fn err(&self, what: impl Display) -> String {
        format!("line {}: {what} in '{}'", self.lineno, self.line)
    }

    /// Fails unless the keyword is `want`.
    pub(crate) fn expect(&self, want: &str) -> Result<(), String> {
        if self.keyword == want {
            Ok(())
        } else {
            Err(self.err(format!("expected '{want}'")))
        }
    }

    /// The next field, which must be present.
    pub(crate) fn word(&mut self, what: &str) -> Result<&'a str, String> {
        self.toks
            .next()
            .ok_or_else(|| self.err(format!("missing {what}")))
    }

    /// The next field, parsed.
    pub(crate) fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let word = self.word(what)?;
        word.parse()
            .map_err(|e| self.err(format!("bad {what} '{word}': {e}")))
    }

    /// The next field, read by a name table such as [`AggregateKind::parse`].
    pub(crate) fn named<T>(
        &mut self,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<T, String> {
        let word = self.word(what)?;
        parse(word).ok_or_else(|| self.err(format!("unknown {what} {word}")))
    }

    /// The next field as a node id, parsed wide and rejected unless below
    /// `nodes` (never truncated).
    pub(crate) fn node(&mut self, what: &str, nodes: usize) -> Result<NodeId, String> {
        let v: u64 = self.parse(what)?;
        if v >= nodes as u64 {
            return Err(self.err(format!(
                "{what} {v} out of range for a {nodes}-node network"
            )));
        }
        Ok(NodeId(v as u32))
    }

    /// A capacity for `declared` items of `width` fields each: no more
    /// than the fields left on the line can hold.
    pub(crate) fn capacity(&self, declared: u64, width: usize) -> usize {
        usize::try_from(declared)
            .unwrap_or(usize::MAX)
            .min(self.toks.len() / width)
    }

    /// Fails if any field is left.
    pub(crate) fn end(&self) -> Result<(), String> {
        match self.toks.len() {
            0 => Ok(()),
            _ => Err(self.err("trailing tokens")),
        }
    }
}

/// Reads a spec section line by line and applies every spec rule once:
/// one `function` line per destination, a `source` only after its
/// destination's `function`, each source at most once per function, node
/// ids below the node count, and at least one source per function.
pub(crate) struct SpecReader<'a> {
    nodes: usize,
    /// Per destination: the opening `function` line, its kind and the
    /// weights read so far.
    functions: BTreeMap<NodeId, (Fields<'a>, AggregateKind, BTreeMap<NodeId, f64>)>,
}

impl<'a> SpecReader<'a> {
    /// A reader for a spec over a `nodes`-node network.
    pub(crate) fn new(nodes: usize) -> Self {
        SpecReader {
            nodes,
            functions: BTreeMap::new(),
        }
    }

    /// Reads one `function` or `source` line; any other keyword is an
    /// error.
    pub(crate) fn read(&mut self, mut f: Fields<'a>) -> Result<(), String> {
        match f.keyword() {
            "function" => {
                let d = f.node("destination", self.nodes)?;
                let kind = f.named("kind", AggregateKind::parse)?;
                f.end()?;
                if self.functions.contains_key(&d) {
                    return Err(f.err(format!("function {} is already defined", d.0)));
                }
                self.functions.insert(d, (f, kind, BTreeMap::new()));
            }
            "source" => {
                let d = f.node("destination", self.nodes)?;
                let s = f.node("source", self.nodes)?;
                let w: f64 = f.parse("weight")?;
                f.end()?;
                let (_, _, weights) = self
                    .functions
                    .get_mut(&d)
                    .ok_or_else(|| f.err(format!("source before function for {}", d.0)))?;
                if weights.insert(s, w).is_some() {
                    return Err(f.err(format!("source {} named twice for {}", s.0, d.0)));
                }
            }
            other => return Err(f.err(format!("unknown keyword {other}"))),
        }
        Ok(())
    }

    /// The spec read so far.
    ///
    /// # Errors
    /// Names the `function` line of a function without sources.
    pub(crate) fn finish(self) -> Result<AggregationSpec, String> {
        let mut spec = AggregationSpec::new();
        for (d, (line, kind, weights)) in self.functions {
            if weights.is_empty() {
                return Err(line.err(format!("function {} has no sources", d.0)));
            }
            spec.add_function(d, AggregateFunction::new(kind, weights));
        }
        Ok(spec)
    }
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
                assert_eq!(g.weight(s).map(f64::to_bits), f.weight(s).map(f64::to_bits));
            }
        }
    }

    #[test]
    fn every_kind_round_trips() {
        let deployment = Deployment::grid(3, 3, 10.0, 12.0);
        let mut spec = AggregationSpec::new();
        for (d, kind) in AggregateKind::ALL.into_iter().enumerate() {
            let sources = [(NodeId(8), 0.5), (NodeId(d as u32), 2.0)];
            spec.add_function(NodeId(d as u32), AggregateFunction::new(kind, sources));
        }
        let text = to_text(&deployment, &spec);
        for kind in AggregateKind::ALL {
            assert!(text.contains(&format!(" {}\n", kind.name())), "{text}");
        }
        assert!(from_text(&text).unwrap().1.functions().eq(spec.functions()));
        assert_eq!(AggregateKind::parse("median"), None);
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
        let empty = "deployment 1 1 1\nnode 0 0 0\nfunction 0 min\n";
        let err = from_text(empty).unwrap_err();
        assert!(
            err.starts_with("line 3:") && err.contains("has no sources"),
            "{err}"
        );
        // 2^32 + 1 would truncate to node 1.
        let wide = "deployment 1 1 1\nnode 0 0 0\nnode 1 0 0\nfunction 0 min\n\
                    source 0 4294967297 1.0\n";
        let err = from_text(wide).unwrap_err();
        assert!(
            err.starts_with("line 5:") && err.contains("source 4294967297 out of range"),
            "{err}"
        );
    }

    #[test]
    fn repeated_sources_and_deployments_are_errors_naming_the_line() {
        let source = "deployment 10 10 5\nnode 0 1 1\nnode 1 2 2\n\
                      function 0 min\nsource 0 1 1.0\nsource 0 1 2.0\n";
        let err = from_text(source).unwrap_err();
        assert!(
            err.starts_with("line 6:") && err.contains("source 1 named twice"),
            "{err}"
        );
        assert!(
            err.contains("'source 0 1 2.0'"),
            "the error quotes the line: {err}"
        );
        let deployment = "deployment 10 10 5\nnode 0 1 1\ndeployment 20 20 5\n\
                          function 0 min\nsource 0 0 1.0\n";
        let err = from_text(deployment).unwrap_err();
        assert!(
            err.starts_with("line 3:") && err.contains("second deployment"),
            "{err}"
        );
    }

    #[test]
    fn weights_round_trip_bit_for_bit() {
        let deployment = Deployment::grid(3, 1, 10.0, 12.0);
        for w in [0.1, 1.0 / 3.0, -0.0, 1e-310, 5e-324, 1e300, f64::INFINITY] {
            let mut spec = AggregationSpec::new();
            spec.add_function(NodeId(0), AggregateFunction::weighted_sum([(NodeId(2), w)]));
            let (_, back) = from_text(&to_text(&deployment, &spec)).unwrap();
            let got = back.function(NodeId(0)).unwrap().weight(NodeId(2)).unwrap();
            assert_eq!(got.to_bits(), w.to_bits(), "{w:e}");
        }
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
    fn non_finite_node_coordinate_is_an_error_naming_the_line() {
        // 512 nodes: enough for `Deployment::radio_graph`'s grid-bucket
        // path, which a non-finite coordinate would overflow.
        for (x, y) in [("inf", "0"), ("0", "-inf"), ("NaN", "0")] {
            let mut text = String::from("deployment 2100 10 5\n");
            for i in 0..512 {
                if i == 3 {
                    text.push_str(&format!("node 3 {x} {y}\n"));
                } else {
                    text.push_str(&format!("node {i} {} 0\n", i * 4));
                }
            }
            text.push_str("function 0 min\nsource 0 1 1.0\n");
            let err = from_text(&text).unwrap_err();
            assert!(
                err.starts_with("line 5:") && err.contains("must be finite"),
                "({x}, {y}): {err}"
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
