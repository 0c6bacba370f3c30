//! Shared emission for the committed `BENCH_*.json` artifacts.
//!
//! The benchmark binaries (`bench_optimizer`, `bench_runtime`,
//! `bench_resilience`, `bench_scale`, `m2m_obs`) used to hand-format
//! their JSON with `format!` strings and hand-roll their argument
//! parsing, which drifted apart field by field. They now build a
//! [`JsonValue`] tree through this module: one schema version, one
//! header shape (including the captured `M2M_*` environment), one CLI
//! parser ([`BenchCli`]), one artifact pre-flight ([`check_header`]),
//! and one writer. The schema is versioned so additive sections (like
//! the `"telemetry"` counters introduced in version 2, or the `"env"`
//! capture) never silently change the meaning of an artifact a
//! downstream diff — `scripts/bench_compare.sh` — is watching.

use std::time::Instant;

pub use m2m_core::telemetry::json::JsonValue;

/// Schema version stamped into every benchmark artifact.
///
/// * v1 (implicit): the hand-formatted artifacts, no version field.
/// * v2: adds `schema_version` itself plus the additive `telemetry`
///   section holding a counter/histogram snapshot from an instrumented
///   run. Existing fields keep their v1 names and meanings.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Starts a benchmark report with the header fields every artifact
/// shares: schema version, benchmark name, deployment label, the
/// machine's available parallelism, and the captured `M2M_*`
/// environment.
pub fn bench_report(benchmark: &str, deployment: &str) -> JsonValue {
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    JsonValue::object()
        .with("schema_version", BENCH_SCHEMA_VERSION)
        .with("benchmark", benchmark)
        .with("deployment", deployment)
        .with("available_parallelism", parallelism)
        .with("env", env_section())
}

/// Every `M2M_*` knob set in the process environment, sorted by name.
///
/// Committed artifacts capture the configuration they were produced
/// under, so a diff between two artifacts (`scripts/bench_compare.sh`)
/// can tell a code regression from a knob change.
pub fn env_section() -> JsonValue {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("M2M_"))
        .collect();
    vars.sort();
    let mut section = JsonValue::object();
    for (k, v) in vars {
        section.push(&k, v);
    }
    section
}

/// Command-line shape shared by the benchmark binaries:
/// `bin [--smoke] [--check [artifact.json]] [--nodes N1,N2,...]
/// [output.json] [count]`.
#[derive(Clone, Debug)]
pub struct BenchCli {
    /// Reduced run wired into `scripts/verify.sh` gates.
    pub smoke: bool,
    /// Validate an existing artifact instead of benchmarking
    /// (defaults to the binary's output path when the value is omitted).
    pub check: Option<String>,
    /// `--nodes`: deployment size(s), comma separated.
    pub nodes: Vec<usize>,
    /// First positional: where to write the artifact.
    pub out_path: String,
    /// Second positional: a benchmark-specific count (samples, rounds).
    pub count: Option<usize>,
    /// Positionals past the first two, for binary-specific extras.
    pub rest: Vec<String>,
}

impl BenchCli {
    /// Parses `std::env::args`, defaulting the output to `default_out`.
    ///
    /// # Panics
    /// Panics on an unparseable `--nodes` list or a non-numeric count.
    pub fn parse(default_out: &str) -> Self {
        Self::parse_from(std::env::args().skip(1).collect(), default_out)
    }

    fn parse_from(args: Vec<String>, default_out: &str) -> Self {
        let mut cli = BenchCli {
            smoke: false,
            check: None,
            nodes: Vec::new(),
            out_path: default_out.to_string(),
            count: None,
            rest: Vec::new(),
        };
        let mut positional: Vec<&str> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if arg == "--smoke" {
                cli.smoke = true;
            } else if arg == "--check" {
                let next = args.get(i + 1).filter(|a| !a.starts_with("--"));
                if let Some(path) = next {
                    cli.check = Some(path.clone());
                    i += 1;
                } else {
                    cli.check = Some(default_out.to_string());
                }
            } else if let Some(list) =
                arg.strip_prefix("--nodes=").map(str::to_owned).or_else(|| {
                    (arg == "--nodes").then(|| {
                        i += 1;
                        args.get(i).cloned().unwrap_or_default()
                    })
                })
            {
                cli.nodes = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().expect("--nodes takes a comma list of sizes"))
                    .collect();
            } else {
                positional.push(arg);
            }
            i += 1;
        }
        if let Some(out) = positional.first() {
            cli.out_path = (*out).to_string();
        }
        cli.count = positional
            .get(1)
            .map(|s| s.parse().expect("count argument must be an integer"));
        cli.rest = positional.iter().skip(2).map(|s| s.to_string()).collect();
        cli
    }
}

/// Parses an existing artifact and asserts the shared v2 header every
/// `--check` gate relies on (valid JSON, `schema_version == 2`, the
/// expected `benchmark` name), returning the document for the caller's
/// benchmark-specific assertions.
///
/// # Panics
/// Panics with a pointed message on any violation — `--check` runs
/// under `scripts/verify.sh`, where a non-zero exit is the signal.
pub fn check_header(path: &str, benchmark: &str) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let value = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{path}: invalid JSON: {e}"));
    let version = value
        .get("schema_version")
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("{path}: missing schema_version"));
    assert_eq!(
        version, BENCH_SCHEMA_VERSION,
        "{path}: unexpected schema_version {version}"
    );
    assert_eq!(
        value.get("benchmark").and_then(JsonValue::as_str),
        Some(benchmark),
        "{path}: wrong benchmark field"
    );
    value
}

/// Asserts that `value` (an artifact's `what` section, for the message)
/// carries every one of `fields` — the per-schema half of `--check`.
///
/// # Panics
/// Panics naming the first missing field.
pub fn require_fields(path: &str, what: &str, value: &JsonValue, fields: &[&str]) {
    for field in fields {
        assert!(value.get(field).is_some(), "{path}: {what} missing {field}");
    }
}

/// The non-empty array under `key`, each row checked for `fields`.
///
/// # Panics
/// Panics if the array is missing or empty, or a row lacks a field.
pub fn require_rows<'a>(
    path: &str,
    value: &'a JsonValue,
    key: &str,
    fields: &[&str],
) -> &'a [JsonValue] {
    let rows = match value.get(key) {
        Some(JsonValue::Array(rows)) if !rows.is_empty() => rows,
        _ => panic!("{path}: missing or empty {key} array"),
    };
    for row in rows {
        require_fields(path, &format!("{key} row"), row, fields);
    }
    rows
}

/// Runs `instrumented` with tracing forced on, then returns the counter
/// snapshot as the report's additive `"telemetry"` section.
///
/// When the process started with tracing off (the default), the registry
/// is cleared before and after so the section covers exactly the closure
/// and the timed phases of the benchmark never pay more than the
/// relaxed-load check. When the operator already enabled tracing via
/// `M2M_TRACE=1`, the flag and accumulated counters are left alone so a
/// trailing `export_if_requested` still sees the whole run.
pub fn telemetry_section(instrumented: impl FnOnce()) -> JsonValue {
    let was_enabled = m2m_core::telemetry::enabled();
    if !was_enabled {
        m2m_core::telemetry::reset();
        m2m_core::telemetry::set_enabled(true);
    }
    instrumented();
    let section = m2m_core::telemetry::snapshot().to_json();
    if !was_enabled {
        m2m_core::telemetry::set_enabled(false);
        m2m_core::telemetry::reset();
    }
    section
}

/// Renders a report, writes it to `path`, and echoes it to stdout (the
/// artifacts double as the benchmark's machine-readable output).
pub fn write_report(path: &str, report: &JsonValue) {
    let text = report.render();
    std::fs::write(path, &text).expect("write benchmark json");
    print!("{text}");
    m2m_core::m2m_log!(m2m_core::telemetry::Level::Info, "wrote {path}");
}

/// Median of a sample set, in place. Benchmarks report medians so a
/// single descheduled sample cannot move the committed artifact.
pub fn median_ns(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Times `f` once, returning nanoseconds.
pub fn time_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_header_has_versioned_shape() {
        let report = bench_report("unit_test", "nowhere");
        let text = report.render();
        assert!(text.starts_with("{\n  \"schema_version\": 2,\n  \"benchmark\": \"unit_test\""));
        assert!(text.contains("\"deployment\": \"nowhere\""));
        assert!(text.contains("\"available_parallelism\": "));
    }

    #[test]
    fn telemetry_section_drains_only_the_instrumented_closure() {
        let section = telemetry_section(|| {
            m2m_core::telemetry::counter("bench.report.test", 3);
        });
        let text = section.render();
        assert!(text.contains("\"bench.report.test\": 3"), "got {text}");
        // The registry was drained and tracing disabled on the way out.
        assert!(!m2m_core::telemetry::enabled());
        assert_eq!(
            m2m_core::telemetry::snapshot().counter("bench.report.test"),
            0
        );
    }

    #[test]
    fn cli_parses_flags_and_positionals() {
        let argv = |list: &[&str]| list.iter().map(|s| (*s).to_string()).collect();
        let cli = BenchCli::parse_from(argv(&["--smoke", "out.json", "9"]), "D.json");
        assert!(cli.smoke);
        assert_eq!(cli.check, None);
        assert_eq!(cli.out_path, "out.json");
        assert_eq!(cli.count, Some(9));

        let cli = BenchCli::parse_from(argv(&["--nodes", "50,100"]), "D.json");
        assert_eq!(cli.nodes, vec![50, 100]);
        assert_eq!(cli.out_path, "D.json");
        assert_eq!(cli.count, None);

        let cli = BenchCli::parse_from(argv(&["--nodes=250", "--check", "a.json"]), "D.json");
        assert_eq!(cli.nodes, vec![250]);
        assert_eq!(cli.check.as_deref(), Some("a.json"));

        // `--check` with no value defaults to the binary's artifact.
        let cli = BenchCli::parse_from(argv(&["--check", "--smoke"]), "D.json");
        assert_eq!(cli.check.as_deref(), Some("D.json"));
        assert!(cli.smoke);
    }

    #[test]
    fn env_section_captures_only_m2m_knobs() {
        // Avoid mutating the process environment (other tests read it):
        // assert on shape only — every captured key has the prefix.
        let section = env_section();
        let text = section.render();
        for line in text.lines().filter(|l| l.contains(':')) {
            let key = line.trim().trim_start_matches('"');
            if let Some(end) = key.find('"') {
                assert!(
                    key[..end].starts_with("M2M_"),
                    "non-M2M key captured: {line}"
                );
            }
        }
    }

    #[test]
    fn check_header_round_trips_a_fresh_report() {
        let dir = std::env::temp_dir().join("m2m_report_check_header_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_unit.json");
        let path = path.to_str().expect("utf-8 temp path");
        std::fs::write(path, bench_report("unit_check", "nowhere").render()).expect("write");
        let doc = check_header(path, "unit_check");
        assert_eq!(
            doc.get("deployment").and_then(JsonValue::as_str),
            Some("nowhere")
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn median_is_order_insensitive() {
        let mut a = [3.0, 1.0, 2.0];
        let mut b = [2.0, 3.0, 1.0];
        assert_eq!(median_ns(&mut a), 2.0);
        assert_eq!(median_ns(&mut b), 2.0);
    }
}
