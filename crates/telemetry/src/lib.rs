//! Zero-overhead instrumentation facade for the m2m workspace.
//!
//! The paper's whole evaluation is an observability exercise — per-round
//! message and energy accounting, per-edge raw-vs-partial decisions —
//! and profiling has to attribute time to each layer of the pipeline.
//! This crate is the shared substrate: a global, dependency-free facade
//! with
//!
//! * **monotonic counters** ([`counter`]) and **fixed-bucket power-of-two
//!   histograms** ([`observe`], [`Dist`]) for values and durations;
//! * **one scoped span** ([`span`]) per pipeline layer, named from
//!   [`layer`]: on drop it records its nanoseconds into the histogram of
//!   its name when tracing is on, and one Chrome complete event
//!   ([`timeseries::chrome_trace`]) when observability is on;
//! * a **leveled log sink** ([`m2m_log!`], quiet by default);
//! * env control: `M2M_TRACE=1` and `M2M_OBS=1` turn tracing and
//!   observability on at startup, `M2M_TRACE_OUT=path` makes
//!   [`export_if_requested`] write a JSON snapshot, `M2M_LOG=debug`
//!   (etc.) opens the log sink.
//!
//! # The overhead contract
//!
//! Tracing and observability are two bits of one global flag word.
//! Every entry point, a span included, reads it with one **relaxed
//! load** ([`enabled`], [`timeseries::obs_enabled`]); with both bits off
//! that load and a branch are the *entire* cost on the optimizer's and
//! executor's hot paths. The property tests `tests/telemetry_equivalence.rs`
//! and `tests/obs_equivalence.rs` pin that neither flag ever changes a
//! plan, a round result, or a cost.
//!
//! # Shard-per-thread registry
//!
//! When tracing is on, events record into a **per-thread shard** (a
//! thread-local `Arc` registered in a global list on first use), so the
//! [`crate::span`]/[`crate::counter`] calls issued concurrently by
//! `m2m-core`'s scoped worker pool never contend with each other: each
//! shard's mutex is only ever touched by its owning thread — and by
//! [`snapshot`], which **drains by aggregation**: it walks the registry
//! and sums shards into one [`Snapshot`] without clearing them. Shards of
//! finished worker threads stay registered (the registry holds the `Arc`),
//! so no event is lost when a scoped pool winds down; [`reset`] zeroes
//! every shard in place.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod layer;
pub mod timeseries;

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use json::JsonValue;

/// Environment variable that enables tracing at first use (`1`, `true`,
/// `on`, `yes`, case-insensitive).
pub const TRACE_ENV: &str = "M2M_TRACE";
/// Environment variable naming the file [`export_if_requested`] writes
/// the JSON snapshot to.
pub const TRACE_OUT_ENV: &str = "M2M_TRACE_OUT";
/// Environment variable setting the log sink threshold (`error`, `warn`,
/// `info`, `debug`, `trace`, or `off`).
pub const LOG_ENV: &str = "M2M_LOG";

// ---------------------------------------------------------------------
// The flag word.
// ---------------------------------------------------------------------

/// Flag bit: tracing (counters, histograms, span durations).
const TRACE: u8 = 1;
/// Flag bit: observability (node planes, flight recorder, span events).
pub(crate) const OBS: u8 = 2;
/// Flag bit: the environment has been read.
const INIT: u8 = 4;

static FLAGS: AtomicU8 = AtomicU8::new(0);

/// The flag word: one relaxed atomic load (the env is read once, on the
/// first call ever).
#[inline]
pub(crate) fn flags() -> u8 {
    let word = FLAGS.load(Ordering::Relaxed);
    if word & INIT != 0 {
        word
    } else {
        init_flags_from_env()
    }
}

#[cold]
fn init_flags_from_env() -> u8 {
    let env_bit = |var: &str, bit: u8| {
        if std::env::var(var).is_ok_and(|v| parse_bool(&v)) {
            bit
        } else {
            0
        }
    };
    let word = INIT | env_bit(TRACE_ENV, TRACE) | env_bit(timeseries::OBS_ENV, OBS);
    // Racing initializers agree (same env), and a setter that got in
    // first has already set INIT, so the failed exchange keeps its bit.
    let _ = FLAGS.compare_exchange(0, word, Ordering::Relaxed, Ordering::Relaxed);
    FLAGS.load(Ordering::Relaxed)
}

/// Sets or clears one flag bit, after the env read so that it cannot be
/// overwritten by it later.
pub(crate) fn set_flag(bit: u8, on: bool) {
    flags();
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// True if tracing is enabled. This is the disabled-path hot check: one
/// relaxed atomic load and a branch.
#[inline]
pub fn enabled() -> bool {
    flags() & TRACE != 0
}

/// Turns tracing on or off programmatically (overrides `M2M_TRACE`).
pub fn set_enabled(on: bool) {
    set_flag(TRACE, on);
}

fn parse_bool(v: &str) -> bool {
    matches!(
        v.trim().to_ascii_lowercase().as_str(),
        "1" | "true" | "on" | "yes"
    )
}

// ---------------------------------------------------------------------
// Shard-per-thread event storage.
// ---------------------------------------------------------------------

/// Number of histogram buckets. Bucket `i` counts values whose bit length
/// is `i` (bucket 0 holds the value 0), i.e. bucket `i > 0` spans
/// `[2^(i-1), 2^i - 1]`; the last bucket absorbs everything larger.
pub const DIST_BUCKETS: usize = 40;

/// A fixed-bucket distribution: count, sum, max, and power-of-two
/// buckets. Used for both value observations and span durations (ns).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dist {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Power-of-two buckets; see [`DIST_BUCKETS`].
    pub buckets: [u64; DIST_BUCKETS],
}

impl Default for Dist {
    fn default() -> Self {
        Dist {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; DIST_BUCKETS],
        }
    }
}

impl Dist {
    fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
        let bucket = (64 - value.leading_zeros() as usize).min(DIST_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }

    fn merge(&mut self, other: &Dist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct ShardData {
    counters: BTreeMap<&'static str, u64>,
    dists: BTreeMap<&'static str, Dist>,
}

struct Shard {
    data: Mutex<ShardData>,
}

fn registry() -> &'static Mutex<Vec<Arc<Shard>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Shard>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_SHARD: OnceCell<Arc<Shard>> = const { OnceCell::new() };
}

fn with_shard(f: impl FnOnce(&mut ShardData)) {
    LOCAL_SHARD.with(|cell| {
        let shard = cell.get_or_init(|| {
            let shard = Arc::new(Shard {
                data: Mutex::new(ShardData::default()),
            });
            registry()
                .lock()
                .expect("registry poisoned")
                .push(Arc::clone(&shard));
            shard
        });
        f(&mut shard.data.lock().expect("shard poisoned"));
    });
}

/// Adds `delta` to the named monotonic counter. No-op when tracing is
/// disabled (one relaxed load).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        record_counter(name, delta);
    }
}

// The recording paths are out of line, so a disabled site inlines to a
// load and a branch.
#[cold]
#[inline(never)]
fn record_counter(name: &'static str, delta: u64) {
    with_shard(|d| *d.counters.entry(name).or_insert(0) += delta);
}

/// Records one value into the named distribution. No-op when tracing is
/// disabled (one relaxed load).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        record_value(name, value);
    }
}

#[cold]
#[inline(never)]
fn record_value(name: &'static str, value: u64) {
    with_shard(|d| d.dists.entry(name).or_default().record(value));
}

// ---------------------------------------------------------------------
// Scoped span timers.
// ---------------------------------------------------------------------

/// A scoped span from [`span`]. On drop it records its elapsed
/// nanoseconds into the histogram of its name if tracing was on at
/// creation, and appends one Chrome complete event if observability was.
/// Inert (no clock read at all) when both were off.
#[must_use = "a span records on drop; binding it to _ discards the measurement immediately"]
pub struct Span {
    name: &'static str,
    flags: u8,
    start: Option<Instant>,
}

/// Starts a scoped span named from [`layer`]. When tracing and
/// observability are both off this costs one relaxed load and never
/// touches the clock.
#[inline]
pub fn span(name: &'static str) -> Span {
    let flags = flags() & (TRACE | OBS);
    Span {
        name,
        flags,
        start: (flags != 0).then(|| {
            if flags & OBS != 0 {
                // Pin the trace epoch before the span's own start so ts ≥ 0.
                timeseries::trace_epoch();
            }
            Instant::now()
        }),
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_span(self.name, self.flags, start);
        }
    }
}

/// The enabled path of a span's drop, out of line.
#[cold]
#[inline(never)]
fn record_span(name: &'static str, flags: u8, start: Instant) {
    let elapsed = start.elapsed();
    if flags & TRACE != 0 {
        record_value(name, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }
    if flags & OBS != 0 {
        timeseries::record_span_event(name, start, elapsed);
    }
}

// ---------------------------------------------------------------------
// Snapshot / drain.
// ---------------------------------------------------------------------

/// An aggregated view of every shard at one point in time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals, summed across shards.
    pub counters: BTreeMap<String, u64>,
    /// Distribution totals, merged across shards.
    pub dists: BTreeMap<String, Dist>,
}

impl Snapshot {
    /// The named counter's total (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named distribution, if any value was recorded.
    pub fn dist(&self, name: &str) -> Option<&Dist> {
        self.dists.get(name)
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.dists.is_empty()
    }

    /// The snapshot as a JSON value: a `"counters"` object and a
    /// `"dists"` object (count/sum/max/mean plus non-empty buckets).
    pub fn to_json(&self) -> JsonValue {
        let mut counters = JsonValue::object();
        for (name, value) in &self.counters {
            counters.push(name, *value);
        }
        let mut dists = JsonValue::object();
        for (name, dist) in &self.dists {
            let mut buckets = JsonValue::object();
            for (i, &n) in dist.buckets.iter().enumerate() {
                if n > 0 {
                    let upper = if i == 0 {
                        0
                    } else if i >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << i) - 1
                    };
                    buckets.push(&format!("le_{upper}"), n);
                }
            }
            dists.push(
                name,
                JsonValue::object()
                    .with("count", dist.count)
                    .with("sum", dist.sum)
                    .with("max", dist.max)
                    .with("mean", JsonValue::float(dist.mean(), 1))
                    .with("buckets", buckets),
            );
        }
        JsonValue::object()
            .with("counters", counters)
            .with("dists", dists)
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.counters {
            writeln!(f, "{name} = {value}")?;
        }
        for (name, dist) in &self.dists {
            writeln!(
                f,
                "{name}: count {} sum {} max {} mean {:.1}",
                dist.count,
                dist.sum,
                dist.max,
                dist.mean()
            )?;
        }
        Ok(())
    }
}

/// Aggregates every shard (including shards of threads that have already
/// exited) into one [`Snapshot`] without clearing anything.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    for shard in registry().lock().expect("registry poisoned").iter() {
        let data = shard.data.lock().expect("shard poisoned");
        for (&name, &value) in &data.counters {
            *snap.counters.entry(name.to_string()).or_insert(0) += value;
        }
        for (&name, dist) in &data.dists {
            snap.dists.entry(name.to_string()).or_default().merge(dist);
        }
    }
    snap
}

/// Zeroes every shard in place (shards stay registered).
pub fn reset() {
    for shard in registry().lock().expect("registry poisoned").iter() {
        let mut data = shard.data.lock().expect("shard poisoned");
        data.counters.clear();
        data.dists.clear();
    }
}

/// Writes the current snapshot as JSON to `path`, if one is given, and
/// returns the path written: `Ok(None)` when there is nothing to write,
/// and the I/O error (naming the path) when the write fails. The one
/// writer behind [`export_if_requested`] and the config-driven export.
pub fn export_snapshot(path: Option<&str>) -> io::Result<Option<String>> {
    let Some(path) = path else { return Ok(None) };
    std::fs::write(path, snapshot().to_json().render())
        .map_err(|e| io::Error::new(e.kind(), format!("{path}: {e}")))?;
    Ok(Some(path.to_string()))
}

/// If tracing is enabled and `M2M_TRACE_OUT` names a file, writes the
/// current snapshot there (see [`export_snapshot`]). Binaries call this
/// once before exiting.
pub fn export_if_requested() -> io::Result<Option<String>> {
    if !enabled() {
        return Ok(None);
    }
    let path = std::env::var(TRACE_OUT_ENV).ok();
    export_snapshot(path.as_deref().filter(|p| !p.is_empty()))
}

// ---------------------------------------------------------------------
// Leveled log sink.
// ---------------------------------------------------------------------

/// Log severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing is emitted.
    Off = 0,
    /// Unrecoverable problems.
    Error = 1,
    /// Suspicious but survivable conditions.
    Warn = 2,
    /// High-level progress (what binaries used to `eprintln!`).
    Info = 3,
    /// Library-internal diagnostics.
    Debug = 4,
    /// Very chatty tracing.
    Trace = 5,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses a level name (`"warn"`, `"3"`, …) as accepted by `M2M_LOG`.
    pub fn parse(v: &str) -> Option<Level> {
        Some(match v.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" | "quiet" => Level::Off,
            "error" | "1" => Level::Error,
            "warn" | "warning" | "2" => Level::Warn,
            "info" | "3" => Level::Info,
            "debug" | "4" => Level::Debug,
            "trace" | "5" => Level::Trace,
            _ => return None,
        })
    }
}

const LOG_UNINIT: u8 = u8::MAX;
static LOG_THRESHOLD: AtomicU8 = AtomicU8::new(LOG_UNINIT);

fn log_threshold_with_default(default: Level) -> Level {
    let raw = LOG_THRESHOLD.load(Ordering::Relaxed);
    if raw != LOG_UNINIT {
        return threshold_from_raw(raw);
    }
    let level = std::env::var(LOG_ENV)
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(default);
    let _ = LOG_THRESHOLD.compare_exchange(
        LOG_UNINIT,
        level as u8,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    threshold_from_raw(LOG_THRESHOLD.load(Ordering::Relaxed))
}

fn threshold_from_raw(raw: u8) -> Level {
    match raw {
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        4 => Level::Debug,
        5 => Level::Trace,
        _ => Level::Off,
    }
}

/// True if a message at `level` would be emitted. Library code is quiet
/// by default: with no `M2M_LOG` and no [`init_logging`], the threshold
/// is [`Level::Off`].
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level != Level::Off && level <= log_threshold_with_default(Level::Off)
}

/// Sets the log threshold for this process, overriding `M2M_LOG`.
pub fn set_log_threshold(level: Level) {
    LOG_THRESHOLD.store(level as u8, Ordering::Relaxed);
}

/// Initializes the log sink with a process default: `M2M_LOG` wins if
/// set, otherwise `default` becomes the threshold. Binaries that want
/// their progress visible call `init_logging(Level::Info)`; library code
/// never calls this, so it stays quiet unless the user opts in.
pub fn init_logging(default: Level) {
    let _ = log_threshold_with_default(default);
}

/// Emits one log line to stderr. Use through [`m2m_log!`], which checks
/// [`log_enabled`] before formatting anything.
pub fn log(level: Level, module: &str, args: fmt::Arguments<'_>) {
    eprintln!("[{} {}] {}", level.name(), module, args);
}

/// Logs through the leveled sink: checks the threshold first, so the
/// message is never even formatted when the sink is quiet (the default).
///
/// ```
/// use m2m_telemetry::{m2m_log, Level};
/// m2m_log!(Level::Debug, "solved {} edges in {} ms", 10, 3);
/// ```
#[macro_export]
macro_rules! m2m_log {
    ($level:expr, $($arg:tt)*) => {{
        let level = $level;
        if $crate::log_enabled(level) {
            $crate::log(level, module_path!(), format_args!($($arg)*));
        }
    }};
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Global-state tests (here and in [`crate::timeseries`]) must not
    /// interleave.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_facade_records_nothing() {
        let _g = lock();
        set_enabled(false);
        timeseries::set_obs_enabled(false);
        reset();
        counter("test.disabled.counter", 5);
        observe("test.disabled.dist", 9);
        drop(span("test.disabled.span"));
        let snap = snapshot();
        assert_eq!(snap.counter("test.disabled.counter"), 0);
        assert!(snap.dist("test.disabled.dist").is_none());
        assert!(snap.dist("test.disabled.span").is_none());
    }

    #[test]
    fn counters_and_dists_aggregate_across_threads() {
        let _g = lock();
        set_enabled(true);
        reset();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    for i in 0..10 {
                        counter("test.shared.counter", 1);
                        observe("test.shared.dist", (t * 10 + i) as u64);
                    }
                });
            }
        });
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter("test.shared.counter"), 40);
        let dist = snap.dist("test.shared.dist").expect("dist recorded");
        assert_eq!(dist.count, 40);
        assert_eq!(dist.sum, (0u64..40).sum());
        assert_eq!(dist.max, 39);
        assert_eq!(dist.buckets.iter().sum::<u64>(), 40);
    }

    /// Drops one span under the given flag bits; returns the histogram
    /// samples and the Chrome events it left behind.
    fn one_span(trace: bool, obs: bool) -> (u64, usize) {
        set_enabled(trace);
        timeseries::set_obs_enabled(obs);
        reset();
        timeseries::reset_span_events();
        {
            let _span = span(layer::PLAN_ASSEMBLE);
            std::hint::black_box(17u64);
        }
        set_enabled(false);
        timeseries::set_obs_enabled(false);
        let samples = snapshot().dist(layer::PLAN_ASSEMBLE).map_or(0, |d| d.count);
        (samples, timeseries::span_event_names().len())
    }

    /// Trace only: one histogram sample, no Chrome event.
    #[test]
    fn span_records_elapsed_nanoseconds() {
        let _g = lock();
        assert_eq!(one_span(true, false), (1, 0));
    }

    #[test]
    fn span_with_obs_only_records_one_chrome_event() {
        let _g = lock();
        assert_eq!(one_span(false, true), (0, 1));
        assert_eq!(timeseries::span_event_names(), [layer::PLAN_ASSEMBLE]);
        let trace = timeseries::chrome_trace().render();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\": \"X\""));
        timeseries::reset_span_events();
    }

    #[test]
    fn span_with_both_on_records_both() {
        let _g = lock();
        assert_eq!(one_span(true, true), (1, 1));
        timeseries::reset_span_events();
    }

    #[test]
    fn span_with_both_off_records_nothing() {
        let _g = lock();
        assert_eq!(one_span(false, false), (0, 0));
    }

    #[test]
    fn the_two_flags_are_independent_bits() {
        let _g = lock();
        set_enabled(true);
        timeseries::set_obs_enabled(false);
        assert!(enabled() && !timeseries::obs_enabled());
        set_enabled(false);
        timeseries::set_obs_enabled(true);
        assert!(!enabled() && timeseries::obs_enabled());
        timeseries::set_obs_enabled(false);
        assert!(!enabled() && !timeseries::obs_enabled());
    }

    #[test]
    fn export_reports_an_unwritable_path() {
        let _g = lock();
        let dir = std::env::temp_dir().join("m2m_telemetry_export_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let ok = dir.join("snapshot.json");
        let ok = ok.to_str().expect("utf-8 temp path");
        assert_eq!(
            export_snapshot(Some(ok)).expect("writable"),
            Some(ok.to_string())
        );
        assert_eq!(export_snapshot(None).expect("nothing to write"), None);
        let missing = dir.join("no_such_dir/snapshot.json");
        let err = export_snapshot(missing.to_str()).expect_err("missing directory");
        assert!(err.to_string().contains("no_such_dir"), "{err}");
        std::fs::remove_file(ok).ok();
    }

    #[test]
    fn reset_zeroes_but_snapshot_does_not() {
        let _g = lock();
        set_enabled(true);
        reset();
        counter("test.reset.counter", 3);
        assert_eq!(snapshot().counter("test.reset.counter"), 3);
        // Snapshot is a non-destructive drain: counts survive it.
        assert_eq!(snapshot().counter("test.reset.counter"), 3);
        reset();
        let after = snapshot().counter("test.reset.counter");
        set_enabled(false);
        assert_eq!(after, 0);
    }

    #[test]
    fn dist_buckets_follow_bit_length() {
        let mut d = Dist::default();
        d.record(0);
        d.record(1);
        d.record(2);
        d.record(3);
        d.record(1024);
        assert_eq!(d.buckets[0], 1, "value 0");
        assert_eq!(d.buckets[1], 1, "value 1");
        assert_eq!(d.buckets[2], 2, "values 2..=3");
        assert_eq!(d.buckets[11], 1, "value 1024");
        assert_eq!(d.count, 5);
        assert_eq!(d.max, 1024);
    }

    #[test]
    fn snapshot_json_shape() {
        let _g = lock();
        set_enabled(true);
        reset();
        counter("test.json.counter", 2);
        observe("test.json.dist", 5);
        let json = snapshot().to_json().render();
        set_enabled(false);
        assert!(json.contains("\"test.json.counter\": 2"));
        assert!(json.contains("\"test.json.dist\""));
        assert!(
            json.contains("\"le_7\": 1"),
            "value 5 lands in the le_7 bucket: {json}"
        );
    }

    #[test]
    fn level_parsing_and_threshold() {
        let _g = lock();
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("bogus"), None);
        set_log_threshold(Level::Warn);
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        assert!(!log_enabled(Level::Off), "Off is never emitted");
        set_log_threshold(Level::Off);
        assert!(!log_enabled(Level::Error));
        // The macro must not panic whether enabled or not.
        m2m_log!(Level::Error, "suppressed {}", 1);
        set_log_threshold(Level::Off);
    }
}
