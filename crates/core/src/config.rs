//! Typed runtime configuration: one entry point for every knob the
//! workspace used to read straight out of the environment.
//!
//! Historically `M2M_THREADS`, `M2M_TRACE`, `M2M_TRACE_OUT`, and `M2M_LOG`
//! were each parsed at their point of use (`parallel`, the telemetry
//! facade, the bench bins). [`Config`] centralizes them — plus the
//! fault-pipeline knobs (`M2M_RETRIES`, `M2M_BACKOFF`, `M2M_MAX_SLOTS`,
//! `M2M_HYSTERESIS`) and the observability knobs (`M2M_OBS`,
//! `M2M_OBS_EVERY`, `M2M_OBS_CAP`) — behind a builder:
//!
//! ```
//! use m2m_core::config::Config;
//! let cfg = Config::builder().threads(2).retries(3).build();
//! assert_eq!(cfg.resolved_threads(), 2);
//! assert_eq!(cfg.retry_policy().max_attempts, 3);
//! ```
//!
//! The environment variables remain the *defaults*: [`Config::from_env`]
//! (and therefore [`Config::builder`], which starts from it) reads them,
//! so existing scripts keep working unchanged. Library code that needs
//! the process-wide configuration goes through [`global`], a lazily
//! initialized snapshot; embedders that want explicit control call
//! [`install`] before first use.

use std::sync::OnceLock;

use crate::faults::RetryPolicy;
use crate::telemetry::Level;

/// Environment variable pinning the worker count (see [`crate::parallel`]).
pub const THREADS_ENV: &str = "M2M_THREADS";
/// Environment variable enabling telemetry collection (`1`/`true`/…).
pub const TRACE_ENV: &str = "M2M_TRACE";
/// Environment variable naming the telemetry snapshot output file.
pub const TRACE_OUT_ENV: &str = "M2M_TRACE_OUT";
/// Environment variable setting the log threshold (`off`…`trace`).
pub const LOG_ENV: &str = "M2M_LOG";
/// Environment variable bounding transmission attempts per message
/// (`0` = unlimited retries).
pub const RETRIES_ENV: &str = "M2M_RETRIES";
/// Environment variable adding backoff slots after a failed attempt.
pub const BACKOFF_ENV: &str = "M2M_BACKOFF";
/// Environment variable bounding the slots a fault-tolerant round may use.
pub const MAX_SLOTS_ENV: &str = "M2M_MAX_SLOTS";
/// Environment variable setting the relative ETX-drift threshold past
/// which the churn driver recomputes routes.
pub const HYSTERESIS_ENV: &str = "M2M_HYSTERESIS";
/// Environment variable pinning the executor lane width (one of
/// [`crate::exec::SUPPORTED_LANE_WIDTHS`]).
pub const LANES_ENV: &str = "M2M_LANES";
/// Environment variable enabling the observability layer (per-node
/// planes, flight recorder, layer-span trace events; `1`/`true`/…).
pub const OBS_ENV: &str = m2m_telemetry::timeseries::OBS_ENV;
/// Environment variable setting the flight-recorder sampling stride:
/// record every Nth round's series point (events are never strided).
pub const OBS_EVERY_ENV: &str = "M2M_OBS_EVERY";
/// Environment variable bounding the flight recorder's ring capacities
/// (series points and events each keep at most this many entries).
pub const OBS_CAP_ENV: &str = "M2M_OBS_CAP";
/// Environment variable setting the event-driven simulator's per-node
/// outbound queue bound (overflow accounting threshold).
pub const SIM_QUEUE_ENV: &str = "M2M_SIM_QUEUE";
/// Environment variable setting the event-driven simulator's per-link
/// delivery latency in ticks.
pub const SIM_LATENCY_ENV: &str = "M2M_SIM_LATENCY";
/// Environment variable selecting the execution engine
/// [`crate::session::Session::run`] dispatches to
/// (`compiled` | `lossy` | `sim`).
pub const RUNTIME_ENV: &str = "M2M_RUNTIME";

/// The execution engine a [`crate::session::Session`] round runs on.
///
/// The engine is a configuration axis: [`crate::session::Session::run`]
/// and [`crate::session::Session::run_rounds`] dispatch on it and return
/// one unified [`crate::session::RoundReport`] shape. The two loss-aware
/// engines differ only in the clock that decides delivery; both settle
/// the answer through [`crate::faults::FaultyExec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Runtime {
    /// The compiled allocation-free executor over reliable links — the
    /// steady-state fast path, bit-identical to the reference oracle.
    #[default]
    Compiled,
    /// The loss-aware slotted executor ([`crate::faults::FaultyExec`]):
    /// seeded per-link loss, bounded retransmission, coverage
    /// accounting. Advances the session's replayable salt stream.
    Lossy,
    /// The discrete-event per-node simulator ([`crate::sim::SimExec`]):
    /// the same loss semantics on an event wheel with bounded queues.
    /// Shares the salt stream with [`Runtime::Lossy`].
    Sim,
}

impl Runtime {
    /// Parses an `M2M_RUNTIME`-style name, case-insensitively.
    pub fn parse(v: &str) -> Option<Runtime> {
        match v.trim().to_ascii_lowercase().as_str() {
            "compiled" => Some(Runtime::Compiled),
            "lossy" => Some(Runtime::Lossy),
            "sim" => Some(Runtime::Sim),
            _ => None,
        }
    }

    /// The canonical lowercase name (`parse(name)` round-trips).
    pub fn name(self) -> &'static str {
        match self {
            Runtime::Compiled => "compiled",
            Runtime::Lossy => "lossy",
            Runtime::Sim => "sim",
        }
    }
}

/// Default for [`Config::retries`] when `M2M_RETRIES` is unset.
pub const DEFAULT_RETRIES: u32 = 8;
/// Default for [`Config::max_slots`] when `M2M_MAX_SLOTS` is unset.
pub const DEFAULT_MAX_SLOTS: u32 = 10_000;
/// Default for [`Config::hysteresis`] when `M2M_HYSTERESIS` is unset.
pub const DEFAULT_HYSTERESIS: f64 = 0.25;
/// Default for [`Config::obs_every`] when `M2M_OBS_EVERY` is unset.
pub const DEFAULT_OBS_EVERY: u64 = 1;
/// Default for [`Config::obs_cap`] when `M2M_OBS_CAP` is unset.
pub const DEFAULT_OBS_CAP: usize = 4096;
/// Default for [`Config::sim_queue`] when `M2M_SIM_QUEUE` is unset.
pub const DEFAULT_SIM_QUEUE: u32 = 64;
/// Default for [`Config::sim_latency`] when `M2M_SIM_LATENCY` is unset.
pub const DEFAULT_SIM_LATENCY: u32 = 1;

/// A resolved runtime configuration. Construct with [`Config::from_env`]
/// or [`Config::builder`]; read through the accessors.
#[derive(Clone, Debug, PartialEq)]
pub struct Config {
    threads: Option<usize>,
    trace: bool,
    trace_out: Option<String>,
    log: Level,
    retries: u32,
    backoff_slots: u32,
    max_slots: u32,
    hysteresis: f64,
    lanes: usize,
    obs: bool,
    obs_every: u64,
    obs_cap: usize,
    sim_queue: u32,
    sim_latency: u32,
    runtime: Runtime,
}

impl Config {
    /// Reads every knob from the environment, falling back to the
    /// documented defaults. This is exactly the configuration the
    /// scattered `std::env::var` call sites used to assemble implicitly.
    pub fn from_env() -> Self {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`Config::from_env`] over any variable lookup: `var` maps an
    /// `M2M_*` name to its value, or `None` when it is unset (or not
    /// UTF-8). A value that does not parse into its knob's domain falls
    /// back to the default.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let parse_u32 = |name: &str, default: u32| -> u32 {
            var(name)
                .and_then(|v| v.trim().parse::<u32>().ok())
                .unwrap_or(default)
        };
        Config {
            threads: var(THREADS_ENV)
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0),
            trace: var(TRACE_ENV).is_some_and(|v| parse_bool(&v)),
            trace_out: var(TRACE_OUT_ENV).filter(|p| !p.is_empty()),
            log: var(LOG_ENV)
                .and_then(|v| Level::parse(&v))
                .unwrap_or(Level::Off),
            retries: parse_u32(RETRIES_ENV, DEFAULT_RETRIES),
            backoff_slots: parse_u32(BACKOFF_ENV, 0),
            max_slots: parse_u32(MAX_SLOTS_ENV, DEFAULT_MAX_SLOTS).max(1),
            hysteresis: var(HYSTERESIS_ENV)
                .and_then(|v| v.trim().parse::<f64>().ok())
                .filter(|h| h.is_finite() && *h >= 0.0)
                .unwrap_or(DEFAULT_HYSTERESIS),
            lanes: var(LANES_ENV)
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|w| crate::exec::SUPPORTED_LANE_WIDTHS.contains(w))
                .unwrap_or(crate::exec::DEFAULT_LANE_WIDTH),
            obs: var(OBS_ENV).is_some_and(|v| parse_bool(&v)),
            obs_every: var(OBS_EVERY_ENV)
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_OBS_EVERY),
            obs_cap: var(OBS_CAP_ENV)
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(DEFAULT_OBS_CAP),
            sim_queue: parse_u32(SIM_QUEUE_ENV, DEFAULT_SIM_QUEUE).max(1),
            sim_latency: parse_u32(SIM_LATENCY_ENV, DEFAULT_SIM_LATENCY).max(1),
            runtime: var(RUNTIME_ENV)
                .and_then(|v| Runtime::parse(&v))
                .unwrap_or_default(),
        }
    }

    /// A builder seeded from [`Config::from_env`], so explicit settings
    /// override the environment and everything else keeps its env-derived
    /// default.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder {
            config: Config::from_env(),
        }
    }

    /// The pinned worker count, if any (`None` = auto-detect).
    #[inline]
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The worker count plan builds and epoch fan-outs should use: the
    /// pinned count if set, otherwise the machine's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Whether telemetry collection is on.
    #[inline]
    pub fn trace(&self) -> bool {
        self.trace
    }

    /// Where to write the telemetry snapshot, if anywhere.
    #[inline]
    pub fn trace_out(&self) -> Option<&str> {
        self.trace_out.as_deref()
    }

    /// The log threshold.
    #[inline]
    pub fn log(&self) -> Level {
        self.log
    }

    /// Maximum transmission attempts per message (`0` = unlimited).
    #[inline]
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Extra wait slots after a failed attempt.
    #[inline]
    pub fn backoff_slots(&self) -> u32 {
        self.backoff_slots
    }

    /// Slot budget per fault-tolerant round.
    #[inline]
    pub fn max_slots(&self) -> u32 {
        self.max_slots
    }

    /// Relative ETX-drift threshold for the churn driver.
    #[inline]
    pub fn hysteresis(&self) -> f64 {
        self.hysteresis
    }

    /// Executor lane width for batched epoch runs (one of
    /// [`crate::exec::SUPPORTED_LANE_WIDTHS`]; results are bit-identical
    /// at every width, so this is purely a throughput knob).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Whether the observability layer (per-node planes, flight
    /// recorder, layer-span trace events) is on.
    #[inline]
    pub fn obs(&self) -> bool {
        self.obs
    }

    /// Flight-recorder sampling stride: every Nth round gets a series
    /// point (structured events are recorded regardless of stride).
    #[inline]
    pub fn obs_every(&self) -> u64 {
        self.obs_every
    }

    /// Ring capacity for the flight recorder's series and event buffers.
    #[inline]
    pub fn obs_cap(&self) -> usize {
        self.obs_cap
    }

    /// Per-node outbound queue bound for the event-driven simulator
    /// (pushes past it are counted as overflow, never dropped).
    #[inline]
    pub fn sim_queue(&self) -> u32 {
        self.sim_queue
    }

    /// Per-link delivery latency of the event-driven simulator, in ticks.
    #[inline]
    pub fn sim_latency(&self) -> u32 {
        self.sim_latency
    }

    /// The execution engine [`crate::session::Session::run`] dispatches
    /// to (overridable per session via
    /// [`crate::session::SessionBuilder::runtime`]).
    #[inline]
    pub fn runtime(&self) -> Runtime {
        self.runtime
    }

    /// The simulator knobs as [`crate::sim::SimParams`].
    pub fn sim_params(&self) -> crate::sim::SimParams {
        crate::sim::SimParams {
            queue_cap: self.sim_queue,
            latency: self.sim_latency,
        }
    }

    /// The retry/backoff/budget knobs as a [`RetryPolicy`] for the
    /// fault-tolerant executor.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.retries,
            backoff_slots: self.backoff_slots,
            max_slots: self.max_slots,
        }
    }

    /// Pushes the telemetry knobs into the process-wide facade:
    /// collection on/off and the log threshold. Does **not** write any
    /// file — see [`Config::export_telemetry`].
    pub fn apply(&self) {
        crate::telemetry::set_enabled(self.trace);
        crate::telemetry::set_log_threshold(self.log);
        m2m_telemetry::timeseries::set_obs_enabled(self.obs);
    }

    /// Writes the current telemetry snapshot to [`Config::trace_out`]
    /// (if configured), returning the path written: `Ok(None)` when no
    /// output is configured, the I/O error when the write fails. The
    /// config-driven counterpart of
    /// [`crate::telemetry::export_if_requested`].
    pub fn export_telemetry(&self) -> std::io::Result<Option<String>> {
        crate::telemetry::export_snapshot(self.trace_out())
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::from_env()
    }
}

fn parse_bool(v: &str) -> bool {
    matches!(
        v.trim().to_ascii_lowercase().as_str(),
        "1" | "true" | "yes" | "on"
    )
}

/// Builder for [`Config`]; see [`Config::builder`].
#[derive(Clone, Debug)]
pub struct ConfigBuilder {
    config: Config,
}

impl ConfigBuilder {
    /// Pins the worker count (must be positive).
    ///
    /// # Panics
    /// Panics if `n == 0` (use auto-detection by not calling this).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n > 0, "thread count must be positive");
        self.config.threads = Some(n);
        self
    }

    /// Turns telemetry collection on or off.
    #[must_use]
    pub fn trace(mut self, on: bool) -> Self {
        self.config.trace = on;
        self
    }

    /// Sets the telemetry snapshot output path.
    #[must_use]
    pub fn trace_out(mut self, path: impl Into<String>) -> Self {
        self.config.trace_out = Some(path.into());
        self
    }

    /// Sets the log threshold.
    #[must_use]
    pub fn log(mut self, level: Level) -> Self {
        self.config.log = level;
        self
    }

    /// Bounds transmission attempts per message (`0` = unlimited).
    #[must_use]
    pub fn retries(mut self, attempts: u32) -> Self {
        self.config.retries = attempts;
        self
    }

    /// Adds backoff slots after each failed attempt.
    #[must_use]
    pub fn backoff_slots(mut self, slots: u32) -> Self {
        self.config.backoff_slots = slots;
        self
    }

    /// Bounds the slots a fault-tolerant round may use.
    ///
    /// # Panics
    /// Panics if `slots == 0` (a round needs at least one slot).
    #[must_use]
    pub fn max_slots(mut self, slots: u32) -> Self {
        assert!(slots > 0, "slot budget must be positive");
        self.config.max_slots = slots;
        self
    }

    /// Sets the relative ETX-drift threshold for the churn driver.
    ///
    /// # Panics
    /// Panics unless `h` is finite and non-negative.
    #[must_use]
    pub fn hysteresis(mut self, h: f64) -> Self {
        assert!(
            h.is_finite() && h >= 0.0,
            "hysteresis must be finite and >= 0"
        );
        self.config.hysteresis = h;
        self
    }

    /// Sets the executor lane width for batched epoch runs.
    ///
    /// # Panics
    /// Panics unless `width` is one of
    /// [`crate::exec::SUPPORTED_LANE_WIDTHS`].
    #[must_use]
    pub fn lanes(mut self, width: usize) -> Self {
        assert!(
            crate::exec::SUPPORTED_LANE_WIDTHS.contains(&width),
            "unsupported lane width {width} (supported: {:?})",
            crate::exec::SUPPORTED_LANE_WIDTHS
        );
        self.config.lanes = width;
        self
    }

    /// Turns the observability layer on or off.
    #[must_use]
    pub fn obs(mut self, on: bool) -> Self {
        self.config.obs = on;
        self
    }

    /// Sets the flight-recorder sampling stride (record every Nth
    /// round's series point).
    ///
    /// # Panics
    /// Panics if `every == 0` (stride 1 records every round).
    #[must_use]
    pub fn obs_every(mut self, every: u64) -> Self {
        assert!(every > 0, "obs stride must be positive");
        self.config.obs_every = every;
        self
    }

    /// Bounds the flight recorder's series and event ring capacities.
    ///
    /// # Panics
    /// Panics if `cap == 0` (the recorder needs at least one slot).
    #[must_use]
    pub fn obs_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "obs ring capacity must be positive");
        self.config.obs_cap = cap;
        self
    }

    /// Bounds the simulator's per-node outbound queue.
    ///
    /// # Panics
    /// Panics if `depth == 0` (a radio needs at least one queue slot).
    #[must_use]
    pub fn sim_queue(mut self, depth: u32) -> Self {
        assert!(depth > 0, "sim queue bound must be positive");
        self.config.sim_queue = depth;
        self
    }

    /// Sets the simulator's per-link delivery latency in ticks.
    ///
    /// # Panics
    /// Panics if `ticks == 0` (delivery takes at least one tick).
    #[must_use]
    pub fn sim_latency(mut self, ticks: u32) -> Self {
        assert!(ticks > 0, "sim latency must be positive");
        self.config.sim_latency = ticks;
        self
    }

    /// Selects the execution engine [`crate::session::Session::run`]
    /// dispatches to.
    #[must_use]
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.config.runtime = runtime;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Config {
        self.config
    }
}

static GLOBAL: OnceLock<Config> = OnceLock::new();

/// The process-wide configuration: the installed one, or a lazily read
/// [`Config::from_env`] snapshot. Library call sites (the worker pool,
/// session defaults) read through here, so one `install` governs them all.
pub fn global() -> &'static Config {
    GLOBAL.get_or_init(Config::from_env)
}

/// Installs `config` as the process-wide configuration and applies its
/// telemetry knobs. Returns `Err(config)` if a global was already
/// installed (or lazily initialized) — first write wins, matching the
/// facade's first-read-wins env semantics.
pub fn install(config: Config) -> Result<(), Config> {
    config.apply();
    GLOBAL.set(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_and_defaults() {
        let cfg = Config::builder()
            .threads(3)
            .trace(true)
            .retries(2)
            .backoff_slots(4)
            .max_slots(77)
            .hysteresis(0.5)
            .log(Level::Warn)
            .obs(true)
            .obs_every(10)
            .obs_cap(128)
            .build();
        assert_eq!(cfg.threads(), Some(3));
        assert_eq!(cfg.resolved_threads(), 3);
        assert!(cfg.trace());
        assert_eq!(cfg.log(), Level::Warn);
        let policy = cfg.retry_policy();
        assert_eq!(policy.max_attempts, 2);
        assert_eq!(policy.backoff_slots, 4);
        assert_eq!(policy.max_slots, 77);
        assert_eq!(cfg.hysteresis(), 0.5);
        assert!(cfg.obs());
        assert_eq!(cfg.obs_every(), 10);
        assert_eq!(cfg.obs_cap(), 128);
        let sim = Config::builder().sim_queue(7).sim_latency(3).build();
        assert_eq!(sim.sim_queue(), 7);
        assert_eq!(sim.sim_latency(), 3);
        assert_eq!(
            sim.sim_params(),
            crate::sim::SimParams {
                queue_cap: 7,
                latency: 3
            }
        );
    }

    #[test]
    fn env_free_defaults_are_sane() {
        // The test environment does not set the fault knobs, so from_env
        // must land on the documented defaults.
        let cfg = Config::from_env();
        assert_eq!(cfg.retries(), DEFAULT_RETRIES);
        assert_eq!(cfg.backoff_slots(), 0);
        assert_eq!(cfg.max_slots(), DEFAULT_MAX_SLOTS);
        assert_eq!(cfg.hysteresis(), DEFAULT_HYSTERESIS);
        assert_eq!(cfg.lanes(), crate::exec::DEFAULT_LANE_WIDTH);
        assert!(cfg.resolved_threads() >= 1);
        assert!(!cfg.obs());
        assert_eq!(cfg.obs_every(), DEFAULT_OBS_EVERY);
        assert_eq!(cfg.obs_cap(), DEFAULT_OBS_CAP);
        assert_eq!(cfg.sim_queue(), DEFAULT_SIM_QUEUE);
        assert_eq!(cfg.sim_latency(), DEFAULT_SIM_LATENCY);
    }

    #[test]
    #[should_panic(expected = "obs stride must be positive")]
    fn zero_obs_stride_rejected() {
        let _ = Config::builder().obs_every(0);
    }

    #[test]
    #[should_panic(expected = "obs ring capacity must be positive")]
    fn zero_obs_cap_rejected() {
        let _ = Config::builder().obs_cap(0);
    }

    #[test]
    fn lanes_accepts_every_supported_width() {
        for w in crate::exec::SUPPORTED_LANE_WIDTHS {
            assert_eq!(Config::builder().lanes(w).build().lanes(), w);
        }
    }

    #[test]
    #[should_panic(expected = "unsupported lane width")]
    fn odd_lane_width_rejected() {
        let _ = Config::builder().lanes(3);
    }

    #[test]
    fn failed_telemetry_export_is_an_error() {
        let missing = std::env::temp_dir().join("m2m_config_no_such_dir/trace.json");
        let cfg = Config::builder()
            .trace_out(missing.to_str().expect("utf-8 temp path"))
            .build();
        assert!(cfg.export_telemetry().is_err());
        // The test environment sets no M2M_TRACE_OUT: nothing to write.
        let silent = Config::builder().build();
        assert_eq!(silent.export_telemetry().expect("no export"), None);
    }

    #[test]
    fn default_is_from_env() {
        assert_eq!(Config::default(), Config::from_env());
    }

    #[test]
    fn runtime_knob_defaults_parses_and_round_trips() {
        // The test environment does not set M2M_RUNTIME.
        assert_eq!(Config::from_env().runtime(), Runtime::Compiled);
        for rt in [Runtime::Compiled, Runtime::Lossy, Runtime::Sim] {
            assert_eq!(Runtime::parse(rt.name()), Some(rt));
            assert_eq!(Config::builder().runtime(rt).build().runtime(), rt);
        }
        assert_eq!(Runtime::parse(" SIM "), Some(Runtime::Sim));
        assert_eq!(Runtime::parse("interpreted"), None);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        let _ = Config::builder().threads(0);
    }

    #[test]
    fn global_is_stable_across_reads() {
        let a = global();
        let b = global();
        assert!(std::ptr::eq(a, b));
    }

    /// One valid value for every variable [`Config::from_env`] reads.
    const VALID: [(&str, &str); 15] = [
        (THREADS_ENV, "12"),
        (TRACE_ENV, "true"),
        (TRACE_OUT_ENV, "trace.json"),
        (LOG_ENV, "debug"),
        (RETRIES_ENV, "30"),
        (BACKOFF_ENV, "25"),
        (MAX_SLOTS_ENV, "500"),
        (HYSTERESIS_ENV, "0.75"),
        (LANES_ENV, "16"),
        (OBS_ENV, "yes"),
        (OBS_EVERY_ENV, "10"),
        (OBS_CAP_ENV, "128"),
        (SIM_QUEUE_ENV, "64"),
        (SIM_LATENCY_ENV, "20"),
        (RUNTIME_ENV, "lossy"),
    ];

    /// Values that break numbers, signs, widths, bounds and names.
    const HOSTILE: [&str; 11] = [
        "",
        " ",
        "-1",
        "0",
        "4294967296",
        "18446744073709551616",
        "NaN",
        "inf",
        "1e309",
        "x",
        "Ω≈∞",
    ];

    fn from_map(vars: &std::collections::BTreeMap<&str, &str>) -> Config {
        Config::from_vars(|name| vars.get(name).map(|v| (*v).to_string()))
    }

    #[test]
    fn every_variable_reaches_its_knob() {
        let cfg = from_map(&VALID.into_iter().collect());
        let policy = cfg.retry_policy();
        assert_eq!(cfg.threads(), Some(12));
        assert!(cfg.trace() && cfg.obs());
        assert_eq!(cfg.trace_out(), Some("trace.json"));
        assert_eq!(cfg.log(), Level::Debug);
        assert_eq!((policy.max_attempts, policy.backoff_slots), (30, 25));
        assert_eq!(policy.max_slots, 500);
        assert_eq!(cfg.hysteresis(), 0.75);
        assert_eq!(cfg.lanes(), 16);
        assert_eq!((cfg.obs_every(), cfg.obs_cap()), (10, 128));
        assert_eq!((cfg.sim_queue(), cfg.sim_latency()), (64, 20));
        assert_eq!(cfg.runtime(), Runtime::Lossy);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Over a background of valid and unset variables, every
        /// truncation of each variable's valid value and every
        /// [`HOSTILE`] replacement parses without panicking, and every
        /// knob lands in its documented domain.
        #[test]
        fn damaged_environments_parse_into_the_documented_domain(seed in 0u64..1_000) {
            let background: std::collections::BTreeMap<&str, &str> = VALID
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| (seed >> (i % 10)) & 1 == 1)
                .map(|(_, pair)| pair)
                .collect();
            for (name, valid) in VALID {
                let cuts = (0..=valid.len()).map(|cut| &valid[..cut]);
                for value in cuts.chain(HOSTILE) {
                    let mut vars = background.clone();
                    vars.insert(name, value);
                    let cfg = std::panic::catch_unwind(|| from_map(&vars));
                    proptest::prop_assert!(cfg.is_ok(), "panicked on {name}={value:?}");
                    let cfg = cfg.unwrap();
                    let in_domain = cfg.threads().is_none_or(|n| n > 0)
                        && [cfg.max_slots(), cfg.sim_queue(), cfg.sim_latency()]
                            .iter()
                            .all(|&v| v >= 1)
                        && cfg.obs_every() >= 1
                        && cfg.obs_cap() >= 1
                        && crate::exec::SUPPORTED_LANE_WIDTHS.contains(&cfg.lanes())
                        && cfg.hysteresis().is_finite()
                        && cfg.hysteresis() >= 0.0;
                    proptest::prop_assert!(in_domain, "{name}={value:?}: {cfg:?}");
                }
            }
        }
    }
}
