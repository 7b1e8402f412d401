//! Runtime observability for the LOVM market: named counters, gauges,
//! and log-bucket latency histograms behind one process-global registry,
//! plus a JSON-lines sink gated on `LOVM_TELEMETRY`.
//!
//! Design constraints, in order:
//!
//! 1. **Pure observer.** Nothing here feeds back into the mechanism:
//!    no payment, digest, or journal byte depends on telemetry state.
//!    The golden and determinism suites run with `LOVM_TELEMETRY` both
//!    unset and set to prove it.
//! 2. **Off by default, near-zero when off.** [`enabled`] is one relaxed
//!    atomic load; a disabled [`hist::Span`] never reads the clock.
//! 3. **Allocation-free when on.** Metric handles are registered once
//!    (leaked, bounded by the fixed metric-name set) and cached in
//!    `OnceLock` statics at each call site; recording is relaxed atomics
//!    into preallocated buckets. The counting-allocator suite pins the
//!    solver path at zero steady-state allocations with telemetry
//!    enabled.
//!
//! `LOVM_TELEMETRY` grammar: unset → disabled; `stderr` → record and
//! emit JSON lines to stderr; any other non-empty value → record and
//! append JSON lines to that file path. Empty values panic loudly, like
//! every other `LOVM_*` knob in this workspace.

pub mod hist;

pub use hist::{HistSnapshot, Histogram, Span, BUCKETS, SUB_BUCKETS};

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, Once};

/// A monotonically increasing named counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`. No-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge holding one `f64` (last-write or running-max).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge. No-op while telemetry is disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if larger (running high-water mark).
    /// No-op while telemetry is disabled.
    #[inline]
    pub fn set_max(&self, v: f64) {
        if !enabled() {
            return;
        }
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

// The global registry. Metrics are leaked on first registration — the
// metric-name set is a fixed, small vocabulary (a few dozen entries), so
// the leak is bounded for the life of the process. Linear scan on
// register; call sites cache the returned `&'static` in a `OnceLock`.
static COUNTERS: Mutex<Vec<(&'static str, &'static Counter)>> = Mutex::new(Vec::new());
static GAUGES: Mutex<Vec<(&'static str, &'static Gauge)>> = Mutex::new(Vec::new());
static HISTS: Mutex<Vec<(&'static str, &'static Histogram)>> = Mutex::new(Vec::new());

fn register<T>(
    table: &Mutex<Vec<(&'static str, &'static T)>>,
    name: &'static str,
    fresh: impl FnOnce() -> T,
) -> &'static T {
    let mut table = table.lock().expect("telemetry registry poisoned");
    if let Some((_, m)) = table.iter().find(|(n, _)| *n == name) {
        return m;
    }
    let leaked: &'static T = Box::leak(Box::new(fresh()));
    table.push((name, leaked));
    leaked
}

/// The counter registered under `name` (registering it on first use).
pub fn counter(name: &'static str) -> &'static Counter {
    register(&COUNTERS, name, Counter::default)
}

/// The gauge registered under `name` (registering it on first use).
pub fn gauge(name: &'static str) -> &'static Gauge {
    register(&GAUGES, name, Gauge::default)
}

/// The histogram registered under `name` (registering it on first use).
/// All [`hist::BUCKETS`] slots are preallocated here, so recording never
/// allocates.
pub fn histogram(name: &'static str) -> &'static Histogram {
    register(&HISTS, name, Histogram::new)
}

/// Counter handle cached in a per-call-site static: registry lock is
/// taken once, steady state is one atomic load.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static H: std::sync::OnceLock<&'static $crate::Counter> = std::sync::OnceLock::new();
        *H.get_or_init(|| $crate::counter($name))
    }};
}

/// Gauge handle cached in a per-call-site static.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static H: std::sync::OnceLock<&'static $crate::Gauge> = std::sync::OnceLock::new();
        *H.get_or_init(|| $crate::gauge($name))
    }};
}

/// Histogram handle cached in a per-call-site static. Combine with
/// [`Histogram::span`] for `span!`-style RAII timing:
/// `let _t = telemetry::hist!("solve.shard_ns").span();`
#[macro_export]
macro_rules! hist {
    ($name:literal) => {{
        static H: std::sync::OnceLock<&'static $crate::Histogram> = std::sync::OnceLock::new();
        *H.get_or_init(|| $crate::histogram($name))
    }};
}

/// Point-in-time copy of every registered metric, name-sorted so the
/// serialized form is deterministic.
#[derive(Debug, Clone)]
pub struct RecorderSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` for every histogram.
    pub hists: Vec<(String, HistSnapshot)>,
}

/// Snapshots the whole registry.
pub fn snapshot() -> RecorderSnapshot {
    let mut counters: Vec<(String, u64)> = COUNTERS
        .lock()
        .expect("telemetry registry poisoned")
        .iter()
        .map(|(n, c)| (n.to_string(), c.get()))
        .collect();
    let mut gauges: Vec<(String, f64)> = GAUGES
        .lock()
        .expect("telemetry registry poisoned")
        .iter()
        .map(|(n, g)| (n.to_string(), g.get()))
        .collect();
    let mut hists: Vec<(String, HistSnapshot)> = HISTS
        .lock()
        .expect("telemetry registry poisoned")
        .iter()
        .map(|(n, h)| (n.to_string(), h.snapshot()))
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    RecorderSnapshot {
        counters,
        gauges,
        hists,
    }
}

// Enabled state: 0 = uninitialized, 1 = on, 2 = off.
static STATE: AtomicU8 = AtomicU8::new(0);
static ENV_INIT: Once = Once::new();
static SINK: Mutex<Option<Sink>> = Mutex::new(None);

#[derive(Debug)]
enum Sink {
    Stderr,
    File(File),
}

/// Where emitted JSON lines go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkSpec {
    /// Record metrics but emit nothing (benches, in-process tests).
    None,
    /// Emit to stderr.
    Stderr,
    /// Append to this file path.
    Path(String),
}

/// Parsed `LOVM_TELEMETRY` configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Whether recording (and span clocks) are active.
    pub enabled: bool,
    /// Where per-round JSON lines go.
    pub sink: SinkSpec,
}

impl Config {
    /// Parses the value of `LOVM_TELEMETRY`. `None` disables telemetry;
    /// `"stderr"` enables it with the stderr sink; any other non-empty
    /// value enables it with a file-append sink at that path.
    ///
    /// # Panics
    ///
    /// Panics if the variable is set to an empty string.
    pub fn from_env_value(value: Option<&str>) -> Config {
        match value {
            None => Config {
                enabled: false,
                sink: SinkSpec::None,
            },
            Some("") => panic!("LOVM_TELEMETRY must be a file path or `stderr`, got empty string"),
            Some("stderr") => Config {
                enabled: true,
                sink: SinkSpec::Stderr,
            },
            Some(path) => Config {
                enabled: true,
                sink: SinkSpec::Path(path.to_string()),
            },
        }
    }
}

/// Installs `config`. With `only_if_unset`, does nothing once any
/// configuration is in force: the env snapshot must never overwrite a
/// [`force_configure`] that ran first. `STATE` is read and written under
/// the sink lock, so that check and the install are one atomic step.
fn apply(config: &Config, only_if_unset: bool) {
    let mut sink = SINK.lock().expect("telemetry sink poisoned");
    if only_if_unset && STATE.load(Ordering::Relaxed) != 0 {
        return;
    }
    *sink = match &config.sink {
        SinkSpec::None => None,
        SinkSpec::Stderr => Some(Sink::Stderr),
        SinkSpec::Path(path) => Some(Sink::File(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| panic!("LOVM_TELEMETRY: cannot open `{path}`: {e}")),
        )),
    };
    STATE.store(if config.enabled { 1 } else { 2 }, Ordering::Release);
}

/// Whether telemetry is recording. First call reads `LOVM_TELEMETRY`
/// and opens the sink; afterwards this is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            ENV_INIT.call_once(|| {
                let value = std::env::var("LOVM_TELEMETRY").ok();
                apply(&Config::from_env_value(value.as_deref()), true);
            });
            STATE.load(Ordering::Relaxed) == 1
        }
    }
}

/// Overrides the env-derived configuration. For benches and tests that
/// need to flip telemetry within one process (the env snapshot is read
/// once); production code paths never call this.
pub fn force_configure(on: bool, sink: SinkSpec) {
    apply(&Config { enabled: on, sink }, false);
}

/// Whether a sink is installed (i.e. emitted lines go somewhere).
pub fn sink_active() -> bool {
    enabled() && SINK.lock().expect("telemetry sink poisoned").is_some()
}

/// Writes one line to the sink (newline appended, single `write_all`).
/// No-op when disabled or sink-less; panics if the sink write fails —
/// a telemetry file that silently stops growing would be worse.
pub fn emit_line(line: &str) {
    if !enabled() {
        return;
    }
    let mut guard = SINK.lock().expect("telemetry sink poisoned");
    let Some(sink) = guard.as_mut() else {
        return;
    };
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    match sink {
        Sink::Stderr => {
            let mut err = std::io::stderr().lock();
            err.write_all(buf.as_bytes())
                .expect("LOVM_TELEMETRY: stderr write failed");
        }
        Sink::File(f) => f
            .write_all(buf.as_bytes())
            .expect("LOVM_TELEMETRY: sink write failed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_grammar_disabled_when_unset() {
        let c = Config::from_env_value(None);
        assert!(!c.enabled);
        assert_eq!(c.sink, SinkSpec::None);
    }

    #[test]
    fn env_grammar_stderr_and_path() {
        let c = Config::from_env_value(Some("stderr"));
        assert!(c.enabled);
        assert_eq!(c.sink, SinkSpec::Stderr);
        let c = Config::from_env_value(Some("/tmp/t.jsonl"));
        assert!(c.enabled);
        assert_eq!(c.sink, SinkSpec::Path("/tmp/t.jsonl".to_string()));
    }

    #[test]
    #[should_panic(expected = "LOVM_TELEMETRY must be a file path or `stderr`")]
    fn env_grammar_rejects_empty() {
        Config::from_env_value(Some(""));
    }

    #[test]
    fn registry_deduplicates_by_name() {
        let a = counter("test.registry.dedup");
        let b = counter("test.registry.dedup");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn counters_and_gauges_record_when_enabled() {
        force_configure(true, SinkSpec::None);
        let c = counter("test.lib.counter");
        let before = c.get();
        c.add(3);
        assert_eq!(c.get(), before + 3);
        let g = gauge("test.lib.gauge");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.set_max(1.0);
        assert_eq!(g.get(), 2.5, "set_max must not lower the gauge");
        g.set_max(7.0);
        assert_eq!(g.get(), 7.0);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        force_configure(true, SinkSpec::None);
        counter("test.snap.b");
        counter("test.snap.a");
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
