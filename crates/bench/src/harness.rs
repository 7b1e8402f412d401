//! In-repo micro-benchmark harness.
//!
//! The workspace builds offline with no external dependencies, so the old
//! `criterion` benches are ordinary `[[bin]]`s built on this module:
//! calibrated batching, a warmup phase, and per-sample statistics
//! (min/mean/median/p95 in nanoseconds), printed both as an aligned
//! human-readable row and as one JSON line per benchmark on stdout.
//!
//! Knobs (environment variables):
//!
//! * `LOVM_BENCH_SAMPLES` — measured samples per benchmark (default 50).
//! * `LOVM_BENCH_BATCH_NS` — target wall time per sample batch in
//!   nanoseconds (default 2 ms); iterations per batch are calibrated so a
//!   sample takes roughly this long even for nanosecond-scale bodies.
//!
//! Both must be whole numbers above zero when set; anything else panics
//! with a message naming the variable.

use metrics::json::JsonValue;
use metrics::stats::percentile_sorted;
use std::hint::black_box;
use std::time::Instant;

/// Harness configuration; `default()` reads the environment knobs.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Measured samples per benchmark.
    pub samples: usize,
    /// Target batch duration in nanoseconds (the calibrated unit of
    /// measurement; per-iteration time is batch time / batch size).
    pub target_batch_ns: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        let knob = |name: &str, default: usize| {
            parse_count(name, std::env::var(name).ok().as_deref(), default)
        };
        Self {
            samples: knob("LOVM_BENCH_SAMPLES", 50),
            target_batch_ns: knob("LOVM_BENCH_BATCH_NS", 2_000_000) as u64,
        }
    }
}

/// The decision logic of the bench knobs: unset means `default`, and
/// anything but a whole number above zero panics rather than silently
/// running with the default.
fn parse_count(name: &str, raw: Option<&str>, default: usize) -> usize {
    let Some(raw) = raw else { return default };
    match raw.trim().parse::<usize>() {
        Ok(v) if v > 0 => v,
        _ => panic!(
            "{name} must be a whole number above zero (e.g. `{default}`), got `{raw}` \
             (unset the variable for the default)"
        ),
    }
}

/// Statistics for one benchmark, all in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id, e.g. `wdp_topk_exact/1000`.
    pub name: String,
    /// Iterations per measured sample (after calibration).
    pub batch: u64,
    /// Number of measured samples.
    pub samples: usize,
    /// Fastest sample.
    pub min_ns: f64,
    /// Arithmetic mean over samples.
    pub mean_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
}

impl BenchResult {
    /// One-line JSON record (the machine-readable output contract).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("bench", self.name.as_str())
            .field("batch", self.batch)
            .field("samples", self.samples)
            .field("min_ns", self.min_ns)
            .field("mean_ns", self.mean_ns)
            .field("median_ns", self.median_ns)
            .field("p95_ns", self.p95_ns)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// A named group of benchmarks sharing one [`BenchConfig`]; mirrors the
/// shape of the old criterion groups so the bench bins read naturally.
pub struct Bencher {
    group: String,
    config: BenchConfig,
    results: Vec<BenchResult>,
}

impl Bencher {
    /// Starts a group with settings from the environment.
    pub fn new(group: &str) -> Self {
        Self::with_config(group, BenchConfig::default())
    }

    /// Starts a group with explicit settings.
    pub fn with_config(group: &str, config: BenchConfig) -> Self {
        eprintln!("# bench group {group}");
        Self {
            group: group.to_string(),
            config,
            results: Vec::new(),
        }
    }

    /// Measures `f`, printing one human row (stderr) and one JSON line
    /// (stdout). The closure's return value is passed through
    /// [`black_box`] so the optimizer cannot delete the body.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &BenchResult {
        let full = format!("{}/{name}", self.group);

        // Calibrate: grow the batch until one batch takes ≥ target/4, then
        // scale to the target. Doubles as warmup.
        let mut batch: u64 = 1;
        let per_iter_ns = loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as u64;
            if elapsed >= self.config.target_batch_ns / 4 || batch >= 1 << 30 {
                break (elapsed.max(1) as f64 / batch as f64).max(0.25);
            }
            batch *= 2;
        };
        batch = ((self.config.target_batch_ns as f64 / per_iter_ns) as u64).max(1);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.config.samples);
        for _ in 0..self.config.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));

        let result = BenchResult {
            name: full,
            batch,
            samples: samples_ns.len(),
            min_ns: samples_ns[0],
            mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
            median_ns: percentile_sorted(&samples_ns, 50.0),
            p95_ns: percentile_sorted(&samples_ns, 95.0),
        };
        eprintln!(
            "{:<44} median {:>12}  p95 {:>12}  min {:>12}  ({} x {})",
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.p95_ns),
            fmt_ns(result.min_ns),
            result.samples,
            result.batch,
        );
        println!("{}", result.to_json());
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchConfig {
        BenchConfig {
            samples: 5,
            target_batch_ns: 50_000,
        }
    }

    #[test]
    fn measures_a_cheap_closure() {
        let mut b = Bencher::with_config("test", tiny_config());
        let mut x = 0u64;
        let r = b.bench("wrapping_add", || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert_eq!(r.samples, 5);
        assert!(r.batch >= 1);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns);
        assert_eq!(b.results().len(), 1);
    }

    #[test]
    fn bench_knobs_reject_garbage() {
        for (name, default) in [
            ("LOVM_BENCH_SAMPLES", 50),
            ("LOVM_BENCH_BATCH_NS", 2_000_000),
        ] {
            assert_eq!(parse_count(name, None, default), default);
            assert_eq!(parse_count(name, Some("7"), default), 7);
            assert_eq!(parse_count(name, Some(" 200000 "), default), 200_000);
            for bad in ["abc", "", "0", "-1", "1.5", "5x"] {
                let result = std::panic::catch_unwind(|| parse_count(name, Some(bad), default));
                let err = result.expect_err(&format!("{name}=`{bad}` must panic"));
                let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(
                    msg.contains(&format!("{name} must be a whole number above zero")),
                    "unhelpful panic message for {name}=`{bad}`: {msg}"
                );
            }
        }
    }

    #[test]
    fn json_line_has_contract_fields() {
        let mut b = Bencher::with_config("test", tiny_config());
        let r = b.bench("noop", || 1 + 1);
        let line = r.to_json().to_string();
        for key in [
            "\"bench\"",
            "\"median_ns\"",
            "\"p95_ns\"",
            "\"min_ns\"",
            "\"samples\"",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(line.starts_with("{\"bench\":\"test/noop\""));
    }
}
