//! `servebench` — the served-market benchmark.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!            --lovm <path to the lovm binary> [--work <scratch dir>]
//! ```
//!
//! Starts a real `lovm serve`, drives one workload's traffic through it
//! from this process, checks every response against an in-process
//! oracle, SIGKILLs the server and times its recovery, and prints one
//! JSON result line last on stdout: end-to-end metrics with `--trace 0`,
//! per-layer metrics from a separate traced run with `--trace 1`. See
//! README.md beside this package for the workloads and metrics.

mod client;
mod procfs;
mod reference;
mod server;
mod trace;
mod workload;

use crate::client::SessionRun;
use crate::procfs::{Counters, Placement};
use crate::reference::Expected;
use crate::server::{Conn, Server};
use crate::trace::Layer;
use crate::workload::{command_line, hello_line, SessionTraffic, Workload};
use metrics::json::JsonValue;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;

/// Server start-ups timed for `setup_s`; the median is reported.
const SETUP_TRIALS: usize = 101;

/// Restarts on the run's journals timed for `recover_s`: at least
/// `MIN_RECOVERIES`, and more until they add up to `RECOVERY_BUDGET_S`,
/// at most `MAX_RECOVERIES`. Consecutive restarts are grouped into
/// blocks of at least `RECOVERY_BLOCK_S`, and the median of the blocks'
/// mean restart is reported (see [`block_median`]).
const MIN_RECOVERIES: usize = 9;
const MAX_RECOVERIES: usize = 400;
const RECOVERY_BUDGET_S: f64 = 20.0;
const RECOVERY_BLOCK_S: f64 = 1.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    lovm: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut lovm = None;
    let mut work = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            "--lovm" => lovm = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        lovm: lovm.ok_or("--lovm is required")?,
        work,
    })
}

/// Nearest-rank quantile of an ascending sample.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median, over blocks of consecutive samples that add up to at least
/// `block` (a short last block joins the one before it), of each block's
/// mean. On a shared host the CPU flips between a fast and a slow state
/// from one short sample to the next; the plain median of such a sample
/// jumps between the two states as their mix shifts around one half,
/// while a block's mean moves with the mix. Samples at least `block`
/// long each are their own blocks, and this is their median.
fn block_median(samples: &[f64], block: f64) -> f64 {
    let mut blocks: Vec<(f64, usize)> = Vec::new();
    let mut open = (0.0, 0);
    for &s in samples {
        open = (open.0 + s, open.1 + 1);
        if open.0 >= block {
            blocks.push(open);
            open = (0.0, 0);
        }
    }
    if open.1 > 0 {
        match blocks.last_mut() {
            Some(last) => *last = (last.0 + open.0, last.1 + open.1),
            None => blocks.push(open),
        }
    }
    let mut means: Vec<f64> = blocks.iter().map(|&(sum, n)| sum / n as f64).collect();
    means.sort_by(f64::total_cmp);
    means[means.len() / 2]
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Metric list of the result line, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> JsonValue {
        self.0.iter().fold(JsonValue::object(), |o, (n, v, u)| {
            o.field(n, JsonValue::object().field("value", *v).field("unit", *u))
        })
    }
}

/// Attempts and failures of every request and check in a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, got: &str, want: &str) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            eprintln!("servebench: {what}: expected `{want}`, got `{got}`");
        }
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Connects and says `hello` for every session, returning the
/// connections and their `welcome` lines.
fn hello_all(addr: &str, traffic: &[SessionTraffic]) -> std::io::Result<Vec<(Conn, String)>> {
    let conns = traffic
        .iter()
        .map(|t| {
            let mut c = Conn::connect(addr)?;
            c.send(&hello_line(&t.name))?;
            Ok(c)
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    conns
        .into_iter()
        .map(|mut c| {
            let welcome = c.recv()?.to_string();
            Ok((c, welcome))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One benchmark run; `Ok(false)` when a correctness check failed.
fn run(args: &Args) -> std::io::Result<bool> {
    let w = args.workload;
    let (nproc, cpu_model, kernel) = procfs::fingerprint();
    let place = Placement::choose()?;
    procfs::pin_current_thread(place.generator)?;
    let rounds = w.rounds(args.seconds);
    println!(
        "{}",
        JsonValue::object().field(
            "servebench",
            JsonValue::object()
                .field("workload", w.name)
                .field("seed", args.seed)
                .field("trace", args.trace)
                .field("sessions", w.sessions)
                .field("bidders", w.bidders)
                .field("rounds_per_session", rounds)
                .field("nproc", nproc)
                .field("cpu_model", cpu_model.as_str())
                .field("kernel", kernel.as_str())
                .field("server_cpu", place.server)
                .field("generator_cpu", place.generator)
        )
    );

    std::fs::create_dir_all(&args.work)?;
    let work = WorkDir(args.work.join(format!("run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&work.0);
    let dir = |name: &str| -> std::io::Result<PathBuf> {
        let d = work.0.join(name);
        std::fs::create_dir_all(&d)?;
        Ok(d)
    };

    let traffic = workload::generate(w, args.seed, rounds);

    // Set-up, first, while the disk is quiet: spawn to first `welcome`
    // on a fresh journal directory.
    let mut setup_s = Vec::with_capacity(SETUP_TRIALS);
    let mut setup_welcomes = Vec::with_capacity(SETUP_TRIALS);
    for i in 0..SETUP_TRIALS {
        let d = dir(&format!("setup{i}"))?;
        let t = Instant::now();
        let server = Server::spawn(&args.lovm, &d, place.server, place.generator)?;
        let mut c = Conn::connect(&server.addr)?;
        c.send(&hello_line(&traffic[0].name))?;
        let welcome = c.recv()?.to_string();
        setup_s.push(t.elapsed().as_secs_f64());
        setup_welcomes.push(welcome);
        drop(c);
        server.kill()?;
    }
    setup_s.sort_by(f64::total_cmp);

    let ref_dir = dir("reference")?;
    let expected = traffic
        .iter()
        .map(|t| reference::run(&ref_dir, t))
        .collect::<std::io::Result<Vec<Expected>>>()?;
    let mut tally = Tally::default();
    for welcome in &setup_welcomes {
        tally.check("set-up welcome", welcome, &expected[0].fresh_welcome);
    }

    // The timed phase.
    let served_dir = dir("served")?;
    let server = Server::spawn(&args.lovm, &served_dir, place.server, place.generator)?;
    let mut conns = Vec::new();
    for ((c, welcome), e) in hello_all(&server.addr, &traffic)?
        .into_iter()
        .zip(&expected)
    {
        tally.check("welcome", &welcome, &e.fresh_welcome);
        conns.push(c);
    }
    let before = Counters::read(server.pid())?;
    let epoch = Instant::now();
    let barrier = Barrier::new(traffic.len());
    let drive = |conn: &mut Conn, t: &SessionTraffic, e: &Expected| {
        barrier.wait();
        client::drive(conn, t, e, w.discipline, epoch)
    };
    // Session 0 runs on this thread, any other on one thread each.
    let runs: Vec<SessionRun> = std::thread::scope(|scope| {
        let mut jobs = conns.iter_mut().zip(&traffic).zip(&expected);
        let ((first_conn, first_traffic), first_expected) = jobs.next().expect("a session");
        let others: Vec<_> = jobs
            .map(|((c, t), e)| scope.spawn(move || drive(c, t, e)))
            .collect();
        let mut runs = vec![drive(first_conn, first_traffic, first_expected)];
        runs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked")),
        );
        runs
    });
    let after = Counters::read(server.pid())?;
    let delta = after.since(&before);
    let rss_peak_mb = procfs::rss_peak_mb(server.pid())?;
    for ((c, e), r) in conns.iter_mut().zip(&expected).zip(&runs) {
        tally.attempted += r.attempted;
        tally.failed += r.failed;
        if let Some(why) = &r.first_failure {
            eprintln!("servebench: {why}");
        }
        c.send(&command_line("state"))?;
        let state = c.recv()?.to_string();
        tally.check("state", &state, &e.state);
    }
    drop(conns);
    server.kill()?;

    // Recovery: restart on the same journals, time to every `welcome`,
    // SIGKILL again; the median restart is reported.
    let mut recover_s: Vec<f64> = Vec::with_capacity(MIN_RECOVERIES);
    while recover_s.len() < MIN_RECOVERIES
        || (recover_s.iter().sum::<f64>() < RECOVERY_BUDGET_S && recover_s.len() < MAX_RECOVERIES)
    {
        let t = Instant::now();
        let server = Server::spawn(&args.lovm, &served_dir, place.server, place.generator)?;
        let welcomes = hello_all(&server.addr, &traffic)?;
        recover_s.push(t.elapsed().as_secs_f64());
        for ((_, welcome), e) in welcomes.iter().zip(&expected) {
            tally.check("recovered welcome", welcome, &e.recovered_welcome);
        }
        drop(welcomes);
        server.kill()?;
    }

    let acked: u64 = runs.iter().map(|r| r.acked_bids).sum();
    let start = runs.iter().map(|r| r.start_ns).min().unwrap_or(0);
    let end = runs.iter().map(|r| r.end_ns).max().unwrap_or(0);
    let wall_s = (end.saturating_sub(start)) as f64 / 1e9;
    let bid_ack = sorted(runs.iter().flat_map(|r| r.bid_ack_ns.clone()).collect());
    let seal_ack = sorted(runs.iter().flat_map(|r| r.seal_ack_ns.clone()).collect());
    let round = sorted(runs.iter().flat_map(|r| r.round_ns.clone()).collect());

    let mut m = Metrics::default();
    let mut correct = true;
    if !args.trace {
        m.add("bids_per_s", acked as f64 / wall_s, "1/s");
        m.add("bid_ack_p50_us", quantile(&bid_ack, 0.50) / 1e3, "us");
        m.add("bid_ack_p99_us", quantile(&bid_ack, 0.99) / 1e3, "us");
        m.add("round_p50_ms", quantile(&round, 0.50) / 1e6, "ms");
        m.add("round_p90_ms", quantile(&round, 0.90) / 1e6, "ms");
        m.add("bid_samples", bid_ack.len() as f64, "count");
        m.add("round_samples", round.len() as f64, "count");
        m.add("recover_s", block_median(&recover_s, RECOVERY_BLOCK_S), "s");
        m.add("setup_s", setup_s[setup_s.len() / 2], "s");
        m.add("rss_peak_mb", rss_peak_mb, "MiB");
        let ok = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
        m.add("ok_ratio", ok, "ratio");
    } else {
        let trace_dir = dir("trace")?;
        let spans = args.work.join(format!("spans-{}.tsv", w.name));
        let traced = match trace::run(&trace_dir, &served_dir, &traffic, &expected, &spans) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("servebench: traced run: {e}");
                correct = false;
                None
            }
        };
        let mut recovery = Vec::new();
        for (t, e) in traffic.iter().zip(&expected) {
            match trace::recover(&served_dir, &t.name, e.final_digest) {
                Ok(r) => recovery.push(r),
                Err(e) => {
                    eprintln!("servebench: recovery layers: {e}");
                    correct = false;
                }
            }
        }
        if let Some(traced) = &traced {
            let served = Served {
                round: &round,
                seal_ack: &seal_ack,
                delta,
                dir: &served_dir,
            };
            per_layer(&mut m, traced, &recovery, &expected, &traffic, &served)?;
            println!("{}", accounting(traced, &served));
        }
    }
    correct &= tally.failed == 0;
    println!(
        "{}",
        JsonValue::object()
            .field("correct", correct)
            .field("attempted", tally.attempted)
            .field("failed", tally.failed)
            .field("metrics", m.json())
    );
    Ok(correct)
}

/// Mean served and traced time per round, ms, and per bid of a round's
/// bid phase (everything before its seal), us.
struct Split {
    served_round_ms: f64,
    traced_round_ms: f64,
    served_bid_us: f64,
    traced_bid_us: f64,
}

impl Split {
    fn of(traced: &trace::Traced, served: &Served) -> Split {
        let round_ns: u64 = served.round.iter().sum();
        let bid_phase_ns = round_ns - served.seal_ack.iter().sum::<u64>();
        let (rounds, bids) = (traced.rounds as f64, traced.bids as f64);
        Split {
            served_round_ms: round_ns as f64 / rounds / 1e6,
            traced_round_ms: traced.round_ns as f64 / rounds / 1e6,
            served_bid_us: bid_phase_ns as f64 / bids / 1e3,
            traced_bid_us: traced.bid_phase_ns as f64 / bids / 1e3,
        }
    }
}

/// The traced run's account of the served wall time: self time of every
/// layer per round, plus the residual nothing in-process explains.
fn accounting(traced: &trace::Traced, served: &Served) -> JsonValue {
    let split = Split::of(traced, served);
    let layers = traced
        .self_ns
        .iter()
        .filter(|(l, _)| !matches!(l, Layer::AuctionWdp | Layer::AuctionPivots))
        .fold(JsonValue::object(), |o, (l, ns)| {
            o.field(l.name(), *ns as f64 / traced.rounds as f64 / 1e6)
        });
    JsonValue::object().field(
        "accounting",
        JsonValue::object()
            .field("served_round_ms", split.served_round_ms)
            .field("traced_round_ms", split.traced_round_ms)
            .field(
                "residual_ms_per_round",
                split.served_round_ms - split.traced_round_ms,
            )
            .field("self_ms_per_round", layers)
            .field("served_bid_phase_us_per_bid", split.served_bid_us)
            .field("traced_bid_phase_us_per_bid", split.traced_bid_us),
    )
}

/// What the served run measured, for the per-layer residuals.
struct Served<'a> {
    /// Round times, ascending, ns.
    round: &'a [u64],
    /// Seal-to-`sealed` times, ascending, ns.
    seal_ack: &'a [u64],
    /// Server counters over the timed phase.
    delta: Counters,
    /// The served journal directory.
    dir: &'a Path,
}

fn per_layer(
    m: &mut Metrics,
    traced: &trace::Traced,
    recovery: &[trace::Recovery],
    expected: &[Expected],
    traffic: &[SessionTraffic],
    served: &Served,
) -> std::io::Result<()> {
    let q = |layer: Layer, p: f64| quantile(&sorted(traced.of(layer).to_vec()), p);
    let bids = traced.bids as f64;
    let rounds = traced.rounds as f64;
    let delta = &served.delta;
    let split = Split::of(traced, served);

    // Client-observed, but set by fsync and directory-fsync latency,
    // which drifts too much between runs to hold an end-to-end bound.
    m.add(
        "seal_ack_p50_ms",
        quantile(served.seal_ack, 0.50) / 1e6,
        "ms",
    );
    m.add(
        "seal_ack_p90_ms",
        quantile(served.seal_ack, 0.90) / 1e6,
        "ms",
    );
    m.add("wire.parse_ns", q(Layer::WireParse, 0.5), "ns");
    m.add("wire.encode_ns", q(Layer::WireEncode, 0.5), "ns");
    m.add(
        "wire.residual_us_per_bid",
        split.served_bid_us - split.traced_bid_us,
        "us",
    );
    m.add(
        "wire.residual_ms_per_round",
        split.served_round_ms - split.traced_round_ms,
        "ms",
    );
    m.add(
        "wire.ctx_switches_per_bid",
        delta.ctx_switches as f64 / bids,
        "count",
    );
    m.add(
        "wire.tcp_segs_per_bid",
        delta.out_segs as f64 / bids,
        "count",
    );
    m.add("server.cpu_us_per_bid", delta.cpu_us / bids, "us");

    let offer = sorted(expected.iter().flat_map(|e| e.offer_ns.clone()).collect());
    let seal = sorted(expected.iter().flat_map(|e| e.seal_ns.clone()).collect());
    m.add("session.offer_ns_p50", quantile(&offer, 0.5), "ns");
    m.add("session.offer_ns_p99", quantile(&offer, 0.99), "ns");
    m.add("session.seal_us_p50", quantile(&seal, 0.5) / 1e3, "us");
    m.add("session.seal_us_p90", quantile(&seal, 0.9) / 1e3, "us");
    let total = |f: fn(&trace::Recovery) -> u64| recovery.iter().map(f).sum::<u64>() as f64;
    m.add("session.open_ms", total(|r| r.open_ns) / 1e6, "ms");

    m.add("ingest.offer_ns", q(Layer::IngestOffer, 0.5), "ns");
    m.add(
        "ingest.seal_next_us",
        q(Layer::IngestSealNext, 0.5) / 1e3,
        "us",
    );

    m.add("journal.append_ns", q(Layer::JournalAppend, 0.5), "ns");
    m.add(
        "journal.sync_us_p50",
        q(Layer::JournalSync, 0.5) / 1e3,
        "us",
    );
    m.add(
        "journal.sync_us_p90",
        q(Layer::JournalSync, 0.9) / 1e3,
        "us",
    );
    m.add(
        "journal.snapshot_ms",
        q(Layer::JournalSnapshot, 0.5) / 1e6,
        "ms",
    );
    m.add(
        "journal.snapshots_per_round",
        traced.of(Layer::JournalSnapshot).len() as f64 / rounds,
        "count",
    );
    let mut journal_bytes = 0;
    for t in traffic {
        journal_bytes += std::fs::metadata(served.dir.join(format!("{}.jsonl", t.name)))?.len();
    }
    m.add("journal.bytes_per_bid", journal_bytes as f64 / bids, "B");
    m.add("journal.scan_ms", total(|r| r.scan_ns) / 1e6, "ms");
    m.add("journal.replay_ms", total(|r| r.replay_ns) / 1e6, "ms");

    m.add("lovm.round_us", q(Layer::LovmRound, 0.5) / 1e3, "us");
    m.add("auction.wdp_us", q(Layer::AuctionWdp, 0.5) / 1e3, "us");
    m.add(
        "auction.pivots_us",
        q(Layer::AuctionPivots, 0.5) / 1e3,
        "us",
    );
    Ok(())
}
