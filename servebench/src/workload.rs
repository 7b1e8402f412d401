//! The traffic mixes and the bids they send.
//!
//! Bids follow the `lovm drive` distribution exactly: round `r` of a
//! session seeded `s` draws its bidders from
//! `derive_seed(s ^ DRIVE_SALT, r)`, so a session's traffic is a pure
//! function of the benchmark seed and never depends on the server's
//! replies.

use auction::bid::Bid;
use metrics::json::JsonValue;
use simrng::{derive_seed, rngs::StdRng, RngExt, SeedableRng};

/// The salt `lovm drive` mixes into its seed.
const DRIVE_SALT: u64 = 0x6D61_726B_6574_6462;

/// Fewest rounds per run: the p90 round latencies need ten samples above
/// them in the pooled sample.
const MIN_ROUNDS: usize = 100;

/// How one connection sends a round's bids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// One request in flight: each bid waits for the previous ack, as
    /// `lovm drive` does.
    Lockstep,
    /// The round's bids leave in one write, then the acks are read, then
    /// the round is sealed: a closed loop per round.
    Burst,
}

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Sessions, each on its own connection and generator thread.
    pub sessions: usize,
    /// Bidders per round per session.
    pub bidders: usize,
    /// How each connection sends its bids.
    pub discipline: Discipline,
    /// Rounds per session per second of `--seconds`: the pace of the
    /// unoptimised server on a 2-CPU box. The work of a run is fixed by
    /// this, not by a clock, so the journal that `recover_s` reopens has
    /// the same bytes for a given seed however fast the server gets.
    pub rounds_per_second: f64,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lockstep-wide",
        sessions: 1,
        bidders: 500,
        discipline: Discipline::Lockstep,
        rounds_per_second: 20.0,
    },
    Workload {
        name: "burst-wide",
        sessions: 1,
        bidders: 500,
        discipline: Discipline::Burst,
        rounds_per_second: 22.0,
    },
    Workload {
        name: "multi-seal",
        sessions: 2,
        bidders: 32,
        discipline: Discipline::Burst,
        rounds_per_second: 22.0,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Rounds each session runs for a `--seconds` budget.
    pub fn rounds(&self, seconds: u64) -> usize {
        let paced = (seconds as f64 * self.rounds_per_second).ceil() as usize;
        paced.max(MIN_ROUNDS.div_ceil(self.sessions))
    }
}

/// One round of one session: the bids and their exact request bytes.
#[derive(Debug)]
pub struct RoundTraffic {
    /// `(at, bid)` in send order.
    pub bids: Vec<(f64, Bid)>,
    /// Every request line of the round, each ending in `\n`.
    pub payload: String,
    /// End offset of each request line in `payload`.
    ends: Vec<usize>,
}

impl RoundTraffic {
    /// The `i`-th request line, newline included.
    pub fn line(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.payload[start..self.ends[i]]
    }
}

/// One session's whole run.
#[derive(Debug)]
pub struct SessionTraffic {
    /// Session name sent in `hello`.
    pub name: String,
    /// Rounds in order.
    pub rounds: Vec<RoundTraffic>,
}

impl SessionTraffic {
    /// Bids over all rounds.
    pub fn bids(&self) -> usize {
        self.rounds.iter().map(|r| r.bids.len()).sum()
    }
}

/// Generates the traffic of every session of `w` for `seed`.
pub fn generate(w: &Workload, seed: u64, rounds: usize) -> Vec<SessionTraffic> {
    (0..w.sessions)
        .map(|s| {
            let session_seed = seed.wrapping_add(s as u64);
            SessionTraffic {
                name: format!("bench{s}"),
                rounds: (0..rounds)
                    .map(|r| round_traffic(session_seed, r, w.bidders))
                    .collect(),
            }
        })
        .collect()
}

fn round_traffic(seed: u64, round: usize, bidders: usize) -> RoundTraffic {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ DRIVE_SALT, round as u64));
    let mut bids = Vec::with_capacity(bidders);
    let mut payload = String::new();
    let mut ends = Vec::with_capacity(bidders);
    for bidder in 0..bidders {
        let at = round as f64 + rng.random_range(0.05..0.95);
        let cost = rng.random_range(0.5..3.0);
        let data = rng.random_range(50..500usize);
        let quality = rng.random_range(0.5..1.0);
        let line = JsonValue::object()
            .field("cmd", "bid")
            .field("at", at)
            .field("bidder", bidder)
            .field("cost", cost)
            .field("data", data)
            .field("quality", quality)
            .to_string();
        payload.push_str(&line);
        payload.push('\n');
        ends.push(payload.len());
        bids.push((at, Bid::new(bidder, cost, data, quality)));
    }
    RoundTraffic {
        bids,
        payload,
        ends,
    }
}

/// The `hello` request naming `session`.
pub fn hello_line(session: &str) -> String {
    let mut line = JsonValue::object()
        .field("cmd", "hello")
        .field("session", session)
        .to_string();
    line.push('\n');
    line
}

/// A request that is only a command name, such as `seal` or `state`.
pub fn command_line(cmd: &str) -> String {
    let mut line = JsonValue::object().field("cmd", cmd).to_string();
    line.push('\n');
    line
}
