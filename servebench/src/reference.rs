//! The correctness oracle: an in-process `MarketSession` fed the same
//! bids with the server's configuration, and the server's response
//! encodings rebuilt from the public `metrics::json` builder. Every line
//! the served run reads is compared byte for byte with these.

use crate::workload::SessionTraffic;
use auction::shard::MarketTopology;
use ingest::{Admission, IngestConfig};
use lovm_core::serve::{MarketSession, SealedOutcome, SessionConfig};
use lovm_core::LovmConfig;
use metrics::json::JsonValue;
use std::path::Path;
use std::time::Instant;

/// `lovm serve --v 20 --budget 2` with the default `--k 4`.
pub fn lovm_config() -> LovmConfig {
    LovmConfig {
        v: 20.0,
        budget_per_round: 2.0,
        max_winners: Some(4),
        topology: MarketTopology::Monolithic,
        ..LovmConfig::default()
    }
}

/// Snapshot cadence of `lovm serve` without `LOVM_SNAPSHOT_EVERY`.
pub const SNAPSHOT_EVERY: usize = 8;

/// The session configuration `lovm serve` builds for `name` in `dir`.
pub fn session_config(dir: &Path, name: &str) -> SessionConfig {
    let mut cfg = SessionConfig::new(dir.join(format!("{name}.jsonl")));
    cfg.snapshot = Some(dir.join(format!("{name}.snapshot.json")));
    cfg.snapshot_every = SNAPSHOT_EVERY;
    cfg.compact_every = 0;
    cfg.lovm = lovm_config();
    cfg.ingest = IngestConfig::default();
    cfg
}

/// The server's ack to one bid.
pub fn encode_ack(seq: u64, admission: Admission) -> String {
    let admission = match admission {
        Admission::Stored => "stored",
        Admission::Shed => "shed",
        Admission::Blocked => "blocked",
    };
    JsonValue::object()
        .field("event", "bid")
        .field("seq", seq)
        .field("admission", admission)
        .to_string()
}

/// The server's `sealed` response.
pub fn encode_sealed(s: &SealedOutcome) -> String {
    let mut winners = JsonValue::array();
    for a in &s.outcome.winners {
        winners = winners.item(
            JsonValue::object()
                .field("bidder", a.bidder)
                .field("payment", a.payment),
        );
    }
    JsonValue::object()
        .field("event", "sealed")
        .field("round", s.round)
        .field("sealed", s.stats.sealed)
        .field("winners", winners)
        .field("welfare", s.outcome.virtual_welfare)
        .field("spend", s.outcome.total_payment())
        .field("backlog", s.backlog)
        .field("digest", journal::u64_hex(s.digest))
        .to_string()
}

/// The server's `state` response.
pub fn encode_state(s: &MarketSession) -> String {
    JsonValue::object()
        .field("event", "state")
        .field("rounds", s.rounds_sealed())
        .field("welfare", s.welfare())
        .field("spend", s.total_spend())
        .field("backlog", s.backlog())
        .field("digest", journal::u64_hex(s.digest()))
        .to_string()
}

/// The server's `welcome` for a session in state `s`.
pub fn encode_welcome(name: &str, s: &MarketSession) -> String {
    JsonValue::object()
        .field("event", "welcome")
        .field("session", name)
        .field("rounds", s.rounds_sealed())
        .field("backlog", s.backlog())
        .field("digest", journal::u64_hex(s.digest()))
        .to_string()
}

/// What the server must answer to one session's traffic.
#[derive(Debug)]
pub struct Expected {
    /// `welcome` on a fresh journal.
    pub fresh_welcome: String,
    /// One ack per bid, rounds concatenated.
    pub acks: Vec<String>,
    /// One `sealed` line per round.
    pub sealed: Vec<String>,
    /// `state` after the last round.
    pub state: String,
    /// `welcome` after recovery from the run's journal.
    pub recovered_welcome: String,
    /// State digest after the last round.
    pub final_digest: u64,
    /// Wall time of each `MarketSession::offer` call.
    pub offer_ns: Vec<u64>,
    /// Wall time of each `MarketSession::seal` call.
    pub seal_ns: Vec<u64>,
}

/// Feeds `traffic` through a fresh session journaling in `dir`.
pub fn run(dir: &Path, traffic: &SessionTraffic) -> std::io::Result<Expected> {
    let mut session = MarketSession::open(session_config(dir, &traffic.name))?;
    let fresh_welcome = encode_welcome(&traffic.name, &session);
    let bids = traffic.bids();
    let mut acks = Vec::with_capacity(bids);
    let mut offer_ns = Vec::with_capacity(bids);
    let mut sealed = Vec::with_capacity(traffic.rounds.len());
    let mut seal_ns = Vec::with_capacity(traffic.rounds.len());
    for round in &traffic.rounds {
        for &(at, bid) in &round.bids {
            let t = Instant::now();
            let (seq, admission) = session.offer(at, bid)?;
            offer_ns.push(elapsed_ns(t));
            acks.push(encode_ack(seq, admission));
        }
        let t = Instant::now();
        let outcome = session.seal()?;
        seal_ns.push(elapsed_ns(t));
        sealed.push(encode_sealed(&outcome));
    }
    Ok(Expected {
        fresh_welcome,
        acks,
        sealed,
        state: encode_state(&session),
        recovered_welcome: encode_welcome(&traffic.name, &session),
        final_digest: session.digest(),
        offer_ns,
        seal_ns,
    })
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
