//! The traced run: each session's exact request stream replayed
//! in-process through the public functions of every layer, in the order
//! `lovm serve` calls them, with a span recorded around each call.
//!
//! The composition mirrors `core::serve`: the connection reader parses a
//! line (`wire.parse`), the market loop offers the bid to the session
//! (`session.offer` = `journal.append` of the arrival, then
//! `ingest.offer`) or seals it (`session.seal` = `ingest.seal_next`,
//! `lovm.round`, the digest fold, `journal.append` of the seal and
//! outcome lines, `journal.sync`, and every eighth round
//! `journal.snapshot`), and the response is encoded (`wire.encode`).
//! Every response the composition produces must equal the oracle's byte
//! for byte, and its journal must equal the served journal byte for byte.
//!
//! The auction spans (`auction.wdp`, `auction.pivots`) are probes: after
//! the composed run, each round's instance is rebuilt from the public
//! `lyapunov` and `auction` API and solved again, and the probe's winners
//! and payments must equal the round's outcome bit for bit. They sit
//! outside the span tree, so the tree's self times still add up to its
//! wall time.

use crate::reference::{self, elapsed_ns, Expected, SNAPSHOT_EVERY};
use crate::workload::{command_line, SessionTraffic};
use auction::bid::Bid;
use auction::outcome::AuctionOutcome;
use auction::pivots::{leave_one_out_welfares_view_into, PaymentStrategy};
use auction::vcg::{VcgAuction, VcgConfig};
use auction::wdp::{SolverArena, SolverKind, WdpSolution, WdpView};
use ingest::stats::StreamTotals;
use ingest::{IngestConfig, RoundCollector};
use journal::{Digest, JournalEvent, JournalWriter, Snapshot};
use lovm_core::serve::SealedOutcome;
use lovm_core::Lovm;
use lyapunov::dpp::{DppConfig, DriftPlusPenalty};
use metrics::json::JsonValue;
use std::io::{Error, Result, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::arrivals::TimedBid;

/// A traced layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One session's round, from its first request to its `sealed` line.
    Round,
    /// `JsonValue::parse` of a request line plus the request's field checks.
    WireParse,
    /// Building and rendering a response line.
    WireEncode,
    /// The session's glue around one bid.
    SessionOffer,
    /// The session's glue around one seal (digest fold, line staging).
    SessionSeal,
    /// Rendering one journal event and `JournalWriter::append_raw`.
    JournalAppend,
    /// `JournalWriter::sync`.
    JournalSync,
    /// `journal::write_snapshot`.
    JournalSnapshot,
    /// `RoundCollector::offer_at`.
    IngestOffer,
    /// `RoundCollector::seal_next`.
    IngestSealNext,
    /// `Lovm::round_on`.
    LovmRound,
    /// Probe: `SolverArena::solve_view_into` on the round's instance.
    AuctionWdp,
    /// Probe: `leave_one_out_welfares_view_into` on the same instance.
    AuctionPivots,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::Round,
        Layer::WireParse,
        Layer::WireEncode,
        Layer::SessionOffer,
        Layer::SessionSeal,
        Layer::JournalAppend,
        Layer::JournalSync,
        Layer::JournalSnapshot,
        Layer::IngestOffer,
        Layer::IngestSealNext,
        Layer::LovmRound,
        Layer::AuctionWdp,
        Layer::AuctionPivots,
    ];

    /// The span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "round",
            Layer::WireParse => "wire.parse",
            Layer::WireEncode => "wire.encode",
            Layer::SessionOffer => "session.offer",
            Layer::SessionSeal => "session.seal",
            Layer::JournalAppend => "journal.append",
            Layer::JournalSync => "journal.sync",
            Layer::JournalSnapshot => "journal.snapshot",
            Layer::IngestOffer => "ingest.offer",
            Layer::IngestSealNext => "ingest.seal_next",
            Layer::LovmRound => "lovm.round",
            Layer::AuctionWdp => "auction.wdp",
            Layer::AuctionPivots => "auction.pivots",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are ns after the tracer's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    session: u16,
    round: u32,
    parent: u32,
    start: u64,
    end: u64,
}

/// In-memory span recorder with an implicit parent stack.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    session: u16,
    round: u32,
}

impl Tracer {
    fn now(&self) -> u64 {
        elapsed_ns(self.epoch)
    }

    fn enter(&mut self, layer: Layer) {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            layer,
            session: self.session,
            round: self.round,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start: self.now(),
            end: 0,
        });
        self.stack.push(id);
    }

    fn exit(&mut self) {
        let id = self.stack.pop().expect("exit matches an enter");
        self.spans[id as usize].end = self.now();
    }

    /// Runs `f` inside a span.
    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.enter(layer);
        let out = f();
        self.exit();
        out
    }
}

/// Market state shared by the live composition and journal replay,
/// mirroring `MarketSession`'s fields and `run_round`.
struct Market {
    collector: RoundCollector,
    lovm: Lovm,
    pool: par::Pool,
    digest: Digest,
    welfare: f64,
    spend: f64,
    totals: StreamTotals,
}

impl Market {
    fn from_snapshot(snap: Option<&Snapshot>) -> Market {
        let ingest = IngestConfig::default();
        let mut lovm = Lovm::new(reference::lovm_config());
        match snap {
            Some(s) => {
                lovm.restore_backlog(s.backlog);
                Market {
                    collector: RoundCollector::restore(&ingest, ingest.capacity, &s.collector),
                    lovm,
                    pool: par::Pool::auto(),
                    digest: Digest::resume(s.digest),
                    welfare: s.welfare,
                    spend: s.spend,
                    totals: s.totals,
                }
            }
            None => Market {
                collector: RoundCollector::new(&ingest),
                lovm,
                pool: par::Pool::auto(),
                digest: Digest::new(),
                welfare: 0.0,
                spend: 0.0,
                totals: StreamTotals::default(),
            },
        }
    }

    /// Seals the next round and folds it into the digest, timing the
    /// ingest and mechanism calls when `tr` is given.
    fn run_round(
        &mut self,
        mut tr: Option<&mut Tracer>,
    ) -> (ingest::CollectedRound, AuctionOutcome) {
        let collected = match tr.as_deref_mut() {
            Some(tr) => tr.span(Layer::IngestSealNext, || self.collector.seal_next()),
            None => self.collector.seal_next(),
        };
        self.totals.absorb(&collected.stats);
        let (lovm, pool, bids) = (&mut self.lovm, self.pool, collected.sealed.bids());
        let outcome = match tr {
            Some(tr) => tr.span(Layer::LovmRound, || lovm.round_on(bids, pool)),
            None => lovm.round_on(bids, pool),
        };
        let backlog = self.lovm.queue_backlog();
        self.digest.fold_usize(collected.sealed.round());
        for b in collected.sealed.bids() {
            self.digest.fold_usize(b.bidder);
            self.digest.fold_f64(b.cost);
            self.digest.fold_usize(b.data_size);
            self.digest.fold_f64(b.quality);
        }
        for a in &outcome.winners {
            self.digest.fold_usize(a.bidder);
            self.digest.fold_f64(a.cost);
            self.digest.fold_f64(a.value);
            self.digest.fold_f64(a.payment);
        }
        self.digest.fold_f64(outcome.virtual_welfare);
        self.digest.fold_f64(outcome.total_payment());
        self.digest.fold_f64(backlog);
        self.welfare += outcome.virtual_welfare;
        self.spend += outcome.total_payment();
        (collected, outcome)
    }
}

/// One session composed from its layers, journaling like the server.
struct Composed {
    market: Market,
    writer: JournalWriter,
    snapshot: PathBuf,
    next_seq: u64,
    rounds_since_snapshot: usize,
    pending: Vec<String>,
}

/// What a probe needs to rebuild a round's auction instance.
struct ProbeInput {
    sealed: Vec<Bid>,
    backlog_before: f64,
    outcome: AuctionOutcome,
}

impl Composed {
    fn open(dir: &Path, name: &str) -> Result<Composed> {
        let cfg = reference::session_config(dir, name);
        Ok(Composed {
            market: Market::from_snapshot(None),
            writer: JournalWriter::create(&cfg.journal)?,
            snapshot: cfg.snapshot.expect("the server keeps snapshots"),
            next_seq: 0,
            rounds_since_snapshot: 0,
            pending: Vec::new(),
        })
    }

    fn offer(&mut self, tr: &mut Tracer, at: f64, bid: Bid) -> Result<(u64, ingest::Admission)> {
        tr.enter(Layer::SessionOffer);
        let seq = self.next_seq;
        self.next_seq += 1;
        tr.enter(Layer::JournalAppend);
        let line = JournalEvent::Arrival { seq, at, bid }.to_line();
        self.writer.append_raw(&line)?;
        tr.exit();
        self.pending.push(line);
        let admission = tr.span(Layer::IngestOffer, || {
            self.market.collector.offer_at(seq, TimedBid { at, bid })
        });
        tr.exit();
        Ok((seq, admission))
    }

    fn seal(&mut self, tr: &mut Tracer) -> Result<(SealedOutcome, ProbeInput)> {
        tr.enter(Layer::SessionSeal);
        let backlog_before = self.market.lovm.queue_backlog();
        let (collected, outcome) = self.market.run_round(Some(tr));
        let round = collected.sealed.round();
        let backlog = self.market.lovm.queue_backlog();
        tr.enter(Layer::JournalAppend);
        let seal_event = JournalEvent::Seal {
            round,
            sealed: collected.sealed.bids().to_vec(),
        };
        let seal_line = seal_event.to_line();
        self.writer.append_raw(&seal_line)?;
        tr.exit();
        self.pending.push(seal_line);
        tr.enter(Layer::JournalAppend);
        let outcome_line = JournalEvent::Outcome {
            round,
            awards: outcome.winners.clone(),
            virtual_welfare: outcome.virtual_welfare,
            spend: outcome.total_payment(),
            backlog,
            digest: self.market.digest.value(),
        }
        .to_line();
        self.writer.append_raw(&outcome_line)?;
        tr.exit();
        self.pending.push(outcome_line);
        tr.span(Layer::JournalSync, || self.writer.sync())?;
        // The committed lines would go to followers; there are none.
        self.pending.clear();
        self.rounds_since_snapshot += 1;
        if self.rounds_since_snapshot == SNAPSHOT_EVERY {
            self.rounds_since_snapshot = 0;
            tr.enter(Layer::JournalSnapshot);
            let snap = Snapshot {
                events: self.writer.events(),
                collector: self.market.collector.export_state(),
                backlog,
                welfare: self.market.welfare,
                spend: self.market.spend,
                digest: self.market.digest.value(),
                totals: self.market.totals,
            };
            journal::write_snapshot(&self.snapshot, &snap)?;
            tr.exit();
        }
        tr.exit();
        let JournalEvent::Seal { sealed, .. } = seal_event else {
            unreachable!("built above as a seal")
        };
        let digest = self.market.digest.value();
        Ok((
            SealedOutcome {
                round,
                stats: collected.stats,
                outcome: outcome.clone(),
                backlog,
                digest,
            },
            ProbeInput {
                sealed,
                backlog_before,
                outcome,
            },
        ))
    }
}

/// Mirrors `core::serve`'s request parsing for a bid line.
fn parse_bid(line: &str) -> std::result::Result<(f64, Bid), String> {
    let v = JsonValue::parse(line).map_err(|e| format!("bad json: {}", e.message))?;
    if v.get("cmd").and_then(JsonValue::as_str) != Some("bid") {
        return Err(format!("not a bid: {line}"));
    }
    let at = v
        .get("at")
        .and_then(JsonValue::as_f64)
        .filter(|t| t.is_finite())
        .ok_or("bid needs a finite `at`")?;
    let bidder = v
        .get("bidder")
        .and_then(JsonValue::as_usize)
        .ok_or("bid needs a `bidder` id")?;
    let cost = v
        .get("cost")
        .and_then(JsonValue::as_f64)
        .filter(|c| c.is_finite() && *c >= 0.0)
        .ok_or("bid needs a non-negative finite `cost`")?;
    let data = v
        .get("data")
        .and_then(JsonValue::as_usize)
        .ok_or("bid needs a `data` size")?;
    let quality = v
        .get("quality")
        .and_then(JsonValue::as_f64)
        .filter(|q| (0.0..=1.0).contains(q))
        .ok_or("bid needs a `quality` in [0, 1]")?;
    Ok((at, Bid::new(bidder, cost, data, quality)))
}

/// Mirrors `core::serve`'s request parsing for a bare command line.
fn parse_command(line: &str) -> Option<String> {
    let v = JsonValue::parse(line).ok()?;
    v.get("cmd").and_then(JsonValue::as_str).map(str::to_string)
}

/// Summary of one traced run.
#[derive(Debug, Default)]
pub struct Traced {
    /// Durations per layer, ns, in span order.
    pub durations: Vec<(Layer, Vec<u64>)>,
    /// Self time per layer summed over the span tree, ns.
    pub self_ns: Vec<(Layer, u64)>,
    /// Session-rounds traced.
    pub rounds: usize,
    /// Bids traced.
    pub bids: usize,
    /// Sum of the round spans, ns: the composed path's wall time.
    pub round_ns: u64,
    /// Sum over rounds of the time from a round's first parse to its
    /// seal request's parse, ns: the composed bid phase.
    pub bid_phase_ns: u64,
}

impl Traced {
    /// Durations of one layer.
    pub fn of(&self, layer: Layer) -> &[u64] {
        self.durations
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(&[], |(_, d)| d.as_slice())
    }
}

/// Replays every session's traffic through the composed layers in
/// `dir`, checks each response against `expected` and each journal
/// against the served one in `served_dir`, probes the auction, and
/// writes the spans to `spans_out`.
pub fn run(
    dir: &Path,
    served_dir: &Path,
    traffic: &[SessionTraffic],
    expected: &[Expected],
    spans_out: &Path,
) -> Result<Traced> {
    let mut tr = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        session: 0,
        round: 0,
    };
    let mut sessions = traffic
        .iter()
        .map(|t| Composed::open(dir, &t.name))
        .collect::<Result<Vec<_>>>()?;
    let seal_request = command_line("seal");
    let seal_request = seal_request.trim_end_matches('\n');
    let mut probes: Vec<Vec<ProbeInput>> = traffic.iter().map(|_| Vec::new()).collect();
    let mut bid_phase_ns = 0;
    let rounds = traffic[0].rounds.len();
    let mut acks = vec![0; traffic.len()];
    // Sessions take turns round by round, as their seals alternate on
    // the server.
    for r in 0..rounds {
        for (s, (session, t)) in sessions.iter_mut().zip(traffic).enumerate() {
            tr.session = s as u16;
            tr.round = r as u32;
            let round = &t.rounds[r];
            tr.enter(Layer::Round);
            let start = tr.now();
            for i in 0..round.bids.len() {
                let line = round.line(i).trim_end_matches('\n');
                let (at, bid) = tr
                    .span(Layer::WireParse, || parse_bid(line))
                    .map_err(Error::other)?;
                let (want_at, want_bid) = round.bids[i];
                if at.to_bits() != want_at.to_bits() || bid != want_bid {
                    return Err(Error::other(format!(
                        "request {line} parsed to another bid"
                    )));
                }
                let (seq, admission) = session.offer(&mut tr, at, bid)?;
                let ack = tr.span(Layer::WireEncode, || {
                    let mut ack = reference::encode_ack(seq, admission);
                    ack.push('\n');
                    ack
                });
                let want = &expected[s].acks[acks[s] + i];
                if ack.trim_end_matches('\n') != want {
                    return Err(Error::other(format!(
                        "composed ack `{ack}` != oracle `{want}`"
                    )));
                }
            }
            acks[s] += round.bids.len();
            bid_phase_ns += tr.now() - start;
            let cmd = tr.span(Layer::WireParse, || parse_command(seal_request));
            if cmd.as_deref() != Some("seal") {
                return Err(Error::other("seal request did not parse"));
            }
            let (sealed, probe) = session.seal(&mut tr)?;
            let line = tr.span(Layer::WireEncode, || {
                let mut line = reference::encode_sealed(&sealed);
                line.push('\n');
                line
            });
            if line.trim_end_matches('\n') != expected[s].sealed[r] {
                return Err(Error::other(format!(
                    "composed round {r} of session {s} sealed `{}` != oracle `{}`",
                    line.trim_end(),
                    expected[s].sealed[r]
                )));
            }
            tr.exit();
            probes[s].push(probe);
        }
    }
    for (t, session) in traffic.iter().zip(&sessions) {
        let composed = std::fs::read(session.writer.path())?;
        let served = std::fs::read(served_dir.join(format!("{}.jsonl", t.name)))?;
        if composed != served {
            return Err(Error::other(format!(
                "session {}: composed journal ({} B) differs from the served one ({} B)",
                t.name,
                composed.len(),
                served.len()
            )));
        }
    }
    drop(sessions);

    let (round_ns, self_ns) = self_times(&tr.spans);
    for (s, inputs) in probes.iter().enumerate() {
        tr.session = s as u16;
        probe_auction(&mut tr, inputs)?;
    }
    write_spans(&tr.spans, spans_out)?;

    let durations = Layer::ALL
        .iter()
        .map(|&layer| {
            let d = tr
                .spans
                .iter()
                .filter(|s| s.layer == layer)
                .map(|s| s.end - s.start)
                .collect();
            (layer, d)
        })
        .collect();
    Ok(Traced {
        durations,
        self_ns,
        rounds: rounds * traffic.len(),
        bids: traffic.iter().map(SessionTraffic::bids).sum(),
        round_ns,
        bid_phase_ns,
    })
}

/// Wall time of the root spans, and each layer's self time: a span's
/// duration minus that of its children.
fn self_times(spans: &[Span]) -> (u64, Vec<(Layer, u64)>) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    let mut per_layer: Vec<(Layer, u64)> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
    let mut root_ns = 0;
    for (s, child) in spans.iter().zip(&child_ns) {
        let slot = per_layer
            .iter_mut()
            .find(|(l, _)| *l == s.layer)
            .expect("every layer is listed");
        slot.1 += (s.end - s.start).saturating_sub(*child);
        if s.parent == NO_PARENT {
            root_ns += s.end - s.start;
        }
    }
    (root_ns, per_layer)
}

/// Re-solves each round's instance through the public auction API and
/// checks it against the round's outcome.
fn probe_auction(tr: &mut Tracer, inputs: &[ProbeInput]) -> Result<()> {
    let cfg = reference::lovm_config();
    let mut arena = SolverArena::new();
    let mut solution = WdpSolution::default();
    let mut welfares = Vec::new();
    for (r, p) in inputs.iter().enumerate() {
        tr.round = r as u32;
        let mut dpp = DriftPlusPenalty::new(DppConfig {
            v: cfg.v,
            budget_per_round: cfg.budget_per_round,
            min_cost_weight: cfg.min_cost_weight,
        });
        dpp.restore_backlog(p.backlog_before);
        let w = dpp.weights();
        let auction = VcgAuction::new(VcgConfig {
            value_weight: w.value_weight,
            cost_weight: w.cost_weight,
            max_winners: cfg.max_winners,
            topology: cfg.topology,
            ..VcgConfig::default()
        });
        let inst = auction.instance(&p.sealed, &cfg.valuation);
        let view = WdpView::full(&inst);
        tr.span(Layer::AuctionWdp, || {
            arena.solve_view_into(&view, SolverKind::Exact, &mut solution)
        });
        tr.span(Layer::AuctionPivots, || {
            leave_one_out_welfares_view_into(
                &view,
                &solution.selected,
                SolverKind::Exact,
                PaymentStrategy::Incremental,
                par::Pool::auto(),
                &mut arena,
                &mut welfares,
            )
        });
        let agrees = solution.objective.to_bits() == p.outcome.virtual_welfare.to_bits()
            && solution.selected.len() == p.outcome.winners.len()
            && solution
                .selected
                .iter()
                .zip(&welfares)
                .zip(&p.outcome.winners)
                .all(|((&i, &w_minus), award)| {
                    let bid = &p.sealed[i];
                    let pivot = (solution.objective - w_minus).max(0.0);
                    let payment = bid.cost + pivot / w.cost_weight;
                    award.bidder == bid.bidder && award.payment.to_bits() == payment.to_bits()
                });
        if !agrees {
            return Err(Error::other(format!(
                "auction probe of round {r} disagrees with the round's outcome"
            )));
        }
    }
    Ok(())
}

/// Writes the spans as tab-separated lines:
/// `id parent session round layer start_ns end_ns`.
fn write_spans(spans: &[Span], path: &Path) -> Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tsession\tround\tlayer\tstart_ns\tend_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            String::from("-")
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
            s.session,
            s.round,
            s.layer.name(),
            s.start,
            s.end
        )?;
    }
    out.flush()
}

/// Recovery read path of one served session, timed call by call.
#[derive(Debug)]
pub struct Recovery {
    /// `journal::recover_meta`, ns.
    pub scan_ns: u64,
    /// Snapshot read plus `journal::stream_events` replaying the
    /// committed suffix through the composed market, ns.
    pub replay_ns: u64,
    /// `MarketSession::open`, ns.
    pub open_ns: u64,
}

/// Times the recovery layers on the served journal of `name` in `dir`
/// (the server is stopped) and checks each lands on the oracle's state.
pub fn recover(dir: &Path, name: &str, want_digest: u64) -> Result<Recovery> {
    let cfg = reference::session_config(dir, name);
    let t = Instant::now();
    let meta = journal::recover_meta(&cfg.journal)?;
    let scan_ns = elapsed_ns(t);

    let t = Instant::now();
    let snapshot_path = cfg.snapshot.clone().expect("the server keeps snapshots");
    let snapshot = journal::read_snapshot(&snapshot_path)?.filter(|s| meta.snapshot_covers(s));
    let mut market = Market::from_snapshot(snapshot.as_ref());
    let from = snapshot.as_ref().map_or(0, |s| meta.replay_offset(s));
    journal::stream_events(&cfg.journal, from, meta.committed_bytes, |ev| {
        match ev {
            JournalEvent::Arrival { seq, at, bid } => {
                market
                    .collector
                    .offer_at(*seq, TimedBid { at: *at, bid: *bid });
            }
            JournalEvent::Seal { .. } => {
                market.run_round(None);
            }
            JournalEvent::Outcome { digest, .. } => {
                if market.digest.value() != *digest {
                    return Err(Error::other("replay diverged from the journal"));
                }
            }
        }
        Ok(())
    })?;
    let replay_ns = elapsed_ns(t);
    if market.digest.value() != want_digest {
        return Err(Error::other(format!(
            "replay of {name} ends on another digest"
        )));
    }

    let t = Instant::now();
    let session = lovm_core::serve::MarketSession::open(cfg)?;
    let open_ns = elapsed_ns(t);
    if session.digest() != want_digest {
        return Err(Error::other(format!("reopened {name} on another digest")));
    }
    Ok(Recovery {
        scan_ns,
        replay_ns,
        open_ns,
    })
}
