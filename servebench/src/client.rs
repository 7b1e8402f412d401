//! The load generator: one session's timed traffic over one connection,
//! every response checked against the in-process oracle.

use crate::reference::Expected;
use crate::server::Conn;
use crate::workload::{command_line, Discipline, SessionTraffic};
use std::time::{Duration, Instant};

/// A duration in whole nanoseconds.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What one session's timed phase measured.
#[derive(Debug, Default)]
pub struct SessionRun {
    /// Due-to-ack time of every bid, ns.
    pub bid_ack_ns: Vec<u64>,
    /// Send-to-`sealed` time of every seal, ns.
    pub seal_ack_ns: Vec<u64>,
    /// First-bid-due to `sealed` time of every round, ns.
    pub round_ns: Vec<u64>,
    /// First send of the phase, ns after the run's epoch.
    pub start_ns: u64,
    /// Last response of the phase, ns after the run's epoch.
    pub end_ns: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Error responses, wrong responses, and requests left unanswered.
    pub failed: u64,
    /// Bids acknowledged with the expected ack.
    pub acked_bids: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

impl SessionRun {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.first_failure.get_or_insert(why);
    }

    /// Checks one response against the oracle's.
    fn check(&mut self, got: &str, want: &str) -> bool {
        if got == want {
            return true;
        }
        self.fail(1, format!("expected `{want}`, got `{got}`"));
        false
    }
}

/// Drives every round of `traffic` over `conn` with `discipline`, timing
/// from `epoch`. A broken connection ends the phase; every request not
/// yet answered then counts as failed.
pub fn drive(
    conn: &mut Conn,
    traffic: &SessionTraffic,
    expected: &Expected,
    discipline: Discipline,
    epoch: Instant,
) -> SessionRun {
    let mut run = SessionRun::default();
    let seal = command_line("seal");
    let ns = |t: Instant| nanos(t.duration_since(epoch));
    let mut ack = 0;
    run.start_ns = ns(Instant::now());
    for (r, round) in traffic.rounds.iter().enumerate() {
        let requests = round.bids.len() as u64 + 1;
        run.attempted += requests;
        let outcome = (|| -> std::io::Result<()> {
            let round_start = Instant::now();
            match discipline {
                Discipline::Lockstep => {
                    for i in 0..round.bids.len() {
                        let due = Instant::now();
                        conn.send(round.line(i))?;
                        let got = conn.recv()?;
                        let elapsed = due.elapsed();
                        if run.check(got, &expected.acks[ack + i]) {
                            run.acked_bids += 1;
                        }
                        run.bid_ack_ns.push(nanos(elapsed));
                    }
                }
                Discipline::Burst => {
                    conn.send(&round.payload)?;
                    for i in 0..round.bids.len() {
                        let got = conn.recv()?;
                        let elapsed = round_start.elapsed();
                        if run.check(got, &expected.acks[ack + i]) {
                            run.acked_bids += 1;
                        }
                        run.bid_ack_ns.push(nanos(elapsed));
                    }
                }
            }
            let sent = Instant::now();
            conn.send(&seal)?;
            let got = conn.recv()?;
            let done = Instant::now();
            run.check(got, &expected.sealed[r]);
            run.seal_ack_ns.push(nanos(done - sent));
            run.round_ns.push(nanos(done - round_start));
            run.end_ns = ns(done);
            Ok(())
        })();
        if let Err(e) = outcome {
            // The acks already read were counted; everything else of this
            // round and every later round is lost.
            let answered = run.bid_ack_ns.len() as u64 - ack as u64;
            let later: u64 = traffic.rounds[r + 1..]
                .iter()
                .map(|r| r.bids.len() as u64 + 1)
                .sum();
            run.attempted += later;
            run.fail(requests - answered + later, format!("round {r}: {e}"));
            return run;
        }
        ack += round.bids.len();
    }
    run
}
