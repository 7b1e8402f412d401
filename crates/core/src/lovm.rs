//! LOVM: the Long-term Online VCG Mechanism.
//!
//! Per round `t` with virtual budget queue `Q(t)`:
//!
//! 1. score every present bid `i` with `w_i = V·v_i − max(Q(t), q_min)·ĉ_i`,
//! 2. select the winner set maximizing `Σ w_i` subject to the cardinality
//!    cap (exact, so VCG applies),
//! 3. pay each winner the Clarke pivot in money,
//!    `p_i = ĉ_i + (W* − W*₋ᵢ)/max(Q(t), q_min)`,
//! 4. update the queue with the realized expenditure:
//!    `Q(t+1) = max(Q(t) + Σp_i − ρ, 0)` where `ρ = B/R`.
//!
//! Truthfulness and IR hold round-by-round because step 2 is exact and the
//! weights are bid-independent; the long-term budget holds because the
//! queue is mean-rate stable (large `Q` suppresses spending), giving the
//! `[O(1/V), O(V)]` welfare/backlog tradeoff measured in E2/E3.

use crate::mechanism::{Mechanism, RoundInfo};
use auction::bid::Bid;
use auction::outcome::AuctionOutcome;
use auction::shard::MarketTopology;
use auction::valuation::Valuation;
use auction::vcg::{RoundScratch, VcgAuction, VcgConfig};
use lyapunov::dpp::{DppConfig, DriftPlusPenalty};
use workload::Scenario;

/// LOVM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LovmConfig {
    /// Lyapunov penalty weight `V > 0` (welfare emphasis).
    pub v: f64,
    /// Long-term budget rate ρ (money per round, > 0).
    pub budget_per_round: f64,
    /// Cardinality cap on winners per round.
    pub max_winners: Option<usize>,
    /// Floor `q_min > 0` for the cost weight (keeps payments defined when
    /// the queue is empty).
    pub min_cost_weight: f64,
    /// Platform valuation of clients.
    pub valuation: Valuation,
    /// Market layout per round. The default honors the `LOVM_SHARDS`
    /// environment variable (`Monolithic` when unset). LOVM rounds are
    /// top-K winner determinations, where the sharded champion
    /// reconciliation is bit-identical to the monolithic path at any shard
    /// count — so this knob changes memory/latency shape, never outcomes.
    pub topology: MarketTopology,
}

impl Default for LovmConfig {
    fn default() -> Self {
        LovmConfig {
            v: 10.0,
            budget_per_round: 1.0,
            max_winners: None,
            min_cost_weight: 1.0,
            valuation: Valuation::default(),
            topology: MarketTopology::from_env(),
        }
    }
}

impl LovmConfig {
    /// Builds a config matched to a scenario's budget with the given `V`.
    ///
    /// Sets a per-round winner cap of `max(4, ⌈2ρ⌉)` (assuming O(1) client
    /// costs, this is roughly twice the number of affordable winners). The
    /// cap matters beyond scheduling: with top-K selection, each winner's
    /// information rent is priced by the *displaced* candidate, so a
    /// binding-ish cap keeps payments competitive instead of handing every
    /// winner its full marginal surplus. Override with
    /// [`LovmConfig::with_max_winners`] if costs are far from 1.
    pub fn for_scenario(scenario: &Scenario, v: f64) -> LovmConfig {
        let rho = scenario.budget_per_round();
        LovmConfig {
            v,
            budget_per_round: rho,
            max_winners: Some(((2.0 * rho).ceil() as usize).max(4)),
            valuation: scenario.valuation,
            ..LovmConfig::default()
        }
    }

    /// Sets the per-round winner cap.
    pub fn with_max_winners(mut self, k: usize) -> Self {
        self.max_winners = Some(k);
        self
    }

    /// Sets the valuation.
    pub fn with_valuation(mut self, valuation: Valuation) -> Self {
        self.valuation = valuation;
        self
    }

    /// Sets the market topology (overriding the `LOVM_SHARDS` default).
    pub fn with_topology(mut self, topology: MarketTopology) -> Self {
        self.topology = topology;
        self
    }
}

/// The LOVM mechanism (see module docs).
#[derive(Debug, Clone)]
pub struct Lovm {
    config: LovmConfig,
    dpp: DriftPlusPenalty,
    /// Per-round solver scratch ([`RoundScratch`]) kept alive across the
    /// mechanism's lifetime, so sustained `stream`/`serve` loops reuse the
    /// arena's DP buffers instead of reallocating them every sealed round.
    /// Pure scratch: never read across rounds, so it cannot affect outputs.
    scratch: RoundScratch,
}

impl Lovm {
    /// Creates the mechanism.
    ///
    /// # Panics
    ///
    /// Panics if `v`, `budget_per_round`, or `min_cost_weight` is not
    /// strictly positive and finite.
    pub fn new(config: LovmConfig) -> Self {
        let dpp = DriftPlusPenalty::new(DppConfig {
            v: config.v,
            budget_per_round: config.budget_per_round,
            min_cost_weight: config.min_cost_weight,
        });
        Lovm {
            config,
            dpp,
            scratch: RoundScratch::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LovmConfig {
        &self.config
    }

    /// Current virtual-queue backlog `Q(t)`.
    pub fn queue_backlog(&self) -> f64 {
        self.dpp.queue_backlog()
    }

    /// Peak backlog observed (the `O(V)` quantity of E3).
    pub fn peak_backlog(&self) -> f64 {
        self.dpp.queue().peak()
    }

    /// Restores the virtual-queue backlog from a recovered snapshot or
    /// journal replay (see `crates/journal` and [`crate::serve`]). The
    /// control state is exact to the bit; per-process telemetry (peak,
    /// round count) restarts.
    ///
    /// # Panics
    ///
    /// Panics if `backlog` is negative or non-finite.
    pub fn restore_backlog(&mut self, backlog: f64) {
        self.dpp.restore_backlog(backlog);
    }

    /// Runs one LOVM round on an explicit worker pool: scores the bids
    /// with the current drift-plus-penalty weights, solves the
    /// (topology-aware) VCG round, and feeds the realized spend back into
    /// the virtual queue. [`Mechanism::select`] delegates here with a
    /// serial pool; the streaming entry points pass their own so sharded
    /// rounds can fan out.
    pub fn round_on(&mut self, bids: &[Bid], pool: par::Pool) -> AuctionOutcome {
        // Whole-mechanism-round span (scoring + WDP + pivots + queue
        // update); the finer per-shard / per-kind spans live inside the
        // auction crates. Inert unless telemetry is enabled.
        let _round_span = telemetry::hist!("solve.round_ns").span();
        let w = self.dpp.weights();
        let auction = VcgAuction::new(VcgConfig {
            value_weight: w.value_weight,
            cost_weight: w.cost_weight,
            max_winners: self.config.max_winners,
            topology: self.config.topology,
            ..VcgConfig::default()
        });
        let outcome =
            auction.run_with_scratch_on(bids, &self.config.valuation, pool, &mut self.scratch);
        self.dpp.observe_spend(outcome.total_payment());
        outcome
    }

    /// Runs LOVM over a *live bid stream*: the scenario's per-round bids
    /// are timestamped by a seeded arrival process, pass through the
    /// event-driven ingestion loop (deadline, late-bid policy,
    /// backpressure — see `crates/ingest`), and each sealed round flows
    /// through the normal topology-aware VCG path. With
    /// `cfg.deadline == 1.0` the result is bit-identical to the batch
    /// [`crate::simulation::simulate`] run.
    pub fn run_stream(
        &mut self,
        scenario: &Scenario,
        seed: u64,
        cfg: &ingest::IngestConfig,
    ) -> crate::streaming::StreamResult {
        self.run_stream_on(scenario, seed, cfg, par::Pool::auto())
    }

    /// [`Lovm::run_stream`] with an explicit worker pool for the per-round
    /// solves. The pool cannot change any output bit (determinism
    /// contract of `crates/par` + `auction::shard`).
    pub fn run_stream_on(
        &mut self,
        scenario: &Scenario,
        seed: u64,
        cfg: &ingest::IngestConfig,
        pool: par::Pool,
    ) -> crate::streaming::StreamResult {
        Mechanism::reset(self);
        let name = Mechanism::name(self);
        let market = crate::simulation::Market::new(scenario, seed);
        crate::streaming::stream_rounds(scenario, market, seed, cfg, name, |_info, bids| {
            let outcome = self.round_on(bids, pool);
            (outcome, Some(self.queue_backlog()))
        })
    }
}

impl Mechanism for Lovm {
    fn name(&self) -> String {
        format!("LOVM(V={})", self.config.v)
    }

    fn select(&mut self, _info: &RoundInfo, bids: &[Bid]) -> AuctionOutcome {
        // Serial pool: the incremental engine's per-pivot work on the
        // top-K path is O(K), well under fan-out break-even for a round.
        self.round_on(bids, par::Pool::serial())
    }

    fn backlog(&self) -> Option<f64> {
        Some(self.dpp.queue_backlog())
    }

    fn reset(&mut self) {
        self.dpp = DriftPlusPenalty::new(DppConfig {
            v: self.config.v,
            budget_per_round: self.config.budget_per_round,
            min_cost_weight: self.config.min_cost_weight,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auction::properties::{
        default_factor_grid, individually_rational, naive_vcg, probe_truthfulness,
    };
    use auction::valuation::ClientValue;
    use auction::wdp::SolverKind;

    fn config() -> LovmConfig {
        LovmConfig {
            v: 20.0,
            budget_per_round: 3.0,
            max_winners: Some(3),
            min_cost_weight: 1.0,
            valuation: Valuation::Linear(ClientValue {
                value_per_unit: 0.02,
                base_value: 0.2,
            }),
            topology: MarketTopology::from_env(),
        }
    }

    fn info(round: usize) -> RoundInfo {
        RoundInfo {
            round,
            horizon: 100,
            total_budget: 300.0,
            spent_so_far: 0.0,
        }
    }

    fn bids() -> Vec<Bid> {
        vec![
            Bid::new(0, 1.0, 300, 0.9),
            Bid::new(1, 2.0, 400, 0.8),
            Bid::new(2, 0.5, 100, 1.0),
            Bid::new(3, 3.0, 500, 0.7),
            Bid::new(4, 1.5, 200, 0.6),
        ]
    }

    #[test]
    fn selects_and_pays_ir() {
        let mut m = Lovm::new(config());
        let o = m.select(&info(0), &bids());
        assert!(!o.winners.is_empty());
        assert!(o.winners.len() <= 3);
        assert!(individually_rational(&o, 1e-9));
    }

    #[test]
    fn queue_accumulates_overspend() {
        let mut m = Lovm::new(config());
        assert_eq!(m.queue_backlog(), 0.0);
        let o = m.select(&info(0), &bids());
        let expect = (o.total_payment() - 3.0).max(0.0);
        assert!((m.queue_backlog() - expect).abs() < 1e-9);
    }

    #[test]
    fn rising_queue_suppresses_spending() {
        let mut m = Lovm::new(config());
        let mut spends = Vec::new();
        for t in 0..50 {
            let o = m.select(&info(t), &bids());
            spends.push(o.total_payment());
        }
        // Early rounds overspend (queue empty), later rounds must throttle:
        // the average of the last 10 rounds is below the first round.
        let late: f64 = spends[40..].iter().sum::<f64>() / 10.0;
        assert!(
            late < spends[0],
            "late spend {late} not below initial {}",
            spends[0]
        );
    }

    #[test]
    fn long_run_budget_respected() {
        let mut m = Lovm::new(config());
        let mut total = 0.0;
        let rounds = 2000;
        for t in 0..rounds {
            total += m.select(&info(t), &bids()).total_payment();
        }
        let avg = total / rounds as f64;
        assert!(
            avg <= 3.0 * 1.05,
            "average spend {avg} exceeds rate 3.0 beyond transient"
        );
    }

    #[test]
    fn per_round_truthful_and_probe_detects() {
        // Freeze the queue state by probing round 0 repeatedly on clones.
        let base = Lovm::new(config());
        let all_bids = bids();
        for i in 0..all_bids.len() {
            let report = probe_truthfulness(&all_bids, i, &default_factor_grid(), |b| {
                let mut m = base.clone();
                m.select(&info(0), b)
            });
            assert!(
                report.is_truthful(1e-9),
                "bidder {i} gains {}",
                report.max_gain()
            );
        }
    }

    /// Every round of the loop — selection and payments at that round's
    /// queue-driven weights — is bit-identical to the naive payment oracle,
    /// so the queue trajectory is the one the naive engine would drive.
    #[test]
    fn payment_strategies_bit_identical_over_rounds() {
        let mut m = Lovm::new(config());
        for t in 0..30 {
            let w = m.dpp.weights();
            let auction = VcgAuction::new(VcgConfig {
                value_weight: w.value_weight,
                cost_weight: w.cost_weight,
                max_winners: m.config.max_winners,
                ..VcgConfig::default()
            });
            let naive = naive_vcg(
                &auction,
                &bids(),
                &m.config.valuation,
                None,
                SolverKind::Exact,
            );
            let backlog = m.queue_backlog();
            let o = m.select(&info(t), &bids());
            assert_eq!(o, naive, "outcomes diverged at round {t}");
            let expect = (backlog + naive.total_payment() - 3.0).max(0.0);
            assert_eq!(
                m.queue_backlog().to_bits(),
                expect.to_bits(),
                "queue diverged at round {t}"
            );
        }
    }

    #[test]
    fn reset_clears_queue() {
        let mut m = Lovm::new(config());
        m.select(&info(0), &bids());
        assert!(m.queue_backlog() > 0.0);
        m.reset();
        assert_eq!(m.queue_backlog(), 0.0);
    }

    #[test]
    fn name_includes_v() {
        assert_eq!(Lovm::new(config()).name(), "LOVM(V=20)");
    }

    #[test]
    fn for_scenario_uses_budget_rate() {
        let s = Scenario::small();
        let c = LovmConfig::for_scenario(&s, 7.0);
        assert_eq!(c.v, 7.0);
        assert!((c.budget_per_round - 2.0).abs() < 1e-12);
    }
}
