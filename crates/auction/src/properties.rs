//! Executable mechanism-design property checks, plus the references the
//! differential tests and benches hold production code against: the naive
//! VCG payment oracle ([`naive_vcg`]) and the frozen allocating
//! winner-determination kernels ([`reference_solve_view`]).
//!
//! These are used three ways: in unit/property tests of this crate, in the
//! integration suite, and by the experiment harness (E4/E5) to *measure*
//! truthfulness and individual rationality rather than assume them.

use crate::bid::Bid;
use crate::outcome::AuctionOutcome;
use crate::valuation::Valuation;
use crate::vcg::VcgAuction;
use crate::wdp::{
    exhaustive, greedy_density, knapsack_candidates, knapsack_cell, knapsack_gcost,
    knapsack_width_2d, preference_order, repair_overspend, RepairScratch, SolverKind, WdpSolution,
    WdpView, DP_EPS,
};

/// Checks individual rationality at reported costs: every winner is paid at
/// least its reported cost (within `tol`).
pub fn individually_rational(outcome: &AuctionOutcome, tol: f64) -> bool {
    outcome.winners.iter().all(|w| w.payment >= w.cost - tol)
}

/// Quasi-linear utility of `bidder` with true cost `true_cost` under an
/// outcome produced from (possibly misreported) bids.
pub fn utility(outcome: &AuctionOutcome, bidder: usize, true_cost: f64) -> f64 {
    match outcome.payment_of(bidder) {
        Some(p) => p - true_cost,
        None => 0.0,
    }
}

/// Result of probing one bidder's incentive to misreport.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthfulnessReport {
    /// Bidder probed.
    pub bidder: usize,
    /// Utility when reporting the true cost.
    pub truthful_utility: f64,
    /// Best utility found over all probed misreports.
    pub best_misreport_utility: f64,
    /// The misreport factor achieving it (report = factor × true cost).
    pub best_factor: f64,
    /// Per-factor utilities, aligned with the probed factor grid.
    pub utilities: Vec<(f64, f64)>,
}

impl TruthfulnessReport {
    /// Maximum gain achievable by lying (≤ tol for a truthful mechanism).
    pub fn max_gain(&self) -> f64 {
        self.best_misreport_utility - self.truthful_utility
    }

    /// Whether no probed misreport improved utility by more than `tol`.
    pub fn is_truthful(&self, tol: f64) -> bool {
        self.max_gain() <= tol
    }
}

/// Probes whether `bidder_index` can gain by scaling its reported cost by
/// each factor in `factors`, holding other bids fixed.
///
/// `mechanism` maps a full bid profile to an outcome; it is re-run once per
/// factor plus once truthfully.
///
/// # Panics
///
/// Panics if `bidder_index` is out of range or a factor produces a negative
/// report.
pub fn probe_truthfulness<F>(
    bids: &[Bid],
    bidder_index: usize,
    factors: &[f64],
    mechanism: F,
) -> TruthfulnessReport
where
    F: Fn(&[Bid]) -> AuctionOutcome,
{
    let true_bid = bids[bidder_index];
    let true_cost = true_bid.cost;
    let truthful_outcome = mechanism(bids);
    let truthful_utility = utility(&truthful_outcome, true_bid.bidder, true_cost);

    let mut utilities = Vec::with_capacity(factors.len());
    let mut best_misreport_utility = f64::NEG_INFINITY;
    let mut best_factor = 1.0;
    for &f in factors {
        let mut profile = bids.to_vec();
        profile[bidder_index] = true_bid.with_cost(true_cost * f);
        let out = mechanism(&profile);
        let u = utility(&out, true_bid.bidder, true_cost);
        utilities.push((f, u));
        if u > best_misreport_utility {
            best_misreport_utility = u;
            best_factor = f;
        }
    }
    if factors.is_empty() {
        best_misreport_utility = truthful_utility;
    }
    TruthfulnessReport {
        bidder: true_bid.bidder,
        truthful_utility,
        best_misreport_utility,
        best_factor,
        utilities,
    }
}

/// Standard misreport factor grid used by the harness: 0.25× to 4× the true
/// cost.
pub fn default_factor_grid() -> Vec<f64> {
    vec![
        0.25, 0.5, 0.75, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 4.0,
    ]
}

/// The naive end-to-end VCG reference: one monolithic
/// [`reference_solve_view`] of the auction's instance (budget-capped when
/// `budget` is set), one from-scratch reference re-solve per winner for its
/// `W*₋ᵢ`, then the auction's own Clarke award. [`VcgAuction`]'s
/// incremental payment engine on the arena must match it bit for bit; the
/// differential tests and the `payment_engine` bench rows hold it to that.
/// The configured topology is ignored, so compare against monolithic
/// auctions only.
pub fn naive_vcg(
    auction: &VcgAuction,
    bids: &[Bid],
    valuation: &Valuation,
    budget: Option<f64>,
    kind: SolverKind,
) -> AuctionOutcome {
    let mut inst = auction.instance(bids, valuation);
    if let Some(b) = budget {
        inst = inst.with_budget(b);
    }
    let view = WdpView::full(&inst);
    let sol = reference_solve_view(&view, kind);
    let w_minus: Vec<f64> = sol
        .selected
        .iter()
        .map(|&i| reference_solve_view(&view.skipping(i), kind).objective)
        .collect();
    auction.awards(bids, valuation, &sol, &w_minus)
}

/// The frozen reference winner determination: the original allocating
/// top-K and knapsack kernels, kept off the production path so that
/// `arena_equivalence`, the `_legacy` rows of `bench_solver` and
/// [`naive_vcg`] compare [`crate::wdp::SolverArena`] against an
/// implementation that shares none of its DP table, item-step or
/// traceback code (only the candidate filter, grid rounding and budget
/// repair, which define the problem being solved). Same dispatch as
/// `SolverArena::solve_view_into`; `Exhaustive` and `GreedyDensity` have
/// one implementation, which both call.
pub fn reference_solve_view(view: &WdpView<'_>, kind: SolverKind) -> WdpSolution {
    match kind {
        SolverKind::Exact => match view.budget() {
            None => top_k(view),
            Some(_) if view.len() <= 25 => exhaustive(view),
            Some(_) => knapsack(view, 4000),
        },
        SolverKind::Exhaustive => exhaustive(view),
        SolverKind::Knapsack { grid } => match view.budget() {
            Some(_) => knapsack(view, grid),
            None => top_k(view),
        },
        SolverKind::GreedyDensity => greedy_density(view),
    }
}

/// Exact solver for views without a budget constraint: select the top-K
/// positive-weight items.
fn top_k(view: &WdpView<'_>) -> WdpSolution {
    let k = view.max_winners().unwrap_or(view.len());
    let mut order = preference_order(view);
    order.truncate(k);
    WdpSolution::from_view(view, order)
}

/// Budget-constrained 0/1 knapsack DP over a discretized cost grid.
///
/// Costs are rounded *down* to grid cells (which keeps tight optimal packs
/// representable) and the reconstructed selection is then repaired to true
/// feasibility by dropping lowest-density items; with a fine grid the
/// objective loss is negligible. A cardinality constraint, when present, is
/// handled by adding a count dimension.
fn knapsack(view: &WdpView<'_>, grid: usize) -> WdpSolution {
    let budget = view.budget().expect("knapsack requires a budget");
    assert!(grid >= 1, "grid must be at least 1");
    for i in view.indices() {
        let it = view.item(i);
        assert!(
            it.cost.is_finite() && it.cost >= 0.0,
            "knapsack requires non-negative finite costs"
        );
    }
    let cand: Vec<usize> = knapsack_candidates(view, budget).collect();
    if cand.is_empty() {
        return WdpSolution::from_view(view, Vec::new());
    }
    let cell = knapsack_cell(budget, grid);
    let gcost = |i: usize| -> usize { knapsack_gcost(view.item(i).cost, budget, cell, grid) };
    let width = grid + 1;
    let selected = match view.max_winners() {
        // No cardinality cap: 1-D DP over the cost grid. `taken[t][c]`
        // records that candidate t strictly improved state c; walking
        // candidates backwards and following the first set flag at the
        // current state is the standard exact reconstruction.
        None => {
            let mut dp = vec![0.0f64; width];
            let mut taken: Vec<Vec<bool>> = Vec::with_capacity(cand.len());
            for &i in &cand {
                let gc = gcost(i);
                let w = view.item(i).weight;
                let mut tk = vec![false; width];
                if gc <= grid {
                    for c in (gc..width).rev() {
                        let candidate = dp[c - gc] + w;
                        if candidate > dp[c] + DP_EPS {
                            dp[c] = candidate;
                            tk[c] = true;
                        }
                    }
                }
                taken.push(tk);
            }
            let mut bc = 0usize;
            for (c, &v) in dp.iter().enumerate() {
                if v > dp[bc] + DP_EPS {
                    bc = c;
                }
            }
            let mut selected = Vec::new();
            let mut c = bc;
            for t in (0..cand.len()).rev() {
                if taken[t][c] {
                    let i = cand[t];
                    selected.push(i);
                    c -= gcost(i);
                }
            }
            selected
        }
        // Cardinality cap: add a count dimension. Memory is
        // O(items · k · grid) bits, so cap the table size and coarsen the
        // grid if an absurd combination is requested.
        Some(k) => {
            let kmax = k.min(cand.len());
            let width = knapsack_width_2d(cand.len(), kmax, grid);
            let grid_eff = width - 1;
            let cell_eff = knapsack_cell(budget, grid_eff);
            let gcost_eff = |i: usize| -> usize {
                knapsack_gcost(view.item(i).cost, budget, cell_eff, grid_eff)
            };
            let mut dp = vec![vec![0.0f64; width]; kmax + 1];
            let mut taken: Vec<Vec<bool>> = Vec::with_capacity(cand.len());
            for &i in &cand {
                let gc = gcost_eff(i);
                let w = view.item(i).weight;
                let mut tk = vec![false; (kmax + 1) * width];
                if gc <= grid_eff {
                    for j in (1..=kmax).rev() {
                        for c in (gc..width).rev() {
                            let candidate = dp[j - 1][c - gc] + w;
                            if candidate > dp[j][c] + DP_EPS {
                                dp[j][c] = candidate;
                                tk[j * width + c] = true;
                            }
                        }
                    }
                }
                taken.push(tk);
            }
            let (mut bj, mut bc, mut best) = (0usize, 0usize, 0.0f64);
            for (j, row) in dp.iter().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    if v > best + DP_EPS {
                        best = v;
                        bj = j;
                        bc = c;
                    }
                }
            }
            let mut selected = Vec::new();
            let mut j = bj;
            let mut c = bc;
            for t in (0..cand.len()).rev() {
                if j == 0 {
                    break;
                }
                if taken[t][j * width + c] {
                    let i = cand[t];
                    selected.push(i);
                    c -= gcost_eff(i);
                    j -= 1;
                }
            }
            selected
        }
    };
    let mut selected = selected;
    repair_overspend(view, &mut selected, budget, &mut RepairScratch::default());
    WdpSolution::from_view(view, selected)
}

/// Checks that total expenditure across rounds stays within `budget` (within
/// `tol`).
pub fn budget_feasible(outcomes: &[AuctionOutcome], budget: f64, tol: f64) -> bool {
    let spend: f64 = outcomes.iter().map(|o| o.total_payment()).sum();
    spend <= budget + tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valuation::ClientValue;
    use crate::vcg::VcgConfig;

    fn setup() -> (Vec<Bid>, Valuation, VcgAuction) {
        let bids = vec![
            Bid::new(0, 2.0, 10, 1.0),
            Bid::new(1, 3.0, 12, 0.9),
            Bid::new(2, 1.0, 4, 0.8),
            Bid::new(3, 6.0, 9, 1.0),
        ];
        let valuation = Valuation::Linear(ClientValue {
            value_per_unit: 1.0,
            base_value: 0.0,
        });
        let auction = VcgAuction::new(VcgConfig {
            value_weight: 1.0,
            cost_weight: 1.0,
            max_winners: Some(2),
            ..VcgConfig::default()
        });
        (bids, valuation, auction)
    }

    #[test]
    fn vcg_outcome_is_ir() {
        let (bids, v, a) = setup();
        let o = a.run(&bids, &v);
        assert!(individually_rational(&o, 1e-9));
    }

    #[test]
    fn vcg_is_truthful_on_probe_grid() {
        let (bids, v, a) = setup();
        for i in 0..bids.len() {
            let report = probe_truthfulness(&bids, i, &default_factor_grid(), |b| a.run(b, &v));
            assert!(
                report.is_truthful(1e-9),
                "bidder {i} gains {} by factor {}",
                report.max_gain(),
                report.best_factor
            );
        }
    }

    #[test]
    fn first_price_rule_is_not_truthful() {
        // Pay-your-bid with the same allocation: overbidding must help, and
        // the probe must detect it.
        let (bids, v, a) = setup();
        let first_price = |b: &[Bid]| {
            let mut o = a.run(b, &v);
            for w in &mut o.winners {
                w.payment = w.cost;
            }
            o
        };
        let report = probe_truthfulness(&bids, 0, &default_factor_grid(), first_price);
        assert!(report.max_gain() > 0.1, "gain {}", report.max_gain());
        assert!(report.best_factor > 1.0);
    }

    #[test]
    fn utility_zero_for_losers() {
        let (bids, v, a) = setup();
        let o = a.run(&bids, &v);
        assert_eq!(utility(&o, 3, 6.0), 0.0);
    }

    #[test]
    fn budget_feasibility_check() {
        let (bids, v, a) = setup();
        let o = a.run(&bids, &v);
        let spend = o.total_payment();
        assert!(budget_feasible(std::slice::from_ref(&o), spend + 1.0, 0.0));
        assert!(!budget_feasible(&[o.clone(), o], spend, 1e-9));
    }

    /// Property: DSIC on random instances — no bidder in a random market
    /// can gain by any probed misreport under the exact top-K VCG auction
    /// (seeded random instances).
    #[test]
    fn vcg_truthful_on_random_instances() {
        use simrng::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD51C);
        for _ in 0..40 {
            let n = rng.random_range(2..10usize);
            let bids: Vec<Bid> = (0..n)
                .map(|i| {
                    Bid::new(
                        i,
                        rng.random_range(0.05..5.0),
                        rng.random_range(1..40usize),
                        rng.random_range(0.1..1.0),
                    )
                })
                .collect();
            let valuation = Valuation::Linear(ClientValue {
                value_per_unit: 0.5,
                base_value: 0.2,
            });
            let auction = VcgAuction::new(VcgConfig {
                value_weight: rng.random_range(0.5..20.0),
                cost_weight: rng.random_range(0.5..5.0),
                max_winners: Some(rng.random_range(1..5usize)),
                ..VcgConfig::default()
            });
            let outcome = auction.run(&bids, &valuation);
            assert!(individually_rational(&outcome, 1e-9));
            for i in 0..bids.len() {
                let report = probe_truthfulness(&bids, i, &default_factor_grid(), |b| {
                    auction.run(b, &valuation)
                });
                assert!(
                    report.is_truthful(1e-9),
                    "bidder {} gains {} (factor {})",
                    i,
                    report.max_gain(),
                    report.best_factor
                );
            }
        }
    }

    /// Property: losers never pay / never receive — probing a random loser
    /// yields zero utility at truth, and winners' utilities are
    /// non-negative (seeded random instances).
    #[test]
    fn vcg_utility_structure_random() {
        use simrng::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x07EC);
        for _ in 0..200 {
            let n = rng.random_range(2..8usize);
            let seed_data = rng.random_range(1..30usize);
            let bids: Vec<Bid> = (0..n)
                .map(|i| Bid::new(i, rng.random_range(0.05..5.0), seed_data + i, 0.9))
                .collect();
            let valuation = Valuation::Linear(ClientValue {
                value_per_unit: 0.3,
                base_value: 0.1,
            });
            let auction = VcgAuction::new(VcgConfig::default());
            let o = auction.run(&bids, &valuation);
            for b in &bids {
                let u = utility(&o, b.bidder, b.cost);
                if o.is_winner(b.bidder) {
                    assert!(u >= -1e-9);
                } else {
                    assert!(u == 0.0);
                }
            }
        }
    }

    /// Property: DSIC survives the incremental payment engine — on random
    /// markets where the feasible set is report-independent (top-K cap,
    /// budget present in the code path but never binding), the misreport
    /// grid peaks at the truthful report when payments come from the
    /// incremental engine; with a *binding* budget the feasible
    /// set depends on the reports (truthfulness is out of scope there), but
    /// individual rationality must still hold (seeded random instances).
    #[test]
    fn budgeted_vcg_incremental_truthful_on_probe_grid() {
        use simrng::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x17C0);
        for _ in 0..15 {
            let n = rng.random_range(2..9usize);
            let bids: Vec<Bid> = (0..n)
                .map(|i| {
                    Bid::new(
                        i,
                        rng.random_range(0.1..4.0),
                        rng.random_range(5..40usize),
                        rng.random_range(0.3..1.0),
                    )
                })
                .collect();
            let valuation = Valuation::Linear(ClientValue {
                value_per_unit: 0.4,
                base_value: 0.2,
            });
            let auction = VcgAuction::new(VcgConfig {
                value_weight: rng.random_range(1.0..15.0),
                cost_weight: rng.random_range(0.5..4.0),
                max_winners: Some(rng.random_range(1..5usize)),
                ..VcgConfig::default()
            });
            // Far above any sum of (even 4×-misreported) costs: exercises
            // the budgeted engine without letting the budget bind. (At
            // these sizes the incremental dispatcher takes its naive
            // fallback — the merge-path version of this property is
            // `incremental_merge_engine_truthful_with_slack_budget`.)
            let slack_budget = 1e6;
            let mech = |b: &[Bid]| {
                auction.run_with_budget_on(
                    b,
                    &valuation,
                    slack_budget,
                    SolverKind::Exact,
                    par::Pool::serial(),
                )
            };
            assert!(individually_rational(&mech(&bids), 1e-9));
            for i in 0..bids.len() {
                let report = probe_truthfulness(&bids, i, &default_factor_grid(), mech);
                assert!(
                    report.is_truthful(1e-9),
                    "bidder {i} gains {} under the incremental engine",
                    report.max_gain()
                );
            }
            // Binding budget: IR still holds (the clamped pivot keeps every
            // payment at or above the reported cost).
            let tight = auction.run_with_budget_on(
                &bids,
                &valuation,
                rng.random_range(0.5..4.0),
                SolverKind::Exact,
                par::Pool::serial(),
            );
            assert!(individually_rational(&tight, 1e-9));
        }
    }

    /// Property: DSIC through the forward/backward *merge* engine itself —
    /// above the exhaustive-dispatch boundary (n > 26) the incremental
    /// strategy runs the DP merge, and with a slack budget every cost
    /// rounds to grid cell 0, so the DP is exactly optimal and the
    /// misreport grid must peak at truth to machine precision. IR likewise
    /// (seeded random instances).
    #[test]
    fn incremental_merge_engine_truthful_with_slack_budget() {
        use simrng::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x3E116E);
        for _ in 0..4 {
            let n = rng.random_range(28..34usize);
            let bids: Vec<Bid> = (0..n)
                .map(|i| {
                    Bid::new(
                        i,
                        rng.random_range(0.1..3.0),
                        rng.random_range(10..120usize),
                        rng.random_range(0.3..1.0),
                    )
                })
                .collect();
            let valuation = Valuation::Linear(ClientValue {
                value_per_unit: 0.2,
                base_value: 0.2,
            });
            let auction = VcgAuction::new(VcgConfig {
                value_weight: rng.random_range(2.0..20.0),
                cost_weight: rng.random_range(0.5..3.0),
                max_winners: None,
                ..VcgConfig::default()
            });
            let mech = |b: &[Bid]| {
                auction.run_with_budget_on(
                    b,
                    &valuation,
                    1e6,
                    SolverKind::Exact,
                    par::Pool::serial(),
                )
            };
            assert!(individually_rational(&mech(&bids), 1e-9));
            // Probing every bidder would re-run the mechanism 14·n times;
            // a seeded handful per market keeps the test quick while still
            // covering winners and losers across markets.
            for _ in 0..5 {
                let i = rng.random_range(0..n);
                let report = probe_truthfulness(&bids, i, &default_factor_grid(), mech);
                assert!(
                    report.is_truthful(1e-9),
                    "bidder {i} gains {} through the merge engine",
                    report.max_gain()
                );
            }
        }
    }

    /// Property: the incremental engine's *incentive profile* matches the
    /// naive oracle's bit for bit — every probed misreport yields the same
    /// utility under both, even on the grid-approximate knapsack path where
    /// neither is exactly truthful. Individual rationality holds under both
    /// (seeded random instances).
    #[test]
    fn incremental_engine_preserves_incentives_bitwise_on_knapsack_path() {
        use simrng::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB175);
        for round in 0..6 {
            let n = rng.random_range(28..44usize);
            let bids: Vec<Bid> = (0..n)
                .map(|i| {
                    Bid::new(
                        i,
                        rng.random_range(0.1..3.0),
                        rng.random_range(20..200usize),
                        rng.random_range(0.4..1.0),
                    )
                })
                .collect();
            let valuation = Valuation::Linear(ClientValue {
                value_per_unit: 0.1,
                base_value: 0.3,
            });
            let auction = VcgAuction::new(VcgConfig {
                value_weight: 20.0,
                cost_weight: 2.0,
                max_winners: None,
                ..VcgConfig::default()
            });
            let budget = 0.4 * bids.iter().map(|b| b.cost).sum::<f64>();
            let incremental = |b: &[Bid]| {
                auction.run_with_budget_on(
                    b,
                    &valuation,
                    budget,
                    SolverKind::Exact,
                    par::Pool::serial(),
                )
            };
            let oracle =
                |b: &[Bid]| naive_vcg(&auction, b, &valuation, Some(budget), SolverKind::Exact);
            assert!(individually_rational(&incremental(&bids), 1e-9));
            assert!(individually_rational(&oracle(&bids), 1e-9));
            let probe_target = rng.random_range(0..n);
            let grid = default_factor_grid();
            let naive = probe_truthfulness(&bids, probe_target, &grid, oracle);
            let incremental = probe_truthfulness(&bids, probe_target, &grid, incremental);
            assert_eq!(
                naive.truthful_utility.to_bits(),
                incremental.truthful_utility.to_bits(),
                "truthful utility diverged, round {round}"
            );
            for ((f_n, u_n), (f_i, u_i)) in naive.utilities.iter().zip(&incremental.utilities) {
                assert_eq!(f_n, f_i);
                assert_eq!(
                    u_n.to_bits(),
                    u_i.to_bits(),
                    "utility at factor {f_n} diverged, round {round}"
                );
            }
        }
    }

    /// Property: DSIC and IR survive the *sealed streaming* path and the
    /// sharded topology — bids routed through a [`crate::sealed::SealedRound`]
    /// (the canonicalization every streamed round passes before the
    /// auction) and solved under `Sharded{8}` peak the misreport grid at
    /// truth, and the sharded outcome is bit-identical to the monolithic
    /// one on the same sealed set (seeded random instances). This pins the
    /// truthfulness theorem for the pipeline the adversary simulator
    /// attacks, not just monolithic batch rounds.
    #[test]
    fn vcg_truthful_and_ir_through_sealed_round_and_sharded_topology() {
        use crate::sealed::SealedRound;
        use crate::shard::MarketTopology;
        use simrng::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EA1);
        for _ in 0..25 {
            let n = rng.random_range(2..12usize);
            let bids: Vec<Bid> = (0..n)
                .map(|i| {
                    Bid::new(
                        i,
                        rng.random_range(0.05..5.0),
                        rng.random_range(1..40usize),
                        rng.random_range(0.1..1.0),
                    )
                })
                .collect();
            let valuation = Valuation::Linear(ClientValue {
                value_per_unit: 0.5,
                base_value: 0.2,
            });
            let config = VcgConfig {
                value_weight: rng.random_range(0.5..20.0),
                cost_weight: rng.random_range(0.5..5.0),
                max_winners: Some(rng.random_range(1..5usize)),
                ..VcgConfig::default()
            };
            let on_topology = |topology: MarketTopology| {
                let auction = VcgAuction::new(VcgConfig { topology, ..config });
                move |profile: &[Bid]| {
                    // The streaming adapter: every round is canonicalized
                    // by SealedRound (sorted by bidder, uniqueness checked)
                    // before it reaches the auction.
                    let sealed = SealedRound::new(0, profile.to_vec());
                    auction.run(sealed.bids(), &valuation)
                }
            };
            let sharded = on_topology(MarketTopology::Sharded { count: 8 });
            let mono = on_topology(MarketTopology::Monolithic);
            let outcome = sharded(&bids);
            assert!(individually_rational(&outcome, 1e-9));
            assert_eq!(
                outcome,
                mono(&bids),
                "sharded reconciliation must be bit-identical to monolithic"
            );
            for i in 0..bids.len() {
                let report = probe_truthfulness(&bids, i, &default_factor_grid(), sharded);
                assert!(
                    report.is_truthful(1e-9),
                    "bidder {i} gains {} (factor {}) through the sealed sharded path",
                    report.max_gain(),
                    report.best_factor
                );
            }
        }
    }

    #[test]
    fn report_grid_alignment() {
        let (bids, v, a) = setup();
        let grid = vec![0.5, 1.0, 2.0];
        let report = probe_truthfulness(&bids, 0, &grid, |b| a.run(b, &v));
        assert_eq!(report.utilities.len(), 3);
        assert_eq!(report.utilities[1].0, 1.0);
        // Utility at factor 1.0 equals the truthful utility.
        assert!((report.utilities[1].1 - report.truthful_utility).abs() < 1e-12);
    }
}
