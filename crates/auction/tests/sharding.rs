//! Property suite for the sharded market engine (`auction::shard`).
//!
//! Two contracts:
//!
//! * **Degenerate exactness** — `Sharded { count: 1 }` is *bit-identical*
//!   to the monolithic path (winners, payments, welfare) across all four
//!   constraint combos (cap × budget), so every existing differential and
//!   golden guarantee carries over to the sharded configuration surface.
//!   For no-budget (top-K) rounds the same holds at *any* shard count.
//! * **Bounded welfare gap** — budgeted sharded rounds achieve at least
//!   `(1 − ε)` of the monolithic welfare on ~100 seeded instances; the
//!   measured `ε` is printed by the test so the bound is an observation,
//!   not a guess.

use auction::bid::Bid;
use auction::shard::MarketTopology;
use auction::valuation::Valuation;
use auction::vcg::{RoundScratch, VcgAuction, VcgConfig};
use auction::wdp::SolverKind;
use auction::AuctionOutcome;
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};

fn random_bids(rng: &mut StdRng, n: usize) -> Vec<Bid> {
    (0..n)
        .map(|i| {
            Bid::new(
                i,
                rng.random_range(0.2..3.0),
                rng.random_range(50..500),
                rng.random_range(0.5..1.0),
            )
        })
        .collect()
}

fn assert_outcomes_bit_identical(a: &AuctionOutcome, b: &AuctionOutcome, context: &str) {
    assert_eq!(
        a.virtual_welfare.to_bits(),
        b.virtual_welfare.to_bits(),
        "{context}: welfare differs ({} vs {})",
        a.virtual_welfare,
        b.virtual_welfare
    );
    assert_eq!(a.winners.len(), b.winners.len(), "{context}: winner count");
    for (x, y) in a.winners.iter().zip(&b.winners) {
        assert_eq!(x.bidder, y.bidder, "{context}: winner set");
        assert_eq!(
            x.payment.to_bits(),
            y.payment.to_bits(),
            "{context}: payment of bidder {}",
            x.bidder
        );
    }
}

fn auction_with(topology: MarketTopology, max_winners: Option<usize>) -> VcgAuction {
    VcgAuction::new(VcgConfig {
        value_weight: 20.0,
        cost_weight: 2.0,
        max_winners,
        topology,
        ..VcgConfig::default()
    })
}

/// `Sharded{1}` must take exactly the monolithic code path: bit-identical
/// winners, payments, and welfare across all four constraint combos
/// (cap? × budget?), at 1 and 4 workers.
#[test]
fn sharded_one_bit_identical_to_monolithic_all_combos() {
    let valuation = Valuation::default();
    let mut rng = StdRng::seed_from_u64(0x0114_E401);
    for round in 0..25 {
        let n = rng.random_range(4..60usize);
        let bids = random_bids(&mut rng, n);
        let budget = rng.random_range(0.05..0.5) * bids.iter().map(|b| b.cost).sum::<f64>();
        for cap in [None, Some(rng.random_range(1..8usize))] {
            for use_budget in [false, true] {
                for pool in [par::Pool::serial(), par::Pool::with_threads(4)] {
                    let mono = auction_with(MarketTopology::Monolithic, cap);
                    let one = auction_with(MarketTopology::Sharded { count: 1 }, cap);
                    let (a, b) = if use_budget {
                        let kind = SolverKind::Knapsack { grid: 512 };
                        (
                            mono.run_with_budget_on(&bids, &valuation, budget, kind, pool),
                            one.run_with_budget_on(&bids, &valuation, budget, kind, pool),
                        )
                    } else {
                        let mut scratch = RoundScratch::new();
                        (
                            mono.run_with_scratch_on(&bids, &valuation, pool, &mut scratch),
                            one.run_with_scratch_on(&bids, &valuation, pool, &mut scratch),
                        )
                    };
                    assert_outcomes_bit_identical(
                        &a,
                        &b,
                        &format!(
                            "round {round} cap {cap:?} budget {use_budget} threads {}",
                            pool.threads()
                        ),
                    );
                }
            }
        }
    }
}

/// The stronger top-K claim behind the `LOVM_SHARDS` knob: for no-budget
/// rounds, *every* shard count reproduces the monolithic outcome bit for
/// bit — winners, payments, welfare.
#[test]
fn topk_rounds_bit_identical_at_any_shard_count() {
    let valuation = Valuation::default();
    let mut rng = StdRng::seed_from_u64(0x0070_B1D5);
    for round in 0..30 {
        let n = rng.random_range(6..150usize);
        let bids = random_bids(&mut rng, n);
        for cap in [None, Some(rng.random_range(1..15usize))] {
            let mono = auction_with(MarketTopology::Monolithic, cap).run(&bids, &valuation);
            for count in [2usize, 5, 16, 64] {
                let sharded =
                    auction_with(MarketTopology::Sharded { count }, cap).run(&bids, &valuation);
                assert_outcomes_bit_identical(
                    &mono,
                    &sharded,
                    &format!("round {round} cap {cap:?} shards {count}"),
                );
            }
        }
    }
}

/// Budgeted sharded rounds: welfare within `(1 − ε)` of monolithic over
/// ~100 seeded instances (cap and no-cap variants), with the measured
/// worst-case `ε` printed. The budget is tight enough to bind inside every
/// shard, which is the regime where champions can actually lose welfare.
#[test]
fn budgeted_sharded_welfare_within_epsilon() {
    let valuation = Valuation::default();
    let mut rng = StdRng::seed_from_u64(0xE145_11A2);
    let kind = SolverKind::Knapsack { grid: 512 };
    let mut worst_eps = 0.0f64;
    let mut rounds = 0usize;
    for _ in 0..50 {
        let n = rng.random_range(60..220usize);
        let bids = random_bids(&mut rng, n);
        let budget = rng.random_range(0.02..0.08) * bids.iter().map(|b| b.cost).sum::<f64>();
        for cap in [None, Some(rng.random_range(4..20usize))] {
            rounds += 1;
            let shards = MarketTopology::Sharded {
                count: rng.random_range(2..9usize),
            };
            let mono = auction_with(MarketTopology::Monolithic, cap)
                .run_with_budget(&bids, &valuation, budget, kind);
            let sharded =
                auction_with(shards, cap).run_with_budget(&bids, &valuation, budget, kind);
            assert!(
                mono.virtual_welfare > 0.0,
                "degenerate instance: zero monolithic welfare"
            );
            let eps = 1.0 - sharded.virtual_welfare / mono.virtual_welfare;
            worst_eps = worst_eps.max(eps);
            assert!(
                eps <= 0.10,
                "sharded welfare {} fell more than 10% below monolithic {}",
                sharded.virtual_welfare,
                mono.virtual_welfare
            );
        }
    }
    println!(
        "sharding welfare gap over {rounds} budgeted instances: measured ε = {worst_eps:.5} \
         (sharded ≥ (1 − ε) · monolithic)"
    );
}
