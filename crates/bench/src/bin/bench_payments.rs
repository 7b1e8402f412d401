//! Payment-rule microbenchmarks: one full VCG round (allocation + Clarke
//! pivots), the incremental-vs-naive leave-one-out engine comparison, and
//! critical-value bisection payments.
//!
//! Row names carry the payment engine in use (`naive` = the per-winner
//! re-solve oracle `auction::properties::naive_vcg`, `incremental` = the
//! auction's shared forward/backward pass — `auction::pivots`). The
//! `payment_engine` group is the scaling report the CI gate reads: at
//! n = 1024 the incremental engine must beat the naive one on a single
//! worker, because the win is algorithmic (O(n·G) total vs O(n²·G)), not
//! core-count-dependent.

use auction::bid::Bid;
use auction::critical::critical_value;
use auction::properties::naive_vcg;
use auction::shard::MarketTopology;
use auction::valuation::Valuation;
use auction::vcg::{VcgAuction, VcgConfig};
use auction::wdp::SolverKind;
use bench::harness::Bencher;
use bench::random_bids as bids;
use par::Pool;
use std::hint::black_box;

fn main() {
    let valuation = Valuation::default();

    let mut vcg = Bencher::new("vcg_full_round");
    for n in [100usize, 1000, 10000] {
        let all = bids(n, 1);
        let auction = VcgAuction::new(VcgConfig {
            value_weight: 50.0,
            cost_weight: 5.0,
            max_winners: Some(20),
            ..VcgConfig::default()
        });
        vcg.bench(&format!("{n}_incremental"), || {
            auction.run(black_box(&all), &valuation)
        });
    }

    // The engine comparison: identical budgeted instances, payments
    // computed by the naive per-winner re-solve vs the incremental
    // leave-one-out engine, both pinned to one worker so the measured gap
    // is the algorithm, not the core count. The two rows produce
    // bit-identical outcomes (differential suite), so this is a pure
    // like-for-like timing.
    let mut engines = Bencher::new("payment_engine");
    for n in [64usize, 256, 1024] {
        let all = bids(n, 3);
        let auction = VcgAuction::new(VcgConfig {
            value_weight: 50.0,
            cost_weight: 5.0,
            max_winners: None,
            ..VcgConfig::default()
        });
        // ~40% of total reported cost keeps roughly half the population
        // winning, so there are Θ(n) pivots to price.
        let budget = 0.4 * all.iter().map(|b| b.cost).sum::<f64>();
        let kind = SolverKind::Knapsack { grid: 512 };
        let naive_ns = engines
            .bench(&format!("{n}_naive"), || {
                naive_vcg(&auction, black_box(&all), &valuation, Some(budget), kind)
            })
            .median_ns;
        let incremental_ns = engines
            .bench(&format!("{n}_incremental"), || {
                auction.run_with_budget_on(
                    black_box(&all),
                    &valuation,
                    budget,
                    kind,
                    Pool::serial(),
                )
            })
            .median_ns;
        eprintln!(
            "payment_engine/{n}: incremental {:.2}x faster than naive (1 worker)",
            naive_ns / incremental_ns
        );
    }

    // Shard scale: at n = 4096 the naive engine is far out of budget, so
    // the trajectory is tracked monolithic-vs-sharded on the incremental
    // engine. Rows carry the topology; the budget is tight enough to bind
    // inside every shard (the regime sharding is for), and one worker
    // keeps the comparison about the pipeline, not the core count.
    {
        let n = 4096usize;
        let all = bids(n, 3);
        let budget = 0.02 * all.iter().map(|b| b.cost).sum::<f64>();
        let kind = SolverKind::Knapsack { grid: 512 };
        let mut row = |label: &str, topology: MarketTopology| {
            let auction = VcgAuction::new(VcgConfig {
                value_weight: 50.0,
                cost_weight: 5.0,
                topology,
                ..VcgConfig::default()
            });
            engines
                .bench(&format!("{n}_{label}_incremental"), || {
                    auction.run_with_budget_on(
                        black_box(&all),
                        &valuation,
                        budget,
                        kind,
                        Pool::serial(),
                    )
                })
                .median_ns
        };
        let mono_ns = row("monolithic", MarketTopology::Monolithic);
        let sharded_ns = row("sharded16", MarketTopology::Sharded { count: 16 });
        eprintln!(
            "payment_engine/{n}: sharded{{16}} {:.2}x vs monolithic (1 worker)",
            mono_ns / sharded_ns
        );
    }

    // Pool scaling of the incremental engine's per-winner merge fan-out
    // (the residual parallel surface once the DP tables are shared).
    let mut loo = Bencher::new("vcg_loo_pivots");
    let threads = par::configured_threads();
    for n in [64usize, 128] {
        let all = bids(n, 3);
        let auction = VcgAuction::new(VcgConfig {
            value_weight: 50.0,
            cost_weight: 5.0,
            max_winners: None,
            ..VcgConfig::default()
        });
        let budget = 0.4 * all.iter().map(|b| b.cost).sum::<f64>();
        let serial_ns = loo
            .bench(&format!("{n}_incremental_serial"), || {
                auction.run_with_budget_on(
                    black_box(&all),
                    &valuation,
                    budget,
                    SolverKind::Exact,
                    Pool::serial(),
                )
            })
            .median_ns;
        let pool_ns = loo
            .bench(&format!("{n}_incremental_threads{threads}"), || {
                auction.run_with_budget_on(
                    black_box(&all),
                    &valuation,
                    budget,
                    SolverKind::Exact,
                    Pool::auto(),
                )
            })
            .median_ns;
        eprintln!(
            "vcg_loo_pivots/{n}: speedup {:.2}x at {threads} thread(s)",
            serial_ns / pool_ns
        );
    }

    let mut crit = Bencher::new("critical_value_bisection");
    for n in [50usize, 200] {
        let all = bids(n, 2);
        // Monotone rule: top-10 by value/cost density.
        let wins = move |bs: &[Bid]| -> bool {
            let mut order: Vec<usize> = (0..bs.len()).collect();
            order.sort_by(|&a, &b| {
                let da = valuation.client_value(&bs[a]) / bs[a].cost.max(1e-9);
                let db = valuation.client_value(&bs[b]) / bs[b].cost.max(1e-9);
                db.partial_cmp(&da).unwrap()
            });
            order[..10].contains(&0)
        };
        crit.bench(&n.to_string(), || {
            critical_value(black_box(&all), 0, 10.0, 1e-6, wins)
        });
    }
}
