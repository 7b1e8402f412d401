//! E14 — Sharded market scaling: partitioning a very large bidder
//! population into independently solved shards reconciled over shard
//! champions keeps per-round memory bounded by the largest shard (never by
//! N), is *bit-identical* to the monolithic mechanism on the top-K rounds
//! LOVM actually runs, and costs only a measured sliver of welfare on
//! budgeted rounds — demonstrated up to a 10⁶-bidder budgeted round at
//! `Sharded{64}`.
//!
//! Shard counts in every table are pinned in code (not taken from
//! `LOVM_SHARDS`), so the output is shard-count and thread-count
//! invariant and can be golden-pinned; only the timing column is masked.

use auction::shard::{solve_sharded_on, MarketTopology, ShardedRound};
use auction::valuation::Valuation;
use auction::vcg::{VcgAuction, VcgConfig};
use auction::wdp::{SolverKind, WdpInstance};
use bench::{header, random_bids, scaled};
use metrics::table::Table;
use std::time::Instant;
use workload::Scenario;

/// The instance every section shares: virtual scores `50·v − 5·c` over the
/// standard random bid population.
fn instance(n: usize, seed: u64) -> WdpInstance {
    let bids = random_bids(n, seed);
    VcgAuction::new(VcgConfig {
        value_weight: 50.0,
        cost_weight: 5.0,
        ..VcgConfig::default()
    })
    .instance(&bids, &Valuation::default())
}

/// Clarke payment total for a solved round: `Σᵢ cᵢ + max(W* − W*₋ᵢ, 0)/Q`
/// — the same formula `vcg::run_with_budget` applies, reproduced here so
/// the topology comparison can read payments straight off a
/// [`ShardedRound`].
fn total_payment(inst: &WdpInstance, round: &ShardedRound, q: f64) -> f64 {
    round
        .solution
        .selected
        .iter()
        .zip(&round.loo_welfares)
        .map(|(&i, &w_minus)| {
            inst.items[i].cost + (round.solution.objective - w_minus).max(0.0) / q
        })
        .sum()
}

fn topology_label(t: MarketTopology) -> String {
    match t {
        MarketTopology::Monolithic => "monolithic".to_string(),
        MarketTopology::Sharded { count } => format!("sharded{{{count}}}"),
    }
}

fn main() {
    let seed = 14u64;
    let n_small = scaled(20_000);
    let n_big = scaled(1_000_000);
    header(
        "E14",
        "sharded market engine: partition → per-shard solve → champion reconciliation",
        &Scenario::large(n_big),
        seed,
    );

    // ---- Section 1: top-K rounds are exact under sharding. -------------
    println!("### top-K exactness (no budget, cap 64): reconciliation over shard champions");
    let inst = {
        let mut i = instance(n_small, seed);
        i.max_winners = Some(64);
        i
    };
    let mono = solve_sharded_on(
        &inst,
        SolverKind::Exact,
        MarketTopology::Monolithic,
        par::Pool::auto(),
    );
    let mut table = Table::new(vec![
        "topology".into(),
        "winners".into(),
        "virtual welfare".into(),
        "bit-identical to monolithic".into(),
    ]);
    for topology in [
        MarketTopology::Monolithic,
        MarketTopology::Sharded { count: 4 },
        MarketTopology::Sharded { count: 64 },
    ] {
        let round = solve_sharded_on(&inst, SolverKind::Exact, topology, par::Pool::auto());
        let identical = round.solution.selected == mono.solution.selected
            && round.solution.objective.to_bits() == mono.solution.objective.to_bits()
            && round
                .loo_welfares
                .iter()
                .zip(&mono.loo_welfares)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        table.row(vec![
            topology_label(topology),
            round.solution.selected.len().to_string(),
            format!("{:.6}", round.solution.objective),
            if identical { "yes".into() } else { "NO".into() },
        ]);
    }
    println!("{}", table.to_markdown());

    // ---- Section 2: budgeted rounds trade a measured welfare sliver. ---
    println!("### budgeted welfare gap vs monolithic (budget = 1% of total reported cost)");
    let inst = {
        let mut i = instance(n_small, seed);
        let total_cost: f64 = i.items.iter().map(|it| it.cost).sum();
        i.budget = Some(0.01 * total_cost);
        i
    };
    let kind = SolverKind::Knapsack { grid: 512 };
    let mono = solve_sharded_on(&inst, kind, MarketTopology::Monolithic, par::Pool::auto());
    let mut table = Table::new(vec![
        "topology".into(),
        "winners".into(),
        "champions".into(),
        "virtual welfare".into(),
        "welfare / monolithic".into(),
        "payments".into(),
    ]);
    for topology in [
        MarketTopology::Monolithic,
        MarketTopology::Sharded { count: 4 },
        MarketTopology::Sharded { count: 16 },
        MarketTopology::Sharded { count: 64 },
    ] {
        let round = solve_sharded_on(&inst, kind, topology, par::Pool::auto());
        table.row(vec![
            topology_label(topology),
            round.solution.selected.len().to_string(),
            round.champions.len().to_string(),
            format!("{:.4}", round.solution.objective),
            format!("{:.5}", round.solution.objective / mono.solution.objective),
            format!("{:.2}", total_payment(&inst, &round, 5.0)),
        ]);
    }
    println!("{}", table.to_markdown());

    // ---- Section 3: the 10⁶-bidder budgeted round. ---------------------
    println!("### million-bidder budgeted round, sharded{{64}} (monolithic intentionally skipped: its DP tables alone scale with N)");
    let inst = {
        // Fixed absolute budget: the winner set — and with it the champion
        // pool, the reconciliation tables, and the payment pass — stays
        // O(budget), not O(N). That is the memory story of this experiment.
        let mut i = instance(n_big, seed);
        i.budget = Some(64.0);
        i
    };
    let topology = MarketTopology::Sharded { count: 64 };
    let start = Instant::now();
    let round = solve_sharded_on(&inst, kind, topology, par::Pool::auto());
    let elapsed = start.elapsed();
    let peak_shard = round.shard_stats.iter().map(|s| s.size).max().unwrap_or(0);
    let provisional: f64 = round.shard_stats.iter().map(|s| s.pivot_mass).sum();
    let mut table = Table::new(vec![
        "bidders".into(),
        "shards".into(),
        "peak shard".into(),
        "champions".into(),
        "winners".into(),
        "virtual welfare".into(),
        "payments".into(),
        "round time".into(),
    ]);
    table.row(vec![
        inst.items.len().to_string(),
        round.shards.to_string(),
        peak_shard.to_string(),
        round.champions.len().to_string(),
        round.solution.selected.len().to_string(),
        format!("{:.4}", round.solution.objective),
        format!("{:.2}", total_payment(&inst, &round, 5.0)),
        format!("{elapsed:?}"),
    ]);
    println!("{}", table.to_markdown());
    println!(
        "pivot mass: reconciliation {:.4} vs per-shard provisional {:.4} (how much champion-level competition re-prices the shard-local pivots)",
        round.pivot_mass(),
        provisional
    );
    println!("expected: top-K rows identical at every shard count; budgeted welfare ratio ≥ 0.99; the 10⁶ row completes at memory bounded by the peak shard + champion pool.");
}
