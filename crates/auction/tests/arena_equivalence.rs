//! Differential suite: the production solver ([`SolverArena`]) must be
//! **bit-identical** to the frozen allocating reference kernels
//! ([`reference_solve_view`]) — same selected indices, same `objective`
//! bits — on every instance, every constraint combination, and every
//! solver kind, with ONE warm arena reused across the whole sweep (so
//! buffer-reuse bugs, stale traceback bits, and under-cleared scratch all
//! surface here).
//!
//! Payments are computed from these objectives, so "close" is not good
//! enough: a one-ULP drift in a leave-one-out welfare is a payment change.
//! Instance sizes straddle every dispatch boundary in `solve_view_into`
//! (exhaustive below 25 budgeted items, knapsack above, top-K when
//! unconstrained by budget).

use auction::properties::reference_solve_view;
use auction::wdp::{SolverArena, SolverKind, WdpInstance, WdpItem, WdpView};
use simrng::rngs::StdRng;
use simrng::{RngExt, SeedableRng};

fn build(items: Vec<WdpItem>, max_winners: Option<usize>, budget: Option<f64>) -> WdpInstance {
    let mut inst = WdpInstance::new(items);
    if let Some(k) = max_winners {
        inst = inst.with_max_winners(k);
    }
    if let Some(b) = budget {
        inst = inst.with_budget(b);
    }
    inst
}

fn random_items(rng: &mut StdRng, n: usize) -> Vec<WdpItem> {
    (0..n)
        .map(|i| WdpItem {
            bidder: i,
            weight: rng.random_range(-5.0..10.0),
            cost: rng.random_range(0.0..5.0),
        })
        .collect()
}

fn assert_bit_identical(
    legacy: &auction::wdp::WdpSolution,
    arena: &auction::wdp::WdpSolution,
    ctx: &str,
) {
    assert_eq!(legacy.selected, arena.selected, "selection diverged: {ctx}");
    assert_eq!(
        legacy.objective.to_bits(),
        arena.objective.to_bits(),
        "objective bits diverged ({} vs {}): {ctx}",
        legacy.objective,
        arena.objective
    );
}

/// 200 seeded instances × 4 constraint combos × 2 solver kinds, one arena
/// for the entire sweep. Sizes 1..=120 cross the exhaustive/knapsack
/// dispatch boundary (25) and force multi-word traceback rows.
///
/// Two more inputs ride along, drawn from their own stream so the 200 base
/// instances stay as they are:
/// * every odd round also solves a copy in which about a third of the
///   items cost exactly 0.0 or less than one grid cell, so those items
///   fill cost cell 0 — `dp[0] > 0` in the uncapped table, positive
///   count planes at cell 0 in the capped one — and the best-cell scan
///   starts from a positive incumbent;
/// * every view solved on the 1000-cell grid is solved again with its
///   first winner skipped (`view.skipping(i)`), the re-solve the naive
///   pivot engine runs on the arena.
#[test]
fn arena_bit_identical_to_legacy_across_combos() {
    let mut rng = StdRng::seed_from_u64(0xA2E4_A0001);
    let mut extra = StdRng::seed_from_u64(0xA2E4_A0005);
    let mut arena = SolverArena::new();
    let mut checked = 0usize;
    for round in 0..200 {
        // Skip the 13..=25 band: budgeted Exact dispatches it to the
        // *shared* exhaustive enumerator (2^n subsets — slow and with no
        // arena-vs-legacy divergence possible), so spend the budget on the
        // knapsack band where the arena actually has its own code path.
        let n = if round % 4 == 0 {
            rng.random_range(1..=12usize)
        } else {
            rng.random_range(26..=96usize)
        };
        let items = random_items(&mut rng, n);
        let k = rng.random_range(1..=n.max(1));
        let budget = rng.random_range(0.0..20.0);
        let mut populations = vec![("base", items.clone())];
        if round % 2 == 1 {
            // Below one cell of the finer (4000-cell) grid, hence of both.
            let mut cheap = items;
            for it in &mut cheap {
                match extra.random_range(0..6u32) {
                    0 => it.cost = 0.0,
                    1 => it.cost = budget * extra.random_range(0.0..1.0) / 4000.0,
                    _ => {}
                }
            }
            populations.push(("cheap", cheap));
        }
        let combos = [
            (None, None),
            (Some(k), None),
            (None, Some(budget)),
            (Some(k), Some(budget)),
        ];
        for (population, items) in &populations {
            for (k, b) in combos {
                let inst = build(items.clone(), k, b);
                let view = WdpView::full(&inst);
                for kind in [SolverKind::Exact, SolverKind::Knapsack { grid: 1000 }] {
                    let legacy = reference_solve_view(&view, kind);
                    let fast = arena.solve_view(&view, kind);
                    let ctx =
                        format!("round={round} {population} n={n} k={k:?} b={b:?} kind={kind:?}");
                    assert_bit_identical(&legacy, &fast, &ctx);
                    checked += 1;
                    let skip = legacy.selected.first().copied().unwrap_or(0);
                    let skipped = view.skipping(skip);
                    // n = 26 minus one item lands in the 2^n band; the
                    // coarse grid keeps the extra reference solves cheap.
                    if kind == SolverKind::Exact || (13..=25).contains(&skipped.len()) {
                        continue;
                    }
                    assert_bit_identical(
                        &reference_solve_view(&skipped, kind),
                        &arena.solve_view(&skipped, kind),
                        &format!("{ctx} skipping={skip}"),
                    );
                }
            }
        }
    }
    assert_eq!(checked, (200 + 100) * 4 * 2);
}

/// Subset views (the sharded path's geometry): the arena must honor the
/// view's index remapping, not assume 0..n.
#[test]
fn arena_matches_legacy_on_subset_views() {
    let mut rng = StdRng::seed_from_u64(0xA2E4_A0002);
    let mut arena = SolverArena::new();
    for round in 0..60 {
        // Alternate tiny exhaustive-band views with wide knapsack-band
        // ones; the 13..=25 band is the shared 2^n enumerator (no arena
        // code, and slow), so it gets no budget here either.
        let (n, step) = if round % 3 == 0 {
            (rng.random_range(6..=24usize), 3)
        } else {
            (rng.random_range(60..=160usize), 2)
        };
        let items = random_items(&mut rng, n);
        let budget = rng.random_range(0.0..15.0);
        let inst = build(items, Some(n / 2 + 1), Some(budget));
        // A deliberately sparse, non-contiguous subset.
        let subset: Vec<usize> = (0..n).step_by(step).collect();
        let view = WdpView::of_subset(&inst, &subset);
        for kind in [SolverKind::Exact, SolverKind::Knapsack { grid: 2000 }] {
            let legacy = reference_solve_view(&view, kind);
            let fast = arena.solve_view(&view, kind);
            let ctx = format!("round={round} n={n} subset kind={kind:?}");
            assert_bit_identical(&legacy, &fast, &ctx);
        }
    }
}

/// Warm-arena order independence: solving a LARGE instance then a small one
/// must not leak the large instance's DP tail or traceback bits into the
/// small solve. (This is the classic reuse bug: `resize` without `clear`.)
#[test]
fn arena_shrinking_instances_do_not_leak_state() {
    let mut rng = StdRng::seed_from_u64(0xA2E4_A0003);
    let mut arena = SolverArena::new();
    // Prime the arena with a big budgeted solve.
    let big_items = random_items(&mut rng, 150);
    let big = build(big_items, Some(40), Some(30.0));
    let _ = arena.solve_view(&WdpView::full(&big), SolverKind::Exact);
    // Now a descending ladder of small instances, fresh-vs-warm.
    for n in [64usize, 31, 26, 12, 5, 1] {
        let items = random_items(&mut rng, n);
        let inst = build(items, Some(n), Some(4.0));
        let view = WdpView::full(&inst);
        for kind in [SolverKind::Exact, SolverKind::Knapsack { grid: 500 }] {
            let legacy = reference_solve_view(&view, kind);
            let warm = arena.solve_view(&view, kind);
            let mut fresh_arena = SolverArena::new();
            let fresh = fresh_arena.solve_view(&view, kind);
            assert_bit_identical(&legacy, &warm, &format!("warm n={n} kind={kind:?}"));
            assert_bit_identical(&legacy, &fresh, &format!("fresh n={n} kind={kind:?}"));
        }
    }
}

/// The non-hot kinds (Exhaustive, GreedyDensity) route through the legacy
/// solver inside the arena; pin that they stay identical too.
#[test]
fn arena_delegated_kinds_match() {
    let mut rng = StdRng::seed_from_u64(0xA2E4_A0004);
    let mut arena = SolverArena::new();
    for _ in 0..30 {
        let n = rng.random_range(1..=10usize);
        let items = random_items(&mut rng, n);
        let inst = build(items, Some(n), Some(6.0));
        let view = WdpView::full(&inst);
        for kind in [SolverKind::Exhaustive, SolverKind::GreedyDensity] {
            let legacy = reference_solve_view(&view, kind);
            let fast = arena.solve_view(&view, kind);
            assert_bit_identical(&legacy, &fast, &format!("n={n} kind={kind:?}"));
        }
    }
}
