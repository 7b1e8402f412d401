//! Incremental leave-one-out welfare engine for Clarke pivots.
//!
//! VCG payments need, for every winner `i`, the optimal welfare `W*₋ᵢ` of
//! the instance with `i` excluded. Re-solving the winner-determination
//! problem from scratch per winner costs `n` full solves — O(n² log n) for
//! top-K instances and O(n²·G) for the budgeted knapsack — and dominates
//! every round. This module computes the same quantities incrementally:
//!
//! * **Top-K / unconstrained** (no budget): one stable sort of the full
//!   preference order. Removing one item never reorders the rest, so each
//!   reduced optimum is a splice of that single order — the surviving
//!   winners plus the first displaced candidate. O(n log n + n·K) total.
//! * **Budgeted knapsack**: one forward and one backward DP sweep over the
//!   candidate sequence, then a per-winner merge of `prefix[i−1] ⊕
//!   suffix[i+1]` over the cost grid. O(n·G) table work total instead of
//!   O(n²·G), with the per-winner merges fanned out on [`par::Pool`].
//!
//! **Bit-compatibility contract.** The engine is drop-in for the naive
//! re-solve: `W*₋ᵢ` (and hence every payment) is bit-identical to
//! `solve(inst.without_item(i), kind).objective`. This works because the
//! engine never sums welfare from precomputed aggregates — it determines
//! the reduced instance's *selected set* incrementally and then recomputes
//! the objective exactly the way [`crate::wdp`] does: canonical
//! ascending-index order, left-to-right float adds. The budgeted merge
//! runs the solver's own DP body — the arena's candidate lanes and grid
//! rounding, the one item-step kernel, the one traceback walk, and the
//! budget repair. The differential suite (`tests/pivot_equivalence.rs`)
//! pins this across all four constraint combinations, against the naive
//! re-solve on the arena and end to end against
//! [`crate::properties::naive_vcg`], which re-solves on the frozen
//! reference kernels. Solver kinds the engine has no incremental
//! formulation for (exhaustive, greedy, or instances crossing the
//! exhaustive-dispatch size boundary) fall back to the naive re-solve on
//! the arena, preserving the contract trivially.
//!
//! Scope of the guarantee: the top-K path is unconditionally bit-identical
//! (a stable sort makes every reduced order a splice of the full one, ties
//! included). The budgeted DP-merge path guarantees bit-identity whenever
//! the reduced instance's optimal *selection* is unique at the DP's
//! comparison epsilon — always the case for cost/weight draws from
//! continuous distributions, which is what LOVM markets produce. On
//! adversarially tied instances (distinct subsets with exactly equal
//! welfare, e.g. duplicated integer weights) the naive sequential DP and
//! the prefix/suffix merge may break the tie toward different — equally
//! DP-optimal — selections, and once budget repair acts on those different
//! sets the welfares and payments need no longer agree at all.

use crate::wdp::{
    fill_preference_order, knapsack_step, knapsack_walk, repair_overspend, LooScratch, SolverArena,
    SolverKind, WdpInstance, WdpView, DP_EPS,
};

/// Which engine computes `W*₋ᵢ` pivot welfares. Production rounds always
/// run the incremental engine; this selector exists so tests and benches
/// can hold it against the naive reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaymentStrategy {
    /// Re-solve the reduced instance from scratch for every pivot — the
    /// textbook O(n) independent solves. The differential-testing
    /// reference (end to end: [`crate::properties::naive_vcg`]) and the
    /// fallback for odd solver kinds.
    Naive,
    /// Incremental leave-one-out engine: shared sorted-order / DP-table
    /// passes, per-pivot merge. Bit-identical to [`Self::Naive`].
    Incremental,
}

/// Computes `W*₋ᵢ = solve(inst.without_item(i), kind).objective` for every
/// `i` in `targets` (indices into `inst.items`), in target order.
///
/// With `PaymentStrategy::Incremental` the result is bit-identical to the
/// naive per-target re-solve (see module docs) at a fraction of the cost.
/// Per-target work is fanned out on `pool`; output does not depend on the
/// worker count.
pub fn leave_one_out_welfares_on(
    inst: &WdpInstance,
    targets: &[usize],
    kind: SolverKind,
    strategy: PaymentStrategy,
    pool: par::Pool,
) -> Vec<f64> {
    let view = WdpView::full(inst);
    let mut out = Vec::new();
    leave_one_out_welfares_view_into(
        &view,
        targets,
        kind,
        strategy,
        pool,
        &mut SolverArena::new(),
        &mut out,
    );
    out
}

/// [`leave_one_out_welfares_on`] generalized to a sub-instance view —
/// `W*₋ᵢ` of the view with target `i` (a parent index that must be a view
/// member) excluded — into caller-recycled buffers: `out`
/// receives one welfare per target (in target order, cleared first).
/// `Incremental` runs the engine every auction round uses; `Naive` is the
/// reference re-solve and allocates per call.
pub fn leave_one_out_welfares_view_into(
    view: &WdpView<'_>,
    targets: &[usize],
    kind: SolverKind,
    strategy: PaymentStrategy,
    pool: par::Pool,
    arena: &mut SolverArena,
    out: &mut Vec<f64>,
) {
    match strategy {
        PaymentStrategy::Naive => {
            let _pivots_span = telemetry::hist!("solve.pivots_ns").span();
            out.clear();
            out.append(&mut naive_loo(view, targets, kind, pool));
        }
        PaymentStrategy::Incremental => {
            incremental_loo_view_into(view, targets, kind, pool, arena, out)
        }
    }
}

/// The incremental engine every auction round runs: `W*₋ᵢ` of `view` for
/// every target into caller-recycled buffers. The pivot lanes of `arena`
/// hold every DP table, snapshot, and reconstruction buffer, and `out`
/// receives one welfare per target (in target order, cleared first).
///
/// A serial caller (`LOVM_THREADS=1`) that keeps `arena` and `out` alive
/// across rounds runs the hot engines (top-K splice, budgeted DP merge)
/// with zero steady-state heap allocations. Parallel per-target fan-out
/// gives each worker its own [`LooScratch`] via [`par::Pool::run_with`],
/// so no buffer is shared and — per the pool's determinism contract — the
/// welfares are bit-identical at any worker count. Solver kinds without
/// an incremental formulation fall back to the naive re-solve, which
/// still allocates per call.
pub(crate) fn incremental_loo_view_into(
    view: &WdpView<'_>,
    targets: &[usize],
    kind: SolverKind,
    pool: par::Pool,
    arena: &mut SolverArena,
    out: &mut Vec<f64>,
) {
    // One LOO pivot pass per call: the `solve.pivots_ns` span covers the
    // whole engine. Inert unless telemetry is enabled; records only wall
    // time, never an output bit.
    let _pivots_span = telemetry::hist!("solve.pivots_ns").span();
    match (view.budget(), kind) {
        (None, SolverKind::Exact) | (None, SolverKind::Knapsack { .. }) => {
            topk_loo(view, targets, pool, arena, out)
        }
        (Some(_), SolverKind::Knapsack { grid }) => {
            merge_loo(view, targets, grid, kind, pool, arena, out)
        }
        // `Exact` dispatches reduced instances of ≤ 25 items to
        // exhaustive search; the DP merge only mirrors the knapsack
        // path, so it applies once every reduced instance is knapsack-
        // dispatched (n − 1 > 25).
        (Some(_), SolverKind::Exact) if view.len() > 26 => {
            merge_loo(view, targets, 4000, kind, pool, arena, out)
        }
        _ => {
            out.clear();
            out.append(&mut naive_loo(view, targets, kind, pool));
        }
    }
}

/// The naive engine: one full arena re-solve per excluded target, each on
/// an allocation-free skip view (bit-identical to re-solving the
/// materialized `without_item` clone — same item sequence, same float
/// order).
fn naive_loo(view: &WdpView<'_>, targets: &[usize], kind: SolverKind, pool: par::Pool) -> Vec<f64> {
    pool.map(targets, |&i| {
        SolverArena::new()
            .solve_view(&view.skipping(i), kind)
            .objective
    })
}

/// Incremental engine for instances without a budget constraint.
///
/// `top_k` sorts the positive-weight items by descending weight (index
/// ascending on ties — the stable order) and truncates; removing any
/// single item never changes the relative order of the rest, so every
/// reduced optimum reads directly off the full order: the surviving top-K
/// plus (when the cap was binding) the first displaced candidate.
///
/// The order lives in `arena.order`; per-target reconstruction uses the
/// worker's [`LooScratch`], and the final sum is the canonical
/// ascending-index left-to-right fold `WdpSolution::from_view` computes.
fn topk_loo(
    view: &WdpView<'_>,
    targets: &[usize],
    pool: par::Pool,
    arena: &mut SolverArena,
    out: &mut Vec<f64>,
) {
    match view.max_winners() {
        None => {
            // Reduced optimum = every positive item except the target.
            // Filtered in index order, which *is* the canonical order, so
            // each pivot is one allocation-free skip-one fold.
            arena.order.clear();
            arena
                .order
                .extend(view.indices().filter(|&i| view.item(i).weight > 0.0));
            let positives = &arena.order;
            pool.run_with(targets.len(), &mut arena.loo, LooScratch::default, out, {
                |_scratch, ti| {
                    let t = targets[ti];
                    positives
                        .iter()
                        .filter(|&&i| i != t)
                        .map(|&i| view.item(i).weight)
                        .sum()
                }
            });
        }
        Some(k) => {
            fill_preference_order(view, &mut arena.order);
            let order = &arena.order;
            pool.run_with(targets.len(), &mut arena.loo, LooScratch::default, out, {
                |scratch: &mut LooScratch, ti| {
                    let t = targets[ti];
                    let pos = order.iter().position(|&i| i == t);
                    scratch.selected.clear();
                    match pos {
                        Some(p) if p < k => {
                            // The target was in the money: the other
                            // winners stay and the first displaced
                            // candidate (if any) slides in.
                            scratch.selected.extend(
                                order[..k.min(order.len())]
                                    .iter()
                                    .copied()
                                    .filter(|&i| i != t),
                            );
                            if let Some(&d) = order.get(k) {
                                scratch.selected.push(d);
                            }
                        }
                        // The target never won (or has non-positive
                        // weight): removing it leaves the top-K untouched.
                        _ => scratch
                            .selected
                            .extend_from_slice(&order[..k.min(order.len())]),
                    }
                    // Canonical objective: ascending-index, left-to-right
                    // sum — exactly what `WdpSolution::from_view` computes
                    // for the reduced view.
                    scratch.selected.sort_unstable();
                    scratch.selected.iter().map(|&i| view.item(i).weight).sum()
                }
            });
        }
    }
}

/// Incremental engine for budgeted instances: forward/backward knapsack DP
/// tables over the candidate sequence, merged per target.
///
/// The reduced instance's candidate roster is the full roster minus the
/// target, in the same order, with the same grid geometry, so the naive
/// LOO DP's state after the prefix is exactly the forward table — the
/// merge only has to pick the optimal budget split between prefix and
/// suffix and reconstruct each half from its taken flags. The reconstructed
/// set is re-summed canonically, which is what makes the result
/// bit-identical to the naive re-solve rather than merely equal to
/// float noise.
fn merge_loo(
    view: &WdpView<'_>,
    targets: &[usize],
    grid: usize,
    kind: SolverKind,
    pool: par::Pool,
    arena: &mut SolverArena,
    out: &mut Vec<f64>,
) {
    // The reduced instance drops one candidate, so its DP geometry is
    // computed from m − 1 candidates — identical for every target.
    let (budget, geometry) = arena.load_knapsack_lanes(view, grid, 1);
    let (kmax, width) = geometry;
    let SolverArena {
        cand,
        gcosts,
        weights,
        dp,
        snap_pos,
        fwd_taken,
        bwd_taken,
        fwd_snap,
        bwd_snap,
        loo,
        ..
    } = arena;
    let m = cand.len();
    let rows = kmax.map_or(1, |k| k + 1);
    let grid_eff = width - 1;

    // Table-size guard: past this the snapshot/flag memory outweighs the
    // saved solves, so hand the job back to the naive engine.
    snap_pos.clear();
    snap_pos.extend(targets.iter().filter_map(|&t| cand.binary_search(&t).ok()));
    snap_pos.sort_unstable();
    snap_pos.dedup();
    let cells = rows * width;
    if m.saturating_mul(cells) > (1 << 28) || snap_pos.len().saturating_mul(cells) > (1 << 24) {
        out.clear();
        out.append(&mut naive_loo(view, targets, kind, pool));
        return;
    }

    // Any target that is not a knapsack candidate leaves the DP unchanged:
    // its reduced optimum is the full optimum (computed over the same
    // candidate roster, hence the same floats). Cold path — LOVM targets
    // are winners, which are always candidates — so the fresh arena's
    // allocations don't touch the steady state.
    let full_objective = if targets.iter().any(|&t| cand.binary_search(&t).is_err()) {
        SolverArena::new()
            .solve_view(view, SolverKind::Knapsack { grid })
            .objective
    } else {
        0.0
    };
    if m == 0 {
        out.clear();
        out.extend(targets.iter().map(|_| full_objective));
        return;
    }

    // Forward sweep: fwd state before processing cand[p] is bit-identical
    // to the naive LOO DP's state after the prefix cand[0..p] (same items,
    // same order, same update rule). Backward sweep mirrors it from the
    // end, so the snapshot at p covers exactly the suffix cand[p+1..].
    // Snapshots are rows of one flat arena buffer (`snaps * cells`).
    let snaps = snap_pos.len();
    fwd_taken.reset(m, cells);
    fwd_snap.clear();
    fwd_snap.resize(snaps * cells, 0.0);
    dp.clear();
    dp.resize(cells, 0.0);
    let mut sat = 0usize;
    for t in 0..m {
        if let Ok(s) = snap_pos.binary_search(&t) {
            fwd_snap[s * cells..(s + 1) * cells].copy_from_slice(dp);
        }
        sat = knapsack_step(dp, fwd_taken, t, geometry, gcosts[t], weights[t], sat);
    }
    bwd_taken.reset(m, cells);
    bwd_snap.clear();
    bwd_snap.resize(snaps * cells, 0.0);
    dp.clear();
    dp.resize(cells, 0.0);
    let mut sat = 0usize;
    for t in (0..m).rev() {
        if let Ok(s) = snap_pos.binary_search(&t) {
            bwd_snap[s * cells..(s + 1) * cells].copy_from_slice(dp);
        }
        sat = knapsack_step(dp, bwd_taken, t, geometry, gcosts[t], weights[t], sat);
    }

    // Per-target merge: pick the best prefix/suffix split of the budget
    // (and of the winner count, when capped), reconstruct both halves from
    // their flags in the naive walk's descending order, repair, re-sum.
    // Shared-borrow the tables for the fan-out; each worker reconstructs
    // into its own `LooScratch`.
    let (cand, gcosts, snap_pos) = (&*cand, &*gcosts, &*snap_pos);
    let (fwd_taken, bwd_taken) = (&*fwd_taken, &*bwd_taken);
    let (fwd_snap, bwd_snap) = (&*fwd_snap, &*bwd_snap);
    pool.run_with(targets.len(), loo, LooScratch::default, out, {
        |scratch: &mut LooScratch, ti| {
            let t = targets[ti];
            let Ok(p) = cand.binary_search(&t) else {
                return full_objective;
            };
            if m == 1 {
                // Reduced instance has no candidates at all. (Summed, not
                // a literal zero: an empty float sum is −0.0 and the
                // contract is bit-identity.)
                scratch.selected.clear();
                return scratch.selected.iter().map(|&i| view.item(i).weight).sum();
            }
            let s = snap_pos
                .binary_search(&p)
                .expect("snapshot recorded for every candidate target");
            let fs = &fwd_snap[s * cells..(s + 1) * cells];
            let bs = &bwd_snap[s * cells..(s + 1) * cells];

            // Best split, scanned low-to-high with the DP's
            // strict-improvement epsilon. Both tables are monotone in count
            // and cost, so each prefix state pairs with the full remaining
            // capacity.
            let mut best = f64::NEG_INFINITY;
            let (mut bj1, mut bc1) = (0usize, 0usize);
            for j1 in 0..rows {
                let j2 = rows - 1 - j1;
                for c1 in 0..width {
                    let v = fs[j1 * width + c1] + bs[j2 * width + (grid_eff - c1)];
                    if v > best + DP_EPS {
                        best = v;
                        bj1 = j1;
                        bc1 = c1;
                    }
                }
            }

            // Suffix walk (forward through items, as the backward table
            // was built last-item-first), then reversed in place so the
            // combined vector is in the naive reconstruction's descending
            // item order.
            scratch.selected.clear();
            knapsack_walk(
                bwd_taken,
                (p + 1)..m,
                cand,
                gcosts,
                geometry,
                (rows - 1 - bj1, grid_eff - bc1),
                &mut scratch.selected,
            );
            scratch.selected.reverse();
            knapsack_walk(
                fwd_taken,
                (0..p).rev(),
                cand,
                gcosts,
                geometry,
                (bj1, bc1),
                &mut scratch.selected,
            );
            repair_overspend(view, &mut scratch.selected, budget, &mut scratch.repair);
            // Canonical objective: ascending-index, left-to-right sum.
            scratch.selected.sort_unstable();
            scratch.selected.iter().map(|&i| view.item(i).weight).sum()
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wdp::{solve, WdpItem};
    use simrng::{rngs::StdRng, RngExt, SeedableRng};

    fn item(bidder: usize, weight: f64, cost: f64) -> WdpItem {
        WdpItem {
            bidder,
            weight,
            cost,
        }
    }

    fn assert_bits_equal(a: &[f64], b: &[f64], context: &str) {
        assert_eq!(a.len(), b.len(), "{context}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: target {i} incremental {x} vs naive {y}"
            );
        }
    }

    fn both(inst: &WdpInstance, targets: &[usize], kind: SolverKind) -> (Vec<f64>, Vec<f64>) {
        let pool = par::Pool::serial();
        (
            leave_one_out_welfares_on(inst, targets, kind, PaymentStrategy::Incremental, pool),
            leave_one_out_welfares_on(inst, targets, kind, PaymentStrategy::Naive, pool),
        )
    }

    #[test]
    fn topk_displacement_pivot() {
        // Weights 8, 5, 3; K = 2 → winners {0, 1}; removing a winner
        // promotes item 2.
        let inst = WdpInstance::new(vec![
            item(0, 8.0, 1.0),
            item(1, 5.0, 1.0),
            item(2, 3.0, 1.0),
        ])
        .with_max_winners(2);
        let (inc, naive) = both(&inst, &[0, 1], SolverKind::Exact);
        assert_bits_equal(&inc, &naive, "topk displacement");
        assert_eq!(inc, vec![5.0 + 3.0, 8.0 + 3.0]);
    }

    #[test]
    fn unconstrained_pivot_drops_only_target() {
        let inst = WdpInstance::new(vec![
            item(0, 2.5, 1.0),
            item(1, -1.0, 1.0),
            item(2, 4.25, 1.0),
        ]);
        let (inc, naive) = both(&inst, &[0, 2], SolverKind::Exact);
        assert_bits_equal(&inc, &naive, "unconstrained");
        assert_eq!(inc, vec![4.25, 2.5]);
    }

    #[test]
    fn loser_target_leaves_topk_unchanged() {
        let inst = WdpInstance::new(vec![
            item(0, 8.0, 1.0),
            item(1, 5.0, 1.0),
            item(2, 3.0, 1.0),
        ])
        .with_max_winners(2);
        let (inc, naive) = both(&inst, &[2], SolverKind::Exact);
        assert_bits_equal(&inc, &naive, "loser target");
        assert_eq!(inc, vec![13.0]);
    }

    #[test]
    fn merge_engine_single_candidate_reduces_to_empty() {
        let inst = WdpInstance::new(vec![item(0, 3.1, 1.3), item(1, -2.0, 0.5)]).with_budget(4.0);
        let (inc, naive) = both(&inst, &[0], SolverKind::Knapsack { grid: 64 });
        assert_bits_equal(&inc, &naive, "single candidate");
        assert_eq!(inc, vec![0.0]);
    }

    #[test]
    fn merge_engine_matches_naive_on_random_budgeted_instances() {
        let mut rng = StdRng::seed_from_u64(0x9107_5EED);
        for round in 0..40 {
            let n = rng.random_range(2..30usize);
            let items: Vec<WdpItem> = (0..n)
                .map(|i| item(i, rng.random_range(-2.0..9.0), rng.random_range(0.01..4.0)))
                .collect();
            let budget = rng.random_range(0.5..8.0);
            let grid = rng.random_range(32..400usize);
            let mut inst = WdpInstance::new(items).with_budget(budget);
            if rng.random() {
                inst = inst.with_max_winners(rng.random_range(1..8usize));
            }
            let kind = SolverKind::Knapsack { grid };
            let sol = solve(&inst, kind);
            let (inc, naive) = both(&inst, &sol.selected, kind);
            assert_bits_equal(&inc, &naive, &format!("random budgeted round {round}"));
        }
    }

    #[test]
    fn zero_budget_keeps_free_items_only() {
        let inst = WdpInstance::new(vec![
            item(0, 5.5, 1.0),
            item(1, 2.25, 0.0),
            item(2, 1.125, 0.0),
        ])
        .with_budget(0.0);
        let kind = SolverKind::Knapsack { grid: 50 };
        let sol = solve(&inst, kind);
        assert_eq!(sol.selected, vec![1, 2]);
        let (inc, naive) = both(&inst, &sol.selected, kind);
        assert_bits_equal(&inc, &naive, "zero budget");
        assert_eq!(inc, vec![1.125, 2.25]);
    }

    #[test]
    fn non_candidate_target_returns_full_objective() {
        // Item 1 has negative weight: never a candidate, so excluding it
        // changes nothing.
        let inst = WdpInstance::new(vec![
            item(0, 3.3, 1.0),
            item(1, -1.0, 1.0),
            item(2, 2.2, 1.0),
        ])
        .with_budget(5.0);
        let kind = SolverKind::Knapsack { grid: 100 };
        let full = solve(&inst, kind).objective;
        let (inc, naive) = both(&inst, &[1], kind);
        assert_bits_equal(&inc, &naive, "non-candidate");
        assert_eq!(inc[0].to_bits(), full.to_bits());
    }

    #[test]
    fn exhaustive_kind_falls_back_to_naive() {
        let inst = WdpInstance::new(vec![
            item(0, 6.0, 10.0),
            item(1, 4.0, 4.0),
            item(2, 3.0, 3.0),
        ])
        .with_budget(8.0);
        let (inc, naive) = both(&inst, &[1, 2], SolverKind::Exhaustive);
        assert_bits_equal(&inc, &naive, "exhaustive fallback");
    }

    #[test]
    fn pool_fanout_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(0xFA11);
        let items: Vec<WdpItem> = (0..40)
            .map(|i| item(i, rng.random_range(0.1..9.0), rng.random_range(0.05..3.0)))
            .collect();
        let inst = WdpInstance::new(items).with_budget(12.0);
        let kind = SolverKind::Knapsack { grid: 256 };
        let sol = solve(&inst, kind);
        let serial = leave_one_out_welfares_on(
            &inst,
            &sol.selected,
            kind,
            PaymentStrategy::Incremental,
            par::Pool::serial(),
        );
        let pooled = leave_one_out_welfares_on(
            &inst,
            &sol.selected,
            kind,
            PaymentStrategy::Incremental,
            par::Pool::with_threads(4),
        );
        assert_bits_equal(&pooled, &serial, "pool fanout");
    }
}
