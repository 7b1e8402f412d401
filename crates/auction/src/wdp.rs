//! Winner-determination problem (WDP) solvers.
//!
//! The per-round problem is: given items with *score* `w_i` (already
//! combining platform value and weighted cost, e.g. `w_i = V·v_i − Q·c_i`)
//! and money cost `c_i`, choose a subset maximizing `Σ w_i` subject to an
//! optional cardinality cap and an optional budget cap on `Σ c_i`.
//!
//! Exact solutions are required for VCG truthfulness; this module provides
//! exact solvers for every constraint combination used by LOVM, plus a
//! greedy approximation and a fractional upper bound used by baselines and
//! the experiment harness.
//!
//! [`SolverArena`] is the one solver: every caller, [`solve`] included,
//! runs its dispatch. Its budgeted DP body (candidate filter, item-step
//! kernel, traceback walk) is shared with the leave-one-out engine in
//! `crate::pivots`. The original allocating top-K and knapsack kernels
//! live on as the frozen test and bench reference,
//! [`crate::properties::reference_solve_view`].

/// Strict-improvement epsilon of every DP/scan comparison in the solver
/// stack: a candidate value only replaces an incumbent when it exceeds it
/// by more than `DP_EPS`.
///
/// Payments depend on this constant **bitwise**: the epsilon decides which
/// of two near-tied states wins, that decision picks the reconstructed
/// winner set, and the winner set drives every pivot welfare and payment
/// float downstream. The golden corpus, `pivot_equivalence`, and the
/// arena differential suite all pin outputs produced under this exact
/// value and comparison shape (`new > old + DP_EPS`), so any change to the
/// epsilon — or to the order the comparisons are evaluated in — is a
/// payment-breaking change, not a tuning knob.
pub const DP_EPS: f64 = 1e-15;

/// One candidate in a winner-determination instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WdpItem {
    /// Stable bidder identifier carried through to the outcome.
    pub bidder: usize,
    /// Selection score (may be negative; negative items are never selected).
    pub weight: f64,
    /// Money cost counted against the budget constraint (must be ≥ 0).
    pub cost: f64,
}

/// A winner-determination instance.
#[derive(Debug, Clone, PartialEq)]
pub struct WdpInstance {
    /// Candidate items.
    pub items: Vec<WdpItem>,
    /// Maximum number of winners (`None` = unlimited).
    pub max_winners: Option<usize>,
    /// Budget cap on total selected cost (`None` = unlimited).
    pub budget: Option<f64>,
}

impl WdpInstance {
    /// Creates an unconstrained instance.
    pub fn new(items: Vec<WdpItem>) -> Self {
        WdpInstance {
            items,
            max_winners: None,
            budget: None,
        }
    }

    /// Adds a cardinality cap.
    pub fn with_max_winners(mut self, k: usize) -> Self {
        self.max_winners = Some(k);
        self
    }

    /// Adds a budget cap.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is negative or non-finite.
    pub fn with_budget(mut self, budget: f64) -> Self {
        assert!(
            budget.is_finite() && budget >= 0.0,
            "budget must be finite and >= 0"
        );
        self.budget = Some(budget);
        self
    }

    /// Objective value of a candidate selection (indices into `items`).
    pub fn objective(&self, selected: &[usize]) -> f64 {
        selected.iter().map(|&i| self.items[i].weight).sum()
    }

    /// Total cost of a candidate selection.
    pub fn total_cost(&self, selected: &[usize]) -> f64 {
        selected.iter().map(|&i| self.items[i].cost).sum()
    }

    /// Whether a selection satisfies both constraints (delegates to the
    /// full view so the comparison logic exists exactly once).
    pub fn feasible(&self, selected: &[usize]) -> bool {
        WdpView::full(self).feasible(selected)
    }

    /// Returns the instance with item `idx` removed (for Clarke pivots).
    ///
    /// This materializes a new `Vec` of items; the hot paths (the naive
    /// pivot engine, the shard pipeline) use the allocation-free
    /// [`WdpView`] instead — `WdpView::full(inst).skipping(idx)` visits
    /// exactly the same item sequence without the O(n) clone.
    pub fn without_item(&self, idx: usize) -> WdpInstance {
        let mut items = self.items.clone();
        items.remove(idx);
        WdpInstance {
            items,
            max_winners: self.max_winners,
            budget: self.budget,
        }
    }
}

/// A borrowed sub-instance: a subset of a parent instance's items
/// (optionally minus one skipped item) under the parent's constraints.
///
/// Every solver in this module runs on views; [`solve`] is the
/// whole-instance wrapper over [`SolverArena::solve_view`]. Views exist
/// for two reasons:
///
/// * **Leave-one-out pivots** — `WdpView::full(inst).skipping(i)` visits
///   the same item sequence as `inst.without_item(i)` with zero
///   allocation, and because the surviving parent indices map
///   monotonically, every float is added in the same order: solving the
///   view is *bit-identical* to solving the cloned instance.
/// * **Sharding** (`crate::shard`) — a shard or a champion pool is an
///   ascending index subset of the full market; solving the view returns
///   parent indices directly, so shard solutions and reconciliation
///   outcomes compose without re-indexing.
///
/// Solutions of a view carry **parent indices** in `selected`; for a full
/// view these coincide with the instance's own indices.
#[derive(Debug, Clone, Copy)]
pub struct WdpView<'a> {
    parent: &'a WdpInstance,
    /// Ascending parent indices in the view, or `None` for all items.
    subset: Option<&'a [usize]>,
    /// Parent index excluded from the view (leave-one-out pivots).
    skip: Option<usize>,
}

impl<'a> WdpView<'a> {
    /// View over every item of `parent`.
    pub fn full(parent: &'a WdpInstance) -> Self {
        WdpView {
            parent,
            subset: None,
            skip: None,
        }
    }

    /// View over the given parent indices, which must be sorted ascending
    /// and unique (debug-checked).
    pub fn of_subset(parent: &'a WdpInstance, indices: &'a [usize]) -> Self {
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "subset indices must be ascending and unique"
        );
        debug_assert!(indices.iter().all(|&i| i < parent.items.len()));
        WdpView {
            parent,
            subset: Some(indices),
            skip: None,
        }
    }

    /// The same view minus the item at `parent_idx` (for Clarke pivots).
    pub fn skipping(mut self, parent_idx: usize) -> Self {
        debug_assert!(self.skip.is_none(), "views support a single skip");
        self.skip = Some(parent_idx);
        self
    }

    /// The parent instance.
    pub fn parent(&self) -> &'a WdpInstance {
        self.parent
    }

    /// Cardinality cap (inherited from the parent).
    pub fn max_winners(&self) -> Option<usize> {
        self.parent.max_winners
    }

    /// Budget cap (inherited from the parent).
    pub fn budget(&self) -> Option<f64> {
        self.parent.budget
    }

    fn skip_is_member(&self) -> bool {
        match (self.skip, self.subset) {
            (None, _) => false,
            (Some(k), None) => k < self.parent.items.len(),
            (Some(k), Some(s)) => s.binary_search(&k).is_ok(),
        }
    }

    /// Number of items in the view.
    pub fn len(&self) -> usize {
        let base = match self.subset {
            Some(s) => s.len(),
            None => self.parent.items.len(),
        };
        base - usize::from(self.skip_is_member())
    }

    /// Whether the view has no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The item at a parent index (must be a member of the view).
    #[inline]
    pub fn item(&self, parent_idx: usize) -> &WdpItem {
        &self.parent.items[parent_idx]
    }

    /// Iterates the view's parent indices in ascending order.
    pub fn indices(&self) -> WdpViewIter<'a> {
        WdpViewIter {
            subset: self.subset,
            pos: 0,
            parent_len: self.parent.items.len(),
            skip: self.skip,
        }
    }

    /// Whether a selection of parent indices satisfies the view's
    /// constraints (same comparisons and float order as
    /// [`WdpInstance::feasible`]).
    pub fn feasible(&self, selected: &[usize]) -> bool {
        if let Some(k) = self.max_winners() {
            if selected.len() > k {
                return false;
            }
        }
        if let Some(b) = self.budget() {
            let cost: f64 = selected.iter().map(|&i| self.item(i).cost).sum();
            if cost > b + 1e-9 {
                return false;
            }
        }
        true
    }
}

/// Ascending parent-index iterator of a [`WdpView`].
pub struct WdpViewIter<'a> {
    subset: Option<&'a [usize]>,
    pos: usize,
    parent_len: usize,
    skip: Option<usize>,
}

impl Iterator for WdpViewIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            let i = match self.subset {
                Some(s) => *s.get(self.pos)?,
                None => {
                    if self.pos >= self.parent_len {
                        return None;
                    }
                    self.pos
                }
            };
            self.pos += 1;
            if Some(i) == self.skip {
                continue;
            }
            return Some(i);
        }
    }
}

/// A solved winner-determination instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WdpSolution {
    /// Indices into [`WdpInstance::items`] of the selected items.
    pub selected: Vec<usize>,
    /// Achieved objective `Σ w_i`.
    pub objective: f64,
}

impl WdpSolution {
    /// Canonical solution construction: ascending parent indices, with the
    /// objective summed left-to-right over that order. Every solver and the
    /// incremental pivot engine go through this, which is what makes
    /// different derivations of the same selected set bit-identical.
    pub(crate) fn from_view(view: &WdpView<'_>, mut selected: Vec<usize>) -> Self {
        selected.sort_unstable();
        let objective = selected.iter().map(|&i| view.item(i).weight).sum();
        WdpSolution {
            selected,
            objective,
        }
    }
}

/// Which algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Automatically picks an exact algorithm for the constraint shape.
    Exact,
    /// Brute-force over all subsets (requires ≤ 25 items).
    Exhaustive,
    /// Budget-constrained dynamic program with this cost grid resolution.
    Knapsack {
        /// Number of grid cells the budget is discretized into.
        grid: usize,
    },
    /// Greedy by weight (cardinality) / weight-per-cost density (budget).
    GreedyDensity,
}

/// Solves a winner-determination instance on a fresh [`SolverArena`] (see
/// [`SolverArena::solve_view_into`] for the dispatch). Callers that solve
/// repeatedly keep one arena instead.
pub fn solve(inst: &WdpInstance, kind: SolverKind) -> WdpSolution {
    SolverArena::new().solve_view(&WdpView::full(inst), kind)
}

/// The per-`SolverKind` WDP latency histogram (`solve.wdp.<kind>_ns`).
/// Telemetry is a pure observer: these spans record wall time only and
/// can never reach a payment, digest, or journal byte.
fn solver_kind_hist(kind: SolverKind) -> &'static telemetry::Histogram {
    match kind {
        SolverKind::Exact => telemetry::hist!("solve.wdp.exact_ns"),
        SolverKind::Exhaustive => telemetry::hist!("solve.wdp.exhaustive_ns"),
        SolverKind::Knapsack { .. } => telemetry::hist!("solve.wdp.knapsack_ns"),
        SolverKind::GreedyDensity => telemetry::hist!("solve.wdp.greedy_ns"),
    }
}

/// Preference order of the no-budget solver: positive-weight items,
/// stable-sorted by descending weight (parent indices). Shared with the
/// incremental pivot engine (`crate::pivots`), the shard pipeline and the
/// reference top-K, whose bit-identity contracts depend on using exactly
/// this filter and comparator.
pub(crate) fn preference_order(view: &WdpView<'_>) -> Vec<usize> {
    let mut order = Vec::new();
    fill_preference_order(view, &mut order);
    order
}

/// [`preference_order`] into a caller-recycled buffer (cleared first).
///
/// The comparator is (weight descending, parent index ascending). Because
/// the candidates enter the buffer in ascending parent-index order, that
/// tiebreak makes `sort_unstable_by` produce the exact permutation a
/// stable descending-weight sort would — without the merge-sort scratch
/// allocation, which is what lets [`SolverArena`] top-K solves run
/// allocation-free at steady state.
pub(crate) fn fill_preference_order(view: &WdpView<'_>, order: &mut Vec<usize>) {
    order.clear();
    order.extend(view.indices().filter(|&i| view.item(i).weight > 0.0));
    order.sort_unstable_by(|&a, &b| {
        view.item(b)
            .weight
            .partial_cmp(&view.item(a).weight)
            .expect("weights are finite")
            .then_with(|| a.cmp(&b))
    });
}

/// Brute-force exact solver.
pub(crate) fn exhaustive(view: &WdpView<'_>) -> WdpSolution {
    let n = view.len();
    assert!(n <= 25, "exhaustive solver limited to 25 items, got {n}");
    let members: Vec<usize> = view.indices().collect();
    let mut best: Vec<usize> = Vec::new();
    let mut best_obj = 0.0f64;
    for mask in 0u32..(1u32 << n) {
        let sel: Vec<usize> = (0..n)
            .filter(|&p| mask & (1 << p) != 0)
            .map(|p| members[p])
            .collect();
        if !view.feasible(&sel) {
            continue;
        }
        let obj: f64 = sel.iter().map(|&i| view.item(i).weight).sum();
        if obj > best_obj + DP_EPS {
            best_obj = obj;
            best = sel;
        }
    }
    WdpSolution::from_view(view, best)
}

/// Knapsack candidate filter: positive weight and individually affordable
/// (parent indices, ascending). The one roster every budgeted solve, the
/// incremental pivot engine (`crate::pivots`) and the reference knapsack
/// see.
pub(crate) fn knapsack_candidates<'a>(
    view: &WdpView<'a>,
    budget: f64,
) -> impl Iterator<Item = usize> + 'a {
    let view = *view;
    view.indices()
        .filter(move |&i| view.item(i).weight > 0.0 && view.item(i).cost <= budget + 1e-12)
}

/// Grid cell size for a budget discretized into `grid_eff` cells.
pub(crate) fn knapsack_cell(budget: f64, grid_eff: usize) -> f64 {
    if budget > 0.0 {
        budget / grid_eff as f64
    } else {
        1.0
    }
}

/// Discretized cost of one item. With a zero budget only zero-cost items
/// fit; `grid_eff + 1` marks "never fits".
pub(crate) fn knapsack_gcost(cost: f64, budget: f64, cell: f64, grid_eff: usize) -> usize {
    if budget == 0.0 {
        if cost > 0.0 {
            grid_eff + 1
        } else {
            0
        }
    } else {
        (cost / cell).floor() as usize
    }
}

/// Effective table width for the count-constrained DP: memory is
/// O(items · k · grid) bits, so the grid is coarsened if an absurd
/// combination is requested.
pub(crate) fn knapsack_width_2d(cand_len: usize, kmax: usize, grid: usize) -> usize {
    let width = grid + 1;
    let max_cells: usize = 1 << 28; // 256M flags ≈ 256 MB worst case
    if cand_len * (kmax + 1) * width > max_cells {
        (max_cells / (cand_len * (kmax + 1))).max(64)
    } else {
        width
    }
}

/// Post-DP repair: floor rounding may overshoot the true budget by up to
/// one cell per item; drops lowest-density selections (first-of-equal in
/// the vector's current order) until the true budget holds. Shared verbatim
/// with the incremental pivot engine so both produce identical floats.
///
/// Dropping the current global density minimum repeatedly is the same as
/// walking a stable density-ascending order (removals never change the
/// densities of the remaining items), so this sorts once — O(s log s)
/// instead of a rescan per drop — while reproducing the greedy loop's drop
/// sequence and float trajectory exactly.
pub(crate) fn repair_overspend(
    view: &WdpView<'_>,
    selected: &mut Vec<usize>,
    budget: f64,
    scratch: &mut RepairScratch,
) {
    let mut spent: f64 = selected.iter().map(|&i| view.item(i).cost).sum();
    if spent <= budget + 1e-9 {
        return;
    }
    let RepairScratch {
        density,
        drop_order,
        dropped,
    } = scratch;
    density.clear();
    density.extend(
        selected
            .iter()
            .map(|&i| view.item(i).weight / view.item(i).cost.max(1e-12)),
    );
    drop_order.clear();
    drop_order.extend(0..selected.len());
    // (density ascending, position ascending): positions are unique, so
    // `sort_unstable_by` with the position tiebreak is the same permutation
    // a stable density sort would produce, minus its scratch allocation.
    drop_order.sort_unstable_by(|&a, &b| {
        density[a]
            .partial_cmp(&density[b])
            .expect("densities are finite")
            .then_with(|| a.cmp(&b))
    });
    dropped.clear();
    dropped.resize(selected.len(), false);
    for &pos in drop_order.iter() {
        if spent <= budget + 1e-9 {
            break;
        }
        dropped[pos] = true;
        spent -= view.item(selected[pos]).cost;
    }
    let mut idx = 0;
    selected.retain(|_| {
        let keep = !dropped[idx];
        idx += 1;
        keep
    });
}

/// Reusable buffers for [`repair_overspend`]. Hot paths keep one alive per
/// solver arena / pivot worker; cold paths build a throwaway default.
#[derive(Debug, Clone, Default)]
pub(crate) struct RepairScratch {
    density: Vec<f64>,
    drop_order: Vec<usize>,
    dropped: Vec<bool>,
}

/// Bit-packed per-(item, cell) flag matrix backing DP tracebacks, one
/// `u64` word per 64 cells. Owned by a [`SolverArena`] (or the pivot
/// engine's sweeps) and recycled via [`FlagTable::reset`] so steady-state
/// solves re-zero the same words instead of allocating a fresh
/// `Vec<Vec<bool>>` — 8× less traceback memory than byte flags, zero
/// mallocs once warm.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlagTable {
    words: Vec<u64>,
    row_words: usize,
}

impl FlagTable {
    /// Clears the table and resizes it to `rows` rows of `row_bits` flags,
    /// all zero. Reuses the existing word buffer when it is large enough.
    pub(crate) fn reset(&mut self, rows: usize, row_bits: usize) {
        self.row_words = row_bits.div_ceil(64);
        self.words.clear();
        self.words.resize(rows * self.row_words, 0);
    }

    #[inline]
    pub(crate) fn get(&self, row: usize, bit: usize) -> bool {
        self.words[row * self.row_words + (bit >> 6)] & (1u64 << (bit & 63)) != 0
    }

    /// One row's words, for branchless `|=` updates in DP inner loops.
    #[inline]
    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [u64] {
        let start = row * self.row_words;
        &mut self.words[start..start + self.row_words]
    }
}

/// Sets flag bits `[from, to)` in a packed row (whole words in the middle,
/// masked edges), the traceback twin of a saturated-span fill.
#[inline]
fn set_bit_span(row: &mut [u64], from: usize, to: usize) {
    if from >= to {
        return;
    }
    let (fw, fb) = (from >> 6, from & 63);
    let (lw, lb) = ((to - 1) >> 6, (to - 1) & 63);
    let first = !0u64 << fb;
    let last = !0u64 >> (63 - lb);
    if fw == lw {
        row[fw] |= first & last;
    } else {
        row[fw] |= first;
        for word in &mut row[fw + 1..lw] {
            *word = !0;
        }
        row[lw] |= last;
    }
}

/// One 0/1-knapsack item step on one DP plane: the write plane is relaxed
/// against the read plane, bit-identical to the textbook descending sweep
/// `for c in (gc..width).rev() { if read[c-gc] + w > write[c] + DP_EPS { … } }`
/// but restructured for the hot path:
///
/// * **Saturated span.** Each plane is constant (bitwise) for `c >= sat`,
///   where `sat` is the capped running sum of processed items' grid costs:
///   above the reachable cost prefix every state holds the same "take
///   everything so far" value. For `c >= sat + gc` both cells of the
///   comparison are those constants, so it has one answer for the whole
///   span — evaluate it once, then splat-store the (identical) updated
///   value and word-fill the traceback bits. Same comparison on the same
///   bits as the per-cell loop, so the DP trajectory is unchanged.
/// * **Compare span.** Below the saturation point the exact per-cell loop
///   runs, with the conditional store kept *branchy* (stores are rare and
///   the branch predicts well; an unconditional select-store doubles
///   memory traffic and measures ~2× slower here) and traceback bits
///   accumulated in a register, one `|=` per 64-cell word.
///
/// `planes` runs from the start of the read plane to the end of the write
/// plane, which starts at `dst`: one plane relaxed in place (`dst = 0`, the
/// uncounted DP) or plane `j - 1` followed by plane `j` (`dst = width`, the
/// count-capped DP). Slicing once up front keeps every index visibly in
/// bounds. The traceback bit of write cell `c` is `bit_base + c`, so the
/// planes pack into one flag row.
#[inline]
fn knapsack_item_step(
    planes: &mut [f64],
    row: &mut [u64],
    dst: usize,
    bit_base: usize,
    gc: usize,
    w: f64,
    sat: usize,
) {
    let width = planes.len() - dst;
    let uni = (sat + gc).min(width);
    if uni < width {
        // Representative cells: both indices are >= sat.
        let candidate = planes[uni - gc] + w;
        if candidate > planes[dst + uni] + DP_EPS {
            planes[dst + uni..].fill(candidate);
            set_bit_span(row, bit_base + uni, bit_base + width);
        }
    }
    // Exact per-cell sweep over (gc..uni), highest cells first.
    let mut upper = uni;
    while upper > gc {
        let word = (bit_base + upper - 1) >> 6;
        let base = word << 6;
        let lower = gc.max(base.saturating_sub(bit_base));
        let mut bits = row[word];
        for c in (lower..upper).rev() {
            let candidate = planes[c - gc] + w;
            if candidate > planes[dst + c] + DP_EPS {
                planes[dst + c] = candidate;
                bits |= 1u64 << (bit_base + c - base);
            }
        }
        row[word] = bits;
        upper = lower;
    }
}

/// Adds candidate `item` (grid cost `gc`, weight `w`) to a knapsack DP of
/// `geometry = (kmax, width)`: one [`knapsack_item_step`] per plane, planes
/// descending so every read sees pre-item state, flags into row `item` of
/// `taken`. An unaffordable item (`gc` past the grid) leaves the table and
/// its all-zero flag row untouched. The saturation invariant holds in
/// every plane with the shared `sat` (the constraint `cost <= c` is vacuous
/// above the reachable prefix); returns it advanced past this item.
pub(crate) fn knapsack_step(
    dp: &mut [f64],
    taken: &mut FlagTable,
    item: usize,
    (kmax, width): (Option<usize>, usize),
    gc: usize,
    w: f64,
    sat: usize,
) -> usize {
    if gc >= width {
        return sat;
    }
    let row = taken.row_mut(item);
    // Without a count cap the single plane relaxes in place; with one,
    // plane j reads plane j - 1 and plane 0 (no winners) stays zero.
    let (rows, lag) = kmax.map_or((1, 0), |k| (k + 1, 1));
    for j in (lag..rows).rev() {
        let planes = &mut dp[(j - lag) * width..(j + 1) * width];
        knapsack_item_step(planes, row, lag * width, j * width, gc, w, sat);
    }
    (sat + gc).min(width - 1)
}

/// Traceback walk: visits candidate positions in `positions` order from
/// state `(plane, cell)` and pushes `cand[q]` whenever its flag is set at
/// the current state, stepping the state back by its grid cost (and by one
/// winner when the table counts them; such a walk stops once no winner is
/// left).
pub(crate) fn knapsack_walk(
    taken: &FlagTable,
    positions: impl Iterator<Item = usize>,
    cand: &[usize],
    gcosts: &[usize],
    (kmax, width): (Option<usize>, usize),
    (mut j, mut c): (usize, usize),
    selected: &mut Vec<usize>,
) {
    let lag = usize::from(kmax.is_some());
    for q in positions {
        if lag == 1 && j == 0 {
            break;
        }
        if taken.get(q, j * width + c) {
            selected.push(cand[q]);
            c -= gcosts[q];
            j -= lag;
        }
    }
}

/// Per-worker reconstruction scratch for leave-one-out pivot targets: the
/// selection being rebuilt plus its repair buffers. One lives in every
/// [`SolverArena`]; parallel pivot workers build their own.
#[derive(Debug, Clone, Default)]
pub(crate) struct LooScratch {
    pub(crate) selected: Vec<usize>,
    pub(crate) repair: RepairScratch,
}

/// Reusable solver workspace: flat DP rows, a bit-packed traceback, and
/// struct-of-arrays candidate lanes, all recycled across solves.
///
/// The arena is the only production solver: [`solve`], the baselines, the
/// offline oracle and every auction round run its dispatch. It computes
/// **bit-identical** results to the frozen allocating reference kernels
/// ([`crate::properties::reference_solve_view`]): it keeps the exact
/// `dp[c - gc] + w > dp[c] + DP_EPS` comparison, the same cell iteration
/// order, and the same ascending-index reconstruction — it only
/// restructures *where the bytes live and how the iteration space is
/// walked* (SoA lanes walked contiguously, the per-candidate `gc <= grid`
/// test hoisted out of the cell loop, the saturated high-cost span
/// collapsed to one representative comparison, traceback bits accumulated
/// per 64-cell word — see [`knapsack_item_step`]). The
/// `arena_equivalence` differential suite pins that contract.
///
/// Reuse contract: keep one arena per worker. Serial callers
/// (`LOVM_THREADS=1`) that hold an arena across rounds reach zero
/// steady-state heap allocations per solve; parallel fan-outs give each
/// worker its own arena via [`par::Pool::run_with`], so no buffer is ever
/// shared and determinism is untouched (scratch never feeds an output
/// bit).
#[derive(Debug, Clone, Default)]
pub struct SolverArena {
    /// Candidate parent indices (ascending), the SoA "who" lane.
    pub(crate) cand: Vec<usize>,
    /// Grid-discretized costs, parallel to `cand`.
    pub(crate) gcosts: Vec<usize>,
    /// Selection weights, parallel to `cand`.
    pub(crate) weights: Vec<f64>,
    /// Flat DP value table (`rows * width`, one plane per winner count).
    pub(crate) dp: Vec<f64>,
    taken: FlagTable,
    /// Preference order for top-K solves.
    pub(crate) order: Vec<usize>,
    repair: RepairScratch,
    // Lanes below are the incremental pivot engine's (crate::pivots)
    // forward/backward merge workspace; they ride in the same arena so one
    // object threads through solve + payments.
    pub(crate) snap_pos: Vec<usize>,
    pub(crate) fwd_taken: FlagTable,
    pub(crate) bwd_taken: FlagTable,
    pub(crate) fwd_snap: Vec<f64>,
    pub(crate) bwd_snap: Vec<f64>,
    pub(crate) loo: LooScratch,
}

impl SolverArena {
    /// An empty arena; buffers grow on first use and are then recycled.
    pub fn new() -> Self {
        SolverArena::default()
    }

    /// [`SolverArena::solve_view_into`] returning an owned solution.
    pub fn solve_view(&mut self, view: &WdpView<'_>, kind: SolverKind) -> WdpSolution {
        let mut out = WdpSolution::default();
        self.solve_view_into(view, kind, &mut out);
        out
    }

    /// Solves a winner-determination view into a caller-recycled solution.
    /// `selected` holds **parent indices**.
    ///
    /// `SolverKind::Exact` dispatches to:
    /// * top-K selection when no budget constraint is present (exact),
    /// * exhaustive search when ≤ 25 items (exact),
    /// * knapsack DP with a fine grid otherwise (exact up to cost rounding;
    ///   costs round *down* to grid cells and the selection is then repaired
    ///   to true feasibility by dropping lowest-density items, so the
    ///   returned selection is always feasible).
    ///
    /// The hot dispatches (top-K and knapsack — everything a LOVM round
    /// can hit) run entirely on arena buffers: zero heap allocations once
    /// `self` and `out` have warmed up. `Exhaustive` and `GreedyDensity`
    /// are cold experiment/baseline paths and allocate.
    ///
    /// # Panics
    ///
    /// Panics if `Exhaustive` is requested for more than 25 items, or item
    /// costs are negative/non-finite when a budget constraint is present.
    pub fn solve_view_into(&mut self, view: &WdpView<'_>, kind: SolverKind, out: &mut WdpSolution) {
        // Per-`SolverKind` latency span; inert (no clock read) unless
        // telemetry is enabled. Handles live in leaked statics, so the
        // steady-state zero-allocation contract holds with telemetry on.
        let _solve_span = solver_kind_hist(kind).span();
        match kind {
            SolverKind::Exact => match view.budget() {
                None => self.top_k_into(view, out),
                Some(_) if view.len() <= 25 => *out = exhaustive(view),
                Some(_) => self.knapsack_into(view, 4000, out),
            },
            SolverKind::Exhaustive => *out = exhaustive(view),
            SolverKind::Knapsack { grid } => match view.budget() {
                Some(_) => self.knapsack_into(view, grid, out),
                None => self.top_k_into(view, out),
            },
            SolverKind::GreedyDensity => *out = greedy_density(view),
        }
    }

    /// Exact solver without a budget constraint: the top-K positive-weight
    /// items, from the preference order in the recycled `order` lane.
    fn top_k_into(&mut self, view: &WdpView<'_>, out: &mut WdpSolution) {
        let k = view.max_winners().unwrap_or(view.len());
        fill_preference_order(view, &mut self.order);
        let take = k.min(self.order.len());
        out.selected.clear();
        out.selected.extend_from_slice(&self.order[..take]);
        finish_canonical(view, out);
    }

    /// Validates a budgeted view and loads the knapsack lanes: the
    /// candidate roster, its weights, and its grid costs under the table
    /// geometry of a roster `dropped` candidates shorter (0 for a solve; 1
    /// for the leave-one-out engine, whose reduced instances each lack one
    /// candidate). Returns the budget and that geometry `(kmax, width)`:
    /// the winner-count cap of the table (`None` = no count dimension) and
    /// its cost-grid width.
    pub(crate) fn load_knapsack_lanes(
        &mut self,
        view: &WdpView<'_>,
        grid: usize,
        dropped: usize,
    ) -> (f64, (Option<usize>, usize)) {
        let budget = view.budget().expect("knapsack requires a budget");
        assert!(grid >= 1, "grid must be at least 1");
        for i in view.indices() {
            let it = view.item(i);
            assert!(
                it.cost.is_finite() && it.cost >= 0.0,
                "knapsack requires non-negative finite costs"
            );
        }
        self.cand.clear();
        self.cand.extend(knapsack_candidates(view, budget));
        let len = self.cand.len().saturating_sub(dropped);
        let geometry = match view.max_winners() {
            None => (None, grid + 1),
            Some(k) => {
                let kmax = k.min(len);
                (Some(kmax), knapsack_width_2d(len, kmax, grid))
            }
        };
        let grid_eff = geometry.1 - 1;
        let cell = knapsack_cell(budget, grid_eff);
        self.gcosts.clear();
        self.gcosts.extend(
            self.cand
                .iter()
                .map(|&i| knapsack_gcost(view.item(i).cost, budget, cell, grid_eff)),
        );
        self.weights.clear();
        self.weights
            .extend(self.cand.iter().map(|&i| view.item(i).weight));
        (budget, geometry)
    }

    /// Budget-constrained 0/1 knapsack DP over the discretized cost grid,
    /// with one plane per winner count when a cardinality cap is present.
    /// Costs round down to grid cells; the reconstructed selection is then
    /// repaired to true feasibility.
    fn knapsack_into(&mut self, view: &WdpView<'_>, grid: usize, out: &mut WdpSolution) {
        let (budget, geometry) = self.load_knapsack_lanes(view, grid, 0);
        let (kmax, width) = geometry;
        let m = self.cand.len();
        let cells = kmax.map_or(1, |k| k + 1) * width;
        self.dp.clear();
        self.dp.resize(cells, 0.0);
        self.taken.reset(m, cells);
        // `sat`: every plane is constant (bitwise) from this cell up — the
        // capped reachable-cost prefix (see knapsack_item_step).
        let mut sat = 0usize;
        for t in 0..m {
            sat = knapsack_step(
                &mut self.dp,
                &mut self.taken,
                t,
                geometry,
                self.gcosts[t],
                self.weights[t],
                sat,
            );
        }
        // Row-major best-cell scan from cell 0 (plane 0's always-zero state
        // when counting winners).
        let (mut best, mut at) = (self.dp[0], 0usize);
        for (idx, &v) in self.dp.iter().enumerate() {
            if v > best + DP_EPS {
                best = v;
                at = idx;
            }
        }
        out.selected.clear();
        knapsack_walk(
            &self.taken,
            (0..m).rev(),
            &self.cand,
            &self.gcosts,
            geometry,
            (at / width, at % width),
            &mut out.selected,
        );
        repair_overspend(view, &mut out.selected, budget, &mut self.repair);
        finish_canonical(view, out);
    }
}

/// Canonicalizes an in-place solution exactly like
/// [`WdpSolution::from_view`]: ascending indices, objective summed
/// left-to-right over that order.
pub(crate) fn finish_canonical(view: &WdpView<'_>, out: &mut WdpSolution) {
    out.selected.sort_unstable();
    out.objective = out.selected.iter().map(|&i| view.item(i).weight).sum();
}

/// Greedy approximation: by weight when only cardinality binds, by
/// weight/cost density under a budget.
pub(crate) fn greedy_density(view: &WdpView<'_>) -> WdpSolution {
    let mut order: Vec<usize> = view
        .indices()
        .filter(|&i| view.item(i).weight > 0.0)
        .collect();
    match view.budget() {
        None => order.sort_by(|&a, &b| {
            view.item(b)
                .weight
                .partial_cmp(&view.item(a).weight)
                .expect("weights are finite")
        }),
        Some(_) => order.sort_by(|&a, &b| {
            let da = view.item(a).weight / view.item(a).cost.max(1e-12);
            let db = view.item(b).weight / view.item(b).cost.max(1e-12);
            db.partial_cmp(&da).expect("densities are finite")
        }),
    }
    let k = view.max_winners().unwrap_or(view.len());
    let mut selected = Vec::new();
    let mut spent = 0.0;
    for i in order {
        if selected.len() >= k {
            break;
        }
        if let Some(b) = view.budget() {
            if spent + view.item(i).cost > b + 1e-12 {
                continue;
            }
        }
        spent += view.item(i).cost;
        selected.push(i);
    }
    WdpSolution::from_view(view, selected)
}

/// Fractional (LP-relaxation) upper bound on the optimum of a
/// budget-constrained instance; equals the exact optimum when no budget is
/// present. Used as the denominator in competitive-ratio plots.
pub fn fractional_upper_bound(inst: &WdpInstance) -> f64 {
    match inst.budget {
        None => solve(inst, SolverKind::Exact).objective,
        Some(budget) => {
            let mut order: Vec<usize> = (0..inst.items.len())
                .filter(|&i| inst.items[i].weight > 0.0)
                .collect();
            order.sort_by(|&a, &b| {
                let da = inst.items[a].weight / inst.items[a].cost.max(1e-12);
                let db = inst.items[b].weight / inst.items[b].cost.max(1e-12);
                db.partial_cmp(&da).expect("densities are finite")
            });
            let k = inst.max_winners.unwrap_or(inst.items.len());
            let mut remaining = budget;
            let mut total = 0.0;
            let mut count = 0usize;
            for i in order {
                if count >= k || remaining <= 0.0 {
                    break;
                }
                let it = inst.items[i];
                if it.cost <= remaining {
                    total += it.weight;
                    remaining -= it.cost;
                    count += 1;
                } else if it.cost > 0.0 {
                    total += it.weight * remaining / it.cost;
                    remaining = 0.0;
                }
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{rngs::StdRng, RngExt, SeedableRng};

    fn item(bidder: usize, weight: f64, cost: f64) -> WdpItem {
        WdpItem {
            bidder,
            weight,
            cost,
        }
    }

    #[test]
    fn top_k_selects_heaviest_positive() {
        let inst = WdpInstance::new(vec![
            item(0, 3.0, 1.0),
            item(1, -1.0, 1.0),
            item(2, 5.0, 1.0),
            item(3, 1.0, 1.0),
        ])
        .with_max_winners(2);
        let sol = solve(&inst, SolverKind::Exact);
        assert_eq!(sol.selected, vec![0, 2]);
        assert_eq!(sol.objective, 8.0);
    }

    #[test]
    fn unconstrained_takes_all_positive() {
        let inst = WdpInstance::new(vec![
            item(0, 1.0, 0.0),
            item(1, -2.0, 0.0),
            item(2, 0.5, 0.0),
        ]);
        let sol = solve(&inst, SolverKind::Exact);
        assert_eq!(sol.selected, vec![0, 2]);
    }

    #[test]
    fn exhaustive_respects_budget() {
        // Best unbudgeted = {0, 1} (weight 10), but budget only allows {1, 2}.
        let inst = WdpInstance::new(vec![
            item(0, 6.0, 10.0),
            item(1, 4.0, 4.0),
            item(2, 3.0, 3.0),
        ])
        .with_budget(8.0);
        let sol = solve(&inst, SolverKind::Exhaustive);
        assert_eq!(sol.selected, vec![1, 2]);
        assert_eq!(sol.objective, 7.0);
    }

    #[test]
    fn knapsack_matches_exhaustive_small() {
        let inst = WdpInstance::new(vec![
            item(0, 6.0, 10.0),
            item(1, 4.0, 4.0),
            item(2, 3.0, 3.0),
            item(3, 2.5, 2.0),
        ])
        .with_budget(9.0);
        let ex = solve(&inst, SolverKind::Exhaustive);
        let kn = solve(&inst, SolverKind::Knapsack { grid: 2000 });
        assert!((ex.objective - kn.objective).abs() < 0.05);
        assert!(inst.feasible(&kn.selected));
    }

    #[test]
    fn knapsack_with_cardinality() {
        let inst = WdpInstance::new(vec![
            item(0, 5.0, 1.0),
            item(1, 4.0, 1.0),
            item(2, 3.0, 1.0),
        ])
        .with_budget(10.0)
        .with_max_winners(2);
        let sol = solve(&inst, SolverKind::Knapsack { grid: 100 });
        assert_eq!(sol.selected, vec![0, 1]);
    }

    #[test]
    fn knapsack_zero_budget_only_free_items() {
        let inst = WdpInstance::new(vec![item(0, 5.0, 1.0), item(1, 2.0, 0.0)]).with_budget(0.0);
        let sol = solve(&inst, SolverKind::Knapsack { grid: 100 });
        assert_eq!(sol.selected, vec![1]);
    }

    #[test]
    fn greedy_density_feasible_and_reasonable() {
        let inst = WdpInstance::new(vec![
            item(0, 10.0, 10.0), // density 1.0
            item(1, 6.0, 3.0),   // density 2.0
            item(2, 5.0, 3.0),   // density 1.67
        ])
        .with_budget(6.0);
        let sol = solve(&inst, SolverKind::GreedyDensity);
        assert_eq!(sol.selected, vec![1, 2]);
        assert!(inst.feasible(&sol.selected));
    }

    #[test]
    fn fractional_bound_dominates_exact() {
        let inst = WdpInstance::new(vec![
            item(0, 6.0, 5.0),
            item(1, 4.0, 4.0),
            item(2, 3.0, 3.0),
        ])
        .with_budget(7.0);
        let exact = solve(&inst, SolverKind::Exhaustive);
        let bound = fractional_upper_bound(&inst);
        assert!(bound >= exact.objective - 1e-9);
    }

    #[test]
    fn without_item_shifts_indices() {
        let inst = WdpInstance::new(vec![
            item(0, 1.0, 1.0),
            item(1, 2.0, 2.0),
            item(2, 3.0, 3.0),
        ]);
        let reduced = inst.without_item(1);
        assert_eq!(reduced.items.len(), 2);
        assert_eq!(reduced.items[1].bidder, 2);
    }

    /// Property: the allocation-free skip view visits the same item
    /// sequence as the materialized `without_item` clone, so solving it is
    /// bit-identical — objective included — across all four constraint
    /// combos and every solver dispatch.
    #[test]
    fn skip_view_bit_identical_to_without_item() {
        let mut rng = StdRng::seed_from_u64(0x5C1B);
        for round in 0..60 {
            // Small n exercises the exhaustive dispatch (2ⁿ masks), larger
            // n the knapsack/top-K dispatch via an explicit grid kind.
            let small = rng.random();
            let n = if small {
                rng.random_range(2..11usize)
            } else {
                rng.random_range(28..50usize)
            };
            let items: Vec<WdpItem> = (0..n)
                .map(|i| item(i, rng.random_range(-3.0..9.0), rng.random_range(0.0..4.0)))
                .collect();
            let mut inst = WdpInstance::new(items);
            if rng.random() {
                inst = inst.with_max_winners(rng.random_range(1..8usize));
            }
            if rng.random() {
                inst = inst.with_budget(rng.random_range(0.0..12.0));
            }
            let kind = if small {
                SolverKind::Exact
            } else {
                SolverKind::Knapsack { grid: 300 }
            };
            for idx in 0..n {
                let cloned = solve(&inst.without_item(idx), kind);
                let viewed =
                    SolverArena::new().solve_view(&WdpView::full(&inst).skipping(idx), kind);
                assert_eq!(
                    cloned.objective.to_bits(),
                    viewed.objective.to_bits(),
                    "round {round} idx {idx}: clone {} vs view {}",
                    cloned.objective,
                    viewed.objective
                );
                assert_eq!(cloned.selected.len(), viewed.selected.len());
            }
        }
    }

    /// A subset view solves exactly the materialized sub-instance: same
    /// winner set (mapped through the subset) and bit-identical objective.
    #[test]
    fn subset_view_matches_materialized_subinstance() {
        let mut rng = StdRng::seed_from_u64(0x50B5);
        for _ in 0..40 {
            // Subsets stay ≤ ~16 items so the budgeted Exact dispatch
            // (exhaustive) remains cheap.
            let n = rng.random_range(4..32usize);
            let items: Vec<WdpItem> = (0..n)
                .map(|i| item(i, rng.random_range(-2.0..8.0), rng.random_range(0.1..3.0)))
                .collect();
            let mut inst = WdpInstance::new(items).with_max_winners(rng.random_range(1..6usize));
            if rng.random() {
                inst = inst.with_budget(rng.random_range(0.5..10.0));
            }
            let subset: Vec<usize> = (0..n)
                .filter(|_| rng.random_range(0..2usize) == 0)
                .take(16)
                .collect();
            let materialized = WdpInstance {
                items: subset.iter().map(|&i| inst.items[i]).collect(),
                max_winners: inst.max_winners,
                budget: inst.budget,
            };
            let sub_sol = solve(&materialized, SolverKind::Exact);
            let view_sol = SolverArena::new()
                .solve_view(&WdpView::of_subset(&inst, &subset), SolverKind::Exact);
            assert_eq!(
                sub_sol.objective.to_bits(),
                view_sol.objective.to_bits(),
                "objectives diverged"
            );
            let mapped: Vec<usize> = sub_sol.selected.iter().map(|&p| subset[p]).collect();
            assert_eq!(mapped, view_sol.selected, "selections diverged");
        }
    }

    #[test]
    fn view_len_and_iteration_respect_skip() {
        let inst = WdpInstance::new(vec![
            item(0, 1.0, 1.0),
            item(1, 2.0, 1.0),
            item(2, 3.0, 1.0),
            item(3, 4.0, 1.0),
        ]);
        let full = WdpView::full(&inst);
        assert_eq!(full.len(), 4);
        assert_eq!(full.indices().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let skipped = full.skipping(2);
        assert_eq!(skipped.len(), 3);
        assert_eq!(skipped.indices().collect::<Vec<_>>(), vec![0, 1, 3]);
        let subset = [1usize, 2, 3];
        let sub = WdpView::of_subset(&inst, &subset).skipping(3);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.indices().collect::<Vec<_>>(), vec![1, 2]);
        assert!(!sub.is_empty());
    }

    #[test]
    fn empty_instance_empty_solution() {
        let inst = WdpInstance::new(vec![]);
        for kind in [
            SolverKind::Exact,
            SolverKind::Exhaustive,
            SolverKind::GreedyDensity,
        ] {
            let sol = solve(&inst, kind);
            assert!(sol.selected.is_empty());
            assert_eq!(sol.objective, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "exhaustive solver limited")]
    fn exhaustive_size_guard() {
        let items: Vec<WdpItem> = (0..30).map(|i| item(i, 1.0, 1.0)).collect();
        let _ = solve(&WdpInstance::new(items), SolverKind::Exhaustive);
    }

    /// Property: exact dispatch must match brute force on small instances
    /// (seeded random instances).
    #[test]
    fn exact_matches_exhaustive() {
        let mut rng = StdRng::seed_from_u64(0xE8AC);
        for _ in 0..150 {
            let n = rng.random_range(1..10usize);
            let items: Vec<WdpItem> = (0..n)
                .map(|i| item(i, rng.random_range(-5.0..10.0), rng.random_range(0.0..5.0)))
                .collect();
            let k = rng.random_range(1..6usize);
            let use_budget: bool = rng.random();
            let mut inst = WdpInstance::new(items).with_max_winners(k);
            if use_budget {
                inst = inst.with_budget(rng.random_range(0.0..15.0));
            }
            let exact = solve(&inst, SolverKind::Exact);
            let brute = solve(&inst, SolverKind::Exhaustive);
            // Knapsack grid rounding may lose a sliver of objective; the
            // no-budget path must be exactly optimal.
            let tol = if use_budget { 0.1 } else { 1e-9 };
            assert!(
                exact.objective >= brute.objective - tol,
                "exact {} < brute {}",
                exact.objective,
                brute.objective
            );
            assert!(inst.feasible(&exact.selected));
        }
    }

    /// Boundary behaviour of the grid discretizer: exact cell edges floor
    /// onto the edge, unaffordable items land strictly past `grid_eff`,
    /// and a zero budget admits only zero-cost items.
    #[test]
    fn gcost_boundaries() {
        let budget = 10.0;
        let grid_eff = 100usize;
        let cell = knapsack_cell(budget, grid_eff);
        assert_eq!(cell, 0.1);
        // Cost exactly on a cell edge: 2.0 / 0.1 = 20.0 floors to cell 20,
        // not 19 or 21 — the pack stays representable without rounding up.
        assert_eq!(knapsack_gcost(2.0, budget, cell, grid_eff), 20);
        // Cost equal to the whole budget occupies the last cell, still
        // affordable.
        assert_eq!(knapsack_gcost(budget, budget, cell, grid_eff), grid_eff);
        // Just inside an edge floors down to the previous cell.
        assert_eq!(
            knapsack_gcost(0.1 * 20.0 - 1e-9, budget, cell, grid_eff),
            19
        );
        // Cost above the budget grid-rounds past grid_eff, so the DP's
        // `gc <= grid` guard (and `knapsack_step`'s hoisted twin) skips it.
        assert!(knapsack_gcost(10.5, budget, cell, grid_eff) > grid_eff);
        // Zero budget: any positive cost is "never fits" = grid_eff + 1,
        // zero cost occupies cell 0.
        assert_eq!(
            knapsack_gcost(0.5, 0.0, knapsack_cell(0.0, grid_eff), grid_eff),
            grid_eff + 1
        );
        assert_eq!(
            knapsack_gcost(0.0, 0.0, knapsack_cell(0.0, grid_eff), grid_eff),
            0
        );
    }

    /// Boundary behaviour of the 2-D table sizing: small shapes keep the
    /// full grid, absurd shapes coarsen to the memory cap, and the width
    /// never collapses below the 64-cell floor.
    #[test]
    fn width_2d_coarsening_edges() {
        // Small instance, kmax = 1: full width survives.
        assert_eq!(knapsack_width_2d(10, 1, 4000), 4001);
        // Exactly at the cap: 2 * 2 * width <= 1<<28 holds for width
        // (1<<26), so no coarsening.
        assert_eq!(knapsack_width_2d(2, 1, (1 << 26) - 1), 1 << 26);
        // Absurd n × grid: 4096 candidates × kmax 15 over a 2²⁰ grid
        // coarsens the width to max_cells / (n * (kmax + 1)).
        let w = knapsack_width_2d(1 << 12, 15, 1 << 20);
        assert_eq!(w, (1usize << 28) / ((1 << 12) * 16));
        assert_eq!(w, 4096);
        // Degenerate overload: the 64-cell floor wins over the quotient.
        assert_eq!(knapsack_width_2d(1 << 24, 63, 4000), 64);
        // kmax = 1 with a huge candidate pool: quotient 32 is clamped up
        // to the 64-cell floor.
        assert_eq!(knapsack_width_2d(1 << 22, 1, 1 << 10), 64);
    }

    /// The arena solver matches the reference kernels bit-for-bit on
    /// hand-built boundary instances (the big seeded sweep lives in
    /// tests/arena_equivalence.rs).
    #[test]
    fn arena_matches_legacy_on_boundaries() {
        let mut arena = SolverArena::new();
        let cases = [
            WdpInstance::new(vec![item(0, 5.0, 1.0), item(1, 2.0, 0.0)]).with_budget(0.0),
            WdpInstance::new(vec![
                item(0, 6.0, 10.0),
                item(1, 4.0, 4.0),
                item(2, 3.0, 3.0),
                item(3, 2.5, 2.0),
            ])
            .with_budget(9.0),
            WdpInstance::new(vec![
                item(0, 5.0, 1.0),
                item(1, 4.0, 1.0),
                item(2, 3.0, 1.0),
            ])
            .with_budget(10.0)
            .with_max_winners(2),
            WdpInstance::new(vec![item(0, 3.0, 1.0), item(1, 5.0, 1.0)]).with_max_winners(1),
            WdpInstance::new(vec![]),
        ];
        for inst in &cases {
            for kind in [SolverKind::Exact, SolverKind::Knapsack { grid: 100 }] {
                let view = WdpView::full(inst);
                let legacy = crate::properties::reference_solve_view(&view, kind);
                let fresh = arena.solve_view(&view, kind);
                assert_eq!(legacy.selected, fresh.selected);
                assert_eq!(legacy.objective.to_bits(), fresh.objective.to_bits());
                // Second solve through the now-warm arena: recycled
                // buffers must not leak state between solves.
                let warm = arena.solve_view(&view, kind);
                assert_eq!(legacy.selected, warm.selected);
                assert_eq!(legacy.objective.to_bits(), warm.objective.to_bits());
            }
        }
    }

    /// Property: greedy is always feasible and never exceeds the exact
    /// optimum (seeded random instances).
    #[test]
    fn greedy_feasible_and_bounded() {
        let mut rng = StdRng::seed_from_u64(0x62EE);
        for _ in 0..150 {
            let n = rng.random_range(1..12usize);
            let items: Vec<WdpItem> = (0..n)
                .map(|i| item(i, rng.random_range(0.1..10.0), rng.random_range(0.1..5.0)))
                .collect();
            let budget = rng.random_range(1.0..20.0f64);
            let inst = WdpInstance::new(items).with_budget(budget);
            let greedy = solve(&inst, SolverKind::GreedyDensity);
            let brute = solve(&inst, SolverKind::Exhaustive);
            assert!(inst.feasible(&greedy.selected));
            assert!(greedy.objective <= brute.objective + 1e-9);
            let bound = fractional_upper_bound(&inst);
            assert!(bound >= brute.objective - 1e-9);
        }
    }
}
