//! Sharded market engine: partition → per-shard solve → champion
//! reconciliation.
//!
//! A monolithic winner determination over `n = 10⁶` bidders cannot hold
//! one knapsack DP table (memory) or one global sort (latency budget) per
//! round. This module splits the market into [`MarketTopology::Sharded`]
//! shards by a seeded, *stable* hash of the bidder id, solves each shard's
//! WDP — and its incremental leave-one-out pivots — independently on
//! [`par::Pool`], and then reconciles: a top-level WDP over the
//! concatenated **shard champions** (each shard's winners plus its first
//! displaced candidate) picks the final winners, and the incremental pivot
//! engine prices them on that same champion pool. Peak memory is bounded
//! by the largest shard plus the champion pool, never by `n`.
//!
//! **Exactness.** For the no-budget (top-K) markets the LOVM round loop
//! runs, reconciliation over champions is *bit-identical* to the
//! monolithic solve at any shard count: the global top-K is contained in
//! the union of per-shard top-Ks (an item's rank within its shard never
//! exceeds its global rank), the globally (K+1)-th item — the one every
//! pivot prices against — is always some shard's winner or first displaced
//! candidate, and all welfare sums are re-accumulated in ascending parent
//! index order, the canonical float order every solver shares. The
//! `sharding` test suite pins this, which is what lets `LOVM_SHARDS`
//! re-run the entire golden corpus unchanged.
//!
//! **Approximation.** Under a budget constraint the pipeline is a
//! principled heuristic: each shard proposes its best feasible set under
//! the *full* budget, and reconciliation re-optimizes over proposals. A
//! globally optimal pack whose members are individually mediocre inside
//! their shards can lose mass, so sharded welfare may trail the monolithic
//! optimum; the measured gap `ε` (sharded ≥ (1 − ε)·monolithic) is pinned
//! by the property suite and reported by `exp_e14_sharding`. `Sharded{1}`
//! always degrades to the monolithic path exactly.

use crate::pivots::incremental_loo_view_into;
use crate::wdp::{SolverArena, SolverKind, WdpInstance, WdpSolution, WdpView};

/// Name of the environment variable selecting the default shard count for
/// the LOVM round loop (`LOVM_SHARDS=8`; unset or `1` mean monolithic;
/// anything unparseable — including `0` — panics at startup rather than
/// silently running monolithic).
pub const SHARDS_ENV: &str = "LOVM_SHARDS";

/// Seed of the stable bidder → shard hash. Fixed so a bidder's shard never
/// changes between rounds (mechanism stability: a bidder cannot steer its
/// shard by re-bidding).
pub const SHARD_SEED: u64 = 0x4C4F_564D_0E14_5EED;

/// How the per-round market is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MarketTopology {
    /// One global winner determination (the paper's mechanism verbatim).
    #[default]
    Monolithic,
    /// Partition into `count` shards, solve independently, reconcile over
    /// shard champions. `count ≤ 1` is identical to [`Self::Monolithic`].
    Sharded {
        /// Number of shards the population is hashed into.
        count: usize,
    },
}

impl MarketTopology {
    /// Topology from the `LOVM_SHARDS` environment variable: `Sharded`
    /// for values ≥ 2, `Monolithic` when unset or set to `1`.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set to anything else (`abc`, `0`, an
    /// empty string, a negative number): an operator who asked for a
    /// topology override and mistyped it must hear about it at startup,
    /// not discover a silently monolithic deployment later.
    pub fn from_env() -> Self {
        Self::parse_env_value(std::env::var(SHARDS_ENV).ok().as_deref())
    }

    /// The parse behind [`MarketTopology::from_env`], split out so the
    /// valid and panicking cases are unit-testable without mutating the
    /// process environment (a data race against concurrent `getenv`).
    fn parse_env_value(raw: Option<&str>) -> Self {
        let Some(raw) = raw else {
            return MarketTopology::Monolithic;
        };
        match raw.trim().parse::<usize>() {
            Ok(1) => MarketTopology::Monolithic,
            Ok(c) if c >= 2 => MarketTopology::Sharded { count: c },
            _ => panic!(
                "{SHARDS_ENV} must be a shard count >= 1, got `{raw}` \
                 (unset the variable for the monolithic default)"
            ),
        }
    }

    /// Shard count actually used for a population of `n` items: at least
    /// 1, at most `n` (no point in more shards than items).
    pub fn effective_shards(&self, n: usize) -> usize {
        match *self {
            MarketTopology::Monolithic => 1,
            MarketTopology::Sharded { count } => count.clamp(1, n.max(1)),
        }
    }
}

/// SplitMix64 finalizer — the stable bidder → shard hash.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard a bidder id hashes into under `shards` shards and `seed`
/// (normally [`SHARD_SEED`]). This is *the* assignment [`partition`] uses,
/// exposed so tooling — e.g. the adversary simulator picking colluding
/// shard-mates — can reason about co-residency without building an
/// instance.
pub fn shard_of(bidder: usize, shards: usize, seed: u64) -> usize {
    assert!(shards >= 1, "shard_of requires at least one shard");
    (splitmix64((bidder as u64).wrapping_add(seed)) % shards as u64) as usize
}

/// Deterministically partitions an instance's items into `shards` groups
/// of ascending item indices. Assignment depends only on the item's
/// bidder id and `seed` — never on the round's population — so a bidder
/// keeps its shard across rounds and bid changes.
pub fn partition(inst: &WdpInstance, shards: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(shards >= 1, "partition requires at least one shard");
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (i, it) in inst.items.iter().enumerate() {
        groups[shard_of(it.bidder, shards, seed)].push(i);
    }
    groups
}

/// Per-shard telemetry from one sharded round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStat {
    /// Items hashed into the shard.
    pub size: usize,
    /// Winners of the shard's own WDP.
    pub winners: usize,
    /// The shard WDP's objective.
    pub welfare: f64,
    /// Provisional Clarke pivot mass `Σᵢ max(W*ₛ − W*ₛ₋ᵢ, 0)` of the
    /// shard's winners, priced *within the shard* by the incremental
    /// engine. Comparing this against the reconciliation pivot mass shows
    /// how much the topology shifts pricing.
    pub pivot_mass: f64,
}

/// Result of one sharded (or degenerate monolithic) round.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedRound {
    /// Final solution; `selected` holds indices into the full instance.
    pub solution: WdpSolution,
    /// `W*₋ᵢ` of the reconciliation pool for each entry of
    /// `solution.selected`, in order — the Clarke pivot inputs.
    pub loo_welfares: Vec<f64>,
    /// Shard count actually used.
    pub shards: usize,
    /// The reconciliation pool: every shard's winners plus first displaced
    /// candidate, ascending parent indices. For a monolithic round this is
    /// the whole market.
    pub champions: Vec<usize>,
    /// Per-shard telemetry, in shard order.
    pub shard_stats: Vec<ShardStat>,
}

impl ShardedRound {
    /// Reconciliation-level pivot mass `Σᵢ max(W* − W*₋ᵢ, 0)` of the final
    /// winners.
    pub fn pivot_mass(&self) -> f64 {
        self.loo_welfares
            .iter()
            .map(|&w| (self.solution.objective - w).max(0.0))
            .sum()
    }
}

/// The first candidate a shard's solution displaced — the runner-up that
/// joins the shard's winners in the champion pool so reconciliation can
/// both promote it and price pivots against it.
fn first_displaced(view: &WdpView<'_>, selected: &[usize]) -> Option<usize> {
    match view.budget() {
        // No budget: the (K+1)-th entry of the preference order. Including
        // it is what makes top-K reconciliation exact (see module docs).
        None => {
            let order = crate::wdp::preference_order(view);
            let k = view.max_winners().unwrap_or(view.len());
            order.get(k).copied()
        }
        // Budget: the densest positive candidate the DP left out (ties
        // break toward the lowest index — deterministic). `selected` is
        // ascending (WdpSolution contract), so membership is a bisect.
        Some(budget) => {
            let mut best: Option<(f64, usize)> = None;
            for i in view.indices() {
                let it = view.item(i);
                if it.weight <= 0.0
                    || it.cost > budget + 1e-12
                    || selected.binary_search(&i).is_ok()
                {
                    continue;
                }
                let density = it.weight / it.cost.max(1e-12);
                if best.is_none_or(|(bd, _)| density > bd) {
                    best = Some((density, i));
                }
            }
            best.map(|(_, i)| i)
        }
    }
}

/// Runs one full sharded round on `inst`: partition, per-shard solve +
/// incremental pivots (fanned out nested-safe on `pool`), champion
/// reconciliation, and reconciliation-level leave-one-out welfares for the
/// final winners. With an effective shard count of 1 this is exactly the
/// monolithic solve + pivot pass.
pub fn solve_sharded_on(
    inst: &WdpInstance,
    kind: SolverKind,
    topology: MarketTopology,
    pool: par::Pool,
) -> ShardedRound {
    solve_sharded_arena_on(inst, kind, topology, pool, &mut SolverArena::new())
}

/// [`solve_sharded_on`] through a caller-recycled [`SolverArena`]: a serial
/// caller that keeps the arena alive across rounds runs the whole pipeline
/// — per-shard solves, pivots, and reconciliation — without steady-state
/// heap allocations in the solver. A parallel shard fan-out gives each
/// worker its own arena via [`par::Pool::run_with`] (scratch never feeds
/// an output bit, so `LOVM_THREADS` still cannot change the result).
pub fn solve_sharded_arena_on(
    inst: &WdpInstance,
    kind: SolverKind,
    topology: MarketTopology,
    pool: par::Pool,
    arena: &mut SolverArena,
) -> ShardedRound {
    let n = inst.items.len();
    let eff = topology.effective_shards(n);
    telemetry::gauge!("solve.shards").set(eff.max(1) as f64);
    if eff <= 1 {
        // Monolithic short-circuit: the single solve is the round's one
        // "shard", so it still lands in the per-shard histogram.
        let _shard_span = telemetry::hist!("solve.shard_ns").span();
        let view = WdpView::full(inst);
        let solution = arena.solve_view(&view, kind);
        let mut loo_welfares = Vec::new();
        incremental_loo_view_into(
            &view,
            &solution.selected,
            kind,
            pool,
            arena,
            &mut loo_welfares,
        );
        let stat = ShardStat {
            size: n,
            winners: solution.selected.len(),
            welfare: solution.objective,
            pivot_mass: loo_welfares
                .iter()
                .map(|&w| (solution.objective - w).max(0.0))
                .sum(),
        };
        return ShardedRound {
            solution,
            loo_welfares,
            shards: 1,
            champions: (0..n).collect(),
            shard_stats: vec![stat],
        };
    }

    let groups = partition(inst, eff, SHARD_SEED);
    // Per-shard stage: each shard solves its WDP and runs the incremental
    // pivot engine over its own winners, with the worker budget split
    // between the shard fan-out and each shard's pivot merges. Serial runs
    // borrow the round's arena; parallel workers build their own.
    let (outer, inner) = pool.split(groups.len());
    let mut per_shard: Vec<(Vec<usize>, ShardStat)> = Vec::new();
    outer.run_with(
        groups.len(),
        arena,
        SolverArena::default,
        &mut per_shard,
        |shard_arena, gi| {
            // Per-shard solve + pivots span; histograms are shared
            // atomics, so parallel workers record without coordination.
            let _shard_span = telemetry::hist!("solve.shard_ns").span();
            let group = &groups[gi];
            let view = WdpView::of_subset(inst, group);
            let sol = shard_arena.solve_view(&view, kind);
            let mut loo = Vec::new();
            incremental_loo_view_into(&view, &sol.selected, kind, inner, shard_arena, &mut loo);
            let pivot_mass = loo.iter().map(|&w| (sol.objective - w).max(0.0)).sum();
            let stat = ShardStat {
                size: group.len(),
                winners: sol.selected.len(),
                welfare: sol.objective,
                pivot_mass,
            };
            let mut champs = sol.selected;
            if let Some(d) = first_displaced(&view, &champs) {
                champs.push(d);
            }
            champs.sort_unstable();
            (champs, stat)
        },
    );

    // Champion pool: shard proposals are disjoint index sets, merged into
    // one ascending roster.
    let mut champions: Vec<usize> = Vec::new();
    let mut shard_stats: Vec<ShardStat> = Vec::with_capacity(eff);
    for (champs, stat) in per_shard {
        champions.extend(champs);
        shard_stats.push(stat);
    }
    champions.sort_unstable();

    // Reconciliation: the original constraints over the champion pool,
    // then reconciliation-level pivots for the final winners.
    let _reconcile_span = telemetry::hist!("solve.reconcile_ns").span();
    let rview = WdpView::of_subset(inst, &champions);
    let solution = arena.solve_view(&rview, kind);
    let mut loo_welfares = Vec::new();
    incremental_loo_view_into(
        &rview,
        &solution.selected,
        kind,
        pool,
        arena,
        &mut loo_welfares,
    );
    ShardedRound {
        solution,
        loo_welfares,
        shards: eff,
        champions,
        shard_stats,
    }
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

    fn random_instance(rng: &mut StdRng, n: usize) -> WdpInstance {
        let items: Vec<WdpItem> = (0..n)
            .map(|i| item(i, rng.random_range(-2.0..9.0), rng.random_range(0.05..3.0)))
            .collect();
        WdpInstance::new(items)
    }

    #[test]
    fn from_env_semantics() {
        assert_eq!(MarketTopology::Monolithic.effective_shards(100), 1);
        assert_eq!(
            MarketTopology::Sharded { count: 0 }.effective_shards(100),
            1
        );
        assert_eq!(
            MarketTopology::Sharded { count: 1 }.effective_shards(100),
            1
        );
        assert_eq!(
            MarketTopology::Sharded { count: 8 }.effective_shards(100),
            8
        );
        assert_eq!(MarketTopology::Sharded { count: 8 }.effective_shards(3), 3);
        assert_eq!(MarketTopology::Sharded { count: 8 }.effective_shards(0), 1);
    }

    /// Exercises the `from_env` parse — valid and panicking cases —
    /// through the extracted value parser: mutating the real environment
    /// from a test races concurrent `getenv` callers on other test
    /// threads (UB on glibc), so the env read stays untested-thin and the
    /// decision logic is covered here.
    #[test]
    fn from_env_parses_or_panics() {
        let parse = MarketTopology::parse_env_value;
        assert_eq!(parse(None), MarketTopology::Monolithic);
        assert_eq!(parse(Some("1")), MarketTopology::Monolithic);
        assert_eq!(parse(Some(" 8 ")), MarketTopology::Sharded { count: 8 });
        // Invalid values must panic loudly, not fall back silently.
        for bad in ["abc", "0", "", "-3", "2.5"] {
            let result = std::panic::catch_unwind(|| parse(Some(bad)));
            let err = result.expect_err(&format!("`{bad}` must panic"));
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("LOVM_SHARDS must be a shard count"),
                "unhelpful panic message for `{bad}`: {msg}"
            );
        }
        // The thin env wrapper itself must accept whatever ci.sh exported
        // for this very test process (always a valid setting there).
        let _ = MarketTopology::from_env();
    }

    #[test]
    fn partition_is_stable_and_covers() {
        let mut rng = StdRng::seed_from_u64(0x5AAD);
        let inst = random_instance(&mut rng, 500);
        let groups = partition(&inst, 8, SHARD_SEED);
        assert_eq!(groups.len(), 8);
        let mut seen: Vec<usize> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<_>>(), "partition must cover");
        for g in &groups {
            assert!(g.windows(2).all(|w| w[0] < w[1]), "groups ascend");
        }
        // Stability: an item's shard depends only on its bidder id, not on
        // who else showed up this round.
        let half = WdpInstance::new(inst.items[..250].to_vec());
        let half_groups = partition(&half, 8, SHARD_SEED);
        for (s, g) in groups.iter().enumerate() {
            for &i in g.iter().filter(|&&i| i < 250) {
                assert!(
                    half_groups[s].contains(&i),
                    "bidder {i} moved shards when the population changed"
                );
            }
        }
    }

    #[test]
    fn single_shard_round_is_the_monolithic_solve() {
        let mut rng = StdRng::seed_from_u64(0x0111);
        for _ in 0..20 {
            let inst = random_instance(&mut rng, 30).with_max_winners(5);
            let round = solve_sharded_on(
                &inst,
                SolverKind::Exact,
                MarketTopology::Sharded { count: 1 },
                par::Pool::serial(),
            );
            let mono = solve(&inst, SolverKind::Exact);
            assert_eq!(round.solution, mono);
            assert_eq!(round.shards, 1);
            assert_eq!(round.champions.len(), 30);
        }
    }

    #[test]
    fn topk_sharded_is_bit_identical_to_monolithic() {
        let mut rng = StdRng::seed_from_u64(0x70CC);
        for round_no in 0..40 {
            let n = rng.random_range(10..120usize);
            let mut inst = random_instance(&mut rng, n);
            if rng.random() {
                inst = inst.with_max_winners(rng.random_range(1..12usize));
            }
            let mono = solve(&inst, SolverKind::Exact);
            for count in [2usize, 3, 8, 32] {
                let sharded = solve_sharded_on(
                    &inst,
                    SolverKind::Exact,
                    MarketTopology::Sharded { count },
                    par::Pool::serial(),
                );
                assert_eq!(
                    sharded.solution.selected, mono.selected,
                    "round {round_no} shards {count}: winner sets diverged"
                );
                assert_eq!(
                    sharded.solution.objective.to_bits(),
                    mono.objective.to_bits(),
                    "round {round_no} shards {count}: welfare bits diverged"
                );
            }
        }
    }

    #[test]
    fn champion_pool_is_winners_plus_one_per_shard() {
        let mut rng = StdRng::seed_from_u64(0xC4A3);
        let inst = random_instance(&mut rng, 200).with_max_winners(6);
        let round = solve_sharded_on(
            &inst,
            SolverKind::Exact,
            MarketTopology::Sharded { count: 4 },
            par::Pool::serial(),
        );
        assert_eq!(round.shards, 4);
        let winners: usize = round.shard_stats.iter().map(|s| s.winners).sum();
        assert!(round.champions.len() <= winners + 4);
        assert!(round.champions.len() >= winners);
        assert!(round.champions.windows(2).all(|w| w[0] < w[1]));
        // Final winners must come from the champion pool.
        for &w in &round.solution.selected {
            assert!(round.champions.binary_search(&w).is_ok());
        }
        assert_eq!(round.loo_welfares.len(), round.solution.selected.len());
        assert!(round.pivot_mass() >= 0.0);
    }

    #[test]
    fn budgeted_sharded_round_is_feasible_and_close() {
        let mut rng = StdRng::seed_from_u64(0xB4D6);
        for _ in 0..15 {
            let n = rng.random_range(40..160usize);
            let inst = {
                let base = random_instance(&mut rng, n);
                let budget = 0.05 * base.items.iter().map(|it| it.cost).sum::<f64>();
                base.with_budget(budget)
            };
            let kind = SolverKind::Knapsack { grid: 512 };
            let mono = solve(&inst, kind);
            let sharded = solve_sharded_on(
                &inst,
                kind,
                MarketTopology::Sharded { count: 4 },
                par::Pool::serial(),
            );
            assert!(
                WdpView::full(&inst).feasible(&sharded.solution.selected),
                "sharded selection violates the budget"
            );
            assert!(
                sharded.solution.objective >= 0.75 * mono.objective,
                "sharded welfare {} collapsed vs monolithic {}",
                sharded.solution.objective,
                mono.objective
            );
        }
    }

    #[test]
    fn sharded_round_is_pool_invariant() {
        let mut rng = StdRng::seed_from_u64(0xD00D);
        let inst = {
            let base = random_instance(&mut rng, 300);
            let budget = 0.04 * base.items.iter().map(|it| it.cost).sum::<f64>();
            base.with_budget(budget)
        };
        let kind = SolverKind::Knapsack { grid: 256 };
        let serial = solve_sharded_on(
            &inst,
            kind,
            MarketTopology::Sharded { count: 8 },
            par::Pool::serial(),
        );
        let pooled = solve_sharded_on(
            &inst,
            kind,
            MarketTopology::Sharded { count: 8 },
            par::Pool::with_threads(4),
        );
        assert_eq!(serial.solution, pooled.solution);
        assert_eq!(serial.champions, pooled.champions);
        assert_eq!(
            serial
                .loo_welfares
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>(),
            pooled
                .loo_welfares
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>()
        );
    }
}
