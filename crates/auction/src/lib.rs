//! # auction — mechanism-design core
//!
//! Sealed-bid reverse-auction machinery for federated-learning incentive
//! mechanisms:
//!
//! * [`bid`] — bidder types (private cost, verifiable data size/quality),
//! * [`valuation`] — how the platform values a selected client,
//! * [`wdp`] — winner-determination solvers (exact top-K, knapsack DP,
//!   exhaustive, greedy density),
//! * [`vcg`] — Clarke-pivot payments over a scored winner-determination
//!   instance (the per-round auction used by LOVM),
//! * [`pivots`] — the incremental leave-one-out welfare engine behind VCG
//!   payments: all `W*₋ᵢ` from one shared pass, bit-identical to the naive
//!   per-winner re-solve,
//! * [`shard`] — the sharded market engine: stable seeded partition,
//!   independent per-shard WDP + pivot solves, and a champion
//!   reconciliation that is bit-identical to the monolithic top-K path
//!   and welfare-bounded for budgeted rounds,
//! * [`sealed`] — the sealed-round adapter: canonical ascending-bidder
//!   snapshots the streaming ingestion layer hands to this batch path,
//! * [`critical`] — Myerson critical-value payments for monotone
//!   allocation rules (used by greedy baselines),
//! * [`properties`] — executable checks for truthfulness, individual
//!   rationality, and budget feasibility used by tests and the harness.
//!
//! # Example: one VCG procurement round
//!
//! ```
//! use auction::bid::Bid;
//! use auction::valuation::{ClientValue, Valuation};
//! use auction::vcg::{VcgAuction, VcgConfig};
//!
//! let bids = vec![
//!     Bid::new(0, 1.0, 100, 0.9),
//!     Bid::new(1, 4.0, 120, 0.8),
//!     Bid::new(2, 0.5, 40, 0.5),
//! ];
//! let valuation = Valuation::Linear(ClientValue::default());
//! let auction = VcgAuction::new(VcgConfig {
//!     value_weight: 1.0,
//!     cost_weight: 1.0,
//!     max_winners: Some(2),
//!     ..VcgConfig::default()
//! });
//! let outcome = auction.run(&bids, &valuation);
//! // Winners are paid at least their reported cost (individual rationality).
//! for w in &outcome.winners {
//!     assert!(outcome.payment_of(w.bidder).unwrap() >= w.cost - 1e-9);
//! }
//! ```

pub mod bid;
pub mod critical;
pub mod outcome;
pub mod pivots;
pub mod properties;
pub mod sealed;
pub mod shard;
pub mod valuation;
pub mod vcg;
pub mod wdp;

pub use bid::Bid;
pub use outcome::{AuctionOutcome, Award};
pub use sealed::SealedRound;
pub use shard::MarketTopology;
pub use valuation::{ClientValue, Valuation};
pub use vcg::{RoundScratch, VcgAuction, VcgConfig};
pub use wdp::{
    solve, solve_view, SolverArena, SolverKind, WdpInstance, WdpItem, WdpSolution, WdpView, DP_EPS,
};
