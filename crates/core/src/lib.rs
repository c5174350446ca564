//! # MOKA — a framework for page-cross prefetch filters
//!
//! This crate is the primary contribution of *"To Cross, or Not to Cross
//! Pages for Prefetching?"* (HPCA 2025): a holistic framework for building
//! **Page-Cross Filters** — microarchitectural predictors that decide, per
//! prefetch request crossing a virtual 4 KB page boundary, whether issuing
//! it (possibly at the cost of a speculative page walk) will help or hurt.
//!
//! The framework combines:
//!
//! 1. [`features`] — a bouquet of 55 prefetcher-independent **program
//!    features** hashed into perceptron weight tables of
//!    [`WEIGHT_BITS`](perceptron::WEIGHT_BITS)-bit weights ([`perceptron`]);
//! 2. [`system_features`] — gated saturating-counter **system features**
//!    that fold TLB/cache pressure into the decision;
//! 3. [`buffers`] — the **vUB**/**pUB** update buffers that route training
//!    back to the exact weights that produced each decision;
//! 4. [`threshold`] — the epoch-based **adaptive thresholding** scheme,
//!    whose constants the paper fixes (§III-C3, Fig. 8).
//!
//! [`PageCrossFilter`] assembles them and is itself a [`PgcPolicy`], next
//! to the static policies of [`policy`]. A [`FilterConfig`] holds what
//! varies between filters: the feature selection, the table and buffer
//! sizes, and adaptive or static thresholding. [`dripper`](mod@dripper)
//! configures it as the paper's DRIPPER prototype (Table II) and as the
//! filter-backed comparison schemes of Fig. 9, and [`selection`] searches
//! over `FilterConfig`s for the best feature set (§III-D3).
//!
//! # Example: DRIPPER learns from false negatives
//!
//! ```
//! use moka_pgc::dripper::{dripper, TargetPrefetcher};
//! use moka_pgc::features::FeatureContext;
//! use moka_pgc::policy::{PgcPolicy, PolicyAction};
//! use pagecross_types::{PrefetchCandidate, SystemSnapshot, VirtAddr};
//!
//! let mut policy = dripper(TargetPrefetcher::Berti);
//! let cand = PrefetchCandidate {
//!     pc: 0x400100,
//!     trigger: VirtAddr::new(0x1FC0),
//!     target: VirtAddr::new(0x2000), // crosses into the next page
//!     delta: 1,
//!     first_page_access: false,
//! };
//! let ctx = FeatureContext { pc: 0x400100, va: 0x1FC0, target_va: 0x2000, delta: 1, ..Default::default() };
//! let snap = SystemSnapshot::default();
//!
//! // A fresh DRIPPER starts permissive (bootstrap through the pUB)…
//! assert!(matches!(policy.decide(&cand, &ctx, &snap), PolicyAction::Issue { .. }));
//! // …and useless outcomes (PCB blocks evicted without serving a hit)
//! // teach it to discard this delta:
//! for line in 0..8u64 {
//!     policy.decide(&cand, &ctx, &snap);
//!     policy.on_issued(line);
//!     policy.on_pcb_eviction(line, false);
//! }
//! assert_eq!(policy.decide(&cand, &ctx, &snap), PolicyAction::Discard);
//! // A discarded prefetch that turns into a demand miss is a false
//! // negative caught by the vUB, training the filter back toward issuing.
//! for _ in 0..20 {
//!     policy.decide(&cand, &ctx, &snap);
//!     policy.on_l1d_demand_miss(cand.target.line().raw());
//! }
//! assert!(matches!(policy.decide(&cand, &ctx, &snap), PolicyAction::Issue { .. }));
//! ```

pub mod buffers;
pub mod dripper;
pub mod features;
pub mod filter;
pub mod perceptron;
pub mod policy;
pub mod selection;
pub mod system_features;
pub mod threshold;

pub use dripper::{dripper, TargetPrefetcher};
pub use features::{FeatureContext, ProgramFeature};
pub use filter::{FilterConfig, FilterStats, PageCrossFilter};
pub use policy::{DiscardPgc, DiscardPtw, PermitPgc, PgcPolicy, PolicyAction};
pub use selection::{select_features, CandidateFeature, SelectionOutcome};
pub use system_features::SystemFeature;
pub use threshold::AdaptiveThreshold;
