//! Shared foundation types for the `pagecross` simulator workspace.
//!
//! This crate defines the vocabulary used by every other crate in the
//! reproduction of *"To Cross, or Not to Cross Pages for Prefetching?"*
//! (HPCA 2025):
//!
//! * strongly-typed addresses ([`VirtAddr`], [`PhysAddr`], page/line
//!   projections) so virtual and physical address spaces can never be
//!   confused — the paper's entire premise rests on the distinction;
//! * [`SatCounter`], the signed saturating counter used to implement
//!   perceptron weights and system-feature weights;
//! * [`Rng64`], a tiny deterministic PRNG so simulations are reproducible
//!   bit-for-bit across runs;
//! * prefetch request/decision types shared between the prefetcher crate,
//!   the MOKA filter crate and the CPU model;
//! * [`SystemSnapshot`], the bundle of runtime statistics (MPKIs, miss
//!   rates, ROB pressure, …) that MOKA's system features and adaptive
//!   thresholding consume.
//!
//! # Example
//!
//! ```
//! use pagecross_types::{VirtAddr, PAGE_SHIFT_4K};
//!
//! let a = VirtAddr::new(0x1000 - 64);
//! let b = VirtAddr::new(0x1000);
//! assert!(a.page_4k() != b.page_4k(), "the two lines sit on different 4KB pages");
//! assert_eq!(b.raw() >> PAGE_SHIFT_4K, b.page_4k().raw());
//! ```

pub mod addr;
pub mod counter;
pub mod prop;
pub mod request;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod telemetry;

pub use addr::{
    LineAddr, PageNum, PhysAddr, VirtAddr, HUGE_PAGE_SHIFT_2M, HUGE_PAGE_SIZE_2M, LINE_SHIFT,
    LINE_SIZE, PAGE_SHIFT_4K, PAGE_SIZE_4K,
};
pub use counter::SatCounter;
pub use request::{AccessKind, Decision, PageSize, PrefetchCandidate, TranslationOutcome};
pub use rng::Rng64;
pub use snapshot::SystemSnapshot;
pub use stats::{geomean, CacheStats, CoreStats, OsStats, PrefetchStats, TlbStats, WalkStats};
pub use telemetry::{
    IntervalRecord, OsOp, PolicyTelemetry, StallBreakdown, StallCause, TelemetryCounters,
    TimedEvent, TraceEvent,
};
