//! Statistics containers shared by the memory hierarchy and the CPU model,
//! plus the aggregation helpers (geometric mean) used by the evaluation
//! methodology (§IV-A: "we report weighted geomean speedups").
//!
//! # Counter schema
//!
//! Every counter struct is declared once, through the `counters!` macro. The
//! macro keeps each field's name, type and doc comment and implements
//! [`Counters`] over the fields: a visitor that names each counter by its
//! dotted path (`l1d.demand_misses`, `core.stalls.rob_full`), field-wise
//! accumulation, and a constructor from a value source. A field is either
//! a `u64` or a nested counter struct. [`StatsView`] borrows one core's
//! structs under the names `Report` gives them; the golden fingerprint,
//! the interval capture and its tests all read counters through it.

use crate::telemetry::StallBreakdown;

/// A struct of `u64` counters, implemented by the `counters!` macro;
/// `u64` itself is the leaf.
pub trait Counters {
    /// Calls `f` with the dotted name and the value of every counter, in
    /// declaration order. Names extend `path` (empty at the top level),
    /// which is restored on return.
    fn for_each_counter(&self, path: &mut String, f: &mut dyn FnMut(&str, u64));

    /// Adds `other` to `self`, counter by counter.
    fn accumulate(&mut self, other: &Self);

    /// Builds a value whose counters, in declaration order, are drawn from
    /// `next` (tests use it to give every counter a distinct value).
    fn from_fn(next: &mut dyn FnMut() -> u64) -> Self;

    /// [`for_each_counter`](Self::for_each_counter) under `path.name`
    /// (`name` when `path` is empty).
    fn visit_named(&self, name: &str, path: &mut String, f: &mut dyn FnMut(&str, u64)) {
        let len = path.len();
        if len > 0 {
            path.push('.');
        }
        path.push_str(name);
        self.for_each_counter(path, f);
        path.truncate(len);
    }
}

impl Counters for u64 {
    fn for_each_counter(&self, path: &mut String, f: &mut dyn FnMut(&str, u64)) {
        f(path, *self);
    }

    fn accumulate(&mut self, other: &Self) {
        *self += other;
    }

    fn from_fn(next: &mut dyn FnMut() -> u64) -> Self {
        next()
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `count` per kilo-instruction, or 0 over no instructions.
pub fn per_kilo(count: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / instructions as f64
    }
}

/// Declares counter structs: each field is a `u64` or a nested counter
/// struct, and the struct gets `Clone, Copy, Debug, Default, PartialEq,
/// Eq` and a [`Counters`] implementation over its fields.
///
/// The `from` form declares a named subset of a [`StatsView`] instead: each
/// field reads `name => unit.field` and the struct gains a `capture`
/// function made of plain field reads, plus the JSONL helpers (see
/// [`crate::TelemetryCounters`]).
macro_rules! counters {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)+
        }
    )+) => {$(
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)+
        }

        impl $crate::stats::Counters for $name {
            fn for_each_counter(&self, path: &mut String, f: &mut dyn FnMut(&str, u64)) {
                $($crate::stats::Counters::visit_named(&self.$field, stringify!($field), path, f);)+
            }

            fn accumulate(&mut self, other: &Self) {
                $($crate::stats::Counters::accumulate(&mut self.$field, &other.$field);)+
            }

            fn from_fn(next: &mut dyn FnMut() -> u64) -> Self {
                Self {
                    $($field: $crate::stats::Counters::from_fn(next),)+
                }
            }
        }
    )+};
    (
        $(#[$meta:meta])*
        pub struct $name:ident from StatsView {
            $($field:ident => $unit:ident . $($path:ident).+,)+
        }
    ) => {
        $crate::stats::counters! {
            $(#[$meta])*
            pub struct $name {
                $(
                    #[doc = concat!("Cumulative `", stringify!($unit), $(".", stringify!($path),)+ "`.")]
                    pub $field: u64,
                )+
            }
        }

        impl $name {
            /// The dotted [`StatsView`](crate::stats::StatsView) name each
            /// field reads, in declaration order.
            pub const SOURCES: &'static [&'static str] =
                &[$(concat!(stringify!($unit), $(".", stringify!($path)),+)),+];

            /// Reads every field from `v`.
            pub fn capture(v: &$crate::stats::StatsView) -> Self {
                Self {
                    $($field: v.$unit $(.$path)+,)+
                }
            }

            /// Per-field difference `self - base` (saturating, though
            /// captures taken in order never go backwards).
            pub fn delta(&self, base: &Self) -> Self {
                Self {
                    $($field: self.$field.saturating_sub(base.$field),)+
                }
            }

            /// Adds `value` to the field called `name` unless the sum
            /// overflows `u64`: `Some(true)` once added, `Some(false)` on
            /// overflow (the field keeps its value), `None` when no such
            /// field exists. The JSONL validator re-sums deltas with it,
            /// without a serde dependency.
            pub fn add_named(&mut self, name: &str, value: u64) -> Option<bool> {
                let field = match name {
                    $(stringify!($field) => &mut self.$field,)+
                    _ => return None,
                };
                let sum = field.checked_add(value);
                *field = sum.unwrap_or(*field);
                Some(sum.is_some())
            }
        }
    };
}
pub(crate) use counters;

counters! {
    /// Per-cache counters split by demand/prefetch traffic.
    pub struct CacheStats {
        /// Demand accesses (loads + stores + fetches, per cache role).
        pub demand_accesses: u64,
        /// Demand misses.
        pub demand_misses: u64,
        /// Prefetch-probe accesses (lookups on behalf of prefetch traffic;
        /// disjoint from `demand_accesses`).
        pub prefetch_accesses: u64,
        /// Prefetch-probe accesses that hit.
        pub prefetch_hits: u64,
        /// Prefetch fills installed into this cache.
        pub prefetch_fills: u64,
        /// Prefetched blocks that served at least one demand hit before eviction.
        pub prefetch_useful: u64,
        /// Prefetched blocks evicted without serving any demand hit.
        pub prefetch_useless: u64,
        /// Page-cross prefetched blocks filled (PCB set).
        pub pgc_fills: u64,
        /// Page-cross prefetched blocks that were useful.
        pub pgc_useful: u64,
        /// Page-cross prefetched blocks that were useless.
        pub pgc_useless: u64,
        /// Evictions of dirty blocks (writebacks).
        pub writebacks: u64,
    }

    /// Per-TLB counters.
    pub struct TlbStats {
        /// Translation lookups (demand only; prefetch probes counted separately).
        pub accesses: u64,
        /// Lookup misses.
        pub misses: u64,
        /// Lookups on behalf of prefetch requests.
        pub prefetch_probes: u64,
        /// Prefetch-probe misses.
        pub prefetch_probe_misses: u64,
        /// Translations installed by page-cross prefetch walks.
        pub prefetch_fills: u64,
    }

    /// Page-table-walker counters.
    pub struct WalkStats {
        /// Walks triggered by demand accesses.
        pub demand_walks: u64,
        /// Speculative walks triggered by page-cross prefetches.
        pub prefetch_walks: u64,
        /// Total memory references the walker issued.
        pub memory_refs: u64,
        /// Memory references that hit in the page-structure caches (skipped
        /// levels count as PSC hits).
        pub psc_hits: u64,
    }

    /// Prefetcher-level counters (issue-side, before fill-side usefulness).
    pub struct PrefetchStats {
        /// Candidates generated by the prefetcher.
        pub candidates: u64,
        /// Candidates that crossed a 4 KB page boundary.
        pub pgc_candidates: u64,
        /// Page-cross candidates discarded by the active policy/filter.
        pub pgc_discarded: u64,
        /// Page-cross candidates issued.
        pub pgc_issued: u64,
        /// In-page prefetches issued.
        pub inpage_issued: u64,
        /// Issued prefetches dropped because the target was already cached or
        /// an MSHR for it was in flight.
        pub redundant: u64,
        /// Speculative page walks triggered by issued page-cross prefetches.
        pub speculative_walks: u64,
    }

    /// Imitation-OS memory-management counters, attributed to the core whose
    /// access triggered the work (shootdown IPIs are attributed to the
    /// receiving core via `ipis_received`). All-zero when the OS layer is off.
    pub struct OsStats {
        /// First-touch page faults (page had never been mapped).
        pub minor_faults: u64,
        /// Faults on pages previously evicted by reclamation (swap-in).
        pub major_faults: u64,
        /// Frames reclaimed by the CLOCK sweep to satisfy this core's faults.
        pub reclaims: u64,
        /// 2 MB regions promoted by the THP daemon on this core's touches.
        pub thp_promotions: u64,
        /// 2 MB regions split back to 4 KB pages under memory pressure.
        pub thp_demotions: u64,
        /// TLB shootdown broadcasts this core's faults triggered.
        pub shootdowns: u64,
        /// Shootdown invalidation IPIs delivered to this core from others.
        pub ipis_received: u64,
        /// Total cycles of OS work charged to this core's accesses.
        pub fault_cycles: u64,
    }

    /// Core-level counters.
    pub struct CoreStats {
        /// Retired instructions.
        pub instructions: u64,
        /// Elapsed cycles.
        pub cycles: u64,
        /// Retired loads.
        pub loads: u64,
        /// Retired stores.
        pub stores: u64,
        /// Branch mispredictions.
        pub branch_mispredicts: u64,
        /// Retired branches.
        pub branches: u64,
        /// Top-down issue-slot loss attribution (see
        /// [`StallBreakdown`] for the accounting invariant).
        pub stalls: StallBreakdown,
    }
}

impl CacheStats {
    /// Demand miss rate in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.demand_misses, self.demand_accesses)
    }

    /// Misses per kilo-instruction given a retired-instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        per_kilo(self.demand_misses, instructions)
    }
}

impl TlbStats {
    /// Demand miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.misses, self.accesses)
    }

    /// Demand misses per kilo-instruction.
    pub fn mpki(&self, instructions: u64) -> f64 {
        per_kilo(self.misses, instructions)
    }
}

impl OsStats {
    /// Total page faults (minor + major).
    pub fn faults(&self) -> u64 {
        self.minor_faults + self.major_faults
    }
}

impl CoreStats {
    /// Instructions per cycle; zero when no cycles have elapsed.
    pub fn ipc(&self) -> f64 {
        ratio(self.instructions, self.cycles)
    }
}

/// One core's counter structs, borrowed under the names `Report` gives
/// them. Its visitor is the dotted-name root of the schema (`core.cycles`,
/// `l1d.demand_misses`, …), and `TelemetryCounters::capture` reads its
/// subset from it.
#[derive(Clone, Copy, Debug)]
pub struct StatsView<'a> {
    /// Core statistics.
    pub core: &'a CoreStats,
    /// L1I statistics.
    pub l1i: &'a CacheStats,
    /// L1D statistics.
    pub l1d: &'a CacheStats,
    /// L2C statistics.
    pub l2c: &'a CacheStats,
    /// LLC statistics.
    pub llc: &'a CacheStats,
    /// dTLB statistics.
    pub dtlb: &'a TlbStats,
    /// sTLB statistics.
    pub stlb: &'a TlbStats,
    /// Page-walker statistics.
    pub walks: &'a WalkStats,
    /// Prefetch-issue statistics.
    pub prefetch: &'a PrefetchStats,
    /// Imitation-OS counters.
    pub os: &'a OsStats,
}

impl StatsView<'_> {
    /// Calls `f` with the dotted name and value of every counter, in
    /// `Report` field order.
    pub fn for_each_counter(&self, f: &mut dyn FnMut(&str, u64)) {
        let path = &mut String::new();
        self.core.visit_named("core", path, f);
        self.l1i.visit_named("l1i", path, f);
        self.l1d.visit_named("l1d", path, f);
        self.l2c.visit_named("l2c", path, f);
        self.llc.visit_named("llc", path, f);
        self.dtlb.visit_named("dtlb", path, f);
        self.stlb.visit_named("stlb", path, f);
        self.walks.visit_named("walks", path, f);
        self.prefetch.visit_named("prefetch", path, f);
        self.os.visit_named("os", path, f);
    }
}

/// Geometric mean of a sequence of strictly positive values.
///
/// Returns `None` for an empty slice or when any value is non-positive
/// (the evaluation methodology only aggregates positive speedups).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_miss_rate_and_mpki() {
        let s = CacheStats {
            demand_accesses: 200,
            demand_misses: 50,
            ..Default::default()
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.mpki(10_000) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let c = CacheStats::default();
        assert_eq!(c.miss_rate(), 0.0);
        assert_eq!(c.mpki(0), 0.0);
        let t = TlbStats::default();
        assert_eq!(t.miss_rate(), 0.0);
        assert_eq!(t.mpki(0), 0.0);
        let k = CoreStats::default();
        assert_eq!(k.ipc(), 0.0);
    }

    #[test]
    fn tlb_rates() {
        let t = TlbStats {
            accesses: 1000,
            misses: 10,
            ..Default::default()
        };
        assert!((t.miss_rate() - 0.01).abs() < 1e-12);
        assert!((t.mpki(1_000_000) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn ipc_computation() {
        let c = CoreStats {
            instructions: 3000,
            cycles: 1000,
            ..Default::default()
        };
        assert!((c.ipc() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_identity_is_identity() {
        let g = geomean(&[1.0, 1.0, 1.0]).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
    }
}
