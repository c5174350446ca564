//! Prefetch request and translation types shared across crates.

use crate::addr::VirtAddr;

/// Page size of a mapping, as tracked by the virtual-memory model and TLBs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PageSize {
    /// 4 KB base page.
    #[default]
    Base4K,
    /// 2 MB large page.
    Huge2M,
}

impl PageSize {
    /// Page size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Base4K => crate::addr::PAGE_SIZE_4K,
            PageSize::Huge2M => crate::addr::HUGE_PAGE_SIZE_2M,
        }
    }

    /// Log2 of the page size.
    #[inline]
    pub const fn shift(self) -> u32 {
        match self {
            PageSize::Base4K => crate::addr::PAGE_SHIFT_4K,
            PageSize::Huge2M => crate::addr::HUGE_PAGE_SHIFT_2M,
        }
    }
}

/// A prefetch candidate produced by an L1D prefetcher, before any
/// page-cross filtering or translation.
///
/// The candidate carries everything MOKA's program features need
/// (paper Table I): the triggering PC and virtual address, the target
/// virtual address, and the signed line delta the prefetcher applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchCandidate {
    /// Program counter of the load that triggered the prefetch.
    pub pc: u64,
    /// Virtual address of the triggering demand access.
    pub trigger: VirtAddr,
    /// Virtual address the prefetcher wants to fetch.
    pub target: VirtAddr,
    /// Signed delta in cache lines from trigger to target.
    pub delta: i64,
    /// True when the triggering access was the first touch to its 4 KB page
    /// (the `FirstPageAccess` program feature input).
    pub first_page_access: bool,
}

impl PrefetchCandidate {
    /// True when the target lies on a different 4 KB page than the trigger —
    /// the paper's definition of a page-cross prefetch (Fig. 1).
    #[inline]
    pub fn crosses_page_4k(&self) -> bool {
        self.trigger.crosses_4k(self.target)
    }

    /// True when the target lies on a different 2 MB page than the trigger;
    /// used by the `DRIPPER(filter@2MB)` variant of §V-B6.
    #[inline]
    pub fn crosses_page_2m(&self) -> bool {
        self.trigger.crosses_2m(self.target)
    }
}

/// Outcome of translating a prefetch target through the TLB hierarchy,
/// reported back to policies such as `Discard PTW` (§V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TranslationOutcome {
    /// Translation present in the first-level TLB.
    DtlbHit,
    /// Translation present in the last-level TLB.
    StlbHit,
    /// Translation absent from the TLB hierarchy; serving it requires a
    /// (speculative, for prefetches) page walk.
    RequiresWalk,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{HUGE_PAGE_SIZE_2M, PAGE_SIZE_4K};

    fn cand(trigger: u64, target: u64) -> PrefetchCandidate {
        PrefetchCandidate {
            pc: 0x400000,
            trigger: VirtAddr::new(trigger),
            target: VirtAddr::new(target),
            delta: ((target as i64) - (trigger as i64)) >> 6,
            first_page_access: false,
        }
    }

    #[test]
    fn in_page_candidate_does_not_cross() {
        let c = cand(0x1000, 0x1040);
        assert!(!c.crosses_page_4k());
        assert!(!c.crosses_page_2m());
    }

    #[test]
    fn page_cross_candidate_detected() {
        let c = cand(PAGE_SIZE_4K - 64, PAGE_SIZE_4K);
        assert!(c.crosses_page_4k());
        assert!(!c.crosses_page_2m());
    }

    #[test]
    fn huge_page_cross_detected() {
        let c = cand(HUGE_PAGE_SIZE_2M - 64, HUGE_PAGE_SIZE_2M);
        assert!(c.crosses_page_4k());
        assert!(c.crosses_page_2m());
    }

    #[test]
    fn backward_cross_detected() {
        let c = cand(PAGE_SIZE_4K, PAGE_SIZE_4K - 64);
        assert!(c.crosses_page_4k());
        assert!(c.delta < 0);
    }

    #[test]
    fn page_size_constants() {
        assert_eq!(PageSize::Base4K.bytes(), 4096);
        assert_eq!(PageSize::Huge2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Base4K.shift(), 12);
        assert_eq!(PageSize::Huge2M.shift(), 21);
    }
}
