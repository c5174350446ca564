//! Hardware prefetchers for the `pagecross` reproduction.
//!
//! The paper evaluates page-cross filtering for three state-of-the-art L1D
//! prefetchers — **Berti** (MICRO'22), **IPCP** (ISCA'20) and **BOP**
//! (HPCA'16) — plus **SPP** (MICRO'16) as an L2C prefetcher in §V-B7. All
//! four are reimplemented here from their papers, mechanism-faithful but
//! compact.
//!
//! A crucial departure from the reference implementations: the originals
//! *clamp or drop* prefetch candidates at the 4 KB page boundary. Here every
//! prefetcher emits its raw candidates, page-crossing or not, and the
//! page-cross *policy* (crate `moka-pgc`) decides their fate — exactly the
//! decomposition the paper proposes (Fig. 5).
//!
//! # Example
//!
//! ```
//! use pagecross_prefetch::{AccessInfo, Berti, L1dPrefetcher};
//! use pagecross_types::VirtAddr;
//!
//! let mut pf = Berti::new(1);
//! let mut out = Vec::new();
//! // A steady +1-line stream trains Berti to prefetch ahead.
//! for i in 0..256u64 {
//!     let info = AccessInfo {
//!         pc: 0x400100,
//!         va: VirtAddr::new(0x10_0000 + i * 64),
//!         hit: i % 4 != 0,
//!         cycle: i * 10,
//!         first_page_access: false,
//!     };
//!     pf.on_access(&info, &mut out);
//!     pf.on_fill(info.va, info.cycle + 200);
//! }
//! assert!(!out.is_empty(), "a trained Berti issues prefetches");
//! ```

pub mod baseline;
pub mod berti;
pub mod bop;
pub mod fnl;
pub mod ipcp;
pub mod spp;

pub use baseline::{NextLine, Stride};
pub use berti::Berti;
pub use bop::Bop;
pub use fnl::FnlMma;
pub use ipcp::Ipcp;
pub use spp::Spp;

use pagecross_types::{PrefetchCandidate, VirtAddr};

/// One demand access as seen by an L1D prefetcher.
#[derive(Clone, Copy, Debug)]
pub struct AccessInfo {
    /// Program counter of the load/store.
    pub pc: u64,
    /// Virtual address accessed.
    pub va: VirtAddr,
    /// The access hit in L1D.
    pub hit: bool,
    /// Cycle of the access.
    pub cycle: u64,
    /// First touch to this 4 KB page (program-feature input).
    pub first_page_access: bool,
}

/// An L1D prefetcher: trained by demand accesses in the virtual address
/// space, emits [`PrefetchCandidate`]s that the page-cross policy filters.
pub trait L1dPrefetcher {
    /// Prefetcher name for reports.
    fn name(&self) -> &'static str;

    /// Observes a demand access and appends prefetch candidates to `out`.
    fn on_access(&mut self, info: &AccessInfo, out: &mut Vec<PrefetchCandidate>);

    /// Observes the completion (fill) of a demand miss; prefetchers that
    /// learn timeliness (Berti) use this. Default: ignored.
    fn on_fill(&mut self, _va: VirtAddr, _cycle: u64) {}
}

/// An L2C prefetcher: trained by L2 accesses in the physical address space,
/// never crosses a physical 4 KB page (§II-A2).
pub trait L2Prefetcher {
    /// Prefetcher name for reports.
    fn name(&self) -> &'static str;

    /// Observes an L2 access (physical byte address) with a hit flag and
    /// appends physical prefetch targets (byte addresses) that stay within
    /// the same 4 KB physical page.
    fn on_access(&mut self, pc: u64, paddr: u64, hit: bool, out: &mut Vec<u64>);
}

pub(crate) fn candidate(
    pc: u64,
    trigger: VirtAddr,
    delta_lines: i64,
    first_page_access: bool,
) -> PrefetchCandidate {
    let target = trigger
        .line_base()
        .offset(delta_lines * pagecross_types::LINE_SIZE as i64);
    PrefetchCandidate {
        pc,
        trigger,
        target,
        delta: delta_lines,
        first_page_access,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_helper_computes_target_and_delta() {
        let c = candidate(0x400, VirtAddr::new(0x1040), 2, false);
        assert_eq!(c.target.raw(), 0x1000 + 0x40 + 2 * 64);
        assert_eq!(c.delta, 2);
        assert!(!c.crosses_page_4k());
    }

    #[test]
    fn candidate_helper_negative_delta_crosses_backward() {
        let c = candidate(0x400, VirtAddr::new(0x1000), -1, true);
        assert!(c.crosses_page_4k());
        assert!(c.first_page_access);
    }
}
