//! Memory-hierarchy substrate for the `pagecross` reproduction.
//!
//! Everything the paper's methodology (§IV, Table IV) simulates below the
//! core is implemented here, from scratch:
//!
//! * [`cache::Cache`] — set-associative caches with LRU, prefetch metadata
//!   and the Page-Cross Bit on every block, built like the TLBs and the
//!   page-structure caches on one private set-associative LRU array;
//! * [`mshr::Mshr`] — miss status holding registers with merge semantics;
//! * [`tlb::Tlb`] — page-size-aware dTLB/iTLB/sTLB;
//! * [`page_table::PageWalker`] — 5-level radix page table with split
//!   page-structure caches and pointer-chased walk references;
//! * [`vmem`] — on-demand virtual memory with 4 KB and 2 MB pages and
//!   pseudo-random physical frame placement;
//! * [`dram::Dram`] — latency + bandwidth DRAM model;
//! * [`system::MemorySystem`] — the composed single/multi-core hierarchy
//!   exposing the demand, fetch, translation-probe and prefetch-issue
//!   paths that the CPU model drives.
//!
//! # Example
//!
//! ```
//! use pagecross_mem::{MemConfig, MemorySystem};
//! use pagecross_mem::vmem::HugePagePolicy;
//! use pagecross_types::VirtAddr;
//!
//! let mut mem = MemorySystem::new(MemConfig::table_iv(1), 1, HugePagePolicy::None, 7);
//! let cold = mem.demand_data(0, VirtAddr::new(0x1234_5678), false, 0).unwrap();
//! let warm = mem.demand_data(0, VirtAddr::new(0x1234_5678), false, 10_000).unwrap();
//! assert!(warm.ready - 10_000 < cold.ready, "second access is cached");
//! ```

pub mod cache;
pub mod config;
pub mod dram;
mod lru;
pub mod mshr;
pub mod page_table;
pub mod system;
pub mod tlb;
pub mod vmem;

pub use cache::{Cache, Eviction, FillKind, Lookup};
pub use config::{CacheConfig, DramConfig, MemConfig, PscConfig, TlbConfig};
pub use dram::Dram;
pub use mshr::Mshr;
pub use page_table::{Level, PageWalker, PteRefs, WalkPlan};
pub use system::{CoreMem, DemandDataResult, FetchResult, MemorySystem, PrefetchIssueResult};
pub use tlb::{Tlb, Translation};
pub use vmem::{FrameAllocator, HugePagePolicy, OomError, Vmem};
