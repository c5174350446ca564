//! Integration tests for the imitation-OS memory model: demand paging,
//! frame reclamation under real memory pressure, THP promotion, and TLB
//! shootdowns — all exercised through the public `SimulationBuilder` API
//! exactly as the CLI drives it.

use pagecross::cpu::trace::{Instr, Op, TraceFactory, TraceSource};
use pagecross::cpu::{CoreConfig, OsConfig, PrefetcherKind, SimulationBuilder};
use pagecross::types::{OsStats, VirtAddr};
use pagecross::workloads::{suite, SuiteId};

/// A data stream wider than a 64 MB machine's 4 KB pool (8 192 frames):
/// one load per instruction, stride one page, wrapping over `pages`
/// distinct pages so evicted pages are revisited after reclamation.
struct WideStream {
    pages: u64,
}

struct WideSrc {
    pages: u64,
    i: u64,
}

impl TraceSource for WideSrc {
    fn next_instr(&mut self) -> Instr {
        self.i += 1;
        let page = self.i % self.pages;
        Instr {
            pc: 0x40_0000 + (self.i % 8) * 4,
            op: Op::Load {
                va: VirtAddr::new(0x1000_0000 + page * 4096),
                depends_on_prev: false,
            },
        }
    }
}

impl TraceFactory for WideStream {
    fn name(&self) -> &str {
        "wide-stream"
    }
    fn build(&self) -> Box<dyn TraceSource> {
        Box::new(WideSrc {
            pages: self.pages,
            i: 0,
        })
    }
}

fn pressure_config() -> OsConfig {
    OsConfig {
        phys_mem_bytes: 64 << 20,
        thp: 0.5,
        ..OsConfig::default()
    }
}

/// A 64 MB machine streaming a 48 MB data footprint must fault every
/// page in, reclaim frames once the pool drains, shoot down stale TLB
/// entries, and re-fault reclaimed pages as major faults on the second
/// pass — while the exact stall-slot accounting keeps holding. The exact
/// counters and cycle count lock the CLOCK sweep's victim order: which
/// pages it reclaims decides which revisits major-fault.
#[test]
fn memory_pressure_exercises_the_whole_reclaim_path() {
    let w = WideStream { pages: 12_288 }; // 48 MB > the 32 MB 4K pool
    let r = SimulationBuilder::new()
        .prefetcher(PrefetcherKind::None)
        .os(OsConfig {
            phys_mem_bytes: 64 << 20,
            thp: 0.0, // pure 4 KB backing keeps the footprint > the pool
            ..OsConfig::default()
        })
        .warmup(5_000)
        .instructions(20_000)
        .run_workload(&w);

    assert!(r.os.minor_faults > 0, "first touches must minor-fault");
    assert!(r.os.reclaims > 0, "a drained pool must reclaim frames");
    assert!(r.os.shootdowns > 0, "reclaims must invalidate TLBs");
    assert!(
        r.os.major_faults > 0,
        "revisiting reclaimed pages must major-fault"
    );
    assert!(r.core.stalls.os_fault > 0, "faults must cost issue slots");
    assert_eq!(
        r.os,
        OsStats {
            minor_faults: 7_288,
            major_faults: 12_712,
            reclaims: 16_809,
            thp_promotions: 0,
            thp_demotions: 0,
            shootdowns: 16_809,
            ipis_received: 0,
            fault_cycles: 435_936_000,
        }
    );
    assert_eq!(r.core.cycles, 1_358_959);

    let width = CoreConfig::default().issue_width;
    assert!(
        r.core
            .stalls
            .balances(r.core.instructions, r.core.cycles, width),
        "{} instr + {} stalls + {} carry != {} cycles * {width} width",
        r.core.instructions,
        r.core.stalls.total(),
        r.core.stalls.warmup_carry,
        r.core.cycles,
    );
}

/// Raising the THP fraction on a sequential stream converts 4 KB
/// mappings into 2 MB ones: promotions appear and downstream TLB misses
/// drop relative to the no-THP run.
#[test]
fn thp_promotion_reduces_tlb_pressure_on_streams() {
    let run = |thp: f64| {
        // 64 MB of data: wider than the warm-up window, so regions keep
        // being promoted inside the measured phase (warm-up promotions
        // are reset at the boundary and would otherwise hide the count).
        let w = WideStream { pages: 16_384 };
        SimulationBuilder::new()
            .prefetcher(PrefetcherKind::None)
            .os(OsConfig {
                phys_mem_bytes: 256 << 20,
                thp,
                ..OsConfig::default()
            })
            .warmup(5_000)
            .instructions(20_000)
            .run_workload(&w)
    };
    let flat = run(0.0);
    let huge = run(0.9);
    assert_eq!(flat.os.thp_promotions, 0, "thp=0 must never promote");
    assert!(
        huge.os.thp_promotions > 0,
        "thp=0.9 on a sequential stream must promote regions"
    );
    assert!(
        huge.stlb.misses < flat.stlb.misses,
        "2 MB mappings must relieve the STLB: {} >= {}",
        huge.stlb.misses,
        flat.stlb.misses
    );
}

/// The OS model is strictly opt-in: a builder without `.os(..)` produces
/// a report with zeroed OS stats and no `OsFault` stall slots, identical
/// to the pre-OS behaviour the goldens lock down.
#[test]
fn os_model_is_opt_in_and_inert_by_default() {
    let w = &suite(SuiteId::Gap).workloads()[0];
    let r = SimulationBuilder::new()
        .warmup(5_000)
        .instructions(20_000)
        .run_workload(w);
    assert_eq!(r.os, Default::default(), "no OS model, no OS counters");
    assert_eq!(r.core.stalls.os_fault, 0, "no OS model, no fault stalls");
}

/// Registry workloads run under the OS model too: the CLI smoke
/// configuration (64 MB, thp 0.5) faults pages in and issues shootdowns
/// on a real workload, and the run completes with exact accounting.
#[test]
fn cli_smoke_configuration_holds_on_registry_workload() {
    let w = &suite(SuiteId::Gap).workloads()[0];
    let r = SimulationBuilder::new()
        .os(pressure_config())
        .warmup(5_000)
        .instructions(20_000)
        .run_workload(w);
    assert!(r.os.minor_faults > 0, "gap.s00 must fault its pages in");
    assert!(r.os.shootdowns > 0, "promotions must shoot down TLBs");
    let width = CoreConfig::default().issue_width;
    assert!(r
        .core
        .stalls
        .balances(r.core.instructions, r.core.cycles, width));
}
