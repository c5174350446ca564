//! Focused integration tests for substrate paths the end-to-end suite
//! exercises only incidentally: the L1I prefetch path, epoch machinery,
//! custom filter configurations, and report arithmetic.

use pagecross::cpu::{CoreConfig, PgcPolicyKind, PrefetcherKind, SimulationBuilder};
use pagecross::mem::vmem::HugePagePolicy;
use pagecross::mem::{MemConfig, MemorySystem};
use pagecross::moka::dripper::dripper_config;
use pagecross::moka::filter::FilterConfig;
use pagecross::moka::{ProgramFeature, SystemFeature, TargetPrefetcher};
use pagecross::types::VirtAddr;
use pagecross::workloads::{suite, SuiteId};

#[test]
fn l1i_prefetch_path_fills_without_walking() {
    let mut mem = MemorySystem::new(MemConfig::table_iv(1), 1, HugePagePolicy::None, 3);
    // Warm a code page so its translation is resident.
    mem.fetch_instr(0, VirtAddr::new(0x40_0000), 0)
        .expect("4GB pool cannot OOM");
    let walks_before = mem.core(0).walk_stats.demand_walks;
    // Prefetch the next line on the same page: no walk allowed or needed.
    assert!(mem.issue_l1i_prefetch(0, VirtAddr::new(0x40_0040), 100));
    assert_eq!(mem.core(0).walk_stats.demand_walks, walks_before);
    assert_eq!(mem.core(0).walk_stats.prefetch_walks, 0);
    // A prefetch to a cold page is dropped, never walked.
    assert!(!mem.issue_l1i_prefetch(0, VirtAddr::new(0x9999_0000), 200));
    assert_eq!(mem.core(0).walk_stats.prefetch_walks, 0);
    // The prefetched line now hits.
    let f = mem
        .fetch_instr(0, VirtAddr::new(0x40_0040), 10_000)
        .expect("4GB pool cannot OOM");
    assert!(f.l1i_hit);
}

#[test]
fn l1i_prefetching_reduces_l1i_misses_on_code_heavy_workload() {
    // gkb5 template 3 has a 4096-line code footprint.
    let w = &suite(SuiteId::Gkb5).workloads()[3];
    let r = SimulationBuilder::new()
        .prefetcher(PrefetcherKind::None)
        .pgc_policy(PgcPolicyKind::DiscardPgc)
        .warmup(10_000)
        .instructions(30_000)
        .run_workload(w);
    // The fnl+mma prefetcher is always on; with a 4K-line loop the L1I
    // (512 lines) misses constantly, so prefetch fills must be plentiful.
    assert!(
        r.l1i.prefetch_fills > 100,
        "fnl+mma fills: {}",
        r.l1i.prefetch_fills
    );
    assert!(r.l1i.prefetch_useful > 0);
}

#[test]
fn custom_filter_configuration_runs_end_to_end() {
    let w = &suite(SuiteId::Spec06).workloads()[0];
    let mut cfg = FilterConfig::with_features(
        vec![ProgramFeature::PageDistance, ProgramFeature::PcXorVa],
        vec![SystemFeature::LlcMissRate],
    );
    cfg.wt_entries = 256;
    cfg.vub_entries = 8;
    cfg.pub_entries = 64;
    let r = SimulationBuilder::new()
        .custom_filter(cfg)
        .warmup(5_000)
        .instructions(15_000)
        .run_workload(w);
    assert_eq!(r.policy, "dripper"); // label reflects the configured kind
    assert!(r.prefetch.pgc_candidates > 0);
    assert_eq!(r.core.instructions, 15_000);
}

#[test]
fn epoch_length_affects_adaptation_but_not_correctness() {
    let w = &suite(SuiteId::Gap).workloads()[1];
    for epoch in [500u64, 8_000] {
        let cfg = CoreConfig {
            epoch_instrs: epoch,
            spot_interval: epoch / 8,
            ..Default::default()
        };
        let r = SimulationBuilder::new()
            .pgc_policy(PgcPolicyKind::Dripper)
            .core_config(cfg)
            .warmup(10_000)
            .instructions(20_000)
            .run_workload(w);
        assert_eq!(r.core.instructions, 20_000, "epoch={epoch}");
        let p = &r.prefetch;
        assert!(
            p.pgc_issued + p.pgc_discarded <= p.pgc_candidates,
            "epoch={epoch}"
        );
    }
}

#[test]
fn seeds_change_frame_placement_not_workload_behaviour() {
    // The seed controls physical frame placement only. Demand behaviour is
    // defined in the virtual space, so instruction and miss counts are
    // seed-invariant — and for access patterns without physical-set reuse,
    // timing is too (the L1D's 64 sets × 64 B span exactly one page, which
    // is the property that makes VIPT caches work).
    let mut m1 = MemorySystem::new(MemConfig::table_iv(1), 1, HugePagePolicy::None, 1);
    let mut m2 = MemorySystem::new(MemConfig::table_iv(1), 1, HugePagePolicy::None, 2);
    let mut differs = false;
    for p in 0..32u64 {
        let va = VirtAddr::new(0x5000_0000 + (p << 12));
        differs |= m1.translate_untimed(0, va) != m2.translate_untimed(0, va);
    }
    assert!(
        differs,
        "different seeds must place pages in different frames"
    );

    let w = &suite(SuiteId::Spec06).workloads()[0];
    let run = |seed| {
        SimulationBuilder::new()
            .prefetcher(PrefetcherKind::None)
            .seed(seed)
            .warmup(5_000)
            .instructions(15_000)
            .run_workload(w)
    };
    let a = run(1);
    let b = run(2);
    assert_eq!(a.core.instructions, b.core.instructions);
    assert_eq!(
        a.l1d.demand_misses, b.l1d.demand_misses,
        "virtual-space behaviour is seed-invariant"
    );
}

#[test]
fn report_mpki_consistency() {
    let w = &suite(SuiteId::Ligra).workloads()[0];
    let r = SimulationBuilder::new()
        .warmup(5_000)
        .instructions(20_000)
        .run_workload(w);
    let expected = r.l1d.demand_misses as f64 * 1000.0 / r.core.instructions as f64;
    assert!((r.l1d_mpki() - expected).abs() < 1e-9);
    let cov = r.coverage().expect("ligra run resolves coverage");
    assert!((0.0..=1.0).contains(&cov));
    let acc = r
        .prefetch_accuracy()
        .expect("ligra run resolves prefetch accuracy");
    assert!((0.0..=1.0).contains(&acc));
    assert!(r.pgc_accuracy() >= 0.0 && r.pgc_accuracy() <= 1.0);
}

#[test]
fn non_intensive_workloads_are_actually_non_intensive() {
    let w = pagecross::workloads::non_intensive_workloads()[0];
    let r = SimulationBuilder::new()
        .prefetcher(PrefetcherKind::None)
        .warmup(10_000)
        .instructions(20_000)
        .run_workload(w);
    assert!(
        r.llc_mpki() < 1.0,
        "non-intensive must have LLC MPKI < 1, got {}",
        r.llc_mpki()
    );
}

#[test]
fn intensive_workloads_mostly_clear_the_mpki_bar() {
    // Spot-check one template per suite family under no prefetching: the
    // registry's intensive members should be memory-intensive (the paper's
    // bar: LLC MPKI >= 1).
    let mut pass = 0;
    let mut total = 0;
    for w in pagecross::workloads::representative_seen(2) {
        let r = SimulationBuilder::new()
            .prefetcher(PrefetcherKind::None)
            .warmup(5_000)
            .instructions(15_000)
            .run_workload(w);
        total += 1;
        if r.llc_mpki() >= 1.0 {
            pass += 1;
        }
    }
    assert!(
        pass * 4 >= total * 3,
        "{pass}/{total} intensive workloads clear LLC MPKI >= 1"
    );
}

#[test]
fn iso_storage_enlarges_prefetcher_not_policy() {
    let w = &suite(SuiteId::Spec06).workloads()[0];
    let iso = SimulationBuilder::new()
        .pgc_policy(PgcPolicyKind::IsoStorage)
        .warmup(5_000)
        .instructions(15_000)
        .run_workload(w);
    // ISO storage always permits: no discards ever.
    assert_eq!(iso.prefetch.pgc_discarded, 0);
    assert!(iso.prefetch.pgc_issued > 0);
}

#[test]
fn dripper_static_threshold_variants_differ() {
    let w = &suite(SuiteId::Gap).workloads()[0];
    let run = |threshold| {
        let mut cfg = dripper_config(TargetPrefetcher::Berti);
        cfg.adaptive = false;
        cfg.static_threshold = threshold;
        SimulationBuilder::new()
            .custom_filter(cfg)
            .warmup(10_000)
            .instructions(20_000)
            .run_workload(w)
    };
    let (loose, strict) = (run(-4), run(12));
    assert!(
        loose.prefetch.pgc_issued > strict.prefetch.pgc_issued,
        "threshold -4 ({}) must issue more than threshold 12 ({})",
        loose.prefetch.pgc_issued,
        strict.prefetch.pgc_issued
    );
}
