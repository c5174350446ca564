//! Golden-stats regression tests: small seeded workloads run end-to-end
//! with their exact counter values locked. The simulator is deterministic
//! bit-for-bit (every stochastic choice draws from `Rng64`), so any
//! divergence here means simulated *behaviour* changed — not just
//! performance. Perf work must keep these green; intentional model changes
//! must update the goldens explicitly.
//!
//! Each row locks every nonzero counter of the schema (`Report` or
//! `MixReport` visited under dotted names such as `l1d.demand_misses` or
//! `core1.stalls.rob_full`), so a counter added to a stats struct is
//! locked without touching this file's code.
//!
//! A mismatch prints each stale row with the values this build produced,
//! ready to paste over the old row once the change is known to be
//! intended.

use pagecross::cpu::trace::TraceFactory;
use pagecross::cpu::{
    BoundaryMode, L2PrefetcherKind, MixReport, OsConfig, PgcPolicyKind, PrefetcherKind, Report,
    SimulationBuilder,
};
use pagecross::mem::HugePagePolicy;
use pagecross::moka::{FilterConfig, ProgramFeature, SystemFeature};
use pagecross::workloads::{suite, SuiteId, Workload};

/// Warm-up and measured instructions per core of every golden run.
const WARMUP: u64 = 5_000;
const MEASURED: u64 = 20_000;

/// Locked counters for one configuration, run with the default seed.
struct Golden {
    /// `(suite, index, name)` of each core's workload; two make a mix.
    workloads: &'static [(SuiteId, usize, &'static str)],
    prefetcher: PrefetcherKind,
    policy: PgcPolicyKind,
    l2: L2PrefetcherKind,
    huge: HugePagePolicy,
    boundary: BoundaryMode,
    /// An explicit MOKA filter in place of the one `policy` names:
    /// `(program features, system features)` at Table III defaults.
    filter: Option<(&'static [ProgramFeature], &'static [SystemFeature])>,
    /// Runs the imitation OS on a 64 MB machine with THP 0.5.
    os: bool,
    /// What [`fingerprint`] prints for the run.
    counters: &'static str,
}

const GOLDENS: &[Golden] = &[
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=38087 core.loads=5999 core.stores=1464 core.branch_mispredicts=89 core.branches=2347 core.stalls.rob_full=17753 core.stalls.l1d_miss=42022 core.stalls.tlb_walk=139566 core.stalls.branch_redirect=6472 core.stalls.drain=2708 core.stalls.warmup_carry=1 l1i.demand_accesses=11123 l1d.demand_accesses=7463 l1d.demand_misses=1272 l1d.prefetch_fills=1555 l1d.prefetch_useful=1317 l1d.prefetch_useless=56 l1d.pgc_fills=231 l1d.pgc_useful=27 l1d.pgc_useless=17 l1d.writebacks=1102 l2c.demand_accesses=1272 l2c.demand_misses=1102 l2c.prefetch_accesses=1913 l2c.prefetch_hits=205 l2c.prefetch_fills=1515 l2c.prefetch_useful=7 l2c.prefetch_useless=3 l2c.pgc_fills=192 llc.demand_accesses=1102 llc.demand_misses=1102 llc.prefetch_accesses=1708 llc.prefetch_fills=1515 llc.pgc_fills=192 dtlb.accesses=7463 dtlb.misses=845 dtlb.prefetch_probes=8520 dtlb.prefetch_probe_misses=138 dtlb.prefetch_fills=138 stlb.accesses=845 stlb.misses=466 stlb.prefetch_probes=138 stlb.prefetch_probe_misses=77 stlb.prefetch_fills=77 walks.demand_walks=466 walks.prefetch_walks=77 walks.memory_refs=543 walks.psc_hits=2172 prefetch.candidates=9012 prefetch.pgc_candidates=857 prefetch.pgc_discarded=492 prefetch.pgc_issued=231 prefetch.inpage_issued=1324 prefetch.redundant=6965 prefetch.speculative_walks=77 ipc=0.525114 l1d_mpki=63.600000 dtlb_mpki=42.250000",
    },
    Golden {
        workloads: &[(SuiteId::Spec06, 0, "spec06.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::PermitPgc,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=11782 core.loads=5625 core.stores=1381 core.branch_mispredicts=104 core.branches=2412 core.stalls.rob_full=41890 core.stalls.branch_redirect=7635 core.stalls.drain=1163 core.stalls.warmup_carry=4 l1i.demand_accesses=9641 l1d.demand_accesses=7006 l1d.prefetch_fills=1751 l1d.prefetch_useful=1751 l1d.pgc_fills=54 l1d.pgc_useful=54 l1d.writebacks=826 l2c.prefetch_accesses=1754 l2c.prefetch_fills=1751 l2c.pgc_fills=54 llc.prefetch_accesses=1754 llc.prefetch_fills=1751 llc.pgc_fills=54 dtlb.accesses=7006 dtlb.prefetch_probes=11250 dtlb.prefetch_probe_misses=27 dtlb.prefetch_fills=27 stlb.prefetch_probes=27 stlb.prefetch_probe_misses=27 stlb.prefetch_fills=27 walks.prefetch_walks=27 walks.memory_refs=27 walks.psc_hits=108 prefetch.candidates=11250 prefetch.pgc_candidates=261 prefetch.pgc_issued=54 prefetch.inpage_issued=1697 prefetch.redundant=9499 prefetch.speculative_walks=27 ipc=1.697505 l1d_mpki=0.000000 dtlb_mpki=0.000000",
    },
    Golden {
        workloads: &[(SuiteId::Ligra, 1, "ligra.s01")],
        prefetcher: PrefetcherKind::Bop,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=44018 core.loads=6078 core.stores=1479 core.branch_mispredicts=97 core.branches=2367 core.stalls.rob_full=5155 core.stalls.l1d_miss=56115 core.stalls.tlb_walk=173131 core.stalls.branch_redirect=7111 core.stalls.drain=2592 core.stalls.warmup_carry=4 l1i.demand_accesses=11159 l1d.demand_accesses=7557 l1d.demand_misses=1643 l1d.prefetch_fills=2307 l1d.prefetch_useful=1148 l1d.prefetch_useless=948 l1d.pgc_fills=16 l1d.pgc_useless=16 l1d.writebacks=1114 l2c.demand_accesses=1643 l2c.demand_misses=1384 l2c.prefetch_accesses=2737 l2c.prefetch_hits=515 l2c.prefetch_fills=2007 l2c.prefetch_useful=59 l2c.prefetch_useless=5 l2c.pgc_fills=15 l2c.pgc_useful=3 llc.demand_accesses=1384 llc.demand_misses=1384 llc.prefetch_accesses=2222 llc.prefetch_fills=2007 llc.pgc_fills=15 dtlb.accesses=7557 dtlb.misses=959 dtlb.prefetch_probes=6416 dtlb.prefetch_probe_misses=9 dtlb.prefetch_fills=9 stlb.accesses=959 stlb.misses=539 stlb.prefetch_probes=9 stlb.prefetch_probe_misses=2 stlb.prefetch_fills=2 walks.demand_walks=539 walks.prefetch_walks=2 walks.memory_refs=546 walks.psc_hits=2159 prefetch.candidates=6976 prefetch.pgc_candidates=578 prefetch.pgc_discarded=560 prefetch.pgc_issued=16 prefetch.inpage_issued=2291 prefetch.redundant=4109 prefetch.speculative_walks=2 ipc=0.454360 l1d_mpki=82.150000 dtlb_mpki=47.950000",
    },
    Golden {
        workloads: &[(SuiteId::QmmInt, 0, "qmm_int.s00")],
        prefetcher: PrefetcherKind::Ipcp,
        policy: PgcPolicyKind::DiscardPgc,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=181728 core.loads=5133 core.stores=1302 core.branch_mispredicts=246 core.branches=2436 core.stalls.rob_full=14416 core.stalls.l1d_miss=727341 core.stalls.tlb_walk=283055 core.stalls.branch_redirect=17022 core.stalls.fetch_starved=2367 core.stalls.drain=26165 core.stalls.warmup_carry=2 l1i.demand_accesses=9261 l1i.demand_misses=1 l1i.prefetch_fills=2 l1d.demand_accesses=6435 l1d.demand_misses=2758 l1d.prefetch_fills=913 l1d.prefetch_useful=897 l1d.prefetch_useless=15 l1d.writebacks=1023 l2c.demand_accesses=2759 l2c.demand_misses=2698 l2c.prefetch_accesses=1060 l2c.prefetch_hits=70 l2c.prefetch_fills=911 l2c.prefetch_useful=2 l2c.prefetch_useless=10 llc.demand_accesses=2698 llc.demand_misses=2698 llc.prefetch_accesses=990 llc.prefetch_fills=911 dtlb.accesses=6435 dtlb.misses=2462 dtlb.prefetch_probes=13001 stlb.accesses=2463 stlb.misses=526 walks.demand_walks=526 walks.memory_refs=530 walks.psc_hits=2100 prefetch.candidates=13534 prefetch.pgc_candidates=533 prefetch.pgc_discarded=533 prefetch.inpage_issued=913 prefetch.redundant=12088 ipc=0.110055 l1d_mpki=137.900000 dtlb_mpki=123.100000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::Spp,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=38278 core.loads=5999 core.stores=1464 core.branch_mispredicts=89 core.branches=2347 core.stalls.rob_full=17840 core.stalls.l1d_miss=42709 core.stalls.tlb_walk=139878 core.stalls.branch_redirect=6472 core.stalls.drain=2768 core.stalls.warmup_carry=1 l1i.demand_accesses=11123 l1d.demand_accesses=7463 l1d.demand_misses=1272 l1d.prefetch_fills=1555 l1d.prefetch_useful=1317 l1d.prefetch_useless=56 l1d.pgc_fills=231 l1d.pgc_useful=27 l1d.pgc_useless=17 l1d.writebacks=1102 l2c.demand_accesses=1272 l2c.demand_misses=1097 l2c.prefetch_accesses=1913 l2c.prefetch_hits=206 l2c.prefetch_fills=1551 l2c.prefetch_useful=12 l2c.prefetch_useless=5 l2c.pgc_fills=191 llc.demand_accesses=1097 llc.demand_misses=1097 llc.prefetch_accesses=1744 llc.prefetch_fills=1551 llc.pgc_fills=191 dtlb.accesses=7463 dtlb.misses=845 dtlb.prefetch_probes=8520 dtlb.prefetch_probe_misses=138 dtlb.prefetch_fills=138 stlb.accesses=845 stlb.misses=466 stlb.prefetch_probes=138 stlb.prefetch_probe_misses=77 stlb.prefetch_fills=77 walks.demand_walks=466 walks.prefetch_walks=77 walks.memory_refs=543 walks.psc_hits=2172 prefetch.candidates=9012 prefetch.pgc_candidates=857 prefetch.pgc_discarded=492 prefetch.pgc_issued=231 prefetch.inpage_issued=1324 prefetch.redundant=6965 prefetch.speculative_walks=77 ipc=0.522493 l1d_mpki=63.600000 dtlb_mpki=42.250000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::Fraction(0.5),
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=28361 core.loads=5999 core.stores=1464 core.branch_mispredicts=89 core.branches=2347 core.stalls.rob_full=16345 core.stalls.l1d_miss=49592 core.stalls.tlb_walk=74729 core.stalls.branch_redirect=6419 core.stalls.drain=3080 core.stalls.warmup_carry=1 l1i.demand_accesses=11123 l1d.demand_accesses=7463 l1d.demand_misses=1259 l1d.prefetch_fills=1498 l1d.prefetch_useful=1316 l1d.prefetch_useless=40 l1d.pgc_fills=175 l1d.pgc_useful=26 l1d.pgc_useless=2 l1d.writebacks=1089 l2c.demand_accesses=1259 l2c.demand_misses=1102 l2c.prefetch_accesses=1670 l2c.prefetch_hits=103 l2c.prefetch_fills=1459 l2c.prefetch_useful=7 l2c.prefetch_useless=2 l2c.pgc_fills=137 llc.demand_accesses=1102 llc.demand_misses=1102 llc.prefetch_accesses=1567 llc.prefetch_fills=1459 llc.pgc_fills=137 dtlb.accesses=7463 dtlb.misses=218 dtlb.prefetch_probes=8465 dtlb.prefetch_probe_misses=46 dtlb.prefetch_fills=46 stlb.accesses=218 stlb.misses=202 stlb.prefetch_probes=46 stlb.prefetch_probe_misses=40 stlb.prefetch_fills=40 walks.demand_walks=202 walks.prefetch_walks=40 walks.memory_refs=242 walks.psc_hits=968 prefetch.candidates=8924 prefetch.pgc_candidates=767 prefetch.pgc_discarded=459 prefetch.pgc_issued=175 prefetch.inpage_issued=1323 prefetch.redundant=6967 prefetch.speculative_walks=40 ipc=0.705194 l1d_mpki=62.950000 dtlb_mpki=10.900000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::DiscardPtw,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=38620 core.loads=5999 core.stores=1464 core.branch_mispredicts=89 core.branches=2347 core.stalls.rob_full=11505 core.stalls.l1d_miss=45331 core.stalls.tlb_walk=145929 core.stalls.branch_redirect=6498 core.stalls.drain=2456 core.stalls.warmup_carry=1 l1i.demand_accesses=11123 l1d.demand_accesses=7463 l1d.demand_misses=1292 l1d.prefetch_fills=1517 l1d.prefetch_useful=1299 l1d.prefetch_useless=98 l1d.pgc_fills=193 l1d.pgc_useful=12 l1d.pgc_useless=61 l1d.writebacks=1076 l2c.demand_accesses=1292 l2c.demand_misses=1112 l2c.prefetch_accesses=1869 l2c.prefetch_hits=199 l2c.prefetch_fills=1477 l2c.prefetch_useful=21 l2c.prefetch_useless=14 l2c.pgc_fills=155 l2c.pgc_useful=12 llc.demand_accesses=1112 llc.demand_misses=1112 llc.prefetch_accesses=1670 llc.prefetch_hits=1 llc.prefetch_fills=1477 llc.pgc_fills=155 dtlb.accesses=7463 dtlb.misses=851 dtlb.prefetch_probes=9814 dtlb.prefetch_probe_misses=543 dtlb.prefetch_fills=78 stlb.accesses=851 stlb.misses=489 stlb.prefetch_probes=543 stlb.prefetch_probe_misses=465 walks.demand_walks=489 walks.memory_refs=489 walks.psc_hits=1956 prefetch.candidates=9814 prefetch.pgc_candidates=734 prefetch.pgc_issued=193 prefetch.inpage_issued=1324 prefetch.redundant=7832 ipc=0.517866 l1d_mpki=64.600000 dtlb_mpki=42.550000",
    },
    Golden {
        workloads: &[(SuiteId::Ligra, 1, "ligra.s01")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Ppf,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=40115 core.loads=6078 core.stores=1479 core.branch_mispredicts=97 core.branches=2367 core.stalls.rob_full=15805 core.stalls.l1d_miss=35436 core.stalls.tlb_walk=159916 core.stalls.branch_redirect=7225 core.stalls.drain=2304 core.stalls.warmup_carry=4 l1i.demand_accesses=11159 l1d.demand_accesses=7557 l1d.demand_misses=1464 l1d.prefetch_fills=1518 l1d.prefetch_useful=1297 l1d.prefetch_useless=211 l1d.pgc_fills=109 l1d.pgc_useful=4 l1d.pgc_useless=96 l1d.writebacks=1052 l2c.demand_accesses=1464 l2c.demand_misses=1228 l2c.prefetch_accesses=1932 l2c.prefetch_hits=294 l2c.prefetch_fills=1420 l2c.prefetch_useful=17 l2c.prefetch_useless=14 l2c.pgc_fills=95 l2c.pgc_useful=2 llc.demand_accesses=1228 llc.demand_misses=1228 llc.prefetch_accesses=1638 llc.prefetch_fills=1420 llc.pgc_fills=95 dtlb.accesses=7557 dtlb.misses=960 dtlb.prefetch_probes=7445 dtlb.prefetch_probe_misses=65 dtlb.prefetch_fills=65 stlb.accesses=960 stlb.misses=533 stlb.prefetch_probes=65 stlb.prefetch_probe_misses=35 stlb.prefetch_fills=35 walks.demand_walks=533 walks.prefetch_walks=35 walks.memory_refs=573 walks.psc_hits=2267 prefetch.candidates=7746 prefetch.pgc_candidates=442 prefetch.pgc_discarded=301 prefetch.pgc_issued=109 prefetch.inpage_issued=1409 prefetch.redundant=5927 prefetch.speculative_walks=35 ipc=0.498567 l1d_mpki=73.200000 dtlb_mpki=48.000000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::DripperSf,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=37883 core.loads=5999 core.stores=1464 core.branch_mispredicts=89 core.branches=2347 core.stalls.rob_full=14182 core.stalls.l1d_miss=42128 core.stalls.tlb_walk=141930 core.stalls.branch_redirect=6457 core.stalls.drain=2600 core.stalls.warmup_carry=1 l1i.demand_accesses=11123 l1d.demand_accesses=7463 l1d.demand_misses=1289 l1d.prefetch_fills=1352 l1d.prefetch_useful=1296 l1d.prefetch_useless=58 l1d.pgc_fills=32 l1d.pgc_useful=13 l1d.pgc_useless=19 l1d.writebacks=1027 l2c.demand_accesses=1289 l2c.demand_misses=1120 l2c.prefetch_accesses=1697 l2c.prefetch_hits=154 l2c.prefetch_fills=1349 l2c.prefetch_useful=7 l2c.prefetch_useless=7 l2c.pgc_fills=30 llc.demand_accesses=1120 llc.demand_misses=1120 llc.prefetch_accesses=1543 llc.prefetch_hits=1 llc.prefetch_fills=1349 llc.pgc_fills=30 dtlb.accesses=7463 dtlb.misses=865 dtlb.prefetch_probes=8796 dtlb.prefetch_probe_misses=18 dtlb.prefetch_fills=18 stlb.accesses=865 stlb.misses=482 stlb.prefetch_probes=18 stlb.prefetch_probe_misses=13 stlb.prefetch_fills=13 walks.demand_walks=482 walks.prefetch_walks=13 walks.memory_refs=495 walks.psc_hits=1980 prefetch.candidates=9471 prefetch.pgc_candidates=756 prefetch.pgc_discarded=675 prefetch.pgc_issued=32 prefetch.inpage_issued=1320 prefetch.redundant=7444 prefetch.speculative_walks=13 ipc=0.527941 l1d_mpki=64.450000 dtlb_mpki=43.250000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: true,
        counters: "core.instructions=20000 core.cycles=224094 core.loads=5999 core.stores=1464 core.branch_mispredicts=89 core.branches=2347 core.stalls.rob_full=13916 core.stalls.l1d_miss=60941 core.stalls.branch_redirect=6486 core.stalls.os_fault=1216704 core.stalls.drain=26516 core.stalls.warmup_carry=1 l1i.demand_accesses=11123 l1d.demand_accesses=7463 l1d.demand_misses=1320 l1d.prefetch_fills=1438 l1d.prefetch_useful=1302 l1d.prefetch_useless=99 l1d.pgc_fills=50 l1d.pgc_useful=3 l1d.pgc_useless=10 l1d.writebacks=1060 l2c.demand_accesses=1320 l2c.demand_misses=1243 l2c.prefetch_accesses=1762 l2c.prefetch_hits=155 l2c.prefetch_fills=1418 l2c.prefetch_useful=5 l2c.prefetch_useless=2 l2c.pgc_fills=49 llc.demand_accesses=1243 llc.demand_misses=1243 llc.prefetch_accesses=1607 llc.prefetch_fills=1418 llc.pgc_fills=49 dtlb.accesses=7463 dtlb.misses=685 dtlb.prefetch_probes=9618 dtlb.prefetch_probe_misses=300 dtlb.prefetch_fills=1 stlb.accesses=685 stlb.misses=448 stlb.prefetch_probes=300 stlb.prefetch_probe_misses=299 walks.demand_walks=448 walks.memory_refs=449 walks.psc_hits=1790 prefetch.candidates=9926 prefetch.pgc_candidates=675 prefetch.pgc_discarded=308 prefetch.pgc_issued=50 prefetch.inpage_issued=1388 prefetch.redundant=7881 os.minor_faults=448 os.thp_promotions=1 os.shootdowns=1 os.fault_cycles=1794000 ipc=0.089248 l1d_mpki=66.000000 dtlb_mpki=34.250000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00"), (SuiteId::Spec06, 0, "spec06.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core0.instructions=20000 core0.cycles=27962 core0.loads=5999 core0.stores=1464 core0.branch_mispredicts=89 core0.branches=2347 core0.stalls.rob_full=15710 core0.stalls.l1d_miss=28908 core0.stalls.tlb_walk=94128 core0.stalls.branch_redirect=6563 core0.stalls.drain=2462 core0.stalls.warmup_carry=1 core1.instructions=20000 core1.cycles=28455 core1.loads=5625 core1.stores=1381 core1.branch_mispredicts=104 core1.branches=2412 core1.stalls.rob_full=140454 core1.stalls.branch_redirect=7750 core1.stalls.drain=2521 core1.stalls.warmup_carry=5 llc.demand_accesses=1102 llc.demand_misses=1102 llc.prefetch_accesses=3462 llc.prefetch_fills=3266 llc.pgc_fills=229 core0.ipc=0.715256 core1.ipc=0.702864",
    },
    Golden {
        workloads: &[(SuiteId::Ligra, 1, "ligra.s01")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::PpfDthr,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=40115 core.loads=6078 core.stores=1479 core.branch_mispredicts=97 core.branches=2367 core.stalls.rob_full=15709 core.stalls.l1d_miss=35794 core.stalls.tlb_walk=159651 core.stalls.branch_redirect=7228 core.stalls.drain=2304 core.stalls.warmup_carry=4 l1i.demand_accesses=11159 l1d.demand_accesses=7557 l1d.demand_misses=1463 l1d.prefetch_fills=1531 l1d.prefetch_useful=1298 l1d.prefetch_useless=223 l1d.pgc_fills=122 l1d.pgc_useful=5 l1d.pgc_useless=108 l1d.writebacks=1052 l2c.demand_accesses=1463 l2c.demand_misses=1228 l2c.prefetch_accesses=1947 l2c.prefetch_hits=302 l2c.prefetch_fills=1428 l2c.prefetch_useful=16 l2c.prefetch_useless=1 l2c.pgc_fills=103 l2c.pgc_useful=2 llc.demand_accesses=1228 llc.demand_misses=1228 llc.prefetch_accesses=1645 llc.prefetch_fills=1428 llc.pgc_fills=103 dtlb.accesses=7557 dtlb.misses=961 dtlb.prefetch_probes=7487 dtlb.prefetch_probe_misses=69 dtlb.prefetch_fills=69 stlb.accesses=961 stlb.misses=533 stlb.prefetch_probes=69 stlb.prefetch_probe_misses=38 stlb.prefetch_fills=38 walks.demand_walks=533 walks.prefetch_walks=38 walks.memory_refs=576 walks.psc_hits=2279 prefetch.candidates=7746 prefetch.pgc_candidates=442 prefetch.pgc_discarded=259 prefetch.pgc_issued=122 prefetch.inpage_issued=1409 prefetch.redundant=5956 prefetch.speculative_walks=38 ipc=0.498567 l1d_mpki=73.150000 dtlb_mpki=48.050000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::IsoStorage,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=39301 core.loads=5999 core.stores=1464 core.branch_mispredicts=89 core.branches=2347 core.stalls.rob_full=23870 core.stalls.l1d_miss=41196 core.stalls.tlb_walk=141616 core.stalls.branch_redirect=6475 core.stalls.drain=2648 core.stalls.warmup_carry=1 l1i.demand_accesses=11123 l1d.demand_accesses=7463 l1d.demand_misses=1266 l1d.prefetch_fills=1618 l1d.prefetch_useful=1326 l1d.prefetch_useless=145 l1d.pgc_fills=307 l1d.pgc_useful=52 l1d.pgc_useless=108 l1d.writebacks=1085 l2c.demand_accesses=1266 l2c.demand_misses=1084 l2c.prefetch_accesses=1984 l2c.prefetch_hits=205 l2c.prefetch_fills=1581 l2c.prefetch_useful=21 l2c.prefetch_useless=2 l2c.pgc_fills=272 l2c.pgc_useful=12 llc.demand_accesses=1084 llc.demand_misses=1084 llc.prefetch_accesses=1779 llc.prefetch_fills=1581 llc.pgc_fills=272 dtlb.accesses=7463 dtlb.misses=836 dtlb.prefetch_probes=8821 dtlb.prefetch_probe_misses=181 dtlb.prefetch_fills=181 stlb.accesses=836 stlb.misses=456 stlb.prefetch_probes=181 stlb.prefetch_probe_misses=99 stlb.prefetch_fills=99 walks.demand_walks=456 walks.prefetch_walks=99 walks.memory_refs=555 walks.psc_hits=2220 prefetch.candidates=8821 prefetch.pgc_candidates=538 prefetch.pgc_issued=307 prefetch.inpage_issued=1311 prefetch.redundant=7203 prefetch.speculative_walks=99 ipc=0.508893 l1d_mpki=63.300000 dtlb_mpki=41.800000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: Some((&[ProgramFeature::Delta], &[])),
        os: false,
        counters: "core.instructions=20000 core.cycles=37782 core.loads=5999 core.stores=1464 core.branch_mispredicts=89 core.branches=2347 core.stalls.rob_full=15756 core.stalls.l1d_miss=40054 core.stalls.tlb_walk=141693 core.stalls.branch_redirect=6480 core.stalls.drain=2708 core.stalls.warmup_carry=1 l1i.demand_accesses=11123 l1d.demand_accesses=7463 l1d.demand_misses=1271 l1d.prefetch_fills=1347 l1d.prefetch_useful=1313 l1d.prefetch_useless=39 l1d.pgc_fills=20 l1d.pgc_useful=20 l1d.writebacks=1027 l2c.demand_accesses=1271 l2c.demand_misses=1103 l2c.prefetch_accesses=1691 l2c.prefetch_hits=153 l2c.prefetch_fills=1346 l2c.prefetch_useful=7 l2c.prefetch_useless=2 l2c.pgc_fills=20 llc.demand_accesses=1103 llc.demand_misses=1103 llc.prefetch_accesses=1538 llc.prefetch_fills=1346 llc.pgc_fills=20 dtlb.accesses=7463 dtlb.misses=850 dtlb.prefetch_probes=8327 dtlb.prefetch_probe_misses=20 dtlb.prefetch_fills=20 stlb.accesses=850 stlb.misses=469 stlb.prefetch_probes=20 stlb.prefetch_probe_misses=20 stlb.prefetch_fills=20 walks.demand_walks=469 walks.prefetch_walks=20 walks.memory_refs=489 walks.psc_hits=1956 prefetch.candidates=9012 prefetch.pgc_candidates=756 prefetch.pgc_discarded=685 prefetch.pgc_issued=20 prefetch.inpage_issued=1327 prefetch.redundant=6980 prefetch.speculative_walks=20 ipc=0.529353 l1d_mpki=63.550000 dtlb_mpki=42.500000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        boundary: BoundaryMode::Fixed4K,
        filter: Some((&[], &[SystemFeature::StlbMpki])),
        os: false,
        counters: "core.instructions=20000 core.cycles=38897 core.loads=5999 core.stores=1464 core.branch_mispredicts=89 core.branches=2347 core.stalls.rob_full=4846 core.stalls.l1d_miss=51053 core.stalls.tlb_walk=148279 core.stalls.branch_redirect=6495 core.stalls.drain=2708 core.stalls.warmup_carry=1 l1i.demand_accesses=11123 l1d.demand_accesses=7463 l1d.demand_misses=1285 l1d.prefetch_fills=1415 l1d.prefetch_useful=1302 l1d.prefetch_useless=60 l1d.pgc_fills=157 l1d.pgc_useful=78 l1d.pgc_useless=21 l1d.writebacks=1052 l2c.demand_accesses=1285 l2c.demand_misses=1117 l2c.prefetch_accesses=1768 l2c.prefetch_hits=175 l2c.prefetch_fills=1396 l2c.prefetch_useful=7 l2c.prefetch_useless=4 l2c.pgc_fills=139 llc.demand_accesses=1117 llc.demand_misses=1117 llc.prefetch_accesses=1593 llc.prefetch_hits=1 llc.prefetch_fills=1396 llc.pgc_fills=139 dtlb.accesses=7463 dtlb.misses=857 dtlb.prefetch_probes=9004 dtlb.prefetch_probe_misses=55 dtlb.prefetch_fills=55 stlb.accesses=857 stlb.misses=479 stlb.prefetch_probes=55 stlb.prefetch_probe_misses=31 stlb.prefetch_fills=31 walks.demand_walks=479 walks.prefetch_walks=31 walks.memory_refs=510 walks.psc_hits=2040 prefetch.candidates=9580 prefetch.pgc_candidates=1099 prefetch.pgc_discarded=576 prefetch.pgc_issued=157 prefetch.inpage_issued=1258 prefetch.redundant=7589 prefetch.speculative_walks=31 ipc=0.514178 l1d_mpki=64.250000 dtlb_mpki=42.850000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::Fraction(0.5),
        boundary: BoundaryMode::PageSizeAware,
        filter: None,
        os: false,
        counters: "core.instructions=20000 core.cycles=28106 core.loads=5999 core.stores=1464 core.branch_mispredicts=89 core.branches=2347 core.stalls.rob_full=15575 core.stalls.l1d_miss=47965 core.stalls.tlb_walk=75950 core.stalls.branch_redirect=6485 core.stalls.drain=2660 core.stalls.warmup_carry=1 l1i.demand_accesses=11123 l1d.demand_accesses=7463 l1d.demand_misses=1254 l1d.prefetch_fills=1472 l1d.prefetch_useful=1325 l1d.prefetch_useless=118 l1d.pgc_fills=23 l1d.pgc_useful=23 l1d.writebacks=1040 l2c.demand_accesses=1254 l2c.demand_misses=1083 l2c.prefetch_accesses=1640 l2c.prefetch_hits=79 l2c.prefetch_fills=1454 l2c.prefetch_useful=24 l2c.prefetch_useless=2 l2c.pgc_fills=23 llc.demand_accesses=1083 llc.demand_misses=1083 llc.prefetch_accesses=1561 llc.prefetch_fills=1454 llc.pgc_fills=23 dtlb.accesses=7463 dtlb.misses=217 dtlb.prefetch_probes=8392 dtlb.prefetch_probe_misses=21 dtlb.prefetch_fills=21 stlb.accesses=217 stlb.misses=202 stlb.prefetch_probes=21 stlb.prefetch_probe_misses=21 stlb.prefetch_fills=21 walks.demand_walks=202 walks.prefetch_walks=21 walks.memory_refs=223 walks.psc_hits=892 prefetch.candidates=8676 prefetch.pgc_candidates=372 prefetch.pgc_discarded=284 prefetch.pgc_issued=23 prefetch.inpage_issued=1449 prefetch.redundant=6920 prefetch.speculative_walks=21 ipc=0.711592 l1d_mpki=62.700000 dtlb_mpki=10.850000",
    },
];

/// A golden run's result: one core's report, or a mix's.
#[derive(Debug, PartialEq)]
enum Outcome {
    Single(Box<Report>),
    Mix(MixReport),
}

fn workloads(g: &Golden) -> Vec<&'static Workload> {
    g.workloads
        .iter()
        .map(|&(s, i, name)| {
            let w = &suite(s).workloads()[i];
            assert_eq!(
                w.name(),
                name,
                "registry order changed; update the golden rows"
            );
            w
        })
        .collect()
}

/// Runs `g` with one trace factory per core.
fn run(g: &Golden, factories: &[&dyn TraceFactory]) -> Outcome {
    let mut b = SimulationBuilder::new()
        .prefetcher(g.prefetcher)
        .pgc_policy(g.policy)
        .l2_prefetcher(g.l2)
        .huge_pages(g.huge.clone())
        .boundary(g.boundary)
        .warmup(WARMUP)
        .instructions(MEASURED);
    if let Some((program, system)) = g.filter {
        b = b.custom_filter(FilterConfig::with_features(
            program.to_vec(),
            system.to_vec(),
        ));
    }
    if g.os {
        b = b.os(OsConfig {
            phys_mem_bytes: 64 << 20,
            thp: 0.5,
            ..OsConfig::default()
        });
    }
    match factories {
        [one] => Outcome::Single(Box::new(b.run_workload(*one))),
        _ => Outcome::Mix(b.run_mix(factories)),
    }
}

fn run_direct(g: &Golden) -> Outcome {
    let ws = workloads(g);
    let factories: Vec<&dyn TraceFactory> = ws.iter().map(|&w| w as &dyn TraceFactory).collect();
    run(g, &factories)
}

/// The locked counters of a run, as one line: every nonzero counter of the
/// schema under its dotted name, then the derived IPC (and, for one core,
/// the L1D and dTLB MPKI).
fn fingerprint(o: &Outcome) -> String {
    let mut parts = Vec::new();
    let mut push = |name: &str, v: u64| {
        if v != 0 {
            parts.push(format!("{name}={v}"));
        }
    };
    match o {
        Outcome::Single(r) => {
            r.for_each_counter(&mut push);
            parts.push(format!(
                "ipc={:.6} l1d_mpki={:.6} dtlb_mpki={:.6}",
                r.ipc(),
                r.l1d_mpki(),
                r.dtlb_mpki()
            ));
        }
        Outcome::Mix(m) => {
            m.for_each_counter(&mut push);
            for (i, c) in m.cores.iter().enumerate() {
                parts.push(format!("core{i}.ipc={:.6}", c.ipc()));
            }
        }
    }
    parts.join(" ")
}

/// `items` as a source slice literal of enum `ty`'s variants.
fn source_list<T: std::fmt::Debug>(ty: &str, items: &[T]) -> String {
    let items: Vec<String> = items.iter().map(|i| format!("{ty}::{i:?}")).collect();
    format!("&[{}]", items.join(", "))
}

/// `g` as a source row with `counters` in place of its locked values.
fn row(g: &Golden, counters: &str) -> String {
    let ws: Vec<String> = g
        .workloads
        .iter()
        .map(|(s, i, name)| format!("(SuiteId::{s:?}, {i}, {name:?})"))
        .collect();
    let filter = g.filter.map_or("None".to_string(), |(program, system)| {
        let program = source_list("ProgramFeature", program);
        format!(
            "Some(({program}, {}))",
            source_list("SystemFeature", system)
        )
    });
    format!(
        "    Golden {{\n        workloads: &[{}],\n        prefetcher: PrefetcherKind::{:?},\n        \
         policy: PgcPolicyKind::{:?},\n        l2: L2PrefetcherKind::{:?},\n        \
         huge: HugePagePolicy::{:?},\n        boundary: BoundaryMode::{:?},\n        \
         filter: {filter},\n        os: {},\n        counters: {counters:?},\n    }},",
        ws.join(", "),
        g.prefetcher,
        g.policy,
        g.l2,
        g.huge,
        g.boundary,
        g.os
    )
}

#[test]
fn golden_counters_are_stable() {
    let stale: Vec<String> = GOLDENS
        .iter()
        .filter_map(|g| {
            let got = fingerprint(&run_direct(g));
            (got != g.counters).then(|| row(g, &got))
        })
        .collect();
    assert!(
        stale.is_empty(),
        "{} golden row(s) changed; if intended, paste:\n{}",
        stale.len(),
        stale.join("\n")
    );
}

/// The same configuration run twice produces the identical report — the
/// precondition for the golden values (and the parallel campaign merge)
/// to be meaningful.
#[test]
fn repeat_runs_are_bit_identical() {
    let g = &GOLDENS[0];
    assert_eq!(run_direct(g), run_direct(g));
}

/// Recording each workload to a `.pct` file and replaying it through the
/// same simulator configuration reproduces the direct run's report
/// bit-for-bit, for every golden row, mixes included. This is the
/// contract that makes traces a drop-in substitute for synthetic
/// generators in campaigns.
#[test]
fn replayed_traces_reproduce_golden_counters() {
    use pagecross::trace::{record, TraceReplay};

    let dir = std::env::temp_dir().join(format!("pct-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp trace dir");
    for g in GOLDENS {
        let replays: Vec<TraceReplay> = workloads(g)
            .into_iter()
            .map(|w| {
                let path = dir.join(format!("{}.pct", w.name()));
                // Record exactly the instructions a golden core consumes.
                record(w, WARMUP + MEASURED, w.params().seed, &path)
                    .expect("recording the golden workload");
                TraceReplay::open(&path).expect("freshly recorded trace")
            })
            .collect();
        let factories: Vec<&dyn TraceFactory> =
            replays.iter().map(|r| r as &dyn TraceFactory).collect();
        assert_eq!(
            run(g, &factories),
            run_direct(g),
            "{}: replayed report must be bit-identical to the direct run",
            row(g, g.counters)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
