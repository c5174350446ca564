//! Golden-stats regression tests: small seeded workloads run end-to-end
//! with their exact counter values locked. The simulator is deterministic
//! bit-for-bit (every stochastic choice draws from `Rng64`), so any
//! divergence here means simulated *behaviour* changed — not just
//! performance. Perf work must keep these green; intentional model changes
//! must update the goldens explicitly.
//!
//! A mismatch prints each stale row with the values this build produced,
//! ready to paste over the old row once the change is known to be
//! intended.

use pagecross::cpu::trace::TraceFactory;
use pagecross::cpu::{
    L2PrefetcherKind, MixReport, OsConfig, PgcPolicyKind, PrefetcherKind, Report, SimulationBuilder,
};
use pagecross::mem::HugePagePolicy;
use pagecross::types::OsStats;
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
        os: false,
        counters: "cycles=38087 l1d_acc=7463 l1d_miss=1272 dtlb_miss=845 stlb_miss=466 pgc_cand=857 pgc_issued=231 pgc_disc=492 demand_walks=466 ipc=0.525114 l1d_mpki=63.600000 dtlb_mpki=42.250000 l1i_acc=11123 l1i_miss=0 l2c_acc=1272 l2c_miss=1102 llc_acc=1102 llc_miss=1102 l2c_pf_acc=1913 l2c_pf_hit=205 l2c_pf_fill=1515 llc_pf_acc=1708 llc_pf_hit=0 llc_pf_fill=1515 l1d_pgc_fill=231 l1d_wb=1102 walk_refs=543 psc_hits=2172 prefetch_walks=77 dtlb_pf_probes=8520 stlb_pf_probes=138 spec_walks=77 redundant=6965",
    },
    Golden {
        workloads: &[(SuiteId::Spec06, 0, "spec06.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::PermitPgc,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        os: false,
        counters: "cycles=11782 l1d_acc=7006 l1d_miss=0 dtlb_miss=0 stlb_miss=0 pgc_cand=261 pgc_issued=54 pgc_disc=0 demand_walks=0 ipc=1.697505 l1d_mpki=0.000000 dtlb_mpki=0.000000 l1i_acc=9641 l1i_miss=0 l2c_acc=0 l2c_miss=0 llc_acc=0 llc_miss=0 l2c_pf_acc=1754 l2c_pf_hit=0 l2c_pf_fill=1751 llc_pf_acc=1754 llc_pf_hit=0 llc_pf_fill=1751 l1d_pgc_fill=54 l1d_wb=826 walk_refs=27 psc_hits=108 prefetch_walks=27 dtlb_pf_probes=11250 stlb_pf_probes=27 spec_walks=27 redundant=9499",
    },
    Golden {
        workloads: &[(SuiteId::Ligra, 1, "ligra.s01")],
        prefetcher: PrefetcherKind::Bop,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        os: false,
        counters: "cycles=44018 l1d_acc=7557 l1d_miss=1643 dtlb_miss=959 stlb_miss=539 pgc_cand=578 pgc_issued=16 pgc_disc=560 demand_walks=539 ipc=0.454360 l1d_mpki=82.150000 dtlb_mpki=47.950000 l1i_acc=11159 l1i_miss=0 l2c_acc=1643 l2c_miss=1384 llc_acc=1384 llc_miss=1384 l2c_pf_acc=2737 l2c_pf_hit=515 l2c_pf_fill=2007 llc_pf_acc=2222 llc_pf_hit=0 llc_pf_fill=2007 l1d_pgc_fill=16 l1d_wb=1114 walk_refs=546 psc_hits=2159 prefetch_walks=2 dtlb_pf_probes=6416 stlb_pf_probes=9 spec_walks=2 redundant=4109",
    },
    Golden {
        workloads: &[(SuiteId::QmmInt, 0, "qmm_int.s00")],
        prefetcher: PrefetcherKind::Ipcp,
        policy: PgcPolicyKind::DiscardPgc,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        os: false,
        counters: "cycles=181728 l1d_acc=6435 l1d_miss=2758 dtlb_miss=2462 stlb_miss=526 pgc_cand=533 pgc_issued=0 pgc_disc=533 demand_walks=526 ipc=0.110055 l1d_mpki=137.900000 dtlb_mpki=123.100000 l1i_acc=9261 l1i_miss=1 l2c_acc=2759 l2c_miss=2698 llc_acc=2698 llc_miss=2698 l2c_pf_acc=1060 l2c_pf_hit=70 l2c_pf_fill=911 llc_pf_acc=990 llc_pf_hit=0 llc_pf_fill=911 l1d_pgc_fill=0 l1d_wb=1023 walk_refs=530 psc_hits=2100 prefetch_walks=0 dtlb_pf_probes=13001 stlb_pf_probes=0 spec_walks=0 redundant=12088",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::Spp,
        huge: HugePagePolicy::None,
        os: false,
        counters: "cycles=38278 l1d_acc=7463 l1d_miss=1272 dtlb_miss=845 stlb_miss=466 pgc_cand=857 pgc_issued=231 pgc_disc=492 demand_walks=466 ipc=0.522493 l1d_mpki=63.600000 dtlb_mpki=42.250000 l1i_acc=11123 l1i_miss=0 l2c_acc=1272 l2c_miss=1097 llc_acc=1097 llc_miss=1097 l2c_pf_acc=1913 l2c_pf_hit=206 l2c_pf_fill=1551 llc_pf_acc=1744 llc_pf_hit=0 llc_pf_fill=1551 l1d_pgc_fill=231 l1d_wb=1102 walk_refs=543 psc_hits=2172 prefetch_walks=77 dtlb_pf_probes=8520 stlb_pf_probes=138 spec_walks=77 redundant=6965",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::Fraction(0.5),
        os: false,
        counters: "cycles=28361 l1d_acc=7463 l1d_miss=1259 dtlb_miss=218 stlb_miss=202 pgc_cand=767 pgc_issued=175 pgc_disc=459 demand_walks=202 ipc=0.705194 l1d_mpki=62.950000 dtlb_mpki=10.900000 l1i_acc=11123 l1i_miss=0 l2c_acc=1259 l2c_miss=1102 llc_acc=1102 llc_miss=1102 l2c_pf_acc=1670 l2c_pf_hit=103 l2c_pf_fill=1459 llc_pf_acc=1567 llc_pf_hit=0 llc_pf_fill=1459 l1d_pgc_fill=175 l1d_wb=1089 walk_refs=242 psc_hits=968 prefetch_walks=40 dtlb_pf_probes=8465 stlb_pf_probes=46 spec_walks=40 redundant=6967",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::DiscardPtw,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        os: false,
        counters: "cycles=38620 l1d_acc=7463 l1d_miss=1292 dtlb_miss=851 stlb_miss=489 pgc_cand=734 pgc_issued=193 pgc_disc=0 demand_walks=489 ipc=0.517866 l1d_mpki=64.600000 dtlb_mpki=42.550000 l1i_acc=11123 l1i_miss=0 l2c_acc=1292 l2c_miss=1112 llc_acc=1112 llc_miss=1112 l2c_pf_acc=1869 l2c_pf_hit=199 l2c_pf_fill=1477 llc_pf_acc=1670 llc_pf_hit=1 llc_pf_fill=1477 l1d_pgc_fill=193 l1d_wb=1076 walk_refs=489 psc_hits=1956 prefetch_walks=0 dtlb_pf_probes=9814 stlb_pf_probes=543 spec_walks=0 redundant=7832",
    },
    Golden {
        workloads: &[(SuiteId::Ligra, 1, "ligra.s01")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Ppf,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        os: false,
        counters: "cycles=40115 l1d_acc=7557 l1d_miss=1464 dtlb_miss=960 stlb_miss=533 pgc_cand=442 pgc_issued=109 pgc_disc=301 demand_walks=533 ipc=0.498567 l1d_mpki=73.200000 dtlb_mpki=48.000000 l1i_acc=11159 l1i_miss=0 l2c_acc=1464 l2c_miss=1228 llc_acc=1228 llc_miss=1228 l2c_pf_acc=1932 l2c_pf_hit=294 l2c_pf_fill=1420 llc_pf_acc=1638 llc_pf_hit=0 llc_pf_fill=1420 l1d_pgc_fill=109 l1d_wb=1052 walk_refs=573 psc_hits=2267 prefetch_walks=35 dtlb_pf_probes=7445 stlb_pf_probes=65 spec_walks=35 redundant=5927",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::DripperSf,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        os: false,
        counters: "cycles=37883 l1d_acc=7463 l1d_miss=1289 dtlb_miss=865 stlb_miss=482 pgc_cand=756 pgc_issued=32 pgc_disc=675 demand_walks=482 ipc=0.527941 l1d_mpki=64.450000 dtlb_mpki=43.250000 l1i_acc=11123 l1i_miss=0 l2c_acc=1289 l2c_miss=1120 llc_acc=1120 llc_miss=1120 l2c_pf_acc=1697 l2c_pf_hit=154 l2c_pf_fill=1349 llc_pf_acc=1543 llc_pf_hit=1 llc_pf_fill=1349 l1d_pgc_fill=32 l1d_wb=1027 walk_refs=495 psc_hits=1980 prefetch_walks=13 dtlb_pf_probes=8796 stlb_pf_probes=18 spec_walks=13 redundant=7444",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        os: true,
        counters: "cycles=224094 l1d_acc=7463 l1d_miss=1320 dtlb_miss=685 stlb_miss=448 pgc_cand=675 pgc_issued=50 pgc_disc=308 demand_walks=448 ipc=0.089248 l1d_mpki=66.000000 dtlb_mpki=34.250000 l1i_acc=11123 l1i_miss=0 l2c_acc=1320 l2c_miss=1243 llc_acc=1243 llc_miss=1243 l2c_pf_acc=1762 l2c_pf_hit=155 l2c_pf_fill=1418 llc_pf_acc=1607 llc_pf_hit=0 llc_pf_fill=1418 l1d_pgc_fill=50 l1d_wb=1060 walk_refs=449 psc_hits=1790 prefetch_walks=0 dtlb_pf_probes=9618 stlb_pf_probes=300 spec_walks=0 redundant=7881 minor=448 major=0 reclaims=0 promote=1 demote=0 shootdowns=1 ipis=0 fault_cycles=1794000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00"), (SuiteId::Spec06, 0, "spec06.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        l2: L2PrefetcherKind::None,
        huge: HugePagePolicy::None,
        os: false,
        counters: "core0: cycles=27962 mispredicts=89 stalls=147771 ipc=0.715256 core1: cycles=28455 mispredicts=104 stalls=150725 ipc=0.702864 llc: acc=1102 miss=1102 pf_fills=3266",
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
        .warmup(WARMUP)
        .instructions(MEASURED);
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

fn os_counters(os: &OsStats) -> String {
    format!(
        "minor={} major={} reclaims={} promote={} demote={} shootdowns={} ipis={} fault_cycles={}",
        os.minor_faults,
        os.major_faults,
        os.reclaims,
        os.thp_promotions,
        os.thp_demotions,
        os.shootdowns,
        os.ipis_received,
        os.fault_cycles
    )
}

/// The counters of every level a request passes through below the L1D
/// demand path: the instruction side, L2C/LLC demand and prefetch
/// traffic, walker references and the prefetch-side TLB probes.
fn request_path_counters(r: &Report) -> String {
    format!(
        "l1i_acc={} l1i_miss={} l2c_acc={} l2c_miss={} llc_acc={} llc_miss={} \
         l2c_pf_acc={} l2c_pf_hit={} l2c_pf_fill={} llc_pf_acc={} llc_pf_hit={} llc_pf_fill={} \
         l1d_pgc_fill={} l1d_wb={} walk_refs={} psc_hits={} prefetch_walks={} \
         dtlb_pf_probes={} stlb_pf_probes={} spec_walks={} redundant={}",
        r.l1i.demand_accesses,
        r.l1i.demand_misses,
        r.l2c.demand_accesses,
        r.l2c.demand_misses,
        r.llc.demand_accesses,
        r.llc.demand_misses,
        r.l2c.prefetch_accesses,
        r.l2c.prefetch_hits,
        r.l2c.prefetch_fills,
        r.llc.prefetch_accesses,
        r.llc.prefetch_hits,
        r.llc.prefetch_fills,
        r.l1d.pgc_fills,
        r.l1d.writebacks,
        r.walks.memory_refs,
        r.walks.psc_hits,
        r.walks.prefetch_walks,
        r.dtlb.prefetch_probes,
        r.stlb.prefetch_probes,
        r.prefetch.speculative_walks,
        r.prefetch.redundant
    )
}

/// The locked counters of a run, as one line.
fn fingerprint(o: &Outcome) -> String {
    match o {
        Outcome::Single(r) => {
            assert_eq!(r.core.instructions, MEASURED, "measured length");
            let mut s = format!(
                "cycles={} l1d_acc={} l1d_miss={} dtlb_miss={} stlb_miss={} pgc_cand={} \
                 pgc_issued={} pgc_disc={} demand_walks={} ipc={:.6} l1d_mpki={:.6} dtlb_mpki={:.6}",
                r.core.cycles,
                r.l1d.demand_accesses,
                r.l1d.demand_misses,
                r.dtlb.misses,
                r.stlb.misses,
                r.prefetch.pgc_candidates,
                r.prefetch.pgc_issued,
                r.prefetch.pgc_discarded,
                r.walks.demand_walks,
                r.ipc(),
                r.l1d_mpki(),
                r.dtlb_mpki()
            );
            s = format!("{s} {}", request_path_counters(r));
            if r.os != OsStats::default() {
                s = format!("{s} {}", os_counters(&r.os));
            }
            s
        }
        Outcome::Mix(m) => {
            let mut parts = Vec::new();
            for (i, (c, os)) in m.cores.iter().zip(&m.os).enumerate() {
                assert_eq!(c.instructions, MEASURED, "core {i}: measured length");
                parts.push(format!(
                    "core{i}: cycles={} mispredicts={} stalls={} ipc={:.6}",
                    c.cycles,
                    c.branch_mispredicts,
                    c.stalls.total(),
                    c.ipc()
                ));
                if *os != OsStats::default() {
                    parts.push(os_counters(os));
                }
            }
            parts.push(format!(
                "llc: acc={} miss={} pf_fills={}",
                m.llc.demand_accesses, m.llc.demand_misses, m.llc.prefetch_fills
            ));
            parts.join(" ")
        }
    }
}

/// `g` as a source row with `counters` in place of its locked values.
fn row(g: &Golden, counters: &str) -> String {
    let ws: Vec<String> = g
        .workloads
        .iter()
        .map(|(s, i, name)| format!("(SuiteId::{s:?}, {i}, {name:?})"))
        .collect();
    format!(
        "    Golden {{\n        workloads: &[{}],\n        prefetcher: PrefetcherKind::{:?},\n        \
         policy: PgcPolicyKind::{:?},\n        l2: L2PrefetcherKind::{:?},\n        \
         huge: HugePagePolicy::{:?},\n        os: {},\n        counters: {counters:?},\n    }},",
        ws.join(", "),
        g.prefetcher,
        g.policy,
        g.l2,
        g.huge,
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
