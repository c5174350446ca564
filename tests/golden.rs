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
    MixReport, OsConfig, PgcPolicyKind, PrefetcherKind, Report, SimulationBuilder,
};
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
        os: false,
        counters: "cycles=38087 l1d_acc=7463 l1d_miss=1272 dtlb_miss=845 stlb_miss=466 pgc_cand=857 pgc_issued=231 pgc_disc=492 demand_walks=466 ipc=0.525114 l1d_mpki=63.600000 dtlb_mpki=42.250000",
    },
    Golden {
        workloads: &[(SuiteId::Spec06, 0, "spec06.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::PermitPgc,
        os: false,
        counters: "cycles=11782 l1d_acc=7006 l1d_miss=0 dtlb_miss=0 stlb_miss=0 pgc_cand=261 pgc_issued=54 pgc_disc=0 demand_walks=0 ipc=1.697505 l1d_mpki=0.000000 dtlb_mpki=0.000000",
    },
    Golden {
        workloads: &[(SuiteId::Ligra, 1, "ligra.s01")],
        prefetcher: PrefetcherKind::Bop,
        policy: PgcPolicyKind::Dripper,
        os: false,
        counters: "cycles=44018 l1d_acc=7557 l1d_miss=1643 dtlb_miss=959 stlb_miss=539 pgc_cand=578 pgc_issued=16 pgc_disc=560 demand_walks=539 ipc=0.454360 l1d_mpki=82.150000 dtlb_mpki=47.950000",
    },
    Golden {
        workloads: &[(SuiteId::QmmInt, 0, "qmm_int.s00")],
        prefetcher: PrefetcherKind::Ipcp,
        policy: PgcPolicyKind::DiscardPgc,
        os: false,
        counters: "cycles=181728 l1d_acc=6435 l1d_miss=2758 dtlb_miss=2462 stlb_miss=526 pgc_cand=533 pgc_issued=0 pgc_disc=533 demand_walks=526 ipc=0.110055 l1d_mpki=137.900000 dtlb_mpki=123.100000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
        os: true,
        counters: "cycles=224094 l1d_acc=7463 l1d_miss=1320 dtlb_miss=685 stlb_miss=448 pgc_cand=675 pgc_issued=50 pgc_disc=308 demand_walks=448 ipc=0.089248 l1d_mpki=66.000000 dtlb_mpki=34.250000 minor=448 major=0 reclaims=0 promote=1 demote=0 shootdowns=1 ipis=0 fault_cycles=1794000",
    },
    Golden {
        workloads: &[(SuiteId::Gap, 0, "gap.s00"), (SuiteId::Spec06, 0, "spec06.s00")],
        prefetcher: PrefetcherKind::Berti,
        policy: PgcPolicyKind::Dripper,
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
         policy: PgcPolicyKind::{:?},\n        os: {},\n        counters: {counters:?},\n    }},",
        ws.join(", "),
        g.prefetcher,
        g.policy,
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
