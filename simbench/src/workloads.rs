//! The four benchmark workloads and how each is built from the seed.
//!
//! Every generator input comes from the public `GenParams`/`Component`
//! API, shaped like a registry template family. The seed reseeds the
//! generators and the physical frame placement only; template sizes stay
//! fixed, so runs on different seeds do the same amount of work and their
//! host times are comparable.

use pagecross_bench::{CampaignConfig, Scheme};
use pagecross_cpu::trace::{TraceFactory, TraceSource};
use pagecross_cpu::{OsConfig, PgcPolicyKind, PrefetcherKind, SimulationBuilder};
use pagecross_workloads::{
    representative_seen, Component, GenParams, Phase, SuiteId, SyntheticTrace,
};

/// The seed the expectations in `expected.txt` were first recorded for.
pub const DEFAULT_SEED: u64 = 1;
/// A second recorded seed, never used while the benchmark was tuned.
pub const HELD_OUT_SEED: u64 = 977;

/// Registry members per suite in the campaign grid.
const CAMPAIGN_PER_SUITE: usize = 5;
/// Campaign cells run a tenth of each member's default lengths.
const CAMPAIGN_LENGTH_DIVISOR: u64 = 10;
/// Measured instructions per timed chunk of a campaign cell.
pub const CELL_CHUNK: u64 = 2_500;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    Stream4k,
    GraphReplay,
    OsMix2,
    CampaignGrid,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Stream4k,
        WorkloadId::GraphReplay,
        WorkloadId::OsMix2,
        WorkloadId::CampaignGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Stream4k => "stream_4k",
            WorkloadId::GraphReplay => "graph_replay",
            WorkloadId::OsMix2 => "os_mix2",
            WorkloadId::CampaignGrid => "campaign_grid",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A generator-backed trace factory.
#[derive(Clone, Debug)]
pub struct GenWorkload {
    pub name: String,
    pub params: GenParams,
}

impl TraceFactory for GenWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self) -> Box<dyn TraceSource> {
        Box::new(SyntheticTrace::new(self.params.clone()))
    }
}

/// One simulation job: Berti at L1D on every core, `policy` for
/// page-cross candidates, optionally the imitation OS.
#[derive(Clone, Debug)]
pub struct Job {
    pub cores: Vec<GenWorkload>,
    pub policy: PgcPolicyKind,
    pub os: Option<OsConfig>,
    pub warmup: u64,
    pub measure: u64,
    pub sim_seed: u64,
    /// Measured instructions (all cores) per timed chunk: about forty
    /// chunks per job.
    pub chunk: u64,
}

impl Job {
    /// The builder the untraced runs go through, as users do.
    pub fn builder(&self) -> SimulationBuilder {
        let b = SimulationBuilder::new()
            .prefetcher(PrefetcherKind::Berti)
            .pgc_policy(self.policy)
            .warmup(self.warmup)
            .instructions(self.measure)
            .seed(self.sim_seed);
        match self.os {
            Some(os) => b.os(os),
            None => b,
        }
    }
}

/// SplitMix64 of `seed` salted with `salt`: decorrelated derived seeds.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The registry's template shape: one phase, stores a quarter of loads.
fn gen(
    name: &str,
    load: f64,
    phase_len: u64,
    components: Vec<(Component, u32)>,
    seed: u64,
) -> GenWorkload {
    GenWorkload {
        name: name.to_string(),
        params: GenParams {
            load_ratio: load,
            store_ratio: load * 0.25,
            branch_ratio: 0.12,
            branch_predictability: 0.96,
            phases: vec![Phase { components }],
            phase_len,
            code_lines: 32,
            seed,
        },
    }
}

/// The single-job workloads' simulation, or `None` for the campaign.
pub fn job(w: WorkloadId, seed: u64) -> Option<Job> {
    let sim_seed = derive(seed, 0x5EED);
    let (cores, policy, os, measure, chunk) = match w {
        // spec06.s00 family: one contiguous stream over 4096 pages. Berti
        // runs ahead across page boundaries and Permit issues every
        // crossing, so translations arrive before demands and the filter
        // never runs: the no-change workload for DRIPPER and translation.
        WorkloadId::Stream4k => {
            let s = Component::Stream {
                stride_lines: 1,
                pages: 4096,
            };
            let core = gen("stream_4k", 0.28, 64_000, vec![(s, 1)], derive(seed, 1));
            (
                vec![core],
                PgcPolicyKind::PermitPgc,
                None,
                1_000_000,
                25_000,
            )
        }
        // gap.s00 family: two streams beside a power-law CSR neighbour
        // walk over 4096 pages — heavy TLB and walker traffic and many
        // page-cross candidates for DRIPPER. Replayed from a recording.
        WorkloadId::GraphReplay => {
            let comps = vec![
                (
                    Component::Stream {
                        stride_lines: 1,
                        pages: 4096,
                    },
                    2,
                ),
                (
                    Component::GraphCsr {
                        pages: 4096,
                        degree: 3,
                    },
                    1,
                ),
            ];
            let core = gen("graph_replay", 0.30, 48_000, comps, derive(seed, 2));
            (vec![core], PgcPolicyKind::Dripper, None, 1_000_000, 25_000)
        }
        // Two processes whose footprints overflow a 64 MB machine: a 48 MB
        // CSR graph (gap bfs-like) beside a segmented stream (spec06
        // sphinx-like). Faults, CLOCK reclaim, major faults, THP promotion
        // and cross-core shootdowns all fire, mutating page tables while
        // the other core translates.
        WorkloadId::OsMix2 => {
            let graph = gen(
                "os_mix2.graph",
                0.32,
                48_000,
                vec![(
                    Component::GraphCsr {
                        pages: 12_288,
                        degree: 4,
                    },
                    1,
                )],
                derive(seed, 3),
            );
            let seg = gen(
                "os_mix2.segmented",
                0.30,
                64_000,
                vec![(Component::SegmentedStream { pages: 8_192 }, 1)],
                derive(seed, 4),
            );
            let os = OsConfig {
                phys_mem_bytes: 64 << 20,
                thp: 0.5,
                ..OsConfig::default()
            };
            (
                vec![graph, seg],
                PgcPolicyKind::Dripper,
                Some(os),
                300_000,
                15_000,
            )
        }
        WorkloadId::CampaignGrid => return None,
    };
    Some(Job {
        cores,
        policy,
        os,
        warmup: 50_000,
        measure,
        sim_seed,
        chunk,
    })
}

/// One campaign member: a registry workload's shape, reseeded.
#[derive(Clone, Debug)]
pub struct Member {
    pub w: GenWorkload,
    pub suite: &'static str,
    pub warmup: u64,
    pub measure: u64,
}

/// The campaign grid: the first members of every suite but spec17, at a
/// tenth of their default lengths, reseeded from `seed`. The spec17 seen
/// members alias spec06's: both suites share the template arm and the
/// seed formula `1000 + 17i + 131·len(label)`, and both labels are six
/// characters long, so they would only duplicate cells.
pub fn campaign(seed: u64) -> (Vec<Member>, Vec<Scheme>, CampaignConfig) {
    let members = representative_seen(CAMPAIGN_PER_SUITE)
        .into_iter()
        .filter(|w| w.suite() != SuiteId::Spec17)
        .map(|w| {
            let mut params = w.params().clone();
            params.seed = derive(seed, params.seed);
            let (warmup, measure) = w.default_lengths();
            Member {
                w: GenWorkload {
                    name: w.name().to_string(),
                    params,
                },
                suite: w.suite().label(),
                warmup: warmup / CAMPAIGN_LENGTH_DIVISOR,
                measure: measure / CAMPAIGN_LENGTH_DIVISOR,
            }
        })
        .collect();
    let cfg = CampaignConfig {
        warmup_scale: 1.0,
        measure_scale: 1.0,
        seed: derive(seed, 0x5EED),
    };
    (
        members,
        pagecross_bench::core_schemes(PrefetcherKind::Berti),
        cfg,
    )
}

impl Member {
    /// The campaign cell `(self, scheme)` as a job the traced driver runs.
    pub fn job(&self, scheme: &Scheme, cfg: &CampaignConfig) -> Job {
        Job {
            cores: vec![self.w.clone()],
            policy: scheme.policy,
            os: scheme.os,
            warmup: self.warmup,
            measure: self.measure,
            sim_seed: cfg.seed,
            chunk: CELL_CHUNK,
        }
    }
}
