//! The correctness gate: every simulated counter of a run, compared with
//! the recorded expectation for its (workload, seed), with the other runs
//! of the same process, and against the accounting identity.

use pagecross_cpu::{CoreConfig, MixReport, Report};
use pagecross_types::{CacheStats, CoreStats, OsStats, TlbStats};
use std::fmt::Write as _;

/// Expected fingerprints: `workload seed fingerprint cycles` per line.
const EXPECTED: &str = include_str!("../expected.txt");

/// What one simulation job produced. A run holds only a few at a time,
/// so the large single-core variant stays unboxed.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Sim {
    Single(Report),
    Mix(MixReport),
    /// A campaign pass: one report per cell, in grid order.
    Grid(Vec<Report>),
}

fn core(c: &CoreStats, out: &mut Vec<u64>) {
    let s = &c.stalls;
    out.extend([
        c.instructions,
        c.cycles,
        c.loads,
        c.stores,
        c.branch_mispredicts,
        c.branches,
        s.rob_full,
        s.l1d_miss,
        s.tlb_walk,
        s.branch_redirect,
        s.fetch_starved,
        s.os_fault,
        s.drain,
        s.warmup_carry,
    ]);
}

fn cache(c: &CacheStats, out: &mut Vec<u64>) {
    out.extend([
        c.demand_accesses,
        c.demand_misses,
        c.prefetch_accesses,
        c.prefetch_hits,
        c.prefetch_fills,
        c.prefetch_useful,
        c.prefetch_useless,
        c.pgc_fills,
        c.pgc_useful,
        c.pgc_useless,
        c.writebacks,
    ]);
}

fn tlb(t: &TlbStats, out: &mut Vec<u64>) {
    out.extend([
        t.accesses,
        t.misses,
        t.prefetch_probes,
        t.prefetch_probe_misses,
        t.prefetch_fills,
    ]);
}

fn os(o: &OsStats, out: &mut Vec<u64>) {
    out.extend([
        o.minor_faults,
        o.major_faults,
        o.reclaims,
        o.thp_promotions,
        o.thp_demotions,
        o.shootdowns,
        o.ipis_received,
        o.fault_cycles,
    ]);
}

fn report(r: &Report, out: &mut Vec<u64>) {
    core(&r.core, out);
    for c in [&r.l1i, &r.l1d, &r.l2c, &r.llc] {
        cache(c, out);
    }
    tlb(&r.dtlb, out);
    tlb(&r.stlb, out);
    let (w, p) = (&r.walks, &r.prefetch);
    out.extend([
        w.demand_walks,
        w.prefetch_walks,
        w.memory_refs,
        w.psc_hits,
        p.candidates,
        p.pgc_candidates,
        p.pgc_discarded,
        p.pgc_issued,
        p.inpage_issued,
        p.redundant,
        p.speculative_walks,
    ]);
    os(&r.os, out);
}

impl Sim {
    /// Every counter of the run, in a fixed order: IPC inputs, stall
    /// slots, cache/TLB/walk statistics, prefetch and page-cross counts,
    /// and OS counts.
    pub fn counters(&self) -> Vec<u64> {
        let mut out = Vec::new();
        match self {
            Sim::Single(r) => report(r, &mut out),
            Sim::Mix(m) => {
                for c in &m.cores {
                    core(c, &mut out);
                }
                for o in &m.os {
                    os(o, &mut out);
                }
                cache(&m.llc, &mut out);
            }
            Sim::Grid(cells) => cells.iter().for_each(|r| report(r, &mut out)),
        }
        out
    }

    /// FNV-1a over [`Sim::counters`]: one number standing for all of them.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for v in self.counters() {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// Measured cycles summed over cores or cells (a readable check).
    pub fn cycles(&self) -> u64 {
        self.cores().iter().map(|c| c.cycles).sum()
    }

    fn cores(&self) -> Vec<CoreStats> {
        match self {
            Sim::Single(r) => vec![r.core],
            Sim::Mix(m) => m.cores.clone(),
            Sim::Grid(cells) => cells.iter().map(|r| r.core).collect(),
        }
    }

    /// Violations of the exact stall-slot identity
    /// `instructions + stalls + carry == cycles × width` on any core.
    pub fn invariant_errors(&self) -> Vec<String> {
        let width = CoreConfig::default().issue_width;
        self.cores()
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.instructions == 0 || !c.stalls.balances(c.instructions, c.cycles, width)
            })
            .map(|(i, c)| {
                format!(
                    "core/cell {i}: {} instr + {} stalls + {} carry != {} cycles x {width}",
                    c.instructions,
                    c.stalls.total(),
                    c.stalls.warmup_carry,
                    c.cycles
                )
            })
            .collect()
    }

    /// The `expected.txt` line recording this run for `(workload, seed)`.
    pub fn expected_line(&self, workload: &str, seed: u64) -> String {
        format!(
            "{workload} {seed} {:#018x} {}",
            self.fingerprint(),
            self.cycles()
        )
    }
}

/// The recorded fingerprint of `(workload, seed)`, if there is one.
pub fn expected(workload: &str, seed: u64) -> Option<u64> {
    EXPECTED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let hex = f.get(2)?.strip_prefix("0x")?;
            (f[0] == workload && f[1].parse() == Ok(seed))
                .then(|| u64::from_str_radix(hex, 16).ok())
                .flatten()
        })
}

/// Counts attempted and failed jobs of one run and decides correctness.
/// A job fails when it panics, runs out of physical memory, breaks the
/// accounting identity, or differs from the recorded expectation or from
/// the first job of the run (every job of a run simulates the same thing:
/// traced or not, replayed or generated).
pub struct Gate {
    expected: Option<u64>,
    reference: Option<Sim>,
    pub attempted: u64,
    pub failed: u64,
    pub log: String,
}

impl Gate {
    pub fn new(workload: &str, seed: u64) -> Self {
        let expected = expected(workload, seed);
        let mut log = String::new();
        match expected {
            Some(fp) => writeln!(log, "check: expecting fingerprint {fp:#018x} for seed {seed}"),
            None => writeln!(
                log,
                "check: expectations are recorded for seeds {} and {}, not {seed}; checking agreement and invariants",
                crate::workloads::DEFAULT_SEED,
                crate::workloads::HELD_OUT_SEED
            ),
        }
        .expect("write to String");
        Gate {
            expected,
            reference: None,
            attempted: 0,
            failed: 0,
            log,
        }
    }

    /// Admits one job outcome worth `weight` attempts (a campaign pass
    /// counts each of its cells). Returns whether it passed.
    pub fn admit(
        &mut self,
        label: &str,
        outcome: std::thread::Result<Result<Sim, String>>,
        weight: u64,
    ) -> bool {
        self.attempted += weight;
        let error = match outcome {
            Err(_) => Some("panicked".to_string()),
            Ok(Err(e)) => Some(e),
            Ok(Ok(sim)) => self.judge(&sim),
        };
        match error {
            None => true,
            Some(e) => {
                self.failed += weight;
                writeln!(self.log, "check: {label} FAILED: {e}").expect("write to String");
                false
            }
        }
    }

    fn judge(&mut self, sim: &Sim) -> Option<String> {
        if let Some(e) = sim.invariant_errors().into_iter().next() {
            return Some(e);
        }
        let fp = sim.fingerprint();
        if let Some(want) = self.expected.filter(|&w| w != fp) {
            return Some(format!("fingerprint {fp:#018x} != expected {want:#018x}"));
        }
        match &self.reference {
            Some(r) if r != sim => Some(format!(
                "counters differ from the run's first job ({fp:#018x} vs {:#018x})",
                r.fingerprint()
            )),
            Some(_) => None,
            None => {
                self.reference = Some(sim.clone());
                None
            }
        }
    }

    /// The first passing job's result.
    pub fn reference(&self) -> Option<&Sim> {
        self.reference.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(cycles: u64) -> Sim {
        let mut r = Report::default();
        r.core.instructions = 6;
        r.core.cycles = cycles;
        r.core.stalls.rob_full = cycles * 6 - 6;
        Sim::Single(r)
    }

    #[test]
    fn every_recorded_expectation_parses() {
        for line in EXPECTED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 4, "{line}");
            let seed = f[1].parse().expect("seed");
            assert!(expected(f[0], seed).is_some(), "{line}");
        }
    }

    #[test]
    fn default_and_held_out_seeds_are_recorded_for_every_workload() {
        use crate::workloads::{WorkloadId, DEFAULT_SEED, HELD_OUT_SEED};
        for w in WorkloadId::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                assert!(
                    expected(w.name(), seed).is_some(),
                    "{} seed {seed}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn gate_fails_disagreement_panics_and_broken_identities() {
        let mut g = Gate::new("no-such-workload", 1);
        assert!(g.admit("a", Ok(Ok(sim(10))), 1));
        assert!(g.admit("b", Ok(Ok(sim(10))), 1));
        assert!(
            !g.admit("c", Ok(Ok(sim(11))), 1),
            "disagrees with the first"
        );
        assert!(!g.admit("d", Ok(Err("out of memory".into())), 3));
        assert!(!g.admit("e", Err(Box::new("boom")), 1));
        let mut broken = sim(10);
        if let Sim::Single(r) = &mut broken {
            r.core.stalls.rob_full += 1;
        }
        assert!(!g.admit("f", Ok(Ok(broken)), 1));
        assert_eq!((g.attempted, g.failed), (8, 6));
        assert_eq!(g.reference(), Some(&sim(10)));
    }

    #[test]
    fn fingerprint_sees_every_counter() {
        let base = sim(10);
        let Sim::Single(r) = &base else {
            unreachable!()
        };
        let mut other = r.clone();
        other.os.ipis_received = 1;
        assert_ne!(base.fingerprint(), Sim::Single(other).fingerprint());
        assert_eq!(base.fingerprint(), sim(10).fingerprint());
    }
}
