//! Simulation reports: everything the paper's figures and tables read.

use pagecross_types::stats::{per_kilo, ratio};
use pagecross_types::{
    CacheStats, CoreStats, Counters, OsStats, PrefetchStats, StatsView, TlbStats, WalkStats,
};

/// The result of one single-core simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Page-cross policy name.
    pub policy: String,
    /// Core statistics.
    pub core: CoreStats,
    /// L1I statistics.
    pub l1i: CacheStats,
    /// L1D statistics.
    pub l1d: CacheStats,
    /// L2C statistics.
    pub l2c: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
    /// dTLB statistics.
    pub dtlb: TlbStats,
    /// sTLB statistics.
    pub stlb: TlbStats,
    /// Page-walker statistics.
    pub walks: WalkStats,
    /// Prefetch-issue statistics.
    pub prefetch: PrefetchStats,
    /// Imitation-OS counters (all zero when the OS model is off).
    pub os: OsStats,
}

impl Report {
    /// The counter structs, borrowed under their field names.
    pub(crate) fn view(&self) -> StatsView<'_> {
        StatsView {
            core: &self.core,
            l1i: &self.l1i,
            l1d: &self.l1d,
            l2c: &self.l2c,
            llc: &self.llc,
            dtlb: &self.dtlb,
            stlb: &self.stlb,
            walks: &self.walks,
            prefetch: &self.prefetch,
            os: &self.os,
        }
    }

    /// Calls `f` with the dotted name (`l1d.demand_accesses`,
    /// `core.stalls.rob_full`, …) and value of every counter.
    pub fn for_each_counter(&self, f: &mut dyn FnMut(&str, u64)) {
        self.view().for_each_counter(f);
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// L1D demand MPKI.
    pub fn l1d_mpki(&self) -> f64 {
        self.l1d.mpki(self.core.instructions)
    }

    /// L1I demand MPKI.
    pub fn l1i_mpki(&self) -> f64 {
        self.l1i.mpki(self.core.instructions)
    }

    /// LLC demand MPKI.
    pub fn llc_mpki(&self) -> f64 {
        self.llc.mpki(self.core.instructions)
    }

    /// dTLB demand MPKI.
    pub fn dtlb_mpki(&self) -> f64 {
        self.dtlb.mpki(self.core.instructions)
    }

    /// sTLB demand MPKI.
    pub fn stlb_mpki(&self) -> f64 {
        self.stlb.mpki(self.core.instructions)
    }

    /// Overall prefetch accuracy: useful / (useful + useless), over blocks
    /// whose fate is known (hit at least once, or evicted without hits).
    /// Considers all prefetch requests, in-page and page-cross (Fig. 11).
    ///
    /// `None` when no prefetched block's fate is resolved — e.g. with the
    /// prefetcher disabled — so "no data" is distinguishable from "0%
    /// accurate".
    pub fn prefetch_accuracy(&self) -> Option<f64> {
        let resolved = self.l1d.prefetch_useful + self.l1d.prefetch_useless;
        (resolved > 0).then(|| ratio(self.l1d.prefetch_useful, resolved))
    }

    /// Miss coverage proxy: prefetch-useful blocks per demand (miss +
    /// covered) — the fraction of would-be misses the prefetcher absorbed.
    ///
    /// `None` when there were neither misses nor covered misses, so "no
    /// demand to cover" is distinguishable from "covered nothing".
    pub fn coverage(&self) -> Option<f64> {
        let denom = self.l1d.demand_misses + self.l1d.prefetch_useful;
        (denom > 0).then(|| ratio(self.l1d.prefetch_useful, denom))
    }

    /// Page-cross prefetch accuracy: useful PCB blocks / resolved PCB
    /// blocks (Fig. 3).
    pub fn pgc_accuracy(&self) -> f64 {
        ratio(
            self.l1d.pgc_useful,
            self.l1d.pgc_useful + self.l1d.pgc_useless,
        )
    }

    /// Useful page-cross prefetches per kilo-instruction (Fig. 13).
    pub fn pgc_useful_pki(&self) -> f64 {
        per_kilo(self.l1d.pgc_useful, self.core.instructions)
    }

    /// Useless page-cross prefetches per kilo-instruction (Fig. 13).
    pub fn pgc_useless_pki(&self) -> f64 {
        per_kilo(self.l1d.pgc_useless, self.core.instructions)
    }
}

/// The result of one multi-core mix simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MixReport {
    /// Per-core workload names.
    pub workloads: Vec<String>,
    /// Per-core statistics, frozen when each core hit its quota.
    pub cores: Vec<CoreStats>,
    /// Per-core imitation-OS counters (empty or zeroed when off).
    pub os: Vec<OsStats>,
    /// Shared LLC statistics at the end of the run.
    pub llc: CacheStats,
}

impl MixReport {
    /// Calls `f` with the dotted name and value of every counter: each
    /// core's as `core<i>.…` (`core1.cycles`), its OS counters as
    /// `os<i>.…`, then the shared `llc.…`.
    pub fn for_each_counter(&self, f: &mut dyn FnMut(&str, u64)) {
        for (i, c) in self.cores.iter().enumerate() {
            c.for_each_counter(&mut format!("core{i}"), f);
        }
        for (i, o) in self.os.iter().enumerate() {
            o.for_each_counter(&mut format!("os{i}"), f);
        }
        self.llc.for_each_counter(&mut "llc".into(), f);
    }

    /// Per-core IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(|c| c.ipc()).collect()
    }

    /// Weighted speedup vs per-core isolation IPCs (§IV-A2):
    /// `Σ IPC_multicore / IPC_isolation`.
    ///
    /// Returns `None` when `isolation` does not carry exactly one IPC per
    /// core — a mismatched baseline would silently mis-weight the sum.
    pub fn weighted_ipc(&self, isolation: &[f64]) -> Option<f64> {
        if isolation.len() != self.cores.len() {
            return None;
        }
        Some(
            self.cores
                .iter()
                .zip(isolation)
                .map(|(c, &iso)| if iso > 0.0 { c.ipc() / iso } else { 0.0 })
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::TelemetryCounters;
    use std::collections::HashMap;

    /// A report whose counters read 1, 2, 3, … in declaration order.
    fn distinct_report() -> (Report, u64) {
        let mut n = 0;
        let mut next = || {
            n += 1;
            n
        };
        let r = Report {
            core: Counters::from_fn(&mut next),
            l1i: Counters::from_fn(&mut next),
            l1d: Counters::from_fn(&mut next),
            l2c: Counters::from_fn(&mut next),
            llc: Counters::from_fn(&mut next),
            dtlb: Counters::from_fn(&mut next),
            stlb: Counters::from_fn(&mut next),
            walks: Counters::from_fn(&mut next),
            prefetch: Counters::from_fn(&mut next),
            os: Counters::from_fn(&mut next),
            ..Default::default()
        };
        (r, n)
    }

    fn counters_of(visit: impl Fn(&mut dyn FnMut(&str, u64))) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        visit(&mut |name, v| out.push((name.to_string(), v)));
        out
    }

    #[test]
    fn schema_visits_every_counter_once_under_unique_names() {
        let (r, n) = distinct_report();
        let seen = counters_of(|f| r.for_each_counter(f));
        let values: Vec<u64> = seen.iter().map(|(_, v)| *v).collect();
        assert_eq!(
            values,
            (1..=n).collect::<Vec<_>>(),
            "every field, once, in order"
        );
        let names: HashMap<&str, u64> = seen.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(names.len(), seen.len(), "duplicate dotted names");
        assert!(names.contains_key("l1d.demand_accesses"));
        assert!(names.contains_key("core.stalls.rob_full"));

        let m = MixReport {
            cores: vec![r.core; 2],
            os: vec![r.os; 2],
            llc: r.llc,
            ..Default::default()
        };
        let mix = counters_of(|f| m.for_each_counter(f));
        let mix_names: HashMap<&str, u64> = mix.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(
            mix_names.len(),
            mix.len(),
            "duplicate dotted names in a mix"
        );
        assert_eq!(mix_names["core1.cycles"], r.core.cycles);
        assert_eq!(mix_names["os1.fault_cycles"], r.os.fault_cycles);
    }

    #[test]
    fn telemetry_capture_reads_its_mapped_counters() {
        let (r, _) = distinct_report();
        let seen = counters_of(|f| r.for_each_counter(f));
        let by_name: HashMap<&str, u64> = seen.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let mut captured = Vec::new();
        TelemetryCounters::capture(&r.view())
            .for_each_counter(&mut String::new(), &mut |field, v| {
                captured.push((field.to_string(), v))
            });
        assert_eq!(captured.len(), TelemetryCounters::SOURCES.len());
        for ((field, value), source) in captured.iter().zip(TelemetryCounters::SOURCES) {
            assert_eq!(Some(value), by_name.get(source), "{field} => {source}");
        }
    }

    #[test]
    fn accuracy_and_coverage_guards() {
        let r = Report::default();
        assert_eq!(r.prefetch_accuracy(), None);
        assert_eq!(r.coverage(), None);
        assert_eq!(r.pgc_accuracy(), 0.0);
        assert_eq!(r.pgc_useful_pki(), 0.0);
    }

    #[test]
    fn pgc_accuracy_ratio() {
        let mut r = Report::default();
        r.l1d.pgc_useful = 30;
        r.l1d.pgc_useless = 10;
        assert!((r.pgc_accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn weighted_ipc_sums_relative_progress() {
        let m = MixReport {
            cores: vec![
                CoreStats {
                    instructions: 100,
                    cycles: 100,
                    ..Default::default()
                }, // IPC 1.0
                CoreStats {
                    instructions: 100,
                    cycles: 200,
                    ..Default::default()
                }, // IPC 0.5
            ],
            ..Default::default()
        };
        let w = m.weighted_ipc(&[2.0, 1.0]).expect("matching lengths");
        assert!((w - 1.0).abs() < 1e-12, "0.5 + 0.5");
    }

    #[test]
    fn weighted_ipc_length_mismatch_is_none() {
        let m = MixReport {
            cores: vec![CoreStats::default()],
            ..Default::default()
        };
        assert_eq!(m.weighted_ipc(&[]), None);
        assert_eq!(m.weighted_ipc(&[1.0, 1.0]), None);
    }
}
