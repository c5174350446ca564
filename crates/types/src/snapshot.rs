//! Runtime system-state snapshots consumed by MOKA.
//!
//! The paper's system features (§III-D2) and adaptive thresholding scheme
//! (§III-C3) both make decisions from *windowed* runtime statistics —
//! MPKIs, miss rates, IPC, ROB pressure, in-flight misses. The CPU model
//! produces a [`SystemSnapshot`] over a sliding window and hands it to the
//! filter at decision time and at epoch boundaries.

use crate::telemetry::TelemetryCounters;

/// A windowed summary of the system state, in the units the paper uses.
///
/// All `*_mpki` fields are misses per kilo-instruction over the window; all
/// `*_miss_rate` fields are misses/accesses in `[0, 1]`. `ipc` is the
/// window's retired-instructions/cycles. Page-cross prefetch counts are
/// cumulative within the current epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SystemSnapshot {
    /// L1D demand misses per kilo-instruction.
    pub l1d_mpki: f64,
    /// L1D demand miss rate.
    pub l1d_miss_rate: f64,
    /// LLC demand misses per kilo-instruction.
    pub llc_mpki: f64,
    /// LLC demand miss rate.
    pub llc_miss_rate: f64,
    /// Last-level TLB misses per kilo-instruction.
    pub stlb_mpki: f64,
    /// Last-level TLB miss rate.
    pub stlb_miss_rate: f64,
    /// L1I misses per kilo-instruction (adaptive thresholding input).
    pub l1i_mpki: f64,
    /// Window IPC.
    pub ipc: f64,
    /// ROB occupancy fraction in `[0, 1]`.
    pub rob_occupancy: f64,
    /// Number of in-flight L1D misses (MSHR occupancy).
    pub inflight_l1d_misses: u32,
    /// Useful page-cross prefetches observed this epoch.
    pub pgc_useful: u64,
    /// Useless page-cross prefetches observed this epoch.
    pub pgc_useless: u64,
    /// OS page faults (minor + major) in the window (0 with the OS off).
    pub os_faults: u64,
    /// OS frame reclaims in the window.
    pub os_reclaims: u64,
    /// THP promotions in the window.
    pub os_promotions: u64,
    /// TLB shootdown broadcasts in the window.
    pub os_shootdowns: u64,
}

impl SystemSnapshot {
    /// Builds a windowed snapshot from two cumulative counter captures.
    ///
    /// `base` is the capture at the start of the window, `now` the capture
    /// at its end; `rob_occupancy` and `inflight_l1d_misses` are
    /// instantaneous values sampled at the window end. A window with zero
    /// retired instructions (or zero elapsed cycles) is clamped to one so
    /// the MPKI/IPC divisions stay finite.
    pub fn from_window(
        now: &TelemetryCounters,
        base: &TelemetryCounters,
        rob_occupancy: f64,
        inflight_l1d_misses: u32,
    ) -> SystemSnapshot {
        let d = now.delta(base);
        let kilo = d.instructions.max(1) as f64 / 1000.0;
        let rate = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        SystemSnapshot {
            l1d_mpki: d.l1d_misses as f64 / kilo,
            l1d_miss_rate: rate(d.l1d_misses, d.l1d_accesses),
            llc_mpki: d.llc_misses as f64 / kilo,
            llc_miss_rate: rate(d.llc_misses, d.llc_accesses),
            stlb_mpki: d.stlb_misses as f64 / kilo,
            stlb_miss_rate: rate(d.stlb_misses, d.stlb_accesses),
            l1i_mpki: d.l1i_misses as f64 / kilo,
            ipc: rate(d.instructions, d.cycles.max(1)),
            rob_occupancy,
            inflight_l1d_misses,
            pgc_useful: d.pgc_useful,
            pgc_useless: d.pgc_useless,
            os_faults: d.os_minor_faults + d.os_major_faults,
            os_reclaims: d.os_reclaims,
            os_promotions: d.os_promotions,
            os_shootdowns: d.os_shootdowns,
        }
    }

    /// Accuracy of page-cross prefetching this epoch: useful / issued.
    /// Returns 1.0 when nothing has been issued yet (optimistic start, so
    /// the filter is not throttled before any evidence exists).
    pub fn pgc_accuracy(&self) -> f64 {
        let total = self.pgc_useful + self.pgc_useless;
        if total == 0 {
            1.0
        } else {
            self.pgc_useful as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_with_no_issues_is_optimistic() {
        let s = SystemSnapshot::default();
        assert_eq!(s.pgc_accuracy(), 1.0);
    }

    #[test]
    fn accuracy_ratio() {
        let s = SystemSnapshot {
            pgc_useful: 30,
            pgc_useless: 10,
            ..Default::default()
        };
        assert!((s.pgc_accuracy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn accuracy_all_useless() {
        let s = SystemSnapshot {
            pgc_useful: 0,
            pgc_useless: 5,
            ..Default::default()
        };
        assert_eq!(s.pgc_accuracy(), 0.0);
    }

    /// Two consecutive windows over the same cumulative stream: each
    /// snapshot must reflect only its own window's deltas, not the
    /// cumulative totals.
    #[test]
    fn windowing_is_delta_based_across_consecutive_windows() {
        let w0 = TelemetryCounters::default();
        let w1 = TelemetryCounters {
            instructions: 2_000,
            cycles: 4_000,
            l1d_accesses: 800,
            l1d_misses: 200,
            l1i_misses: 10,
            llc_accesses: 150,
            llc_misses: 30,
            stlb_accesses: 100,
            stlb_misses: 25,
            pgc_useful: 8,
            pgc_useless: 2,
            os_minor_faults: 4,
            os_major_faults: 1,
            ..Default::default()
        };
        let w2 = TelemetryCounters {
            instructions: 4_000,
            cycles: 5_000,
            l1d_accesses: 1_000,
            l1d_misses: 210,
            l1i_misses: 10,
            llc_accesses: 170,
            llc_misses: 34,
            stlb_accesses: 140,
            stlb_misses: 27,
            pgc_useful: 20,
            pgc_useless: 5,
            os_minor_faults: 6,
            os_major_faults: 4,
            ..Default::default()
        };

        // First window: [w0, w1).
        let s1 = SystemSnapshot::from_window(&w1, &w0, 0.5, 3);
        assert!((s1.l1d_mpki - 100.0).abs() < 1e-12, "200 misses / 2 kI");
        assert!((s1.l1d_miss_rate - 0.25).abs() < 1e-12);
        assert!((s1.llc_mpki - 15.0).abs() < 1e-12);
        assert!((s1.llc_miss_rate - 0.2).abs() < 1e-12);
        assert!((s1.stlb_mpki - 12.5).abs() < 1e-12);
        assert!((s1.stlb_miss_rate - 0.25).abs() < 1e-12);
        assert!((s1.l1i_mpki - 5.0).abs() < 1e-12);
        assert!((s1.ipc - 0.5).abs() < 1e-12);
        assert_eq!(s1.rob_occupancy, 0.5);
        assert_eq!(s1.inflight_l1d_misses, 3);
        assert_eq!(s1.pgc_useful, 8);
        assert_eq!(s1.pgc_useless, 2);
        assert_eq!(s1.os_faults, 5, "minor + major");

        // Second window: [w1, w2) — deltas only, not cumulative values.
        let s2 = SystemSnapshot::from_window(&w2, &w1, 0.25, 1);
        assert!((s2.l1d_mpki - 5.0).abs() < 1e-12, "10 misses / 2 kI");
        assert!((s2.l1d_miss_rate - 0.05).abs() < 1e-12, "10 / 200 accesses");
        assert!((s2.llc_mpki - 2.0).abs() < 1e-12);
        assert!((s2.llc_miss_rate - 0.2).abs() < 1e-12);
        assert!((s2.stlb_mpki - 1.0).abs() < 1e-12);
        assert!((s2.stlb_miss_rate - 0.05).abs() < 1e-12);
        assert!((s2.l1i_mpki - 0.0).abs() < 1e-12);
        assert!((s2.ipc - 2.0).abs() < 1e-12);
        assert_eq!(s2.pgc_useful, 12);
        assert_eq!(s2.pgc_useless, 3);
        assert_eq!(s2.os_faults, 5, "2 minor + 3 major");
    }

    /// A window in which nothing retired must stay finite: the instruction
    /// denominator clamps to 1, so MPKIs degrade to raw miss counts and
    /// IPC to 0.
    #[test]
    fn zero_retired_window_is_finite() {
        let base = TelemetryCounters {
            instructions: 1_000,
            cycles: 2_000,
            l1d_accesses: 500,
            l1d_misses: 100,
            ..Default::default()
        };
        // Same instruction count, but misses still accrued (e.g. stalled
        // on outstanding requests across the boundary).
        let now = TelemetryCounters {
            instructions: 1_000,
            cycles: 2_000,
            l1d_accesses: 504,
            l1d_misses: 103,
            ..Default::default()
        };
        let s = SystemSnapshot::from_window(&now, &base, 1.0, 7);
        assert!(s.l1d_mpki.is_finite());
        assert!(
            (s.l1d_mpki - 3_000.0).abs() < 1e-9,
            "3 misses / (1/1000) kI"
        );
        assert!((s.l1d_miss_rate - 0.75).abs() < 1e-12);
        assert_eq!(s.ipc, 0.0, "no instructions retired in the window");
        assert!(s.ipc.is_finite());
        assert_eq!(s.inflight_l1d_misses, 7);
    }
}
