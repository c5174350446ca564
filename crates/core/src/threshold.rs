//! The adaptive thresholding scheme (paper §III-C3, Fig. 8).
//!
//! The filter compares the cumulative weight against an activation
//! threshold `T_a`. A static `T_a` is suboptimal across workload types and
//! phases, so MOKA adjusts it with an epoch-based scheme:
//!
//! **In-epoch spot rules** (checked continuously):
//! * very high ROB pressure with many in-flight L1D misses → `T_a = t_h`;
//! * page-cross accuracy below `T₁` → `T_a = t_h`;
//! * high L1I MPKI → `T_a = max(T_a, t_m)` (avoid L2 contention with
//!   demand instruction traffic);
//! * very high LLC pressure → page-cross prefetching *disabled* for the
//!   rest of the epoch (the vUB keeps learning, so it can resume later).
//!
//! **End-of-epoch rules**:
//! * accuracy < `T₁` → `T_a = t_h`; accuracy < `T₂` → `T_a = max(T_a, t_m)`;
//! * accuracy increased (decreased) vs the previous epoch → `T_a += 1`
//!   (`T_a -= 1`);
//! * IPC dropped vs the previous epoch → `T_a = max(T_a, t_m)`.
//!
//! The paper fixes the scheme's constants, so they are private `const`s
//! of this module: `t_l`, `t_m`, `t_h` are `T_LOW` (-1), `T_MEDIUM` (6) and
//! `T_HIGH` (14), clamped to `[T_MIN, T_MAX]` = `[-4, 16]`; `T₁`, `T₂` are
//! `ACC_LOW` (0.25) and `ACC_MEDIUM` (0.50).

use pagecross_types::SystemSnapshot;

/// Low (default/aggressive) threshold.
const T_LOW: i32 = -1;
/// Medium threshold `t_m`.
const T_MEDIUM: i32 = 6;
/// High threshold `t_h` (only very confident prefetches pass).
const T_HIGH: i32 = 14;
/// Lower clamp bound for incremental adjustment.
const T_MIN: i32 = -4;
/// Upper clamp bound.
const T_MAX: i32 = 16;
/// Accuracy below which the high threshold is forced (`T₁`).
const ACC_LOW: f64 = 0.25;
/// Accuracy below which the medium threshold is forced (`T₂`).
const ACC_MEDIUM: f64 = 0.50;
/// L1I MPKI above which the medium threshold is forced (`T_L1i`).
const L1I_MPKI_HIGH: f64 = 5.0;
/// ROB occupancy fraction considered "high pressure".
const ROB_PRESSURE: f64 = 0.90;
/// In-flight L1D misses considered "many".
const INFLIGHT_HIGH: u32 = 12;
/// LLC miss rate considered "very high pressure" (disable rule).
const LLC_MISSRATE_EXTREME: f64 = 0.90;
/// LLC MPKI floor for the disable rule. Set well above what a pure
/// streaming workload can generate (~16 MPKI at 4 loads/line), so the
/// rule only fires on genuine thrashing phases — streams are where
/// page-cross prefetching helps most and must not be disabled.
const LLC_MPKI_EXTREME: f64 = 50.0;
/// Relative IPC drop that triggers the IPC rule.
const IPC_DROP: f64 = 0.80;

/// The adaptive threshold controller.
#[derive(Clone, Debug)]
pub struct AdaptiveThreshold {
    t_a: i32,
    disabled: bool,
    prev_accuracy: Option<f64>,
    prev_ipc: Option<f64>,
    /// Useful page-cross prefetches accumulated since the last accuracy
    /// judgement (low-volume epochs pool their evidence).
    acc_useful: u64,
    /// Useless page-cross prefetches accumulated since the last judgement.
    acc_useless: u64,
}

impl AdaptiveThreshold {
    /// Creates a controller starting at `T_LOW`.
    pub fn new() -> Self {
        Self {
            t_a: T_LOW,
            disabled: false,
            prev_accuracy: None,
            prev_ipc: None,
            acc_useful: 0,
            acc_useless: 0,
        }
    }

    /// Current activation threshold.
    pub fn threshold(&self) -> i32 {
        self.t_a
    }

    /// True while the disable rule is in force (all page-cross prefetches
    /// discarded; vUB training continues).
    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    fn clamp(&mut self) {
        self.t_a = self.t_a.clamp(T_MIN, T_MAX);
    }

    /// In-epoch spot check against extreme behaviours (step ➁ in Fig. 8).
    pub fn spot_check(&mut self, snap: &SystemSnapshot) {
        // Very high LLC pressure: disable until the epoch ends. Gated on
        // page-cross prefetching being active *and* inaccurate — accurate
        // page-cross prefetches relieve LLC pressure rather than cause it,
        // and blocking them under pressure creates a self-reinforcing
        // lockout (blocked prefetches -> more demand misses -> still
        // "extreme" pressure).
        if snap.llc_miss_rate > LLC_MISSRATE_EXTREME
            && snap.llc_mpki > LLC_MPKI_EXTREME
            && snap.pgc_useful + snap.pgc_useless >= 8
            && snap.pgc_accuracy() < ACC_MEDIUM
        {
            self.disabled = true;
            return;
        }
        // High ROB pressure + many in-flight misses: high threshold.
        // Gated on page-cross prefetches actually being in flight this
        // epoch — pressure that exists *without* page-cross traffic cannot
        // be cured by discarding it, and raising the threshold then only
        // creates a self-reinforcing lockout.
        if snap.rob_occupancy > ROB_PRESSURE
            && snap.inflight_l1d_misses > INFLIGHT_HIGH
            && snap.pgc_useful + snap.pgc_useless >= 8
        {
            self.t_a = self.t_a.max(T_HIGH);
        }
        // Accuracy collapsed: high threshold.
        if snap.pgc_useful + snap.pgc_useless >= 32 && snap.pgc_accuracy() < ACC_LOW {
            self.t_a = self.t_a.max(T_HIGH);
        }
        // High L1I pressure: at least medium threshold.
        if snap.l1i_mpki > L1I_MPKI_HIGH {
            self.t_a = self.t_a.max(T_MEDIUM);
        }
        self.clamp();
    }

    /// End-of-epoch update (steps ➂–➄ in Fig. 8). `snap` summarises the
    /// finished epoch.
    ///
    /// Accuracy evidence from low-volume epochs is pooled until at least 8
    /// page-cross outcomes have resolved; judging on fewer would let
    /// trickles of one-off junk prefetches (a fresh weight-table bucket per
    /// novel delta) leak forever below the rules' radar.
    pub fn end_epoch(&mut self, snap: &SystemSnapshot) {
        self.disabled = false;

        self.acc_useful += snap.pgc_useful;
        self.acc_useless += snap.pgc_useless;
        let resolved = self.acc_useful + self.acc_useless;

        if resolved >= 8 {
            let acc = self.acc_useful as f64 / resolved as f64;
            if acc < ACC_LOW {
                self.t_a = self.t_a.max(T_HIGH);
            } else if acc < ACC_MEDIUM {
                self.t_a = self.t_a.max(T_MEDIUM);
            } else if self.t_a > T_LOW {
                // Accuracy is fine: ease one step back toward t_low. The
                // vUB can only recover prefetches whose covering demand
                // arrives within a few accesses of the discard, so without
                // relaxation large-offset prefetchers (BOP) deadlock at a
                // raised threshold with zero issues and zero training.
                self.t_a -= 1;
            }
            if let Some(prev) = self.prev_accuracy {
                // Deviation from the paper's literal text (which raises
                // `T_a` when accuracy *rises*): rising accuracy lowers the
                // threshold (be more aggressive while predictions are
                // good), falling accuracy raises it. The literal reading
                // ratchets the filter into discarding half of the useful
                // page-cross prefetches on perfectly-predictable streams,
                // contradicting the paper's own Fig. 11 (DRIPPER coverage
                // ≈ Permit coverage). See DESIGN.md.
                if acc > prev + 1e-9 {
                    self.t_a -= 1;
                } else if acc < prev - 1e-9 {
                    self.t_a += 1;
                }
            }
            self.prev_accuracy = Some(acc);
            self.acc_useful = 0;
            self.acc_useless = 0;
        } else if resolved == 0
            && self.prev_accuracy.is_none_or(|a| a >= ACC_MEDIUM)
            && self.t_a > T_LOW
        {
            // Nothing in flight and no history of inaccuracy: ease back so
            // a raised threshold cannot become a permanent lockout.
            self.t_a -= 1;
        }

        let issued = snap.pgc_useful + snap.pgc_useless;
        if let Some(prev_ipc) = self.prev_ipc {
            // Only blame page-cross prefetching for an IPC drop when it was
            // actually active during the epoch.
            if snap.ipc < prev_ipc * IPC_DROP && issued >= 8 {
                self.t_a = self.t_a.max(T_MEDIUM);
            }
        }
        self.prev_ipc = Some(snap.ipc);
        self.clamp();
    }
}

impl Default for AdaptiveThreshold {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> SystemSnapshot {
        SystemSnapshot {
            ipc: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn starts_at_low_threshold() {
        let t = AdaptiveThreshold::default();
        assert_eq!(t.threshold(), -1);
        assert!(!t.is_disabled());
    }

    #[test]
    fn rob_pressure_forces_high() {
        let mut t = AdaptiveThreshold::default();
        // Without page-cross traffic the rule must not fire.
        let quiet = SystemSnapshot {
            rob_occupancy: 0.95,
            inflight_l1d_misses: 16,
            ..snap()
        };
        t.spot_check(&quiet);
        assert_eq!(t.threshold(), -1);
        let s = SystemSnapshot {
            rob_occupancy: 0.95,
            inflight_l1d_misses: 16,
            pgc_useful: 5,
            pgc_useless: 5,
            ..snap()
        };
        t.spot_check(&s);
        assert_eq!(t.threshold(), 14);
    }

    #[test]
    fn low_accuracy_spot_rule_needs_volume() {
        let mut t = AdaptiveThreshold::default();
        // Only 4 issued: not enough evidence.
        let s = SystemSnapshot {
            pgc_useful: 0,
            pgc_useless: 4,
            ..snap()
        };
        t.spot_check(&s);
        assert_eq!(t.threshold(), -1);
        // 40 issued, 10% accurate: force high.
        let s = SystemSnapshot {
            pgc_useful: 4,
            pgc_useless: 36,
            ..snap()
        };
        t.spot_check(&s);
        assert_eq!(t.threshold(), 14);
    }

    #[test]
    fn l1i_pressure_forces_medium() {
        let mut t = AdaptiveThreshold::default();
        let s = SystemSnapshot {
            l1i_mpki: 9.0,
            ..snap()
        };
        t.spot_check(&s);
        assert_eq!(t.threshold(), 6);
    }

    #[test]
    fn llc_extreme_disables_until_epoch_end() {
        let mut t = AdaptiveThreshold::default();
        // Pressure alone (no inaccurate page-cross traffic) must not
        // disable.
        let pressure_only = SystemSnapshot {
            llc_miss_rate: 0.95,
            llc_mpki: 60.0,
            ..snap()
        };
        t.spot_check(&pressure_only);
        assert!(!t.is_disabled());
        let s = SystemSnapshot {
            llc_miss_rate: 0.95,
            llc_mpki: 60.0,
            pgc_useful: 2,
            pgc_useless: 20,
            ..snap()
        };
        t.spot_check(&s);
        assert!(t.is_disabled());
        t.end_epoch(&snap());
        assert!(!t.is_disabled(), "epoch boundary re-enables");
    }

    #[test]
    fn accuracy_bands_at_epoch_end() {
        let mut t = AdaptiveThreshold::default();
        let s = SystemSnapshot {
            pgc_useful: 4,
            pgc_useless: 6,
            ..snap()
        }; // 40%
        t.end_epoch(&s);
        assert_eq!(t.threshold(), 6, "accuracy in [T1, T2) forces medium");
        let mut t2 = AdaptiveThreshold::default();
        let s2 = SystemSnapshot {
            pgc_useful: 1,
            pgc_useless: 9,
            ..snap()
        }; // 10%
        t2.end_epoch(&s2);
        assert_eq!(t2.threshold(), 14, "accuracy below T1 forces high");
    }

    #[test]
    fn quiet_epochs_relax_threshold_back_to_low() {
        let mut t = AdaptiveThreshold::default();
        // Force high via an inaccurate judgement, then prove quiet epochs
        // do NOT relax while the last judged accuracy was bad…
        t.end_epoch(&SystemSnapshot {
            pgc_useful: 1,
            pgc_useless: 9,
            ..snap()
        });
        assert_eq!(t.threshold(), 14);
        for _ in 0..5 {
            t.end_epoch(&snap());
        }
        assert_eq!(
            t.threshold(),
            14,
            "bad history blocks the silence relaxation"
        );
        // …but once a good judgement lands, quiet epochs ease back down.
        t.end_epoch(&SystemSnapshot {
            pgc_useful: 10,
            pgc_useless: 0,
            ..snap()
        });
        for _ in 0..30 {
            t.end_epoch(&snap());
        }
        assert_eq!(t.threshold(), T_LOW, "recovered to t_low");
    }

    #[test]
    fn accuracy_delta_moves_threshold_by_one() {
        let mut t = AdaptiveThreshold::default();
        t.end_epoch(&SystemSnapshot {
            pgc_useful: 6,
            pgc_useless: 4,
            ..snap()
        }); // 60%
        let base = t.threshold();
        // Rising accuracy -> more aggressive (threshold down).
        t.end_epoch(&SystemSnapshot {
            pgc_useful: 8,
            pgc_useless: 2,
            ..snap()
        }); // 80%
        assert_eq!(t.threshold(), base - 1);
        // Falling accuracy -> more conservative (threshold back up).
        t.end_epoch(&SystemSnapshot {
            pgc_useful: 6,
            pgc_useless: 4,
            ..snap()
        }); // 60%
        assert_eq!(t.threshold(), base);
    }

    #[test]
    fn ipc_drop_forces_medium() {
        let mut t = AdaptiveThreshold::default();
        t.end_epoch(&SystemSnapshot {
            ipc: 2.0,
            pgc_useful: 10,
            ..Default::default()
        });
        assert!(t.threshold() <= -1, "good epoch stays aggressive");
        let before = t.threshold();
        t.end_epoch(&SystemSnapshot {
            ipc: 0.5,
            pgc_useful: 10,
            ..Default::default()
        });
        assert_eq!(
            t.threshold(),
            6,
            "IPC collapse with active PGC forces t_medium"
        );
        assert!(t.threshold() > before);
    }

    #[test]
    fn threshold_clamped() {
        let mut t = AdaptiveThreshold::default();
        // Drive accuracy up for many epochs; threshold must not exceed t_max.
        for i in 0..50u64 {
            let s = SystemSnapshot {
                pgc_useful: 50 + i,
                pgc_useless: 1,
                ipc: 1.0,
                ..Default::default()
            };
            t.end_epoch(&s);
        }
        assert!(t.threshold() <= 16);
    }
}
