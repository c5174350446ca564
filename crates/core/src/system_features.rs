//! MOKA's system features (paper §III-D2).
//!
//! A *system feature* ties the usefulness of page-cross prefetching to the
//! current system state. Each feature is a single saturating-counter weight
//! gated by a threshold on one field of the [`SystemSnapshot`]: the weight
//! participates in the cumulative sum **only** while the gate condition
//! holds (`SFₙ ? Tₛfₙ` in Fig. 6, where `?` is `>` or `<` per feature).
//! Training updates a feature's weight only if the feature was active when
//! the corresponding prediction was made — the active-feature bitmask is
//! carried through the vUB/pUB entries.

use crate::perceptron::WEIGHT_BITS;
use pagecross_types::{SatCounter, SystemSnapshot};

/// The six system features of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemFeature {
    /// Active when L1D MPKI is high.
    L1dMpki,
    /// Active when the L1D miss rate is high.
    L1dMissRate,
    /// Active when LLC MPKI is high.
    LlcMpki,
    /// Active when the LLC miss rate is high.
    LlcMissRate,
    /// Active when sTLB MPKI is **low** (page-cross prefetches are likely to
    /// hit the TLB hierarchy, so walks are unlikely; §III-E).
    StlbMpki,
    /// Active when the sTLB miss rate is **high** (page-cross prefetches can
    /// relieve translation pressure; §III-E).
    StlbMissRate,
}

impl SystemFeature {
    /// All six features.
    pub const ALL: [SystemFeature; 6] = [
        SystemFeature::L1dMpki,
        SystemFeature::L1dMissRate,
        SystemFeature::LlcMpki,
        SystemFeature::LlcMissRate,
        SystemFeature::StlbMpki,
        SystemFeature::StlbMissRate,
    ];

    /// Default gate threshold for the feature.
    pub fn default_threshold(self) -> f64 {
        match self {
            SystemFeature::L1dMpki => 20.0,
            SystemFeature::L1dMissRate => 0.20,
            SystemFeature::LlcMpki => 5.0,
            SystemFeature::LlcMissRate => 0.50,
            SystemFeature::StlbMpki => 1.0,
            SystemFeature::StlbMissRate => 0.10,
        }
    }

    /// Whether the gate condition holds for a snapshot at `threshold`.
    pub fn active(self, snap: &SystemSnapshot, threshold: f64) -> bool {
        match self {
            SystemFeature::L1dMpki => snap.l1d_mpki > threshold,
            SystemFeature::L1dMissRate => snap.l1d_miss_rate > threshold,
            SystemFeature::LlcMpki => snap.llc_mpki > threshold,
            SystemFeature::LlcMissRate => snap.llc_miss_rate > threshold,
            // sTLB MPKI gates on *low* pressure.
            SystemFeature::StlbMpki => snap.stlb_mpki < threshold,
            SystemFeature::StlbMissRate => snap.stlb_miss_rate > threshold,
        }
    }
}

/// A bank of gated system-feature weights.
#[derive(Clone, Debug)]
pub struct SystemFeatureBank {
    features: Vec<(SystemFeature, f64)>,
    weights: Vec<SatCounter>,
}

impl SystemFeatureBank {
    /// Builds a bank with default thresholds and [`WEIGHT_BITS`]-wide
    /// weights.
    pub fn new(features: &[SystemFeature]) -> Self {
        Self {
            features: features
                .iter()
                .map(|&f| (f, f.default_threshold()))
                .collect(),
            weights: vec![SatCounter::new(WEIGHT_BITS); features.len()],
        }
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the bank has no features.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The features, in order.
    pub fn features(&self) -> impl Iterator<Item = SystemFeature> + '_ {
        self.features.iter().map(|(f, _)| *f)
    }

    /// Bitmask of features active for this snapshot (bit i = feature i).
    pub fn active_mask(&self, snap: &SystemSnapshot) -> u8 {
        let mut mask = 0u8;
        for (i, (f, t)) in self.features.iter().enumerate() {
            if f.active(snap, *t) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Sum of the weights of the features in `mask`.
    pub fn predict(&self, mask: u8) -> i32 {
        self.weights
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, w)| w.get() as i32)
            .sum()
    }

    /// Positive training of the features in `mask`.
    pub fn reward(&mut self, mask: u8) {
        for (i, w) in self.weights.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                w.inc();
            }
        }
    }

    /// Negative training of the features in `mask`.
    pub fn punish(&mut self, mask: u8) {
        for (i, w) in self.weights.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                w.dec();
            }
        }
    }

    /// Epoch-boundary decay: halves every weight toward zero.
    ///
    /// System features summarise *phase-conditional* usefulness, so stale
    /// evidence must fade: without decay, an early burst of one-sided
    /// training parks the counters at saturation, where balanced traffic
    /// (reward ≈ punish) can never pull them back, and two saturated
    /// system features (±15 each) override any single program feature
    /// (±16). The paper leaves the update policy unspecified; periodic
    /// decay is the standard fix for exactly this failure mode.
    pub fn decay(&mut self) {
        for w in &mut self.weights {
            *w = SatCounter::with_value(WEIGHT_BITS, w.get() / 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(stlb_mpki: f64, stlb_mr: f64) -> SystemSnapshot {
        SystemSnapshot {
            stlb_mpki,
            stlb_miss_rate: stlb_mr,
            ..Default::default()
        }
    }

    #[test]
    fn stlb_mpki_gates_on_low_pressure() {
        let f = SystemFeature::StlbMpki;
        assert!(f.active(&snap(0.1, 0.0), 1.0));
        assert!(!f.active(&snap(5.0, 0.0), 1.0));
    }

    #[test]
    fn stlb_miss_rate_gates_on_high_pressure() {
        let f = SystemFeature::StlbMissRate;
        assert!(f.active(&snap(0.0, 0.5), 0.1));
        assert!(!f.active(&snap(0.0, 0.01), 0.1));
    }

    #[test]
    fn mask_reflects_activation() {
        let bank = SystemFeatureBank::new(&[SystemFeature::StlbMpki, SystemFeature::StlbMissRate]);
        // Low MPKI, high miss rate -> both active.
        assert_eq!(bank.active_mask(&snap(0.1, 0.5)), 0b11);
        // High MPKI, low miss rate -> neither.
        assert_eq!(bank.active_mask(&snap(5.0, 0.01)), 0b00);
        // Low MPKI only.
        assert_eq!(bank.active_mask(&snap(0.1, 0.01)), 0b01);
    }

    #[test]
    fn inactive_features_do_not_contribute() {
        let mut bank =
            SystemFeatureBank::new(&[SystemFeature::StlbMpki, SystemFeature::StlbMissRate]);
        bank.reward(0b11);
        bank.reward(0b11);
        assert_eq!(bank.predict(0b11), 4);
        assert_eq!(bank.predict(0b01), 2);
        assert_eq!(bank.predict(0b00), 0);
    }

    #[test]
    fn training_respects_mask() {
        let mut bank =
            SystemFeatureBank::new(&[SystemFeature::StlbMpki, SystemFeature::StlbMissRate]);
        bank.reward(0b01);
        bank.punish(0b10);
        assert_eq!(bank.predict(0b01), 1);
        assert_eq!(bank.predict(0b10), -1);
        assert_eq!(bank.predict(0b11), 0);
    }

    #[test]
    fn decay_halves_toward_zero() {
        let mut bank =
            SystemFeatureBank::new(&[SystemFeature::StlbMpki, SystemFeature::StlbMissRate]);
        for _ in 0..20 {
            bank.reward(0b01);
            bank.punish(0b10);
        }
        assert_eq!(bank.predict(0b01), 15);
        assert_eq!(bank.predict(0b10), -16);
        bank.decay();
        assert_eq!(bank.predict(0b01), 7);
        assert_eq!(bank.predict(0b10), -8);
        for _ in 0..10 {
            bank.decay();
        }
        assert_eq!(bank.predict(0b11), 0);
    }

    #[test]
    fn cache_features_gate_on_high_pressure() {
        let s = SystemSnapshot {
            l1d_mpki: 50.0,
            l1d_miss_rate: 0.5,
            llc_mpki: 10.0,
            llc_miss_rate: 0.8,
            ..Default::default()
        };
        for f in [
            SystemFeature::L1dMpki,
            SystemFeature::L1dMissRate,
            SystemFeature::LlcMpki,
            SystemFeature::LlcMissRate,
        ] {
            assert!(
                f.active(&s, f.default_threshold()),
                "{f:?} should be active under pressure"
            );
            assert!(
                !f.active(&SystemSnapshot::default(), f.default_threshold()),
                "{f:?} should be inactive when idle"
            );
        }
    }
}
