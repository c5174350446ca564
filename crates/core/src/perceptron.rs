//! Hashed perceptron weight tables (paper §III-B).
//!
//! Each selected program feature owns one *Weight Table (WT)*: an array of
//! saturating counters indexed by the hashed feature value. Prediction sums
//! the weights read from every table; training increments/decrements the
//! exact entries that produced a prediction (the hash indices are carried in
//! the vUB/pUB entries, see [`crate::buffers`]).

use crate::features::{FeatureContext, ProgramFeature};
use pagecross_types::stats::ratio;
use pagecross_types::SatCounter;

/// Weight width in bits of every weight-table entry and system-feature
/// counter (5 in Table III).
pub const WEIGHT_BITS: u32 = 5;

/// A single feature's weight table.
#[derive(Clone, Debug)]
pub struct WeightTable {
    feature: ProgramFeature,
    weights: Vec<SatCounter>,
}

impl WeightTable {
    /// Creates a zeroed table of `entries` counters of [`WEIGHT_BITS`] width.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(feature: ProgramFeature, entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "weight tables are power-of-two sized"
        );
        Self {
            feature,
            weights: vec![SatCounter::new(WEIGHT_BITS); entries],
        }
    }

    /// The feature this table is indexed with.
    pub fn feature(&self) -> ProgramFeature {
        self.feature
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.weights.len()
    }

    /// Index for a context.
    pub fn index(&self, ctx: &FeatureContext) -> u16 {
        self.feature.index(ctx, self.weights.len()) as u16
    }

    /// Weight at a stored index.
    pub fn weight_at(&self, index: u16) -> i16 {
        self.weights[index as usize].get()
    }

    /// Reads the weight for a context.
    pub fn read(&self, ctx: &FeatureContext) -> i16 {
        self.weight_at(self.index(ctx))
    }

    /// Positive training at a stored index.
    pub fn reward(&mut self, index: u16) {
        self.weights[index as usize].inc();
    }

    /// Negative training at a stored index.
    pub fn punish(&mut self, index: u16) {
        self.weights[index as usize].dec();
    }

    /// `(saturated, total)` weight counts — a weight is saturated when it
    /// sits at either bound of its saturating range.
    pub fn saturation(&self) -> (u64, u64) {
        let saturated = self
            .weights
            .iter()
            .filter(|w| w.is_max() || w.is_min())
            .count() as u64;
        (saturated, self.weights.len() as u64)
    }
}

/// A bank of weight tables, one per selected program feature.
#[derive(Clone, Debug)]
pub struct PerceptronBank {
    tables: Vec<WeightTable>,
}

impl PerceptronBank {
    /// Builds one table per feature.
    pub fn new(features: &[ProgramFeature], entries: usize) -> Self {
        Self {
            tables: features
                .iter()
                .map(|&f| WeightTable::new(f, entries))
                .collect(),
        }
    }

    /// Number of tables (= selected features).
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no features are selected.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The features, in table order.
    pub fn features(&self) -> impl Iterator<Item = ProgramFeature> + '_ {
        self.tables.iter().map(|t| t.feature())
    }

    /// Computes the hash indices for a context (stored in vUB/pUB entries).
    pub fn indices(&self, ctx: &FeatureContext) -> Vec<u16> {
        self.tables.iter().map(|t| t.index(ctx)).collect()
    }

    /// Sums the weights for a context.
    pub fn predict(&self, ctx: &FeatureContext) -> i32 {
        self.tables.iter().map(|t| t.read(ctx) as i32).sum()
    }

    /// Sum of weights at stored indices.
    pub fn predict_at(&self, indices: &[u16]) -> i32 {
        self.tables
            .iter()
            .zip(indices)
            .map(|(t, &i)| t.weight_at(i) as i32)
            .sum()
    }

    /// Positive training at stored indices.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `indices` length mismatches the table count.
    pub fn reward(&mut self, indices: &[u16]) {
        debug_assert_eq!(indices.len(), self.tables.len());
        for (t, &i) in self.tables.iter_mut().zip(indices) {
            t.reward(i);
        }
    }

    /// Negative training at stored indices.
    pub fn punish(&mut self, indices: &[u16]) {
        debug_assert_eq!(indices.len(), self.tables.len());
        for (t, &i) in self.tables.iter_mut().zip(indices) {
            t.punish(i);
        }
    }

    /// Fraction of all weights sitting at a saturating bound, across every
    /// table (0.0 for an empty bank). A rising fraction means the
    /// perceptron is running out of dynamic range — the telemetry signal
    /// the interval sampler exposes.
    pub fn saturation_fraction(&self) -> f64 {
        let (saturated, total) = self
            .tables
            .iter()
            .map(|t| t.saturation())
            .fold((0u64, 0u64), |(s, n), (ts, tn)| (s + ts, n + tn));
        ratio(saturated, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pc: u64, delta: i64) -> FeatureContext {
        FeatureContext {
            pc,
            delta,
            va: 0x1000,
            target_va: 0x2000,
            ..Default::default()
        }
    }

    #[test]
    fn fresh_bank_predicts_zero() {
        let bank = PerceptronBank::new(&[ProgramFeature::Delta, ProgramFeature::Pc], 512);
        assert_eq!(bank.predict(&ctx(1, 2)), 0);
    }

    #[test]
    fn reward_shifts_prediction_up() {
        let mut bank = PerceptronBank::new(&[ProgramFeature::Delta], 512);
        let c = ctx(1, 7);
        let idx = bank.indices(&c);
        for _ in 0..3 {
            bank.reward(&idx);
        }
        assert_eq!(bank.predict(&c), 3);
        // A different delta is unaffected (modulo hash collision; pick one
        // that does not collide).
        let other = ctx(1, 8);
        if bank.indices(&other) != idx {
            assert_eq!(bank.predict(&other), 0);
        }
    }

    #[test]
    fn punish_saturates_at_minimum() {
        let mut bank = PerceptronBank::new(&[ProgramFeature::Pc], 64);
        let c = ctx(42, 0);
        let idx = bank.indices(&c);
        for _ in 0..100 {
            bank.punish(&idx);
        }
        assert_eq!(bank.predict(&c), -16);
    }

    #[test]
    fn predict_at_matches_predict() {
        let mut bank =
            PerceptronBank::new(&[ProgramFeature::Delta, ProgramFeature::PcXorDelta], 512);
        let c = ctx(0xABC, -3);
        let idx = bank.indices(&c);
        bank.reward(&idx);
        bank.reward(&idx);
        assert_eq!(bank.predict(&c), bank.predict_at(&idx));
        assert_eq!(bank.predict(&c), 4);
    }

    #[test]
    fn multiple_features_sum() {
        let mut bank = PerceptronBank::new(&[ProgramFeature::Delta, ProgramFeature::Pc], 512);
        let c = ctx(5, 6);
        let idx = bank.indices(&c);
        bank.reward(&idx); // both tables +1
        assert_eq!(bank.predict(&c), 2);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_rejected() {
        let _ = WeightTable::new(ProgramFeature::Pc, 500);
    }
}
