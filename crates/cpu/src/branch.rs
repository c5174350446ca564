//! Hashed perceptron branch predictor (Table IV: "hashed perceptron branch
//! predictor"), following Tarjan & Skadron's merged path/gshare indexing.
//!
//! Three weight tables are indexed by the PC hashed with different global
//! history segments; the prediction is the sign of the weight sum, and
//! training runs on mispredictions or when the sum's magnitude is below the
//! confidence threshold θ.

const TABLES: usize = 3;
const ENTRIES: usize = 1024;
const THETA: i32 = 18;
const WEIGHT_MAX: i16 = 63;
const WEIGHT_MIN: i16 = -64;

/// The branch predictor.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    weights: Vec<[i16; TABLES]>,
    history: u64,
}

impl BranchPredictor {
    /// Creates a zero-initialised predictor.
    pub fn new() -> Self {
        Self {
            weights: vec![[0; TABLES]; ENTRIES],
            history: 0,
        }
    }

    fn indices(&self, pc: u64) -> [usize; TABLES] {
        let h = self.history;
        [
            (pc ^ (pc >> 12)) as usize & (ENTRIES - 1),
            (pc ^ h) as usize & (ENTRIES - 1),
            (pc ^ (h >> 8) ^ (h << 3)) as usize & (ENTRIES - 1),
        ]
    }

    fn sum(&self, idx: &[usize; TABLES]) -> i32 {
        (0..TABLES).map(|t| self.weights[idx[t]][t] as i32).sum()
    }

    /// Predicts the branch at `pc` and trains on its resolved direction;
    /// returns `true` when the prediction was wrong (the caller charges
    /// the misprediction penalty).
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.indices(pc);
        let sum = self.sum(&idx);
        let predicted = sum >= 0;
        let mispredicted = predicted != taken;
        if mispredicted || sum.abs() < THETA {
            for (t, &row) in idx.iter().enumerate() {
                let w = &mut self.weights[row][t];
                *w = if taken {
                    (*w + 1).min(WEIGHT_MAX)
                } else {
                    (*w - 1).max(WEIGHT_MIN)
                };
            }
        }
        self.history = (self.history << 1) | taken as u64;
        mispredicted
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut bp = BranchPredictor::new();
        let mut wrong = 0;
        for _ in 0..200 {
            if bp.update(0x400, true) {
                wrong += 1;
            }
        }
        assert!(
            wrong < 10,
            "always-taken must be learned quickly, got {wrong}"
        );
    }

    #[test]
    fn learns_alternating_pattern_with_history() {
        let mut bp = BranchPredictor::new();
        let mut wrong_late = 0;
        for i in 0..2000u64 {
            let taken = i % 2 == 0;
            let mis = bp.update(0x800, taken);
            if i > 1000 && mis {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late < 100,
            "history tables should capture alternation, got {wrong_late}"
        );
    }

    #[test]
    fn random_branches_mispredict_half() {
        let mut bp = BranchPredictor::new();
        let mut rng = pagecross_types::Rng64::new(9);
        let wrong = (0..4000)
            .filter(|_| bp.update(0xC00, rng.chance(0.5)))
            .count();
        let rate = wrong as f64 / 4000.0;
        assert!(rate > 0.3 && rate < 0.7, "random stream rate {rate}");
    }

    #[test]
    fn distinct_pcs_do_not_destructively_interfere() {
        let mut bp = BranchPredictor::new();
        for _ in 0..500 {
            bp.update(0x1000, true);
            bp.update(0x2004, false);
        }
        let m1 = bp.update(0x1000, true);
        let m2 = bp.update(0x2004, false);
        assert!(!m1 && !m2);
    }
}
