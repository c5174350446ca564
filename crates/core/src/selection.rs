//! Offline feature selection (paper §III-D3).
//!
//! The paper selects DRIPPER's features offline: evaluate each of the 60
//! single-feature filters (55 program + 6 system, one disqualified overlap)
//! in isolation, sort by geomean IPC speedup, then greedily grow the set —
//! a candidate joins if it improves geomean IPC by more than 0.3% over the
//! best configuration so far. The process is repeated per prefetcher.
//!
//! This module implements that search generically over an
//! evaluation closure, so it can be driven by the full simulator (see the
//! `feature_selection` example) or by fast surrogates in tests. Each
//! feature set under evaluation is a [`FilterConfig`] with Table III's
//! defaults, so the closure can build the filter it scores directly.

use crate::features::ProgramFeature;
use crate::filter::FilterConfig;
use crate::system_features::SystemFeature;

/// A candidate feature: one program feature or one system feature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CandidateFeature {
    /// A hashed-perceptron program feature.
    Program(ProgramFeature),
    /// A gated system feature.
    System(SystemFeature),
}

/// Returns a copy of `cfg` with `f` added to its feature selection.
fn with(cfg: &FilterConfig, f: CandidateFeature) -> FilterConfig {
    let mut c = cfg.clone();
    match f {
        CandidateFeature::Program(p) => c.program_features.push(p),
        CandidateFeature::System(y) => c.system_features.push(y),
    }
    c
}

/// The paper's candidate pool: the 55-feature program bouquet plus the six
/// system features.
pub fn candidate_pool() -> Vec<CandidateFeature> {
    let mut v: Vec<CandidateFeature> = ProgramFeature::bouquet()
        .into_iter()
        .map(CandidateFeature::Program)
        .collect();
    v.extend(SystemFeature::ALL.into_iter().map(CandidateFeature::System));
    v
}

/// Result of a selection run.
#[derive(Clone, Debug)]
pub struct SelectionOutcome {
    /// The selected filter; its feature lists are in adoption order.
    pub selected: FilterConfig,
    /// Geomean speedup of the selected set.
    pub score: f64,
    /// Every candidate's isolated score, sorted descending (the paper's
    /// intermediate ranking step), as `(feature, geomean speedup)`.
    pub isolated_ranking: Vec<(CandidateFeature, f64)>,
    /// Evaluations performed (cost accounting).
    pub evaluations: usize,
}

/// Greedy forward selection per §III-D3.
///
/// `evaluate` maps a [`FilterConfig`] to its geomean IPC speedup over the
/// Discard-PGC baseline (1.0 = parity). `min_gain` is the paper's 0.3%
/// adoption threshold, expressed as a ratio delta (0.003).
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn select_features<F>(
    candidates: &[CandidateFeature],
    mut evaluate: F,
    min_gain: f64,
) -> SelectionOutcome
where
    F: FnMut(&FilterConfig) -> f64,
{
    assert!(
        !candidates.is_empty(),
        "need at least one candidate feature"
    );
    let empty = FilterConfig::with_features(vec![], vec![]);
    let mut evaluations = 0;

    // Round 1: isolated scores.
    let mut ranking: Vec<(CandidateFeature, f64)> = candidates
        .iter()
        .map(|&f| {
            evaluations += 1;
            (f, evaluate(&with(&empty, f)))
        })
        .collect();
    ranking.sort_by(|a, b| b.1.total_cmp(&a.1));

    // Round 2: greedy growth from the best performer, in ranking order.
    let mut selected = with(&empty, ranking[0].0);
    let mut best_score = ranking[0].1;
    for &(f, _) in &ranking[1..] {
        let trial = with(&selected, f);
        evaluations += 1;
        let score = evaluate(&trial);
        if score > best_score + min_gain {
            selected = trial;
            best_score = score;
        }
    }

    SelectionOutcome {
        selected,
        score: best_score,
        isolated_ranking: ranking,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic objective: Delta is worth 2%, each sTLB feature 1%,
    /// everything else is noise-free 0%; gains are additive with mild
    /// diminishing returns.
    fn toy_objective(s: &FilterConfig) -> f64 {
        let mut gain = 0.0;
        if s.program_features.contains(&ProgramFeature::Delta) {
            gain += 0.02;
        }
        if s.system_features.contains(&SystemFeature::StlbMpki) {
            gain += 0.01;
        }
        if s.system_features.contains(&SystemFeature::StlbMissRate) {
            gain += 0.01;
        }
        // Every extra feature beyond 3 costs a little (overfitting proxy).
        let overflow = features(s).saturating_sub(3) as f64;
        1.0 + gain - overflow * 0.004
    }

    fn features(s: &FilterConfig) -> usize {
        s.program_features.len() + s.system_features.len()
    }

    #[test]
    fn pool_has_61_candidates() {
        assert_eq!(candidate_pool().len(), 55 + 6);
    }

    #[test]
    fn greedy_selection_recovers_dripper_like_set() {
        let out = select_features(&candidate_pool(), toy_objective, 0.003);
        let s = &out.selected;
        assert!(s.program_features.contains(&ProgramFeature::Delta));
        assert!(s.system_features.contains(&SystemFeature::StlbMpki));
        assert!(s.system_features.contains(&SystemFeature::StlbMissRate));
        assert_eq!(features(s), 3, "nothing beyond the useful three is adopted");
        assert!((out.score - 1.04).abs() < 1e-9);
    }

    #[test]
    fn ranking_is_sorted_descending() {
        let out = select_features(&candidate_pool(), toy_objective, 0.003);
        for w in out.isolated_ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(
            out.isolated_ranking[0].0,
            CandidateFeature::Program(ProgramFeature::Delta),
            "Delta has the best isolated score"
        );
    }

    #[test]
    fn high_min_gain_stops_growth() {
        let out = select_features(&candidate_pool(), toy_objective, 0.05);
        assert_eq!(features(&out.selected), 1, "no candidate clears a 5% bar");
    }

    #[test]
    fn evaluation_count_is_bounded() {
        let pool = candidate_pool();
        let out = select_features(&pool, toy_objective, 0.003);
        // One isolated evaluation per candidate + one trial per non-first
        // candidate.
        assert_eq!(out.evaluations, pool.len() + pool.len() - 1);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_pool_rejected() {
        let _ = select_features(&[], |_| 1.0, 0.003);
    }
}
