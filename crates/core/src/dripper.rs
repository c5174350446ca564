//! DRIPPER — the Page-Cross Filter prototype (paper §III-E, Table II) —
//! plus the configurations of the comparison filters of §V (PPF,
//! PPF+Dthr, DRIPPER-SF). A single-feature filter (Fig. 14) is
//! [`FilterConfig::with_features`] with one feature.
//!
//! | Prefetcher | DRIPPER program feature | System features |
//! |---|---|---|
//! | Berti | `Delta` | sTLB MPKI, sTLB Miss Rate |
//! | BOP   | `PC ⊕ Delta` | sTLB MPKI, sTLB Miss Rate |
//! | IPCP  | `PC ⊕ Delta` | sTLB MPKI, sTLB Miss Rate |

use crate::features::ProgramFeature;
use crate::filter::{FilterConfig, PageCrossFilter};
use crate::system_features::SystemFeature;

/// The prefetchers DRIPPER was prototyped for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TargetPrefetcher {
    /// Berti (MICRO'22).
    Berti,
    /// IPCP (ISCA'20).
    Ipcp,
    /// BOP (HPCA'16).
    Bop,
}

impl TargetPrefetcher {
    /// DRIPPER's selected program feature for this prefetcher (Table II).
    pub fn dripper_program_feature(self) -> ProgramFeature {
        match self {
            TargetPrefetcher::Berti => ProgramFeature::Delta,
            TargetPrefetcher::Ipcp | TargetPrefetcher::Bop => ProgramFeature::PcXorDelta,
        }
    }
}

/// DRIPPER's system features (same for all prefetchers, Table II).
pub fn dripper_system_features() -> Vec<SystemFeature> {
    vec![SystemFeature::StlbMpki, SystemFeature::StlbMissRate]
}

/// Builds the DRIPPER filter configuration for a prefetcher.
pub fn dripper_config(target: TargetPrefetcher) -> FilterConfig {
    FilterConfig::with_features(
        vec![target.dripper_program_feature()],
        dripper_system_features(),
    )
}

/// DRIPPER as a ready-to-use policy.
pub fn dripper(target: TargetPrefetcher) -> PageCrossFilter {
    PageCrossFilter::new(dripper_config(target))
}

/// DRIPPER-SF (§V-B5): system features only, no program feature.
pub fn dripper_sf_config() -> FilterConfig {
    FilterConfig::with_features(vec![], dripper_system_features())
}

/// PPF converted to a page-cross filter (§V-A): perceptron filtering with a
/// set of prefetcher-independent program features (the SPP-specific ones
/// are excluded, as in the paper), **no system features**, and a static
/// activation threshold.
pub fn ppf_config() -> FilterConfig {
    FilterConfig {
        adaptive: false,
        static_threshold: 0,
        ..ppf_dthr_config()
    }
}

/// PPF combined with MOKA's dynamic thresholding (§V-A, "PPF+Dthr").
pub fn ppf_dthr_config() -> FilterConfig {
    FilterConfig::with_features(ppf_features(), vec![])
}

/// The prefetcher-independent subset of PPF's feature set.
pub fn ppf_features() -> Vec<ProgramFeature> {
    vec![
        ProgramFeature::Pc,
        ProgramFeature::Va,
        ProgramFeature::VaShift(12),
        ProgramFeature::CacheLineOffset,
        ProgramFeature::PcXorVa,
        ProgramFeature::PcXorOffset,
        ProgramFeature::PcHistXor,
        ProgramFeature::PcPlusOffset,
        ProgramFeature::PcXorVaShift(12),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_feature_selection() {
        assert_eq!(
            TargetPrefetcher::Berti.dripper_program_feature(),
            ProgramFeature::Delta
        );
        assert_eq!(
            TargetPrefetcher::Bop.dripper_program_feature(),
            ProgramFeature::PcXorDelta
        );
        assert_eq!(
            TargetPrefetcher::Ipcp.dripper_program_feature(),
            ProgramFeature::PcXorDelta
        );
        assert_eq!(
            dripper_system_features(),
            vec![SystemFeature::StlbMpki, SystemFeature::StlbMissRate]
        );
    }

    #[test]
    fn dripper_storage_matches_table_iii() {
        for t in [
            TargetPrefetcher::Berti,
            TargetPrefetcher::Ipcp,
            TargetPrefetcher::Bop,
        ] {
            let kb = dripper_config(t).storage_kb();
            assert!((kb - 1.44).abs() < 0.05, "{t:?}: {kb:.3} KB");
        }
    }

    #[test]
    fn dripper_uses_adaptive_threshold() {
        let d = dripper(TargetPrefetcher::Berti);
        assert!(d.config().adaptive);
        assert_eq!(d.config(), &dripper_config(TargetPrefetcher::Berti));
    }

    #[test]
    fn ppf_uses_static_threshold_and_no_system_features() {
        let p = ppf_config();
        assert!(!p.adaptive);
        assert_eq!(p.static_threshold, 0);
        assert!(p.system_features.is_empty());
        assert!(p.program_features.len() >= 8);
    }

    #[test]
    fn ppf_dthr_is_adaptive() {
        let p = ppf_dthr_config();
        assert!(p.adaptive);
        assert_eq!(p.program_features, ppf_features());
    }

    #[test]
    fn ppf_features_are_prefetcher_independent() {
        // None of the PPF features consults the prefetcher's delta — that is
        // what "excluding features specialised to SPP's metadata" leaves.
        let c0 = crate::features::FeatureContext {
            delta: 1,
            ..Default::default()
        };
        let c1 = crate::features::FeatureContext {
            delta: 9,
            ..Default::default()
        };
        for f in ppf_features() {
            assert_eq!(f.value(&c0), f.value(&c1), "{f:?} must not depend on delta");
        }
    }

    #[test]
    fn dripper_sf_has_no_program_features() {
        let d = dripper_sf_config();
        assert!(d.program_features.is_empty());
        assert_eq!(d.system_features, dripper_system_features());
    }
}
