//! Fig. 14 — DRIPPER vs single-feature page-cross filters (its
//! constituents: Delta, sTLB-MPKI, sTLB-MissRate) over Discard PGC (Berti).
//!
//! Paper's shape: DRIPPER ≥ each constituent alone for the vast majority
//! of workloads — the combination is what wins.

use moka_pgc::{ProgramFeature, SystemFeature};
use pagecross_bench::{
    env_scale, fmt_pct, geomeans_vs_first, print_header, print_row, quick_seen_set, run_all,
    Scheme, Summary,
};
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};

fn main() {
    let cfg = env_scale();
    let workloads = quick_seen_set();
    let pf = PrefetcherKind::Berti;
    let schemes = vec![
        Scheme::new("discard-pgc", pf, PgcPolicyKind::DiscardPgc),
        Scheme::new(
            "delta-only",
            pf,
            PgcPolicyKind::SingleFeature(ProgramFeature::Delta),
        ),
        Scheme::new(
            "stlb-mpki-only",
            pf,
            PgcPolicyKind::SingleSystemFeature(SystemFeature::StlbMpki),
        ),
        Scheme::new(
            "stlb-missrate-only",
            pf,
            PgcPolicyKind::SingleSystemFeature(SystemFeature::StlbMissRate),
        ),
        Scheme::new("dripper", pf, PgcPolicyKind::Dripper),
    ];
    let results = run_all(&workloads, &schemes, &cfg);
    let geos = geomeans_vs_first(&results, &schemes);

    print_header("fig14", &["scheme", "geomean vs discard"]);
    for (s, g) in schemes[1..].iter().zip(&geos) {
        print_row("fig14", &[s.label.clone(), fmt_pct(*g)]);
    }
    let (singles, dripper) = (&geos[..geos.len() - 1], geos[geos.len() - 1]);
    let best_single = singles.iter().copied().fold(0.0f64, f64::max);
    Summary {
        experiment: "fig14".into(),
        paper: "DRIPPER outperforms each of its constituent single-feature filters".into(),
        measured: format!(
            "dripper {} vs best single {}",
            fmt_pct(dripper),
            fmt_pct(best_single)
        ),
        shape_holds: dripper >= best_single - 0.002,
    }
    .print();
}
