//! Fig. 16 — evaluation with both 4 KB and 2 MB pages (§V-B6): Permit PGC,
//! DRIPPER(filter@2MB) and DRIPPER(filter@4KB) over Discard PGC (Berti),
//! with half the 2 MB regions promoted to huge pages.
//!
//! Paper's shape: DRIPPER@4KB > DRIPPER@2MB > baseline; DRIPPER keeps its
//! benefit when large pages are used (paper: +2.2% over Permit, +1.3%
//! over Discard; @4KB beats @2MB by 0.5%).

use pagecross_bench::{
    env_scale, fmt_pct, geomeans_vs_first, print_header, print_row, quick_seen_set, run_all,
    Scheme, Summary,
};
use pagecross_cpu::{BoundaryMode, PgcPolicyKind, PrefetcherKind};
use pagecross_mem::HugePagePolicy;

fn main() {
    let cfg = env_scale();
    let workloads = quick_seen_set();
    let pf = PrefetcherKind::Berti;
    let huge = HugePagePolicy::Fraction(0.5);
    let with = |label: &str, policy, boundary| {
        let mut s = Scheme::new(label, pf, policy);
        s.boundary = boundary;
        s.huge = huge.clone();
        s
    };
    let schemes = vec![
        with(
            "discard-pgc",
            PgcPolicyKind::DiscardPgc,
            BoundaryMode::Fixed4K,
        ),
        with(
            "permit-pgc",
            PgcPolicyKind::PermitPgc,
            BoundaryMode::PageSizeAware,
        ),
        with(
            "dripper@2mb",
            PgcPolicyKind::Dripper,
            BoundaryMode::PageSizeAware,
        ),
        with("dripper@4kb", PgcPolicyKind::Dripper, BoundaryMode::Fixed4K),
    ];
    let results = run_all(&workloads, &schemes, &cfg);
    let geos = geomeans_vs_first(&results, &schemes);

    print_header("fig16", &["scheme", "geomean vs discard (4KB+2MB pages)"]);
    for (s, g) in schemes[1..].iter().zip(&geos) {
        print_row("fig16", &[s.label.clone(), fmt_pct(*g)]);
    }
    let (permit, d2m, d4k) = (geos[0], geos[1], geos[2]);
    Summary {
        experiment: "fig16".into(),
        paper: "with 4KB+2MB pages, DRIPPER@4KB ≥ DRIPPER@2MB and both beat Permit; \
                DRIPPER stays ≥ Discard"
            .into(),
        measured: format!(
            "permit {}, dripper@2mb {}, dripper@4kb {}",
            fmt_pct(permit),
            fmt_pct(d2m),
            fmt_pct(d4k)
        ),
        shape_holds: d4k >= d2m - 0.002 && d4k > permit && d4k >= 0.999,
    }
    .print();
}
