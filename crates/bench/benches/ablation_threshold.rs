//! Ablation (Fig. 8's design point) — the adaptive thresholding scheme vs
//! static activation thresholds.
//!
//! Expectation from §III-C3: no single static threshold is best across the
//! workload mix; the adaptive scheme is at least competitive with the best
//! static point and beats the worst by a clear margin.

use moka_pgc::dripper::dripper_config;
use moka_pgc::TargetPrefetcher;
use pagecross_bench::{
    env_scale, fmt_pct, geomeans_vs_first, print_header, print_row, quick_seen_set, run_all,
    Scheme, Summary,
};
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};

fn main() {
    let cfg = env_scale();
    let workloads = quick_seen_set();
    let pf = PrefetcherKind::Berti;
    // DRIPPER's filter with the adaptive threshold pinned to `t`.
    let fixed = |t: i32| {
        let mut s = Scheme::new(&format!("static({t})"), pf, PgcPolicyKind::Dripper);
        let mut fcfg = dripper_config(TargetPrefetcher::Berti);
        fcfg.adaptive = false;
        fcfg.static_threshold = t;
        s.filter = Some(fcfg);
        s
    };
    let schemes = vec![
        Scheme::new("discard-pgc", pf, PgcPolicyKind::DiscardPgc),
        fixed(-4),
        fixed(0),
        fixed(6),
        fixed(14),
        Scheme::new("adaptive", pf, PgcPolicyKind::Dripper),
    ];
    let results = run_all(&workloads, &schemes, &cfg);
    let geos = geomeans_vs_first(&results, &schemes);

    print_header("ablation_threshold", &["threshold", "geomean vs discard"]);
    for (s, g) in schemes[1..].iter().zip(&geos) {
        print_row("ablation_threshold", &[s.label.clone(), fmt_pct(*g)]);
    }
    let (statics, adaptive) = (&geos[..geos.len() - 1], geos[geos.len() - 1]);
    let best_static = statics.iter().copied().fold(0.0, f64::max);
    let worst_static = statics.iter().copied().fold(f64::INFINITY, f64::min);

    Summary {
        experiment: "ablation_threshold".into(),
        paper: "static thresholds are suboptimal across diverse workloads; the adaptive \
                scheme tunes T_a at runtime (§III-C3)"
            .into(),
        measured: format!(
            "adaptive {}, best static {}, worst static {}",
            fmt_pct(adaptive),
            fmt_pct(best_static),
            fmt_pct(worst_static)
        ),
        shape_holds: adaptive >= worst_static && adaptive >= best_static - 0.01,
    }
    .print();
}
