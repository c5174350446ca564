//! Ablation — vUB/pUB sizing and the value of false-negative training.
//!
//! The paper fixes vUB = 4 and pUB = 128 entries "empirically selected
//! after tuning" (Table III). This sweep regenerates that design decision:
//! the chosen point should be on the knee — shrinking the pUB hurts,
//! removing the vUB (no false-negative training) hurts, and growing both
//! past the chosen sizes buys little.

use moka_pgc::dripper::dripper_config;
use moka_pgc::TargetPrefetcher;
use pagecross_bench::{
    env_scale, fmt_pct, geomeans_vs_first, print_header, print_row, run_all, Scheme, Summary,
};
use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};
use pagecross_workloads::representative_seen;

const SWEEP: [(usize, usize); 6] = [(1, 128), (4, 128), (16, 128), (4, 8), (4, 32), (4, 512)];

fn main() {
    let workloads = representative_seen(1);
    let pf = PrefetcherKind::Berti;
    let mut schemes = vec![Scheme::new("discard", pf, PgcPolicyKind::DiscardPgc)];
    schemes.extend(SWEEP.map(|(vub, pubn)| {
        let mut s = Scheme::new(&format!("vub{vub}-pub{pubn}"), pf, PgcPolicyKind::Dripper);
        let mut fcfg = dripper_config(TargetPrefetcher::Berti);
        fcfg.vub_entries = vub;
        fcfg.pub_entries = pubn;
        s.filter = Some(fcfg);
        s
    }));
    let results = run_all(&workloads, &schemes, &env_scale());
    let geos = geomeans_vs_first(&results, &schemes);

    print_header("ablation_buffers", &["vUB", "pUB", "geomean vs discard"]);
    for ((vub, pubn), g) in SWEEP.iter().zip(&geos) {
        print_row(
            "ablation_buffers",
            &[vub.to_string(), pubn.to_string(), fmt_pct(*g)],
        );
    }
    let at = |point| geos[SWEEP.iter().position(|p| *p == point).expect("point ran")];
    let (chosen, tiny_pub, big) = (at((4, 128)), at((4, 8)), at((4, 512)));

    Summary {
        experiment: "ablation_buffers".into(),
        paper: "vUB=4, pUB=128 'empirically selected after tuning' (Table III)".into(),
        measured: format!(
            "chosen {}, tiny pUB {}, 4x pUB {}",
            fmt_pct(chosen),
            fmt_pct(tiny_pub),
            fmt_pct(big)
        ),
        // The chosen point is near the asymptote: growing the pUB 4x gains
        // little.
        shape_holds: (big - chosen).abs() < 0.02 && chosen >= tiny_pub - 0.01,
    }
    .print();
}
