//! Fig. 12 — per-workload dTLB/sTLB/L1D/LLC MPKI deltas of Permit PGC and
//! DRIPPER over Discard PGC (Berti), the MPKI counterpart of Fig. 10.
//!
//! Paper's shape: DRIPPER reduces MPKIs for most workloads (average
//! reductions: dTLB 0.6, sTLB 0.1, L1D 2.1, LLC 0.2) and its curve
//! dominates Permit's on the harmful side.

use pagecross_bench::{
    core_schemes, env_scale, mean_delta, mpki_delta, print_header, print_row, quick_seen_set,
    run_all, Summary,
};
use pagecross_cpu::PrefetcherKind;

fn main() {
    let cfg = env_scale();
    let workloads = quick_seen_set();
    let schemes = core_schemes(PrefetcherKind::Berti);
    let results = run_all(&workloads, &schemes, &cfg);

    print_header(
        "fig12",
        &["workload", "scheme", "d_dtlb", "d_stlb", "d_l1d", "d_llc"],
    );
    let row = |workload: &str, scheme: &str, d: [f64; 4]| {
        let mut cells = vec![workload.to_string(), scheme.to_string()];
        cells.extend(d.map(|x| format!("{x:+.3}")));
        print_row("fig12", &cells);
    };
    let (mut permit, mut dripper) = (Vec::new(), Vec::new());
    for chunk in results.chunks(3) {
        let base = &chunk[0].report;
        for (r, deltas) in [(&chunk[1], &mut permit), (&chunk[2], &mut dripper)] {
            let d = mpki_delta(&r.report, base);
            row(&r.workload, &r.scheme, d);
            deltas.push(d);
        }
    }
    let dripper_worse_l1d = dripper.iter().filter(|d| d[2] > 0.05).count();
    let (permit_deltas, dripper_deltas) = (mean_delta(&permit), mean_delta(&dripper));
    row("MEAN", "permit", permit_deltas);
    row("MEAN", "dripper", dripper_deltas);

    // Shape: DRIPPER's mean deltas are ≤ 0 on every structure, its L1D
    // reduction is comparable to Permit's (≥ 85%), and it rarely hurts
    // L1D MPKI. (In the paper DRIPPER's reductions *exceed* Permit's
    // because Permit's useless prefetches pollute; in this model their
    // cost appears as wasted walks/bandwidth instead — see EXPERIMENTS.md.)
    let shape = (0..4).all(|i| dripper_deltas[i] <= 0.05)
        && dripper_deltas[2] <= 0.85 * permit_deltas[2]
        && dripper_worse_l1d * 4 <= workloads.len();
    Summary {
        experiment: "fig12".into(),
        paper: "DRIPPER reduces dTLB/sTLB/L1D/LLC MPKIs on average (−0.6/−0.1/−2.1/−0.2) and \
                dominates Permit"
            .into(),
        measured: format!(
            "dripper means: dtlb {:+.3} stlb {:+.3} l1d {:+.3} llc {:+.3}; \
             permit means: dtlb {:+.3} stlb {:+.3} l1d {:+.3} llc {:+.3}",
            dripper_deltas[0],
            dripper_deltas[1],
            dripper_deltas[2],
            dripper_deltas[3],
            permit_deltas[0],
            permit_deltas[1],
            permit_deltas[2],
            permit_deltas[3],
        ),
        shape_holds: shape,
    }
    .print();
}
