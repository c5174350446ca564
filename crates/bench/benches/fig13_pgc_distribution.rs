//! Fig. 13 — distributions of useful and useless page-cross prefetches
//! per kilo-instruction, Permit PGC vs DRIPPER (Berti).
//!
//! Paper's shape: the useful-PGC distributions of Permit and DRIPPER are
//! nearly identical, while DRIPPER's useless-PGC distribution concentrates
//! near zero and Permit's does not.

use pagecross_bench::{
    core_schemes, env_scale, mean, print_header, print_row, quick_seen_set, run_all, Summary,
};
use pagecross_cpu::PrefetcherKind;

fn main() {
    let cfg = env_scale();
    let workloads = quick_seen_set();
    let schemes = core_schemes(PrefetcherKind::Berti);
    let results = run_all(&workloads, &schemes, &cfg);

    print_header(
        "fig13",
        &[
            "workload",
            "useful/KI permit",
            "useful/KI dripper",
            "useless/KI permit",
            "useless/KI dripper",
        ],
    );
    let row = |label: &str, values: [f64; 4]| {
        let mut cells = vec![label.to_string()];
        cells.extend(values.map(|v| format!("{v:.3}")));
        print_row("fig13", &cells);
    };
    // Useful per KI of Permit and DRIPPER, then useless per KI of each.
    let mut columns: [Vec<f64>; 4] = Default::default();
    for chunk in results.chunks(3) {
        let (permit, dripper) = (&chunk[1].report, &chunk[2].report);
        let values = [
            permit.pgc_useful_pki(),
            dripper.pgc_useful_pki(),
            permit.pgc_useless_pki(),
            dripper.pgc_useless_pki(),
        ];
        for (column, v) in columns.iter_mut().zip(values) {
            column.push(v);
        }
        row(&chunk[0].workload, values);
    }
    let means = columns.each_ref().map(|c| mean(c));
    row("MEAN", means);
    let [pu, du, pw, dw] = means;

    // Shape: DRIPPER keeps a meaningful share of the useful prefetches but
    // cuts the useless ones by far more.
    let useful_kept = if pu > 0.0 { du / pu } else { 1.0 };
    let useless_kept = if pw > 0.0 { dw / pw } else { 0.0 };
    Summary {
        experiment: "fig13".into(),
        paper: "DRIPPER has almost the same useful-PGC volume as Permit and far fewer \
                useless PGC prefetches (concentrated near zero)"
            .into(),
        measured: format!(
            "useful kept {:.0}%, useless kept {:.0}%",
            useful_kept * 100.0,
            useless_kept * 100.0
        ),
        shape_holds: useless_kept < useful_kept && useless_kept < 0.5,
    }
    .print();
}
