//! Report-table helpers shared by the figure/table benches: the formats,
//! and the reductions (speedups, geomeans, means, MPKI deltas) that turn a
//! campaign grid into a paper figure's rows.

use pagecross_cpu::Report;
use pagecross_types::geomean;

use crate::campaign::{ipcs_of, Scheme, WorkloadResult};

/// Formats a ratio as a signed percentage ("+1.73%").
pub fn fmt_pct(ratio: f64) -> String {
    format!("{:+.2}%", (ratio - 1.0) * 100.0)
}

/// Formats an optional ratio metric ("0.731"), rendering `-` when the
/// metric is undefined (e.g. accuracy with no resolved prefetches).
pub fn fmt_opt_ratio(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    }
}

/// Geometric-mean speedup of `variant` IPCs over `baseline` IPCs
/// (element-wise, same workload order).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn geomean_speedup(variant: &[f64], baseline: &[f64]) -> f64 {
    assert_eq!(variant.len(), baseline.len(), "paired IPC vectors");
    let ratios: Vec<f64> = variant
        .iter()
        .zip(baseline)
        .map(|(v, b)| speedup(*v, *b))
        .collect();
    geomean(&ratios).unwrap_or(1.0)
}

/// IPC ratio of `variant` over `baseline`; 1.0 when the baseline has no IPC.
fn speedup(variant: f64, baseline: f64) -> f64 {
    if baseline > 0.0 {
        variant / baseline
    } else {
        1.0
    }
}

/// Geometric-mean speedup of every scheme after the first over the first
/// (the baseline), in scheme order.
pub fn geomeans_vs_first(results: &[WorkloadResult], schemes: &[Scheme]) -> Vec<f64> {
    let base = ipcs_of(results, &schemes[0].label);
    schemes[1..]
        .iter()
        .map(|s| geomean_speedup(&ipcs_of(results, &s.label), &base))
        .collect()
}

/// One workload's speedups over the first scheme of its grid.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Workload name.
    pub workload: String,
    /// Suite label.
    pub suite: &'static str,
    /// Speedup of each scheme after the first, in scheme order.
    pub speedups: Vec<f64>,
}

/// Per-workload speedups of every scheme over the first, from a grid of
/// `schemes` schemes per workload, in grid order.
pub fn speedup_rows(results: &[WorkloadResult], schemes: usize) -> Vec<SpeedupRow> {
    results
        .chunks(schemes)
        .map(|cell| SpeedupRow {
            workload: cell[0].workload.clone(),
            suite: cell[0].suite,
            speedups: cell[1..]
                .iter()
                .map(|r| speedup(r.report.ipc(), cell[0].report.ipc()))
                .collect(),
        })
        .collect()
}

/// Prints one `workload, speedups...` row per [`SpeedupRow`].
pub fn print_speedup_rows(experiment: &str, rows: &[SpeedupRow]) {
    for r in rows {
        let mut cells = vec![r.workload.clone()];
        cells.extend(r.speedups.iter().map(|s| fmt_pct(*s)));
        print_row(experiment, &cells);
    }
}

/// Prints a `label` row holding each speedup column's geometric mean and
/// returns those geomeans.
pub fn print_geomean_row(experiment: &str, label: &str, rows: &[SpeedupRow]) -> Vec<f64> {
    let columns = rows.first().map_or(0, |r| r.speedups.len());
    let geos: Vec<f64> = (0..columns)
        .map(|i| {
            let column: Vec<f64> = rows.iter().map(|r| r.speedups[i]).collect();
            geomean(&column).unwrap_or(1.0)
        })
        .collect();
    let mut cells = vec![label.to_string()];
    cells.extend(geos.iter().map(|g| fmt_pct(*g)));
    print_row(experiment, &cells);
    geos
}

/// dTLB, sTLB, L1D and LLC MPKI of `report` minus those of `base`.
pub fn mpki_delta(report: &Report, base: &Report) -> [f64; 4] {
    [
        report.dtlb_mpki() - base.dtlb_mpki(),
        report.stlb_mpki() - base.stlb_mpki(),
        report.l1d_mpki() - base.l1d_mpki(),
        report.llc_mpki() - base.llc_mpki(),
    ]
}

/// Column-wise [`mean`] of MPKI deltas.
pub fn mean_delta(deltas: &[[f64; 4]]) -> [f64; 4] {
    std::array::from_fn(|i| mean(&deltas.iter().map(|d| d[i]).collect::<Vec<_>>()))
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Prints a TSV header line prefixed with the experiment id.
pub fn print_header(experiment: &str, cols: &[&str]) {
    println!("[{experiment}] {}", cols.join("\t"));
}

/// Prints a TSV row prefixed with the experiment id.
pub fn print_row(experiment: &str, cells: &[String]) {
    println!("[{experiment}] {}", cells.join("\t"));
}

/// A paper-vs-measured summary line printed at the end of each experiment.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Experiment id (e.g. "fig10").
    pub experiment: String,
    /// What the paper reports.
    pub paper: String,
    /// What this reproduction measured.
    pub measured: String,
    /// Whether the qualitative shape matches.
    pub shape_holds: bool,
}

impl Summary {
    /// Prints the summary in the stable grep-able format EXPERIMENTS.md
    /// references.
    pub fn print(&self) {
        println!(
            "[{}] SUMMARY paper=({}) measured=({}) shape={}",
            self.experiment,
            self.paper,
            self.measured,
            if self.shape_holds {
                "HOLDS"
            } else {
                "DIVERGES"
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(1.0173), "+1.73%");
        assert_eq!(fmt_pct(0.98), "-2.00%");
    }

    #[test]
    fn opt_ratio_renders_dash_for_none() {
        assert_eq!(fmt_opt_ratio(Some(0.7305)), "0.731");
        assert_eq!(fmt_opt_ratio(None), "-");
    }

    #[test]
    fn geomean_speedup_pairs() {
        let g = geomean_speedup(&[1.1, 1.1], &[1.0, 1.0]);
        assert!((g - 1.1).abs() < 1e-12);
    }

    fn cell(workload: &str, scheme: &str, instructions: u64, cycles: u64) -> WorkloadResult {
        let mut report = Report::default();
        report.core.instructions = instructions;
        report.core.cycles = cycles;
        WorkloadResult {
            workload: workload.into(),
            suite: "gap",
            scheme: scheme.into(),
            report,
            error: None,
        }
    }

    /// Two workloads × (base, a, b): IPCs 1.0/1.1/0.9 and 2.0/2.0/2.2.
    fn grid() -> (Vec<WorkloadResult>, Vec<Scheme>) {
        use pagecross_cpu::{PgcPolicyKind, PrefetcherKind};
        let results = vec![
            cell("w0", "base", 100, 100),
            cell("w0", "a", 110, 100),
            cell("w0", "b", 90, 100),
            cell("w1", "base", 200, 100),
            cell("w1", "a", 200, 100),
            cell("w1", "b", 220, 100),
        ];
        let schemes = ["base", "a", "b"]
            .map(|l| Scheme::new(l, PrefetcherKind::Berti, PgcPolicyKind::Dripper))
            .to_vec();
        (results, schemes)
    }

    #[test]
    fn geomeans_vs_first_pairs_each_scheme_with_the_baseline() {
        let (results, schemes) = grid();
        let g = geomeans_vs_first(&results, &schemes);
        assert_eq!(g.len(), 2, "one geomean per non-baseline scheme");
        assert!((g[0] - 1.1f64.sqrt()).abs() < 1e-12);
        assert!((g[1] - (0.9f64 * 1.1).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn speedup_rows_follow_grid_order_and_geomean_per_column() {
        let (results, _) = grid();
        let rows = speedup_rows(&results, 3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].workload, "w1");
        assert_eq!(rows[1].suite, "gap");
        assert!((rows[0].speedups[0] - 1.1).abs() < 1e-12);
        assert!((rows[1].speedups[1] - 1.1).abs() < 1e-12);
        let g = print_geomean_row("test", "GEOMEAN", &rows);
        assert!((g[0] - 1.1f64.sqrt()).abs() < 1e-12);
        assert!((g[1] - (0.9f64 * 1.1).sqrt()).abs() < 1e-12);
        assert!(print_geomean_row("test", "EMPTY", &[]).is_empty());
    }

    #[test]
    fn zero_baseline_ipc_counts_as_no_speedup() {
        let results = vec![cell("w", "base", 0, 0), cell("w", "a", 10, 10)];
        assert_eq!(speedup_rows(&results, 2)[0].speedups, vec![1.0]);
    }

    #[test]
    fn mpki_delta_is_report_minus_base_per_structure() {
        let mut base = Report::default();
        base.core.instructions = 1_000;
        let mut r = base.clone();
        base.dtlb.misses = 4;
        base.llc.demand_misses = 1;
        r.stlb.misses = 2;
        r.l1d.demand_misses = 3;
        assert_eq!(mpki_delta(&r, &base), [-4.0, 2.0, 3.0, -1.0]);
    }

    #[test]
    fn means_are_arithmetic_and_zero_when_empty() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(
            mean_delta(&[[1.0, 2.0, 3.0, 4.0], [3.0, 2.0, 1.0, 0.0]]),
            [2.0, 2.0, 2.0, 2.0]
        );
        assert_eq!(mean_delta(&[]), [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn mismatched_lengths_rejected() {
        geomean_speedup(&[1.0], &[]);
    }
}
