//! THP sensitivity — page-cross prefetch volume vs transparent-huge-page
//! aggressiveness under the imitation-OS model (§II-A1 context: huge pages
//! shrink the number of 4 KB boundaries a prefetcher can cross).
//!
//! Sweeps THP fraction {0, 0.25, 0.5, 0.75, 1.0} at two physical-memory
//! pressures (64 MB and 128 MB) with Berti + Permit PGC and a
//! page-size-aware boundary: as khugepaged promotes more regions to 2 MB,
//! in-region 4 KB crossings stop being page crossings, so the issued
//! page-cross prefetch volume must fall monotonically with the THP
//! fraction.

use pagecross_bench::{
    env_scale, ipcs_of, print_header, print_row, run_all, Scheme, Summary, WorkloadResult,
};
use pagecross_cpu::{BoundaryMode, OsConfig, PgcPolicyKind, PrefetcherKind};
use pagecross_types::geomean;
use pagecross_workloads::representative_seen;

const THP_LEVELS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
const PHYS_LEVELS: [(&str, u64); 2] = [("64M", 64 << 20), ("128M", 128 << 20)];

fn label(phys: &str, thp: f64) -> String {
    format!("thp{thp:.2}@{phys}")
}

/// Sums a page-cross/OS counter of one scheme across every workload.
fn total_of(results: &[WorkloadResult], scheme: &str, f: impl Fn(&WorkloadResult) -> u64) -> u64 {
    results.iter().filter(|r| r.scheme == scheme).map(f).sum()
}

fn main() {
    let cfg = env_scale();
    let workloads = representative_seen(1);
    let schemes: Vec<Scheme> = PHYS_LEVELS
        .iter()
        .flat_map(|&(phys_label, phys_bytes)| {
            THP_LEVELS.map(|thp| {
                let mut s = Scheme::new(
                    &label(phys_label, thp),
                    PrefetcherKind::Berti,
                    PgcPolicyKind::PermitPgc,
                );
                s.boundary = BoundaryMode::PageSizeAware;
                s.os = Some(OsConfig {
                    phys_mem_bytes: phys_bytes,
                    thp,
                    ..OsConfig::default()
                });
                s
            })
        })
        .collect();
    let results = run_all(&workloads, &schemes, &cfg);
    for r in &results {
        assert!(
            r.error.is_none(),
            "{}:{} failed: {:?}",
            r.workload,
            r.scheme,
            r.error
        );
    }

    print_header(
        "fig_thp",
        &[
            "scheme",
            "pgc-issued",
            "faults",
            "reclaims",
            "promotions",
            "shootdowns",
            "geo-ipc",
        ],
    );
    let mut monotone = true;
    let mut endpoints = Vec::new();
    for &(phys_label, _) in &PHYS_LEVELS {
        let mut pgcs: Vec<u64> = Vec::new();
        for thp in THP_LEVELS {
            let s = label(phys_label, thp);
            let pgc = total_of(&results, &s, |r| r.report.prefetch.pgc_issued);
            let faults = total_of(&results, &s, |r| r.report.os.faults());
            let reclaims = total_of(&results, &s, |r| r.report.os.reclaims);
            let promotions = total_of(&results, &s, |r| r.report.os.thp_promotions);
            let shootdowns = total_of(&results, &s, |r| r.report.os.shootdowns);
            let geo = geomean(&ipcs_of(&results, &s)).unwrap_or(0.0);
            print_row(
                "fig_thp",
                &[
                    s.clone(),
                    pgc.to_string(),
                    faults.to_string(),
                    reclaims.to_string(),
                    promotions.to_string(),
                    shootdowns.to_string(),
                    format!("{geo:.4}"),
                ],
            );
            // Weakly monotone per pressure level, with 2% slack for timing
            // noise from reclamation churn.
            if let Some(&p) = pgcs.last() {
                monotone &= pgc as f64 <= p as f64 * 1.02;
            }
            pgcs.push(pgc);
        }
        endpoints.push((phys_label, pgcs[0], pgcs[pgcs.len() - 1]));
    }
    let strictly_falls = endpoints.iter().all(|&(_, first, last)| last < first);

    Summary {
        experiment: "fig_thp".into(),
        paper: "huge pages remove 4KB boundaries (§II-A1): page-cross prefetch volume \
                falls monotonically as THP promotion gets more aggressive"
            .into(),
        measured: endpoints
            .iter()
            .map(|&(p, f, l)| format!("{p}: pgc {f} -> {l}"))
            .collect::<Vec<_>>()
            .join(", "),
        shape_holds: monotone && strictly_falls,
    }
    .print();
}
