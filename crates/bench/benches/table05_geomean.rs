//! Table V — geomean speedups of Berti+Permit and Berti+DRIPPER over
//! Berti+Discard across seen, unseen, and all (incl. non-intensive)
//! workloads.
//!
//! Paper's numbers: Permit −0.8%/−0.9%/−0.6%; DRIPPER +1.7%/+1.2%/+0.4%.
//! Shape: DRIPPER positive on every set, shrinking when non-intensive
//! workloads dilute the geomean; Permit negative on every set; DRIPPER
//! never harms the non-intensive workloads.

use pagecross_bench::{
    core_schemes, env_scale, fmt_pct, geomeans_vs_first, print_header, print_row, run_all, Summary,
    WorkloadResult,
};
use pagecross_cpu::{PrefetcherKind, TraceFactory};
use pagecross_workloads::{
    non_intensive_workloads, representative_seen, representative_unseen, Workload,
};

fn main() {
    let seen = representative_seen(2);
    let unseen = representative_unseen(2);
    let non_intensive: Vec<_> = non_intensive_workloads().into_iter().take(8).collect();
    let mut all = seen.clone();
    all.extend(unseen.iter().copied());
    all.extend(non_intensive.iter().copied());

    // Every distinct workload runs once; each set's geomeans are taken
    // over its own workloads' cells, in the set's order.
    let mut distinct: Vec<&Workload> = Vec::new();
    for w in &all {
        if !distinct.iter().any(|d| std::ptr::eq(*d, *w)) {
            distinct.push(w);
        }
    }
    let schemes = core_schemes(PrefetcherKind::Berti);
    let results = run_all(&distinct, &schemes, &env_scale());
    let geo_pair = |set: &[&Workload]| {
        let cells: Vec<WorkloadResult> = set
            .iter()
            .flat_map(|w| results.iter().filter(|r| r.workload == w.name()))
            .cloned()
            .collect();
        let g = geomeans_vs_first(&cells, &schemes);
        (g[0], g[1])
    };

    print_header("table05", &["set", "permit", "dripper"]);
    let row = |label: &str, set: &[&Workload]| {
        let (p, d) = geo_pair(set);
        print_row("table05", &[label.into(), fmt_pct(p), fmt_pct(d)]);
        (p, d)
    };
    let (p_seen, d_seen) = row("seen", &seen);
    let (p_unseen, d_unseen) = row("unseen", &unseen);
    let (p_all, d_all) = row("all+non-intensive", &all);
    let (_, d_ni) = row("non-intensive only", &non_intensive);

    let shape = d_seen > p_seen
        && d_unseen > p_unseen
        && d_all > p_all
        && d_seen >= 0.999
        && d_unseen >= 0.999
        && d_ni >= 0.995; // DRIPPER must not harm non-intensive workloads
    Summary {
        experiment: "table05".into(),
        paper: "Permit: −0.8%/−0.9%/−0.6%; DRIPPER: +1.7%/+1.2%/+0.4% (seen/unseen/all); \
                non-intensive workloads unharmed"
            .into(),
        measured: format!(
            "permit {}/{}/{}; dripper {}/{}/{}; non-intensive dripper {}",
            fmt_pct(p_seen),
            fmt_pct(p_unseen),
            fmt_pct(p_all),
            fmt_pct(d_seen),
            fmt_pct(d_unseen),
            fmt_pct(d_all),
            fmt_pct(d_ni)
        ),
        shape_holds: shape,
    }
    .print();
}
