//! Fig. 17 — impact of L2C prefetching (§V-B7): Permit PGC and DRIPPER
//! over Discard PGC (Berti at L1D) with different L2C prefetchers in the
//! baseline: none, SPP, IPCP, BOP.
//!
//! Paper's shape: trends are unchanged — Permit loses, DRIPPER wins — and
//! DRIPPER's margin is slightly larger without an L2C prefetcher.

use pagecross_bench::{
    env_scale, fmt_pct, geomeans_vs_first, print_header, print_row, quick_seen_set, run_all,
    Scheme, Summary,
};
use pagecross_cpu::{L2PrefetcherKind, PgcPolicyKind, PrefetcherKind};

fn main() {
    let cfg = env_scale();
    let workloads = quick_seen_set();
    let pf = PrefetcherKind::Berti;
    print_header("fig17", &["l2 prefetcher", "permit", "dripper"]);

    let mut dripper_gains = Vec::new();
    let mut shape = true;
    for l2 in [
        L2PrefetcherKind::None,
        L2PrefetcherKind::Spp,
        L2PrefetcherKind::Ipcp,
        L2PrefetcherKind::Bop,
    ] {
        let with = |label: &str, policy| {
            let mut s = Scheme::new(label, pf, policy);
            s.l2 = l2;
            s
        };
        let schemes = vec![
            with("discard-pgc", PgcPolicyKind::DiscardPgc),
            with("permit-pgc", PgcPolicyKind::PermitPgc),
            with("dripper", PgcPolicyKind::Dripper),
        ];
        let results = run_all(&workloads, &schemes, &cfg);
        let geos = geomeans_vs_first(&results, &schemes);
        let (permit, dripper) = (geos[0], geos[1]);
        print_row(
            "fig17",
            &[format!("{l2:?}"), fmt_pct(permit), fmt_pct(dripper)],
        );
        dripper_gains.push(dripper);
        shape &= dripper > permit;
    }

    Summary {
        experiment: "fig17".into(),
        paper: "DRIPPER provides the highest speedups regardless of the L2C prefetcher; \
                Permit degrades performance in every configuration"
            .into(),
        measured: format!(
            "dripper geomeans per L2 config: {:?}",
            dripper_gains
                .iter()
                .map(|g| fmt_pct(*g))
                .collect::<Vec<_>>()
        ),
        shape_holds: shape,
    }
    .print();
}
