//! Table III — DRIPPER's storage overhead breakdown.
//!
//! This is a static computation over the configuration, printed in the
//! paper's rows. Note: Table III's printed "1×512×5 bits" is inconsistent
//! with its own 0.625 KB line item and 1.44 KB total, which imply ~1024
//! entries; this implementation uses 1024 (see `FilterConfig`).

use moka_pgc::dripper::{dripper_config, TargetPrefetcher};
use pagecross_bench::{print_header, print_row, Summary};

fn main() {
    let cfg = dripper_config(TargetPrefetcher::Berti);
    print_header("table03", &["component", "geometry", "KB"]);

    let (pfs, sfs, bits) = (
        cfg.program_features.len(),
        cfg.system_features.len(),
        cfg.weight_bits as usize,
    );
    // (component, geometry, size in bits); a buffer entry is 36 + 12 bits.
    let rows = [
        (
            "program features",
            format!("{pfs}x{}x{bits} bits", cfg.wt_entries),
            pfs * cfg.wt_entries * bits,
        ),
        ("system features", format!("{sfs}x{bits} bits"), sfs * bits),
        (
            "vUB",
            format!("{}x(36+12) bits", cfg.vub_entries),
            cfg.vub_entries * 48,
        ),
        (
            "pUB",
            format!("{}x(36+12) bits", cfg.pub_entries),
            cfg.pub_entries * 48,
        ),
    ];
    for (component, geometry, size) in rows {
        let kb = format!("{:.5}", size as f64 / 8.0 / 1000.0);
        print_row("table03", &[component.into(), geometry, kb]);
    }
    let total = cfg.storage_kb();
    print_row(
        "table03",
        &["TOTAL".into(), "".into(), format!("{total:.3}")],
    );

    // Same budget for every prefetcher's DRIPPER.
    let same = [
        TargetPrefetcher::Berti,
        TargetPrefetcher::Ipcp,
        TargetPrefetcher::Bop,
    ]
    .iter()
    .all(|&t| (dripper_config(t).storage_kb() - total).abs() < 1e-9);

    Summary {
        experiment: "table03".into(),
        paper: "DRIPPER requires 1.44 KB per core, identical for all prefetchers".into(),
        measured: format!("{total:.3} KB, identical across prefetchers: {same}"),
        shape_holds: (total - 1.44).abs() < 0.05 && same,
    }
    .print();
}
