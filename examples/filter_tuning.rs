//! Building custom Page-Cross Filters with the MOKA framework.
//!
//! Demonstrates the framework API directly: constructing filters from
//! different feature selections, driving them by hand, and comparing the
//! resulting decisions — the workflow §III-D3's offline feature exploration
//! automates.
//!
//! ```sh
//! cargo run --release --example filter_tuning
//! ```

use pagecross::moka::features::{FeatureContext, ProgramFeature};
use pagecross::moka::filter::{FilterConfig, PageCrossFilter};
use pagecross::moka::policy::{PgcPolicy, PolicyAction};
use pagecross::moka::system_features::SystemFeature;
use pagecross::types::{PrefetchCandidate, SystemSnapshot, VirtAddr};

/// Drives a filter through a synthetic episode with two alternating phases:
/// a TLB-pressured phase where delta +1 page-cross prefetches turn out
/// useful, and a quiet phase where delta +37 ones turn out useless — the
/// phase-conditional structure MOKA's system features are built to exploit.
fn episode(filter: &mut PageCrossFilter) -> (u64, u64) {
    // Phase A: high sTLB miss rate (the StlbMissRate feature gates on).
    let snap_hot = SystemSnapshot {
        stlb_miss_rate: 0.3,
        stlb_mpki: 0.5,
        ..Default::default()
    };
    // Phase B: quiet TLB with moderate MPKI (both sTLB features gate off).
    let snap_cold = SystemSnapshot {
        stlb_miss_rate: 0.01,
        stlb_mpki: 3.0,
        ..Default::default()
    };
    let mut good_issued = 0;
    let mut bad_issued = 0;
    for round in 0..400u64 {
        for (delta, useful) in [(1i64, true), (37, false)] {
            let snap = if useful { snap_hot } else { snap_cold };
            let trigger = VirtAddr::new(0x10_0000 + round * 0x1000 + 0xFC0);
            let target = trigger.offset(delta * 64);
            let cand = PrefetchCandidate {
                pc: 0x400100, // same load PC for both deltas
                trigger,
                target,
                delta,
                first_page_access: false,
            };
            let ctx = FeatureContext {
                pc: cand.pc,
                va: trigger.raw(),
                target_va: target.raw(),
                delta,
                ..Default::default()
            };
            match filter.decide(&cand, &ctx, &snap) {
                PolicyAction::Issue { .. } => {
                    let phys = 0xAB_0000 + round * 64 + delta as u64;
                    filter.on_issued(phys);
                    if useful {
                        good_issued += 1;
                        filter.on_pcb_first_hit(phys);
                    } else {
                        bad_issued += 1;
                        filter.on_pcb_eviction(phys, false);
                    }
                }
                PolicyAction::Discard => {
                    if useful {
                        // The discarded prefetch becomes a demand miss: the
                        // vUB catches the false negative.
                        filter.on_l1d_demand_miss(target.line().raw());
                    }
                }
            }
        }
        if round % 50 == 49 {
            filter.end_epoch(&snap_hot);
        }
    }
    (good_issued, bad_issued)
}

fn show(label: &str, cfg: FilterConfig) {
    let mut f = PageCrossFilter::new(cfg);
    let (good, bad) = episode(&mut f);
    println!(
        "{label:<28} issued useful: {good:>4}/400   issued useless: {bad:>4}/400   \
         storage: {:.2} KB   T_a(final): {}",
        f.config().storage_kb(),
        f.threshold()
    );
}

fn main() {
    println!("A good filter issues the useful delta (+1) and blocks the useless one (+37).\n");

    show(
        "DRIPPER (Delta + 2 SF)",
        FilterConfig::with_features(
            vec![ProgramFeature::Delta],
            vec![SystemFeature::StlbMpki, SystemFeature::StlbMissRate],
        ),
    );
    show(
        "PC-only filter",
        FilterConfig::with_features(vec![ProgramFeature::Pc], vec![]),
    );
    show(
        "PC xor Delta filter",
        FilterConfig::with_features(vec![ProgramFeature::PcXorDelta], vec![]),
    );
    show(
        "System-features only",
        FilterConfig::with_features(
            vec![],
            vec![SystemFeature::StlbMpki, SystemFeature::StlbMissRate],
        ),
    );
    let mut static_cfg = FilterConfig::with_features(vec![ProgramFeature::Delta], vec![]);
    static_cfg.adaptive = false;
    static_cfg.static_threshold = 0;
    show("Delta, static threshold", static_cfg);

    println!("\nNote how PC-only cannot separate the two deltas (same PC family),");
    println!("while any Delta-bearing feature can — the insight behind Table II.");
}
