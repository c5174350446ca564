//! Offline feature selection (§III-D3) driven by the real simulator.
//!
//! Regenerates (a scaled-down version of) the process that produced
//! Table II: evaluate single-feature filters in isolation over a workload
//! sample, rank them, then greedily grow the set with the paper's 0.3%
//! adoption threshold.
//!
//! ```sh
//! cargo run --release --example feature_selection
//! ```
//! Heavier search: `SELECT_POOL=all` evaluates the full 61-candidate pool
//! (~10 minutes) instead of the curated shortlist.

use pagecross::cpu::{PgcPolicyKind, PrefetcherKind, SimulationBuilder};
use pagecross::moka::filter::FilterConfig;
use pagecross::moka::selection::{candidate_pool, select_features, CandidateFeature};
use pagecross::moka::{ProgramFeature, SystemFeature};
use pagecross::types::geomean;
use pagecross::workloads::representative_seen;

fn main() {
    let workloads = representative_seen(2);

    // Baseline IPCs (Discard PGC) per workload, computed once.
    let baselines: Vec<f64> = workloads
        .iter()
        .map(|w| {
            SimulationBuilder::new()
                .prefetcher(PrefetcherKind::Berti)
                .pgc_policy(PgcPolicyKind::DiscardPgc)
                .warmup(20_000)
                .instructions(40_000)
                .run_workload(*w)
                .ipc()
        })
        .collect();

    let evaluate = |cfg: &FilterConfig| -> f64 {
        let ratios: Vec<f64> = workloads
            .iter()
            .zip(&baselines)
            .map(|(w, &base)| {
                let ipc = SimulationBuilder::new()
                    .prefetcher(PrefetcherKind::Berti)
                    .custom_filter(cfg.clone())
                    .warmup(20_000)
                    .instructions(40_000)
                    .run_workload(*w)
                    .ipc();
                ipc / base
            })
            .collect();
        geomean(&ratios).unwrap_or(1.0)
    };

    // The full pool costs ~120 evaluations x |workloads| simulations; the
    // default shortlist keeps the example snappy.
    let pool: Vec<CandidateFeature> = if std::env::var("SELECT_POOL").as_deref() == Ok("all") {
        candidate_pool()
    } else {
        vec![
            CandidateFeature::Program(ProgramFeature::Delta),
            CandidateFeature::Program(ProgramFeature::PcXorDelta),
            CandidateFeature::Program(ProgramFeature::Pc),
            CandidateFeature::Program(ProgramFeature::VaShift(12)),
            CandidateFeature::Program(ProgramFeature::PageDistance),
            CandidateFeature::System(SystemFeature::StlbMpki),
            CandidateFeature::System(SystemFeature::StlbMissRate),
            CandidateFeature::System(SystemFeature::LlcMissRate),
        ]
    };

    println!(
        "searching over {} candidates x {} workloads…",
        pool.len(),
        workloads.len()
    );
    let out = select_features(&pool, evaluate, 0.003);

    println!("\nisolated ranking (top 8):");
    for (f, score) in out.isolated_ranking.iter().take(8) {
        println!("  {f:?}: {:+.2}%", (score - 1.0) * 100.0);
    }
    println!("\nselected set ({} evaluations):", out.evaluations);
    for p in &out.selected.program_features {
        println!("  program: {p:?}");
    }
    for s in &out.selected.system_features {
        println!("  system:  {s:?}");
    }
    println!("geomean speedup: {:+.2}%", (out.score - 1.0) * 100.0);
    println!("\nTable II (paper, for Berti): Delta + sTLB MPKI + sTLB Miss Rate");
}
