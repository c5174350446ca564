//! Trace-driven out-of-order CPU model for the `pagecross` reproduction.
//!
//! This crate assembles the full simulated machine of the paper's
//! methodology (§IV, Table IV): the [`engine::CoreEngine`] timing model
//! (352-entry ROB, 6-wide issue, hashed-perceptron branch prediction,
//! decoupled front-end approximation) on top of the
//! [`pagecross_mem::MemorySystem`] hierarchy, with the L1D prefetcher and
//! the page-cross policy wired per Fig. 5.
//!
//! Use [`SimulationBuilder`] to configure prefetcher / policy / page sizes /
//! L2C prefetcher and run single workloads or multi-core mixes.

pub mod branch;
pub mod builder;
pub mod config;
pub mod engine;
pub mod report;
pub mod trace;

pub use builder::{L2PrefetcherKind, PgcPolicyKind, PrefetcherKind, Scheme, SimulationBuilder};
pub use config::{BoundaryMode, CoreConfig};
pub use pagecross_os::{Os, OsConfig};
pub use pagecross_telemetry::{PhaseTimings, TelemetryConfig, TelemetryRun};
pub use report::{MixReport, Report};
pub use trace::{Instr, Op, TraceFactory, TraceSource};

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::VirtAddr;

    /// A sequential streaming workload: page-cross friendly.
    struct Stream;
    struct StreamSrc {
        i: u64,
    }
    impl TraceSource for StreamSrc {
        fn next_instr(&mut self) -> Instr {
            self.i += 1;
            if self.i.is_multiple_of(4) {
                Instr {
                    pc: 0x40_0000 + (self.i % 16) * 4,
                    op: Op::Load {
                        va: VirtAddr::new(0x1000_0000 + self.i * 16),
                        depends_on_prev: false,
                    },
                }
            } else {
                Instr {
                    pc: 0x40_0100 + (self.i % 8) * 4,
                    op: Op::Alu,
                }
            }
        }
    }
    impl TraceFactory for Stream {
        fn name(&self) -> &str {
            "stream"
        }
        fn build(&self) -> Box<dyn TraceSource> {
            Box::new(StreamSrc { i: 0 })
        }
    }

    fn base() -> SimulationBuilder {
        SimulationBuilder::new().warmup(5_000).instructions(20_000)
    }

    #[test]
    fn simulation_produces_sane_ipc() {
        let r = base().run_workload(&Stream);
        assert!(r.ipc() > 0.05 && r.ipc() < 6.0, "ipc = {}", r.ipc());
        assert_eq!(r.core.instructions, 20_000);
        assert!(r.core.loads > 0);
    }

    #[test]
    fn prefetching_reduces_l1d_mpki_on_stream() {
        let none = base()
            .prefetcher(PrefetcherKind::None)
            .run_workload(&Stream);
        let berti = base()
            .prefetcher(PrefetcherKind::Berti)
            .pgc_policy(PgcPolicyKind::PermitPgc)
            .run_workload(&Stream);
        assert!(
            berti.l1d_mpki() < none.l1d_mpki(),
            "berti {} vs none {}",
            berti.l1d_mpki(),
            none.l1d_mpki()
        );
    }

    #[test]
    fn permit_pgc_issues_page_cross_prefetches_on_stream() {
        let r = base()
            .pgc_policy(PgcPolicyKind::PermitPgc)
            .run_workload(&Stream);
        assert!(
            r.prefetch.pgc_candidates > 0,
            "stream must generate PGC candidates"
        );
        assert!(r.prefetch.pgc_issued > 0);
        assert_eq!(r.prefetch.pgc_discarded, 0, "permit never discards");
    }

    #[test]
    fn discard_pgc_never_issues() {
        let r = base()
            .pgc_policy(PgcPolicyKind::DiscardPgc)
            .run_workload(&Stream);
        assert!(r.prefetch.pgc_candidates > 0);
        assert_eq!(r.prefetch.pgc_issued, 0);
        assert_eq!(r.prefetch.speculative_walks, 0);
        assert_eq!(
            r.l1d.pgc_fills, 0,
            "no PCB blocks without page-cross prefetches"
        );
    }

    #[test]
    fn discard_ptw_never_walks() {
        let r = base()
            .pgc_policy(PgcPolicyKind::DiscardPtw)
            .run_workload(&Stream);
        assert_eq!(r.prefetch.speculative_walks, 0);
        assert_eq!(r.walks.prefetch_walks, 0);
    }

    #[test]
    fn dripper_sits_between_permit_and_discard_in_issue_volume() {
        let permit = base()
            .pgc_policy(PgcPolicyKind::PermitPgc)
            .run_workload(&Stream);
        let dripper = base()
            .pgc_policy(PgcPolicyKind::Dripper)
            .run_workload(&Stream);
        assert!(dripper.prefetch.pgc_issued <= permit.prefetch.pgc_issued);
        // On a perfectly regular stream DRIPPER learns that page-cross
        // prefetches are useful and issues them.
        assert!(
            dripper.prefetch.pgc_issued > 0,
            "dripper should learn to issue on a stream"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = base().run_workload(&Stream);
        let b = base().run_workload(&Stream);
        assert_eq!(a.core, b.core);
        assert_eq!(a.l1d, b.l1d);
        assert_eq!(a.prefetch, b.prefetch);
    }

    #[test]
    fn mix_runs_and_reports_per_core() {
        let m = SimulationBuilder::new()
            .warmup(2_000)
            .instructions(5_000)
            .run_mix(&[&Stream, &Stream]);
        assert_eq!(m.cores.len(), 2);
        for c in &m.cores {
            assert_eq!(c.instructions, 5_000);
            assert!(c.ipc() > 0.0);
        }
    }
}
