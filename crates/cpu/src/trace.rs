//! The trace interface between workload generators and the core model.
//!
//! The simulator is trace-driven, like ChampSim: a [`TraceSource`] yields an
//! infinite instruction stream and the runner decides how many instructions
//! to warm up and measure. Loads carry a `depends_on_prev` flag so that
//! generators can express serialisation (pointer chasing) versus
//! memory-level parallelism (streaming) — the property that decides how
//! much latency an out-of-order core can hide.

use pagecross_types::VirtAddr;

/// One instruction of the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instr {
    /// Program counter (virtual).
    pub pc: u64,
    /// Operation.
    pub op: Op,
}

/// Operation kinds the timing model distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// A demand load.
    Load {
        /// Virtual address.
        va: VirtAddr,
        /// The load's address depends on the previous load's data
        /// (pointer chase): it cannot start until that load completes.
        depends_on_prev: bool,
    },
    /// A demand store (buffered; retires without waiting for the cache).
    Store {
        /// Virtual address.
        va: VirtAddr,
    },
    /// A non-memory instruction (1-cycle ALU).
    Alu,
    /// A conditional branch with its actual outcome.
    Branch {
        /// The branch's resolved direction.
        taken: bool,
    },
}

/// An infinite, restartable instruction stream.
pub trait TraceSource {
    /// Next instruction. The stream never ends; the runner bounds it.
    fn next_instr(&mut self) -> Instr;
}

/// A factory that builds fresh trace streams — the contract between the
/// workload registry and the simulation builder.
pub trait TraceFactory {
    /// Workload name for reports.
    fn name(&self) -> &str;

    /// Builds a fresh stream (deterministic for a given factory).
    fn build(&self) -> Box<dyn TraceSource>;
}
