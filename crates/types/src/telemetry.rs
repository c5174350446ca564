//! Telemetry vocabulary shared across the simulator: stall-cycle
//! attribution, interval counter snapshots, structured trace events, and
//! live policy internals.
//!
//! These are plain data types with no collection/emission machinery — the
//! sampler, ring buffer and exporters live in the `pagecross-telemetry`
//! crate. Keeping the vocabulary here lets the memory system, the filter
//! crate and the CPU model exchange telemetry without new dependency edges.

use crate::stats::{counters, ratio, Counters};

/// Why an issue slot was lost (top-down cycle accounting).
///
/// Every cycle the core fails to dispatch at full `issue_width` loses
/// slots; each lost slot is charged to exactly one cause. The taxonomy
/// follows the engine's stall points: the ROB-full wait is sub-attributed
/// by what the blocking head instruction was waiting on (a TLB walk takes
/// precedence over a plain L1D miss), front-end jumps split into
/// branch-redirect bubbles and fetch starvation, and the slots between the
/// last dispatch and the last completion are the pipeline drain tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// ROB full, head waiting on a non-memory (or unclassified) completion.
    RobFull,
    /// ROB full, head is a load that missed in L1D (no page walk).
    L1dMiss,
    /// ROB full, head is a load whose translation required a page walk.
    TlbWalk,
    /// Front-end bubble injected by a branch misprediction redirect.
    BranchRedirect,
    /// Front-end waiting on instruction fetch (L1I miss exposure).
    FetchStarved,
    /// OS memory-management work on the access path: page-fault handling
    /// (minor or major), frame reclamation, THP migration, and TLB
    /// shootdown IPIs charged to the faulting/receiving core.
    OsFault,
    /// Tail slots between the final dispatch and the last completion.
    Drain,
}

counters! {
    /// Per-cause lost issue slots, plus the warm-up boundary carry.
    ///
    /// # Accounting invariant
    ///
    /// For any measured run that retires at least one instruction:
    ///
    /// ```text
    /// instructions + total_stalls + warmup_carry == cycles * issue_width
    /// ```
    ///
    /// where `warmup_carry` is the number of issue slots of the boundary cycle
    /// that were consumed by warm-up instructions (measurement starts mid-cycle
    /// when warm-up ends partway through an issue group), and `total_stalls`
    /// includes the drain tail. The engine charges every cycle jump exactly
    /// `(jump_length × issue_width) − slots_already_used`, so the identity is
    /// exact, not approximate; `tests/telemetry.rs` asserts it per workload.
    pub struct StallBreakdown {
        /// Slots lost to ROB-full waits on unclassified completions.
        pub rob_full: u64,
        /// Slots lost to ROB-full waits on L1D-missing loads.
        pub l1d_miss: u64,
        /// Slots lost to ROB-full waits on loads that took a page walk.
        pub tlb_walk: u64,
        /// Slots lost to branch-misprediction redirect bubbles.
        pub branch_redirect: u64,
        /// Slots lost waiting on instruction fetch.
        pub fetch_starved: u64,
        /// Slots lost to OS memory-management work (faults, reclaim,
        /// THP migration, shootdown IPIs).
        pub os_fault: u64,
        /// Slots in the drain tail after the last dispatch.
        pub drain: u64,
        /// Boundary-cycle slots consumed by warm-up instructions.
        pub warmup_carry: u64,
    }
}

impl StallBreakdown {
    /// Adds `slots` to the counter for `cause`.
    pub fn charge(&mut self, cause: StallCause, slots: u64) {
        match cause {
            StallCause::RobFull => self.rob_full += slots,
            StallCause::L1dMiss => self.l1d_miss += slots,
            StallCause::TlbWalk => self.tlb_walk += slots,
            StallCause::BranchRedirect => self.branch_redirect += slots,
            StallCause::FetchStarved => self.fetch_starved += slots,
            StallCause::OsFault => self.os_fault += slots,
            StallCause::Drain => self.drain += slots,
        }
    }

    /// Total lost slots across every cause (excluding the warm-up carry,
    /// which is not a measured-run loss).
    pub fn total(&self) -> u64 {
        self.accounted_slots(0) - self.warmup_carry
    }

    /// Left-hand side of the accounting invariant:
    /// `instructions + total() + warmup_carry`, that is `instructions`
    /// plus every counter of the breakdown.
    pub fn accounted_slots(&self, instructions: u64) -> u64 {
        let mut sum = instructions;
        self.for_each_counter(&mut String::new(), &mut |_, v| sum += v);
        sum
    }

    /// Checks the accounting invariant against a cycle count and width.
    pub fn balances(&self, instructions: u64, cycles: u64, issue_width: u32) -> bool {
        self.accounted_slots(instructions) == cycles * issue_width as u64
    }
}

counters! {
    /// Cumulative counters captured for interval sampling: a named subset
    /// of the counter schema, one JSONL `d_*` key per field, in this order.
    ///
    /// All fields count from the start of the measured phase; the
    /// sampler diffs consecutive captures to produce per-interval
    /// deltas. Cumulative captures are monotone non-decreasing, so
    /// every delta is non-negative and the deltas telescope: their sum
    /// over all emitted intervals equals the final cumulative capture,
    /// which is what reconciles the JSONL stream against the run's
    /// final `Report`.
    pub struct TelemetryCounters from StatsView {
        instructions => core.instructions,
        cycles => core.cycles,
        l1d_accesses => l1d.demand_accesses,
        l1d_misses => l1d.demand_misses,
        l1i_misses => l1i.demand_misses,
        l2c_misses => l2c.demand_misses,
        llc_accesses => llc.demand_accesses,
        llc_misses => llc.demand_misses,
        dtlb_misses => dtlb.misses,
        stlb_accesses => stlb.accesses,
        stlb_misses => stlb.misses,
        demand_walks => walks.demand_walks,
        prefetch_walks => walks.prefetch_walks,
        candidates => prefetch.candidates,
        pgc_candidates => prefetch.pgc_candidates,
        pgc_issued => prefetch.pgc_issued,
        pgc_discarded => prefetch.pgc_discarded,
        inpage_issued => prefetch.inpage_issued,
        prefetch_useful => l1d.prefetch_useful,
        prefetch_useless => l1d.prefetch_useless,
        pgc_useful => l1d.pgc_useful,
        pgc_useless => l1d.pgc_useless,
        branch_mispredicts => core.branch_mispredicts,
        os_minor_faults => os.minor_faults,
        os_major_faults => os.major_faults,
        os_reclaims => os.reclaims,
        os_promotions => os.thp_promotions,
        os_shootdowns => os.shootdowns,
    }
}

/// Live internals of a filter-backed page-cross policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyTelemetry {
    /// Activation threshold currently in force.
    pub threshold: i32,
    /// Fraction of perceptron weights at either saturation bound.
    pub weight_saturation: f64,
    /// Cumulative filter decisions.
    pub decisions: u64,
    /// Cumulative issues.
    pub issued: u64,
    /// Cumulative discards.
    pub discarded: u64,
}

/// One closed sampling interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalRecord {
    /// Interval index (0-based, dense).
    pub seq: u64,
    /// Cumulative retired instructions at the end of the interval.
    pub end_instructions: u64,
    /// Cumulative elapsed cycles at the end of the interval.
    pub end_cycles: u64,
    /// Counter deltas over the interval.
    pub delta: TelemetryCounters,
    /// Policy internals at the sample point (`None` for static policies).
    pub policy: Option<PolicyTelemetry>,
}

impl IntervalRecord {
    /// Interval IPC (0 when the interval spans no cycles).
    pub fn ipc(&self) -> f64 {
        ratio(self.delta.instructions, self.delta.cycles)
    }
}

/// A structured simulator event (ring-buffered, exportable as a Chrome
/// trace). Only L1D-data-path fills/evictions are traced; L1I/L2C/walker
/// fills are not (they are not what the paper's mechanisms act on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A block was filled into L1D.
    Fill {
        /// Physical line address.
        line: u64,
        /// Fill came from a prefetch (demand otherwise).
        prefetch: bool,
        /// Prefetch fill crossed a page boundary (PCB set).
        page_cross: bool,
    },
    /// A block was evicted from L1D.
    Evict {
        /// Physical line address.
        line: u64,
        /// The block carried the Page-Cross Bit.
        pcb: bool,
        /// The block was dirty (writeback).
        dirty: bool,
        /// The block served at least one demand hit.
        served_hits: bool,
    },
    /// A page walk completed.
    Walk {
        /// 4 KB virtual page number walked.
        va_page: u64,
        /// Walk latency in cycles.
        latency: u64,
        /// Memory references the walker issued.
        refs: u32,
        /// Levels skipped via page-structure caches.
        psc_skipped: u32,
        /// Speculative (prefetch-triggered) walk.
        speculative: bool,
    },
    /// A page-cross policy decision.
    Decision {
        /// Triggering load PC.
        pc: u64,
        /// Prefetch target virtual address.
        target_va: u64,
        /// The candidate was issued (discarded otherwise).
        issued: bool,
        /// Activation threshold at decision time (filter policies only).
        threshold: Option<i32>,
    },
    /// An OS memory-management event (only emitted with the OS layer on).
    Os {
        /// What the OS did.
        op: OsOp,
        /// The 4 KB virtual page (faults/reclaims) or the first 4 KB page
        /// of the 2 MB region (promotions/demotions/region shootdowns).
        va_page: u64,
        /// Handler cycles charged to the triggering core.
        cycles: u64,
    },
}

/// The OS memory-management operations the event ring distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsOp {
    /// First touch of a never-mapped page.
    MinorFault,
    /// Touch of a page evicted by reclamation (swap-in).
    MajorFault,
    /// CLOCK reclaim of a resident frame.
    Reclaim,
    /// THP daemon promoted an aligned 2 MB region.
    Promote,
    /// THP daemon split a 2 MB region back to 4 KB pages.
    Demote,
    /// TLB shootdown broadcast.
    Shootdown,
}

impl OsOp {
    /// Stable label for exporters.
    pub fn label(self) -> &'static str {
        match self {
            OsOp::MinorFault => "minor_fault",
            OsOp::MajorFault => "major_fault",
            OsOp::Reclaim => "reclaim",
            OsOp::Promote => "promote",
            OsOp::Demote => "demote",
            OsOp::Shootdown => "shootdown",
        }
    }
}

/// Registry of event kinds (stable labels for exporters and tools).
pub const EVENT_KINDS: [&str; 5] = ["fill", "evict", "walk", "decision", "os"];

impl TraceEvent {
    /// Stable kind label (an entry of [`EVENT_KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Fill { .. } => EVENT_KINDS[0],
            TraceEvent::Evict { .. } => EVENT_KINDS[1],
            TraceEvent::Walk { .. } => EVENT_KINDS[2],
            TraceEvent::Decision { .. } => EVENT_KINDS[3],
            TraceEvent::Os { .. } => EVENT_KINDS[4],
        }
    }
}

/// A trace event stamped with its cycle and core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Cycle the event occurred (simulated time).
    pub cycle: u64,
    /// Core that produced the event.
    pub core: u32,
    /// The event payload.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_charges_accumulate_per_cause() {
        let mut s = StallBreakdown::default();
        s.charge(StallCause::RobFull, 10);
        s.charge(StallCause::TlbWalk, 5);
        s.charge(StallCause::TlbWalk, 5);
        assert_eq!(s.rob_full, 10);
        assert_eq!(s.tlb_walk, 10);
        assert_eq!(s.total(), 20);
    }

    #[test]
    fn invariant_check_counts_carry() {
        let mut s = StallBreakdown {
            warmup_carry: 2,
            ..Default::default()
        };
        s.charge(StallCause::Drain, 4);
        // 6 instructions + 4 drain + 2 carry = 12 = 2 cycles * 6 wide.
        assert!(s.balances(6, 2, 6));
        assert!(!s.balances(6, 3, 6));
        assert_eq!(s.accounted_slots(6), 12);
    }

    /// `(name, value)` of every counter, in visiting order.
    fn visited(c: &TelemetryCounters) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        c.for_each_counter(&mut String::new(), &mut |n, v| out.push((n.to_string(), v)));
        out
    }

    #[test]
    fn counter_delta_and_entries_agree() {
        let a = TelemetryCounters {
            instructions: 100,
            l1d_misses: 7,
            ..Default::default()
        };
        let mut b = a;
        b.instructions = 160;
        b.l1d_misses = 9;
        let d = b.delta(&a);
        assert_eq!(d.instructions, 60);
        assert_eq!(d.l1d_misses, 2);
        assert_eq!(d.cycles, 0);
        let names: Vec<String> = visited(&d).into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), TelemetryCounters::SOURCES.len());
        assert_eq!(names[..2], ["instructions", "cycles"]);
    }

    #[test]
    fn add_named_round_trips_every_field() {
        let mut sum = TelemetryCounters::default();
        for (name, _) in visited(&TelemetryCounters::default()) {
            assert!(sum.add_named(&name, 3), "unknown field {name}");
        }
        assert!(!sum.add_named("not_a_field", 1));
        for (name, v) in visited(&sum) {
            assert_eq!(v, 3, "{name}");
        }
    }

    #[test]
    fn interval_ipc_guards_zero_cycles() {
        let r = IntervalRecord {
            seq: 0,
            end_instructions: 0,
            end_cycles: 0,
            delta: TelemetryCounters::default(),
            policy: None,
        };
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn event_kinds_are_registered() {
        let e = TraceEvent::Walk {
            va_page: 1,
            latency: 10,
            refs: 5,
            psc_skipped: 0,
            speculative: false,
        };
        assert!(EVENT_KINDS.contains(&e.kind()));
        assert_eq!(e.kind(), "walk");
    }
}
