//! Synthetic trace generation.
//!
//! The paper's workloads are proprietary SimPoint traces; this module
//! substitutes parameterised generators that control exactly the properties
//! page-cross prefetching is sensitive to (DESIGN.md §3):
//!
//! * [`Component::Stream`] — contiguous streams crossing page boundaries
//!   predictably: page-cross prefetching *helps* (astar/cc.road-like);
//! * [`Component::SegmentedStream`] — sequential within a page, random jump
//!   at page end: in-page prefetching works, page-cross prefetches are
//!   systematically wrong (sphinx3/pr.web-like);
//! * [`Component::Chase`] — dependent random loads: latency-bound, TLB-heavy
//!   (mcf-like);
//! * [`Component::GraphCsr`] — sequential offsets + power-law neighbour
//!   reads: the GAP/LIGRA shape, huge TLB footprints;
//! * [`Component::Stencil`] — 2-D sweeps with large constant strides;
//! * [`Component::Hot`] — a cache-resident working set (non-intensive).
//!
//! A workload mixes up to two *phases* of weighted components, switching
//! every `phase_len` instructions — the phase-changing behaviour MOKA's
//! adaptive thresholding targets.

use pagecross_cpu::trace::{Instr, Op, TraceSource};
use pagecross_types::{Rng64, VirtAddr, LINE_SIZE, PAGE_SIZE_4K};

/// One access-pattern component.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Component {
    /// Contiguous stream: `stride_lines` apart, over `pages` pages.
    Stream {
        /// Stride between consecutive accesses, in cache lines.
        stride_lines: u64,
        /// Region size in 4 KB pages.
        pages: u64,
    },
    /// Alternates between contiguous-stream mode (page-cross prefetching
    /// useful) and segmented mode (page-cross prefetching harmful) every
    /// `period_pages` pages, from the *same* load PC — the adversarial
    /// case for filters without system features or adaptive thresholds.
    AlternatingStream {
        /// Region size in 4 KB pages.
        pages: u64,
        /// Pages walked per mode before switching.
        period_pages: u64,
    },
    /// Two interleaved streams issued from the *same* load PC: a
    /// contiguous stride-2 walk (its page-cross prefetches are useful) and
    /// a segmented stride-1 walk with random page hops (its page-cross
    /// prefetches are useless). Because both share one PC and trigger
    /// context, only *candidate-level* features (the delta) can separate
    /// the useful crossings from the harmful ones — trigger-level filters
    /// like PPF cannot (paper §VI).
    TwinStream {
        /// Region size in 4 KB pages (each stream gets its own region).
        pages: u64,
    },
    /// Sequential within each page; random page hop at the boundary.
    SegmentedStream {
        /// Region size in 4 KB pages (hop target space).
        pages: u64,
    },
    /// Dependent random loads over `pages` pages.
    Chase {
        /// Working-set size in 4 KB pages.
        pages: u64,
    },
    /// CSR traversal: a sequential offsets array plus `degree` power-law
    /// neighbour loads per vertex over a `pages`-page vertex array.
    GraphCsr {
        /// Vertex-data region in 4 KB pages.
        pages: u64,
        /// Average neighbours visited per offsets-array step.
        degree: u32,
    },
    /// Row-major 2-D sweep with a `row_lines`-line stride between touches.
    Stencil {
        /// Lines per row (the large stride).
        row_lines: u64,
        /// Rows in the grid.
        rows: u64,
    },
    /// Uniform random over a tiny, cache-resident region.
    Hot {
        /// Region size in 4 KB pages (small).
        pages: u64,
    },
}

/// A weighted mixture of components forming one execution phase.
#[derive(Clone, Debug)]
pub struct Phase {
    /// `(component, weight)` pairs; weights need not be normalised.
    pub components: Vec<(Component, u32)>,
}

/// Full generator parameters for one workload.
#[derive(Clone, Debug)]
pub struct GenParams {
    /// Fraction of instructions that are loads.
    pub load_ratio: f64,
    /// Fraction of instructions that are stores.
    pub store_ratio: f64,
    /// Fraction of instructions that are conditional branches.
    pub branch_ratio: f64,
    /// Probability a branch's outcome is the pattern-predicted one
    /// (lower = more mispredictions).
    pub branch_predictability: f64,
    /// Execution phases (1 or 2); switched every `phase_len` instructions.
    pub phases: Vec<Phase>,
    /// Instructions per phase before switching.
    pub phase_len: u64,
    /// Number of distinct instruction-cache lines the code spans
    /// (L1I pressure).
    pub code_lines: u64,
    /// Generator seed.
    pub seed: u64,
}

impl GenParams {
    /// A reasonable default: one stream phase, moderately memory-intensive.
    pub fn streaming_default(seed: u64) -> Self {
        Self {
            load_ratio: 0.25,
            store_ratio: 0.05,
            branch_ratio: 0.10,
            branch_predictability: 0.97,
            phases: vec![Phase {
                components: vec![(
                    Component::Stream {
                        stride_lines: 1,
                        pages: 4096,
                    },
                    1,
                )],
            }],
            phase_len: 50_000,
            code_lines: 32,
            seed,
        }
    }
}

/// Per-component runtime state.
#[derive(Clone, Debug)]
struct CompState {
    comp: Component,
    base: u64,
    pos: u64,
    pc_base: u64,
    /// GraphCsr: neighbour burst remaining.
    burst: u32,
}

impl CompState {
    fn next_access(&mut self, rng: &mut Rng64) -> (u64, u64, bool) {
        // Returns (pc, va, depends_on_prev).
        match self.comp {
            Component::Stream {
                stride_lines,
                pages,
            } => {
                // Four 16-byte touches per line, like a real array sweep.
                let span_lines = pages * (PAGE_SIZE_4K / LINE_SIZE);
                let line = ((self.pos / 4) * stride_lines) % span_lines;
                let va = self.base + line * LINE_SIZE + (self.pos % 4) * 16;
                self.pos += 1;
                (self.pc_base, va, false)
            }
            Component::AlternatingStream {
                pages,
                period_pages,
            } => {
                // Four 16-byte touches per line, sequential within the page.
                let lines_per_page = PAGE_SIZE_4K / LINE_SIZE;
                let touches_per_page = 4 * lines_per_page;
                let page_idx = self.pos / touches_per_page;
                let within = self.pos % touches_per_page;
                let contiguous_mode = (page_idx / period_pages).is_multiple_of(2);
                if within == 0 {
                    self.burst = if contiguous_mode {
                        // Walk the next sequential page.
                        ((self.burst as u64 + 1) % pages) as u32
                    } else {
                        rng.below(pages) as u32
                    };
                }
                let line_in_page = within / 4;
                let va = self.base
                    + self.burst as u64 * PAGE_SIZE_4K
                    + line_in_page * LINE_SIZE
                    + (self.pos % 4) * 16;
                self.pos += 1;
                (self.pc_base, va, false)
            }
            Component::TwinStream { pages } => {
                let lines_per_page = PAGE_SIZE_4K / LINE_SIZE;
                let va = if self.pos.is_multiple_of(2) {
                    // Stream A: contiguous stride-2 walk (even lines only).
                    let step = self.pos / 2;
                    let line = (step * 2) % (pages * lines_per_page);
                    self.base + line * LINE_SIZE
                } else {
                    // Stream B: stride-1 within a page, random page hops.
                    let step = self.pos / 2;
                    let line_in_page = step % lines_per_page;
                    if line_in_page == 0 {
                        self.burst = rng.below(pages) as u32;
                    }
                    self.base
                        + (1 << 31)
                        + self.burst as u64 * PAGE_SIZE_4K
                        + line_in_page * LINE_SIZE
                };
                self.pos += 1;
                (self.pc_base, va, false)
            }
            Component::SegmentedStream { pages } => {
                // Four 16-byte touches per line, sequential within the
                // page; random page hop at the boundary.
                let lines_per_page = PAGE_SIZE_4K / LINE_SIZE;
                let line_in_page = (self.pos / 4) % lines_per_page;
                if line_in_page == 0 && self.pos.is_multiple_of(4) {
                    // Hop to a random page.
                    self.burst = rng.below(pages) as u32;
                }
                let va = self.base
                    + self.burst as u64 * PAGE_SIZE_4K
                    + line_in_page * LINE_SIZE
                    + (self.pos % 4) * 16;
                self.pos += 1;
                (self.pc_base, va, false)
            }
            Component::Chase { pages } => {
                // Pointer chase with chains of ~2: half the loads depend on
                // the previous load (pure serialisation is unrealistically
                // slow even for mcf-class workloads).
                let va = self.base
                    + rng.below(pages) * PAGE_SIZE_4K
                    + rng.below(PAGE_SIZE_4K / LINE_SIZE) * LINE_SIZE;
                (self.pc_base, va, rng.chance(0.5))
            }
            Component::GraphCsr { pages, degree } => {
                if self.burst == 0 {
                    // Offsets-array step: sequential 8-byte entries.
                    self.burst = 1 + (rng.below(2 * degree as u64)) as u32;
                    let va = self.base + (self.pos * 8) % (pages * PAGE_SIZE_4K);
                    self.pos += 1;
                    (self.pc_base, va, false)
                } else {
                    // Neighbour load: power-law vertex.
                    self.burst -= 1;
                    let v = rng.zipf(pages * (PAGE_SIZE_4K / 64));
                    let va = self.base + (1 << 30) + v * 64;
                    (self.pc_base + 8, va, false)
                }
            }
            Component::Stencil { row_lines, rows } => {
                // Two touches per element; column-major over a row-major
                // grid, so consecutive elements are a full row apart.
                let total = row_lines * rows;
                let idx = (self.pos / 2) % total;
                let (col, row) = (idx / rows, idx % rows);
                let va = self.base + (row * row_lines + col) * LINE_SIZE + (self.pos % 2) * 16;
                self.pos += 1;
                (self.pc_base, va, false)
            }
            Component::Hot { pages } => {
                let va = self.base
                    + rng.below(pages) * PAGE_SIZE_4K
                    + rng.below(PAGE_SIZE_4K / LINE_SIZE) * LINE_SIZE;
                (self.pc_base, va, false)
            }
        }
    }
}

/// The synthetic trace source.
pub struct SyntheticTrace {
    params: GenParams,
    rng: Rng64,
    phase_states: Vec<Vec<(CompState, u32)>>,
    total_weight: Vec<u64>,
    /// Current phase, `(instructions / phase_len) % phases`, kept by a
    /// countdown so the per-instruction path divides nothing.
    phase: usize,
    /// Instructions left before the next phase switch.
    phase_left: u64,
    loop_pc: u64,
}

impl SyntheticTrace {
    /// Builds a trace from parameters.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, any phase has no components, or
    /// `phase_len` or `code_lines` is zero.
    pub fn new(params: GenParams) -> Self {
        assert!(!params.phases.is_empty(), "need at least one phase");
        assert!(params.phase_len > 0, "phase_len must be positive");
        assert!(params.code_lines > 0, "code_lines must be positive");
        let mut rng = Rng64::new(params.seed);
        let mut phase_states = Vec::new();
        let mut total_weight = Vec::new();
        for (pi, phase) in params.phases.iter().enumerate() {
            assert!(!phase.components.is_empty(), "phase {pi} has no components");
            let mut states = Vec::new();
            let mut tw = 0u64;
            for (ci, &(comp, w)) in phase.components.iter().enumerate() {
                // Each component gets its own virtual region and PC block.
                let base = 0x1_0000_0000u64
                    + (pi as u64 * 64 + ci as u64) * 0x1000_0000
                    + (rng.below(16)) * PAGE_SIZE_4K;
                let pc_base = 0x40_0000 + (pi as u64 * 64 + ci as u64) * 0x100;
                states.push((
                    CompState {
                        comp,
                        base,
                        pos: 0,
                        pc_base,
                        burst: 0,
                    },
                    w.max(1),
                ));
                tw += w.max(1) as u64;
            }
            phase_states.push(states);
            total_weight.push(tw);
        }
        Self {
            phase_left: params.phase_len,
            params,
            rng,
            phase_states,
            total_weight,
            phase: 0,
            loop_pc: 0,
        }
    }

    fn pick_component(&mut self) -> (u64, u64, bool) {
        let pi = self.phase;
        let mut w = self.rng.below(self.total_weight[pi]);
        let states = &mut self.phase_states[pi];
        for (st, sw) in states.iter_mut() {
            if w < *sw as u64 {
                return st.next_access(&mut self.rng);
            }
            w -= *sw as u64;
        }
        unreachable!("weights exhausted")
    }
}

impl TraceSource for SyntheticTrace {
    fn next_instr(&mut self) -> Instr {
        self.phase_left -= 1;
        if self.phase_left == 0 {
            self.phase_left = self.params.phase_len;
            self.phase += 1;
            if self.phase == self.phase_states.len() {
                self.phase = 0;
            }
        }
        // Rotate through the configured code footprint.
        self.loop_pc += 1;
        if self.loop_pc == self.params.code_lines * 16 {
            self.loop_pc = 0;
        }
        let pc_body = 0x10_0000 + self.loop_pc * 4;

        let r = self.rng.unit();
        let p = &self.params;
        if r < p.load_ratio {
            let (pc, va, dep) = self.pick_component();
            Instr {
                pc,
                op: Op::Load {
                    va: VirtAddr::new(va),
                    depends_on_prev: dep,
                },
            }
        } else if r < p.load_ratio + p.store_ratio {
            let (pc, va, _) = self.pick_component();
            Instr {
                pc: pc + 4,
                op: Op::Store {
                    va: VirtAddr::new(va),
                },
            }
        } else if r < p.load_ratio + p.store_ratio + p.branch_ratio {
            // A loop-like branch: predicted-taken pattern with noise.
            let predicted = true;
            let taken = if self.rng.chance(p.branch_predictability) {
                predicted
            } else {
                !predicted
            };
            Instr {
                pc: pc_body,
                op: Op::Branch { taken },
            }
        } else {
            Instr {
                pc: pc_body,
                op: Op::Alu,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(params: GenParams, n: usize) -> Vec<Instr> {
        let mut t = SyntheticTrace::new(params);
        (0..n).map(|_| t.next_instr()).collect()
    }

    fn loads(instrs: &[Instr]) -> Vec<u64> {
        instrs
            .iter()
            .filter_map(|i| match i.op {
                Op::Load { va, .. } => Some(va.raw()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn deterministic_for_seed() {
        let a = drain(GenParams::streaming_default(1), 1000);
        let b = drain(GenParams::streaming_default(1), 1000);
        assert_eq!(a, b);
        let c = drain(GenParams::streaming_default(2), 1000);
        assert_ne!(a, c);
    }

    #[test]
    fn ratios_roughly_respected() {
        let instrs = drain(GenParams::streaming_default(3), 20_000);
        let n_load = instrs
            .iter()
            .filter(|i| matches!(i.op, Op::Load { .. }))
            .count();
        let n_store = instrs
            .iter()
            .filter(|i| matches!(i.op, Op::Store { .. }))
            .count();
        let n_branch = instrs
            .iter()
            .filter(|i| matches!(i.op, Op::Branch { .. }))
            .count();
        assert!((n_load as f64 / 20_000.0 - 0.25).abs() < 0.03);
        assert!((n_store as f64 / 20_000.0 - 0.05).abs() < 0.02);
        assert!((n_branch as f64 / 20_000.0 - 0.10).abs() < 0.02);
    }

    #[test]
    fn stream_is_monotone_and_crosses_pages() {
        let params = GenParams::streaming_default(5);
        let vas = loads(&drain(params, 10_000));
        let increasing = vas.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(increasing as f64 > vas.len() as f64 * 0.95);
        let pages: std::collections::HashSet<u64> = vas.iter().map(|v| v >> 12).collect();
        assert!(
            pages.len() > 10,
            "stream must span many pages, got {}",
            pages.len()
        );
    }

    #[test]
    fn segmented_stream_is_sequential_within_pages_only() {
        let mut p = GenParams::streaming_default(7);
        // Pure load stream so consecutive loads are consecutive component
        // positions (stores would consume positions too).
        p.load_ratio = 1.0;
        p.store_ratio = 0.0;
        p.branch_ratio = 0.0;
        p.phases = vec![Phase {
            components: vec![(Component::SegmentedStream { pages: 512 }, 1)],
        }];
        let vas = loads(&drain(p, 30_000));
        // Consecutive in-page touches advance by 16 bytes; page
        // transitions are random.
        let mut inpage_seq = 0;
        let mut inpage_total = 0;
        for w in vas.windows(2) {
            if w[0] >> 12 == w[1] >> 12 {
                inpage_total += 1;
                if w[1] == w[0] + 16 {
                    inpage_seq += 1;
                }
            }
        }
        assert!(inpage_seq as f64 > inpage_total as f64 * 0.9);
        // The page sequence must NOT be the identity successor function.
        let mut next_page_sequential = 0;
        let mut transitions = 0;
        for w in vas.windows(2) {
            if w[0] >> 12 != w[1] >> 12 {
                transitions += 1;
                if (w[1] >> 12) == (w[0] >> 12) + 1 {
                    next_page_sequential += 1;
                }
            }
        }
        assert!(transitions > 50);
        assert!(
            (next_page_sequential as f64) < transitions as f64 * 0.2,
            "page hops must be unpredictable: {next_page_sequential}/{transitions}"
        );
    }

    #[test]
    fn chase_loads_are_dependent() {
        let mut p = GenParams::streaming_default(9);
        p.phases = vec![Phase {
            components: vec![(Component::Chase { pages: 1024 }, 1)],
        }];
        let instrs = drain(p, 5_000);
        let dep = instrs
            .iter()
            .filter(|i| {
                matches!(
                    i.op,
                    Op::Load {
                        depends_on_prev: true,
                        ..
                    }
                )
            })
            .count();
        let all = instrs
            .iter()
            .filter(|i| matches!(i.op, Op::Load { .. }))
            .count();
        let frac = dep as f64 / all as f64;
        assert!(
            (0.3..0.7).contains(&frac),
            "~half of chase loads are dependent, got {frac}"
        );
    }

    #[test]
    fn graph_mixes_sequential_and_zipf() {
        let mut p = GenParams::streaming_default(11);
        p.phases = vec![Phase {
            components: vec![(
                Component::GraphCsr {
                    pages: 2048,
                    degree: 4,
                },
                1,
            )],
        }];
        let vas = loads(&drain(p, 30_000));
        let high = vas
            .iter()
            .filter(|v| **v >= 0x1_0000_0000 + (1 << 30))
            .count();
        let low = vas.len() - high;
        assert!(
            high > 0 && low > 0,
            "both offsets and neighbour regions touched"
        );
    }

    #[test]
    fn phases_alternate() {
        let mut p = GenParams::streaming_default(13);
        p.phase_len = 1_000;
        p.phases = vec![
            Phase {
                components: vec![(
                    Component::Stream {
                        stride_lines: 1,
                        pages: 64,
                    },
                    1,
                )],
            },
            Phase {
                components: vec![(Component::Hot { pages: 4 }, 1)],
            },
        ];
        let mut t = SyntheticTrace::new(p);
        let mut phase0_vas = vec![];
        let mut phase1_vas = vec![];
        for i in 0..4_000u64 {
            let instr = t.next_instr();
            if let Op::Load { va, .. } = instr.op {
                // The generator increments its instruction counter before
                // sampling, so instruction i sees phase (i+1)/phase_len.
                if ((i + 1) / 1_000) % 2 == 0 {
                    phase0_vas.push(va.raw());
                } else {
                    phase1_vas.push(va.raw());
                }
            }
        }
        let p0: std::collections::HashSet<u64> = phase0_vas.iter().map(|v| v >> 28).collect();
        let p1: std::collections::HashSet<u64> = phase1_vas.iter().map(|v| v >> 28).collect();
        assert!(p0.is_disjoint(&p1), "phases use distinct regions");
    }

    #[test]
    fn hot_component_stays_small() {
        let mut p = GenParams::streaming_default(15);
        p.phases = vec![Phase {
            components: vec![(Component::Hot { pages: 4 }, 1)],
        }];
        let vas = loads(&drain(p, 10_000));
        let pages: std::collections::HashSet<u64> = vas.iter().map(|v| v >> 12).collect();
        assert!(pages.len() <= 4);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let mut p = GenParams::streaming_default(1);
        p.phases.clear();
        let _ = SyntheticTrace::new(p);
    }
}
