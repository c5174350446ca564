//! Telemetry integration tests: stall-slot accounting, JSONL
//! reconciliation against the final report, Chrome trace structure, and
//! the observation-only guarantee (reports are bit-identical with
//! telemetry on or off).

use pagecross::cpu::trace::TraceFactory;
use pagecross::cpu::{
    CoreConfig, OsConfig, PgcPolicyKind, PrefetcherKind, Report, SimulationBuilder, TelemetryConfig,
};
use pagecross::telemetry::{
    chrome_trace_json, intervals_to_jsonl, validate_jsonl, TelemetryCounters, TelemetryRun,
};
use pagecross::workloads::{suite, SuiteId, Workload};

/// The golden-test configurations: distinct suites, prefetchers and
/// policies, all run with warmup 5 000 / measured 20 000.
const CASES: &[(SuiteId, usize, PrefetcherKind, PgcPolicyKind)] = &[
    (
        SuiteId::Gap,
        0,
        PrefetcherKind::Berti,
        PgcPolicyKind::Dripper,
    ),
    (
        SuiteId::Spec06,
        0,
        PrefetcherKind::Berti,
        PgcPolicyKind::PermitPgc,
    ),
    (
        SuiteId::QmmInt,
        0,
        PrefetcherKind::Ipcp,
        PgcPolicyKind::DiscardPgc,
    ),
];

fn workload(case: &(SuiteId, usize, PrefetcherKind, PgcPolicyKind)) -> &'static Workload {
    &suite(case.0).workloads()[case.1]
}

/// Runs `w` with telemetry collection; these runs never exhaust memory.
fn run_with_telemetry(
    b: SimulationBuilder,
    w: &dyn TraceFactory,
    cfg: &TelemetryConfig,
) -> (Report, TelemetryRun) {
    let (report, _, telemetry) = b.try_run_workload_with(w, Some(cfg)).expect("no OOM");
    (report, telemetry.expect("telemetry was requested"))
}

fn builder(case: &(SuiteId, usize, PrefetcherKind, PgcPolicyKind)) -> SimulationBuilder {
    SimulationBuilder::new()
        .prefetcher(case.2)
        .pgc_policy(case.3)
        .warmup(5_000)
        .instructions(20_000)
}

/// Every issue slot of the measured run is accounted for: retired
/// instructions plus per-cause lost slots plus the warm-up boundary carry
/// equal `cycles × issue_width` exactly (no slot charged twice, none
/// dropped).
#[test]
fn stall_attribution_is_conservative_and_complete() {
    let width = CoreConfig::default().issue_width;
    for case in CASES {
        let w = workload(case);
        let r = builder(case).run_workload(w);
        let s = &r.core.stalls;
        assert!(
            s.balances(r.core.instructions, r.core.cycles, width),
            "{}: {} instr + {} stalls + {} carry != {} cycles * {} width",
            w.name(),
            r.core.instructions,
            s.total(),
            s.warmup_carry,
            r.core.cycles,
            width
        );
        assert!(
            s.total() > 0,
            "{}: a 20k-instruction run cannot be stall-free at width {width}",
            w.name()
        );
    }
}

/// The emitted JSONL stream is schema-valid and its summed deltas
/// telescope to the run's final report counters.
#[test]
fn jsonl_deltas_reconcile_with_final_report() {
    for case in CASES {
        let w = workload(case);
        let cfg = TelemetryConfig {
            interval: 2_000,
            ..TelemetryConfig::default()
        };
        let (r, telemetry) = run_with_telemetry(builder(case), w, &cfg);
        let s = validate_jsonl(&intervals_to_jsonl(&telemetry.intervals))
            .unwrap_or_else(|e| panic!("{}: emitted stream invalid: {e}", w.name()));
        assert_eq!(s.lines, telemetry.intervals.len());
        assert_eq!(s.final_instructions, r.core.instructions, "{}", w.name());
        assert_eq!(s.final_cycles, r.core.cycles, "{}", w.name());

        // One literal, no `..Default::default()`: a new counter does not
        // compile until it is mapped to its report field here.
        let expected = TelemetryCounters {
            instructions: r.core.instructions,
            cycles: r.core.cycles,
            l1d_accesses: r.l1d.demand_accesses,
            l1d_misses: r.l1d.demand_misses,
            l1i_misses: r.l1i.demand_misses,
            l2c_misses: r.l2c.demand_misses,
            llc_accesses: r.llc.demand_accesses,
            llc_misses: r.llc.demand_misses,
            dtlb_misses: r.dtlb.misses,
            stlb_accesses: r.stlb.accesses,
            stlb_misses: r.stlb.misses,
            demand_walks: r.walks.demand_walks,
            prefetch_walks: r.walks.prefetch_walks,
            candidates: r.prefetch.candidates,
            pgc_candidates: r.prefetch.pgc_candidates,
            pgc_issued: r.prefetch.pgc_issued,
            pgc_discarded: r.prefetch.pgc_discarded,
            inpage_issued: r.prefetch.inpage_issued,
            prefetch_useful: r.l1d.prefetch_useful,
            prefetch_useless: r.l1d.prefetch_useless,
            pgc_useful: r.l1d.pgc_useful,
            pgc_useless: r.l1d.pgc_useless,
            branch_mispredicts: r.core.branch_mispredicts,
            os_minor_faults: r.os.minor_faults,
            os_major_faults: r.os.major_faults,
            os_reclaims: r.os.reclaims,
            os_promotions: r.os.thp_promotions,
            os_shootdowns: r.os.shootdowns,
        };
        assert_eq!(s.totals, expected, "{}", w.name());
    }
}

/// With the OS model enabled the same telescoping holds, the OS counters
/// are live (nonzero faults under a 64 MB budget), and the stall
/// accounting stays exact with the new `OsFault` cause in play.
#[test]
fn jsonl_deltas_reconcile_with_os_model_enabled() {
    let case = &CASES[0]; // gap.s00 touches plenty of cold pages.
    let w = workload(case);
    let cfg = TelemetryConfig {
        interval: 2_000,
        ..TelemetryConfig::default()
    };
    let os = OsConfig {
        phys_mem_bytes: 64 << 20,
        thp: 0.5,
        ..OsConfig::default()
    };
    let (r, telemetry) = run_with_telemetry(builder(case).os(os), w, &cfg);
    assert!(r.os.minor_faults > 0, "64 MB run must fault pages in");
    assert!(r.core.stalls.os_fault > 0, "faults must cost issue slots");
    let width = CoreConfig::default().issue_width;
    assert!(
        r.core
            .stalls
            .balances(r.core.instructions, r.core.cycles, width),
        "OS faults broke the exact stall-slot sum"
    );

    let s = validate_jsonl(&intervals_to_jsonl(&telemetry.intervals))
        .expect("OS-on stream must stay schema-valid");
    let t = &s.totals;
    assert_eq!(t.os_minor_faults, r.os.minor_faults, "os minor");
    assert_eq!(t.os_major_faults, r.os.major_faults, "os major");
    assert_eq!(t.os_reclaims, r.os.reclaims, "os reclaims");
    assert_eq!(t.os_promotions, r.os.thp_promotions, "os promote");
    assert_eq!(t.os_shootdowns, r.os.shootdowns, "os shootdowns");
}

/// The Chrome trace export is structurally sound and carries the expected
/// event kinds for a miss-heavy workload.
#[test]
fn chrome_trace_is_structurally_valid() {
    let case = &CASES[0]; // gap.s00: misses, walks and PGC decisions.
    let cfg = TelemetryConfig {
        interval: 5_000,
        events: true,
    };
    let (_, telemetry) = run_with_telemetry(builder(case), workload(case), &cfg);
    assert!(!telemetry.events.is_empty(), "gap.s00 must produce events");
    assert!(telemetry.events_seen >= telemetry.events.len() as u64);

    let json = chrome_trace_json(&telemetry.events);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    for kind in ["fill", "walk", "decision"] {
        assert!(
            json.contains(&format!("\"name\":\"{kind}\"")),
            "trace must contain {kind} events"
        );
    }
    assert!(json.contains("\"ph\":\"X\""), "walks are duration slices");
    assert!(json.contains("\"ph\":\"i\""), "fills are instant events");
}

/// Telemetry is observation-only: the full report is bit-identical with
/// collection (sampling + event tracing) on or off.
#[test]
fn telemetry_does_not_perturb_reports() {
    for case in CASES {
        let w = workload(case);
        let off = builder(case).run_workload(w);
        let cfg = TelemetryConfig {
            interval: 1_000,
            events: true,
        };
        let (on, telemetry) = run_with_telemetry(builder(case), w, &cfg);
        assert_eq!(
            off,
            on,
            "{}: telemetry collection changed the report",
            w.name()
        );
        assert!(!telemetry.intervals.is_empty(), "{}", w.name());
    }
}
