//! Observability layer for the `pagecross` simulator: interval sampling of
//! counter deltas, a ring-buffered structured event trace, JSONL/Chrome
//! trace exporters, and host-side phase profiling.
//!
//! # Design: zero cost when disabled
//!
//! Every collection point in the simulator is guarded by an `Option` that
//! is `None` unless telemetry was explicitly requested. Collection is pure
//! observation — samplers read counters the simulator already maintains and
//! never feed anything back into timing, replacement, training or policy
//! state — so a run with telemetry enabled produces a `Report` bit-identical
//! to the same run with it disabled (`tests/telemetry.rs` locks this).
//!
//! # Pieces
//!
//! * [`IntervalSampler`] — snapshots cumulative [`TelemetryCounters`] every
//!   N retired instructions and stores per-interval deltas. The deltas
//!   telescope: summed over all intervals they reproduce the final
//!   cumulative counters exactly, which is how the JSONL stream is
//!   reconciled against the run's final `Report`.
//! * [`EventRing`] — bounded, sampling-gated buffer of structured
//!   [`TimedEvent`]s (fills, evictions, page walks, policy decisions).
//! * [`json`] — JSONL emission plus a hand-rolled validator (no external
//!   JSON dependency anywhere in the workspace).
//! * [`chrome`] — Chrome trace-event JSON export, viewable in Perfetto.
//! * [`PhaseTimings`] — wall-clock per simulation phase (setup / warm-up /
//!   measure) for the host-side perf view.

pub mod chrome;
pub mod json;
pub mod phase;
pub mod ring;
pub mod sampler;

pub use chrome::chrome_trace_json;
pub use json::{interval_to_json, validate_jsonl, JsonlError, JsonlSummary};
pub use phase::PhaseTimings;
pub use ring::EventRing;
pub use sampler::{IntervalSampler, TelemetryConfig, TelemetryRun};

// Re-export the vocabulary types so downstream crates can use a single
// `telemetry::` namespace.
pub use pagecross_types::telemetry::{
    IntervalRecord, PolicyTelemetry, StallBreakdown, StallCause, TelemetryCounters, TimedEvent,
    TraceEvent, EVENT_KINDS,
};
