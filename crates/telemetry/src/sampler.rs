//! Interval sampling: cumulative counter captures diffed into a
//! per-interval time series.

use crate::ring::EventRing;
use pagecross_types::{IntervalRecord, PolicyTelemetry, TelemetryCounters, TimedEvent};

/// What to collect during a run.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Retired instructions per sampling interval.
    pub interval: u64,
    /// Whether to record structured trace events.
    pub events: bool,
}

/// Event-ring capacity: the most recent events a traced run keeps.
const EVENT_CAPACITY: usize = 65_536;

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            interval: 10_000,
            events: false,
        }
    }
}

impl TelemetryConfig {
    /// Builds the event ring this config describes (when events are on).
    pub fn make_ring(&self) -> Option<EventRing> {
        self.events.then(|| EventRing::new(EVENT_CAPACITY))
    }
}

/// Everything a telemetry-enabled run collected.
#[derive(Clone, Debug, Default)]
pub struct TelemetryRun {
    /// Closed sampling intervals, in order.
    pub intervals: Vec<IntervalRecord>,
    /// Structured trace events (empty unless event tracing was on).
    pub events: Vec<TimedEvent>,
    /// Events offered to the ring before eviction (0 when off).
    pub events_seen: u64,
}

/// Counts retired instructions and closes an interval every N of them.
///
/// The engine calls [`on_retire`](IntervalSampler::on_retire) once per
/// retired instruction; when it returns `true` the engine captures the
/// current cumulative [`TelemetryCounters`] and hands them to
/// [`sample`](IntervalSampler::sample). After the run,
/// [`flush`](IntervalSampler::flush) closes the final partial interval so
/// the deltas telescope to the run totals exactly.
#[derive(Clone, Debug)]
pub struct IntervalSampler {
    interval: u64,
    since_sample: u64,
    base: TelemetryCounters,
    intervals: Vec<IntervalRecord>,
}

impl IntervalSampler {
    /// A sampler closing an interval every `interval` retired
    /// instructions (clamped to ≥ 1).
    pub fn new(interval: u64) -> Self {
        Self {
            interval: interval.max(1),
            since_sample: 0,
            base: TelemetryCounters::default(),
            intervals: Vec::new(),
        }
    }

    /// Notes one retired instruction; `true` when an interval just closed
    /// and the caller must capture counters and call
    /// [`sample`](IntervalSampler::sample).
    pub fn on_retire(&mut self) -> bool {
        self.since_sample += 1;
        if self.since_sample >= self.interval {
            self.since_sample = 0;
            true
        } else {
            false
        }
    }

    /// Closes an interval at the cumulative capture `now`.
    pub fn sample(&mut self, now: TelemetryCounters, policy: Option<PolicyTelemetry>) {
        self.intervals.push(IntervalRecord {
            seq: self.intervals.len() as u64,
            end_instructions: now.instructions,
            end_cycles: now.cycles,
            delta: now.delta(&self.base),
            policy,
        });
        self.base = now;
    }

    /// Closes the final partial interval, if the run progressed past the
    /// last sample point. Without this the tail of the run (including the
    /// drain cycles added by `finish()`) would be missing and the summed
    /// deltas would not reconcile with the final report.
    pub fn flush(&mut self, now: TelemetryCounters, policy: Option<PolicyTelemetry>) {
        if now != self.base {
            self.sample(now, policy);
        }
    }

    /// The closed intervals, consuming the sampler.
    pub fn into_intervals(self) -> Vec<IntervalRecord> {
        self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagecross_types::Counters;

    fn counters(instructions: u64, cycles: u64, l1d_misses: u64) -> TelemetryCounters {
        TelemetryCounters {
            instructions,
            cycles,
            l1d_misses,
            ..Default::default()
        }
    }

    #[test]
    fn on_retire_fires_every_interval() {
        let mut s = IntervalSampler::new(3);
        let fired: Vec<bool> = (0..7).map(|_| s.on_retire()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false]);
    }

    #[test]
    fn deltas_telescope_to_final_totals() {
        let mut s = IntervalSampler::new(10);
        s.sample(counters(10, 25, 3), None);
        s.sample(counters(20, 47, 5), None);
        s.flush(counters(24, 60, 9), None);
        let iv = s.into_intervals();
        assert_eq!(iv.len(), 3);
        assert_eq!(iv[0].delta.instructions, 10);
        assert_eq!(iv[1].delta.instructions, 10);
        assert_eq!(iv[2].delta.instructions, 4);
        let mut sum = TelemetryCounters::default();
        for r in &iv {
            sum.accumulate(&r.delta);
        }
        assert_eq!(sum, counters(24, 60, 9));
        assert_eq!(iv.last().unwrap().end_cycles, 60);
    }

    #[test]
    fn flush_is_a_no_op_when_nothing_changed() {
        let mut s = IntervalSampler::new(10);
        let c = counters(10, 20, 1);
        s.sample(c, None);
        s.flush(c, None);
        assert_eq!(s.into_intervals().len(), 1);
    }

    #[test]
    fn seq_is_dense_and_zero_based() {
        let mut s = IntervalSampler::new(1);
        for i in 1..=4 {
            s.sample(counters(i, i * 2, 0), None);
        }
        let seqs: Vec<u64> = s.into_intervals().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn config_default_matches_cli_default() {
        let c = TelemetryConfig::default();
        assert_eq!(c.interval, 10_000);
        assert!(!c.events);
        assert!(c.make_ring().is_none());
        let on = TelemetryConfig {
            events: true,
            ..Default::default()
        };
        assert!(on.make_ring().is_some());
    }
}
