//! Bounded buffer for structured trace events.

use pagecross_types::{TimedEvent, TraceEvent};
use std::collections::VecDeque;

/// A ring buffer of the most recent [`TimedEvent`]s.
///
/// When the buffer is full the oldest event is dropped, so the ring always
/// holds the most recent window of activity. The `seen` counter lets
/// exporters report how much of the stream survived.
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: VecDeque<TimedEvent>,
    capacity: usize,
    /// Events offered to the ring.
    seen: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            seen: 0,
        }
    }

    /// Offers an event, evicting the oldest one when the ring is full.
    pub fn push(&mut self, cycle: u64, core: u32, event: TraceEvent) {
        self.seen += 1;
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(TimedEvent { cycle, core, event });
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events offered, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Drains the ring into a `Vec`, oldest first.
    pub fn into_events(self) -> Vec<TimedEvent> {
        self.buf.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::Fill {
            line: i,
            prefetch: false,
            page_cross: false,
        }
    }

    #[test]
    fn keeps_most_recent_when_full() {
        let mut r = EventRing::new(3);
        for i in 0..5 {
            r.push(i, 0, ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.seen(), 5);
        let cycles: Vec<u64> = r.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn into_events_preserves_order() {
        let mut r = EventRing::new(4);
        for i in 0..4 {
            r.push(i, 1, ev(i));
        }
        let v = r.into_events();
        assert_eq!(v.len(), 4);
        assert!(v.windows(2).all(|w| w[0].cycle < w[1].cycle));
        assert!(v.iter().all(|e| e.core == 1));
    }
}
