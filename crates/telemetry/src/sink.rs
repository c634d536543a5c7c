//! Trace sinks: where pipeline instrumentation sends its events.
//!
//! A pipeline is generic over one [`TraceSink`] implementation, chosen at
//! compile time. The two associated consts are the whole cost story:
//!
//! * `EVENTS` — when `false`, every `sink.record(..)` call site sits
//!   inside `if S::EVENTS { .. }` and monomorphizes away entirely.
//! * `COUNTERS` — when `false`, the pipeline's counter-bank updates
//!   vanish the same way, *and* the stall-free fast-path kernel stays
//!   eligible.
//!
//! [`NullSink`] (both consts `false`) is the default; a pipeline built
//! with it compiles to exactly the uninstrumented code, which is how the
//! PR-1 throughput baseline is preserved (`scripts/verify.sh` guards
//! this). [`CountersOnly`] keeps the perf-counter bank live but drops
//! events, and [`RingSink`], the one event recorder, keeps the newest
//! N events in memory; [`crate::export`] draws waveforms and Perfetto
//! traces from them. [`crate::health::HealthSink`] is the fourth sink.

use crate::event::Event;
use std::collections::VecDeque;

/// Receives structured trace events from an instrumented pipeline.
///
/// Implementations are chosen at compile time; the pipeline consults the
/// two consts so that disabled telemetry costs literally zero
/// instructions (see module docs).
pub trait TraceSink {
    /// Whether the pipeline should emit [`Event`]s to [`record`](Self::record).
    const EVENTS: bool;
    /// Whether the pipeline should maintain its perf-counter bank.
    const COUNTERS: bool;
    /// Whether the pipeline should feed per-sample training-health
    /// probes (see [`crate::health`]). Defaults to `false` so existing
    /// sinks are untouched and the stall-free fast-path kernel stays
    /// eligible; [`crate::health::HealthSink`] opts in.
    const HEALTH: bool = false;

    /// Receive one event. Never called when `EVENTS` is `false`.
    fn record(&mut self, ev: &Event);

    /// Iterations whose events this sink had to drop (bounded sinks
    /// only); zero for unbounded and no-op sinks.
    fn dropped_iterations(&self) -> u64 {
        0
    }

    /// The carried health probe, if this sink has one. Consulted by the
    /// pipelines only when `HEALTH` is `true`.
    fn health(&self) -> Option<&crate::health::HealthProbe> {
        None
    }

    /// Mutable access to the carried health probe, if any.
    fn health_mut(&mut self) -> Option<&mut crate::health::HealthProbe> {
        None
    }
}

/// The default sink: telemetry fully disabled, zero cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const EVENTS: bool = false;
    const COUNTERS: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: &Event) {}
}

/// Perf counters on, event stream off: the cheap instrumented mode used
/// for counter dumps in benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersOnly;

impl TraceSink for CountersOnly {
    const EVENTS: bool = false;
    const COUNTERS: bool = true;

    #[inline(always)]
    fn record(&mut self, _ev: &Event) {}
}

/// A bounded in-memory sink keeping the most recent events.
///
/// A full ring evicts its oldest event to make room for each new one,
/// one event at a time, so the oldest retained iteration can be partial.
/// [`dropped_iterations`](TraceSink::dropped_iterations) counts the
/// evicted `Stage { stage: 1 }` events: each training iteration emits
/// exactly one. Size the ring for the whole run to draw all of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSink {
    events: VecDeque<Event>,
    capacity: usize,
    dropped_iterations: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            events: VecDeque::with_capacity(capacity),
            capacity,
            dropped_iterations: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl TraceSink for RingSink {
    const EVENTS: bool = true;
    const COUNTERS: bool = true;

    fn record(&mut self, ev: &Event) {
        if self.events.len() == self.capacity {
            if let Some(Event::Stage { stage: 1, .. }) = self.events.pop_front() {
                self.dropped_iterations += 1;
            }
        }
        self.events.push_back(*ev);
    }

    fn dropped_iterations(&self) -> u64 {
        self.dropped_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage1(iteration: u64) -> Event {
        Event::Stage {
            cycle: iteration * 4,
            stage: 1,
            iteration,
        }
    }

    #[test]
    fn null_and_counters_only_flags() {
        const {
            assert!(!NullSink::EVENTS);
            assert!(!NullSink::COUNTERS);
            assert!(!CountersOnly::EVENTS);
            assert!(CountersOnly::COUNTERS);
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_dropped_iterations() {
        let mut ring = RingSink::new(3);
        for i in 0..4 {
            ring.record(&stage1(i));
            ring.record(&Event::StallEnd { cycle: i * 4 + 1 });
        }
        assert_eq!(ring.len(), 3);
        // 8 events through a 3-slot ring: 5 evicted, of which iterations
        // 0 and 1's stage-1 events are gone, and iteration 2's stage-1
        // event was also evicted (only the tail survives).
        assert_eq!(ring.dropped_iterations(), 3);
        let last = ring.events().last().unwrap();
        assert_eq!(last.cycle(), 13);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ring_rejects_zero_capacity() {
        RingSink::new(0);
    }
}
