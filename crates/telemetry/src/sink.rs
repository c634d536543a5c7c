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
//! events, [`RingSink`] keeps the last N events in memory, and
//! [`JsonlSink`] streams every event as one JSON line.

use crate::event::Event;
use crate::json::ToJson;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

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

    /// Flush any buffered output (file-backed sinks).
    fn flush(&mut self) {}
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
/// Eviction is oldest-first. Dropped *iterations* are counted by watching
/// evicted stage-1 occupancy events — each training iteration emits
/// exactly one — so the count matches [`PipelineTrace`]'s iteration-atomic
/// accounting even though the ring evicts event-by-event.
///
/// [`PipelineTrace`]: https://docs.rs/qtaccel-accel (crate `qtaccel-accel`, `trace` module)
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

/// Streams every event as one compact JSON line (JSONL).
///
/// Generic over the writer so tests can capture into a `Vec<u8>`; the
/// common case is [`JsonlSink::create`], which buffers to a file.
///
/// A trace is observability, not training state, so an I/O error never
/// stops the run it traces: the sink keeps the first error, writes
/// nothing after it, and counts the lines it drops. [`error`](Self::error)
/// reads the error for any writer, and [`JsonlSink::finish`] returns it
/// for a file.
pub struct JsonlSink<W: Write = BufWriter<File>> {
    /// `None` only once [`into_inner`](Self::into_inner) moved it out.
    writer: Option<W>,
    lines: u64,
    unwritten: u64,
    error: Option<std::io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }

    /// Flush buffered lines and fsync the file to stable storage.
    ///
    /// Returns the first I/O error the sink met, while tracing or in
    /// this flush. Dropping the sink already flushes (best-effort, errors
    /// swallowed); call `finish` when the trace must be complete and
    /// survive a crash right after — it surfaces I/O errors and adds the
    /// `sync_all` barrier.
    pub fn finish(mut self) -> std::io::Result<()> {
        TraceSink::flush(&mut self);
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.into_inner().get_ref().sync_all()
    }
}

impl<W: Write> JsonlSink<W> {
    /// Stream events into `writer`.
    pub fn new(writer: W) -> Self {
        Self {
            writer: Some(writer),
            lines: 0,
            unwritten: 0,
            error: None,
        }
    }

    /// Number of event lines handed to the writer so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Number of event lines dropped because the writer failed: the
    /// line whose write returned the error, and every line after it.
    pub fn unwritten(&self) -> u64 {
        self.unwritten
    }

    /// The first I/O error the writer returned, if any. From then on the
    /// sink writes nothing.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flush and return the underlying writer (tests use this to inspect
    /// a captured `Vec<u8>`).
    pub fn into_inner(mut self) -> W {
        let mut writer = self
            .writer
            .take()
            .expect("the writer is moved out only here");
        let _ = writer.flush();
        writer
    }

    fn writer(&mut self) -> &mut W {
        self.writer
            .as_mut()
            .expect("the writer is present until into_inner")
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    /// Best-effort flush so a sink dropped on an early-exit path (panic
    /// unwind, `?`-propagated error) leaves only the final *partial*
    /// line unreadable rather than the whole buffered tail. Errors are
    /// swallowed — a drop during unwind must not double-panic.
    fn drop(&mut self) {
        if let Some(writer) = &mut self.writer {
            let _ = writer.flush();
        }
    }
}

impl<W: Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("unwritten", &self.unwritten)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    const EVENTS: bool = true;
    const COUNTERS: bool = true;

    fn record(&mut self, ev: &Event) {
        if self.error.is_some() {
            self.unwritten += 1;
            return;
        }
        let line = ev.to_json().compact();
        match writeln!(self.writer(), "{line}") {
            Ok(()) => self.lines += 1,
            Err(e) => {
                self.error = Some(e);
                self.unwritten += 1;
            }
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer().flush() {
                self.error = Some(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MemKind;
    use crate::json::parse;

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

    #[test]
    fn jsonl_sink_writes_one_parseable_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&stage1(0));
        sink.record(&Event::Forward {
            cycle: 2,
            mem: MemKind::Q,
            addr: 5,
        });
        assert_eq!(sink.lines(), 2);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let p0 = parse(lines[0]).unwrap();
        assert_eq!(p0.get("t").unwrap().as_str(), Some("stage"));
        let p1 = parse(lines[1]).unwrap();
        assert_eq!(p1.get("t").unwrap().as_str(), Some("forward"));
        assert_eq!(p1.get("addr").unwrap().as_u64(), Some(5));
    }

    /// A `Write` that buffers internally and only publishes to the shared
    /// sink on flush — shaped like a `BufWriter` so the test can observe
    /// whether dropping the sink flushed.
    struct SharedBuf {
        staged: Vec<u8>,
        published: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.staged.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.published.borrow_mut().extend_from_slice(&self.staged);
            self.staged.clear();
            Ok(())
        }
    }

    #[test]
    fn dropping_sink_flushes_buffered_lines() {
        let published = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        {
            let mut sink = JsonlSink::new(SharedBuf {
                staged: Vec::new(),
                published: std::rc::Rc::clone(&published),
            });
            sink.record(&stage1(0));
            sink.record(&stage1(1));
            assert!(
                published.borrow().is_empty(),
                "nothing published before drop"
            );
            // Dropped here without an explicit flush — as on panic unwind
            // or an early `?` return.
        }
        let text = String::from_utf8(published.borrow().clone()).unwrap();
        assert_eq!(text.lines().count(), 2, "drop flushed both lines");
        for line in text.lines() {
            parse(line).expect("flushed lines are complete JSON");
        }
    }

    #[test]
    fn into_inner_still_moves_writer_out_despite_drop_impl() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&stage1(0));
        let bytes = sink.into_inner();
        assert_eq!(String::from_utf8(bytes).unwrap().lines().count(), 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn finish_returns_the_write_error() {
        let mut sink = JsonlSink::create("/dev/full").expect("open the full device");
        sink.record(&stage1(0));
        let err = sink.finish().expect_err("a full device refuses the flush");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    }

    #[test]
    fn partial_process_exit_stream_parses_line_by_line() {
        // Build the stream a crashed process leaves behind: the drop
        // flush preserved every completed line, and the line in flight
        // at exit is truncated mid-record.
        let mut sink = JsonlSink::new(Vec::new());
        for i in 0..5 {
            sink.record(&stage1(i));
        }
        let mut bytes = sink.into_inner();
        bytes.truncate(bytes.len() - 9); // cut into the last record
        let text = String::from_utf8(bytes).unwrap();

        let mut parsed = 0u64;
        let mut truncated = 0u64;
        for line in text.lines() {
            match parse(line) {
                Ok(p) => {
                    assert_eq!(p.get("t").unwrap().as_str(), Some("stage"));
                    assert_eq!(p.get("iteration").unwrap().as_u64(), Some(parsed));
                    parsed += 1;
                }
                Err(_) => truncated += 1,
            }
        }
        assert_eq!(parsed, 4, "every completed line recovers");
        assert_eq!(truncated, 1, "only the in-flight line is lost");
    }
}
