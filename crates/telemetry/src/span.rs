//! Deterministic structured spans: the tracing layer of the
//! distributed observability plane (DESIGN.md §2.15).
//!
//! A [`Span`] is one timed unit of work — a whole `train_batch`, one
//! executor chunk, a checkpoint save — with parent/child nesting so a
//! batch renders as one connected tree even when its chunks executed on
//! different [`ShardedExecutor`] worker threads.
//!
//! ## Identity is deterministic, timing is not
//!
//! Trace and span identifiers are **never** derived from wall-clock
//! time, thread ids, or allocation addresses. A [`TraceId`] mixes the
//! tracer's seed with a trace ordinal (traces are started in program
//! order); a [`SpanId`] mixes the trace id with the span's structural
//! coordinates (parent, name, lane, sample ordinal). Consequence: the
//! same seed and the same batch plan produce **bit-identical span
//! trees** (ids, parents, ordinals) at every executor worker count —
//! pinned by `qtaccel-accel/tests/spans.rs`. Only the monotonic-ns
//! timestamps, which exist to measure the host, may differ between
//! runs; they are stored separately in `start_ns`/`end_ns` and excluded
//! from every determinism comparison.
//!
//! ## Cost contract
//!
//! Spans are batch/chunk-grained (a chunk is ≥ 2¹⁶ samples), never
//! per-sample, and the accel layer holds its tracer as an
//! `Option<Arc<SpanTracer>>`: with no tracer attached the entire
//! instrumentation is one `Option` test per chunk and the
//! `NullSink`-monomorphized fast paths are untouched — the 5%
//! `--check-baseline` throughput gate stays in force.
//!
//! Completed spans land in a bounded ring ([`SpanTracer::drain`]) with
//! eviction accounting ([`SpanTracer::dropped_spans`]), mirroring
//! `RingSink`: a nonzero drop count flags that the retained trace is
//! not the complete run. The wire protocol ([`crate::wire`]) ships span
//! batches to a collector ([`crate::collector`]) which tags them per
//! worker and exports a multi-process Perfetto trace.
//!
//! [`ShardedExecutor`]: https://docs.rs/qtaccel-accel (crate `qtaccel-accel`, `executor` module)

use crate::health::Alert;
use crate::lock_unpoisoned;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Monotonic nanoseconds since the first call in this process — the
/// timestamp base every span uses. Purely informational: identity never
/// depends on it.
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// splitmix64 finalizer — the deterministic id mixer. Bijective, so
/// distinct inputs cannot collide.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// FNV-1a over a byte string (deterministic name hashing for span ids).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn nonzero(x: u64) -> u64 {
    if x == 0 {
        0x9e37_79b9_7f4a_7c15
    } else {
        x
    }
}

/// Identifies one trace (one instrumented batch). Derived from the
/// tracer seed and a program-order trace ordinal — never wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Deterministic derivation: `mix(seed, ordinal)`, never zero.
    pub fn derive(seed: u64, ordinal: u64) -> Self {
        TraceId(nonzero(mix(seed ^ mix(ordinal.wrapping_add(1)))))
    }
}

/// Identifies one span within a trace. Derived from the trace id and
/// the span's structural coordinates — never wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Deterministic derivation from the span's structural position:
    /// trace, parent (0 for roots), name, lane, and ordinal. Two spans
    /// at the same position get the same id at any worker count.
    pub fn derive(
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        lane: u32,
        ordinal: u64,
    ) -> Self {
        let mut h = mix(trace.0);
        h = mix(h ^ parent.map_or(0, |p| p.0));
        h = mix(h ^ fnv1a(name.as_bytes()));
        h = mix(h ^ ((lane as u64) << 32) ^ ordinal);
        SpanId(nonzero(h))
    }
}

/// The (trace, span) pair a child span nests under — `Copy`, so it
/// crosses `ShardedExecutor` worker-thread closures by value and one
/// trace covers a whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// The trace this context belongs to.
    pub trace: TraceId,
    /// The span new children should parent under.
    pub span: SpanId,
}

/// One completed, timed unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// Deterministic identity (see [`SpanId::derive`]).
    pub id: SpanId,
    /// Parent span within the trace; `None` for the batch root.
    pub parent: Option<SpanId>,
    /// What the span covers (`train_batch`, `chunk`, `checkpoint_save`,
    /// `checkpoint_restore`, `scrub`, `watchdog_alert`, …).
    pub name: String,
    /// Pipeline/shard index (0 for batch roots; the watchdog rule code
    /// for alert instants).
    pub lane: u32,
    /// Deterministic position within the lane: chunk index for chunk
    /// spans, sample totals for batch roots, save ordinal for
    /// checkpoints — the structural coordinate identity derives from.
    pub ordinal: u64,
    /// Monotonic-ns start ([`monotonic_ns`]); informational only,
    /// excluded from determinism comparisons.
    pub start_ns: u64,
    /// Monotonic-ns end; `start_ns == end_ns` for instant spans.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The structural identity tuple determinism tests compare —
    /// everything except the monotonic timestamps.
    pub fn identity(&self) -> (u64, u64, u64, &str, u32, u64) {
        (
            self.trace.0,
            self.id.0,
            self.parent.map_or(0, |p| p.0),
            &self.name,
            self.lane,
            self.ordinal,
        )
    }
}

/// A span that has begun but not yet finished. Created on one thread,
/// finished wherever the work ends; all fields are plain values so it
/// is `Send`.
#[derive(Debug)]
pub struct ActiveSpan {
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    lane: u32,
    ordinal: u64,
    start_ns: u64,
}

impl ActiveSpan {
    /// The context child spans should nest under.
    pub fn context(&self) -> SpanContext {
        SpanContext {
            trace: self.trace,
            span: self.id,
        }
    }
}

/// Bounded ring of completed spans with eviction accounting.
#[derive(Debug)]
struct SpanRing {
    spans: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
}

impl SpanRing {
    fn push(&mut self, span: Span) {
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }
}

/// The shared span recorder: deterministic id derivation plus a bounded
/// completed-span ring. `Arc`-share one tracer across an instrumented
/// batch; every method takes `&self` (the ring sits behind a mutex,
/// touched once per completed span — chunk-grained, so contention is
/// noise).
#[derive(Debug)]
pub struct SpanTracer {
    seed: u64,
    traces: AtomicU64,
    recorded: AtomicU64,
    ring: Mutex<SpanRing>,
}

impl SpanTracer {
    /// A tracer whose trace ids derive from `seed` and whose ring keeps
    /// at most `capacity` completed spans (oldest evicted first).
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(seed: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "span ring capacity must be positive");
        Self {
            seed,
            traces: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            ring: Mutex::new(SpanRing {
                spans: VecDeque::with_capacity(capacity.min(1 << 12)),
                capacity,
                dropped: 0,
            }),
        }
    }

    /// Start a new trace. Trace ids are derived from the seed and a
    /// program-order ordinal, so a fixed call sequence yields a fixed
    /// id sequence.
    pub fn start_trace(&self) -> TraceId {
        let ordinal = self.traces.fetch_add(1, Ordering::Relaxed);
        TraceId::derive(self.seed, ordinal)
    }

    /// Begin a span at the given structural position, stamping its
    /// monotonic-ns start. Finish it with [`end`](Self::end).
    pub fn begin(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        lane: u32,
        ordinal: u64,
    ) -> ActiveSpan {
        ActiveSpan {
            trace,
            id: SpanId::derive(trace, parent, name, lane, ordinal),
            parent,
            name,
            lane,
            ordinal,
            start_ns: monotonic_ns(),
        }
    }

    /// Finish a span: stamp its end and push it into the ring.
    pub fn end(&self, active: ActiveSpan) {
        let span = Span {
            trace: active.trace,
            id: active.id,
            parent: active.parent,
            name: active.name.to_string(),
            lane: active.lane,
            ordinal: active.ordinal,
            start_ns: active.start_ns,
            end_ns: monotonic_ns(),
        };
        self.record(span);
    }

    /// Record a zero-duration span (a point event in the trace tree).
    pub fn instant(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        lane: u32,
        ordinal: u64,
    ) {
        let now = monotonic_ns();
        self.record(Span {
            trace,
            id: SpanId::derive(trace, parent, name, lane, ordinal),
            parent,
            name: name.to_string(),
            lane,
            ordinal,
            start_ns: now,
            end_ns: now,
        });
    }

    /// Record a watchdog [`Alert`] as an instant span under `ctx`: the
    /// rule code rides in `lane`, the retired-sample ordinal in
    /// `ordinal` — both deterministic, so alert spans join the
    /// bit-identical tree.
    pub fn record_alert(&self, ctx: SpanContext, alert: &Alert) {
        self.instant(
            ctx.trace,
            Some(ctx.span),
            "watchdog_alert",
            alert.rule.code() as u32,
            alert.sample,
        );
    }

    /// Push an already-complete span (the collector uses this to replay
    /// wire-decoded spans into a local ring for re-export).
    pub fn record(&self, span: Span) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&self.ring).push(span);
    }

    /// Spans evicted from the full ring — nonzero flags that
    /// [`drain`](Self::drain) does not return the complete run.
    pub fn dropped_spans(&self) -> u64 {
        lock_unpoisoned(&self.ring).dropped
    }

    /// Total spans recorded (including any later evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        lock_unpoisoned(&self.ring).capacity
    }

    /// Take every retained span out of the ring (oldest first). Drop
    /// accounting is preserved across drains.
    pub fn drain(&self) -> Vec<Span> {
        lock_unpoisoned(&self.ring).spans.drain(..).collect()
    }

    /// Clone the retained spans without draining.
    pub fn snapshot(&self) -> Vec<Span> {
        lock_unpoisoned(&self.ring).spans.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::WatchdogRule;

    #[test]
    fn ids_are_deterministic_and_wall_clock_free() {
        let a = SpanTracer::new(42, 64);
        let b = SpanTracer::new(42, 64);
        let (ta, tb) = (a.start_trace(), b.start_trace());
        assert_eq!(ta, tb, "same seed + ordinal => same trace id");
        let ra = a.begin(ta, None, "train_batch", 0, 1000);
        let rb = b.begin(tb, None, "train_batch", 0, 1000);
        assert_eq!(ra.context(), rb.context());
        let ca = a.begin(ta, Some(ra.context().span), "chunk", 3, 7);
        let cb = b.begin(tb, Some(rb.context().span), "chunk", 3, 7);
        assert_eq!(ca.context().span, cb.context().span);
        // Different seeds diverge.
        let c = SpanTracer::new(43, 64);
        assert_ne!(c.start_trace(), ta);
    }

    #[test]
    fn ids_separate_structural_positions() {
        let trace = TraceId::derive(1, 0);
        let root = SpanId::derive(trace, None, "train_batch", 0, 100);
        let ids = [
            SpanId::derive(trace, Some(root), "chunk", 0, 0),
            SpanId::derive(trace, Some(root), "chunk", 0, 1),
            SpanId::derive(trace, Some(root), "chunk", 1, 0),
            SpanId::derive(trace, Some(root), "scrub", 0, 0),
            SpanId::derive(trace, None, "chunk", 0, 0),
        ];
        for (i, x) in ids.iter().enumerate() {
            for y in &ids[i + 1..] {
                assert_ne!(x, y, "structural positions must not collide");
            }
        }
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let t = SpanTracer::new(7, 4);
        let trace = t.start_trace();
        for i in 0..10 {
            let s = t.begin(trace, None, "chunk", 0, i);
            t.end(s);
        }
        assert_eq!(t.recorded(), 10);
        assert_eq!(t.dropped_spans(), 6);
        let spans = t.drain();
        assert_eq!(spans.len(), 4, "ring keeps the most recent");
        assert_eq!(spans[0].ordinal, 6, "oldest evicted first");
        assert_eq!(t.dropped_spans(), 6, "drain preserves drop accounting");
        assert!(t.drain().is_empty());
    }

    #[test]
    fn spans_nest_and_time_monotonically() {
        let t = SpanTracer::new(1, 64);
        let trace = t.start_trace();
        let root = t.begin(trace, None, "train_batch", 0, 0);
        let ctx = root.context();
        let child = t.begin(trace, Some(ctx.span), "chunk", 2, 5);
        t.end(child);
        t.end(root);
        let spans = t.drain();
        assert_eq!(spans.len(), 2);
        let chunk = &spans[0];
        let batch = &spans[1];
        assert_eq!(chunk.parent, Some(batch.id));
        assert_eq!(chunk.lane, 2);
        assert!(chunk.end_ns >= chunk.start_ns);
        assert!(batch.end_ns >= chunk.end_ns, "root closes last");
    }

    #[test]
    fn alert_instants_are_deterministic() {
        let t = SpanTracer::new(5, 8);
        let trace = t.start_trace();
        let root = t.begin(trace, None, "train_batch", 0, 0);
        let ctx = root.context();
        let alert = Alert {
            rule: WatchdogRule::Saturation,
            cycle: 123,
            sample: 456,
            value: 0.9,
            threshold: 0.5,
        };
        t.record_alert(ctx, &alert);
        t.end(root);
        let spans = t.drain();
        let a = spans.iter().find(|s| s.name == "watchdog_alert").unwrap();
        assert_eq!(a.lane, WatchdogRule::Saturation.code() as u32);
        assert_eq!(a.ordinal, 456);
        assert_eq!(a.start_ns, a.end_ns, "instant span");
        assert_eq!(a.parent, Some(ctx.span));
    }
}
