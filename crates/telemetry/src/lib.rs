#![deny(missing_docs)]

//! Telemetry layer for the QTAccel simulators.
//!
//! Hardware teams debug accelerators through two complementary windows: a
//! bank of memory-mapped performance counters (cheap, always summable)
//! and a cycle-stamped event trace (expensive, exact). This crate models
//! both for the QTAccel pipelines, plus the plumbing to persist them:
//!
//! * [`counters`] — [`CounterBank`]: thirteen 64-bit counters with a
//!   stable register map (stalls by stage, forwarding hits by table,
//!   memory-port traffic, LFSR draws), backed by the HDL
//!   `PerfRegFile` model.
//! * [`event`] — typed, cycle-stamped [`Event`]s: stage occupancy,
//!   hazards, stall intervals, forwards, commits.
//! * [`sink`] — the [`TraceSink`] trait and its implementations:
//!   [`NullSink`] (default; compiles instrumentation away entirely),
//!   [`CountersOnly`], and [`RingSink`], the one event recorder: a
//!   bounded ring of the newest events ([`HealthSink`] is the fourth).
//! * [`json`] — the workspace's dependency-free JSON emitter
//!   ([`Json`]/[`ToJson`]/[`impl_to_json!`], moved here from
//!   `qtaccel-bench`) plus a strict parser ([`json::parse`]) for
//!   round-trip verification and baseline reading.
//! * [`manifest`] — git/time provenance attached to persisted results.
//! * [`histogram`] — log2-bucketed latency [`Histogram`]s (mergeable
//!   like counter banks, p50/p90/p99 summaries) and the
//!   [`MetricsRegistry`] of named `qtaccel_*` counters, gauges, and
//!   histograms that the scrape endpoint serves.
//! * [`export`] — the ways out of the process: an OpenMetrics text
//!   encoder, validator and [`scrape`] client (the endpoint that serves
//!   it is the [`Collector`]), a Chrome trace-event (Perfetto-loadable)
//!   converter for a ring's events ([`export::chrome_trace`]) plus
//!   health counter tracks ([`export::chrome_trace_with_health`]), and
//!   the text waveform of the 4-stage pipe ([`export::waveform`],
//!   [`export::stage_occupancy`]).
//! * [`health`] — training-health observability: per-pipeline
//!   convergence probes ([`HealthProbe`], fed through the
//!   [`TraceSink::health_mut`] seam by [`HealthSink`]), the [`Watchdog`]
//!   rule engine raising structured [`Alert`]s, and the crash
//!   [`FlightRecorder`] with its panic-dump harness.
//! * [`span`] — deterministic structured spans: seeded [`TraceId`]s /
//!   [`SpanId`]s derived from sample ordinals (never wall-clock), a
//!   bounded [`SpanTracer`] ring with drop accounting, and contexts
//!   that cross executor worker threads so one trace covers a batch.
//! * [`durable`] — [`durable::atomic_write`], the crash-safe file
//!   replacement (stage, fsync, rename, directory fsync) that
//!   checkpoints and flight-recorder dumps share.
//! * [`frame`] — the word container every byte format shares:
//!   little-endian `u64` words, magic + version header, CRC-32 trailer,
//!   one writer and one bounded, borrowing reader. Checkpoints
//!   (`accel::checkpoint`) and wire frames are both built on it.
//! * [`wire`] — the framed telemetry wire protocol: versioned,
//!   CRC-32'd [`wire::Frame`]s carrying metric deltas, span batches,
//!   and alerts, with a strict incremental decoder
//!   ([`wire::FrameReader`]) that refuses damage with typed errors.
//! * [`collector`] — the merging TCP [`Collector`], the crate's one
//!   HTTP scrape endpoint: N concurrent worker wire streams in (none,
//!   for a process publishing its own registry through
//!   [`Collector::update`]), associatively merged registry over
//!   OpenMetrics and a multi-process Perfetto trace out
//!   ([`Collector::perfetto_trace`]). [`Server`] is the one accept loop
//!   (the collector and the cluster coordinator run on it) and
//!   [`WireClient`] the one framed socket endpoint. DESIGN.md §2.15
//!   documents these layers.
//!
//! The cost contract: telemetry is **disabled by default and free when
//! disabled**. Pipelines are generic over the sink; with [`NullSink`]
//! every instrumentation site monomorphizes to nothing and the
//! stall-free fast-path kernel remains engaged. DESIGN.md §2.6
//! documents the register map, the event variants, and this policy;
//! §2.10 documents the metrics service built on top.

pub mod collector;
pub mod counters;
pub mod durable;
pub mod event;
pub mod export;
pub mod frame;
pub mod health;
pub mod histogram;
pub mod json;
pub mod manifest;
pub mod sink;
pub mod span;
pub mod wire;

pub use collector::{Collector, Server, WireClient, WorkerView};
pub use counters::{CounterBank, CounterId};
pub use event::{Event, MemKind};
pub use export::{
    check_openmetrics, chrome_trace, chrome_trace_with_health, encode_openmetrics,
    health_counter_tracks, scrape, stage_occupancy, waveform,
};
pub use health::{
    Alert, FlightEntry, FlightRecorder, HealthConfig, HealthProbe, HealthSink, HealthSnapshot,
    Watchdog, WatchdogConfig, WatchdogRule,
};
pub use histogram::{
    stall_run_lengths, Histogram, HistogramSummary, MergeError, MetricValue, MetricsRegistry,
};
pub use json::{Json, ToJson};
pub use sink::{CountersOnly, NullSink, RingSink, TraceSink};
pub use span::{monotonic_ns, ActiveSpan, Span, SpanContext, SpanId, SpanTracer, TraceId};
pub use wire::{registry_delta, Frame, FramePayload, FrameReader, WireError};

/// Lock `m`, recovering the data if a panicking holder poisoned it.
pub(crate) fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
