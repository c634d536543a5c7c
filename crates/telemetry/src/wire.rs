//! The framed telemetry wire protocol (DESIGN.md §2.15).
//!
//! Workers ship telemetry to a collector as a stream of self-delimiting
//! binary **frames** carrying metric *deltas* (counters/gauges/
//! histograms), span batches, and watchdog alerts. A frame is a
//! [`crate::frame`] container, the one `accel::checkpoint` also uses:
//! little-endian `u64` words, a magic word, a version word, and a
//! CRC-32/ISO-HDLC trailer, written and read by the shared
//! [`WordWriter`]/[`WordReader`]. This module keeps only the frame's
//! header words, its payload layouts and [`WireError`]; the same damage
//! matrix tests both formats (`qtaccel-telemetry/tests/wire.rs` mirrors
//! `qtaccel-accel/tests/checkpoint.rs`).
//!
//! ## Frame layout
//!
//! ```text
//! word 0        magic  "QTACWIRE"
//! word 1        format version (this module speaks version 1)
//! word 2        frame kind (1 hello, 2 metrics delta, 3 span batch, 4 alerts,
//!               5 hello-ack, 6 lease, 7 progress, 8 heartbeat, 9 lease done,
//!               10 goodbye)
//! word 3        worker id (sender-chosen; the collector's merge key — for
//!               frames a coordinator sends *to* a worker, the recipient's id)
//! word 4        sequence number (per-connection, starts at 0)
//! word 5        payload length in words (1 ..= MAX_PAYLOAD_WORDS)
//! word 6..6+n   payload (kind-specific, see below)
//! word 6+n      CRC-32 of the preceding bytes, zero-extended to 64 bits
//! ```
//!
//! Kinds 1–4 are the observability plane (worker → collector, one-way).
//! Kinds 5–10 are the **cluster control extension** (DESIGN.md §2.16):
//! a coordinator/worker session is the same framed stream in both
//! directions — the coordinator acknowledges a worker's hello with
//! capability negotiation ([`FramePayload::HelloAck`]), hands out
//! epoch-fenced training leases ([`FramePayload::Lease`]), and the
//! worker answers with [`FramePayload::Progress`] /
//! [`FramePayload::Heartbeat`] while training and one
//! [`FramePayload::LeaseDone`] (carrying the lease's whole metric
//! contribution as a registry delta) when the lease seals. Either side
//! closes with [`FramePayload::Goodbye`].
//!
//! Strings and floats use the shared container encoding (a length word
//! then zero-padded bytes; IEEE-754 bit patterns). Histograms travel
//! whole (65 bucket words + count + sum + max) — bucket-wise
//! subtraction makes the *delta* of two histograms another histogram,
//! so deltas and totals share one encoding.
//!
//! ## Strictness
//!
//! The decoder refuses, with a typed [`WireError`] and never a panic or
//! a silent partial merge: truncation mid-frame, a flipped CRC, a bad
//! magic or version word, zero-length and oversized frames, unknown
//! kinds, and malformed payloads (bad UTF-8, foreign metric names,
//! inconsistent histograms, unknown alert codes, trailing words).
//! [`FrameReader`] is the incremental flavor: feed it bytes as they
//! arrive (partial writes interleave safely — a frame only decodes once
//! every one of its bytes is in) and pull complete frames out.

use crate::frame::{self, ReadError, WordReader, WordWriter};
use crate::health::{Alert, WatchdogRule};
use crate::histogram::{snake_case, Histogram, MetricValue, MetricsRegistry};
use crate::span::{Span, SpanId, TraceId};

/// `"QTACWIRE"` in ASCII — the first word of every frame.
pub const MAGIC: u64 = u64::from_le_bytes(*b"QTACWIRE");

/// Wire format version this build writes and understands.
pub const VERSION: u64 = 1;

/// Fixed frame header length in words (magic, version, kind, worker,
/// sequence, payload length).
pub const HEADER_WORDS: usize = 6;

/// Largest payload a frame may declare (8 MiB) — the decoder refuses
/// bigger declarations *before* buffering them, so a corrupt length
/// word cannot make a receiver allocate without bound.
pub const MAX_PAYLOAD_WORDS: u64 = 1 << 20;

/// Why a frame could not be encoded, decoded, or transported.
#[derive(Debug)]
pub enum WireError {
    /// The byte stream ended inside a frame (not at a frame boundary).
    Truncated,
    /// The first word is not the wire magic — not a telemetry stream.
    BadMagic,
    /// A telemetry frame, but from an incompatible format version.
    BadVersion {
        /// The version word found on the wire.
        found: u64,
    },
    /// The kind word names no frame kind this build knows.
    BadKind {
        /// The kind word found on the wire.
        found: u64,
    },
    /// The frame declares a payload larger than [`MAX_PAYLOAD_WORDS`].
    Oversized {
        /// The declared payload length in words.
        words: u64,
    },
    /// The frame declares a zero-length payload (every kind carries at
    /// least one word).
    EmptyPayload,
    /// The CRC trailer does not match the content: torn write or
    /// corruption.
    BadCrc,
    /// The container is intact but the payload does not decode (the
    /// string names what was wrong).
    BadPayload(String),
    /// Socket-level failure while sending or receiving.
    Io(std::io::Error),
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire frame truncated mid-frame"),
            WireError::BadMagic => write!(f, "not a QTAccel telemetry stream (bad magic)"),
            WireError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported wire version {found} (this build speaks {VERSION})"
                )
            }
            WireError::BadKind { found } => write!(f, "unknown wire frame kind {found}"),
            WireError::Oversized { words } => {
                write!(
                    f,
                    "frame declares {words} payload words (cap {MAX_PAYLOAD_WORDS})"
                )
            }
            WireError::EmptyPayload => write!(f, "frame declares an empty payload"),
            WireError::BadCrc => write!(f, "wire frame CRC mismatch (corrupt frame)"),
            WireError::BadPayload(what) => write!(f, "malformed wire payload: {what}"),
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ReadError> for WireError {
    fn from(e: ReadError) -> Self {
        WireError::BadPayload(
            match e {
                ReadError::Short => "payload shorter than declared",
                ReadError::NotUtf8 => "string is not UTF-8",
                ReadError::Trailing => "trailing payload words",
            }
            .into(),
        )
    }
}

/// What one frame carries.
#[derive(Debug, Clone, PartialEq)]
pub enum FramePayload {
    /// Connection preamble: the worker's human-readable label (becomes
    /// its Perfetto process-track name at the collector).
    Hello {
        /// Worker label, e.g. `"worker-2"` or a hostname.
        label: String,
    },
    /// A registry of metric *deltas* since the sender's last metrics
    /// frame (counters and histograms subtract; gauges and info travel
    /// as current values). The collector folds these in with
    /// [`MetricsRegistry::merge`], so counters add associatively.
    Metrics(MetricsRegistry),
    /// A batch of completed spans (typically one tracer drain).
    Spans(Vec<Span>),
    /// Watchdog alerts raised since the last alert frame.
    Alerts(Vec<Alert>),
    /// Coordinator → worker: answer to a hello. Capability negotiation
    /// (a bitmask the worker intersects with its own) plus the
    /// coordinator's cluster-spec hash — a worker built from a
    /// different spec must refuse the session rather than train the
    /// wrong shards.
    HelloAck {
        /// Capability bitmask (see [`CAP_LEASE_V1`]).
        capabilities: u64,
        /// Hash of the coordinator's deterministic cluster spec.
        spec_hash: u64,
    },
    /// Coordinator → worker: one epoch-fenced training lease.
    Lease {
        /// Lease id (= shard / pipeline index).
        lease: u64,
        /// Fencing epoch: incremented every time the coordinator
        /// reassigns this lease; a frame carrying a stale epoch is
        /// refused, never merged.
        epoch: u64,
        /// The shard's total sample budget (checkpointed progress
        /// counts against it on resume).
        budget: u64,
        /// Per-shard checkpoint cadence in retired samples.
        checkpoint_every: u64,
    },
    /// Worker → coordinator: lease progress (doubles as a liveness
    /// signal; `samples` is the shard pipeline's total retired count,
    /// restored progress included).
    Progress {
        /// The lease being worked.
        lease: u64,
        /// The epoch the worker holds the lease under.
        epoch: u64,
        /// Total retired samples on the shard so far.
        samples: u64,
    },
    /// Worker → coordinator: pure liveness when no lease is in flight
    /// (idle workers waiting for reassignment work still heartbeat).
    Heartbeat {
        /// Monotonic per-connection beat counter.
        nonce: u64,
    },
    /// Worker → coordinator: the lease sealed its final checkpoint.
    /// `delta` is the lease's **whole** metric contribution (counters
    /// from shard birth, not from this worker's pickup), so the
    /// coordinator's merge stays associative and each lease counts
    /// exactly once however many workers died along the way.
    LeaseDone {
        /// The completed lease.
        lease: u64,
        /// The epoch it completed under (fence-checked at the merge).
        epoch: u64,
        /// Final retired-sample count (== the lease budget).
        samples: u64,
        /// The lease's metric contribution, merged once on acceptance.
        delta: MetricsRegistry,
    },
    /// Session close, either direction (see [`goodbye_reason`]).
    Goodbye {
        /// Close reason code: 0 run complete, 1 refused (fencing or
        /// spec mismatch), 2 shutting down.
        reason: u64,
    },
}

/// Capability bit: the v1 lease protocol (Q8.8 shard pipelines,
/// checkpoint-file state handoff).
pub const CAP_LEASE_V1: u64 = 1;

/// Goodbye reason codes (the decoder refuses anything else).
pub mod goodbye_reason {
    /// The run completed; the worker may exit cleanly.
    pub const COMPLETE: u64 = 0;
    /// The peer refused the session (stale epoch or spec mismatch).
    pub const REFUSED: u64 = 1;
    /// The peer is shutting down before the run completed.
    pub const SHUTDOWN: u64 = 2;
}

impl FramePayload {
    /// The kind word this payload encodes under.
    pub fn kind(&self) -> u64 {
        match self {
            FramePayload::Hello { .. } => 1,
            FramePayload::Metrics(_) => 2,
            FramePayload::Spans(_) => 3,
            FramePayload::Alerts(_) => 4,
            FramePayload::HelloAck { .. } => 5,
            FramePayload::Lease { .. } => 6,
            FramePayload::Progress { .. } => 7,
            FramePayload::Heartbeat { .. } => 8,
            FramePayload::LeaseDone { .. } => 9,
            FramePayload::Goodbye { .. } => 10,
        }
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sender-chosen worker id (the collector's merge key).
    pub worker: u64,
    /// Per-connection sequence number.
    pub seq: u64,
    /// The payload.
    pub payload: FramePayload,
}

// ---------------------------------------------------------------------
// Payload encode.

fn push_histogram(w: &mut WordWriter, h: &Histogram) {
    for &b in h.bucket_counts() {
        w.push(b);
    }
    w.push(h.count());
    w.push(h.sum());
    w.push(h.max());
}

fn push_registry(w: &mut WordWriter, reg: &MetricsRegistry) {
    w.push(reg.len() as u64);
    for (name, help, value) in reg.iter() {
        let tag = match value {
            MetricValue::Counter(_) => 0u64,
            MetricValue::Gauge(_) => 1,
            MetricValue::Histogram(_) => 2,
            MetricValue::Info(_) => 3,
        };
        w.push(tag);
        w.push_str(name);
        w.push_str(help);
        match value {
            MetricValue::Counter(v) => w.push(*v),
            MetricValue::Gauge(v) => w.push_f64(*v),
            MetricValue::Histogram(h) => push_histogram(w, h),
            MetricValue::Info(labels) => {
                w.push(labels.len() as u64);
                for (k, v) in labels {
                    w.push_str(k);
                    w.push_str(v);
                }
            }
        }
    }
}

fn push_payload(w: &mut WordWriter, payload: &FramePayload) {
    match payload {
        FramePayload::Hello { label } => w.push_str(label),
        FramePayload::Metrics(reg) => push_registry(w, reg),
        FramePayload::HelloAck {
            capabilities,
            spec_hash,
        } => {
            w.push(*capabilities);
            w.push(*spec_hash);
        }
        FramePayload::Lease {
            lease,
            epoch,
            budget,
            checkpoint_every,
        } => {
            w.push(*lease);
            w.push(*epoch);
            w.push(*budget);
            w.push(*checkpoint_every);
        }
        FramePayload::Progress {
            lease,
            epoch,
            samples,
        } => {
            w.push(*lease);
            w.push(*epoch);
            w.push(*samples);
        }
        FramePayload::Heartbeat { nonce } => w.push(*nonce),
        FramePayload::LeaseDone {
            lease,
            epoch,
            samples,
            delta,
        } => {
            w.push(*lease);
            w.push(*epoch);
            w.push(*samples);
            push_registry(w, delta);
        }
        FramePayload::Goodbye { reason } => w.push(*reason),
        FramePayload::Spans(spans) => {
            w.push(spans.len() as u64);
            for s in spans {
                w.push(s.trace.0);
                w.push(s.id.0);
                w.push(s.parent.map_or(0, |p| p.0));
                w.push_str(&s.name);
                w.push(s.lane as u64);
                w.push(s.ordinal);
                w.push(s.start_ns);
                w.push(s.end_ns);
            }
        }
        FramePayload::Alerts(alerts) => {
            w.push(alerts.len() as u64);
            for a in alerts {
                w.push(a.rule.code());
                w.push(a.cycle);
                w.push(a.sample);
                w.push_f64(a.value);
                w.push_f64(a.threshold);
            }
        }
    }
}

impl Frame {
    /// Encode the frame to its byte representation (header + payload +
    /// CRC trailer).
    ///
    /// # Panics
    /// If the payload exceeds [`MAX_PAYLOAD_WORDS`] — senders size
    /// their batches; a registry or span drain that large indicates a
    /// caller bug, not a transport condition.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WordWriter::new(MAGIC, VERSION);
        w.push(self.payload.kind());
        w.push(self.worker);
        w.push(self.seq);
        w.push(0); // payload length, set once the payload is written
        push_payload(&mut w, &self.payload);
        let payload_words = (w.words() - HEADER_WORDS) as u64;
        assert!(
            payload_words <= MAX_PAYLOAD_WORDS,
            "wire payload of {payload_words} words exceeds the {MAX_PAYLOAD_WORDS}-word cap"
        );
        w.set(HEADER_WORDS - 1, payload_words);
        w.seal()
    }

    /// Decode exactly one frame from `bytes`, refusing trailing bytes.
    /// The incremental flavor is [`FrameReader`].
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut reader = FrameReader::new();
        reader.push(bytes);
        match reader.next_frame()? {
            Some(frame) if reader.is_empty() => Ok(frame),
            Some(_) => Err(WireError::BadPayload("trailing bytes after frame".into())),
            None => Err(WireError::Truncated),
        }
    }
}

// ---------------------------------------------------------------------
// Payload decode.

fn take_histogram(r: &mut WordReader<'_>) -> Result<Histogram, WireError> {
    let mut buckets = [0u64; Histogram::BUCKETS];
    for b in &mut buckets {
        *b = r.take()?;
    }
    let (count, sum, max) = (bounded_count(r.take()?)?, r.take()?, r.take()?);
    let bucket_total: u64 = buckets
        .iter()
        .try_fold(0u64, |acc, &b| acc.checked_add(b))
        .ok_or_else(|| WireError::BadPayload("histogram bucket overflow".into()))?;
    if bucket_total != count {
        return Err(WireError::BadPayload(
            "histogram count disagrees with its buckets".into(),
        ));
    }
    Ok(Histogram::from_parts(buckets, count, sum, max))
}

/// Pre-validate a metric name against the registry's `qtaccel_*`
/// contract so a hostile frame surfaces as a typed refusal instead of a
/// registry assertion panic.
fn valid_metric_name(name: &str, is_counter: bool) -> bool {
    name.starts_with("qtaccel_") && snake_case(name) && (!is_counter || name.ends_with("_total"))
}

/// A decoded counter or histogram count, refused at or past
/// [`frame::COUNTER_LIMIT`] as checkpoints refuse it: no honest run
/// reaches it, and a forged one would overflow the next merge.
fn bounded_count(v: u64) -> Result<u64, WireError> {
    if v < frame::COUNTER_LIMIT {
        Ok(v)
    } else {
        Err(WireError::BadPayload(format!(
            "count {v} at or past the counter limit"
        )))
    }
}

fn take_registry(r: &mut WordReader<'_>) -> Result<MetricsRegistry, WireError> {
    let count = r.take_count(1)?;
    let mut reg = MetricsRegistry::new();
    for _ in 0..count {
        let tag = r.take()?;
        let name = r.take_str()?;
        let help = r.take_str()?;
        if !valid_metric_name(&name, tag == 0) {
            return Err(WireError::BadPayload(format!(
                "metric name `{name}` violates the qtaccel_* scheme"
            )));
        }
        match tag {
            0 => reg.set_counter(&name, &help, bounded_count(r.take()?)?),
            1 => reg.set_gauge(&name, &help, r.take_f64()?),
            2 => {
                let h = take_histogram(r)?;
                reg.set_histogram(&name, &help, &h);
            }
            3 => {
                let pairs = r.take_count(2)?;
                let mut labels = Vec::new();
                for _ in 0..pairs {
                    let k = r.take_str()?;
                    let v = r.take_str()?;
                    if !snake_case(&k) {
                        return Err(WireError::BadPayload(format!(
                            "info label key `{k}` is not snake_case"
                        )));
                    }
                    labels.push((k, v));
                }
                let borrowed: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                reg.set_info(&name, &help, &borrowed);
            }
            other => return Err(WireError::BadPayload(format!("unknown metric tag {other}"))),
        }
    }
    Ok(reg)
}

fn decode_payload(kind: u64, payload: &[u8]) -> Result<FramePayload, WireError> {
    let mut r = WordReader::new(payload);
    let payload = match kind {
        1 => FramePayload::Hello {
            label: r.take_str()?,
        },
        2 => FramePayload::Metrics(take_registry(&mut r)?),
        3 => {
            let count = r.take_count(1)?;
            let mut spans = Vec::new();
            for _ in 0..count {
                let trace = TraceId(r.take()?);
                let id = SpanId(r.take()?);
                let parent_raw = r.take()?;
                let name = r.take_str()?;
                let lane = r.take()?;
                if lane > u32::MAX as u64 {
                    return Err(WireError::BadPayload("span lane exceeds u32".into()));
                }
                let (ordinal, start_ns, end_ns) = (r.take()?, r.take()?, r.take()?);
                if end_ns < start_ns {
                    return Err(WireError::BadPayload("span ends before it starts".into()));
                }
                spans.push(Span {
                    trace,
                    id,
                    parent: if parent_raw == 0 {
                        None
                    } else {
                        Some(SpanId(parent_raw))
                    },
                    name,
                    lane: lane as u32,
                    ordinal,
                    start_ns,
                    end_ns,
                });
            }
            FramePayload::Spans(spans)
        }
        4 => {
            let count = r.take_count(1)?;
            let mut alerts = Vec::new();
            for _ in 0..count {
                let code = r.take()?;
                let rule = WatchdogRule::from_code(code)
                    .ok_or_else(|| WireError::BadPayload(format!("unknown alert code {code}")))?;
                alerts.push(Alert {
                    rule,
                    cycle: r.take()?,
                    sample: r.take()?,
                    value: r.take_f64()?,
                    threshold: r.take_f64()?,
                });
            }
            FramePayload::Alerts(alerts)
        }
        5 => FramePayload::HelloAck {
            capabilities: r.take()?,
            spec_hash: r.take()?,
        },
        6 => FramePayload::Lease {
            lease: r.take()?,
            epoch: r.take()?,
            budget: r.take()?,
            checkpoint_every: r.take()?,
        },
        7 => FramePayload::Progress {
            lease: r.take()?,
            epoch: r.take()?,
            samples: r.take()?,
        },
        8 => FramePayload::Heartbeat { nonce: r.take()? },
        9 => FramePayload::LeaseDone {
            lease: r.take()?,
            epoch: r.take()?,
            samples: r.take()?,
            delta: take_registry(&mut r)?,
        },
        10 => {
            let reason = r.take()?;
            if reason > goodbye_reason::SHUTDOWN {
                return Err(WireError::BadPayload(format!(
                    "unknown goodbye reason {reason}"
                )));
            }
            FramePayload::Goodbye { reason }
        }
        other => return Err(WireError::BadKind { found: other }),
    };
    r.finish()?;
    Ok(payload)
}

/// Incremental frame decoder: feed bytes as they arrive off a socket
/// ([`push`](Self::push)), pull complete frames out
/// ([`next_frame`](Self::next_frame)). Header words are validated as
/// soon as they are in — garbage is refused before its declared payload
/// is ever buffered — and a frame decodes only when every one of its
/// bytes (including the CRC trailer) has arrived, so interleaved
/// partial writes reassemble exactly.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the buffer sits exactly at a frame boundary — at stream
    /// end, `false` means the peer died mid-frame ([`WireError::Truncated`]).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Decode the next complete frame, if the buffer holds one.
    /// `Ok(None)` means "need more bytes". An error is a refusal of the
    /// stream — the caller should drop the connection; nothing from the
    /// bad frame has been surfaced.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let word = |i: usize| frame::word(&self.buf, i);
        // Validate header words as soon as each arrives.
        let have = self.buf.len() / 8;
        if have >= 1 && word(0) != MAGIC {
            return Err(WireError::BadMagic);
        }
        if have >= 2 && word(1) != VERSION {
            return Err(WireError::BadVersion { found: word(1) });
        }
        if have >= 3 && !(1..=10).contains(&word(2)) {
            return Err(WireError::BadKind { found: word(2) });
        }
        if have < HEADER_WORDS {
            return Ok(None);
        }
        let payload_words = word(5);
        if payload_words == 0 {
            return Err(WireError::EmptyPayload);
        }
        if payload_words > MAX_PAYLOAD_WORDS {
            return Err(WireError::Oversized {
                words: payload_words,
            });
        }
        let total = (HEADER_WORDS + payload_words as usize + 1) * 8;
        if self.buf.len() < total {
            return Ok(None);
        }
        if !frame::crc_ok(&self.buf[..total]) {
            return Err(WireError::BadCrc);
        }
        let frame = Frame {
            worker: word(3),
            seq: word(4),
            payload: decode_payload(word(2), &self.buf[HEADER_WORDS * 8..total - 8])?,
        };
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

/// The delta between two registry snapshots, encodable as a
/// [`FramePayload::Metrics`] frame: counters and histograms subtract
/// (`cur − prev`), gauges and info carry `cur`'s value (they are
/// last-write-wins at the collector). Sending deltas makes the
/// collector's counter merge associative: the merged total is exactly
/// the sum of every delta ever received, regardless of arrival order.
///
/// `prev` must be an earlier snapshot of the same registry (counters
/// monotonic, histogram buckets monotonic); a regressed counter is a
/// caller bug and panics in debug via the subtraction underflow guard.
pub fn registry_delta(prev: &MetricsRegistry, cur: &MetricsRegistry) -> MetricsRegistry {
    let mut delta = MetricsRegistry::new();
    for (name, help, value) in cur.iter() {
        match (value, prev.get(name)) {
            (MetricValue::Counter(c), Some(MetricValue::Counter(p))) => {
                delta.set_counter(name, help, c.saturating_sub(*p));
            }
            (MetricValue::Counter(c), _) => delta.set_counter(name, help, *c),
            (MetricValue::Gauge(g), _) => delta.set_gauge(name, help, *g),
            (MetricValue::Histogram(h), Some(MetricValue::Histogram(p))) => {
                let mut buckets = *h.bucket_counts();
                for (b, o) in buckets.iter_mut().zip(p.bucket_counts()) {
                    *b = b.saturating_sub(*o);
                }
                let d = Histogram::from_parts(
                    buckets,
                    h.count().saturating_sub(p.count()),
                    h.sum().saturating_sub(p.sum()),
                    h.max(),
                );
                delta.set_histogram(name, help, &d);
            }
            (MetricValue::Histogram(h), _) => delta.set_histogram(name, help, h),
            (MetricValue::Info(labels), _) => {
                let borrowed: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                delta.set_info(name, help, &borrowed);
            }
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.set_counter("qtaccel_samples_total", "samples", 1234);
        r.set_gauge("qtaccel_executor_queue_depth", "depth", 2.5);
        for v in [3u64, 9, 1000] {
            r.observe("qtaccel_executor_chunk_service_ns", "svc", v);
        }
        r.set_info(
            "qtaccel_build_info",
            "prov",
            &[("seed", "7"), ("format", "Q8.8")],
        );
        r
    }

    fn sample_spans() -> Vec<Span> {
        let trace = TraceId::derive(9, 0);
        let root = SpanId::derive(trace, None, "train_batch", 0, 100);
        vec![
            Span {
                trace,
                id: root,
                parent: None,
                name: "train_batch".into(),
                lane: 0,
                ordinal: 100,
                start_ns: 10,
                end_ns: 900,
            },
            Span {
                trace,
                id: SpanId::derive(trace, Some(root), "chunk", 1, 0),
                parent: Some(root),
                name: "chunk".into(),
                lane: 1,
                ordinal: 0,
                start_ns: 20,
                end_ns: 500,
            },
        ]
    }

    /// Rewrite a tampered frame's CRC word, so a check past the CRC is
    /// reached.
    fn restamp(bytes: &mut [u8]) {
        let tail = bytes.len() - 8;
        let crc = frame::crc32(&bytes[..tail]) as u64;
        bytes[tail..].copy_from_slice(&crc.to_le_bytes());
    }

    /// One payload of every kind, in kind order (1 through 10).
    fn one_payload_per_kind() -> Vec<FramePayload> {
        vec![
            FramePayload::Hello {
                label: "worker-3".into(),
            },
            FramePayload::Metrics(sample_registry()),
            FramePayload::Spans(sample_spans()),
            FramePayload::Alerts(vec![Alert {
                rule: WatchdogRule::Divergence,
                cycle: 5,
                sample: 10,
                value: 14.5,
                threshold: 13.0,
            }]),
            FramePayload::HelloAck {
                capabilities: CAP_LEASE_V1,
                spec_hash: 0xDEAD_BEEF_CAFE_F00D,
            },
            FramePayload::Lease {
                lease: 3,
                epoch: 2,
                budget: 250_000,
                checkpoint_every: 65_536,
            },
            FramePayload::Progress {
                lease: 3,
                epoch: 2,
                samples: 131_072,
            },
            FramePayload::Heartbeat { nonce: 41 },
            FramePayload::LeaseDone {
                lease: 3,
                epoch: 2,
                samples: 250_000,
                delta: sample_registry(),
            },
            FramePayload::Goodbye {
                reason: goodbye_reason::REFUSED,
            },
        ]
    }

    #[test]
    fn every_payload_kind_round_trips() {
        for (i, payload) in one_payload_per_kind().into_iter().take(4).enumerate() {
            let frame = Frame {
                worker: 7,
                seq: i as u64,
                payload,
            };
            let decoded = Frame::decode(&frame.encode()).expect("round trip");
            assert_eq!(decoded, frame, "payload {i}");
        }
    }

    #[test]
    fn every_cluster_control_kind_round_trips() {
        for (i, payload) in one_payload_per_kind().into_iter().skip(4).enumerate() {
            let kind = payload.kind();
            assert_eq!(kind, 5 + i as u64, "kind words stay contiguous");
            let frame = Frame {
                worker: 9,
                seq: i as u64,
                payload,
            };
            let decoded = Frame::decode(&frame.encode()).expect("round trip");
            assert_eq!(decoded, frame, "cluster kind {kind}");
        }
    }

    #[test]
    fn every_kind_encodes_to_its_pinned_bytes() {
        // (words, CRC trailer word) of each kind's frame, as the format's
        // first encoder wrote them: the trailer checksums every byte
        // before it, so a match pins the whole encoding.
        const PINS: [(usize, u64); 10] = [
            (9, 0x11C0_F4CC),
            (118, 0xB315_D8EB),
            (27, 0xE87C_F0C5),
            (13, 0x898A_E7D3),
            (9, 0xB4BA_85B5),
            (11, 0x43BE_127E),
            (10, 0x5066_75B1),
            (8, 0x9C2D_3B12),
            (121, 0x742E_8D0B),
            (8, 0xEA7D_AC31),
        ];
        for (payload, pin) in one_payload_per_kind().into_iter().zip(PINS) {
            let kind = payload.kind();
            let bytes = Frame {
                worker: 5,
                seq: kind,
                payload,
            }
            .encode();
            let crc = frame::word(&bytes, bytes.len() / 8 - 1);
            assert_eq!((bytes.len() / 8, crc), pin, "kind {kind}");
        }
    }

    #[test]
    fn counters_and_histogram_counts_stop_below_the_counter_limit() {
        // CRC-valid metrics frames: only the payload bound can refuse.
        let decode = |reg: &MetricsRegistry| {
            let frame = Frame {
                worker: 2,
                seq: 0,
                payload: FramePayload::Metrics(reg.clone()),
            };
            Frame::decode(&frame.encode()).map(|f| f.payload)
        };
        let limit = frame::COUNTER_LIMIT;
        for v in [limit - 1, limit] {
            let mut counter = MetricsRegistry::new();
            counter.set_counter("qtaccel_samples_total", "samples", v);
            let mut buckets = [0u64; Histogram::BUCKETS];
            buckets[3] = v;
            let mut histogram = MetricsRegistry::new();
            histogram.set_histogram(
                "qtaccel_executor_chunk_service_ns",
                "svc",
                &Histogram::from_parts(buckets, v, 0, 5),
            );
            for reg in [counter, histogram] {
                match decode(&reg) {
                    Ok(FramePayload::Metrics(got)) if v < limit => assert_eq!(got, reg),
                    Err(WireError::BadPayload(what)) if v == limit => {
                        assert!(what.contains("counter limit"), "{what}")
                    }
                    other => panic!("{v}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn forged_payload_words_never_panic_the_decoder() {
        // Overwrite each payload word of one frame of every kind with a
        // forged count, length or index and restamp the CRC: the
        // decoder returns a frame or a typed payload refusal, never a
        // panic.
        for payload in one_payload_per_kind() {
            let kind = payload.kind();
            let good = Frame {
                worker: 1,
                seq: 0,
                payload,
            }
            .encode();
            for w in HEADER_WORDS..good.len() / 8 - 1 {
                for forged in [1_000u64, (1 << 63) - 1, u64::MAX] {
                    let mut bad = good.clone();
                    bad[w * 8..w * 8 + 8].copy_from_slice(&forged.to_le_bytes());
                    restamp(&mut bad);
                    match Frame::decode(&bad) {
                        Ok(_) | Err(WireError::BadPayload(_)) => {}
                        Err(e) => panic!("kind {kind}, word {w} = {forged}: {e:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn goodbye_refuses_unknown_reason_codes() {
        let mut bytes = Frame {
            worker: 0,
            seq: 0,
            payload: FramePayload::Goodbye {
                reason: goodbye_reason::COMPLETE,
            },
        }
        .encode();
        // Overwrite the single payload word with a reason nobody speaks,
        // then restamp the CRC so only the payload check can refuse it.
        bytes[HEADER_WORDS * 8..HEADER_WORDS * 8 + 8].copy_from_slice(&99u64.to_le_bytes());
        restamp(&mut bytes);
        match Frame::decode(&bytes) {
            Err(WireError::BadPayload(what)) => assert!(what.contains("goodbye reason")),
            other => panic!("expected BadPayload, got {other:?}"),
        }
    }

    #[test]
    fn lease_done_rejects_foreign_metric_names_like_metrics_frames() {
        let mut delta = MetricsRegistry::new();
        delta.set_counter("qtaccel_samples_total", "samples", 7);
        let frame = Frame {
            worker: 1,
            seq: 0,
            payload: FramePayload::LeaseDone {
                lease: 0,
                epoch: 0,
                samples: 7,
                delta,
            },
        };
        let mut bytes = frame.encode();
        // Corrupt the first byte of the metric name ("qtaccel_..." lives
        // after lease/epoch/samples + registry count + tag + name length).
        let name_offset = (HEADER_WORDS + 3 + 1 + 1 + 1) * 8;
        bytes[name_offset] = b'z';
        restamp(&mut bytes);
        match Frame::decode(&bytes) {
            Err(WireError::BadPayload(what)) => assert!(what.contains("qtaccel_")),
            other => panic!("expected BadPayload, got {other:?}"),
        }
    }

    #[test]
    fn metrics_delta_is_exact_and_merges_back() {
        let prev = {
            let mut r = MetricsRegistry::new();
            r.set_counter("qtaccel_samples_total", "samples", 1000);
            for v in [3u64, 9] {
                r.observe("qtaccel_executor_chunk_service_ns", "svc", v);
            }
            r
        };
        let cur = sample_registry();
        let delta = registry_delta(&prev, &cur);
        assert_eq!(
            delta.get("qtaccel_samples_total"),
            Some(&MetricValue::Counter(234))
        );
        // prev ⊕ delta == cur for the additive kinds.
        let mut rebuilt = prev.clone();
        rebuilt
            .merge(&delta)
            .expect("a delta merges back onto its base");
        assert_eq!(
            rebuilt.get("qtaccel_samples_total"),
            cur.get("qtaccel_samples_total")
        );
        match (
            rebuilt.get("qtaccel_executor_chunk_service_ns"),
            cur.get("qtaccel_executor_chunk_service_ns"),
        ) {
            (Some(MetricValue::Histogram(a)), Some(MetricValue::Histogram(b))) => {
                assert_eq!(a.bucket_counts(), b.bucket_counts());
                assert_eq!(a.count(), b.count());
                assert_eq!(a.sum(), b.sum());
            }
            other => panic!("expected histograms, got {other:?}"),
        }
    }

    #[test]
    fn reader_reassembles_interleaved_partial_writes() {
        let a = Frame {
            worker: 1,
            seq: 0,
            payload: FramePayload::Hello { label: "a".into() },
        }
        .encode();
        let b = Frame {
            worker: 1,
            seq: 1,
            payload: FramePayload::Spans(sample_spans()),
        }
        .encode();
        let stream: Vec<u8> = a.iter().chain(&b).copied().collect();
        // Feed the stream one byte at a time: exactly two frames emerge.
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        for &byte in &stream {
            reader.push(&[byte]);
            while let Some(f) = reader.next_frame().expect("clean stream") {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].seq, 1);
        assert!(reader.is_empty(), "stream ends on a frame boundary");
    }

    #[test]
    fn decoder_refuses_bad_headers_before_buffering_payload() {
        let good = Frame {
            worker: 0,
            seq: 0,
            payload: FramePayload::Hello { label: "x".into() },
        }
        .encode();
        // Bad magic is refused from the first 8 bytes alone.
        let mut reader = FrameReader::new();
        reader.push(b"NOTMAGIC");
        assert!(matches!(reader.next_frame(), Err(WireError::BadMagic)));
        // Oversized declaration is refused at the header, without the
        // payload ever arriving.
        let mut huge = good.clone();
        huge[40..48].copy_from_slice(&(MAX_PAYLOAD_WORDS + 1).to_le_bytes());
        let mut reader = FrameReader::new();
        reader.push(&huge[..48]);
        assert!(matches!(
            reader.next_frame(),
            Err(WireError::Oversized { .. })
        ));
    }
}
