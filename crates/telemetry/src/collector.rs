//! The merging telemetry collector (DESIGN.md §2.15) — the crate's one
//! HTTP scrape endpoint.
//!
//! One [`Collector`] terminates N concurrent worker connections. A
//! connection speaks either protocol on the same port — the first eight
//! bytes are peeked and dispatched on the wire [`MAGIC`] word:
//!
//! * **Wire connections** stream [`Frame`]s (hello / metric deltas /
//!   span batches / alerts), read through [`WireClient::recv_timeout`],
//!   the endpoint every framed socket in the workspace goes through.
//!   Every accepted frame merges atomically into the collector state; a
//!   frame that fails to decode is a *typed refusal* — the connection is
//!   dropped, `decode_errors` increments, and nothing from the bad
//!   frame is surfaced (no silent partial merge).
//! * **HTTP connections** get the merged registry as OpenMetrics text.
//!   Reads and writes carry an [`IO_TIMEOUT`] deadline, and a request
//!   head larger than [`MAX_REQUEST_BYTES`] is answered with `431`
//!   instead of being buffered without bound.
//!
//! A collector with no upstreams is a plain scrape endpoint: the owning
//! process publishes its own numbers through [`Collector::update`], and
//! every scrape serves them.
//!
//! Merging is associative: counters add, histograms bucket-merge,
//! gauges and info are last-write-wins, and spans/alerts are tagged by
//! the worker id that sent them. Because workers send *deltas*
//! ([`registry_delta`](crate::wire::registry_delta)), the merged
//! counter total is exactly the sum of every delta ever received,
//! independent of arrival order — bit-identical to a single-process
//! merge of the same per-worker registries.
//!
//! [`Collector::perfetto_trace`] renders everything as one multi-process
//! Chrome trace document: one Perfetto *process* track per worker
//! (named by its hello label), one thread track per span lane, plus a
//! watchdog instant track — so a distributed batch reads like a single
//! timeline at <https://ui.perfetto.dev>.

use crate::export::{encode_openmetrics, instant, slice, trace_document, track_name};
use crate::health::Alert;
use crate::histogram::{MergeError, MetricsRegistry};
use crate::json::Json;
use crate::lock_unpoisoned;
use crate::span::Span;
use crate::wire::{Frame, FramePayload, FrameReader, WireError, MAGIC};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Poll granularity for wire-connection reads: long enough to idle
/// cheaply, short enough that shutdown (and a stop-flag check) is never
/// more than one interval away.
const WIRE_POLL: Duration = Duration::from_millis(200);

/// Per-connection socket deadline for HTTP scrapes, on both the request
/// read and the response write.
pub const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// Largest request head a scrape may send before it is answered `431` —
/// scrape requests are one line plus a few headers.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Everything the collector has accepted from one worker, tagged by the
/// worker id the frames carried.
#[derive(Debug, Clone)]
pub struct WorkerView {
    /// The sender-chosen worker id (the merge key).
    pub id: u64,
    /// The label from the worker's hello frame (its Perfetto process
    /// name); empty until a hello arrives.
    pub label: String,
    /// Frames accepted from this worker.
    pub frames: u64,
    /// Highest sequence number seen from this worker.
    pub last_seq: u64,
    /// Spans this worker shipped, in arrival order.
    pub spans: Vec<Span>,
    /// Watchdog alerts this worker shipped, in arrival order.
    pub alerts: Vec<Alert>,
}

#[derive(Default)]
struct CollectorState {
    registry: MetricsRegistry,
    workers: Vec<WorkerView>,
    frames_total: u64,
    decode_errors: u64,
}

impl CollectorState {
    fn worker_mut(&mut self, id: u64) -> &mut WorkerView {
        if let Some(i) = self.workers.iter().position(|w| w.id == id) {
            return &mut self.workers[i];
        }
        self.workers.push(WorkerView {
            id,
            label: String::new(),
            frames: 0,
            last_seq: 0,
            spans: Vec::new(),
            alerts: Vec::new(),
        });
        self.workers.last_mut().expect("just pushed")
    }

    /// Fold one decoded frame in. All-or-nothing: a metrics delta that
    /// changes a metric's kind or overflows a count is refused by the
    /// registry merge before any collector state changes.
    fn merge_frame(&mut self, frame: Frame) -> Result<(), MergeError> {
        if let FramePayload::Metrics(delta) = &frame.payload {
            self.registry.merge(delta)?;
        }
        let worker = self.worker_mut(frame.worker);
        worker.frames += 1;
        worker.last_seq = worker.last_seq.max(frame.seq);
        match frame.payload {
            FramePayload::Hello { label } => worker.label = label,
            FramePayload::Spans(mut spans) => worker.spans.append(&mut spans),
            FramePayload::Alerts(mut alerts) => worker.alerts.append(&mut alerts),
            // Merged above.
            FramePayload::Metrics(_) => {}
            // Cluster control frames (kinds 5–10) are coordinator/worker
            // session state, not collector telemetry: a collector that
            // receives one accepts and accounts it (the stream stays
            // healthy) but merges nothing.
            FramePayload::HelloAck { .. }
            | FramePayload::Lease { .. }
            | FramePayload::Progress { .. }
            | FramePayload::Heartbeat { .. }
            | FramePayload::LeaseDone { .. }
            | FramePayload::Goodbye { .. } => {}
        }
        self.frames_total += 1;
        Ok(())
    }

    /// The merged registry plus the collector's own meta-metrics — what
    /// an HTTP scrape serves.
    fn scrape_registry(&self) -> MetricsRegistry {
        let mut reg = self.registry.clone();
        reg.set_gauge(
            "qtaccel_collector_workers",
            "distinct worker ids the collector has accepted frames from",
            self.workers.len() as f64,
        );
        reg.set_counter(
            "qtaccel_collector_frames_total",
            "wire frames accepted and merged",
            self.frames_total,
        );
        reg.set_counter(
            "qtaccel_collector_decode_errors_total",
            "wire frames or streams refused by the strict decoder",
            self.decode_errors,
        );
        reg.set_counter(
            "qtaccel_collector_spans_total",
            "spans received across all workers",
            self.workers.iter().map(|w| w.spans.len() as u64).sum(),
        );
        reg
    }
}

/// A TCP collector accepting N concurrent worker streams and serving
/// their merged telemetry. See the module docs for the protocol split.
pub struct Collector {
    addr: SocketAddr,
    state: Arc<Mutex<CollectorState>>,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Join and drop the handles of connection threads that have exited. A
/// finished thread that is never joined keeps its stack mapped, so a
/// long-lived collector reaps on every accept.
fn reap_finished(handles: &mut Vec<JoinHandle<()>>) {
    for done in handles.extract_if(.., |h| h.is_finished()) {
        let _ = done.join();
    }
}

impl Collector {
    /// Bind `addr` (use `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting worker and scrape connections.
    pub fn serve(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let state = Arc::new(Mutex::new(CollectorState::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let (state_t, stop_t, handles_t) = (
            Arc::clone(&state),
            Arc::clone(&stop),
            Arc::clone(&conn_handles),
        );
        let accept_handle = std::thread::Builder::new()
            .name("qtaccel-collector".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_t.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let (state_c, stop_c) = (Arc::clone(&state_t), Arc::clone(&stop_t));
                    let handle = std::thread::Builder::new()
                        .name("qtaccel-collector-conn".into())
                        .spawn(move || serve_connection(stream, state_c, stop_c));
                    let mut handles = lock_unpoisoned(&handles_t);
                    reap_finished(&mut handles);
                    if let Ok(h) = handle {
                        handles.push(h);
                    }
                }
            })?;
        Ok(Self {
            addr: local,
            state,
            stop,
            accept_handle: Some(accept_handle),
            conn_handles,
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Frames accepted and merged so far.
    pub fn frames_total(&self) -> u64 {
        lock_unpoisoned(&self.state).frames_total
    }

    /// Frames or streams refused by the strict decoder so far.
    pub fn decode_errors(&self) -> u64 {
        lock_unpoisoned(&self.state).decode_errors
    }

    /// Distinct worker ids seen so far.
    pub fn workers(&self) -> usize {
        lock_unpoisoned(&self.state).workers.len()
    }

    /// A snapshot of every worker's accepted telemetry, sorted by
    /// worker id.
    pub fn worker_views(&self) -> Vec<WorkerView> {
        let mut views = lock_unpoisoned(&self.state).workers.clone();
        views.sort_by_key(|w| w.id);
        views
    }

    /// A snapshot of the merged metrics registry (deltas folded in, no
    /// collector meta-metrics — this is the value that must be
    /// bit-identical to a single-process merge).
    pub fn merged_registry(&self) -> MetricsRegistry {
        lock_unpoisoned(&self.state).registry.clone()
    }

    /// Mutate the merged registry under the collector lock: how the
    /// owning process publishes its own metrics. Scrapes between updates
    /// see the previous snapshot.
    pub fn update<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut lock_unpoisoned(&self.state).registry)
    }

    /// Render every worker's spans and alerts as one multi-process
    /// Chrome trace document (Perfetto-loadable).
    ///
    /// Each worker becomes a process track (`pid = id + 1`, since pid 0
    /// renders poorly) named by its hello label; each span lane becomes
    /// a thread track; alerts land on a dedicated `watchdog` track.
    /// Span timestamps map one monotonic nanosecond to one trace
    /// microsecond — an integer-exact mapping, so per-track ts order is
    /// preserved exactly; alert instants use their cycle stamp on their
    /// own track. Events within every `(pid, tid)` track are sorted
    /// non-decreasing in ts, which is what the strict verify gate
    /// re-checks after a round-trip parse.
    pub fn perfetto_trace(&self) -> Json {
        let views = self.worker_views();
        let mut events: Vec<Json> = Vec::new();
        const WATCHDOG_TID: u64 = 1 << 20; // clear of any real lane (u32)
        for view in &views {
            let pid = view.id + 1;
            let label = if view.label.is_empty() {
                format!("worker-{}", view.id)
            } else {
                view.label.clone()
            };
            events.push(track_name("process_name", pid, 0, label));
            let mut lanes: Vec<u64> = view.spans.iter().map(|s| s.lane as u64).collect();
            lanes.sort_unstable();
            lanes.dedup();
            for lane in lanes {
                events.push(track_name("thread_name", pid, lane, format!("lane-{lane}")));
            }
            if !view.alerts.is_empty() {
                let watchdog = "watchdog".to_string();
                events.push(track_name("thread_name", pid, WATCHDOG_TID, watchdog));
            }
            let mut spans = view.spans.clone();
            spans.sort_by_key(|s| (s.lane, s.start_ns, s.ordinal));
            for s in &spans {
                let args = vec![
                    ("trace", Json::UInt(s.trace.0)),
                    ("span", Json::UInt(s.id.0)),
                    ("parent", Json::UInt(s.parent.map_or(0, |p| p.0))),
                    ("ordinal", Json::UInt(s.ordinal)),
                ];
                let (lane, start, dur) = (s.lane as u64, s.start_ns, s.duration_ns());
                events.push(slice(pid, lane, start, dur, s.name.clone(), "span", args));
            }
            let mut alerts = view.alerts.clone();
            alerts.sort_by_key(|a| a.cycle);
            for a in &alerts {
                let args = vec![
                    ("sample", Json::UInt(a.sample)),
                    ("value", Json::Num(a.value)),
                    ("threshold", Json::Num(a.threshold)),
                ];
                let name = format!("watchdog_{}", a.rule.name());
                events.push(instant(pid, WATCHDOG_TID, a.cycle, name, "alert", args));
            }
        }
        trace_document(events)
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *lock_unpoisoned(&self.conn_handles));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Sniff the protocol (without consuming bytes) and dispatch.
fn serve_connection(stream: TcpStream, state: Arc<Mutex<CollectorState>>, stop: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(WIRE_POLL));
    let mut first = [0u8; 8];
    // peek() does not consume, so the dispatched handler reads the full
    // stream from its first byte. Short peeks retry until eight bytes
    // are buffered or the peer goes quiet (then: treat as HTTP, whose
    // own head-reader copes with anything).
    let mut is_wire = false;
    for _ in 0..25 {
        match stream.peek(&mut first) {
            Ok(n) if n >= 8 => {
                is_wire = u64::from_le_bytes(first) == MAGIC;
                break;
            }
            Ok(0) => return, // peer closed before saying anything
            Ok(_) => continue,
            // EINTR is a retry, not a failure — a signal (SIGCHLD from a
            // reaped worker, say) landing mid-peek must not drop the
            // connection.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    if !is_wire {
        serve_http(stream, &state);
        return;
    }
    // Drain one worker's frame stream until EOF, shutdown, or a refusal.
    let Ok(mut wire) = WireClient::from_stream(stream, 0) else {
        return;
    };
    while !stop.load(Ordering::SeqCst) {
        match wire.recv_timeout(WIRE_POLL) {
            Ok(Some(frame)) => {
                let mut st = lock_unpoisoned(&state);
                if st.merge_frame(frame).is_err() {
                    st.decode_errors += 1;
                    return; // refuse the rest of the stream
                }
            }
            Ok(None) => {}
            // EOF on a frame boundary, or a socket failure: the stream
            // ended without a bad frame.
            Err(WireError::Io(_)) => return,
            // A decode refusal, or EOF mid-frame (a peer that died
            // mid-write): count it, drop the connection, merge nothing
            // from the frame.
            Err(_) => {
                lock_unpoisoned(&state).decode_errors += 1;
                return;
            }
        }
    }
}

/// How draining one request head went.
enum RequestHead {
    /// The blank line arrived: a complete (enough) HTTP request.
    Complete,
    /// The client streamed past [`MAX_REQUEST_BYTES`] without one.
    TooLarge,
    /// The client stalled ([`IO_TIMEOUT`]) or hung up first.
    Stalled,
}

/// Drain the request head until its terminating blank line, the size
/// cap, or the socket deadline — whichever comes first.
fn read_request_head(stream: &mut TcpStream) -> RequestHead {
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return RequestHead::Stalled,
            Ok(n) => {
                head.extend_from_slice(&chunk[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") {
                    return RequestHead::Complete;
                }
                if head.len() > MAX_REQUEST_BYTES {
                    return RequestHead::TooLarge;
                }
            }
            // EINTR is a retry, not a stalled client.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return RequestHead::Stalled,
        }
    }
}

/// Answer one HTTP scrape with the merged registry: a head over the size
/// cap gets `431`; every other request gets the document, stalled ones
/// best-effort — there is only one resource, and the write deadline
/// bounds the time a dead peer can cost.
fn serve_http(mut stream: TcpStream, state: &Mutex<CollectorState>) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request_head(&mut stream) {
        RequestHead::TooLarge => {
            let msg = "request head too large\n";
            format!(
                "HTTP/1.1 431 Request Header Fields Too Large\r\n\
                 Content-Type: text/plain; charset=utf-8\r\n\
                 Content-Length: {}\r\n\
                 Connection: close\r\n\r\n{msg}",
                msg.len()
            )
        }
        RequestHead::Complete | RequestHead::Stalled => {
            let body = encode_openmetrics(&lock_unpoisoned(state).scrape_registry());
            format!(
                "HTTP/1.1 200 OK\r\n\
                 Content-Type: application/openmetrics-text; version=1.0.0; charset=utf-8\r\n\
                 Content-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            )
        }
    };
    let _ = stream.write_all(response.as_bytes());
}

/// One endpoint of a framed wire session: a TCP connection framing
/// payloads with this endpoint's worker id and a per-connection
/// sequence number. [`connect`](Self::connect) is the worker flavor
/// (dials out and sends the hello); [`from_stream`](Self::from_stream)
/// wraps an accepted connection (the coordinator side of a cluster
/// session). Each [`send`](Self::send) ships one frame;
/// [`recv_timeout`](Self::recv_timeout) pulls the next complete inbound
/// frame through an incremental [`FrameReader`].
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    reader: FrameReader,
    worker: u64,
    seq: u64,
}

impl WireClient {
    /// Connect to a collector, identify as `worker`, and send the hello
    /// frame carrying `label`.
    pub fn connect(addr: impl ToSocketAddrs, worker: u64, label: &str) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        let mut client = Self::from_stream(stream, worker)?;
        client.send(FramePayload::Hello {
            label: label.to_string(),
        })?;
        Ok(client)
    }

    /// Wrap an already-established connection (an accepted coordinator
    /// socket) without sending a hello. `worker` stamps outbound frames.
    pub fn from_stream(stream: TcpStream, worker: u64) -> Result<Self, WireError> {
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        // Frames are small and latency-bound: without this, a frame
        // written while the previous one is unacknowledged waits out the
        // peer's delayed ACK (~40 ms on Linux).
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            worker,
            seq: 0,
        })
    }

    /// Encode and send one frame; returns the sequence number it
    /// carried.
    pub fn send(&mut self, payload: FramePayload) -> Result<u64, WireError> {
        let frame = Frame {
            worker: self.worker,
            seq: self.seq,
            payload,
        };
        self.stream.write_all(&frame.encode())?;
        let seq = self.seq;
        self.seq += 1;
        Ok(seq)
    }

    /// Receive the next complete inbound frame, waiting at most
    /// `timeout`. `Ok(None)` means the timeout elapsed at a quiet
    /// moment; `Err(Truncated)` means the peer closed mid-frame (a torn
    /// write); EOF at a frame boundary surfaces as an
    /// [`WireError::Io`] `UnexpectedEof`. `ErrorKind::Interrupted`
    /// retries; any decode refusal is returned as-is — the caller
    /// should drop the session.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Frame>, WireError> {
        if let Some(frame) = self.reader.next_frame()? {
            return Ok(Some(frame));
        }
        let deadline = std::time::Instant::now() + timeout;
        let mut chunk = [0u8; 4096];
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(remaining))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.reader.is_empty() {
                        WireError::Io(std::io::ErrorKind::UnexpectedEof.into())
                    } else {
                        WireError::Truncated
                    })
                }
                Ok(n) => {
                    self.reader.push(&chunk[..n]);
                    if let Some(frame) = self.reader.next_frame()? {
                        return Ok(Some(frame));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// Clone the underlying socket handle — lets a supervisor thread
    /// call [`TcpStream::shutdown`] to unblock a peer stuck in
    /// [`recv_timeout`](Self::recv_timeout).
    pub fn try_clone_stream(&self) -> std::io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// This client's worker id.
    pub fn worker(&self) -> u64 {
        self.worker
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{CounterBank, CounterId};
    use crate::export::{check_openmetrics, scrape};
    use crate::histogram::MetricValue;
    use crate::json::parse;
    use crate::span::{SpanId, TraceId};
    use crate::wire::registry_delta;

    fn wait_until(collector: &Collector, frames: u64) {
        for _ in 0..200 {
            if collector.frames_total() >= frames {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!(
            "collector stuck at {} frames waiting for {frames}",
            collector.frames_total()
        );
    }

    fn worker_registry(samples: u64) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.set_counter("qtaccel_samples_total", "samples", samples);
        for v in [2u64, 8, 64] {
            r.observe("qtaccel_executor_chunk_service_ns", "svc", v);
        }
        r
    }

    #[test]
    fn collector_merges_deltas_from_concurrent_workers() {
        let collector = Collector::serve("127.0.0.1:0").expect("bind");
        let addr = collector.addr();
        let handles: Vec<_> = (0..3u64)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut client =
                        WireClient::connect(addr, w, &format!("worker-{w}")).expect("connect");
                    // Two delta frames per worker: 100, then +150.
                    let empty = MetricsRegistry::new();
                    let first = worker_registry(100);
                    client
                        .send(FramePayload::Metrics(registry_delta(&empty, &first)))
                        .expect("send first delta");
                    let second = worker_registry(250);
                    client
                        .send(FramePayload::Metrics(registry_delta(&first, &second)))
                        .expect("send second delta");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
        wait_until(&collector, 9); // 3 hellos + 6 metric frames
        assert_eq!(collector.workers(), 3);
        assert_eq!(collector.decode_errors(), 0);
        let merged = collector.merged_registry();
        assert_eq!(
            merged.get("qtaccel_samples_total"),
            Some(&MetricValue::Counter(750)),
            "3 workers × 250 samples, summed exactly"
        );
        // The HTTP side serves the same view, strictly valid.
        let body = scrape(addr).expect("scrape the collector");
        check_openmetrics(&body).expect("strict exposition");
        assert!(body.contains("qtaccel_samples_total 750\n"), "{body}");
        assert!(body.contains("qtaccel_collector_workers 3\n"));
    }

    #[test]
    fn corrupt_stream_is_refused_and_counted_without_partial_merge() {
        let collector = Collector::serve("127.0.0.1:0").expect("bind");
        let mut client = WireClient::connect(collector.addr(), 9, "victim").expect("connect");
        client
            .send(FramePayload::Metrics(worker_registry(10)))
            .expect("good frame");
        wait_until(&collector, 2);
        // Now a corrupt frame: flip a payload bit so the CRC fails.
        let mut bad = Frame {
            worker: 9,
            seq: 2,
            payload: FramePayload::Metrics(worker_registry(99)),
        }
        .encode();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        client.stream.write_all(&bad).expect("send corrupt bytes");
        drop(client);
        for _ in 0..200 {
            if collector.decode_errors() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(collector.decode_errors(), 1, "refusal is counted");
        assert_eq!(
            collector.merged_registry().get("qtaccel_samples_total"),
            Some(&MetricValue::Counter(10)),
            "nothing from the corrupt frame merged"
        );
    }

    #[test]
    fn an_overflowing_delta_is_refused_like_a_bad_crc() {
        let collector = Collector::serve("127.0.0.1:0").expect("bind");
        let mut client = WireClient::connect(collector.addr(), 5, "forger").expect("connect");
        // One frame may carry at most COUNTER_LIMIT - 1, so two frames
        // bring the merged counter to u64::MAX - 5.
        for v in [(1 << 63) - 1, (1 << 63) - 5] {
            let mut huge = MetricsRegistry::new();
            huge.set_counter("qtaccel_samples_total", "samples", v);
            client
                .send(FramePayload::Metrics(huge))
                .expect("huge delta");
        }
        wait_until(&collector, 3);
        // A metric that fits, then the counter that overflows.
        let mut overflowing = MetricsRegistry::new();
        overflowing.observe("qtaccel_executor_chunk_service_ns", "svc", 8);
        overflowing.set_counter("qtaccel_samples_total", "samples", 10);
        client
            .send(FramePayload::Metrics(overflowing))
            .expect("overflowing delta");
        for _ in 0..200 {
            if collector.decode_errors() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(collector.decode_errors(), 1, "refusal is counted");
        assert_eq!(
            collector.frames_total(),
            3,
            "the refused frame is not accepted"
        );
        assert_eq!(
            collector.merged_registry().get("qtaccel_samples_total"),
            Some(&MetricValue::Counter(u64::MAX - 5)),
            "nothing from the overflowing frame merged"
        );
        assert!(
            collector
                .merged_registry()
                .get("qtaccel_executor_chunk_service_ns")
                .is_none(),
            "not even the metric that fit"
        );
    }

    #[test]
    fn torn_write_disconnect_counts_as_decode_error_not_panic() {
        let collector = Collector::serve("127.0.0.1:0").expect("bind");
        let mut client = WireClient::connect(collector.addr(), 4, "torn").expect("connect");
        wait_until(&collector, 1); // the hello landed whole
                                   // Ship exactly half a metrics frame, then die — the collector
                                   // sees EOF with residue in its FrameReader.
        let bytes = Frame {
            worker: 4,
            seq: 1,
            payload: FramePayload::Metrics(worker_registry(50)),
        }
        .encode();
        client
            .stream
            .write_all(&bytes[..bytes.len() / 2])
            .expect("torn write");
        drop(client);
        for _ in 0..200 {
            if collector.decode_errors() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(collector.decode_errors(), 1, "torn write is accounted");
        assert_eq!(
            collector.merged_registry().get("qtaccel_samples_total"),
            None,
            "nothing from the half-frame merged"
        );
    }

    #[test]
    fn wire_client_recv_timeout_reports_quiet_and_torn_peers() {
        // A coordinator/worker pair over a raw socket pair.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let dial = std::thread::spawn(move || TcpStream::connect(addr).expect("dial"));
        let (accepted, _) = listener.accept().expect("accept");
        let dialed = dial.join().expect("dial thread");
        let mut coord = WireClient::from_stream(accepted, 0).expect("coord side");
        let mut worker = WireClient::from_stream(dialed, 7).expect("worker side");
        // Both ends send without Nagle: a small frame must not wait out
        // the peer's delayed ACK.
        assert!(coord.stream.nodelay().expect("coord nodelay"));
        assert!(worker.stream.nodelay().expect("worker nodelay"));
        // Quiet peer: timeout elapses, no error.
        assert!(matches!(
            coord.recv_timeout(Duration::from_millis(20)),
            Ok(None)
        ));
        // A whole frame arrives.
        worker
            .send(FramePayload::Heartbeat { nonce: 3 })
            .expect("send beat");
        let frame = coord
            .recv_timeout(Duration::from_millis(500))
            .expect("recv")
            .expect("frame");
        assert_eq!(frame.worker, 7);
        assert_eq!(frame.payload, FramePayload::Heartbeat { nonce: 3 });
        // Torn write then disconnect: typed Truncated, not a panic.
        let bytes = Frame {
            worker: 7,
            seq: 1,
            payload: FramePayload::Progress {
                lease: 0,
                epoch: 0,
                samples: 9,
            },
        }
        .encode();
        worker
            .stream
            .write_all(&bytes[..bytes.len() - 4])
            .expect("torn write");
        drop(worker);
        assert!(matches!(
            coord.recv_timeout(Duration::from_millis(500)),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn server_serves_scrapes_and_shuts_down() {
        let server = Collector::serve("127.0.0.1:0").expect("bind ephemeral");
        server.update(|reg| {
            let mut bank = CounterBank::new();
            bank.add(CounterId::SamplesRetired, 9);
            reg.record_counter_bank(&bank);
        });
        let body = scrape(server.addr()).expect("scrape");
        check_openmetrics(&body).expect("valid exposition");
        assert!(body.contains("qtaccel_samples_total 9\n"));
        // Second scrape sees an updated snapshot.
        server.update(|reg| reg.set_gauge("qtaccel_live", "live", 1.0));
        let body2 = scrape(server.addr()).expect("second scrape");
        assert!(body2.contains("qtaccel_live 1\n"));
        drop(server); // joins the serving threads, closes the port
    }

    #[test]
    fn slow_and_oversized_clients_cannot_wedge_the_server() {
        let server = Collector::serve("127.0.0.1:0").expect("bind ephemeral");
        server.update(|reg| reg.set_gauge("qtaccel_live", "live", 1.0));

        // A slow-loris client: partial request head, then silence. The
        // read deadline abandons it within IO_TIMEOUT.
        let mut loris = TcpStream::connect(server.addr()).expect("connect");
        loris
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: qt")
            .expect("partial head");

        // A client streaming an unbounded "request": the size cap answers
        // 431 instead of buffering it all.
        let mut hog = TcpStream::connect(server.addr()).expect("connect");
        hog.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let junk = [b'x'; 1024];
        let mut sent = 0;
        while sent <= MAX_REQUEST_BYTES {
            hog.write_all(&junk).expect("stream junk");
            sent += junk.len();
        }
        let mut status = String::new();
        hog.read_to_string(&mut status).expect("read 431");
        assert!(
            status.starts_with("HTTP/1.1 431 "),
            "oversized head must be refused: {status:?}"
        );

        // Behind both of them, a well-behaved scraper is still served
        // promptly (scrape's own 5 s deadline is the proof).
        let body = scrape(server.addr()).expect("scrape behind bad clients");
        check_openmetrics(&body).expect("valid exposition");
        assert!(body.contains("qtaccel_live 1\n"));
        drop(loris);
    }

    #[test]
    fn finished_connection_threads_are_joined_on_accept() {
        let collector = Collector::serve("127.0.0.1:0").expect("bind ephemeral");
        collector.update(|reg| reg.set_gauge("qtaccel_live", "live", 1.0));
        for _ in 0..50 {
            let body = scrape(collector.addr()).expect("scrape");
            assert!(body.contains("qtaccel_live 1\n"));
        }
        // Every accept reaps the threads that have exited, so only the
        // last few connections can still hold a handle.
        let live = lock_unpoisoned(&collector.conn_handles).len();
        assert!(live <= 10, "{live} handles kept after 50 scrapes");
    }

    #[test]
    fn perfetto_export_is_multi_process_and_monotonic() {
        let collector = Collector::serve("127.0.0.1:0").expect("bind");
        let addr = collector.addr();
        for w in 0..2u64 {
            let mut client = WireClient::connect(addr, w, &format!("shard-{w}")).expect("connect");
            let trace = TraceId::derive(7, 0);
            let root = SpanId::derive(trace, None, "train_batch", 0, 100);
            let spans = vec![
                Span {
                    trace,
                    id: root,
                    parent: None,
                    name: "train_batch".into(),
                    lane: 0,
                    ordinal: 100,
                    start_ns: 5,
                    end_ns: 90,
                },
                Span {
                    trace,
                    id: SpanId::derive(trace, Some(root), "chunk", 1, 0),
                    parent: Some(root),
                    name: "chunk".into(),
                    lane: 1,
                    ordinal: 0,
                    start_ns: 10,
                    end_ns: 40,
                },
            ];
            client.send(FramePayload::Spans(spans)).expect("spans");
        }
        wait_until(&collector, 4);
        let doc = collector.perfetto_trace();
        let parsed = parse(&doc.pretty()).expect("strict parse");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // Two process_name tracks with the hello labels.
        let mut process_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        process_names.sort_unstable();
        assert_eq!(process_names, ["shard-0", "shard-1"]);
        // Per-(pid, tid) ts ordering is non-decreasing.
        let mut keyed: Vec<(u64, u64, u64)> = events
            .iter()
            .filter(|e| e.get("ts").is_some())
            .map(|e| {
                (
                    e.get("pid").unwrap().as_u64().unwrap(),
                    e.get("tid").unwrap().as_u64().unwrap(),
                    e.get("ts").unwrap().as_u64().unwrap(),
                )
            })
            .collect();
        keyed.sort_by_key(|&(pid, tid, _)| (pid, tid));
        for pair in keyed.windows(2) {
            if pair[0].0 == pair[1].0 && pair[0].1 == pair[1].1 {
                assert!(pair[0].2 <= pair[1].2, "ts regressed within a track");
            }
        }
    }
}
