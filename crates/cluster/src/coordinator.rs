//! The supervising coordinator.
//!
//! An accept thread and one thread per worker session, all thin adapters
//! over the crate's pure lease table (`lease.rs`, which states the
//! fencing and exactly-once rules). A session's thread feeds the table
//! its frames, polls its socket every 20 ms (`POLL`) and on each quiet tick
//! expires overdue leases, and on its one exit path releases whatever
//! the session still holds. So every held lease has a live thread
//! watching its deadline. Because
//! each accepted `LeaseDone` delta is the lease's whole contribution
//! and merges once, the merged `qtaccel_samples_total` equals the spec
//! budget exactly, however many workers died on the way.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qtaccel_telemetry::wire::{goodbye_reason, CAP_LEASE_V1};
use qtaccel_telemetry::{FramePayload, MetricsRegistry, WireClient, WireError};

use crate::lease::{Handout, LeaseTable, Reply};
use crate::spec::ClusterSpec;

/// How often connection threads poll their socket, and so how often a
/// quiet session's thread checks lease deadlines.
const POLL: Duration = Duration::from_millis(20);

/// Supervision knobs. Defaults suit an interactive localhost cluster;
/// tests shrink the timeout to force the deadline path quickly.
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// A lease whose holder sends neither progress nor heartbeat for
    /// this long is declared dead and its lease released for
    /// reassignment.
    pub heartbeat_timeout: Duration,
    /// How long a freshly accepted connection may take to send `Hello`.
    pub handshake_timeout: Duration,
    /// Retry budget per lease: more reassignments than this marks the
    /// run failed (a poisoned shard must not spin forever).
    pub max_reassignments: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_millis(1_000),
            handshake_timeout: Duration::from_secs(5),
            max_reassignments: 32,
        }
    }
}

/// A point-in-time public view of the run (cloned out of the lock).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStatus {
    /// Per-lease `(epoch, latest progress, done?)`.
    pub leases: Vec<(u64, u64, bool)>,
    /// Completed leases.
    pub done: usize,
    /// All leases completed and merged.
    pub complete: bool,
    /// A lease exhausted its reassignment budget; the run aborted.
    pub failed: bool,
    /// Sessions that got past the handshake.
    pub workers_connected: u64,
    /// Death events (deadline expiry, or a session that ended while
    /// holding a lease).
    pub workers_presumed_dead: u64,
    /// Deaths detected specifically by heartbeat-deadline expiry.
    pub deadline_expirations: u64,
    /// Leases released for reassignment after a death.
    pub leases_reassigned: u64,
    /// Frames refused: not from the lease's holder at its epoch, a
    /// completion short of the budget or whose delta cannot merge, or a
    /// protocol violation.
    pub refused_frames: u64,
    /// Wire decode failures (torn frames, bad CRC, garbage).
    pub decode_errors: u64,
    /// Death-detection → first-accepted-replacement-frame latencies.
    pub recovery_ms: Vec<f64>,
}

/// The supervising coordinator: owns the listener and the lease table.
/// Dropping it stops every thread.
pub struct Coordinator {
    addr: SocketAddr,
    table: Arc<Mutex<LeaseTable>>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// Lock the table. Every table call does its only fallible arithmetic
/// (deadline = now + timeout) before it mutates anything, so even a
/// poisoned lock's data is consistent.
fn lock(table: &Mutex<LeaseTable>) -> MutexGuard<'_, LeaseTable> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Coordinator {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start supervising the
    /// spec's leases. Workers may connect immediately.
    pub fn serve(spec: &ClusterSpec, cfg: CoordinatorConfig, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let table = Arc::new(Mutex::new(LeaseTable::new(spec.budgets(), cfg)));
        let stop = Arc::new(AtomicBool::new(false));
        let spec = *spec;

        let accept = {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut next_conn: u64 = 1;
                for incoming in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = match incoming {
                        Ok(s) => s,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    };
                    let conn = next_conn;
                    next_conn += 1;
                    let table = Arc::clone(&table);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        if let Ok(mut session) = WireClient::from_stream(stream, 0) {
                            serve_session(&mut session, conn, &table, &stop, cfg, &spec);
                        }
                        // The one exit path: whatever the session still
                        // holds goes back to the pool, epoch bumped.
                        lock(&table).exit(conn, Instant::now());
                    });
                }
            })
        };

        Ok(Self {
            addr: local,
            table,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address workers should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current run status (cloned snapshot).
    pub fn status(&self) -> ClusterStatus {
        lock(&self.table).status()
    }

    /// Block until every lease is done (true) or `timeout` elapses or
    /// the run fails (false either way — check [`Coordinator::status`]).
    pub fn wait_complete(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let (complete, failed) = {
                let table = lock(&self.table);
                (table.complete(), table.counts.failed)
            };
            if complete || failed || Instant::now() > deadline {
                return complete;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The exactly-once merged registry across every accepted lease.
    pub fn merged_registry(&self) -> MetricsRegistry {
        lock(&self.table).merged.clone()
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connection threads observe `stop` within one POLL tick and
        // exit on their own; they hold only Arc clones.
    }
}

/// Serve session `conn` until the peer disconnects, violates the
/// protocol, the run ends, or the coordinator stops.
fn serve_session(
    session: &mut WireClient,
    conn: u64,
    table: &Mutex<LeaseTable>,
    stop: &AtomicBool,
    cfg: CoordinatorConfig,
    spec: &ClusterSpec,
) {
    // Handshake: the first frame must be Hello.
    let hello_deadline = Instant::now() + cfg.handshake_timeout;
    loop {
        match session.recv_timeout(POLL) {
            Ok(Some(frame)) if matches!(frame.payload, FramePayload::Hello { .. }) => break,
            Ok(Some(_)) => {
                lock(table).counts.refused_frames += 1;
                return goodbye(session, goodbye_reason::REFUSED);
            }
            Ok(None) => {
                if stop.load(Ordering::SeqCst) || Instant::now() > hello_deadline {
                    return;
                }
            }
            Err(e) => return count_wire_error(table, &e),
        }
    }
    lock(table).counts.workers_connected += 1;
    let ack = FramePayload::HelloAck {
        capabilities: CAP_LEASE_V1,
        spec_hash: spec.hash(),
    };
    if session.send(ack).is_err() {
        return;
    }

    loop {
        if stop.load(Ordering::SeqCst) {
            return goodbye(session, goodbye_reason::SHUTDOWN);
        }
        let handout = lock(table).assign(conn, Instant::now());
        match handout {
            Handout::Assign {
                lease,
                epoch,
                budget,
            } => {
                let frame = FramePayload::Lease {
                    lease,
                    epoch,
                    budget,
                    checkpoint_every: spec.checkpoint_every,
                };
                if session.send(frame).is_err() {
                    return;
                }
            }
            Handout::Complete => return goodbye(session, goodbye_reason::COMPLETE),
            Handout::Failed => return goodbye(session, goodbye_reason::SHUTDOWN),
            Handout::Wait => {}
        }
        match session.recv_timeout(POLL) {
            Ok(Some(frame)) => match lock(table).on_frame(conn, frame.payload, Instant::now()) {
                Reply::Continue => {}
                Reply::Refuse => return goodbye(session, goodbye_reason::REFUSED),
                Reply::Close => return,
            },
            Ok(None) => lock(table).expire(Instant::now()),
            Err(e) => return count_wire_error(table, &e),
        }
    }
}

fn count_wire_error(table: &Mutex<LeaseTable>, e: &WireError) {
    // A clean close at a frame boundary is a disconnect, not a decode
    // failure; everything else (torn frame, bad CRC, garbage) counts.
    let clean_eof =
        matches!(e, WireError::Io(io) if io.kind() == std::io::ErrorKind::UnexpectedEof);
    if !clean_eof {
        lock(table).counts.decode_errors += 1;
    }
}

fn goodbye(session: &mut WireClient, reason: u64) {
    let _ = session.send(FramePayload::Goodbye { reason });
}
