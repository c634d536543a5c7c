//! The worker runtime.
//!
//! A worker dials the coordinator with jittered exponential backoff,
//! verifies the spec hash and capability mask from the hello-ack, then
//! serves leases: each lease drives
//! `IndependentPipelines::train_shard_durable` — restore the shard's
//! checkpoint (if any), refuse if the checkpoint was sealed under a
//! newer epoch (we are a zombie), train in chunks, checkpoint durably,
//! and report progress after every chunk. On completion it sends a
//! `LeaseDone` whose delta is the lease's *whole* metric contribution
//! from shard birth, so the coordinator's merge is exactly-once no
//! matter how many half-dead predecessors touched the shard.
//!
//! Chaos modes let the harness turn a worker into each failure the
//! cluster must survive: mid-lease abandonment (death), a stall that
//! forces the heartbeat deadline (partition), and a zombie that replays
//! a completed lease under a stale epoch (fencing).

use std::time::{Duration, Instant};

use qtaccel_accel::LeaseError;
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_telemetry::wire::{goodbye_reason, CAP_LEASE_V1};
use qtaccel_telemetry::{FramePayload, MetricsRegistry, WireClient};

use crate::error::ClusterError;
use crate::spec::ClusterSpec;

/// Deliberate failure injection for the chaos harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Behave.
    None,
    /// Drop the connection without a goodbye once the first held lease
    /// reaches `at_samples` retired samples — a crash mid-lease. The
    /// durable checkpoint survives; a successor resumes from it.
    AbandonAfter {
        /// Retired-sample threshold that triggers the crash.
        at_samples: u64,
    },
    /// On the first lease, stop reading *and* writing for `dwell` — a
    /// network partition. The coordinator's heartbeat deadline must
    /// fire and reassign the lease.
    StallAfterLease {
        /// How long to stay silent before exiting.
        dwell: Duration,
    },
    /// On the first lease, train nothing, sleep `dwell` (long enough to
    /// be declared dead and reassigned), then replay a forged
    /// `LeaseDone` under the stale epoch. The coordinator must refuse
    /// it; the expected close is [`WorkerClose::Refused`].
    Zombie {
        /// How long to play dead before the stale replay.
        dwell: Duration,
    },
}

/// Why [`run_worker`] returned without error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerClose {
    /// Coordinator said the run is complete.
    RunComplete,
    /// Coordinator refused a frame (fencing) and ended the session.
    Refused,
    /// Coordinator is shutting down / aborted the run.
    Shutdown,
    /// Chaos: this worker crashed itself mid-lease.
    ChaosAbandoned,
    /// Chaos: this worker partitioned itself and exited.
    ChaosStalled,
}

/// What a worker accomplished before closing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
    /// Leases this worker completed (accepted `LeaseDone`s sent).
    pub leases_completed: u64,
    /// Total samples across those completed leases (whole-lease counts,
    /// including work inherited from dead predecessors' checkpoints).
    pub samples_reported: u64,
    /// Sessions established beyond the first (reconnects after drops).
    pub reconnects: u32,
    /// Why the worker stopped.
    pub close: WorkerClose,
}

/// Worker knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address to dial.
    pub addr: String,
    /// This worker's wire id (also seeds the backoff jitter).
    pub worker_id: u64,
    /// Shared checkpoint directory (all workers must see the same one).
    pub dir: std::path::PathBuf,
    /// Idle-heartbeat cadence; also the inbound poll interval.
    pub heartbeat_interval: Duration,
    /// Base delay of the exponential reconnect backoff.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Connection attempts per outage before giving up (the count
    /// restarts after each verified hello-ack).
    pub max_attempts: u32,
    /// Failure injection.
    pub chaos: ChaosMode,
}

impl WorkerConfig {
    /// Sensible defaults for a localhost worker.
    pub fn new(
        addr: impl Into<String>,
        worker_id: u64,
        dir: impl Into<std::path::PathBuf>,
    ) -> Self {
        Self {
            addr: addr.into(),
            worker_id,
            dir: dir.into(),
            heartbeat_interval: Duration::from_millis(100),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            max_attempts: 8,
            chaos: ChaosMode::None,
        }
    }
}

/// The whole-lease metric contribution reported in a `LeaseDone` (one
/// lease: `leases == 1`). Counters only, and always the lease's totals
/// from shard birth — the coordinator merges each lease exactly once, so
/// the cluster-wide `qtaccel_samples_total` sums to the spec budget
/// exactly. The coordinator's merged registry starts as
/// `lease_delta(0, 0)`, which fixes both counters' kind.
pub(crate) fn lease_delta(samples: u64, leases: u64) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.set_counter(
        "qtaccel_samples_total",
        "samples retired by this lease from shard birth",
        samples,
    );
    reg.set_counter(
        "qtaccel_lease_completions_total",
        "leases sealed and reported by this worker",
        leases,
    );
    reg
}

/// Jittered exponential backoff: deterministic in the worker id and
/// attempt number (no wall-clock randomness — chaos runs replay).
fn backoff(cfg: &WorkerConfig, jitter: &mut Lfsr32, attempt: u32) -> Duration {
    let exp = cfg.backoff_base.saturating_mul(1u32 << attempt.min(6));
    let capped = exp.min(cfg.backoff_max);
    let jitter_ms = u64::from(jitter.step()) % (cfg.backoff_base.as_millis().max(1) as u64 + 1);
    capped + Duration::from_millis(jitter_ms)
}

/// Run one worker until the coordinator closes the run, chaos fires, or
/// an unrecoverable error occurs.
pub fn run_worker(spec: &ClusterSpec, cfg: &WorkerConfig) -> Result<WorkerReport, ClusterError> {
    let envs = spec.environment();
    let mut pipes = spec.pipelines();
    let budgets = spec.budgets();
    let our_hash = spec.hash();
    let mut jitter = Lfsr32::new((cfg.worker_id as u32) ^ (spec.seed as u32) ^ 0xC1A0_5EED);
    let mut report = WorkerReport {
        leases_completed: 0,
        samples_reported: 0,
        reconnects: 0,
        close: WorkerClose::RunComplete,
    };
    let mut chaos_armed = cfg.chaos != ChaosMode::None;
    let mut attempts: u32 = 0;
    let mut sessions: u32 = 0;

    'session: loop {
        // Every `continue 'session` is a torn session: back off, redial.
        if sessions > 0 {
            std::thread::sleep(backoff(cfg, &mut jitter, attempts));
        }
        // Connect with bounded, jittered exponential backoff.
        let mut session = loop {
            attempts += 1;
            if attempts > cfg.max_attempts {
                return Err(ClusterError::RetriesExhausted {
                    attempts: attempts - 1,
                });
            }
            match WireClient::connect(
                cfg.addr.as_str(),
                cfg.worker_id,
                &format!("worker-{}", cfg.worker_id),
            ) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(backoff(cfg, &mut jitter, attempts)),
            }
        };
        sessions += 1;
        report.reconnects = sessions.saturating_sub(1);

        // Handshake: expect HelloAck, verify capability + spec hash.
        match session.recv_timeout(Duration::from_secs(5)) {
            Ok(Some(frame)) => match frame.payload {
                FramePayload::HelloAck {
                    capabilities,
                    spec_hash,
                } => {
                    if capabilities & CAP_LEASE_V1 == 0 {
                        let _ = session.send(FramePayload::Goodbye {
                            reason: goodbye_reason::REFUSED,
                        });
                        return Err(ClusterError::CapabilityMismatch {
                            theirs: capabilities,
                        });
                    }
                    if spec_hash != our_hash {
                        let _ = session.send(FramePayload::Goodbye {
                            reason: goodbye_reason::REFUSED,
                        });
                        return Err(ClusterError::SpecMismatch {
                            ours: our_hash,
                            theirs: spec_hash,
                        });
                    }
                    // A verified session ends the outage: the retry
                    // budget and the backoff exponent start over.
                    attempts = 0;
                }
                FramePayload::Goodbye { reason } => {
                    report.close = close_for(reason);
                    return Ok(report);
                }
                _ => return Err(ClusterError::Protocol("expected hello-ack")),
            },
            // Coordinator silent through the handshake, or gone: retry.
            Ok(None) | Err(_) => continue 'session,
        }

        let mut nonce: u64 = 0;
        loop {
            match session.recv_timeout(cfg.heartbeat_interval) {
                Ok(None) => {
                    nonce += 1;
                    if session.send(FramePayload::Heartbeat { nonce }).is_err() {
                        continue 'session;
                    }
                }
                Ok(Some(frame)) => match frame.payload {
                    FramePayload::Lease {
                        lease,
                        epoch,
                        budget,
                        checkpoint_every,
                    } => {
                        // The verified spec fixes every lease this run can
                        // hand out: a shard index, that shard's budget and
                        // the spec's cadence. Anything else is refused
                        // before it can index a shard.
                        let shard = usize::try_from(lease).ok().filter(|&i| {
                            budgets.get(i) == Some(&budget)
                                && checkpoint_every == spec.checkpoint_every
                        });
                        let Some(shard) = shard else {
                            let _ = session.send(FramePayload::Goodbye {
                                reason: goodbye_reason::REFUSED,
                            });
                            return Err(ClusterError::Protocol("lease outside the spec"));
                        };
                        // Chaos interception (first lease only).
                        if chaos_armed {
                            match cfg.chaos {
                                ChaosMode::StallAfterLease { dwell } => {
                                    // Partition: total silence, then die.
                                    std::thread::sleep(dwell);
                                    report.close = WorkerClose::ChaosStalled;
                                    return Ok(report);
                                }
                                ChaosMode::Zombie { dwell } => {
                                    std::thread::sleep(dwell);
                                    // Stale replay: forge completion
                                    // under the epoch we were handed —
                                    // long since reassigned.
                                    let _ = session.send(FramePayload::LeaseDone {
                                        lease,
                                        epoch,
                                        samples: budget,
                                        delta: lease_delta(budget, 1),
                                    });
                                    report.close = await_goodbye(&mut session);
                                    return Ok(report);
                                }
                                _ => {}
                            }
                        }
                        let abandon_at = match (chaos_armed, cfg.chaos) {
                            (true, ChaosMode::AbandonAfter { at_samples }) => Some(at_samples),
                            _ => None,
                        };
                        chaos_armed = false;

                        let mut send_failed = false;
                        let mut abandoned = false;
                        let trained = pipes.train_shard_durable(
                            shard,
                            envs.partition(shard),
                            budget,
                            epoch,
                            &cfg.dir,
                            checkpoint_every,
                            |samples| {
                                if abandon_at.is_some_and(|at| samples >= at) {
                                    abandoned = true;
                                    return false;
                                }
                                if session
                                    .send(FramePayload::Progress {
                                        lease,
                                        epoch,
                                        samples,
                                    })
                                    .is_err()
                                {
                                    send_failed = true;
                                    return false;
                                }
                                true
                            },
                        );
                        match trained {
                            Ok(samples) if samples >= budget => {
                                report.leases_completed += 1;
                                report.samples_reported += samples;
                                if session
                                    .send(FramePayload::LeaseDone {
                                        lease,
                                        epoch,
                                        samples,
                                        delta: lease_delta(samples, 1),
                                    })
                                    .is_err()
                                {
                                    continue 'session;
                                }
                            }
                            Ok(_) if abandoned => {
                                // Crash: no goodbye, just vanish.
                                report.close = WorkerClose::ChaosAbandoned;
                                return Ok(report);
                            }
                            Ok(_) => {
                                // Progress sends failed mid-lease: the
                                // session is dead; reconnect. The lease
                                // will come back (to someone) with a new
                                // epoch and resume from our checkpoint.
                                debug_assert!(send_failed);
                                continue 'session;
                            }
                            Err(LeaseError::FencedEpoch { held, found }) => {
                                // We are the zombie: the checkpoint was
                                // sealed under a newer epoch. Refuse to
                                // train, tell the coordinator, surface
                                // the typed error.
                                let _ = session.send(FramePayload::Goodbye {
                                    reason: goodbye_reason::REFUSED,
                                });
                                return Err(ClusterError::Lease(LeaseError::FencedEpoch {
                                    held,
                                    found,
                                }));
                            }
                            Err(e) => return Err(ClusterError::Lease(e)),
                        }
                    }
                    FramePayload::Goodbye { reason } => {
                        report.close = close_for(reason);
                        return Ok(report);
                    }
                    // Duplicate hello-ack or stray frames: ignore.
                    _ => {}
                },
                // Session torn (coordinator died / socket reset).
                Err(_) => continue 'session,
            }
        }
    }
}

fn close_for(reason: u64) -> WorkerClose {
    match reason {
        goodbye_reason::COMPLETE => WorkerClose::RunComplete,
        goodbye_reason::REFUSED => WorkerClose::Refused,
        _ => WorkerClose::Shutdown,
    }
}

/// Drain the session until the coordinator's goodbye arrives (the
/// zombie path: the refusal must be observable, not inferred).
fn await_goodbye(session: &mut WireClient) -> WorkerClose {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match session.recv_timeout(Duration::from_millis(50)) {
            Ok(Some(frame)) => {
                if let FramePayload::Goodbye { reason } = frame.payload {
                    return close_for(reason);
                }
            }
            Ok(None) => {}
            // Connection dropped before a readable goodbye: treat as
            // refused — the coordinator ends refused sessions.
            Err(_) => return WorkerClose::Refused,
        }
    }
    WorkerClose::Refused
}
