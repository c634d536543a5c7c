//! Typed failures of the cluster runtime.
//!
//! Everything a coordinator or worker can legitimately refuse is a
//! variant here — chaos-harness assertions match on these rather than on
//! panic messages, and the bench manifest records their counts.

use qtaccel_accel::LeaseError;
use qtaccel_telemetry::WireError;

/// A cluster session failure (worker or coordinator side).
#[derive(Debug)]
pub enum ClusterError {
    /// The wire session failed to encode/decode a frame.
    Wire(WireError),
    /// The durable lease driver refused — most importantly
    /// [`LeaseError::FencedEpoch`]: this worker is a zombie whose lease
    /// was reassigned while it was presumed dead.
    Lease(LeaseError),
    /// The coordinator's spec hash does not match ours: the two sides
    /// would train different workloads, so the worker refuses to start.
    SpecMismatch {
        /// Hash of the spec this worker was launched with.
        ours: u64,
        /// Hash the coordinator advertised in its hello-ack.
        theirs: u64,
    },
    /// The coordinator did not advertise a capability we require
    /// (currently `CAP_LEASE_V1`).
    CapabilityMismatch {
        /// The coordinator's advertised capability mask.
        theirs: u64,
    },
    /// The reconnect retry budget ran out before a session was
    /// (re-)established.
    RetriesExhausted {
        /// Connection attempts made before giving up.
        attempts: u32,
    },
    /// The peer answered the handshake with something other than the
    /// expected frame kind.
    Protocol(&'static str),
    /// A filesystem-level failure outside the checkpoint codec.
    Io(std::io::Error),
}

impl From<WireError> for ClusterError {
    fn from(e: WireError) -> Self {
        ClusterError::Wire(e)
    }
}

impl From<LeaseError> for ClusterError {
    fn from(e: LeaseError) -> Self {
        ClusterError::Lease(e)
    }
}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Wire(e) => write!(f, "wire session failed: {e}"),
            ClusterError::Lease(e) => write!(f, "lease refused: {e}"),
            ClusterError::SpecMismatch { ours, theirs } => write!(
                f,
                "spec mismatch: worker built spec {ours:#018x} but coordinator \
                 advertised {theirs:#018x} (the two sides would train different workloads)"
            ),
            ClusterError::CapabilityMismatch { theirs } => write!(
                f,
                "capability mismatch: coordinator advertised {theirs:#x} but \
                 this worker requires CAP_LEASE_V1"
            ),
            ClusterError::RetriesExhausted { attempts } => {
                write!(
                    f,
                    "reconnect retry budget exhausted after {attempts} attempts"
                )
            }
            ClusterError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClusterError::Io(e) => write!(f, "io failure: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Wire(e) => Some(e),
            ClusterError::Lease(e) => Some(e),
            ClusterError::Io(e) => Some(e),
            _ => None,
        }
    }
}
