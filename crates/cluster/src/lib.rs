#![deny(missing_docs)]

//! QTAccel cluster — the fault-tolerant multi-process training runtime
//! (DESIGN.md §2.16).
//!
//! A single QTAccel process already scales across cores
//! (`qtaccel_accel::executor`); this crate scales across *processes*
//! that can die. A supervising [`Coordinator`] decomposes a
//! `train_batch` budget into per-shard **leases** using the same
//! deterministic split the single-process path uses, hands them to
//! worker processes over the QTACWIRE control-frame extension
//! (`qtaccel_telemetry::wire` kinds 5–10), and supervises them with
//! monotonic heartbeat deadlines. Every lease transition lives in one
//! pure lease table; the coordinator's session threads, one per
//! connection on the telemetry collector's accept loop
//! (`qtaccel_telemetry::Server`), are thin adapters over it that check
//! deadlines on their poll tick:
//!
//! ```text
//!                        ┌─────────────────────────────┐
//!                        │         Coordinator          │
//!                        │  lease table · epoch fences  │
//!                        │  sessions on the Server      │
//!                        └──┬─────────┬─────────────┬──┘
//!             Lease/HelloAck│         │             │Goodbye
//!        Progress/LeaseDone │         │             │
//!                        ┌──┴───┐ ┌───┴──┐      ┌───┴──┐
//!                        │ wkr 0│ │ wkr 1│  ... │ wkr N│   (processes)
//!                        └──┬───┘ └───┬──┘      └───┬──┘
//!                           └───── shared checkpoint dir ─────┘
//! ```
//!
//! The correctness contract, enforced by this crate's tests and the
//! `bench_distributed --chaos` harness: **kill any worker at any time
//! and the final merged Q/Qmax images are bit-identical to the
//! single-process reference, with `qtaccel_samples_total` equal to the
//! budget exactly** — zero samples lost, zero double-counted. The
//! mechanisms:
//!
//! * **Durable leases** — workers drive
//!   `IndependentPipelines::train_shard_durable`: chunked training with
//!   atomic checkpoints, so a successor resumes a dead worker's shard
//!   from its last checkpoint and replays the identical sample stream.
//! * **Epoch fencing** — every lease (re)assignment and release bumps
//!   the lease's epoch. A zombie (a presumed-dead worker that wakes up)
//!   carries a stale epoch: the coordinator refuses its frames, like any
//!   frame from a session that does not hold the lease at that epoch
//!   (`Goodbye{REFUSED}`, merged zero times), and the checkpoint layer
//!   refuses its writes (`LeaseError::FencedEpoch`).
//! * **Whole-lease deltas** — a `LeaseDone` delta is the lease's entire
//!   metric contribution from shard birth, merged exactly once, so
//!   partial predecessors never double-count.
//! * **Graceful degradation** — fewer workers means slower, never
//!   wrong: the run completes with any nonzero number of survivors.

pub mod coordinator;
pub mod error;
mod lease;
pub mod spec;
pub mod worker;

pub use coordinator::{ClusterStatus, Coordinator, CoordinatorConfig};
pub use error::ClusterError;
pub use spec::ClusterSpec;
pub use worker::{run_worker, ChaosMode, WorkerClose, WorkerConfig, WorkerReport};
