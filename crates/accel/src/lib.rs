#![deny(missing_docs)]

//! QTAccel — the cycle-accurate model of the paper's contribution.
//!
//! This crate implements the generic 4-stage pipelined QRL accelerator of
//! §IV (Fig. 1) as a cycle-accurate simulator:
//!
//! * [`pipeline`] — the pipeline core: per-cycle stage scheduling,
//!   one-cycle-latency BRAM images, and the **hazard network** that
//!   handles the read-after-write dependencies between consecutive
//!   updates. Three hazard modes make the headline claim testable:
//!   [`HazardMode::Forwarding`] (the paper's design: one sample retired
//!   every clock), [`HazardMode::StallOnly`] (a naive design that holds
//!   the front end instead — the `ablation_forwarding` experiment), and
//!   [`HazardMode::Ignore`] (no interlock at all: stale operands, wrong
//!   values — demonstrates that the dependency handling is *necessary*).
//!   Beside the cycle-accurate engine sits the bit-exact fast path
//!   ([`QrlAccel::run_samples_fast`]), with one dispatch rule: an
//!   uninstrumented, fault-free `Forwarding` + Qmax-array configuration
//!   runs the **stall-free kernel** — one loop over one image of the
//!   environment (a `u32` transition word per (s, a), indexing a table
//!   of distinct α·R values) and the Q table in place, generic only over
//!   the stored format's write port — and anything else runs the
//!   cycle-accurate engine itself.
//!   The module also holds the one policy unit every QRL engine draws
//!   through, and [`QrlAccel`], the one QRL engine type: the pipeline
//!   itself, whose fixture picks the constructors, yields the policies
//!   every engine loop runs and names the §VII-B units it carries
//!   ([`pipeline::Fixture`]).
//!   [`AccelPipeline`] is the fixture that keeps the policies its
//!   [`AccelConfig`] gives, on a caller-chosen seed bank.
//! * [`qlearning`] / [`sarsa`] — the two §V engine customizations, as
//!   policy fixtures of [`QrlAccel`]: Q-Learning (random behaviour,
//!   greedy update via the Qmax array) and SARSA (ε-greedy, on-policy
//!   action forwarding from stage 2 to stage 1).
//! * [`multi`] — the §VII-A parallel-pipeline configurations: two
//!   state-sharing pipelines over dual-port BRAM with write-collision
//!   arbitration (Fig. 8; the paper's Forwarding + Qmax-array design
//!   point only) and N independent pipelines over partitioned state
//!   spaces (Fig. 9).
//! * [`executor`] — the host-side scale-out layer: a persistent
//!   [`ShardedExecutor`] worker pool with a chunked work queue that runs
//!   the `multi` configurations on however many cores the host offers
//!   (bit-identical results at any worker count), plus the sharded
//!   `train_batch` API. A batch moves each pipeline into the pool with
//!   a clone of its environment and gets it back. Pools built
//!   with [`ShardedExecutor::new_instrumented`] expose
//!   [`ExecutorMetrics`] — per-worker busy/idle time, chunk-latency
//!   histograms, queue-depth gauges — for the DESIGN.md §2.10 metrics
//!   service.
//! * [`bandit`] / [`prob_engine`] — the §VII-B customizations, as
//!   fixtures of [`QrlAccel`] with the units that section names: the
//!   Multi-Armed Bandit engines (a one-state table whose reward unit adds
//!   Irwin–Hall LFSR noise to each arm's mean; ε-greedy or EXP3 arm
//!   selection; a stateful variant whose transition unit advances the arm
//!   chains by LFSR draws) and the Eq. 4 probability-table policy engine
//!   (a P table searched in `⌈log₂|A|⌉` cycles and written in stage 4).
//! * [`resources`] — the structural resource model (DSP/BRAM/FF/LUT)
//!   behind Figs. 3, 4, 5 and the modeled throughput behind Fig. 6.
//! * [`fault`] — the fault-tolerance runtime: online SEU injection
//!   against the Q/Qmax memories, the SECDED protection model (codec in
//!   `qtaccel-hdl`), and the background Qmax scrubbing engine that
//!   un-poisons the §V-A monotone latch.
//! * [`checkpoint`] — crash-safe checkpoint/restore of the full training
//!   state (atomic write-then-rename, CRC-32-protected, versioned) with
//!   bit-exact resume.
//!
//! Every engine is generic over a `qtaccel_telemetry::TraceSink`
//! (default `NullSink` = telemetry off): attach a counter-bearing sink
//! via the `with_sink` constructors to collect the hardware-style
//! perf-counter bank, or a `RingSink` to also keep the structured event
//! trace described in DESIGN.md §2.6, from which
//! `qtaccel_telemetry::export` draws the pipeline waveform and a
//! Perfetto trace — with the default sink the instrumentation compiles
//! out and the fast path is bit- and speed-identical to the
//! uninstrumented build.
//!
//! The central correctness property, asserted by this crate's tests and
//! the workspace integration tests: **with forwarding enabled, an engine
//! seeded with master seed k produces a bit-identical Q-table to the
//! software golden reference (`qtaccel_core::RefTrainer`) with the same
//! seed, format and Qmax semantics** — while retiring one sample per
//! clock cycle after the 3-cycle fill.

pub mod bandit;
pub mod checkpoint;
pub mod config;
pub mod executor;
pub mod fault;
pub mod multi;
pub mod pipeline;
pub mod prob_engine;
pub mod qlearning;
pub mod resources;
pub mod sarsa;
pub mod structural;

pub use bandit::{Bandit, BanditAccel, BanditPolicy, Stateful, StatefulBanditAccel};
pub use checkpoint::CheckpointError;
pub use config::{AccelConfig, HazardMode};
pub use executor::{ExecutorMetrics, ShardedExecutor, WorkerSnapshot};
pub use fault::{FaultConfig, FaultStats};
pub use multi::{
    shard_budgets, shard_checkpoint_path, BatchReport, DualPipelineShared, IndependentPipelines,
    LeaseError, ShardRun,
};
pub use pipeline::{AccelPipeline, Configured, QrlAccel};
pub use prob_engine::{ProbPolicy, ProbPolicyAccel, WeightRule};
pub use qlearning::{QLearning, QLearningAccel};
pub use resources::AccelResources;
pub use sarsa::{Sarsa, SarsaAccel};
pub use structural::StructuralQLearning;
