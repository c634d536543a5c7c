#![deny(missing_docs)]

//! FPGA component and cost models for the QTAccel simulation suite.
//!
//! The QTAccel paper evaluates a hardware design; reproducing it in Rust
//! means modelling the hardware primitives the design is assembled from, at
//! the level of detail the paper's claims depend on:
//!
//! * [`lfsr`] — the 32-bit linear feedback shift register with its
//!   32-shift leap network, the paper's random number generator ("The
//!   action selector used to generate random actions is implemented
//!   using linear feedback shift registers"), plus the Irwin–Hall normal
//!   sampler of §VII-B (sum of uniform LFSR outputs).
//! * [`rng`] — the [`rng::RngSource`] trait, so the *identical* bit stream
//!   can drive both the cycle-accurate pipeline and the software golden
//!   reference; this is what makes bit-exact equivalence testing possible.
//! * [`bram`] — synchronous dual-port block RAM with one-cycle read
//!   latency, write-collision arbitration (§VII-A: "one pipeline
//!   arbitrarily overwrites the other"), and the 36 Kb block cost model.
//! * [`dsp`] — DSP-slice counting for fixed-point multipliers.
//! * [`resource`] — device descriptors (xcvu13p, Virtex-7, Virtex-6),
//!   resource reports and utilization, the calibrated fmax model behind
//!   Fig. 6, and the power model behind Figs. 3/5.
//! * [`pipeline`] — cycle bookkeeping shared by pipeline simulators.
//! * [`regfile`] — the memory-mapped perf-counter register file backing
//!   the telemetry layer's `CounterBank` (crate `qtaccel-telemetry`),
//!   with a fabric cost entry in [`resource::perf_regfile_report`].
//! * [`fault`] — the radiation environment of the paper's motivating
//!   deployments: a deterministic LFSR-driven SEU injector and a SECDED
//!   (Hamming 64/72-style) ECC codec for protected memories, priced in
//!   [`resource::secded_report`].

pub mod bram;
pub mod dsp;
pub mod explut;
pub mod fault;
pub mod lfsr;
pub mod pipeline;
pub mod regfile;
pub mod resource;
pub mod rng;

pub use bram::{Bram, BramPort, WriteCollisionPolicy};
pub use dsp::dsp_slices_for_mul;
pub use explut::ExpLut;
pub use fault::{FaultInjector, Secded, SecdedResult};
pub use lfsr::{Lfsr32, NormalLfsr};
pub use pipeline::CycleStats;
pub use regfile::PerfRegFile;
pub use resource::{Device, FmaxModel, PowerModel, ResourceReport, Utilization};
pub use rng::{RngSource, SeedSequence};
