#![deny(missing_docs)]

//! Fixed-point arithmetic substrate for the QTAccel hardware datapath.
//!
//! FPGA datapaths operate on fixed-point values: each Q-value, reward and
//! learning-rate constant in the QTAccel pipeline is a signed two's
//! complement number with a compile-time binary point. This crate provides
//! [`Fixed`], a signed fixed-point type generic over the storage integer
//! (`i16`/`i32`/`i64`) and the number of fractional bits, with
//! hardware-faithful semantics:
//!
//! * **Saturating addition/subtraction** — FPGA adders in this design clamp
//!   at the representable range rather than wrapping, so diverging Q-values
//!   degrade gracefully instead of corrupting sign bits.
//! * **Widening multiplication with round-to-nearest** — the DSP slice
//!   produces the full-width product; the writeback path truncates back to
//!   the datapath width with round-half-away-from-zero, then saturates.
//! * **Bit-exact determinism** — the same operations performed by the
//!   cycle-accurate pipeline model and the software golden reference yield
//!   identical bit patterns, which is what makes the equivalence tests in
//!   `qtaccel-accel` meaningful.
//!
//! The default datapath format for the paper's experiments is [`Q8_8`]
//! (16-bit storage, 8 fractional bits): DESIGN.md §4 shows this is the width
//! that reproduces the paper's reported BRAM utilization on the xcvu13p.
//!
//! The [`QValue`] trait abstracts over `f32`/`f64`/[`Fixed`] so the
//! algorithm crates can run both floating-point references and
//! hardware-format simulations from one code path.

mod fixed;
pub mod quant;
mod storage;
mod value;

pub use fixed::Fixed;
pub use quant::QuantPolicy;
pub use storage::Storage;
pub use value::QValue;

/// 16-bit datapath, 8 fractional bits (range ±128, resolution 1/256).
///
/// This is the default hardware format: it is the widest format for which
/// the paper's largest test case (|S|=262144, |A|=8) still fits the
/// xcvu13p's 94.5 Mb of BRAM at the reported ~78 % utilization.
pub type Q8_8 = Fixed<i16, 8>;

/// 16-bit datapath, 12 fractional bits (range ±8, resolution 1/4096).
///
/// Useful when rewards are pre-scaled into [-1, 1] and resolution matters
/// more than range.
pub type Q4_12 = Fixed<i16, 12>;

/// 32-bit datapath, 16 fractional bits (range ±32768, resolution ~1.5e-5).
///
/// A wide format for accuracy studies; doubles the BRAM cost per entry.
pub type Q16_16 = Fixed<i32, 16>;

/// 64-bit datapath, 32 fractional bits. Primarily for numerical reference
/// runs; no realistic FPGA deployment of the paper uses this width.
pub type Q32_32 = Fixed<i64, 32>;
