//! Sub-8-bit packed Q-table storage with stochastic rounding.
//!
//! The datapath still computes in a full [`crate::Fixed`] working format
//! (Q8.8 by default), but the *stored* Q-entry can be narrowed to 4, 6 or
//! 8 bits: a [`QuantPolicy`] maps a working-format raw word to a
//! `stored_bits`-wide two's-complement *code* by dropping the low `shift`
//! raw bits, and back by shifting the sign-extended code up again. This
//! is the QForce-RL storage trade (PAPERS.md): the BRAM word narrows —
//! 2–4× more Q-entries per block and per host cache line — while the
//! update arithmetic keeps the working precision.
//!
//! Truncation alone would bias every update toward −∞ (Q-values shrink by
//! up to `2^shift − 1` raw units per writeback, and the TD feedback loop
//! accumulates the bias). The policy therefore quantizes with **stochastic
//! rounding**: before the arithmetic shift, a uniform draw in
//! `[0, 2^shift)` from the engine's dedicated quantization LFSR stream is
//! added, so the rounded code is unbiased in expectation
//! (`E[dequant(quant(x))] = x` for in-range `x`). The draw comes from the
//! same seeded [`SeedSequence`] machinery as every other RNG unit, which
//! makes the error compensation deterministic and bit-exact across the
//! cycle-accurate and fast executors.
//!
//! Two algebraic properties the engines lean on:
//!
//! * **Idempotence**: a dequantized value is already on the storage grid,
//!   so re-quantizing it returns the same code *regardless of the random
//!   draw* (`(c·2^s + r) >> s = c` for any `r < 2^s`). Executors may
//!   therefore re-encode a table image without consuming or even agreeing
//!   on RNG state.
//! * **Monotonicity**: dequantization is strictly increasing in the code,
//!   so comparing codes and comparing dequantized values (the Qmax
//!   comparator) give the same answer.
//!
//! [`SeedSequence`]: https://docs.rs/ (the `qtaccel-hdl` RNG seeding type)

use crate::QValue;

/// Sign-extend a `width`-bit two's-complement word right-aligned in a
/// `u64`.
#[inline(always)]
fn sign_extend(bits: u64, width: u32) -> i64 {
    debug_assert!((1..=64).contains(&width));
    if width >= 64 {
        bits as i64
    } else {
        let shift = 64 - width;
        ((bits << shift) as i64) >> shift
    }
}

/// The stored-format description: how a working-format raw word maps to a
/// narrow stored code and back (see the module docs).
///
/// `stored_bits` is the BRAM entry width of the packed table;
/// `shift` is how many low raw bits the storage drops. The representable
/// range in working-raw units is `[−2^(stored_bits−1)·2^shift,
/// (2^(stored_bits−1)−1)·2^shift]` with step `2^shift` — narrowing trades
/// range and resolution against storage, and the shift picks where on
/// that trade-off the format sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantPolicy {
    stored_bits: u32,
    shift: u32,
}

impl QuantPolicy {
    /// A policy storing `stored_bits`-wide codes after dropping `shift`
    /// low raw bits.
    ///
    /// # Panics
    /// If `stored_bits` is outside `[2, 32]` or `shift ≥ 32` — the
    /// construction-time sanity bounds. Whether the policy fits a given
    /// working format is checked by [`QuantPolicy::validate_for`].
    pub const fn new(stored_bits: u32, shift: u32) -> Self {
        assert!(
            stored_bits >= 2 && stored_bits <= 32,
            "stored_bits must be in [2, 32]"
        );
        assert!(shift < 32, "shift must be < 32");
        Self { stored_bits, shift }
    }

    /// 8-bit stored entries for the 16-bit working formats: step `2^2`
    /// raw units (1/64 in Q8.8), range ±2 — the sweet spot the Pareto
    /// table shows matching 16-bit policy quality on the gate scenario.
    pub const fn q8() -> Self {
        Self::new(8, 2)
    }

    /// 6-bit stored entries for the 16-bit working formats: step `2^4`
    /// raw units (1/16 in Q8.8), range ±2.
    pub const fn q6() -> Self {
        Self::new(6, 4)
    }

    /// 4-bit stored entries for the 16-bit working formats: step `2^6`
    /// raw units (1/4 in Q8.8), range ±2.
    pub const fn q4() -> Self {
        Self::new(4, 6)
    }

    /// Stored entry width in bits (the packed BRAM word width).
    #[inline(always)]
    pub const fn stored_bits(&self) -> u32 {
        self.stored_bits
    }

    /// Low raw bits dropped by the storage (the quantization step is
    /// `2^shift` working-raw units).
    #[inline(always)]
    pub const fn shift(&self) -> u32 {
        self.shift
    }

    /// Most positive code, as a signed integer (`2^(b−1) − 1`).
    #[inline(always)]
    pub const fn max_code(&self) -> i64 {
        (1i64 << (self.stored_bits - 1)) - 1
    }

    /// Most negative code (`−2^(b−1)`).
    #[inline(always)]
    pub const fn min_code(&self) -> i64 {
        -(1i64 << (self.stored_bits - 1))
    }

    /// Check this policy against a working format: the stored word must
    /// be strictly narrower than the working word and the dequantized
    /// raw (`stored_bits + shift` significant bits) must fit it.
    ///
    /// # Panics
    /// If either condition fails.
    pub fn validate_for<V: QValue>(&self) {
        let w = V::storage_bits();
        assert!(
            self.stored_bits < w,
            "stored width {} must be narrower than the working width {w}",
            self.stored_bits
        );
        assert!(
            self.stored_bits + self.shift <= w,
            "stored_bits {} + shift {} exceeds the working width {w}",
            self.stored_bits,
            self.shift
        );
    }

    /// Quantize a working-format raw word (sign-extended to `i64`) with
    /// the stochastic-rounding draw `rnd` (only its low `shift` bits are
    /// used). Returns the `stored_bits`-wide code right-aligned in a
    /// `u64`, saturated at the narrow rails.
    #[inline(always)]
    pub fn quantize_raw(&self, raw: i64, rnd: u64) -> u64 {
        let mask = (1u64 << self.shift) - 1;
        let dither = (rnd & mask) as i64;
        // Saturating add only matters within 2^shift of i64::MAX, far
        // outside any working format narrower than 64 bits; it keeps the
        // 64-bit reference formats well-defined too.
        let code = raw.saturating_add(dither) >> self.shift;
        let code = code.clamp(self.min_code(), self.max_code());
        code as u64 & self.code_mask()
    }

    /// Inverse of [`quantize_raw`](Self::quantize_raw): sign-extend the
    /// code and restore the dropped low bits as zeros.
    #[inline(always)]
    pub fn dequantize_raw(&self, code: u64) -> i64 {
        sign_extend(code, self.stored_bits) << self.shift
    }

    /// Quantize a working-format value to its stored code.
    #[inline(always)]
    pub fn quantize<V: QValue>(&self, v: V, rnd: u64) -> u64 {
        self.quantize_raw(sign_extend(v.to_bits(), V::storage_bits()), rnd)
    }

    /// Reconstruct the working-format value a stored code represents.
    #[inline(always)]
    pub fn dequantize<V: QValue>(&self, code: u64) -> V {
        V::from_bits(self.dequantize_raw(code) as u64)
    }

    /// [`apply`](Self::apply) in the raw domain: dither, truncate to the
    /// grid, clamp at the narrow rails, restore the dropped low bits as
    /// zeros. Bit-identical to `dequantize_raw(quantize_raw(..))` — the
    /// clamped code is in range, so the mask-and-sign-extend round trip
    /// is the identity — with one shift fewer on the writeback's
    /// dependency chain: the one Q write port both engines call, the
    /// accelerator's `QuantRt` (the stall-free kernel's `WritePort` and
    /// the cycle-accurate engine's `quantize_writeback`), goes through
    /// [`apply`](Self::apply) to here.
    #[inline(always)]
    pub fn apply_raw(&self, raw: i64, rnd: u64) -> i64 {
        let mask = (1u64 << self.shift) - 1;
        let dither = (rnd & mask) as i64;
        let code =
            (raw.saturating_add(dither) >> self.shift).clamp(self.min_code(), self.max_code());
        code << self.shift
    }

    /// The value the packed table actually holds after writing `v`: a
    /// quantize/dequantize round trip with the draw `rnd`. This is the
    /// write-port transform both executors apply to every Q writeback.
    #[inline(always)]
    pub fn apply<V: QValue>(&self, v: V, rnd: u64) -> V {
        V::from_bits(self.apply_raw(sign_extend(v.to_bits(), V::storage_bits()), rnd) as u64)
    }

    /// Deterministic round-to-nearest (half away from zero toward +∞ in
    /// code space) — the *load-time* quantization for static tables (the
    /// reward ROM), where an unbiased but random rounding would make the
    /// table depend on RNG state.
    #[inline(always)]
    pub fn round_nearest<V: QValue>(&self, v: V) -> V {
        let half = if self.shift == 0 {
            0
        } else {
            1u64 << (self.shift - 1)
        };
        self.apply(v, half)
    }

    /// The code for `v` if `v` sits exactly on the storage grid (in
    /// range, low `shift` raw bits zero); `None` otherwise. Lets an
    /// executor re-encode a table image and detect off-grid words (e.g.
    /// after a raw-word fault strike) instead of silently moving them.
    pub fn try_code<V: QValue>(&self, v: V) -> Option<u64> {
        let code = self.quantize(v, 0);
        if self.dequantize::<V>(code) == v {
            Some(code)
        } else {
            None
        }
    }

    /// Most positive representable stored value, in the working format.
    pub fn max_value<V: QValue>(&self) -> V {
        self.dequantize((self.max_code() as u64) & self.code_mask())
    }

    /// Most negative representable stored value, in the working format.
    pub fn min_value<V: QValue>(&self) -> V {
        self.dequantize((self.min_code() as u64) & self.code_mask())
    }

    /// Right-aligned mask of `stored_bits` ones.
    #[inline(always)]
    pub const fn code_mask(&self) -> u64 {
        (1u64 << self.stored_bits) - 1
    }

    /// Short stable name for reports and checkpoint diagnostics, e.g.
    /// `"q8s2"` (8 stored bits, shift 2).
    pub fn format_name(&self) -> String {
        format!("q{}s{}", self.stored_bits, self.shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Q16_16, Q8_8};

    /// The tiny Galois LFSR step used by `qtaccel-hdl`'s Lfsr32
    /// (taps 0x8020_0003), reimplemented locally so the satellite-1
    /// golden words are pinned without a cyclic dev-dependency.
    fn lfsr32_step(state: u32) -> u32 {
        let lsb = state & 1;
        let mut s = state >> 1;
        if lsb != 0 {
            s ^= 0x8020_0003;
        }
        s
    }

    #[test]
    fn defaults_match_the_documented_ranges() {
        for (p, bits, shift, step, lo, hi) in [
            (QuantPolicy::q8(), 8, 2, 4.0 / 256.0, -2.0, 127.0 / 64.0),
            (QuantPolicy::q6(), 6, 4, 16.0 / 256.0, -2.0, 31.0 / 16.0),
            (QuantPolicy::q4(), 4, 6, 64.0 / 256.0, -2.0, 7.0 / 4.0),
        ] {
            p.validate_for::<Q8_8>();
            assert_eq!(p.stored_bits(), bits);
            assert_eq!(p.shift(), shift);
            assert_eq!(p.dequantize::<Q8_8>(1).to_f64(), step);
            assert_eq!(p.min_value::<Q8_8>().to_f64(), lo, "{}", p.format_name());
            assert_eq!(p.max_value::<Q8_8>().to_f64(), hi, "{}", p.format_name());
        }
    }

    #[test]
    #[should_panic(expected = "narrower than the working width")]
    fn policy_as_wide_as_the_working_format_is_rejected() {
        QuantPolicy::new(16, 0).validate_for::<Q8_8>();
    }

    #[test]
    #[should_panic(expected = "exceeds the working width")]
    fn shift_overflowing_the_working_word_is_rejected() {
        QuantPolicy::new(8, 9).validate_for::<Q8_8>();
    }

    /// Satellite 1: pinned golden words. The LFSR stream is the pinned
    /// taps sequence from seed 1; the quantized codes and reconstructed
    /// values below were computed by hand from the definition
    /// `code = clamp((raw + (rnd mod 2^shift)) >> shift)`.
    #[test]
    fn stochastic_rounding_golden_words_are_pinned() {
        // Raw 100 in Q8.8 (0.390625) under q8 (shift 2): lattice codes
        // 25 (raw 100) — on-grid, every draw returns 25.
        let p8 = QuantPolicy::q8();
        for rnd in [0u64, 1, 2, 3, 0xFFFF_FFFF] {
            assert_eq!(p8.quantize_raw(100, rnd), 25);
        }
        // Raw 101 = 25.25 steps: draws 0..=2 floor to 25, draw 3 carries
        // to 26.
        assert_eq!(p8.quantize_raw(101, 0), 25);
        assert_eq!(p8.quantize_raw(101, 2), 25);
        assert_eq!(p8.quantize_raw(101, 3), 26);
        // Negative raws use the same floor-after-dither rule: −101 sits
        // between codes −26 (raw −104) and −25 (raw −100).
        assert_eq!(p8.quantize_raw(-101, 0) as i8 as i64, -26);
        assert_eq!(p8.quantize_raw(-101, 3) as i8 as i64, -25);
        // A pinned LFSR-fed sequence at q6 (shift 4), raw 250 = 15·16+10:
        // the low 4 bits of the draw decide code 15 vs 16 (carry at ≥ 6).
        let p6 = QuantPolicy::q6();
        let mut s = 1u32;
        let mut codes = Vec::new();
        for _ in 0..8 {
            codes.push(p6.quantize_raw(250, s as u64) as i64);
            for _ in 0..32 {
                s = lfsr32_step(s);
            }
        }
        let expected: Vec<i64> = {
            let mut s = 1u32;
            let mut v = Vec::new();
            for _ in 0..8 {
                v.push(if (s & 0xF) >= 6 { 16 } else { 15 });
                for _ in 0..32 {
                    s = lfsr32_step(s);
                }
            }
            v
        };
        assert_eq!(codes, expected);
        // And out-of-range raws clamp, never wrap: 1000 raw = 62.5 codes,
        // far past the 6-bit rail of 31.
        assert_eq!(p6.quantize_raw(1000, 0) as i64, 31);
    }

    #[test]
    fn round_trips_are_exact_on_the_grid_at_4_6_8_bits() {
        for p in [QuantPolicy::q4(), QuantPolicy::q6(), QuantPolicy::q8()] {
            for code in 0..(1u64 << p.stored_bits()) {
                let v: Q8_8 = p.dequantize(code);
                // Idempotence: any draw maps a grid value back to its code.
                for rnd in [0u64, 1, (1 << p.shift()) - 1, u64::MAX] {
                    assert_eq!(p.quantize(v, rnd), code, "{} code {code}", p.format_name());
                }
                assert_eq!(p.try_code(v), Some(code));
            }
            // Off-grid values have no code.
            let off = Q8_8::from_raw(1); // 1 raw unit: below every step
            assert_eq!(p.try_code(off), None);
        }
    }

    #[test]
    fn saturation_clamps_at_the_narrow_rails() {
        let p = QuantPolicy::q4(); // rails −2.0 / +1.75 in Q8.8
        for rnd in [0u64, 1, 63] {
            // Far out of range both ways, including the working rails.
            assert_eq!(p.apply(Q8_8::from_f64(100.0), rnd), p.max_value::<Q8_8>());
            assert_eq!(p.apply(Q8_8::max_value(), rnd), p.max_value::<Q8_8>());
            assert_eq!(p.apply(Q8_8::from_f64(-100.0), rnd), p.min_value::<Q8_8>());
            assert_eq!(p.apply(Q8_8::min_value(), rnd), p.min_value::<Q8_8>());
        }
        // Just inside the rails stays put.
        assert_eq!(
            p.apply(p.max_value::<Q8_8>(), 63),
            p.max_value::<Q8_8>(),
            "top rail is a fixed point even under the max draw"
        );
        // One step above the top code saturates rather than wrapping.
        let above = Q8_8::from_f64(1.75 + 0.25);
        assert_eq!(p.apply(above, 0), p.max_value::<Q8_8>());
    }

    /// Satellite 1: mean preservation. Stochastic rounding is unbiased;
    /// over 1M LFSR draws the empirical mean must sit within 1 working
    /// ULP of the unquantized value.
    #[test]
    fn stochastic_rounding_is_mean_preserving_within_one_ulp() {
        for p in [QuantPolicy::q4(), QuantPolicy::q6(), QuantPolicy::q8()] {
            // An awkward off-grid raw: 0.3 ≈ raw 77, never a multiple of
            // the step at any of the three shifts.
            let raw = 77i64;
            let mut s = 0xACE1_u32;
            let mut sum = 0i64;
            const N: i64 = 1_000_000;
            for _ in 0..N {
                s = lfsr32_step(s);
                sum += p.dequantize_raw(p.quantize_raw(raw, s as u64));
            }
            let mean = sum as f64 / N as f64;
            let bias = (mean - raw as f64).abs();
            assert!(
                bias <= 1.0,
                "{}: mean {mean} vs raw {raw} (bias {bias} raw units)",
                p.format_name()
            );
        }
    }

    #[test]
    fn truncation_without_dither_is_biased_low() {
        // The control experiment for the test above: always-zero draws
        // floor every value, so averaged over one full step of raws the
        // mean misses low by ~half a step.
        let p = QuantPolicy::q4();
        let step = 1i64 << p.shift();
        let mut total = 0i64;
        for raw in 0..step {
            total += raw - p.dequantize_raw(p.quantize_raw(raw, 0));
        }
        let avg = total as f64 / step as f64;
        assert!(
            avg > 0.4 * step as f64,
            "flooring must show the bias stochastic rounding removes: {avg}"
        );
    }

    #[test]
    fn dequantization_is_monotone_in_the_code() {
        // Codes compare like their values — the property that lets the
        // Qmax comparator work on either representation.
        for p in [QuantPolicy::q4(), QuantPolicy::q8()] {
            let mut prev: Option<i64> = None;
            for signed in p.min_code()..=p.max_code() {
                let code = (signed as u64) & p.code_mask();
                let raw = p.dequantize_raw(code);
                if let Some(pr) = prev {
                    assert!(raw > pr, "{}: code {signed}", p.format_name());
                }
                prev = Some(raw);
            }
        }
    }

    #[test]
    fn round_nearest_is_the_deterministic_midpoint_rule() {
        let p = QuantPolicy::q8(); // step 4 raw units
                                   // 101 is 1 above a code boundary: nearest is 100 (code 25).
        assert_eq!(p.round_nearest(Q8_8::from_raw(101)), Q8_8::from_raw(100));
        // 103 is 1 below: nearest is 104 (code 26).
        assert_eq!(p.round_nearest(Q8_8::from_raw(103)), Q8_8::from_raw(104));
        // Exactly half (102) rounds up.
        assert_eq!(p.round_nearest(Q8_8::from_raw(102)), Q8_8::from_raw(104));
        // Grid values are fixed points; ±1 in Q8.8 is on every default grid.
        for p in [QuantPolicy::q4(), QuantPolicy::q6(), QuantPolicy::q8()] {
            assert_eq!(p.round_nearest(Q8_8::one()), Q8_8::one());
            assert_eq!(p.round_nearest(-Q8_8::one()), -Q8_8::one());
            assert_eq!(p.round_nearest(Q8_8::zero()), Q8_8::zero());
        }
    }

    #[test]
    fn apply_raw_matches_the_code_space_round_trip() {
        // The raw-domain writeback shortcut is bit-identical to
        // dequantize(quantize(..)) for every policy, dither phase, and
        // a raw sweep past both rails (the form the one Q write port
        // both engines call relies on: the accelerator's `QuantRt`, the
        // kernel's `WritePort` and the cycle engine's
        // `quantize_writeback`).
        for p in [QuantPolicy::q4(), QuantPolicy::q6(), QuantPolicy::q8()] {
            let span = (p.max_code() + 4) << p.shift();
            let mut raw = -span;
            while raw <= span {
                for rnd in [0u64, 1, (1 << p.shift()) - 1, 0xdead_beef] {
                    assert_eq!(
                        p.apply_raw(raw, rnd),
                        p.dequantize_raw(p.quantize_raw(raw, rnd)),
                        "{} raw={raw} rnd={rnd}",
                        p.format_name()
                    );
                }
                raw += 3;
            }
        }
    }

    #[test]
    fn wider_working_formats_are_supported() {
        // Q16.16 with 8-bit storage, shift 16: step 1.0, range ±128.
        let p = QuantPolicy::new(8, 16);
        p.validate_for::<Q16_16>();
        let v = Q16_16::from_f64(3.0);
        assert_eq!(p.apply(v, 0), v, "integers are on this grid");
        assert_eq!(p.max_value::<Q16_16>().to_f64(), 127.0);
    }
}
