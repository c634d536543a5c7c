//! Linear feedback shift registers — the accelerator's random sources.
//!
//! The paper uses LFSRs for every stochastic decision in the fabric: random
//! start-state selection, random action selection (Q-Learning behaviour
//! policy), the ε-greedy coin flip and uniform action index (SARSA), and —
//! for the MAB extension of §VII-B — normally distributed rewards obtained
//! by summing uniform LFSR outputs ("uniform random numbers can be
//! generated using linear feedback shift registers whose output can be
//! summed up to obtain the normal distribution").
//!
//! Every unit is one [`Lfsr32`]: a Galois-form register with
//! maximal-length taps, so it cycles through all `2^32 − 1` nonzero
//! states, read through one 32-shift leap network per word. The model is
//! bit-exact: the same seed produces the same stream in the pipeline
//! simulator and in the software golden reference. [`NormalLfsr`] sums
//! several of them.

use crate::rng::RngSource;

/// 32-bit Galois LFSR, taps `x^32 + x^22 + x^2 + x^1 + 1` (0x80200003).
///
/// Period `2^32 − 1`. Every engine's random units (start state,
/// behaviour, update, quantizer dither, fault injection) are one of
/// these registers, each drawing a word per 32-shift leap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr32 {
    state: u32,
}

impl Lfsr32 {
    /// Feedback tap mask (Galois form).
    pub const TAPS: u32 = 0x8020_0003;
    /// Register width in bits.
    pub const BITS: u32 = 32;
    /// Full period of the maximal-length sequence.
    pub const PERIOD: u64 = (1u64 << 32) - 1;

    /// Create from a seed. A zero seed is the one forbidden LFSR state
    /// (the register would lock up); it is remapped to 1, exactly as a
    /// hardware reset value would be chosen.
    #[inline]
    pub fn new(seed: u32) -> Self {
        Self {
            state: if seed == 0 { 1 } else { seed },
        }
    }

    /// Advance one shift and return the new register state.
    #[inline]
    pub fn step(&mut self) -> u32 {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb != 0 {
            self.state ^= Self::TAPS;
        }
        self.state
    }

    /// Current register state without advancing.
    #[inline]
    pub fn peek(&self) -> u32 {
        self.state
    }
}

// Word-wide sampling leaps the register a full word width per draw.
// Consecutive bit-serial LFSR states are shifts of each other, so sampling
// a multi-bit field from single-stepped states would produce samples whose
// bits are deterministically correlated across draws (the low bit of draw
// t+1 equals a high bit of draw t). Hardware solves this with a
// "leap-forward" LFSR — an XOR network computing 32 shifts in one clock —
// and that is the primitive `leap32` models.
//
// The Galois step s ↦ (s >> 1) ^ (taps if s&1) is linear over GF(2), so
// the 32-step leap is a fixed linear transform M^32 of the state bits.
// The simulator evaluates it the way the hardware's XOR network would: as
// a constant fan-in of per-byte partial images, precomputed at compile
// time (`leap(s) = T0[s.byte0] ^ T1[s.byte1] ^ T2[s.byte2] ^ T3[s.byte3]`).
// This turns the 32 serially-dependent shifts of the naive model into four
// independent table loads per draw — bit-exact with explicit stepping,
// which `leap_tables_match_naive_stepping` pins down.

const fn build_leap32() -> [[u32; 256]; 4] {
    let mut t = [[0; 256]; 4];
    let mut byte = 0;
    while byte < 4 {
        let mut v = 0;
        while v < 256 {
            // M^32 applied to the basis image v << 8·byte, by naive
            // stepping (linearity makes the XOR of per-byte images equal
            // the image of the full state).
            let mut s = (v as u32) << (8 * byte as u32);
            let mut i = 0;
            while i < 32 {
                let lsb = s & 1;
                s >>= 1;
                if lsb != 0 {
                    s ^= Lfsr32::TAPS;
                }
                i += 1;
            }
            t[byte][v] = s;
            v += 1;
        }
        byte += 1;
    }
    t
}

static LEAP32: [[u32; 256]; 4] = build_leap32();

#[inline(always)]
fn leap32(s: u32) -> u32 {
    LEAP32[0][(s & 0xFF) as usize]
        ^ LEAP32[1][(s >> 8 & 0xFF) as usize]
        ^ LEAP32[2][(s >> 16 & 0xFF) as usize]
        ^ LEAP32[3][(s >> 24) as usize]
}

impl RngSource for Lfsr32 {
    /// One 32-shift leap per word.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.state = leap32(self.state);
        self.state
    }
}

/// Approximate normal sampler built from uniform LFSR outputs
/// (Irwin–Hall / central-limit construction, §VII-B of the paper).
///
/// Summing `K` independent uniforms on `[0, 1)` gives mean `K/2` and
/// variance `K/12`; with the default `K = 12` the standardized sum
/// `Σuᵢ − 6` approximates `N(0, 1)` closely enough for reward sampling,
/// while costing only `K` LFSR shifts and an adder tree — no multipliers,
/// which is why the paper prefers it over Box–Muller style samplers.
#[derive(Debug, Clone)]
pub struct NormalLfsr {
    // One register per uniform term: consecutive states of a *single*
    // Galois LFSR are shifts of each other and therefore strongly
    // correlated, which inflates the Irwin-Hall variance. The hardware
    // described in the paper instantiates k parallel LFSRs feeding an
    // adder tree, which is what we model.
    lfsrs: Vec<Lfsr32>,
}

impl NormalLfsr {
    /// Default number of uniform terms (variance exactly 1).
    pub const DEFAULT_K: u32 = 12;

    /// Sampler with the default 12-term sum.
    pub fn new(seed: u32) -> Self {
        Self::with_terms(seed, Self::DEFAULT_K)
    }

    /// Sampler summing `k ≥ 1` uniform terms from `k` parallel LFSRs.
    /// Larger `k` is closer to Gaussian in the tails at the cost of more
    /// registers.
    pub fn with_terms(seed: u32, k: u32) -> Self {
        assert!(k >= 1, "Irwin-Hall sampler needs at least one term");
        // Derive well-separated seeds with a splitmix-style scramble, as
        // distinct reset values would be chosen per register in hardware.
        let lfsrs = (0..k)
            .map(|i| {
                let mut z =
                    (seed as u64).wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                Lfsr32::new((z ^ (z >> 31)) as u32)
            })
            .collect();
        Self { lfsrs }
    }

    /// One standard-normal sample (approximately).
    pub fn sample_standard(&mut self) -> f64 {
        // Hardware sums k 16-bit uniform words into an integer accumulator
        // and re-biases; we mirror that to stay bit-faithful: each term is
        // the top 16 bits of one register's 32-bit step.
        let mut acc: u64 = 0;
        for l in &mut self.lfsrs {
            acc += (l.next_u32() >> 16) as u64;
        }
        let k = self.lfsrs.len() as u32;
        // acc/2^16 is the Irwin-Hall sum on [0, k); standardize.
        let sum = acc as f64 / 65536.0;
        let mean = k as f64 / 2.0;
        let std = (k as f64 / 12.0).sqrt();
        (sum - mean) / std
    }

    /// One sample from `N(mean, std²)`.
    pub fn sample(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.sample_standard()
    }

    /// Number of uniform terms per sample (= parallel LFSR registers).
    pub fn terms(&self) -> u32 {
        self.lfsrs.len() as u32
    }

    /// The registers' states, one per term, for a checkpoint.
    pub fn states(&self) -> Vec<u32> {
        self.lfsrs.iter().map(Lfsr32::peek).collect()
    }

    /// A sampler whose registers hold `states` (at least one), as
    /// [`states`](Self::states) read them.
    pub fn from_states(states: &[u32]) -> Self {
        assert!(
            !states.is_empty(),
            "Irwin-Hall sampler needs at least one term"
        );
        Self {
            lfsrs: states.iter().map(|&s| Lfsr32::new(s)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngSource;

    #[test]
    fn zero_seed_is_remapped() {
        assert_eq!(Lfsr32::new(0).peek(), 1);
    }

    #[test]
    fn lfsr32_does_not_repeat_early() {
        let mut l = Lfsr32::new(0xDEADBEEF);
        let start = l.peek();
        for _ in 0..1_000_000 {
            assert_ne!(l.step(), start);
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = Lfsr32::new(42);
        let mut b = Lfsr32::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Lfsr32::new(1);
        let mut b = Lfsr32::new(2);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 5, "streams from different seeds nearly identical");
    }

    #[test]
    fn leap_tables_match_naive_stepping() {
        // The precomputed XOR-network leap must be bit-exact with the
        // serially-stepped register across many states.
        let mut s32 = Lfsr32::new(0xDEAD_BEEF);
        for _ in 0..10_000 {
            let naive32 = {
                let mut c = s32.clone();
                let mut w = 0u32;
                for _ in 0..32 {
                    w = c.step();
                }
                w
            };
            assert_eq!(super::leap32(s32.peek()), naive32);
            s32.step();
        }
    }

    /// The exact words the 0x8020_0003 Galois register emits, pinned as
    /// constants (independently computed by serial bit-stepping): guards
    /// the leap table against silent drift, not just against the
    /// in-process serial model.
    #[test]
    fn lfsr32_pinned_golden_words() {
        const GOLD_1: [u32; 8] = [
            0x8A0F_3DB5,
            0x90BD_2FA6,
            0x44C3_8D95,
            0x9725_42A4,
            0xCAE5_AE48,
            0x743C_EA61,
            0xD57C_C71C,
            0x875E_9ED7,
        ];
        const GOLD_ACE1: [u32; 8] = [
            0xE4CF_DF41,
            0xE0E1_1F53,
            0x57F5_9106,
            0x6064_42CC,
            0xC44B_DE46,
            0xAD68_A2E5,
            0x183E_3599,
            0x4758_B56B,
        ];
        const GOLD_BEEF: [u32; 8] = [
            0x96DC_5A83,
            0x39E7_D287,
            0x45F0_53CA,
            0x0210_9929,
            0x0547_B9D9,
            0x1333_280A,
            0x2EED_DAF6,
            0xA43D_4058,
        ];
        for (seed, gold) in [
            (1u32, &GOLD_1),
            (0xACE1, &GOLD_ACE1),
            (0xDEAD_BEEF, &GOLD_BEEF),
        ] {
            let mut u = Lfsr32::new(seed);
            let got: Vec<u32> = (0..8).map(|_| u.next_u32()).collect();
            assert_eq!(got.as_slice(), gold, "seed {seed:#X}");
        }
    }

    #[test]
    fn consecutive_draws_are_not_serially_correlated() {
        // The leap-forward requirement: without it, the low bit of draw
        // t+1 deterministically equals a high bit of draw t and 2-bit
        // action samples can never produce certain successor pairs.
        let mut l = Lfsr32::new(0xACE1);
        let mut pair_counts = [[0u32; 4]; 4];
        let mut prev = (l.next_u32() >> 30) as usize;
        for _ in 0..40_000 {
            let cur = (l.next_u32() >> 30) as usize;
            pair_counts[prev][cur] += 1;
            prev = cur;
        }
        for (i, row) in pair_counts.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                let frac = c as f64 / 40_000.0;
                assert!(
                    (frac - 1.0 / 16.0).abs() < 0.01,
                    "pair ({i},{j}) frequency {frac}"
                );
            }
        }
    }

    #[test]
    fn uniform_output_is_roughly_uniform() {
        // Chi-square over 16 buckets of the top 4 bits; loose bound.
        let mut l = Lfsr32::new(777);
        let n = 160_000;
        let mut buckets = [0u32; 16];
        for _ in 0..n {
            buckets[(l.next_u32() >> 28) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        let chi2: f64 = buckets
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        // 15 dof; 99.9th percentile ≈ 37.7.
        assert!(chi2 < 37.7, "chi2 = {chi2}");
    }

    #[test]
    fn normal_sampler_moments() {
        let mut n = NormalLfsr::new(31337);
        let samples: Vec<f64> = (0..200_000).map(|_| n.sample_standard()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn normal_sampler_is_bounded_like_irwin_hall() {
        // A 12-term Irwin-Hall sum can never exceed ±6 standard deviations.
        let mut n = NormalLfsr::new(5);
        for _ in 0..100_000 {
            let x = n.sample_standard();
            assert!(x.abs() <= 6.0, "sample {x} outside Irwin-Hall support");
        }
    }

    #[test]
    fn normal_sampler_mean_std_transform() {
        let mut n = NormalLfsr::new(99);
        let samples: Vec<f64> = (0..100_000).map(|_| n.sample(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "at least one term")]
    fn normal_sampler_rejects_zero_terms() {
        NormalLfsr::with_terms(1, 0);
    }
}
