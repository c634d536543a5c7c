//! Device descriptors, resource reports, and the fmax / power models.
//!
//! These models stand in for the Vivado place-and-route reports the paper
//! measures (Figs. 3–6). They are *calibrated*, not measured: DESIGN.md §4
//! records the calibration anchors and EXPERIMENTS.md compares the model
//! output against every paper-reported number.

/// Static description of an FPGA device's resource pools.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Marketing/part name.
    pub name: &'static str,
    /// 36 Kb BRAM blocks.
    pub bram36_blocks: u64,
    /// 288 Kb UltraRAM blocks (0 on devices without URAM).
    pub uram_blocks: u64,
    /// DSP slices.
    pub dsp_slices: u64,
    /// Logic LUTs.
    pub luts: u64,
    /// Flip-flops (registers).
    pub ffs: u64,
    /// Achievable clock for this design family when routing pressure is
    /// low, in MHz (the flat region of Fig. 6).
    pub base_fmax_mhz: f64,
}

impl Device {
    /// Xilinx Virtex UltraScale+ VU13P — the paper's main evaluation
    /// device (§VI-A).
    pub const XCVU13P: Device = Device {
        name: "xcvu13p",
        bram36_blocks: 2688,
        uram_blocks: 1280,
        dsp_slices: 12288,
        luts: 1_728_000,
        ffs: 3_456_000,
        base_fmax_mhz: 189.0,
    };

    /// Xilinx Virtex-7 690T — used for the like-for-like comparison with
    /// the baseline in §VI-F.
    pub const VIRTEX7_690T: Device = Device {
        name: "virtex7-690t",
        bram36_blocks: 1470,
        uram_blocks: 0,
        dsp_slices: 3600,
        luts: 433_200,
        ffs: 866_400,
        base_fmax_mhz: 185.0,
    };

    /// Xilinx Virtex-6 LX240T — the device the baseline \[11\] reported on.
    pub const VIRTEX6_LX240T: Device = Device {
        name: "virtex6-lx240t",
        bram36_blocks: 416,
        uram_blocks: 0,
        dsp_slices: 768,
        luts: 150_720,
        ffs: 301_440,
        base_fmax_mhz: 160.0,
    };

    /// Total on-chip BRAM capacity in bits.
    pub fn bram_bits(&self) -> u64 {
        self.bram36_blocks * 36 * 1024
    }

    /// Total UltraRAM capacity in bits.
    pub fn uram_bits(&self) -> u64 {
        self.uram_blocks * 288 * 1024
    }
}

/// Absolute resource consumption of a design instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceReport {
    /// DSP slices (multipliers).
    pub dsp: u64,
    /// 36 Kb BRAM blocks.
    pub bram36: u64,
    /// UltraRAM blocks (only populated when a table is mapped to URAM).
    pub uram: u64,
    /// Logic LUTs.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
}

impl ResourceReport {
    /// Element-wise sum — resources of two sub-designs side by side (used
    /// for the multi-pipeline configurations of §VII-A).
    pub fn combine(self, other: ResourceReport) -> ResourceReport {
        ResourceReport {
            dsp: self.dsp + other.dsp,
            bram36: self.bram36 + other.bram36,
            uram: self.uram + other.uram,
            lut: self.lut + other.lut,
            ff: self.ff + other.ff,
        }
    }

    /// Utilization percentages against a device.
    pub fn utilization(&self, device: &Device) -> Utilization {
        let pct = |used: u64, avail: u64| {
            if avail == 0 {
                if used == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                used as f64 / avail as f64 * 100.0
            }
        };
        Utilization {
            dsp_pct: pct(self.dsp, device.dsp_slices),
            bram_pct: pct(self.bram36, device.bram36_blocks),
            uram_pct: pct(self.uram, device.uram_blocks),
            lut_pct: pct(self.lut, device.luts),
            ff_pct: pct(self.ff, device.ffs),
        }
    }

    /// Does the design fit the device at all?
    pub fn fits(&self, device: &Device) -> bool {
        self.dsp <= device.dsp_slices
            && self.bram36 <= device.bram36_blocks
            && self.uram <= device.uram_blocks
            && self.lut <= device.luts
            && self.ff <= device.ffs
    }
}

/// Fabric cost of a [`crate::regfile::PerfRegFile`] telemetry bank:
/// `num_counters` registers of `counter_bits` flip-flops, one increment
/// adder per register (~1 LUT/bit), a readback mux tree
/// (`counter_bits` × ⌈n/2⌉ two-input muxes per level ≈ one LUT each at
/// the first level, which dominates) and a small address decoder.
///
/// The bank is debug logic: it is *not* part of the baseline engine
/// reports (the paper's design has no perf counters), and the simulator
/// only adds this entry when an instrumented sink is attached — the
/// disabled-by-default cost policy of DESIGN.md §2.6.
pub fn perf_regfile_report(num_counters: u64, counter_bits: u64) -> ResourceReport {
    let ff = num_counters * counter_bits;
    let lut = num_counters * counter_bits          // increment adders
        + counter_bits * num_counters.div_ceil(2)  // readback mux first level
        + 8; // address decode
    ResourceReport {
        dsp: 0,
        bram36: 0,
        uram: 0,
        lut,
        ff,
    }
}

/// Fabric cost of a log2-bucketed histogram monitor (the stall-run-length
/// / latency distribution hardware the telemetry `Histogram` models):
/// `num_buckets` bucket counters of `counter_bits` flip-flops plus one
/// running-sum register, a 64-bit leading-zero count (priority encoder,
/// ~96 LUTs) to pick the bucket, one increment adder per bucket, and the
/// same first-level readback mux tree as [`perf_regfile_report`].
///
/// Like the perf-counter bank, this is debug logic: the simulator only
/// folds it into an engine's resource report when an *event-emitting*
/// sink is attached (the stall-interval stream is what feeds the
/// monitor), keeping the disabled-by-default cost policy.
pub fn histogram_regfile_report(num_buckets: u64, counter_bits: u64) -> ResourceReport {
    let ff = num_buckets * counter_bits + counter_bits; // buckets + running sum
    let lut = num_buckets * counter_bits          // increment adders
        + counter_bits * num_buckets.div_ceil(2)  // readback mux first level
        + 96; // 64-bit LZC bucket select
    ResourceReport {
        dsp: 0,
        bram36: 0,
        uram: 0,
        lut,
        ff,
    }
}

/// Fabric cost of the training-health probe block (the telemetry
/// `HealthProbe` hardware model): a TD-error datapath (one
/// `value_bits`-wide subtractor and absolute-value stage, ~1 LUT/bit
/// each) feeding a [`histogram_regfile_report`]-shaped log2 monitor, two
/// rail-proximity comparators (Q and Qmax write words against both
/// format rails, ~1 LUT/bit each, ~2·`value_bits` total per word with
/// the shared rail constants folded into the LUT masks), a greedy-flip
/// comparator over the action field (~8 LUTs) with its churn counter,
/// the stride down-counter, and a `counter_bits`-wide scalar counter
/// file (samples seen/probed, churn, two near-rail counters — 5
/// registers through [`perf_regfile_report`]'s adder/mux model). The
/// state-visit coverage bitset is one bit per state in BRAM
/// ([`crate::bram::blocks_for`] at width 1) with a popcount register.
///
/// Like the perf and histogram banks, this is debug logic outside the
/// paper's baseline engine: the simulator folds it into a report only
/// when a health-probing sink is attached (DESIGN.md §2.6's
/// disabled-costs-nothing policy, extended to §2.13's health layer).
pub fn health_probe_report(num_states: u64, value_bits: u64, counter_bits: u64) -> ResourceReport {
    // TD-error subtract + abs, then the histogram monitor's own LZC and
    // bucket counters.
    let td_datapath_lut = 2 * value_bits;
    let histogram = histogram_regfile_report(64 + 1, counter_bits);
    // Near-rail comparators for the Q and Qmax write words.
    let rail_cmp_lut = 2 * (2 * value_bits);
    // Greedy-flip compare + stride down-counter decode.
    let control_lut = 8 + counter_bits;
    let scalars = perf_regfile_report(5, counter_bits);
    let coverage_bram = crate::bram::blocks_for(num_states, 1);
    ResourceReport {
        dsp: 0,
        bram36: coverage_bram,
        uram: 0,
        lut: td_datapath_lut + rail_cmp_lut + control_lut + histogram.lut + scalars.lut,
        ff: counter_bits // stride down-counter
            + counter_bits // coverage popcount register
            + histogram.ff
            + scalars.ff,
    }
}

/// Fabric cost of a SECDED (Hamming + overall parity) encoder/decoder
/// pair for one `data_bits`-wide memory (the [`crate::fault::Secded`]
/// codec): the encoder builds `p` parity trees over roughly half the
/// codeword each plus the overall-parity tree (XOR chains pack ~5 inputs
/// per LUT6); the decoder re-derives the same `p + 1` parities from the
/// stored word, decodes the `p`-bit syndrome (one LUT per data bit) and
/// applies the correcting XOR (one more per data bit). The corrected
/// word and the two status flags are registered so the codec does not
/// stretch the BRAM read path.
///
/// The *storage* overhead of the wider codewords is not in this report —
/// it falls out of [`crate::bram::blocks_for`] applied to
/// [`crate::fault::Secded::code_bits`], which is how the accelerator's
/// resource model accounts for it.
pub fn secded_report(data_bits: u32) -> ResourceReport {
    let s = crate::fault::Secded::new(data_bits);
    let k = data_bits as u64;
    let p = s.hamming_parity_bits() as u64;
    let m = k + p; // Hamming codeword, without the overall-parity bit
                   // XOR chain of n inputs: ceil((n-1)/5) LUT6s.
    let xor_luts = |inputs: u64| inputs.saturating_sub(1).div_ceil(5);
    let parity_trees = p * xor_luts(m.div_ceil(2)) + xor_luts(m + 1);
    let lut = parity_trees      // encoder
        + parity_trees          // decoder syndrome re-derivation
        + k                     // syndrome decode (position match per data bit)
        + k; // correction XOR per data bit
    ResourceReport {
        dsp: 0,
        bram36: 0,
        uram: 0,
        lut,
        ff: k + 2, // registered corrected word + corrected/uncorrectable flags
    }
}

/// Resource utilization as percentages of a device's pools.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Utilization {
    /// DSP slice utilization, percent.
    pub dsp_pct: f64,
    /// BRAM block utilization, percent (the Fig. 4 series).
    pub bram_pct: f64,
    /// URAM block utilization, percent.
    pub uram_pct: f64,
    /// LUT utilization, percent.
    pub lut_pct: f64,
    /// Flip-flop utilization, percent (the "Registers" series of Figs. 3/5).
    pub ff_pct: f64,
}

/// Clock-frequency model reproducing the shape of Fig. 6.
///
/// §VI-D explains the measured behaviour: throughput is flat (~189 MS/s)
/// until the state space grows past ~100k states, where BRAM pressure
/// ("more than 50 % of the BRAM would be fully utilized") degrades routing
/// and the clock drops to ~153–156 MHz at |S| = 262144.
///
/// We model fmax as the device base clock minus a quadratic penalty in the
/// state-address width beyond 12 bits:
///
/// ```text
/// fmax(|S|) = base − k · max(0, log2|S| − 12)²       (k = 0.9 MHz)
/// ```
///
/// Calibration anchors (xcvu13p, base 189 MHz): |S| = 4096 → 189 MHz
/// (paper: 186–187, flat region), |S| = 16384 → 185.4 (paper 179–181),
/// |S| = 65536 → 174.6 (paper ≈ 175), |S| = 262144 → 156.6 (paper
/// 153–156 for both 4 and 8 actions — note the paper's Table II shows the
/// *same* degraded clock for 4 actions, whose tables use < 40 % BRAM,
/// which is why the model keys on address width rather than on BRAM
/// percentage directly; the two coincide on the 8-action sweep).
#[derive(Debug, Clone, Copy)]
pub struct FmaxModel {
    /// Address width (log2 states) where degradation begins.
    pub knee_log2_states: f64,
    /// Quadratic penalty coefficient, MHz per (bit beyond knee)².
    pub mhz_per_bit_sq: f64,
    /// Hard floor so the model never predicts an absurd clock.
    pub floor_mhz: f64,
}

impl Default for FmaxModel {
    fn default() -> Self {
        Self {
            knee_log2_states: 12.0,
            mhz_per_bit_sq: 0.9,
            floor_mhz: 50.0,
        }
    }
}

impl FmaxModel {
    /// Modeled clock in MHz for a design with `n_states` on `device`.
    pub fn fmax_mhz(&self, device: &Device, n_states: u64) -> f64 {
        let bits = (n_states.max(2) as f64).log2();
        let over = (bits - self.knee_log2_states).max(0.0);
        (device.base_fmax_mhz - self.mhz_per_bit_sq * over * over).max(self.floor_mhz)
    }

    /// Modeled throughput in **million samples per second** for a design
    /// that retires `samples_per_cycle` updates per clock (1.0 for a full
    /// pipeline, less when stalling, 2.0 for the dual pipeline).
    pub fn throughput_msps(&self, device: &Device, n_states: u64, samples_per_cycle: f64) -> f64 {
        self.fmax_mhz(device, n_states) * samples_per_cycle
    }
}

/// Dynamic + static power model reproducing the shape of the power bars in
/// Figs. 3 and 5.
///
/// Power is dominated by clocked resources: `P = P_static + f · (c_ff·FF +
/// c_dsp·DSP + c_bram·BRAM + c_lut·LUT)`. The per-resource energy
/// coefficients are calibrated so the Q-Learning design lands in the tens
/// of milliwatts and the SARSA design (extra LFSR registers, §VI-C2:
/// "Because of the increase in logic/register utilization the power
/// utilization increases accordingly") lands visibly higher, matching the
/// relative heights in the paper's figures.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Static leakage attributed to the design, mW.
    pub static_mw: f64,
    /// µW per MHz per flip-flop.
    pub uw_per_mhz_ff: f64,
    /// µW per MHz per DSP slice.
    pub uw_per_mhz_dsp: f64,
    /// µW per MHz per BRAM block.
    pub uw_per_mhz_bram: f64,
    /// µW per MHz per LUT.
    pub uw_per_mhz_lut: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            static_mw: 5.0,
            uw_per_mhz_ff: 0.02,
            uw_per_mhz_dsp: 1.2,
            uw_per_mhz_bram: 0.15,
            uw_per_mhz_lut: 0.01,
        }
    }
}

impl PowerModel {
    /// Estimated power in mW at clock `fmax_mhz`.
    pub fn power_mw(&self, report: &ResourceReport, fmax_mhz: f64) -> f64 {
        let dynamic_uw = fmax_mhz
            * (self.uw_per_mhz_ff * report.ff as f64
                + self.uw_per_mhz_dsp * report.dsp as f64
                + self.uw_per_mhz_bram * report.bram36 as f64
                + self.uw_per_mhz_lut * report.lut as f64);
        self.static_mw + dynamic_uw / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_capacities() {
        let d = Device::XCVU13P;
        // 94.5 Mb of BRAM, 360 Mb of URAM — the numbers quoted in the paper.
        assert_eq!(d.bram_bits(), 2688 * 36 * 1024);
        assert!((d.bram_bits() as f64 / 1e6 - 99.09).abs() < 0.1);
        assert!((d.uram_bits() as f64 / 1e6 - 377.5).abs() < 1.0);
    }

    #[test]
    fn utilization_percentages() {
        let r = ResourceReport {
            dsp: 4,
            bram36: 2176,
            uram: 0,
            lut: 1000,
            ff: 500,
        };
        let u = r.utilization(&Device::XCVU13P);
        assert!((u.dsp_pct - 4.0 / 12288.0 * 100.0).abs() < 1e-9);
        // The paper's largest test case lands near 80 % BRAM.
        assert!(u.bram_pct > 75.0 && u.bram_pct < 85.0, "{}", u.bram_pct);
        assert!(r.fits(&Device::XCVU13P));
    }

    #[test]
    fn fits_rejects_oversubscription() {
        let r = ResourceReport {
            bram36: 5000,
            ..Default::default()
        };
        assert!(!r.fits(&Device::XCVU13P));
        let r2 = ResourceReport {
            uram: 1,
            ..Default::default()
        };
        assert!(!r2.fits(&Device::VIRTEX7_690T), "V7 has no URAM");
    }

    #[test]
    fn combine_adds() {
        let a = ResourceReport {
            dsp: 4,
            bram36: 10,
            uram: 0,
            lut: 100,
            ff: 50,
        };
        let b = a;
        let c = a.combine(b);
        assert_eq!(c.dsp, 8);
        assert_eq!(c.bram36, 20);
    }

    #[test]
    fn fmax_flat_then_degrading() {
        let m = FmaxModel::default();
        let d = Device::XCVU13P;
        assert_eq!(m.fmax_mhz(&d, 64), 189.0);
        assert_eq!(m.fmax_mhz(&d, 4096), 189.0);
        let f16k = m.fmax_mhz(&d, 16384);
        let f64k = m.fmax_mhz(&d, 65536);
        let f256k = m.fmax_mhz(&d, 262144);
        assert!(f16k < 189.0 && f16k > 183.0, "{f16k}");
        assert!(f64k < f16k, "monotone decline");
        // Calibration anchor: paper reports 153-156 MS/s at 262144 states.
        assert!((153.0..=158.0).contains(&f256k), "{f256k}");
    }

    #[test]
    fn fmax_has_floor() {
        let m = FmaxModel::default();
        let d = Device::XCVU13P;
        assert_eq!(m.fmax_mhz(&d, u64::MAX), m.floor_mhz);
    }

    #[test]
    fn throughput_scales_with_pipelines() {
        let m = FmaxModel::default();
        let d = Device::XCVU13P;
        let one = m.throughput_msps(&d, 1024, 1.0);
        let two = m.throughput_msps(&d, 1024, 2.0);
        assert_eq!(two, 2.0 * one);
        assert_eq!(one, 189.0);
    }

    #[test]
    fn telemetry_regfile_reports_scale_with_width() {
        let perf = perf_regfile_report(13, 64);
        assert_eq!(perf.ff, 13 * 64);
        assert_eq!(perf.lut, 13 * 64 + 64 * 7 + 8);
        // The histogram monitor: 65 buckets of 64 bits + sum register,
        // and strictly more LUTs than a same-width counter bank (the LZC
        // bucket select costs more than plain address decode).
        let hist = histogram_regfile_report(65, 64);
        assert_eq!(hist.ff, 65 * 64 + 64);
        assert_eq!(hist.lut, 65 * 64 + 64 * 33 + 96);
        assert!(hist.lut > perf_regfile_report(65, 64).lut);
        assert_eq!(hist.dsp, 0);
        assert_eq!(hist.bram36, 0);
    }

    #[test]
    fn health_probe_report_composes_the_monitor_blocks() {
        // 16-bit Q8.8 values, 64-bit counters, 1024 states.
        let h = health_probe_report(1024, 16, 64);
        let hist = histogram_regfile_report(65, 64);
        let scalars = perf_regfile_report(5, 64);
        // FF: stride counter + popcount register + the two counter files.
        assert_eq!(h.ff, 64 + 64 + hist.ff + scalars.ff);
        // LUT: TD subtract/abs (2·16) + rail comparators (2·2·16) +
        // flip compare & stride decode (8 + 64) + the counter files.
        assert_eq!(h.lut, 32 + 64 + 72 + hist.lut + scalars.lut);
        // Coverage bitset: 1024 one-bit entries fit a single 32K×1 block.
        assert_eq!(h.bram36, 1);
        assert_eq!(h.dsp, 0);
        // The probe block stays debug-sized: well under 1% of a VU13P.
        let d = Device::XCVU13P;
        assert!((h.lut as f64) < 0.01 * d.luts as f64);
        assert!((h.ff as f64) < 0.01 * d.ffs as f64);
    }

    #[test]
    fn power_grows_with_resources_and_clock() {
        let p = PowerModel::default();
        let small = ResourceReport {
            dsp: 4,
            bram36: 3,
            uram: 0,
            lut: 500,
            ff: 300,
        };
        let big = ResourceReport {
            dsp: 4,
            bram36: 2176,
            uram: 0,
            lut: 500,
            ff: 900,
        };
        let ps = p.power_mw(&small, 189.0);
        let pb = p.power_mw(&big, 156.0);
        assert!(pb > ps, "more BRAM must cost more power: {ps} vs {pb}");
        assert!(p.power_mw(&small, 100.0) < ps, "slower clock, less power");
        assert!(ps > p.static_mw);
    }
}
