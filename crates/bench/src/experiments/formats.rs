//! Datapath format sweep — the ablation behind DESIGN.md §4's choice of
//! Q8.8.
//!
//! The paper never states its fixed-point width; the BRAM figures imply
//! 16 bits (DESIGN.md §4). This sweep makes the trade-off explicit:
//! learning quality and value accuracy against the f64 reference vs the
//! DSP and BRAM cost of each width, on the same workload and seed.

use crate::grids::paper_grid;
use crate::report::render_table;
use qtaccel_accel::resources::{
    analyze_stored, resource_report, resource_report_stored, EngineKind,
};
use qtaccel_accel::{AccelConfig, QLearningAccel};
use qtaccel_core::eval::step_optimality;
use qtaccel_core::trainer::{RefTrainer, TrainerConfig};
use qtaccel_envs::GridWorld;
use qtaccel_fixed::{QValue, QuantPolicy, Q16_16, Q4_12, Q8_8};
use qtaccel_hdl::resource::Device;

/// One format's outcome.
#[derive(Debug, Clone)]
pub struct FormatRow {
    /// Format name (`Q8.8`, `Q8.8/q8s2`, …).
    pub format: String,
    /// Working (datapath) bits per value.
    pub bits: u32,
    /// Stored bits per table entry — narrower than `bits` for the
    /// quantized rows (DESIGN.md §2.14), equal otherwise.
    pub stored_bits: u32,
    /// Step-optimality of the learned policy.
    pub optimality: f64,
    /// RMS error of the learned Q-values against the f64 reference run.
    pub rms_vs_f64: f64,
    /// DSP slices for the four datapath multipliers.
    pub dsp: u64,
    /// BRAM blocks for the largest paper case (262144×8) at this width.
    pub bram_largest_case: u64,
    /// Whether the largest paper case still fits the xcvu13p.
    pub fits_largest_case: bool,
    /// Modeled throughput per watt at the largest paper case (MS/s/W) —
    /// the Pareto axis stored-width narrowing moves.
    pub msps_per_watt: f64,
}

/// The 8-bit stored-format quality gate (the `BENCH_formats.json`
/// acceptance check): at a grid whose diameter sits inside the 8-bit
/// grid's ranking horizon (~15 moves at γ=0.875, see the table note),
/// the quantized policy must hold ≥99% of the 16-bit greedy-policy
/// quality. Anchored at 64 states — beyond the horizon the ranking gap
/// between adjacent actions falls below one stored code and quality
/// degrades by construction, which the Pareto rows record honestly.
#[derive(Debug, Clone)]
pub struct FormatsGate {
    /// Grid size the gate runs at.
    pub states: usize,
    /// Step-optimality of the full-width (Q8.8) run.
    pub baseline_optimality: f64,
    /// Step-optimality of the 8-bit stored (Q8.8/q8s2) run.
    pub quantized_optimality: f64,
    /// quantized / baseline.
    pub ratio: f64,
    /// The acceptance threshold on `ratio`.
    pub target: f64,
    /// Whether the gate holds.
    pub pass: bool,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct Formats {
    /// Grid size trained.
    pub states: usize,
    /// One row per format.
    pub rows: Vec<FormatRow>,
    /// The 8-bit stored-format quality gate.
    pub gate: FormatsGate,
}

fn quality<V: QValue>(a: &QLearningAccel<V>, g: &GridWorld, reference: &[f64]) -> (f64, f64) {
    let opt = step_optimality(g, &a.greedy_policy(), &g.shortest_distances());
    let q = a.q_table();
    let n = reference.len() as f64;
    let rms = (q
        .as_slice()
        .iter()
        .zip(reference)
        .map(|(v, r)| (v.to_f64() - r) * (v.to_f64() - r))
        .sum::<f64>()
        / n)
        .sqrt();
    (opt, rms)
}

fn run_format<V: QValue>(g: &GridWorld, samples: u64, reference: &[f64]) -> (f64, f64) {
    let mut a = QLearningAccel::<V>::new(g, AccelConfig::default().with_seed(77));
    a.train_samples(g, samples);
    quality(&a, g, reference)
}

/// One quantized row: the same workload and seed, with the stored table
/// narrowed to `policy`'s grid and writebacks stochastically rounded.
/// Runs through the fast path, which takes the stall-free kernel with
/// the stochastic rounder on its write port — the loop whose rate the
/// throughput bench's quantized rows record.
fn run_quantized(
    g: &GridWorld,
    samples: u64,
    reference: &[f64],
    policy: QuantPolicy,
) -> (f64, f64) {
    let mut a = QLearningAccel::<Q8_8>::new(g, AccelConfig::default().with_seed(77));
    a.enable_quant(policy);
    a.train_samples_fast(g, samples);
    quality(&a, g, reference)
}

/// Modeled MS/s per watt at the largest paper case (262144×8) for a
/// `stored_bits`-wide table behind a `value_bits` datapath.
fn msps_per_watt(value_bits: u32, stored_bits: u32) -> f64 {
    let r = analyze_stored(
        262_144,
        8,
        value_bits,
        stored_bits,
        EngineKind::QLearning,
        &AccelConfig::default(),
        1.0,
    );
    r.throughput_msps / (r.power_mw / 1000.0)
}

/// Run the sweep on a `states`-state grid with `samples` updates per
/// format.
pub fn run(states: usize, samples: u64) -> Formats {
    let g = paper_grid(states, 4);
    // f64 reference on the identical seed and decision stream.
    let mut reference =
        RefTrainer::<f64, _>::new(g.clone(), TrainerConfig::q_learning().with_seed(77));
    reference.run_samples(samples);
    let ref_q: Vec<f64> = reference.q().as_slice().to_vec();
    let ref_opt = step_optimality(&g, &reference.greedy_policy(), &g.shortest_distances());

    let mut rows = Vec::new();
    macro_rules! sweep {
        ($ty:ty) => {{
            let (opt, rms) = run_format::<$ty>(&g, samples, &ref_q);
            let bits = <$ty as QValue>::storage_bits();
            let r = resource_report(262_144, 8, bits, EngineKind::QLearning);
            rows.push(FormatRow {
                format: <$ty as QValue>::format_name(),
                bits,
                stored_bits: bits,
                optimality: opt,
                rms_vs_f64: rms,
                dsp: r.dsp,
                bram_largest_case: r.bram36,
                fits_largest_case: r.fits(&Device::XCVU13P),
                msps_per_watt: msps_per_watt(bits, bits),
            });
        }};
    }
    sweep!(Q4_12);
    sweep!(Q8_8);
    sweep!(Q16_16);
    // Quantized stored formats behind the Q8.8 datapath (DESIGN.md
    // §2.14): the Pareto frontier the QForce-RL-style narrowing trades
    // along — stored bits vs convergence quality vs modeled MS/s/W.
    for policy in [QuantPolicy::q8(), QuantPolicy::q6(), QuantPolicy::q4()] {
        let (opt, rms) = run_quantized(&g, samples, &ref_q, policy);
        let value_bits = Q8_8::storage_bits();
        let stored = policy.stored_bits();
        let r = resource_report_stored(262_144, 8, value_bits, stored, EngineKind::QLearning);
        rows.push(FormatRow {
            format: format!("Q8.8/{}", policy.format_name()),
            bits: value_bits,
            stored_bits: stored,
            optimality: opt,
            rms_vs_f64: rms,
            dsp: r.dsp,
            bram_largest_case: r.bram36,
            fits_largest_case: r.fits(&Device::XCVU13P),
            msps_per_watt: msps_per_watt(value_bits, stored),
        });
    }
    rows.push(FormatRow {
        format: "f64 (reference)".into(),
        bits: 64,
        stored_bits: 64,
        optimality: ref_opt,
        rms_vs_f64: 0.0,
        dsp: resource_report(262_144, 8, 64, EngineKind::QLearning).dsp,
        bram_largest_case: resource_report(262_144, 8, 64, EngineKind::QLearning).bram36,
        fits_largest_case: false,
        msps_per_watt: msps_per_watt(64, 64),
    });
    Formats {
        states,
        rows,
        gate: gate(samples.min(600_000)),
    }
}

/// Run the 8-bit quality gate (see [`FormatsGate`]) with `samples`
/// updates per side.
pub fn gate(samples: u64) -> FormatsGate {
    const GATE_STATES: usize = 64;
    let g = paper_grid(GATE_STATES, 4);
    let dist = g.shortest_distances();
    let run = |policy: Option<QuantPolicy>| {
        let mut a = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(77));
        if let Some(p) = policy {
            a.enable_quant(p);
        }
        a.train_samples_fast(&g, samples);
        step_optimality(&g, &a.greedy_policy(), &dist)
    };
    let baseline = run(None);
    let quantized = run(Some(QuantPolicy::q8()));
    let ratio = quantized / baseline;
    const TARGET: f64 = 0.99;
    FormatsGate {
        states: GATE_STATES,
        baseline_optimality: baseline,
        quantized_optimality: quantized,
        ratio,
        target: TARGET,
        pass: ratio >= TARGET,
    }
}

impl Formats {
    /// Render the sweep table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.format.clone(),
                    r.bits.to_string(),
                    r.stored_bits.to_string(),
                    format!("{:.3}", r.optimality),
                    format!("{:.4}", r.rms_vs_f64),
                    r.dsp.to_string(),
                    r.bram_largest_case.to_string(),
                    r.fits_largest_case.to_string(),
                    format!("{:.1}", r.msps_per_watt),
                ]
            })
            .collect();
        let mut out = render_table(
            &format!(
                "Datapath format sweep ({} states, gamma=0.875)",
                self.states
            ),
            &[
                "format",
                "bits",
                "stored",
                "optimality",
                "RMS vs f64",
                "DSP",
                "BRAM@262144x8",
                "fits",
                "MS/s/W",
            ],
            &rows,
        );
        out.push_str(
            "note: a format with f fractional bits floors values below 2^-f, capping the
             learnable radius at ln(2^f)/ln(1/gamma) moves (~41 for Q8.8 at gamma=0.875,
             ~62 for Q4.12) - which is why Q8.8 collapses on grids whose diameter exceeds
             its horizon while Q4.12, at the same 16-bit BRAM cost, does not. Range is the
             price: Q4.12 saturates at +/-8, usable only because |Q| <= 1/(1-gamma) = 8.
             The Q8.8/q*s* rows keep the 16-bit datapath and narrow only the *stored*
             word (stochastic-rounding writeback, DESIGN.md 2.14): 8 stored bits halve
             the BRAM of the largest case at matched policy quality; 4 bits halve it
             again and the quality cost finally shows.
",
        );
        out.push_str(&format!(
            "gate: 8-bit stored vs 16-bit at {} states: {:.3} / {:.3} = {:.3} \
             (target >= {:.2}) -> {}\n",
            self.gate.states,
            self.gate.quantized_optimality,
            self.gate.baseline_optimality,
            self.gate.ratio,
            self.gate.target,
            if self.gate.pass { "PASS" } else { "FAIL" },
        ));
        out
    }
}

crate::impl_to_json!(FormatsGate {
    states,
    baseline_optimality,
    quantized_optimality,
    ratio,
    target,
    pass
});

crate::impl_to_json!(FormatRow {
    format,
    bits,
    stored_bits,
    optimality,
    rms_vs_f64,
    dsp,
    bram_largest_case,
    fits_largest_case,
    msps_per_watt
});
crate::impl_to_json!(Formats { states, rows, gate });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_formats_are_more_accurate_and_only_16bit_fits() {
        let f = run(256, 300_000);
        let by_name = |n: &str| f.rows.iter().find(|r| r.format == n).unwrap();
        let q8 = by_name("Q8.8");
        let q16 = by_name("Q16.16");
        let q4 = by_name("Q4.12");
        // Accuracy improves with width.
        assert!(
            q16.rms_vs_f64 < q8.rms_vs_f64,
            "{} vs {}",
            q16.rms_vs_f64,
            q8.rms_vs_f64
        );
        // All fixed formats learn the policy on this small case.
        for r in [q4, q8, q16] {
            assert!(r.optimality > 0.9, "{r:?}");
        }
        // The calibration argument: 16-bit fits the largest case, 32-bit
        // does not.
        assert!(q8.fits_largest_case);
        assert!(q4.fits_largest_case);
        assert!(!q16.fits_largest_case);
        // DSP cost: 4 at <=18 bits, 16 at 32 bits.
        assert_eq!(q8.dsp, 4);
        assert_eq!(q16.dsp, 16);
        // The quantized stored formats: narrower BRAM at the largest
        // case, more MS/s/W, and the 8-bit row holds >=99% of the
        // 16-bit policy quality (the BENCH_formats gate).
        let q8s2 = by_name("Q8.8/q8s2");
        let q4s6 = by_name("Q8.8/q4s6");
        assert_eq!(q8s2.stored_bits, 8);
        assert!(q8s2.bram_largest_case < q8.bram_largest_case, "{q8s2:?}");
        assert!(q4s6.bram_largest_case < q8s2.bram_largest_case, "{q4s6:?}");
        assert!(q8s2.msps_per_watt > q8.msps_per_watt, "{q8s2:?}");
        // The 8-bit quality gate holds at its horizon-covered anchor.
        assert!(f.gate.pass, "8-bit stored quality gate: {:?}", f.gate);
        assert_eq!(f.gate.target, 0.99);
    }
}
