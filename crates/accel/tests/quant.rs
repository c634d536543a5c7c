//! Quantized stored Q-table format (DESIGN.md §2.14): bit-exactness of
//! every executor pair at 4/6/8 and 12 stored bits, the on-grid
//! invariant that lets the stall-free kernel read Q in place, quantized checkpoint
//! round-trips, stored-rail health probing, code-domain SEU strikes,
//! and the zero-cost guarantee for unquantized configs.

use qtaccel_accel::config::{AccelConfig, HazardMode};
use qtaccel_accel::qlearning::QLearningAccel;
use qtaccel_accel::sarsa::SarsaAccel;
use qtaccel_accel::FaultConfig;
use qtaccel_core::trainer::{RefTrainer, TrainerConfig};
use qtaccel_envs::{ActionSet, GridWorld};
use qtaccel_fixed::{QuantPolicy, Q8_8};
use qtaccel_telemetry::{CountersOnly, HealthConfig, HealthSink};
use std::path::PathBuf;

const HAZARDS: [HazardMode; 3] = [
    HazardMode::Forwarding,
    HazardMode::StallOnly,
    HazardMode::Ignore,
];

fn formats() -> [QuantPolicy; 3] {
    [QuantPolicy::q8(), QuantPolicy::q6(), QuantPolicy::q4()]
}

/// The formats of the bit-exactness matrix: the three presets, and a
/// 12-bit format wider than a byte, which the stall-free kernel runs too.
fn matrix_formats() -> [QuantPolicy; 4] {
    [
        QuantPolicy::q8(),
        QuantPolicy::q6(),
        QuantPolicy::q4(),
        QuantPolicy::new(12, 2),
    ]
}

fn grid(side: u32) -> GridWorld {
    GridWorld::builder(side, side)
        .goal(side - 1, side - 1)
        .actions(ActionSet::Four)
        .build()
}

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("qtaccel-quant-{}-{name}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn assert_tables_equal<S1, S2>(
    a: &QLearningAccel<Q8_8, S1>,
    b: &QLearningAccel<Q8_8, S2>,
    label: &str,
) where
    S1: qtaccel_telemetry::TraceSink,
    S2: qtaccel_telemetry::TraceSink,
{
    assert_eq!(
        a.q_table().as_slice(),
        b.q_table().as_slice(),
        "{label}: Q-table diverged"
    );
    assert_eq!(a.qmax_table(), b.qmax_table(), "{label}: Qmax diverged");
}

/// The bit-exactness matrix: both algorithms × every hazard mode ×
/// cycle-accurate vs fast executor, at each stored width. Under
/// Forwarding the fast side runs the stall-free kernel, which reads Q in
/// place and writes it back through the stochastic rounder; the other
/// hazard modes run the cycle-accurate engine from both entry points.
#[test]
fn quantized_runs_are_bit_exact_q_learning() {
    let g = grid(8);
    for policy in matrix_formats() {
        for hazard in HAZARDS {
            let cfg = AccelConfig::default().with_seed(0x51).with_hazard(hazard);
            let mut slow = QLearningAccel::<Q8_8>::new(&g, cfg);
            let mut fast = QLearningAccel::<Q8_8>::new(&g, cfg);
            slow.enable_quant(policy);
            fast.enable_quant(policy);
            let ss = slow.train_samples(&g, 12_000);
            let sf = fast.train_samples_fast(&g, 12_000);
            let label = format!("{} {hazard:?}", policy.format_name());
            assert_eq!(ss, sf, "{label}: CycleStats diverged");
            assert_tables_equal(&slow, &fast, &label);
        }
    }
}

#[test]
fn quantized_runs_are_bit_exact_sarsa() {
    let g = grid(8);
    for policy in matrix_formats() {
        for hazard in HAZARDS {
            let cfg = AccelConfig::default().with_seed(0x52).with_hazard(hazard);
            let mut slow = SarsaAccel::<Q8_8>::new(&g, cfg, 0.2);
            let mut fast = SarsaAccel::<Q8_8>::new(&g, cfg, 0.2);
            slow.enable_quant(policy);
            fast.enable_quant(policy);
            let ss = slow.train_samples(&g, 12_000);
            let sf = fast.train_samples_fast(&g, 12_000);
            let label = format!("{} {hazard:?}", policy.format_name());
            assert_eq!(ss, sf, "{label}: CycleStats diverged");
            assert_eq!(
                slow.q_table().as_slice(),
                fast.q_table().as_slice(),
                "{label}: Q-table diverged"
            );
            assert_eq!(
                slow.qmax_table(),
                fast.qmax_table(),
                "{label}: Qmax diverged"
            );
        }
    }
}

/// The stall-free kernel against the cycle-accurate engine on a
/// quantized table: a `CountersOnly` sink keeps quantized
/// training off the stall-free kernel (instrumented pipelines never take
/// it), so both legs call `train_samples_fast` and check each other
/// directly.
#[test]
fn kernel_matches_instrumented_cycle_engine_on_quantized_tables() {
    let g = grid(9);
    for policy in formats() {
        let cfg = AccelConfig::default().with_seed(0x53);
        let mut kernel = QLearningAccel::<Q8_8>::new(&g, cfg);
        let mut cycle = QLearningAccel::<Q8_8, CountersOnly>::with_sink(&g, cfg, CountersOnly);
        kernel.enable_quant(policy);
        cycle.enable_quant(policy);
        let sk = kernel.train_samples_fast(&g, 15_000);
        let sc = cycle.train_samples_fast(&g, 15_000);
        let label = policy.format_name();
        assert_eq!(sk, sc, "{label}: CycleStats diverged");
        assert_tables_equal(&kernel, &cycle, &label);
    }
}

/// Executors interleave freely mid-run under quantization: the
/// kernel's entry/exit protocol must hand the in-flight window and the
/// dither stream back losslessly. The last leg attaches a zero-rate
/// fault runtime, which moves the fast path onto the cycle-accurate
/// engine without striking anything.
#[test]
fn quantized_executors_interleave_freely() {
    let g = grid(7);
    let policy = QuantPolicy::q8();
    let cfg = AccelConfig::default().with_seed(0x54);
    let mut pure = QLearningAccel::<Q8_8>::new(&g, cfg);
    let mut mixed = QLearningAccel::<Q8_8>::new(&g, cfg);
    pure.enable_quant(policy);
    mixed.enable_quant(policy);
    let stats_pure = pure.train_samples(&g, 9_000);
    mixed.train_samples(&g, 2_000);
    mixed.train_samples_fast(&g, 3_000);
    mixed.train_samples(&g, 1_000);
    mixed.enable_faults(FaultConfig::default());
    let stats_mixed = mixed.train_samples_fast(&g, 3_000);
    assert_eq!(stats_pure, stats_mixed, "CycleStats diverged");
    assert_tables_equal(&pure, &mixed, "mixed executors");
}

/// Transitivity to the sequential software reference: the RefTrainer's
/// quantize hook draws the same dither stream in the same per-sample
/// order, so its table matches the hardware pipeline bit-for-bit.
#[test]
fn quantized_fast_path_matches_golden_reference() {
    let g = grid(8);
    for policy in formats() {
        for seed in [1u64, 7, 42] {
            let mut hw = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(seed));
            hw.enable_quant(policy);
            let mut sw =
                RefTrainer::<Q8_8, _>::new(g.clone(), TrainerConfig::q_learning().with_seed(seed));
            sw.enable_quant(policy);
            hw.train_samples_fast(&g, 20_000);
            sw.run_samples(20_000);
            assert_eq!(
                hw.q_table().as_slice(),
                sw.q().as_slice(),
                "{} seed {seed}: pipeline diverged from sequential reference",
                policy.format_name()
            );
        }
    }
}

/// The on-grid invariant, stated directly: after any quantized run,
/// every architectural Q word sits exactly on the stored grid.
#[test]
fn quantized_tables_stay_on_grid() {
    let g = grid(8);
    for policy in formats() {
        let mut a = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(0x55));
        a.enable_quant(policy);
        a.train_samples_fast(&g, 25_000);
        let q = a.q_table();
        for (i, &v) in q.as_slice().iter().enumerate() {
            assert!(
                policy.try_code(v).is_some(),
                "{}: entry {i} = {} off the stored grid",
                policy.format_name(),
                v.to_f64()
            );
        }
    }
}

/// Mid-run checkpoint round-trip with quantization active: the quant
/// section (policy + dither-LFSR phase) restores bit-exactly, including
/// into a fresh engine that never called `enable_quant`, and resume
/// across mixed executors reproduces the straight-through run.
#[test]
fn quantized_checkpoint_roundtrip_is_bit_exact() {
    for policy in [QuantPolicy::q8(), QuantPolicy::q4()] {
        for hazard in HAZARDS {
            let g = grid(8);
            let cfg = AccelConfig::default().with_seed(0xB7).with_hazard(hazard);
            let mut straight = QLearningAccel::<Q8_8>::new(&g, cfg);
            straight.enable_quant(policy);
            straight.train_samples(&g, 6_123);
            straight.train_samples_fast(&g, 5_000);

            let path = tmp(&format!("{}-{hazard:?}", policy.format_name()));
            let mut first = QLearningAccel::<Q8_8>::new(&g, cfg);
            first.enable_quant(policy);
            first.train_samples(&g, 6_123);
            first.save_checkpoint(&path).expect("save");
            drop(first); // the "crash"

            // The resumed engine adopts the stored format from the file.
            let mut resumed = QLearningAccel::<Q8_8>::new(&g, cfg);
            assert!(resumed.quant().is_none());
            resumed.restore_checkpoint(&path).expect("restore");
            assert_eq!(resumed.quant(), Some(&policy), "policy must be adopted");
            resumed.train_samples_fast(&g, 5_000);

            let label = format!("{}/{hazard:?}", policy.format_name());
            assert_eq!(resumed.stats(), straight.stats(), "{label}: stats");
            assert_tables_equal(&resumed, &straight, &label);
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// An unquantized checkpoint restored into a previously quantized
/// engine clears the stored format — the file is the source of truth.
/// Rewards follow it: with a goal reward off the 8-bit grid, both
/// executors of the restored engine must train on the unsnapped reward,
/// exactly as an engine restored from the same file that was never
/// quantized.
#[test]
fn unquantized_checkpoint_clears_quant_on_restore() {
    let off_grid = GridWorld::builder(6, 6)
        .goal(5, 5)
        .actions(ActionSet::Four)
        .goal_reward(0.3)
        .build();
    let cfg = AccelConfig::default().with_seed(0xC1);
    for (label, g) in [
        ("on-grid rewards", grid(6)),
        ("off-grid goal reward", off_grid),
    ] {
        let mut plain = QLearningAccel::<Q8_8>::new(&g, cfg);
        plain.train_samples(&g, 3_000);
        let path = tmp("plain");
        plain.save_checkpoint(&path).expect("save");

        let mut quantized = QLearningAccel::<Q8_8>::new(&g, cfg);
        quantized.enable_quant(QuantPolicy::q8());
        quantized.restore_checkpoint(&path).expect("restore");
        assert!(
            quantized.quant().is_none(),
            "{label}: restore must clear quant"
        );
        let mut reference = QLearningAccel::<Q8_8>::new(&g, cfg);
        reference.restore_checkpoint(&path).expect("restore");
        let _ = std::fs::remove_file(&path);

        quantized.train_samples(&g, 2_000);
        reference.train_samples(&g, 2_000);
        assert_tables_equal(&quantized, &reference, &format!("{label}: cycle-accurate"));
        quantized.train_samples_fast(&g, 4_000);
        reference.train_samples_fast(&g, 4_000);
        assert_tables_equal(&quantized, &reference, &format!("{label}: fast path"));
        plain.train_samples_fast(&g, 6_000);
        assert_tables_equal(&quantized, &plain, &format!("{label}: unbroken run"));
    }
}

/// Satellite 3: with quantization active the health probe's rail
/// comparators watch the *stored* rails. A 4-bit table saturates and
/// rides its narrow rails constantly; the same workload at 16 bits
/// never comes near ±2^15 — so the counter separates the two regimes.
#[test]
fn health_rail_proximity_uses_stored_rails() {
    let g = grid(8);
    let cfg = AccelConfig::default().with_seed(0x61);
    let sink = || {
        HealthSink::new(HealthConfig {
            stride: 1,
            near_rail_bits: 2,
        })
    };
    let mut quantized = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, sink());
    quantized.enable_quant(QuantPolicy::q4());
    quantized.train_samples_fast(&g, 40_000);
    let near_q4 = quantized.health_probe().expect("probe").near_rail_q();

    let mut wide = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, sink());
    wide.train_samples_fast(&g, 40_000);
    let near_w16 = wide.health_probe().expect("probe").near_rail_q();

    assert!(
        near_q4 > 0,
        "4-bit training saturates at the stored rails; the probe must see it"
    );
    assert_eq!(
        near_w16, 0,
        "the 16-bit run never approaches ±2^15; stored-rail accounting must not \
         inherit the quantized width"
    );
    // Probes stay engine-exact under quantization too.
    let mut cyc = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, sink());
    cyc.enable_quant(QuantPolicy::q4());
    cyc.train_samples(&g, 40_000);
    assert_eq!(
        cyc.into_sink().into_probe(),
        quantized.into_sink().into_probe(),
        "probe state must be bit-exact across executors under quant"
    );
}

/// SEU strikes against a quantized table land in the code domain: a
/// flipped stored bit moves the word to another grid point, never off
/// the grid — so the kernel's in-place working-format reads stay
/// lossless, even mid-campaign.
#[test]
fn fault_strikes_stay_in_the_code_domain() {
    let g = grid(8);
    let policy = QuantPolicy::q6();
    let cfg = AccelConfig::default().with_seed(0x71);
    let mut a = QLearningAccel::<Q8_8>::new(&g, cfg);
    a.enable_quant(policy);
    a.enable_faults(FaultConfig::default().with_seu_rate(2e-3));
    a.train_samples(&g, 20_000);
    let stats = a.fault_stats().expect("fault runtime attached");
    assert!(stats.injected_q > 0, "campaign must have struck");
    for (i, &v) in a.q_table().as_slice().iter().enumerate() {
        assert!(
            policy.try_code(v).is_some(),
            "struck entry {i} = {} left the stored grid",
            v.to_f64()
        );
    }
    // The direct injection hook folds any requested bit into the code
    // domain the same way.
    let mut b = QLearningAccel::<Q8_8>::new(&g, cfg);
    b.enable_quant(policy);
    b.train_samples(&g, 1_000);
    b.inject_q_bit_flip(0, 0, 13);
    assert!(
        policy.try_code(b.q_table().get(0, 0)).is_some(),
        "direct injection must stay on the stored grid"
    );
}

/// Narrow formats still learn: an 8-bit table on the 8×8 grid reaches a
/// usable greedy policy (the formats experiment quantifies the full
/// Pareto; this is the smoke-level floor).
#[test]
fn eight_bit_training_learns_a_usable_policy() {
    let g = grid(8);
    let mut a = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(0x81));
    a.enable_quant(QuantPolicy::q8());
    a.train_samples_fast(&g, 300_000);
    let opt = qtaccel_core::eval::step_optimality(&g, &a.greedy_policy(), &g.shortest_distances());
    assert!(opt > 0.85, "8-bit step-optimality {opt}");
}

/// Unquantized configs pay nothing: no policy, and the resource model
/// reports the full-width baseline unchanged.
#[test]
fn unquantized_configs_are_untouched() {
    // Large enough that 16-bit and 8-bit words land in different BRAM
    // depth buckets.
    let g = grid(256);
    let plain = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
    assert!(plain.quant().is_none());
    let mut quantized = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
    quantized.enable_quant(QuantPolicy::q8());
    let (rp, rq) = (plain.resources(), quantized.resources());
    assert!(
        rq.report.bram36 < rp.report.bram36,
        "8-bit storage must narrow the BRAM footprint ({} vs {})",
        rq.report.bram36,
        rp.report.bram36
    );
    assert_eq!(
        rp.report.dsp, rq.report.dsp,
        "datapath multipliers unchanged"
    );
}

/// `enable_quant` is a pre-training switch.
#[test]
#[should_panic(expected = "enable_quant before training starts")]
fn enable_quant_rejects_mid_run_adoption() {
    let g = grid(4);
    let mut a = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
    a.train_samples(&g, 10);
    a.enable_quant(QuantPolicy::q8());
}
