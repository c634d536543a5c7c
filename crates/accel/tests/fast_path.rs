//! Bit-exactness of `run_samples_fast` against the cycle-accurate
//! engine: same Q-table, same Qmax table, same CycleStats, across both
//! algorithms, every hazard mode, both Qmax semantics, and randomized
//! grid shapes — plus free interleaving of the stall-free kernel and the
//! cycle-accurate engine on one pipeline instance. The kernel is the
//! only fast executor: configurations it accepts test it, and every
//! other configuration runs the cycle-accurate engine from the fast
//! entry point too.

use qtaccel_accel::config::{AccelConfig, HazardMode};
use qtaccel_accel::multi::IndependentPipelines;
use qtaccel_accel::pipeline::AccelPipeline;
use qtaccel_accel::qlearning::QLearningAccel;
use qtaccel_accel::sarsa::SarsaAccel;
use qtaccel_core::policy::Policy;
use qtaccel_core::qtable::MaxMode;
use qtaccel_core::trainer::TrainerConfig;
use qtaccel_envs::{ActionSet, GridWorld, PartitionedGrid};
use qtaccel_fixed::{QuantPolicy, Q16_16, Q8_8};
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_hdl::rng::RngSource;

const HAZARDS: [HazardMode; 3] = [
    HazardMode::Forwarding,
    HazardMode::StallOnly,
    HazardMode::Ignore,
];

/// A grid whose shape is derived from the seed: 2..=9 cells per side,
/// four- or eight-action set, goal in the far corner.
fn random_grid(rng: &mut Lfsr32) -> GridWorld {
    let w = 2 + rng.below(8);
    let h = 2 + rng.below(8);
    let actions = if rng.below(2) == 0 {
        ActionSet::Four
    } else {
        ActionSet::Eight
    };
    GridWorld::builder(w, h)
        .goal(w - 1, h - 1)
        .actions(actions)
        .build()
}

fn assert_identical<V: qtaccel_fixed::QValue>(
    slow: &AccelPipeline<V>,
    fast: &AccelPipeline<V>,
    ss: CycleStats,
    sf: CycleStats,
    label: &str,
) {
    assert_eq!(ss, sf, "{label}: CycleStats diverged");
    assert_eq!(
        slow.q_table().as_slice(),
        fast.q_table().as_slice(),
        "{label}: Q-table diverged"
    );
    let (qm_s, qm_f) = (slow.qmax_table(), fast.qmax_table());
    for st in 0..qm_s.len() as qtaccel_envs::State {
        assert_eq!(
            qm_s.get(st),
            qm_f.get(st),
            "{label}: Qmax diverged at state {st}"
        );
    }
}

#[test]
fn fast_path_is_bit_exact_q_learning_all_hazards() {
    for seed in [1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
        let mut shape_rng = Lfsr32::new(seed.wrapping_mul(0x9E37_79B9) as u32 | 1);
        let g = random_grid(&mut shape_rng);
        for hazard in HAZARDS {
            let cfg = AccelConfig::default().with_seed(seed).with_hazard(hazard);
            let mut slow = QLearningAccel::<Q8_8>::new(&g, cfg);
            let mut fast = QLearningAccel::<Q8_8>::new(&g, cfg);
            let ss = slow.train_samples(&g, 12_000);
            let sf = fast.train_samples_fast(&g, 12_000);
            assert_eq!(ss, sf, "seed {seed} {hazard:?}: CycleStats diverged");
            assert_eq!(
                slow.q_table().as_slice(),
                fast.q_table().as_slice(),
                "seed {seed} {hazard:?}: Q-table diverged"
            );
            let (qm_s, qm_f) = (slow.qmax_table(), fast.qmax_table());
            for st in 0..qm_s.len() as qtaccel_envs::State {
                assert_eq!(
                    qm_s.get(st),
                    qm_f.get(st),
                    "seed {seed} {hazard:?}: Qmax diverged"
                );
            }
        }
    }
}

#[test]
fn fast_path_is_bit_exact_sarsa_all_hazards() {
    for seed in [4u64, 6, 7, 9, 11, 17, 23, 42] {
        let mut shape_rng = Lfsr32::new(seed.wrapping_mul(0x6C62_272E) as u32 | 1);
        let g = random_grid(&mut shape_rng);
        let eps = 0.05 + (seed % 5) as f64 * 0.1;
        for hazard in HAZARDS {
            let cfg = AccelConfig::default().with_seed(seed).with_hazard(hazard);
            let mut slow = SarsaAccel::<Q8_8>::new(&g, cfg, eps);
            let mut fast = SarsaAccel::<Q8_8>::new(&g, cfg, eps);
            let ss = slow.train_samples(&g, 12_000);
            let sf = fast.train_samples_fast(&g, 12_000);
            assert_eq!(ss, sf, "seed {seed} {hazard:?}: CycleStats diverged");
            assert_eq!(
                slow.q_table().as_slice(),
                fast.q_table().as_slice(),
                "seed {seed} {hazard:?}: Q-table diverged"
            );
        }
    }
}

#[test]
fn fast_path_is_bit_exact_exact_scan_and_policies() {
    // Exercise the multi-cycle row scan and every synthesizable policy
    // pairing, including the stage-2 random-read path.
    let policies: [(Policy, Policy, bool); 4] = [
        (Policy::Random, Policy::Greedy, false),
        (Policy::Greedy, Policy::Greedy, false),
        (
            Policy::EpsilonGreedy { epsilon: 0.3 },
            Policy::Random,
            false,
        ),
        (
            Policy::EpsilonGreedy { epsilon: 0.15 },
            Policy::EpsilonGreedy { epsilon: 0.15 },
            true,
        ),
    ];
    for seed in [19u64, 31, 47] {
        let mut shape_rng = Lfsr32::new((seed as u32).wrapping_mul(2_654_435_761) | 1);
        let g = random_grid(&mut shape_rng);
        for hazard in HAZARDS {
            for max_mode in [MaxMode::QmaxArray, MaxMode::ExactScan] {
                for (behavior, update, fwd_next) in policies {
                    let mut cfg = AccelConfig::default()
                        .with_seed(seed)
                        .with_hazard(hazard)
                        .with_max_mode(max_mode);
                    cfg.trainer.behavior = behavior;
                    cfg.trainer.update = update;
                    cfg.trainer.forward_next_action = fwd_next;
                    let mut slow = AccelPipeline::<Q16_16>::new(&g, cfg, 0);
                    let mut fast = AccelPipeline::<Q16_16>::new(&g, cfg, 0);
                    let ss = slow.run_samples(&g, 6_000);
                    let sf = fast.run_samples_fast(&g, 6_000);
                    assert_identical(
                        &slow,
                        &fast,
                        ss,
                        sf,
                        &format!("seed {seed} {hazard:?} {max_mode:?} {behavior:?}/{update:?}"),
                    );
                }
            }
        }
    }
}

#[test]
fn executors_interleave_freely() {
    // slow → fast → slow → fast on one instance must equal a pure
    // cycle-accurate run: the entry/exit protocols preserve in-flight
    // state exactly.
    for hazard in HAZARDS {
        let g = GridWorld::builder(3, 5).goal(2, 4).build();
        let cfg = AccelConfig::default().with_seed(97).with_hazard(hazard);
        let mut pure = QLearningAccel::<Q8_8>::new(&g, cfg);
        let mut mixed = QLearningAccel::<Q8_8>::new(&g, cfg);
        let stats_pure = pure.train_samples(&g, 9_000);
        mixed.train_samples(&g, 2_000);
        mixed.train_samples_fast(&g, 3_000);
        mixed.train_samples(&g, 1_000);
        let stats_mixed = mixed.train_samples_fast(&g, 3_000);
        assert_eq!(stats_pure, stats_mixed, "{hazard:?}: CycleStats diverged");
        assert_eq!(
            pure.q_table().as_slice(),
            mixed.q_table().as_slice(),
            "{hazard:?}: Q-table diverged"
        );
        let (qm_p, qm_m) = (pure.qmax_table(), mixed.qmax_table());
        for st in 0..qm_p.len() as qtaccel_envs::State {
            assert_eq!(qm_p.get(st), qm_m.get(st), "{hazard:?}: Qmax diverged");
        }
    }
}

/// Calls of 1–3 samples leave the stall-free kernel's forwarding window
/// partly filled at exit, and the next entry — into the kernel or the
/// cycle-accurate engine — must rebuild it from the reconstructed
/// pending queues. Such calls on an instance whose image already exists,
/// alternated with cycle-accurate calls, must equal a pure
/// cycle-accurate run with both of the kernel's write ports (16-bit
/// and q8) and for both algorithms.
#[test]
fn tiny_kernel_calls_carry_a_partial_window() {
    let g = GridWorld::builder(3, 3).goal(2, 2).build();
    for quant in [None, Some(QuantPolicy::q8())] {
        for sarsa in [false, true] {
            let mut cfg = AccelConfig::default().with_seed(0x71);
            if sarsa {
                cfg.trainer = TrainerConfig::sarsa(0.2).with_seed(0x71);
            }
            let mut pure = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
            let mut mixed = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
            if let Some(policy) = quant {
                pure.enable_quant(policy);
                mixed.enable_quant(policy);
            }
            // The first call builds the image.
            mixed.run_samples_fast(&g, 64);
            for k in 0..3_000u64 {
                mixed.run_samples_fast(&g, 1 + k % 3);
                if k % 2 == 1 {
                    mixed.run_samples(&g, 1 + (k / 2) % 3);
                }
            }
            let sm = mixed.stats();
            let ss = pure.run_samples(&g, sm.samples);
            let label = format!(
                "{} {}",
                quant.map_or("16-bit".to_string(), |p| p.format_name()),
                if sarsa { "sarsa" } else { "q-learning" }
            );
            assert!(ss.forwards > 0, "{label}: a 9-state world must forward");
            assert_identical(&pure, &mixed, ss, sm, &label);
        }
    }
}

#[test]
fn fast_path_zero_samples_is_inert() {
    let g = GridWorld::builder(4, 4).goal(3, 3).build();
    let mut a = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
    let before = a.train_samples(&g, 500);
    let after = a.train_samples_fast(&g, 0);
    assert_eq!(before, after);
}

#[test]
fn independent_pipelines_fast_matches_slow() {
    let mut rng = Lfsr32::new(123);
    let part = PartitionedGrid::new(8, 8, 2, 2, 4, ActionSet::Four, &mut rng);
    let cfg = AccelConfig::default().with_seed(55);
    let mut slow = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg);
    let mut fast = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg);
    let ss = slow.train_samples_sequential(part.partitions(), 8_000);
    let sf = fast.train_batch(part.partitions(), 8_000 * 4).stats;
    assert_eq!(ss, sf, "merged CycleStats diverged");
    for i in 0..slow.len() {
        assert_eq!(
            slow.q_table(i).as_slice(),
            fast.q_table(i).as_slice(),
            "bank {i} Q-table diverged"
        );
    }
}

#[test]
fn fast_path_matches_golden_reference() {
    // Transitivity check straight to the sequential software trainer.
    let g = GridWorld::builder(8, 8).goal(7, 7).build();
    for seed in [1u64, 7, 42] {
        let mut hw = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(seed));
        let mut sw = qtaccel_core::trainer::RefTrainer::<Q8_8, _>::new(
            g.clone(),
            TrainerConfig::q_learning().with_seed(seed),
        );
        hw.train_samples_fast(&g, 20_000);
        sw.run_samples(20_000);
        assert_eq!(
            hw.q_table().as_slice(),
            sw.q().as_slice(),
            "seed {seed}: fast path diverged from sequential reference"
        );
    }
}
