//! The central correctness property of the reproduction: the pipelined
//! accelerator with hazard forwarding is **bit-exact** with the
//! sequential software golden reference, across algorithms, datapath
//! formats, random environments and seeds.

use proptest::prelude::*;
use qtaccel::accel::{AccelConfig, HazardMode, QLearningAccel, SarsaAccel};
use qtaccel::core::trainer::{RefTrainer, TrainerConfig};
use qtaccel::core::MaxMode;
use qtaccel::envs::{ActionSet, GridWorld};
use qtaccel::fixed::{Q16_16, Q8_8};
use qtaccel::hdl::lfsr::Lfsr32;

fn random_grid(seed: u32, eight_actions: bool) -> GridWorld {
    let mut rng = Lfsr32::new(seed);
    let actions = if eight_actions {
        ActionSet::Eight
    } else {
        ActionSet::Four
    };
    GridWorld::random(8, 8, 15, actions, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn q_learning_pipeline_is_bit_exact(
        env_seed in 1u32..10_000,
        train_seed in 1u64..10_000,
        eight in any::<bool>(),
    ) {
        let g = random_grid(env_seed, eight);
        let mut hw = QLearningAccel::<Q8_8>::new(
            &g,
            AccelConfig::default().with_seed(train_seed),
        );
        let mut sw = RefTrainer::<Q8_8, _>::new(
            g.clone(),
            TrainerConfig::q_learning().with_seed(train_seed),
        );
        hw.train_samples(&g, 4_000);
        sw.run_samples(4_000);
        let hw_q = hw.q_table();
        prop_assert_eq!(hw_q.as_slice(), sw.q().as_slice());
    }

    #[test]
    fn sarsa_pipeline_is_bit_exact(
        env_seed in 1u32..10_000,
        train_seed in 1u64..10_000,
        epsilon in 0.05f64..0.9,
    ) {
        let g = random_grid(env_seed, false);
        let mut hw = SarsaAccel::<Q8_8>::new(
            &g,
            AccelConfig::default().with_seed(train_seed),
            epsilon,
        );
        let mut sw = RefTrainer::<Q8_8, _>::new(
            g.clone(),
            TrainerConfig::sarsa(epsilon).with_seed(train_seed),
        );
        hw.train_samples(&g, 4_000);
        sw.run_samples(4_000);
        let hw_q = hw.q_table();
        prop_assert_eq!(hw_q.as_slice(), sw.q().as_slice());
    }

    #[test]
    fn equivalence_holds_in_wide_format_and_exact_scan(
        env_seed in 1u32..10_000,
        train_seed in 1u64..10_000,
    ) {
        let g = random_grid(env_seed, false);
        let cfg = AccelConfig::default()
            .with_seed(train_seed)
            .with_max_mode(MaxMode::ExactScan);
        let mut hw = QLearningAccel::<Q16_16>::new(&g, cfg);
        let mut sw = RefTrainer::<Q16_16, _>::new(
            g.clone(),
            TrainerConfig::q_learning()
                .with_seed(train_seed)
                .with_max_mode(MaxMode::ExactScan),
        );
        hw.train_samples(&g, 3_000);
        sw.run_samples(3_000);
        let hw_q = hw.q_table();
        prop_assert_eq!(hw_q.as_slice(), sw.q().as_slice());
    }

    #[test]
    fn stall_only_mode_matches_forwarding_values(
        env_seed in 1u32..10_000,
        train_seed in 1u64..10_000,
    ) {
        // Stalling trades throughput, never values.
        let g = random_grid(env_seed, false);
        let mut fwd = QLearningAccel::<Q8_8>::new(
            &g,
            AccelConfig::default().with_seed(train_seed),
        );
        let mut stall = QLearningAccel::<Q8_8>::new(
            &g,
            AccelConfig::default()
                .with_seed(train_seed)
                .with_hazard(HazardMode::StallOnly),
        );
        fwd.train_samples(&g, 4_000);
        stall.train_samples(&g, 4_000);
        let (fq, sq) = (fwd.q_table(), stall.q_table());
        prop_assert_eq!(fq.as_slice(), sq.as_slice());
        prop_assert!(stall.stats().cycles >= fwd.stats().cycles);
    }

    #[test]
    fn qmax_is_upper_bound_of_row_max(
        env_seed in 1u32..10_000,
        train_seed in 1u64..10_000,
    ) {
        // Architecture invariant: after any training prefix, every Qmax
        // entry dominates the true row maximum.
        let g = random_grid(env_seed, false);
        let mut hw = QLearningAccel::<Q8_8>::new(
            &g,
            AccelConfig::default().with_seed(train_seed),
        );
        hw.train_samples(&g, 3_000);
        let q = hw.q_table();
        let qmax = hw.qmax_table();
        for s in 0..q.num_states() as u32 {
            let (_, true_max) = q.max_exact(s);
            prop_assert!(qmax.get(s).0 >= true_max, "state {}", s);
        }
    }
}

#[test]
fn equivalence_survives_long_runs() {
    // One long deterministic run on a fixed environment, both engines.
    let g = GridWorld::builder(16, 16)
        .goal(14, 13)
        .obstacles([(4, 4), (4, 5), (9, 9), (10, 9)])
        .build();
    let mut hw = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(1234));
    let mut sw = RefTrainer::<Q8_8, _>::new(g.clone(), TrainerConfig::q_learning().with_seed(1234));
    hw.train_samples(&g, 500_000);
    sw.run_samples(500_000);
    assert_eq!(hw.q_table().as_slice(), sw.q().as_slice());
    assert_eq!(hw.stats().samples, 500_000);
    assert_eq!(hw.stats().cycles, 500_003, "1 sample/cycle after fill");
    assert_eq!(hw.stats().stalls, 0);
}
