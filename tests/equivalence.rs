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

// ---- §VII-B fixtures ------------------------------------------------------

use qtaccel::accel::pipeline::{Fixture, QrlAccel};
use qtaccel::accel::{BanditAccel, BanditPolicy, ProbPolicyAccel, StatefulBanditAccel, WeightRule};
use qtaccel::core::bandit::{BanditAlgorithm, Exp3};
use qtaccel::core::policy::{Policy, ProbTablePolicy};
use qtaccel::core::qtable::{QTable, QmaxTable};
use qtaccel::core::trainer::seed_unit;
use qtaccel::envs::{ArmChain, Environment, GaussianBandit, RewardTable, StatefulBandit};
use qtaccel::fixed::QValue;
use qtaccel::hdl::explut::ExpLut;
use qtaccel::hdl::lfsr::NormalLfsr;
use qtaccel::hdl::rng::SeedSequence;
use qtaccel::telemetry::NullSink;

const HAZARDS: [HazardMode; 3] = [
    HazardMode::Forwarding,
    HazardMode::StallOnly,
    HazardMode::Ignore,
];

/// What draws the actions of the sequential reference.
enum Selection {
    /// Its behaviour policy, with a greedy update read (the bandits).
    Policy(Policy),
    /// Both selections from `ProbTablePolicy`, whose visited weight each
    /// update refreshes by the rule (Eq. 4).
    Table(ProbTablePolicy, WeightRule, Option<ExpLut>),
    /// Arms from `core::bandit::Exp3`, fed each pull's reward (Eq. 5).
    Exp3(Exp3),
}

/// The §VII-B fixtures' sequential golden reference, built from `core`'s
/// parts one update at a time in the order of the paper's loop: the
/// engine with `Forwarding` or `StallOnly` hazards must match it bit for
/// bit. Its LFSR units are the engine's: start, behaviour and update
/// selectors, the reward-noise sampler and the chain-advance unit.
struct Sequential<E> {
    env: E,
    q: QTable<Q8_8>,
    qmax: QmaxTable<Q8_8>,
    rom: RewardTable<Q8_8>,
    one_minus_alpha: Q8_8,
    alpha: Q8_8,
    alpha_gamma: Q8_8,
    start: Lfsr32,
    behavior: Lfsr32,
    update: Lfsr32,
    noise: Option<NormalLfsr>,
    chains: Option<Lfsr32>,
    selection: Selection,
    carry: Option<u32>,
}

impl<E: Environment> Sequential<E> {
    fn new(
        env: E,
        seed: u64,
        alpha: f64,
        gamma: f64,
        selection: Selection,
        noisy: bool,
        chains: bool,
    ) -> Self {
        let seeds = SeedSequence::new(seed);
        let unit = |u| seeds.derive(seed_unit::of(0, u));
        let mut qmax = QmaxTable::new(env.num_states());
        qmax.randomize_actions(
            env.num_actions() as u32,
            &mut Lfsr32::new(unit(seed_unit::QMAX_INIT)),
        );
        let alpha_v = Q8_8::from_f64(alpha);
        Self {
            q: QTable::new(env.num_states(), env.num_actions()),
            qmax,
            rom: RewardTable::from_env(&env),
            one_minus_alpha: alpha_v.one_minus(),
            alpha: alpha_v,
            alpha_gamma: alpha_v.mul(Q8_8::from_f64(gamma)),
            start: Lfsr32::new(unit(seed_unit::START)),
            behavior: Lfsr32::new(unit(seed_unit::BEHAVIOR)),
            update: Lfsr32::new(unit(seed_unit::UPDATE)),
            noise: noisy.then(|| NormalLfsr::new(unit(seed_unit::REWARD))),
            chains: chains.then(|| Lfsr32::new(unit(seed_unit::CHAINS))),
            selection,
            carry: None,
            env,
        }
    }

    /// One update; returns its (state, action, reward, new Q-value).
    fn step(&mut self) -> (u32, u32, Q8_8, Q8_8) {
        let s = match self.carry.take() {
            Some(s) => s,
            None => self.env.random_start(&mut self.start),
        };
        let a = match &mut self.selection {
            Selection::Policy(p) => p.select(
                &self.q,
                &self.qmax,
                MaxMode::QmaxArray,
                s,
                &mut self.behavior,
            ),
            Selection::Table(p, ..) => p.select(s, &mut self.behavior).0,
            Selection::Exp3(x) => x.select(&mut self.behavior) as u32,
        };
        let s_next = match &mut self.chains {
            Some(rng) => self.env.draw_transition(s, a, rng),
            None => self.env.transition(s, a),
        };
        let mut r = self.rom.get(s, a);
        if let Some(noise) = &mut self.noise {
            r = r.add(Q8_8::from_f64(
                self.env.reward_std(s, a) * noise.sample_standard(),
            ));
        }
        let q_next = match &mut self.selection {
            Selection::Table(p, ..) => self.q.get(s_next, p.select(s_next, &mut self.update).0),
            _ => self.qmax.get(s_next).0,
        };
        let q_new = self
            .one_minus_alpha
            .mul(self.q.get(s, a))
            .add(self.alpha.mul(r))
            .add(self.alpha_gamma.mul(q_next));
        self.q.set(s, a, q_new);
        self.qmax.update_monotone(s, a, q_new);
        match &mut self.selection {
            Selection::Table(p, rule, lut) => {
                p.set_weight(s, a, rule.weight(q_new.to_f64(), lut.as_ref()))
            }
            Selection::Exp3(x) => x.update(a as usize, r.to_f64()),
            Selection::Policy(_) => {}
        }
        self.carry = (!self.env.is_terminal(s_next)).then_some(s_next);
        (s, a, r, q_new)
    }
}

/// The engine against the reference over `n` updates in every hazard
/// mode, update by update (state, action, reward, new Q-value): the same
/// with `Forwarding` and `StallOnly` (which only costs cycles), and
/// different with `Ignore`, whose stale reads are real.
fn check_modes<E: Environment + Clone, A: Fixture>(
    n: usize,
    env: &E,
    engine: impl Fn(HazardMode) -> QrlAccel<Q8_8, NullSink, A>,
    mut reference: Sequential<E>,
) {
    let want: Vec<_> = (0..n).map(|_| reference.step()).collect();
    let mut cycles = Vec::new();
    for hazard in HAZARDS {
        let mut hw = engine(hazard);
        let got: Vec<_> = (0..n)
            .map(|_| {
                let t = hw.step(env);
                (t.s, t.a, t.r, t.q_new)
            })
            .collect();
        cycles.push(hw.stats().cycles);
        if hazard == HazardMode::Ignore {
            assert_ne!(got, want, "Ignore reads stale operands");
        } else {
            assert_eq!(got, want, "{hazard:?}");
        }
    }
    assert!(cycles[1] > cycles[0], "stalls cost cycles: {cycles:?}");
}

#[test]
fn bandit_fixtures_match_the_core_references_in_every_hazard_mode() {
    let arms = 4;
    let env = GaussianBandit::linear_means(arms, 0.2, 7);
    for (policy, selection) in [
        (
            BanditPolicy::EpsilonGreedy { epsilon: 0.2 },
            Selection::Policy(Policy::EpsilonGreedy { epsilon: 0.2 }),
        ),
        (
            BanditPolicy::Exp3 { gamma: 0.3 },
            Selection::Exp3(Exp3::new(arms, 0.3)),
        ),
    ] {
        let cfg = AccelConfig::default().with_seed(3);
        check_modes(
            5_000,
            &env,
            |hazard| BanditAccel::<Q8_8>::new(arms, policy, 0.25, cfg.with_hazard(hazard)),
            Sequential::new(env.clone(), 3, 0.25, 0.0, selection, true, false),
        );
    }
}

#[test]
fn probability_table_fixture_matches_prob_table_policy_in_every_hazard_mode() {
    let g = GridWorld::builder(3, 3).goal(2, 2).build();
    for rule in [
        WeightRule::Boltzmann { temperature: 0.1 },
        WeightRule::Proportional { floor: 0.05 },
    ] {
        let cfg = AccelConfig::default().with_seed(11);
        let table = ProbTablePolicy::uniform(g.num_states(), g.num_actions());
        let selection = Selection::Table(table, rule, rule.lut());
        let (alpha, gamma) = (cfg.trainer.alpha, cfg.trainer.gamma);
        check_modes(
            6_000,
            &g,
            |hazard| ProbPolicyAccel::<Q8_8>::new(&g, cfg.with_hazard(hazard), rule),
            Sequential::new(g.clone(), 11, alpha, gamma, selection, false, false),
        );
    }
}

#[test]
fn stateful_bandit_fixture_matches_the_reference_in_every_hazard_mode() {
    let chain = |means: &[f64]| ArmChain {
        means: means.to_vec(),
        std: 0.1,
        advance_prob: 0.4,
    };
    let env = StatefulBandit::new(vec![chain(&[0.9, 0.1]), chain(&[0.2, 0.7, 0.4])], 5).restless();
    let cfg = AccelConfig::default().with_seed(9).with_gamma(0.5);
    let selection = Selection::Policy(Policy::EpsilonGreedy { epsilon: 0.15 });
    check_modes(
        5_000,
        &env,
        |hazard| StatefulBanditAccel::<Q8_8>::new(&env, cfg.with_hazard(hazard), 0.15),
        Sequential::new(
            env.clone(),
            9,
            cfg.trainer.alpha,
            0.5,
            selection,
            true,
            true,
        ),
    );
}
