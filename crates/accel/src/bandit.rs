//! The Multi-Armed Bandit customization (§VII-B).
//!
//! "We can adapt our design to accelerate MAB with only changes to the
//! rewards table in the first stage. To sample rewards, uniform random
//! numbers can be generated using linear feedback shift registers whose
//! output can be summed up to obtain the normal distribution."
//!
//! [`BanditAccel`] is the single-state instantiation: the Q-table has one
//! state and M actions (one per arm); the reward BRAM is replaced by an
//! Irwin–Hall normal sampler; the Eq. (3) datapath with γ = 0 maintains
//! an exponentially weighted mean-reward estimate per arm.
//!
//! Two arm-selection policies are modelled:
//!
//! * **ε-greedy** — the stage-2 single-word scheme, zero extra latency:
//!   one sample per cycle, like the QRL engines.
//! * **EXP3** (Eq. 5) — probability-table selection via binary search,
//!   which occupies the selection stage for `⌈log₂ M⌉` cycles. The paper
//!   flags exactly this as the throughput limiter ("We will develop
//!   efficient pipelined implementation of probability based policy
//!   selection … to ensure high-throughput architecture with limited
//!   stalls"); the model charges those stall cycles so the
//!   `mab_bandits` experiment can show the gap.

use crate::config::AccelConfig;
use crate::resources::{analyze, AccelResources, EngineKind};
use qtaccel_core::bandit::{BanditAlgorithm, Exp3};
use qtaccel_core::trainer::seed_unit;
use qtaccel_envs::GaussianBandit;
use qtaccel_fixed::QValue;
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_hdl::rng::{epsilon_greedy_draw, epsilon_to_q32, SeedSequence};

const FILL: u64 = 3;

/// Arm-selection policy for the bandit engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BanditPolicy {
    /// Single-word ε-greedy over the estimate registers. One arm pull per
    /// clock cycle.
    EpsilonGreedy {
        /// Exploration probability.
        epsilon: f64,
    },
    /// EXP3 probability-table selection (Eq. 5); costs `⌈log₂ M⌉`
    /// selection cycles per pull.
    Exp3 {
        /// EXP3 mixing coefficient γ ∈ (0, 1].
        gamma: f64,
    },
}

/// The MAB accelerator instance.
#[derive(Debug)]
pub struct BanditAccel<V> {
    policy: BanditPolicy,
    config: AccelConfig,
    alpha_v: V,
    one_minus_alpha: V,
    /// Per-arm mean-reward estimates — the single-state Q row.
    estimates: Vec<V>,
    /// EXP3 functional state (None for ε-greedy).
    exp3: Option<Exp3>,
    select_rng: Lfsr32,
    /// Ring of the last 3 written arms, for hazard (forward) accounting.
    recent_writes: [Option<usize>; 3],
    stats: CycleStats,
}

impl<V: QValue> BanditAccel<V> {
    /// Build an engine for `num_arms` arms. `alpha` is the estimate
    /// update rate (the datapath's learning rate with γ = 0).
    pub fn new(num_arms: usize, policy: BanditPolicy, alpha: f64, config: AccelConfig) -> Self {
        assert!(num_arms >= 2, "need at least two arms");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        if let BanditPolicy::EpsilonGreedy { epsilon } = policy {
            assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0,1]");
        }
        let seeds = SeedSequence::new(config.trainer.seed);
        let alpha_v = V::from_f64(alpha);
        let exp3 = match policy {
            BanditPolicy::Exp3 { gamma } => Some(Exp3::new(num_arms, gamma)),
            BanditPolicy::EpsilonGreedy { .. } => None,
        };
        Self {
            policy,
            alpha_v,
            one_minus_alpha: alpha_v.one_minus(),
            estimates: vec![V::zero(); num_arms],
            exp3,
            select_rng: Lfsr32::new(seeds.derive(seed_unit::of(0, seed_unit::UPDATE))),
            recent_writes: [None; 3],
            stats: CycleStats {
                fill_bubbles: FILL,
                ..CycleStats::default()
            },
            config,
        }
    }

    /// Number of arms.
    pub fn num_arms(&self) -> usize {
        self.estimates.len()
    }

    /// Current per-arm estimates (f64 view of the Q row).
    pub fn estimates(&self) -> Vec<f64> {
        self.estimates.iter().map(|v| v.to_f64()).collect()
    }

    /// Cycle counters.
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    fn select_arm(&mut self) -> (usize, u64) {
        match self.policy {
            BanditPolicy::EpsilonGreedy { epsilon } => {
                let n = self.estimates.len() as u32;
                let arm =
                    match epsilon_greedy_draw(&mut self.select_rng, epsilon_to_q32(epsilon), n) {
                        Some(a) => a as usize,
                        None => {
                            // The single-entry Qmax register: argmax with
                            // lowest-index ties.
                            let mut best = 0;
                            for i in 1..self.estimates.len() {
                                if self.estimates[i].vcmp(self.estimates[best])
                                    == core::cmp::Ordering::Greater
                                {
                                    best = i;
                                }
                            }
                            best
                        }
                    };
                (arm, 0)
            }
            BanditPolicy::Exp3 { .. } => {
                let exp3 = self.exp3.as_mut().expect("EXP3 state present");
                let arm = exp3.select(&mut self.select_rng);
                // Binary search over the cumulative probability row.
                let m = self.estimates.len();
                let cycles = (usize::BITS - (m - 1).leading_zeros()).max(1) as u64;
                (arm, cycles - 1)
            }
        }
    }

    /// One pipeline iteration: select an arm, sample its reward from the
    /// environment's LFSR-normal distribution, update the estimate with
    /// the Eq. (3) datapath (γ = 0). Returns (arm, reward).
    pub fn pull_round(&mut self, env: &mut GaussianBandit) -> (usize, f64) {
        assert_eq!(env.num_arms(), self.estimates.len(), "arm count mismatch");
        let (arm, stall) = self.select_arm();
        let reward = env.pull(arm);
        let r_v = V::from_f64(reward);
        // Hazard accounting: re-reading an arm estimate written within the
        // last 3 cycles needs the forwarding path.
        if self.recent_writes.contains(&Some(arm)) {
            self.stats.forwards += 1;
        }
        // q_new = (1-α)·q + α·r   (the reward-estimate datapath).
        let q_new = self
            .one_minus_alpha
            .mul(self.estimates[arm])
            .add(self.alpha_v.mul(r_v));
        self.estimates[arm] = q_new;
        if let Some(exp3) = self.exp3.as_mut() {
            exp3.update(arm, reward);
        }
        self.recent_writes.rotate_right(1);
        self.recent_writes[0] = Some(arm);
        self.stats.samples += 1;
        self.stats.stalls += stall;
        self.stats.cycles = self.stats.samples + self.stats.stalls + FILL;
        (arm, reward)
    }

    /// Run `rounds` pulls and return the cumulative expected-regret curve.
    pub fn run(&mut self, env: &mut GaussianBandit, rounds: usize) -> Vec<f64> {
        let mut regret = Vec::with_capacity(rounds);
        let mut acc = 0.0;
        for _ in 0..rounds {
            let (arm, _) = self.pull_round(env);
            acc += env.gap(arm);
            regret.push(acc);
        }
        regret
    }

    /// Structural resources and modeled throughput for this instance.
    pub fn resources(&self) -> AccelResources {
        analyze(
            1,
            self.estimates.len(),
            V::storage_bits(),
            EngineKind::Bandit,
            &self.config,
            self.stats
                .samples_per_cycle()
                .max(if self.stats.samples == 0 {
                    match self.policy {
                        BanditPolicy::EpsilonGreedy { .. } => 1.0,
                        BanditPolicy::Exp3 { .. } => {
                            let m = self.estimates.len();
                            1.0 / (usize::BITS - (m - 1).leading_zeros()).max(1) as f64
                        }
                    }
                } else {
                    0.0
                }),
        )
    }
}

/// The *stateful* bandit engine (§VII-B's closing paragraph): "For
/// Stateful Bandits, the state space can be represented by concatenation
/// of the states of individual arms. Typically, the number of arms is
/// very small (≈5), so the size of the resulting table will still be
/// tractable."
///
/// The Q-table spans the concatenated (mixed-radix) state space × M arms.
/// Selection is ε-greedy over the current global state's row — with M ≤ 8
/// arms the comparator tree over the row fits one pipeline stage, so the
/// engine sustains one pull per clock like the stateless variant. The
/// update is Eq. (3) with the *observed* next global state (the pulled
/// arm's chain may have advanced).
#[derive(Debug)]
pub struct StatefulBanditAccel<V> {
    config: AccelConfig,
    epsilon_q32: u32,
    alpha_v: V,
    one_minus_alpha: V,
    alpha_gamma: V,
    q: qtaccel_core::qtable::QTable<V>,
    select_rng: Lfsr32,
    stats: CycleStats,
}

impl<V: QValue> StatefulBanditAccel<V> {
    /// Build an engine sized for `env`'s concatenated state space.
    /// `epsilon` is the exploration probability; α and γ come from the
    /// config (γ = 0 gives the myopic policy that regret is measured
    /// against; γ > 0 plans across chain transitions).
    pub fn new(env: &qtaccel_envs::StatefulBandit, config: AccelConfig, epsilon: f64) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0,1]");
        let seeds = SeedSequence::new(config.trainer.seed);
        let alpha_v = V::from_f64(config.trainer.alpha);
        let gamma_v = V::from_f64(config.trainer.gamma);
        Self {
            epsilon_q32: epsilon_to_q32(epsilon),
            alpha_v,
            one_minus_alpha: alpha_v.one_minus(),
            alpha_gamma: alpha_v.mul(gamma_v),
            q: qtaccel_core::qtable::QTable::new(env.num_global_states(), env.num_arms()),
            select_rng: Lfsr32::new(seeds.derive(seed_unit::of(0, seed_unit::UPDATE))),
            stats: CycleStats {
                fill_bubbles: FILL,
                ..CycleStats::default()
            },
            config,
        }
    }

    /// The learned Q-table over (global state, arm).
    pub fn q_table(&self) -> &qtaccel_core::qtable::QTable<V> {
        &self.q
    }

    /// Cycle counters.
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// One pull: ε-greedy arm for the current global state, Eq. (3)
    /// update toward the next state's row maximum. Returns (arm, reward).
    pub fn pull_round(&mut self, env: &mut qtaccel_envs::StatefulBandit) -> (usize, f64) {
        assert_eq!(env.num_arms(), self.q.num_actions(), "arm count mismatch");
        let s = env.global_state();
        let arm = match epsilon_greedy_draw(
            &mut self.select_rng,
            self.epsilon_q32,
            self.q.num_actions() as u32,
        ) {
            Some(a) => a as usize,
            None => self.q.max_exact(s).0 as usize,
        };
        let (reward, s_next) = env.pull(arm);
        let (_, q_next) = self.q.max_exact(s_next);
        let q_new = self
            .one_minus_alpha
            .mul(self.q.get(s, arm as u32))
            .add(self.alpha_v.mul(V::from_f64(reward)))
            .add(self.alpha_gamma.mul(q_next));
        self.q.set(s, arm as u32, q_new);
        self.stats.samples += 1;
        self.stats.cycles = self.stats.samples + FILL;
        (arm, reward)
    }

    /// Run `rounds` pulls; returns the cumulative *myopic* expected
    /// regret (against the per-state optimal arm).
    pub fn run(&mut self, env: &mut qtaccel_envs::StatefulBandit, rounds: usize) -> Vec<f64> {
        let mut regret = Vec::with_capacity(rounds);
        let mut acc = 0.0;
        for _ in 0..rounds {
            let s = env.global_state();
            let best = env.expected_reward(s, env.optimal_arm(s));
            let (arm, _) = self.pull_round(env);
            acc += best - env.expected_reward(s, arm);
            regret.push(acc);
        }
        regret
    }

    /// Structural resources: a `Π kₘ × M` Q-table plus the bandit
    /// datapath.
    pub fn resources(&self) -> AccelResources {
        analyze(
            self.q.num_states(),
            self.q.num_actions(),
            V::storage_bits(),
            EngineKind::Bandit,
            &self.config,
            self.stats
                .samples_per_cycle()
                .max(if self.stats.samples == 0 { 1.0 } else { 0.0 }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_envs::{ArmChain, StatefulBandit};
    use qtaccel_fixed::Q8_8;

    fn env(seed: u32) -> GaussianBandit {
        GaussianBandit::linear_means(8, 0.1, seed)
    }

    fn cfg() -> AccelConfig {
        AccelConfig::default().with_seed(0xBEEF)
    }

    #[test]
    fn epsilon_greedy_engine_finds_best_arm() {
        let mut e = env(1);
        let mut b =
            BanditAccel::<Q8_8>::new(8, BanditPolicy::EpsilonGreedy { epsilon: 0.1 }, 0.1, cfg());
        b.run(&mut e, 30_000);
        let est = b.estimates();
        let best = est
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 7, "estimates {est:?}");
    }

    #[test]
    fn epsilon_greedy_is_one_pull_per_cycle() {
        let mut e = env(2);
        let mut b =
            BanditAccel::<Q8_8>::new(8, BanditPolicy::EpsilonGreedy { epsilon: 0.1 }, 0.1, cfg());
        b.run(&mut e, 10_000);
        let s = b.stats();
        assert_eq!(s.samples, 10_000);
        assert_eq!(s.stalls, 0);
        assert_eq!(s.cycles, 10_003);
    }

    #[test]
    fn exp3_pays_binary_search_cycles() {
        let mut e = env(3);
        let mut b = BanditAccel::<Q8_8>::new(8, BanditPolicy::Exp3 { gamma: 0.2 }, 0.1, cfg());
        b.run(&mut e, 10_000);
        let s = b.stats();
        // log2(8) = 3 selection cycles: 2 extra stalls per pull.
        assert_eq!(s.stalls, 20_000);
        assert!((s.samples_per_cycle() - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn regret_grows_sublinearly_for_epsilon_greedy() {
        let mut e = env(4);
        let mut b =
            BanditAccel::<Q8_8>::new(8, BanditPolicy::EpsilonGreedy { epsilon: 0.05 }, 0.1, cfg());
        let regret = b.run(&mut e, 40_000);
        let early = regret[3_999] / 4_000.0;
        let late = (regret[39_999] - regret[19_999]) / 20_000.0;
        assert!(late < early / 2.0, "early {early}, late {late}");
    }

    #[test]
    fn forwards_counted_on_repeated_arms() {
        let mut e = GaussianBandit::linear_means(2, 0.0, 5);
        // ε = 0: after warmup the engine hammers the best arm, so every
        // pull after the first few re-reads a just-written estimate.
        let mut b =
            BanditAccel::<Q8_8>::new(2, BanditPolicy::EpsilonGreedy { epsilon: 0.0 }, 0.5, cfg());
        b.run(&mut e, 1_000);
        assert!(b.stats().forwards > 900, "{}", b.stats().forwards);
    }

    #[test]
    fn bandit_resources_are_tiny() {
        let b =
            BanditAccel::<Q8_8>::new(8, BanditPolicy::EpsilonGreedy { epsilon: 0.1 }, 0.1, cfg());
        let r = b.resources();
        assert_eq!(r.report.dsp, 4);
        assert!(r.report.bram36 <= 2, "single-state tables are small");
        assert_eq!(r.throughput_msps, 189.0);
        // EXP3 modeled throughput is a third of that.
        let x = BanditAccel::<Q8_8>::new(8, BanditPolicy::Exp3 { gamma: 0.2 }, 0.1, cfg());
        assert!((x.resources().throughput_msps - 63.0).abs() < 1.0);
    }

    fn stateful_env(seed: u32) -> StatefulBandit {
        StatefulBandit::new(
            vec![
                ArmChain {
                    means: vec![0.2, 0.9],
                    std: 0.05,
                    advance_prob: 0.5,
                },
                ArmChain {
                    means: vec![0.6, 0.1],
                    std: 0.05,
                    advance_prob: 0.5,
                },
                ArmChain {
                    means: vec![0.4, 0.4, 0.4],
                    std: 0.05,
                    advance_prob: 0.5,
                },
            ],
            seed,
        )
    }

    #[test]
    fn stateful_engine_learns_state_dependent_arms() {
        let mut env = stateful_env(7);
        // gamma = 0: the engine's greedy policy is then exactly the
        // myopic per-state argmax that regret is measured against (with
        // gamma > 0 it may rationally pull weaker arms to advance their
        // chains, which is not what this test scores).
        let mut e = StatefulBanditAccel::<Q8_8>::new(&env, cfg().with_gamma(0.0), 0.1);
        e.run(&mut env, 60_000);
        // After training, the greedy arm per global state should mostly
        // match the myopically optimal arm.
        let mut correct = 0;
        let total = env.num_global_states() as u32;
        for g in 0..total {
            if e.q_table().max_exact(g).0 as usize == env.optimal_arm(g) {
                correct += 1;
            }
        }
        assert!(
            correct * 10 >= total * 9,
            "greedy matches optimal in {correct}/{total} states"
        );
    }

    #[test]
    fn stateful_regret_is_sublinear() {
        let mut env = stateful_env(11);
        let mut e = StatefulBanditAccel::<Q8_8>::new(&env, cfg().with_gamma(0.0), 0.08);
        let regret = e.run(&mut env, 60_000);
        let early = regret[5_999] / 6_000.0;
        let late = (regret[59_999] - regret[29_999]) / 30_000.0;
        assert!(late < early, "early {early}, late {late}");
    }

    #[test]
    fn stateful_table_is_tractable_for_five_arms() {
        // The paper's tractability claim: 5 arms x 3 states each.
        let arms: Vec<ArmChain> = (0..5)
            .map(|i| ArmChain {
                means: vec![0.1 * i as f64, 0.2, 0.3],
                std: 0.1,
                advance_prob: 0.3,
            })
            .collect();
        let env = StatefulBandit::new(arms, 3);
        assert_eq!(env.num_global_states(), 243);
        let e = StatefulBanditAccel::<Q8_8>::new(&env, cfg(), 0.1);
        let r = e.resources();
        assert!(
            r.report.bram36 <= 2,
            "243x5 table is tiny: {} blocks",
            r.report.bram36
        );
        assert_eq!(r.throughput_msps, 189.0, "one pull per clock");
    }

    #[test]
    fn stateful_runs_one_pull_per_cycle() {
        let mut env = stateful_env(13);
        let mut e = StatefulBanditAccel::<Q8_8>::new(&env, cfg(), 0.1);
        e.run(&mut env, 10_000);
        assert_eq!(e.stats().samples, 10_000);
        assert_eq!(e.stats().cycles, 10_003);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn stateful_epsilon_validated() {
        let env = stateful_env(1);
        StatefulBanditAccel::<Q8_8>::new(&env, cfg(), -0.1);
    }

    #[test]
    #[should_panic(expected = "at least two arms")]
    fn rejects_single_arm() {
        BanditAccel::<Q8_8>::new(1, BanditPolicy::EpsilonGreedy { epsilon: 0.1 }, 0.1, cfg());
    }
}
