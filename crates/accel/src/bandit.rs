//! The Multi-Armed Bandit customizations (§VII-B), as fixtures of the
//! one QRL engine.
//!
//! "We can adapt our design to accelerate MAB with only changes to the
//! rewards table in the first stage. To sample rewards, uniform random
//! numbers can be generated using linear feedback shift registers whose
//! output can be summed up to obtain the normal distribution."
//!
//! [`BanditAccel`] is [`QrlAccel`] with the [`Bandit`] fixture, over a
//! [`GaussianBandit`] as an environment of one state and M actions: its
//! reward unit reads each arm's mean from the reward table and adds the
//! arm's std times one Irwin–Hall sample of its own LFSRs, and the Eq. (3)
//! datapath with γ = 0 keeps an exponentially weighted mean-reward
//! estimate per arm in the one Q row. The greedy arm is the Qmax entry of
//! that row, as in §V-A's engines.
//!
//! Two arm-selection policies are modelled:
//!
//! * **ε-greedy** — the stage-1 single-word scheme, zero extra latency:
//!   one pull per cycle, like the QRL engines.
//! * **EXP3** (Eq. 5) — the probability-table policy unit: arms are drawn
//!   from a P row of log-weights by a binary search that occupies stage 1
//!   for `⌈log₂ M⌉` cycles, and stage 4 adds the pull's
//!   importance-weighted gain to the pulled arm's log-weight. The paper
//!   flags exactly this as the throughput limiter ("We will develop
//!   efficient pipelined implementation of probability based policy
//!   selection … to ensure high-throughput architecture with limited
//!   stalls"); the engine charges those cycles so the `mab_bandits`
//!   experiment can show the gap.
//!
//! [`StatefulBanditAccel`] is the [`Stateful`] fixture over a
//! [`StatefulBandit`]: the same reward unit, plus a transition unit whose
//! own LFSR advances the arm chains.

use crate::config::AccelConfig;
use crate::pipeline::{customization_fixture, shape, QrlAccel, TableRule};
use qtaccel_core::policy::Policy;
use qtaccel_envs::{GaussianBandit, StatefulBandit};
use qtaccel_fixed::QValue;
use qtaccel_telemetry::{NullSink, TraceSink};

/// Arm-selection policy for the bandit engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BanditPolicy {
    /// Single-word ε-greedy over the estimate row. One arm pull per
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

/// The stateless bandit fixture of [`QrlAccel`]: the noisy reward unit,
/// ε-greedy or EXP3 arm selection, a greedy (unused, γ = 0) update read.
#[derive(Debug, Clone, Copy)]
pub struct Bandit;

/// The stateful bandit fixture of [`QrlAccel`]: the noisy reward unit,
/// the chain-advancing transition unit, ε-greedy arm selection.
#[derive(Debug, Clone, Copy)]
pub struct Stateful;

customization_fixture!(Bandit {
    noise: true,
    chains: false,
    roles: [true, false]
});
customization_fixture!(Stateful {
    noise: true,
    chains: true,
    roles: [false, false]
});

/// The MAB accelerator instance.
pub type BanditAccel<V, S = NullSink> = QrlAccel<V, S, Bandit>;

/// The stateful MAB accelerator instance.
pub type StatefulBanditAccel<V, S = NullSink> = QrlAccel<V, S, Stateful>;

/// `config` with the bandit datapath's policies: ε-greedy behaviour (a
/// `Random` word per draw when the P table selects instead), greedy
/// update, no forwarding.
fn bandit_config(mut config: AccelConfig, epsilon: Option<f64>) -> AccelConfig {
    config.trainer.behavior = match epsilon {
        Some(epsilon) => {
            assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0,1]");
            Policy::EpsilonGreedy { epsilon }
        }
        None => Policy::Random,
    };
    config.trainer.update = Policy::Greedy;
    config.trainer.forward_next_action = false;
    config
}

impl<V: QValue> BanditAccel<V> {
    /// Build an engine for `num_arms` arms. `alpha` is the estimate
    /// update rate (the datapath's learning rate with γ = 0).
    pub fn new(num_arms: usize, policy: BanditPolicy, alpha: f64, config: AccelConfig) -> Self {
        Self::with_sink(num_arms, policy, alpha, config, NullSink)
    }
}

impl<V: QValue, S: TraceSink> BanditAccel<V, S> {
    /// Build an instrumented engine: like [`BanditAccel::new`] but
    /// attaching a telemetry `sink` (see [`TraceSink`]).
    pub fn with_sink(
        num_arms: usize,
        policy: BanditPolicy,
        alpha: f64,
        config: AccelConfig,
        sink: S,
    ) -> Self {
        assert!(num_arms >= 2, "need at least two arms");
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        let (epsilon, table) = match policy {
            BanditPolicy::EpsilonGreedy { epsilon } => (Some(epsilon), None),
            BanditPolicy::Exp3 { gamma } => {
                assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0,1]");
                (None, Some(TableRule::Exp3 { gamma }))
            }
        };
        let mut config = bandit_config(config, epsilon);
        config.trainer.alpha = alpha;
        config.trainer.gamma = 0.0;
        let mut engine = Self::build((1, num_arms), config, 0, sink);
        if let Some(rule) = table {
            engine.attach_table(rule);
        }
        engine
    }

    /// Current per-arm estimates (f64 view of the Q row).
    pub fn estimates(&self) -> Vec<f64> {
        self.q_table().row(0).iter().map(|v| v.to_f64()).collect()
    }

    /// Run `rounds` pulls and return the cumulative expected-regret curve.
    pub fn run(&mut self, env: &mut GaussianBandit, rounds: usize) -> Vec<f64> {
        assert_eq!(env.num_arms(), self.num_actions(), "arm count mismatch");
        let mut acc = 0.0;
        (0..rounds)
            .map(|_| {
                acc += env.gap(self.step(&*env).a as usize);
                acc
            })
            .collect()
    }
}

impl<V: QValue> StatefulBanditAccel<V> {
    /// Build an engine sized for `env`'s concatenated state space.
    /// `epsilon` is the exploration probability; α and γ come from the
    /// config (γ = 0 gives the myopic policy that regret is measured
    /// against; γ > 0 plans across chain transitions).
    pub fn new(env: &StatefulBandit, config: AccelConfig, epsilon: f64) -> Self {
        Self::with_sink(env, config, epsilon, NullSink)
    }
}

impl<V: QValue, S: TraceSink> StatefulBanditAccel<V, S> {
    /// Build an instrumented engine: like [`StatefulBanditAccel::new`]
    /// but attaching a telemetry `sink` (see [`TraceSink`]).
    pub fn with_sink(env: &StatefulBandit, config: AccelConfig, epsilon: f64, sink: S) -> Self {
        let config = bandit_config(config, Some(epsilon));
        Self::build(shape(env), config, 0, sink)
    }

    /// One pull: ε-greedy arm for the engine's current global state,
    /// Eq. (3) update toward the next state's Qmax entry. The chains
    /// live in the pipe, so `env`'s state is output only: the first pull
    /// starts from the LFSR start-state selector's state whatever `env`
    /// holds (a `reset` does not reach the engine), and each pull moves
    /// `env`'s chains to where it left them, so `env.global_state()`
    /// reads the state the next pull starts from. Returns (arm, reward).
    pub fn pull_round(&mut self, env: &mut StatefulBandit) -> (usize, f64) {
        self.check_shape(env);
        let t = self.step(&*env);
        env.set_global_state(t.s_next);
        (t.a as usize, t.r.to_f64())
    }

    /// Run `rounds` pulls; returns the cumulative *myopic* expected
    /// regret (against the per-state optimal arm). `env` follows the
    /// engine's chains as with [`pull_round`](Self::pull_round).
    pub fn run(&mut self, env: &mut StatefulBandit, rounds: usize) -> Vec<f64> {
        self.check_shape(env);
        let mut acc = 0.0;
        (0..rounds)
            .map(|_| {
                let t = self.step(&*env);
                env.set_global_state(t.s_next);
                let best = env.expected_reward(t.s, env.optimal_arm(t.s));
                acc += best - env.expected_reward(t.s, t.a as usize);
                acc
            })
            .collect()
    }

    /// Refuse an environment of another arm count or state space.
    fn check_shape(&self, env: &StatefulBandit) {
        assert_eq!(env.num_arms(), self.num_actions(), "arm count mismatch");
        assert_eq!(
            env.num_global_states(),
            self.num_states(),
            "state space mismatch"
        );
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
    fn the_environment_follows_the_engines_chains() {
        let mut env = stateful_env(17);
        let mut e = StatefulBanditAccel::<Q8_8>::new(&env, cfg(), 0.1);
        for _ in 0..200 {
            e.pull_round(&mut env);
            let next = env.global_state();
            let t = e.step(&env);
            assert_eq!(t.s, next, "the next pull starts where env says");
            env.set_global_state(t.s_next);
        }
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

    #[test]
    #[should_panic(expected = "arm count mismatch")]
    fn stateful_engine_refuses_another_arm_count() {
        let mut e = StatefulBanditAccel::<Q8_8>::new(&stateful_env(3), cfg(), 0.1);
        let chain = ArmChain {
            means: vec![0.2, 0.9],
            std: 0.05,
            advance_prob: 0.5,
        };
        e.pull_round(&mut StatefulBandit::new(vec![chain; 2], 3));
    }
}
