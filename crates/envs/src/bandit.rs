//! Multi-armed bandit workloads (§VII-B).
//!
//! "In MAB, the agent chooses one out of M arms where each arm is
//! associated with its own state Sₘ at time t and instantaneous reward
//! qₘ,ₜ which is obtained using some probability distribution (usually
//! normal distribution)."
//!
//! [`GaussianBandit`] is the stateless variant: M arms with per-arm
//! normal reward distributions. It is an [`Environment`] of one state
//! and M actions, exactly the change the paper describes ("we can adapt
//! our design to accelerate MAB with only changes to the rewards table
//! in the first stage"): R(0, a) is arm a's mean and
//! [`Environment::reward_std`] its std, so an engine with a noisy reward
//! unit reads the mean from the reward table and adds Irwin–Hall noise
//! from its own LFSRs. [`GaussianBandit::pull`] draws from the bandit's
//! own sampler ([`qtaccel_hdl::NormalLfsr`]), for the software
//! references in `qtaccel_core::bandit`.

use crate::{Action, Environment, State};
use qtaccel_hdl::lfsr::NormalLfsr;
use qtaccel_hdl::rng::{epsilon_to_q32, RngSource};

/// One arm's reward distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arm {
    /// Mean reward.
    pub mean: f64,
    /// Reward standard deviation.
    pub std: f64,
}

/// An M-armed bandit with Gaussian rewards.
#[derive(Debug, Clone)]
pub struct GaussianBandit {
    arms: Vec<Arm>,
    sampler: NormalLfsr,
}

impl GaussianBandit {
    /// Bandit with the given arms, rewards sampled by an Irwin–Hall
    /// normal sampler seeded with `seed`.
    pub fn new(arms: Vec<Arm>, seed: u32) -> Self {
        assert!(!arms.is_empty(), "bandit needs at least one arm");
        for (i, arm) in arms.iter().enumerate() {
            assert!(arm.std >= 0.0, "arm {i} has negative std");
        }
        Self {
            arms,
            sampler: NormalLfsr::new(seed),
        }
    }

    /// Convenience: `m` arms with means `0, 1/m, 2/m, …` and unit-free
    /// std `std` — a standard synthetic benchmark configuration.
    pub fn linear_means(m: usize, std: f64, seed: u32) -> Self {
        assert!(m >= 2, "need at least two arms");
        let arms = (0..m)
            .map(|i| Arm {
                mean: i as f64 / m as f64,
                std,
            })
            .collect();
        Self::new(arms, seed)
    }

    /// Number of arms.
    pub fn num_arms(&self) -> usize {
        self.arms.len()
    }

    /// The arm descriptors.
    pub fn arms(&self) -> &[Arm] {
        &self.arms
    }

    /// Draw one reward for pulling `arm`.
    pub fn pull(&mut self, arm: usize) -> f64 {
        let a = self.arms[arm];
        self.sampler.sample(a.mean, a.std)
    }

    /// Index of the arm with the highest mean (ties: lowest index).
    pub fn optimal_arm(&self) -> usize {
        let mut best = 0;
        for (i, arm) in self.arms.iter().enumerate() {
            if arm.mean > self.arms[best].mean {
                best = i;
            }
        }
        best
    }

    /// Highest mean reward.
    pub fn optimal_mean(&self) -> f64 {
        self.arms[self.optimal_arm()].mean
    }

    /// Expected per-step regret of pulling `arm`.
    pub fn gap(&self, arm: usize) -> f64 {
        self.optimal_mean() - self.arms[arm].mean
    }
}

/// One state, one action per arm; the transition is the identity and
/// no state ends an episode.
impl Environment for GaussianBandit {
    fn num_states(&self) -> usize {
        1
    }
    fn num_actions(&self) -> usize {
        self.arms.len()
    }
    fn transition(&self, _s: State, _a: Action) -> State {
        0
    }
    fn reward(&self, _s: State, a: Action) -> f64 {
        self.arms[a as usize].mean
    }
    fn is_terminal(&self, _s: State) -> bool {
        false
    }
    fn reward_std(&self, _s: State, a: Action) -> f64 {
        self.arms[a as usize].std
    }
}

/// One arm of a stateful bandit: a small cyclic Markov chain whose state
/// determines the reward mean (§VII-B: "For Stateful Bandits, the state
/// space can be represented by concatenation of the states of individual
/// arms").
///
/// This is a *rested* bandit: an arm's chain advances only when the arm
/// is pulled (with probability `advance_prob`, cyclically).
#[derive(Debug, Clone, PartialEq)]
pub struct ArmChain {
    /// Reward mean per chain state (the chain has `means.len()` states).
    pub means: Vec<f64>,
    /// Reward standard deviation (shared across states).
    pub std: f64,
    /// Probability the chain advances to the next state on a pull.
    pub advance_prob: f64,
}

/// An M-armed *stateful* bandit over the concatenated arm-state space.
///
/// The global state is the mixed-radix encoding of all arm states, so
/// with the paper's "very small (≈5)" arm counts and a few states per
/// arm the Q-table stays tractable ("the size of the resulting table
/// will still be tractable").
#[derive(Debug, Clone)]
pub struct StatefulBandit {
    arms: Vec<ArmChain>,
    state: Vec<usize>,
    sampler: NormalLfsr,
    chain_rng: qtaccel_hdl::lfsr::Lfsr32,
    restless: bool,
}

impl StatefulBandit {
    /// Build from arm chains; `seed` drives both the reward sampler and
    /// the chain transitions.
    pub fn new(arms: Vec<ArmChain>, seed: u32) -> Self {
        assert!(!arms.is_empty(), "bandit needs at least one arm");
        for (i, arm) in arms.iter().enumerate() {
            assert!(!arm.means.is_empty(), "arm {i} needs at least one state");
            assert!(arm.std >= 0.0, "arm {i} has negative std");
            assert!(
                (0.0..=1.0).contains(&arm.advance_prob),
                "arm {i} advance probability out of range"
            );
        }
        let state = vec![0; arms.len()];
        Self {
            arms,
            state,
            sampler: NormalLfsr::new(seed),
            chain_rng: qtaccel_hdl::lfsr::Lfsr32::new(seed.wrapping_mul(2654435761).max(1)),
            restless: false,
        }
    }

    /// Switch to *restless* dynamics: every arm's chain advances (with
    /// its own probability) on every round, pulled or not — the §VII-B
    /// reading where "each arm is associated with its own state Sₘ at
    /// time t". Rested dynamics (the default) only advance the pulled
    /// arm; note that under rested cyclic chains a constant-arm policy
    /// already collects each chain's mean reward, so state-awareness
    /// only pays off under restless dynamics — which is what the
    /// `stateful_engine_beats_the_stateless_view` integration test
    /// demonstrates.
    pub fn restless(mut self) -> Self {
        self.restless = true;
        self
    }

    /// Number of arms (= actions).
    pub fn num_arms(&self) -> usize {
        self.arms.len()
    }

    /// Size of the concatenated state space (`Π` per-arm chain lengths).
    pub fn num_global_states(&self) -> usize {
        self.arms.iter().map(|a| a.means.len()).product()
    }

    /// Mixed-radix encoding of the current arm states.
    pub fn global_state(&self) -> u32 {
        self.encode(&self.state)
    }

    /// Mixed-radix encoding of per-arm states, the inverse of
    /// [`decode`](Self::decode).
    fn encode(&self, states: &[usize]) -> u32 {
        let g = states
            .iter()
            .zip(&self.arms)
            .fold(0, |g, (&s, arm)| g * arm.means.len() + s);
        g as u32
    }

    /// Decode a global state into per-arm states.
    pub fn decode(&self, mut g: u32) -> Vec<usize> {
        let mut out = vec![0usize; self.arms.len()];
        for (i, arm) in self.arms.iter().enumerate().rev() {
            let k = arm.means.len() as u32;
            out[i] = (g % k) as usize;
            g /= k;
        }
        out
    }

    /// Expected reward of pulling `arm` in global state `g`.
    pub fn expected_reward(&self, g: u32, arm: usize) -> f64 {
        let states = self.decode(g);
        self.arms[arm].means[states[arm]]
    }

    /// The myopically optimal arm in global state `g` (highest current
    /// mean; ties to the lowest index).
    pub fn optimal_arm(&self, g: u32) -> usize {
        let states = self.decode(g);
        let mut best = 0;
        for i in 1..self.arms.len() {
            if self.arms[i].means[states[i]] > self.arms[best].means[states[best]] {
                best = i;
            }
        }
        best
    }

    /// Pull `arm`: sample its reward from the current chain state, then
    /// advance the pulled arm's chain (rested) or every chain
    /// (restless). Returns (reward, new global state).
    pub fn pull(&mut self, arm: usize) -> (f64, u32) {
        let a = &self.arms[arm];
        let reward = self.sampler.sample(a.means[self.state[arm]], a.std);
        let mut chain_rng = self.chain_rng.clone();
        let g = self.draw_transition(self.global_state(), arm as Action, &mut chain_rng);
        self.chain_rng = chain_rng;
        self.set_global_state(g);
        (reward, g)
    }

    /// Reset every chain to state 0.
    pub fn reset(&mut self) {
        self.set_global_state(0);
    }

    /// Move the chains to global state `g`.
    pub fn set_global_state(&mut self, g: u32) {
        self.state = self.decode(g);
    }
}

/// The concatenated arm-state space as an environment (§VII-B): R(g, a)
/// is the pulled arm's current mean and `reward_std` its std; the chains
/// advance by LFSR draws ([`draw_transition`](Environment::draw_transition):
/// the pulled arm's, or every arm's when restless, one draw per arm
/// considered), so the deterministic transition stays put. No state ends
/// an episode.
impl Environment for StatefulBandit {
    fn num_states(&self) -> usize {
        self.num_global_states()
    }
    fn num_actions(&self) -> usize {
        self.arms.len()
    }
    fn transition(&self, s: State, _a: Action) -> State {
        s
    }
    fn draw_transition(&self, s: State, a: Action, rng: &mut dyn RngSource) -> State {
        let mut states = self.decode(s);
        for (i, chain) in self.arms.iter().enumerate() {
            if (i == a as usize || self.restless) && rng.explore(epsilon_to_q32(chain.advance_prob))
            {
                states[i] = (states[i] + 1) % chain.means.len();
            }
        }
        self.encode(&states)
    }
    fn reward(&self, s: State, a: Action) -> f64 {
        self.expected_reward(s, a as usize)
    }
    fn reward_std(&self, _s: State, a: Action) -> f64 {
        self.arms[a as usize].std
    }
    fn is_terminal(&self, _s: State) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_statistics_match_arm() {
        let mut b = GaussianBandit::new(
            vec![
                Arm {
                    mean: 0.0,
                    std: 1.0,
                },
                Arm {
                    mean: 5.0,
                    std: 0.5,
                },
            ],
            42,
        );
        let n = 50_000;
        let mean1: f64 = (0..n).map(|_| b.pull(1)).sum::<f64>() / n as f64;
        assert!((mean1 - 5.0).abs() < 0.02, "mean {mean1}");
        let mean0: f64 = (0..n).map(|_| b.pull(0)).sum::<f64>() / n as f64;
        assert!(mean0.abs() < 0.02, "mean {mean0}");
    }

    #[test]
    fn zero_std_is_deterministic() {
        let mut b = GaussianBandit::new(
            vec![Arm {
                mean: 2.0,
                std: 0.0,
            }],
            7,
        );
        for _ in 0..10 {
            assert_eq!(b.pull(0), 2.0);
        }
    }

    #[test]
    fn optimal_arm_and_gap() {
        let b = GaussianBandit::linear_means(5, 0.1, 1);
        assert_eq!(b.num_arms(), 5);
        assert_eq!(b.optimal_arm(), 4);
        assert!((b.optimal_mean() - 0.8).abs() < 1e-12);
        assert!((b.gap(0) - 0.8).abs() < 1e-12);
        assert_eq!(b.gap(4), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = GaussianBandit::linear_means(3, 1.0, 9);
        let mut b = GaussianBandit::linear_means(3, 1.0, 9);
        for arm in [0usize, 1, 2, 1, 0] {
            assert_eq!(a.pull(arm), b.pull(arm));
        }
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn empty_bandit_rejected() {
        GaussianBandit::new(vec![], 1);
    }

    fn stateful() -> StatefulBandit {
        StatefulBandit::new(
            vec![
                ArmChain {
                    means: vec![0.2, 0.9],
                    std: 0.0,
                    advance_prob: 1.0,
                },
                ArmChain {
                    means: vec![0.5, 0.1, 0.7],
                    std: 0.0,
                    advance_prob: 1.0,
                },
            ],
            7,
        )
    }

    #[test]
    fn stateful_global_state_roundtrip() {
        let b = stateful();
        assert_eq!(b.num_global_states(), 6);
        assert_eq!(b.global_state(), 0);
        for g in 0..6u32 {
            let states = b.decode(g);
            // Re-encode by hand.
            let enc = states[0] as u32 * 3 + states[1] as u32;
            assert_eq!(enc, g);
        }
    }

    #[test]
    fn stateful_pull_advances_only_the_pulled_arm() {
        let mut b = stateful();
        // Pull arm 0: its chain (length 2) advances deterministically,
        // arm 1 stays at state 0.
        let (r, g) = b.pull(0);
        assert_eq!(r, 0.2, "reward from the pre-pull state");
        assert_eq!(b.decode(g), vec![1, 0]);
        let (r, g) = b.pull(1);
        assert_eq!(r, 0.5);
        assert_eq!(b.decode(g), vec![1, 1]);
    }

    #[test]
    fn stateful_optimal_arm_depends_on_state() {
        let b = stateful();
        // State (0,0): means are (0.2, 0.5) -> arm 1.
        assert_eq!(b.optimal_arm(0), 1);
        // State (1,0): means are (0.9, 0.5) -> arm 0.
        assert_eq!(b.optimal_arm(3), 0);
        assert_eq!(b.expected_reward(3, 0), 0.9);
    }

    #[test]
    fn stateful_reset() {
        let mut b = stateful();
        b.pull(0);
        b.pull(1);
        assert_ne!(b.global_state(), 0);
        b.reset();
        assert_eq!(b.global_state(), 0);
    }

    #[test]
    fn stateful_chain_advance_probability() {
        let mut b = StatefulBandit::new(
            vec![ArmChain {
                means: vec![0.0, 1.0],
                std: 0.0,
                advance_prob: 0.25,
            }],
            99,
        );
        let n = 40_000;
        let mut advances = 0;
        let mut prev = 0u32;
        for _ in 0..n {
            let (_, g) = b.pull(0);
            if g != prev {
                advances += 1;
            }
            prev = g;
        }
        let frac = advances as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "advance fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn stateful_empty_chain_rejected() {
        StatefulBandit::new(
            vec![ArmChain {
                means: vec![],
                std: 0.0,
                advance_prob: 0.5,
            }],
            1,
        );
    }

    #[test]
    #[should_panic(expected = "negative std")]
    fn negative_std_rejected() {
        GaussianBandit::new(
            vec![Arm {
                mean: 0.0,
                std: -1.0,
            }],
            1,
        );
    }
}
