//! Multi-armed bandit algorithms (§VII-B).
//!
//! The paper positions QTAccel as a substrate for high-throughput MAB —
//! "no FPGA implementation exists for general MAB problems" — and sketches
//! two instantiations:
//!
//! * **ε-greedy bandits**: the Q-table has one state and M actions; the Q
//!   value of an arm is a running estimate of its mean reward.
//! * **EXP3** (Eq. 5): the Q value of arm m is an exponential function of
//!   its accumulated (importance-weighted) reward, and arms are drawn from
//!   the probability-table policy.
//!
//! [`Ucb1`] is included as the classical stochastic-bandit baseline for
//! the regret comparison in the `mab` experiment.

use crate::policy::{draw_weighted, running_sums};
use qtaccel_hdl::rng::{epsilon_to_q32, RngSource};

/// A sequential bandit algorithm: select an arm, observe a reward, update.
pub trait BanditAlgorithm {
    /// Choose an arm for this round.
    fn select(&mut self, rng: &mut dyn RngSource) -> usize;
    /// Feed back the observed reward for `arm`.
    fn update(&mut self, arm: usize, reward: f64);
    /// Number of arms.
    fn num_arms(&self) -> usize;
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// ε-greedy bandit with incremental mean estimates — the single-state
/// Q-table instantiation of QTAccel.
#[derive(Debug, Clone)]
pub struct EpsilonGreedyBandit {
    epsilon_q32: u32,
    estimates: Vec<f64>,
    counts: Vec<u64>,
}

impl EpsilonGreedyBandit {
    /// `m` arms, exploration probability `epsilon`.
    pub fn new(m: usize, epsilon: f64) -> Self {
        assert!(m >= 1);
        Self {
            epsilon_q32: epsilon_to_q32(epsilon),
            estimates: vec![0.0; m],
            counts: vec![0; m],
        }
    }

    /// Current mean-reward estimate per arm.
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }
}

impl BanditAlgorithm for EpsilonGreedyBandit {
    fn select(&mut self, rng: &mut dyn RngSource) -> usize {
        if rng.explore(self.epsilon_q32) {
            rng.below(self.estimates.len() as u32) as usize
        } else {
            // Argmax with lowest-index ties, like the comparator tree.
            let mut best = 0;
            for i in 1..self.estimates.len() {
                if self.estimates[i] > self.estimates[best] {
                    best = i;
                }
            }
            best
        }
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.counts[arm] += 1;
        let n = self.counts[arm] as f64;
        self.estimates[arm] += (reward - self.estimates[arm]) / n;
    }

    fn num_arms(&self) -> usize {
        self.estimates.len()
    }

    fn name(&self) -> &'static str {
        "epsilon-greedy"
    }
}

/// UCB1 (Auer et al.): pull the arm maximizing
/// `estimate + sqrt(2 ln t / n_arm)`.
#[derive(Debug, Clone)]
pub struct Ucb1 {
    estimates: Vec<f64>,
    counts: Vec<u64>,
    t: u64,
}

impl Ucb1 {
    /// `m`-armed UCB1.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1);
        Self {
            estimates: vec![0.0; m],
            counts: vec![0; m],
            t: 0,
        }
    }
}

impl BanditAlgorithm for Ucb1 {
    fn select(&mut self, _rng: &mut dyn RngSource) -> usize {
        // Play each arm once first.
        if let Some(i) = self.counts.iter().position(|&c| c == 0) {
            return i;
        }
        let lt = (self.t as f64).ln();
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for i in 0..self.estimates.len() {
            let bonus = (2.0 * lt / self.counts[i] as f64).sqrt();
            let score = self.estimates[i] + bonus;
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    fn update(&mut self, arm: usize, reward: f64) {
        self.t += 1;
        self.counts[arm] += 1;
        let n = self.counts[arm] as f64;
        self.estimates[arm] += (reward - self.estimates[arm]) / n;
    }

    fn num_arms(&self) -> usize {
        self.estimates.len()
    }

    fn name(&self) -> &'static str {
        "ucb1"
    }
}

/// EXP3 for adversarial bandits (Auer et al.; the paper's Eq. 5):
/// `P(m) = (1−γ)·w(m)/Σw + γ/M` with `w(m) = exp(ℓ(m))`, the log-weight
/// `ℓ(m)` summing the [`exp3_gain`] of each pull of arm m. Rewards are
/// assumed in `[0, 1]` (clamped otherwise). Keeping `ℓ` makes each pull
/// one additive write that cannot overflow; the accelerator's
/// probability-table unit holds `ℓ` in its P table and draws as
/// [`select`](BanditAlgorithm::select) does.
#[derive(Debug, Clone)]
pub struct Exp3 {
    gamma: f64,
    log_weights: Vec<f64>,
    last_probs: Vec<f64>,
    /// The running sums of `last_probs`, which the search reads.
    sums: Vec<f64>,
}

/// Turn a row of log-weights into Eq. 5's selection probabilities in
/// place, with `w(m) = exp(ℓ(m) − max ℓ)` (the shift keeps the
/// exponentials in range; the distribution is scale-invariant).
pub fn exp3_mix(row: &mut [f64], gamma: f64) {
    let top = row.iter().copied().fold(f64::MIN, f64::max);
    row.iter_mut().for_each(|l| *l = (*l - top).exp());
    let (total, m): (f64, f64) = (row.iter().sum(), row.len() as f64);
    row.iter_mut()
        .for_each(|w| *w = (1.0 - gamma) * *w / total + gamma / m);
}

/// The log-weight gain of one pull under Eq. 5: `γ·x/M`, with the
/// importance-weighted reward `x = clamp(r, 0, 1) / p` of an arm drawn
/// with probability `p`.
pub fn exp3_gain(gamma: f64, num_arms: usize, reward: f64, p: f64) -> f64 {
    gamma * (reward.clamp(0.0, 1.0) / p.max(1e-12)) / num_arms as f64
}

impl Exp3 {
    /// `m` arms with mixing coefficient `gamma ∈ (0, 1]`.
    pub fn new(m: usize, gamma: f64) -> Self {
        assert!(m >= 1);
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0,1]");
        Self {
            gamma,
            log_weights: vec![0.0; m],
            last_probs: vec![1.0 / m as f64; m],
            sums: vec![0.0; m],
        }
    }

    /// Current arm-selection probabilities (Eq. 5).
    pub fn probabilities(&self) -> Vec<f64> {
        let mut p = self.log_weights.clone();
        exp3_mix(&mut p, self.gamma);
        p
    }
}

impl BanditAlgorithm for Exp3 {
    fn select(&mut self, rng: &mut dyn RngSource) -> usize {
        self.last_probs.copy_from_slice(&self.log_weights);
        exp3_mix(&mut self.last_probs, self.gamma);
        // The hardware's probability-table search over the running sums.
        running_sums(&self.last_probs, &mut self.sums);
        draw_weighted(&self.sums, rng) as usize
    }

    fn update(&mut self, arm: usize, reward: f64) {
        let gain = exp3_gain(
            self.gamma,
            self.log_weights.len(),
            reward,
            self.last_probs[arm],
        );
        self.log_weights[arm] += gain;
    }

    fn num_arms(&self) -> usize {
        self.log_weights.len()
    }

    fn name(&self) -> &'static str {
        "exp3"
    }
}

/// Run `algo` against `bandit` for `rounds`, returning the cumulative
/// expected regret after each round.
pub fn run_regret(
    algo: &mut dyn BanditAlgorithm,
    bandit: &mut qtaccel_envs::GaussianBandit,
    rounds: usize,
    rng: &mut dyn RngSource,
) -> Vec<f64> {
    assert_eq!(algo.num_arms(), bandit.num_arms(), "arm count mismatch");
    let mut regret = Vec::with_capacity(rounds);
    let mut acc = 0.0;
    for _ in 0..rounds {
        let arm = algo.select(rng);
        let reward = bandit.pull(arm);
        algo.update(arm, reward);
        acc += bandit.gap(arm);
        regret.push(acc);
    }
    regret
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_envs::GaussianBandit;
    use qtaccel_hdl::lfsr::Lfsr32;

    fn bandit() -> GaussianBandit {
        GaussianBandit::linear_means(5, 0.2, 77)
    }

    #[test]
    fn epsilon_greedy_finds_best_arm() {
        let mut b = bandit();
        let mut algo = EpsilonGreedyBandit::new(5, 0.1);
        let mut rng = Lfsr32::new(1);
        run_regret(&mut algo, &mut b, 20_000, &mut rng);
        let best = algo
            .estimates()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 4);
    }

    #[test]
    fn regret_is_sublinear_for_ucb() {
        let mut b = bandit();
        let mut algo = Ucb1::new(5);
        let mut rng = Lfsr32::new(2);
        let regret = run_regret(&mut algo, &mut b, 20_000, &mut rng);
        let early_rate = regret[999] / 1000.0;
        let late_rate = (regret[19_999] - regret[9_999]) / 10_000.0;
        assert!(
            late_rate < early_rate / 2.0,
            "regret rate must fall: early {early_rate}, late {late_rate}"
        );
    }

    #[test]
    fn regret_is_monotone() {
        let mut b = bandit();
        let mut algo = EpsilonGreedyBandit::new(5, 0.1);
        let mut rng = Lfsr32::new(3);
        let regret = run_regret(&mut algo, &mut b, 2_000, &mut rng);
        for w in regret.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn exp3_probabilities_sum_to_one_and_favor_winner() {
        let mut b = GaussianBandit::linear_means(4, 0.1, 5);
        let mut algo = Exp3::new(4, 0.2);
        let mut rng = Lfsr32::new(4);
        // Rewards must be in [0,1]: linear_means(4) means are 0..0.75.
        run_regret(&mut algo, &mut b, 10_000, &mut rng);
        let probs = algo.probabilities();
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 3, "probs {probs:?}");
    }

    #[test]
    fn exp3_floor_probability() {
        // Every arm keeps at least gamma/M probability (Eq. 5's mixing
        // term) — the exploration guarantee.
        let algo = Exp3::new(4, 0.2);
        for p in algo.probabilities() {
            assert!(p >= 0.05 - 1e-12);
        }
    }

    #[test]
    fn exp3_survives_long_runs_without_overflow() {
        let mut algo = Exp3::new(3, 0.3);
        let mut rng = Lfsr32::new(6);
        for _ in 0..200_000 {
            let arm = algo.select(&mut rng);
            algo.update(arm, 1.0);
        }
        assert!(algo.probabilities().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn ucb_plays_every_arm_first() {
        let mut algo = Ucb1::new(5);
        let mut rng = Lfsr32::new(7);
        let mut seen = [false; 5];
        for _ in 0..5 {
            let arm = algo.select(&mut rng);
            assert!(!seen[arm], "arm {arm} repeated in warmup");
            seen[arm] = true;
            algo.update(arm, 0.0);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "arm count mismatch")]
    fn regret_validates_arms() {
        let mut b = bandit();
        let mut algo = Ucb1::new(3);
        let mut rng = Lfsr32::new(8);
        run_regret(&mut algo, &mut b, 10, &mut rng);
    }
}
