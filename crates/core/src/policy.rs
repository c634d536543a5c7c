//! Action-selection policies (§III-B, §V, §VII-B).
//!
//! The architecture is "capable of supporting a variety of action
//! selection policies": the behaviour policy in pipeline stage 1 and the
//! update policy in stage 2 are both instances of [`Policy`]. The
//! hardware realizations are:
//!
//! * **Random** — one LFSR word, range-reduced to an action index.
//! * **Greedy** — a single Qmax-array read (§V-A), no randomness.
//! * **ε-greedy** — an N-bit LFSR word compared against `(1−ε)·2^N`
//!   (§V-B), then either the Qmax read or a uniformly indexed row entry.
//! * **Boltzmann / generic distributions** — a probability table and a
//!   binary search over its row's running weights in `log₂ nⱼ` cycles
//!   (§VII-B), modelled by [`ProbTablePolicy`] and realized by the
//!   accelerator's probability-table fixture, whose weight rule may be
//!   Boltzmann's `exp(Q/T)`.

use crate::qtable::{MaxMode, QTable, QmaxTable};
use qtaccel_envs::{Action, State};
use qtaccel_fixed::QValue;
use qtaccel_hdl::rng::{epsilon_greedy_draw, epsilon_to_q32, RngSource};

/// An action-selection policy over Q-values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Uniform random action (the paper's Q-Learning behaviour policy).
    Random,
    /// Exploit only: the max-Q action (the paper's Q-Learning update
    /// policy).
    Greedy,
    /// Explore with probability ε, exploit otherwise (SARSA's policy).
    EpsilonGreedy {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
    },
}

impl Policy {
    /// Select an action for state `s`.
    ///
    /// `mode` chooses between the hardware Qmax-array read and the exact
    /// row scan for the greedy component. The RNG consumption pattern is
    /// the contract the accelerator model reproduces bit-exactly:
    /// `Random` draws one word; `Greedy` draws none; `EpsilonGreedy`
    /// draws exactly one word (the paper's single-number scheme, §V-B:
    /// the word decides explore-vs-exploit *and*, when exploring,
    /// directly indexes the action).
    pub fn select<V: QValue>(
        &self,
        q: &QTable<V>,
        qmax: &QmaxTable<V>,
        mode: MaxMode,
        s: State,
        rng: &mut dyn RngSource,
    ) -> Action {
        let num_actions = q.num_actions() as u32;
        match *self {
            Policy::Random => rng.below(num_actions),
            Policy::Greedy => greedy_action(q, qmax, mode, s),
            Policy::EpsilonGreedy { epsilon } => {
                match epsilon_greedy_draw(rng, epsilon_to_q32(epsilon), num_actions) {
                    Some(a) => a,
                    None => greedy_action(q, qmax, mode, s),
                }
            }
        }
    }
}

/// The greedy component shared by `Greedy` and `EpsilonGreedy`.
#[inline]
fn greedy_action<V: QValue>(q: &QTable<V>, qmax: &QmaxTable<V>, mode: MaxMode, s: State) -> Action {
    match mode {
        MaxMode::QmaxArray => qmax.get(s).1,
        MaxMode::ExactScan => q.max_exact(s).0,
    }
}

/// One draw from a row of non-negative weights given as their running
/// sums (`cumulative[i]` = w₀ + … + wᵢ), the probability-table search of
/// §VII-B: one LFSR word scaled onto the row total, then a binary search
/// for the first running sum past it. A row whose total is not positive
/// degenerates to a uniform draw from the same word.
pub fn draw_weighted(cumulative: &[f64], rng: &mut dyn RngSource) -> Action {
    let n = cumulative.len();
    let total = cumulative[n - 1];
    if total <= 0.0 {
        return rng.below(n as u32);
    }
    let target = rng.next_f64() * total;
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cumulative[mid] > target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo as Action
}

/// Fill `sums` with the running sums of `weights`, left to right.
pub fn running_sums(weights: &[f64], sums: &mut [f64]) {
    let mut acc = 0.0;
    for (sum, &w) in sums.iter_mut().zip(weights) {
        acc += w;
        *sum = acc;
    }
}

/// The probability-distribution policy table of §VII-B.
///
/// "To implement such probability distribution based policies, we use a
/// table P which stores the probability value for each state-action pair.
/// … Based on a random number generated in `[0, Σ fₜ(Sⱼ, aᵢ))`, a binary
/// search can provide the selected action in log nⱼ cycles."
///
/// Selection draws one word, scales it onto the row total and binary
/// searches the row's running weights ([`draw_weighted`]), reporting
/// `⌈log₂ n⌉` as the modeled cycle cost.
#[derive(Debug, Clone)]
pub struct ProbTablePolicy {
    weights: Vec<f64>,
    num_actions: usize,
    /// The selected row's running sums, refilled by every selection.
    sums: Vec<f64>,
}

impl ProbTablePolicy {
    /// Uniform table over `num_states × num_actions`.
    pub fn uniform(num_states: usize, num_actions: usize) -> Self {
        assert!(num_states > 0 && num_actions > 0);
        Self {
            weights: vec![1.0; num_states * num_actions],
            num_actions,
            sums: vec![0.0; num_actions],
        }
    }

    /// Number of states (rows).
    pub fn num_states(&self) -> usize {
        self.weights.len() / self.num_actions
    }

    /// Number of actions (columns).
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    fn row(&self, s: State) -> &[f64] {
        &self.weights[s as usize * self.num_actions..][..self.num_actions]
    }

    /// Current weight of (s, a).
    pub fn weight(&self, s: State, a: Action) -> f64 {
        self.row(s)[a as usize]
    }

    /// Set the weight of (s, a) — the final-stage probability update the
    /// paper describes ("In the final stage, the probability values need
    /// to be updated").
    pub fn set_weight(&mut self, s: State, a: Action, w: f64) {
        assert!(w >= 0.0 && w.is_finite(), "weights must be finite and >= 0");
        self.weights[s as usize * self.num_actions + a as usize] = w;
    }

    /// Select an action for state `s` and return it with the modeled
    /// selection latency in cycles (`⌈log₂ |A|⌉`, minimum 1).
    pub fn select(&mut self, s: State, rng: &mut dyn RngSource) -> (Action, u32) {
        let base = s as usize * self.num_actions;
        running_sums(&self.weights[base..base + self.num_actions], &mut self.sums);
        let cycles = (usize::BITS - (self.num_actions - 1).leading_zeros()).max(1);
        (draw_weighted(&self.sums, rng), cycles)
    }

    /// Normalized probability of (s, a) under the current weights.
    pub fn probability(&self, s: State, a: Action) -> f64 {
        let total: f64 = self.row(s).iter().sum();
        if total <= 0.0 {
            1.0 / self.num_actions as f64
        } else {
            self.weight(s, a) / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_hdl::lfsr::Lfsr32;

    fn setup() -> (QTable<f64>, QmaxTable<f64>) {
        let mut q = QTable::new(2, 4);
        q.set(0, 2, 5.0);
        q.set(0, 1, 3.0);
        let mut m = QmaxTable::new(2);
        m.rebuild_exact(&q);
        (q, m)
    }

    #[test]
    fn greedy_selects_argmax_both_modes() {
        let (q, m) = setup();
        let mut rng = Lfsr32::new(1);
        for mode in [MaxMode::QmaxArray, MaxMode::ExactScan] {
            let a = Policy::Greedy.select(&q, &m, mode, 0, &mut rng);
            assert_eq!(a, 2, "mode {mode:?}");
        }
    }

    #[test]
    fn greedy_qmax_mode_reads_stale_entry() {
        let (mut q, mut m) = setup();
        // Decrease the argmax entry without touching Qmax.
        q.set(0, 2, 0.1);
        m.update_monotone(0, 2, 0.1); // monotone: no change
        let mut rng = Lfsr32::new(1);
        assert_eq!(
            Policy::Greedy.select(&q, &m, MaxMode::QmaxArray, 0, &mut rng),
            2,
            "hardware mode keeps the stale action"
        );
        assert_eq!(
            Policy::Greedy.select(&q, &m, MaxMode::ExactScan, 0, &mut rng),
            1,
            "exact mode tracks the true max"
        );
    }

    #[test]
    fn random_is_uniform() {
        let (q, m) = setup();
        let mut rng = Lfsr32::new(5);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[Policy::Random.select(&q, &m, MaxMode::QmaxArray, 0, &mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 40_000.0 - 0.25).abs() < 0.02);
        }
    }

    #[test]
    fn epsilon_zero_is_greedy_epsilon_one_is_random() {
        let (q, m) = setup();
        let mut rng = Lfsr32::new(9);
        for _ in 0..100 {
            let a = Policy::EpsilonGreedy { epsilon: 0.0 }.select(
                &q,
                &m,
                MaxMode::ExactScan,
                0,
                &mut rng,
            );
            assert_eq!(a, 2);
        }
        let mut explored = [false; 4];
        for _ in 0..200 {
            let a = Policy::EpsilonGreedy { epsilon: 1.0 }.select(
                &q,
                &m,
                MaxMode::ExactScan,
                0,
                &mut rng,
            );
            explored[a as usize] = true;
        }
        assert!(explored.iter().all(|&b| b), "ε=1 must reach all actions");
    }

    #[test]
    fn epsilon_greedy_explore_fraction() {
        let (q, m) = setup();
        let mut rng = Lfsr32::new(13);
        let eps = 0.3;
        let n = 100_000;
        let mut non_greedy = 0;
        for _ in 0..n {
            let a = Policy::EpsilonGreedy { epsilon: eps }.select(
                &q,
                &m,
                MaxMode::ExactScan,
                0,
                &mut rng,
            );
            if a != 2 {
                non_greedy += 1;
            }
        }
        // Non-greedy fraction should be ~ ε·(|A|−1)/|A| = 0.225.
        let frac = non_greedy as f64 / n as f64;
        assert!((frac - 0.225).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn prob_table_uniform_start() {
        let mut p = ProbTablePolicy::uniform(2, 8);
        assert_eq!(p.probability(0, 3), 0.125);
        let mut rng = Lfsr32::new(31);
        let (a, cycles) = p.select(0, &mut rng);
        assert!(a < 8);
        assert_eq!(cycles, 3, "log2(8) binary-search latency");
    }

    #[test]
    fn prob_table_tracks_weights() {
        let mut p = ProbTablePolicy::uniform(1, 4);
        p.set_weight(0, 2, 7.0);
        // Row: [1, 1, 7, 1] → P(2) = 0.7.
        assert!((p.probability(0, 2) - 0.7).abs() < 1e-12);
        let mut rng = Lfsr32::new(37);
        let n = 50_000;
        let hits = (0..n).filter(|_| p.select(0, &mut rng).0 == 2).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn prob_table_zero_row_degenerates_to_uniform() {
        let mut p = ProbTablePolicy::uniform(1, 4);
        for a in 0..4 {
            p.set_weight(0, a, 0.0);
        }
        let mut rng = Lfsr32::new(41);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[p.select(0, &mut rng).0 as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(p.probability(0, 0), 0.25);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn prob_table_rejects_negative_weight() {
        let mut p = ProbTablePolicy::uniform(1, 2);
        p.set_weight(0, 0, -1.0);
    }

    #[test]
    fn rng_draw_counts_match_contract() {
        use qtaccel_hdl::rng::CountingRng;
        let (q, m) = setup();
        let mut rng = CountingRng::new(Lfsr32::new(3));
        Policy::Greedy.select(&q, &m, MaxMode::QmaxArray, 0, &mut rng);
        assert_eq!(rng.drawn(), 0, "greedy draws nothing");
        Policy::Random.select(&q, &m, MaxMode::QmaxArray, 0, &mut rng);
        assert_eq!(rng.drawn(), 1, "random draws one word");
        // ε-greedy: exactly 1 word regardless of the outcome (the paper's
        // single-number scheme).
        let mut rng = CountingRng::new(Lfsr32::new(3));
        Policy::EpsilonGreedy { epsilon: 0.0 }.select(&q, &m, MaxMode::QmaxArray, 0, &mut rng);
        assert_eq!(rng.drawn(), 1);
        let mut rng = CountingRng::new(Lfsr32::new(3));
        Policy::EpsilonGreedy { epsilon: 1.0 }.select(&q, &m, MaxMode::QmaxArray, 0, &mut rng);
        assert_eq!(rng.drawn(), 1);
    }
}
