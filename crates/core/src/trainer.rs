//! Step-exact software trainers — the golden references for the pipeline.
//!
//! [`QLearningRef`] and [`SarsaRef`] execute the QRL loop of §IV-B
//! ("(i) Start from any random state … (viii) write the new Q-value back")
//! one update at a time, in exactly the arithmetic and decision order the
//! pipelined accelerator implements:
//!
//! * rewards are read from a pre-quantized [`RewardTable`] (the reward
//!   BRAM), not recomputed in floating point;
//! * the update Eq. (3) is evaluated as three datapath multiplies and two
//!   adds on the [`QValue`] format, with `1−α` and `α·γ` precomputed once
//!   (stage 1 of the pipeline does the same);
//! * the greedy maximum comes from the monotone [`QmaxTable`] when
//!   `MaxMode::QmaxArray` is selected (§V-A);
//! * randomness comes from three independent, enable-gated LFSR units
//!   (start selector, behaviour selector, update selector) seeded through
//!   [`SeedSequence`] — the same construction the accelerator uses.
//!
//! Consequently `QLearningRef` / `SarsaRef` with seed `k` produce
//! *bit-identical* Q-tables to `QLearningAccel` / `SarsaAccel` with seed
//! `k`; the integration tests assert this across random environments.

use crate::policy::Policy;
use crate::qtable::{MaxMode, QTable, QmaxTable};
use qtaccel_envs::{Action, Environment, RewardTable, State};
use qtaccel_fixed::{QValue, QuantPolicy};
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::rng::{RngSource, SeedSequence};

/// RNG-unit indices within a [`SeedSequence`]; shared with the
/// accelerator so both derive identical per-unit streams.
pub mod seed_unit {
    /// Start-state selector unit.
    pub const START: u64 = 0;
    /// Behaviour-policy action selector unit (stage 1).
    pub const BEHAVIOR: u64 = 1;
    /// Update-policy action selector unit (stage 2).
    pub const UPDATE: u64 = 2;
    /// Qmax-array action-field initialization stream (BRAM init file).
    pub const QMAX_INIT: u64 = 3;
    /// Stochastic-rounding dither stream for quantized Q-table writeback
    /// (DESIGN.md §2.14) — one draw per retired sample.
    pub const QUANT: u64 = 4;
    /// Irwin–Hall reward-noise sampler of a bandit's reward unit
    /// (§VII-B) — one normal sample per retired sample.
    pub const REWARD: u64 = 5;
    /// Chain-advance stream of a stateful bandit's transition unit
    /// (§VII-B) — one draw per arm whose chain may advance.
    pub const CHAINS: u64 = 6;
    /// Units reserved per pipeline (multi-pipeline configs offset by
    /// `pipeline_index * STRIDE`).
    pub const STRIDE: u64 = 8;

    /// Seed index for `unit` of pipeline `pipeline`.
    pub fn of(pipeline: u64, unit: u64) -> u64 {
        pipeline * STRIDE + unit
    }
}

/// Hyper-parameters and structural configuration shared by trainers and
/// accelerator engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Learning rate α.
    pub alpha: f64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Behaviour policy (stage 1's action selection).
    pub behavior: Policy,
    /// Update policy (stage 2's next-action selection).
    pub update: Policy,
    /// Whether the stage-2 action is forwarded as the next iteration's
    /// behaviour action — true for on-policy SARSA (§V-B: "the sampled
    /// action … will be forwarded to the 1st stage as the next-step
    /// action"), false for off-policy Q-Learning.
    pub forward_next_action: bool,
    /// Row-maximum semantics (hardware Qmax array vs exact scan).
    pub max_mode: MaxMode,
    /// Master seed for the LFSR units.
    pub seed: u64,
}

impl TrainerConfig {
    /// The paper's Q-Learning configuration: random behaviour policy,
    /// greedy update policy, Qmax array.
    pub fn q_learning() -> Self {
        Self {
            alpha: 0.5,
            gamma: 0.875,
            behavior: Policy::Random,
            update: Policy::Greedy,
            forward_next_action: false,
            max_mode: MaxMode::QmaxArray,
            seed: 0xC0FFEE,
        }
    }

    /// The paper's SARSA configuration: ε-greedy on-policy with action
    /// forwarding.
    pub fn sarsa(epsilon: f64) -> Self {
        Self {
            alpha: 0.5,
            gamma: 0.875,
            behavior: Policy::EpsilonGreedy { epsilon },
            update: Policy::EpsilonGreedy { epsilon },
            forward_next_action: true,
            max_mode: MaxMode::QmaxArray,
            seed: 0xC0FFEE,
        }
    }

    /// Replace the learning rate.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        self.alpha = alpha;
        self
    }

    /// Replace the discount factor.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0,1]");
        self.gamma = gamma;
        self
    }

    /// Replace the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the max-selection semantics.
    pub fn with_max_mode(mut self, mode: MaxMode) -> Self {
        self.max_mode = mode;
        self
    }
}

/// One observed transition, exposed for tracing and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition<V> {
    /// State the update was applied to.
    pub s: State,
    /// Action taken.
    pub a: Action,
    /// Quantized reward read from the reward table.
    pub r: V,
    /// Next state from the transition function.
    pub s_next: State,
    /// Stage-2 selected next action.
    pub a_next: Action,
    /// The freshly written Q-value.
    pub q_new: V,
}

/// The generic table-based trainer both algorithm wrappers share.
#[derive(Debug, Clone)]
pub struct RefTrainer<V, E> {
    env: E,
    config: TrainerConfig,
    q: QTable<V>,
    qmax: QmaxTable<V>,
    rewards: RewardTable<V>,
    // Precomputed datapath constants (pipeline stage 1 derives these).
    alpha_v: V,
    one_minus_alpha: V,
    alpha_gamma: V,
    // Enable-gated LFSR units.
    start_rng: Lfsr32,
    behavior_rng: Lfsr32,
    update_rng: Lfsr32,
    // (current state, forwarded action) carried between iterations.
    carry: Option<(State, Option<Action>)>,
    // Stored-format quantization of the Q-table (DESIGN.md §2.14): the
    // policy plus the dedicated stochastic-rounding LFSR unit.
    quant: Option<(QuantPolicy, Lfsr32)>,
    samples: u64,
}

impl<V: QValue, E: Environment> RefTrainer<V, E> {
    /// Build a trainer over `env`.
    pub fn new(env: E, config: TrainerConfig) -> Self {
        let seeds = SeedSequence::new(config.seed);
        let alpha_v = V::from_f64(config.alpha);
        let gamma_v = V::from_f64(config.gamma);
        let q = QTable::new(env.num_states(), env.num_actions());
        let mut qmax = QmaxTable::new(env.num_states());
        // Initialize the greedy-action fields randomly (see
        // QmaxTable::randomize_actions) with a dedicated seed unit, so the
        // accelerator model reproduces the identical initial table.
        let mut init_rng = Lfsr32::new(seeds.derive(seed_unit::of(0, seed_unit::QMAX_INIT)));
        qmax.randomize_actions(env.num_actions() as u32, &mut init_rng);
        let rewards = RewardTable::from_env(&env);
        Self {
            config,
            q,
            qmax,
            rewards,
            alpha_v,
            one_minus_alpha: alpha_v.one_minus(),
            alpha_gamma: alpha_v.mul(gamma_v),
            start_rng: Lfsr32::new(seeds.derive(seed_unit::START)),
            behavior_rng: Lfsr32::new(seeds.derive(seed_unit::BEHAVIOR)),
            update_rng: Lfsr32::new(seeds.derive(seed_unit::UPDATE)),
            carry: None,
            quant: None,
            samples: 0,
            env,
        }
    }

    /// Switch the trainer to a quantized stored Q-table format
    /// (DESIGN.md §2.14): every writeback is stochastically rounded onto
    /// `policy`'s grid using a dedicated LFSR dither unit, and the reward
    /// ROM is rebuilt from the environment on the same grid so all
    /// executors read identical on-grid rewards. Must be called before
    /// training starts.
    pub fn enable_quant(&mut self, policy: QuantPolicy) {
        assert_eq!(self.samples, 0, "enable_quant before training starts");
        policy.validate_for::<V>();
        self.rewards = RewardTable::from_env_with(&self.env, |v| policy.round_nearest(v));
        // Q and Qmax are still zero-initialized; zero is on every grid,
        // but re-encode anyway so a poked initial table stays consistent.
        for s in 0..self.q.num_states() as State {
            for a in 0..self.q.num_actions() as Action {
                self.q.set(s, a, policy.round_nearest(self.q.get(s, a)));
            }
            let (v, a) = self.qmax.get(s);
            self.qmax.poke(s, policy.round_nearest(v), a);
        }
        let seeds = SeedSequence::new(self.config.seed);
        let rng = Lfsr32::new(seeds.derive(seed_unit::of(0, seed_unit::QUANT)));
        self.quant = Some((policy, rng));
    }

    /// The quantization policy in force, if any.
    pub fn quant(&self) -> Option<&QuantPolicy> {
        self.quant.as_ref().map(|(p, _)| p)
    }

    /// The environment being trained on.
    pub fn env(&self) -> &E {
        &self.env
    }

    /// The configuration in force.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// The Q-table learned so far.
    pub fn q(&self) -> &QTable<V> {
        &self.q
    }

    /// The Qmax array.
    pub fn qmax(&self) -> &QmaxTable<V> {
        &self.qmax
    }

    /// Updates performed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Stage-2 semantics: select the next action *and* the Q-value used in
    /// the update, with the exact read the hardware performs (Qmax read on
    /// exploit, Q-row read on explore).
    fn update_select(&mut self, s_next: State) -> (Action, V) {
        let num_actions = self.q.num_actions() as u32;
        match self.config.update {
            Policy::Greedy => {
                let (v, a) = self.max_of(s_next);
                (a, v)
            }
            Policy::Random => {
                let a = self.update_rng.below(num_actions);
                (a, self.q.get(s_next, a))
            }
            Policy::EpsilonGreedy { epsilon } => {
                let thr = qtaccel_hdl::rng::epsilon_to_q32(epsilon);
                match qtaccel_hdl::rng::epsilon_greedy_draw(&mut self.update_rng, thr, num_actions)
                {
                    Some(a) => (a, self.q.get(s_next, a)),
                    None => {
                        let (v, a) = self.max_of(s_next);
                        (a, v)
                    }
                }
            }
            Policy::Boltzmann { .. } => {
                let a = self.config.update.select(
                    &self.q,
                    &self.qmax,
                    self.config.max_mode,
                    s_next,
                    &mut self.update_rng,
                );
                (a, self.q.get(s_next, a))
            }
        }
    }

    fn max_of(&self, s: State) -> (V, Action) {
        match self.config.max_mode {
            MaxMode::QmaxArray => self.qmax.get(s),
            MaxMode::ExactScan => {
                let (a, v) = self.q.max_exact(s);
                (v, a)
            }
        }
    }

    /// Perform one Q-value update (one retired pipeline sample) and
    /// return the transition for inspection.
    pub fn step(&mut self) -> Transition<V> {
        // Stage 1: state + behaviour action.
        let (s, a) = match self.carry.take() {
            None => {
                let s = self.env.random_start(&mut self.start_rng);
                let a = self.config.behavior.select(
                    &self.q,
                    &self.qmax,
                    self.config.max_mode,
                    s,
                    &mut self.behavior_rng,
                );
                (s, a)
            }
            Some((s, Some(a))) => (s, a), // forwarded on-policy action
            Some((s, None)) => {
                let a = self.config.behavior.select(
                    &self.q,
                    &self.qmax,
                    self.config.max_mode,
                    s,
                    &mut self.behavior_rng,
                );
                (s, a)
            }
        };
        let s_next = self.env.transition(s, a);
        let r = self.rewards.get(s, a);
        let q_sa = self.q.get(s, a);

        // Stage 2: next action + its Q-value.
        let (a_next, q_next) = self.update_select(s_next);

        // Stage 3: Eq. (3) — three multiplies, two adds, datapath format.
        let q_new = self
            .one_minus_alpha
            .mul(q_sa)
            .add(self.alpha_v.mul(r))
            .add(self.alpha_gamma.mul(q_next));

        // Quantized writeback: stochastic rounding onto the stored grid,
        // one dither draw per retired sample (DESIGN.md §2.14).
        let q_new = match &mut self.quant {
            Some((policy, rng)) => policy.apply(q_new, u64::from(rng.next_u32())),
            None => q_new,
        };

        // Stage 4: writeback + Qmax monotone update.
        self.q.set(s, a, q_new);
        self.qmax.update_monotone(s, a, q_new);
        self.samples += 1;

        // Carry to the next iteration.
        self.carry = if self.env.is_terminal(s_next) {
            None
        } else {
            Some((
                s_next,
                if self.config.forward_next_action {
                    Some(a_next)
                } else {
                    None
                },
            ))
        };

        Transition {
            s,
            a,
            r,
            s_next,
            a_next,
            q_new,
        }
    }

    /// Run exactly `n` updates.
    pub fn run_samples(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Run until the Q-table changes by less than `tol` (max abs diff)
    /// over a window of `window` samples, or `max_samples` is reached.
    /// Returns the number of samples executed.
    pub fn run_until_converged(&mut self, tol: f64, window: u64, max_samples: u64) -> u64 {
        assert!(window > 0);
        let start = self.samples;
        let mut snapshot = self.q.clone();
        while self.samples - start < max_samples {
            self.run_samples(window.min(max_samples - (self.samples - start)));
            let delta = self.q.max_abs_diff(&snapshot);
            if delta < tol {
                break;
            }
            snapshot = self.q.clone();
        }
        self.samples - start
    }

    /// Exact greedy policy from the current Q-table.
    pub fn greedy_policy(&self) -> Vec<Action> {
        self.q.greedy_policy()
    }
}

/// Q-Learning golden reference (Eq. 1 / Eq. 3, §V-A).
pub type QLearningRef<V, E> = RefTrainer<V, E>;

/// SARSA golden reference (Eq. 2, §V-B).
pub type SarsaRef<V, E> = RefTrainer<V, E>;

/// Construct a Q-Learning reference trainer with defaults.
pub fn q_learning<V: QValue, E: Environment>(env: E, seed: u64) -> QLearningRef<V, E> {
    RefTrainer::new(env, TrainerConfig::q_learning().with_seed(seed))
}

/// Construct a SARSA reference trainer with defaults.
pub fn sarsa<V: QValue, E: Environment>(env: E, epsilon: f64, seed: u64) -> SarsaRef<V, E> {
    RefTrainer::new(env, TrainerConfig::sarsa(epsilon).with_seed(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_envs::GridWorld;
    use qtaccel_fixed::{Q16_16, Q8_8};

    fn small_grid() -> GridWorld {
        GridWorld::builder(4, 4).goal(3, 3).build()
    }

    #[test]
    fn q_learning_steps_count() {
        let mut t = q_learning::<f64, _>(small_grid(), 1);
        t.run_samples(100);
        assert_eq!(t.samples(), 100);
    }

    #[test]
    fn q_values_change_and_stay_bounded() {
        let mut t = q_learning::<f64, _>(small_grid(), 2);
        t.run_samples(5_000);
        let max_q = t
            .q()
            .as_slice()
            .iter()
            .fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        assert!(max_q > 0.0, "some positive value must be learned");
        // With r in [-1, 1] and gamma < 1, |Q| <= 1/(1-gamma) = 8.
        assert!(max_q <= 8.0 + 1e-9, "max Q {max_q}");
    }

    #[test]
    fn q_learning_learns_goal_neighbors() {
        let g = small_grid();
        let goal_left = g.state_of(2, 3);
        let mut t = q_learning::<f64, _>(g, 3);
        t.run_samples(50_000);
        // Moving right from (2,3) enters the goal: that Q-value must be
        // close to the goal reward (1.0).
        let q = t.q().get(goal_left, 2);
        assert!(q > 0.9, "Q(goal-neighbor, right) = {q}");
        // And the greedy policy from that cell must be 'right'.
        assert_eq!(t.greedy_policy()[goal_left as usize], 2);
    }

    #[test]
    fn q_learning_policy_is_optimal_after_training() {
        let g = small_grid();
        let dists = g.shortest_distances();
        let mut t = q_learning::<f64, _>(g, 4);
        t.run_samples(200_000);
        let policy = t.greedy_policy();
        let g = t.env();
        // Every reachable cell's greedy action must decrease the BFS
        // distance to the goal by exactly 1 (policy optimality).
        for s in 0..g.num_states() as State {
            if !g.is_valid_state(s) || g.is_terminal(s) {
                continue;
            }
            let (Some(d), t_next) = (dists[s as usize], g.transition(s, policy[s as usize])) else {
                continue;
            };
            let dn = dists[t_next as usize].expect("moved to unreachable cell");
            assert_eq!(dn, d - 1, "state {s}: dist {d} -> {dn} not optimal");
        }
    }

    #[test]
    fn sarsa_also_learns() {
        let mut t = sarsa::<f64, _>(small_grid(), 0.2, 5);
        t.run_samples(100_000);
        let g = t.env();
        let goal_left = g.state_of(2, 3);
        assert_eq!(t.greedy_policy()[goal_left as usize], 2);
    }

    #[test]
    fn fixed_point_formats_learn_too() {
        let g = small_grid();
        let mut t16 = q_learning::<Q8_8, _>(g.clone(), 6);
        t16.run_samples(100_000);
        let goal_left = g.state_of(2, 3);
        assert!(t16.q().get(goal_left, 2).to_f64() > 0.8);
        let mut t32 = q_learning::<Q16_16, _>(g, 6);
        t32.run_samples(100_000);
        assert!(t32.q().get(goal_left, 2).to_f64() > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = q_learning::<Q8_8, _>(small_grid(), 7);
        let mut b = q_learning::<Q8_8, _>(small_grid(), 7);
        a.run_samples(10_000);
        b.run_samples(10_000);
        assert_eq!(a.q().as_slice(), b.q().as_slice());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = q_learning::<f64, _>(small_grid(), 8);
        let mut b = q_learning::<f64, _>(small_grid(), 9);
        a.run_samples(5_000);
        b.run_samples(5_000);
        assert!(a.q().max_abs_diff(b.q()) > 0.0);
    }

    #[test]
    fn qmax_vs_exact_scan_converge_to_same_policy() {
        let g = small_grid();
        let mut hw =
            RefTrainer::<f64, _>::new(g.clone(), TrainerConfig::q_learning().with_seed(10));
        let mut sw = RefTrainer::<f64, _>::new(
            g,
            TrainerConfig::q_learning()
                .with_seed(10)
                .with_max_mode(MaxMode::ExactScan),
        );
        hw.run_samples(200_000);
        sw.run_samples(200_000);
        let env = sw.env();
        let (ph, ps) = (hw.greedy_policy(), sw.greedy_policy());
        for s in 0..env.num_states() as State {
            if env.is_valid_state(s) && !env.is_terminal(s) {
                // Compare induced next states (policies may differ on ties).
                let dists = env.shortest_distances();
                if let Some(d) = dists[s as usize] {
                    let dh = dists[env.transition(s, ph[s as usize]) as usize].unwrap();
                    let dsx = dists[env.transition(s, ps[s as usize]) as usize].unwrap();
                    assert_eq!(dh, d - 1, "qmax-mode policy optimal at {s}");
                    assert_eq!(dsx, d - 1, "exact-mode policy optimal at {s}");
                }
            }
        }
    }

    #[test]
    fn convergence_detector_terminates() {
        let mut t = q_learning::<f64, _>(small_grid(), 11);
        let used = t.run_until_converged(1e-6, 10_000, 2_000_000);
        assert!(used < 2_000_000, "did not converge: {used} samples");
        // After convergence, further training changes almost nothing.
        let snap = t.q().clone();
        t.run_samples(10_000);
        assert!(t.q().max_abs_diff(&snap) < 1e-4);
    }

    #[test]
    fn sarsa_forwards_actions() {
        // In SARSA the behaviour RNG unit is consumed only at episode
        // starts; every subsequent behaviour action is the forwarded
        // stage-2 action. Verify via the transition trace.
        let mut t = sarsa::<f64, _>(small_grid(), 0.3, 12);
        let mut prev: Option<Transition<f64>> = None;
        for _ in 0..1000 {
            let tr = t.step();
            if let Some(p) = prev {
                if !t.env().is_terminal(p.s_next) {
                    assert_eq!(tr.s, p.s_next, "state chaining");
                    assert_eq!(tr.a, p.a_next, "action forwarding");
                }
            }
            prev = Some(tr);
        }
    }

    #[test]
    fn q_learning_does_not_forward() {
        let mut t = q_learning::<f64, _>(small_grid(), 13);
        let mut forwarded = 0;
        let mut chained = 0;
        let mut prev: Option<Transition<f64>> = None;
        for _ in 0..2000 {
            let tr = t.step();
            if let Some(p) = prev {
                if !t.env().is_terminal(p.s_next) {
                    assert_eq!(tr.s, p.s_next);
                    chained += 1;
                    if tr.a == p.a_next {
                        forwarded += 1;
                    }
                }
            }
            prev = Some(tr);
        }
        // Behaviour is uniform random over 4 actions, so coincidence with
        // the greedy action happens ~25 % of the time, not always.
        assert!(
            forwarded < chained / 2,
            "off-policy must not forward: {forwarded}/{chained}"
        );
    }

    #[test]
    fn episode_restarts_on_goal() {
        let mut t = q_learning::<f64, _>(small_grid(), 14);
        let mut restarts = 0;
        let mut prev_next: Option<State> = None;
        for _ in 0..20_000 {
            let tr = t.step();
            if let Some(pn) = prev_next {
                if t.env().is_terminal(pn) {
                    restarts += 1;
                    assert!(!t.env().is_terminal(tr.s), "restart into terminal");
                }
            }
            prev_next = Some(tr.s_next);
        }
        assert!(
            restarts > 10,
            "random walk should reach the goal: {restarts}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn config_validates_alpha() {
        TrainerConfig::q_learning().with_alpha(1.5);
    }
}
