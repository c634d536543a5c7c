//! The generic probability-distribution QRL engine (§VII-B, Eq. 4).
//!
//! "A policy in a RL algorithm is a probability distribution on the
//! actions conditional on the current state … P(aᵢ|Sⱼ) ∝ fₜ(Sⱼ, aᵢ) for
//! some temporal function fₜ that may be updated with every sample. To
//! implement such probability distribution based policies, we use a table
//! P which stores the probability value for each state-action pair. In
//! the second stage, the action selection will evaluate the next action
//! based on the probability distribution … a binary search can provide
//! the selected action in log nⱼ cycles … In the final stage, the
//! probability values need to be updated."
//!
//! [`ProbPolicyAccel`] is that third engine: alongside the Q and R tables
//! it keeps the **P table** (the third `|S|·|A|` BRAM the paper budgets:
//! "in that case 3 |S|·|A| sized tables would be required"). Stage 2
//! draws both the behaviour and update action from the P row by binary
//! search over its cumulative weights (charged at `⌈log₂|A|⌉` cycles per
//! sample); stage 4 writes the new Q-value back *and* refreshes the
//! visited pair's weight with the configured [`WeightRule`].
//!
//! Note the faithful quirk: only the *visited* (s, a) weight is updated
//! per sample, so the P row holds weights computed from Q-values of
//! different ages — a lagged Boltzmann policy, not the textbook one that
//! re-exponentiates the whole row every step. The tests show it still
//! drives the policy toward the greedy optimum.

use crate::config::AccelConfig;
use crate::resources::{AccelResources, EngineKind};
use qtaccel_core::policy::ProbTablePolicy;
use qtaccel_core::qtable::QTable;
use qtaccel_core::trainer::{seed_unit, Transition};
use qtaccel_envs::{Action, Environment, RewardTable, State};
use qtaccel_fixed::QValue;
use qtaccel_hdl::bram::blocks_for;
use qtaccel_hdl::explut::ExpLut;
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_hdl::rng::SeedSequence;

const FILL: u64 = 3;

/// How the stage-4 probability update derives a weight from the fresh
/// Q-value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightRule {
    /// Boltzmann: `w = exp(Q / T)`, realized as a block-ROM lookup table
    /// ([`ExpLut`]) indexed by the top bits of the Q word — the fabric
    /// cannot exponentiate. Inputs beyond ±20·T saturate (the table
    /// covers the range where the output stays within a practical word).
    Boltzmann {
        /// Temperature (> 0). Lower is greedier.
        temperature: f64,
    },
    /// Proportional-with-floor: `w = max(Q, floor)` — the cheapest
    /// monotone rule (no LUT), usable when Q-values are non-negative.
    Proportional {
        /// Minimum weight, keeping every action selectable (> 0).
        floor: f64,
    },
}

impl WeightRule {
    /// Build the ROM this rule needs (`None` for LUT-free rules).
    fn build_lut(&self) -> Option<ExpLut> {
        match *self {
            WeightRule::Boltzmann { temperature } => {
                assert!(temperature > 0.0, "temperature must be > 0");
                // Cover the exponent range +/-20 with a 12-bit table.
                Some(ExpLut::new(
                    -20.0 * temperature,
                    20.0 * temperature,
                    temperature,
                    12,
                    16,
                ))
            }
            WeightRule::Proportional { floor } => {
                assert!(floor > 0.0, "floor must be > 0");
                None
            }
        }
    }

    fn weight(&self, q: f64, lut: Option<&ExpLut>) -> f64 {
        match *self {
            WeightRule::Boltzmann { .. } => lut.expect("Boltzmann rule carries a LUT").eval(q),
            WeightRule::Proportional { floor } => q.max(floor),
        }
    }
}

/// The generic probability-table QRL accelerator.
#[derive(Debug, Clone)]
pub struct ProbPolicyAccel<V> {
    num_states: usize,
    num_actions: usize,
    config: AccelConfig,
    rule: WeightRule,
    exp_lut: Option<ExpLut>,
    alpha_v: V,
    one_minus_alpha: V,
    alpha_gamma: V,
    q: QTable<V>,
    p: ProbTablePolicy,
    rewards: RewardTable<V>,
    start_rng: Lfsr32,
    select_rng: Lfsr32,
    carry: Option<State>,
    stats: CycleStats,
}

impl<V: QValue> ProbPolicyAccel<V> {
    /// Build the engine for `env` with the given weight rule. The policy
    /// starts uniform (all weights 1), matching an all-ones P BRAM init.
    pub fn new<E: Environment>(env: &E, config: AccelConfig, rule: WeightRule) -> Self {
        let seeds = SeedSequence::new(config.trainer.seed);
        let alpha_v = V::from_f64(config.trainer.alpha);
        let gamma_v = V::from_f64(config.trainer.gamma);
        let (s, a) = (env.num_states(), env.num_actions());
        Self {
            num_states: s,
            num_actions: a,
            exp_lut: rule.build_lut(),
            rule,
            alpha_v,
            one_minus_alpha: alpha_v.one_minus(),
            alpha_gamma: alpha_v.mul(gamma_v),
            q: QTable::new(s, a),
            p: ProbTablePolicy::uniform(s, a),
            rewards: RewardTable::from_env(env),
            start_rng: Lfsr32::new(seeds.derive(seed_unit::of(0, seed_unit::START))),
            select_rng: Lfsr32::new(seeds.derive(seed_unit::of(0, seed_unit::UPDATE))),
            carry: None,
            stats: CycleStats {
                fill_bubbles: FILL,
                ..CycleStats::default()
            },
            config,
        }
    }

    /// The learned Q-table.
    pub fn q_table(&self) -> &QTable<V> {
        &self.q
    }

    /// Current selection probability of (s, a) under the P table.
    pub fn probability(&mut self, s: State, a: Action) -> f64 {
        self.p.probability(s, a)
    }

    /// Cycle counters.
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Exact greedy policy from the Q-table.
    pub fn greedy_policy(&self) -> Vec<Action> {
        self.q.greedy_policy()
    }

    /// One sample: P-table behaviour selection, transition, P-table next
    /// selection, Eq. (3) update, stage-4 writeback of Q and the visited
    /// pair's weight.
    pub fn step<E: Environment>(&mut self, env: &E) -> Transition<V> {
        debug_assert_eq!(env.num_states(), self.num_states, "environment mismatch");
        let mut stall = 0u64;
        // Stage 1: state + behaviour action from the P table.
        let s = match self.carry.take() {
            Some(s) => s,
            None => env.random_start(&mut self.start_rng),
        };
        let (a, cycles) = self.p.select(s, &mut self.select_rng);
        stall += cycles as u64 - 1;
        let s_next = env.transition(s, a);
        let r = self.rewards.get(s, a);
        let q_sa = self.q.get(s, a);

        // Stage 2: next action from the P table (on-policy target).
        let (a_next, cycles) = self.p.select(s_next, &mut self.select_rng);
        stall += cycles as u64 - 1;
        let q_next = self.q.get(s_next, a_next);

        // Stage 3: Eq. (3).
        let q_new = self
            .one_minus_alpha
            .mul(q_sa)
            .add(self.alpha_v.mul(r))
            .add(self.alpha_gamma.mul(q_next));

        // Stage 4: writeback + probability update for the visited pair.
        self.q.set(s, a, q_new);
        self.p.set_weight(
            s,
            a,
            self.rule.weight(q_new.to_f64(), self.exp_lut.as_ref()),
        );

        self.stats.samples += 1;
        self.stats.stalls += stall;
        self.stats.cycles = self.stats.samples + self.stats.stalls + FILL;
        self.carry = if env.is_terminal(s_next) {
            None
        } else {
            Some(s_next)
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

    /// Run `n` samples.
    pub fn train_samples<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        for _ in 0..n {
            self.step(env);
        }
        self.stats
    }

    /// Structural resources: **three** `|S|·|A|` tables (Q, R, P) plus
    /// the datapath — the §IV-B budget for distribution-based policies.
    pub fn resources(&self) -> AccelResources {
        let mut r = crate::resources::analyze(
            self.num_states,
            self.num_actions,
            V::storage_bits(),
            EngineKind::Sarsa, // on-policy shape: LFSR bank present
            &self.config,
            self.stats
                .samples_per_cycle()
                .max(if self.stats.samples == 0 {
                    1.0 / (usize::BITS - (self.num_actions - 1).leading_zeros()).max(1) as f64
                } else {
                    0.0
                }),
        );
        // Add the P table (weights at datapath width) and, for Boltzmann,
        // the exp ROM.
        r.report.bram36 += blocks_for(
            (self.num_states * self.num_actions) as u64,
            V::storage_bits(),
        );
        if let Some(lut) = &self.exp_lut {
            r.report.bram36 += lut.rom_bits().div_ceil(36 * 1024);
        }
        r.utilization = r.report.utilization(&self.config.device);
        r.power_mw = self.config.power.power_mw(&r.report, r.fmax_mhz);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_core::eval::step_optimality;
    use qtaccel_envs::GridWorld;
    use qtaccel_fixed::Q8_8;

    fn grid() -> GridWorld {
        GridWorld::builder(8, 8).goal(7, 7).build()
    }

    fn cfg() -> AccelConfig {
        AccelConfig::default().with_seed(0xF00D)
    }

    #[test]
    fn boltzmann_rule_learns_the_grid() {
        let g = grid();
        let mut e =
            ProbPolicyAccel::<Q8_8>::new(&g, cfg(), WeightRule::Boltzmann { temperature: 0.1 });
        e.train_samples(&g, 600_000);
        let opt = step_optimality(&g, &e.greedy_policy(), &g.shortest_distances());
        assert!(opt > 0.9, "step-optimality {opt}");
    }

    #[test]
    fn policy_concentrates_on_good_actions() {
        let g = grid();
        let mut e =
            ProbPolicyAccel::<Q8_8>::new(&g, cfg(), WeightRule::Boltzmann { temperature: 0.05 });
        e.train_samples(&g, 400_000);
        // Next to the goal, the P table should overwhelmingly prefer the
        // goal-entering action (right, from (6,7)).
        let s = g.state_of(6, 7);
        let p_right = e.probability(s, 2);
        assert!(p_right > 0.8, "P(right | goal-left) = {p_right}");
    }

    #[test]
    fn selection_costs_log2_actions_cycles() {
        let g = grid(); // 4 actions: log2 = 2 cycles per selection.
        let mut e =
            ProbPolicyAccel::<Q8_8>::new(&g, cfg(), WeightRule::Boltzmann { temperature: 0.1 });
        e.train_samples(&g, 10_000);
        let s = e.stats();
        // Two selections per sample (behaviour + update), each costing
        // one extra cycle beyond the pipelined slot.
        assert_eq!(s.stalls, 2 * 10_000);
        assert!((s.samples_per_cycle() - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn proportional_rule_works_for_nonnegative_values() {
        let g = grid();
        let mut e =
            ProbPolicyAccel::<Q8_8>::new(&g, cfg(), WeightRule::Proportional { floor: 0.02 });
        e.train_samples(&g, 600_000);
        let opt = step_optimality(&g, &e.greedy_policy(), &g.shortest_distances());
        assert!(opt > 0.8, "step-optimality {opt}");
    }

    #[test]
    fn resources_include_the_third_table() {
        let g = grid();
        let prob =
            ProbPolicyAccel::<Q8_8>::new(&g, cfg(), WeightRule::Boltzmann { temperature: 0.1 });
        let ql = crate::qlearning::QLearningAccel::<Q8_8>::new(&g, cfg());
        assert!(
            prob.resources().report.bram36 > ql.resources().report.bram36,
            "P table must cost BRAM"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid();
        let rule = WeightRule::Boltzmann { temperature: 0.1 };
        let mut a = ProbPolicyAccel::<Q8_8>::new(&g, cfg(), rule);
        let mut b = ProbPolicyAccel::<Q8_8>::new(&g, cfg(), rule);
        a.train_samples(&g, 5_000);
        b.train_samples(&g, 5_000);
        assert_eq!(a.q_table().as_slice(), b.q_table().as_slice());
    }

    #[test]
    #[should_panic(expected = "temperature must be > 0")]
    fn zero_temperature_rejected() {
        WeightRule::Boltzmann { temperature: 0.0 }.build_lut();
    }

    #[test]
    fn boltzmann_lut_matches_exact_exponential_in_range() {
        let rule = WeightRule::Boltzmann { temperature: 0.5 };
        let lut = rule.build_lut().unwrap();
        for q in [-5.0, -1.0, 0.0, 0.5, 3.0, 9.9] {
            let exact = (q / 0.5f64).exp();
            let got = rule.weight(q, Some(&lut));
            assert!(
                (got - exact).abs() / exact < 0.02,
                "q={q}: {got} vs {exact}"
            );
        }
        // Beyond the covered exponent range the ROM saturates.
        assert_eq!(
            rule.weight(100.0, Some(&lut)),
            rule.weight(10.0, Some(&lut))
        );
    }
}
