//! The probability-table policy fixture (§VII-B, Eq. 4).
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
//! [`ProbPolicyAccel`] is [`QrlAccel`] with the [`ProbPolicy`] fixture:
//! the pipeline's policy unit gets the **P table** (the third `|S|·|A|`
//! BRAM the paper budgets: "in that case 3 |S|·|A| sized tables would be
//! required") as a third memory bank. Both the behaviour and the update
//! action are drawn from the P row, each with one word of its own LFSR,
//! by a binary search over the row's running weights that occupies its
//! stage for `⌈log₂|A|⌉` cycles; stage 4 writes the new Q-value back
//! *and* the visited pair's weight, computed from it by the configured
//! [`WeightRule`]. P-row reads follow the hazard mode like Q reads.
//!
//! Note the faithful quirk: only the *visited* (s, a) weight is updated
//! per sample, so the P row holds weights computed from Q-values of
//! different ages — a lagged Boltzmann policy, not the textbook one that
//! re-exponentiates the whole row every step. The tests show it still
//! drives the policy toward the greedy optimum.

use crate::config::AccelConfig;
use crate::pipeline::{customization_fixture, shape, QrlAccel, TableRule};
use qtaccel_core::policy::Policy;
use qtaccel_envs::{Action, Environment, State};
use qtaccel_fixed::QValue;
use qtaccel_hdl::explut::ExpLut;
use qtaccel_telemetry::{NullSink, TraceSink};

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
    /// The exp ROM this rule reads (`None` for LUT-free rules). Panics
    /// on a temperature or floor that is not positive.
    pub fn lut(&self) -> Option<ExpLut> {
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

    /// The weight of Q-value `q`, through `lut`, this rule's
    /// [`lut`](Self::lut).
    pub fn weight(&self, q: f64, lut: Option<&ExpLut>) -> f64 {
        match *self {
            WeightRule::Boltzmann { .. } => lut.expect("Boltzmann rule carries a LUT").eval(q),
            WeightRule::Proportional { floor } => q.max(floor),
        }
    }
}

/// The probability-table fixture of [`QrlAccel`]: both selections draw
/// from the P table, each with one word of its own LFSR, with no action
/// forwarding.
#[derive(Debug, Clone, Copy)]
pub struct ProbPolicy;

customization_fixture!(ProbPolicy {
    noise: false,
    chains: false,
    roles: [true, true]
});

/// The generic probability-table QRL accelerator.
pub type ProbPolicyAccel<V, S = NullSink> = QrlAccel<V, S, ProbPolicy>;

impl<V: QValue> ProbPolicyAccel<V> {
    /// Build the engine for `env` with the given weight rule. The policy
    /// starts uniform (all weights 1), matching an all-ones P BRAM init.
    /// α, γ, seed and hazard mode are honoured.
    pub fn new<E: Environment>(env: &E, config: AccelConfig, rule: WeightRule) -> Self {
        Self::with_sink(env, config, rule, NullSink)
    }
}

impl<V: QValue, S: TraceSink> ProbPolicyAccel<V, S> {
    /// Build an instrumented engine: like [`ProbPolicyAccel::new`] but
    /// attaching a telemetry `sink` (see [`TraceSink`]).
    pub fn with_sink<E: Environment>(
        env: &E,
        mut config: AccelConfig,
        rule: WeightRule,
        sink: S,
    ) -> Self {
        let lut = rule.lut();
        config.trainer.behavior = Policy::Random;
        config.trainer.update = Policy::Random;
        config.trainer.forward_next_action = false;
        let mut engine = Self::build(shape(env), config, 0, sink);
        engine.attach_table(TableRule::Weight(rule, lut));
        engine
    }

    /// Current selection probability of (s, a) under the P table.
    pub fn probability(&self, s: State, a: Action) -> f64 {
        let row = self.table_row(s).expect("the fixture has a P table");
        let total: f64 = row.iter().sum();
        if total <= 0.0 {
            1.0 / row.len() as f64
        } else {
            row[a as usize] / total
        }
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
        WeightRule::Boltzmann { temperature: 0.0 }.lut();
    }

    #[test]
    fn boltzmann_lut_matches_exact_exponential_in_range() {
        let rule = WeightRule::Boltzmann { temperature: 0.5 };
        let lut = rule.lut().unwrap();
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
