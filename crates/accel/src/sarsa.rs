//! The SARSA engine (§V-B) — the first FPGA SARSA design in the paper.
//!
//! Behaviour and update policy are the same ε-greedy distribution
//! (on-policy): a single LFSR word per selection decides explore/exploit
//! and, when exploring, directly indexes the action. The stage-2 sampled
//! action is forwarded to stage 1 as the next iteration's behaviour
//! action ("Since SARSA is on-policy … the sampled action which is
//! available at the beginning of 3rd stage will be forwarded to the 1st
//! stage as the next-step action").

use crate::config::AccelConfig;
use crate::pipeline::{sealed, shape, Fixture, QrlAccel};
use qtaccel_core::policy::Policy;
use qtaccel_core::trainer::TrainerConfig;
use qtaccel_envs::Environment;
use qtaccel_fixed::QValue;
use qtaccel_telemetry::{NullSink, TraceSink};

/// The SARSA fixture of [`QrlAccel`]: ε-greedy behaviour and update,
/// with the stage-2 action forwarded to stage 1.
#[derive(Debug, Clone, Copy)]
pub struct Sarsa;

impl sealed::Sealed for Sarsa {
    type Custom = ();
}

impl Fixture for Sarsa {
    /// Both ε-greedy, with the ε the constructors wrote.
    #[inline(always)]
    fn policies(trainer: &TrainerConfig) -> Option<[Policy; 2]> {
        let Policy::EpsilonGreedy { epsilon } = trainer.behavior else {
            unreachable!("SARSA's constructors write an ε-greedy behaviour policy")
        };
        Some([Policy::EpsilonGreedy { epsilon }; 2])
    }
}

/// The SARSA accelerator instance.
///
/// Generic over a [`TraceSink`] (default [`NullSink`] = telemetry off,
/// zero cost); see [`SarsaAccel::with_sink`].
pub type SarsaAccel<V, S = NullSink> = QrlAccel<V, S, Sarsa>;

impl<V: QValue> SarsaAccel<V> {
    /// Build an engine sized for `env` with exploration probability
    /// `epsilon`. Policies are overridden to the SARSA fixture; α, γ,
    /// seed, hazard mode and Qmax semantics are honoured.
    pub fn new<E: Environment>(env: &E, config: AccelConfig, epsilon: f64) -> Self {
        Self::with_sink(env, config, epsilon, NullSink)
    }
}

impl<V: QValue, S: TraceSink> SarsaAccel<V, S> {
    /// Build an instrumented engine: like [`SarsaAccel::new`] but
    /// attaching a telemetry `sink` (see [`TraceSink`]).
    pub fn with_sink<E: Environment>(
        env: &E,
        mut config: AccelConfig,
        epsilon: f64,
        sink: S,
    ) -> Self {
        assert!((0.0..=1.0).contains(&epsilon), "epsilon must be in [0,1]");
        config.trainer.behavior = Policy::EpsilonGreedy { epsilon };
        config.trainer.update = Policy::EpsilonGreedy { epsilon };
        config.trainer.forward_next_action = true;
        Self::build(shape(env), config, 0, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_core::trainer::Transition;
    use qtaccel_envs::{Environment, GridWorld};
    use qtaccel_fixed::Q8_8;

    #[test]
    fn sarsa_runs_one_sample_per_cycle() {
        let g = GridWorld::builder(8, 8).goal(7, 7).build();
        let mut s = SarsaAccel::<Q8_8>::new(&g, AccelConfig::default(), 0.2);
        let stats = s.train_samples(&g, 20_000);
        assert_eq!(stats.samples, 20_000);
        assert_eq!(stats.cycles, 20_003, "ε-greedy must not cost cycles");
    }

    #[test]
    fn on_policy_forwarding_is_active() {
        let g = GridWorld::builder(8, 8).goal(7, 7).build();
        let mut s = SarsaAccel::<Q8_8>::new(&g, AccelConfig::default(), 0.3);
        let mut prev: Option<Transition<Q8_8>> = None;
        for _ in 0..500 {
            let tr = s.step(&g);
            if let Some(p) = prev {
                if !g.is_terminal(p.s_next) {
                    assert_eq!(tr.a, p.a_next, "stage-2 action must be forwarded");
                }
            }
            prev = Some(tr);
        }
    }

    #[test]
    fn sarsa_learns_a_usable_policy() {
        let g = GridWorld::builder(8, 8).goal(7, 7).build();
        let mut s = SarsaAccel::<Q8_8>::new(&g, AccelConfig::default(), 0.25);
        s.train_samples(&g, 300_000);
        let opt =
            qtaccel_core::eval::step_optimality(&g, &s.greedy_policy(), &g.shortest_distances());
        assert!(opt > 0.85, "step-optimality {opt}");
    }

    #[test]
    fn resources_show_the_lfsr_overhead() {
        let g = GridWorld::builder(8, 8).goal(7, 7).build();
        let s = SarsaAccel::<Q8_8>::new(&g, AccelConfig::default(), 0.2);
        let q = crate::qlearning::QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
        let (rs, rq) = (s.resources(), q.resources());
        assert_eq!(rs.report.dsp, rq.report.dsp);
        assert_eq!(rs.report.bram36, rq.report.bram36);
        assert!(rs.report.ff > rq.report.ff);
        assert!(rs.power_mw > rq.power_mw, "Fig. 5 vs Fig. 3 power gap");
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn epsilon_validated() {
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        SarsaAccel::<Q8_8>::new(&g, AccelConfig::default(), 1.5);
    }
}
