//! The Q-Learning engine (§V-A).
//!
//! Behaviour policy: uniform random action selection from an LFSR.
//! Update policy: greedy, realized as a *single* Qmax-array read instead
//! of an |A|-wide row scan — the optimization that, together with the
//! constant multiplier count, lets the design scale "to large state
//! spaces" where the FSM-per-pair baseline cannot.

use crate::config::AccelConfig;
use crate::pipeline::{sealed, shape, Fixture, QrlAccel};
use qtaccel_core::policy::Policy;
use qtaccel_core::trainer::TrainerConfig;
use qtaccel_envs::Environment;
use qtaccel_fixed::QValue;
use qtaccel_telemetry::{NullSink, TraceSink};

/// The Q-Learning fixture of [`QrlAccel`]: random behaviour, greedy
/// update through the Qmax array, no action forwarding.
#[derive(Debug, Clone, Copy)]
pub struct QLearning;

impl sealed::Sealed for QLearning {
    type Custom = ();
}

impl Fixture for QLearning {
    #[inline(always)]
    fn policies(_: &TrainerConfig) -> Option<[Policy; 2]> {
        Some([Policy::Random, Policy::Greedy])
    }
}

/// The Q-Learning accelerator instance.
///
/// Generic over a [`TraceSink`] (default [`NullSink`] = telemetry off,
/// zero cost); see [`QLearningAccel::with_sink`].
pub type QLearningAccel<V, S = NullSink> = QrlAccel<V, S, QLearning>;

impl<V: QValue> QLearningAccel<V> {
    /// Build an engine sized for `env`. The configured behaviour/update
    /// policies are overridden to the Q-Learning fixture (random /
    /// greedy); α, γ, seed, hazard mode and Qmax semantics are honoured.
    pub fn new<E: Environment>(env: &E, config: AccelConfig) -> Self {
        Self::with_sink(env, config, NullSink)
    }
}

impl<V: QValue, S: TraceSink> QLearningAccel<V, S> {
    /// Build an instrumented engine: like [`QLearningAccel::new`] but
    /// attaching a telemetry `sink` (see [`TraceSink`]).
    pub fn with_sink<E: Environment>(env: &E, mut config: AccelConfig, sink: S) -> Self {
        config.trainer.behavior = Policy::Random;
        config.trainer.update = Policy::Greedy;
        config.trainer.forward_next_action = false;
        Self::build(shape(env), config, 0, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_envs::{ActionSet, GridWorld};
    use qtaccel_fixed::Q8_8;

    #[test]
    fn engine_forces_q_learning_policies() {
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let mut cfg = AccelConfig::default();
        // Even if the caller misconfigures policies, the engine fixes them.
        cfg.trainer.behavior = Policy::Greedy;
        cfg.trainer.forward_next_action = true;
        let a = QLearningAccel::<Q8_8>::new(&g, cfg);
        assert_eq!(a.config().trainer.behavior, Policy::Random);
        assert_eq!(a.config().trainer.update, Policy::Greedy);
        assert!(!a.config().trainer.forward_next_action);
    }

    #[test]
    fn trains_at_one_sample_per_cycle() {
        let g = GridWorld::builder(16, 16)
            .goal(15, 15)
            .actions(ActionSet::Eight)
            .build();
        let mut a = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
        let stats = a.train_samples(&g, 50_000);
        assert_eq!(stats.samples, 50_000);
        assert_eq!(stats.cycles, 50_003);
    }

    #[test]
    fn resources_match_paper_shape() {
        let g = GridWorld::builder(512, 512)
            .goal(511, 511)
            .actions(ActionSet::Eight)
            .build();
        let a = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
        let r = a.resources();
        assert_eq!(r.report.dsp, 4);
        assert!(r.utilization.bram_pct > 70.0);
        assert!((150.0..160.0).contains(&r.throughput_msps));
    }
}
