//! The Q-Learning engine (§V-A).
//!
//! Behaviour policy: uniform random action selection from an LFSR.
//! Update policy: greedy, realized as a *single* Qmax-array read instead
//! of an |A|-wide row scan — the optimization that, together with the
//! constant multiplier count, lets the design scale "to large state
//! spaces" where the FSM-per-pair baseline cannot.

use crate::checkpoint::CheckpointError;
use crate::config::AccelConfig;
use crate::fault::{FaultConfig, FaultStats};
use crate::pipeline::AccelPipeline;
use crate::resources::AccelResources;
use qtaccel_core::policy::Policy;
use qtaccel_core::qtable::{PackedQTable, QTable, QmaxTable};
use qtaccel_core::trainer::Transition;
use qtaccel_envs::{Action, Environment};
use qtaccel_fixed::{QValue, QuantPolicy};
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_telemetry::{CounterBank, NullSink, TraceSink};
use std::path::Path;

/// The Q-Learning accelerator instance.
///
/// Generic over a [`TraceSink`] (default [`NullSink`] = telemetry off,
/// zero cost); see [`QLearningAccel::with_sink`].
#[derive(Debug, Clone)]
pub struct QLearningAccel<V, S: TraceSink = NullSink> {
    pipe: AccelPipeline<V, S>,
}

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
        Self {
            pipe: AccelPipeline::with_sink(env, config, 0, sink),
        }
    }

    /// The pipeline's perf-counter bank (all-zero unless a
    /// counter-bearing sink is attached).
    pub fn counters(&self) -> &CounterBank {
        self.pipe.counters()
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        self.pipe.sink()
    }

    /// Mutable access to the attached trace sink.
    pub fn sink_mut(&mut self) -> &mut S {
        self.pipe.sink_mut()
    }

    /// Consume the engine and return its sink.
    pub fn into_sink(self) -> S {
        self.pipe.into_sink()
    }

    /// The sink's training-health probe, when one is attached (see
    /// `qtaccel_telemetry::HealthSink`; `None` for every other sink).
    pub fn health_probe(&self) -> Option<&qtaccel_telemetry::HealthProbe> {
        self.pipe.health_probe()
    }

    /// Run `n` Q-value updates and return the cumulative cycle counters.
    pub fn train_samples<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        self.pipe.run_samples(env, n)
    }

    /// Run `n` Q-value updates through the fast-path executor — results
    /// bit-identical to [`train_samples`](Self::train_samples), host
    /// throughput much higher (see `AccelPipeline::run_samples_fast`).
    pub fn train_samples_fast<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        self.pipe.run_samples_fast(env, n)
    }

    /// One update, exposed for tracing.
    pub fn step<E: Environment>(&mut self, env: &E) -> Transition<V> {
        self.pipe.step(env)
    }

    /// Cycle counters so far.
    pub fn stats(&self) -> CycleStats {
        self.pipe.stats()
    }

    /// The learned Q-table (architectural view).
    pub fn q_table(&self) -> QTable<V> {
        self.pipe.q_table()
    }

    /// The Qmax array (architectural view).
    pub fn qmax_table(&self) -> QmaxTable<V> {
        self.pipe.qmax_table()
    }

    /// Exact greedy policy extraction.
    pub fn greedy_policy(&self) -> Vec<Action> {
        self.pipe.greedy_policy()
    }

    /// Inject a single-event upset into the committed Q BRAM word (see
    /// `AccelPipeline::inject_q_bit_flip`); drives the `seu_robustness`
    /// experiment.
    pub fn inject_q_bit_flip(&mut self, s: qtaccel_envs::State, a: Action, bit: u32) {
        self.pipe.inject_q_bit_flip(s, a, bit);
    }

    /// Attach the fault-tolerance runtime — online SEU injection, SECDED
    /// protection, Qmax scrubbing (see
    /// `AccelPipeline::enable_faults` and [`FaultConfig`]).
    pub fn enable_faults(&mut self, config: FaultConfig) {
        self.pipe.enable_faults(config);
    }

    /// Switch to a quantized stored Q-table format — entries held on
    /// `policy`'s grid, writebacks stochastically rounded (see
    /// `AccelPipeline::enable_quant` and DESIGN.md §2.14). Must be
    /// called before training starts.
    pub fn enable_quant(&mut self, policy: QuantPolicy) {
        self.pipe.enable_quant(policy);
    }

    /// The quantization policy in force, if any.
    pub fn quant(&self) -> Option<&QuantPolicy> {
        self.pipe.quant()
    }

    /// The learned Q-table in its packed stored form (`None` unless
    /// quantization is enabled; see `AccelPipeline::packed_q_table`).
    pub fn packed_q_table(&self) -> Option<PackedQTable> {
        self.pipe.packed_q_table()
    }

    /// The fault configuration in force, if any.
    pub fn fault_config(&self) -> Option<FaultConfig> {
        self.pipe.fault_config()
    }

    /// Fault-campaign counters, if a fault runtime is attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.pipe.fault_stats()
    }

    /// Durably checkpoint the full training state to `path` (see
    /// `AccelPipeline::save_checkpoint`).
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        self.pipe.save_checkpoint(path)
    }

    /// Restore training state from a checkpoint file; resume is
    /// bit-exact (see `AccelPipeline::restore_checkpoint`).
    pub fn restore_checkpoint(&mut self, path: &Path) -> Result<(), CheckpointError> {
        self.pipe.restore_checkpoint(path)
    }

    /// Structural resources, modeled fmax/throughput/power for this
    /// instance (see `AccelPipeline::resources`).
    pub fn resources(&self) -> AccelResources {
        self.pipe.resources()
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
        assert_eq!(a.pipe.config().trainer.behavior, Policy::Random);
        assert_eq!(a.pipe.config().trainer.update, Policy::Greedy);
        assert!(!a.pipe.config().trainer.forward_next_action);
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
