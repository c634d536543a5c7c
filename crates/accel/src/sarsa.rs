//! The SARSA engine (§V-B) — the first FPGA SARSA design in the paper.
//!
//! Behaviour and update policy are the same ε-greedy distribution
//! (on-policy): a single LFSR word per selection decides explore/exploit
//! and, when exploring, directly indexes the action. The stage-2 sampled
//! action is forwarded to stage 1 as the next iteration's behaviour
//! action ("Since SARSA is on-policy … the sampled action which is
//! available at the beginning of 3rd stage will be forwarded to the 1st
//! stage as the next-step action").

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

/// The SARSA accelerator instance.
///
/// Generic over a [`TraceSink`] (default [`NullSink`] = telemetry off,
/// zero cost); see [`SarsaAccel::with_sink`].
#[derive(Debug, Clone)]
pub struct SarsaAccel<V, S: TraceSink = NullSink> {
    pipe: AccelPipeline<V, S>,
}

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
