//! Fig. 8 — two state-sharing pipelines over dual-port shared tables.
//!
//! The paper's claims for this mode: throughput "effectively doubles";
//! collisions on the shared table are "much less likely to happen" under
//! random behaviour policies; and "both the throughput and convergence
//! rate should increase compared to those of single-pipeline
//! implementation". All three are measured here: same wall-clock cycle
//! budget for one pipeline vs two, collision rate, and policy quality.

use crate::grids::paper_grid;
use crate::report::render_table;
use qtaccel_accel::{AccelConfig, DualPipelineShared, QLearningAccel};
use qtaccel_core::eval::step_optimality;
use qtaccel_envs::Environment;
use qtaccel_fixed::Q8_8;

/// Result of the dual-pipeline experiment.
#[derive(Debug, Clone, Copy)]
pub struct Fig8 {
    /// Number of states in the shared environment.
    pub states: usize,
    /// Wall-clock cycles given to each configuration.
    pub cycles: u64,
    /// Samples retired by the single pipeline.
    pub single_samples: u64,
    /// Samples retired by the dual pipeline (2 per cycle).
    pub dual_samples: u64,
    /// Single-pipeline step-optimality after the cycle budget.
    pub single_optimality: f64,
    /// Dual-pipeline step-optimality after the same budget.
    pub dual_optimality: f64,
    /// Same-cycle same-address Q-write collisions.
    pub q_collisions: u64,
    /// Collision rate per cycle.
    pub collision_rate: f64,
    /// Modeled aggregate throughput, MS/s.
    pub dual_msps: f64,
}

/// Run with a wall-clock budget of `cycles` on a `states`-state grid.
pub fn run(states: usize, cycles: u64) -> Fig8 {
    let g = paper_grid(states, 4);
    // γ chosen against the grid diameter so the whole value function is
    // representable in Q8.8 (see the fig9 docs for the horizon math).
    let cfg = AccelConfig::default().with_gamma(0.96875);

    let mut single = QLearningAccel::<Q8_8>::new(&g, cfg);
    single.train_samples(&g, cycles); // 1 sample/cycle
    let single_opt = step_optimality(&g, &single.greedy_policy(), &g.shortest_distances());

    let mut dual = DualPipelineShared::<Q8_8>::new(&g, cfg);
    dual.train_cycles(&g, cycles);
    let dual_opt = step_optimality(&g, &dual.greedy_policy(), &g.shortest_distances());

    Fig8 {
        states: g.num_states(),
        cycles,
        single_samples: single.stats().samples,
        dual_samples: dual.stats().samples,
        single_optimality: single_opt,
        dual_optimality: dual_opt,
        q_collisions: dual.q_collisions(),
        collision_rate: dual.q_collisions() as f64 / cycles as f64,
        dual_msps: dual.resources().throughput_msps,
    }
}

impl Fig8 {
    /// Render the comparison.
    pub fn render(&self) -> String {
        render_table(
            "Fig. 8: dual pipeline, shared Q table",
            &[
                "config",
                "samples",
                "step-optimality",
                "collisions/cycle",
                "MS/s",
            ],
            &[
                vec![
                    "1 pipeline".into(),
                    self.single_samples.to_string(),
                    format!("{:.3}", self.single_optimality),
                    "-".into(),
                    format!("{:.0}", self.dual_msps / 2.0),
                ],
                vec![
                    "2 pipelines".into(),
                    self.dual_samples.to_string(),
                    format!("{:.3}", self.dual_optimality),
                    format!("{:.5}", self.collision_rate),
                    format!("{:.0}", self.dual_msps),
                ],
            ],
        )
    }
}

crate::impl_to_json!(Fig8 {
    states,
    cycles,
    single_samples,
    dual_samples,
    single_optimality,
    dual_optimality,
    q_collisions,
    collision_rate,
    dual_msps
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_doubles_samples_and_does_not_hurt_convergence() {
        let f = run(1024, 60_000);
        assert_eq!(f.dual_samples, 2 * f.single_samples);
        assert!(f.collision_rate < 0.01, "rate {}", f.collision_rate);
        // With 2x the samples in the same wall-clock, the dual config
        // should converge at least as well.
        assert!(
            f.dual_optimality >= f.single_optimality - 0.05,
            "single {} dual {}",
            f.single_optimality,
            f.dual_optimality
        );
    }
}
