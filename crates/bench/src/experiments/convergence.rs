//! Convergence-rate curves (§VII-A's claim: with two state-sharing
//! pipelines "both the throughput and convergence rate should increase
//! compared to those of single-pipeline implementation").
//!
//! Measured as learning curves over *wall-clock cycles* (the hardware
//! budget): step-optimality of the greedy policy at checkpoints, for one
//! pipeline vs two shared pipelines, plus a Q-Learning vs SARSA curve on
//! the same axis for the two engine fixtures.
//!
//! Alongside the optimality curves the experiment runs a
//! health-instrumented single-pipeline Q-Learning leg (DESIGN.md §2.13)
//! and snapshots its probe at the same checkpoints — TD-error decay,
//! policy churn and state coverage over the identical cycle axis, the
//! internal evidence *why* the external optimality curve moves.

use crate::grids::paper_grid;
use crate::report::render_table;
use qtaccel_accel::{AccelConfig, DualPipelineShared, QLearningAccel, SarsaAccel};
use qtaccel_core::eval::step_optimality;
use qtaccel_envs::GridWorld;
use qtaccel_telemetry::{HealthConfig, HealthSink, HealthSnapshot};

/// One learning curve: (cycles, step-optimality) checkpoints.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Configuration label.
    pub label: String,
    /// Checkpoints as (wall-clock cycles, step-optimality).
    pub points: Vec<(u64, f64)>,
}

impl Curve {
    /// First checkpoint at which the curve reaches `threshold` (`None`
    /// if never).
    pub fn cycles_to(&self, threshold: f64) -> Option<u64> {
        self.points
            .iter()
            .find(|(_, opt)| *opt >= threshold)
            .map(|(c, _)| *c)
    }
}

/// The convergence experiment result.
#[derive(Debug, Clone)]
pub struct Convergence {
    /// All measured curves.
    pub curves: Vec<Curve>,
    /// Health-probe snapshots of the instrumented Q-Learning leg, one
    /// per checkpoint on the same cycle axis as the curves.
    pub health: Vec<HealthSnapshot>,
    /// Cycles for the single pipeline to reach 0.95 optimality.
    pub single_cycles_to_95: Option<u64>,
    /// Cycles for the dual pipeline to reach 0.95 optimality.
    pub dual_cycles_to_95: Option<u64>,
}

fn curve_single(g: &GridWorld, cfg: AccelConfig, checkpoints: &[u64], sarsa: bool) -> Curve {
    let dists = g.shortest_distances();
    let mut points = Vec::new();
    let mut done = 0u64;
    if sarsa {
        let mut a = SarsaAccel::<qtaccel_fixed::Q8_8>::new(g, cfg, 0.25);
        for &c in checkpoints {
            a.train_samples(g, c - done);
            done = c;
            points.push((c, step_optimality(g, &a.greedy_policy(), &dists)));
        }
        Curve {
            label: "SARSA 1-pipe".into(),
            points,
        }
    } else {
        let mut a = QLearningAccel::<qtaccel_fixed::Q8_8>::new(g, cfg);
        for &c in checkpoints {
            a.train_samples(g, c - done);
            done = c;
            points.push((c, step_optimality(g, &a.greedy_policy(), &dists)));
        }
        Curve {
            label: "QL 1-pipe".into(),
            points,
        }
    }
}

fn curve_dual(g: &GridWorld, cfg: AccelConfig, checkpoints: &[u64]) -> Curve {
    let dists = g.shortest_distances();
    let mut dual = DualPipelineShared::<qtaccel_fixed::Q8_8>::new(g, cfg);
    let mut points = Vec::new();
    let mut done = 0u64;
    for &c in checkpoints {
        dual.train_cycles(g, c - done);
        done = c;
        points.push((c, step_optimality(g, &dual.greedy_policy(), &dists)));
    }
    Curve {
        label: "QL 2-pipe shared".into(),
        points,
    }
}

/// The instrumented leg: the same Q-Learning configuration with a
/// health probe attached, snapshotted at every checkpoint. The probe
/// taxes only this leg (it forces the cycle-accurate engine) — the
/// measured curves above stay uninstrumented.
fn health_leg(g: &GridWorld, cfg: AccelConfig, checkpoints: &[u64]) -> Vec<HealthSnapshot> {
    let mut a = QLearningAccel::<qtaccel_fixed::Q8_8, HealthSink>::with_sink(
        g,
        cfg,
        HealthSink::new(HealthConfig::default()),
    );
    let mut series = Vec::with_capacity(checkpoints.len());
    let mut done = 0u64;
    for &c in checkpoints {
        a.train_samples_fast(g, c - done);
        done = c;
        series.push(a.health_probe().expect("health sink attached").snapshot());
    }
    series
}

/// Run on a `states`-state grid with checkpoints up to `max_cycles`.
pub fn run(states: usize, max_cycles: u64) -> Convergence {
    let g = paper_grid(states, 4);
    let cfg = AccelConfig::default().with_gamma(0.96875).with_seed(404);
    let checkpoints: Vec<u64> = (1..=10).map(|i| max_cycles * i / 10).collect();

    let single = curve_single(&g, cfg, &checkpoints, false);
    let dual = curve_dual(&g, cfg, &checkpoints);
    let sarsa = curve_single(&g, cfg, &checkpoints, true);
    let health = health_leg(&g, cfg, &checkpoints);

    let single_95 = single.cycles_to(0.95);
    let dual_95 = dual.cycles_to(0.95);
    Convergence {
        curves: vec![single, dual, sarsa],
        health,
        single_cycles_to_95: single_95,
        dual_cycles_to_95: dual_95,
    }
}

impl Convergence {
    /// Render as a checkpoint table (one column per curve).
    pub fn render(&self) -> String {
        let headers: Vec<&str> = std::iter::once("cycles")
            .chain(self.curves.iter().map(|c| c.label.as_str()))
            .collect();
        let n = self.curves[0].points.len();
        let rows: Vec<Vec<String>> = (0..n)
            .map(|i| {
                std::iter::once(self.curves[0].points[i].0.to_string())
                    .chain(self.curves.iter().map(|c| format!("{:.3}", c.points[i].1)))
                    .collect()
            })
            .collect();
        let mut out = render_table(
            "Convergence rate: step-optimality vs wall-clock cycles",
            &headers,
            &rows,
        );
        out.push_str(&format!(
            "cycles to 0.95 optimality: single {:?}, dual {:?}\n",
            self.single_cycles_to_95, self.dual_cycles_to_95
        ));
        out
    }
}

crate::impl_to_json!(Curve { label, points });
crate::impl_to_json!(Convergence { curves, health });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_converges_no_later_than_single() {
        let c = run(256, 120_000);
        let single = c.single_cycles_to_95.expect("single must converge");
        let dual = c.dual_cycles_to_95.expect("dual must converge");
        assert!(dual <= single, "dual {dual} vs single {single}");
        // The Q-Learning curves converge within the budget; SARSA's
        // on-policy exploration is much slower (visible in the full-run
        // table) so it is only required to be making progress.
        for curve in &c.curves {
            let last = curve.points.last().unwrap().1;
            if curve.label.starts_with("QL") {
                assert!(last > 0.9, "{}: {last}", curve.label);
            } else {
                assert!(last > curve.points[0].1, "{}: no progress", curve.label);
            }
        }
        // The instrumented leg tracks the same checkpoint axis: one
        // snapshot per checkpoint, sample counts matching the axis, and
        // coverage/churn evidence of actual learning.
        assert_eq!(c.health.len(), c.curves[0].points.len());
        for (snap, (cycles, _)) in c.health.iter().zip(&c.curves[0].points) {
            assert_eq!(snap.samples_seen, *cycles);
        }
        let last = c.health.last().unwrap();
        assert!(last.states_visited > 0, "coverage bitset populated");
        assert!(
            last.churn > 0,
            "greedy policy must have churned while learning"
        );
    }
}
