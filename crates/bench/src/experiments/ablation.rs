//! Ablations of the two headline design choices.
//!
//! * **Hazard handling** (DESIGN.md Ablation A): forwarding vs stalling
//!   vs ignoring the read-after-write dependencies between consecutive
//!   updates. Forwarding is the paper's design ("fully handles the
//!   dependencies … one sample every clock cycle"); stalling shows what
//!   that network buys; ignoring shows why *some* interlock is mandatory.
//! * **Qmax array** (DESIGN.md Ablation B, §V-A): the single-read Qmax
//!   array vs the unoptimized |A|-read row scan, measuring both the cycle
//!   cost and the (empirically negligible) convergence effect of the
//!   array's monotone-staleness approximation.

use crate::grids::paper_grid;
use crate::report::render_table;
use qtaccel_accel::{AccelConfig, HazardMode, QLearningAccel};
use qtaccel_core::eval::step_optimality;
use qtaccel_core::qtable::MaxMode;
use qtaccel_envs::GridWorld;

/// One hazard-mode measurement.
#[derive(Debug, Clone)]
pub struct HazardRow {
    /// Grid states.
    pub states: usize,
    /// Hazard mode name.
    pub mode: String,
    /// Measured samples per cycle.
    pub samples_per_cycle: f64,
    /// Stall cycles incurred.
    pub stalls: u64,
    /// Forwarding events.
    pub forwards: u64,
    /// Bit-exact with the forwarding run?
    pub values_match_forwarding: bool,
    /// Step-optimality of the learned policy.
    pub optimality: f64,
}

/// The hazard ablation.
#[derive(Debug, Clone)]
pub struct HazardAblation {
    /// One row per (grid size, mode).
    pub rows: Vec<HazardRow>,
}

/// Run the hazard ablation over small grids (where dependent updates are
/// frequent) with `samples` updates each.
pub fn run_forwarding(samples: u64) -> HazardAblation {
    let mut rows = Vec::new();
    for states in [16usize, 64, 256] {
        let g = paper_grid(states, 4);
        for mode in [
            HazardMode::Forwarding,
            HazardMode::StallOnly,
            HazardMode::Ignore,
        ] {
            let cfg = AccelConfig::default().with_seed(77).with_hazard(mode);
            let mut a = QLearningAccel::<qtaccel_fixed::Q8_8>::new(&g, cfg);
            // Lock-step against a forwarding reference: divergence must be
            // detected *per update*, because both trajectories eventually
            // reconverge to the same fixed point and a final-table
            // comparison would mask mid-flight corruption.
            let mut reference = QLearningAccel::<qtaccel_fixed::Q8_8>::new(
                &g,
                AccelConfig::default()
                    .with_seed(77)
                    .with_hazard(HazardMode::Forwarding),
            );
            let mut matches = true;
            for _ in 0..samples {
                let ta = a.step(&g);
                let tr = reference.step(&g);
                if ta != tr {
                    matches = false;
                }
            }
            let stats = a.stats();
            rows.push(HazardRow {
                states,
                mode: format!("{mode:?}"),
                samples_per_cycle: stats.samples_per_cycle(),
                stalls: stats.stalls,
                forwards: stats.forwards,
                values_match_forwarding: matches,
                optimality: step_optimality(&g, &a.greedy_policy(), &g.shortest_distances()),
            });
        }
    }
    HazardAblation { rows }
}

impl HazardAblation {
    /// Render the ablation table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.states.to_string(),
                    r.mode.clone(),
                    format!("{:.4}", r.samples_per_cycle),
                    r.stalls.to_string(),
                    r.forwards.to_string(),
                    r.values_match_forwarding.to_string(),
                    format!("{:.3}", r.optimality),
                ]
            })
            .collect();
        render_table(
            "Ablation A: hazard handling between consecutive updates",
            &[
                "|S|",
                "mode",
                "samples/cyc",
                "stalls",
                "forwards",
                "bit-exact",
                "optimality",
            ],
            &rows,
        )
    }
}

/// One Qmax-mode measurement.
#[derive(Debug, Clone)]
pub struct QmaxRow {
    /// Actions in the grid.
    pub actions: usize,
    /// Max-selection mode name.
    pub mode: String,
    /// Measured samples per cycle.
    pub samples_per_cycle: f64,
    /// Modeled MS/s at the flat-region clock.
    pub msps: f64,
    /// Step-optimality after training.
    pub optimality: f64,
}

/// The Qmax ablation.
#[derive(Debug, Clone)]
pub struct QmaxAblation {
    /// One row per (|A|, mode).
    pub rows: Vec<QmaxRow>,
}

/// Run the Qmax ablation with `samples` updates per configuration.
pub fn run_qmax(samples: u64) -> QmaxAblation {
    let mut rows = Vec::new();
    for actions in [4usize, 8] {
        let g: GridWorld = paper_grid(256, actions);
        for mode in [MaxMode::QmaxArray, MaxMode::ExactScan] {
            let cfg = AccelConfig::default().with_seed(7).with_max_mode(mode);
            let mut a = QLearningAccel::<qtaccel_fixed::Q8_8>::new(&g, cfg);
            a.train_samples(&g, samples);
            let spc = a.stats().samples_per_cycle();
            rows.push(QmaxRow {
                actions,
                mode: format!("{mode:?}"),
                samples_per_cycle: spc,
                msps: 189.0 * spc,
                optimality: step_optimality(&g, &a.greedy_policy(), &g.shortest_distances()),
            });
        }
    }
    QmaxAblation { rows }
}

impl QmaxAblation {
    /// Render the ablation table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.actions.to_string(),
                    r.mode.clone(),
                    format!("{:.4}", r.samples_per_cycle),
                    format!("{:.0}", r.msps),
                    format!("{:.3}", r.optimality),
                ]
            })
            .collect();
        render_table(
            "Ablation B: Qmax array vs |A|-read row scan (SV-A)",
            &["|A|", "mode", "samples/cyc", "MS/s", "optimality"],
            &rows,
        )
    }
}

crate::impl_to_json!(HazardRow {
    states,
    mode,
    samples_per_cycle,
    stalls,
    forwards,
    values_match_forwarding,
    optimality
});
crate::impl_to_json!(HazardAblation { rows });
crate::impl_to_json!(QmaxRow {
    actions,
    mode,
    samples_per_cycle,
    msps,
    optimality
});
crate::impl_to_json!(QmaxAblation { rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_ablation_story_holds() {
        let h = run_forwarding(20_000);
        for chunk in h.rows.chunks(3) {
            let (fwd, stall, ignore) = (&chunk[0], &chunk[1], &chunk[2]);
            assert!(fwd.samples_per_cycle > 0.999);
            assert!(stall.samples_per_cycle < fwd.samples_per_cycle);
            assert!(stall.values_match_forwarding, "stall preserves values");
            assert!(!ignore.values_match_forwarding, "stale reads corrupt");
            assert!(fwd.forwards > 0);
        }
        // Smaller worlds stall more (hazards denser).
        assert!(h.rows[1].stalls > h.rows[7].stalls);
    }

    #[test]
    fn qmax_ablation_shows_the_speedup() {
        let q = run_qmax(50_000);
        // Qmax array: 1 sample/cycle; scan: ~1/|A|.
        assert!(q.rows[0].samples_per_cycle > 0.999);
        assert!((q.rows[1].samples_per_cycle - 0.25).abs() < 0.01);
        assert!((q.rows[3].samples_per_cycle - 0.125).abs() < 0.01);
        // Both modes learn comparably well.
        for r in &q.rows {
            assert!(r.optimality > 0.8, "{r:?}");
        }
    }
}
