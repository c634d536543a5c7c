//! Fig. 9 — N independent pipelines over partitioned sub-environments.
//!
//! "We can deploy N agents, each accessing a separate memory block which
//! stores the Q values and rewards for states in its corresponding
//! sub-environment." The experiment partitions one large terrain into
//! N tiles and measures aggregate samples/cycle, total resources, and
//! per-tile learning quality.

use crate::report::render_table;
use qtaccel_accel::{AccelConfig, IndependentPipelines};
use qtaccel_core::eval::step_optimality;
use qtaccel_envs::{ActionSet, Environment, PartitionedGrid};
use qtaccel_fixed::Q8_8;
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::resource::Device;

/// One scaling point.
#[derive(Debug, Clone, Copy)]
pub struct Fig9Row {
    /// Number of pipelines (= tiles).
    pub pipelines: usize,
    /// States per tile (packed address space).
    pub states_per_tile: usize,
    /// Aggregate measured samples/cycle.
    pub samples_per_cycle: f64,
    /// Aggregate modeled MS/s (fmax of the tile size × N).
    pub aggregate_msps: f64,
    /// Total DSP slices.
    pub total_dsp: u64,
    /// Total BRAM blocks.
    pub total_bram: u64,
    /// Mean step-optimality across tiles after training.
    pub mean_optimality: f64,
}

/// The scaling sweep.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// One row per pipeline count.
    pub rows: Vec<Fig9Row>,
}

/// Run the sweep over `tilings` (n × n tiles of a `terrain`² terrain),
/// training each pipeline for `samples_per_state · tile_states` updates
/// with discount `gamma`.
///
/// `gamma` must be chosen against the tile diameter at the 16-bit
/// datapath: values decay as `γ^d` toward the goal, and Q8.8 floors
/// anything below 1/256, so cells farther than `ln 256 / ln(1/γ)` moves
/// from the goal cannot represent their value at all (γ = 0.875 caps the
/// learnable radius at ~40 moves). This quantization-vs-horizon coupling
/// is a real deployment constraint of the paper's fixed-point design and
/// is recorded in EXPERIMENTS.md.
pub fn run(terrain: u32, tilings: &[u32], samples_per_state: u64, gamma: f64) -> Fig9 {
    let cfg = AccelConfig::default().with_gamma(gamma);
    let rows = tilings
        .iter()
        .map(|&n| {
            let mut rng = Lfsr32::new(0xF19_u32 + n);
            let part = PartitionedGrid::new(terrain, terrain, n, n, 5, ActionSet::Four, &mut rng);
            let mut ind = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg);
            let tile_states = part.partition(0).num_states();
            // Scale the budget with the tile's table size so every
            // configuration trains to comparable coverage per pair; the
            // batch's split gives every tile the same share.
            let total = samples_per_state * tile_states as u64 * ind.len() as u64;
            let stats = ind.train_batch(part.partitions(), total).stats;
            let fmax = cfg.fmax.fmax_mhz(&Device::XCVU13P, tile_states as u64);
            let mean_opt = (0..ind.len())
                .map(|i| {
                    let env = part.partition(i);
                    step_optimality(env, &ind.greedy_policy(i), &env.shortest_distances())
                })
                .sum::<f64>()
                / ind.len() as f64;
            let res = ind.resources();
            Fig9Row {
                pipelines: ind.len(),
                states_per_tile: tile_states,
                samples_per_cycle: stats.samples_per_cycle(),
                aggregate_msps: fmax * ind.len() as f64,
                total_dsp: res.dsp,
                total_bram: res.bram36,
                mean_optimality: mean_opt,
            }
        })
        .collect();
    Fig9 { rows }
}

impl Fig9 {
    /// Render the scaling table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.pipelines.to_string(),
                    r.states_per_tile.to_string(),
                    format!("{:.2}", r.samples_per_cycle),
                    format!("{:.0}", r.aggregate_msps),
                    r.total_dsp.to_string(),
                    r.total_bram.to_string(),
                    format!("{:.3}", r.mean_optimality),
                ]
            })
            .collect();
        render_table(
            "Fig. 9: N independent pipelines",
            &[
                "N",
                "|S|/tile",
                "samples/cyc",
                "MS/s",
                "DSP",
                "BRAM",
                "optimality",
            ],
            &rows,
        )
    }
}

crate::impl_to_json!(Fig9Row {
    pipelines,
    states_per_tile,
    samples_per_cycle,
    aggregate_msps,
    total_dsp,
    total_bram,
    mean_optimality
});
crate::impl_to_json!(Fig9 { rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_linearly_with_pipelines() {
        let f = run(16, &[1, 2, 4], 300, 0.875);
        assert_eq!(f.rows.len(), 3);
        assert!((f.rows[0].samples_per_cycle - 1.0).abs() < 0.01);
        assert!(
            (f.rows[1].samples_per_cycle - 4.0).abs() < 0.05,
            "2x2 tiles"
        );
        assert!(
            (f.rows[2].samples_per_cycle - 16.0).abs() < 0.2,
            "4x4 tiles"
        );
        // DSPs scale with N², BRAM banks too.
        assert_eq!(f.rows[1].total_dsp, 4 * f.rows[0].total_dsp);
        // Everyone still learns.
        for r in &f.rows {
            assert!(r.mean_optimality > 0.8, "{r:?}");
        }
    }
}
