//! Table II — throughput comparison with the CPU implementation.
//!
//! The CPU column is *measured on this machine* (compiled Rust with a
//! nested-hash-map Q store, the closest analogue of the paper's Python
//! dict program); the FPGA column is the modeled fmax × the measured
//! samples-per-cycle. Absolute CPU numbers therefore exceed the paper's
//! CPython measurements, but the two shape claims hold: CPU throughput
//! decays with |S| as the tables leave cache, and the accelerator's
//! advantage is orders of magnitude and grows with |A|
//! (dict lookups scale with the action scan; the pipeline does not).

use crate::grids::paper_grid;
use crate::report::{fmt_rate, render_table, Json};
use qtaccel_accel::{AccelConfig, QLearningAccel};
use qtaccel_baseline::{CpuBaseline, CpuKind};
use qtaccel_fixed::Q8_8;

/// Sizes Table II evaluates.
pub const TABLE2_STATES: [usize; 4] = [64, 1024, 16384, 262144];

/// One comparison cell.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    /// Number of states.
    pub states: usize,
    /// Number of actions.
    pub actions: usize,
    /// Measured CPU throughput (nested dict), samples/s.
    pub cpu_dict_sps: f64,
    /// Measured CPU throughput (dense array), samples/s.
    pub cpu_dense_sps: f64,
    /// Modeled FPGA throughput, samples/s.
    pub fpga_sps: f64,
    /// FPGA / dict-CPU speedup.
    pub speedup: f64,
}

/// The Table II grid.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// One row per (|S|, |A|).
    pub rows: Vec<Table2Row>,
    /// Provenance of the host-timed CPU rates: commit, dirty flag, time
    /// and host (`qtaccel_telemetry::manifest`).
    pub manifest: Json,
}

/// Run the comparison: `cpu_samples` measured updates per CPU point,
/// `sim_samples` per pipeline measurement.
pub fn run(cpu_samples: u64, sim_samples: u64, max_states: usize) -> Table2 {
    let mut rows = Vec::new();
    for &actions in &[4usize, 8] {
        for &states in TABLE2_STATES.iter().filter(|&&s| s <= max_states) {
            let g = paper_grid(states, actions);
            let mut dict = CpuBaseline::new(g.clone(), CpuKind::NestedDict, 42);
            // Warm-up then measure, so allocation of the dict rows does
            // not dominate.
            dict.measure(cpu_samples / 4);
            let td = dict.measure(cpu_samples);
            let mut dense = CpuBaseline::new(g.clone(), CpuKind::DenseArray, 42);
            dense.measure(cpu_samples / 4);
            let tn = dense.measure(cpu_samples);
            let mut accel = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
            accel.train_samples(&g, sim_samples);
            let fpga_sps = accel.resources().throughput_msps * 1e6;
            rows.push(Table2Row {
                states,
                actions,
                cpu_dict_sps: td.samples_per_sec(),
                cpu_dense_sps: tn.samples_per_sec(),
                fpga_sps,
                speedup: fpga_sps / td.samples_per_sec(),
            });
        }
    }
    Table2 {
        rows,
        manifest: qtaccel_telemetry::manifest::provenance(),
    }
}

impl Table2 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("|A|={}", r.actions),
                    r.states.to_string(),
                    fmt_rate(r.cpu_dict_sps),
                    fmt_rate(r.cpu_dense_sps),
                    fmt_rate(r.fpga_sps),
                    format!("{:.0}x", r.speedup),
                ]
            })
            .collect();
        render_table(
            "Table II: CPU vs FPGA throughput",
            &["cfg", "|S|", "CPU dict", "CPU dense", "FPGA", "speedup"],
            &rows,
        )
    }
}

crate::impl_to_json!(Table2Row {
    states,
    actions,
    cpu_dict_sps,
    cpu_dense_sps,
    fpga_sps,
    speedup
});
crate::impl_to_json!(Table2 { rows, manifest });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_dominates_and_decays_with_size() {
        let t = run(20_000, 5_000, 1024);
        assert_eq!(t.rows.len(), 4); // 2 sizes x 2 action counts
        for r in &t.rows {
            assert!(r.speedup > 10.0, "{r:?}");
            assert!(r.fpga_sps >= 156e6);
        }
    }
}
