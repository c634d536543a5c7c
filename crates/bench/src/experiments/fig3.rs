//! Fig. 3 — Q-Learning resource utilization and power vs |S| (|A| = 8).

use crate::paper::TABLE1_STATES;
use crate::report::{fmt_pct, render_table};
use qtaccel_accel::resources::{analyze, AccelResources, EngineKind};
use qtaccel_accel::AccelConfig;

/// One sweep row.
#[derive(Debug, Clone, Copy)]
pub struct ResourceRow {
    /// Number of states.
    pub states: usize,
    /// DSP slices (absolute).
    pub dsp: u64,
    /// DSP utilization, %.
    pub dsp_pct: f64,
    /// Flip-flops (absolute).
    pub ff: u64,
    /// Register utilization, %.
    pub ff_pct: f64,
    /// LUTs (absolute).
    pub lut: u64,
    /// BRAM blocks (absolute).
    pub bram36: u64,
    /// BRAM utilization, %.
    pub bram_pct: f64,
    /// Modeled power, mW.
    pub power_mw: f64,
    /// Modeled clock, MHz.
    pub fmax_mhz: f64,
}

/// The resource sweep result for one engine kind.
#[derive(Debug, Clone)]
pub struct ResourceSweep {
    /// Engine name.
    pub engine: String,
    /// One row per Table I state size (|A| = 8).
    pub rows: Vec<ResourceRow>,
}

/// Sweep resources for `kind` across the Table I sizes up to
/// `max_states`.
pub fn sweep(kind: EngineKind, max_states: usize) -> ResourceSweep {
    let config = AccelConfig::default();
    let rows = TABLE1_STATES
        .iter()
        .filter(|&&s| s <= max_states)
        .map(|&states| {
            let r: AccelResources = analyze(states, 8, 16, kind, &config, 1.0);
            ResourceRow {
                states,
                dsp: r.report.dsp,
                dsp_pct: r.utilization.dsp_pct,
                ff: r.report.ff,
                ff_pct: r.utilization.ff_pct,
                lut: r.report.lut,
                bram36: r.report.bram36,
                bram_pct: r.utilization.bram_pct,
                power_mw: r.power_mw,
                fmax_mhz: r.fmax_mhz,
            }
        })
        .collect();
    ResourceSweep {
        engine: format!("{kind:?}"),
        rows,
    }
}

/// Run the Fig. 3 sweep (Q-Learning).
pub fn run(max_states: usize) -> ResourceSweep {
    sweep(EngineKind::QLearning, max_states)
}

impl ResourceSweep {
    /// Render with the figure's series: DSP %, registers %, power.
    pub fn render(&self, title: &str) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.states.to_string(),
                    r.dsp.to_string(),
                    fmt_pct(r.dsp_pct),
                    r.ff.to_string(),
                    fmt_pct(r.ff_pct),
                    format!("{:.1}", r.power_mw),
                ]
            })
            .collect();
        render_table(
            title,
            &["|S|", "DSP", "DSP%", "FF", "FF%", "power mW"],
            &rows,
        )
    }
}

crate::impl_to_json!(ResourceRow {
    states,
    dsp,
    dsp_pct,
    ff,
    ff_pct,
    lut,
    bram_pct,
    power_mw,
    fmax_mhz
});
crate::impl_to_json!(ResourceSweep { engine, rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsp_flat_ff_tiny_power_rising() {
        let s = run(262_144);
        assert_eq!(s.rows.len(), 7);
        // DSP series flat at 4 (the paper's headline).
        assert!(s.rows.iter().all(|r| r.dsp == 4));
        // Registers below 0.1 % everywhere.
        assert!(s.rows.iter().all(|r| r.ff_pct < 0.1));
        // Power increases with the BRAM footprint.
        assert!(s.rows.last().unwrap().power_mw > s.rows[0].power_mw);
        assert!(s.render("fig3").contains("power"));
    }

    #[test]
    fn max_states_filter() {
        assert_eq!(run(4_096).rows.len(), 4);
    }
}
