//! Fig. 6 — throughput (MS/s) vs |S| for Q-Learning and SARSA (|A| = 8).
//!
//! Throughput = modeled fmax × *measured* samples-per-cycle from the
//! cycle-accurate simulation (which confirms the 1-sample/cycle issue
//! rate the architecture claims; the measured rate is fractionally below
//! 1 only because of the 3-cycle pipeline fill).

use crate::grids::paper_grid;
use crate::paper::{FIG6_THROUGHPUT_MSPS, TABLE1_STATES};
use crate::report::render_table;
use qtaccel_accel::{AccelConfig, QLearningAccel, SarsaAccel};
use qtaccel_fixed::Q8_8;

/// One throughput row.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputRow {
    /// Number of states.
    pub states: usize,
    /// Measured samples/cycle, Q-Learning.
    pub ql_samples_per_cycle: f64,
    /// Modeled MS/s, Q-Learning.
    pub ql_msps: f64,
    /// Measured samples/cycle, SARSA.
    pub sarsa_samples_per_cycle: f64,
    /// Modeled MS/s, SARSA.
    pub sarsa_msps: f64,
    /// Paper-reported MS/s (where legible).
    pub paper_msps: Option<f64>,
}

/// The Fig. 6 sweep.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// One row per Table I size.
    pub rows: Vec<ThroughputRow>,
}

/// Run the throughput sweep: `samples` simulated updates per point.
pub fn run(samples: u64, max_states: usize) -> Fig6 {
    let sizes: Vec<usize> = TABLE1_STATES
        .iter()
        .copied()
        .filter(|&s| s <= max_states)
        .collect();
    // Points are independent: sweep them on parallel host threads. The
    // simulation itself runs through the fast-path executor — the cycle
    // counters it reports are bit-identical to the cycle-accurate engine
    // (enforced by the accel crate's equivalence suite).
    let mut rows: Vec<Option<ThroughputRow>> = vec![None; sizes.len()];
    std::thread::scope(|scope| {
        for (slot, &states) in rows.iter_mut().zip(&sizes) {
            scope.spawn(move || {
                let g = paper_grid(states, 8);
                let mut ql = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
                ql.train_samples_fast(&g, samples);
                let rq = ql.resources();
                let mut sa = SarsaAccel::<Q8_8>::new(&g, AccelConfig::default(), 0.1);
                sa.train_samples_fast(&g, samples);
                let rs = sa.resources();
                *slot = Some(ThroughputRow {
                    states,
                    ql_samples_per_cycle: ql.stats().samples_per_cycle(),
                    ql_msps: rq.throughput_msps,
                    sarsa_samples_per_cycle: sa.stats().samples_per_cycle(),
                    sarsa_msps: rs.throughput_msps,
                    paper_msps: FIG6_THROUGHPUT_MSPS
                        .iter()
                        .find(|(s, _)| *s == states)
                        .and_then(|(_, p)| *p),
                });
            });
        }
    });
    Fig6 {
        rows: rows
            .into_iter()
            .map(|r| r.expect("sweep point ran"))
            .collect(),
    }
}

impl Fig6 {
    /// Render the comparison table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.states.to_string(),
                    format!("{:.4}", r.ql_samples_per_cycle),
                    format!("{:.0}", r.ql_msps),
                    format!("{:.4}", r.sarsa_samples_per_cycle),
                    format!("{:.0}", r.sarsa_msps),
                    r.paper_msps
                        .map(|p| format!("{p:.0}"))
                        .unwrap_or_else(|| "-".into()),
                ]
            })
            .collect();
        render_table(
            "Fig. 6: throughput (|A|=8)",
            &[
                "|S|",
                "QL s/cyc",
                "QL MS/s",
                "SARSA s/cyc",
                "SARSA MS/s",
                "paper MS/s",
            ],
            &rows,
        )
    }
}

crate::impl_to_json!(ThroughputRow {
    states,
    ql_samples_per_cycle,
    ql_msps,
    sarsa_samples_per_cycle,
    sarsa_msps,
    paper_msps
});
crate::impl_to_json!(Fig6 { rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_holds_one_sample_per_cycle() {
        let f = run(5_000, 4_096);
        assert_eq!(f.rows.len(), 4);
        for r in &f.rows {
            assert!(r.ql_samples_per_cycle > 0.999, "{r:?}");
            assert!(r.sarsa_samples_per_cycle > 0.999, "{r:?}");
            // Flat region of the fmax model, modulo the 3-cycle fill.
            assert!((r.ql_msps - 189.0).abs() < 0.5, "{}", r.ql_msps);
        }
    }
}
