//! Fig. 4 — BRAM utilization vs |S| (identical for both engines).

use crate::paper::FIG4_BRAM_PCT;
use crate::report::{fmt_pct, render_table};
use qtaccel_accel::resources::EngineKind;

/// One BRAM row with the paper's reported value alongside.
#[derive(Debug, Clone, Copy)]
pub struct BramRow {
    /// Number of states.
    pub states: usize,
    /// Model: BRAM blocks.
    pub blocks: u64,
    /// Model: BRAM utilization, %.
    pub model_pct: f64,
    /// Paper-reported utilization, %.
    pub paper_pct: f64,
}

/// The Fig. 4 comparison.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// One row per Table I size (|A| = 8).
    pub rows: Vec<BramRow>,
}

/// Run the BRAM sweep and pair it with the paper's numbers.
pub fn run(max_states: usize) -> Fig4 {
    let sweep = super::fig3::sweep(EngineKind::QLearning, max_states);
    let rows = sweep
        .rows
        .iter()
        .map(|r| {
            let paper = FIG4_BRAM_PCT
                .iter()
                .find(|(s, _)| *s == r.states)
                .map(|(_, p)| *p)
                .unwrap_or(f64::NAN);
            BramRow {
                states: r.states,
                blocks: r.bram36,
                model_pct: r.bram_pct,
                paper_pct: paper,
            }
        })
        .collect();
    Fig4 { rows }
}

impl Fig4 {
    /// Render the comparison table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.states.to_string(),
                    r.blocks.to_string(),
                    fmt_pct(r.model_pct),
                    fmt_pct(r.paper_pct),
                ]
            })
            .collect();
        render_table(
            "Fig. 4: BRAM utilization on xcvu13p (|A|=8)",
            &["|S|", "blocks", "model %", "paper %"],
            &rows,
        )
    }
}

crate::impl_to_json!(BramRow {
    states,
    blocks,
    model_pct,
    paper_pct
});
crate::impl_to_json!(Fig4 { rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_tracks_the_paper() {
        let f = run(262_144);
        assert_eq!(f.rows.len(), 7);
        // Non-decreasing everywhere (the two smallest cases both round up
        // to 3 BRAM blocks), strictly growing from 1024 states on.
        for w in f.rows.windows(2) {
            assert!(w[1].model_pct >= w[0].model_pct);
        }
        for w in f.rows[2..].windows(2) {
            assert!(w[1].model_pct > w[0].model_pct);
        }
        // The largest case lands near the paper's 78.12 % (block
        // granularity makes the model slightly higher).
        let last = f.rows.last().unwrap();
        assert!(
            (last.model_pct - last.paper_pct).abs() < 8.0,
            "model {} vs paper {}",
            last.model_pct,
            last.paper_pct
        );
        // Mid-range within a factor of 1.5 of the paper's value.
        let mid = &f.rows[4]; // 16384
        assert!(
            mid.model_pct / mid.paper_pct < 1.5 && mid.model_pct / mid.paper_pct > 0.5,
            "model {} vs paper {}",
            mid.model_pct,
            mid.paper_pct
        );
    }
}
