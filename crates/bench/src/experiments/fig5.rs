//! Fig. 5 — SARSA resource utilization and power vs |S| (|A| = 8).
//!
//! §VI-C2: "the architecture for SARSA is very similar to Q-Learning. The
//! main difference comes in stage 2 of the pipeline … a random number
//! generator … hence our logic utilization (register) has increased
//! accordingly. Using random number generator does not increase any DSPs
//! or BRAMs utilization."

use super::fig3::{sweep, ResourceSweep};
use qtaccel_accel::resources::EngineKind;

/// The Fig. 5 result: the SARSA sweep plus the Q-Learning deltas the
/// paper calls out.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// The SARSA resource sweep.
    pub sarsa: ResourceSweep,
    /// Extra flip-flops over Q-Learning (constant across |S|).
    pub extra_ff_vs_qlearning: u64,
    /// Extra power over Q-Learning at the largest size, mW.
    pub extra_power_mw: f64,
}

/// Run the SARSA sweep and compute the deltas.
pub fn run(max_states: usize) -> Fig5 {
    let sarsa = sweep(EngineKind::Sarsa, max_states);
    let ql = sweep(EngineKind::QLearning, max_states);
    let extra_ff = sarsa.rows[0].ff - ql.rows[0].ff;
    let extra_power = sarsa.rows.last().unwrap().power_mw - ql.rows.last().unwrap().power_mw;
    Fig5 {
        sarsa,
        extra_ff_vs_qlearning: extra_ff,
        extra_power_mw: extra_power,
    }
}

impl Fig5 {
    /// Render in the figure's layout.
    pub fn render(&self) -> String {
        let mut out = self
            .sarsa
            .render("Fig. 5: SARSA resource utilization on xcvu13p (|A|=8)");
        out.push_str(&format!(
            "SARSA vs Q-Learning: +{} FF (LFSR bank), +{:.1} mW at the largest case; \
             DSP and BRAM identical.\n",
            self.extra_ff_vs_qlearning, self.extra_power_mw
        ));
        out
    }
}

crate::impl_to_json!(Fig5 {
    sarsa,
    extra_ff_vs_qlearning,
    extra_power_mw
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarsa_deltas_match_the_papers_story() {
        let f = run(262_144);
        assert!(f.extra_ff_vs_qlearning > 0);
        assert!(f.extra_power_mw > 0.0);
        // DSP and BRAM identical to Q-Learning at every size.
        let ql = sweep(EngineKind::QLearning, 262_144);
        for (s, q) in f.sarsa.rows.iter().zip(&ql.rows) {
            assert_eq!(s.dsp, q.dsp);
            assert_eq!(s.bram36, q.bram36);
            assert!(s.ff > q.ff);
        }
    }
}
