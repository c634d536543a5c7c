//! Fig. 7 + §VI-F — comparison with the FSM-array baseline \[11\].
//!
//! Two structural comparisons:
//!
//! 1. **Multiplier (DSP) count** at the (|S|, |A|) points of Fig. 7:
//!    QTAccel's constant 4 vs the baseline's |S|·|A|.
//! 2. **Scalability and throughput** on the like-for-like device pair of
//!    §VI-F: maximum supported states and MS/s on a Virtex-7/Virtex-6
//!    class device.

use crate::paper::{claims, FIG7_POINTS};
use crate::report::render_table;
use qtaccel_accel::resources::resource_report;
use qtaccel_accel::resources::EngineKind;
use qtaccel_baseline::fsm_array::{FsmArrayBaseline, FSM_CYCLES_PER_SAMPLE};
use qtaccel_envs::GridWorld;
use qtaccel_hdl::bram::blocks_for;
use qtaccel_hdl::resource::{Device, ResourceReport};

/// One multiplier-count comparison point.
#[derive(Debug, Clone, Copy)]
pub struct MultiplierRow {
    /// Number of states.
    pub states: usize,
    /// Number of actions.
    pub actions: usize,
    /// QTAccel multipliers (constant).
    pub qtaccel: u64,
    /// Baseline multipliers (one per state-action pair).
    pub baseline: u64,
}

/// The §VI-F scalability comparison.
#[derive(Debug, Clone, Copy)]
pub struct ScalabilityComparison {
    /// Max states for QTAccel on the Virtex-7 690T (BRAM-bound).
    pub qtaccel_max_states: usize,
    /// Max states for the baseline on the Virtex-6 LX240T (DSP-bound).
    pub baseline_max_states: usize,
    /// QTAccel modeled MS/s on the Virtex-7.
    pub qtaccel_msps: f64,
    /// Baseline modeled MS/s.
    pub baseline_msps: f64,
    /// Throughput ratio.
    pub speedup: f64,
    /// State-capacity ratio.
    pub capacity_ratio: f64,
}

/// The full Fig. 7 / §VI-F result.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// The multiplier bars.
    pub multipliers: Vec<MultiplierRow>,
    /// The scalability scalars.
    pub scalability: ScalabilityComparison,
}

/// Largest power-of-two state count whose QTAccel tables (Q + R at 16
/// bits, Qmax at 19) fit the device BRAM.
fn qtaccel_max_states(device: &Device, actions: usize) -> usize {
    let mut states = 1usize;
    loop {
        let next = states * 2;
        let pairs = (next * actions) as u64;
        let r = ResourceReport {
            dsp: 4,
            bram36: 2 * blocks_for(pairs, 16) + blocks_for(next as u64, 19),
            uram: 0,
            lut: 2500,
            ff: 1500,
        };
        if r.fits(device) {
            states = next;
        } else {
            return states;
        }
    }
}

/// Run the comparison.
pub fn run() -> Fig7 {
    let multipliers = FIG7_POINTS
        .iter()
        .map(|&(states, actions)| MultiplierRow {
            states,
            actions,
            qtaccel: resource_report(states, actions, 16, EngineKind::QLearning).dsp,
            baseline: (states * actions) as u64,
        })
        .collect();

    let v7 = Device::VIRTEX7_690T;
    let v6 = Device::VIRTEX6_LX240T;
    let qtaccel_max = qtaccel_max_states(&v7, 4);
    let baseline_max =
        FsmArrayBaseline::<qtaccel_fixed::Q8_8, GridWorld>::max_states_on(&v6, 4, 16);
    let qtaccel_msps = v7.base_fmax_mhz; // 1 sample/cycle
    let baseline_msps = v6.base_fmax_mhz / FSM_CYCLES_PER_SAMPLE as f64;
    Fig7 {
        multipliers,
        scalability: ScalabilityComparison {
            qtaccel_max_states: qtaccel_max,
            baseline_max_states: baseline_max,
            qtaccel_msps,
            baseline_msps,
            speedup: qtaccel_msps / baseline_msps,
            capacity_ratio: qtaccel_max as f64 / baseline_max as f64,
        },
    }
}

impl Fig7 {
    /// Render both comparisons.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .multipliers
            .iter()
            .map(|r| {
                vec![
                    format!("({},{})", r.states, r.actions),
                    r.qtaccel.to_string(),
                    r.baseline.to_string(),
                ]
            })
            .collect();
        let mut out = render_table(
            "Fig. 7: multiplier (DSP) count vs baseline [11]",
            &["(|S|,|A|)", "QTAccel", "baseline"],
            &rows,
        );
        let s = &self.scalability;
        out.push_str(&format!(
            "SVI-F scalability (V7-690T vs V6-LX240T): QTAccel {} states @ {:.0} MS/s, \
             baseline {} states @ {:.1} MS/s -> {:.0}x throughput, {:.0}x capacity \
             (paper: {:.0}x, >1000x)\n",
            s.qtaccel_max_states,
            s.qtaccel_msps,
            s.baseline_max_states,
            s.baseline_msps,
            s.speedup,
            s.capacity_ratio,
            claims::SPEEDUP_VS_BASELINE,
        ));
        out
    }
}

crate::impl_to_json!(MultiplierRow {
    states,
    actions,
    qtaccel,
    baseline
});
crate::impl_to_json!(ScalabilityComparison {
    qtaccel_max_states,
    baseline_max_states,
    qtaccel_msps,
    baseline_msps,
    speedup,
    capacity_ratio
});
crate::impl_to_json!(Fig7 {
    multipliers,
    scalability
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qtaccel_is_constant_baseline_scales() {
        let f = run();
        assert!(f
            .multipliers
            .iter()
            .all(|r| r.qtaccel == claims::QTACCEL_DSP));
        assert_eq!(f.multipliers[0].baseline, 12 * 4);
        assert_eq!(f.multipliers[4].baseline, 132 * 4);
    }

    #[test]
    fn scalability_matches_paper_claims() {
        let s = run().scalability;
        // Paper: 15x throughput, >1000x capacity (131072 vs 132).
        assert!(s.speedup > 14.0 && s.speedup < 20.0, "{}", s.speedup);
        assert!(s.capacity_ratio > 500.0, "{}", s.capacity_ratio);
        assert!(
            s.qtaccel_max_states >= claims::QTACCEL_V7_STATES,
            "{}",
            s.qtaccel_max_states
        );
        assert!(s.baseline_max_states < 300);
    }
}
