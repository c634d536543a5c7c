//! Single-event-upset (SEU) robustness study.
//!
//! FPGAs deployed in the paper's motivating environments — "edge centric
//! applications like robotics" and explicitly *space rovers* — operate
//! under radiation, where BRAM cells suffer bit flips. Unlike a weight
//! matrix in an inference engine, a Q-table is *self-healing*: the
//! training loop keeps rewriting entries, so a corrupted value is
//! re-learned rather than permanent. This experiment quantifies that:
//! train to convergence, flip random Q BRAM bits (including worst-case
//! sign bits), and measure the policy damage and the number of samples
//! until the policy recovers.
//!
//! **Finding:** the §V-A Qmax array breaks the self-healing property.
//! A sign-bit flip on a slightly negative entry (a wall-bump value)
//! produces a large *positive* word; the monotone Qmax update then
//! latches that corrupted maximum — and since the array only ever
//! increases, it never heals, poisoning every greedy target that reads
//! it. The exact-scan design recomputes the maximum from the (re-learned)
//! Q row and recovers fully. A radiation-tolerant deployment of this
//! architecture needs periodic Qmax scrubbing (an exact rebuild sweep) —
//! see `QmaxTable::rebuild_exact`, which is precisely that operation.

use crate::grids::paper_grid;
use crate::report::render_table;
use qtaccel_accel::{AccelConfig, QLearningAccel};
use qtaccel_core::eval::step_optimality;
use qtaccel_core::qtable::MaxMode;
use qtaccel_envs::Environment;
use qtaccel_fixed::Q8_8;
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::rng::RngSource;

/// One injection scenario.
#[derive(Debug, Clone)]
pub struct SeuRow {
    /// Max-selection mode under test.
    pub mode: String,
    /// Number of bit flips injected.
    pub flips: u32,
    /// Whether flips targeted the sign bit (worst case) or random bits.
    pub sign_bits_only: bool,
    /// Step-optimality immediately before injection.
    pub optimality_before: f64,
    /// Step-optimality immediately after injection (no retraining).
    pub optimality_after: f64,
    /// Samples of continued training until optimality recovers to within
    /// 0.02 of the pre-injection level (`None` = did not recover within
    /// the budget).
    pub recovery_samples: Option<u64>,
}

/// The SEU study result.
#[derive(Debug, Clone)]
pub struct Seu {
    /// Grid size used.
    pub states: usize,
    /// One row per scenario.
    pub rows: Vec<SeuRow>,
}

/// Run the study on a `states`-state grid: pre-train with
/// `train_samples`, then for each flip count inject and measure recovery.
///
/// The recovery budget is 4× the training budget: a sign-bit flip plants
/// a value error of ~2⁷, and Q-learning contracts global value error by
/// ~γ per full sweep of the table, so clearing it needs
/// `ln(2⁷/ε)/ln(1/γ)` sweeps — about 330 sweeps at γ = 0.96875, far more
/// than the initial training needed. Slow-but-certain healing (in the
/// exact-scan design) is itself a finding worth the budget.
pub fn run(states: usize, train_samples: u64) -> Seu {
    let g = paper_grid(states, 4);
    let dists = g.shortest_distances();
    let mut rows = Vec::new();
    for mode in [MaxMode::ExactScan, MaxMode::QmaxArray] {
        for &(flips, sign_only) in &[
            (1u32, true),
            (8, true),
            (64, true),
            (64, false),
            (256, false),
        ] {
            // gamma chosen so Q8.8 quantization ties do not make the
            // optimality metric flap (see the fig9 horizon notes); the
            // recovery threshold is 0.02 to sit above residual fluctuation.
            let cfg = AccelConfig::default()
                .with_seed(0x5E_u64 + flips as u64)
                .with_gamma(0.96875)
                .with_max_mode(mode);
            let mut a = QLearningAccel::<Q8_8>::new(&g, cfg);
            a.train_samples(&g, train_samples);
            let before = step_optimality(&g, &a.greedy_policy(), &dists);

            // Inject.
            let mut rng = Lfsr32::new(0xBADB17 ^ flips);
            for _ in 0..flips {
                let s = rng.below(g.num_states() as u32);
                let act = rng.below(g.num_actions() as u32);
                let bit = if sign_only { 15 } else { rng.below(16) };
                a.inject_q_bit_flip(s, act, bit);
            }
            let after = step_optimality(&g, &a.greedy_policy(), &dists);

            // Recover.
            let mut recovery = None;
            let budget = 4 * train_samples;
            let chunk = (budget / 100).max(1);
            let mut used = 0u64;
            while used < budget {
                a.train_samples(&g, chunk);
                used += chunk;
                if step_optimality(&g, &a.greedy_policy(), &dists) >= before - 0.02 {
                    recovery = Some(used);
                    break;
                }
            }
            rows.push(SeuRow {
                mode: format!("{mode:?}"),
                flips,
                sign_bits_only: sign_only,
                optimality_before: before,
                optimality_after: after,
                recovery_samples: recovery,
            });
        }
    }
    Seu { states, rows }
}

impl Seu {
    /// Render the study table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    r.flips.to_string(),
                    if r.sign_bits_only { "sign" } else { "random" }.to_string(),
                    format!("{:.3}", r.optimality_before),
                    format!("{:.3}", r.optimality_after),
                    r.recovery_samples
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "no".into()),
                ]
            })
            .collect();
        render_table(
            &format!("SEU robustness ({} states, Q8.8 BRAM)", self.states),
            &[
                "mode",
                "flips",
                "bits",
                "opt before",
                "opt after",
                "recovery",
            ],
            &rows,
        )
    }
}

crate::impl_to_json!(SeuRow {
    mode,
    flips,
    sign_bits_only,
    optimality_before,
    optimality_after,
    recovery_samples
});
crate::impl_to_json!(Seu { states, rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_scan_self_heals_qmax_array_can_latch_corruption() {
        let s = run(256, 150_000);
        for r in &s.rows {
            assert!(r.optimality_before > 0.9, "{r:?}");
            if r.mode == "ExactScan" {
                assert!(
                    r.recovery_samples.is_some(),
                    "exact-scan training must heal the table: {r:?}"
                );
            }
        }
        // The documented vulnerability: under heavy sign-bit injection the
        // monotone Qmax array latches at least one corrupted maximum and
        // the policy does not fully recover within the budget.
        let qmax_heavy = s
            .rows
            .iter()
            .filter(|r| r.mode == "QmaxArray" && r.sign_bits_only && r.flips >= 8)
            .collect::<Vec<_>>();
        assert!(
            qmax_heavy.iter().any(|r| r.recovery_samples.is_none()),
            "expected the Qmax latch-up to show: {qmax_heavy:?}"
        );
    }
}
