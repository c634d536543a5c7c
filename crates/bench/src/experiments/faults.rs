//! Fault-tolerance campaign: sustained SEU flux vs protection level.
//!
//! The post-mortem SEU study (`experiments::seu`) injects a burst of
//! flips into a *converged* table and watches recovery. This campaign
//! models the deployment the paper motivates (space rovers, §I): a
//! sustained per-sample strike probability against the Q and Qmax BRAMs
//! *while training runs*, under three protection levels —
//!
//! * `unprotected` — strikes land directly; the monotone Qmax array
//!   latches corrupted maxima forever (the `seu` study's finding).
//! * `ecc` — behavioural SECDED on both memories: single-bit strikes
//!   are corrected on read; only a second strike on a word that was
//!   never rewritten becomes a double-bit error. Q words rewrite
//!   constantly and stay clean; *Qmax words stop being rewritten once
//!   training converges*, so latent errors accumulate there and high
//!   flux still leaks double-bit corruption into the array.
//! * `ecc_scrub` — SECDED plus the Qmax scrubbing engine: a background
//!   sweep rebuilds one Qmax entry per [`FaultConfig::scrub_period`]
//!   retired samples from the committed Q row, rewriting (and thereby
//!   re-encoding) every word each sweep. This bounds the latent-error
//!   lifetime and repairs anything that did get through.
//!
//! The campaign also prices the protection: the SECDED resource
//! overhead (widened BRAM words + codec fabric) over Table I sizes,
//! from the same `resources()` model the paper figures use.

use crate::grids::paper_grid;
use crate::report::render_table;
use qtaccel_accel::{AccelConfig, FaultConfig, QLearningAccel};
use qtaccel_core::eval::step_optimality;
use qtaccel_fixed::Q8_8;

/// One (SEU rate × protection level) campaign cell.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Protection level: `unprotected`, `ecc`, or `ecc_scrub`.
    pub protection: String,
    /// SEU probability per retired sample, per memory.
    pub seu_rate: f64,
    /// Step-optimality of the fault-free reference run.
    pub optimality_fault_free: f64,
    /// Step-optimality at the end of the campaign, under sustained flux.
    pub optimality: f64,
    /// Step-optimality when recovery training stopped (beam off,
    /// protection machinery left running). Unprotected runs stay down —
    /// the latched Qmax corruption is permanent — while ECC + scrub
    /// climbs back to the fault-free level.
    pub optimality_recovered: f64,
    /// Post-beam samples until step-optimality re-entered the 0.02 band
    /// around fault-free (`None` = did not recover within
    /// [`Faults::recovery_budget`]; `Some(0)` = never left the band).
    pub recovery_samples: Option<u64>,
    /// Strikes injected across both memories.
    pub injected: u64,
    /// Single-bit errors the SECDED model corrected.
    pub corrected: u64,
    /// Double-bit errors that defeated SECDED.
    pub uncorrectable: u64,
    /// Qmax entries the scrub sweep rewrote to the exact row maximum.
    pub scrub_repairs: u64,
}

/// SECDED fabric cost at one Table I size (ECC on vs off).
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// State-space size.
    pub states: usize,
    /// BRAM blocks without / with the widened ECC words.
    pub bram36_base: u64,
    pub bram36_ecc: u64,
    /// LUTs without / with the encoder/decoder trees.
    pub lut_base: u64,
    pub lut_ecc: u64,
    /// Modeled power without / with protection.
    pub power_mw_base: f64,
    pub power_mw_ecc: f64,
}

/// The campaign result.
#[derive(Debug, Clone)]
pub struct Faults {
    /// Grid size the injection campaign trained on.
    pub states: usize,
    /// Samples per campaign cell.
    pub train_samples: u64,
    /// Post-beam recovery budget per cell (4× the training budget — the
    /// `seu` study's healing-time argument: clearing a ~2⁷ value error
    /// at γ = 0.96875 takes far longer than initial convergence).
    pub recovery_budget: u64,
    /// One row per (rate × protection) cell.
    pub rows: Vec<FaultRow>,
    /// SECDED pricing over Table I sizes.
    pub overhead: Vec<OverheadRow>,
}

/// Scrub cadence for the `ecc_scrub` level: one Qmax entry per 4
/// retired samples — a full sweep every `4 × states` samples, frequent
/// enough that a latched corruption survives well under one
/// convergence-time constant.
const SCRUB_PERIOD: u64 = 4;

fn campaign_config() -> AccelConfig {
    // Same gamma discipline as the `seu` study: away from Q8.8
    // quantization ties so the optimality metric does not flap.
    AccelConfig::default().with_seed(0xFA57).with_gamma(0.96875)
}

fn protection_levels(rate: f64) -> [(&'static str, FaultConfig); 3] {
    let base = FaultConfig::default()
        .with_seed(0xC0FFEE ^ rate.to_bits())
        .with_seu_rate(rate);
    [
        ("unprotected", base),
        ("ecc", base.with_ecc(true)),
        (
            "ecc_scrub",
            base.with_ecc(true).with_scrub_period(SCRUB_PERIOD),
        ),
    ]
}

/// Run the campaign on a `states`-state grid: train `train_samples`
/// updates per cell under each `rates` × protection level, against one
/// fault-free reference.
pub fn run(states: usize, train_samples: u64, rates: &[f64]) -> Faults {
    let g = paper_grid(states, 4);
    let dists = g.shortest_distances();
    let cfg = campaign_config();

    let mut reference = QLearningAccel::<Q8_8>::new(&g, cfg);
    reference.train_samples_fast(&g, train_samples);
    let fault_free = step_optimality(&g, &reference.greedy_policy(), &dists);

    let recovery_budget = 4 * train_samples;
    let mut rows = Vec::new();
    for &rate in rates {
        for (protection, fc) in protection_levels(rate) {
            let mut a = QLearningAccel::<Q8_8>::new(&g, cfg);
            a.enable_faults(fc);
            a.train_samples_fast(&g, train_samples);
            let stats = a.fault_stats().expect("fault runtime attached");
            let under_flux = step_optimality(&g, &a.greedy_policy(), &dists);
            // Stop the beam: same protection level, zero rates. Whatever
            // corruption already committed to the tables stays.
            a.enable_faults(FaultConfig {
                q_seu_rate: 0.0,
                qmax_seu_rate: 0.0,
                ..fc
            });
            let chunk = (recovery_budget / 100).max(1);
            let mut recovered = under_flux;
            let mut recovery = (recovered >= fault_free - 0.02).then_some(0);
            let mut used = 0u64;
            while recovery.is_none() && used < recovery_budget {
                a.train_samples_fast(&g, chunk);
                used += chunk;
                recovered = step_optimality(&g, &a.greedy_policy(), &dists);
                if recovered >= fault_free - 0.02 {
                    recovery = Some(used);
                }
            }
            rows.push(FaultRow {
                protection: protection.to_string(),
                seu_rate: rate,
                optimality_fault_free: fault_free,
                optimality: under_flux,
                optimality_recovered: recovered,
                recovery_samples: recovery,
                injected: stats.injected_total(),
                corrected: stats.corrected,
                uncorrectable: stats.detected_uncorrectable,
                scrub_repairs: stats.scrub_repairs,
            });
        }
    }

    let overhead = [states, 16_384, 65_536]
        .into_iter()
        .map(|n| {
            let g = paper_grid(n, 4);
            let base = QLearningAccel::<Q8_8>::new(&g, cfg);
            let mut ecc = QLearningAccel::<Q8_8>::new(&g, cfg);
            ecc.enable_faults(FaultConfig::default().with_ecc(true));
            let (rb, re) = (base.resources(), ecc.resources());
            OverheadRow {
                states: n,
                bram36_base: rb.report.bram36,
                bram36_ecc: re.report.bram36,
                lut_base: rb.report.lut,
                lut_ecc: re.report.lut,
                power_mw_base: rb.power_mw,
                power_mw_ecc: re.power_mw,
            }
        })
        .collect();

    Faults {
        states,
        train_samples,
        recovery_budget,
        rows,
        overhead,
    }
}

impl Faults {
    /// Render the campaign and pricing tables.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0e}", r.seu_rate),
                    r.protection.clone(),
                    format!("{:.3}", r.optimality_fault_free),
                    format!("{:.3}", r.optimality),
                    format!("{:.3}", r.optimality_recovered),
                    r.recovery_samples
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "no".into()),
                    r.injected.to_string(),
                    r.corrected.to_string(),
                    r.uncorrectable.to_string(),
                    r.scrub_repairs.to_string(),
                ]
            })
            .collect();
        let campaign = render_table(
            &format!(
                "SEU campaign ({} states, {} samples/cell, Q8.8)",
                self.states, self.train_samples
            ),
            &[
                "rate",
                "protection",
                "opt clean",
                "opt flux",
                "opt recov",
                "recovery",
                "injected",
                "corrected",
                "uncorr",
                "scrubbed",
            ],
            &rows,
        );
        let price: Vec<Vec<String>> = self
            .overhead
            .iter()
            .map(|o| {
                vec![
                    o.states.to_string(),
                    format!("{} -> {}", o.bram36_base, o.bram36_ecc),
                    format!("{} -> {}", o.lut_base, o.lut_ecc),
                    format!("{:.0} -> {:.0}", o.power_mw_base, o.power_mw_ecc),
                ]
            })
            .collect();
        let pricing = render_table(
            "SECDED overhead (base -> protected)",
            &["states", "bram36", "lut", "power mW"],
            &price,
        );
        format!("{campaign}\n{pricing}")
    }
}

crate::impl_to_json!(FaultRow {
    protection,
    seu_rate,
    optimality_fault_free,
    optimality,
    optimality_recovered,
    recovery_samples,
    injected,
    corrected,
    uncorrectable,
    scrub_repairs
});
crate::impl_to_json!(OverheadRow {
    states,
    bram36_base,
    bram36_ecc,
    lut_base,
    lut_ecc,
    power_mw_base,
    power_mw_ecc
});
crate::impl_to_json!(Faults {
    states,
    train_samples,
    recovery_budget,
    rows,
    overhead
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_ladder_holds_under_heavy_flux() {
        let f = run(256, 150_000, &[1e-2]);
        let cell = |p: &str| f.rows.iter().find(|r| r.protection == p).unwrap();
        let clean = f.rows[0].optimality_fault_free;
        assert!(clean > 0.9, "reference must converge: {clean}");
        // Unprotected: flux damages the policy and the latched Qmax
        // corruption makes the loss permanent — recovery training with
        // the beam off does not bring it back.
        let bare = cell("unprotected");
        assert!(bare.optimality < clean - 0.02, "{bare:?}");
        assert!(bare.optimality_recovered < clean - 0.02, "{bare:?}");
        // ECC: single-bit strikes are corrected (and counted).
        assert!(cell("ecc").corrected > 0);
        assert_eq!(cell("unprotected").corrected, 0);
        // ECC + scrub: recovers to within the band of the fault-free run.
        let protected = cell("ecc_scrub");
        assert!(
            protected.optimality_recovered >= clean - 0.02,
            "scrubbed run must recover to fault-free: {protected:?}"
        );
        assert!(protected.scrub_repairs > 0, "sweep must have repaired");
        // Pricing: codec fabric and power always cost; the widened words
        // need extra BRAM blocks once the table is big enough (a tiny
        // table's wider words still fit its rounded-up block count).
        for o in &f.overhead {
            assert!(o.bram36_ecc >= o.bram36_base, "{o:?}");
            assert!(o.lut_ecc > o.lut_base, "{o:?}");
            assert!(o.power_mw_ecc > o.power_mw_base, "{o:?}");
        }
        let big = f.overhead.iter().find(|o| o.states == 65_536).unwrap();
        assert!(big.bram36_ecc > big.bram36_base, "{big:?}");
    }
}
