//! Reference numbers transcribed from the paper, for side-by-side
//! comparison in experiment output and EXPERIMENTS.md.
//!
//! Values marked *OCR-uncertain* come from a scanned copy whose digits
//! were ambiguous; they are reported but not asserted against.

/// The Table I state sizes (`|S|`), evaluated with 4 and 8 actions.
pub const TABLE1_STATES: [usize; 7] = [64, 256, 1024, 4096, 16384, 65536, 262144];

/// The Table I action sizes.
pub const TABLE1_ACTIONS: [usize; 2] = [4, 8];

/// Fig. 4: BRAM utilization (%) on the xcvu13p for each Table I state
/// size at 8 actions.
pub const FIG4_BRAM_PCT: [(usize, f64); 7] = [
    (64, 0.02),
    (256, 0.09),
    (1024, 0.32),
    (4096, 1.3),
    (16384, 4.8),
    (65536, 19.42),
    (262144, 78.12),
];

/// Fig. 6: throughput (MS/s) for Q-Learning/SARSA at 8 actions. `None`
/// where the scan was unreadable. The series "189, 187, 187, 186 … 156"
/// is quoted in §VI-D.
pub const FIG6_THROUGHPUT_MSPS: [(usize, Option<f64>); 7] = [
    (64, Some(189.0)),
    (256, Some(187.0)),
    (1024, Some(187.0)),
    (4096, Some(186.0)),
    (16384, None),        // bar present, value not printed
    (65536, Some(175.0)), // read off the bar chart; approximate
    (262144, Some(156.0)),
];

/// Table II: (|S|, CPU samples/s, FPGA samples/s) for |A| = 4.
/// CPU column entries are in thousands; the 262144 CPU entry is
/// OCR-uncertain ("157.85K" printed, inconsistent with the monotone
/// cache-miss trend the text describes; likely 57.85K).
pub const TABLE2_A4: [(usize, f64, f64); 4] = [
    (64, 105.5e3, 189e6),
    (1024, 91.41e3, 187e6),
    (16384, 74.17e3, 181e6),
    (262144, 57.85e3, 156e6),
];

/// Table II for |A| = 8 (CPU 262144 entry OCR-uncertain, printed "152K";
/// likely 15.2K given the trend).
pub const TABLE2_A8: [(usize, f64, f64); 4] = [
    (64, 105.8e3, 189e6),
    (1024, 88.1e3, 186e6),
    (16384, 70.25e3, 179e6),
    (262144, 52.0e3, 153e6),
];

/// Fig. 7: the (|S|, |A|) points of the baseline DSP comparison.
pub const FIG7_POINTS: [(usize, usize); 5] = [(12, 4), (12, 8), (56, 4), (56, 8), (132, 4)];

/// §VI-F scalar claims.
pub mod claims {
    /// QTAccel throughput on the Virtex-7 comparison device, MS/s.
    pub const QTACCEL_V7_MSPS: f64 = 180.0;
    /// Throughput advantage over the baseline \[11\].
    pub const SPEEDUP_VS_BASELINE: f64 = 15.0;
    /// States supported by QTAccel on the comparison device.
    pub const QTACCEL_V7_STATES: usize = 131_072;
    /// States supported by the baseline on its Virtex-6 device.
    pub const BASELINE_V6_STATES: usize = 132;
    /// QTAccel DSP multiplier count (constant).
    pub const QTACCEL_DSP: u64 = 4;
    /// Peak throughput headline, MS/s.
    pub const PEAK_MSPS: f64 = 189.0;
    /// Largest supported state-action pair count on the xcvu13p.
    pub const MAX_PAIRS_VU13P: usize = 2 * 1024 * 1024;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sizes_are_powers_of_four_times_64() {
        for w in TABLE1_STATES.windows(2) {
            assert_eq!(w[1], w[0] * 4, "Table I quadruples |S| per case");
        }
    }

    #[test]
    fn fig4_series_is_monotone() {
        for w in FIG4_BRAM_PCT.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
    }

    #[test]
    fn fig6_series_is_non_increasing_where_known() {
        let known: Vec<f64> = FIG6_THROUGHPUT_MSPS.iter().filter_map(|p| p.1).collect();
        for w in known.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }
}
