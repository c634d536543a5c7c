//! Cycle bookkeeping shared by pipeline simulators.

/// Counters accumulated by a cycle-accurate pipeline run.
///
/// The paper's headline architectural claim is *samples-per-cycle = 1*
/// after the pipeline fills ("processes one sample in every clock cycle").
/// These counters make that claim checkable: `samples / cycles → 1` with
/// forwarding enabled, and the stall counter quantifies what the
/// forwarding network saves (the `ablation_forwarding` experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Clock cycles simulated.
    pub cycles: u64,
    /// Samples (Q-value updates) retired.
    pub samples: u64,
    /// Cycles the front end was held because of an unresolved hazard
    /// (only nonzero in stall-only hazard mode).
    pub stalls: u64,
    /// Pipeline-fill bubbles (the first few cycles before the first
    /// retirement, plus episode-restart bubbles if any).
    pub fill_bubbles: u64,
    /// Read-after-write hazards that were resolved by forwarding.
    pub forwards: u64,
}

impl CycleStats {
    /// Samples retired per clock cycle — the paper's throughput metric
    /// normalized by clock (1.0 is the ideal the architecture claims).
    pub fn samples_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.samples as f64 / self.cycles as f64
        }
    }

    /// Throughput in million samples per second at clock `fmax_mhz`.
    pub fn throughput_msps(&self, fmax_mhz: f64) -> f64 {
        self.samples_per_cycle() * fmax_mhz
    }

    /// Merge counters from a second run (e.g. another pipeline).
    pub fn merge(&mut self, other: &CycleStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.samples += other.samples;
        self.stalls += other.stalls;
        self.fill_bubbles += other.fill_bubbles;
        self.forwards += other.forwards;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_per_cycle_basic() {
        let s = CycleStats {
            cycles: 1000,
            samples: 997,
            stalls: 0,
            fill_bubbles: 3,
            forwards: 12,
        };
        assert!((s.samples_per_cycle() - 0.997).abs() < 1e-12);
        assert!((s.throughput_msps(189.0) - 0.997 * 189.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CycleStats::default();
        assert_eq!(s.samples_per_cycle(), 0.0);
        assert_eq!(s.throughput_msps(200.0), 0.0);
    }

    #[test]
    fn merge_takes_max_cycles_and_sums_samples() {
        // Two parallel pipelines run concurrently: wall-clock is the max,
        // work is the sum — that is what "2 pipelines doubles throughput"
        // means.
        let mut a = CycleStats {
            cycles: 1000,
            samples: 997,
            ..Default::default()
        };
        let b = CycleStats {
            cycles: 990,
            samples: 987,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 1000);
        assert_eq!(a.samples, 1984);
        assert!(a.samples_per_cycle() > 1.9);
    }
}
