//! The accelerator's fault-tolerance runtime: online SEU injection,
//! a behavioural SECDED protection model, and the Qmax scrubbing engine.
//!
//! ## Why this exists
//!
//! The SEU study (`qtaccel-bench::experiments::seu`) demonstrated that
//! the §V-A Qmax array breaks the Q-table's natural self-healing: the
//! monotone update latches a corrupted maximum forever. A
//! radiation-tolerant deployment therefore needs *online* defences, not
//! post-mortem analysis. This module supplies the two the hardware would
//! carry:
//!
//! * **SECDED ECC** on the Q and Qmax BRAMs (the literal codec lives in
//!   [`qtaccel_hdl::fault::Secded`]; its fabric cost in
//!   [`qtaccel_hdl::resource::secded_report`]). The runtime models it
//!   behaviourally: a strike against a protected memory is *recorded*
//!   (address, bit, and a snapshot of the stored word) instead of
//!   applied, because the read path corrects single-bit errors
//!   combinationally — every consumer sees corrected data, and the
//!   corrected count increments at strike time. A second strike on a
//!   word whose stored value is unchanged since the first is a genuine
//!   double-bit error: both flips land and the uncorrectable count
//!   increments. If the word was rewritten in between, the write
//!   re-encoded it and cleared the latent error, so the new strike
//!   simply replaces the record. (Comparing value snapshots detects
//!   rewrites without hooking every commit; a rewrite that stores the
//!   *identical* word is conservatively treated as no rewrite.)
//! * **Qmax scrubbing** — a background sweep, one state per
//!   [`FaultConfig::scrub_period`] retired samples, that rebuilds the
//!   Qmax entry exactly from the committed Q row (the
//!   `QmaxTable::rebuild_exact` operation, pipelined into idle slots
//!   one entry at a time). This bounds the lifetime of a latched
//!   corrupted maximum to one sweep instead of forever.
//!
//! ## Zero cost when off
//!
//! The pipeline stores the runtime as `Option<Box<FaultRt>>` — `None`
//! unless [`AccelPipeline::enable_faults`] was called — and every hook is
//! gated on `is_some()`, so the fault-free path (including the
//! stall-free fast-path kernel and its NullSink throughput gate) is
//! untouched. With a fault config attached the stall-free kernel is
//! ineligible and both remaining engines take the per-sample hook.
//!
//! Note that an *active* scrub is deliberately a behaviour change even
//! without injected faults: in fault-free runs the monotone Qmax entry
//! can sit above the current row maximum (values decay after the latch),
//! and the scrub lowers it to the exact maximum — a drift toward
//! `MaxMode::ExactScan` semantics. Bit-exactness against the unprotected
//! engines is guaranteed precisely when no fault config is attached.
//!
//! [`AccelPipeline::enable_faults`]: crate::AccelPipeline::enable_faults

use qtaccel_fixed::QValue;
use qtaccel_hdl::fault::FaultInjector;
use qtaccel_hdl::rng::SeedSequence;
use qtaccel_telemetry::MetricsRegistry;

/// Fault-environment configuration: SEU rates, protection, scrubbing.
///
/// Rates are per *retired sample* per memory (one Bernoulli opportunity
/// per memory per sample), the natural unit for degradation curves:
/// a rate of `1e-4` means one expected strike per 10 000 samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed for the injectors (campaigns are reproducible).
    pub seed: u64,
    /// SEU probability per retired sample against the Q BRAM.
    pub q_seu_rate: f64,
    /// SEU probability per retired sample against the Qmax BRAM.
    pub qmax_seu_rate: f64,
    /// SECDED-protect the Q and Qmax memories (single-bit correction,
    /// double-bit detection; prices the wider words + codec logic into
    /// the resource report).
    pub ecc: bool,
    /// Scrub one Qmax entry every this many retired samples (0 = off).
    /// A full sweep takes `num_states × scrub_period` samples.
    pub scrub_period: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0xFA_017,
            q_seu_rate: 0.0,
            qmax_seu_rate: 0.0,
            ecc: false,
            scrub_period: 0,
        }
    }
}

impl FaultConfig {
    /// Replace the injector master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the same SEU rate for both memories.
    pub fn with_seu_rate(mut self, rate: f64) -> Self {
        self.q_seu_rate = rate;
        self.qmax_seu_rate = rate;
        self
    }

    /// Set the Q-memory SEU rate only.
    pub fn with_q_seu_rate(mut self, rate: f64) -> Self {
        self.q_seu_rate = rate;
        self
    }

    /// Set the Qmax-memory SEU rate only.
    pub fn with_qmax_seu_rate(mut self, rate: f64) -> Self {
        self.qmax_seu_rate = rate;
        self
    }

    /// Enable/disable SECDED protection.
    pub fn with_ecc(mut self, ecc: bool) -> Self {
        self.ecc = ecc;
        self
    }

    /// Set the scrub cadence (samples per scrubbed entry; 0 disables).
    pub fn with_scrub_period(mut self, period: u64) -> Self {
        self.scrub_period = period;
        self
    }
}

/// Cumulative fault-campaign counters, published as `qtaccel_fault_*`
/// metrics via [`FaultStats::register_into`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Strikes landed against the Q memory.
    pub injected_q: u64,
    /// Strikes landed against the Qmax memory.
    pub injected_qmax: u64,
    /// Single-bit errors corrected by the SECDED read path.
    pub corrected: u64,
    /// Double-bit errors detected but not correctable (data corrupted).
    pub detected_uncorrectable: u64,
    /// Qmax entries visited by the scrubbing engine.
    pub scrub_entries: u64,
    /// Full Qmax sweeps completed.
    pub scrub_rounds: u64,
    /// Scrubbed entries that actually differed from the exact row max
    /// (i.e. repairs, including un-poisoning latched corruption).
    pub scrub_repairs: u64,
}

impl FaultStats {
    /// Total strikes across both memories.
    pub fn injected_total(&self) -> u64 {
        self.injected_q + self.injected_qmax
    }

    /// Publish the counters under the `qtaccel_fault_*` namespace.
    pub fn register_into(&self, reg: &mut MetricsRegistry) {
        reg.set_counter(
            "qtaccel_fault_injected_total",
            "SEU strikes injected across protected memories",
            self.injected_total(),
        );
        reg.set_counter(
            "qtaccel_fault_injected_q_total",
            "SEU strikes injected against the Q BRAM",
            self.injected_q,
        );
        reg.set_counter(
            "qtaccel_fault_injected_qmax_total",
            "SEU strikes injected against the Qmax BRAM",
            self.injected_qmax,
        );
        reg.set_counter(
            "qtaccel_fault_corrected_total",
            "single-bit errors corrected by SECDED",
            self.corrected,
        );
        reg.set_counter(
            "qtaccel_fault_uncorrectable_total",
            "double-bit errors detected but uncorrectable",
            self.detected_uncorrectable,
        );
        reg.set_counter(
            "qtaccel_fault_scrub_entries_total",
            "Qmax entries visited by the scrubbing engine",
            self.scrub_entries,
        );
        reg.set_counter(
            "qtaccel_fault_scrub_rounds_total",
            "full Qmax scrub sweeps completed",
            self.scrub_rounds,
        );
        reg.set_counter(
            "qtaccel_fault_scrub_repairs_total",
            "scrubbed Qmax entries that differed from the exact row max",
            self.scrub_repairs,
        );
    }
}

/// A recorded-but-not-applied strike against an ECC-protected word:
/// the read path corrects it, so memory still holds the clean value;
/// the record is what turns a second hit into a double error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LatentError {
    pub(crate) addr: usize,
    pub(crate) bit: u32,
    /// The stored word (as [`QValue::to_bits`]) at strike time; a later
    /// mismatch means the word was rewritten (re-encoded) in between.
    pub(crate) snapshot: u64,
}

/// Per-pipeline fault runtime, boxed behind `Option` on the pipeline so
/// the fault-free path carries one pointer-sized `None`.
#[derive(Debug, Clone)]
pub(crate) struct FaultRt {
    pub(crate) config: FaultConfig,
    pub(crate) q_inj: FaultInjector,
    pub(crate) qmax_inj: FaultInjector,
    pub(crate) q_latent: Vec<LatentError>,
    pub(crate) qmax_latent: Vec<LatentError>,
    pub(crate) scrub_cursor: usize,
    pub(crate) samples_since_scrub: u64,
    pub(crate) stats: FaultStats,
}

/// Seed-derivation indices for the per-memory injectors (disjoint from
/// nothing — the fault seed space is its own `SeedSequence`).
const SEED_Q: u64 = 0;
const SEED_QMAX: u64 = 1;

impl FaultRt {
    pub(crate) fn new(config: FaultConfig) -> Self {
        let seeds = SeedSequence::new(config.seed);
        Self {
            config,
            q_inj: FaultInjector::new(seeds.derive(SEED_Q), config.q_seu_rate),
            qmax_inj: FaultInjector::new(seeds.derive(SEED_QMAX), config.qmax_seu_rate),
            q_latent: Vec::new(),
            qmax_latent: Vec::new(),
            scrub_cursor: 0,
            samples_since_scrub: 0,
            stats: FaultStats::default(),
        }
    }
}

/// Land one strike on a stored word under the configured protection.
/// Returns `Some(new_word)` when the memory content actually changes
/// (unprotected hit, or a double error breaking through ECC).
pub(crate) fn strike_word<V: QValue>(
    current: V,
    latents: &mut Vec<LatentError>,
    stats: &mut FaultStats,
    ecc: bool,
    addr: usize,
    bit: u32,
) -> Option<V> {
    if !ecc {
        return Some(current.flip_bit(bit));
    }
    match latents.iter().position(|l| l.addr == addr) {
        Some(i) if latents[i].snapshot == QValue::to_bits(current) => {
            let l = latents[i];
            if l.bit == bit {
                // The same cell flipped twice: physically restored.
                // Nothing is in error any more; drop the record.
                latents.swap_remove(i);
                return None;
            }
            // Two live flips in one codeword: detected, not correctable.
            // Both land in the stored data from here on.
            latents.swap_remove(i);
            stats.detected_uncorrectable += 1;
            Some(V::from_bits(l.snapshot).flip_bit(l.bit).flip_bit(bit))
        }
        Some(i) => {
            // The word was rewritten since the recorded strike — the
            // write re-encoded it, clearing the old latent error. The
            // new strike starts a fresh single-bit record.
            latents[i] = LatentError {
                addr,
                bit,
                snapshot: QValue::to_bits(current),
            };
            stats.corrected += 1;
            None
        }
        None => {
            latents.push(LatentError {
                addr,
                bit,
                snapshot: QValue::to_bits(current),
            });
            stats.corrected += 1;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_fixed::Q8_8;

    #[test]
    fn unprotected_strike_flips_the_word() {
        let mut latents = Vec::new();
        let mut stats = FaultStats::default();
        let v = Q8_8::from_f64(1.5);
        let hit = strike_word(v, &mut latents, &mut stats, false, 7, 15);
        assert_eq!(hit, Some(v.flip_bit(15)));
        assert!(latents.is_empty());
        assert_eq!(stats.corrected, 0);
    }

    #[test]
    fn ecc_corrects_single_and_detects_double() {
        let mut latents = Vec::new();
        let mut stats = FaultStats::default();
        let v = Q8_8::from_f64(2.0);
        // First strike: latent, corrected on read, memory clean.
        assert_eq!(strike_word(v, &mut latents, &mut stats, true, 3, 5), None);
        assert_eq!(stats.corrected, 1);
        assert_eq!(latents.len(), 1);
        // Second strike on the same unchanged word, different bit:
        // double error — both flips land.
        let hit = strike_word(v, &mut latents, &mut stats, true, 3, 9);
        assert_eq!(hit, Some(v.flip_bit(5).flip_bit(9)));
        assert_eq!(stats.detected_uncorrectable, 1);
        assert!(latents.is_empty());
    }

    #[test]
    fn rewrite_between_strikes_clears_the_latent_error() {
        let mut latents = Vec::new();
        let mut stats = FaultStats::default();
        let v0 = Q8_8::from_f64(1.0);
        assert_eq!(strike_word(v0, &mut latents, &mut stats, true, 3, 5), None);
        // The training loop rewrote the word (different value): the next
        // strike is a fresh single-bit error, not a double.
        let v1 = Q8_8::from_f64(1.25);
        assert_eq!(strike_word(v1, &mut latents, &mut stats, true, 3, 9), None);
        assert_eq!(stats.corrected, 2);
        assert_eq!(stats.detected_uncorrectable, 0);
        assert_eq!(latents[0].bit, 9);
        assert_eq!(latents[0].snapshot, QValue::to_bits(v1));
    }

    #[test]
    fn same_bit_twice_restores_the_cell() {
        let mut latents = Vec::new();
        let mut stats = FaultStats::default();
        let v = Q8_8::from_f64(1.0);
        assert_eq!(strike_word(v, &mut latents, &mut stats, true, 4, 8), None);
        assert_eq!(strike_word(v, &mut latents, &mut stats, true, 4, 8), None);
        assert!(
            latents.is_empty(),
            "toggled-back cell must clear the record"
        );
        assert_eq!(stats.detected_uncorrectable, 0);
    }

    #[test]
    fn config_builders_compose() {
        let c = FaultConfig::default()
            .with_seed(9)
            .with_seu_rate(1e-3)
            .with_qmax_seu_rate(5e-4)
            .with_ecc(true)
            .with_scrub_period(64);
        assert_eq!(c.seed, 9);
        assert_eq!(c.q_seu_rate, 1e-3);
        assert_eq!(c.qmax_seu_rate, 5e-4);
        assert!(c.ecc);
        assert_eq!(c.scrub_period, 64);
    }

    #[test]
    fn stats_publish_under_fault_namespace() {
        let stats = FaultStats {
            injected_q: 3,
            injected_qmax: 2,
            corrected: 4,
            detected_uncorrectable: 1,
            scrub_entries: 10,
            scrub_rounds: 1,
            scrub_repairs: 2,
        };
        let mut reg = MetricsRegistry::new();
        stats.register_into(&mut reg);
        assert_eq!(
            reg.get("qtaccel_fault_injected_total"),
            Some(&qtaccel_telemetry::MetricValue::Counter(5))
        );
        assert_eq!(
            reg.get("qtaccel_fault_corrected_total"),
            Some(&qtaccel_telemetry::MetricValue::Counter(4))
        );
        assert!(reg.get("qtaccel_fault_scrub_repairs_total").is_some());
    }
}
