//! Training-health observability: convergence probes, watchdog rules,
//! and the crash flight recorder.
//!
//! Everything else in this crate observes the *machine* — stalls,
//! forwards, port traffic. This module observes the *learner*: is the
//! Q-table converging, saturating its fixed-point format, or silently
//! stalled? A diverging table looks identical to a healthy one on every
//! systems metric, so the probes sample the update stream itself:
//!
//! * [`HealthProbe`] — per-pipeline convergence probes fed once per
//!   retired sample through the [`TraceSink`] seam (only when the sink's
//!   `HEALTH` const opts in, so `NullSink` fast paths stay fused and
//!   zero-cost): a TD-error magnitude log2 [`Histogram`], a
//!   greedy-policy churn counter (stored-argmax flips), fixed-point
//!   saturation-proximity counters (Q/Qmax words within `2^k` raw units
//!   of the format's rails), and a state-visit coverage bitset. Sampling
//!   is strided ([`HealthConfig::stride`]) on the retired-sample ordinal,
//!   and a probed pipeline runs the cycle-accurate engine from either
//!   entry point, so both probe the *same* samples and the probe state
//!   is bit-identical across them.
//! * [`Watchdog`] — a windowed rule engine over probe deltas raising
//!   structured, cycle-stamped [`Alert`]s: `divergence` (windowed
//!   TD-error p99 crosses a log2 threshold), `saturation` (near-rail
//!   fraction), `stalled_learning` (zero TD movement and zero churn
//!   while samples retire), `scrub_failure` (uncorrectable ECC detections
//!   advanced). Trip counters publish as `qtaccel_health_alerts_*_total`.
//! * [`FlightRecorder`] — a bounded ring of snapshots/alerts/markers
//!   dumped as strict-parseable JSONL on panic
//!   ([`FlightRecorder::with_panic_dump`]), watchdog trip, or checkpoint
//!   seal; the post-mortem the on-call engineer reads after a run died.
//!
//! Probe state is architectural enough to checkpoint: the stride cursor
//! and counters ride in `accel` checkpoints
//! ([`HealthProbe::checkpoint_words`]) so a resumed run probes exactly
//! the samples the unbroken run would. DESIGN.md §2.13 documents probe
//! semantics, default thresholds, and the HDL cost model
//! (`qtaccel_hdl::resource::health_probe_report`).

use crate::event::Event;
use crate::frame::COUNTER_LIMIT;
use crate::histogram::{Histogram, HistogramSummary, MetricsRegistry};
use crate::impl_to_json;
use crate::json::{Json, ToJson};
use crate::sink::TraceSink;
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;

/// Sign-extend a `width`-bit two's-complement word (right-aligned in a
/// `u64`, as `QValue::to_bits` stores it) to `i64`.
#[inline(always)]
fn sign_extend(bits: u64, width: u32) -> i64 {
    if width >= 64 {
        bits as i64
    } else {
        let shift = 64 - width;
        ((bits << shift) as i64) >> shift
    }
}

/// TD-error magnitude of one update in raw storage units:
/// `|new − old|` over the sign-extended `width`-bit words. Deterministic
/// integer arithmetic — both executors compute the identical value.
#[inline(always)]
pub fn td_magnitude(old_bits: u64, new_bits: u64, width: u32) -> u64 {
    sign_extend(new_bits, width)
        .wrapping_sub(sign_extend(old_bits, width))
        .unsigned_abs()
}

/// Distance (raw storage units) from a `width`-bit two's-complement word
/// to the nearer of the format's rails (`−2^(width−1)` /
/// `2^(width−1)−1`). Zero means the value sits *on* a rail — the next
/// same-direction update wraps or clamps, so small distances are the
/// saturation early warning the sub-8-bit quantization work needs.
#[inline(always)]
pub fn rail_distance(bits: u64, width: u32) -> u64 {
    let v = sign_extend(bits, width);
    let max = if width >= 64 {
        i64::MAX
    } else {
        (1i64 << (width - 1)) - 1
    };
    let min = if width >= 64 {
        i64::MIN
    } else {
        -(1i64 << (width - 1))
    };
    (max.wrapping_sub(v) as u64).min(v.wrapping_sub(min) as u64)
}

/// Probe sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Probe every `stride`-th retired sample (1 = every sample). The
    /// stride applies to the retired-sample ordinal, which both
    /// executors advance identically, so probe state is engine-exact at
    /// any stride. Must be ≥ 1.
    pub stride: u64,
    /// A written word within `2^near_rail_bits` raw units of a format
    /// rail counts as near-saturation.
    pub near_rail_bits: u32,
}

impl Default for HealthConfig {
    /// Probe every sample; "near rail" means within 16 raw units.
    fn default() -> Self {
        Self {
            stride: 1,
            near_rail_bits: 4,
        }
    }
}

/// Point-in-time view of a [`HealthProbe`] — the record the flight
/// recorder rings and the Perfetto counter tracks plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Pipeline cycle of the newest probed sample.
    pub cycle: u64,
    /// Retired samples seen by the probe (probed or not).
    pub samples_seen: u64,
    /// Samples actually probed (every `stride`-th).
    pub samples_probed: u64,
    /// Stored greedy-action flips observed at probed samples.
    pub churn: u64,
    /// Probed Q writes that landed near a format rail.
    pub near_rail_q: u64,
    /// Probed Qmax writes that landed near a format rail.
    pub near_rail_qmax: u64,
    /// Distinct states visited at probed samples.
    pub states_visited: u64,
    /// State-space size the probe is bound to (0 before binding).
    pub num_states: u64,
    /// TD-error magnitude distribution summary.
    pub td: HistogramSummary,
}

impl_to_json!(HealthSnapshot {
    cycle,
    samples_seen,
    samples_probed,
    churn,
    near_rail_q,
    near_rail_qmax,
    states_visited,
    num_states,
    td,
});

/// Per-pipeline convergence probes (see module docs). Fed by the
/// pipelines through [`TraceSink::health_mut`] once per retired sample;
/// strides, histograms and counters live here so the pipeline hook stays
/// one call.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthProbe {
    config: HealthConfig,
    samples_seen: u64,
    samples_probed: u64,
    td_error: Histogram,
    churn: u64,
    near_rail_q: u64,
    near_rail_qmax: u64,
    visited: Vec<u64>,
    visited_count: u64,
    num_states: u64,
    last_cycle: u64,
}

impl HealthProbe {
    /// An empty probe.
    ///
    /// # Panics
    /// If `config.stride` is zero.
    pub fn new(config: HealthConfig) -> Self {
        assert!(config.stride > 0, "probe stride must be positive");
        Self {
            config,
            samples_seen: 0,
            samples_probed: 0,
            td_error: Histogram::new(),
            churn: 0,
            near_rail_q: 0,
            near_rail_qmax: 0,
            visited: Vec::new(),
            visited_count: 0,
            num_states: 0,
            last_cycle: 0,
        }
    }

    /// The sampling configuration in force.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Bind the probe to a state space of `n` states (sizes the coverage
    /// bitset and the coverage denominator). The pipelines call this at
    /// sink attach; observations for states beyond the binding still
    /// grow the bitset on demand.
    pub fn bind_states(&mut self, n: u64) {
        self.num_states = n;
        let words = n.div_ceil(64) as usize;
        if self.visited.len() < words {
            self.visited.resize(words, 0);
        }
    }

    /// One retired sample. `old_bits`/`new_bits` are the pre-/post-update
    /// Q words for the sample's `(s, a)` (as `QValue::to_bits` stores
    /// them, `width` bits wide); `qmax_wrote` says the stage-4 RMW
    /// improved the Qmax entry (the written value is `new_bits`);
    /// `greedy_flip` says that write changed the stored greedy action.
    /// Strides internally on the retired-sample ordinal.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn observe_sample(
        &mut self,
        cycle: u64,
        state: u64,
        old_bits: u64,
        new_bits: u64,
        width: u32,
        qmax_wrote: bool,
        greedy_flip: bool,
    ) {
        let ordinal = self.samples_seen;
        self.samples_seen += 1;
        if !ordinal.is_multiple_of(self.config.stride) {
            return;
        }
        self.samples_probed += 1;
        self.last_cycle = cycle;
        self.td_error
            .observe(td_magnitude(old_bits, new_bits, width));
        let near = 1u64 << self.config.near_rail_bits;
        if rail_distance(new_bits, width) < near {
            self.near_rail_q += 1;
            if qmax_wrote {
                self.near_rail_qmax += 1;
            }
        }
        if greedy_flip {
            self.churn += 1;
        }
        let word = (state / 64) as usize;
        if word >= self.visited.len() {
            self.visited.resize(word + 1, 0);
        }
        let bit = 1u64 << (state % 64);
        if self.visited[word] & bit == 0 {
            self.visited[word] |= bit;
            self.visited_count += 1;
        }
    }

    /// Retired samples seen (probed or not).
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Samples actually probed.
    pub fn samples_probed(&self) -> u64 {
        self.samples_probed
    }

    /// The TD-error magnitude distribution (raw storage units, log2
    /// buckets).
    pub fn td_error(&self) -> &Histogram {
        &self.td_error
    }

    /// Stored greedy-action flips observed at probed samples.
    pub fn churn(&self) -> u64 {
        self.churn
    }

    /// Probed Q writes near a rail.
    pub fn near_rail_q(&self) -> u64 {
        self.near_rail_q
    }

    /// Probed Qmax writes near a rail.
    pub fn near_rail_qmax(&self) -> u64 {
        self.near_rail_qmax
    }

    /// Distinct states visited at probed samples.
    pub fn states_visited(&self) -> u64 {
        self.visited_count
    }

    /// The state-space size bound at attach (0 before binding).
    pub fn num_states(&self) -> u64 {
        self.num_states
    }

    /// Pipeline cycle of the newest probed sample.
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }

    /// Point-in-time snapshot for the flight recorder / counter tracks.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            cycle: self.last_cycle,
            samples_seen: self.samples_seen,
            samples_probed: self.samples_probed,
            churn: self.churn,
            near_rail_q: self.near_rail_q,
            near_rail_qmax: self.near_rail_qmax,
            states_visited: self.visited_count,
            num_states: self.num_states,
            td: self.td_error.summary(),
        }
    }

    /// Clear all probe state (configuration and state-space binding
    /// survive) — what checkpoint restore does when the checkpoint
    /// predates health instrumentation.
    pub fn reset(&mut self) {
        self.samples_seen = 0;
        self.samples_probed = 0;
        self.td_error = Histogram::new();
        self.churn = 0;
        self.near_rail_q = 0;
        self.near_rail_qmax = 0;
        self.visited.iter_mut().for_each(|w| *w = 0);
        self.visited_count = 0;
        self.last_cycle = 0;
    }

    /// Fold another probe's state into this one — the scale-out
    /// aggregation primitive, mirroring `CounterBank::merge`. Coverage
    /// bitsets OR together, which assumes both probes index the same
    /// state space (the `IndependentPipelines` sharding contract).
    pub fn merge(&mut self, other: &HealthProbe) {
        self.samples_seen += other.samples_seen;
        self.samples_probed += other.samples_probed;
        self.td_error.merge(&other.td_error);
        self.churn += other.churn;
        self.near_rail_q += other.near_rail_q;
        self.near_rail_qmax += other.near_rail_qmax;
        if self.visited.len() < other.visited.len() {
            self.visited.resize(other.visited.len(), 0);
        }
        for (mine, theirs) in self.visited.iter_mut().zip(&other.visited) {
            *mine |= theirs;
        }
        self.visited_count = self.visited.iter().map(|w| w.count_ones() as u64).sum();
        self.num_states = self.num_states.max(other.num_states);
        self.last_cycle = self.last_cycle.max(other.last_cycle);
    }

    /// Publish the probe under the stable `qtaccel_health_*` metric
    /// names.
    pub fn register_into(&self, reg: &mut MetricsRegistry) {
        reg.set_histogram(
            "qtaccel_health_td_error_magnitude",
            "TD-error magnitude per probed update (raw storage units)",
            &self.td_error,
        );
        reg.set_counter(
            "qtaccel_health_policy_churn_total",
            "stored greedy-action flips at probed samples",
            self.churn,
        );
        reg.set_counter(
            "qtaccel_health_near_rail_q_total",
            "probed Q writes within 2^k raw units of a format rail",
            self.near_rail_q,
        );
        reg.set_counter(
            "qtaccel_health_near_rail_qmax_total",
            "probed Qmax writes within 2^k raw units of a format rail",
            self.near_rail_qmax,
        );
        reg.set_counter(
            "qtaccel_health_samples_probed_total",
            "samples probed by the health layer",
            self.samples_probed,
        );
        reg.set_counter(
            "qtaccel_health_samples_seen_total",
            "retired samples seen by the health layer",
            self.samples_seen,
        );
        reg.set_gauge(
            "qtaccel_health_states_visited",
            "distinct states visited at probed samples",
            self.visited_count as f64,
        );
        reg.set_gauge(
            "qtaccel_health_state_coverage",
            "fraction of the state space visited at probed samples",
            if self.num_states > 0 {
                self.visited_count as f64 / self.num_states as f64
            } else {
                0.0
            },
        );
    }

    /// Serialize the full probe state (configuration included) as plain
    /// words for the `accel` checkpoint container. The layout is
    /// version-free: [`restore_from_words`](Self::restore_from_words)
    /// validates internal consistency, and the container's CRC + section
    /// length prefix guard the transport.
    pub fn checkpoint_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(14 + self.visited.len() + Histogram::BUCKETS);
        words.push(self.config.stride);
        words.push(self.config.near_rail_bits as u64);
        words.push(self.samples_seen);
        words.push(self.samples_probed);
        words.push(self.churn);
        words.push(self.near_rail_q);
        words.push(self.near_rail_qmax);
        words.push(self.visited_count);
        words.push(self.num_states);
        words.push(self.last_cycle);
        words.push(self.visited.len() as u64);
        words.extend_from_slice(&self.visited);
        words.push(self.td_error.count());
        words.push(self.td_error.sum());
        words.push(self.td_error.max());
        words.extend_from_slice(self.td_error.bucket_counts());
        words
    }

    /// Restore state captured by
    /// [`checkpoint_words`](Self::checkpoint_words), overwriting this
    /// probe entirely (configuration included — resume means resuming
    /// the checkpointed run's sampling plan). All-or-nothing: on any
    /// error the probe is untouched and the reason names the offending
    /// field.
    pub fn restore_from_words(&mut self, words: &[u64]) -> Result<(), String> {
        let mut pos = 0usize;
        let mut next = |what: &'static str| -> Result<u64, String> {
            let w = words
                .get(pos)
                .copied()
                .ok_or_else(|| format!("probe section truncated at {what}"))?;
            pos += 1;
            Ok(w)
        };
        let stride = next("stride")?;
        if stride == 0 {
            return Err("probe stride is zero".into());
        }
        let near_rail_bits = next("near_rail_bits")?;
        if near_rail_bits >= 64 {
            return Err(format!("near_rail_bits {near_rail_bits} out of range"));
        }
        let samples_seen = next("samples_seen")?;
        let samples_probed = next("samples_probed")?;
        let churn = next("churn")?;
        let near_rail_q = next("near_rail_q")?;
        let near_rail_qmax = next("near_rail_qmax")?;
        let visited_count = next("visited_count")?;
        let num_states = next("num_states")?;
        let last_cycle = next("last_cycle")?;
        let nwords = next("visited length")?;
        // Bound the length by the section size before allocating from it.
        if nwords > words.len() as u64 {
            return Err(format!(
                "visited length {nwords} overruns the probe section"
            ));
        }
        let mut visited = Vec::with_capacity(nwords as usize);
        for _ in 0..nwords {
            visited.push(next("visited word")?);
        }
        let td_count = next("td count")?;
        let td_sum = next("td sum")?;
        let td_max = next("td max")?;
        let mut buckets = [0u64; Histogram::BUCKETS];
        for b in buckets.iter_mut() {
            *b = next("td bucket")?;
        }
        if pos != words.len() {
            return Err(format!(
                "probe section has {} trailing words",
                words.len() - pos
            ));
        }
        let popcount: u64 = visited.iter().map(|w| w.count_ones() as u64).sum();
        if popcount != visited_count {
            return Err(format!(
                "visited popcount {popcount} != recorded {visited_count}"
            ));
        }
        let bucket_sum = buckets.iter().try_fold(0u64, |acc, &b| acc.checked_add(b));
        if bucket_sum != Some(td_count) {
            return Err(format!(
                "td bucket sum {bucket_sum:?} != recorded count {td_count}"
            ));
        }
        // The probe's event counters only grow by one per sample: a value
        // past the counter limit is forged and would overflow.
        let counters = [
            samples_seen,
            samples_probed,
            churn,
            near_rail_q,
            near_rail_qmax,
            td_count,
        ];
        if let Some(c) = counters.iter().find(|&&c| c >= COUNTER_LIMIT) {
            return Err(format!("probe counter {c} is past the counter limit"));
        }
        self.config = HealthConfig {
            stride,
            near_rail_bits: near_rail_bits as u32,
        };
        self.samples_seen = samples_seen;
        self.samples_probed = samples_probed;
        self.churn = churn;
        self.near_rail_q = near_rail_q;
        self.near_rail_qmax = near_rail_qmax;
        self.visited = visited;
        self.visited_count = visited_count;
        self.num_states = num_states;
        self.last_cycle = last_cycle;
        self.td_error = Histogram::from_parts(buckets, td_count, td_sum, td_max);
        Ok(())
    }
}

/// The health-probing sink: no event stream, live perf counters, and a
/// carried [`HealthProbe`] the pipelines feed per retired sample.
///
/// Attaching it makes the stall-free fast-path kernel ineligible, so
/// both entry points run the cycle-accurate engine and its probe hook;
/// a [`crate::NullSink`] build is untouched.
#[derive(Debug, Clone)]
pub struct HealthSink {
    probe: HealthProbe,
}

impl HealthSink {
    /// A sink probing at the given configuration.
    pub fn new(config: HealthConfig) -> Self {
        Self {
            probe: HealthProbe::new(config),
        }
    }

    /// The carried probe.
    pub fn probe(&self) -> &HealthProbe {
        &self.probe
    }

    /// Mutable access to the carried probe.
    pub fn probe_mut(&mut self) -> &mut HealthProbe {
        &mut self.probe
    }

    /// Consume the sink and keep the probe.
    pub fn into_probe(self) -> HealthProbe {
        self.probe
    }
}

impl Default for HealthSink {
    fn default() -> Self {
        Self::new(HealthConfig::default())
    }
}

impl TraceSink for HealthSink {
    const EVENTS: bool = false;
    const COUNTERS: bool = true;
    const HEALTH: bool = true;

    #[inline(always)]
    fn record(&mut self, _ev: &Event) {}

    fn health(&self) -> Option<&HealthProbe> {
        Some(&self.probe)
    }

    fn health_mut(&mut self) -> Option<&mut HealthProbe> {
        Some(&mut self.probe)
    }
}

/// Which watchdog rule raised an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogRule {
    /// Windowed TD-error p99 magnitude crossed the log2 threshold.
    Divergence,
    /// Near-rail fraction of probed writes crossed the threshold.
    Saturation,
    /// A mature window retired samples with zero TD movement and zero
    /// policy churn.
    StalledLearning,
    /// Uncorrectable ECC detections advanced during the window.
    ScrubFailure,
}

impl WatchdogRule {
    /// Every rule, in alert-priority order.
    pub const ALL: [WatchdogRule; 4] = [
        WatchdogRule::Divergence,
        WatchdogRule::Saturation,
        WatchdogRule::StalledLearning,
        WatchdogRule::ScrubFailure,
    ];

    /// Stable snake_case name (metric suffix and JSONL discriminator).
    pub fn name(self) -> &'static str {
        match self {
            WatchdogRule::Divergence => "divergence",
            WatchdogRule::Saturation => "saturation",
            WatchdogRule::StalledLearning => "stalled_learning",
            WatchdogRule::ScrubFailure => "scrub_failure",
        }
    }

    fn index(self) -> usize {
        match self {
            WatchdogRule::Divergence => 0,
            WatchdogRule::Saturation => 1,
            WatchdogRule::StalledLearning => 2,
            WatchdogRule::ScrubFailure => 3,
        }
    }

    /// Stable numeric code for binary encodings (the telemetry wire
    /// protocol and span lanes). Codes are part of the wire contract:
    /// they never change meaning, and new rules append.
    pub fn code(self) -> u64 {
        self.index() as u64
    }

    /// Inverse of [`code`](Self::code); `None` for codes this build
    /// does not know (a newer sender — the strict decoder refuses the
    /// frame rather than guessing).
    pub fn from_code(code: u64) -> Option<WatchdogRule> {
        WatchdogRule::ALL.get(code as usize).copied()
    }
}

/// A structured, cycle-stamped watchdog alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// The rule that tripped.
    pub rule: WatchdogRule,
    /// Pipeline cycle of the newest probed sample when it tripped.
    pub cycle: u64,
    /// Retired-sample ordinal when it tripped.
    pub sample: u64,
    /// The windowed quantity the rule measured.
    pub value: f64,
    /// The threshold it crossed.
    pub threshold: f64,
}

impl ToJson for Alert {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rule", Json::Str(self.rule.name().into())),
            ("cycle", Json::UInt(self.cycle)),
            ("sample", Json::UInt(self.sample)),
            ("value", Json::Num(self.value)),
            ("threshold", Json::Num(self.threshold)),
        ])
    }
}

/// Watchdog rule thresholds. Defaults suit the 16-bit Q8.8 format the
/// benches run; recalibrate `divergence_p99_bits` per storage width
/// (healthy Q8.8 TD errors sit well below 2¹³ raw units, while an upset
/// high bit lands updates at 2¹⁴ and above).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Rules only evaluate once a window has this many probed samples;
    /// the window then resets.
    pub min_window_probes: u64,
    /// `divergence` trips when the windowed TD-error p99 lands in log2
    /// bucket ≥ this (i.e. magnitude ≥ `2^(bits−1)` raw units).
    pub divergence_p99_bits: u32,
    /// `saturation` trips when this fraction of the window's probed
    /// writes landed near a rail.
    pub saturation_fraction: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            min_window_probes: 64,
            divergence_p99_bits: 14,
            saturation_fraction: 0.5,
        }
    }
}

/// Cumulative probe marks at the last window boundary.
#[derive(Debug, Clone, Default)]
struct WindowMark {
    td_buckets: Vec<u64>,
    churn: u64,
    near_rail_q: u64,
    near_rail_qmax: u64,
    samples_probed: u64,
    uncorrectable: u64,
}

/// The watchdog rule engine: call [`check`](Watchdog::check) at any
/// cadence; rules evaluate over the probe delta since the last mature
/// window and raise [`Alert`]s (see [`WatchdogRule`]).
#[derive(Debug, Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    mark: WindowMark,
    checks: u64,
    windows: u64,
    alerts: Vec<Alert>,
    trips: [u64; 4],
}

impl Watchdog {
    /// A watchdog with the given thresholds, window starting now.
    pub fn new(config: WatchdogConfig) -> Self {
        assert!(config.min_window_probes > 0, "window must be positive");
        Self {
            config,
            mark: WindowMark::default(),
            checks: 0,
            windows: 0,
            alerts: Vec::new(),
            trips: [0; 4],
        }
    }

    /// The thresholds in force.
    pub fn config(&self) -> WatchdogConfig {
        self.config
    }

    /// Evaluate the rules against `probe`'s state since the last mature
    /// window. `uncorrectable_total` is the cumulative
    /// detected-uncorrectable ECC count from the fault runtime (0 when
    /// no runtime is attached). Returns the alerts raised by *this*
    /// check (also appended to [`alerts`](Self::alerts)); an immature
    /// window (fewer than `min_window_probes` new probed samples) only
    /// evaluates the scrub rule and leaves the window open.
    pub fn check(&mut self, probe: &HealthProbe, uncorrectable_total: u64) -> Vec<Alert> {
        self.checks += 1;
        let mut raised = Vec::new();
        let cycle = probe.last_cycle();
        let sample = probe.samples_seen();

        // Scrub failure is evaluated on every check — an uncorrectable
        // detection is an event, not a trend, and must not wait for a
        // probe window to mature.
        let du = uncorrectable_total.saturating_sub(self.mark.uncorrectable);
        if du > 0 {
            raised.push(Alert {
                rule: WatchdogRule::ScrubFailure,
                cycle,
                sample,
                value: du as f64,
                threshold: 0.0,
            });
            self.mark.uncorrectable = uncorrectable_total;
        }

        let dn = probe.samples_probed() - self.mark.samples_probed;
        if dn >= self.config.min_window_probes {
            let buckets = probe.td_error().bucket_counts();
            let prev = &self.mark.td_buckets;
            let delta_bucket = |i: usize| buckets[i] - prev.get(i).copied().unwrap_or(0);
            let td_n: u64 = (0..Histogram::BUCKETS).map(delta_bucket).sum();

            // Divergence: windowed p99 bucket index.
            if td_n > 0 {
                let rank = ((0.99 * td_n as f64).ceil() as u64).clamp(1, td_n);
                let mut cumulative = 0u64;
                let mut p99_bucket = 0usize;
                for i in 0..Histogram::BUCKETS {
                    cumulative += delta_bucket(i);
                    if cumulative >= rank {
                        p99_bucket = i;
                        break;
                    }
                }
                if p99_bucket as u32 >= self.config.divergence_p99_bits {
                    raised.push(Alert {
                        rule: WatchdogRule::Divergence,
                        cycle,
                        sample,
                        value: p99_bucket as f64,
                        threshold: self.config.divergence_p99_bits as f64,
                    });
                }

                // Stalled learning: every windowed TD error is exactly
                // zero (bucket 0) and the stored policy never flipped.
                let dchurn = probe.churn() - self.mark.churn;
                if delta_bucket(0) == td_n && dchurn == 0 {
                    raised.push(Alert {
                        rule: WatchdogRule::StalledLearning,
                        cycle,
                        sample,
                        value: dn as f64,
                        threshold: self.config.min_window_probes as f64,
                    });
                }
            }

            // Saturation: near-rail fraction of the window's writes.
            let dnear = (probe.near_rail_q() - self.mark.near_rail_q)
                + (probe.near_rail_qmax() - self.mark.near_rail_qmax);
            let frac = dnear as f64 / dn as f64;
            if frac >= self.config.saturation_fraction {
                raised.push(Alert {
                    rule: WatchdogRule::Saturation,
                    cycle,
                    sample,
                    value: frac,
                    threshold: self.config.saturation_fraction,
                });
            }

            // Close the window.
            self.mark.td_buckets = buckets.to_vec();
            self.mark.churn = probe.churn();
            self.mark.near_rail_q = probe.near_rail_q();
            self.mark.near_rail_qmax = probe.near_rail_qmax();
            self.mark.samples_probed = probe.samples_probed();
            self.windows += 1;
        }

        for a in &raised {
            self.trips[a.rule.index()] += 1;
        }
        self.alerts.extend_from_slice(&raised);
        raised
    }

    /// Every alert raised so far, in order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// How many times `rule` has tripped.
    pub fn trip_count(&self, rule: WatchdogRule) -> u64 {
        self.trips[rule.index()]
    }

    /// Total checks run.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Mature windows closed.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Publish trip counters under `qtaccel_health_alerts_<rule>_total`
    /// plus the check/window counters.
    pub fn register_into(&self, reg: &mut MetricsRegistry) {
        for rule in WatchdogRule::ALL {
            reg.set_counter(
                &format!("qtaccel_health_alerts_{}_total", rule.name()),
                &format!("watchdog alerts raised by the {} rule", rule.name()),
                self.trips[rule.index()],
            );
        }
        reg.set_counter(
            "qtaccel_health_watchdog_checks_total",
            "watchdog evaluations run",
            self.checks,
        );
        reg.set_counter(
            "qtaccel_health_watchdog_windows_total",
            "mature probe windows the watchdog closed",
            self.windows,
        );
    }
}

/// One flight-recorder ring entry.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEntry {
    /// A periodic probe snapshot.
    Snapshot(HealthSnapshot),
    /// A watchdog alert.
    Alert(Alert),
    /// A free-form lifecycle marker (`"batch_seal"`, `"panic"`, …).
    Marker {
        /// Pipeline cycle the marker refers to.
        cycle: u64,
        /// What happened.
        label: String,
    },
}

fn entry_json(seq: u64, entry: &FlightEntry) -> Json {
    let (tag, body) = match entry {
        FlightEntry::Snapshot(s) => ("snapshot", s.to_json()),
        FlightEntry::Alert(a) => ("alert", a.to_json()),
        FlightEntry::Marker { cycle, label } => (
            "marker",
            Json::Obj(vec![
                ("cycle", Json::UInt(*cycle)),
                ("label", Json::Str(label.clone())),
            ]),
        ),
    };
    let mut fields = vec![("t", Json::Str(tag.into())), ("seq", Json::UInt(seq))];
    match body {
        Json::Obj(inner) => fields.extend(inner),
        other => fields.push(("body", other)),
    }
    Json::Obj(fields)
}

/// A bounded ring of recent health snapshots, alerts and markers — the
/// post-mortem that survives a crash. Entries carry a monotonic sequence
/// number; when the ring is full the oldest entry is evicted (and
/// counted), so a dump always holds the *newest* history.
///
/// [`dump_jsonl`](Self::dump_jsonl) writes one strict-parseable JSON
/// line per entry (`crate::json::parse` round-trips every line — pinned
/// by tests); [`with_panic_dump`](Self::with_panic_dump) arranges the
/// dump on panic unwind.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    entries: VecDeque<(u64, FlightEntry)>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A ring holding at most `capacity` entries.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight-recorder capacity must be positive");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, entry: FlightEntry) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back((self.next_seq, entry));
        self.next_seq += 1;
    }

    /// Record a probe snapshot.
    pub fn push_snapshot(&mut self, snapshot: HealthSnapshot) {
        self.push(FlightEntry::Snapshot(snapshot));
    }

    /// Record a watchdog alert.
    pub fn push_alert(&mut self, alert: Alert) {
        self.push(FlightEntry::Alert(alert));
    }

    /// Record a lifecycle marker.
    pub fn push_marker(&mut self, cycle: u64, label: &str) {
        self.push(FlightEntry::Marker {
            cycle,
            label: label.to_string(),
        });
    }

    /// Entries currently retained, oldest first, with sequence numbers.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &FlightEntry)> {
        self.entries.iter().map(|(seq, e)| (*seq, e))
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted by ring pressure.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write the retained entries as JSONL, oldest first; returns the
    /// line count. Every line parses with the workspace's strict JSON
    /// parser.
    pub fn dump_jsonl(&self, w: &mut impl Write) -> std::io::Result<u64> {
        for (seq, entry) in &self.entries {
            writeln!(w, "{}", entry_json(*seq, entry).compact())?;
        }
        Ok(self.entries.len() as u64)
    }

    /// [`dump_jsonl`](Self::dump_jsonl) into `path`, replaced through
    /// [`durable::atomic_write`](crate::durable::atomic_write): a crash
    /// mid-dump leaves the previous dump whole.
    pub fn dump_to(&self, path: impl AsRef<Path>) -> std::io::Result<u64> {
        let mut jsonl = Vec::new();
        let lines = self.dump_jsonl(&mut jsonl)?;
        crate::durable::atomic_write(path.as_ref(), &jsonl)?;
        Ok(lines)
    }

    /// Run `f` with a fresh recorder; if `f` panics, the recorder (with
    /// whatever `f` pushed, plus a final `"panic"` marker) is dumped to
    /// `path` before the panic resumes unwinding. The post-mortem file
    /// the crash leaves behind is exactly the ring at the moment of
    /// death.
    pub fn with_panic_dump<R>(
        path: impl AsRef<Path>,
        capacity: usize,
        f: impl FnOnce(&mut FlightRecorder) -> R,
    ) -> R {
        let mut recorder = FlightRecorder::new(capacity);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut recorder))) {
            Ok(r) => r,
            Err(payload) => {
                let cycle = recorder
                    .entries
                    .back()
                    .map(|(_, e)| match e {
                        FlightEntry::Snapshot(s) => s.cycle,
                        FlightEntry::Alert(a) => a.cycle,
                        FlightEntry::Marker { cycle, .. } => *cycle,
                    })
                    .unwrap_or(0);
                recorder.push_marker(cycle, "panic");
                let _ = recorder.dump_to(path);
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn health_sink_flags() {
        const {
            assert!(!HealthSink::EVENTS);
            assert!(HealthSink::COUNTERS);
            assert!(HealthSink::HEALTH);
            assert!(!crate::NullSink::HEALTH);
            assert!(!crate::CountersOnly::HEALTH);
            assert!(!crate::RingSink::HEALTH);
        }
    }

    #[test]
    fn sign_helpers_are_exact_at_16_bits() {
        // Q8.8: rails at -32768 / +32767 raw.
        assert_eq!(rail_distance(0x7FFF, 16), 0, "on the positive rail");
        assert_eq!(rail_distance(0x8000, 16), 0, "on the negative rail");
        assert_eq!(rail_distance(0x7FF0, 16), 15);
        assert_eq!(rail_distance(0, 16), 32767, "zero is mid-format");
        // |(-1) - (+1)| = 2.
        assert_eq!(td_magnitude(1, 0xFFFF, 16), 2);
        // Full-swing difference.
        assert_eq!(td_magnitude(0x8000, 0x7FFF, 16), 65535);
        assert_eq!(td_magnitude(5, 5, 16), 0);
    }

    #[test]
    fn probe_strides_on_the_sample_ordinal() {
        let mut p = HealthProbe::new(HealthConfig {
            stride: 3,
            near_rail_bits: 4,
        });
        p.bind_states(64);
        for i in 0..10u64 {
            p.observe_sample(i * 4, i % 5, 0, 256, 16, false, i % 2 == 0);
        }
        // Ordinals 0, 3, 6, 9 are probed.
        assert_eq!(p.samples_seen(), 10);
        assert_eq!(p.samples_probed(), 4);
        assert_eq!(p.td_error().count(), 4);
        // Flips at even ordinals: 0 and 6 among the probed set.
        assert_eq!(p.churn(), 2);
        // States 0, 3, 1, 4 — all distinct.
        assert_eq!(p.states_visited(), 4);
        assert_eq!(p.last_cycle(), 36);
    }

    #[test]
    fn near_rail_counters_track_written_words() {
        let mut p = HealthProbe::new(HealthConfig {
            stride: 1,
            near_rail_bits: 4,
        });
        // 0x7FF8 is 7 from the +rail: near. Qmax write rides along.
        p.observe_sample(0, 0, 0, 0x7FF8, 16, true, false);
        // 0x4000 is mid-format: not near.
        p.observe_sample(1, 1, 0, 0x4000, 16, true, false);
        assert_eq!(p.near_rail_q(), 1);
        assert_eq!(p.near_rail_qmax(), 1);
    }

    #[test]
    fn probe_checkpoint_words_round_trip_bit_exactly() {
        let mut p = HealthProbe::new(HealthConfig {
            stride: 2,
            near_rail_bits: 5,
        });
        p.bind_states(200);
        for i in 0..37u64 {
            p.observe_sample(i, i % 200, i * 3, i * 7, 16, i % 4 == 0, i % 6 == 0);
        }
        let words = p.checkpoint_words();
        let mut q = HealthProbe::new(HealthConfig::default());
        q.restore_from_words(&words).expect("restores");
        assert_eq!(p, q, "probe state is bit-exact through the word form");
        // And the restored probe continues identically.
        p.observe_sample(100, 3, 9, 9, 16, false, false);
        q.observe_sample(100, 3, 9, 9, 16, false, false);
        assert_eq!(p, q);
    }

    #[test]
    fn probe_restore_rejects_inconsistent_sections() {
        let p = {
            let mut p = HealthProbe::new(HealthConfig::default());
            p.bind_states(64);
            p.observe_sample(0, 1, 0, 50, 16, false, false);
            p
        };
        let mut q = HealthProbe::new(HealthConfig::default());
        let good = p.checkpoint_words();
        // Truncated.
        assert!(q.restore_from_words(&good[..good.len() - 1]).is_err());
        // Corrupt visited popcount.
        let mut bad = good.clone();
        let visited_word = 11; // first visited word (after 10 scalars + len)
        bad[visited_word] ^= 0b100;
        assert!(q.restore_from_words(&bad).unwrap_err().contains("popcount"));
        // Zero stride.
        let mut bad = good.clone();
        bad[0] = 0;
        assert!(q.restore_from_words(&bad).is_err());
        // A forged visited length is refused before anything allocates.
        let mut bad = good.clone();
        bad[visited_word - 1] = u64::MAX;
        assert!(q.restore_from_words(&bad).unwrap_err().contains("overruns"));
        // The probe is untouched by failed restores.
        assert_eq!(q, HealthProbe::new(HealthConfig::default()));
        // The original section still restores.
        assert!(q.restore_from_words(&good).is_ok());
    }

    #[test]
    fn probe_merge_matches_interleaved_observation() {
        let mut a = HealthProbe::new(HealthConfig::default());
        let mut b = HealthProbe::new(HealthConfig::default());
        let mut whole = HealthProbe::new(HealthConfig::default());
        for p in [&mut a, &mut b, &mut whole] {
            p.bind_states(128);
        }
        for i in 0..50u64 {
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.observe_sample(i, i % 128, i, i * 2, 16, false, i % 3 == 0);
            whole.observe_sample(i, i % 128, i, i * 2, 16, false, i % 3 == 0);
        }
        a.merge(&b);
        assert_eq!(a.td_error().count(), whole.td_error().count());
        assert_eq!(a.churn(), whole.churn());
        assert_eq!(a.states_visited(), whole.states_visited());
        assert_eq!(a.samples_probed(), whole.samples_probed());
    }

    fn probe_with_updates(magnitudes: &[u64]) -> HealthProbe {
        let mut p = HealthProbe::new(HealthConfig::default());
        p.bind_states(64);
        for (i, &m) in magnitudes.iter().enumerate() {
            p.observe_sample(i as u64, (i % 64) as u64, 0, m, 32, false, false);
        }
        p
    }

    #[test]
    fn watchdog_divergence_trips_on_windowed_p99() {
        let mut wd = Watchdog::new(WatchdogConfig {
            min_window_probes: 64,
            divergence_p99_bits: 14,
            saturation_fraction: 1.1, // effectively off
        });
        // A healthy window: magnitudes around 2^8.
        let mut p = probe_with_updates(&vec![300; 64]);
        assert!(wd.check(&p, 0).is_empty(), "healthy window");
        // Divergent tail: 5% of the next window at 2^15.
        for i in 0..64u64 {
            let m = if i % 16 == 0 { 1 << 15 } else { 300 };
            p.observe_sample(64 + i, i % 64, 0, m, 32, false, false);
        }
        let raised = wd.check(&p, 0);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].rule, WatchdogRule::Divergence);
        assert!(raised[0].value >= 14.0, "p99 bucket {}", raised[0].value);
        assert_eq!(wd.trip_count(WatchdogRule::Divergence), 1);
        assert_eq!(wd.windows(), 2);
    }

    #[test]
    fn watchdog_ignores_immature_windows() {
        let mut wd = Watchdog::new(WatchdogConfig::default());
        let p = probe_with_updates(&[1 << 20; 10]); // huge but only 10 probes
        assert!(wd.check(&p, 0).is_empty());
        assert_eq!(wd.windows(), 0, "window stays open");
        assert_eq!(wd.checks(), 1);
    }

    #[test]
    fn watchdog_stalled_learning_needs_zero_td_and_zero_churn() {
        let mut wd = Watchdog::new(WatchdogConfig::default());
        let p = probe_with_updates(&vec![0; 100]);
        let raised = wd.check(&p, 0);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].rule, WatchdogRule::StalledLearning);
        // A churning probe with zero TD error is converged-and-dithering,
        // not stalled — and churn requires a qmax write, which moves Q,
        // so in practice zero-TD windows with churn don't arise; pin the
        // rule's churn guard synthetically.
        let mut wd2 = Watchdog::new(WatchdogConfig::default());
        let mut p2 = HealthProbe::new(HealthConfig::default());
        for i in 0..100u64 {
            p2.observe_sample(i, i % 8, 0, 0, 32, true, i == 50);
        }
        assert!(
            wd2.check(&p2, 0).is_empty(),
            "churned window is not stalled"
        );
    }

    #[test]
    fn watchdog_saturation_and_scrub_rules() {
        let mut wd = Watchdog::new(WatchdogConfig {
            min_window_probes: 32,
            divergence_p99_bits: 64, // off (bucket index can't reach 64's threshold at width 16)
            saturation_fraction: 0.5,
        });
        let mut p = HealthProbe::new(HealthConfig {
            stride: 1,
            near_rail_bits: 4,
        });
        // 75% of writes land on the positive rail.
        for i in 0..32u64 {
            let word = if i % 4 == 0 { 0x4000 } else { 0x7FFF };
            p.observe_sample(i, i % 8, 0, word, 16, false, false);
        }
        let raised = wd.check(&p, 0);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].rule, WatchdogRule::Saturation);
        assert!((raised[0].value - 0.75).abs() < 1e-9);

        // Scrub failure fires immediately, even mid-window.
        let raised = wd.check(&p, 3);
        assert_eq!(raised.len(), 1);
        assert_eq!(raised[0].rule, WatchdogRule::ScrubFailure);
        assert_eq!(raised[0].value, 3.0);
        // No double-fire on the same cumulative count.
        assert!(wd.check(&p, 3).is_empty());
        assert_eq!(wd.trip_count(WatchdogRule::ScrubFailure), 1);
    }

    #[test]
    fn flight_recorder_dump_lines_parse_strictly() {
        let mut rec = FlightRecorder::new(8);
        let mut p = probe_with_updates(&[1, 2, 3]);
        rec.push_snapshot(p.snapshot());
        p.observe_sample(10, 5, 0, 99, 32, true, true);
        rec.push_snapshot(p.snapshot());
        rec.push_alert(Alert {
            rule: WatchdogRule::Divergence,
            cycle: 10,
            sample: 4,
            value: 15.0,
            threshold: 14.0,
        });
        rec.push_marker(11, "batch_seal");
        let mut out = Vec::new();
        assert_eq!(rec.dump_jsonl(&mut out).unwrap(), 4);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for (i, line) in lines.iter().enumerate() {
            let parsed = parse(line).expect("strict parse");
            assert_eq!(parsed.get("seq").unwrap().as_u64(), Some(i as u64));
        }
        let alert = parse(lines[2]).unwrap();
        assert_eq!(alert.get("t").unwrap().as_str(), Some("alert"));
        assert_eq!(alert.get("rule").unwrap().as_str(), Some("divergence"));
        let marker = parse(lines[3]).unwrap();
        assert_eq!(marker.get("label").unwrap().as_str(), Some("batch_seal"));
        let snap = parse(lines[1]).unwrap();
        assert_eq!(snap.get("samples_probed").unwrap().as_u64(), Some(4));
        assert!(snap.get("td").unwrap().get("count").is_some());
    }

    #[test]
    fn flight_recorder_ring_keeps_newest() {
        let mut rec = FlightRecorder::new(2);
        for i in 0..5u64 {
            rec.push_marker(i, "m");
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let seqs: Vec<u64> = rec.entries().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn panic_dump_writes_a_parseable_post_mortem() {
        let dir = std::env::temp_dir().join(format!("qtaccel-health-panic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FlightRecorder::with_panic_dump(&path, 16, |rec| {
                rec.push_marker(1, "working");
                rec.push_marker(2, "still working");
                panic!("simulated crash");
            })
        }));
        assert!(result.is_err(), "panic propagates");
        let text = std::fs::read_to_string(&path).expect("dump exists");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "two markers + the panic marker");
        for line in &lines {
            parse(line).expect("post-mortem lines parse strictly");
        }
        let last = parse(lines[2]).unwrap();
        assert_eq!(last.get("label").unwrap().as_str(), Some("panic"));
        assert_eq!(last.get("cycle").unwrap().as_u64(), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `dump_to` and a panicking `with_panic_dump` replace the dump file
    /// instead of rewriting it: a second name (hard link) for the old
    /// dump keeps its bytes, so a crash mid-dump cannot destroy the
    /// previous post-mortem.
    #[test]
    fn flight_dumps_replace_their_file_without_rewriting_it() {
        let dir =
            std::env::temp_dir().join(format!("qtaccel-health-replace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.jsonl");
        let read = |p: &Path| std::fs::read_to_string(p).expect("dump exists");

        let mut rec = FlightRecorder::new(8);
        rec.push_marker(1, "first");
        assert_eq!(rec.dump_to(&path).unwrap(), 1);
        let first = read(&path);
        std::fs::hard_link(&path, dir.join("first.jsonl")).expect("hard link");

        rec.push_marker(2, "second");
        assert_eq!(rec.dump_to(&path).unwrap(), 2);
        assert_eq!(
            read(&dir.join("first.jsonl")),
            first,
            "dump_to rewrote the old dump"
        );
        let second = read(&path);
        assert_eq!(second.lines().count(), 2);
        std::fs::hard_link(&path, dir.join("second.jsonl")).expect("hard link");

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FlightRecorder::with_panic_dump(&path, 16, |rec| {
                rec.push_marker(3, "working");
                panic!("simulated crash");
            })
        }));
        assert!(result.is_err(), "panic propagates");
        assert_eq!(
            read(&dir.join("second.jsonl")),
            second,
            "the panic dump rewrote the old dump"
        );
        let post_mortem = read(&path);
        let labels: Vec<String> = post_mortem
            .lines()
            .map(|line| parse(line).expect("strict parse"))
            .filter_map(|entry| entry.get("label")?.as_str().map(str::to_owned))
            .collect();
        assert_eq!(labels, ["working", "panic"]);
        assert!(
            !dir.join("flight.jsonl.tmp").exists(),
            "staging file left behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_registers_stable_metric_names(// watchdog too
    ) {
        let mut p = probe_with_updates(&[100, 200]);
        p.observe_sample(5, 1, 0, 0x7FFF_FFFF, 32, true, true);
        let mut wd = Watchdog::new(WatchdogConfig::default());
        wd.check(&p, 0);
        let mut reg = MetricsRegistry::new();
        p.register_into(&mut reg);
        wd.register_into(&mut reg);
        for name in [
            "qtaccel_health_td_error_magnitude",
            "qtaccel_health_policy_churn_total",
            "qtaccel_health_near_rail_q_total",
            "qtaccel_health_near_rail_qmax_total",
            "qtaccel_health_samples_probed_total",
            "qtaccel_health_samples_seen_total",
            "qtaccel_health_states_visited",
            "qtaccel_health_state_coverage",
            "qtaccel_health_alerts_divergence_total",
            "qtaccel_health_alerts_saturation_total",
            "qtaccel_health_alerts_stalled_learning_total",
            "qtaccel_health_alerts_scrub_failure_total",
            "qtaccel_health_watchdog_checks_total",
            "qtaccel_health_watchdog_windows_total",
        ] {
            assert!(reg.get(name).is_some(), "missing {name}");
        }
        let text = crate::export::encode_openmetrics(&reg);
        crate::export::check_openmetrics(&text).expect("strict-valid exposition");
    }
}
