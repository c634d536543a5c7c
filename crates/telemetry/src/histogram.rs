//! Log-bucketed latency histograms and the named-metrics registry.
//!
//! The counter bank answers "how many"; this module answers "how long".
//! [`Histogram`] is the hardware-shaped distribution monitor: a
//! power-of-two log-bucketed array of 64-bit counters (a leading-zero
//! count picks the bucket, so the fabric cost is one LZC plus one
//! increment per observation — `qtaccel_hdl::resource::histogram_regfile_report`
//! models it), mergeable across pipeline shards exactly like
//! [`CounterBank::merge`], with deterministic p50/p90/p99/max summaries.
//!
//! [`MetricsRegistry`] is the naming layer above both: a flat list of
//! named counters, gauges and histograms under the stable `qtaccel_*`
//! register-map-style scheme that the OpenMetrics scrape endpoint
//! (the [`Collector`](crate::Collector)) serves. Names are part of the telemetry
//! contract, like counter addresses: they never change meaning, and new
//! metrics append. DESIGN.md §2.10 documents the scheme.

use crate::counters::CounterBank;
use crate::event::Event;
use crate::impl_to_json;
use crate::json::{Json, ToJson};

/// A power-of-two log-bucketed histogram over `u64` observations.
///
/// Bucket 0 holds the value 0; bucket `k` (1 ≤ k ≤ 64) holds values in
/// `[2^(k-1), 2^k - 1]` — the bucket index of a nonzero value is
/// `64 - value.leading_zeros()`, one priority encoder in hardware.
/// `sum` saturates at `u64::MAX` (unreachable for the nanosecond and
/// cycle quantities this crate records).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Number of buckets: one for the value 0 plus one per power of two.
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; Self::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index `value` lands in (0 for 0, else
    /// `64 - leading_zeros`).
    #[inline(always)]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `index` (0, 1, 3, 7, …,
    /// `u64::MAX`).
    pub fn upper_bound(index: usize) -> u64 {
        assert!(index < Self::BUCKETS, "bucket index out of range");
        if index == 0 {
            0
        } else if index == 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Every `(upper_bound, count)` pair in bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| (Self::upper_bound(i), n))
    }

    /// The raw bucket counters in index order — the checkpoint
    /// serialization view (`health` probe state rides in `accel`
    /// checkpoints word-for-word).
    pub fn bucket_counts(&self) -> &[u64; Self::BUCKETS] {
        &self.buckets
    }

    /// Rebuild a histogram from checkpointed raw parts. The caller
    /// asserts consistency (`count` equals the bucket sum, `max` lands
    /// in an occupied bucket); checkpoint restore validates this before
    /// calling and the container CRC guards the words in between.
    pub fn from_parts(buckets: [u64; Self::BUCKETS], count: u64, sum: u64, max: u64) -> Self {
        Self {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// Fold another histogram into this one, bucket by bucket — the
    /// scale-out aggregation primitive, mirroring [`CounterBank::merge`]:
    /// every shard observes into its own histogram lock-free and the
    /// submitter merges after the join. Merging is associative and
    /// commutative (pinned by a property test). Panics if a bucket or the
    /// count would pass `u64::MAX`; [`MetricsRegistry::merge`] refuses
    /// such a histogram instead.
    pub fn merge(&mut self, other: &Histogram) {
        *self = self
            .checked_merge(other)
            .expect("histogram merge overflows u64");
    }

    /// `self ⊕ other`, or `None` if a bucket or the count would pass
    /// `u64::MAX`.
    fn checked_merge(&self, other: &Histogram) -> Option<Histogram> {
        let mut out = self.clone();
        for (b, o) in out.buckets.iter_mut().zip(&other.buckets) {
            *b = b.checked_add(*o)?;
        }
        out.count = out.count.checked_add(other.count)?;
        out.sum = out.sum.saturating_add(other.sum);
        out.max = out.max.max(other.max);
        Some(out)
    }

    /// The `q`-quantile (0 < q ≤ 1) as the inclusive upper bound of the
    /// bucket holding the `ceil(q·count)`-th smallest observation,
    /// clamped to the observed maximum. Deterministic given the bucket
    /// layout; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Self::upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// The fixed percentile summary every report attaches.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Median (see [`Histogram::quantile`] for the rounding rule).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl_to_json!(HistogramSummary {
    count,
    sum,
    max,
    p50,
    p90,
    p99
});

impl ToJson for Histogram {
    /// The summary plus the occupied buckets as `[upper_bound, count]`
    /// pairs (empty buckets are omitted — the le values recover the
    /// layout).
    fn to_json(&self) -> Json {
        let occupied: Vec<Json> = self
            .buckets()
            .filter(|&(_, n)| n > 0)
            .map(|(le, n)| Json::Arr(vec![Json::UInt(le), Json::UInt(n)]))
            .collect();
        let mut fields = match self.summary().to_json() {
            Json::Obj(fields) => fields,
            _ => unreachable!("summary serializes as an object"),
        };
        fields.push(("buckets", Json::Arr(occupied)));
        Json::Obj(fields)
    }
}

/// Distribution of stall-interval lengths in a typed event stream: each
/// `StallBegin`/`StallEnd` pair contributes one observation of
/// `end − begin` stalled cycles. Unterminated intervals (a trace cut
/// mid-stall) are dropped rather than guessed. The sum over a complete
/// trace equals `CycleStats::stalls` — the attribution invariant the
/// metrics tests pin.
pub fn stall_run_lengths<'a, I>(events: I) -> Histogram
where
    I: IntoIterator<Item = &'a Event>,
{
    let mut h = Histogram::new();
    let mut open: Option<u64> = None;
    for ev in events {
        match *ev {
            Event::StallBegin { cycle, .. } => open = Some(cycle),
            Event::StallEnd { cycle } => {
                if let Some(begin) = open.take() {
                    h.observe(cycle.saturating_sub(begin));
                }
            }
            _ => {}
        }
    }
    h
}

/// One named metric's current value.
///
/// The histogram variant is stored inline (a registry holds at most a
/// few dozen metrics, and histograms dominate the interesting ones, so
/// boxing would buy nothing but an indirection on the encode path).
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    /// A monotonic counter (name must end in `_total`).
    Counter(u64),
    /// An instantaneous gauge.
    Gauge(f64),
    /// A latency/size distribution.
    Histogram(Histogram),
    /// An info-style metric: a constant `1` sample whose payload rides
    /// in its labels (the Prometheus `build_info` convention — used for
    /// `qtaccel_build_info` so every scrape is provenance-attributable).
    Info(Vec<(String, String)>),
}

#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    help: String,
    value: MetricValue,
}

/// A flat registry of named counters, gauges and histograms — the
/// snapshot the OpenMetrics scrape endpoint encodes.
///
/// Naming is register-map-style and enforced on registration: every
/// metric name starts with `qtaccel_`, uses only `[a-z0-9_]`, and
/// counters end in `_total` (the OpenMetrics counter-sample convention).
/// Registration order is presentation order, like counter addresses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

/// Whether `s` is non-empty snake_case ASCII (`[a-z0-9_]+`): the rule for
/// metric names and info label keys, shared with the wire decoder.
pub(crate) fn snake_case(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

fn validate_name(name: &str, is_counter: bool) {
    assert!(
        name.starts_with("qtaccel_"),
        "metric `{name}` must use the qtaccel_* naming scheme"
    );
    assert!(snake_case(name), "metric `{name}` must be snake_case ascii");
    if is_counter {
        assert!(
            name.ends_with("_total"),
            "counter `{name}` must end in _total"
        );
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Every `(name, help, value)` triple in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &MetricValue)> {
        self.metrics
            .iter()
            .map(|m| (m.name.as_str(), m.help.as_str(), &m.value))
    }

    /// The current value of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    fn upsert(&mut self, name: &str, help: &str, value: MetricValue) -> &mut MetricValue {
        validate_name(name, matches!(value, MetricValue::Counter(_)));
        if let Some(i) = self.metrics.iter().position(|m| m.name == name) {
            return &mut self.metrics[i].value;
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value,
        });
        &mut self.metrics.last_mut().expect("just pushed").value
    }

    /// Set counter `name` to the snapshot value `v` (registering it on
    /// first use).
    pub fn set_counter(&mut self, name: &str, help: &str, v: u64) {
        let slot = self.upsert(name, help, MetricValue::Counter(v));
        *slot = MetricValue::Counter(v);
    }

    /// Add `delta` to counter `name` (registering it at zero first).
    pub fn add_counter(&mut self, name: &str, help: &str, delta: u64) {
        match self.upsert(name, help, MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Set gauge `name` to `v` (registering it on first use).
    pub fn set_gauge(&mut self, name: &str, help: &str, v: f64) {
        let slot = self.upsert(name, help, MetricValue::Gauge(v));
        *slot = MetricValue::Gauge(v);
    }

    /// Record one observation into histogram `name` (registering it on
    /// first use).
    pub fn observe(&mut self, name: &str, help: &str, value: u64) {
        match self.upsert(name, help, MetricValue::Histogram(Histogram::new())) {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    /// Replace histogram `name` with the snapshot `h` (registering it on
    /// first use) — the idiom for publishing a shard-merged histogram.
    pub fn set_histogram(&mut self, name: &str, help: &str, h: &Histogram) {
        let slot = self.upsert(name, help, MetricValue::Histogram(h.clone()));
        *slot = MetricValue::Histogram(h.clone());
    }

    /// Set info metric `name` to the given label pairs (registering it
    /// on first use). Label keys follow the metric-name character rules;
    /// values are free-form (the encoder escapes them).
    pub fn set_info(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) {
        for (k, _) in labels {
            assert!(
                snake_case(k),
                "info label key `{k}` must be snake_case ascii"
            );
        }
        let owned: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let slot = self.upsert(name, help, MetricValue::Info(owned.clone()));
        *slot = MetricValue::Info(owned);
    }

    /// Publish a [`CounterBank`] snapshot: one `qtaccel_*_total` counter
    /// per register, named by [`crate::CounterId::metric_name`].
    pub fn record_counter_bank(&mut self, bank: &CounterBank) {
        for (id, value) in bank.iter() {
            self.set_counter(
                id.metric_name(),
                &format!("perf-counter register {}: {}", id.addr(), id.name()),
                value,
            );
        }
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// other's value, histograms merge. Metrics unique to either side are
    /// kept. All or nothing: if a metric changes kind, or a counter,
    /// histogram bucket or histogram count would pass `u64::MAX`, nothing
    /// is applied and the error names the metric.
    pub fn merge(&mut self, other: &MetricsRegistry) -> Result<(), MergeError> {
        let mut merged = self.clone();
        for m in &other.metrics {
            // Seed absent metrics with a neutral element so the fold
            // below applies exactly once.
            let neutral = match &m.value {
                MetricValue::Counter(_) => MetricValue::Counter(0),
                MetricValue::Gauge(v) => MetricValue::Gauge(*v),
                MetricValue::Histogram(_) => MetricValue::Histogram(Histogram::new()),
                MetricValue::Info(labels) => MetricValue::Info(labels.clone()),
            };
            let overflow = || MergeError::Overflow(m.name.clone());
            match (&m.value, merged.upsert(&m.name, &m.help, neutral)) {
                (MetricValue::Counter(v), MetricValue::Counter(mine)) => {
                    *mine = mine.checked_add(*v).ok_or_else(overflow)?;
                }
                (MetricValue::Gauge(v), MetricValue::Gauge(mine)) => *mine = *v,
                (MetricValue::Histogram(h), MetricValue::Histogram(mine)) => {
                    *mine = mine.checked_merge(h).ok_or_else(overflow)?;
                }
                (MetricValue::Info(labels), MetricValue::Info(mine)) => {
                    mine.clone_from(labels);
                }
                _ => return Err(MergeError::KindMismatch(m.name.clone())),
            }
        }
        *self = merged;
        Ok(())
    }
}

/// Why [`MetricsRegistry::merge`] refused a registry. Each variant names
/// the offending metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The metric is registered under another kind.
    KindMismatch(String),
    /// A counter, histogram bucket or histogram count would pass
    /// `u64::MAX`.
    Overflow(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::KindMismatch(name) => write!(f, "metric `{name}` changed kind"),
            MergeError::Overflow(name) => write!(f, "metric `{name}` would overflow u64"),
        }
    }
}

impl std::error::Error for MergeError {}

impl ToJson for MetricsRegistry {
    /// An array of `{name, value}` records in registration order
    /// (object keys in this emitter are static, so dynamic metric names
    /// ride in a `name` field; histograms emit their summary + occupied
    /// buckets).
    fn to_json(&self) -> Json {
        Json::Arr(
            self.metrics
                .iter()
                .map(|m| {
                    let v = match &m.value {
                        MetricValue::Counter(v) => Json::UInt(*v),
                        MetricValue::Gauge(v) => Json::Num(*v),
                        MetricValue::Histogram(h) => h.to_json(),
                        MetricValue::Info(labels) => Json::Arr(
                            labels
                                .iter()
                                .map(|(k, v)| {
                                    Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())])
                                })
                                .collect(),
                        ),
                    };
                    Json::Obj(vec![("name", Json::Str(m.name.clone())), ("value", v)])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CounterId;
    use crate::event::MemKind;
    use crate::json::parse;

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        for k in 1..64usize {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(Histogram::bucket_index(lo), k, "2^{}", k - 1);
            assert_eq!(Histogram::bucket_index(hi), k, "2^{k}-1");
            assert_eq!(Histogram::bucket_index(1u64 << k), k + 1, "2^{k}");
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::upper_bound(0), 0);
        assert_eq!(Histogram::upper_bound(1), 1);
        assert_eq!(Histogram::upper_bound(3), 7);
        assert_eq!(Histogram::upper_bound(64), u64::MAX);
    }

    #[test]
    fn observe_tracks_count_sum_max() {
        let mut h = Histogram::new();
        for v in [0, 1, (1 << 10) - 1, 1 << 10, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        // Every boundary value landed in its own bucket.
        assert_eq!(h.buckets().filter(|&(_, n)| n > 0).count(), 5);
    }

    #[test]
    fn quantiles_pin_on_known_distribution() {
        // 1..=1000, each once: p50 resolves to the bucket holding the
        // 500th value (≤ 511), p90/p99 to the top bucket clamped to max.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        assert_eq!(s.p50, 511);
        assert_eq!(s.p90, 1000);
        assert_eq!(s.p99, 1000);
        // A one-sided distribution: all-zero observations quantile to 0.
        let mut z = Histogram::new();
        for _ in 0..10 {
            z.observe(0);
        }
        assert_eq!(z.quantile(0.99), 0);
        assert_eq!(Histogram::new().quantile(0.5), 0, "empty histogram");
    }

    /// Tiny deterministic generator for the merge property test.
    fn xorshift_values(mut seed: u64, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed
            })
            .collect()
    }

    #[test]
    fn merge_is_associative_and_matches_concatenation() {
        let streams: Vec<Vec<u64>> = (1..=3).map(|s| xorshift_values(s, 257)).collect();
        let hist = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let [a, b, c] = [hist(&streams[0]), hist(&streams[1]), hist(&streams[2])];
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut right_tail = b.clone();
        right_tail.merge(&c);
        let mut right = a.clone();
        right.merge(&right_tail);
        assert_eq!(left, right);
        // b ⊕ a == a ⊕ b (commutative)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // ⊕ over all three == observing the concatenated stream.
        let all: Vec<u64> = streams.concat();
        assert_eq!(left, hist(&all));
        // Identity.
        let mut id = a.clone();
        id.merge(&Histogram::new());
        assert_eq!(id, a);
    }

    #[test]
    fn histogram_json_round_trips() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 900] {
            h.observe(v);
        }
        let p = parse(&h.to_json().pretty()).unwrap();
        assert_eq!(p.get("count").unwrap().as_u64(), Some(3));
        assert_eq!(p.get("max").unwrap().as_u64(), Some(900));
        let buckets = p.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 2, "only occupied buckets emitted");
        assert_eq!(buckets[0].as_arr().unwrap()[0].as_u64(), Some(3));
        assert_eq!(buckets[0].as_arr().unwrap()[1].as_u64(), Some(2));
    }

    #[test]
    fn stall_run_lengths_pair_begin_end() {
        let events = [
            Event::StallBegin {
                cycle: 10,
                mem: MemKind::Q,
                addr: 1,
            },
            Event::Commit {
                cycle: 11,
                mem: MemKind::Q,
                addr: 1,
            },
            Event::StallEnd { cycle: 13 },
            Event::StallBegin {
                cycle: 20,
                mem: MemKind::Qmax,
                addr: 2,
            },
            Event::StallEnd { cycle: 21 },
            // Unterminated interval: dropped.
            Event::StallBegin {
                cycle: 30,
                mem: MemKind::Q,
                addr: 3,
            },
        ];
        let h = stall_run_lengths(events.iter());
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 3 + 1);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn registry_upserts_and_merges() {
        let mut r = MetricsRegistry::new();
        r.add_counter("qtaccel_samples_total", "samples", 5);
        r.add_counter("qtaccel_samples_total", "samples", 2);
        r.set_gauge("qtaccel_executor_queue_depth", "depth", 3.0);
        r.observe("qtaccel_executor_chunk_service_ns", "svc", 100);
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.get("qtaccel_samples_total"),
            Some(&MetricValue::Counter(7))
        );

        let mut other = MetricsRegistry::new();
        other.add_counter("qtaccel_samples_total", "samples", 10);
        other.set_gauge("qtaccel_executor_queue_depth", "depth", 9.0);
        other.observe("qtaccel_executor_chunk_service_ns", "svc", 200);
        other.set_counter("qtaccel_lfsr_draws_total", "draws", 1);
        r.merge(&other).expect("kinds match and nothing overflows");
        assert_eq!(
            r.get("qtaccel_samples_total"),
            Some(&MetricValue::Counter(17))
        );
        assert_eq!(
            r.get("qtaccel_executor_queue_depth"),
            Some(&MetricValue::Gauge(9.0))
        );
        match r.get("qtaccel_executor_chunk_service_ns") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn an_overflowing_merge_applies_nothing() {
        let mut r = MetricsRegistry::new();
        r.set_counter("qtaccel_samples_total", "samples", u64::MAX - 5);
        r.observe("qtaccel_executor_chunk_service_ns", "svc", 7);
        let before = r.clone();

        // The counter fits and comes first; the one after it overflows.
        let mut counter = MetricsRegistry::new();
        counter.set_counter("qtaccel_lfsr_draws_total", "draws", 3);
        counter.set_counter("qtaccel_samples_total", "samples", 10);
        assert_eq!(
            r.merge(&counter),
            Err(MergeError::Overflow("qtaccel_samples_total".into()))
        );
        assert_eq!(r, before, "a refused merge changes nothing");

        // A histogram whose bucket and count would pass u64::MAX.
        let mut full = Histogram::new();
        full.buckets[Histogram::bucket_index(7)] = u64::MAX;
        full.count = u64::MAX;
        let mut hist = MetricsRegistry::new();
        hist.set_histogram("qtaccel_executor_chunk_service_ns", "svc", &full);
        assert_eq!(
            r.merge(&hist),
            Err(MergeError::Overflow(
                "qtaccel_executor_chunk_service_ns".into()
            ))
        );
        assert_eq!(r, before);

        // Up to the limit still merges.
        let mut fits = MetricsRegistry::new();
        fits.set_counter("qtaccel_samples_total", "samples", 5);
        r.merge(&fits).expect("u64::MAX itself fits");
        assert_eq!(
            r.get("qtaccel_samples_total"),
            Some(&MetricValue::Counter(u64::MAX))
        );
    }

    #[test]
    fn a_kind_mismatched_merge_applies_nothing() {
        let mut r = MetricsRegistry::new();
        r.set_counter("qtaccel_samples_total", "samples", 4);
        r.set_counter("qtaccel_lease_completions_total", "leases", 1);
        let before = r.clone();
        let mut delta = MetricsRegistry::new();
        delta.set_counter("qtaccel_samples_total", "samples", 6);
        delta.set_gauge("qtaccel_lease_completions_total", "leases", 1.0);
        assert_eq!(
            r.merge(&delta),
            Err(MergeError::KindMismatch(
                "qtaccel_lease_completions_total".into()
            ))
        );
        assert_eq!(r, before, "the counter before the mismatch did not apply");
        assert!(MergeError::KindMismatch("x".into())
            .to_string()
            .contains("changed kind"));
    }

    #[test]
    fn registry_publishes_counter_bank_under_stable_names() {
        let mut bank = CounterBank::new();
        bank.add(CounterId::SamplesRetired, 42);
        bank.add(CounterId::LfsrDraws, 7);
        let mut r = MetricsRegistry::new();
        r.record_counter_bank(&bank);
        assert_eq!(r.len(), CounterId::COUNT);
        assert_eq!(
            r.get("qtaccel_samples_total"),
            Some(&MetricValue::Counter(42))
        );
        assert_eq!(
            r.get("qtaccel_lfsr_draws_total"),
            Some(&MetricValue::Counter(7))
        );
    }

    #[test]
    #[should_panic(expected = "qtaccel_* naming scheme")]
    fn registry_rejects_foreign_names() {
        MetricsRegistry::new().set_gauge("other_metric", "nope", 1.0);
    }

    #[test]
    #[should_panic(expected = "must end in _total")]
    fn registry_rejects_counters_without_total_suffix() {
        MetricsRegistry::new().set_counter("qtaccel_samples", "nope", 1);
    }
}
