//! The metric registry, the measured-value types, and the statistics every
//! metric is computed with.
//!
//! Every metric the benchmark can print is declared once here, with its
//! unit and direction; `BENCHMARK.json` at the repository root mirrors
//! this table (a test keeps the two in step).

use qtaccel_telemetry::json::{Json, Parsed};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark can report. `README.md` maps each per-layer
/// metric to its layer and to the end-to-end metric it should move.
#[derive(Debug, PartialEq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Bounded end-to-end metrics only: the share of the baseline value
    /// by which the metric may worsen before a change counts as a
    /// regression.
    pub bound: Option<f64>,
}

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: Option<f64>) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    metric(name, unit, better, None)
}

use Better::{Higher, Lower};

/// End-to-end metrics with a regression bound, measured with tracing
/// off. `samples_per_s` divides a rep's samples by the fastest rep's wall
/// time, and `setup_s` is the run's fastest fresh set-up: interference
/// only ever adds time, and on a shared host the fastest moves least
/// between runs (`README.md`, "Estimators and bounds", has the
/// measurements).
pub const E2E: [Def; 3] = [
    metric("samples_per_s", "samples/s", Higher, Some(0.25)),
    metric("setup_s", "s", Lower, Some(0.25)),
    metric("peak_rss_mb", "MB", Lower, Some(0.10)),
];

/// End-to-end latency percentiles over every op of a set's runs,
/// reported beside [`E2E`] without a bound. "op" is the unit of work a
/// caller waits on: one training call in-process, one lease (epoch bump
/// to merged `LeaseDone`) on the cluster.
pub const UNBOUNDED: [Def; 2] = [
    metric("op_ms_p50", "ms", Lower, None),
    metric("op_ms_p90", "ms", Lower, None),
];

/// Per-layer metrics, measured by the `--trace` run.
pub const LAYER: [Def; 30] = [
    layer("envs.build_ms", "ms", Lower),
    layer("pipeline.new_ms", "ms", Lower),
    layer("pipeline.image_build_ms", "ms", Lower),
    layer("pipeline.fast_ns_per_sample", "ns", Lower),
    layer("pipeline.cycle_ns_per_sample", "ns", Lower),
    layer("pipeline.bytes_per_sample", "B", Lower),
    layer("pipeline.pct_of_triad", "%", Higher),
    layer("executor.chunks", "count", Lower),
    layer("executor.chunk_ms_mean", "ms", Lower),
    layer("executor.queue_wait_ms_mean", "ms", Lower),
    layer("executor.busy_share", "share", Higher),
    layer("executor.queue_depth_peak", "count", Lower),
    layer("checkpoint.bytes", "B", Lower),
    layer("checkpoint.encode_ms", "ms", Lower),
    layer("checkpoint.encode_mb_per_s", "MB/s", Higher),
    layer("checkpoint.write_fsync_ms", "ms", Lower),
    layer("checkpoint.restore_ms", "ms", Lower),
    layer("wire.lease_encode_ns", "ns", Lower),
    layer("wire.lease_decode_ns", "ns", Lower),
    layer("wire.progress_encode_ns", "ns", Lower),
    layer("wire.progress_decode_ns", "ns", Lower),
    layer("wire.lease_done_encode_ns", "ns", Lower),
    layer("wire.lease_done_decode_ns", "ns", Lower),
    layer("cluster.spawn_to_connect_ms", "ms", Lower),
    layer("cluster.assign_to_progress_ms", "ms", Lower),
    layer("cluster.progress_to_done_ms", "ms", Lower),
    layer("cluster.lease_unexplained_ms", "ms", Lower),
    layer("cluster.idle_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("budget.residual_share", "share", Lower),
];

fn registry() -> impl Iterator<Item = &'static Def> {
    E2E.iter().chain(&UNBOUNDED).chain(&LAYER)
}

/// Look a metric up by name in every table.
pub fn def(name: &str) -> Option<&'static Def> {
    registry().find(|d| d.name == name)
}

fn position(def: &Def) -> Option<usize> {
    registry().position(|d| d.name == def.name)
}

/// One run's value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, value: f64) -> Self {
        Self {
            def: def(name).unwrap_or_else(|| panic!("metric `{name}` is not in the registry")),
            value,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name", Json::Str(self.def.name.into())),
            ("value", Json::Num(self.value)),
        ])
    }

    pub fn from_parsed(p: &Parsed) -> Result<Self, String> {
        let name = p
            .get("name")
            .and_then(Parsed::as_str)
            .ok_or("metric without a name")?;
        Ok(Self {
            def: def(name).ok_or_else(|| format!("unknown metric `{name}`"))?,
            value: p
                .get("value")
                .and_then(Parsed::as_f64)
                .ok_or_else(|| format!("metric `{name}` lacks a numeric value"))?,
        })
    }
}

/// Put metrics in registry order, the order `BENCHMARK.json` lists them.
pub fn sort(metrics: &mut [Metric]) {
    metrics.sort_by_key(|m| position(m.def));
}

/// A metric over the runs of a set: the median of the runs' values and,
/// from two runs on, their quartiles, the between-run spread `--compare`
/// judges against the bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub def: &'static Def,
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
    /// Values summarised: runs, or for the op latencies the ops pooled
    /// over every run.
    pub n: usize,
}

impl Summary {
    /// The median of the runs' values and their quartiles.
    pub fn of_runs(def: &'static Def, values: &[f64]) -> Self {
        let sorted = ascending(values);
        Self {
            def,
            value: median(&sorted),
            quartiles: (sorted.len() >= 2).then(|| quartiles(&sorted)),
            n: sorted.len(),
        }
    }

    /// Interquartile distance as a share of the median; `None` without
    /// quartiles.
    pub fn spread(&self) -> Option<f64> {
        let (q1, q3) = self.quartiles?;
        Some(if self.value == 0.0 {
            0.0
        } else {
            (q3 - q1).abs() / self.value.abs()
        })
    }
}

/// A sorted copy.
pub fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `pct`-th percentile of an ascending slice (0 when empty,
/// which only a run whose every rep failed produces).
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = (n * pct).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// The median of an ascending slice, the mean of the middle two for an
/// even count.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles of an ascending slice of at least two
/// values, as Python's `statistics.quantiles(values, n=4)` (its default,
/// exclusive method) gives them.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len() as i64;
    assert!(len >= 2, "quartiles need two values");
    let q = |i: i64| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The 10th-percentile duration of repeated timings of the same work: the
/// host's speed in its quiet stretches, read by the layer probes.
pub fn quiet(durations: &[f64]) -> f64 {
    percentile(&ascending(durations), 10)
}

/// A tail percentile is reported only from samples that leave at least
/// this many above it.
pub const TAIL_BEYOND: usize = 10;

/// Samples strictly above the nearest-rank `pct`-th percentile of `n`.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - (n * pct).div_ceil(100)
}

/// The fewest samples for which the `pct`-th percentile keeps
/// [`TAIL_BEYOND`] samples beyond it.
pub fn min_samples(pct: usize) -> usize {
    (TAIL_BEYOND..)
        .find(|&n| beyond(n, pct) >= TAIL_BEYOND)
        .expect("a percentile below 100 always has a finite sample floor")
}

/// The splitmix64 step, the mixer of the host calibration chain.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_use_the_allowed_alphabet() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<&Def> = registry().collect();
        for d in &all {
            assert!(name_ok(d.name), "bad metric name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} of {}", d.unit, d.name);
        }
        for (i, a) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|b| b.name != a.name),
                "{} declared twice",
                a.name
            );
        }
        assert!(E2E
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn setup_time_carries_the_largest_bound() {
        let setup = def("setup_s")
            .and_then(|d| d.bound)
            .expect("setup_s is an e2e metric");
        assert!(E2E.iter().all(|d| d.bound.expect("e2e bound") <= setup));
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        for pct in [50, 75, 90, 95, 99] {
            let floor = min_samples(pct);
            assert!(beyond(floor, pct) >= TAIL_BEYOND, "p{pct} at n={floor}");
            assert!(
                beyond(floor - 1, pct) < TAIL_BEYOND,
                "p{pct}: floor {floor} is not the least"
            );
            for n in floor..floor + 500 {
                assert!(beyond(n, pct) >= TAIL_BEYOND, "p{pct} at n={n}");
            }
        }
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(50), 20);
        // The value at p90 of 100 samples has exactly 10 samples above it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);

        let one = Summary::of_runs(&E2E[0], &[4.0]);
        assert_eq!((one.value, one.spread(), one.n), (4.0, None, 1));
        let three = Summary::of_runs(&E2E[0], &[9.0, 10.0, 11.0]);
        assert_eq!(three.value, 10.0);
        assert_eq!(three.spread(), Some(0.2));
    }
}
