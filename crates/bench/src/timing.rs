//! Minimal wall-clock measurement harness — the dependency-free
//! stand-in for criterion used by the bench binaries. Fixed warm-up,
//! median-of-runs reporting.

use std::time::Instant;

/// One timed benchmark: the median over `runs` timed invocations.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark label.
    pub name: String,
    /// Median wall-clock seconds per invocation of the closure.
    pub median_secs: f64,
    /// Elements processed per closure invocation.
    pub elements_per_iter: u64,
}

impl BenchResult {
    /// Median nanoseconds per element.
    pub fn ns_per_element(&self) -> f64 {
        self.median_secs * 1e9 / self.elements_per_iter as f64
    }

    /// Median elements per host second.
    pub fn elements_per_sec(&self) -> f64 {
        self.elements_per_iter as f64 / self.median_secs
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<40} {:>10.1} ns/elem {:>12} elem/s",
            self.name,
            self.ns_per_element(),
            crate::report::fmt_rate(self.elements_per_sec()),
        )
    }
}

/// Time `iter` (which processes `elements_per_iter` elements per call):
/// one untimed warm-up call, then the median of `runs` timed calls.
pub fn bench<F: FnMut()>(
    name: &str,
    elements_per_iter: u64,
    runs: usize,
    mut iter: F,
) -> BenchResult {
    assert!(runs > 0, "need at least one timed run");
    iter();
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        iter();
        samples.push(t.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    BenchResult {
        name: name.to_string(),
        median_secs: samples[samples.len() / 2].max(1e-12),
        elements_per_iter,
    }
}

/// Measure the host's sustainable stream bandwidth in bytes/second with
/// a STREAM-style triad (`a[i] = b[i] + 3·c[i]` over `f64` arrays):
/// three arrays of `elements` doubles each — size them well past the
/// last-level cache so the loop is memory-bound — moving 3×8 bytes per
/// element (two loaded, one stored, ignoring write-allocate traffic, as
/// STREAM does). Reports the **best** of `runs` passes: the roofline
/// wants the machine's capability, not a load-dependent median.
///
/// This is the denominator of the `bench_throughput` roofline section
/// (DESIGN.md §2.12): per-row achieved bytes/sec divided by this number
/// gives percent-of-roof.
pub fn stream_triad_bytes_per_sec(elements: usize, runs: usize) -> f64 {
    assert!(runs > 0, "need at least one timed run");
    assert!(elements > 0, "need a non-empty array");
    let b = vec![1.0f64; elements];
    let c = vec![2.0f64; elements];
    let mut a = vec![0.0f64; elements];
    const SCALAR: f64 = 3.0;
    // One untimed pass to fault the pages in.
    for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
        *ai = *bi + SCALAR * *ci;
    }
    std::hint::black_box(&a);
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = *bi + SCALAR * *ci;
        }
        std::hint::black_box(&a);
        let dt = t.elapsed().as_secs_f64().max(1e-12);
        best = best.min(dt);
    }
    (elements as f64 * 3.0 * 8.0) / best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_rates_are_sane() {
        let mut acc = 0u64;
        let r = bench("noop", 1_000, 3, || {
            for i in 0..1_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
        });
        assert!(r.median_secs > 0.0);
        assert!(r.elements_per_sec() > 0.0);
        assert!(r.summary().contains("noop"));
        assert!(acc > 0);
    }

    #[test]
    #[should_panic(expected = "at least one timed run")]
    fn zero_runs_rejected() {
        bench("x", 1, 0, || {});
    }

    #[test]
    fn triad_reports_positive_finite_bandwidth() {
        // Tiny arrays keep the unit test fast; the probe still has to
        // report a physically plausible (positive, finite) rate.
        let bw = stream_triad_bytes_per_sec(1 << 12, 2);
        assert!(bw.is_finite() && bw > 0.0, "triad bandwidth {bw} not sane");
    }

    #[test]
    #[should_panic(expected = "non-empty array")]
    fn triad_rejects_empty_arrays() {
        stream_triad_bytes_per_sec(0, 1);
    }
}
