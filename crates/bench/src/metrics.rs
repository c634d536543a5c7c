//! The benches' latency probe: one instrumented batch + one stall probe.
//!
//! Both bench binaries attach the same distribution evidence next to
//! their counter dumps (ISSUE: "turns every future perf PR's 'faster'
//! claim into a percentile-backed artifact"): chunk-service-time and
//! queue-wait histograms from an instrumented [`ShardedExecutor`], and
//! the stall-run-length histogram from a cycle-accurate StallOnly run.
//! [`measure_latency`] runs the probe; [`LatencyReport`] serializes it
//! and can publish itself into a [`MetricsRegistry`] for the
//! `--metrics-addr` scrape endpoint.

use crate::grids::paper_grid;
use qtaccel_accel::executor::ShardedExecutor;
use qtaccel_accel::{AccelConfig, HazardMode, IndependentPipelines, QLearningAccel};
use qtaccel_fixed::{QValue, Q8_8};
use qtaccel_telemetry::{
    stall_run_lengths, CounterBank, CountersOnly, HealthConfig, HealthProbe, HealthSink, Histogram,
    Json, MetricsRegistry, RingSink, SpanTracer, ToJson, TraceSink, Watchdog, WatchdogConfig,
};
use std::sync::Arc;

/// Grid actions used throughout the benches.
const ACTIONS: usize = 4;

/// Distribution evidence for one bench run (see module docs).
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// Wall-clock nanoseconds per executor chunk.
    pub chunk_service: Histogram,
    /// Nanoseconds chunks waited in the work queue.
    pub queue_wait: Histogram,
    /// Consecutive stalled cycles per stall interval (StallOnly probe).
    pub stall_runs: Histogram,
    /// Deepest the work queue got during the batch.
    pub queue_depth_peak: u64,
    /// Total worker busy nanoseconds.
    pub worker_busy_ns: u64,
    /// Total worker idle nanoseconds.
    pub worker_idle_ns: u64,
    /// Chunks the batch executed.
    pub chunks: u64,
    /// Workers in the probe pool.
    pub workers: usize,
    /// Iterations the stall probe's bounded ring sink evicted — nonzero
    /// flags that the retained event trace is *not* the complete run.
    pub dropped_iterations: u64,
    /// Spans the probe batch recorded into its tracer ring.
    pub spans: u64,
    /// Spans the tracer's bounded ring evicted — nonzero flags that the
    /// retained span tree is *not* the complete batch (the span-side
    /// twin of `dropped_iterations`).
    pub dropped_spans: u64,
    /// Merged perf-counter snapshot of the instrumented batch.
    pub counters: CounterBank,
}

impl LatencyReport {
    /// The JSON block both benches embed (histogram *summaries*, not
    /// full bucket arrays — reports stay human-sized).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workers", Json::UInt(self.workers as u64)),
            ("chunks", Json::UInt(self.chunks)),
            ("queue_depth_peak", Json::UInt(self.queue_depth_peak)),
            ("worker_busy_ns", Json::UInt(self.worker_busy_ns)),
            ("worker_idle_ns", Json::UInt(self.worker_idle_ns)),
            ("dropped_iterations", Json::UInt(self.dropped_iterations)),
            ("spans", Json::UInt(self.spans)),
            ("dropped_spans", Json::UInt(self.dropped_spans)),
            ("chunk_service_ns", self.chunk_service.summary().to_json()),
            ("queue_wait_ns", self.queue_wait.summary().to_json()),
            ("stall_run_cycles", self.stall_runs.summary().to_json()),
        ])
    }

    /// Publish the probe into a registry under the DESIGN.md §2.10
    /// names (counter bank + the three histogram families the scrape
    /// acceptance check looks for).
    pub fn register_into(&self, registry: &mut MetricsRegistry) {
        registry.record_counter_bank(&self.counters);
        registry.set_gauge(
            "qtaccel_executor_workers",
            "persistent workers in the sharded executor pool",
            self.workers as f64,
        );
        registry.set_counter(
            "qtaccel_executor_busy_ns_total",
            "nanoseconds workers spent executing chunks, summed across workers",
            self.worker_busy_ns,
        );
        registry.set_counter(
            "qtaccel_executor_idle_ns_total",
            "nanoseconds workers spent parked or waiting, summed across workers",
            self.worker_idle_ns,
        );
        registry.set_counter(
            "qtaccel_executor_chunks_total",
            "shard chunks executed by the pool",
            self.chunks,
        );
        registry.set_gauge(
            "qtaccel_executor_queue_depth",
            "work-queue depth sampled at the most recent chunk pop",
            0.0,
        );
        registry.set_gauge(
            "qtaccel_executor_queue_depth_peak",
            "deepest the work queue has been",
            self.queue_depth_peak as f64,
        );
        registry.set_counter(
            "qtaccel_trace_dropped_iterations_total",
            "iterations evicted from bounded trace sinks (truncated-trace flag)",
            self.dropped_iterations,
        );
        registry.set_counter(
            "qtaccel_trace_spans_total",
            "structured spans recorded by the batch span tracer",
            self.spans,
        );
        registry.set_counter(
            "qtaccel_trace_dropped_spans_total",
            "spans evicted from the tracer's bounded ring (truncated-trace flag)",
            self.dropped_spans,
        );
        registry.set_histogram(
            "qtaccel_executor_chunk_service_ns",
            "wall-clock nanoseconds one chunk execution took",
            &self.chunk_service,
        );
        registry.set_histogram(
            "qtaccel_executor_queue_wait_ns",
            "nanoseconds chunks sat queued before a worker picked them up",
            &self.queue_wait,
        );
        registry.set_histogram(
            "qtaccel_stall_run_cycles",
            "consecutive stalled cycles per stall interval (StallOnly probe)",
            &self.stall_runs,
        );
    }
}

/// Run the latency probe: a `train_batch` of `samples` over `pipes`
/// banks of `bank_states` states on a fresh instrumented pool, plus a
/// small cycle-accurate StallOnly run feeding the stall-run-length
/// histogram. Deterministic apart from the wall-clock quantities the
/// histograms exist to measure.
pub fn measure_latency(bank_states: usize, pipes: usize, samples: u64) -> LatencyReport {
    // Instrumented batch: counters live, so the shards run the
    // cycle-accurate engine.
    let pool = Arc::new(ShardedExecutor::new_instrumented(
        (qtaccel_telemetry::manifest::host_parallelism() as usize).min(pipes.max(2)),
    ));
    let envs: Vec<_> = (0..pipes)
        .map(|_| paper_grid(bank_states, ACTIONS))
        .collect();
    let tracer = Arc::new(SpanTracer::new(
        AccelConfig::default().trainer.seed,
        1 << 12,
    ));
    let mut banks = IndependentPipelines::<Q8_8, CountersOnly>::with_sinks(
        &envs,
        AccelConfig::default(),
        vec![CountersOnly; pipes],
    )
    .with_executor(Arc::clone(&pool))
    .with_tracer(Arc::clone(&tracer));
    banks.train_batch(&envs, samples);

    let metrics = pool.metrics().expect("instrumented pool");
    let snaps = metrics.worker_snapshots();

    // Stall probe: cycle-accurate StallOnly against a deliberately
    // small ring, so the truncation accounting is exercised too.
    let g = paper_grid(64, ACTIONS);
    let cfg = AccelConfig::default()
        .with_seed(97)
        .with_hazard(HazardMode::StallOnly);
    let mut probe = QLearningAccel::<Q8_8, RingSink>::with_sink(&g, cfg, RingSink::new(1 << 14));
    probe.train_samples(&g, 4_000);
    let stall_runs = stall_run_lengths(probe.sink().events());

    LatencyReport {
        chunk_service: metrics.chunk_service_ns(),
        queue_wait: metrics.queue_wait_ns(),
        stall_runs,
        queue_depth_peak: metrics.queue_depth_peak(),
        worker_busy_ns: snaps.iter().map(|s| s.busy_ns).sum(),
        worker_idle_ns: snaps.iter().map(|s| s.idle_ns).sum(),
        chunks: snaps.iter().map(|s| s.chunks).sum(),
        workers: snaps.len(),
        dropped_iterations: probe.sink().dropped_iterations(),
        spans: tracer.recorded(),
        dropped_spans: tracer.dropped_spans(),
        counters: banks.merged_counters(),
    }
}

/// Training-health evidence for one bench run: the merged probe of a
/// health-instrumented batch plus the watchdog that judged it (DESIGN.md
/// §2.13). Serializes as the `health` block the
/// bench reports embed and publishes the `qtaccel_health_*` families
/// into a [`MetricsRegistry`] for the scrape endpoint.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Banks the probed batch trained, one shard each.
    pub banks: usize,
    /// Samples trained across all banks.
    pub samples: u64,
    /// The merged probe across the per-bank probes.
    pub probe: HealthProbe,
    /// The watchdog after its final check over the merged probe.
    pub watchdog: Watchdog,
}

impl HealthReport {
    /// The JSON block the benches embed: a point-in-time snapshot plus
    /// the watchdog verdict (alert list and bookkeeping counters).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("banks", Json::UInt(self.banks as u64)),
            ("samples", Json::UInt(self.samples)),
            ("snapshot", self.probe.snapshot().to_json()),
            (
                "alerts",
                Json::Arr(self.watchdog.alerts().iter().map(|a| a.to_json()).collect()),
            ),
            ("watchdog_checks", Json::UInt(self.watchdog.checks())),
            ("watchdog_windows", Json::UInt(self.watchdog.windows())),
        ])
    }

    /// Publish the probe and watchdog families (`qtaccel_health_*`)
    /// into `registry`.
    pub fn register_into(&self, registry: &mut MetricsRegistry) {
        self.probe.register_into(registry);
        self.watchdog.register_into(registry);
    }
}

/// Run the health probe: a `train_batch` of `samples` over `banks`
/// health-instrumented pipelines of `bank_states` states, one shard per
/// bank on the executor (the probe forces the cycle-accurate engine —
/// see DESIGN.md §2.13 — so this is also the scrape-time proof that the
/// instrumented path works under sharding), then one watchdog pass over
/// the merged probe. Fully deterministic.
pub fn measure_health(bank_states: usize, banks: usize, samples: u64) -> HealthReport {
    let envs: Vec<_> = (0..banks)
        .map(|_| paper_grid(bank_states, ACTIONS))
        .collect();
    let mut pipes = IndependentPipelines::<Q8_8, HealthSink>::with_sinks(
        &envs,
        AccelConfig::default(),
        vec![HealthSink::new(HealthConfig::default()); banks],
    );
    pipes.train_batch(&envs, samples);
    let probe = pipes.merged_health().expect("health sinks attached");
    let mut watchdog = Watchdog::new(WatchdogConfig::default());
    watchdog.check(&probe, 0);
    HealthReport {
        banks,
        samples,
        probe,
        watchdog,
    }
}

/// Publish the `qtaccel_build_info` info-style gauge: a constant-1
/// sample whose labels carry the producing build's provenance (git
/// revision + dirty flag, RNG seed, fixed-point format) so every scrape
/// is attributable to the tree and configuration that ran.
pub fn register_build_info(registry: &mut MetricsRegistry, config: &AccelConfig) {
    let git = qtaccel_telemetry::manifest::git_info();
    let seed = config.trainer.seed.to_string();
    let format = Q8_8::format_name();
    registry.set_info(
        "qtaccel_build_info",
        "build provenance: git revision, RNG seed, fixed-point format",
        &[
            ("git_rev", git.commit.as_str()),
            ("git_dirty", if git.dirty { "true" } else { "false" }),
            ("seed", seed.as_str()),
            ("format", format.as_str()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_telemetry::export::{check_openmetrics, encode_openmetrics};
    use qtaccel_telemetry::json::parse;

    #[test]
    fn probe_produces_populated_report() {
        let r = measure_latency(256, 3, 300_000);
        assert!(r.chunks >= 3, "at least one chunk per shard");
        assert_eq!(r.chunk_service.count(), r.chunks);
        assert!(r.stall_runs.count() > 0, "StallOnly probe must stall");
        use qtaccel_telemetry::CounterId;
        assert_eq!(r.counters.get(CounterId::SamplesRetired), 300_000);

        let p = parse(&r.to_json().pretty()).expect("report JSON parses");
        assert!(p.get("chunk_service_ns").unwrap().get("p50").is_some());
        assert!(p.get("stall_run_cycles").unwrap().get("p99").is_some());
        assert_eq!(
            p.get("chunks").unwrap().as_u64(),
            Some(r.chunks),
            "chunk count rides in the JSON"
        );
    }

    #[test]
    fn registered_probe_passes_the_openmetrics_checker() {
        let r = measure_latency(64, 2, 100_000);
        let mut reg = MetricsRegistry::new();
        r.register_into(&mut reg);
        let text = encode_openmetrics(&reg);
        check_openmetrics(&text).expect("valid exposition");
        assert!(text.contains("qtaccel_samples_total 100000\n"));
        assert!(text.contains("# TYPE qtaccel_stall_run_cycles histogram\n"));
    }

    #[test]
    fn health_probe_report_is_deterministic_and_scrapes_strictly() {
        let r = measure_health(64, 2, 40_000);
        assert_eq!(r.probe.samples_seen(), 40_000, "every retired sample seen");
        assert!(r.probe.samples_probed() > 0);
        assert!(r.probe.states_visited() > 0, "coverage bitset populated");
        assert_eq!(r.watchdog.checks(), 1);
        // Deterministic replay: the probed batch shares the engines'
        // fixed seeds, so the merged probe is bit-identical run to run.
        assert_eq!(measure_health(64, 2, 40_000).probe, r.probe);

        let p = parse(&r.to_json().pretty()).expect("health JSON parses");
        assert_eq!(p.get("banks").unwrap().as_u64(), Some(2));
        assert!(p
            .get("snapshot")
            .unwrap()
            .get("td")
            .unwrap()
            .get("p99")
            .is_some());

        let mut reg = MetricsRegistry::new();
        r.register_into(&mut reg);
        register_build_info(&mut reg, &AccelConfig::default());
        let text = encode_openmetrics(&reg);
        check_openmetrics(&text).expect("valid exposition");
        assert!(text.contains("# TYPE qtaccel_health_td_error_magnitude histogram\n"));
        assert!(text.contains("qtaccel_health_samples_seen_total 40000\n"));
        assert!(text.contains("# TYPE qtaccel_build_info gauge\n"));
        assert!(text.contains("format=\"Q8.8\""));
    }
}
