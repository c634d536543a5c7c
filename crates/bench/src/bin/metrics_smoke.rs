//! End-to-end smoke test of the metrics service (DESIGN.md §2.10,
//! §2.13) and the distributed observability plane (§2.15), runnable in
//! seconds. Two legs:
//!
//! 1. **Single-process scrape**: run the latency probe and a
//!    health-probed batch over `HEALTH_BANKS` banks, serve both on an
//!    ephemeral port, scrape them back over HTTP, and assert
//!    the acceptance payload — OpenMetrics-parseable text carrying the
//!    perf-counter bank, the executor queue-depth gauge, at least three
//!    histogram families with p50/p90/p99 companions, the
//!    `qtaccel_health_*` training-health families, and the
//!    `qtaccel_build_info` provenance gauge.
//! 2. **Collector**: spawn three worker threads, each training its own
//!    banks and streaming wire-protocol metric deltas plus span batches
//!    into an ephemeral [`Collector`]; scrape the merged endpoint,
//!    strict-validate it, assert the merged `qtaccel_samples_total`
//!    equals the per-worker sum *exactly* (and the whole merged
//!    registry is bit-identical to a single-process merge), and export
//!    the multi-process Perfetto trace to
//!    `results/collector_trace.json`, re-parsed strictly with
//!    per-track monotonic timestamps and zero decode errors.
//!
//! `scripts/verify.sh` runs this binary; it exits non-zero on any
//! missing piece.

use qtaccel_accel::{AccelConfig, IndependentPipelines};
use qtaccel_bench::grids::paper_grid;
use qtaccel_bench::metrics::{measure_health, measure_latency, register_build_info};
use qtaccel_fixed::Q8_8;
use qtaccel_telemetry::export::{check_openmetrics, scrape};
use qtaccel_telemetry::json::parse;
use qtaccel_telemetry::wire::registry_delta;
use qtaccel_telemetry::{
    Collector, CountersOnly, FramePayload, MetricsRegistry, SpanTracer, WireClient,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Worker count for the collector leg (the satellite floor is 3).
const WIRE_WORKERS: u64 = 3;
/// Samples each wire worker trains (split over two delta frames).
const WIRE_SAMPLES: u64 = 60_000;
/// Banks of the health-probed batch, one executor shard each.
const HEALTH_BANKS: usize = 4;

/// One wire worker: train two half-batches over two small banks with a
/// span tracer attached, shipping a metrics *delta* frame after each
/// half and draining the span ring into a span frame. Returns the
/// worker's final local registry — the single-process reference the
/// collector's merge must match bit-for-bit.
fn wire_worker(addr: SocketAddr, w: u64) -> MetricsRegistry {
    let mut client = WireClient::connect(addr, w, &format!("worker-{w}"))
        .unwrap_or_else(|e| panic!("worker {w}: connect failed: {e}"));
    let envs: Vec<_> = (0..2).map(|_| paper_grid(256, 4)).collect();
    let tracer = Arc::new(SpanTracer::new(1000 + w, 1 << 12));
    let mut banks = IndependentPipelines::<Q8_8, CountersOnly>::with_sinks(
        &envs,
        AccelConfig::default(),
        vec![CountersOnly; envs.len()],
    )
    .with_tracer(Arc::clone(&tracer));
    let mut prev = MetricsRegistry::new();
    for _ in 0..2 {
        banks.train_batch(&envs, WIRE_SAMPLES / 2);
        let mut cur = MetricsRegistry::new();
        cur.record_counter_bank(&banks.merged_counters());
        cur.set_counter(
            "qtaccel_trace_spans_total",
            "structured spans recorded by the batch span tracer",
            tracer.recorded(),
        );
        client
            .send(FramePayload::Metrics(registry_delta(&prev, &cur)))
            .unwrap_or_else(|e| panic!("worker {w}: delta frame failed: {e}"));
        let spans = tracer.drain();
        assert!(!spans.is_empty(), "a traced batch always records spans");
        client
            .send(FramePayload::Spans(spans))
            .unwrap_or_else(|e| panic!("worker {w}: span frame failed: {e}"));
        prev = cur;
    }
    prev
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument `{arg}` (metrics_smoke takes no arguments)");
        std::process::exit(2);
    }

    // Small probes: 2 banks × |S|=256, 200k samples for the latency
    // histograms, and a health-instrumented batch — a couple hundred
    // milliseconds, but enough chunks to populate every histogram and
    // every health family.
    let latency = measure_latency(256, 2, 200_000);
    const HEALTH_SAMPLES: u64 = 100_000;
    let health = measure_health(256, HEALTH_BANKS, HEALTH_SAMPLES);
    println!(
        "metrics smoke: health probe saw {} samples across {HEALTH_BANKS} banks \
         ({} probed, {} states visited)",
        health.probe.samples_seen(),
        health.probe.samples_probed(),
        health.probe.states_visited(),
    );

    let server = Collector::serve("127.0.0.1:0").unwrap_or_else(|e| {
        eprintln!("metrics smoke: FAILED to bind ephemeral port: {e}");
        std::process::exit(1);
    });
    server.update(|reg| {
        latency.register_into(reg);
        health.register_into(reg);
        register_build_info(reg, &AccelConfig::default());
    });
    println!("metrics smoke: serving on http://{}/metrics", server.addr());

    let body = scrape(server.addr()).unwrap_or_else(|e| {
        eprintln!("metrics smoke: FAILED to scrape: {e}");
        std::process::exit(1);
    });
    if let Err(e) = check_openmetrics(&body) {
        eprintln!("metrics smoke: FAILED OpenMetrics validation: {e}");
        std::process::exit(1);
    }

    let mut failed = false;
    let mut require = |needle: &str| {
        if !body.contains(needle) {
            eprintln!("metrics smoke: FAILED — scrape lacks {needle:?}");
            failed = true;
        }
    };
    require("qtaccel_samples_total 200000\n");
    require("# TYPE qtaccel_executor_queue_depth gauge\n");
    for hist in [
        "qtaccel_executor_chunk_service_ns",
        "qtaccel_executor_queue_wait_ns",
        "qtaccel_stall_run_cycles",
    ] {
        require(&format!("# TYPE {hist} histogram\n"));
        for q in ["p50", "p90", "p99"] {
            require(&format!("{hist}_{q} "));
        }
    }
    // Training-health families (DESIGN.md §2.13) from the probed
    // batch, plus the provenance info gauge.
    require("# TYPE qtaccel_health_td_error_magnitude histogram\n");
    require(&format!(
        "qtaccel_health_samples_seen_total {HEALTH_SAMPLES}\n"
    ));
    for counter in [
        "qtaccel_health_samples_probed",
        "qtaccel_health_policy_churn",
        "qtaccel_health_watchdog_checks",
    ] {
        require(&format!("# TYPE {counter} counter\n"));
    }
    for gauge in [
        "qtaccel_health_states_visited",
        "qtaccel_health_state_coverage",
    ] {
        require(&format!("# TYPE {gauge} gauge\n"));
    }
    for rule in [
        "divergence",
        "saturation",
        "stalled_learning",
        "scrub_failure",
    ] {
        require(&format!("# TYPE qtaccel_health_alerts_{rule} counter\n"));
    }
    require("# TYPE qtaccel_build_info gauge\n");
    require("qtaccel_build_info{");
    require("format=\"Q8.8\"");
    if failed {
        eprintln!("---- scrape body ----\n{body}");
        std::process::exit(1);
    }

    let families = body.lines().filter(|l| l.starts_with("# TYPE ")).count();
    println!(
        "metrics smoke: OK ({} metric families, {} bytes scraped)",
        families,
        body.len()
    );

    // ---- Leg 2: wire workers → merging collector → Perfetto. ----
    let collector = Collector::serve("127.0.0.1:0").unwrap_or_else(|e| {
        eprintln!("metrics smoke: FAILED to bind collector: {e}");
        std::process::exit(1);
    });
    let addr = collector.addr();
    let locals: Vec<MetricsRegistry> = (0..WIRE_WORKERS)
        .map(|w| std::thread::spawn(move || wire_worker(addr, w)))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("wire worker thread"))
        .collect();
    // The health leg doubles as the alert source: ship its watchdog
    // alerts (if the probed run raised any) as an alert frame.
    let mut health_client = WireClient::connect(addr, 100, "health-probe").unwrap_or_else(|e| {
        eprintln!("metrics smoke: FAILED to connect health client: {e}");
        std::process::exit(1);
    });
    let mut expected_frames = 1 + WIRE_WORKERS * 5; // hellos + 2×(delta+spans) each
    if !health.watchdog.alerts().is_empty() {
        health_client
            .send(FramePayload::Alerts(health.watchdog.alerts().to_vec()))
            .unwrap_or_else(|e| {
                eprintln!("metrics smoke: FAILED to send alert frame: {e}");
                std::process::exit(1);
            });
        expected_frames += 1;
    }
    // Frames are in flight after the joins; give TCP delivery a bounded
    // moment to land them all.
    for _ in 0..500 {
        if collector.frames_total() >= expected_frames {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    if collector.frames_total() < expected_frames || collector.decode_errors() != 0 {
        eprintln!(
            "metrics smoke: FAILED — collector saw {}/{} frames, {} decode errors",
            collector.frames_total(),
            expected_frames,
            collector.decode_errors()
        );
        std::process::exit(1);
    }

    // The merged registry must be *bit-identical* to merging the
    // workers' final local registries in one process.
    let mut reference = MetricsRegistry::new();
    for local in &locals {
        reference
            .merge(local)
            .expect("the workers' local registries share kinds and fit u64");
    }
    if collector.merged_registry() != reference {
        eprintln!("metrics smoke: FAILED — collector merge differs from local merge");
        std::process::exit(1);
    }

    // And the merged scrape is strict OpenMetrics carrying the exact
    // per-worker sample sum.
    let merged_body = scrape(addr).unwrap_or_else(|e| {
        eprintln!("metrics smoke: FAILED to scrape collector: {e}");
        std::process::exit(1);
    });
    if let Err(e) = check_openmetrics(&merged_body) {
        eprintln!("metrics smoke: FAILED collector OpenMetrics validation: {e}");
        std::process::exit(1);
    }
    let exact_sum = format!("qtaccel_samples_total {}\n", WIRE_WORKERS * WIRE_SAMPLES);
    for needle in [
        exact_sum.as_str(),
        "# TYPE qtaccel_collector_frames counter\n",
        "qtaccel_collector_decode_errors_total 0\n",
    ] {
        if !merged_body.contains(needle) {
            eprintln!("metrics smoke: FAILED — collector scrape lacks {needle:?}");
            eprintln!("---- collector scrape ----\n{merged_body}");
            std::process::exit(1);
        }
    }

    // Multi-process Perfetto export: strict-parseable, one process
    // track per worker, per-(pid, tid) monotonic timestamps.
    let doc = collector.perfetto_trace();
    std::fs::create_dir_all("results").expect("create results dir");
    let trace_path = "results/collector_trace.json";
    std::fs::write(trace_path, doc.pretty()).expect("write collector trace");
    let reparsed = parse(&std::fs::read_to_string(trace_path).expect("read trace back"))
        .unwrap_or_else(|e| {
            eprintln!("metrics smoke: FAILED — exported trace does not re-parse: {e}");
            std::process::exit(1);
        });
    let events = reparsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| {
            eprintln!("metrics smoke: FAILED — exported trace lacks traceEvents");
            std::process::exit(1);
        });
    let process_tracks = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
        .count();
    if process_tracks < WIRE_WORKERS as usize {
        eprintln!(
            "metrics smoke: FAILED — {process_tracks} process tracks, wanted ≥{WIRE_WORKERS}"
        );
        std::process::exit(1);
    }
    let keyed: Vec<(u64, u64, u64)> = events
        .iter()
        .filter(|e| e.get("ts").is_some())
        .map(|e| {
            (
                e.get("pid").and_then(|v| v.as_u64()).unwrap_or(0),
                e.get("tid").and_then(|v| v.as_u64()).unwrap_or(0),
                e.get("ts").and_then(|v| v.as_u64()).unwrap_or(0),
            )
        })
        .collect();
    let mut sorted = keyed.clone();
    sorted.sort_by_key(|&(pid, tid, _)| (pid, tid));
    for pair in sorted.windows(2) {
        if pair[0].0 == pair[1].0 && pair[0].1 == pair[1].1 && pair[0].2 > pair[1].2 {
            eprintln!(
                "metrics smoke: FAILED — ts regressed within track pid={} tid={}",
                pair[0].0, pair[0].1
            );
            std::process::exit(1);
        }
    }
    println!(
        "metrics smoke: collector OK ({} workers, {} frames, {} trace events → {trace_path})",
        collector.workers(),
        collector.frames_total(),
        events.len()
    );
}
