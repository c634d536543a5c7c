//! Metrics-service integration tests (DESIGN.md §2.10).
//!
//! End-to-end coverage of the observability layer across crates:
//! executor introspection feeding the registry, `BatchReport`'s
//! truncation accounting, the stall-run-length histogram's invariant
//! against `CycleStats`, a live OpenMetrics scrape, the Perfetto trace
//! export round-trip, and the resource model's opt-in monitor costs.

use qtaccel_accel::config::{AccelConfig, HazardMode};
use qtaccel_accel::executor::ShardedExecutor;
use qtaccel_accel::multi::IndependentPipelines;
use qtaccel_accel::QLearningAccel;
use qtaccel_envs::{ActionSet, GridWorld, PartitionedGrid};
use qtaccel_fixed::Q8_8;
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_telemetry::export::{check_openmetrics, chrome_trace, scrape};
use qtaccel_telemetry::json::parse;
use qtaccel_telemetry::{
    stall_run_lengths, Collector, CountersOnly, Event, MetricsRegistry, NullSink, RingSink, ToJson,
};
use std::sync::Arc;

fn four_banks(seed: u32) -> PartitionedGrid {
    let mut rng = Lfsr32::new(seed);
    PartitionedGrid::new(16, 16, 2, 2, 6, ActionSet::Four, &mut rng)
}

fn grid() -> GridWorld {
    GridWorld::builder(8, 8).goal(7, 7).build()
}

#[test]
fn instrumented_executor_feeds_registry_through_train_batch() {
    let part = four_banks(5);
    let cfg = AccelConfig::default().with_seed(9);
    let pool = Arc::new(ShardedExecutor::new_instrumented(2));
    let mut pipes = IndependentPipelines::<Q8_8, CountersOnly>::with_sinks(
        part.partitions(),
        cfg,
        vec![CountersOnly; part.partitions().len()],
    )
    .with_executor(Arc::clone(&pool));
    let report = pipes.train_batch(part.partitions(), 400_000);
    assert_eq!(report.stats.samples, 400_000);
    assert_eq!(report.dropped_iterations, 0, "CountersOnly drops nothing");

    let m = pool.metrics().expect("instrumented pool");
    let total_chunks: u64 = m.worker_snapshots().iter().map(|s| s.chunks).sum();
    // 400k samples over 4 shards at 64K chunks = 2 chunks per shard.
    assert_eq!(total_chunks, 8, "chunk plan is deterministic");
    assert_eq!(m.chunk_service_ns().count(), total_chunks);
    assert_eq!(m.queue_wait_ns().count(), total_chunks);
    assert!(m.queue_depth_peak() >= 4);

    let mut reg = MetricsRegistry::new();
    reg.record_counter_bank(&pipes.merged_counters());
    m.register_into(&mut reg);
    // The headline counter is live (CountersOnly keeps the bank).
    let samples = match reg.get("qtaccel_samples_total") {
        Some(qtaccel_telemetry::MetricValue::Counter(v)) => *v,
        other => panic!("qtaccel_samples_total missing or mistyped: {other:?}"),
    };
    assert_eq!(samples, 400_000);
    assert!(reg.get("qtaccel_executor_queue_depth").is_some());
}

#[test]
fn batch_report_surfaces_ring_sink_truncation() {
    let part = four_banks(7);
    let cfg = AccelConfig::default().with_seed(3);
    let mut pipes = IndependentPipelines::<Q8_8, RingSink>::with_sinks(
        part.partitions(),
        cfg,
        (0..part.partitions().len())
            .map(|_| RingSink::new(64))
            .collect(),
    );
    // Cycle-accurate training floods the tiny rings with events.
    pipes.train_batch(part.partitions(), 2_000 * 4);
    let flooded = pipes.dropped_iterations();
    assert!(flooded > 0, "64-slot rings must have evicted iterations");
    // The next batch reports the cumulative drop count, so a consumer
    // of the report knows the retained traces are incomplete.
    let report = pipes.train_batch(part.partitions(), 1_000);
    assert!(report.dropped_iterations >= flooded);
}

#[test]
fn stall_run_lengths_sum_to_the_stall_counter() {
    let g = grid();
    let cfg = AccelConfig::default()
        .with_seed(41)
        .with_hazard(HazardMode::StallOnly);
    let mut accel = QLearningAccel::<Q8_8, RingSink>::with_sink(&g, cfg, RingSink::new(1 << 16));
    let stats = accel.train_samples(&g, 2_000);
    assert!(stats.stalls > 0, "StallOnly on a small grid must stall");

    let events: Vec<Event> = accel.sink().events().copied().collect();
    let h = stall_run_lengths(&events);
    let begins = events
        .iter()
        .filter(|e| matches!(e, Event::StallBegin { .. }))
        .count() as u64;
    assert!(h.count() > 0);
    assert_eq!(h.count(), begins, "every stall interval pairs up");
    // The histogram is a lossless decomposition of the stall counter:
    // summing interval lengths recovers CycleStats::stalls exactly.
    assert_eq!(h.sum(), stats.stalls);
    assert!(h.max() >= 1);
    assert!(h.summary().p99 >= h.summary().p50);
}

#[test]
fn scrape_endpoint_serves_the_acceptance_payload() {
    // Fill a registry the way the benches do: counters from a training
    // run, executor introspection, and the stall-run-length histogram.
    let part = four_banks(13);
    let cfg = AccelConfig::default().with_seed(17);
    let pool = Arc::new(ShardedExecutor::new_instrumented(2));
    let mut pipes = IndependentPipelines::<Q8_8, CountersOnly>::with_sinks(
        part.partitions(),
        cfg,
        vec![CountersOnly; part.partitions().len()],
    )
    .with_executor(Arc::clone(&pool));
    pipes.train_batch(part.partitions(), 300_000);

    let g = grid();
    let stall_cfg = AccelConfig::default()
        .with_seed(19)
        .with_hazard(HazardMode::StallOnly);
    let mut stall_probe =
        QLearningAccel::<Q8_8, RingSink>::with_sink(&g, stall_cfg, RingSink::new(1 << 16));
    stall_probe.train_samples(&g, 1_500);
    let stall_hist = stall_run_lengths(stall_probe.sink().events());

    let server = Collector::serve("127.0.0.1:0").expect("bind ephemeral port");
    server.update(|reg| {
        reg.record_counter_bank(&pipes.merged_counters());
        pool.metrics().unwrap().register_into(reg);
        reg.set_histogram(
            "qtaccel_stall_run_cycles",
            "consecutive stalled cycles per stall interval (StallOnly probe)",
            &stall_hist,
        );
    });

    let body = scrape(server.addr()).expect("scrape over HTTP");
    check_openmetrics(&body).expect("OpenMetrics-parseable");
    // Acceptance: counters, queue-depth gauge, and >= 3 histograms with
    // p50/p90/p99 companions.
    assert!(body.contains("qtaccel_samples_total 300000\n"), "{body}");
    assert!(body.contains("# TYPE qtaccel_executor_queue_depth gauge\n"));
    for hist in [
        "qtaccel_executor_chunk_service_ns",
        "qtaccel_executor_queue_wait_ns",
        "qtaccel_stall_run_cycles",
    ] {
        assert!(
            body.contains(&format!("# TYPE {hist} histogram\n")),
            "{hist}"
        );
        for q in ["p50", "p90", "p99"] {
            assert!(body.contains(&format!("{hist}_{q} ")), "{hist}_{q}");
        }
    }
}

#[test]
fn perfetto_export_round_trips_with_per_pipeline_tracks() {
    let cfg = AccelConfig::default()
        .with_seed(53)
        .with_hazard(HazardMode::StallOnly);
    let tracks: Vec<(String, Vec<Event>)> = (0..2)
        .map(|i| {
            let g = grid();
            let mut accel = QLearningAccel::<Q8_8, RingSink>::with_sink(
                &g,
                cfg.with_seed(53 + i),
                RingSink::new(1 << 14),
            );
            accel.train_samples(&g, 500);
            (
                format!("pipeline-{i}"),
                accel.sink().events().copied().collect(),
            )
        })
        .collect();

    let doc = chrome_trace(&tracks);
    let p = parse(&doc.pretty()).expect("strict parser round-trip");
    let events = p.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(events.len() > 10);

    // One named track per pipeline...
    let track_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .map(|e| {
            e.get("args")
                .unwrap()
                .get("name")
                .unwrap()
                .as_str()
                .unwrap()
        })
        .collect();
    assert_eq!(track_names, vec!["pipeline-0", "pipeline-1"]);

    // ...with stall spans present and ts non-decreasing per track.
    let mut saw_stall = false;
    for tid in 0..2u64 {
        let ts: Vec<u64> = events
            .iter()
            .filter(|e| e.get("tid").and_then(|t| t.as_u64()) == Some(tid) && e.get("ts").is_some())
            .map(|e| e.get("ts").unwrap().as_u64().unwrap())
            .collect();
        assert!(!ts.is_empty(), "track {tid} has events");
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "track {tid} ts must be monotonic"
        );
        saw_stall |= events.iter().any(|e| {
            e.get("tid").and_then(|t| t.as_u64()) == Some(tid)
                && e.get("name").and_then(|n| n.as_str()) == Some("stall")
        });
    }
    assert!(saw_stall, "StallOnly runs must render stall spans");
}

#[test]
fn event_sinks_raise_the_modeled_monitor_cost() {
    let g = grid();
    let cfg = AccelConfig::default().with_seed(61);
    let plain = QLearningAccel::<Q8_8, NullSink>::new(&g, cfg);
    let counted = QLearningAccel::<Q8_8, CountersOnly>::with_sink(&g, cfg, CountersOnly);
    let traced = QLearningAccel::<Q8_8, RingSink>::with_sink(&g, cfg, RingSink::new(16));

    let (r0, r1, r2) = (
        plain.resources().report,
        counted.resources().report,
        traced.resources().report,
    );
    // NullSink: the uninstrumented baseline. CountersOnly adds the
    // perf-counter bank. An event-emitting sink adds the counter bank
    // *and* the stall-run-length histogram monitor on top.
    assert!(r1.lut > r0.lut && r1.ff > r0.ff);
    assert!(r2.lut > r1.lut && r2.ff > r1.ff);
    assert_eq!(r0.dsp, r2.dsp, "monitors add no DSPs");
    assert_eq!(r0.bram36, r2.bram36, "monitors add no BRAM");
}

#[test]
fn histogram_json_rides_in_reports() {
    // The summaries the benches attach must round-trip the strict
    // parser with the documented fields.
    let mut h = qtaccel_telemetry::Histogram::new();
    for v in [3u64, 9, 27, 81] {
        h.observe(v);
    }
    let p = parse(&h.summary().to_json().pretty()).unwrap();
    for field in ["count", "sum", "max", "p50", "p90", "p99"] {
        assert!(p.get(field).is_some(), "summary field {field}");
    }
    assert_eq!(p.get("count").unwrap().as_u64(), Some(4));
    assert_eq!(p.get("sum").unwrap().as_u64(), Some(120));
    assert_eq!(p.get("max").unwrap().as_u64(), Some(81));
}
