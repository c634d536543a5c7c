//! Span-trace integration tests (DESIGN.md §2.15).
//!
//! * **Determinism**: the same seed and batch plan produce the same
//!   span tree — ids, parents, names, lanes, ordinals — at every
//!   executor worker count. Only the monotonic-ns timestamps may
//!   differ between runs.
//! * **End-to-end acceptance**: one durable batch over four shards
//!   yields a single connected trace (batch root → per-shard chunk
//!   spans → checkpoint/scrub children) that round-trips through the
//!   wire protocol into a live collector, merges bit-identically, and
//!   exports as a strictly parseable multi-process Perfetto trace.
//! * **Failure**: a durable batch that fails still ends its root, so
//!   the spans it recorded before the error keep their parent.

use qtaccel_accel::{
    shard_checkpoint_path, AccelConfig, CheckpointError, FaultConfig, IndependentPipelines,
    ShardedExecutor,
};
use qtaccel_envs::GridWorld;
use qtaccel_fixed::Q8_8;
use qtaccel_telemetry::{
    json, Collector, FramePayload, MetricsRegistry, Span, SpanTracer, WireClient,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Big enough that every shard runs several executor chunks (the chunk
/// target is 64 Ki samples): 600 000 / 4 shards = 150 000 each → three
/// chunk spans per lane.
const TOTAL_SAMPLES: u64 = 600_000;
const SHARDS: usize = 4;

fn grid() -> GridWorld {
    GridWorld::builder(8, 8).goal(7, 7).build()
}

fn tmp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("qtaccel-spans-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// The timestamp-free shape of a drained span set, sorted so run order
/// (which legitimately varies with worker count) cannot leak in.
fn identity_tree(spans: &[Span]) -> Vec<(u64, u64, u64, String, u32, u64)> {
    let mut tree: Vec<_> = spans
        .iter()
        .map(|s| {
            let (trace, id, parent, name, lane, ordinal) = s.identity();
            (trace, id, parent, name.to_string(), lane, ordinal)
        })
        .collect();
    tree.sort();
    tree
}

/// One traced `train_batch` at the given pool width; faults are armed
/// with a fast scrub cadence so the tree includes scrub instants.
fn traced_batch(workers: usize) -> Vec<Span> {
    let envs: Vec<GridWorld> = (0..SHARDS).map(|_| grid()).collect();
    let cfg = AccelConfig::default().with_seed(7);
    let tracer = Arc::new(SpanTracer::new(7, 1 << 12));
    let mut pipes = IndependentPipelines::<Q8_8>::new(&envs, cfg)
        .with_executor(Arc::new(ShardedExecutor::new(workers)))
        .with_tracer(Arc::clone(&tracer));
    for i in 0..SHARDS {
        pipes.enable_faults(i, FaultConfig::default().with_scrub_period(2));
    }
    let report = pipes.train_batch(&envs, TOTAL_SAMPLES);
    assert_eq!(report.dropped_spans, 0, "ring sized for the whole batch");
    assert!(report.trace.is_some(), "tracer attached ⇒ context reported");
    tracer.drain()
}

#[test]
fn span_tree_is_bit_identical_across_worker_counts() {
    let reference = identity_tree(&traced_batch(1));
    assert!(!reference.is_empty(), "a traced batch records spans");

    // Multiple chunk spans per lane — the plan actually exercises
    // re-entry, so ordinal determinism is tested, not vacuous.
    for lane in 0..SHARDS as u32 {
        let chunks = reference
            .iter()
            .filter(|(_, _, _, name, l, _)| name == "chunk" && *l == lane)
            .count();
        assert!(chunks >= 2, "lane {lane} ran {chunks} chunks");
    }

    for workers in [2usize, 4] {
        let tree = identity_tree(&traced_batch(workers));
        assert_eq!(tree, reference, "span tree diverged at {workers} workers");
    }
}

#[test]
fn durable_batch_trace_round_trips_through_the_collector() {
    let dir = tmp_dir("durable");
    let envs: Vec<GridWorld> = (0..SHARDS).map(|_| grid()).collect();
    let cfg = AccelConfig::default().with_seed(9);
    let tracer = Arc::new(SpanTracer::new(9, 1 << 12));
    let mut pipes = IndependentPipelines::<Q8_8>::new(&envs, cfg)
        .with_executor(Arc::new(ShardedExecutor::new(SHARDS)))
        .with_tracer(Arc::clone(&tracer));
    for i in 0..SHARDS {
        pipes.enable_faults(i, FaultConfig::default().with_scrub_period(2));
    }
    let report = pipes
        .train_batch_durable(&envs, TOTAL_SAMPLES, &dir, 60_000)
        .expect("durable batch completes");
    assert_eq!(report.dropped_spans, 0);
    let ctx = report.trace.expect("tracer attached ⇒ context reported");
    let spans = tracer.drain();

    // One connected tree: a single root, every other span parented to
    // a recorded span, everything on the report's trace id.
    let ids: HashSet<u64> = spans.iter().map(|s| s.id.0).collect();
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one batch root");
    assert_eq!(roots[0].name, "train_batch_durable");
    assert_eq!(roots[0].id, ctx.span, "report context names the root");
    for s in &spans {
        assert_eq!(s.trace, ctx.trace, "one trace covers the batch");
        assert!(s.end_ns >= s.start_ns, "spans close after they open");
        if let Some(parent) = s.parent {
            assert!(ids.contains(&parent.0), "orphan span: {s:?}");
        }
    }
    let names: HashSet<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for required in ["chunk", "checkpoint_restore", "checkpoint_save", "scrub"] {
        assert!(
            names.contains(required),
            "missing {required:?} in {names:?}"
        );
    }
    let chunk_lanes: HashSet<u32> = spans
        .iter()
        .filter(|s| s.name == "chunk")
        .map(|s| s.lane)
        .collect();
    assert_eq!(
        chunk_lanes,
        (0..SHARDS as u32).collect(),
        "every shard contributed chunk spans"
    );

    // Ship the trace and the counters through the wire into a live
    // collector, alongside a second worker so the exported Perfetto
    // document is genuinely multi-process.
    let collector = Collector::serve("127.0.0.1:0").expect("collector binds");
    let mut local = MetricsRegistry::new();
    local.set_counter(
        "qtaccel_samples_total",
        "samples retired across shards",
        report.stats.samples,
    );
    let mut shard_host =
        WireClient::connect(collector.addr(), 1, "shard-host").expect("worker 1 connects");
    shard_host
        .send(FramePayload::Metrics(local.clone()))
        .expect("metrics frame accepted");
    shard_host
        .send(FramePayload::Spans(spans.clone()))
        .expect("span frame accepted");

    let aux_envs = [grid()];
    let aux_tracer = Arc::new(SpanTracer::new(77, 256));
    let mut aux =
        IndependentPipelines::<Q8_8>::new(&aux_envs, cfg).with_tracer(Arc::clone(&aux_tracer));
    aux.train_batch(&aux_envs, 10_000);
    let aux_spans = aux_tracer.drain();
    assert!(!aux_spans.is_empty());
    let mut aux_host =
        WireClient::connect(collector.addr(), 2, "aux-host").expect("worker 2 connects");
    aux_host
        .send(FramePayload::Spans(aux_spans))
        .expect("aux span frame accepted");

    // Two hellos + three payload frames.
    let expected_frames = 5;
    for _ in 0..500 {
        if collector.frames_total() >= expected_frames {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(collector.frames_total(), expected_frames);
    assert_eq!(collector.decode_errors(), 0, "a clean stream decodes clean");

    // The merged registry is bit-identical to what the worker held.
    let merged = collector.merged_registry();
    assert_eq!(
        merged.get("qtaccel_samples_total"),
        local.get("qtaccel_samples_total"),
        "collector merge reproduces the worker's counter exactly"
    );

    // The export is a strict-parseable multi-process Perfetto trace
    // whose slices carry the span names, with per-track monotonic
    // timestamps.
    let doc = collector.perfetto_trace().pretty();
    let parsed = json::parse(&doc).expect("exported trace parses strictly");
    let events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    let process_tracks = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
        .count();
    assert!(process_tracks >= 2, "one process track per worker");
    let slice_names: HashSet<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for required in ["train_batch_durable", "chunk", "checkpoint_save"] {
        assert!(slice_names.contains(required), "trace lacks {required:?}");
    }
    let mut last_ts: std::collections::HashMap<(u64, u64), u64> = std::collections::HashMap::new();
    for e in events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
    {
        let track = (
            e.get("pid").and_then(|v| v.as_u64()).unwrap_or(0),
            e.get("tid").and_then(|v| v.as_u64()).unwrap_or(0),
        );
        let ts = e.get("ts").and_then(|v| v.as_u64()).unwrap_or(0);
        if let Some(&prev) = last_ts.get(&track) {
            assert!(prev <= ts, "track {track:?} went backwards: {prev} > {ts}");
        }
        last_ts.insert(track, ts);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_durable_batch_still_ends_its_root() {
    // Shard 1's checkpoint path is a directory, so its restore fails
    // after both shards' restore spans were recorded.
    let dir = tmp_dir("failed");
    std::fs::create_dir_all(shard_checkpoint_path(&dir, 1)).expect("plant a directory");
    let envs = [grid(), grid()];
    let tracer = Arc::new(SpanTracer::new(3, 256));
    let mut pipes = IndependentPipelines::<Q8_8>::new(&envs, AccelConfig::default().with_seed(3))
        .with_tracer(Arc::clone(&tracer));
    let err = pipes
        .train_batch_durable(&envs, 10_000, &dir, 4_096)
        .expect_err("shard 1's checkpoint cannot be read");
    assert!(matches!(err, CheckpointError::Io(_)), "{err:?}");

    let spans = tracer.drain();
    let ids: HashSet<u64> = spans.iter().map(|s| s.id.0).collect();
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "exactly one batch root in {spans:?}");
    assert_eq!(roots[0].name, "train_batch_durable");
    for s in &spans {
        if let Some(parent) = s.parent {
            assert!(ids.contains(&parent.0), "orphan span: {s:?}");
        }
    }
    let restores = spans
        .iter()
        .filter(|s| s.name == "checkpoint_restore")
        .count();
    assert_eq!(restores, 2, "both leases recorded their restore");
    let _ = std::fs::remove_dir_all(&dir);
}
