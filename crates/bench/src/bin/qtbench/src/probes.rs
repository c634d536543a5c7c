//! Layer probes of the `--trace` run. Each times one layer through its
//! public functions at the workload's own shape: the pipeline's fast path
//! and image build, the executor's introspection, checkpoint encode /
//! write+fsync / restore, and wire-frame encode/decode.

use qtaccel_accel::checkpoint::atomic_write;
use qtaccel_accel::ExecutorMetrics;
use qtaccel_bench::timing::stream_triad_bytes_per_sec;
use qtaccel_envs::{Action, GridWorld};
use qtaccel_fixed::Q8_8;
use qtaccel_telemetry::{Frame, FramePayload, MetricsRegistry};

use crate::inproc::{Algo, Bank};
use crate::metrics::{quiet, Metric};
use crate::trace::Spans;
use crate::workload::{RunOpts, Tally};

/// The architectural traffic model of `bench_throughput`: the packed
/// transition/reward word, the Q-entry read-modify-write, the Qmax
/// read-modify-write and the update-policy Qmax read. The packed 8-bit
/// executor reads a 4-byte transition word where the fused image reads 8.
fn traffic_bytes_per_sample(algo: Algo) -> f64 {
    let q = std::mem::size_of::<Q8_8>() as f64;
    let qmax = std::mem::size_of::<(Q8_8, Action)>() as f64;
    let fused = 8.0 + 2.0 * q + 3.0 * qmax;
    match algo {
        Algo::QLearning => fused,
        Algo::SarsaQ8 => fused - 4.0,
    }
}

/// Fast-path ns/sample on one fresh bank, the image build (first call
/// minus its samples at the steady rate), and the traffic model against
/// the host's stream-triad bandwidth.
pub fn pipeline(
    bank: &Bank,
    env: &GridWorld,
    seed: u64,
    smoke: bool,
    spans: &Spans,
) -> Vec<Metric> {
    let root = spans.begin("probe.pipeline", None, 0, 0);
    let parent = root.as_ref().map(|s| s.context().span);
    let mut p = bank.pipeline(env, seed);
    let image = bank.image();
    let (_, first) = spans.time("pipeline.first_call", parent, 0, || {
        p.run_samples_fast(env, image)
    });
    let (calls, per_call) = if smoke {
        (3, image)
    } else {
        (9, image.max(1 << 20))
    };
    let per_sample: Vec<f64> = (0..calls)
        .map(|k| {
            let (_, s) = spans.time("pipeline.fast_call", parent, k, || {
                p.run_samples_fast(env, per_call)
            });
            s * 1e9 / per_call as f64
        })
        .collect();
    let (triad, _) = spans.time("probe.triad", parent, 0, || {
        stream_triad_bytes_per_sec(if smoke { 1 << 12 } else { 1 << 21 }, 3)
    });
    spans.end(root);
    let ns = quiet(&per_sample);
    let bytes = traffic_bytes_per_sample(bank.algo);
    vec![
        Metric::new(
            "pipeline.image_build_ms",
            (first - image as f64 * ns / 1e9) * 1e3,
        ),
        Metric::new("pipeline.fast_ns_per_sample", ns),
        Metric::new("pipeline.bytes_per_sample", bytes),
        Metric::new("pipeline.pct_of_triad", 100.0 * bytes * 1e9 / ns / triad),
    ]
}

/// Cumulative counters of an instrumented executor pool.
#[derive(Debug, Clone, Copy)]
pub struct ExecSnap {
    busy_ns: u64,
    idle_ns: u64,
    chunks: u64,
    wait_ns: u64,
    waits: u64,
}

impl ExecSnap {
    pub fn of(m: &ExecutorMetrics) -> Self {
        let workers = m.worker_snapshots();
        let wait = m.queue_wait_ns();
        Self {
            busy_ns: workers.iter().map(|w| w.busy_ns).sum(),
            idle_ns: workers.iter().map(|w| w.idle_ns).sum(),
            chunks: workers.iter().map(|w| w.chunks).sum(),
            wait_ns: wait.sum(),
            waits: wait.count(),
        }
    }
}

/// Executor metrics accumulated since `before`. Means come from the exact
/// busy and queue-wait sums: the pool's histograms are power-of-two
/// bucketed, too coarse to show a change between runs.
pub fn executor_metrics(m: &ExecutorMetrics, before: &ExecSnap) -> Vec<Metric> {
    let now = ExecSnap::of(m);
    let chunks = (now.chunks - before.chunks).max(1) as f64;
    let busy = (now.busy_ns - before.busy_ns) as f64;
    let idle = (now.idle_ns - before.idle_ns) as f64;
    let waits = (now.waits - before.waits).max(1) as f64;
    vec![
        Metric::new("executor.chunks", (now.chunks - before.chunks) as f64),
        Metric::new("executor.chunk_ms_mean", busy / chunks / 1e6),
        Metric::new(
            "executor.queue_wait_ms_mean",
            (now.wait_ns - before.wait_ns) as f64 / waits / 1e6,
        ),
        Metric::new("executor.busy_share", busy / (busy + idle).max(1.0)),
        Metric::new("executor.queue_depth_peak", m.queue_depth_peak() as f64),
    ]
}

/// Checkpoint encode (`checkpoint_bytes`), durable write
/// (`checkpoint::atomic_write`: write, fsync, rename, directory fsync)
/// and restore (`restore_checkpoint_bytes`) of one bank after one image's
/// worth of training. Every restore must reproduce the saved tables.
pub fn checkpoint(
    bank: &Bank,
    env: &GridWorld,
    opts: &RunOpts,
    spans: &Spans,
    tally: &mut Tally,
) -> Vec<Metric> {
    let root = spans.begin("probe.checkpoint", None, 0, 0);
    let parent = root.as_ref().map(|s| s.context().span);
    let mut src = bank.pipeline(env, opts.seed);
    src.run_samples_fast(env, bank.image());
    let mut dst = bank.pipeline(env, opts.seed);
    let path = opts.out.join(format!("probe-{}.ckpt", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        tally.record(Err(format!(
            "checkpoint probe: create {}: {e}",
            opts.out.display()
        )));
    }
    let reps = if opts.smoke { 3 } else { 7 };
    let (mut encode, mut write, mut restore, mut bytes) = (vec![], vec![], vec![], 0);
    for k in 0..reps {
        let (image, e) = spans.time("checkpoint.encode", parent, k, || src.checkpoint_bytes());
        let (written, w) = spans.time("checkpoint.write_fsync", parent, k, || {
            atomic_write(&path, &image)
        });
        let (restored, r) = spans.time("checkpoint.restore", parent, k, || {
            dst.restore_checkpoint_bytes(&image)
        });
        let outcome = match (written, restored) {
            (Err(e), _) | (_, Err(e)) => Err(format!("checkpoint probe: {e}")),
            _ if dst.q_table() != src.q_table() || dst.qmax_table() != src.qmax_table() => {
                Err("checkpoint probe: restored tables differ from the saved ones".into())
            }
            _ => Ok(()),
        };
        tally.record(outcome);
        bytes = image.len();
        encode.push(e);
        write.push(w);
        restore.push(r);
    }
    let _ = std::fs::remove_file(&path);
    spans.end(root);
    let ms = |v: &[f64]| quiet(v) * 1e3;
    vec![
        Metric::new("checkpoint.bytes", bytes as f64),
        Metric::new("checkpoint.encode_ms", ms(&encode)),
        Metric::new(
            "checkpoint.encode_mb_per_s",
            bytes as f64 / 1e6 / (ms(&encode) / 1e3),
        ),
        Metric::new("checkpoint.write_fsync_ms", ms(&write)),
        Metric::new("checkpoint.restore_ms", ms(&restore)),
    ]
}

/// The whole-lease metric contribution a cluster worker ships in its
/// `LeaseDone` (the same two counters `qtaccel_cluster::worker` sets).
fn lease_delta(samples: u64) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.set_counter(
        "qtaccel_samples_total",
        "samples retired by this lease from shard birth",
        samples,
    );
    reg.set_counter(
        "qtaccel_lease_completions_total",
        "leases sealed and reported by this worker",
        1,
    );
    reg
}

/// Encode and decode nanoseconds of the three frames a lease exchanges;
/// each frame must first decode back to itself.
pub fn wire(smoke: bool, spans: &Spans, tally: &mut Tally) -> Vec<Metric> {
    let root = spans.begin("probe.wire", None, 0, 0);
    let parent = root.as_ref().map(|s| s.context().span);
    let frames = [
        (
            ["wire.lease.encode", "wire.lease.decode"],
            ["wire.lease_encode_ns", "wire.lease_decode_ns"],
            FramePayload::Lease {
                lease: 5,
                epoch: 1,
                budget: 1 << 21,
                checkpoint_every: 1 << 18,
            },
        ),
        (
            ["wire.progress.encode", "wire.progress.decode"],
            ["wire.progress_encode_ns", "wire.progress_decode_ns"],
            FramePayload::Progress {
                lease: 5,
                epoch: 1,
                samples: 1 << 20,
            },
        ),
        (
            ["wire.lease_done.encode", "wire.lease_done.decode"],
            ["wire.lease_done_encode_ns", "wire.lease_done_decode_ns"],
            FramePayload::LeaseDone {
                lease: 5,
                epoch: 1,
                samples: 1 << 21,
                delta: lease_delta(1 << 21),
            },
        ),
    ];
    let iters: u32 = if smoke { 100 } else { 20_000 };
    let mut metrics = Vec::new();
    for (k, ([enc_span, dec_span], [enc_name, dec_name], payload)) in frames.into_iter().enumerate()
    {
        let frame = Frame {
            worker: 1,
            seq: 7,
            payload,
        };
        let bytes = frame.encode();
        tally.record(match Frame::decode(&bytes) {
            Ok(d) if d == frame => Ok(()),
            Ok(_) => Err(format!(
                "{enc_name}: decoded frame differs from the encoded one"
            )),
            Err(e) => Err(format!("{enc_name}: {e}")),
        });
        // Five batches of `iters` calls, each batch one span.
        let per_call = |span: &'static str, f: &dyn Fn()| -> f64 {
            let per: Vec<f64> = (0..5)
                .map(|b| {
                    let (_, s) = spans.time(span, parent, (k * 5 + b) as u64, || {
                        (0..iters).for_each(|_| f())
                    });
                    s * 1e9 / f64::from(iters)
                })
                .collect();
            quiet(&per)
        };
        let enc = per_call(enc_span, &|| {
            std::hint::black_box(std::hint::black_box(&frame).encode());
        });
        let dec = per_call(dec_span, &|| {
            let _ = std::hint::black_box(Frame::decode(std::hint::black_box(&bytes)));
        });
        metrics.push(Metric::new(enc_name, enc));
        metrics.push(Metric::new(dec_name, dec));
    }
    spans.end(root);
    metrics
}
