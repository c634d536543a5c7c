//! Aggregate-throughput scaling curves for the scale-out executor.
//!
//! Sweeps pipeline count × worker-thread count × Table I per-bank sizes,
//! driving [`IndependentPipelines::train_batch`] on a dedicated
//! [`ShardedExecutor`] pinned to each worker count, and records for
//! every point the aggregate host samples/sec, the speedup over the
//! single-thread fast path at the same bank size, and the parallel
//! efficiency (speedup / workers).
//!
//! `--quick` trims the sweep (keeping the gate point), lowers run
//! counts, and writes `results/BENCH_scaling_quick.json` so the tracked
//! workspace-root `BENCH_scaling.json` baseline only ever records the
//! full sweep.
//!
//! `--check-baseline` re-parses the committed `BENCH_scaling.json` and
//! exits non-zero if this run's aggregate rate at the gate point fell
//! more than 5 % below the recorded value (best-of-N re-measurement, up
//! to 4 retries, before failing — host timings on a shared box are
//! noisy). Baselines are same-machine comparisons: the manifest records
//! `host_parallelism` and `worker_threads` so a JSON moved across
//! machines is recognizably foreign.
//!
//! `--threads N` restricts the worker sweep (and the gate point) to a
//! single worker count, recorded in the manifest. Every measured point
//! builds its own pool, so nothing this binary times runs on the
//! process-global one. Combining it with `--check-baseline` compares
//! against whatever gate config the committed baseline recorded, so the
//! guard in `scripts/verify.sh` runs without `--threads`.
//!
//! `--metrics-addr ADDR` (e.g. `127.0.0.1:0`) serves the run's latency
//! probe as an OpenMetrics scrape endpoint until the process exits; the
//! same probe's histogram summaries land in the report's `latency`
//! block either way (DESIGN.md §2.10).

use qtaccel_accel::executor::ShardedExecutor;
use qtaccel_accel::{AccelConfig, IndependentPipelines, QLearningAccel};
use qtaccel_bench::grids::paper_grid;
use qtaccel_bench::impl_to_json;
use qtaccel_bench::metrics::{measure_latency, serve_metrics};
use qtaccel_bench::report::{check_floor, fmt_rate, results_dir};
use qtaccel_bench::timing::bench;
use qtaccel_fixed::Q8_8;
use qtaccel_telemetry::{json, manifest, Json, ToJson};
use std::path::Path;
use std::path::PathBuf;
use std::sync::Arc;

const ACTIONS: usize = 8;
/// The regression gate pins this sweep point: 4 banks × 4 workers at
/// |S| = 4096 per bank (16384 states aggregate — the same total state
/// space as `bench_throughput`'s gate).
const GATE_PIPES: usize = 4;
const GATE_WORKERS: usize = 4;
const GATE_BANK_STATES: usize = 4096;

#[derive(Debug)]
struct BaselineRow {
    bank_states: usize,
    /// Single pipeline, no executor, fast path on the calling thread —
    /// the denominator every speedup in `rows` is measured against.
    fast_samples_per_sec: f64,
}
impl_to_json!(BaselineRow {
    bank_states,
    fast_samples_per_sec
});

#[derive(Debug)]
struct ScaleRow {
    pipelines: usize,
    workers: usize,
    bank_states: usize,
    total_states: usize,
    samples_per_run: u64,
    aggregate_samples_per_sec: f64,
    ns_per_sample: f64,
    /// Aggregate rate over the single-thread fast path at this bank size.
    speedup_vs_fast_1t: f64,
    /// `speedup_vs_fast_1t / workers` — 1.0 is perfect scaling.
    parallel_efficiency: f64,
}
impl_to_json!(ScaleRow {
    pipelines,
    workers,
    bank_states,
    total_states,
    samples_per_run,
    aggregate_samples_per_sec,
    ns_per_sample,
    speedup_vs_fast_1t,
    parallel_efficiency,
});

#[derive(Debug)]
struct Report {
    quick: bool,
    actions: usize,
    runs: usize,
    baselines: Vec<BaselineRow>,
    rows: Vec<ScaleRow>,
    gate_pipelines: usize,
    gate_workers: usize,
    gate_bank_states: usize,
    gate_aggregate_rate: f64,
    gate_speedup: f64,
    /// Latency-probe histogram summaries (chunk service, queue wait,
    /// stall run lengths) from `qtaccel_bench::metrics::measure_latency`
    /// — DESIGN.md §2.10.
    latency: Json,
    /// Provenance plus `host_parallelism` / `worker_threads` — the pair
    /// that makes a recorded efficiency figure reproducible.
    manifest: Json,
}
impl_to_json!(Report {
    quick,
    actions,
    runs,
    baselines,
    rows,
    gate_pipelines,
    gate_workers,
    gate_bank_states,
    gate_aggregate_rate,
    gate_speedup,
    latency,
    manifest,
});

/// Samples per timed invocation for a sweep point: enough to amortize
/// pool hand-off and keep every shard busy for multiple chunks, scaled
/// down in quick mode.
fn samples_for(quick: bool, pipes: usize) -> u64 {
    let per_bank: u64 = if quick { 400_000 } else { 1 << 20 };
    per_bank * pipes as u64
}

/// Single-pipeline single-thread fast-path rate at `bank_states` — the
/// speedup denominator.
fn measure_baseline(bank_states: usize, samples: u64, runs: usize) -> BaselineRow {
    let g = paper_grid(bank_states, ACTIONS);
    let mut a = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default());
    let r = bench(
        &format!("baseline/{bank_states}/fast-1t"),
        samples,
        runs,
        || {
            a.train_samples_fast(&g, samples);
        },
    );
    println!("{}", r.summary());
    BaselineRow {
        bank_states,
        fast_samples_per_sec: r.elements_per_sec(),
    }
}

/// One sweep point: `pipes` banks at `bank_states` each, trained as one
/// `train_batch` on a pool pinned to `workers` threads.
fn measure_scale(
    pipes: usize,
    workers: usize,
    bank_states: usize,
    samples: u64,
    runs: usize,
    baseline_rate: f64,
) -> ScaleRow {
    let envs: Vec<_> = (0..pipes)
        .map(|_| paper_grid(bank_states, ACTIONS))
        .collect();
    let pool = Arc::new(ShardedExecutor::new(workers));
    let mut acc =
        IndependentPipelines::<Q8_8>::new(&envs, AccelConfig::default()).with_executor(pool);
    let r = bench(
        &format!("scale/p{pipes}/w{workers}/{bank_states}"),
        samples,
        runs,
        || {
            acc.train_batch(&envs, samples);
        },
    );
    println!("{}", r.summary());
    let speedup = r.elements_per_sec() / baseline_rate;
    ScaleRow {
        pipelines: pipes,
        workers,
        bank_states,
        total_states: bank_states * pipes,
        samples_per_run: samples,
        aggregate_samples_per_sec: r.elements_per_sec(),
        ns_per_sample: r.ns_per_element(),
        speedup_vs_fast_1t: speedup,
        parallel_efficiency: speedup / workers as f64,
    }
}

/// The committed baseline's gate-point aggregate rate.
fn baseline_gate_rate(path: &Path) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v = json::parse(&text)?;
    v.get("gate_aggregate_rate")
        .and_then(|x| x.as_f64())
        .ok_or_else(|| "baseline JSON lacks gate_aggregate_rate".into())
}

fn main() {
    let mut quick = false;
    let mut check_baseline = false;
    let mut threads: Option<usize> = None;
    let mut metrics_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check-baseline" => check_baseline = true,
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("error: --threads needs a positive integer");
                        std::process::exit(2);
                    });
                threads = Some(n);
            }
            "--metrics-addr" => {
                metrics_addr = Some(args.next().unwrap_or_else(|| {
                    eprintln!("error: --metrics-addr needs an address (e.g. 127.0.0.1:0)");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "error: unknown argument `{other}` \
                     (supported: --quick, --check-baseline, --threads N, \
                     --metrics-addr ADDR)"
                );
                std::process::exit(2);
            }
        }
    }
    let host = manifest::host_parallelism() as usize;
    // Table I per-bank sizes.
    let (bank_sizes, pipe_counts, runs): (Vec<usize>, Vec<usize>, usize) = if quick {
        (vec![1024, GATE_BANK_STATES], vec![1, GATE_PIPES], 2)
    } else {
        (
            vec![1024, GATE_BANK_STATES, 16_384, 65_536],
            vec![1, 2, 4, 8],
            3,
        )
    };
    let worker_counts: Vec<usize> = match threads {
        Some(n) => vec![n],
        None => {
            let mut w = vec![1, 2, GATE_WORKERS, host];
            w.sort_unstable();
            w.dedup();
            w
        }
    };
    let gate_workers = threads.unwrap_or(GATE_WORKERS);

    println!(
        "scaling sweep: banks {bank_sizes:?} x pipes {pipe_counts:?} x workers \
         {worker_counts:?} (host parallelism {host})\n"
    );

    let baselines: Vec<BaselineRow> = bank_sizes
        .iter()
        .map(|&s| measure_baseline(s, samples_for(quick, 1), runs))
        .collect();
    let base_rate = |bank_states: usize| {
        baselines
            .iter()
            .find(|b| b.bank_states == bank_states)
            .expect("baseline measured")
            .fast_samples_per_sec
    };

    let mut rows = Vec::new();
    for &bank_states in &bank_sizes {
        for &pipes in &pipe_counts {
            for &workers in &worker_counts {
                rows.push(measure_scale(
                    pipes,
                    workers,
                    bank_states,
                    samples_for(quick, pipes),
                    runs,
                    base_rate(bank_states),
                ));
            }
        }
    }
    // The gate point may sit outside the sweep grid (e.g. --threads).
    let gate_row = measure_scale(
        GATE_PIPES,
        gate_workers,
        GATE_BANK_STATES,
        samples_for(quick, GATE_PIPES),
        runs,
        base_rate(GATE_BANK_STATES),
    );

    println!();
    for r in &rows {
        println!(
            "|S|={:<6} x{:<2} banks, {} workers: {:>12}/s  speedup {:>5.2}x  \
             efficiency {:>5.2}",
            r.bank_states,
            r.pipelines,
            r.workers,
            fmt_rate(r.aggregate_samples_per_sec),
            r.speedup_vs_fast_1t,
            r.parallel_efficiency,
        );
    }
    println!(
        "\ngate: {GATE_PIPES} banks x {gate_workers} workers at |S|={GATE_BANK_STATES}/bank: \
         {} aggregate, {:.2}x the single-thread fast path",
        fmt_rate(gate_row.aggregate_samples_per_sec),
        gate_row.speedup_vs_fast_1t,
    );

    let baseline_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scaling.json");
    // Read the committed baseline before this run can overwrite it.
    let committed = check_baseline.then(|| {
        baseline_gate_rate(&baseline_path).unwrap_or_else(|e| {
            eprintln!("error: --check-baseline: {e}");
            std::process::exit(2);
        })
    });

    // Latency probe at the gate shape (after the timed sweep so its
    // instrumented pool cannot perturb the measurements above); quick
    // mode shrinks the probe batch.
    let latency = if quick {
        measure_latency(1024, GATE_PIPES, 400_000)
    } else {
        measure_latency(GATE_BANK_STATES, GATE_PIPES, 2_000_000)
    };
    // Opt-in OpenMetrics endpoint; the server lives to the end of main
    // so `curl http://ADDR/metrics` works while the report is written.
    let _metrics_server =
        metrics_addr.map(|addr| serve_metrics(&addr, |reg| latency.register_into(reg)));

    let report = Report {
        quick,
        actions: ACTIONS,
        runs,
        baselines,
        rows,
        gate_pipelines: GATE_PIPES,
        gate_workers,
        gate_bank_states: GATE_BANK_STATES,
        gate_aggregate_rate: gate_row.aggregate_samples_per_sec,
        gate_speedup: gate_row.speedup_vs_fast_1t,
        latency: latency.to_json(),
        manifest: manifest::provenance_with_workers(gate_workers as u64),
    };
    let path: PathBuf = if quick {
        results_dir().join("BENCH_scaling_quick.json")
    } else {
        baseline_path
    };
    std::fs::write(&path, report.to_json().pretty()).expect("write scaling report");
    println!("wrote {}", path.display());

    if let Some(base) = committed {
        let held = check_floor("gate aggregate", base, report.gate_aggregate_rate, || {
            measure_scale(
                GATE_PIPES,
                gate_workers,
                GATE_BANK_STATES,
                samples_for(quick, GATE_PIPES),
                runs,
                1.0,
            )
            .aggregate_samples_per_sec
        });
        if !held {
            std::process::exit(1);
        }
    }
}
