//! Tracked throughput baseline for the two-speed simulation engine.
//!
//! Sweeps Table I state-space sizes × {Q-Learning, SARSA} × the two
//! executors (cycle-accurate `train_samples`, fast-path
//! `train_samples_fast`), measuring host samples/sec with the
//! dependency-free [`qtaccel_bench::timing`] harness alongside the
//! modeled hardware MS/s, and writes `BENCH_throughput.json` at the
//! workspace root so regressions in either engine are visible in diffs.
//!
//! `--quick` trims the sweep (but always keeps the |S| = 16384 point the
//! acceptance gate is pinned to), lowers the run count, and writes the
//! report to `results/BENCH_throughput_quick.json` so the tracked
//! workspace-root baseline is never clobbered by a reduced run.
//!
//! `--check-baseline` re-parses the committed `BENCH_throughput.json`
//! and exits non-zero if this run's uninstrumented (NullSink) fast-path
//! rate at the gate point fell more than 5 % below the recorded
//! baseline — the guard `scripts/verify.sh` runs so telemetry can never
//! silently tax the disabled-sink fast path. Because host timings on a
//! shared box swing one-shot readings by tens of percent, a below-floor
//! sample triggers best-of-N re-measurement (up to 4 retries) before the
//! guard fails.
//!
//! The sweep also measures the **quantized** fast path (DESIGN.md
//! §2.14) at both anchor rows: `fast_q8` / `fast_q6` / `fast_q4` rows
//! run the stall-free kernel over 8/6/4-bit stored Q entries with the
//! stochastic rounder on every writeback.
//! `--check-baseline` also guards the roof-row `fast_q8` row against its
//! committed baseline (no >5 % regression, best-of-N like the NullSink
//! guard, skipped loudly when the baseline predates the packed rows).
//! Both guards run and print their verdicts; the process exits 1 after
//! the second if either failed.
//!
//! Alongside the throughput rows the report carries a **roofline**
//! section: a STREAM-triad probe measures the host's sustainable
//! bandwidth, each row's architectural traffic (the kernel image's
//! 4-byte transition word + Q read/write + Qmax read-modify-write per
//! sample) converts its rate to achieved bytes/sec, and percent-of-roof
//! says how close each executor sits to the memory ceiling.
//!
//! The emitted report carries a telemetry block (the perf-counter dump
//! of an instrumented re-run at the gate point plus the config that
//! produced it) and a provenance manifest (git commit + timestamp +
//! host parallelism). No worker pool runs the sweep, so the manifest
//! carries no worker-thread count.
//!
//! `--metrics-addr ADDR` (e.g. `127.0.0.1:0`) serves the run's latency
//! probe as an OpenMetrics scrape endpoint until the process exits; the
//! same probe's histogram summaries land in the report's `latency`
//! block either way (DESIGN.md §2.10).

use qtaccel_accel::pipeline::Fixture;
use qtaccel_accel::{AccelConfig, QLearningAccel, QrlAccel, SarsaAccel};
use qtaccel_bench::grids::paper_grid;
use qtaccel_bench::impl_to_json;
use qtaccel_bench::metrics::{measure_latency, register_build_info, serve_metrics};
use qtaccel_bench::paper::TABLE1_STATES;
use qtaccel_bench::report::{baseline_rate, check_floor, fmt_rate, results_dir};
use qtaccel_bench::timing::{bench, stream_triad_bytes_per_sec, BenchResult};
use qtaccel_envs::GridWorld;
use qtaccel_fixed::{QuantPolicy, Q8_8};
use qtaccel_telemetry::{
    manifest, CountersOnly, HealthConfig, HealthSink, Json, NullSink, ToJson, Watchdog,
    WatchdogConfig,
};
use std::path::Path;
use std::path::PathBuf;

const ACTIONS: usize = 8;
/// The acceptance gate compares the two executors at this size.
const GATE_STATES: usize = 16_384;
/// The roofline row: the largest Table I size, whose tables spill the
/// cache hierarchy on typical hosts — where the packed `fast_q8`
/// `--check-baseline` guard is anchored.
const ROOF_STATES: usize = 262_144;

#[derive(Debug)]
struct EngineRow {
    algorithm: &'static str,
    states: usize,
    actions: usize,
    engine: &'static str,
    samples_per_run: u64,
    host_samples_per_sec: f64,
    ns_per_sample: f64,
    modeled_msps: f64,
}
impl_to_json!(EngineRow {
    algorithm,
    states,
    actions,
    engine,
    samples_per_run,
    host_samples_per_sec,
    ns_per_sample,
    modeled_msps,
});

#[derive(Debug)]
struct SpeedupRow {
    algorithm: &'static str,
    states: usize,
    fast_over_cycle: f64,
}
impl_to_json!(SpeedupRow {
    algorithm,
    states,
    fast_over_cycle
});

/// One roofline entry: a throughput row's rate converted to memory
/// traffic against the measured host stream bandwidth.
#[derive(Debug)]
struct RooflineRow {
    algorithm: &'static str,
    states: usize,
    engine: &'static str,
    bytes_per_sample: f64,
    achieved_bytes_per_sec: f64,
    percent_of_roof: f64,
}
impl_to_json!(RooflineRow {
    algorithm,
    states,
    engine,
    bytes_per_sample,
    achieved_bytes_per_sec,
    percent_of_roof,
});

#[derive(Debug)]
struct Report {
    quick: bool,
    actions: usize,
    runs: usize,
    samples_per_run: u64,
    rows: Vec<EngineRow>,
    speedups: Vec<SpeedupRow>,
    /// Worst fast/cycle-accurate ratio across algorithms at |S| = 16384
    /// (reported, not gated).
    gate_states: usize,
    gate_speedup: f64,
    /// Host stream-bandwidth roof plus per-row achieved traffic.
    roofline: Json,
    /// Perf-counter dump of an instrumented re-run at the gate point
    /// (DESIGN.md §2.6) plus the config that produced it.
    telemetry: Json,
    /// Training-health dump of a probed (HealthSink) re-run at the gate
    /// point — probe snapshot plus one watchdog pass (DESIGN.md §2.13).
    health: Json,
    /// Latency-probe histogram summaries (chunk service, queue wait,
    /// stall run lengths) from `qtaccel_bench::metrics::measure_latency`
    /// — DESIGN.md §2.10.
    latency: Json,
    /// Git commit / dirty flag / timestamp of the producing tree.
    manifest: Json,
}
impl_to_json!(Report {
    quick,
    actions,
    runs,
    samples_per_run,
    rows,
    speedups,
    gate_states,
    gate_speedup,
    roofline,
    telemetry,
    health,
    latency,
    manifest,
});

/// Measure one row: a fresh `algorithm` engine on a `states`×8 paper
/// grid, timed over `runs` training calls of `samples` updates each
/// through `engine` — the cycle-accurate engine (`cycle_accurate`), the
/// fast path (`fast`), or the quantized fast path (`fast_q8`, `fast_q6`,
/// `fast_q4`, DESIGN.md §2.14: the stall-free kernel over 8/6/4-bit
/// stored Q entries, with the stochastic rounder on every writeback).
/// The modeled MS/s comes from the engine's quant-aware resource model
/// (the narrowed BRAM word raises the modeled fmax/banking headroom at
/// BRAM-bound sizes).
fn measure(
    algorithm: &'static str,
    engine: &'static str,
    states: usize,
    samples: u64,
    runs: usize,
) -> EngineRow {
    let g = paper_grid(states, ACTIONS);
    let cfg = AccelConfig::default();
    let label = format!("{algorithm}/{states}/{engine}");
    let (result, modeled_msps) = match algorithm {
        "q_learning" => {
            let a = QLearningAccel::new(&g, cfg);
            time_engine(a, &g, &label, engine, samples, runs)
        }
        "sarsa" => {
            let a = SarsaAccel::new(&g, cfg, 0.1);
            time_engine(a, &g, &label, engine, samples, runs)
        }
        _ => unreachable!(),
    };
    println!("{}", result.summary());
    EngineRow {
        algorithm,
        states,
        actions: ACTIONS,
        engine,
        samples_per_run: samples,
        host_samples_per_sec: result.elements_per_sec(),
        ns_per_sample: result.ns_per_element(),
        modeled_msps,
    }
}

/// Time `engine`'s training call on `a` (see [`measure`]) and read the
/// engine's modeled MS/s.
fn time_engine<A: Fixture>(
    mut a: QrlAccel<Q8_8, NullSink, A>,
    g: &GridWorld,
    label: &str,
    engine: &str,
    samples: u64,
    runs: usize,
) -> (BenchResult, f64) {
    let quant = match engine {
        "fast_q8" => Some(QuantPolicy::q8()),
        "fast_q6" => Some(QuantPolicy::q6()),
        "fast_q4" => Some(QuantPolicy::q4()),
        _ => None,
    };
    if let Some(policy) = quant {
        a.enable_quant(policy);
    }
    let cycle_accurate = engine == "cycle_accurate";
    let result = bench(label, samples, runs, || {
        if cycle_accurate {
            a.train_samples(g, samples);
        } else {
            a.train_samples_fast(g, samples);
        }
    });
    (result, a.resources().throughput_msps)
}

/// Architectural memory traffic per sample, in bytes: the kernel
/// image's 4-byte transition word (next state, terminal flag, α·R
/// index), the Q-entry read-modify-write, the Qmax read-modify-write,
/// and the update-policy Qmax read. This counts
/// bytes the executor *touches* — caches may serve part of it, so
/// percent-of-roof is a traffic-model figure, most meaningful at sizes
/// whose tables spill the cache (the gate row and above).
fn traffic_bytes_per_sample() -> f64 {
    let q = std::mem::size_of::<Q8_8>() as f64;
    let qmax = std::mem::size_of::<(Q8_8, qtaccel_envs::Action)>() as f64;
    4.0 + 2.0 * q + 3.0 * qmax
}

/// Instrumented (CountersOnly) re-run at the gate point: the counter
/// dump plus the exact config it ran under, for the report's
/// `telemetry` block.
fn gate_counter_dump(samples: u64) -> Json {
    let g = paper_grid(GATE_STATES, ACTIONS);
    let cfg = AccelConfig::default();
    let mut a = QLearningAccel::<Q8_8, CountersOnly>::with_sink(&g, cfg, CountersOnly);
    a.train_samples_fast(&g, samples);
    Json::Obj(vec![
        ("algorithm", "q_learning".to_json()),
        ("engine", "fast".to_json()),
        ("states", GATE_STATES.to_json()),
        ("actions", ACTIONS.to_json()),
        ("samples", samples.to_json()),
        ("seed", cfg.trainer.seed.to_json()),
        ("hazard", format!("{:?}", cfg.hazard).to_json()),
        ("counters", a.counters().to_json()),
    ])
}

/// Health-probed (HealthSink) re-run at the gate point: probe snapshot
/// plus one watchdog pass over it, for the report's `health` block
/// (DESIGN.md §2.13). An attached probe forces the cycle-accurate
/// engine, so this runs off the timed sweep and never touches the gated
/// NullSink measurements.
fn gate_health_dump(samples: u64) -> Json {
    let g = paper_grid(GATE_STATES, ACTIONS);
    let cfg = AccelConfig::default();
    let mut a = QLearningAccel::<Q8_8, HealthSink>::with_sink(
        &g,
        cfg,
        HealthSink::new(HealthConfig::default()),
    );
    a.train_samples_fast(&g, samples);
    let probe = a.health_probe().expect("health sink attached");
    let mut wd = Watchdog::new(WatchdogConfig::default());
    wd.check(probe, 0);
    Json::Obj(vec![
        ("states", GATE_STATES.to_json()),
        ("samples", samples.to_json()),
        ("seed", cfg.trainer.seed.to_json()),
        ("snapshot", probe.snapshot().to_json()),
        (
            "alerts",
            Json::Arr(wd.alerts().iter().map(|al| al.to_json()).collect()),
        ),
        ("watchdog_windows", wd.windows().to_json()),
    ])
}

fn main() {
    let mut quick = false;
    let mut check_baseline = false;
    let mut metrics_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check-baseline" => check_baseline = true,
            "--metrics-addr" => {
                metrics_addr = Some(args.next().unwrap_or_else(|| {
                    eprintln!("error: --metrics-addr needs an address (e.g. 127.0.0.1:0)");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "error: unknown argument `{other}` \
                     (supported: --quick, --check-baseline, --metrics-addr ADDR)"
                );
                std::process::exit(2);
            }
        }
    }
    // Per measured row, the sample count is floored at |S|·|A| (see
    // `row_samples`) so the fast path's one-time environment-image
    // build is amortized at every size — without the floor, quick
    // runs read the big rows tens of percent low and their absolutes
    // are not comparable with the full-run baselines the
    // `--check-baseline` guards parse.
    let (sizes, samples, runs): (Vec<usize>, u64, usize) = if quick {
        // Quick keeps both anchor rows: the acceptance-gate size and the
        // roof size the fast_q8 guard reads.
        (vec![64, 1024, GATE_STATES, ROOF_STATES], 400_000, 3)
    } else {
        (TABLE1_STATES.to_vec(), 2_097_152, 5)
    };
    assert!(
        sizes.contains(&GATE_STATES),
        "sweep must include the gate size"
    );
    assert!(
        sizes.contains(&ROOF_STATES),
        "sweep must include the roof size"
    );
    let row_samples = |states: usize| samples.max((states * ACTIONS) as u64);

    let mut rows = Vec::new();
    for &states in &sizes {
        for algorithm in ["q_learning", "sarsa"] {
            for engine in ["cycle_accurate", "fast"] {
                rows.push(measure(
                    algorithm,
                    engine,
                    states,
                    row_samples(states),
                    runs,
                ));
            }
        }
    }
    // Quantized rows (DESIGN.md §2.14): the 8/6/4-bit stored formats
    // through the stall-free kernel, at both anchor rows. The
    // `--check-baseline` packed guard reads the roof row.
    for &states in &[GATE_STATES, ROOF_STATES] {
        for engine in ["fast_q8", "fast_q6", "fast_q4"] {
            rows.push(measure(
                "q_learning",
                engine,
                states,
                row_samples(states),
                runs,
            ));
        }
    }

    let rate = |algorithm: &str, engine: &str, states: usize| {
        rows.iter()
            .find(|r| r.algorithm == algorithm && r.engine == engine && r.states == states)
            .expect("row measured")
            .host_samples_per_sec
    };
    let mut speedups = Vec::new();
    for &states in &sizes {
        for algorithm in ["q_learning", "sarsa"] {
            speedups.push(SpeedupRow {
                algorithm,
                states,
                fast_over_cycle: rate(algorithm, "fast", states)
                    / rate(algorithm, "cycle_accurate", states),
            });
        }
    }
    let gate_speedup = speedups
        .iter()
        .filter(|s| s.states == GATE_STATES)
        .map(|s| s.fast_over_cycle)
        .fold(f64::INFINITY, f64::min);

    println!();
    for s in &speedups {
        println!(
            "{:<12} |S|={:<7} fast is {:>5.1}x the cycle-accurate engine",
            s.algorithm, s.states, s.fast_over_cycle
        );
    }
    println!(
        "\ngate: worst fast/cycle ratio at |S|={GATE_STATES}, |A|={ACTIONS}: {:.1}x \
         (cycle {} -> fast {})",
        gate_speedup,
        fmt_rate(rate("q_learning", "cycle_accurate", GATE_STATES)),
        fmt_rate(rate("q_learning", "fast", GATE_STATES)),
    );

    let gate_fast_measured = rate("q_learning", "fast", GATE_STATES);
    let roof_q8_rate = rate("q_learning", "fast_q8", ROOF_STATES);
    let baseline_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_throughput.json");
    // Read the committed baselines before they can be overwritten below.
    let committed_packed = baseline_rate(&baseline_path, "fast_q8", ROOF_STATES);
    let baseline = check_baseline.then(|| {
        baseline_rate(&baseline_path, "fast", GATE_STATES).unwrap_or_else(|e| {
            eprintln!("error: --check-baseline: {e}");
            std::process::exit(2);
        })
    });

    // Roofline: host stream bandwidth (after the timed sweep, so the
    // probe's 48 MB working set cannot perturb the measurements above)
    // and each row's architectural traffic against it.
    let (triad_elements, triad_runs) = (1usize << 21, if quick { 3 } else { 5 });
    let triad = stream_triad_bytes_per_sec(triad_elements, triad_runs);
    let bytes_per_sample = traffic_bytes_per_sample();
    let roof_rows: Vec<RooflineRow> = rows
        .iter()
        .map(|r| {
            // Every row reads the same image word; a quantized row's Q
            // column stays working-format on the host (DESIGN.md §2.14).
            let achieved = r.host_samples_per_sec * bytes_per_sample;
            RooflineRow {
                algorithm: r.algorithm,
                states: r.states,
                engine: r.engine,
                bytes_per_sample,
                achieved_bytes_per_sec: achieved,
                percent_of_roof: 100.0 * achieved / triad,
            }
        })
        .collect();
    println!(
        "roofline: stream triad {}/s; traffic model {bytes_per_sample} B/sample",
        fmt_rate(triad),
    );
    for rr in roof_rows.iter().filter(|rr| {
        (rr.states == GATE_STATES || rr.states == ROOF_STATES)
            && rr.engine != "cycle_accurate"
            && rr.algorithm == "q_learning"
    }) {
        println!(
            "  {:<12} |S|={:<7} {:<12} {:>10}/s = {:>5.1}% of roof",
            rr.algorithm,
            rr.states,
            rr.engine,
            fmt_rate(rr.achieved_bytes_per_sec),
            rr.percent_of_roof,
        );
    }
    let roofline = Json::Obj(vec![
        ("triad_bytes_per_sec", triad.to_json()),
        ("triad_elements", triad_elements.to_json()),
        ("triad_runs", triad_runs.to_json()),
        (
            "traffic_note",
            "bytes_per_sample counts architectural traffic (4-byte \
             transition word + Q read/write + Qmax RMW + update-policy \
             Qmax read); caches may serve part of it, so percent_of_roof \
             is a model figure, most meaningful at cache-spilling sizes"
                .to_json(),
        ),
        ("rows", roof_rows.to_json()),
    ]);

    // Latency probe (after the timed sweep so its instrumented pool
    // cannot perturb the measurements above): chunk-service / queue-wait
    // / stall-run-length histograms for the report and, when requested,
    // the scrape endpoint. Quick mode shrinks the probe batch.
    let latency = if quick {
        measure_latency(1024, 4, 400_000)
    } else {
        measure_latency(GATE_STATES / 4, 4, 2_000_000)
    };
    // Opt-in OpenMetrics endpoint; the server lives to the end of main
    // so `curl http://ADDR/metrics` works while the report is written.
    let _metrics_server = metrics_addr.map(|addr| {
        serve_metrics(&addr, |reg| {
            latency.register_into(reg);
            register_build_info(reg, &AccelConfig::default());
        })
    });

    let report = Report {
        quick,
        actions: ACTIONS,
        runs,
        samples_per_run: samples,
        rows,
        speedups,
        gate_states: GATE_STATES,
        gate_speedup,
        roofline,
        telemetry: gate_counter_dump(samples),
        health: gate_health_dump(samples),
        latency: latency.to_json(),
        manifest: manifest::provenance(),
    };
    // Quick runs land in results/ so the tracked workspace-root baseline
    // only ever records the full sweep.
    let path: PathBuf = if quick {
        results_dir().join("BENCH_throughput_quick.json")
    } else {
        baseline_path
    };
    std::fs::write(&path, report.to_json_pretty()).expect("write throughput report");
    println!("wrote {}", path.display());

    if let Some(base) = baseline {
        // Bind both verdicts before testing them: `&&` over the two
        // calls would skip the second guard whenever the first fails.
        let null_held = check_floor("NullSink fast path", base, gate_fast_measured, || {
            measure("q_learning", "fast", GATE_STATES, samples, runs).host_samples_per_sec
        });
        // The packed quantized guard (DESIGN.md §2.14) at the roof row,
        // skipped loudly when the baseline predates the packed rows.
        let packed_held = match committed_packed {
            Ok(base) => check_floor("packed fast_q8", base, roof_q8_rate, || {
                let samples = row_samples(ROOF_STATES);
                measure("q_learning", "fast_q8", ROOF_STATES, samples, runs).host_samples_per_sec
            }),
            Err(e) => {
                println!("baseline check: skipping packed floor ({e})");
                true
            }
        };
        if !(null_held && packed_held) {
            std::process::exit(1);
        }
    }
}

/// Small helper so `main` does not need the trait in scope twice.
trait ToPretty {
    fn to_json_pretty(&self) -> String;
}
impl<T: qtaccel_bench::report::ToJson> ToPretty for T {
    fn to_json_pretty(&self) -> String {
        self.to_json().pretty()
    }
}
