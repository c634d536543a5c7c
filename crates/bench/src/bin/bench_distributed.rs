//! Distributed-cluster campaign and chaos harness (DESIGN.md §2.16).
//!
//! Two jobs in one binary:
//!
//! * **Parent** (default): stands up a real `qtaccel_cluster`
//!   coordinator and real worker *processes* (this same executable
//!   re-executed with `--worker`), measures aggregate samples/sec vs
//!   process count, and — with `--chaos` — SIGKILLs workers mid-lease,
//!   partitions one (silent stall forcing the heartbeat deadline) and
//!   injects wire garbage, then proves the final merged Q/Qmax images
//!   are **bit-identical** to the single-process reference with
//!   `qtaccel_samples_total` equal to the budget exactly.
//! * **Child** (`--worker <id>`): one cluster worker process; every
//!   spec field arrives on argv so parent and child rebuild the
//!   identical workload (and the hello-ack hash check proves it).
//!
//! `--quick` writes `results/BENCH_distributed_quick.json`; the full
//! run writes the tracked `BENCH_distributed.json` at the workspace
//! root. Exits non-zero if any correctness gate fails.
//!
//! Honest-gate note: CI hosts for this repo are often single-core, so
//! the scaling sweep is *reported* but never gated — on one core, P
//! processes contend for the same cycles and fsync bandwidth and no
//! speedup is expected. Every gate here is a correctness gate.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qtaccel_bench::impl_to_json;
use qtaccel_bench::report::results_dir;
use qtaccel_cluster::{
    run_worker, ChaosMode, ClusterSpec, Coordinator, CoordinatorConfig, WorkerConfig,
};
use qtaccel_telemetry::{manifest, Json, MetricValue, ToJson};

/// The corrupt clients the chaos leg injects on the control port, one
/// connection each: a non-QTACWIRE peer, and valid magic followed by
/// silence mid-header (a torn frame). Each must count as a decode error.
const CORRUPT_CLIENTS: [&[u8]; 2] = [b"POST /qtable HTTP/1.1\r\n\r\n", b"QTACWIRE"];

/// One scaling-sweep row: a clean cluster run at a given process count.
#[derive(Debug)]
struct ScaleRow {
    workers: usize,
    samples: u64,
    wall_ms: f64,
    samples_per_sec: f64,
    bit_exact: bool,
}
impl_to_json!(ScaleRow {
    workers,
    samples,
    wall_ms,
    samples_per_sec,
    bit_exact
});

/// The chaos leg's observed counters and verdicts.
#[derive(Debug)]
struct ChaosReport {
    workers_killed: u64,
    stalled_partitions: u64,
    corrupt_clients: u64,
    leases_reassigned: u64,
    deadline_expirations: u64,
    refused_frames: u64,
    decode_errors: u64,
    recovery_events: u64,
    recovery_ms_p50: f64,
    recovery_ms_p99: f64,
    merged_samples_total: u64,
    budget: u64,
    bit_exact: bool,
}
impl_to_json!(ChaosReport {
    workers_killed,
    stalled_partitions,
    corrupt_clients,
    leases_reassigned,
    deadline_expirations,
    refused_frames,
    decode_errors,
    recovery_events,
    recovery_ms_p50,
    recovery_ms_p99,
    merged_samples_total,
    budget,
    bit_exact
});

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn samples_total(reg: &qtaccel_telemetry::MetricsRegistry) -> u64 {
    match reg.get("qtaccel_samples_total") {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

fn bit_exact(spec: &ClusterSpec, dir: &Path) -> bool {
    let reference = spec.reference_tables();
    match spec.restore_final_tables(dir) {
        Ok(cluster) => reference == cluster,
        Err(_) => false,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qtaccel-bench-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk bench dir");
    dir
}

/// Spawn one worker child: this executable re-executed with the full
/// spec on argv. `stall_ms > 0` arms the partition chaos mode.
fn spawn_worker(spec: &ClusterSpec, addr: &str, dir: &Path, id: u64, stall_ms: u64) -> Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.arg("--worker")
        .arg(id.to_string())
        .arg("--addr")
        .arg(addr)
        .arg("--dir")
        .arg(dir)
        .arg("--seed")
        .arg(spec.seed.to_string())
        .arg("--width")
        .arg(spec.width.to_string())
        .arg("--height")
        .arg(spec.height.to_string())
        .arg("--tiles-x")
        .arg(spec.tiles_x.to_string())
        .arg("--tiles-y")
        .arg(spec.tiles_y.to_string())
        .arg("--obstacle-pct")
        .arg(spec.obstacle_pct.to_string())
        .arg("--total-samples")
        .arg(spec.total_samples.to_string())
        .arg("--checkpoint-every")
        .arg(spec.checkpoint_every.to_string());
    if stall_ms > 0 {
        cmd.arg("--stall-ms").arg(stall_ms.to_string());
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker child")
}

/// Child entry: parse the spec off argv and serve leases until the
/// coordinator closes the run.
fn worker_main(args: &[String]) -> ! {
    let mut id = 0u64;
    let mut addr = String::new();
    let mut dir = PathBuf::new();
    let mut stall_ms = 0u64;
    let mut spec = ClusterSpec {
        seed: 0,
        width: 0,
        height: 0,
        tiles_x: 0,
        tiles_y: 0,
        obstacle_pct: 0,
        total_samples: 0,
        checkpoint_every: 0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
                .clone()
        };
        match arg.as_str() {
            "--worker" => id = val("--worker").parse().expect("worker id"),
            "--addr" => addr = val("--addr"),
            "--dir" => dir = PathBuf::from(val("--dir")),
            "--stall-ms" => stall_ms = val("--stall-ms").parse().expect("stall ms"),
            "--seed" => spec.seed = val("--seed").parse().expect("seed"),
            "--width" => spec.width = val("--width").parse().expect("width"),
            "--height" => spec.height = val("--height").parse().expect("height"),
            "--tiles-x" => spec.tiles_x = val("--tiles-x").parse().expect("tiles-x"),
            "--tiles-y" => spec.tiles_y = val("--tiles-y").parse().expect("tiles-y"),
            "--obstacle-pct" => spec.obstacle_pct = val("--obstacle-pct").parse().expect("pct"),
            "--total-samples" => spec.total_samples = val("--total-samples").parse().expect("n"),
            "--checkpoint-every" => {
                spec.checkpoint_every = val("--checkpoint-every").parse().expect("cadence")
            }
            other => panic!("unknown worker arg {other}"),
        }
    }
    let mut cfg = WorkerConfig::new(addr, id, dir);
    if stall_ms > 0 {
        cfg.chaos = ChaosMode::StallAfterLease {
            dwell: Duration::from_millis(stall_ms),
        };
    }
    match run_worker(&spec, &cfg) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("worker {id}: {e}");
            std::process::exit(1);
        }
    }
}

/// One clean cluster run at `workers` processes. Returns the row and
/// whether the run completed.
fn scale_leg(spec: &ClusterSpec, workers: usize, tag: &str) -> (ScaleRow, bool) {
    let dir = tmp_dir(tag);
    let coord = Coordinator::serve(spec, CoordinatorConfig::default(), "127.0.0.1:0")
        .expect("serve coordinator");
    let addr = coord.addr().to_string();
    let start = Instant::now();
    let mut children: Vec<Child> = (0..workers)
        .map(|w| spawn_worker(spec, &addr, &dir, w as u64 + 1, 0))
        .collect();
    let complete = coord.wait_complete(Duration::from_secs(120));
    let wall = start.elapsed();
    for c in &mut children {
        let _ = c.wait();
    }
    let exact = complete && bit_exact(spec, &dir);
    let merged = samples_total(&coord.merged_registry());
    let row = ScaleRow {
        workers,
        samples: merged,
        wall_ms: wall.as_secs_f64() * 1_000.0,
        samples_per_sec: if wall.as_secs_f64() > 0.0 {
            spec.total_samples as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        bit_exact: exact,
    };
    let _ = std::fs::remove_dir_all(&dir);
    (row, complete && merged == spec.total_samples)
}

/// The chaos leg: 3 honest workers + 1 silent partition; two honest
/// workers are SIGKILLed mid-lease; one garbage client corrupts the
/// control port; replacements finish the run. Every correctness gate
/// of the ISSUE lives here.
fn chaos_leg(spec: &ClusterSpec, failures: &mut Vec<String>) -> ChaosReport {
    let dir = tmp_dir("chaos");
    let cfg = CoordinatorConfig {
        heartbeat_timeout: Duration::from_millis(500),
        handshake_timeout: Duration::from_secs(5),
        max_reassignments: 64,
    };
    let coord = Coordinator::serve(spec, cfg, "127.0.0.1:0").expect("serve coordinator");
    let addr = coord.addr().to_string();

    for bytes in CORRUPT_CLIENTS {
        use std::io::Write;
        if let Ok(mut raw) = std::net::TcpStream::connect(coord.addr()) {
            let _ = raw.write_all(bytes);
        }
    }

    // 3 honest victims-to-be + 1 partitioned worker (stalls on its
    // first lease long past the heartbeat deadline).
    let mut children: Vec<Child> = (0..3)
        .map(|w| spawn_worker(spec, &addr, &dir, w + 1, 0))
        .collect();
    let stall = spawn_worker(spec, &addr, &dir, 9, 4_000);
    children.push(stall);

    // Wait until at least two leases show real progress, then SIGKILL
    // two honest workers mid-lease. Budgets are fsync-bound and take
    // seconds; progress appears within tens of milliseconds.
    let kill_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = coord.status();
        let in_flight = st
            .leases
            .iter()
            .filter(|(_, samples, done)| *samples > 0 && !done)
            .count();
        if in_flight >= 2 {
            break;
        }
        if Instant::now() > kill_deadline {
            failures.push("chaos: no lease progress appeared within 30s".into());
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut killed = 0u64;
    for child in children.iter_mut().take(2) {
        if child.kill().is_ok() {
            killed += 1;
        }
        let _ = child.wait();
    }

    // Replacements arrive late — capacity shrinks, then recovers.
    children.push(spawn_worker(spec, &addr, &dir, 21, 0));
    children.push(spawn_worker(spec, &addr, &dir, 22, 0));

    let complete = coord.wait_complete(Duration::from_secs(120));
    for c in &mut children {
        let _ = c.kill();
        let _ = c.wait();
    }
    let status = coord.status();
    let merged = samples_total(&coord.merged_registry());
    let exact = complete && bit_exact(spec, &dir);
    let mut recovery = status.recovery_ms.clone();
    recovery.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    if !complete {
        failures.push(format!("chaos: run did not complete: {status:?}"));
    }
    if killed < 2 {
        failures.push(format!(
            "chaos: only {killed} workers were SIGKILLed (need >= 2)"
        ));
    }
    if status.deadline_expirations < 1 {
        failures
            .push("chaos: the partitioned worker never forced a heartbeat-deadline expiry".into());
    }
    let corrupt_clients = CORRUPT_CLIENTS.len() as u64;
    if status.decode_errors < corrupt_clients {
        failures.push(format!(
            "chaos: {} decode errors counted for {corrupt_clients} corrupt clients",
            status.decode_errors
        ));
    }
    if status.leases_reassigned < 3 {
        failures.push(format!(
            "chaos: expected >= 3 lease reassignments (2 kills + 1 partition), saw {}",
            status.leases_reassigned
        ));
    }
    if merged != spec.total_samples {
        failures.push(format!(
            "chaos: merged qtaccel_samples_total = {merged}, budget = {} \
             (samples lost or double-counted)",
            spec.total_samples
        ));
    }
    if !exact {
        failures.push("chaos: final Q/Qmax images are not bit-identical to reference".into());
    }

    let report = ChaosReport {
        workers_killed: killed,
        stalled_partitions: 1,
        corrupt_clients,
        leases_reassigned: status.leases_reassigned,
        deadline_expirations: status.deadline_expirations,
        refused_frames: status.refused_frames,
        decode_errors: status.decode_errors,
        recovery_events: recovery.len() as u64,
        recovery_ms_p50: percentile(&recovery, 0.50),
        recovery_ms_p99: percentile(&recovery, 0.99),
        merged_samples_total: merged,
        budget: spec.total_samples,
        bit_exact: exact,
    };
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        worker_main(&args);
    }
    let mut quick = false;
    let mut chaos = false;
    for arg in &args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--chaos" => chaos = true,
            other => {
                eprintln!("error: unknown argument `{other}` (supported: --quick, --chaos)");
                std::process::exit(2);
            }
        }
    }

    // Scaling spec: checkpoint cadence ≈ shard budget so the sweep
    // measures training throughput, not fsync bandwidth.
    let scale_spec = ClusterSpec {
        seed: 0xBEEF,
        width: 32,
        height: 32,
        tiles_x: 2,
        tiles_y: 2,
        obstacle_pct: 10,
        total_samples: if quick { 1_000_000 } else { 4_000_000 },
        checkpoint_every: 262_144,
    };
    // Chaos spec: a *small* cadence makes runs fsync-bound and slow —
    // deliberately, so kills land mid-lease with plenty of lease left.
    let chaos_spec = ClusterSpec {
        seed: 0xC405,
        width: 32,
        height: 32,
        tiles_x: 2,
        tiles_y: 2,
        obstacle_pct: 10,
        total_samples: if quick { 2_000_000 } else { 6_000_000 },
        checkpoint_every: 4_096,
    };

    let mut failures: Vec<String> = Vec::new();

    let process_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let mut scale_rows = Vec::new();
    for &p in process_counts {
        let (row, ok) = scale_leg(&scale_spec, p, &format!("scale{p}"));
        println!(
            "scale: {} worker(s): {:.0} samples/sec over {:.0} ms (bit_exact={})",
            row.workers, row.samples_per_sec, row.wall_ms, row.bit_exact
        );
        if !ok || !row.bit_exact {
            failures.push(format!(
                "scale leg with {p} workers failed (complete+exact required)"
            ));
        }
        scale_rows.push(row);
    }

    let chaos_report = if chaos {
        let r = chaos_leg(&chaos_spec, &mut failures);
        println!(
            "chaos: killed={} partitions={} reassigned={} deadline_expiries={} \
             decode_errors={} refused={} recovery p50={:.1}ms p99={:.1}ms \
             merged={}/{} bit_exact={}",
            r.workers_killed,
            r.stalled_partitions,
            r.leases_reassigned,
            r.deadline_expirations,
            r.decode_errors,
            r.refused_frames,
            r.recovery_ms_p50,
            r.recovery_ms_p99,
            r.merged_samples_total,
            r.budget,
            r.bit_exact
        );
        Some(r)
    } else {
        None
    };

    let report = Json::Obj(vec![
        ("quick", quick.to_json()),
        ("chaos_enabled", chaos.to_json()),
        ("host_parallelism", manifest::host_parallelism().to_json()),
        (
            "gate_note",
            "correctness-only gates: cluster output must be bit-identical to the \
             single-process reference and merged qtaccel_samples_total must equal \
             the budget exactly, under >=2 SIGKILLs, one forced heartbeat-deadline \
             partition and wire corruption. The scaling sweep is reported but \
             never gated: on a 1-core host, P processes contend for the same \
             cycles and no speedup is expected."
                .to_json(),
        ),
        (
            "scaling",
            Json::Arr(scale_rows.iter().map(|r| r.to_json()).collect()),
        ),
        (
            "chaos",
            chaos_report.as_ref().map_or(Json::Null, |r| r.to_json()),
        ),
        ("manifest", manifest::provenance()),
    ]);

    let path: PathBuf = if quick {
        results_dir().join("BENCH_distributed_quick.json")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_distributed.json")
    };
    std::fs::write(&path, report.pretty()).expect("write distributed report");
    println!("wrote {}", path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("error: {f}");
        }
        std::process::exit(1);
    }
    println!("gate: cluster output bit-identical to reference under chaos");
}
