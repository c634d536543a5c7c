//! The `cluster_2w` workload: the coordinator runs in this process, two
//! workers are this executable re-executed with `--worker`, and every
//! repetition gets a fresh checkpoint directory. A rep runs from worker
//! spawn until `Coordinator::status()` reports every lease complete; the
//! op is one lease, from its epoch bump to its merged `LeaseDone`.
//!
//! Lease phases are read off `status()`, polled every [`POLL`]: the
//! coordinator exposes no per-lease timestamps, so the timeline is as
//! fine as the poll.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qtaccel_cluster::spec::ShardTables;
use qtaccel_cluster::{
    run_worker, ClusterError, ClusterSpec, Coordinator, CoordinatorConfig, WorkerConfig,
    WorkerReport,
};
use qtaccel_envs::Environment;
use qtaccel_telemetry::{monotonic_ns, MetricValue};

use crate::host::{children_peak_rss_mb, peak_rss_mb};
use crate::inproc::{e2e_metrics, executor_probe, to_ms, Algo, Bank};
use crate::metrics::{ascending, median, Metric};
use crate::probes;
use crate::trace::{self, Spans, REP};
use crate::workload::{RunOpts, RunResult, Tally, Workload, WORKERS};

const POLL: Duration = Duration::from_millis(2);
/// Until both workers are connected the poll runs finer: spawn to connect
/// takes a few milliseconds, and `setup_s` is read off it.
const CONNECT_POLL: Duration = Duration::from_micros(100);
const REP_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);
/// Reps of the cluster probe that in-process workloads' traced runs take.
const PROBE_REPS: usize = 3;

/// 64×64 terrain in 4×4 tiles: 16 leases of 256 states × 4 actions, 2 Mi
/// samples each, checkpointed every 256 Ki samples.
pub fn spec(seed: u64, smoke: bool) -> ClusterSpec {
    let (side, total_samples, checkpoint_every) = if smoke {
        (16, 1 << 16, 1 << 11)
    } else {
        (64, 1 << 25, 1 << 18)
    };
    ClusterSpec {
        seed,
        width: side,
        height: side,
        tiles_x: 4,
        tiles_y: 4,
        obstacle_pct: 10,
        total_samples,
        checkpoint_every,
    }
}

/// How workers are started: as processes (the benchmark) or as threads of
/// this process (unit tests, whose executable is the test harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Launcher {
    Process,
    #[cfg_attr(not(test), allow(dead_code))]
    Thread,
}

enum Worker {
    Process(Child),
    Thread(JoinHandle<Result<WorkerReport, ClusterError>>),
}

fn spawn(
    launcher: Launcher,
    spec: &ClusterSpec,
    addr: &str,
    dir: &Path,
    id: u64,
) -> Result<Worker, String> {
    match launcher {
        Launcher::Thread => {
            let (spec, cfg) = (*spec, WorkerConfig::new(addr, id, dir));
            Ok(Worker::Thread(std::thread::spawn(move || {
                run_worker(&spec, &cfg)
            })))
        }
        Launcher::Process => {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let mut cmd = Command::new(exe);
            cmd.arg("--worker")
                .arg(id.to_string())
                .arg("--addr")
                .arg(addr)
                .arg("--dir")
                .arg(dir);
            for (flag, v) in spec_args(spec) {
                cmd.arg(flag).arg(v.to_string());
            }
            // The workload's stdout carries its result to the parent.
            cmd.stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit());
            cmd.spawn()
                .map(Worker::Process)
                .map_err(|e| format!("spawn worker {id}: {e}"))
        }
    }
}

fn spec_args(spec: &ClusterSpec) -> [(&'static str, u64); 8] {
    [
        ("--seed", spec.seed),
        ("--width", u64::from(spec.width)),
        ("--height", u64::from(spec.height)),
        ("--tiles-x", u64::from(spec.tiles_x)),
        ("--tiles-y", u64::from(spec.tiles_y)),
        ("--obstacle-pct", u64::from(spec.obstacle_pct)),
        ("--total-samples", spec.total_samples),
        ("--checkpoint-every", spec.checkpoint_every),
    ]
}

/// Wait for a worker to exit; a process still running at `deadline` is
/// killed and reaped.
fn finish(worker: Worker, deadline: Instant) -> Result<(), String> {
    match worker {
        Worker::Thread(h) => match h.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("worker: {e}")),
            Err(_) => Err("worker thread panicked".into()),
        },
        Worker::Process(mut child) => loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("worker exited with {status}")),
                Ok(None) if Instant::now() < deadline => std::thread::sleep(POLL),
                other => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("worker did not exit: {other:?}"));
                }
            }
        },
    }
}

/// The `--worker` entry point: rebuild the spec from argv and serve leases
/// until the coordinator closes the run.
pub fn worker_main(args: &[String]) -> ! {
    let parsed = (|| -> Result<(u64, String, String, ClusterSpec), String> {
        let mut spec = spec(0, true);
        let (mut id, mut addr, mut dir) = (None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            let small =
                || num().and_then(|n| u32::try_from(n).map_err(|e| format!("{flag} {v}: {e}")));
            match flag.as_str() {
                "--worker" => id = Some(num()?),
                "--addr" => addr = Some(v.clone()),
                "--dir" => dir = Some(v.clone()),
                "--seed" => spec.seed = num()?,
                "--width" => spec.width = small()?,
                "--height" => spec.height = small()?,
                "--tiles-x" => spec.tiles_x = small()?,
                "--tiles-y" => spec.tiles_y = small()?,
                "--obstacle-pct" => spec.obstacle_pct = small()?,
                "--total-samples" => spec.total_samples = num()?,
                "--checkpoint-every" => spec.checkpoint_every = num()?,
                other => return Err(format!("unknown worker flag {other}")),
            }
        }
        Ok((
            id.ok_or("--worker id")?,
            addr.ok_or("--addr")?,
            dir.ok_or("--dir")?,
            spec,
        ))
    })();
    let code = match parsed {
        Ok((id, addr, dir, spec)) => match run_worker(&spec, &WorkerConfig::new(addr, id, dir)) {
            Ok(_) => 0,
            Err(e) => {
                eprintln!("qtbench worker {id}: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("qtbench worker: {e}");
            2
        }
    };
    std::process::exit(code)
}

/// When each lease phase was first seen (monotonic ns). Workers send
/// their progress frames without `TCP_NODELAY`, so the frames after the
/// first reach the coordinator batched with the `LeaseDone`: the first
/// progress is the only boundary status polling can see inside a lease.
#[derive(Debug, Clone, Copy, Default)]
struct Stamps {
    assign: Option<u64>,
    progress: Option<u64>,
    done: Option<u64>,
}

/// What the poll saw during one rep.
#[derive(Debug, Clone)]
pub struct Timeline {
    start: u64,
    connect: Option<u64>,
    complete: Option<u64>,
    /// Workers exited and the coordinator stopped.
    finished: u64,
    /// Output restored and compared.
    verified: u64,
    leases: Vec<Stamps>,
}

fn ms(from: u64, to: u64) -> f64 {
    (to as f64 - from as f64) / 1e6
}

impl Timeline {
    fn wall_s(&self) -> Option<f64> {
        self.complete.map(|c| ms(self.start, c) / 1e3)
    }

    fn lease_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.leases
            .iter()
            .filter_map(|l| Some(ms(l.assign?, l.done?) / 1e3))
    }

    fn record_spans(&self, spans: &Spans, rep: u64) {
        let Some(complete) = self.complete else {
            return;
        };
        let root = spans.record(REP, None, 0, rep, self.start, complete);
        if let Some(c) = self.connect {
            spans.record("spawn_to_connect", root, 0, rep, self.start, c);
        }
        for (i, l) in self.leases.iter().enumerate() {
            let (Some(a), Some(d)) = (l.assign, l.done) else {
                continue;
            };
            let lane = i as u32 + 1;
            let lease = spans.record("lease", root, lane, rep, a, d);
            let p = l.progress.unwrap_or(a);
            spans.record("lease.assign_to_progress", lease, lane, rep, a, p);
            spans.record("lease.progress_to_done", lease, lane, rep, p, d);
        }
        spans.record("teardown", None, 0, rep, complete, self.finished);
        spans.record("check", None, 0, rep, self.finished, self.verified);
    }
}

fn samples_total(coord: &Coordinator) -> u64 {
    match coord.merged_registry().get("qtaccel_samples_total") {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// A completed run's output: the merged `qtaccel_samples_total` must equal
/// the budget, and the sealed checkpoints in `dir` must restore to the
/// single-process reference bit for bit.
fn verify(
    spec: &ClusterSpec,
    reference: &ShardTables,
    dir: &Path,
    merged: u64,
) -> Result<(), String> {
    if merged != spec.total_samples {
        return Err(format!(
            "merged qtaccel_samples_total {merged} != budget {}",
            spec.total_samples
        ));
    }
    match spec.restore_final_tables(dir) {
        Ok(tables) if tables == *reference => Ok(()),
        Ok(_) => Err("sealed Q/Qmax images differ from the single-process reference".into()),
        Err(e) => Err(format!("restore sealed checkpoints: {e}")),
    }
}

/// One rep: serve, spawn the workers, poll until complete, reap, then
/// [`verify`] the output.
pub fn run_rep(
    spec: &ClusterSpec,
    reference: &ShardTables,
    dir: &Path,
    launcher: Launcher,
) -> (Timeline, Result<(), String>) {
    let mut tl = Timeline {
        start: monotonic_ns(),
        connect: None,
        complete: None,
        finished: 0,
        verified: 0,
        leases: vec![Stamps::default(); spec.shards()],
    };
    let outcome = (|| -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let coord = Coordinator::serve(spec, CoordinatorConfig::default(), "127.0.0.1:0")
            .map_err(|e| format!("serve coordinator: {e}"))?;
        let addr = coord.addr().to_string();
        tl.start = monotonic_ns();
        let mut workers = Vec::with_capacity(WORKERS);
        let mut failure = None;
        for id in 1..=WORKERS as u64 {
            match spawn(launcher, spec, &addr, dir, id) {
                Ok(w) => workers.push(w),
                Err(e) => failure = failure.or(Some(e)),
            }
        }
        let deadline = Instant::now() + REP_TIMEOUT;
        while failure.is_none() {
            let st = coord.status();
            let now = monotonic_ns();
            if tl.connect.is_none() && st.workers_connected >= WORKERS as u64 {
                tl.connect = Some(now);
            }
            for (s, &(epoch, samples, done)) in tl.leases.iter_mut().zip(&st.leases) {
                let seen = |slot: &mut Option<u64>, cond: bool| {
                    if cond && slot.is_none() {
                        *slot = Some(now);
                    }
                };
                seen(&mut s.assign, epoch > 0);
                seen(&mut s.progress, samples > 0);
                seen(&mut s.done, done);
            }
            if st.complete {
                tl.complete = Some(now);
                break;
            }
            if st.failed || Instant::now() > deadline {
                failure = Some(format!("run did not complete: {st:?}"));
                break;
            }
            std::thread::sleep(if tl.connect.is_none() {
                CONNECT_POLL
            } else {
                POLL
            });
        }
        let exit_by = Instant::now() + EXIT_TIMEOUT;
        for w in workers {
            if let Err(e) = finish(w, exit_by) {
                failure = failure.or(Some(e));
            }
        }
        let merged = samples_total(&coord);
        drop(coord);
        tl.finished = monotonic_ns();
        match failure {
            Some(e) => Err(e),
            None => verify(spec, reference, dir, merged),
        }
    })();
    tl.finished = tl.finished.max(tl.start);
    tl.verified = monotonic_ns();
    let _ = std::fs::remove_dir_all(dir);
    (tl, outcome)
}

/// The reference's shards trained by the cycle-accurate engine must equal
/// it. Returns that engine's host ns per sample.
fn cycle_check(spec: &ClusterSpec, reference: &ShardTables, spans: &Spans) -> Result<f64, String> {
    let budgets = spec.budgets();
    if budgets.iter().any(|&b| b != budgets[0]) {
        return Err("cycle check needs equal shard budgets".into());
    }
    let envs = spec.environment();
    let mut pipes = spec.pipelines();
    let (_, secs) = spans.time("cycle_engine", None, 0, || {
        pipes.train_samples_sequential(envs.partitions(), budgets[0])
    });
    let same = (0..spec.shards()).all(|i| (pipes.q_table(i), pipes.qmax_table(i)) == reference[i]);
    if same {
        Ok(secs * 1e9 / spec.total_samples as f64)
    } else {
        Err("the cluster reference diverged from the cycle-accurate banks".into())
    }
}

/// One lease's work without the wire: shard 0 trained to its budget by
/// `train_shard_durable`, the call a worker makes (restore attempt,
/// chunked training, checkpoint saves at the cadence, seal), on this
/// thread. Returns its wall seconds.
fn local_lease(spec: &ClusterSpec, dir: &Path) -> Result<f64, String> {
    let envs = spec.environment();
    let mut pipes = spec.pipelines();
    let budget = spec.budgets()[0];
    let t = Instant::now();
    let trained = pipes.train_shard_durable(
        0,
        envs.partition(0),
        budget,
        1,
        dir,
        spec.checkpoint_every,
        |_| true,
    );
    let secs = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    match trained {
        Ok(samples) if samples == budget => Ok(secs),
        Ok(samples) => Err(format!(
            "local lease stopped at {samples} of {budget} samples"
        )),
        Err(e) => Err(format!("local lease: {e}")),
    }
}

/// Time a local lease after rep `rep`, as a span of its own so it stays
/// out of the rep's budget.
fn time_local_lease(
    spec: &ClusterSpec,
    opts: &RunOpts,
    rep: usize,
    spans: &Spans,
    tally: &mut Tally,
    secs: &mut Vec<f64>,
) {
    let dir = rep_dir(opts, "local", rep);
    let (outcome, _) = spans.time("local_lease", None, rep as u64, || local_lease(spec, &dir));
    tally.record(outcome.map(|s| secs.push(s)));
}

/// Lease phase medians as the coordinator sees them, the part of the
/// median lease the median local lease (its work without the wire) does
/// not explain, and the share of worker time between connect and
/// completion that held no lease.
fn timeline_metrics(tls: &[Timeline], local_lease_s: &[f64]) -> Vec<Metric> {
    let med = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            median(&ascending(&v))
        }
    };
    let leases = || tls.iter().flat_map(|t| t.leases.iter());
    let phase = |from: fn(&Stamps) -> Option<u64>, to: fn(&Stamps) -> Option<u64>| {
        med(leases()
            .filter_map(|l| Some(ms(from(l)?, to(l)?)))
            .collect())
    };
    let (mut busy, mut window) = (0.0, 0.0);
    for t in tls {
        if let (Some(c), Some(end)) = (t.connect, t.complete) {
            busy += t.lease_s().sum::<f64>();
            window += WORKERS as f64 * ms(c, end) / 1e3;
        }
    }
    let lease_ms = phase(|l| l.assign, |l| l.done);
    vec![
        Metric::new(
            "cluster.spawn_to_connect_ms",
            med(tls
                .iter()
                .filter_map(|t| Some(ms(t.start, t.connect?)))
                .collect()),
        ),
        Metric::new(
            "cluster.assign_to_progress_ms",
            phase(|l| l.assign, |l| l.progress),
        ),
        Metric::new(
            "cluster.progress_to_done_ms",
            phase(|l| l.progress, |l| l.done),
        ),
        Metric::new(
            "cluster.lease_unexplained_ms",
            lease_ms - med(local_lease_s.to_vec()) * 1e3,
        ),
        Metric::new(
            "cluster.idle_share",
            if window > 0.0 {
                1.0 - busy / window
            } else {
                0.0
            },
        ),
    ]
}

/// Pipeline and checkpoint probes at the shard's bank shape.
fn shard_probes(
    spec: &ClusterSpec,
    opts: &RunOpts,
    spans: &Spans,
    tally: &mut Tally,
) -> Vec<Metric> {
    let env = spec.environment().partition(0).clone();
    let bank = Bank {
        states: env.num_states(),
        actions: env.num_actions(),
        algo: Algo::QLearning,
    };
    let mut metrics = probes::pipeline(&bank, &env, opts.seed, opts.smoke, spans);
    metrics.extend(probes::checkpoint(&bank, &env, opts, spans, tally));
    metrics
}

fn rep_dir(opts: &RunOpts, tag: &str, rep: usize) -> std::path::PathBuf {
    opts.out
        .join(format!("ckpt-{}-{tag}{rep}", std::process::id()))
}

/// The cluster layer for workloads that do not run it: a few reps of the
/// `cluster_2w` spec.
pub fn probe(opts: &RunOpts, spans: &Spans, tally: &mut Tally) -> Vec<Metric> {
    let spec = spec(opts.seed, opts.smoke);
    let (reference, _) = spans.time("probe.cluster_reference", None, 0, || {
        spec.reference_tables()
    });
    let root = spans.begin("probe.cluster", None, 0, 0);
    let (mut tls, mut local) = (Vec::new(), Vec::new());
    for rep in 0..PROBE_REPS {
        let dir = rep_dir(opts, "probe", rep);
        let (tl, outcome) = run_rep(&spec, &reference, &dir, opts.launcher);
        if outcome.is_ok() {
            tls.push(tl);
        }
        tally.record(outcome);
        time_local_lease(&spec, opts, rep, &Spans::new(false, 0), tally, &mut local);
    }
    spans.end(root);
    timeline_metrics(&tls, &local)
}

pub fn run(opts: &RunOpts) -> RunResult {
    let spec = spec(opts.seed, opts.smoke);
    let spans = Spans::new(opts.trace, opts.seed);
    let mut tally = Tally::default();
    let (reference, _) = spans.time("reference", None, 0, || spec.reference_tables());

    let plan = opts.plan(Workload::Cluster2w, spec.shards());
    let (mut untraced, mut traced, mut local) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rep, mut failed_reps) = (0, 0);
    while !plan.done(rep, failed_reps) {
        let (tl, outcome) = run_rep(&spec, &reference, &rep_dir(opts, "", rep), opts.launcher);
        if outcome.is_ok() {
            // Odd reps of a traced run record spans; the span tree is
            // built after the rep, so both halves run the same code.
            if opts.trace && rep % 2 == 1 {
                tl.record_spans(&spans, rep as u64);
                traced.push(tl);
            } else {
                untraced.push(tl);
            }
        } else {
            failed_reps += 1;
        }
        tally.record(outcome);
        if opts.trace {
            time_local_lease(&spec, opts, rep, &spans, &mut tally, &mut local);
        }
        rep += 1;
    }
    // The coordinator holds the reference tables, the workers the shards
    // they train and checkpoint: the peak is the larger of the two.
    let rss = peak_rss_mb()
        .unwrap_or(0.0)
        .max(children_peak_rss_mb().unwrap_or(0.0));
    let check = cycle_check(&spec, &reference, &spans);
    tally.record(check.as_ref().map(|_| ()).map_err(Clone::clone));

    let walls = |tls: &[Timeline]| tls.iter().filter_map(Timeline::wall_s).collect::<Vec<_>>();
    if !opts.trace {
        let leases: Vec<f64> = untraced.iter().flat_map(Timeline::lease_s).collect();
        let connects: Vec<f64> = untraced
            .iter()
            .filter_map(|t| Some(ms(t.start, t.connect?) / 1e3))
            .collect();
        let metrics = e2e_metrics(spec.total_samples, &walls(&untraced), &connects, rss);
        return RunResult {
            tally,
            metrics,
            ops_ms: to_ms(&leases),
        };
    }

    let setups = if opts.smoke { 3 } else { 11 };
    let timed_ms = |name: &'static str, f: &dyn Fn()| {
        let v: Vec<f64> = (0..setups)
            .map(|k| spans.time(name, None, k, f).1)
            .collect();
        median(&ascending(&v)) * 1e3
    };
    let mut metrics = vec![
        Metric::new(
            "envs.build_ms",
            timed_ms("envs.build", &|| drop(spec.environment())),
        ),
        Metric::new(
            "pipeline.new_ms",
            timed_ms("pipeline.new", &|| drop(spec.pipelines())),
        ),
        Metric::new("pipeline.cycle_ns_per_sample", check.unwrap_or(0.0)),
    ];
    metrics.extend(shard_probes(&spec, opts, &spans, &mut tally));
    metrics.extend(executor_probe(opts, &spans, &mut tally));
    metrics.extend(probes::wire(opts.smoke, &spans, &mut tally));
    let all: Vec<Timeline> = untraced.iter().chain(&traced).cloned().collect();
    metrics.extend(timeline_metrics(&all, &local));
    metrics.push(Metric::new(
        "trace.overhead_share",
        trace::overhead_share(&walls(&untraced), &walls(&traced)),
    ));
    metrics.push(Metric::new(
        "budget.residual_share",
        trace::residual_share(&spans.spans()),
    ));
    tally.record(trace::write(
        &opts.out,
        Workload::Cluster2w.name(),
        opts.seed,
        &spans,
        &metrics,
    ));
    RunResult {
        tally,
        metrics,
        ops_ms: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_accel::shard_checkpoint_path;

    #[test]
    fn corrupted_checkpoint_dir_counts_as_failed() {
        let spec = spec(5, true);
        let reference = spec.reference_tables();
        let dir = std::env::temp_dir().join(format!("qtbench-test-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let envs = spec.environment();
        spec.pipelines()
            .train_batch_durable(
                envs.partitions(),
                spec.total_samples,
                &dir,
                spec.checkpoint_every,
            )
            .expect("durable batch seals every shard");
        assert_eq!(verify(&spec, &reference, &dir, spec.total_samples), Ok(()));

        let mut tally = Tally::default();
        tally.record(verify(&spec, &reference, &dir, spec.total_samples - 1));
        let path = shard_checkpoint_path(&dir, 1);
        let mut bytes = std::fs::read(&path).expect("sealed shard");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("corrupt shard");
        tally.record(verify(&spec, &reference, &dir, spec.total_samples));
        std::fs::remove_file(&path).expect("drop shard");
        tally.record(verify(&spec, &reference, &dir, spec.total_samples));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            (tally.attempted, tally.failed),
            (3, 3),
            "{:?}",
            tally.errors
        );
    }
}
