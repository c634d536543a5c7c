//! `qtbench`: the repository's benchmark (see `README.md` beside this
//! package). Four workloads, from the fused kernel to the multi-process
//! cluster, each run in child processes of its own: end-to-end metrics
//! with their regression bounds, or with `--trace` the per-layer metrics
//! read from benchmark-owned spans around each layer call.
//!
//! ```text
//! qtbench [--workload NAME] [--seed N] [--runs N] [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]
//! qtbench --compare A.json B.json
//! ```

mod cluster;
mod host;
mod inproc;
mod metrics;
mod probes;
mod report;
mod trace;
mod workload;

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use cluster::Launcher;
use host::Guard;
use qtaccel_telemetry::json::{self, Json};
use report::{Entry, Report, Run};
use workload::{RunOpts, RunResult, Workload, ALL};

const USAGE: &str = "usage: qtbench [--workload NAME] [--seed N] [--runs N] [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]\n       \
                     qtbench --compare A.json B.json\n\
                     workloads: batch_l2 spill_sarsa_q8 cycle_accurate cluster_2w (default: all four)";

/// Runs of each workload in a set when `--runs` is not given: enough for
/// `--compare` to read a between-run spread whose quartiles are not just
/// the two extreme runs (as they are with three).
const DEFAULT_RUNS: usize = 5;

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    /// Run each selected workload in child processes and report.
    Parent,
    /// Run one workload in this process and print its result as JSON.
    Child,
    Compare(PathBuf, PathBuf),
    Help,
}

#[derive(Debug, Clone, PartialEq)]
struct Cli {
    mode: Mode,
    workloads: Vec<Workload>,
    opts: RunOpts,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::Parent,
        workloads: ALL.to_vec(),
        opts: RunOpts {
            seed: 1,
            seconds: None,
            runs: DEFAULT_RUNS,
            trace: false,
            smoke: false,
            out: PathBuf::from("target/qtbench"),
            launcher: Launcher::Process,
        },
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let w =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                cli.workloads = vec![w];
            }
            "--seed" => {
                let v = value("--seed")?;
                cli.opts.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--runs" => {
                let v = value("--runs")?;
                cli.opts.runs = match v.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => return Err(format!("--runs {v}: must be a whole number from 1")),
                };
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds {v}: must be positive"));
                }
                cli.opts.seconds = Some(s);
            }
            "--trace" => {
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => cli.opts.out = PathBuf::from(value("--out")?),
            "--smoke" => cli.opts.smoke = true,
            "--child" => cli.mode = Mode::Child,
            "--compare" => {
                let a = value("--compare")?;
                let b = value("--compare")?;
                cli.mode = Mode::Compare(a.into(), b.into());
            }
            "--help" | "-h" => cli.mode = Mode::Help,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.mode == Mode::Child && cli.workloads.len() != 1 {
        return Err("--child runs exactly one --workload".into());
    }
    Ok(cli)
}

/// How long a child may run before it is killed: within the 180 seconds
/// a time-bounded run (`BENCHMARK.json`'s form) is allowed.
fn child_timeout(opts: &RunOpts) -> Duration {
    Duration::from_secs(if opts.seconds.is_some() { 170 } else { 900 })
}

fn wait_until(child: &mut std::process::Child, deadline: Instant) -> Result<ExitStatus, String> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            other => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child killed at its deadline ({other:?})"));
            }
        }
    }
}

/// Run `w` in a child process (this executable with `--child`): the
/// workload's peak memory and allocator state stay its own.
fn run_child(w: Workload, opts: &RunOpts) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        "--workload",
        w.name(),
        "--seed",
        &opts.seed.to_string(),
        "--runs",
        &opts.runs.to_string(),
    ]);
    cmd.arg("--out").arg(&opts.out);
    if let Some(s) = opts.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if opts.trace {
        cmd.args(["--trace", "1"]);
    }
    if opts.smoke {
        cmd.arg("--smoke");
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {} child: {e}", w.name()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let status = wait_until(&mut child, Instant::now() + child_timeout(opts));
    let text = reader
        .join()
        .map_err(|_| "child reader panicked".to_string())?
        .map_err(|e| format!("read child output: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("{} child exited with {status}", w.name()));
    }
    let line = text.lines().last().ok_or("child printed no result")?;
    RunResult::from_parsed(&json::parse(line)?)
}

/// The last line of a single-workload set, in the form `BENCHMARK.json`'s
/// runner reads: every bounded end-to-end metric, or with `--trace` every
/// per-layer metric, each the median over the set's runs.
fn result_line(entry: &Entry, trace: bool) -> String {
    let metrics = entry
        .summaries(trace)
        .iter()
        .filter(|s| trace || s.def.bound.is_some())
        .map(|s| {
            let fields = vec![
                ("value", Json::Num(s.value)),
                ("unit", Json::Str(s.def.unit.into())),
            ];
            (s.def.name, Json::Obj(fields))
        })
        .collect();
    Json::Obj(vec![
        ("correct", Json::Bool(entry.correct())),
        ("attempted", Json::UInt(entry.attempted())),
        ("failed", Json::UInt(entry.failed())),
        ("metrics", Json::Obj(metrics)),
    ])
    .compact()
}

fn report_name(cli: &Cli) -> String {
    let mut name = format!("report-seed{}", cli.opts.seed);
    if let [w] = cli.workloads.as_slice() {
        name = format!("{name}-{}", w.name());
    }
    if cli.opts.trace {
        name.push_str("-trace");
    }
    if cli.opts.smoke {
        name.push_str("-smoke");
    }
    name + ".json"
}

/// Run the set: `--runs` rounds, each running every selected workload
/// once in a child process, so a drift of the host's speed spreads over
/// all workloads. One calibration probe between consecutive children is
/// the after reading of one run and the before reading of the next.
fn parent(cli: &Cli) -> i32 {
    let mut entries: Vec<Entry> = cli
        .workloads
        .iter()
        .map(|&workload| Entry {
            workload,
            runs: Vec::new(),
        })
        .collect();
    let mut probe = host::calibrate();
    for _ in 0..cli.opts.runs {
        for entry in &mut entries {
            let (result, guard) = Guard::around(probe, || run_child(entry.workload, &cli.opts));
            probe = guard.probe_after_ns;
            let result = result.unwrap_or_else(RunResult::broken);
            for e in &result.tally.errors {
                eprintln!("qtbench: {}: {e}", entry.workload.name());
            }
            entry.runs.push(Run { result, guard });
        }
    }
    for entry in &entries {
        let w = entry.workload.name();
        for s in entry.summaries(cli.opts.trace) {
            println!("{w} {} {} {}", s.def.name, s.value, s.def.unit);
        }
        println!("{w} failed_frac {} share", entry.failed_frac());
        for (name, value, unit) in entry.host_rows() {
            println!("{w} {name} {value} {unit}");
        }
    }
    let report = Report {
        seed: cli.opts.seed,
        trace: cli.opts.trace,
        smoke: cli.opts.smoke,
        seconds: cli.opts.seconds,
        entries,
    };
    let path = cli.opts.out.join(report_name(cli));
    let written = std::fs::create_dir_all(&cli.opts.out)
        .and_then(|()| std::fs::write(&path, report.to_json().pretty()))
        .map_err(|e| eprintln!("qtbench: write {}: {e}", path.display()))
        .is_ok();
    if written {
        println!("report {}", path.display());
    }
    if let [entry] = report.entries.as_slice() {
        println!("{}", result_line(entry, cli.opts.trace));
    }
    let correct = report.entries.iter().all(Entry::correct);
    i32::from(!(correct && written))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--worker") {
        cluster::worker_main(&args);
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("qtbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match &cli.mode {
        Mode::Help => {
            println!("{USAGE}");
            0
        }
        Mode::Compare(a, b) => match (Report::load(a), Report::load(b)) {
            (Ok(a), Ok(b)) => report::compare(&a, &b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("qtbench: {e}");
                2
            }
        },
        Mode::Child => {
            let result = workload::run(cli.workloads[0], &cli.opts);
            println!("{}", result.to_json().compact());
            0
        }
        Mode::Parent => parent(&cli),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Def, E2E, LAYER};
    use qtaccel_telemetry::json::Parsed;
    use std::path::Path;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_takes_the_timed_and_the_native_forms() {
        let timed = parse(&args(
            "--workload cluster_2w --seed 7 --seconds 20 --trace 0",
        ))
        .expect("parses");
        assert_eq!(timed.workloads, vec![Workload::Cluster2w]);
        assert_eq!(
            (timed.opts.seed, timed.opts.seconds, timed.opts.trace),
            (7, Some(20.0), false)
        );
        assert_eq!(timed.opts.runs, DEFAULT_RUNS);
        assert_eq!(parse(&args("--runs 1")).expect("parses").opts.runs, 1);
        let traced = parse(&args("--seed 1 --trace --out x")).expect("parses");
        assert_eq!((traced.workloads.len(), traced.opts.trace), (4, true));
        assert_eq!(traced.opts.out, PathBuf::from("x"));
        assert!(parse(&args("--trace 1")).expect("parses").opts.trace);
        assert!(matches!(
            parse(&args("--compare a b")).expect("parses").mode,
            Mode::Compare(..)
        ));
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--seed x",
            "--frobnicate",
            "--child",
            "--compare a",
            "--runs 0",
            "--runs x",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad} must be refused");
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qtbench-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn smoke(w: Workload, trace: bool) -> (RunResult, PathBuf) {
        let out = scratch(&format!("{}-{trace}", w.name()));
        let opts = RunOpts {
            seed: 3,
            seconds: None,
            runs: 1,
            trace,
            smoke: true,
            out: out.clone(),
            launcher: Launcher::Thread,
        };
        let t = Instant::now();
        let result = workload::run(w, &opts);
        assert!(
            t.elapsed() < Duration::from_secs(15),
            "{} smoke run took {:?}",
            w.name(),
            t.elapsed()
        );
        assert!(result.correct(), "{}: {:?}", w.name(), result.tally);
        assert_eq!(result.tally.failed, 0, "failed_frac must be 0");
        let defs: &[Def] = if trace { &LAYER } else { &E2E };
        let names: Vec<&str> = result.metrics.iter().map(|m| m.def.name).collect();
        let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
        assert_eq!(names, expected, "{}: metric set", w.name());
        assert!(
            result.metrics.iter().all(|m| m.value.is_finite()),
            "{:?}",
            result.metrics
        );
        let entry = Entry {
            workload: w,
            runs: vec![Run {
                result: result.clone(),
                guard: Guard {
                    probe_before_ns: 1.0,
                    probe_after_ns: 1.0,
                    steal_share: 0.0,
                },
            }],
        };
        if !trace {
            let ops = entry.summaries(false);
            assert!(
                ops.iter()
                    .any(|s| s.def.name == "op_ms_p90" && s.value > 0.0),
                "{}: a smoke run times enough ops for a p90",
                w.name()
            );
        }
        let line = json::parse(&result_line(&entry, trace)).expect("result line parses");
        let Some(Parsed::Obj(carried)) = line.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(
            carried.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            expected
        );
        (result, out)
    }

    #[test]
    fn smoke_batch_l2() {
        smoke(Workload::BatchL2, false);
    }

    #[test]
    fn smoke_spill_sarsa_q8() {
        smoke(Workload::SpillSarsaQ8, false);
    }

    #[test]
    fn smoke_cycle_accurate() {
        smoke(Workload::CycleAccurate, false);
    }

    #[test]
    fn smoke_cluster_2w() {
        smoke(Workload::Cluster2w, false);
    }

    fn check_trace_files(out: &Path, w: Workload) {
        let trace = std::fs::read_to_string(out.join(format!("trace-{}.json", w.name())))
            .expect("trace file");
        let doc = json::parse(&trace).expect("trace parses");
        assert!(doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .is_some_and(|e| e.len() > 2));
        let table =
            std::fs::read_to_string(out.join(format!("layers-{}.txt", w.name()))).expect("table");
        assert!(table.contains("budget.residual_share"), "{table}");
        let _ = std::fs::remove_dir_all(out);
    }

    #[test]
    fn smoke_trace_cycle_accurate() {
        let (_, out) = smoke(Workload::CycleAccurate, true);
        check_trace_files(&out, Workload::CycleAccurate);
    }

    #[test]
    fn smoke_trace_cluster_2w() {
        let (_, out) = smoke(Workload::Cluster2w, true);
        check_trace_files(&out, Workload::Cluster2w);
    }

    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let doc = json::parse(include_str!("../../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(|v| v.as_arr()).expect(key).to_vec();
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(|v| v.as_str()).expect(k).to_owned();
                (s("name"), s("why"))
            })
            .collect();
        assert_eq!(
            workloads,
            ALL.map(|w| (w.name().to_owned(), w.why().to_owned()))
        );
        let check = |key: &str, defs: &[Def]| {
            let entries = list(key);
            assert_eq!(entries.len(), defs.len(), "{key}");
            for (e, d) in entries.iter().zip(defs) {
                let s = |k: &str| e.get(k).and_then(|v| v.as_str()).expect(k).to_owned();
                assert_eq!(
                    (s("name"), s("unit"), s("better")),
                    (d.name.into(), d.unit.into(), d.better.name().into())
                );
                assert_eq!(
                    e.get("bound").and_then(|b| b.as_f64()),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", &E2E);
        check("per_layer", &LAYER);
    }

    /// The settings lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    #[test]
    fn release_profile_matches_the_repository_root() {
        let root = release_profile(include_str!("../../../../../../Cargo.toml"));
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(release_profile(include_str!("../Cargo.toml")), root);
    }
}
