//! The four workloads, the options one run takes, and what a run returns.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::cluster::{self, Launcher};
use crate::inproc;
use crate::metrics::{self, min_samples, Metric};
use qtaccel_telemetry::json::{Json, Parsed};

/// Worker threads of the batch executor and worker processes of the
/// cluster: the host's `nproc` of two.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchL2,
    SpillSarsaQ8,
    CycleAccurate,
    Cluster2w,
}

pub const ALL: [Workload; 4] = [
    Workload::BatchL2,
    Workload::SpillSarsaQ8,
    Workload::CycleAccurate,
    Workload::Cluster2w,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchL2 => "batch_l2",
            Workload::SpillSarsaQ8 => "spill_sarsa_q8",
            Workload::CycleAccurate => "cycle_accurate",
            Workload::Cluster2w => "cluster_2w",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layers it stresses and the ones it
    /// bypasses (the control for changes to those).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BatchL2 => {
                "fused 16-bit kernel on a 2-worker executor pool, four 256 KB images in L2; \
                 no checkpoints, wire or processes: the control for I/O changes"
            }
            Workload::SpillSarsaQ8 => {
                "packed 8-bit SARSA path on one thread, a 13 MB image that spills L2, \
                 stochastic-rounding writeback and a heavy image build"
            }
            Workload::CycleAccurate => {
                "the cycle-accurate engine with forwarding: exact CycleStats, \
                 no fast path, executor or I/O"
            }
            Workload::Cluster2w => {
                "coordinator plus two worker processes: spawn, handshake, lease \
                 handoff, fsync and framing outweigh the kernel"
            }
        }
    }

    /// Repetitions in a set of runs with no `--seconds`, split evenly
    /// over its runs. In-process: 960 short reps, the samples of 120 reps
    /// eight times their size (see [`inproc::shape`]); a cluster rep
    /// holds 16 leases.
    pub fn reps_per_set(self) -> usize {
        match self {
            Workload::Cluster2w => 60,
            _ => 960,
        }
    }

    /// The workload's size, for reports.
    pub fn size(self, smoke: bool) -> String {
        if self == Workload::Cluster2w {
            let s = cluster::spec(0, smoke);
            return format!(
                "{}x{} terrain in {}x{} tiles ({} leases), {}% obstacles, {} samples per rep, \
                 checkpoint every {} samples",
                s.width,
                s.height,
                s.tiles_x,
                s.tiles_y,
                s.shards(),
                s.obstacle_pct,
                s.total_samples,
                s.checkpoint_every
            );
        }
        let s = inproc::shape(self, smoke);
        format!(
            "{} bank(s) of {} states x {} actions ({:?}), {} samples per rep",
            s.banks, s.bank.states, s.bank.actions, s.bank.algo, s.samples
        )
    }
}

/// The options of one workload run (one child process).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    pub seed: u64,
    /// Measure for this long instead of a share of
    /// [`Workload::reps_per_set`].
    pub seconds: Option<f64>,
    /// Runs of each workload in a set.
    pub runs: usize,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes and the fewest repetitions the tail rule allows.
    pub smoke: bool,
    /// Where trace files, checkpoint directories and reports go.
    pub out: PathBuf,
    pub launcher: Launcher,
}

impl RunOpts {
    /// When to stop repeating: started now, counting `ops_per_rep` op
    /// latencies per repetition.
    pub fn plan(&self, w: Workload, ops_per_rep: usize) -> Plan {
        let (target, min_ops) = match (self.smoke, self.seconds) {
            // A smoke run still leaves a p90 with ten ops beyond it.
            (true, _) => (Target::Reps(0), min_samples(90)),
            (false, Some(s)) => (
                Target::Until(Instant::now() + Duration::from_secs_f64(s)),
                0,
            ),
            (false, None) => (Target::Reps(w.reps_per_set().div_ceil(self.runs.max(1))), 0),
        };
        Plan {
            target,
            min_ops,
            ops_per_rep,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Target {
    Reps(usize),
    Until(Instant),
}

/// The repetition plan of one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    target: Target,
    /// Op latencies of passed reps the run must collect whatever the
    /// target.
    min_ops: usize,
    ops_per_rep: usize,
}

/// A run stops early once this many repetitions failed.
const MAX_FAILED: usize = 3;

impl Plan {
    /// Whether a run that has made `reps` repetitions, `failed` of which
    /// failed, is done. A run makes at least three repetitions, however
    /// short its `--seconds`.
    pub fn done(&self, reps: usize, failed: usize) -> bool {
        if failed >= MAX_FAILED {
            return true;
        }
        let passed = reps.saturating_sub(failed);
        reps >= 3
            && passed * self.ops_per_rep >= self.min_ops
            && match self.target {
                Target::Reps(n) => reps >= n,
                Target::Until(t) => Instant::now() >= t,
            }
    }
}

/// Attempts, failures and the first few failure messages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// What one workload run returns to the parent process.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Latency of every untraced op of a passed rep, in milliseconds.
    pub ops_ms: Vec<f64>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result of a run that could not be started or read.
    pub fn broken(error: String) -> Self {
        Self {
            tally: Tally {
                attempted: 1,
                failed: 1,
                errors: vec![error],
            },
            metrics: Vec::new(),
            ops_ms: Vec::new(),
        }
    }

    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
        Json::Obj(vec![
            ("attempted", Json::UInt(self.tally.attempted)),
            ("failed", Json::UInt(self.tally.failed)),
            (
                "errors",
                Json::Arr(
                    self.tally
                        .errors
                        .iter()
                        .map(|e| Json::Str(e.clone()))
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Arr(self.metrics.iter().map(Metric::to_json).collect()),
            ),
            ("ops_ms", nums(&self.ops_ms)),
        ])
    }

    pub fn from_parsed(p: &Parsed) -> Result<Self, String> {
        let count = |key: &str| {
            p.get(key)
                .and_then(Parsed::as_u64)
                .ok_or_else(|| format!("result lacks `{key}`"))
        };
        let arr = |key: &str| {
            p.get(key)
                .and_then(Parsed::as_arr)
                .ok_or_else(|| format!("result lacks `{key}`"))
        };
        let errors = arr("errors")?
            .iter()
            .map(|e| e.as_str().map(str::to_owned).ok_or("non-string error"))
            .collect::<Result<_, _>>()?;
        let metrics = arr("metrics")?
            .iter()
            .map(Metric::from_parsed)
            .collect::<Result<_, _>>()?;
        let ops_ms = arr("ops_ms")?
            .iter()
            .map(|v| v.as_f64().ok_or("non-numeric op latency"))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            tally: Tally {
                attempted: count("attempted")?,
                failed: count("failed")?,
                errors,
            },
            metrics,
            ops_ms,
        })
    }
}

/// Run one workload in this process.
pub fn run(w: Workload, opts: &RunOpts) -> RunResult {
    let mut result = match w {
        Workload::Cluster2w => cluster::run(opts),
        _ => inproc::run(w, opts),
    };
    metrics::sort(&mut result.metrics);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seconds: Option<f64>, runs: usize, smoke: bool) -> RunOpts {
        RunOpts {
            seed: 1,
            seconds,
            runs,
            trace: false,
            smoke,
            out: PathBuf::from("unused"),
            launcher: Launcher::Thread,
        }
    }

    #[test]
    fn plans_count_passed_reps_and_stop_on_failures() {
        // A set of three runs splits the set's 960 reps.
        let native = opts(None, 3, false).plan(Workload::BatchL2, 1);
        assert!(!native.done(319, 0) && native.done(320, 0));
        // The smoke floor counts passed reps only: 100 ops at 16 per rep.
        let smoke = opts(None, 1, true).plan(Workload::Cluster2w, 16);
        assert!(!smoke.done(6, 0) && smoke.done(7, 0));
        assert!(smoke.done(8, 1) && !smoke.done(8, 2));
        // More failures than reps (a traced run's probes fail too) must
        // neither panic nor count as passed work.
        assert!(smoke.done(1, 3));
        assert!(!smoke.done(1, 2));
        let timed = opts(Some(0.0), 1, false).plan(Workload::SpillSarsaQ8, 1);
        assert!(!timed.done(2, 0) && timed.done(3, 0));
    }
}
