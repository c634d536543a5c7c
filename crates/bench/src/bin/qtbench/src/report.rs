//! The JSON report a set of runs writes under `target/qtbench/`, and
//! `--compare`, which judges one report against another by the bounds the
//! benchmark fixes for its end-to-end metrics and the spread measured
//! between each report's runs.

use std::path::Path;

use crate::host::Guard;
use crate::metrics::{ascending, median, min_samples, percentile, Better, Def, Summary};
use crate::metrics::{E2E, LAYER, UNBOUNDED};
use crate::workload::{RunResult, Workload, WORKERS};
use qtaccel_telemetry::json::{self, Json, Parsed};
use qtaccel_telemetry::manifest;

/// One run of a workload (one child process) and the host guard around it.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub result: RunResult,
    pub guard: Guard,
}

/// Every run of one workload in a set.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub workload: Workload,
    pub runs: Vec<Run>,
}

impl Entry {
    pub fn attempted(&self) -> u64 {
        self.runs.iter().map(|r| r.result.tally.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.runs.iter().map(|r| r.result.tally.failed).sum()
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    pub fn correct(&self) -> bool {
        !self.runs.is_empty() && self.runs.iter().all(|r| r.result.correct())
    }

    pub fn host_unstable(&self) -> bool {
        self.runs.iter().any(|r| r.guard.unstable())
    }

    /// Each run's value of `def`, from the runs that report it.
    pub fn values(&self, def: &Def) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.result.metrics.iter().find(|m| m.def.name == def.name))
            .map(|m| m.value)
            .collect()
    }

    /// The op latency percentiles over every op of every run. The p90 is
    /// left out when fewer than [`min_samples`]`(90)` ops were timed.
    fn op_summaries(&self) -> Vec<Summary> {
        let ops = ascending(
            &self
                .runs
                .iter()
                .flat_map(|r| r.result.ops_ms.iter().copied())
                .collect::<Vec<_>>(),
        );
        let summary = |def: &'static Def, value| Summary {
            def,
            value,
            quartiles: None,
            n: ops.len(),
        };
        let mut out = vec![summary(&UNBOUNDED[0], median(&ops))];
        if ops.len() >= min_samples(90) {
            out.push(summary(&UNBOUNDED[1], percentile(&ops, 90)));
        }
        out
    }

    /// The set's value of every metric it reports: end-to-end metrics and
    /// op latencies, or with `trace` the per-layer metrics.
    pub fn summaries(&self, trace: bool) -> Vec<Summary> {
        let defs: &'static [Def] = if trace { &LAYER } else { &E2E };
        let mut out: Vec<Summary> = defs
            .iter()
            .map(|d| Summary::of_runs(d, &self.values(d)))
            .collect();
        if !trace {
            out.extend(self.op_summaries());
        }
        out
    }

    /// `(name, value, unit)` host rows over the runs: the median probe
    /// reading, the largest probe shift and steal share, and whether any
    /// run was flagged.
    pub fn host_rows(&self) -> [(&'static str, f64, &'static str); 4] {
        let max = |f: fn(&Guard) -> f64| self.runs.iter().map(|r| f(&r.guard)).fold(0.0, f64::max);
        let probes: Vec<f64> = self
            .runs
            .iter()
            .flat_map(|r| [r.guard.probe_before_ns, r.guard.probe_after_ns])
            .collect();
        [
            ("host.probe_ns", median(&ascending(&probes)), "ns"),
            ("host.probe_shift", max(|g| g.shift()), "share"),
            ("host.steal_share", max(|g| g.steal_share), "share"),
            (
                "host.unstable",
                f64::from(u8::from(self.host_unstable())),
                "flag",
            ),
        ]
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub seed: u64,
    pub trace: bool,
    pub smoke: bool,
    pub seconds: Option<f64>,
    pub entries: Vec<Entry>,
}

fn summary_json(s: &Summary) -> Json {
    let (q1, q3) = s.quartiles.map_or((Json::Null, Json::Null), |(a, b)| {
        (Json::Num(a), Json::Num(b))
    });
    Json::Obj(vec![
        ("name", Json::Str(s.def.name.into())),
        ("unit", Json::Str(s.def.unit.into())),
        ("better", Json::Str(s.def.better.name().into())),
        ("value", Json::Num(s.value)),
        ("q1", q1),
        ("q3", q3),
        ("n", Json::UInt(s.n as u64)),
    ])
}

impl Report {
    pub fn host_unstable(&self) -> bool {
        self.entries.iter().any(Entry::host_unstable)
    }

    /// The report: per workload the set's summaries (median and
    /// quartiles over runs), then every run as measured. Reading a report
    /// back uses the runs only.
    pub fn to_json(&self) -> Json {
        let entries = self.entries.iter().map(|e| {
            let runs = e.runs.iter().map(|r| {
                let Json::Obj(mut fields) = r.result.to_json() else {
                    unreachable!("a run result is a JSON object")
                };
                fields.insert(0, ("host", r.guard.to_json()));
                Json::Obj(fields)
            });
            Json::Obj(vec![
                ("name", Json::Str(e.workload.name().into())),
                ("why", Json::Str(e.workload.why().into())),
                ("size", Json::Str(e.workload.size(self.smoke))),
                ("correct", Json::Bool(e.correct())),
                ("attempted", Json::UInt(e.attempted())),
                ("failed", Json::UInt(e.failed())),
                ("failed_frac", Json::Num(e.failed_frac())),
                ("host_unstable", Json::Bool(e.host_unstable())),
                (
                    "metrics",
                    Json::Arr(e.summaries(self.trace).iter().map(summary_json).collect()),
                ),
                ("runs", Json::Arr(runs.collect())),
            ])
        });
        Json::Obj(vec![
            ("seed", Json::UInt(self.seed)),
            ("trace", Json::Bool(self.trace)),
            ("smoke", Json::Bool(self.smoke)),
            ("seconds", self.seconds.map_or(Json::Null, Json::Num)),
            ("host_unstable", Json::Bool(self.host_unstable())),
            // `host_parallelism` in the manifest is `available_parallelism`;
            // `worker_threads` is the most any workload runs at once.
            (
                "manifest",
                manifest::provenance_with_workers(WORKERS as u64),
            ),
            ("workloads", Json::Arr(entries.collect())),
        ])
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let list = |p: &Parsed, key: &str| {
            p.get(key)
                .and_then(Parsed::as_arr)
                .map(<[Parsed]>::to_vec)
                .ok_or_else(|| format!("report lacks `{key}`"))
        };
        let entries = list(&doc, "workloads")?
            .iter()
            .map(|w| {
                let name = w
                    .get("name")
                    .and_then(Parsed::as_str)
                    .ok_or("workload without a name")?;
                let runs = list(w, "runs")?
                    .iter()
                    .map(|r| {
                        Ok(Run {
                            result: RunResult::from_parsed(r)?,
                            guard: r
                                .get("host")
                                .and_then(Guard::from_parsed)
                                .ok_or("run lacks `host`")?,
                        })
                    })
                    .collect::<Result<_, String>>()?;
                Ok(Entry {
                    workload: Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    runs,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            seed: doc
                .get("seed")
                .and_then(Parsed::as_u64)
                .ok_or("report lacks `seed`")?,
            trace: doc.get("trace").and_then(Parsed::as_bool).unwrap_or(false),
            smoke: doc.get("smoke").and_then(Parsed::as_bool).unwrap_or(false),
            seconds: doc.get("seconds").and_then(Parsed::as_f64),
            entries,
        })
    }

    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regressed,
    /// The between-run spread of either side is wider than the bound, or
    /// neither side has two runs to measure it: the pair cannot resolve a
    /// change of the bound's size.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Judge the runs `b` of a metric against the baseline runs `a`: the share
/// by which `b`'s median is worse than `a`'s (negative when better) and
/// the verdict under the metric's bound. A spread wider than the bound
/// still resolves when every run of `b` reads better than every run of `a`.
pub fn judge(def: &'static Def, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (sa, sb) = (Summary::of_runs(def, a), Summary::of_runs(def, b));
    let worse = match def.better {
        Better::Higher => (sa.value - sb.value) / sa.value,
        Better::Lower => (sb.value - sa.value) / sa.value,
    };
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let spread = match (sa.spread(), sb.spread()) {
        (None, None) => None,
        (x, y) => Some(x.unwrap_or(0.0).max(y.unwrap_or(0.0))),
    };
    let better = |x: f64, y: f64| match def.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let b_wins_all = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = match spread {
        _ if worse > bound && !b_wins_all => match spread {
            Some(s) if s <= bound => Verdict::Regressed,
            _ => Verdict::Unresolved,
        },
        Some(s) if s <= bound => Verdict::Pass,
        _ if b_wins_all => Verdict::Pass,
        _ => Verdict::Unresolved,
    };
    (worse, verdict)
}

fn quartile_text(s: &Summary) -> String {
    s.quartiles
        .map_or("-".into(), |(q1, q3)| format!("[{q1:.6}, {q3:.6}]"))
}

/// Print the comparison of report `b` against baseline `a`. Returns the
/// process exit code: 1 on a regression, a rise in `failed_frac`, a host
/// flagged unstable in either report, or a workload or metric missing
/// from `b`; 0 otherwise, UNRESOLVED included.
pub fn compare(a: &Report, b: &Report) -> i32 {
    let mut bad = false;
    println!(
        "{:<15} {:<14} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "A [q1, q3]", "B", "B [q1, q3]", "worse", "bound"
    );
    for ea in &a.entries {
        let name = ea.workload.name();
        let Some(eb) = b.entries.iter().find(|e| e.workload == ea.workload) else {
            println!("{name:<15} missing from B");
            bad = true;
            continue;
        };
        let (sa, sb) = (ea.summaries(false), eb.summaries(false));
        for s in &sa {
            let Some(t) = sb.iter().find(|t| t.def.name == s.def.name) else {
                // B timed too few ops for a tail percentile: shown, not judged.
                println!("{name:<15} {:<14} missing from B", s.def.name);
                bad |= s.def.bound.is_some();
                continue;
            };
            let verdict = match s.def.bound {
                Some(_) => {
                    let (_, v) = judge(s.def, &ea.values(s.def), &eb.values(s.def));
                    bad |= v == Verdict::Regressed;
                    v.name()
                }
                None => "reported",
            };
            let worse = match s.def.better {
                Better::Higher => (s.value - t.value) / s.value,
                Better::Lower => (t.value - s.value) / s.value,
            };
            println!(
                "{name:<15} {:<14} {:>13.6} {:>27} {:>13.6} {:>27} {:>7.2}% {:>6}  {verdict}",
                s.def.name,
                s.value,
                quartile_text(s),
                t.value,
                quartile_text(t),
                worse * 100.0,
                s.def
                    .bound
                    .map_or("-".into(), |b| format!("{:.1}%", b * 100.0)),
            );
        }
        let (fa, fb) = (ea.failed_frac(), eb.failed_frac());
        println!(
            "{name:<15} {:<14} {fa:>13.6} {:>27} {fb:>13.6}",
            "failed_frac", ""
        );
        if fb > fa {
            println!("{name:<15} failed_frac rose from {fa} to {fb}");
            bad = true;
        }
        for (side, e) in [("A", ea), ("B", eb)] {
            for (k, r) in e.runs.iter().enumerate() {
                if r.guard.unstable() {
                    println!(
                        "{name:<15} host_unstable in {side} run {k}: probe moved {:.1}%",
                        r.guard.shift() * 100.0
                    );
                    bad = true;
                }
            }
        }
    }
    i32::from(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use crate::workload::Tally;

    fn run(samples_per_s: f64, failed: u64) -> Run {
        Run {
            result: RunResult {
                tally: Tally {
                    attempted: 10,
                    failed,
                    errors: vec!["a \"quoted\" failure".into(); failed as usize],
                },
                metrics: vec![
                    Metric::new("samples_per_s", samples_per_s),
                    Metric::new("setup_s", 0.004),
                ],
                ops_ms: vec![12.5, 13.0, 12.75],
            },
            guard: Guard {
                probe_before_ns: 5.0,
                probe_after_ns: 5.1,
                steal_share: 0.001,
            },
        }
    }

    /// A report of one `batch_l2` entry with a run per value.
    fn report(values: &[f64], failed: u64) -> Report {
        Report {
            seed: 1,
            trace: false,
            smoke: true,
            seconds: Some(2.5),
            entries: vec![Entry {
                workload: Workload::BatchL2,
                runs: values.iter().map(|&v| run(v, failed)).collect(),
            }],
        }
    }

    #[test]
    fn report_round_trips_through_the_telemetry_parser() {
        let r = report(&[1.5e8, 1.4e8, 1.45e8], 1);
        let text = r.to_json().pretty();
        assert_eq!(Report::parse(&text).expect("parses"), r);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_between_run_spread() {
        let tput = &E2E[0];
        let bound = tput.bound.expect("bounded");
        let base = [100.0, 101.0, 99.0];
        let scaled = |k: f64| base.map(|v| v * k);
        // Within the bound, and beyond it, with a narrow spread.
        assert_eq!(judge(tput, &base, &scaled(0.97)).1, Verdict::Pass);
        assert_eq!(
            judge(tput, &base, &scaled(1.0 - bound - 0.05)).1,
            Verdict::Regressed
        );
        // A spread wider than the bound cannot resolve a regression...
        let wide = [100.0, 100.0 * (1.0 + 2.0 * bound), 100.0 * (1.0 - bound)];
        assert_eq!(
            judge(tput, &wide, &scaled(1.0 - bound - 0.05)).1,
            Verdict::Unresolved
        );
        // ...nor a pass, unless every run of B beats every run of A.
        assert_eq!(judge(tput, &wide, &[101.0]).1, Verdict::Unresolved);
        assert_eq!(judge(tput, &wide, &[200.0, 210.0]).1, Verdict::Pass);
        // One run a side measures no spread.
        assert_eq!(judge(tput, &[100.0], &[99.0]).1, Verdict::Unresolved);
        // One side's spread stands for both.
        assert_eq!(judge(tput, &base, &[99.0]).1, Verdict::Pass);

        assert_eq!(compare(&report(&base, 0), &report(&scaled(0.99), 0)), 0);
        assert_eq!(compare(&report(&base, 0), &report(&scaled(0.6), 0)), 1);
        assert_eq!(
            compare(&report(&base, 0), &report(&base, 1)),
            1,
            "failures rose"
        );
        let mut shaky = report(&base, 0);
        shaky.entries[0].runs[1].guard.probe_after_ns = 7.0;
        assert_eq!(compare(&report(&base, 0), &shaky), 1, "host unstable");
    }

    #[test]
    fn op_percentiles_pool_every_run_and_keep_the_tail_rule() {
        let mut r = report(&[1.0; 3], 0);
        let e = &mut r.entries[0];
        let names =
            |e: &Entry| -> Vec<&str> { e.summaries(false).iter().map(|s| s.def.name).collect() };
        assert_eq!(
            names(e),
            ["samples_per_s", "setup_s", "peak_rss_mb", "op_ms_p50"]
        );
        for (k, run) in e.runs.iter_mut().enumerate() {
            run.result.ops_ms = (0..34).map(|i| f64::from(i * 3 + k as i32)).collect();
        }
        let ops = e.summaries(false);
        let p90 = ops
            .iter()
            .find(|s| s.def.name == "op_ms_p90")
            .expect("102 ops");
        assert_eq!((p90.n, p90.value), (102, 91.0));
    }
}
