//! Table rendering, result persistence, and the `--check-baseline`
//! guard that reads a committed result back.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Render an aligned ASCII table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ");
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Format a sample rate the way the paper's Table II does (`105.5K`,
/// `189M`).
pub fn fmt_rate(samples_per_sec: f64) -> String {
    if samples_per_sec >= 1e6 {
        format!("{:.0}M", samples_per_sec / 1e6)
    } else if samples_per_sec >= 1e3 {
        format!("{:.1}K", samples_per_sec / 1e3)
    } else {
        format!("{samples_per_sec:.0}")
    }
}

/// Format a percentage with sensible precision across Fig. 4's 4 decades.
pub fn fmt_pct(pct: f64) -> String {
    if pct >= 0.1 {
        format!("{pct:.2}")
    } else {
        format!("{pct:.3}")
    }
}

/// Results directory (`results/` under the workspace root, created on
/// demand).
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// The JSON value tree and conversion trait, hosted by the telemetry
/// crate since the perf-counter/event-trace work (the emitter grew a
/// parser and a compact mode there); re-exported so experiment code and
/// existing `qtaccel_bench::report::{Json, ToJson}` imports keep
/// working. Derive [`ToJson`] for a struct with one
/// [`impl_to_json!`](crate::impl_to_json) line.
pub use qtaccel_telemetry::{Json, ToJson};

/// Persist a result as pretty JSON under `results/`.
///
/// Top-level objects are stamped with a `manifest` field — git commit,
/// dirty flag, wall-clock time and tool version (see
/// `qtaccel_telemetry::manifest`) — so every emitted figure/table can be
/// traced back to the tree that produced it. An experiment that already
/// provides its own `manifest` field wins; non-object roots are written
/// unmodified.
pub fn save_json<T: ToJson>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    let mut tree = value.to_json();
    if let Json::Obj(fields) = &mut tree {
        if !fields.iter().any(|(k, _)| *k == "manifest") {
            fields.push(("manifest", qtaccel_telemetry::manifest::provenance()));
        }
    }
    fs::write(&path, tree.pretty()).expect("write result JSON");
    path
}

/// The q_learning `host_samples_per_sec` that a committed
/// `bench_throughput` report at `path` recorded for `engine` at
/// `states`, read back through the telemetry JSON parser.
pub fn baseline_rate(path: &Path, engine: &str, states: usize) -> Result<f64, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v = qtaccel_telemetry::json::parse(&text)?;
    let rows = v
        .get("rows")
        .and_then(|r| r.as_arr())
        .ok_or("baseline JSON has no rows array")?;
    let row = rows
        .iter()
        .find(|r| {
            r.get("algorithm").and_then(|x| x.as_str()) == Some("q_learning")
                && r.get("engine").and_then(|x| x.as_str()) == Some(engine)
                && r.get("states").and_then(|x| x.as_u64()) == Some(states as u64)
        })
        .ok_or_else(|| format!("no q_learning/{states}/{engine} row in baseline"))?;
    row.get("host_samples_per_sec")
        .and_then(|x| x.as_f64())
        .ok_or_else(|| "baseline row lacks host_samples_per_sec".into())
}

/// The `--check-baseline` floor guard: exit 1 unless `measured`, or the
/// best of up to four calls of `remeasure`, reaches 95% of the
/// `recorded` rate. Host timings on a shared box swing far more than 5%
/// run to run, so one low sample is not evidence of a regression.
pub fn check_floor(
    what: &str,
    recorded: f64,
    mut measured: f64,
    mut remeasure: impl FnMut() -> f64,
) {
    let floor = 0.95 * recorded;
    for retry in 1..=4 {
        if measured >= floor {
            break;
        }
        println!(
            "baseline check: {what} {} below floor {}, re-measuring (retry {retry}/4)",
            fmt_rate(measured),
            fmt_rate(floor),
        );
        measured = measured.max(remeasure());
    }
    println!(
        "baseline check: {what} {} vs recorded {} (floor {})",
        fmt_rate(measured),
        fmt_rate(recorded),
        fmt_rate(floor),
    );
    if measured < floor {
        eprintln!("error: {what} regressed more than 5% vs the recorded baseline");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            "t",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        // title, header, separator, two data rows.
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[3].contains('1'));
        assert!(lines[4].starts_with("333"));
    }

    #[test]
    fn rate_formatting_matches_paper_style() {
        assert_eq!(fmt_rate(189e6), "189M");
        assert_eq!(fmt_rate(105_500.0), "105.5K");
        assert_eq!(fmt_rate(42.0), "42");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(78.125), "78.12");
        assert_eq!(fmt_pct(0.32), "0.32");
        assert_eq!(fmt_pct(0.018), "0.018");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        render_table("t", &["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn baseline_rate_reads_the_tracked_throughput_rows() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_throughput.json");
        assert!(baseline_rate(&path, "fast", 16_384).expect("fast row") > 0.0);
        assert!(baseline_rate(&path, "fast_q8", 262_144).expect("fast_q8 row") > 0.0);
        let missing = baseline_rate(&path, "fast_q8", 3).unwrap_err();
        assert_eq!(missing, "no q_learning/3/fast_q8 row in baseline");
    }

    #[test]
    fn the_floor_guard_keeps_the_best_of_at_most_four_remeasurements() {
        let mut calls = 0;
        check_floor("row", 100.0, 95.0, || {
            calls += 1;
            0.0
        });
        assert_eq!(calls, 0, "a reading at the floor is not re-measured");
        let mut reads = [60.0, 99.0, 70.0, 80.0].into_iter();
        let mut calls = 0;
        check_floor("row", 100.0, 50.0, || {
            calls += 1;
            reads.next().expect("at most four re-measurements")
        });
        assert_eq!(calls, 2, "re-measuring stops at the floor");
        let mut reads = [60.0, 70.0, 80.0, 96.0].into_iter();
        check_floor("row", 100.0, 50.0, || {
            reads.next().expect("at most four re-measurements")
        });
    }

    #[test]
    fn impl_to_json_macro_round_trip() {
        use crate::impl_to_json;
        struct Demo {
            n: usize,
            rate: f64,
            label: String,
            maybe: Option<u64>,
            pair: (u64, f64),
        }
        impl_to_json!(Demo {
            n,
            rate,
            label,
            maybe,
            pair
        });
        let d = Demo {
            n: 3,
            rate: 0.25,
            label: "q".into(),
            maybe: None,
            pair: (2, 0.5),
        };
        let out = d.to_json().pretty();
        assert!(out.contains("\"n\": 3"));
        assert!(out.contains("\"rate\": 0.25"));
        assert!(out.contains("\"label\": \"q\""));
        assert!(out.contains("\"maybe\": null"));
        assert!(out.contains("0.5"));
    }

    #[test]
    fn save_json_stamps_a_provenance_manifest() {
        let p = save_json(
            "__emitter_smoke",
            &Json::Obj(vec![("ok", Json::Bool(true))]),
        );
        let body = std::fs::read_to_string(&p).unwrap();
        assert!(
            body.starts_with("{\n  \"ok\": true,\n  \"manifest\": {"),
            "{body}"
        );
        // The stamped report re-parses through the telemetry parser.
        let v = qtaccel_telemetry::json::parse(&body).unwrap();
        assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
        let m = v.get("manifest").expect("manifest attached");
        assert!(m.get("git_commit").and_then(|c| c.as_str()).is_some());
        assert!(m.get("unix_time").and_then(|t| t.as_u64()).is_some());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn save_json_respects_an_explicit_manifest() {
        let p = save_json(
            "__emitter_smoke_manual",
            &Json::Obj(vec![("manifest", Json::Str("mine".into()))]),
        );
        let body = std::fs::read_to_string(&p).unwrap();
        assert_eq!(body, "{\n  \"manifest\": \"mine\"\n}");
        let _ = std::fs::remove_file(p);
    }
}
