//! Run the paper's evaluation: every row of
//! `qtaccel_bench::experiments::EXPERIMENTS`, or only the named ones.
//!
//! ```text
//! cargo run --release -p qtaccel-bench --bin run_all              # all + results/summary.md
//! cargo run --release -p qtaccel-bench --bin run_all -- fig3 mab  # only these rows
//! ```
//!
//! Each row writes `results/<name>.json` (the `convergence` row also
//! writes `results/convergence_health_trace.json`) and prints its table.
//! Only a run of every row writes `results/summary.md`, because that file
//! carries Table II's host timings. An unknown name exits 2, before any
//! row runs.

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;

use qtaccel_bench::experiments::EXPERIMENTS;
use qtaccel_bench::report::results_dir;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names
        .iter()
        .find(|n| EXPERIMENTS.iter().all(|e| e.name != n.as_str()))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!(
            "error: unknown artifact `{unknown}` (known: {})",
            known.join(" ")
        );
        return ExitCode::from(2);
    }
    let rows: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.name))
        .collect();

    let mut md = String::from("# QTAccel reproduction — experiment output\n\n");
    for (i, e) in rows.iter().enumerate() {
        println!("[{}/{}] {}", i + 1, rows.len(), e.name);
        let table = e.run();
        print!("{table}");
        let _ = writeln!(md, "```\n{table}```\n");
    }
    if names.is_empty() {
        let path = results_dir().join("summary.md");
        fs::write(&path, &md).expect("write summary");
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
