//! Datapath format ablation: learning quality and hardware cost across
//! fixed-point widths (the DESIGN.md S4 calibration, measured), now
//! including the quantized stored formats (DESIGN.md S2.14) — the
//! Pareto table of stored bits × convergence quality × modeled MS/s/W.
//!
//! Full runs write the tracked `BENCH_formats.json` at the workspace
//! root (`run_all formats` writes `results/formats.json`); `--quick` trims
//! the workload and writes `results/BENCH_formats_quick.json` so the
//! tracked baseline is never clobbered by a reduced run. `--check`
//! exits non-zero unless the 8-bit stored-format quality gate holds
//! (q8s2 >= 99% of the 16-bit greedy-policy quality at the gate's
//! horizon-covered anchor) — the guard `scripts/verify.sh` runs.

use qtaccel_bench::experiments::formats;
use qtaccel_bench::report::{results_dir, ToJson};
use qtaccel_telemetry::{manifest, Json};
use std::path::PathBuf;

fn main() {
    let mut quick = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            other => {
                eprintln!("error: unknown argument `{other}` (supported: --quick, --check)");
                std::process::exit(2);
            }
        }
    }
    let (states, samples) = if quick { (256, 400_000) } else { formats::FULL };
    let f = formats::run(states, samples);
    print!("{}", f.render());

    let report = Json::Obj(vec![
        ("quick", quick.to_json()),
        ("states", states.to_json()),
        ("samples", samples.to_json()),
        ("formats", f.to_json()),
        ("manifest", manifest::provenance()),
    ]);
    let path: PathBuf = if quick {
        results_dir().join("BENCH_formats_quick.json")
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_formats.json")
    };
    std::fs::write(&path, report.pretty()).expect("write formats report");
    println!("wrote {}", path.display());

    if check && !f.gate.pass {
        eprintln!(
            "error: 8-bit stored-format quality gate failed: ratio {:.4} < target {:.2} \
             ({:.4} quantized vs {:.4} baseline at {} states)",
            f.gate.ratio,
            f.gate.target,
            f.gate.quantized_optimality,
            f.gate.baseline_optimality,
            f.gate.states,
        );
        std::process::exit(1);
    }
}
