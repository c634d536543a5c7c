//! One module per paper artifact; every `run` function is pure modulo
//! wall-clock measurement and returns a serializable result.
//!
//! [`EXPERIMENTS`] is the one place where each artifact's full-scale run
//! is written down. The `run_all` binary runs its rows, all of them or
//! only those named on its command line.

pub mod ablation;
pub mod convergence;
pub mod faults;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod formats;
pub mod mab;
pub mod seu;
pub mod table1;
pub mod table2;

use crate::paper::TABLE1_STATES;
use crate::report::{results_dir, save_json, ToJson};

/// One paper artifact: its name and its run at full scale.
pub struct Experiment {
    /// The stem of the artifact's file, `results/<name>.json`.
    pub name: &'static str,
    run: fn(&str) -> String,
}

impl Experiment {
    /// Run the experiment at full scale, write its file or files under
    /// `results/`, and return its rendered table.
    pub fn run(&self) -> String {
        (self.run)(self.name)
    }
}

/// Write `value` as `results/<name>.json` and return `table`.
fn saved<T: ToJson>(name: &str, value: &T, table: String) -> String {
    save_json(name, value);
    table
}

/// The sweeps' cap on |S|: every Table I size.
const ALL_SIZES: usize = TABLE1_STATES[TABLE1_STATES.len() - 1];

/// Every paper artifact, in the order `run_all` runs them and
/// `results/summary.md` lists them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        run: |name| {
            let t = table1::run();
            saved(name, &t, t.render())
        },
    },
    Experiment {
        name: "fig3",
        run: |name| {
            let f = fig3::run(ALL_SIZES);
            saved(
                name,
                &f,
                f.render("Fig. 3: Q-Learning resources on xcvu13p (|A|=8)"),
            )
        },
    },
    Experiment {
        name: "fig4",
        run: |name| {
            let f = fig4::run(ALL_SIZES);
            saved(name, &f, f.render())
        },
    },
    Experiment {
        name: "fig5",
        run: |name| {
            let f = fig5::run(ALL_SIZES);
            saved(name, &f, f.render())
        },
    },
    Experiment {
        name: "fig6",
        run: |name| {
            let f = fig6::run(200_000, ALL_SIZES);
            saved(name, &f, f.render())
        },
    },
    Experiment {
        name: "table2",
        run: |name| {
            let t = table2::run(400_000, 200_000, ALL_SIZES);
            saved(name, &t, t.render())
        },
    },
    Experiment {
        name: "fig7",
        run: |name| {
            let f = fig7::run();
            saved(name, &f, f.render())
        },
    },
    Experiment {
        name: "fig8",
        run: |name| {
            let f = fig8::run(1024, 600_000);
            saved(name, &f, f.render())
        },
    },
    Experiment {
        name: "fig9",
        run: |name| {
            // 64x64 terrain tiled 1x1 .. 8x8; gamma raised so the largest
            // tile's diameter stays inside the Q8.8 representable value
            // horizon.
            let f = fig9::run(64, &[1, 2, 4, 8], 600, 0.96875);
            saved(name, &f, f.render())
        },
    },
    Experiment {
        name: "mab",
        run: |name| {
            let m = mab::run(100_000);
            saved(name, &m, m.render())
        },
    },
    Experiment {
        name: "ablation_forwarding",
        run: |name| {
            let a = ablation::run_forwarding(100_000);
            saved(name, &a, a.render())
        },
    },
    Experiment {
        name: "ablation_qmax",
        run: |name| {
            let a = ablation::run_qmax(200_000);
            saved(name, &a, a.render())
        },
    },
    Experiment {
        name: "convergence",
        run: |name| {
            let c = convergence::run(1024, 600_000);
            // The instrumented leg's health snapshots as Perfetto counter
            // tracks (DESIGN.md §2.13), loadable at ui.perfetto.dev.
            let trace = qtaccel_telemetry::chrome_trace_with_health(
                &[],
                &[("ql_1pipe_health".to_string(), c.health.clone())],
            );
            let path = results_dir().join("convergence_health_trace.json");
            std::fs::write(path, trace.pretty()).expect("write health counter tracks");
            saved(name, &c, c.render())
        },
    },
    Experiment {
        name: "seu",
        run: |name| {
            let s = seu::run(1024, 400_000);
            saved(name, &s, s.render())
        },
    },
    Experiment {
        name: "formats",
        run: |name| {
            let (states, samples) = formats::FULL;
            let f = formats::run(states, samples);
            saved(name, &f, f.render())
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn each_name_is_unique_and_names_a_tracked_result() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|f| f.name != e.name),
                "`{}` names two rows",
                e.name
            );
            let file = results.join(format!("{}.json", e.name));
            assert!(file.is_file(), "no {}", file.display());
        }
    }

    /// verify.sh regenerates every artifact but Table II's, whose CPU
    /// rates are host-timed, and diffs `results/`: its list of names
    /// must be this table's.
    #[test]
    fn the_verify_gate_regenerates_every_deterministic_row() {
        let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/verify.sh");
        let script = std::fs::read_to_string(&script).expect("read verify.sh");
        let line = script
            .lines()
            .find_map(|l| l.strip_prefix("DETERMINISTIC_ARTIFACTS=\""))
            .expect("verify.sh sets DETERMINISTIC_ARTIFACTS");
        let listed: Vec<&str> = line
            .strip_suffix('"')
            .expect("one-line list")
            .split_whitespace()
            .collect();
        let rows: Vec<&str> = EXPERIMENTS
            .iter()
            .map(|e| e.name)
            .filter(|&n| n != "table2")
            .collect();
        assert_eq!(listed, rows);
    }
}
