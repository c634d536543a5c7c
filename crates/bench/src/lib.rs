//! Experiment harness regenerating every table and figure of the QTAccel
//! paper.
//!
//! Each experiment lives in [`experiments`] as a pure function returning a
//! serializable result struct. [`experiments::EXPERIMENTS`] pairs each
//! artifact's name with its full-scale run, and the `run_all` binary runs
//! those rows: every one of them, writing JSON per artifact plus a
//! Markdown summary under `results/`, or only the ones it is given by
//! name (`run_all fig3 mab`).
//!
//! | Paper artifact | Module | Name |
//! |---|---|---|
//! | Table I (test cases) | [`experiments::table1`] | `table1` |
//! | Fig. 3 (Q-Learning resources) | [`experiments::fig3`] | `fig3` |
//! | Fig. 4 (BRAM utilization) | [`experiments::fig4`] | `fig4` |
//! | Fig. 5 (SARSA resources) | [`experiments::fig5`] | `fig5` |
//! | Fig. 6 (throughput) | [`experiments::fig6`] | `fig6` |
//! | Table II (CPU comparison) | [`experiments::table2`] | `table2` |
//! | Fig. 7 + §VI-F (baseline comparison) | [`experiments::fig7`] | `fig7` |
//! | Fig. 8 (dual pipeline) | [`experiments::fig8`] | `fig8` |
//! | Fig. 9 (independent pipelines) | [`experiments::fig9`] | `fig9` |
//! | §VII-B (MAB) | [`experiments::mab`] | `mab` |
//! | Ablation: hazard handling | [`experiments::ablation`] | `ablation_forwarding` |
//! | Ablation: Qmax array | [`experiments::ablation`] | `ablation_qmax` |
//! | §VII-A convergence rate | [`experiments::convergence`] | `convergence` |
//! | SEU robustness | [`experiments::seu`] | `seu` |
//! | Datapath and stored formats | [`experiments::formats`] | `formats` |

pub mod experiments;
pub mod grids;
pub mod metrics;
pub mod paper;
pub mod report;
pub mod timing;

// The JSON derive macro moved to the telemetry crate with the rest of
// the emitter; re-exported at the old path so `crate::impl_to_json!`
// call sites (and downstream `qtaccel_bench::impl_to_json` imports)
// are unaffected.
pub use qtaccel_telemetry::impl_to_json;
