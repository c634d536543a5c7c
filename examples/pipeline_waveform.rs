//! Visualize the pipeline: render text waveforms of the 4-stage pipe
//! under the three hazard-handling policies and the Qmax ablation.
//!
//! ```text
//! cargo run --release --example pipeline_waveform
//! ```

use qtaccel::accel::{AccelConfig, AccelPipeline, HazardMode, PipelineTrace};
use qtaccel::core::MaxMode;
use qtaccel::envs::GridWorld;
use qtaccel::fixed::Q8_8;

fn traced_run(cfg: AccelConfig, samples: u64) -> (PipelineTrace, f64) {
    // A tiny world maximizes consecutive-update hazards. The trace rides
    // along as an attached telemetry sink — the pipeline feeds it stage
    // events directly, no manual stall bookkeeping needed.
    let g = GridWorld::builder(2, 2).goal(1, 1).build();
    let mut p = AccelPipeline::<Q8_8, PipelineTrace>::with_sink(
        &g,
        cfg,
        0,
        PipelineTrace::new(8 * samples as usize),
    );
    for _ in 0..samples {
        p.step(&g);
    }
    let spc = p.stats().samples_per_cycle();
    (p.into_sink(), spc)
}

fn main() {
    println!("4-state grid world; stages S1-S4 as rows, cycles as columns,");
    println!("cells are iteration ids mod 10, '.' is an idle slot\n");

    let base = AccelConfig::default().with_seed(7);
    for (title, cfg) in [
        (
            "Forwarding (the paper's design): solid diagonal, 1 sample/cycle",
            base,
        ),
        (
            "Stall-only: the front end holds on every dependent update",
            base.with_hazard(HazardMode::StallOnly),
        ),
        (
            "Exact |A|-read scan instead of the Qmax array (SV-A ablation)",
            base.with_max_mode(MaxMode::ExactScan),
        ),
    ] {
        let (trace, spc) = traced_run(cfg, 64);
        println!("{title}");
        println!("samples/cycle = {spc:.3}");
        print!("{}", trace.render_waveform(8, 48));
        println!();
    }
}
