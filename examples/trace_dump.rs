//! Telemetry demo: run a hazard-heavy grid world under each
//! hazard-handling policy with a [`PipelineTrace`] sink attached, then
//! dump the pipeline waveform and the perf-counter bank (the register
//! map DESIGN.md §2.6 documents).
//!
//! ```text
//! cargo run --release --example trace_dump
//! ```

use qtaccel::accel::{AccelConfig, AccelPipeline, HazardMode, PipelineTrace};
use qtaccel::envs::GridWorld;
use qtaccel::fixed::Q8_8;
use qtaccel::telemetry::CounterId;

fn main() {
    println!("4-state grid world, 64 iterations per hazard mode.");
    println!("Waveform: stages S1-S4 as rows, cycles as columns, cells are");
    println!("iteration ids mod 10, '.' is an idle slot.\n");

    let base = AccelConfig::default().with_seed(7);
    for (title, cfg) in [
        ("Forwarding (the paper's design): 1 sample/cycle", base),
        (
            "Stall-only: the front end holds on every dependent update",
            base.with_hazard(HazardMode::StallOnly),
        ),
        (
            "Ignore: no interlock at all (stale operands — demonstration only)",
            base.with_hazard(HazardMode::Ignore),
        ),
    ] {
        let g = GridWorld::builder(2, 2).goal(1, 1).build();
        let mut p =
            AccelPipeline::<Q8_8, PipelineTrace>::with_sink(&g, cfg, 0, PipelineTrace::new(200));
        for _ in 0..64 {
            p.step(&g);
        }

        println!("== {title} ==");
        println!("samples/cycle = {:.3}", p.stats().samples_per_cycle());
        print!("{}", p.sink().render_waveform(8, 48));
        if p.sink().dropped_iterations() > 0 {
            println!(
                "(trace full: {} later iterations dropped whole)",
                p.sink().dropped_iterations()
            );
        }
        println!("addr  counter         value");
        for id in CounterId::ALL {
            println!(
                "{:>4}  {:<14} {:>6}",
                id.addr(),
                id.name(),
                p.counters().get(id)
            );
        }
        println!();
    }
}
