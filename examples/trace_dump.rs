//! Telemetry demo: run a hazard-heavy grid world under each
//! hazard-handling policy and the exact-scan ablation with a
//! [`RingSink`] attached, then draw the pipeline waveform from the
//! ring's stage events and dump the perf-counter bank (the register map
//! DESIGN.md §2.6 documents).
//!
//! ```text
//! cargo run --release --example trace_dump
//! ```

use qtaccel::accel::{AccelConfig, AccelPipeline, HazardMode};
use qtaccel::core::MaxMode;
use qtaccel::envs::GridWorld;
use qtaccel::fixed::Q8_8;
use qtaccel::telemetry::{export, CounterId, RingSink, TraceSink};

const STEPS: usize = 64;

fn main() {
    println!("4-state grid world, {STEPS} iterations per configuration.");
    println!("Waveform: stages S1-S4 as rows, cycles as columns, cells are");
    println!("iteration ids mod 10, '.' is an idle slot.\n");

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
            "Ignore: no interlock at all (stale operands — demonstration only)",
            base.with_hazard(HazardMode::Ignore),
        ),
        (
            "Exact |A|-read scan instead of the Qmax array (SV-A ablation)",
            base.with_max_mode(MaxMode::ExactScan),
        ),
    ] {
        // A tiny world maximizes consecutive-update hazards. The ring has
        // room for every event of the run (no step emits 16), so the
        // waveform's right edge is drawn too.
        let g = GridWorld::builder(2, 2).goal(1, 1).build();
        let ring = RingSink::new(16 * STEPS);
        let mut p = AccelPipeline::<Q8_8, RingSink>::with_sink(&g, cfg, 0, ring);
        for _ in 0..STEPS {
            p.step(&g);
        }

        println!("== {title} ==");
        println!("samples/cycle = {:.3}", p.stats().samples_per_cycle());
        print!("{}", export::waveform(p.sink().events(), 8, 48));
        if p.sink().dropped_iterations() > 0 {
            println!(
                "(ring full: the {} oldest iterations were evicted)",
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
