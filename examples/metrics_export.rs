//! Metrics-service demo (DESIGN.md §2.10): train two hazard-heavy
//! pipelines with event sinks attached, export their traces as a
//! Chrome/Perfetto trace file, publish the perf counters and the
//! stall-run-length histogram into a [`MetricsRegistry`], and serve the
//! registry on a local OpenMetrics endpoint — then scrape it back over
//! HTTP to show what `curl` (or a Prometheus scraper) would see.
//!
//! ```text
//! cargo run --release --example metrics_export
//! ```
//!
//! Load the written `results/trace_qlearning.json` at
//! <https://ui.perfetto.dev> (or `chrome://tracing`) to inspect the
//! per-pipeline tracks: stage spans, commit markers, and the stall
//! intervals the StallOnly hazard policy produces.

use qtaccel::accel::{AccelConfig, HazardMode, QLearningAccel};
use qtaccel::envs::GridWorld;
use qtaccel::fixed::Q8_8;
use qtaccel::telemetry::export::{chrome_trace, scrape};
use qtaccel::telemetry::Collector;
use qtaccel::telemetry::{stall_run_lengths, Event, MetricsRegistry, RingSink};

fn main() {
    // Two pipelines under StallOnly so the traces actually show stalls
    // (the paper's forwarding design would render an unbroken stream).
    let base = AccelConfig::default().with_hazard(HazardMode::StallOnly);
    let mut registry = MetricsRegistry::new();
    let mut tracks: Vec<(String, Vec<Event>)> = Vec::new();
    let mut stall_hist = qtaccel::telemetry::Histogram::new();
    let mut merged = qtaccel::telemetry::CounterBank::new();

    for i in 0..2u64 {
        let g = GridWorld::builder(8, 8).goal(7, 7).build();
        let mut accel = QLearningAccel::<Q8_8, RingSink>::with_sink(
            &g,
            base.with_seed(11 + i),
            RingSink::new(1 << 14),
        );
        let stats = accel.train_samples(&g, 2_000);
        println!(
            "pipeline-{i}: {} samples in {} cycles ({} stalled)",
            stats.samples, stats.cycles, stats.stalls
        );
        stall_hist.merge(&stall_run_lengths(accel.sink().events()));
        merged.merge(accel.counters());
        tracks.push((
            format!("pipeline-{i}"),
            accel.sink().events().copied().collect(),
        ));
    }
    registry.record_counter_bank(&merged);
    registry.set_histogram(
        "qtaccel_stall_run_cycles",
        "consecutive stalled cycles per stall interval (StallOnly probe)",
        &stall_hist,
    );

    // Perfetto export: one named track per pipeline.
    std::fs::create_dir_all("results").expect("create results/");
    let trace_path = "results/trace_qlearning.json";
    std::fs::write(trace_path, chrome_trace(&tracks).pretty()).expect("write trace");
    println!("\nwrote {trace_path} — load it at https://ui.perfetto.dev\n");

    // Scrape endpoint: ephemeral port, self-scrape, print the payload.
    let server = Collector::serve("127.0.0.1:0").expect("bind ephemeral port");
    server
        .update(|reg| reg.merge(&registry))
        .expect("a fresh scrape registry takes every metric");
    println!(
        "serving OpenMetrics on http://{}/metrics — scraping it back:\n",
        server.addr()
    );
    let body = scrape(server.addr()).expect("self-scrape");
    print!("{body}");
}
