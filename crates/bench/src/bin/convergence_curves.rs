//! Convergence-rate curves: single vs dual pipeline, QL vs SARSA.
//!
//! Alongside the JSON report (which carries the instrumented leg's
//! health-probe snapshots, DESIGN.md §2.13) the run renders those
//! snapshots as Perfetto counter tracks — TD-error p99, policy churn,
//! rail proximity and state coverage over the training cycle axis —
//! loadable at ui.perfetto.dev.
fn main() {
    let c = qtaccel_bench::experiments::convergence::run(1024, 600_000);
    print!("{}", c.render());
    let path = qtaccel_bench::report::save_json("convergence", &c);
    println!("saved {}", path.display());

    let trace = qtaccel_telemetry::chrome_trace_with_health(
        &[],
        &[("ql_1pipe_health".to_string(), c.health.clone())],
    );
    let trace_path = qtaccel_bench::report::results_dir().join("convergence_health_trace.json");
    std::fs::write(&trace_path, trace.pretty()).expect("write health counter tracks");
    println!("saved {} (Perfetto counter tracks)", trace_path.display());
}
