//! A space-rover style scenario (the paper's motivating application,
//! §VI-C: "sufficient to support many robotics applications like space
//! rovers"): a 32x32 terrain with obstacle ridges, trained with both
//! engines, comparing hardware-format training against the f64 software
//! reference and printing the resource/throughput story for the larger
//! deployments.
//!
//! ```text
//! cargo run --release --example gridworld_robot
//! ```

use qtaccel::accel::{AccelConfig, QLearningAccel, SarsaAccel};
use qtaccel::core::eval::step_optimality;
use qtaccel::core::trainer::q_learning;
use qtaccel::envs::{ActionSet, GridWorld};
use qtaccel::fixed::{QValue, Q8_8};

fn terrain() -> GridWorld {
    let mut b = GridWorld::builder(32, 32)
        .goal(30, 29)
        .actions(ActionSet::Eight);
    // Two obstacle ridges with gaps: the rover must route around them.
    for y in 4..28 {
        if y != 14 {
            b = b.obstacle(10, y);
        }
    }
    for y in 2..26 {
        if y != 6 {
            b = b.obstacle(21, y);
        }
    }
    b.build()
}

fn main() {
    let env = terrain();
    let dists = env.shortest_distances();
    let reachable = dists.iter().flatten().count();
    println!(
        "terrain: 32x32, 8 actions, {} reachable cells, goal at (30,29)",
        reachable
    );

    // --- Q-Learning on the accelerator (hardware Q8.8) ----------------
    let cfg = AccelConfig::default().with_gamma(0.96875).with_seed(2024);
    let mut ql = QLearningAccel::<Q8_8>::new(&env, cfg);
    ql.train_samples(&env, 2_000_000);
    let ql_opt = step_optimality(&env, &ql.greedy_policy(), &dists);

    // --- SARSA on the accelerator --------------------------------------
    // On-policy exploration has to thread the ridge gaps itself, so SARSA
    // needs a wider epsilon and more samples than off-policy Q-Learning
    // (whose random behaviour policy explores for free). At 180+ MS/s the
    // extra samples cost ~33 ms of modeled FPGA time.
    let mut sa = SarsaAccel::<Q8_8>::new(&env, cfg, 0.3);
    sa.train_samples(&env, 8_000_000);
    let sa_opt = step_optimality(&env, &sa.greedy_policy(), &dists);

    // --- f64 software reference for comparison ------------------------
    let mut sw = q_learning::<f64, _>(env.clone(), 2024);
    sw.run_samples(2_000_000);
    let sw_opt = step_optimality(&env, &sw.greedy_policy(), &dists);

    println!("step-optimality:");
    println!(
        "  Q-Learning accel ({}, 2M)  {ql_opt:.3}",
        Q8_8::format_name()
    );
    println!(
        "  SARSA accel      ({}, 8M)  {sa_opt:.3}",
        Q8_8::format_name()
    );
    println!("  Q-Learning ref   (f64, 2M)   {sw_opt:.3}");

    let r = ql.resources();
    println!(
        "\nhardware model: {} DSP | {} BRAM ({:.2}%) | {:.0} MHz | {:.0} MS/s | {:.1} mW",
        r.report.dsp,
        r.report.bram36,
        r.utilization.bram_pct,
        r.fmax_mhz,
        r.throughput_msps,
        r.power_mw
    );
    println!(
        "at {:.0} MS/s this 2M-sample training run takes {:.1} ms of FPGA time",
        r.throughput_msps,
        2_000_000.0 / (r.throughput_msps * 1e3)
    );

    println!("\nQ-Learning policy (32x32, diagonal moves rendered as / \\):");
    print!("{}", env.render_policy(&ql.greedy_policy()));

    assert!(ql_opt > 0.8, "Q-Learning should be near-optimal: {ql_opt}");
    assert!(sa_opt > 0.8, "SARSA should be near-optimal: {sa_opt}");
}
