//! Multi-agent training (§VII-A): the two parallel-pipeline modes.
//!
//! Mode 1 — *state-sharing learners* (Fig. 8): two agents explore the
//! same hunter-game style arena and write one shared Q-table through
//! dual-port BRAM; same-cycle writes to one address are arbitrated.
//!
//! Mode 2 — *independent learners* (Fig. 9): a fleet of rovers each
//! learns its own quadrant of a terrain with private BRAM banks.
//!
//! ```text
//! cargo run --release --example multi_agent
//! ```

use qtaccel::accel::{AccelConfig, DualPipelineShared, IndependentPipelines, QLearningAccel};
use qtaccel::core::eval::step_optimality;
use qtaccel::envs::{ActionSet, GridWorld, PartitionedGrid};
use qtaccel::fixed::Q8_8;
use qtaccel::hdl::lfsr::Lfsr32;

fn main() {
    // ---------- Mode 1: shared arena, two hunters ----------------------
    let arena = GridWorld::builder(16, 16)
        .goal(12, 9)
        .obstacles([(5, 5), (5, 6), (6, 5), (10, 12), (11, 12)])
        .build();
    let cfg = AccelConfig::default().with_seed(7);

    let cycles = 300_000u64;
    let mut single = QLearningAccel::<Q8_8>::new(&arena, cfg);
    single.train_samples(&arena, cycles);
    let single_opt = step_optimality(&arena, &single.greedy_policy(), &arena.shortest_distances());

    let mut dual = DualPipelineShared::<Q8_8>::new(&arena, cfg);
    dual.train_cycles(&arena, cycles);
    let dual_opt = step_optimality(&arena, &dual.greedy_policy(), &arena.shortest_distances());

    println!("mode 1: shared Q-table, same wall-clock budget ({cycles} cycles)");
    println!(
        "  1 pipeline : {:>8} samples, step-optimality {:.3}",
        single.stats().samples,
        single_opt
    );
    println!(
        "  2 pipelines: {:>8} samples, step-optimality {:.3}, {} write collisions ({:.4}%/cycle)",
        dual.stats().samples,
        dual_opt,
        dual.q_collisions(),
        dual.q_collisions() as f64 / cycles as f64 * 100.0
    );
    let rd = dual.resources();
    println!(
        "  dual hardware: {} DSP, {} BRAM (shared!), {:.0} MS/s aggregate",
        rd.report.dsp, rd.report.bram36, rd.throughput_msps
    );

    // ---------- Mode 2: four independent rovers ------------------------
    let mut rng = Lfsr32::new(99);
    let fleet = PartitionedGrid::new(32, 32, 2, 2, 8, ActionSet::Four, &mut rng);
    let mut rovers = IndependentPipelines::<Q8_8>::new(fleet.partitions(), cfg);
    let stats = rovers.train_batch(fleet.partitions(), 400_000 * 4).stats;

    println!(
        "\nmode 2: {} independent rovers on 16x16 quadrants",
        rovers.len()
    );
    println!(
        "  aggregate: {} samples in {} cycles ({:.2} samples/cycle)",
        stats.samples,
        stats.cycles,
        stats.samples_per_cycle()
    );
    for i in 0..rovers.len() {
        let env = fleet.partition(i);
        let opt = step_optimality(env, &rovers.greedy_policy(i), &env.shortest_distances());
        println!("  rover {i}: step-optimality {opt:.3}");
    }
    let rr = rovers.resources();
    println!(
        "  fleet hardware: {} DSP, {} BRAM banks' worth of blocks",
        rr.dsp, rr.bram36
    );

    assert!(dual_opt >= single_opt - 0.05, "sharing must not hurt");
    assert!(stats.samples_per_cycle() > 3.9, "4 rovers, 4 samples/cycle");
}
