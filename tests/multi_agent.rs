//! Integration tests for the §VII-A parallel-pipeline configurations,
//! exercised through the facade crate.

use qtaccel::accel::{AccelConfig, DualPipelineShared, IndependentPipelines, QLearningAccel};
use qtaccel::core::eval::step_optimality;
use qtaccel::envs::{ActionSet, Environment, GridWorld, PartitionedGrid};
use qtaccel::fixed::Q8_8;
use qtaccel::hdl::lfsr::Lfsr32;

#[test]
fn dual_pipeline_twice_the_samples_same_quality() {
    let g = GridWorld::builder(16, 16).goal(13, 11).build();
    let cfg = AccelConfig::default().with_seed(21);
    let budget = 250_000u64;

    let mut single = QLearningAccel::<Q8_8>::new(&g, cfg);
    single.train_samples(&g, budget);
    let mut dual = DualPipelineShared::<Q8_8>::new(&g, cfg);
    dual.train_cycles(&g, budget);

    assert_eq!(dual.stats().samples, 2 * single.stats().samples);
    let d = g.shortest_distances();
    let so = step_optimality(&g, &single.greedy_policy(), &d);
    let do_ = step_optimality(&g, &dual.greedy_policy(), &d);
    assert!(so > 0.95, "single {so}");
    assert!(do_ > 0.95, "dual {do_}");
}

#[test]
fn dual_pipeline_collision_rate_matches_birthday_estimate() {
    // Two uniform random walkers on |S| valid cells rarely update the
    // same (s, a) pair in the same cycle; the measured rate must be well
    // below 1 % on a 256-state world and nonzero over a long run.
    let g = GridWorld::builder(16, 16).goal(15, 15).build();
    let mut dual = DualPipelineShared::<Q8_8>::new(&g, AccelConfig::default().with_seed(3));
    let cycles = 200_000u64;
    dual.train_cycles(&g, cycles);
    let rate = dual.q_collisions() as f64 / cycles as f64;
    assert!(rate > 0.0, "some collisions must occur");
    assert!(rate < 0.01, "collision rate {rate}");
}

#[test]
fn collision_arbitration_loses_exactly_one_write() {
    // Port A wins: after a collision the table holds pipeline 0's value.
    // Detect indirectly: totals stay consistent and training still works.
    let g = GridWorld::builder(4, 4).goal(3, 3).build();
    let mut dual = DualPipelineShared::<Q8_8>::new(&g, AccelConfig::default().with_seed(5));
    dual.train_cycles(&g, 100_000);
    assert!(dual.q_collisions() > 50, "tiny world collides often");
    let d = g.shortest_distances();
    let opt = step_optimality(&g, &dual.greedy_policy(), &d);
    assert!(opt > 0.9, "lost writes must not prevent convergence: {opt}");
}

#[test]
fn independent_pipelines_linear_scaling_and_isolation() {
    let mut rng = Lfsr32::new(31);
    let part = PartitionedGrid::new(32, 16, 4, 2, 5, ActionSet::Four, &mut rng);
    let cfg = AccelConfig::default().with_seed(31);
    let mut fleet = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg);
    let stats = fleet.train_batch(part.partitions(), 150_000 * 8).stats;
    assert_eq!(fleet.len(), 8);
    assert_eq!(stats.samples, 8 * 150_000);
    assert!(
        stats.samples_per_cycle() > 7.9,
        "{}",
        stats.samples_per_cycle()
    );

    // Isolation: each pipeline's table has the dimensions of its own
    // sub-environment and learns it.
    for i in 0..fleet.len() {
        let env = part.partition(i);
        let q = fleet.q_table(i);
        assert_eq!(q.num_states(), env.num_states());
        let opt = step_optimality(env, &fleet.greedy_policy(i), &env.shortest_distances());
        assert!(opt > 0.85, "partition {i}: {opt}");
    }
}

#[test]
fn independent_pipelines_differ_across_seed_banks() {
    // Two pipelines over identical environments must not shadow each
    // other (they draw from different seed banks).
    let g = GridWorld::builder(8, 8).goal(7, 7).build();
    let envs = [g.clone(), g.clone()];
    let mut fleet = IndependentPipelines::<Q8_8>::new(&envs, AccelConfig::default().with_seed(77));
    fleet.train_batch(&envs, 5_000 * 2);
    let a = fleet.q_table(0);
    let b = fleet.q_table(1);
    assert!(a.max_abs_diff(&b) > 0.0, "seed banks must differ");
}
