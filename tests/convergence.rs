//! End-to-end learning quality: the accelerator engines actually solve
//! the paper's workload (grid-world navigation) under the hardware
//! constraints (16-bit datapath, Qmax array, LFSR randomness).

use qtaccel::accel::{AccelConfig, QLearningAccel, SarsaAccel};
use qtaccel::core::eval::{evaluate_policy, step_optimality};
use qtaccel::core::MaxMode;
use qtaccel::envs::{ActionSet, Environment, GridWorld};
use qtaccel::fixed::{Q16_16, Q8_8};
use qtaccel::hdl::lfsr::Lfsr32;

fn obstacle_grid() -> GridWorld {
    GridWorld::builder(16, 16)
        .goal(15, 15)
        .obstacles([(7, 6), (7, 7), (7, 8), (8, 6), (3, 12), (4, 12)])
        .build()
}

#[test]
fn q_learning_reaches_optimal_policy() {
    let g = obstacle_grid();
    // γ must respect the Q8.8 resolution: with γ = 0.875 the far corner's
    // value (0.875^30 ≈ 0.018) sits ~5 quantization steps above zero and
    // adjacent cells tie, which can trap the greedy policy in a loop.
    // γ = 0.96875 (exactly representable) keeps per-step value gaps above
    // the quantum across the whole 16x16 grid.
    let mut a =
        QLearningAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(1).with_gamma(0.96875));
    a.train_samples(&g, 800_000);
    let policy = a.greedy_policy();
    let opt = step_optimality(&g, &policy, &g.shortest_distances());
    assert!(opt > 0.95, "step-optimality {opt}");
    let mut rng = Lfsr32::new(5);
    let report = evaluate_policy(&g, &policy, 100, 100, &mut rng);
    assert_eq!(report.success_rate(), 1.0, "{report:?}");
}

#[test]
fn sarsa_reaches_near_optimal_policy() {
    let g = obstacle_grid();
    let mut a = SarsaAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(2), 0.25);
    a.train_samples(&g, 1_500_000);
    let policy = a.greedy_policy();
    let opt = step_optimality(&g, &policy, &g.shortest_distances());
    assert!(opt > 0.9, "step-optimality {opt}");
}

#[test]
fn eight_action_grid_uses_diagonals() {
    let g = GridWorld::builder(8, 8)
        .goal(7, 7)
        .actions(ActionSet::Eight)
        .build();
    let mut a = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(3));
    a.train_samples(&g, 400_000);
    let policy = a.greedy_policy();
    // From the start corner the optimal move is the diagonal (action 5,
    // bottom-right); BFS-optimality will catch it in any case.
    let opt = step_optimality(&g, &policy, &g.shortest_distances());
    assert!(opt > 0.98, "step-optimality {opt}");
    let mut rng = Lfsr32::new(5);
    let report = evaluate_policy(&g, &policy, 50, 20, &mut rng);
    // Diagonal moves: mean optimal path from random start on 8x8 is < 6.
    assert!(report.mean_steps < 7.0, "{report:?}");
}

#[test]
fn qmax_approximation_does_not_change_the_learned_policy_class() {
    let g = obstacle_grid();
    let mut qmax_mode = QLearningAccel::<Q16_16>::new(&g, AccelConfig::default().with_seed(4));
    let mut exact_mode = QLearningAccel::<Q16_16>::new(
        &g,
        AccelConfig::default()
            .with_seed(4)
            .with_max_mode(MaxMode::ExactScan),
    );
    qmax_mode.train_samples(&g, 600_000);
    exact_mode.train_samples(&g, 600_000);
    let d = g.shortest_distances();
    let o1 = step_optimality(&g, &qmax_mode.greedy_policy(), &d);
    let o2 = step_optimality(&g, &exact_mode.greedy_policy(), &d);
    assert!(o1 > 0.98, "Qmax mode {o1}");
    assert!(o2 > 0.98, "exact mode {o2}");
}

#[test]
fn wider_datapath_learns_at_least_as_well() {
    let g = obstacle_grid();
    let mut narrow = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(6));
    let mut wide = QLearningAccel::<Q16_16>::new(&g, AccelConfig::default().with_seed(6));
    narrow.train_samples(&g, 500_000);
    wide.train_samples(&g, 500_000);
    let d = g.shortest_distances();
    let on = step_optimality(&g, &narrow.greedy_policy(), &d);
    let ow = step_optimality(&g, &wide.greedy_policy(), &d);
    assert!(ow >= on - 0.02, "wide {ow} vs narrow {on}");
}

#[test]
fn value_function_approximates_discounted_distance() {
    // The learned V(s) = max_a Q(s,a) should track gamma^d(s) for the
    // deterministic shortest-path structure (zero step reward).
    let g = GridWorld::builder(8, 8).goal(7, 7).build();
    let mut a = QLearningAccel::<Q16_16>::new(&g, AccelConfig::default().with_seed(7));
    a.train_samples(&g, 2_000_000);
    let q = a.q_table();
    let dists = g.shortest_distances();
    let gamma: f64 = 0.875;
    for s in 0..g.num_states() as u32 {
        if !g.is_valid_state(s) || g.is_terminal(s) {
            continue;
        }
        let Some(d) = dists[s as usize] else { continue };
        let v = q.max_exact(s).1.to_f64();
        let expect = gamma.powi(d as i32 - 1); // reward on entering goal
        assert!(
            (v - expect).abs() < 0.05 + 0.1 * expect,
            "state {s}: V={v}, gamma^(d-1)={expect}"
        );
    }
}
