//! The classical on-policy vs off-policy behavioural split on the cliff
//! walk, reproduced on the accelerator engines (integration version of
//! the `sarsa_cliff` example).

use qtaccel::accel::{AccelConfig, QLearningAccel, SarsaAccel};
use qtaccel::core::MaxMode;
use qtaccel::envs::{CliffWalk, Environment};
use qtaccel::fixed::Q16_16;

fn cfg() -> AccelConfig {
    AccelConfig::default()
        .with_alpha(0.25)
        .with_gamma(0.96875)
        .with_seed(11)
        .with_max_mode(MaxMode::ExactScan)
}

#[test]
fn q_learning_finds_the_optimal_edge_path() {
    let cliff = CliffWalk::standard();
    let mut ql = QLearningAccel::<Q16_16>::new(&cliff, cfg());
    ql.train_samples(&cliff, 1_000_000);
    let path = cliff
        .rollout(&ql.greedy_policy(), 100)
        .expect("Q-Learning must reach the goal");
    assert_eq!(path.len() - 1, 13, "the optimal path is 13 moves");
}

#[test]
fn sarsa_takes_a_safe_detour() {
    let cliff = CliffWalk::standard();
    let mut sa = SarsaAccel::<Q16_16>::new(&cliff, cfg(), 0.1);
    sa.train_samples(&cliff, 1_000_000);
    let path = cliff
        .rollout(&sa.greedy_policy(), 100)
        .expect("SARSA must reach the goal");
    assert!(path.len() - 1 > 13, "SARSA must not hug the cliff edge");
    // No path cell sits directly above the cliff interior.
    let edge_cells = path
        .iter()
        .filter(|&&s| {
            let (x, y) = cliff.xy_of(s);
            y == 2 && x > 0 && x < 11
        })
        .count();
    assert!(
        edge_cells <= 2,
        "SARSA path should avoid the edge: {edge_cells}"
    );
}

#[test]
fn cliff_rewards_are_negative_dominated_so_qmax_mode_is_documented_unusable() {
    // The monotone Qmax array cannot express negative best-values: on an
    // all-negative-reward task the greedy action information never
    // updates. This test pins that documented behaviour (it is why the
    // cliff configs use MaxMode::ExactScan).
    let cliff = CliffWalk::standard();
    let mut ql = QLearningAccel::<Q16_16>::new(
        &cliff,
        AccelConfig::default()
            .with_alpha(0.25)
            .with_gamma(0.96875)
            .with_seed(11), // default QmaxArray mode
    );
    ql.train_samples(&cliff, 200_000);
    let qmax = ql.qmax_table();
    // Every Qmax value is still the initial zero: no entry ever updated.
    for s in 0..cliff.num_states() as u32 {
        assert!(qmax.get(s).0.to_f64() <= 0.0);
    }
}

#[test]
fn larger_cliffs_preserve_the_split() {
    let cliff = CliffWalk::new(16, 6);
    let mut ql = QLearningAccel::<Q16_16>::new(&cliff, cfg());
    let mut sa = SarsaAccel::<Q16_16>::new(&cliff, cfg(), 0.1);
    ql.train_samples(&cliff, 2_000_000);
    sa.train_samples(&cliff, 2_000_000);
    let ql_path = cliff
        .rollout(&ql.greedy_policy(), 200)
        .expect("QL reaches goal");
    let sa_path = cliff
        .rollout(&sa.greedy_policy(), 200)
        .expect("SARSA reaches goal");
    assert!(ql_path.len() <= sa_path.len(), "QL at least as short");
}
