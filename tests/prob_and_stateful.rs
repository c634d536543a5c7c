//! Integration tests for the §VII-B extensions through the facade: the
//! generic probability-table policy engine (Eq. 4) and the stateful
//! bandit engine.

use qtaccel::accel::{
    AccelConfig, ProbPolicyAccel, QLearningAccel, StatefulBanditAccel, WeightRule,
};
use qtaccel::core::eval::step_optimality;
use qtaccel::envs::{ArmChain, Environment, GridWorld, StatefulBandit};
use qtaccel::fixed::Q8_8;

#[test]
fn prob_engine_matches_q_learning_quality_at_lower_throughput() {
    let g = GridWorld::builder(8, 8).goal(7, 7).obstacle(3, 4).build();
    let cfg = AccelConfig::default().with_seed(5);

    let mut ql = QLearningAccel::<Q8_8>::new(&g, cfg);
    ql.train_samples(&g, 400_000);
    let mut prob =
        ProbPolicyAccel::<Q8_8>::new(&g, cfg, WeightRule::Boltzmann { temperature: 0.08 });
    prob.train_samples(&g, 400_000);

    let d = g.shortest_distances();
    let o_ql = step_optimality(&g, &ql.greedy_policy(), &d);
    let o_prob = step_optimality(&g, &prob.greedy_policy(), &d);
    assert!(o_ql > 0.95, "QL {o_ql}");
    assert!(o_prob > 0.85, "prob engine {o_prob}");

    // The generality costs selection cycles: 1 sample/cycle vs 1/(1+2·1).
    assert!(ql.stats().samples_per_cycle() > 0.999);
    assert!(prob.stats().samples_per_cycle() < 0.5);
}

#[test]
fn prob_engine_probabilities_follow_learned_values() {
    let g = GridWorld::builder(4, 4).goal(3, 3).build();
    let mut prob = ProbPolicyAccel::<Q8_8>::new(
        &g,
        AccelConfig::default().with_seed(9),
        WeightRule::Boltzmann { temperature: 0.05 },
    );
    prob.train_samples(&g, 200_000);
    // Everywhere reachable, the most probable action should be a
    // distance-decreasing one.
    let d = g.shortest_distances();
    let mut aligned = 0;
    let mut total = 0;
    for s in 0..g.num_states() as u32 {
        if !g.is_valid_state(s) || g.is_terminal(s) {
            continue;
        }
        let Some(ds) = d[s as usize] else { continue };
        total += 1;
        let best_a = (0..4u32)
            .max_by(|&a, &b| {
                prob.probability(s, a)
                    .partial_cmp(&prob.probability(s, b))
                    .unwrap()
            })
            .unwrap();
        if d[g.transition(s, best_a) as usize] == Some(ds - 1) {
            aligned += 1;
        }
    }
    assert!(
        aligned * 10 >= total * 8,
        "policy mass aligned with optimal moves in {aligned}/{total} states"
    );
}

fn radio_channels() -> StatefulBandit {
    // Two channels whose quality alternates with hidden chain state, one
    // steady mid channel — state-dependent best arm.
    StatefulBandit::new(
        vec![
            ArmChain {
                means: vec![0.9, 0.1],
                std: 0.05,
                advance_prob: 0.4,
            },
            ArmChain {
                means: vec![0.1, 0.8],
                std: 0.05,
                advance_prob: 0.4,
            },
            ArmChain {
                means: vec![0.5],
                std: 0.05,
                advance_prob: 0.0,
            },
        ],
        2024,
    )
}

#[test]
fn stateful_engine_tracks_per_state_best_arm() {
    let mut env = radio_channels();
    assert_eq!(env.num_global_states(), 4);
    let mut e = StatefulBanditAccel::<Q8_8>::new(
        &env,
        AccelConfig::default().with_seed(1).with_gamma(0.0),
        0.1,
    );
    e.run(&mut env, 80_000);
    for g in 0..4u32 {
        let learned = e.q_table().max_exact(g).0 as usize;
        assert_eq!(
            learned,
            env.optimal_arm(g),
            "state {g}: learned {learned}, optimal {}",
            env.optimal_arm(g)
        );
    }
}

/// An anti-phase pair of restless channels: when one fades the other
/// peaks. A state-aware policy rides the good one; a stateless policy
/// can only average.
fn restless_channels(seed: u32) -> StatefulBandit {
    StatefulBandit::new(
        vec![
            ArmChain {
                means: vec![0.9, 0.1],
                std: 0.05,
                advance_prob: 0.3,
            },
            ArmChain {
                means: vec![0.1, 0.9],
                std: 0.05,
                advance_prob: 0.3,
            },
            ArmChain {
                means: vec![0.45],
                std: 0.05,
                advance_prob: 0.0,
            },
        ],
        seed,
    )
    .restless()
}

#[test]
fn stateful_engine_beats_the_stateless_view() {
    // The point of stateful bandits under restless dynamics: the
    // stateless learner settles for the best average arm, while the
    // state-aware learner switches to whichever channel currently peaks.
    let rounds = 60_000;
    let mut env = restless_channels(31);
    let mut stateful = StatefulBanditAccel::<Q8_8>::new(
        &env,
        AccelConfig::default().with_seed(2).with_gamma(0.0),
        0.08,
    );
    let mut stateful_reward = 0.0;
    for _ in 0..rounds {
        let (_, r) = stateful.pull_round(&mut env);
        stateful_reward += r;
    }

    // Stateless baseline: the same ε-greedy exponentially-weighted
    // estimator, but with one estimate per arm regardless of chain state
    // (what the stateless BanditAccel datapath computes).
    use qtaccel::hdl::lfsr::Lfsr32;
    use qtaccel::hdl::rng::{epsilon_greedy_draw, epsilon_to_q32};
    let mut env2 = restless_channels(31);
    let mut estimates = [0.0f64; 3];
    let mut rng = Lfsr32::new(777);
    let thr = epsilon_to_q32(0.08);
    let alpha = 0.05;
    let mut blind_reward = 0.0;
    for _ in 0..rounds {
        let arm = match epsilon_greedy_draw(&mut rng, thr, 3) {
            Some(a) => a as usize,
            None => {
                let mut best = 0;
                for i in 1..3 {
                    if estimates[i] > estimates[best] {
                        best = i;
                    }
                }
                best
            }
        };
        let (r, _) = env2.pull(arm);
        blind_reward += r;
        estimates[arm] = (1.0 - alpha) * estimates[arm] + alpha * r;
    }

    assert!(
        stateful_reward > blind_reward * 1.15,
        "stateful {stateful_reward:.0} vs blind {blind_reward:.0}"
    );
}

#[test]
fn stateful_resources_scale_with_the_product_space() {
    let arms: Vec<ArmChain> = (0..5)
        .map(|i| ArmChain {
            means: vec![0.1 * i as f64, 0.5, 0.9],
            std: 0.1,
            advance_prob: 0.3,
        })
        .collect();
    let env = StatefulBandit::new(arms, 1);
    assert_eq!(env.num_global_states(), 3usize.pow(5));
    let e = StatefulBanditAccel::<Q8_8>::new(&env, AccelConfig::default(), 0.1);
    let r = e.resources();
    // 243 x 5 x 16-bit: still a single BRAM block per table.
    assert!(r.report.bram36 <= 2, "{}", r.report.bram36);
}
