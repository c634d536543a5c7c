//! Integration tests for the §VII-B bandit customization through the
//! facade.

use qtaccel::accel::{AccelConfig, BanditAccel, BanditPolicy};
use qtaccel::core::bandit::{run_regret, EpsilonGreedyBandit, Exp3, Ucb1};
use qtaccel::envs::GaussianBandit;
use qtaccel::fixed::Q8_8;
use qtaccel::hdl::lfsr::Lfsr32;

#[test]
fn hardware_engine_matches_software_epsilon_greedy_quality() {
    // Same policy family: the fixed-point engine's regret should be in
    // the same ballpark as the f64 software ε-greedy bandit.
    let rounds = 30_000;
    let mut env_hw = GaussianBandit::linear_means(5, 0.1, 11);
    let mut hw = BanditAccel::<Q8_8>::new(
        5,
        BanditPolicy::EpsilonGreedy { epsilon: 0.1 },
        0.1,
        AccelConfig::default().with_seed(1),
    );
    let hw_regret = *hw.run(&mut env_hw, rounds).last().unwrap();

    let mut env_sw = GaussianBandit::linear_means(5, 0.1, 11);
    let mut sw = EpsilonGreedyBandit::new(5, 0.1);
    let mut rng = Lfsr32::new(2);
    let sw_regret = *run_regret(&mut sw, &mut env_sw, rounds, &mut rng)
        .last()
        .unwrap();

    assert!(
        hw_regret < sw_regret * 2.5 + 100.0,
        "hw {hw_regret} vs sw {sw_regret}"
    );
}

#[test]
fn exp3_engine_regret_is_sublinear() {
    let mut env = GaussianBandit::linear_means(4, 0.1, 21);
    let mut exp3 = BanditAccel::<Q8_8>::new(
        4,
        BanditPolicy::Exp3 { gamma: 0.1 },
        0.1,
        AccelConfig::default().with_seed(3),
    );
    let regret = exp3.run(&mut env, 60_000);
    let early = regret[5_999] / 6_000.0;
    let late = (regret[59_999] - regret[29_999]) / 30_000.0;
    assert!(late < early, "early rate {early}, late rate {late}");
}

#[test]
fn throughput_ordering_eps_beats_exp3_beats_nothing() {
    let eps = BanditAccel::<Q8_8>::new(
        8,
        BanditPolicy::EpsilonGreedy { epsilon: 0.1 },
        0.1,
        AccelConfig::default(),
    );
    let exp3 = BanditAccel::<Q8_8>::new(
        8,
        BanditPolicy::Exp3 { gamma: 0.1 },
        0.1,
        AccelConfig::default(),
    );
    let te = eps.resources().throughput_msps;
    let tx = exp3.resources().throughput_msps;
    assert_eq!(te, 189.0, "one decision per clock");
    assert!(
        (tx - 63.0).abs() < 1.0,
        "log2(8)=3 cycles per decision: {tx}"
    );
}

#[test]
fn ucb_beats_fixed_epsilon_on_easy_instances() {
    // Classical ordering on a stationary Gaussian bandit with clear
    // gaps: UCB1's regret flattens, fixed-ε keeps paying ε·gap forever.
    let rounds = 50_000;
    let mut env1 = GaussianBandit::linear_means(5, 0.1, 31);
    let mut ucb = Ucb1::new(5);
    let mut rng = Lfsr32::new(32);
    let r_ucb = *run_regret(&mut ucb, &mut env1, rounds, &mut rng)
        .last()
        .unwrap();

    let mut env2 = GaussianBandit::linear_means(5, 0.1, 31);
    let mut eps = EpsilonGreedyBandit::new(5, 0.1);
    let mut rng = Lfsr32::new(33);
    let r_eps = *run_regret(&mut eps, &mut env2, rounds, &mut rng)
        .last()
        .unwrap();

    assert!(r_ucb < r_eps, "ucb {r_ucb} vs eps {r_eps}");
}

#[test]
fn exp3_probability_table_stays_normalized_under_hardware_updates() {
    let mut env = GaussianBandit::linear_means(4, 0.2, 41);
    let mut exp3_algo = Exp3::new(4, 0.15);
    let mut rng = Lfsr32::new(42);
    for _ in 0..20_000 {
        let arm = {
            use qtaccel::core::bandit::BanditAlgorithm;
            let a = exp3_algo.select(&mut rng);
            exp3_algo.update(a, env.pull(a).clamp(0.0, 1.0));
            a
        };
        let _ = arm;
    }
    let probs = exp3_algo.probabilities();
    let sum: f64 = probs.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    assert!(probs.iter().all(|&p| p >= 0.15 / 4.0 - 1e-12), "{probs:?}");
}
