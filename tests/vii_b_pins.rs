//! Pins of what the §VII-B engines produce: regret endpoints, estimates,
//! Q tables (as a CRC-32 of their words), probabilities and
//! `CycleStats`, for the runs `tests/bandits.rs`, `tests/prob_and_stateful.rs`
//! and the engines' unit tests make. Any change to a bandit or
//! probability-table datapath, LFSR stream or cycle charge moves a pin.

use qtaccel::accel::{
    AccelConfig, BanditAccel, BanditPolicy, ProbPolicyAccel, StatefulBanditAccel, WeightRule,
};
use qtaccel::core::eval::step_optimality;
use qtaccel::envs::{ArmChain, GaussianBandit, GridWorld, StatefulBandit};
use qtaccel::fixed::{QValue, Q8_8};
use qtaccel::hdl::pipeline::CycleStats;
use qtaccel::telemetry::frame::crc32;

/// CRC-32 of a table's words, little-endian.
fn digest(words: &[Q8_8]) -> u32 {
    let bytes: Vec<u8> = words
        .iter()
        .flat_map(|&v| QValue::to_bits(v).to_le_bytes())
        .collect();
    crc32(&bytes)
}

fn stats(s: CycleStats) -> (u64, u64, u64, u64) {
    (s.samples, s.cycles, s.stalls, s.forwards)
}

fn bandit(
    arms: usize,
    policy: BanditPolicy,
    alpha: f64,
    seed: u64,
    env: &mut GaussianBandit,
    rounds: usize,
    at: &[usize],
) -> String {
    let mut b =
        BanditAccel::<Q8_8>::new(arms, policy, alpha, AccelConfig::default().with_seed(seed));
    let regret = b.run(env, rounds);
    let points: Vec<f64> = at.iter().map(|&i| regret[i]).collect();
    format!("{points:?} {:?} {:?}", b.estimates(), stats(b.stats()))
}

#[test]
fn bandit_engine_runs_are_pinned() {
    let eps = |epsilon| BanditPolicy::EpsilonGreedy { epsilon };
    let exp3 = |gamma| BanditPolicy::Exp3 { gamma };
    let runs = [
        // tests/bandits.rs
        bandit(
            5,
            eps(0.1),
            0.1,
            1,
            &mut GaussianBandit::linear_means(5, 0.1, 11),
            30_000,
            &[29_999],
        ),
        bandit(
            4,
            exp3(0.1),
            0.1,
            3,
            &mut GaussianBandit::linear_means(4, 0.1, 21),
            60_000,
            &[5_999, 29_999, 59_999],
        ),
        // the unit tests of the bandit engine
        bandit(
            8,
            eps(0.1),
            0.1,
            0xBEEF,
            &mut GaussianBandit::linear_means(8, 0.1, 1),
            30_000,
            &[29_999],
        ),
        bandit(
            8,
            eps(0.1),
            0.1,
            0xBEEF,
            &mut GaussianBandit::linear_means(8, 0.1, 2),
            10_000,
            &[9_999],
        ),
        bandit(
            8,
            exp3(0.2),
            0.1,
            0xBEEF,
            &mut GaussianBandit::linear_means(8, 0.1, 3),
            10_000,
            &[9_999],
        ),
        bandit(
            8,
            eps(0.05),
            0.1,
            0xBEEF,
            &mut GaussianBandit::linear_means(8, 0.1, 4),
            40_000,
            &[3_999, 19_999, 39_999],
        ),
        bandit(
            2,
            eps(0.0),
            0.5,
            0xBEEF,
            &mut GaussianBandit::linear_means(2, 0.0, 5),
            1_000,
            &[999],
        ),
    ];
    let gold = [
        "[1421.399999999991] [0.0078125, 0.17578125, 0.3671875, 0.58203125, 0.82421875] (30000, 30003, 0, 27860)",
        "[258.5, 1166.5, 2277.0] [0.00390625, 0.2265625, 0.4609375, 0.765625] (60000, 120003, 60000, 111453)",
        "[1458.0] [0.0234375, 0.078125, 0.26953125, 0.33203125, 0.4765625, 0.59375, 0.73828125, 0.921875] (30000, 30003, 0, 27583)",
        "[588.5] [0.046875, 0.14453125, 0.28125, 0.359375, 0.5390625, 0.625, 0.7578125, 0.8984375] (10000, 10003, 0, 9273)",
        "[959.75] [0.05078125, 0.1328125, 0.2578125, 0.359375, 0.53125, 0.63671875, 0.734375, 0.90625] (10000, 30003, 20000, 16312)",
        "[554.5, 1173.875, 1606.875] [-0.00390625, 0.1171875, 0.20703125, 0.4296875, 0.48046875, 0.6484375, 0.7421875, 0.86328125] (40000, 40003, 0, 38415)",
        "[0.0] [0.0, 0.5] (1000, 1003, 0, 1015)",
    ];
    assert_eq!(runs.iter().map(String::as_str).collect::<Vec<_>>(), gold);
}

#[test]
fn bandit_engine_resources_are_pinned() {
    let cfg = AccelConfig::default();
    let eps = BanditAccel::<Q8_8>::new(8, BanditPolicy::EpsilonGreedy { epsilon: 0.1 }, 0.1, cfg);
    let exp3 = BanditAccel::<Q8_8>::new(8, BanditPolicy::Exp3 { gamma: 0.1 }, 0.1, cfg);
    let got: Vec<(u64, u64, f64)> = [eps.resources(), exp3.resources()]
        .iter()
        .map(|r| (r.report.dsp, r.report.bram36, r.throughput_msps))
        .collect();
    assert_eq!(format!("{got:?}"), "[(4, 2, 189.0), (13, 22, 63.0)]");
}

fn prob(
    g: &GridWorld,
    seed: u64,
    rule: WeightRule,
    samples: u64,
    probe: Option<(u32, u32)>,
) -> String {
    let mut e = ProbPolicyAccel::<Q8_8>::new(g, AccelConfig::default().with_seed(seed), rule);
    e.train_samples(g, samples);
    let opt = step_optimality(g, &e.greedy_policy(), &g.shortest_distances());
    let p = probe.map(|(s, a)| e.probability(s, a));
    format!(
        "{:08x} {opt:?} {p:?} {:?} {}",
        digest(e.q_table().as_slice()),
        stats(e.stats()),
        e.resources().report.bram36
    )
}

#[test]
fn probability_table_engine_runs_are_pinned() {
    let boltzmann = |temperature| WeightRule::Boltzmann { temperature };
    let g8 = GridWorld::builder(8, 8).goal(7, 7).build();
    let runs = [
        // tests/prob_and_stateful.rs
        prob(
            &GridWorld::builder(8, 8).goal(7, 7).obstacle(3, 4).build(),
            5,
            boltzmann(0.08),
            400_000,
            None,
        ),
        prob(
            &GridWorld::builder(4, 4).goal(3, 3).build(),
            9,
            boltzmann(0.05),
            200_000,
            Some((14, 2)),
        ),
        // the unit tests of the probability-table engine
        prob(&g8, 0xF00D, boltzmann(0.1), 600_000, None),
        prob(
            &g8,
            0xF00D,
            boltzmann(0.05),
            400_000,
            Some((g8.state_of(6, 7), 2)),
        ),
        prob(&g8, 0xF00D, boltzmann(0.1), 10_000, None),
        prob(
            &g8,
            0xF00D,
            WeightRule::Proportional { floor: 0.02 },
            600_000,
            None,
        ),
    ];
    let gold = [
        "f13a6e24 1.0 None (400000, 1200003, 800000, 46591) 11",
        "cfaac2d0 0.8666666666666667 Some(1.0194978107125056e-11) (200000, 600003, 400000, 14766) 11",
        "a92caf7d 1.0 None (600000, 1800003, 1200000, 94611) 11",
        "a7031aea 0.873015873015873 Some(0.9999999937761276) (400000, 1200003, 800000, 15622) 11",
        "25fdaa78 0.8888888888888888 None (10000, 30003, 20000, 1703) 11",
        "7506774e 0.8571428571428571 None (600000, 1800003, 1200000, 197132) 5",
    ];
    assert_eq!(runs.iter().map(String::as_str).collect::<Vec<_>>(), gold);
}

fn chains(spec: &[(&[f64], f64, f64)], seed: u32) -> StatefulBandit {
    let arms = spec
        .iter()
        .map(|&(means, std, advance_prob)| ArmChain {
            means: means.to_vec(),
            std,
            advance_prob,
        })
        .collect();
    StatefulBandit::new(arms, seed)
}

/// The engine keeps the global state in its pipe, so each pull's regret
/// is taken at the state the pull was made in.
fn stateful(
    env: StatefulBandit,
    seed: u64,
    gamma: Option<f64>,
    epsilon: f64,
    rounds: usize,
) -> String {
    let mut cfg = AccelConfig::default().with_seed(seed);
    if let Some(gamma) = gamma {
        cfg = cfg.with_gamma(gamma);
    }
    let mut e = StatefulBanditAccel::<Q8_8>::new(&env, cfg, epsilon);
    let mut reward = 0.0;
    let mut regret = 0.0;
    for _ in 0..rounds {
        let t = e.step(&env);
        let best = env.expected_reward(t.s, env.optimal_arm(t.s));
        reward += t.r.to_f64();
        regret += best - env.expected_reward(t.s, t.a as usize);
    }
    format!(
        "{reward:?} {regret:?} {:08x} {:?} {}",
        digest(e.q_table().as_slice()),
        stats(e.stats()),
        e.resources().report.bram36
    )
}

#[test]
fn stateful_bandit_engine_runs_are_pinned() {
    let unit = |seed| {
        chains(
            &[
                (&[0.2, 0.9], 0.05, 0.5),
                (&[0.6, 0.1], 0.05, 0.5),
                (&[0.4, 0.4, 0.4], 0.05, 0.5),
            ],
            seed,
        )
    };
    let radio = chains(
        &[
            (&[0.9, 0.1], 0.05, 0.4),
            (&[0.1, 0.8], 0.05, 0.4),
            (&[0.5], 0.05, 0.0),
        ],
        2024,
    );
    let restless = chains(
        &[
            (&[0.9, 0.1], 0.05, 0.3),
            (&[0.1, 0.9], 0.05, 0.3),
            (&[0.45], 0.05, 0.0),
        ],
        31,
    )
    .restless();
    let runs = [
        // tests/prob_and_stateful.rs
        stateful(radio, 1, Some(0.0), 0.1, 80_000),
        stateful(restless, 2, Some(0.0), 0.08, 60_000),
        // the unit tests of the stateful engine
        stateful(unit(7), 0xBEEF, Some(0.0), 0.1, 60_000),
        stateful(unit(11), 0xBEEF, Some(0.0), 0.08, 60_000),
        stateful(unit(13), 0xBEEF, None, 0.1, 10_000),
    ];
    let gold = [
        "39821.75 2242.0000000002074 82954909 (80000, 80003, 0, 71632) 2",
        "45634.45703125 1562.299999999996 9aff5725 (60000, 60003, 0, 36366) 2",
        "24329.703125 1158.2999999999993 2cdea812 (60000, 60003, 0, 33125) 2",
        "24262.82421875 1056.8999999999985 b79bb957 (60000, 60003, 0, 33853) 2",
        "5218.9453125 1232.6000000000954 66f2d93d (10000, 10003, 0, 7593) 2",
    ];
    assert_eq!(runs.iter().map(String::as_str).collect::<Vec<_>>(), gold);
}
