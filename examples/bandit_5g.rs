//! Multi-armed bandit channel selection (§VII-B): the paper motivates
//! MAB acceleration with "next generation 5G wireless network
//! applications such as distributed channel selection, opportunistic
//! spectrum access".
//!
//! A radio must pick one of 8 channels whose SNR fluctuates around
//! channel-specific means. We run the two hardware policies (ε-greedy at
//! one decision per clock, EXP3 at one per ⌈log₂ M⌉ clocks) plus the
//! software UCB1 reference, and report regret and modeled
//! decisions-per-second.
//!
//! ```text
//! cargo run --release --example bandit_5g
//! ```

use qtaccel::accel::{AccelConfig, BanditAccel, BanditPolicy};
use qtaccel::core::bandit::{run_regret, Ucb1};
use qtaccel::envs::bandit::Arm;
use qtaccel::envs::GaussianBandit;
use qtaccel::fixed::Q8_8;
use qtaccel::hdl::lfsr::Lfsr32;

/// Channel SNR profile (normalized to [0, 1] reward).
fn channels(seed: u32) -> GaussianBandit {
    GaussianBandit::new(
        vec![
            Arm {
                mean: 0.55,
                std: 0.10,
            },
            Arm {
                mean: 0.40,
                std: 0.15,
            },
            Arm {
                mean: 0.72,
                std: 0.08,
            }, // the good channel
            Arm {
                mean: 0.30,
                std: 0.20,
            },
            Arm {
                mean: 0.65,
                std: 0.12,
            },
            Arm {
                mean: 0.20,
                std: 0.05,
            },
            Arm {
                mean: 0.50,
                std: 0.18,
            },
            Arm {
                mean: 0.60,
                std: 0.10,
            },
        ],
        seed,
    )
}

fn main() {
    let rounds = 200_000;

    // Hardware ε-greedy engine.
    let mut env = channels(1);
    let mut eps = BanditAccel::<Q8_8>::new(
        8,
        BanditPolicy::EpsilonGreedy { epsilon: 0.05 },
        0.05,
        AccelConfig::default(),
    );
    let regret_eps = eps.run(&mut env, rounds);
    let r_eps = eps.resources();
    println!(
        "eps-greedy engine: regret {:.0}, best channel estimate {:?}, {:.0} M decisions/s",
        regret_eps.last().unwrap(),
        argmax(&eps.estimates()),
        r_eps.throughput_msps
    );

    // Hardware EXP3 engine.
    let mut env = channels(2);
    let mut exp3 = BanditAccel::<Q8_8>::new(
        8,
        BanditPolicy::Exp3 { gamma: 0.07 },
        0.05,
        AccelConfig::default(),
    );
    let regret_exp3 = exp3.run(&mut env, rounds);
    let r_exp3 = exp3.resources();
    println!(
        "EXP3 engine      : regret {:.0}, best channel estimate {:?}, {:.0} M decisions/s \
         (binary-search selection costs log2(8)=3 cycles)",
        regret_exp3.last().unwrap(),
        argmax(&exp3.estimates()),
        r_exp3.throughput_msps
    );

    // Software UCB1.
    let mut env = channels(3);
    let mut ucb = Ucb1::new(8);
    let mut rng = Lfsr32::new(4);
    let regret_ucb = run_regret(&mut ucb, &mut env, rounds, &mut rng);
    println!(
        "UCB1 (software)  : regret {:.0}",
        regret_ucb.last().unwrap()
    );

    // Regret trajectory sample points.
    println!("\ncumulative regret over time:");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "round", "eps-greedy", "EXP3", "UCB1"
    );
    for &t in &[1_000usize, 10_000, 50_000, rounds - 1] {
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>12.1}",
            t + 1,
            regret_eps[t],
            regret_exp3[t],
            regret_ucb[t]
        );
    }

    assert_eq!(argmax(&eps.estimates()), 2, "must find channel 2");
    assert!(
        r_eps.throughput_msps > 2.9 * r_exp3.throughput_msps,
        "eps-greedy sustains ~3x EXP3's decision rate"
    );
}

fn argmax(xs: &[f64]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}
