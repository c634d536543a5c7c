//! `qtaccel-cli` — drive the accelerator models from the command line.
//!
//! ```text
//! cargo run --release -p qtaccel --bin qtaccel-cli -- train --engine ql \
//!     --width 16 --height 16 --samples 500000 --gamma 0.96875
//! cargo run --release -p qtaccel --bin qtaccel-cli -- bandit --arms 8 --policy exp3
//! cargo run --release -p qtaccel --bin qtaccel-cli -- resources --states 262144 --actions 8
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use qtaccel::accel::resources::{analyze, EngineKind};
use qtaccel::accel::{
    AccelConfig, BanditAccel, BanditPolicy, ProbPolicyAccel, QLearningAccel, SarsaAccel, WeightRule,
};
use qtaccel::core::eval::{evaluate_policy, step_optimality};
use qtaccel::envs::{ActionSet, Environment, GaussianBandit, GridWorld};
use qtaccel::fixed::Q8_8;
use qtaccel::hdl::lfsr::Lfsr32;
use qtaccel::hdl::resource::Device;

const HELP: &str = "\
qtaccel-cli — cycle-accurate QTAccel accelerator models

USAGE:
    qtaccel-cli <command> [--key value]...

COMMANDS:
    train        train a QRL engine on a grid world
                 --engine ql|sarsa|prob (default ql)
                 --width N --height N   grid size (default 16x16)
                 --actions 4|8          move set (default 4)
                 --obstacles P          obstacle percent (default 10)
                 --samples N            updates (default 500000)
                 --alpha A --gamma G    hyper-parameters (default 0.5 / 0.96875)
                 --epsilon E            exploration (sarsa; default 0.2)
                 --temperature T        Boltzmann temperature (prob; default 0.1)
                 --seed S               master seed (default 1)
    bandit       run the MAB engine
                 --arms M               arm count (default 5)
                 --rounds N             pulls (default 100000)
                 --policy eps|exp3      selection policy (default eps)
                 --epsilon E            exploration (default 0.05)
                 --seed S
    resources    print the hardware cost model for a configuration
                 --states N --actions N --engine ql|sarsa
                 --device vu13p|v7|v6   (default vu13p)
    help         show this text
";

fn parse_args(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --key, got '{}'", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("missing value for --{key}"))?;
        map.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(
    map: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value '{v}' for --{key}")),
    }
}

/// `value` of `--key` when it lies in `[0, 1]`.
fn unit_interval(key: &str, value: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(format!("--{key} must be in [0, 1], got {value}"))
    }
}

fn cmd_train(map: &HashMap<String, String>) -> Result<(), String> {
    let engine = map.get("engine").map(String::as_str).unwrap_or("ql");
    let width: u32 = get(map, "width", 16)?;
    let height: u32 = get(map, "height", 16)?;
    let actions: u32 = get(map, "actions", 4)?;
    let obstacles: u32 = get(map, "obstacles", 10)?;
    let samples: u64 = get(map, "samples", 500_000)?;
    let alpha = unit_interval("alpha", get(map, "alpha", 0.5)?)?;
    let gamma = unit_interval("gamma", get(map, "gamma", 0.96875)?)?;
    let epsilon = unit_interval("epsilon", get(map, "epsilon", 0.2)?)?;
    let temperature: f64 = get(map, "temperature", 0.1)?;
    let seed: u64 = get(map, "seed", 1)?;
    if !(temperature > 0.0 && temperature.is_finite()) {
        return Err(format!(
            "--temperature must be positive and finite, got {temperature}"
        ));
    }

    let action_set = match actions {
        4 => ActionSet::Four,
        8 => ActionSet::Eight,
        _ => return Err("actions must be 4 or 8".into()),
    };
    let mut rng = Lfsr32::new(seed as u32 ^ 0x5EED);
    let env = GridWorld::random(width, height, obstacles, action_set, &mut rng);
    let cfg = AccelConfig::default()
        .with_alpha(alpha)
        .with_gamma(gamma)
        .with_seed(seed);

    println!(
        "training {engine} on a {width}x{height} grid ({} states x {} actions), {samples} samples",
        env.num_states(),
        env.num_actions()
    );
    let (stats, policy, resources) = match engine {
        "ql" => {
            let mut a = QLearningAccel::<Q8_8>::new(&env, cfg);
            let s = a.train_samples(&env, samples);
            (s, a.greedy_policy(), a.resources())
        }
        "sarsa" => {
            let mut a = SarsaAccel::<Q8_8>::new(&env, cfg, epsilon);
            let s = a.train_samples(&env, samples);
            (s, a.greedy_policy(), a.resources())
        }
        "prob" => {
            let mut a =
                ProbPolicyAccel::<Q8_8>::new(&env, cfg, WeightRule::Boltzmann { temperature });
            let s = a.train_samples(&env, samples);
            (s, a.greedy_policy(), a.resources())
        }
        other => return Err(format!("unknown engine '{other}' (ql|sarsa|prob)")),
    };

    println!(
        "cycles {} | samples/cycle {:.4} | stalls {} | forwards {}",
        stats.cycles,
        stats.samples_per_cycle(),
        stats.stalls,
        stats.forwards
    );
    println!(
        "hardware: {} DSP | {} BRAM ({:.2}%) | {:.0} MHz | {:.0} MS/s | {:.1} mW",
        resources.report.dsp,
        resources.report.bram36,
        resources.utilization.bram_pct,
        resources.fmax_mhz,
        resources.throughput_msps,
        resources.power_mw
    );
    let opt = step_optimality(&env, &policy, &env.shortest_distances());
    let mut eval_rng = Lfsr32::new(7);
    let report = evaluate_policy(&env, &policy, 100, width * height * 2, &mut eval_rng);
    println!(
        "policy: step-optimality {:.3} | success {:.0}% | mean path {:.1}",
        opt,
        report.success_rate() * 100.0,
        report.mean_steps
    );
    if width <= 64 && height <= 64 {
        print!("{}", env.render_policy(&policy));
    }
    Ok(())
}

fn cmd_bandit(map: &HashMap<String, String>) -> Result<(), String> {
    let arms: usize = get(map, "arms", 5)?;
    let rounds: usize = get(map, "rounds", 100_000)?;
    let epsilon = unit_interval("epsilon", get(map, "epsilon", 0.05)?)?;
    let seed: u64 = get(map, "seed", 1)?;
    if arms < 2 {
        return Err(format!("--arms must be at least 2, got {arms}"));
    }
    let policy = match map.get("policy").map(String::as_str).unwrap_or("eps") {
        "eps" => BanditPolicy::EpsilonGreedy { epsilon },
        "exp3" => BanditPolicy::Exp3 { gamma: 0.1 },
        other => return Err(format!("unknown bandit policy '{other}' (eps|exp3)")),
    };
    let mut env = GaussianBandit::linear_means(arms, 0.15, seed as u32);
    let mut engine =
        BanditAccel::<Q8_8>::new(arms, policy, 0.1, AccelConfig::default().with_seed(seed));
    let regret = engine.run(&mut env, rounds);
    let est = engine.estimates();
    let best = est
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);
    println!(
        "{arms}-arm bandit, {rounds} rounds: regret {:.1}, best-arm estimate {} (true {}), \
         modeled {:.0} M decisions/s",
        regret.last().copied().unwrap_or(0.0),
        best,
        env.optimal_arm(),
        engine.resources().throughput_msps
    );
    Ok(())
}

fn cmd_resources(map: &HashMap<String, String>) -> Result<(), String> {
    let states: usize = get(map, "states", 65_536)?;
    let actions: usize = get(map, "actions", 8)?;
    let kind = match map.get("engine").map(String::as_str).unwrap_or("ql") {
        "ql" => EngineKind::QLearning,
        "sarsa" => EngineKind::Sarsa,
        other => return Err(format!("unknown engine '{other}' (ql|sarsa)")),
    };
    let device = match map.get("device").map(String::as_str).unwrap_or("vu13p") {
        "vu13p" => Device::XCVU13P,
        "v7" => Device::VIRTEX7_690T,
        "v6" => Device::VIRTEX6_LX240T,
        other => return Err(format!("unknown device '{other}' (vu13p|v7|v6)")),
    };
    let cfg = AccelConfig::default().with_device(device);
    let r = analyze(states, actions, 16, kind, &cfg, 1.0);
    println!(
        "{kind:?} with |S|={states}, |A|={actions} on {}:",
        device.name
    );
    println!(
        "  DSP {} ({:.3}%) | BRAM {} blocks ({:.2}%) | FF {} ({:.3}%) | LUT {}",
        r.report.dsp,
        r.utilization.dsp_pct,
        r.report.bram36,
        r.utilization.bram_pct,
        r.report.ff,
        r.utilization.ff_pct,
        r.report.lut
    );
    if !r.report.fits(&device) {
        println!("  DOES NOT FIT this device");
    }
    println!(
        "  fmax {:.0} MHz -> {:.0} MS/s | power {:.1} mW",
        r.fmax_mhz, r.throughput_msps, r.power_mw
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print!("{HELP}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        cmd => match parse_args(&args[1..]) {
            Err(e) => Err(e),
            Ok(map) => match cmd {
                "train" => cmd_train(&map),
                "bandit" => cmd_bandit(&map),
                "resources" => cmd_resources(&map),
                other => Err(format!("unknown command '{other}'; see 'qtaccel-cli help'")),
            },
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
