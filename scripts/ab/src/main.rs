//! The engine A/B probe. One binary links three copies of the engine
//! crates: the working tree's ("change"), a revision's ("parent") and a
//! second, identical export of that revision ("control"). Every pair runs
//! one repetition of each shape on all three sides, in an order that
//! rotates through all six permutations, and the probe reports the
//! median per-pair time ratios change/parent and control/parent with
//! their quartiles. Identical code reads about 1.00 once the binary is
//! built with function and block alignment (`scripts/ab.sh` does), so
//! the control shows how far placement and host noise reach.
//!
//! All three sides train the same engines from the same seeds, so at the
//! end their Q and Qmax tables, forwards and cycles must agree; the
//! probe exits 1 if any differ.
//!
//! Usage: `qtaccel-ab [PAIRS]` (default 150). Build and run it through
//! `scripts/ab.sh`, which exports the revision first.

use std::process::ExitCode;
use std::time::Instant;

/// The shapes, in the order each side's [`Shape`]s are built.
const SHAPES: [&str; 8] = [
    "kernel  4 x 4096x8 Q-learning, 65,536-sample calls",
    "kernel  cluster tile (seed 1), 65,536-sample calls",
    "kernel  262,144x8 SARSA q8, 2^20-sample calls",
    "kernel  4096x8 16-bit SARSA, 65,536-sample calls",
    "kernel  65,536x8 16-bit Q-learning, 65,536-sample calls",
    "cycle   16,384x8 Q-learning, 2^17-sample calls",
    "cycle   4096x8 SARSA, 2^17-sample calls",
    "set-up  262,144x8 SARSA q8: grid, engine, first 2^21",
];

/// Every order of the three sides (0 change, 1 parent, 2 control).
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [1, 2, 0],
    [2, 0, 1],
    [0, 2, 1],
    [2, 1, 0],
    [1, 0, 2],
];

/// One shape's engines on one side.
trait Shape {
    /// Run one repetition.
    fn rep(&mut self);
    /// What all three sides must agree on after the run.
    fn digest(&self) -> Digest;
}

/// A hash of every bank's final Q and Qmax words, and the sums of their
/// forwards and cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Digest {
    tables: u64,
    forwards: u64,
    cycles: u64,
}

/// Fold `v` into the running hash `h` (the splitmix64 finalizer).
fn mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One side: the shapes built from one copy of the engine crates. The
/// body uses only names the benchmark (qtbench) imports, plus the table
/// types its engines return, so it builds against any recent revision.
macro_rules! side {
    ($side:ident: $accel:ident, $core:ident, $envs:ident, $fixed:ident, $hdl:ident) => {
        mod $side {
            use super::{mix, Digest, Shape};
            use $accel::{AccelConfig, AccelPipeline, QLearningAccel, SarsaAccel};
            use $core::qtable::{QTable, QmaxTable};
            use $core::trainer::TrainerConfig;
            use $envs::{ActionSet, GridWorld, PartitionedGrid};
            use $fixed::{QuantPolicy, Q8_8};
            use $hdl::lfsr::Lfsr32;
            use $hdl::pipeline::CycleStats;

            const SEED: u64 = 1;
            const EPSILON: f64 = 0.1;

            /// The benchmark's square grid of `states` cells with 8
            /// actions: goal in the far corner, a sparse diagonal band of
            /// obstacles.
            fn paper_grid(states: u32) -> GridWorld {
                let side = 1u32 << (states.trailing_zeros() / 2);
                let mut b = GridWorld::builder(side, side)
                    .goal(side - 1, side - 1)
                    .actions(ActionSet::Eight);
                for i in (2..side - 2).step_by(4) {
                    b = b.obstacle(i, side - 1 - i);
                }
                b.build()
            }

            /// An engine's final state, as [`Digest`] folds it.
            type State = (QTable<Q8_8>, QmaxTable<Q8_8>, CycleStats);

            /// Fold one engine's final state into `d`.
            fn fold(d: &mut Digest, (q, qmax, stats): State) {
                for v in q.as_slice() {
                    d.tables = mix(d.tables, v.raw() as u64);
                }
                for s in 0..qmax.len() as u32 {
                    let (v, a) = qmax.get(s);
                    d.tables = mix(mix(d.tables, v.raw() as u64), u64::from(a));
                }
                d.forwards += stats.forwards;
                d.cycles += stats.cycles;
            }

            /// Banks of one engine type, each trained `rounds` times per
            /// rep through `call`.
            struct Banks<P> {
                envs: Vec<GridWorld>,
                pipes: Vec<P>,
                rounds: usize,
                call: fn(&mut P, &GridWorld),
                state: fn(&P) -> State,
            }

            impl<P> Shape for Banks<P> {
                fn rep(&mut self) {
                    for _ in 0..self.rounds {
                        for (p, env) in self.pipes.iter_mut().zip(&self.envs) {
                            (self.call)(p, env);
                        }
                    }
                }

                fn digest(&self) -> Digest {
                    let mut d = Digest::default();
                    for p in &self.pipes {
                        fold(&mut d, (self.state)(p));
                    }
                    d
                }
            }

            /// What the benchmark's `setup_s` times on its SARSA q8
            /// workload, from scratch each rep: the 262,144-state grid,
            /// the engine with the 8-bit stored format, and a first call
            /// of 2^21 samples, which builds the kernel's image. A rep
            /// first drops the previous rep's engine, on every side.
            struct Setup {
                config: AccelConfig,
                last: Option<SarsaAccel<Q8_8>>,
            }

            impl Shape for Setup {
                fn rep(&mut self) {
                    self.last = None;
                    let env = paper_grid(262_144);
                    let mut accel = SarsaAccel::<Q8_8>::new(&env, self.config, EPSILON);
                    accel.enable_quant(QuantPolicy::q8());
                    accel.train_samples_fast(&env, 1 << 21);
                    self.last = Some(accel);
                }

                fn digest(&self) -> Digest {
                    let mut d = Digest::default();
                    if let Some(p) = &self.last {
                        fold(&mut d, (p.q_table(), p.qmax_table(), p.stats()));
                    }
                    d
                }
            }

            /// The shapes of [`super::SHAPES`], in order.
            pub fn shapes() -> Vec<Box<dyn Shape>> {
                let ql = AccelConfig::default().with_seed(SEED);
                let sarsa = AccelConfig {
                    trainer: TrainerConfig::sarsa(EPSILON).with_seed(SEED),
                    ..ql
                };

                let batch_envs: Vec<_> = (0..4).map(|_| paper_grid(4096)).collect();
                let batch = Banks {
                    pipes: (0..4)
                        .map(|i| AccelPipeline::<Q8_8>::new(&batch_envs[i], ql, i as u64))
                        .collect(),
                    envs: batch_envs,
                    rounds: 4,
                    call: |p, env| {
                        p.train_samples_fast(env, 1 << 16);
                    },
                    state: |p| (p.q_table(), p.qmax_table(), p.stats()),
                };

                let terrain =
                    PartitionedGrid::new(64, 64, 4, 4, 10, ActionSet::Four, &mut Lfsr32::new(1));
                let tile = terrain.partition(0).clone();
                let cluster = Banks {
                    pipes: vec![AccelPipeline::<Q8_8>::new(&tile, ql, 0)],
                    envs: vec![tile],
                    rounds: 16,
                    call: |p, env| {
                        p.train_samples_fast(env, 1 << 16);
                    },
                    state: |p| (p.q_table(), p.qmax_table(), p.stats()),
                };

                let spill_env = paper_grid(262_144);
                let mut spill_accel = SarsaAccel::<Q8_8>::new(&spill_env, sarsa, EPSILON);
                spill_accel.enable_quant(QuantPolicy::q8());
                let spill = Banks {
                    pipes: vec![spill_accel],
                    envs: vec![spill_env],
                    rounds: 1,
                    call: |p, env| {
                        p.train_samples_fast(env, 1 << 20);
                    },
                    state: |p| (p.q_table(), p.qmax_table(), p.stats()),
                };

                let sarsa_env = paper_grid(4096);
                let sarsa16 = Banks {
                    pipes: vec![SarsaAccel::<Q8_8>::new(&sarsa_env, sarsa, EPSILON)],
                    envs: vec![sarsa_env],
                    rounds: 16,
                    call: |p, env| {
                        p.train_samples_fast(env, 1 << 16);
                    },
                    state: |p| (p.q_table(), p.qmax_table(), p.stats()),
                };

                // A table of 2^19 entries trained in calls of 2^16
                // samples: a kernel that copies Q in and out per call
                // moves eight entries each way per sample.
                let wide_env = paper_grid(65_536);
                let wide = Banks {
                    pipes: vec![QLearningAccel::<Q8_8>::new(&wide_env, ql)],
                    envs: vec![wide_env],
                    rounds: 16,
                    call: |p, env| {
                        p.train_samples_fast(env, 1 << 16);
                    },
                    state: |p| (p.q_table(), p.qmax_table(), p.stats()),
                };

                let cycle_env = paper_grid(16_384);
                let cycle = Banks {
                    pipes: vec![QLearningAccel::<Q8_8>::new(&cycle_env, ql)],
                    envs: vec![cycle_env],
                    rounds: 1,
                    call: |p, env| {
                        p.train_samples(env, 1 << 17);
                    },
                    state: |p| (p.q_table(), p.qmax_table(), p.stats()),
                };

                let sarsa_cycle_env = paper_grid(4096);
                let sarsa_cycle = Banks {
                    pipes: vec![SarsaAccel::<Q8_8>::new(&sarsa_cycle_env, sarsa, EPSILON)],
                    envs: vec![sarsa_cycle_env],
                    rounds: 1,
                    call: |p, env| {
                        p.train_samples(env, 1 << 17);
                    },
                    state: |p| (p.q_table(), p.qmax_table(), p.stats()),
                };

                let setup = Setup {
                    config: sarsa,
                    last: None,
                };

                vec![
                    Box::new(batch),
                    Box::new(cluster),
                    Box::new(spill),
                    Box::new(sarsa16),
                    Box::new(wide),
                    Box::new(cycle),
                    Box::new(sarsa_cycle),
                    Box::new(setup),
                ]
            }
        }
    };
}

side!(change: qtaccel_accel, qtaccel_core, qtaccel_envs, qtaccel_fixed, qtaccel_hdl);
side!(parent: qtaccel_accel_parent, qtaccel_core_parent, qtaccel_envs_parent, qtaccel_fixed_parent, qtaccel_hdl_parent);
side!(control: qtaccel_accel_control, qtaccel_core_control, qtaccel_envs_control, qtaccel_fixed_control, qtaccel_hdl_control);

/// Lower quartile, median and upper quartile of `xs`.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
}

fn main() -> ExitCode {
    let pairs = match std::env::args().nth(1).map(|a| a.parse::<usize>()) {
        None => 150,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("usage: qtaccel-ab [PAIRS]  (PAIRS a positive count)");
            return ExitCode::from(2);
        }
    };
    let mut sides = [change::shapes(), parent::shapes(), control::shapes()];

    // One untimed rep per shape and side builds every image and ROM.
    for side in &mut sides {
        for shape in side.iter_mut() {
            shape.rep();
        }
    }

    // secs[shape][side][pair]
    let mut secs = vec![[vec![], vec![], vec![]]; SHAPES.len()];
    for pair in 0..pairs {
        for (k, per_side) in secs.iter_mut().enumerate() {
            for &side in &ORDERS[(pair + k) % ORDERS.len()] {
                let t = Instant::now();
                sides[side][k].rep();
                per_side[side].push(t.elapsed().as_secs_f64());
            }
        }
    }

    println!(
        "{:<56} {:>9}  {:>24}  {:>24}",
        "shape", "parent ms", "change/parent q1 med q3", "control/parent q1 med q3"
    );
    for (name, [change, parent, control]) in SHAPES.iter().zip(&secs) {
        let ratio = |side: &[f64]| quartiles(side.iter().zip(parent).map(|(a, b)| a / b).collect());
        let [c1, cm, c3] = ratio(change);
        let [k1, km, k3] = ratio(control);
        let parent_ms = quartiles(parent.clone())[1] * 1e3;
        println!(
            "{name:<56} {parent_ms:>9.3}  {c1:>7.4} {cm:>7.4} {c3:>7.4}  {k1:>8.4} {km:>7.4} {k3:>7.4}"
        );
    }

    let mut same = true;
    for (k, name) in SHAPES.iter().enumerate() {
        let [change, parent, control] = [0, 1, 2].map(|side| sides[side][k].digest());
        if change != parent || control != parent {
            same = false;
            eprintln!(
                "{name}: sides differ: change {change:?}, parent {parent:?}, control {control:?}"
            );
        }
    }
    println!("{pairs} pairs");
    if same {
        println!("same bits: final Q and Qmax tables, forwards and cycles agree on every shape");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
