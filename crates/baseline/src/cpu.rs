//! The CPU software baseline of Table II.
//!
//! The paper measures "a python program in which the Q values are stored
//! in a nested dictionary and are indexed by state coordinates tuples and
//! actions" on a 2.3 GHz Core i5, and attributes its slowdown to (1) the
//! sequential nature of the algorithm and (2) cache misses once the
//! tables outgrow the LLC.
//!
//! [`CpuBaseline`] reproduces that baseline as an actually-measured
//! software loop in two flavours:
//!
//! * [`CpuKind::NestedDict`] — `HashMap<(x, y), HashMap<action, f64>>`
//!   with the default SipHash hasher: the closest compiled-language
//!   analogue of the Python dict structure.
//! * [`CpuKind::DenseArray`] — a flat `Vec<f64>` indexed arithmetically:
//!   what a performance-conscious Rust implementation does, included so
//!   EXPERIMENTS.md can calibrate how much of the paper's CPU number is
//!   interpreter/dict overhead versus memory behaviour.
//!
//! Being compiled, both run faster than CPython; the *shape* Table II
//! cares about — throughput decreasing with |S| as tables leave cache,
//! and the FPGA model exceeding the CPU by orders of magnitude — is
//! preserved and recorded in EXPERIMENTS.md.

use std::collections::HashMap;
use std::time::Instant;

use qtaccel_core::policy::Policy;
use qtaccel_core::qtable::MaxMode;
use qtaccel_core::trainer::{seed_unit, TrainerConfig};
use qtaccel_envs::{Environment, GridWorld, State};
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::rng::{RngSource, SeedSequence};

/// Which software data structure backs the Q storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuKind {
    /// Hash map of coordinate tuples to per-action hash maps (the
    /// python-dict-like structure of the paper's baseline).
    NestedDict,
    /// Flat dense array, arithmetic indexing.
    DenseArray,
}

/// Measured throughput of a CPU run.
#[derive(Debug, Clone, Copy)]
pub struct CpuThroughput {
    /// Updates performed.
    pub samples: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl CpuThroughput {
    /// Updates per second.
    pub fn samples_per_sec(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.samples as f64 / self.seconds
        }
    }

    /// In the paper's Table II unit (million samples per second).
    pub fn msps(&self) -> f64 {
        self.samples_per_sec() / 1e6
    }
}

/// CPU Q-learning baseline over a grid world.
#[derive(Debug)]
pub struct CpuBaseline {
    env: GridWorld,
    kind: CpuKind,
    config: TrainerConfig,
    dict: HashMap<(u32, u32), HashMap<u32, f64>>,
    dense: Vec<f64>,
    start_rng: Lfsr32,
    behavior_rng: Lfsr32,
    carry: Option<State>,
}

impl CpuBaseline {
    /// Build a baseline matching the accelerator's Q-Learning fixture
    /// (random behaviour, greedy update with exact max — software has no
    /// Qmax array).
    pub fn new(env: GridWorld, kind: CpuKind, seed: u64) -> Self {
        let config = TrainerConfig::q_learning()
            .with_seed(seed)
            .with_max_mode(MaxMode::ExactScan);
        let seeds = SeedSequence::new(config.seed);
        let dense = match kind {
            CpuKind::DenseArray => vec![0.0; env.num_states() * env.num_actions()],
            CpuKind::NestedDict => Vec::new(),
        };
        Self {
            kind,
            config,
            dict: HashMap::new(),
            dense,
            start_rng: Lfsr32::new(seeds.derive(seed_unit::START)),
            behavior_rng: Lfsr32::new(seeds.derive(seed_unit::BEHAVIOR)),
            carry: None,
            env,
        }
    }

    fn q_get_dict(&self, s: State, a: u32) -> f64 {
        let key = self.env.xy_of(s);
        self.dict
            .get(&key)
            .and_then(|row| row.get(&a))
            .copied()
            .unwrap_or(0.0)
    }

    fn max_dict(&self, s: State) -> f64 {
        let key = self.env.xy_of(s);
        let mut best = f64::NEG_INFINITY;
        for a in 0..self.env.num_actions() as u32 {
            let v = self
                .dict
                .get(&key)
                .and_then(|row| row.get(&a))
                .copied()
                .unwrap_or(0.0);
            if v > best {
                best = v;
            }
        }
        best
    }

    /// One sequential Q-learning update (random behaviour, greedy target).
    pub fn step(&mut self) {
        let s = match self.carry.take() {
            Some(s) => s,
            None => self.env.random_start(&mut self.start_rng),
        };
        let a = self.behavior_rng.below(self.env.num_actions() as u32);
        let s_next = self.env.transition(s, a);
        let r = self.env.reward(s, a);
        let (alpha, gamma) = (self.config.alpha, self.config.gamma);
        match self.kind {
            CpuKind::NestedDict => {
                let q_sa = self.q_get_dict(s, a);
                let q_max = self.max_dict(s_next);
                let q_new = (1.0 - alpha) * q_sa + alpha * r + alpha * gamma * q_max;
                let key = self.env.xy_of(s);
                *self.dict.entry(key).or_default().entry(a).or_insert(0.0) = q_new;
            }
            CpuKind::DenseArray => {
                let na = self.env.num_actions();
                let idx = s as usize * na + a as usize;
                let base = s_next as usize * na;
                let mut q_max = f64::NEG_INFINITY;
                for v in &self.dense[base..base + na] {
                    if *v > q_max {
                        q_max = *v;
                    }
                }
                let q_new = (1.0 - alpha) * self.dense[idx] + alpha * r + alpha * gamma * q_max;
                self.dense[idx] = q_new;
            }
        }
        self.carry = if self.env.is_terminal(s_next) {
            None
        } else {
            Some(s_next)
        };
    }

    /// Run `n` updates against the wall clock.
    pub fn measure(&mut self, n: u64) -> CpuThroughput {
        let t0 = Instant::now();
        for _ in 0..n {
            self.step();
        }
        CpuThroughput {
            samples: n,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// The greedy policy learned so far (for sanity checks).
    pub fn greedy_policy(&self) -> Vec<u32> {
        let na = self.env.num_actions() as u32;
        (0..self.env.num_states() as State)
            .map(|s| {
                let mut best_a = 0;
                let mut best_v = f64::NEG_INFINITY;
                for a in 0..na {
                    let v = match self.kind {
                        CpuKind::NestedDict => self.q_get_dict(s, a),
                        CpuKind::DenseArray => self.dense[s as usize * na as usize + a as usize],
                    };
                    if v > best_v {
                        best_v = v;
                        best_a = a;
                    }
                }
                best_a
            })
            .collect()
    }

    /// Which behaviour policy the baseline runs (always random, like the
    /// accelerator's Q-Learning fixture).
    pub fn policy(&self) -> Policy {
        self.config.behavior
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: u32) -> GridWorld {
        GridWorld::builder(n, n).goal(n - 1, n - 1).build()
    }

    #[test]
    fn both_kinds_learn() {
        for kind in [CpuKind::NestedDict, CpuKind::DenseArray] {
            let g = grid(4);
            let mut c = CpuBaseline::new(g.clone(), kind, 5);
            for _ in 0..100_000 {
                c.step();
            }
            let opt = qtaccel_core::eval::step_optimality(
                &g,
                &c.greedy_policy(),
                &g.shortest_distances(),
            );
            assert_eq!(opt, 1.0, "{kind:?}");
        }
    }

    #[test]
    fn kinds_agree_on_values() {
        // Same seed, same update rule: the two storages must hold the
        // same Q function.
        let g = grid(4);
        let mut a = CpuBaseline::new(g.clone(), CpuKind::NestedDict, 9);
        let mut b = CpuBaseline::new(g.clone(), CpuKind::DenseArray, 9);
        for _ in 0..20_000 {
            a.step();
            b.step();
        }
        assert_eq!(a.greedy_policy(), b.greedy_policy());
    }

    #[test]
    fn measure_reports_positive_throughput() {
        let g = grid(8);
        let mut c = CpuBaseline::new(g, CpuKind::NestedDict, 2);
        let t = c.measure(50_000);
        assert_eq!(t.samples, 50_000);
        assert!(t.samples_per_sec() > 10_000.0, "{}", t.samples_per_sec());
    }

    #[test]
    fn dense_is_not_slower_than_dict() {
        let g = grid(32);
        let mut dict = CpuBaseline::new(g.clone(), CpuKind::NestedDict, 3);
        let mut dense = CpuBaseline::new(g, CpuKind::DenseArray, 3);
        // Warm up, then measure.
        dict.measure(20_000);
        dense.measure(20_000);
        let td = dict.measure(200_000);
        let tn = dense.measure(200_000);
        assert!(
            tn.samples_per_sec() > td.samples_per_sec(),
            "dense {} vs dict {}",
            tn.samples_per_sec(),
            td.samples_per_sec()
        );
    }
}
