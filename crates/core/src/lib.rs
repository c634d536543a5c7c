#![deny(missing_docs)]

//! Q-table reinforcement learning algorithms — the software golden
//! references for the QTAccel accelerator.
//!
//! This crate implements everything §III of the paper describes, in plain
//! sequential Rust:
//!
//! * [`qtable`] — the dense Q-table and the Qmax array (§V-A's
//!   optimization: "an array Qmax of size equal to the number of states
//!   which stores the maximum Q-value for all the states").
//! * [`policy`] — action-selection policies: random, greedy, ε-greedy
//!   (§III-B), and the probability-table policy with binary-search
//!   selection of §VII-B (Boltzmann weights among its rules).
//! * [`trainer`] — step-exact Q-Learning (Eq. 1/3) and SARSA (Eq. 2)
//!   trainers. These are **golden references**: given the same master
//!   seed, datapath format and Qmax semantics, they make bit-identical
//!   decisions and updates to the pipelined accelerator in
//!   `qtaccel-accel`, which is how the pipeline's hazard handling is
//!   verified.
//! * [`bandit`] — multi-armed bandit algorithms for the §VII-B extension:
//!   ε-greedy bandits, UCB1 and EXP3 (Eq. 5), with regret accounting.
//! * [`eval`] — policy-quality evaluation: greedy rollouts, success rate,
//!   path-length optimality against BFS ground truth.

pub mod bandit;
pub mod eval;
pub mod policy;
pub mod qtable;
pub mod trainer;

pub use bandit::{BanditAlgorithm, EpsilonGreedyBandit, Exp3, Ucb1};
pub use eval::{evaluate_policy, step_optimality, EvalReport};
pub use policy::{Policy, ProbTablePolicy};
pub use qtable::{MaxMode, QTable, QmaxTable};
pub use trainer::{
    q_learning, sarsa, QLearningRef, RefTrainer, SarsaRef, TrainerConfig, Transition,
};
