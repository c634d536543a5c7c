#![deny(missing_docs)]

//! Environments and transition functions for the QTAccel suite.
//!
//! In the QTAccel architecture the environment appears as two hardware
//! artifacts (§IV-B): a **transition function** module ("acts as a black
//! box … takes as input the current state Sₜ and an action Aₜ, and outputs
//! the new state Sₜ₊₁") implemented as combinational logic, and a **reward
//! table** in BRAM addressed by state-action pair. The [`Environment`]
//! trait captures exactly that contract: deterministic
//! `transition(s, a) → s'` and tabular `reward(s, a)`.
//!
//! Provided environments:
//!
//! * [`GridWorld`] — the paper's evaluation workload (§VI-A): a robot on a
//!   grid of cells with obstacles and a goal, states encoded as packed
//!   (x, y) coordinate bits, 4- or 8-action move sets with the paper's
//!   exact binary encodings. Its transition module is computed once, at
//!   build: a legal-move byte per state and a packed-address offset per
//!   action, so a transition is a byte load, a bit test and an add.
//! * [`CliffWalk`] — the classic cliff-walking task, used by the examples
//!   to show the on-policy (SARSA) vs off-policy (Q-Learning) behavioural
//!   difference.
//! * [`bandit::GaussianBandit`] — M-armed bandit with normally distributed
//!   rewards, the §VII-B Multi-Armed Bandit workload.
//! * [`multi::PartitionedGrid`] — N disjoint sub-environments for the
//!   independent-learners configuration (Fig. 9).

pub mod bandit;
pub mod cliff;
pub mod env;
pub mod gridworld;
pub mod multi;
pub mod reward_table;

pub use bandit::{ArmChain, GaussianBandit, StatefulBandit};
pub use cliff::CliffWalk;
pub use env::{sa_index, Action, Environment, State};
pub use gridworld::{ActionSet, GridWorld, GridWorldBuilder};
pub use multi::PartitionedGrid;
pub use reward_table::{RewardMemo, RewardTable};
