//! # QTAccel — facade crate
//!
//! Reproduction of *QTAccel: A Generic FPGA based Design for Q-Table based
//! Reinforcement Learning Accelerators* (IPDPS 2020) as a cycle-accurate
//! Rust simulation suite. This facade re-exports all sub-crates under one
//! roof so examples and downstream users need a single dependency:
//!
//! * [`fixed`] — fixed-point datapath arithmetic ([`fixed::Q8_8`] is the
//!   default hardware format).
//! * [`hdl`] — FPGA component models: dual-port BRAM, LFSRs, DSP counting,
//!   device/resource/fmax/power models.
//! * [`envs`] — environments: grid world (the paper's evaluation workload),
//!   cliff walk, multi-agent grids, Gaussian multi-armed bandits.
//! * [`core`] — software golden references: Q-Learning, SARSA, the action
//!   selection policies, bandit algorithms.
//! * [`accel`] — the contribution: the 4-stage pipelined accelerator with
//!   hazard forwarding, Qmax table, multi-pipeline and MAB engines.
//! * [`baseline`] — comparison baselines: the FSM-per-state-action design
//!   of Da Silva et al. and CPU software Q-learning.
//! * [`telemetry`] — observability: the hardware-style perf-counter bank,
//!   the bounded event ring every engine accepts via `with_sink` (and the
//!   pipeline waveform and Perfetto trace drawn from it), and the JSON
//!   emitter/parser behind run reports. Off by default and free when off
//!   (DESIGN.md §2.6).
//! * [`cluster`] — the fault-tolerant multi-process training runtime:
//!   a supervising coordinator hands epoch-fenced shard leases to worker
//!   processes over the telemetry wire protocol and survives kills,
//!   partitions and zombies bit-exactly (DESIGN.md §2.16).
//!
//! ## Quickstart
//!
//! ```
//! use qtaccel::envs::GridWorld;
//! use qtaccel::accel::{AccelConfig, QLearningAccel};
//!
//! // 8x8 grid world, 4 actions, as in the paper's smallest test case.
//! let env = GridWorld::builder(8, 8).goal(7, 7).build();
//! let config = AccelConfig::default().with_alpha(0.5).with_gamma(0.875);
//! let mut accel = QLearningAccel::<qtaccel::fixed::Q8_8>::new(&env, config);
//! let stats = accel.train_samples(&env, 20_000);
//! assert_eq!(stats.samples, 20_000);
//! // After the 3-cycle pipeline fill, one sample retires per cycle.
//! assert!(stats.cycles <= stats.samples + 4);
//! ```

pub use qtaccel_accel as accel;
pub use qtaccel_baseline as baseline;
pub use qtaccel_cluster as cluster;
pub use qtaccel_core as core;
pub use qtaccel_envs as envs;
pub use qtaccel_fixed as fixed;
pub use qtaccel_hdl as hdl;
pub use qtaccel_telemetry as telemetry;
