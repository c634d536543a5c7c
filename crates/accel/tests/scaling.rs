//! Scale-out executor determinism (DESIGN.md §2.9).
//!
//! The paper's independent-pipeline mode (Fig. 9) is embarrassingly
//! parallel in hardware — each pipeline owns its BRAM banks. The host
//! executor must preserve that: training on the persistent worker pool
//! has to be **bit-identical** to running every pipeline to completion
//! on one thread, at every worker count, because only scheduling may
//! vary — never results. These tests pin `train_batch` to the
//! cycle-accurate `train_samples_sequential` for both algorithms, every
//! hazard mode (so both engines run on the pool), instrumented and not,
//! including P ≫ C oversubscription and `train_batch`'s uneven splits.

use qtaccel_accel::config::{AccelConfig, HazardMode};
use qtaccel_accel::executor::ShardedExecutor;
use qtaccel_accel::multi::{shard_checkpoint_path, IndependentPipelines};
use qtaccel_core::trainer::TrainerConfig;
use qtaccel_envs::{Action, ActionSet, Environment, GridWorld, PartitionedGrid, State};
use qtaccel_fixed::Q8_8;
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_telemetry::manifest::host_parallelism;
use qtaccel_telemetry::CountersOnly;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const HAZARDS: [HazardMode; 3] = [
    HazardMode::Forwarding,
    HazardMode::StallOnly,
    HazardMode::Ignore,
];

/// Worker counts the determinism contract is exercised at: serial pool,
/// two and three workers (odd count ≠ pipeline count, so chunks
/// interleave unevenly), and whatever the host really has.
fn worker_counts() -> Vec<usize> {
    let mut w = vec![1, 2, 3, host_parallelism() as usize];
    w.sort_unstable();
    w.dedup();
    w
}

fn four_banks(seed: u32) -> PartitionedGrid {
    let mut rng = Lfsr32::new(seed);
    PartitionedGrid::new(16, 16, 2, 2, 6, ActionSet::Four, &mut rng)
}

/// Assert two multi-pipeline instances are architecturally identical:
/// per-bank Q tables, per-bank Qmax arrays, merged cycle stats, merged
/// counter banks.
fn assert_banks_identical<S: qtaccel_telemetry::TraceSink>(
    a: &IndependentPipelines<Q8_8, S>,
    b: &IndependentPipelines<Q8_8, S>,
    label: &str,
) {
    assert_eq!(a.stats(), b.stats(), "{label}: merged CycleStats diverged");
    assert_eq!(
        a.merged_counters(),
        b.merged_counters(),
        "{label}: merged counters diverged"
    );
    for i in 0..a.len() {
        assert_eq!(
            a.q_table(i).as_slice(),
            b.q_table(i).as_slice(),
            "{label}: bank {i} Q-table diverged"
        );
        let (qa, qb) = (a.qmax_table(i), b.qmax_table(i));
        for st in 0..qa.len() as qtaccel_envs::State {
            assert_eq!(
                qa.get(st),
                qb.get(st),
                "{label}: bank {i} Qmax diverged at {st}"
            );
        }
    }
}

#[test]
fn train_batch_matches_sequential_every_worker_count() {
    // Two parameter sets: (grid seed, config seed, SARSA ε, samples per
    // bank). Under `Forwarding` the batch runs the stall-free kernel and
    // the reference the cycle-accurate engine; under the other hazard
    // modes both run the cycle-accurate engine.
    for (grid_seed, seed, epsilon, each) in [(11, 77, 0.2, 4_000), (29, 31, 0.15, 6_000)] {
        for hazard in HAZARDS {
            for sarsa in [false, true] {
                let part = four_banks(grid_seed);
                let mut cfg = AccelConfig::default().with_seed(seed).with_hazard(hazard);
                if sarsa {
                    cfg.trainer = TrainerConfig::sarsa(epsilon).with_seed(seed);
                }
                let mut reference = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg);
                reference.train_samples_sequential(part.partitions(), each);
                for workers in worker_counts() {
                    let pool = Arc::new(ShardedExecutor::new(workers));
                    let mut par = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg)
                        .with_executor(pool);
                    assert_eq!(par.workers(), workers);
                    par.train_batch(part.partitions(), each * 4);
                    assert_banks_identical(
                        &reference,
                        &par,
                        &format!("seed {seed} {hazard:?} sarsa={sarsa} workers={workers}"),
                    );
                }
            }
        }
    }
}

#[test]
fn oversubscribed_pipelines_remain_deterministic() {
    // P ≫ C: sixteen banks on two workers, chunks interleaving freely.
    let mut rng = Lfsr32::new(5);
    let part = PartitionedGrid::new(16, 16, 4, 4, 8, ActionSet::Eight, &mut rng);
    let cfg = AccelConfig::default().with_seed(303);
    let mut reference = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg);
    reference.train_samples_sequential(part.partitions(), 5_000);
    let pool = Arc::new(ShardedExecutor::new(2));
    let mut par = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg).with_executor(pool);
    par.train_batch(part.partitions(), 5_000 * 16);
    assert_banks_identical(&reference, &par, "16 banks on 2 workers");
}

#[test]
fn instrumented_counters_merge_identically_in_parallel() {
    // Each bank's counter bank accumulates lock-free on its own shard;
    // the merged dump must match the sequential run exactly. A
    // counter-bearing sink keeps `train_batch` on the cycle-accurate
    // engine in every hazard mode, `Forwarding` included.
    for hazard in HAZARDS {
        let part = four_banks(91);
        let cfg = AccelConfig::default().with_seed(13).with_hazard(hazard);
        let sinks = vec![CountersOnly; part.num_partitions()];
        let mut reference = IndependentPipelines::<Q8_8, CountersOnly>::with_sinks(
            part.partitions(),
            cfg,
            sinks.clone(),
        );
        reference.train_samples_sequential(part.partitions(), 3_000);
        let pool = Arc::new(ShardedExecutor::new(3));
        let mut par =
            IndependentPipelines::<Q8_8, CountersOnly>::with_sinks(part.partitions(), cfg, sinks)
                .with_executor(pool);
        par.train_batch(part.partitions(), 3_000 * 4);
        assert_banks_identical(&reference, &par, &format!("instrumented {hazard:?}"));
        // The instrumented parallel run really counted something.
        assert!(par.merged_counters().iter().any(|(_, v)| v > 0));
    }
}

#[test]
fn train_batch_is_worker_count_invariant() {
    // Uneven totals (not divisible by the bank count) exercise the
    // deterministic remainder split — including a total smaller than
    // the bank count, which leaves the last bank idle; every worker
    // count must produce the same tables, stats, and shard plan.
    let part = four_banks(47);
    let cfg = AccelConfig::default().with_seed(9);
    for total in [10_003u64, 3] {
        let pool1 = Arc::new(ShardedExecutor::new(1));
        let mut first =
            IndependentPipelines::<Q8_8>::new(part.partitions(), cfg).with_executor(pool1);
        let plan = first.train_batch(part.partitions(), total);
        assert_eq!(plan.workers, 1);
        assert_eq!(plan.stats.samples, total);
        assert_eq!(plan.shards.iter().map(|s| s.samples).sum::<u64>(), total);
        // Remainder goes to the lowest-indexed banks, one sample each.
        for (i, shard) in plan.shards.iter().enumerate() {
            let extra = u64::from((i as u64) < total % 4);
            assert_eq!(shard.samples, total / 4 + extra, "total {total} shard {i}");
        }
        for workers in worker_counts() {
            let pool = Arc::new(ShardedExecutor::new(workers));
            let mut other =
                IndependentPipelines::<Q8_8>::new(part.partitions(), cfg).with_executor(pool);
            let report = other.train_batch(part.partitions(), total);
            assert_eq!(
                report.shards, plan.shards,
                "shard plan must not depend on workers"
            );
            let label = format!("train_batch total={total} workers={workers}");
            assert_banks_identical(&first, &other, &label);
        }
    }
}

#[test]
fn train_batch_even_split_matches_sequential() {
    // When the total divides evenly, every bank gets exactly `each`
    // samples, and the batch lands on the sequential reference's tables.
    let part = four_banks(63);
    let cfg = AccelConfig::default().with_seed(21);
    let each = 2_500u64;
    let mut reference = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg);
    reference.train_samples_sequential(part.partitions(), each);
    let pool = Arc::new(ShardedExecutor::new(2));
    let mut batch = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg).with_executor(pool);
    let report = batch.train_batch(part.partitions(), each * 4);
    assert!(report.shards.iter().all(|s| s.samples == each));
    assert_banks_identical(&reference, &batch, "even train_batch vs sequential");
}

#[test]
fn durable_train_batch_is_bit_exact_across_a_kill_and_a_pool_swap() {
    // A durable batch interrupted mid-way and finished by a *different*
    // process image (fresh pipelines, different worker count) must land
    // on the same tables as one uninterrupted batch: the checkpoints
    // carry everything, and worker count was already proven irrelevant.
    let part = four_banks(53);
    let cfg = AccelConfig::default().with_seed(41);
    let dir = std::env::temp_dir().join(format!("qtaccel-durable-scaling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let pool = Arc::new(ShardedExecutor::new(3));
    let mut straight =
        IndependentPipelines::<Q8_8>::new(part.partitions(), cfg).with_executor(pool);
    straight.train_batch(part.partitions(), 40_000);

    let pool1 = Arc::new(ShardedExecutor::new(3));
    let mut leg1 = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg).with_executor(pool1);
    leg1.train_batch_durable(part.partitions(), 24_000, &dir, 4_000)
        .expect("first leg");
    for i in 0..4 {
        assert!(shard_checkpoint_path(&dir, i).exists(), "shard {i} sealed");
    }
    drop(leg1); // the "kill"

    let pool2 = Arc::new(ShardedExecutor::new(2));
    let mut leg2 = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg).with_executor(pool2);
    let report = leg2
        .train_batch_durable(part.partitions(), 40_000, &dir, 4_000)
        .expect("second leg");
    assert_eq!(report.stats.samples, 40_000, "restored + new samples");
    assert_banks_identical(&straight, &leg2, "durable resume across pools");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`GridWorld`] whose transition function panics once the fuse burns
/// down — an environment-side fault injected into one shard of a batch.
struct FlakyEnv {
    inner: GridWorld,
    fuse: AtomicU64,
}

impl FlakyEnv {
    fn new(inner: GridWorld, fuse: u64) -> Self {
        Self {
            inner,
            fuse: AtomicU64::new(fuse),
        }
    }
}

impl Clone for FlakyEnv {
    fn clone(&self) -> Self {
        Self::new(self.inner.clone(), self.fuse.load(Ordering::Relaxed))
    }
}

impl Environment for FlakyEnv {
    fn num_states(&self) -> usize {
        self.inner.num_states()
    }
    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }
    fn transition(&self, s: State, a: Action) -> State {
        if self.fuse.fetch_sub(1, Ordering::Relaxed) == 1 {
            panic!("injected environment fault");
        }
        self.inner.transition(s, a)
    }
    fn reward(&self, s: State, a: Action) -> f64 {
        self.inner.reward(s, a)
    }
    fn is_terminal(&self, s: State) -> bool {
        self.inner.is_terminal(s)
    }
    fn is_valid_state(&self, s: State) -> bool {
        self.inner.is_valid_state(s)
    }
}

#[test]
fn pool_survives_a_panicked_train_batch() {
    // One shard's environment panics mid-batch. The panic must surface
    // on the submitting thread — and the pool must come back clean: the
    // same executor then drives a healthy batch to the bit-exact result.
    let grid = |side: u32| {
        GridWorld::builder(side, side)
            .goal(side - 1, side - 1)
            .actions(ActionSet::Four)
            .build()
    };
    let envs: Vec<FlakyEnv> = (0..4).map(|_| FlakyEnv::new(grid(8), u64::MAX)).collect();
    let mut poisoned: Vec<FlakyEnv> = (0..4).map(|_| FlakyEnv::new(grid(8), u64::MAX)).collect();
    poisoned[2] = FlakyEnv::new(grid(8), 500);

    // StallOnly runs the cycle-accurate engine, which consults the live
    // environment every sample (the stall-free kernel snapshots
    // transitions once), so the fuse burns down mid-batch on a worker
    // thread.
    let cfg = AccelConfig::default()
        .with_seed(67)
        .with_hazard(HazardMode::StallOnly);
    let pool = Arc::new(ShardedExecutor::new(2));

    let mut doomed = IndependentPipelines::<Q8_8>::new(&poisoned, cfg).with_executor(pool.clone());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        doomed.train_batch(&poisoned, 8_000);
    }));
    assert!(outcome.is_err(), "environment fault must propagate");
    drop(doomed);

    // Same pool, healthy batch: bit-exact against the sequential run.
    let mut reference = IndependentPipelines::<Q8_8>::new(&envs, cfg);
    reference.train_samples_sequential(&envs, 2_000);
    let mut after = IndependentPipelines::<Q8_8>::new(&envs, cfg).with_executor(pool);
    after.train_batch(&envs, 8_000);
    assert_banks_identical(&reference, &after, "pool reused after panic");
}

#[test]
fn global_pool_drives_default_training() {
    // No explicit executor: the process-global pool serves the call.
    let part = four_banks(17);
    let cfg = AccelConfig::default().with_seed(3);
    let mut reference = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg);
    reference.train_samples_sequential(part.partitions(), 2_000);
    let mut global = IndependentPipelines::<Q8_8>::new(part.partitions(), cfg);
    assert!(global.workers() >= 1);
    global.train_batch(part.partitions(), 2_000 * 4);
    assert_banks_identical(&reference, &global, "global pool");
}
