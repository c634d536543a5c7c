//! The shared training-run specification.
//!
//! Coordinator and workers are separate processes; the only thing they
//! exchange at startup is a 64-bit hash. Everything else — the terrain,
//! the per-shard environments, the accelerator configuration, the
//! deterministic shard budgets — is rebuilt *identically* on both sides
//! from this little value struct, so a worker can verify with one compare
//! that it is about to train the same workload the coordinator is
//! supervising. A mismatch is refused before any sample runs
//! ([`crate::ClusterError::SpecMismatch`]).

use std::path::Path;

use qtaccel_accel::{
    shard_budgets, shard_checkpoint_path, AccelConfig, CheckpointError, IndependentPipelines,
};
use qtaccel_core::qtable::{QTable, QmaxTable};
use qtaccel_envs::{ActionSet, PartitionedGrid};
use qtaccel_fixed::Q8_8;
use qtaccel_hdl::lfsr::Lfsr32;

/// Every shard's final `(Q, Qmax)` image pair, in shard order.
pub type ShardTables = Vec<(QTable<Q8_8>, QmaxTable<Q8_8>)>;

/// Everything needed to deterministically reconstruct a training run.
///
/// Both sides build the same [`PartitionedGrid`] terrain (seeded by
/// `seed`), the same `tiles_x × tiles_y` shard decomposition, and the
/// same per-shard sample budgets via the deterministic split
/// ([`shard_budgets`], the rule `train_batch` uses), so a
/// cluster run is bit-identical to a single-process
/// `IndependentPipelines::train_batch` of the same spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Master seed: terrain generation and per-pipeline seed banks.
    pub seed: u64,
    /// Total terrain width in cells (must divide by `tiles_x`).
    pub width: u32,
    /// Total terrain height in cells (must divide by `tiles_y`).
    pub height: u32,
    /// Horizontal tile count.
    pub tiles_x: u32,
    /// Vertical tile count.
    pub tiles_y: u32,
    /// Obstacle density percentage per tile.
    pub obstacle_pct: u32,
    /// Total sample budget across all shards.
    pub total_samples: u64,
    /// Durable-checkpoint cadence (samples between saves) handed to
    /// workers inside each lease frame.
    pub checkpoint_every: u64,
}

fn mix(h: u64, v: u64) -> u64 {
    // splitmix64 finalizer over a running hash — the same mixer the
    // manifest fingerprints use; stable across platforms.
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ClusterSpec {
    /// Number of shards (= leases = pipelines = BRAM banks).
    pub fn shards(&self) -> usize {
        (self.tiles_x * self.tiles_y) as usize
    }

    /// Order-sensitive fingerprint of every field. Advertised by the
    /// coordinator in its hello-ack; a worker refuses on mismatch.
    pub fn hash(&self) -> u64 {
        let mut h = 0x5154_4143_434c_5553; // "QTACCLUS"
        for v in [
            self.seed,
            u64::from(self.width),
            u64::from(self.height),
            u64::from(self.tiles_x),
            u64::from(self.tiles_y),
            u64::from(self.obstacle_pct),
            self.total_samples,
            self.checkpoint_every,
        ] {
            h = mix(h, v);
        }
        h
    }

    /// Rebuild the partitioned terrain. Deterministic in `seed`: both
    /// sides get bit-identical sub-environments.
    pub fn environment(&self) -> PartitionedGrid {
        let mut rng = Lfsr32::new(self.seed as u32 ^ (self.seed >> 32) as u32);
        PartitionedGrid::new(
            self.width,
            self.height,
            self.tiles_x,
            self.tiles_y,
            self.obstacle_pct,
            ActionSet::Four,
            &mut rng,
        )
    }

    /// The accelerator configuration every pipeline uses.
    pub fn accel_config(&self) -> AccelConfig {
        AccelConfig::default().with_seed(self.seed)
    }

    /// Fresh pipelines over the spec's terrain (per-shard seed banks
    /// assigned by index, exactly as `train_batch` does).
    pub fn pipelines(&self) -> IndependentPipelines<Q8_8> {
        IndependentPipelines::new(self.environment().partitions(), self.accel_config())
    }

    /// Per-shard sample budgets: the deterministic split `train_batch`
    /// uses ([`shard_budgets`]), so cluster totals compose bit-exactly
    /// with the single-process reference.
    pub fn budgets(&self) -> Vec<u64> {
        shard_budgets(self.total_samples, self.shards())
    }

    /// Single-process reference: train the whole budget in one process
    /// and return every shard's final `(Q, Qmax)` image. The chaos
    /// harness compares cluster output against this bit-for-bit.
    pub fn reference_tables(&self) -> ShardTables {
        let envs = self.environment();
        let mut pipes = self.pipelines();
        pipes.train_batch(envs.partitions(), self.total_samples);
        (0..self.shards())
            .map(|i| (pipes.q_table(i), pipes.qmax_table(i)))
            .collect()
    }

    /// Restore every shard's *sealed* checkpoint from `dir` into fresh
    /// pipelines and return the final `(Q, Qmax)` images — what a
    /// completed cluster run actually produced, ready to diff against
    /// [`ClusterSpec::reference_tables`].
    pub fn restore_final_tables(&self, dir: &Path) -> Result<ShardTables, CheckpointError> {
        let mut pipes = self.pipelines();
        for i in 0..self.shards() {
            pipes.restore_shard_checkpoint(i, &shard_checkpoint_path(dir, i))?;
        }
        Ok((0..self.shards())
            .map(|i| (pipes.q_table(i), pipes.qmax_table(i)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec {
            seed: 0xC1A5,
            width: 16,
            height: 16,
            tiles_x: 2,
            tiles_y: 2,
            obstacle_pct: 10,
            total_samples: 10_001,
            checkpoint_every: 2_048,
        }
    }

    #[test]
    fn hash_is_stable_and_field_sensitive() {
        let a = spec();
        assert_eq!(a.hash(), spec().hash());
        let mut b = spec();
        b.total_samples += 1;
        assert_ne!(a.hash(), b.hash());
        let mut c = spec();
        c.seed ^= 1;
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn budgets_split_deterministically_and_sum_to_total() {
        let s = spec();
        let b = s.budgets();
        assert_eq!(b.len(), 4);
        assert_eq!(b.iter().sum::<u64>(), s.total_samples);
        // total = 10_001 over 4 shards: one shard carries the remainder.
        assert_eq!(b, vec![2_501, 2_500, 2_500, 2_500]);
    }

    #[test]
    fn environment_rebuild_is_bit_identical() {
        let s = spec();
        let a = s.environment();
        let b = s.environment();
        for (ga, gb) in a.iter().zip(b.iter()) {
            assert_eq!(ga.goal_state(), gb.goal_state());
        }
    }
}
