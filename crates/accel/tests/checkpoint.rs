//! Crash-safe checkpoint/restore: resuming from a checkpoint must
//! reproduce the straight-through run bit-exactly — for both
//! algorithms, every hazard mode, both Qmax semantics, and with the
//! executors freely mixed around the save point — and damaged or
//! mismatched checkpoint files must be refused with a typed error that
//! leaves the engine untouched.

use qtaccel_accel::checkpoint::CheckpointError;
use qtaccel_accel::config::{AccelConfig, HazardMode};
use qtaccel_accel::pipeline::{Fixture, QrlAccel};
use qtaccel_accel::qlearning::QLearningAccel;
use qtaccel_accel::sarsa::SarsaAccel;
use qtaccel_accel::{BanditAccel, BanditPolicy, ProbPolicyAccel, WeightRule};
use qtaccel_core::qtable::MaxMode;
use qtaccel_envs::GaussianBandit;
use qtaccel_envs::{ActionSet, GridWorld};
use qtaccel_fixed::{Q16_16, Q8_8};
use qtaccel_telemetry::frame::crc32;
use std::path::PathBuf;

const HAZARDS: [HazardMode; 3] = [
    HazardMode::Forwarding,
    HazardMode::StallOnly,
    HazardMode::Ignore,
];

fn grid() -> GridWorld {
    GridWorld::builder(8, 8)
        .goal(7, 7)
        .actions(ActionSet::Four)
        .build()
}

fn tmp(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("qtaccel-ckpt-{}-{name}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Rewrite the container's trailing CRC word after tampering with the
/// payload, so the damage under test is reached instead of masked.
fn fix_crc(bytes: &mut [u8]) {
    let n = bytes.len();
    let crc = crc32(&bytes[..n - 8]) as u64;
    bytes[n - 8..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn qlearning_resume_is_bit_exact_across_hazards_and_max_modes() {
    for hazard in HAZARDS {
        for max_mode in [MaxMode::QmaxArray, MaxMode::ExactScan] {
            let g = grid();
            let cfg = AccelConfig::default()
                .with_seed(0xA5)
                .with_hazard(hazard)
                .with_max_mode(max_mode);
            // The straight-through reference mixes executors the same
            // way the legged run does around the save point.
            let mut straight = QLearningAccel::<Q8_8>::new(&g, cfg);
            straight.train_samples(&g, 7_777);
            straight.train_samples_fast(&g, 5_000);

            let path = tmp(&format!("ql-{hazard:?}-{max_mode:?}"));
            let mut first = QLearningAccel::<Q8_8>::new(&g, cfg);
            first.train_samples(&g, 7_777);
            first.save_checkpoint(&path).expect("save");
            drop(first); // the "crash"
            let mut resumed = QLearningAccel::<Q8_8>::new(&g, cfg);
            resumed.restore_checkpoint(&path).expect("restore");
            resumed.train_samples_fast(&g, 5_000);

            let label = format!("{hazard:?}/{max_mode:?}");
            assert_eq!(resumed.stats(), straight.stats(), "{label}: stats");
            assert_eq!(
                resumed.q_table().as_slice(),
                straight.q_table().as_slice(),
                "{label}: Q-table"
            );
            assert_eq!(resumed.qmax_table(), straight.qmax_table(), "{label}: Qmax");
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[test]
fn sarsa_resume_is_bit_exact_across_hazards() {
    for hazard in HAZARDS {
        let g = grid();
        let cfg = AccelConfig::default().with_seed(0x5A).with_hazard(hazard);
        let mut straight = SarsaAccel::<Q8_8>::new(&g, cfg, 0.2);
        straight.train_samples_fast(&g, 6_001);
        straight.train_samples(&g, 4_000);

        let path = tmp(&format!("sarsa-{hazard:?}"));
        let mut first = SarsaAccel::<Q8_8>::new(&g, cfg, 0.2);
        first.train_samples_fast(&g, 6_001);
        first.save_checkpoint(&path).expect("save");
        drop(first);
        let mut resumed = SarsaAccel::<Q8_8>::new(&g, cfg, 0.2);
        resumed.restore_checkpoint(&path).expect("restore");
        resumed.train_samples(&g, 4_000);

        assert_eq!(resumed.stats(), straight.stats(), "{hazard:?}: stats");
        assert_eq!(
            resumed.q_table().as_slice(),
            straight.q_table().as_slice(),
            "{hazard:?}: Q-table"
        );
        assert_eq!(
            resumed.qmax_table(),
            straight.qmax_table(),
            "{hazard:?}: Qmax"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn overwriting_a_checkpoint_keeps_the_latest_state_and_no_tmp_file() {
    let g = grid();
    let cfg = AccelConfig::default();
    let path = tmp("overwrite");
    let mut a = QLearningAccel::<Q8_8>::new(&g, cfg);
    a.train_samples(&g, 2_000);
    a.save_checkpoint(&path).expect("first save");
    a.train_samples(&g, 3_000);
    a.save_checkpoint(&path).expect("overwrite");

    let mut b = QLearningAccel::<Q8_8>::new(&g, cfg);
    b.restore_checkpoint(&path).expect("restore");
    assert_eq!(b.stats().samples, 5_000, "latest save wins");
    assert_eq!(b.q_table().as_slice(), a.q_table().as_slice());
    let tmp_sibling = {
        let mut os = path.clone().into_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    };
    assert!(!tmp_sibling.exists(), "atomic write must clean up its tmp");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn damaged_files_are_refused_and_leave_the_engine_untouched() {
    let g = grid();
    let cfg = AccelConfig::default();
    let mut a = QLearningAccel::<Q8_8>::new(&g, cfg);
    a.train_samples(&g, 1_000);
    let path = tmp("damage");
    a.save_checkpoint(&path).expect("save");
    let good = std::fs::read(&path).unwrap();

    let restore_bytes = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        let mut fresh = QLearningAccel::<Q8_8>::new(&g, cfg);
        let err = fresh.restore_checkpoint(&path).unwrap_err();
        // All-or-nothing: the failed restore must not have moved the
        // engine off its reset state.
        assert_eq!(fresh.stats().samples, 0, "engine touched by failed restore");
        err
    };

    // Truncation to a non-word length.
    assert!(matches!(
        restore_bytes(&good[..good.len() - 3]),
        CheckpointError::Truncated
    ));
    // Dropping the whole CRC word: the previous word cannot match.
    assert!(matches!(
        restore_bytes(&good[..good.len() - 8]),
        CheckpointError::BadCrc
    ));
    // One flipped payload bit.
    let mut corrupt = good.clone();
    corrupt[40] ^= 0x10;
    assert!(matches!(restore_bytes(&corrupt), CheckpointError::BadCrc));
    // Wrong magic, CRC re-fixed so the magic check itself is reached.
    let mut magic = good.clone();
    magic[0] ^= 0xFF;
    fix_crc(&mut magic);
    assert!(matches!(restore_bytes(&magic), CheckpointError::BadMagic));
    // Future format version, CRC re-fixed.
    let mut version = good.clone();
    version[8..16].copy_from_slice(&99u64.to_le_bytes());
    fix_crc(&mut version);
    assert!(matches!(
        restore_bytes(&version),
        CheckpointError::BadVersion { found: 99 }
    ));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn shape_and_format_mismatches_are_typed() {
    let g = grid();
    let cfg = AccelConfig::default();
    let mut a = QLearningAccel::<Q8_8>::new(&g, cfg);
    a.train_samples(&g, 500);
    let path = tmp("mismatch");
    a.save_checkpoint(&path).expect("save");

    // Same format, different world.
    let small = GridWorld::builder(4, 4).goal(3, 3).build();
    let mut wrong_world = QLearningAccel::<Q8_8>::new(&small, cfg);
    assert!(matches!(
        wrong_world.restore_checkpoint(&path),
        Err(CheckpointError::Mismatch {
            field: "num_states",
            ..
        })
    ));

    // Same world, different value format.
    let mut wrong_format = QLearningAccel::<Q16_16>::new(&g, cfg);
    assert!(matches!(
        wrong_format.restore_checkpoint(&path),
        Err(CheckpointError::Mismatch {
            field: "value format",
            ..
        })
    ));

    // Missing file surfaces the io error.
    let mut fresh = QLearningAccel::<Q8_8>::new(&g, cfg);
    let missing = tmp("never-written");
    match fresh.restore_checkpoint(&missing) {
        Err(CheckpointError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::NotFound)
        }
        other => panic!("expected Io(NotFound), got {other:?}"),
    }

    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Cluster-era durability: orphaned staging files and lease fencing
// (DESIGN.md §2.16).

#[test]
fn durable_batch_cleans_planted_orphan_tmp_and_still_resumes_exactly() {
    use qtaccel_accel::{AccelConfig, IndependentPipelines};
    use qtaccel_envs::PartitionedGrid;
    let mut rng = qtaccel_hdl::lfsr::Lfsr32::new(21);
    let part = PartitionedGrid::new(16, 16, 2, 2, 10, ActionSet::Four, &mut rng);
    let dir = std::env::temp_dir().join(format!("qtaccel-orphan-tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut full = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
    full.train_batch(part.partitions(), 40_000);

    // First durable leg, then simulate a kill mid-save: plant an
    // orphaned staging file exactly where atomic_write stages.
    let mut leg1 = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
    leg1.train_batch_durable(part.partitions(), 24_000, &dir, 4_096)
        .expect("leg 1");
    std::fs::write(dir.join("shard0.ckpt.tmp"), b"half-written garbage").expect("plant orphan");

    // The resume leg must sweep the orphan, ignore it as state, and
    // still finish bit-identical to the uninterrupted reference.
    let mut leg2 = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
    let r2 = leg2
        .train_batch_durable(part.partitions(), 40_000, &dir, 4_096)
        .expect("leg 2 despite orphan");
    assert_eq!(r2.stats.samples, 40_000);
    assert!(
        !dir.join("shard0.ckpt.tmp").exists(),
        "orphan staging file must be swept"
    );
    for i in 0..4 {
        assert_eq!(leg2.q_table(i), full.q_table(i), "bank {i} q");
        assert_eq!(leg2.qmax_table(i), full.qmax_table(i), "bank {i} qmax");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lease_epoch_survives_the_checkpoint_round_trip() {
    let g = grid();
    let cfg = AccelConfig::default().with_seed(0x1EA5E);
    let mut a = qtaccel_accel::AccelPipeline::<Q8_8>::new(&g, cfg, 0);
    a.run_samples(&g, 1_000);
    assert_eq!(a.lease_epoch(), 0, "non-cluster runs stay at epoch 0");
    a.set_lease_epoch(3);
    let path = tmp("epoch");
    a.save_checkpoint(&path).expect("save");
    let mut b = qtaccel_accel::AccelPipeline::<Q8_8>::new(&g, cfg, 0);
    b.restore_checkpoint(&path).expect("restore");
    assert_eq!(b.lease_epoch(), 3, "epoch round-trips");
    assert_eq!(b.q_table(), a.q_table(), "state round-trips with it");
    // Epoch-0 checkpoints stay byte-identical to the pre-epoch format:
    // the trailing section is only written when non-zero.
    a.set_lease_epoch(0);
    let plain = a.checkpoint_bytes();
    a.set_lease_epoch(7);
    let stamped = a.checkpoint_bytes();
    assert_eq!(stamped.len(), plain.len() + 16, "tag + epoch words");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn zombie_lease_is_fenced_before_it_can_train_or_write() {
    use qtaccel_accel::{AccelConfig, IndependentPipelines, LeaseError};
    use qtaccel_envs::PartitionedGrid;
    let mut rng = qtaccel_hdl::lfsr::Lfsr32::new(5);
    let part = PartitionedGrid::new(16, 8, 2, 1, 0, ActionSet::Four, &mut rng);
    let dir = std::env::temp_dir().join(format!("qtaccel-fence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The live assignment drives shard 0 to completion under epoch 2.
    let mut live = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
    let done = live
        .train_shard_durable(0, part.partition(0), 20_000, 2, &dir, 4_096, |_| true)
        .expect("live lease");
    assert_eq!(done, 20_000);
    let sealed = live.q_table(0);

    // A zombie holding the superseded epoch 1 replays the lease: it
    // must be refused with the typed fencing error, and the sealed
    // state on disk must be untouched.
    let mut zombie = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
    match zombie.train_shard_durable(0, part.partition(0), 20_000, 1, &dir, 4_096, |_| true) {
        Err(LeaseError::FencedEpoch { held: 1, found: 2 }) => {}
        other => panic!("expected FencedEpoch, got {other:?}"),
    }
    let mut check = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
    check
        .train_shard_durable(0, part.partition(0), 20_000, 2, &dir, 4_096, |_| true)
        .expect("already-sealed lease is a no-op restore");
    assert_eq!(check.q_table(0), sealed, "zombie perturbed nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_lease_resumes_after_cooperative_abandon_bit_exactly() {
    use qtaccel_accel::{AccelConfig, IndependentPipelines};
    use qtaccel_envs::PartitionedGrid;
    let mut rng = qtaccel_hdl::lfsr::Lfsr32::new(13);
    let part = PartitionedGrid::new(16, 8, 2, 1, 0, ActionSet::Four, &mut rng);
    let dir = std::env::temp_dir().join(format!("qtaccel-lease-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Reference: one uninterrupted lease.
    let mut reference =
        IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
    reference
        .train_shard_durable(
            0,
            part.partition(0),
            30_000,
            1,
            &dir.join("ref"),
            2_048,
            |_| true,
        )
        .expect("reference lease");

    // Worker 1 abandons after the first progress callback (its last
    // periodic checkpoint survives); worker 2 picks the lease up under
    // the next epoch and finishes.
    let mut w1 = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
    let partial = w1
        .train_shard_durable(0, part.partition(0), 30_000, 1, &dir, 2_048, |_| false)
        .expect("abandoned lease");
    assert!(
        partial > 0 && partial < 30_000,
        "abandoned mid-lease at {partial}"
    );
    let mut w2 = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
    let done = w2
        .train_shard_durable(0, part.partition(0), 30_000, 2, &dir, 2_048, |_| true)
        .expect("takeover lease");
    assert_eq!(done, 30_000);
    assert_eq!(w2.q_table(0), reference.q_table(0), "takeover is bit-exact");
    assert_eq!(w2.qmax_table(0), reference.qmax_table(0));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Byte-identical encoding, and restores of forged words.

/// The length in words and the CRC trailer word of a saved checkpoint.
/// The trailer checksums every byte before it, so it pins the encoding.
fn trailer(path: &std::path::Path) -> (usize, u64) {
    let bytes = std::fs::read(path).expect("read checkpoint");
    let crc = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    (bytes.len() / 8, crc)
}

#[test]
fn checkpoints_encode_to_their_pinned_bytes() {
    use qtaccel_accel::FaultConfig;
    use qtaccel_fixed::QuantPolicy;
    use qtaccel_telemetry::{HealthConfig, HealthSink};
    let g = grid();
    let path = tmp("pins");

    let mut ql = QLearningAccel::<Q8_8, HealthSink>::with_sink(
        &g,
        AccelConfig::default().with_seed(0xC0DE),
        HealthSink::new(HealthConfig::default()),
    );
    ql.enable_faults(
        FaultConfig::default()
            .with_seed(7)
            .with_seu_rate(2e-3)
            .with_ecc(true)
            .with_scrub_period(64),
    );
    ql.train_samples(&g, 2_500);
    ql.save_checkpoint(&path).expect("save");
    assert_eq!(
        trailer(&path),
        (567, 0x2FE5_891F),
        "Q-learning, faults, health"
    );

    let mut sarsa = SarsaAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(0x5A55), 0.2);
    sarsa.train_samples_fast(&g, 3_001);
    sarsa.save_checkpoint(&path).expect("save");
    assert_eq!(trailer(&path), (428, 0x92E6_F470), "SARSA");

    let mut q8 = QLearningAccel::<Q8_8>::new(&g, AccelConfig::default().with_seed(0x0808));
    q8.enable_quant(QuantPolicy::q8());
    q8.train_samples_fast(&g, 4_000);
    q8.save_checkpoint(&path).expect("save");
    assert_eq!(trailer(&path), (423, 0x795C_B0B8), "q8 table");
    let _ = std::fs::remove_file(&path);
}

/// A fixture is only its policies: after the same `train_samples_fast`
/// run, `QLearningAccel::new` and `SarsaAccel::new` save byte-identical
/// checkpoint files to `AccelPipeline::new` on seed bank 0 whose config
/// carries the fixture's policies — on the kernel (`Forwarding`) and on
/// the cycle-accurate engine. So they do after the same `train_samples`
/// run, which pins each fixture's own cycle-engine loops, `Forwarding`
/// included, to the configured pipeline's. The base config's own
/// policies differ from both fixtures', so a fixture that kept them
/// would save other bytes.
#[test]
fn fixtures_save_the_checkpoints_of_a_configured_pipeline() {
    use qtaccel_accel::AccelPipeline;
    use qtaccel_core::policy::Policy;
    use qtaccel_core::trainer::TrainerConfig;
    let g = grid();
    let (fixture_path, configured_path) = (tmp("fixture"), tmp("configured"));
    let saved = |path: &PathBuf| std::fs::read(path).expect("read checkpoint");
    for hazard in HAZARDS {
        let mut base = AccelConfig::default().with_hazard(hazard);
        base.trainer = TrainerConfig::sarsa(0.5).with_seed(0xF1C5);
        base.trainer.forward_next_action = false;
        let train = |mut p: AccelPipeline<Q8_8>| {
            p.train_samples_fast(&g, 5_003);
            p.save_checkpoint(&configured_path).expect("save");
            saved(&configured_path)
        };
        let unfixed = train(AccelPipeline::new(&g, base, 0));
        let cycle = |mut p: AccelPipeline<Q8_8>| {
            p.train_samples(&g, 5_003);
            p.save_checkpoint(&configured_path).expect("save");
            saved(&configured_path)
        };

        let mut ql = QLearningAccel::<Q8_8>::new(&g, base);
        ql.train_samples_fast(&g, 5_003);
        ql.save_checkpoint(&fixture_path).expect("save");
        let mut cfg = base;
        cfg.trainer.behavior = Policy::Random;
        cfg.trainer.update = Policy::Greedy;
        cfg.trainer.forward_next_action = false;
        let configured = train(AccelPipeline::new(&g, cfg, 0));
        assert_eq!(saved(&fixture_path), configured, "Q-learning {hazard:?}");
        assert_ne!(unfixed, configured, "Q-learning {hazard:?}");
        let mut ql = QLearningAccel::<Q8_8>::new(&g, base);
        ql.train_samples(&g, 5_003);
        ql.save_checkpoint(&fixture_path).expect("save");
        let configured = cycle(AccelPipeline::new(&g, cfg, 0));
        assert_eq!(
            saved(&fixture_path),
            configured,
            "Q-learning cycle {hazard:?}"
        );

        let mut sarsa = SarsaAccel::<Q8_8>::new(&g, base, 0.2);
        sarsa.train_samples_fast(&g, 5_003);
        sarsa.save_checkpoint(&fixture_path).expect("save");
        let mut cfg = base;
        cfg.trainer.behavior = Policy::EpsilonGreedy { epsilon: 0.2 };
        cfg.trainer.update = Policy::EpsilonGreedy { epsilon: 0.2 };
        cfg.trainer.forward_next_action = true;
        let configured = train(AccelPipeline::new(&g, cfg, 0));
        assert_eq!(saved(&fixture_path), configured, "SARSA {hazard:?}");
        assert_ne!(unfixed, configured, "SARSA {hazard:?}");
        let mut sarsa = SarsaAccel::<Q8_8>::new(&g, base, 0.2);
        sarsa.train_samples(&g, 5_003);
        sarsa.save_checkpoint(&fixture_path).expect("save");
        let configured = cycle(AccelPipeline::new(&g, cfg, 0));
        assert_eq!(saved(&fixture_path), configured, "SARSA cycle {hazard:?}");
    }
    let _ = std::fs::remove_file(&fixture_path);
    let _ = std::fs::remove_file(&configured_path);
}

/// Overwrite each payload word of `engine`'s checkpoint with a forged
/// count or index and restamp the CRC. Restoring into a fresh engine
/// must never panic; a refusal must leave the engine untouched; an
/// accepted restore must then train on both executors. The sweep must
/// see both outcomes.
fn restore_every_forged_word<S, A, E>(
    engine: &QrlAccel<Q8_8, S, A>,
    fresh: impl Fn() -> QrlAccel<Q8_8, S, A>,
    g: &E,
) where
    S: qtaccel_telemetry::TraceSink + Clone,
    A: Fixture + Clone,
    E: qtaccel_envs::Environment,
{
    let good = engine.checkpoint_bytes();
    let untouched = fresh().checkpoint_bytes();
    let (mut refused, mut accepted) = (0, 0);
    // Words 0 and 1 are the header; the last word is the CRC.
    for w in 2..good.len() / 8 - 1 {
        for forged in [1_000u64, (1 << 63) - 1, u64::MAX] {
            let mut bytes = good.clone();
            bytes[w * 8..w * 8 + 8].copy_from_slice(&forged.to_le_bytes());
            fix_crc(&mut bytes);
            let mut target = fresh();
            match target.restore_checkpoint_bytes(&bytes) {
                Err(_) => {
                    refused += 1;
                    assert!(
                        target.checkpoint_bytes() == untouched,
                        "word {w} = {forged}: refused restore touched the engine"
                    );
                }
                Ok(()) => {
                    accepted += 1;
                    let mut fast = target.clone();
                    target.run_samples(g, 100);
                    fast.run_samples_fast(g, 100);
                }
            }
        }
    }
    assert!(
        refused > 0 && accepted > 0,
        "{refused} refused, {accepted} accepted"
    );
}

#[test]
fn forged_words_never_panic_restore_or_the_next_training_call() {
    use qtaccel_accel::{AccelPipeline, FaultConfig};
    use qtaccel_telemetry::{HealthConfig, HealthSink};
    let g = grid();
    let cfg = AccelConfig::default().with_seed(0xF0_96ED);

    // A 16-bit engine on the stall-free kernel, mid-flight: the
    // cycle-accurate executor leaves writes in the pending queues.
    let mut plain = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
    plain.run_samples(&g, 1_000);
    restore_every_forged_word(&plain, || AccelPipeline::new(&g, cfg, 0), &g);

    // A health-probed engine with an ECC fault runtime: covers the
    // health section, the scrub cursor and the latent-error records.
    let health = || {
        AccelPipeline::<Q8_8, HealthSink>::with_sink(
            &g,
            cfg,
            0,
            HealthSink::new(HealthConfig::default()),
        )
    };
    let mut probed = health();
    probed.enable_faults(
        FaultConfig::default()
            .with_seed(3)
            .with_seu_rate(5e-3)
            .with_ecc(true)
            .with_scrub_period(16),
    );
    probed.run_samples(&g, 1_000);
    assert!(
        probed.fault_stats().is_some_and(|f| f.corrected > 0),
        "the checkpoint carries latent errors"
    );
    restore_every_forged_word(&probed, health, &g);

    // A q8 table on the stall-free kernel: a forged Q word must stay on
    // the stored grid the kernel reads in place.
    let quantized = || {
        let mut p = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
        p.enable_quant(qtaccel_fixed::QuantPolicy::q8());
        p
    };
    let mut q8 = quantized();
    q8.run_samples(&g, 1_000);
    restore_every_forged_word(&q8, quantized, &g);

    // The §VII-B units' section: a probability table with writes in
    // flight, and a bandit's reward-noise LFSRs and EXP3 log-weights.
    let boltzmann =
        || ProbPolicyAccel::<Q8_8>::new(&g, cfg, WeightRule::Boltzmann { temperature: 0.1 });
    let mut prob = boltzmann();
    prob.run_samples(&g, 1_000);
    restore_every_forged_word(&prob, boltzmann, &g);
    let arms = GaussianBandit::linear_means(4, 0.1, 3);
    let exp3 = || BanditAccel::<Q8_8>::new(4, BanditPolicy::Exp3 { gamma: 0.2 }, 0.1, cfg);
    let mut bandit = exp3();
    bandit.run_samples(&arms, 1_000);
    restore_every_forged_word(&bandit, exp3, &arms);
}

/// Only the customization fixtures write the units' section, and a
/// checkpoint carries no fixture name, so an engine of another fixture
/// with the same table shape must refuse one rather than read its units'
/// words as its own trailing sections.
#[test]
fn another_fixtures_checkpoint_is_refused() {
    use qtaccel_accel::AccelPipeline;
    let arms = GaussianBandit::linear_means(5, 0.1, 1);
    let cfg = AccelConfig::default();
    let mut exp3 = BanditAccel::<Q8_8>::new(5, BanditPolicy::Exp3 { gamma: 0.1 }, 0.1, cfg);
    exp3.run(&mut arms.clone(), 100);
    let bytes = exp3.checkpoint_bytes();
    let mut plain = AccelPipeline::<Q8_8>::new(&arms, cfg, 0);
    let untouched = plain.checkpoint_bytes();
    assert!(matches!(
        plain.restore_checkpoint_bytes(&bytes),
        Err(CheckpointError::Mismatch {
            field: "words past the last section",
            ..
        })
    ));
    assert!(
        plain.checkpoint_bytes() == untouched,
        "refused restore touched the engine"
    );
    let mut eps =
        BanditAccel::<Q8_8>::new(5, BanditPolicy::EpsilonGreedy { epsilon: 0.1 }, 0.1, cfg);
    assert!(matches!(
        eps.restore_checkpoint_bytes(&bytes),
        Err(CheckpointError::Mismatch {
            field: "probability table",
            ..
        })
    ));
}

/// A probability-table engine saved mid-run, with P writes still in
/// flight, resumes bit for bit in every hazard mode: `CycleStats`, the Q
/// table, and every other word it saves (P table, LFSRs, pipe). So does
/// a bandit, whose reward-noise LFSRs and EXP3 log-weights ride in the
/// same section.
#[test]
fn probability_table_and_bandit_fixtures_resume_bit_exactly() {
    let g = grid();
    for hazard in HAZARDS {
        let cfg = AccelConfig::default().with_seed(0x9B).with_hazard(hazard);
        let rule = WeightRule::Boltzmann { temperature: 0.1 };
        let mut straight = ProbPolicyAccel::<Q8_8>::new(&g, cfg, rule);
        straight.train_samples(&g, 7_001);
        let mut first = ProbPolicyAccel::<Q8_8>::new(&g, cfg, rule);
        first.train_samples(&g, 3_001);
        let bytes = first.checkpoint_bytes();
        let mut resumed = ProbPolicyAccel::<Q8_8>::new(&g, cfg, rule);
        resumed.restore_checkpoint_bytes(&bytes).expect("restore");
        resumed.train_samples(&g, 4_000);
        assert_eq!(resumed.stats(), straight.stats(), "{hazard:?}: stats");
        assert_eq!(
            resumed.q_table().as_slice(),
            straight.q_table().as_slice(),
            "{hazard:?}: Q"
        );
        assert!(
            resumed.checkpoint_bytes() == straight.checkpoint_bytes(),
            "{hazard:?}: P table, LFSRs and pipe"
        );

        let arms = GaussianBandit::linear_means(5, 0.2, 1);
        let policy = BanditPolicy::Exp3 { gamma: 0.2 };
        let mut straight = BanditAccel::<Q8_8>::new(5, policy, 0.1, cfg);
        straight.run(&mut arms.clone(), 5_000);
        let mut first = BanditAccel::<Q8_8>::new(5, policy, 0.1, cfg);
        first.run(&mut arms.clone(), 2_000);
        let mut resumed = BanditAccel::<Q8_8>::new(5, policy, 0.1, cfg);
        resumed
            .restore_checkpoint_bytes(&first.checkpoint_bytes())
            .expect("restore");
        resumed.run(&mut arms.clone(), 3_000);
        assert_eq!(
            resumed.stats(),
            straight.stats(),
            "{hazard:?}: bandit stats"
        );
        assert_eq!(resumed.estimates(), straight.estimates(), "{hazard:?}");
        assert!(
            resumed.checkpoint_bytes() == straight.checkpoint_bytes(),
            "{hazard:?}: noise LFSRs, log-weights and pipe"
        );
    }
}

/// A write commits three cycles after its stage 1 and each step retires
/// every write due before the next stage 1, so no pipe holds more than
/// four in-flight writes per memory, in strictly increasing commit
/// order. A CRC-valid checkpoint whose pending queue breaks either rule
/// must be refused with a typed error naming the queue, and leave the
/// engine untouched.
#[test]
fn restore_refuses_pending_queues_no_pipe_can_hold() {
    use qtaccel_accel::AccelPipeline;
    use qtaccel_envs::Environment;
    let g = grid();
    let cfg = AccelConfig::default().with_seed(0xF1F0);
    let mut engine = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
    engine.run_samples(&g, 1_000);
    let good: Vec<u64> = engine
        .checkpoint_bytes()
        .chunks(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    // Header and format name, 17 shape/stats/control words, then the Q
    // and Qmax images precede the pending Q queue.
    let (ns, na) = (g.num_states(), g.num_actions());
    let q_at = 3 + (good[2] as usize).div_ceil(8) + 17 + ns * na + 2 * ns;
    let cycles: Vec<u64> = (0..good[q_at] as usize)
        .map(|i| good[q_at + 1 + 3 * i])
        .collect();
    assert_eq!(
        cycles,
        [999, 1000, 1001, 1002],
        "a full pipe at the step boundary"
    );
    let qmax_at = q_at + 1 + 3 * cycles.len();
    let qmax_end = qmax_at + 1 + 4 * good[qmax_at] as usize;

    let untouched = AccelPipeline::<Q8_8>::new(&g, cfg, 0).checkpoint_bytes();
    let restore = |words: &[u64]| {
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        fix_crc(&mut bytes);
        let mut fresh = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
        let out = fresh.restore_checkpoint_bytes(&bytes);
        if out.is_err() {
            assert!(
                fresh.checkpoint_bytes() == untouched,
                "refused restore touched the engine"
            );
        }
        out
    };
    let spliced = |range: std::ops::Range<usize>, queue: &[u64]| {
        let mut words = good.clone();
        words.splice(range, queue.iter().copied());
        words
    };
    let refused = |words: &[u64], queue: &str| match restore(words) {
        Err(CheckpointError::Mismatch { field, .. }) => assert_eq!(field, queue),
        other => panic!("{queue}: expected a refusal, got {other:?}"),
    };

    // Two Q commit cycles swapped.
    let mut swapped = good.clone();
    swapped.swap(q_at + 1, q_at + 4);
    refused(&swapped, "pending Q writes");
    // Seven Q writes, commit cycles strictly increasing.
    let mut seven = vec![7, 996, 0, 0, 997, 0, 0, 998, 0, 0];
    seven.extend_from_slice(&good[q_at + 1..qmax_at]);
    refused(&spliced(q_at..qmax_at, &seven), "pending Q writes");
    // Five Qmax writes, and two out of order.
    let five: Vec<u64> = std::iter::once(5)
        .chain((998..1003).flat_map(|c| [c, 0, 0, 0]))
        .collect();
    refused(&spliced(qmax_at..qmax_end, &five), "pending Qmax writes");
    let backwards = [2, 1001, 0, 0, 0, 1000, 0, 0, 0];
    refused(
        &spliced(qmax_at..qmax_end, &backwards),
        "pending Qmax writes",
    );

    // The Qmax splice in order, and the checkpoint as written, restore.
    let ordered = [2, 1000, 0, 0, 0, 1001, 0, 0, 0];
    restore(&spliced(qmax_at..qmax_end, &ordered)).expect("a queue a pipe can hold");
    restore(&good).expect("the checkpoint as written");
}
