//! Fault-runtime integration: the zero-rate runtime is bit-exact with
//! the fault-free engines, sustained flux corrupts an unprotected
//! engine, SECDED keeps the committed tables clean, the scrubbing
//! engine bounds Qmax latch-up, campaigns are deterministic per engine,
//! and a mid-campaign checkpoint resumes the injector streams exactly.

use qtaccel_accel::config::AccelConfig;
use qtaccel_accel::qlearning::QLearningAccel;
use qtaccel_accel::{FaultConfig, FaultStats};
use qtaccel_envs::{ActionSet, GridWorld};
use qtaccel_fixed::Q8_8;
use std::path::PathBuf;

fn grid(side: u32) -> GridWorld {
    GridWorld::builder(side, side)
        .goal(side - 1, side - 1)
        .actions(ActionSet::Four)
        .build()
}

/// Worst excess of a committed Qmax value over its exact Q-row maximum,
/// in value units. Normal monotone staleness is small (learning-rate
/// sized); a latched SEU on a sign or high bit is ~2⁷.
fn max_qmax_excess(a: &QLearningAccel<Q8_8>) -> f64 {
    let q = a.q_table();
    let qmax = a.qmax_table();
    let mut worst = f64::MIN;
    for s in 0..qmax.len() as qtaccel_envs::State {
        let row_max = (0..4u32)
            .map(|act| q.get(s, act).to_f64())
            .fold(f64::MIN, f64::max);
        worst = worst.max(qmax.get(s).0.to_f64() - row_max);
    }
    worst
}

#[test]
fn zero_rate_runtime_is_bit_exact_with_fault_free_engines() {
    let g = grid(8);
    let cfg = AccelConfig::default().with_seed(0xF0);

    let mut clean = QLearningAccel::<Q8_8>::new(&g, cfg);
    clean.train_samples_fast(&g, 20_000);

    // Runtime attached, nothing armed: hooks fire but never strike.
    let mut armed = QLearningAccel::<Q8_8>::new(&g, cfg);
    armed.enable_faults(FaultConfig::default());
    armed.train_samples_fast(&g, 20_000);

    // Same, through the cycle-accurate engine.
    let mut cycle = QLearningAccel::<Q8_8>::new(&g, cfg);
    cycle.enable_faults(FaultConfig::default());
    cycle.train_samples(&g, 20_000);

    assert_eq!(armed.q_table().as_slice(), clean.q_table().as_slice());
    assert_eq!(armed.qmax_table(), clean.qmax_table());
    assert_eq!(cycle.q_table().as_slice(), clean.q_table().as_slice());
    assert_eq!(cycle.qmax_table(), clean.qmax_table());
    assert_eq!(armed.fault_stats(), Some(FaultStats::default()));
    assert_eq!(clean.fault_stats(), None);
}

#[test]
fn unprotected_flux_corrupts_the_tables_and_counts_strikes() {
    let g = grid(8);
    let cfg = AccelConfig::default().with_seed(0xF1);
    let mut clean = QLearningAccel::<Q8_8>::new(&g, cfg);
    clean.train_samples_fast(&g, 50_000);

    let mut struck = QLearningAccel::<Q8_8>::new(&g, cfg);
    struck.enable_faults(FaultConfig::default().with_seu_rate(1e-3));
    struck.train_samples_fast(&g, 50_000);

    let stats = struck.fault_stats().unwrap();
    assert!(stats.injected_q > 0, "{stats:?}");
    assert!(stats.injected_qmax > 0, "{stats:?}");
    assert_eq!(stats.corrected, 0, "no ECC, nothing to correct");
    assert_ne!(
        struck.q_table().as_slice(),
        clean.q_table().as_slice(),
        "strikes must leave a mark"
    );
}

#[test]
fn ecc_keeps_committed_tables_identical_while_counting_corrections() {
    // Big enough grid + low enough rate that no address is struck twice
    // before a rewrite: every strike stays latent and corrected.
    let g = grid(32);
    let cfg = AccelConfig::default().with_seed(0xF2);
    let mut clean = QLearningAccel::<Q8_8>::new(&g, cfg);
    clean.train_samples_fast(&g, 100_000);

    let mut protected = QLearningAccel::<Q8_8>::new(&g, cfg);
    protected.enable_faults(FaultConfig::default().with_seu_rate(1e-4).with_ecc(true));
    protected.train_samples_fast(&g, 100_000);

    let stats = protected.fault_stats().unwrap();
    assert!(stats.injected_total() > 0, "{stats:?}");
    assert!(stats.corrected > 0, "{stats:?}");
    assert_eq!(stats.detected_uncorrectable, 0, "{stats:?}");
    // Single-bit errors are corrected on read: the architectural state
    // never saw a single strike.
    assert_eq!(protected.q_table().as_slice(), clean.q_table().as_slice());
    assert_eq!(protected.qmax_table(), clean.qmax_table());
}

#[test]
fn scrub_unlatches_qmax_corruption() {
    let g = grid(16);
    let cfg = AccelConfig::default().with_seed(0xF3);
    let beam = FaultConfig::default().with_qmax_seu_rate(1e-2);

    // Unprotected, no scrub: flux latches corrupted maxima far above
    // any exact row maximum.
    let mut latched = QLearningAccel::<Q8_8>::new(&g, cfg);
    latched.enable_faults(beam);
    latched.train_samples_fast(&g, 60_000);
    assert!(
        max_qmax_excess(&latched) > 8.0,
        "expected a latched high/sign-bit flip: excess {}",
        max_qmax_excess(&latched)
    );

    // Same flux with the scrubbing engine. Corrupted maxima also poison
    // Q rows through the greedy target while the beam is on, so the
    // post-beam leg must be long enough for the rows to contract back
    // (gamma-rate healing) — only then does the last full sweep pin
    // every entry to a settled row maximum.
    let mut scrubbed = QLearningAccel::<Q8_8>::new(&g, cfg);
    scrubbed.enable_faults(beam.with_scrub_period(2));
    scrubbed.train_samples_fast(&g, 60_000);
    scrubbed.enable_faults(FaultConfig::default().with_scrub_period(2));
    scrubbed.train_samples_fast(&g, 120_000); // ~234 sweeps of 256 states
    let stats = scrubbed.fault_stats().unwrap();
    assert!(stats.scrub_repairs > 0, "{stats:?}");
    assert!(stats.scrub_rounds > 0, "{stats:?}");
    assert!(
        max_qmax_excess(&scrubbed) < 1.0,
        "scrub must bound staleness to learning-rate scale: excess {}",
        max_qmax_excess(&scrubbed)
    );
}

#[test]
fn campaigns_are_deterministic_per_engine() {
    let g = grid(8);
    let cfg = AccelConfig::default().with_seed(0xF4);
    let ecc = FaultConfig::default().with_seu_rate(1e-3).with_ecc(true);
    for fc in [ecc, ecc.with_scrub_period(4)] {
        let run = |fast: bool| {
            let mut a = QLearningAccel::<Q8_8>::new(&g, cfg);
            a.enable_faults(fc);
            if fast {
                a.train_samples_fast(&g, 40_000);
            } else {
                a.train_samples(&g, 40_000);
            }
            (
                a.q_table().as_slice().to_vec(),
                a.qmax_table(),
                a.fault_stats().unwrap(),
            )
        };
        assert_eq!(run(true), run(true), "fast-path campaign must replay");
        assert_eq!(
            run(false),
            run(false),
            "cycle-accurate campaign must replay"
        );
        // Strikes land only in committed BRAM, and the scrubber reads
        // only committed words, whichever entry point trains.
        assert_eq!(
            run(true),
            run(false),
            "{fc:?}: both entry points, one campaign"
        );
    }
}

#[test]
fn checkpoint_resumes_a_fault_campaign_bit_exactly() {
    let g = grid(8);
    let cfg = AccelConfig::default().with_seed(0xF5);
    let fc = FaultConfig::default()
        .with_seu_rate(1e-3)
        .with_ecc(true)
        .with_scrub_period(4);

    let mut straight = QLearningAccel::<Q8_8>::new(&g, cfg);
    straight.enable_faults(fc);
    straight.train_samples_fast(&g, 30_000);
    straight.train_samples_fast(&g, 20_000);

    let path: PathBuf =
        std::env::temp_dir().join(format!("qtaccel-fault-ckpt-{}.ckpt", std::process::id()));
    let mut first = QLearningAccel::<Q8_8>::new(&g, cfg);
    first.enable_faults(fc);
    first.train_samples_fast(&g, 30_000);
    first.save_checkpoint(&path).expect("save");
    drop(first);
    // The restored engine never had enable_faults called: the runtime —
    // config, injector RNG positions, latent errors, scrub cursor — is
    // rebuilt from the checkpoint.
    let mut resumed = QLearningAccel::<Q8_8>::new(&g, cfg);
    resumed.restore_checkpoint(&path).expect("restore");
    assert_eq!(resumed.fault_config(), Some(fc), "config travels");
    resumed.train_samples_fast(&g, 20_000);

    assert_eq!(resumed.q_table().as_slice(), straight.q_table().as_slice());
    assert_eq!(resumed.qmax_table(), straight.qmax_table());
    assert_eq!(resumed.stats(), straight.stats());
    assert_eq!(
        resumed.fault_stats(),
        straight.fault_stats(),
        "injector streams and counters must resume, not restart"
    );
    let _ = std::fs::remove_file(&path);
}
