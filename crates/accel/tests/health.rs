//! Training-health integration: health-off runs are bit-identical with
//! and without the layer compiled in, probes are engine-exact and
//! survive checkpoints bit-exactly, the watchdog deterministically
//! detects an ECC-off SEU divergence campaign that the fault counters
//! alone cannot flag, and the flight recorder's crash dump round-trips
//! through the strict JSONL parser.

use qtaccel_accel::config::AccelConfig;
use qtaccel_accel::qlearning::QLearningAccel;
use qtaccel_accel::sarsa::SarsaAccel;
use qtaccel_accel::{FaultConfig, IndependentPipelines};
use qtaccel_envs::{ActionSet, GridWorld, PartitionedGrid};
use qtaccel_fixed::Q8_8;
use qtaccel_telemetry::{
    check_openmetrics, encode_openmetrics, CountersOnly, FlightRecorder, HealthConfig, HealthProbe,
    HealthSink, MetricsRegistry, Watchdog, WatchdogConfig, WatchdogRule,
};
use std::path::PathBuf;

fn grid(side: u32) -> GridWorld {
    GridWorld::builder(side, side)
        .goal(side - 1, side - 1)
        .actions(ActionSet::Four)
        .build()
}

fn health_sink(stride: u64) -> HealthSink {
    HealthSink::new(HealthConfig {
        stride,
        near_rail_bits: 4,
    })
}

#[test]
fn health_off_runs_are_bit_identical_to_uninstrumented() {
    let g = grid(8);
    let cfg = AccelConfig::default().with_seed(0x41);

    let mut plain = QLearningAccel::<Q8_8>::new(&g, cfg);
    plain.train_samples_fast(&g, 30_000);

    // A health-capable build with health *not* attached: same tables.
    let mut counted = QLearningAccel::<Q8_8, CountersOnly>::with_sink(&g, cfg, CountersOnly);
    counted.train_samples_fast(&g, 30_000);
    assert_eq!(plain.q_table().as_slice(), counted.q_table().as_slice());
    assert_eq!(plain.qmax_table(), counted.qmax_table());
    assert!(plain.health_probe().is_none());
    assert!(counted.health_probe().is_none());

    // And health *attached* still learns the identical tables — the
    // probe taps retirement passively.
    let mut probed = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, health_sink(1));
    probed.train_samples_fast(&g, 30_000);
    assert_eq!(plain.q_table().as_slice(), probed.q_table().as_slice());
    assert_eq!(plain.qmax_table(), probed.qmax_table());
    assert_eq!(plain.stats(), probed.stats());
}

#[test]
fn probe_state_is_engine_exact_at_every_stride() {
    let g = grid(8);
    let cfg = AccelConfig::default().with_seed(0x42);
    let run = |fast: bool, stride: u64| -> HealthProbe {
        let mut a = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, health_sink(stride));
        if fast {
            a.train_samples_fast(&g, 25_000);
        } else {
            a.train_samples(&g, 25_000);
        }
        a.into_sink().into_probe()
    };
    for stride in [1, 7] {
        let fast = run(true, stride);
        let cycle = run(false, stride);
        assert_eq!(
            fast, cycle,
            "stride-{stride} probe state must be bit-exact across executors"
        );
        assert_eq!(fast.samples_seen(), 25_000);
        assert_eq!(fast.samples_probed(), 25_000u64.div_ceil(stride));
        assert!(fast.td_error().count() > 0);
        assert!(fast.states_visited() > 0);
    }
    // Sarsa takes the same hook through its own policy fixture.
    let mut s1 = SarsaAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, 0.1, health_sink(1));
    s1.train_samples_fast(&g, 10_000);
    let mut s2 = SarsaAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, 0.1, health_sink(1));
    s2.train_samples(&g, 10_000);
    assert_eq!(s1.into_sink().into_probe(), s2.into_sink().into_probe());
}

#[test]
fn probe_state_survives_checkpoint_round_trips_bit_exactly() {
    let g = grid(8);
    let cfg = AccelConfig::default().with_seed(0x43);
    let path: PathBuf =
        std::env::temp_dir().join(format!("qtaccel-health-ckpt-{}.ckpt", std::process::id()));

    // Straight-through reference at stride 3 (so the cursor phase
    // matters: a restore that reset the cursor would drift).
    let mut straight = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, health_sink(3));
    straight.train_samples_fast(&g, 20_000);
    straight.train_samples_fast(&g, 15_000);

    let mut first = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, health_sink(3));
    first.train_samples_fast(&g, 20_000);
    first.save_checkpoint(&path).expect("save");
    let at_save = first.health_probe().unwrap().clone();
    drop(first);

    let mut resumed = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, health_sink(3));
    resumed.restore_checkpoint(&path).expect("restore");
    assert_eq!(
        resumed.health_probe().unwrap(),
        &at_save,
        "restore must reproduce the probe bit-exactly"
    );
    resumed.train_samples_fast(&g, 15_000);
    assert_eq!(
        resumed.health_probe().unwrap(),
        straight.health_probe().unwrap(),
        "resumed probing must continue the original sampling plan"
    );
    assert_eq!(resumed.q_table().as_slice(), straight.q_table().as_slice());

    // A health-instrumented checkpoint also restores into a plain
    // engine (the probe section is simply not applied)...
    let mut plain = QLearningAccel::<Q8_8>::new(&g, cfg);
    plain
        .restore_checkpoint(&path)
        .expect("restore into NullSink");
    // ...and a pre-health (plain) checkpoint restores into an
    // instrumented engine with the probe reset.
    plain.save_checkpoint(&path).expect("save plain");
    let mut fresh = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, health_sink(3));
    fresh.train_samples_fast(&g, 500);
    fresh.restore_checkpoint(&path).expect("restore plain");
    let probe = fresh.health_probe().unwrap();
    assert_eq!(
        probe.samples_seen(),
        0,
        "health-absent checkpoint resets the probe"
    );
    let _ = std::fs::remove_file(&path);
}

/// The tentpole proof: an ECC-off SEU campaign drives Q words toward the
/// rails and blows up TD-error magnitudes — invisible to `FaultStats`
/// corrected/uncorrectable counters (no ECC means nothing is even
/// detected) but caught by the watchdog's divergence rule within a
/// bounded sample count, deterministically on both executors.
#[test]
fn watchdog_detects_ecc_off_seu_divergence_on_both_executors() {
    let g = grid(8);
    let cfg = AccelConfig::default().with_seed(0x44);
    // Healthy Q8.8 training on this grid settles its windowed TD p99
    // into bucket ≤ 8 (early transient) and then bucket 0; latched SEU
    // corruption being pulled back at learning-rate speed lands sustained
    // magnitudes in buckets 10–13. Bucket 10 separates the two cleanly.
    let wd_config = WatchdogConfig {
        min_window_probes: 256,
        divergence_p99_bits: 10,
        saturation_fraction: 0.5,
    };
    const CHECK_EVERY: u64 = 1_000;
    const MAX_SAMPLES: u64 = 100_000;

    let campaign = |fast: bool| -> (u64, Vec<&'static str>) {
        let mut a = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, health_sink(1));
        // Heavy flux, no protection: strikes latch into the tables.
        a.enable_faults(FaultConfig::default().with_seu_rate(5e-4));
        let mut wd = Watchdog::new(wd_config);
        let mut trained = 0;
        while trained < MAX_SAMPLES {
            if fast {
                a.train_samples_fast(&g, CHECK_EVERY);
            } else {
                a.train_samples(&g, CHECK_EVERY);
            }
            trained += CHECK_EVERY;
            let uncorrectable = a.fault_stats().map_or(0, |s| s.detected_uncorrectable);
            wd.check(a.health_probe().unwrap(), uncorrectable);
            if wd.trip_count(WatchdogRule::Divergence) > 0 {
                break;
            }
        }
        assert_eq!(
            a.fault_stats().unwrap().detected_uncorrectable,
            0,
            "without ECC the fault counters see nothing to flag"
        );
        (
            trained,
            wd.alerts().iter().map(|al| al.rule.name()).collect(),
        )
    };

    let (fast_samples, fast_alerts) = campaign(true);
    assert!(
        fast_alerts.contains(&"divergence"),
        "campaign must trip divergence within {MAX_SAMPLES} samples: {fast_alerts:?}"
    );
    assert!(fast_samples < MAX_SAMPLES, "bounded detection latency");

    let (cycle_samples, cycle_alerts) = campaign(false);
    assert_eq!(
        (fast_samples, &fast_alerts),
        (cycle_samples, &cycle_alerts),
        "detection must be deterministic across executors"
    );
    // Replay determinism of the whole detection harness.
    assert_eq!(campaign(true), (fast_samples, fast_alerts));

    // Control: the identical harness without flux never trips.
    let mut clean = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, health_sink(1));
    let mut wd = Watchdog::new(wd_config);
    for _ in 0..(MAX_SAMPLES / CHECK_EVERY) {
        clean.train_samples_fast(&g, CHECK_EVERY);
        wd.check(clean.health_probe().unwrap(), 0);
    }
    assert_eq!(
        wd.trip_count(WatchdogRule::Divergence),
        0,
        "healthy training must not raise divergence: {:?}",
        wd.alerts()
    );
}

#[test]
fn crash_dump_round_trips_through_the_strict_parser() {
    let g = grid(8);
    let cfg = AccelConfig::default().with_seed(0x45);
    let dir = std::env::temp_dir().join(format!("qtaccel-health-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flight.jsonl");

    // A training loop that snapshots per leg, then dies mid-run.
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        FlightRecorder::with_panic_dump(&path, 64, |rec| {
            let mut a = QLearningAccel::<Q8_8, HealthSink>::with_sink(&g, cfg, health_sink(1));
            for leg in 0..5 {
                a.train_samples_fast(&g, 2_000);
                rec.push_snapshot(a.health_probe().unwrap().snapshot());
                if leg == 4 {
                    panic!("simulated mid-training crash");
                }
            }
        })
    }));
    assert!(died.is_err());

    let text = std::fs::read_to_string(&path).expect("post-mortem written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "5 snapshots + the panic marker");
    let mut last_seen = 0;
    for line in &lines {
        let parsed = qtaccel_telemetry::json::parse(line).expect("strict parse");
        if parsed.get("t").unwrap().as_str() == Some("snapshot") {
            let seen = parsed.get("samples_seen").unwrap().as_u64().unwrap();
            assert!(seen > last_seen, "snapshots advance monotonically");
            last_seen = seen;
        }
    }
    assert_eq!(last_seen, 10_000);
    let tail = qtaccel_telemetry::json::parse(lines[5]).unwrap();
    assert_eq!(tail.get("t").unwrap().as_str(), Some("marker"));
    assert_eq!(tail.get("label").unwrap().as_str(), Some("panic"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_batch_replaces_its_flight_dump_without_rewriting_it() {
    let mut rng = qtaccel_hdl::lfsr::Lfsr32::new(0x47);
    let part = PartitionedGrid::new(16, 16, 2, 2, 10, ActionSet::Four, &mut rng);
    let cfg = AccelConfig::default().with_seed(0x47);
    let dir = std::env::temp_dir().join(format!("qtaccel-health-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let batch = |total| {
        let sinks = (0..4).map(|_| health_sink(1)).collect();
        let mut pipes =
            IndependentPipelines::<Q8_8, HealthSink>::with_sinks(part.partitions(), cfg, sinks);
        pipes
            .train_batch_durable(part.partitions(), total, &dir, 4_096)
            .expect("durable batch");
    };
    let seen = |dump: &str| -> u64 {
        dump.lines()
            .map(|line| qtaccel_telemetry::json::parse(line).expect("strict parse"))
            .filter_map(|entry| entry.get("samples_seen").and_then(|v| v.as_u64()))
            .sum()
    };

    batch(20_000);
    let flight = dir.join("flight.jsonl");
    let first = std::fs::read_to_string(&flight).expect("first dump");
    assert_eq!(seen(&first), 20_000);
    // A second name for the first dump's file: a dump written in place
    // would show through it.
    std::fs::hard_link(&flight, dir.join("before.jsonl")).expect("hard link");

    batch(40_000);
    let before = std::fs::read_to_string(dir.join("before.jsonl")).expect("old dump");
    assert_eq!(before, first, "the old dump is replaced, never rewritten");
    let second = std::fs::read_to_string(&flight).expect("new dump");
    assert_eq!(
        second.lines().count(),
        5,
        "4 shard snapshots + the seal marker"
    );
    assert_eq!(seen(&second), 40_000);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn probe_scrape_is_strict_openmetrics_and_saturation_fires_on_narrow_formats() {
    // A goal reward at the format ceiling plus hot α/γ drives most Q
    // words to within a few units of Q8.8's +127.996 rail — the
    // narrow-format saturation scenario the probes exist to surface.
    let g = GridWorld::builder(8, 8)
        .goal(7, 7)
        .actions(ActionSet::Four)
        .goal_reward(127.0)
        .build();
    let mut cfg = AccelConfig::default().with_seed(0x46);
    cfg.trainer.alpha = 0.9;
    cfg.trainer.gamma = 0.99;
    let mut a = QLearningAccel::<Q8_8, HealthSink>::with_sink(
        &g,
        cfg,
        HealthSink::new(HealthConfig {
            stride: 1,
            near_rail_bits: 13, // within 8192 raw units = within 32.0 of a rail
        }),
    );
    a.train_samples_fast(&g, 200_000);
    let probe = a.health_probe().unwrap();
    assert!(
        probe.near_rail_q() > 0,
        "hot-alpha Q8.8 training must approach the rails"
    );
    assert_eq!(probe.num_states(), 64);
    assert_eq!(Q8_8::storage_bits(), 16);

    let mut wd = Watchdog::new(WatchdogConfig {
        min_window_probes: 64,
        divergence_p99_bits: 64,
        saturation_fraction: 0.05,
    });
    wd.check(probe, 0);
    assert!(
        wd.trip_count(WatchdogRule::Saturation) > 0,
        "{:?}",
        wd.alerts()
    );

    let mut reg = MetricsRegistry::new();
    probe.register_into(&mut reg);
    wd.register_into(&mut reg);
    let text = encode_openmetrics(&reg);
    check_openmetrics(&text).expect("qtaccel_health_* families are strict-valid");
    assert!(text.contains("qtaccel_health_td_error_magnitude_bucket"));
    assert!(text.contains("qtaccel_health_alerts_saturation_total"));
}
