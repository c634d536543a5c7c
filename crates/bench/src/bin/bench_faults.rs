//! Tracked fault-tolerance campaign: SEU flux × protection level.
//!
//! Sweeps sustained per-sample SEU rates against {unprotected, ECC,
//! ECC + Qmax scrub} Q-Learning engines (see
//! `qtaccel_bench::experiments::faults`) and prices the SECDED overhead
//! over Table I sizes, writing `BENCH_faults.json` at the workspace
//! root so degradation-curve regressions show up in diffs.
//!
//! `--quick` trims the campaign to one heavy-flux rate on a small grid
//! and writes `results/BENCH_faults_quick.json` instead, leaving the
//! tracked baseline alone.
//!
//! Either way the run self-checks the protection ladder and exits
//! non-zero if it does not hold:
//!
//! * the fault-free reference converges (step-optimality > 0.9);
//! * the unprotected engine degrades under the heaviest swept flux;
//! * ECC actually corrects (nonzero corrected count at every rate);
//! * ECC + scrub holds ≥ 95 % of the fault-free step-optimality at
//!   every swept rate — the acceptance gate `scripts/verify.sh` runs;
//! * the training-health watchdog (DESIGN.md §2.13) trips its
//!   divergence rule on an ECC-off campaign — the failure mode the
//!   fault counters cannot see, since nothing detects the strikes —
//!   and stays quiet on the clean control. The probed legs dump their
//!   flight-recorder ring to `results/BENCH_faults_flight.jsonl`.

use qtaccel_accel::{AccelConfig, FaultConfig, QLearningAccel};
use qtaccel_bench::experiments::faults;
use qtaccel_bench::impl_to_json;
use qtaccel_bench::report::results_dir;
use qtaccel_envs::{ActionSet, GridWorld};
use qtaccel_fixed::Q8_8;
use qtaccel_telemetry::{
    manifest, FlightRecorder, HealthConfig, HealthSink, Json, ToJson, Watchdog, WatchdogConfig,
    WatchdogRule,
};
use std::path::{Path, PathBuf};

#[derive(Debug)]
struct Report {
    quick: bool,
    rates: Vec<f64>,
    gate_floor: f64,
    gate_note: &'static str,
    campaign: faults::Faults,
    /// ECC-off divergence detection by the training-health watchdog
    /// (flux leg + clean control), DESIGN.md §2.13.
    watchdog: Json,
    manifest: Json,
}
impl_to_json!(Report {
    quick,
    rates,
    gate_floor,
    gate_note,
    campaign,
    watchdog,
    manifest
});

/// The ECC-off watchdog campaign: heavy SEU flux latches into a
/// *unprotected* probed engine — invisible to the fault counters (no
/// ECC means no detection) — and the divergence rule must trip within
/// `max_samples`. Returns the leg's JSON block and whether divergence
/// tripped; each check feeds the flight recorder, dumped by the caller.
fn watchdog_leg(
    seu_rate: f64,
    max_samples: u64,
    recorder: &mut FlightRecorder,
    label: &str,
) -> (Json, bool, u64) {
    // The 8×8 four-action grid and thresholds mirror the accel crate's
    // `watchdog_detects_ecc_off_seu_divergence_on_both_executors` test:
    // healthy Q8.8 TD p99 settles into log2 bucket ≤ 8 while latched
    // corruption sustains buckets 10–13, so bucket 10 separates them.
    let g = GridWorld::builder(8, 8)
        .goal(7, 7)
        .actions(ActionSet::Four)
        .build();
    let cfg = AccelConfig::default().with_seed(0x44);
    let mut a = QLearningAccel::<Q8_8, HealthSink>::with_sink(
        &g,
        cfg,
        HealthSink::new(HealthConfig::default()),
    );
    if seu_rate > 0.0 {
        a.enable_faults(FaultConfig::default().with_seu_rate(seu_rate));
    }
    let mut wd = Watchdog::new(WatchdogConfig {
        min_window_probes: 256,
        divergence_p99_bits: 10,
        saturation_fraction: 0.5,
    });
    const CHECK_EVERY: u64 = 1_000;
    recorder.push_marker(0, label);
    let mut trained = 0;
    while trained < max_samples {
        a.train_samples_fast(&g, CHECK_EVERY);
        trained += CHECK_EVERY;
        let uncorrectable = a.fault_stats().map_or(0, |s| s.detected_uncorrectable);
        let probe = a.health_probe().expect("health sink attached");
        for alert in wd.check(probe, uncorrectable) {
            recorder.push_alert(alert);
        }
        recorder.push_snapshot(probe.snapshot());
        if wd.trip_count(WatchdogRule::Divergence) > 0 {
            break;
        }
    }
    let tripped = wd.trip_count(WatchdogRule::Divergence) > 0;
    let block = Json::Obj(vec![
        ("seu_rate", seu_rate.to_json()),
        ("samples", trained.to_json()),
        ("divergence_tripped", tripped.to_json()),
        (
            "detected_uncorrectable",
            a.fault_stats()
                .map_or(0, |s| s.detected_uncorrectable)
                .to_json(),
        ),
        (
            "alerts",
            Json::Arr(wd.alerts().iter().map(|al| al.to_json()).collect()),
        ),
        ("watchdog_windows", wd.windows().to_json()),
    ]);
    (block, tripped, trained)
}

/// ECC + scrub must hold this fraction of fault-free step-optimality.
const GATE_FLOOR: f64 = 0.95;

fn main() {
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => {
                eprintln!("error: unknown argument `{other}` (supported: --quick)");
                std::process::exit(2);
            }
        }
    }

    let (states, samples, rates): (usize, u64, Vec<f64>) = if quick {
        (256, 150_000, vec![1e-2])
    } else {
        (1_024, 600_000, vec![1e-4, 1e-3, 1e-2])
    };
    let campaign = faults::run(states, samples, &rates);
    println!("{}", campaign.render());

    // The protection-ladder gate.
    let mut failures = Vec::new();
    let clean = campaign.rows[0].optimality_fault_free;
    if clean <= 0.9 {
        failures.push(format!("fault-free reference did not converge: {clean:.3}"));
    }
    let heaviest = rates.iter().copied().fold(0.0f64, f64::max);
    for r in &campaign.rows {
        match r.protection.as_str() {
            "unprotected" if r.seu_rate == heaviest => {
                if r.optimality >= clean - 0.02 {
                    failures.push(format!(
                        "unprotected run did not degrade at rate {:.0e}: {:.3} vs clean {:.3}",
                        r.seu_rate, r.optimality, clean
                    ));
                }
                if r.optimality_recovered >= clean - 0.02 {
                    failures.push(format!(
                        "unprotected Qmax loss was not permanent at rate {:.0e}: \
                         recovered to {:.3} vs clean {:.3}",
                        r.seu_rate, r.optimality_recovered, clean
                    ));
                }
            }
            "ecc" | "ecc_scrub" => {
                if r.corrected == 0 {
                    failures.push(format!(
                        "{} at rate {:.0e} corrected nothing despite {} strikes",
                        r.protection, r.seu_rate, r.injected
                    ));
                }
                if r.protection == "ecc_scrub" && r.optimality_recovered < GATE_FLOOR * clean {
                    failures.push(format!(
                        "ecc_scrub at rate {:.0e} below the {GATE_FLOOR} floor: \
                         recovered {:.3} vs clean {:.3}",
                        r.seu_rate, r.optimality_recovered, clean
                    ));
                }
            }
            _ => {}
        }
    }

    // The watchdog campaign: ECC-off flux must trip divergence, the
    // clean control must not; the probed legs' snapshot/alert ring lands
    // as a post-mortem flight dump next to the report.
    const WD_MAX_SAMPLES: u64 = 100_000;
    let mut recorder = FlightRecorder::new(256);
    let (flux_leg, flux_tripped, flux_samples) =
        watchdog_leg(5e-4, WD_MAX_SAMPLES, &mut recorder, "flux_leg");
    let (clean_leg, clean_tripped, _) =
        watchdog_leg(0.0, WD_MAX_SAMPLES, &mut recorder, "clean_control");
    if !flux_tripped {
        failures.push(format!(
            "watchdog divergence rule did not trip within {WD_MAX_SAMPLES} samples \
             of ECC-off flux"
        ));
    }
    if clean_tripped {
        failures.push("watchdog divergence rule tripped on clean training".into());
    }
    let flight_path = results_dir().join("BENCH_faults_flight.jsonl");
    let flight_lines = recorder
        .dump_to(&flight_path)
        .expect("write flight-recorder dump");
    println!(
        "watchdog: flux divergence tripped after {flux_samples} samples (clean \
         control quiet); {flight_lines} flight-recorder lines -> {}",
        flight_path.display()
    );
    let watchdog = Json::Obj(vec![
        ("flux", flux_leg),
        ("clean", clean_leg),
        ("flight_recorder_lines", flight_lines.to_json()),
    ]);

    let report = Report {
        quick,
        rates,
        gate_floor: GATE_FLOOR,
        gate_note: "ECC+scrub must recover to >= 95% of fault-free \
                    step-optimality at every swept rate; unprotected must \
                    degrade permanently at the heaviest; ECC must correct; \
                    the ECC-off watchdog leg must trip divergence and the \
                    clean control must not",
        campaign,
        watchdog,
        manifest: manifest::provenance(),
    };
    let path: PathBuf = if quick {
        results_dir().join("BENCH_faults_quick.json")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_faults.json")
    };
    std::fs::write(&path, report.to_json().pretty()).expect("write faults report");
    println!("wrote {}", path.display());

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("error: {f}");
        }
        std::process::exit(1);
    }
    println!("gate: protection ladder holds at every swept rate");
}
