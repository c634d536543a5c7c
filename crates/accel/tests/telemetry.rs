//! Telemetry integration tests (DESIGN.md §2.6).
//!
//! * **Zero-cost equivalence**: attaching any sink must not change a
//!   single architectural bit — Q table, Qmax table and cycle counters
//!   are compared against the uninstrumented engine across both
//!   algorithms, every hazard mode and both executors.
//! * **Counter parity**: an instrumented engine runs the cycle-accurate
//!   path from `train_samples_fast` too, so every counter and event
//!   matches.
//! * **Pinned golden**: the Table-I |S|=64 design point's full counter
//!   dump is pinned, so any change to counter attribution is loud.
//! * **Event stream**: a `RingSink` that holds a whole run keeps four
//!   stage events per retired iteration, commits, and paired stall
//!   intervals; the counter dump parses back through the telemetry JSON
//!   parser with one field per register.
//! * **Waveform**: `export::waveform` and `export::stage_occupancy` draw
//!   the pipe from a ring's stage events — a full diagonal under
//!   forwarding, bubbles under stalling — and four waveforms of the
//!   `trace_dump` example are pinned.

use qtaccel_accel::{AccelConfig, AccelPipeline, HazardMode, QLearningAccel, SarsaAccel};
use qtaccel_core::MaxMode;
use qtaccel_envs::{ActionSet, GridWorld};
use qtaccel_fixed::Q8_8;
use qtaccel_telemetry::export::{stage_occupancy, waveform};
use qtaccel_telemetry::{
    json, CounterId, CountersOnly, Event, MemKind, RingSink, ToJson, TraceSink,
};

fn grid() -> GridWorld {
    GridWorld::builder(8, 8).goal(7, 7).build()
}

/// The Table-I |S|=64 replica: 8x8, eight actions, the diagonal obstacle
/// band at (2,5) — the same construction as the bench crate's
/// `paper_grid(64, 8)`.
fn table1_s64() -> GridWorld {
    GridWorld::builder(8, 8)
        .goal(7, 7)
        .actions(ActionSet::Eight)
        .obstacle(2, 5)
        .build()
}

const HAZARDS: [HazardMode; 3] = [
    HazardMode::Forwarding,
    HazardMode::StallOnly,
    HazardMode::Ignore,
];

#[test]
fn q_learning_is_bit_identical_with_telemetry_attached() {
    for hazard in HAZARDS {
        let cfg = AccelConfig::default().with_seed(11).with_hazard(hazard);
        let mut rings = Vec::new();
        for fast in [false, true] {
            let g = grid();
            let mut plain = QLearningAccel::<Q8_8>::new(&g, cfg);
            let mut traced =
                QLearningAccel::<Q8_8, RingSink>::with_sink(&g, cfg, RingSink::new(256));
            let (s0, s1) = if fast {
                (
                    plain.train_samples_fast(&g, 6_000),
                    traced.train_samples_fast(&g, 6_000),
                )
            } else {
                (
                    plain.train_samples(&g, 6_000),
                    traced.train_samples(&g, 6_000),
                )
            };
            assert_eq!(s0, s1, "{hazard:?} fast={fast}");
            assert_eq!(plain.q_table(), traced.q_table(), "{hazard:?} fast={fast}");
            assert_eq!(
                plain.qmax_table(),
                traced.qmax_table(),
                "{hazard:?} fast={fast}"
            );
            rings.push(traced.sink().events().copied().collect::<Vec<_>>());
        }
        // An event-bearing sink runs the cycle-accurate engine from
        // either entry point, so both legs hold the same events.
        assert_eq!(rings[0], rings[1], "{hazard:?}: fast leg's events");
    }
}

#[test]
fn sarsa_is_bit_identical_with_telemetry_attached() {
    for hazard in HAZARDS {
        let cfg = AccelConfig::default().with_seed(23).with_hazard(hazard);
        let mut rings = Vec::new();
        for fast in [false, true] {
            let g = grid();
            let mut plain = SarsaAccel::<Q8_8>::new(&g, cfg, 0.2);
            let mut traced =
                SarsaAccel::<Q8_8, RingSink>::with_sink(&g, cfg, 0.2, RingSink::new(256));
            let (s0, s1) = if fast {
                (
                    plain.train_samples_fast(&g, 6_000),
                    traced.train_samples_fast(&g, 6_000),
                )
            } else {
                (
                    plain.train_samples(&g, 6_000),
                    traced.train_samples(&g, 6_000),
                )
            };
            assert_eq!(s0, s1, "{hazard:?} fast={fast}");
            assert_eq!(plain.q_table(), traced.q_table(), "{hazard:?} fast={fast}");
            assert_eq!(
                plain.qmax_table(),
                traced.qmax_table(),
                "{hazard:?} fast={fast}"
            );
            rings.push(traced.sink().events().copied().collect::<Vec<_>>());
        }
        // An event-bearing sink runs the cycle-accurate engine from
        // either entry point, so both legs hold the same events.
        assert_eq!(rings[0], rings[1], "{hazard:?}: fast leg's events");
    }
}

#[test]
fn counters_match_between_cycle_and_fast_paths() {
    for hazard in HAZARDS {
        let cfg = AccelConfig::default().with_seed(5).with_hazard(hazard);
        let g = grid();
        let mut cyc = QLearningAccel::<Q8_8, CountersOnly>::with_sink(&g, cfg, CountersOnly);
        let mut fast = QLearningAccel::<Q8_8, CountersOnly>::with_sink(&g, cfg, CountersOnly);
        assert_eq!(
            cyc.train_samples(&g, 8_000),
            fast.train_samples_fast(&g, 8_000)
        );
        for id in CounterId::ALL {
            assert_eq!(
                cyc.counters().get(id),
                fast.counters().get(id),
                "{hazard:?} {}",
                id.name()
            );
        }

        let mut scyc = SarsaAccel::<Q8_8, CountersOnly>::with_sink(&g, cfg, 0.3, CountersOnly);
        let mut sfast = SarsaAccel::<Q8_8, CountersOnly>::with_sink(&g, cfg, 0.3, CountersOnly);
        assert_eq!(
            scyc.train_samples(&g, 8_000),
            sfast.train_samples_fast(&g, 8_000)
        );
        for id in CounterId::ALL {
            assert_eq!(
                scyc.counters().get(id),
                sfast.counters().get(id),
                "sarsa {hazard:?} {}",
                id.name()
            );
        }
    }
}

#[test]
fn counter_invariants_tie_out_against_cycle_stats() {
    for hazard in HAZARDS {
        let cfg = AccelConfig::default().with_seed(41).with_hazard(hazard);
        let g = grid();
        let mut eng = SarsaAccel::<Q8_8, CountersOnly>::with_sink(&g, cfg, 0.25, CountersOnly);
        let stats = eng.train_samples(&g, 9_000);
        let b = eng.counters();
        assert_eq!(b.total_stalls(), stats.stalls, "{hazard:?}");
        assert_eq!(b.total_forwards(), stats.forwards, "{hazard:?}");
        assert_eq!(
            b.get(CounterId::SamplesRetired),
            stats.samples,
            "{hazard:?}"
        );
        assert_eq!(
            b.get(CounterId::FillCycles),
            stats.fill_bubbles,
            "{hazard:?}"
        );
        // Forwarding lookups resolve to exactly one of {hit, miss}.
        let lookups =
            b.get(CounterId::FwdQHit) + b.get(CounterId::FwdQmaxHit) + b.get(CounterId::FwdMiss);
        match hazard {
            HazardMode::Forwarding => assert!(lookups > 0, "forwarding must look up"),
            _ => assert_eq!(lookups, 0, "{hazard:?} has no forwarding network"),
        }
        assert!(
            b.get(CounterId::QReads) >= stats.samples,
            "one Q read per update"
        );
        assert!(
            b.get(CounterId::LfsrDraws) > 0,
            "ε-greedy draws every cycle"
        );
    }
}

#[test]
fn table1_s64_counter_dump_is_pinned() {
    let g = table1_s64();
    let cfg = AccelConfig::default().with_seed(2020);
    let mut eng = QLearningAccel::<Q8_8, CountersOnly>::with_sink(&g, cfg, CountersOnly);
    let stats = eng.train_samples_fast(&g, 10_000);
    let b = eng.counters();
    // Pinned against the seed=2020 run: any change to counter
    // attribution (or to the engines' RNG consumption order) shows up
    // here as a named counter diff rather than a silent drift.
    const GOLDEN: [(CounterId, u64); CounterId::COUNT] = [
        (CounterId::SamplesRetired, 10_000),
        (CounterId::FillCycles, 3),
        (CounterId::StallStage1, 0),
        (CounterId::StallStage2, 0),
        (CounterId::FwdQHit, 542),
        (CounterId::FwdQmaxHit, 169),
        (CounterId::FwdMiss, 19_289),
        (CounterId::QReads, 10_000),
        (CounterId::QmaxReads, 20_000),
        (CounterId::QWrites, 10_000),
        (CounterId::QmaxWrites, 1_529),
        (CounterId::PortConflicts, 0),
        (CounterId::LfsrDraws, 10_039),
    ];
    for (id, want) in GOLDEN {
        assert_eq!(b.get(id), want, "{}", id.name());
    }
    assert_eq!(b.total_stalls(), stats.stalls);
    assert_eq!(b.total_forwards(), stats.forwards);
    // The forwarding design stalls never: hit or miss, one lookup per
    // Q read and per update-side Qmax read.
    assert_eq!(
        b.get(CounterId::FwdQHit) + b.get(CounterId::FwdQmaxHit) + b.get(CounterId::FwdMiss),
        b.get(CounterId::QReads) + b.get(CounterId::QmaxReads) / 2,
        "RMW read halves bypass the forwarding lookup"
    );
}

#[test]
fn event_stream_invariants_and_counter_dump_round_trip() {
    const STEPS: u64 = 200;
    let g = grid();
    let cfg = AccelConfig::default()
        .with_seed(9)
        .with_hazard(HazardMode::StallOnly);
    let mut eng = SarsaAccel::<Q8_8, RingSink>::with_sink(&g, cfg, 0.2, RingSink::new(1 << 14));
    for _ in 0..STEPS {
        eng.step(&g);
    }
    let counters_json = eng.counters().to_json().pretty();
    let ring = eng.into_sink();
    assert_eq!(ring.dropped_iterations(), 0, "the ring holds all 200 steps");

    // One bit per stage seen, per iteration.
    let mut stages_seen = vec![0u8; STEPS as usize];
    let mut commits = 0u64;
    let mut stall_open = false;
    for ev in ring.events() {
        match *ev {
            Event::Stage {
                stage, iteration, ..
            } => {
                assert!((1..=4).contains(&stage), "{ev:?}");
                let seen = &mut stages_seen[iteration as usize];
                assert_eq!(*seen & (1 << (stage - 1)), 0, "stage twice: {ev:?}");
                *seen |= 1 << (stage - 1);
            }
            // Each commit goes to Q or Qmax: a fourth table would leave
            // this match non-exhaustive, and a §V engine has no P table.
            Event::Commit {
                mem: MemKind::Q | MemKind::Qmax,
                ..
            } => commits += 1,
            Event::Commit {
                mem: MemKind::P, ..
            } => panic!("a SARSA engine committed a P write: {ev:?}"),
            Event::StallBegin { .. } => {
                assert!(!stall_open, "stall opened twice: {ev:?}");
                stall_open = true;
            }
            Event::StallEnd { .. } => {
                assert!(stall_open, "stall closed before it opened: {ev:?}");
                stall_open = false;
            }
            Event::Hazard { .. } | Event::Forward { .. } => {}
        }
    }
    assert!(
        stages_seen.iter().all(|&seen| seen == 0b1111),
        "four stage slots per retired iteration"
    );
    assert!(
        commits > 0,
        "in-flight writes must commit within 200 cycles"
    );
    assert!(!stall_open, "every stall_begin has a matching stall_end");

    // The pretty counter dump re-parses with one field per register.
    let parsed = json::parse(&counters_json).expect("counter dump parses");
    for id in CounterId::ALL {
        assert!(
            parsed.get(id.name()).and_then(|v| v.as_u64()).is_some(),
            "missing counter {}",
            id.name()
        );
    }
    assert_eq!(
        parsed
            .get(CounterId::SamplesRetired.name())
            .unwrap()
            .as_u64()
            .unwrap(),
        200
    );
}

/// A pipeline on `g` under `cfg` that records into a ring of `capacity`
/// events.
fn traced(g: &GridWorld, cfg: AccelConfig, capacity: usize) -> AccelPipeline<Q8_8, RingSink> {
    AccelPipeline::with_sink(g, cfg, 0, RingSink::new(capacity))
}

#[test]
fn records_four_events_per_iteration() {
    let g = GridWorld::builder(4, 4).goal(3, 3).build();
    let mut p = traced(&g, AccelConfig::default().with_seed(1), 100);
    p.run_samples(&g, 2);
    let stages: Vec<Event> = p
        .sink()
        .events()
        .filter(|e| matches!(e, Event::Stage { .. }))
        .copied()
        .collect();
    assert_eq!(stages.len(), 8);
    assert_eq!(
        stages[0],
        Event::Stage {
            cycle: 0,
            stage: 1,
            iteration: 0
        }
    );
    assert_eq!(
        stages[7],
        Event::Stage {
            cycle: 4,
            stage: 4,
            iteration: 1
        }
    );
}

#[test]
fn waveform_shows_the_full_diagonal_under_forwarding() {
    let g = GridWorld::builder(4, 4).goal(3, 3).build();
    let mut p = traced(&g, AccelConfig::default().with_seed(1), 4096);
    p.run_samples(&g, 100);
    let ring = p.sink();
    assert_eq!(ring.dropped_iterations(), 0);
    // Steady state: every stage fully occupied.
    for stage in 1..=4u8 {
        let occupancy = stage_occupancy(ring.events(), stage);
        assert!(occupancy > 0.99, "stage {stage}: {occupancy}");
    }
    let wf = waveform(ring.events(), 4, 12);
    // The S1 row shows consecutive iteration digits with no dots.
    let s1 = wf.lines().nth(1).unwrap();
    assert!(!s1[3..].contains('.'), "{wf}");
    // The diagonal structure: iteration k is in S4 three cycles after S1.
    let s4 = wf.lines().nth(4).unwrap();
    assert_eq!(&s1[3..4], &s4[6..7], "{wf}");
}

#[test]
fn waveform_shows_bubbles_under_stalling() {
    let g = GridWorld::builder(2, 2).goal(1, 1).build();
    let cfg = AccelConfig::default()
        .with_seed(3)
        .with_hazard(HazardMode::StallOnly);
    let mut p = traced(&g, cfg, 1 << 14);
    p.run_samples(&g, 500);
    let ring = p.sink();
    assert_eq!(ring.dropped_iterations(), 0);
    // Hazard-heavy 4-state world: the back half of the pipe has idle
    // slots (occupancy measurably below 1).
    let occupancy = stage_occupancy(ring.events(), 4);
    assert!(occupancy < 0.95, "expected stall bubbles: {occupancy}");
    let wf = waveform(ring.events(), 10, 40);
    assert!(wf.lines().nth(4).unwrap().contains('.'), "{wf}");
}

/// The `trace_dump` example's four runs (2x2 grid, seed 7, 64 steps),
/// drawn over cycles 8–56. The strings were rendered by the
/// iteration-atomic trace recorder this ring replaced, with room for all
/// 64 iterations, so a reader of the waveform sees no difference.
#[test]
fn trace_dump_waveforms_are_pinned() {
    const FULL: &str = "cycle      8 +48
S1 890123456789012345678901234567890123456789012345
S2 789012345678901234567890123456789012345678901234
S3 678901234567890123456789012345678901234567890123
S4 567890123456789012345678901234567890123456789012
";
    const STALL_ONLY: &str = "cycle      8 +48
S1 ..456.7890.1...2...3...4567..8901..2..345..6..78
S2 ..345.6789.0...1...2...3456..7890..1..234..5..67
S3 ...345.6789.0...1...2...3456..7890..1..234..5..6
S4 2...345.6789.0...1...2...3456..7890..1..234..5..
";
    const EXACT_SCAN: &str = "cycle      8 +48
S1 2...3...4...5...6...7...8...9...0...1...2...3...
S2 1...2...3...4...5...6...7...8...9...0...1...2...
S3 .1...2...3...4...5...6...7...8...9...0...1...2..
S4 ..1...2...3...4...5...6...7...8...9...0...1...2.
";
    let base = AccelConfig::default().with_seed(7);
    for (cfg, want) in [
        (base, FULL),
        (base.with_hazard(HazardMode::StallOnly), STALL_ONLY),
        (base.with_hazard(HazardMode::Ignore), FULL),
        (base.with_max_mode(MaxMode::ExactScan), EXACT_SCAN),
    ] {
        let g = GridWorld::builder(2, 2).goal(1, 1).build();
        let mut p = traced(&g, cfg, 1024);
        for _ in 0..64 {
            p.step(&g);
        }
        assert_eq!(p.sink().dropped_iterations(), 0, "{cfg:?}");
        assert_eq!(waveform(p.sink().events(), 8, 48), want, "{cfg:?}");
    }
}
