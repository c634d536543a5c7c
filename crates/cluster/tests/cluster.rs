//! End-to-end cluster fault-tolerance suite (DESIGN.md §2.16).
//!
//! Every test stands up a real coordinator on a loopback socket and
//! real workers on threads, then injects one failure class and asserts
//! the two contract halves: the run completes, and the final merged
//! state is *bit-identical* to the single-process reference with
//! `qtaccel_samples_total` equal to the budget exactly.
//!
//! Threads cannot be SIGKILLed, so worker death here is cooperative
//! (dropped connections, silent stalls); the `bench_distributed
//! --chaos` harness exercises the same paths with real SIGKILL against
//! child processes.

use std::path::PathBuf;
use std::time::Duration;

use qtaccel_cluster::{
    run_worker, ChaosMode, ClusterError, ClusterSpec, Coordinator, CoordinatorConfig, WorkerClose,
    WorkerConfig,
};
use qtaccel_telemetry::wire::{goodbye_reason, CAP_LEASE_V1};
use qtaccel_telemetry::{FramePayload, MetricValue, MetricsRegistry, WireClient};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qtaccel-cluster-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk tmpdir");
    dir
}

fn spec() -> ClusterSpec {
    ClusterSpec {
        seed: 0xD15C,
        width: 16,
        height: 16,
        tiles_x: 2,
        tiles_y: 2,
        obstacle_pct: 10,
        total_samples: 60_000,
        checkpoint_every: 2_048,
    }
}

fn snappy(cfg_timeout_ms: u64) -> CoordinatorConfig {
    CoordinatorConfig {
        heartbeat_timeout: Duration::from_millis(cfg_timeout_ms),
        handshake_timeout: Duration::from_secs(5),
        max_reassignments: 32,
    }
}

fn samples_total(reg: &qtaccel_telemetry::MetricsRegistry) -> u64 {
    match reg.get("qtaccel_samples_total") {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("qtaccel_samples_total missing or mistyped: {other:?}"),
    }
}

/// Restore the sealed images and diff them bit-for-bit against the
/// single-process reference.
fn assert_bit_exact(s: &ClusterSpec, dir: &std::path::Path) {
    let reference = s.reference_tables();
    let cluster = s.restore_final_tables(dir).expect("restore sealed shards");
    assert_eq!(reference.len(), cluster.len());
    for (i, ((rq, rm), (cq, cm))) in reference.iter().zip(cluster.iter()).enumerate() {
        assert_eq!(rq, cq, "shard {i}: Q-table diverged from reference");
        assert_eq!(rm, cm, "shard {i}: Qmax table diverged from reference");
    }
}

#[test]
fn clean_run_matches_single_process_reference_bit_for_bit() {
    let s = spec();
    let dir = tmp("clean");
    let coord = Coordinator::serve(&s, snappy(1_000), "127.0.0.1:0").expect("serve");
    let addr = coord.addr().to_string();

    let workers: Vec<_> = (0..3)
        .map(|w| {
            let cfg = WorkerConfig::new(addr.clone(), w + 1, dir.clone());
            std::thread::spawn(move || run_worker(&s, &cfg))
        })
        .collect();

    assert!(coord.wait_complete(Duration::from_secs(30)), "run stalled");
    for h in workers {
        let report = h.join().expect("worker thread").expect("worker ok");
        assert_eq!(report.close, WorkerClose::RunComplete);
    }

    let status = coord.status();
    assert!(status.complete && !status.failed);
    assert_eq!(status.done, s.shards());
    assert_eq!(status.workers_connected, 3);
    assert_eq!(samples_total(&coord.merged_registry()), s.total_samples);
    assert_bit_exact(&s, &dir);
}

#[test]
fn abandoned_lease_is_reassigned_and_stays_bit_exact() {
    let s = spec();
    let dir = tmp("abandon");
    let coord = Coordinator::serve(&s, snappy(600), "127.0.0.1:0").expect("serve");
    let addr = coord.addr().to_string();

    // The saboteur connects first so it is guaranteed a lease, trains a
    // little past one checkpoint, then drops the connection cold.
    let saboteur = {
        let mut cfg = WorkerConfig::new(addr.clone(), 1, dir.clone());
        cfg.chaos = ChaosMode::AbandonAfter { at_samples: 4_000 };
        std::thread::spawn(move || run_worker(&s, &cfg))
    };
    std::thread::sleep(Duration::from_millis(100));
    let survivor = {
        let cfg = WorkerConfig::new(addr.clone(), 2, dir.clone());
        std::thread::spawn(move || run_worker(&s, &cfg))
    };

    assert!(coord.wait_complete(Duration::from_secs(30)), "run stalled");
    let sab = saboteur.join().expect("thread").expect("saboteur ok");
    assert_eq!(sab.close, WorkerClose::ChaosAbandoned);
    let sur = survivor.join().expect("thread").expect("survivor ok");
    assert_eq!(sur.close, WorkerClose::RunComplete);

    let status = coord.status();
    assert!(status.complete && !status.failed);
    assert!(
        status.leases_reassigned >= 1,
        "the abandoned lease must have been reassigned: {status:?}"
    );
    // Exactly-once despite the partial predecessor: the whole-lease
    // delta of the survivor covers the checkpointed prefix too.
    assert_eq!(samples_total(&coord.merged_registry()), s.total_samples);
    assert_bit_exact(&s, &dir);
}

#[test]
fn heartbeat_deadline_reassigns_a_partitioned_worker() {
    let s = spec();
    let dir = tmp("stall");
    // Short deadline so the partition is detected fast.
    let coord = Coordinator::serve(&s, snappy(300), "127.0.0.1:0").expect("serve");
    let addr = coord.addr().to_string();

    // The stalled worker takes a lease and then goes completely silent
    // — no progress, no heartbeats, no goodbye: a network partition.
    let stalled = {
        let mut cfg = WorkerConfig::new(addr.clone(), 1, dir.clone());
        cfg.chaos = ChaosMode::StallAfterLease {
            dwell: Duration::from_millis(1_500),
        };
        std::thread::spawn(move || run_worker(&s, &cfg))
    };
    std::thread::sleep(Duration::from_millis(100));
    let survivor = {
        let cfg = WorkerConfig::new(addr.clone(), 2, dir.clone());
        std::thread::spawn(move || run_worker(&s, &cfg))
    };

    assert!(coord.wait_complete(Duration::from_secs(30)), "run stalled");
    let st = stalled.join().expect("thread").expect("stalled ok");
    assert_eq!(st.close, WorkerClose::ChaosStalled);
    let sur = survivor.join().expect("thread").expect("survivor ok");
    assert_eq!(sur.close, WorkerClose::RunComplete);

    let status = coord.status();
    assert!(status.complete && !status.failed);
    assert!(
        status.deadline_expirations >= 1,
        "death must have been detected by the heartbeat deadline: {status:?}"
    );
    assert!(
        !status.recovery_ms.is_empty(),
        "recovery latency must have been measured: {status:?}"
    );
    assert_eq!(samples_total(&coord.merged_registry()), s.total_samples);
    assert_bit_exact(&s, &dir);
}

#[test]
fn zombie_replay_of_a_reassigned_lease_is_refused_not_merged_twice() {
    let s = spec();
    let dir = tmp("zombie");
    let coord = Coordinator::serve(&s, snappy(250), "127.0.0.1:0").expect("serve");
    let addr = coord.addr().to_string();

    // The zombie takes a lease, plays dead past the deadline (its
    // lease is death-released, which bumps the fencing epoch), then
    // replays a forged completion under its stale epoch. No other
    // worker is connected yet, so the run cannot complete early and
    // the refusal is observable on the zombie's own session.
    let zombie = {
        let mut cfg = WorkerConfig::new(addr.clone(), 1, dir.clone());
        cfg.chaos = ChaosMode::Zombie {
            dwell: Duration::from_millis(600),
        };
        std::thread::spawn(move || run_worker(&s, &cfg))
    };
    let z = zombie.join().expect("thread").expect("zombie close ok");
    assert_eq!(
        z.close,
        WorkerClose::Refused,
        "the stale replay must be refused with a typed goodbye"
    );
    assert_eq!(z.leases_completed, 0);

    // Only now does honest help arrive and finish the whole budget.
    let survivor = {
        let cfg = WorkerConfig::new(addr.clone(), 2, dir.clone());
        std::thread::spawn(move || run_worker(&s, &cfg))
    };
    assert!(coord.wait_complete(Duration::from_secs(30)), "run stalled");
    let sur = survivor.join().expect("thread").expect("survivor ok");
    assert_eq!(sur.close, WorkerClose::RunComplete);

    let status = coord.status();
    assert!(status.complete && !status.failed);
    assert!(
        status.refused_frames >= 1,
        "the zombie's stale LeaseDone must be counted as refused: {status:?}"
    );
    // The forged delta claimed a full budget; had it merged, the total
    // would exceed the spec budget. Exactly-once holds bit-exactly.
    assert_eq!(samples_total(&coord.merged_registry()), s.total_samples);
    assert_bit_exact(&s, &dir);
}

#[test]
fn capacity_shrink_to_one_survivor_still_completes_correctly() {
    let s = spec();
    let dir = tmp("shrink");
    let coord = Coordinator::serve(&s, snappy(400), "127.0.0.1:0").expect("serve");
    let addr = coord.addr().to_string();

    // Three workers; two die mid-lease at different depths. The lone
    // survivor finishes everything: slower, never wrong.
    let mut saboteurs = Vec::new();
    for (w, at) in [(1, 2_500), (2, 5_000)] {
        let mut cfg = WorkerConfig::new(addr.clone(), w, dir.clone());
        cfg.chaos = ChaosMode::AbandonAfter { at_samples: at };
        saboteurs.push(std::thread::spawn(move || run_worker(&s, &cfg)));
        std::thread::sleep(Duration::from_millis(50));
    }
    let survivor = {
        let cfg = WorkerConfig::new(addr.clone(), 3, dir.clone());
        std::thread::spawn(move || run_worker(&s, &cfg))
    };

    assert!(coord.wait_complete(Duration::from_secs(30)), "run stalled");
    for h in saboteurs {
        let r = h.join().expect("thread").expect("saboteur ok");
        assert_eq!(r.close, WorkerClose::ChaosAbandoned);
    }
    let sur = survivor.join().expect("thread").expect("survivor ok");
    assert_eq!(sur.close, WorkerClose::RunComplete);

    let status = coord.status();
    assert!(status.complete && !status.failed);
    assert!(status.workers_presumed_dead >= 2, "{status:?}");
    assert_eq!(samples_total(&coord.merged_registry()), s.total_samples);
    assert_bit_exact(&s, &dir);
}

#[test]
fn garbage_on_the_control_port_counts_as_decode_error_and_run_survives() {
    let s = spec();
    let dir = tmp("garbage");
    let coord = Coordinator::serve(&s, snappy(800), "127.0.0.1:0").expect("serve");
    let addr = coord.addr();

    // A confused peer writes non-QTACWIRE bytes and hangs up.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write");
    }
    // And a torn peer sends half a valid hello then vanishes.
    {
        use std::io::Write;
        let mut probe = WireClient::connect(addr, 9, "probe").expect("probe hello");
        // Drain our own ack so the coordinator-side session is live.
        let _ = probe.recv_timeout(Duration::from_millis(500));
        let mut raw = probe.try_clone_stream().expect("clone");
        raw.write_all(b"QTACWIRE").expect("torn prefix");
        drop(raw);
        drop(probe);
    }

    let worker = {
        let cfg = WorkerConfig::new(addr.to_string(), 1, dir.clone());
        std::thread::spawn(move || run_worker(&s, &cfg))
    };
    assert!(coord.wait_complete(Duration::from_secs(30)), "run stalled");
    let r = worker.join().expect("thread").expect("worker ok");
    assert_eq!(r.close, WorkerClose::RunComplete);

    let status = coord.status();
    assert!(status.complete && !status.failed);
    assert!(
        status.decode_errors >= 1,
        "garbage bytes must be counted as decode errors: {status:?}"
    );
    assert_eq!(samples_total(&coord.merged_registry()), s.total_samples);
    assert_bit_exact(&s, &dir);
}

#[test]
fn spec_mismatch_is_refused_before_any_training() {
    let s = spec();
    let dir = tmp("mismatch");
    let coord = Coordinator::serve(&s, snappy(800), "127.0.0.1:0").expect("serve");
    let addr = coord.addr().to_string();

    // A worker launched with a different workload must refuse to start.
    let mut wrong = spec();
    wrong.total_samples += 1;
    let mismatched = {
        let cfg = WorkerConfig::new(addr.clone(), 7, dir.clone());
        std::thread::spawn(move || run_worker(&wrong, &cfg))
    };
    match mismatched.join().expect("thread") {
        Err(ClusterError::SpecMismatch { ours, theirs }) => {
            assert_eq!(theirs, s.hash());
            assert_eq!(ours, wrong.hash());
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }

    // The run is untouched and a correct worker completes it.
    let worker = {
        let cfg = WorkerConfig::new(addr, 1, dir.clone());
        std::thread::spawn(move || run_worker(&s, &cfg))
    };
    assert!(coord.wait_complete(Duration::from_secs(30)), "run stalled");
    worker.join().expect("thread").expect("worker ok");
    assert_eq!(samples_total(&coord.merged_registry()), s.total_samples);
    assert_bit_exact(&s, &dir);
}

#[test]
fn coordinator_refuses_metrics_frames_on_the_control_port() {
    let s = spec();
    let coord = Coordinator::serve(&s, snappy(800), "127.0.0.1:0").expect("serve");

    let mut probe = WireClient::connect(coord.addr(), 3, "probe").expect("hello");
    match probe.recv_timeout(Duration::from_secs(2)) {
        Ok(Some(f)) => assert!(matches!(f.payload, FramePayload::HelloAck { .. })),
        other => panic!("expected hello-ack, got {other:?}"),
    }
    // The control port is not the telemetry port: raw metrics frames
    // are a protocol violation and end the session with REFUSED.
    probe
        .send(FramePayload::Metrics(
            qtaccel_telemetry::MetricsRegistry::new(),
        ))
        .expect("send metrics");
    // Skip the lease the coordinator optimistically handed us; the
    // refusal goodbye must follow.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        assert!(std::time::Instant::now() < deadline, "no goodbye arrived");
        match probe.recv_timeout(Duration::from_millis(100)) {
            Ok(Some(f)) => match f.payload {
                FramePayload::Goodbye { reason } => {
                    assert_eq!(reason, goodbye_reason::REFUSED);
                    break;
                }
                _ => continue,
            },
            Ok(None) => continue,
            Err(_) => break, // session already torn down: refusal happened
        }
    }
    assert!(coord.status().refused_frames >= 1);
}

// ---------------------------------------------------------------------
// Lease-table holes, probed with raw wire sessions.

/// A raw session past its handshake.
fn raw_session(addr: std::net::SocketAddr, id: u64) -> WireClient {
    let mut session = WireClient::connect(addr, id, "probe").expect("hello");
    match session.recv_timeout(Duration::from_secs(5)) {
        Ok(Some(f)) => assert!(matches!(f.payload, FramePayload::HelloAck { .. })),
        other => panic!("expected hello-ack, got {other:?}"),
    }
    session
}

/// Read until the coordinator hands out a lease: `[lease, epoch, budget]`.
fn next_lease(session: &mut WireClient) -> [u64; 3] {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        if let Ok(Some(f)) = session.recv_timeout(Duration::from_millis(50)) {
            if let FramePayload::Lease {
                lease,
                epoch,
                budget,
                ..
            } = f.payload
            {
                return [lease, epoch, budget];
            }
        }
    }
    panic!("no lease arrived");
}

/// Read until the coordinator says `Goodbye{REFUSED}`.
fn assert_refused(session: &mut WireClient) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        match session.recv_timeout(Duration::from_millis(50)) {
            Ok(Some(f)) => match f.payload {
                FramePayload::Goodbye { reason } => {
                    assert_eq!(reason, goodbye_reason::REFUSED);
                    return;
                }
                _ => continue,
            },
            Ok(None) => continue,
            Err(e) => panic!("session ended without a refusal: {e}"),
        }
    }
    panic!("no refusal arrived");
}

/// The delta an honest worker sends for a lease of `samples` samples.
fn lease_delta(samples: u64) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.set_counter("qtaccel_samples_total", "samples", samples);
    reg.set_counter("qtaccel_lease_completions_total", "leases", 1);
    reg
}

#[test]
fn a_session_cannot_complete_a_lease_it_does_not_hold() {
    let s = spec();
    let coord = Coordinator::serve(&s, snappy(30_000), "127.0.0.1:0").expect("serve");
    let mut a = raw_session(coord.addr(), 1);
    assert_eq!(
        next_lease(&mut a)[..2],
        [0, 1],
        "A holds lease 0 at epoch 1"
    );
    let mut b = raw_session(coord.addr(), 2);
    assert_eq!(
        next_lease(&mut b)[..2],
        [1, 1],
        "B holds lease 1 at epoch 1"
    );

    // B completes A's lease, at A's epoch, with a 5-sample delta.
    b.send(FramePayload::LeaseDone {
        lease: 0,
        epoch: 1,
        samples: 5,
        delta: lease_delta(5),
    })
    .expect("send");
    assert_refused(&mut b);

    let status = coord.status();
    assert_eq!(status.refused_frames, 1, "{status:?}");
    assert_eq!(status.leases[0], (1, 0, false), "A still holds lease 0");
    assert_eq!(status.done, 0);
    assert_eq!(samples_total(&coord.merged_registry()), 0, "nothing merged");
}

#[test]
fn a_refused_session_gives_its_lease_back_at_once() {
    let s = spec();
    // A deadline far beyond the test: only the session's exit can
    // release the lease.
    let coord = Coordinator::serve(&s, snappy(30_000), "127.0.0.1:0").expect("serve");
    let mut probe = raw_session(coord.addr(), 3);
    assert_eq!(next_lease(&mut probe)[..2], [0, 1]);
    probe
        .send(FramePayload::Metrics(MetricsRegistry::new()))
        .expect("send metrics");
    let sent = std::time::Instant::now();
    while coord.status().leases[0].0 != 2 {
        assert!(
            sent.elapsed() < Duration::from_millis(200),
            "the refused session still holds lease 0: {:?}",
            coord.status()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let status = coord.status();
    assert_eq!(status.refused_frames, 1);
    assert_eq!(status.leases_reassigned, 1);
}

#[test]
fn an_expired_session_gets_no_lease_until_it_speaks() {
    let s = spec();
    let cfg = CoordinatorConfig {
        heartbeat_timeout: Duration::from_millis(100),
        handshake_timeout: Duration::from_secs(5),
        max_reassignments: 3,
    };
    let coord = Coordinator::serve(&s, cfg, "127.0.0.1:0").expect("serve");
    // The session takes lease 0, then never reads or writes again.
    let mut silent = raw_session(coord.addr(), 4);
    assert_eq!(next_lease(&mut silent)[..2], [0, 1]);
    std::thread::sleep(Duration::from_secs(1));

    let status = coord.status();
    assert_eq!(status.deadline_expirations, 1, "{status:?}");
    assert!(!status.failed, "{status:?}");
    assert_eq!(
        status.leases[0].0, 2,
        "one assignment, one expiry: {status:?}"
    );
    assert!(
        status.leases[1..].iter().all(|&(epoch, _, _)| epoch == 0),
        "the silent session was handed nothing else: {status:?}"
    );
    drop(silent);
}

#[test]
fn a_mistyped_completion_is_refused_and_the_run_still_completes() {
    let s = spec();
    let dir = tmp("mistyped");
    let coord = Coordinator::serve(&s, snappy(30_000), "127.0.0.1:0").expect("serve");
    let addr = coord.addr();

    // One honest completion, trained for real so the sealed images stay
    // comparable with the reference.
    let mut probe = raw_session(addr, 5);
    let [lease, epoch, budget] = next_lease(&mut probe);
    let envs = s.environment();
    let trained = s
        .pipelines()
        .train_shard_durable(
            lease as usize,
            envs.partition(lease as usize),
            budget,
            epoch,
            &dir,
            s.checkpoint_every,
            |_| true,
        )
        .expect("honest lease");
    probe
        .send(FramePayload::LeaseDone {
            lease,
            epoch,
            samples: trained,
            delta: lease_delta(trained),
        })
        .expect("honest completion");

    // The next completion carries the completions counter as a gauge.
    let [lease, epoch, budget] = next_lease(&mut probe);
    let mut mistyped = MetricsRegistry::new();
    mistyped.set_counter("qtaccel_samples_total", "samples", budget);
    mistyped.set_gauge("qtaccel_lease_completions_total", "leases", 1.0);
    probe
        .send(FramePayload::LeaseDone {
            lease,
            epoch,
            samples: budget,
            delta: mistyped,
        })
        .expect("mistyped completion");
    assert_refused(&mut probe);

    let status = coord.status();
    assert_eq!((status.done, status.refused_frames), (1, 1), "{status:?}");
    assert_eq!(samples_total(&coord.merged_registry()), trained);

    let worker = {
        let cfg = WorkerConfig::new(addr.to_string(), 6, dir.clone());
        std::thread::spawn(move || run_worker(&s, &cfg))
    };
    assert!(coord.wait_complete(Duration::from_secs(30)), "run stalled");
    let r = worker.join().expect("thread").expect("worker ok");
    assert_eq!(r.close, WorkerClose::RunComplete);
    assert_eq!(samples_total(&coord.merged_registry()), s.total_samples);
    assert_bit_exact(&s, &dir);
}

#[test]
fn the_reconnect_budget_restarts_after_each_verified_session() {
    let s = spec();
    // A fake coordinator: five sessions that handshake and drop, then
    // one that ends the run.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        for round in 0..6 {
            let (stream, _) = listener.accept().expect("accept");
            let mut session = WireClient::from_stream(stream, 0).expect("session");
            match session.recv_timeout(Duration::from_secs(5)) {
                Ok(Some(f)) => assert!(matches!(f.payload, FramePayload::Hello { .. })),
                other => panic!("expected hello, got {other:?}"),
            }
            let reply = if round < 5 {
                FramePayload::HelloAck {
                    capabilities: CAP_LEASE_V1,
                    spec_hash: s.hash(),
                }
            } else {
                FramePayload::Goodbye {
                    reason: goodbye_reason::COMPLETE,
                }
            };
            session.send(reply).expect("reply");
        }
    });

    let mut cfg = WorkerConfig::new(addr.to_string(), 7, tmp("redial"));
    cfg.max_attempts = 3;
    cfg.backoff_base = Duration::from_millis(5);
    cfg.backoff_max = Duration::from_millis(20);
    let report = run_worker(&s, &cfg).expect("each outage gets its own budget");
    assert_eq!(report.close, WorkerClose::RunComplete);
    assert_eq!(report.reconnects, 5);
    fake.join().expect("fake coordinator");
}

#[test]
fn a_lease_outside_the_spec_is_refused_not_trained() {
    let s = spec();
    let budget = s.budgets()[0];
    let lease = |lease, budget, checkpoint_every| FramePayload::Lease {
        lease,
        epoch: 1,
        budget,
        checkpoint_every,
    };
    for (row, forged) in [
        (
            "shard past the spec",
            lease(s.shards() as u64, budget, s.checkpoint_every),
        ),
        ("zero cadence", lease(0, budget, 0)),
        (
            "budget off the spec",
            lease(0, budget + 1, s.checkpoint_every),
        ),
    ] {
        // A fake coordinator: a verified handshake, the forged lease,
        // then the worker's first answer that is not a heartbeat.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let fake = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut session = WireClient::from_stream(stream, 0).expect("session");
            match session.recv_timeout(Duration::from_secs(5)) {
                Ok(Some(f)) => assert!(matches!(f.payload, FramePayload::Hello { .. })),
                other => panic!("expected hello, got {other:?}"),
            }
            let ack = FramePayload::HelloAck {
                capabilities: CAP_LEASE_V1,
                spec_hash: s.hash(),
            };
            session.send(ack).expect("ack");
            session.send(forged).expect("lease");
            loop {
                match session.recv_timeout(Duration::from_secs(5)) {
                    Ok(Some(f)) if matches!(f.payload, FramePayload::Heartbeat { .. }) => {}
                    Ok(Some(f)) => return Some(f.payload),
                    _ => return None,
                }
            }
        });

        let mut cfg = WorkerConfig::new(addr.to_string(), 9, tmp("forged-lease"));
        cfg.max_attempts = 1;
        let outcome = run_worker(&s, &cfg);
        assert!(
            matches!(outcome, Err(ClusterError::Protocol(_))),
            "{row}: {outcome:?}"
        );
        let answer = fake.join().expect("fake coordinator");
        let refused = FramePayload::Goodbye {
            reason: goodbye_reason::REFUSED,
        };
        assert_eq!(answer, Some(refused), "{row}");
    }
}
