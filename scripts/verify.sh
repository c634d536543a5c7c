#!/usr/bin/env bash
# Tier-1 verification: offline build, rustfmt check, tests, lints,
# rustdoc with warnings denied (a broken or private intra-doc link
# fails). The root
# manifest's [workspace.lints.rust] sets unsafe_code = "forbid" for every
# lib, bin, test, example and bench of every member, so the build gates
# fail on any `unsafe`; qtbench is a workspace of its own, and its
# --locked gate below shows its path dependencies still inherit the
# table.
#
# Every workspace test runs twice: once in debug, and once in release,
# because the release build is what ships — the stall-free kernel's
# debug_asserts compile out and the cycle-accurate step path is
# #[inline(always)] end to end. The release run covers, among the rest:
# the telemetry zero-cost equivalence suite; the metrics-service suite;
# the fault-tolerance suites (SEU injection, checkpoint/restore); the
# training-health suite (health-off bit-identity, engine-exact probes,
# checkpointed probe state, the ECC-off divergence watchdog proof,
# crash-dump JSONL round-trip); the quantized stored-format suite
# (4/6/8/12-bit bit-exactness across executors x hazard modes,
# golden-reference transitivity, on-grid invariants under faults,
# checkpoint adoption, stored-rail health probes); the fast-path
# equivalence suite (the stall-free kernel against the cycle-accurate
# engine, as shipped); the engine unit tests (pinned per-hazard
# CycleStats, the in-flight ring's queue-model property); the facade's
# equivalence and multi-agent suites (both engines against the golden
# RefTrainer, the dual and independent pipelines); the distributed
# observability suites (wire-protocol damage matrix, span-tree
# determinism across worker counts, the durable-batch trace round-trip
# through a live collector); and the training-cluster suite
# (DESIGN.md §2.16: the lease-table properties — epochs bump on every
# assignment and release, stale/foreign/malformed frames change nothing
# but refused_frames, each lease merges at most once, no exited session
# holds a lease, expired sessions wait until they speak, and drained
# tables merge exactly the budget — plus kill-tolerant epoch-fenced
# lease reassignment, heartbeat-deadline partitions, zombie fencing,
# spec-hash refusal — every failure mode must end bit-identical to the
# single-process reference).
#
# Then the results gate: run_all regenerates every deterministic paper
# artifact (every row of the experiments table but Table II, whose CPU
# rates are host-timed), and `git diff --exit-code results/` fails on any
# byte that moved (those files hold no time or host field, so an
# unchanged tree regenerates them exactly; a run with names writes no
# summary.md). Then every example is run in
# release and must exit 0 (their assert!s are checks no test runs), then
# the metrics smoke gate (a live scrape,
# and three concurrent workers streaming wire deltas into an ephemeral
# collector: the merged scrape must sum bit-exactly and the exported
# multi-process Perfetto trace must re-parse strictly with per-track
# monotonic timestamps and zero decode errors), clippy over every target
# of the workspace, rustdoc, and the bench gates: two instrumented quick
# benches that fail if (a) the disabled-telemetry (NullSink) fast path
# or (b) the scale-out executor's aggregate rate regressed >5% against
# the tracked BENCH_throughput.json / BENCH_scaling.json baselines — (a)
# holds with the health layer compiled in but disabled, keeping probes
# free when off; the throughput bench also emits the roofline fields
# (stream-triad roof, per-row achieved bytes/sec) and guards the
# quantized fast_q8 row at the roof row (best-of-N re-measured).
# bench_faults runs the self-gating protection-ladder campaign
# (unprotected degrades permanently, ECC corrects, ECC+scrub recovers to
# >=95% of fault-free optimality); the format sweep's --check run
# enforces the 8-bit stored-format quality gate (q8s2 >= 99% of the
# 16-bit greedy-policy quality at the horizon-covered anchor); the
# cluster's process-level chaos harness (bench_distributed --quick
# --chaos: real SIGKILLs against worker processes, a forced
# heartbeat-deadline partition, wire corruption) gates on exact merged
# sample totals and bit-identical Q/Qmax images.
# Quick runs write results/BENCH_*_quick.json; the tracked root
# baselines are only refreshed by full (no --quick) runs. The last gate
# builds the benchmark package (crates/bench/src/bin/qtbench, its own
# lockfile) and smoke-runs every workload.
#
# Hardening: every gate runs under a hard timeout so a hung socket or a
# deadlocked supervisor fails the script instead of wedging CI, and an
# EXIT trap reaps stray worker/collector children (e.g. SIGKILL-spawned
# bench_distributed workers orphaned by an aborted chaos leg).
set -euo pipefail
cd "$(dirname "$0")/.."

# Reap any children this script's gates left behind: cluster worker
# processes re-exec'd by bench_distributed or qtbench, and anything else
# still parented to this shell. Never fails the script itself.
cleanup() {
  pkill -f 'bench_distributed.*--worker' 2>/dev/null || true
  pkill -f 'qtbench.*--worker' 2>/dev/null || true
  local kids
  kids=$(jobs -p 2>/dev/null || true)
  [ -n "$kids" ] && kill $kids 2>/dev/null || true
}
trap cleanup EXIT

# gate <seconds> <description> <command...> — run one labeled gate
# under a hard timeout. 124 (timeout's kill exit) gets a clear message.
gate() {
  local secs="$1" desc="$2" rc=0
  shift 2
  echo "== $desc =="
  timeout --kill-after=10 "$secs" "$@" || rc=$?
  if [ "$rc" -ne 0 ]; then
    if [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
      echo "gate timed out after ${secs}s: $desc" >&2
    fi
    exit "$rc"
  fi
}

gate 1200 "cargo build (release, offline)" \
  cargo build --release --offline --workspace

# Every workspace member is rustfmt-clean. The benchmark package and the
# A/B probe crate (scripts/ab) are workspaces of their own, outside it.
gate 300 "cargo fmt --check" \
  cargo fmt --all -- --check

gate 1200 "cargo test (offline)" \
  cargo test -q --offline --workspace

# One release run of every workspace test; its timeout is the sum of the
# thirteen per-suite release gates (600 s each) it replaced.
gate 7800 "cargo test (release, offline)" \
  cargo test -q --release --offline --workspace

# The paper's tables and figures cannot drift from the code unseen: each
# deterministic artifact must regenerate byte for byte. The list is every
# name in qtaccel_bench::experiments::EXPERIMENTS but table2; a unit test
# there fails when the two disagree.
DETERMINISTIC_ARTIFACTS="table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 mab ablation_forwarding ablation_qmax convergence seu formats"
gate 300 "results gate: run_all regenerates every deterministic artifact byte for byte" \
  bash -c "cargo run -q --release --offline -p qtaccel-bench --bin run_all -- $DETERMINISTIC_ARTIFACTS > /dev/null \
    && git diff --exit-code results/"

# Every example runs to completion: `cargo test` only compiles them, and
# their assert!s (multi_agent's samples/cycle, sarsa_cliff's detour,
# quickstart's learned policy, ...) check what the library promises its
# users. Output goes to /dev/null; a failed assert prints on stderr.
# metrics_export writes only the git-ignored results/trace_qlearning.json.
gate 600 "examples (release, offline): every one runs and exits 0" \
  bash -c 'set -e; for f in examples/*.rs; do n=$(basename "$f" .rs); echo "-- $n"; \
    cargo run -q --release --offline --example "$n" > /dev/null; done'

gate 600 "metrics smoke: serve, scrape, validate + multi-worker collector gate" \
  cargo run --release --offline -p qtaccel-bench --bin metrics_smoke
test -s results/collector_trace.json || { echo "collector trace export missing"; exit 1; }

gate 900 "cargo clippy (offline, deny warnings)" \
  cargo clippy --offline --workspace --all-targets -- -D warnings

gate 600 "cargo doc (offline, deny warnings)" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

gate 600 "bench_throughput --quick --check-baseline" \
  cargo run --release --offline -p qtaccel-bench --bin bench_throughput -- --quick --check-baseline

gate 600 "bench_scaling --quick --check-baseline" \
  cargo run --release --offline -p qtaccel-bench --bin bench_scaling -- --quick --check-baseline

gate 600 "bench_faults --quick (protection-ladder gate)" \
  cargo run --release --offline -p qtaccel-bench --bin bench_faults -- --quick

gate 600 "format_sweep --quick --check (8-bit quality gate)" \
  cargo run --release --offline -p qtaccel-bench --bin format_sweep -- --quick --check

gate 600 "bench_distributed --quick --chaos (kill/partition/corruption gate)" \
  cargo run --release --offline -p qtaccel-bench --bin bench_distributed -- --quick --chaos

# The benchmark (BENCHMARK.json) is its own package with its own lockfile:
# build it exactly as the benchmark runner does, so a change to a name it
# imports fails here. --locked refuses lockfile drift instead of rewriting
# a file under the benchmark's directory, and the target dir keeps build
# output out of it. The smoke run exits 1 if any workload's bit-exactness
# or op checks fail; --trace also runs the checkpoint and wire probes.
gate 900 "qtbench --smoke --trace (benchmark build + smoke run)" \
  cargo run --release --offline --locked --manifest-path crates/bench/src/bin/qtbench/Cargo.toml \
    --target-dir target/qtbench-build -- --smoke --trace --runs 1

echo "verify: OK"
