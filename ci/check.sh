#!/usr/bin/env bash
# Full local gate: formatting, lints (clippy.toml and the crate-root
# attributes; docs/LINT.md), tests (debug builds, so every lock they take
# is also checked for lock order), and the bounded model checker.
# Everything runs offline against the committed tree; any failure fails
# the script.
#
#   ./ci/check.sh          # full gate (release-mode model check)
#   QUICK=1 ./ci/check.sh  # smaller model-check sweep for fast iteration
#
# Knobs:
#   SKIP_PERF=1     skip the loadgen campaigns, the benchmark self-check
#                   and the perf-trend gate (e.g. on loaded machines)
#   ARTIFACT_DIR=d  keep artifacts (chrome trace, BENCH_3.json,
#                   BENCH_4.json, BENCH_7.json, BENCH_9.json) under d
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*"; }

# Artifacts land here; temporary unless the caller asked to keep them.
if [[ -n "${ARTIFACT_DIR:-}" ]]; then
  keep_artifacts=1
  mkdir -p "$ARTIFACT_DIR"
else
  keep_artifacts=0
  ARTIFACT_DIR="$(mktemp -d)"
fi

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (deny warnings, forbid unsafe code)"
cargo clippy --offline --workspace --all-targets -- -D warnings -F unsafe_code

step "cargo build (RUSTFLAGS=-Dwarnings)"
RUSTFLAGS="-D warnings" cargo build --offline --workspace --all-targets

step "cargo test"
cargo test --offline --workspace -q

step "cargo test (audit feature: invariants after every transition)"
cargo test --offline -q -p convgpu-scheduler --features audit

step "chrome-trace artifact export"
artifact="$ARTIFACT_DIR/convgpu-trace.json"
cargo run --offline -q --release --bin convgpu-cli -- trace --out="$artifact"
# `convgpu-cli trace` already refuses to write invalid JSON; assert the
# artifact landed, is non-empty, and contains trace events.
[[ -s "$artifact" ]] || { echo "trace artifact missing or empty: $artifact"; exit 1; }
grep -q '"ph"' "$artifact" || { echo "trace artifact has no events: $artifact"; exit 1; }

step "transport matrix (same batteries over TCP loopback)"
# `cargo test --workspace` above already ran every root suite on the
# default UNIX transport (the root package is a workspace member). Every
# socket the wire tests bind is transport-parameterized
# (CONVGPU_TRANSPORT=tcp swaps unix:/path for tcp:127.0.0.1:0), so here
# the protocol round-trip + hostile-client battery, the cluster battery
# (golden routed trace, ticket canonicality, node death, the
# cluster_faults half of the fault-injection suite)
# and the journal battery (restart recovery, truncated-tail fixture)
# rerun over real TCP connections, asserting byte-identical canonical
# traces and ticket bit-equality against the same goldens.
CONVGPU_TRANSPORT=tcp cargo test --offline -q --test protocol_roundtrip
CONVGPU_TRANSPORT=tcp cargo test --offline -q --test cluster_router
CONVGPU_TRANSPORT=tcp cargo test --offline -q --test failure_injection cluster_faults
CONVGPU_TRANSPORT=tcp cargo test --offline -q --test journal_recovery

step "bounded model check (one explorer over the phase table)"
# One generic explorer sweeps every universe of the phase table
# (crates/audit/src/suite.rs): the two single-device universes per
# policy and the 2-device multi-GPU universe per policy x placement
# (a router enters a node only by `register`, so these cover it); then the
# naive-baseline witness. `cargo test --workspace` above already
# pinned the trimmed sweep's state counts against
# crates/audit/tests/golden/explorer_quick.golden; the full gate pins the
# untrimmed sweep's against explorer_full.golden (the #[ignore]d twin
# test), then runs the trimmed sweep for the witness.
if [[ "${QUICK:-0}" == "1" ]]; then
  cargo run --offline -q --release -p convgpu-audit --bin convgpu-audit -- --quick
else
  cargo test --offline -q --release -p convgpu-audit --test explorer_golden \
    -- --ignored full_sweep_reproduces_every_state_count
  cargo run --offline -q --release -p convgpu-audit --bin convgpu-audit -- --quick
fi

# The four loadgen campaigns only *produce* artifacts here; the single
# "perf trend" step below diffs all of them against ci/perf_baseline.json
# in one place and is the only perf pass/fail authority.
quick_flag=()
if [[ "${QUICK:-0}" == "1" ]]; then
  quick_flag=(--quick)
fi

step "perf campaign (loadgen -> BENCH_3.json)"
if [[ "${SKIP_PERF:-0}" == "1" ]]; then
  echo "skipped (SKIP_PERF=1)"
else
  cargo run --offline -q --release -p convgpu-bench --bin loadgen -- \
    --out="$ARTIFACT_DIR/BENCH_3.json" "${quick_flag[@]}"
fi

step "perf campaign (sharded loadgen -> BENCH_4.json)"
if [[ "${SKIP_PERF:-0}" == "1" ]]; then
  echo "skipped (SKIP_PERF=1)"
else
  # Same storm against the multi-GPU service, swept over all three
  # placement policies.
  cargo run --offline -q --release -p convgpu-bench --bin loadgen -- \
    --sharded --out="$ARTIFACT_DIR/BENCH_4.json" "${quick_flag[@]}"
fi

step "routed cluster campaign (multi-socket loadgen -> BENCH_7.json)"
if [[ "${SKIP_PERF:-0}" == "1" ]]; then
  echo "skipped (SKIP_PERF=1)"
else
  # Real node servers behind the router, all three Swarm strategies.
  # The run itself asserts zero timeouts/failovers on a healthy cluster;
  # the artifact records per-strategy throughput and placement.
  cargo run --offline -q --release -p convgpu-bench --bin loadgen -- \
    --cluster --out="$ARTIFACT_DIR/BENCH_7.json" "${quick_flag[@]}"
fi

step "transport compare campaign (unix vs tcp loadgen -> BENCH_9.json)"
if [[ "${SKIP_PERF:-0}" == "1" ]]; then
  echo "skipped (SKIP_PERF=1)"
else
  # The same storm over a UNIX socket and TCP loopback back to back; the
  # perf-trend step below holds each leg to a floor of its own, which
  # keeps the TCP backend honest (the artifact's tcp/unix ratio is
  # information: it depends on which leg a bursting host favours).
  # Always standard scale, even under QUICK=1: the smoke storm is too
  # short to amortize TCP connection setup, while the full campaign
  # costs only a couple of seconds.
  cargo run --offline -q --release -p convgpu-bench --bin loadgen -- \
    --transport-compare --out="$ARTIFACT_DIR/BENCH_9.json"
fi

step "benchmark build (links the library types it constructs)"
# The benchmark is a package of its own outside the workspace, so the
# build above does not compile it: a change to a type it constructs
# (`JournalOp`, `RecoveredHome`, `Envelope`) would otherwise fail only
# when the benchmark runs. Not gated on SKIP_PERF.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

step "benchmark self-check (benchmark/run.sh --check)"
if [[ "${SKIP_PERF:-0}" == "1" ]]; then
  echo "skipped (SKIP_PERF=1)"
else
  # The repo's benchmark (BENCHMARK.json) is a package of its own outside
  # the workspace, so nothing above builds it: this builds it and runs
  # its tests (every workload at toy size with its correctness checks,
  # the span nesting, the manifest against metrics.rs; < 15 s).
  bash benchmark/run.sh --check
fi

step "perf trend (all campaigns vs ci/perf_baseline.json)"
if [[ "${SKIP_PERF:-0}" == "1" ]]; then
  echo "skipped (SKIP_PERF=1)"
else
  # One delta table over every artifact; fails below 80% of any
  # baseline metric, and on a baseline metric with no artifact. Also
  # appends the table to $GITHUB_STEP_SUMMARY on Actions.
  cargo run --offline -q --release -p convgpu-bench --bin perf_trend -- \
    --baseline=ci/perf_baseline.json \
    "$ARTIFACT_DIR/BENCH_3.json" "$ARTIFACT_DIR/BENCH_4.json" \
    "$ARTIFACT_DIR/BENCH_7.json" "$ARTIFACT_DIR/BENCH_9.json"
fi

if [[ "$keep_artifacts" == "1" ]]; then
  echo
  echo "artifacts kept in $ARTIFACT_DIR:"
  ls -l "$ARTIFACT_DIR"
else
  rm -rf "$ARTIFACT_DIR"
fi

printf '\nAll checks passed.\n'
