#!/usr/bin/env bash
# CI gate: release build, full test suite, and lint-clean clippy.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test benchmark package (its own workspace under benchmark/)"
# The benchmark package imports the crates' public replay and trace APIs
# (stream_chunks, replay_parallel, TraceFileV2, BlockReader, ...), but
# sits outside the root workspace, so the stage above never builds it.
# This catches a crate API change that breaks the benchmark.
timeout 900 cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --workspace -- -D warnings"
# Also the unsafe/panic policy gate: [workspace.lints] forbids
# unsafe_code and denies clippy::{unwrap_used, expect_used, panic}
# outside tests, and -D warnings turns an unfulfilled
# #[expect(..., reason = "...")] (a stale exception) into a failure.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc -D warnings"
# Every intra-doc link must resolve: deleting or renaming a type that a
# doc comment links to fails here instead of leaving a dead link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> reproduce at quick scale vs the committed reproduce_quick.out"
# Every figure and in-text experiment, at quick scale (seconds). The
# output carries no timings and is deterministic, so it must match the
# golden byte for byte: a change that moves a figure row shows up here
# as a diff, and is committed with the regenerated golden.
MIXTLB_SCALE=quick timeout 300 ./target/release/reproduce | diff -u reproduce_quick.out -

echo "==> mixtlb-check --analyze (structural analysis gate, 4 rules)"
# Zero findings required across all four rules (addr-arith,
# truncating-cast, dead-code, hot-path).
# There is no baseline: any finding exits 1 and fails this stage (after
# the log, findings included, is printed). --stats prints per-rule counts
# and wall time into the CI log so drift is visible. The whole front end
# runs in seconds; the timeout is a safety net, not a budget.
analyze_status=0
analyze_log=$(timeout 60 cargo run --release -q -p mixtlb-check -- --analyze . --stats) \
  || analyze_status=$?
printf '%s\n' "$analyze_log"
if [[ "$analyze_status" -ne 0 ]]; then
  echo "CI: mixtlb-check --analyze exited ${analyze_status}" >&2
  exit 1
fi

echo "==> mixtlb-check --model (time-boxed shootdown model check)"
# Exhaustive 2-core exploration (364 schedules) + seeded-bug self-check;
# the binary bounds its own schedule counts, so this takes about a second.
timeout 300 cargo run --release -q -p mixtlb-check -- --model

echo "==> model_deque (work-stealing deque under the interleaving explorer)"
# Owner push/pop against a thief's steal on a small ChunkDeque: every
# chunk must be taken exactly once. Builds mixtlb-smp with its model
# feature, so the deque's atomics are schedule points. The scenarios run
# exhaustively or at preemption bound 3: seconds once built.
timeout 300 cargo test -q -p mixtlb-smp --features model --test model_deque

if [[ "${MIXTLB_SKIP_SMP_STRESS:-0}" == "1" ]]; then
  echo "==> smp stress skipped (MIXTLB_SKIP_SMP_STRESS=1)"
else
  echo "==> smp many-core stress (work stealing + ASID rollover + epoch shootdowns)"
  # A scaled-down cut of the 256-core/1M-space headline run: 64 cores over
  # 200k spaces forces ~48 ASID generations of 12-bit tag reuse through the
  # work-stealing workers, asserts zero stale-generation TLB hits, and
  # prints eager vs epoch-batched shootdown cycles side by side. Runs in a
  # couple of seconds; the timeout is a safety net.
  timeout 300 cargo run --release -q -p mixtlb-bench --bin smp -- \
    --cores 64 --spaces 200_000
fi

if [[ "${MIXTLB_SKIP_PERFGATE:-0}" == "1" ]]; then
  echo "==> perfgate skipped (MIXTLB_SKIP_PERFGATE=1)"
else
  echo "==> perfgate self-test (gate logic on synthetic reports)"
  timeout 60 cargo run --release -q -p mixtlb-perf --bin perfgate -- self-test

  echo "==> perfgate regression gate (quick measure vs committed BENCH_*.json)"
  # Replays the two most timing-sensitive pinned corpus workloads and
  # compares scalar-split-normalized throughput against the most recent
  # committed BENCH_<pr>.json. Normalization cancels uniform machine-speed
  # differences between the runner that committed the baseline and this
  # one; --aggregate gates the per-path geomean rather than individual
  # triples because per-process allocation layout moves nanosecond-scale
  # batched loops by up to ~3.5x per triple on shared runners (measured),
  # while a real regression moves the whole path. The one multi-core
  # point, ws-batched@<host cores>, additionally gates at 1.5x this
  # tolerance: its worker threads time-slice on however many CPUs the
  # runner exposes, adding scheduler noise the single-thread paths don't
  # carry. It is compared only when the baseline recorded the same core
  # count. Tighten on a dedicated quiet machine:
  # MIXTLB_PERFGATE_TOLERANCE=0.10 ./scripts/ci.sh
  baseline=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1)
  if [[ -z "$baseline" ]]; then
    echo "no committed BENCH_*.json baseline; skipping gate" >&2
    exit 1
  fi
  timeout 600 cargo run --release -q -p mixtlb-perf --bin perfgate -- \
    measure --quick --out target/BENCH_ci.json
  timeout 60 cargo run --release -q -p mixtlb-perf --bin perfgate -- \
    gate --prev "$baseline" --curr target/BENCH_ci.json --aggregate \
    --tolerance "${MIXTLB_PERFGATE_TOLERANCE:-0.40}"
fi

echo "CI OK"
