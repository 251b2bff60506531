#!/usr/bin/env bash
# Bench smoke suite: quick benchmark runs, JSON sanity checks, and the
# regression gates against the committed quick baselines.
#
# CI's bench-smoke job executes this exact script, so a local
# `scripts/ci_bench_smoke.sh` reproduces the CI gate bit for bit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== thread-scaling smoke =="
cargo run --release -p stpm-bench --bin threads_speedup -- --quick
python3 -m json.tool BENCH_threads.json > /dev/null
entries=$(grep -o '"threads":' BENCH_threads.json | wc -l)
echo "thread-count entries: $entries"
test "$entries" -ge 2

echo "== single-threaded scaling smoke =="
cargo run --release -p stpm-bench --bin scaling -- --quick
python3 -m json.tool BENCH_scaling_quick.json > /dev/null
axes=$(grep -o '"axis":' BENCH_scaling_quick.json | wc -l)
echo "scaling axes: $axes"
test "$axes" -ge 2

echo "== streaming smoke =="
cargo run --release -p stpm-bench --bin streaming -- --quick
python3 -m json.tool BENCH_streaming_quick.json > /dev/null
points=$(grep -o '"batch_granules":' BENCH_streaming_quick.json | wc -l)
echo "streaming batch-size points: $points"
test "$points" -ge 2

echo "== recovery smoke =="
cargo run --release -p stpm-bench --bin recovery -- --quick
python3 -m json.tool BENCH_recovery_quick.json > /dev/null
points=$(grep -o '"tail_granules":' BENCH_recovery_quick.json | wc -l)
echo "recovery crash-position points: $points"
test "$points" -ge 2

echo "== checked-in full-run baselines stay parseable =="
python3 -m json.tool BENCH_scaling.json > /dev/null
python3 -m json.tool BENCH_streaming.json > /dev/null
python3 -m json.tool BENCH_recovery.json > /dev/null

echo "== scaling regression gate =="
python3 scripts/check_scaling_regression.py \
  BENCH_scaling_quick_baseline.json BENCH_scaling_quick.json \
  --max-slowdown 1.25

echo "== streaming regression gate =="
python3 scripts/check_streaming_regression.py \
  BENCH_streaming_quick_baseline.json BENCH_streaming_quick.json \
  --max-slowdown 1.25

echo "== recovery regression gate =="
python3 scripts/check_recovery_regression.py \
  BENCH_recovery_quick_baseline.json BENCH_recovery_quick.json \
  --max-slowdown 1.25

echo "bench smoke: all gates passed"
