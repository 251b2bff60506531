#!/usr/bin/env bash
# End-to-end benchmark smoke: builds perfbench from its own manifest (it is
# a workspace of its own, outside the repository's workspace, so no other
# job builds it) and runs every workload once for a few seconds, plus one
# traced batch-wide run. Each run checks the program's outputs itself and a
# failed check exits non-zero, which fails this script.
#
# CI's perfbench-smoke job executes this exact script.
set -euo pipefail
cd "$(dirname "$0")/.."

perfbench=(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml --)

echo "== build perfbench =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

for workload in batch-wide stream-durable service-fleet; do
    echo "== $workload =="
    "${perfbench[@]}" --workload "$workload" --seed 1 --seconds 5 --trace 0
done

echo "== batch-wide (traced) =="
"${perfbench[@]}" --workload batch-wide --seed 1 --seconds 5 --trace 1
