#!/usr/bin/env python3
"""Compare a fresh `recovery --quick` run against the committed baseline.

Usage:
    check_recovery_regression.py BASELINE.json FRESH.json [--max-slowdown 1.25]

Checks, in order of severity:

1. **Exactness**: every fresh point must report `identical == true` — the
   recovered pattern set matched both the streaming replay and the batch
   re-mine. The experiment itself panics on a divergence, so a fresh file
   that exists at all usually passes — this guards against the assertion
   being edited away.
2. **Pattern counts and snapshot sizes** must match the baseline at every
   crash position (keyed by `tail_granules`). Mining, recovery and the
   snapshot encoding are deterministic; any difference in `patterns` is a
   correctness regression, and any difference in `snapshot_bytes` is an
   unversioned change to the frozen snapshot format — not noise.
3. **Dead counters**: every point needs `granules > 0` and
   `snapshot_bytes > 0`, and at least one point must report `patterns > 0`
   — zeros everywhere mean the snapshot subsystem came unwired.
4. **Restore speedup**: the pure-restore point (`tail_granules == 0`) must
   keep recovery at least 3x cheaper than the full streaming re-mine — the
   headline guarantee of the persistence layer, held to a reduced bar on the
   noisy quick grid (the full run in `BENCH_recovery.json` records the >=5x
   acceptance figure). Both sides of the ratio move together under machine
   noise, so this gate is stable where absolute runtimes are not.
5. **Runtime**: the fresh total recovery time must not exceed
   `max(baseline_total * max_slowdown, baseline_total + ABS_SLACK_SECS)`.
   Quick-grid recoveries run in single-digit milliseconds where scheduler
   jitter dominates; the noise floor means only multi-x blowups trip this
   check, with checks 1-4 carrying the strict signal.

Exit status is non-zero on the first failed check.
"""

import argparse
import json
import sys

# Noise floor added on top of the relative budget: quick-grid recoveries run
# in single-digit milliseconds, where scheduler jitter alone exceeds 25%.
ABS_SLACK_SECS = 0.02

# The acceptance bar for pure restore on the quick grid (the full-run bar of
# 5x lives in BENCH_recovery.json, recorded at the largest streaming config).
MIN_RESTORE_SPEEDUP = 3.0


def load_points(path):
    """Returns {tail_granules: point_dict} plus the total recovery time."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    points = {}
    recovery_total = 0.0
    for point in doc["points"]:
        points[point["tail_granules"]] = point
        recovery_total += point["recovery_secs"]
    return points, recovery_total


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--max-slowdown", type=float, default=1.25)
    args = parser.parse_args()

    baseline, baseline_total = load_points(args.baseline)
    fresh, fresh_total = load_points(args.fresh)

    if set(baseline) != set(fresh):
        missing = sorted(set(baseline) - set(fresh))
        extra = sorted(set(fresh) - set(baseline))
        sys.exit(f"FAIL: tail-size grids differ (missing={missing}, extra={extra})")

    for tail, point in sorted(fresh.items()):
        if not point["identical"]:
            sys.exit(
                f"FAIL: tail {tail}: the recovered pattern set diverged from the re-mine"
            )
        if point["granules"] <= 0 or point["snapshot_bytes"] <= 0:
            sys.exit(f"FAIL: tail {tail}: dead granule/snapshot counters")
        base_point = baseline[tail]
        if point["patterns"] != base_point["patterns"]:
            sys.exit(
                f"FAIL: pattern count diverged at tail {tail}: "
                f"baseline {base_point['patterns']} vs fresh {point['patterns']}"
            )
        if point["snapshot_bytes"] != base_point["snapshot_bytes"]:
            sys.exit(
                f"FAIL: snapshot size diverged at tail {tail}: "
                f"baseline {base_point['snapshot_bytes']} vs fresh {point['snapshot_bytes']}"
            )

    if not any(p["patterns"] > 0 for p in fresh.values()):
        sys.exit("FAIL: patterns is 0 everywhere — the snapshot subsystem is unwired")

    if 0 not in fresh:
        sys.exit("FAIL: the sweep lost its pure-restore point (tail_granules == 0)")
    restore = fresh[0]
    if restore["speedup"] < MIN_RESTORE_SPEEDUP:
        sys.exit(
            f"FAIL: pure-restore speedup {restore['speedup']:.2f}x fell below the "
            f"{MIN_RESTORE_SPEEDUP:.1f}x bar"
        )

    budget = max(baseline_total * args.max_slowdown, baseline_total + ABS_SLACK_SECS)
    verdict = "ok" if fresh_total <= budget else "FAIL"
    print(
        f"recovery total: baseline {baseline_total:.4f}s, fresh {fresh_total:.4f}s, "
        f"budget {budget:.4f}s -> {verdict}"
    )
    if fresh_total > budget:
        sys.exit(
            f"FAIL: quick recovery regressed beyond "
            f"{args.max_slowdown:.2f}x (+{ABS_SLACK_SECS}s slack)"
        )
    print(
        f"ok: {len(fresh)} crash positions, all recoveries exact, patterns and "
        f"snapshot sizes identical, "
        f"pure-restore speedup {restore['speedup']:.2f}x"
    )


if __name__ == "__main__":
    main()
