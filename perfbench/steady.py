#!/usr/bin/env python3
"""Steadiness mode: run workloads repeatedly and report the spread per metric.

    python3 perfbench/steady.py [--runs N] [--seed S] [--sets K]
                                [--workloads a,b] [--traced] [--out FILE]

Runs the benchmark command of BENCHMARK.json N times per workload, each time
with another seed (S, S+1, ...), and repeats that list of seeds K times
(one set after another). Repetitions are interleaved across workloads --
rep 0 of every workload, then rep 1, ... -- so slow drift of the host's
speed lands on every workload alike instead of on whichever ran last.

Per set and end-to-end metric -- the bounded ones of BENCHMARK.json and
the timings every run prints in its facts line without a bound -- it
prints the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median against the metric's bound, if it has one. With K >= 2 it also prints,
per later set, how much its median is worse than the first set's, and the
quartiles of the per-seed ratio later/first: the same seed run again, so
the ratio holds run-to-run noise without the differences between seeds.
With --traced every repetition also runs with --trace 1, and the report
adds the per-layer medians and the tracing overhead: the traced run's
end-to-end values against the untraced run's, as a share of the untraced
median; the two sides take turns at running first. Run from the
repository root. Exits 1 when a spread (setup_s aside) or a median shift
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result, info, elapsed


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w in workloads]
    # The bounded metrics of BENCHMARK.json, then the end-to-end timings
    # every run prints in its facts line without a bound.
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    for name in ("main_p50_ms", "main_p90_ms", "main_per_s", "side_p50_ms"):
        metrics.setdefault(name, {"name": name, "bound": None,
                                  "better": "higher" if name.endswith("_per_s") else "lower"})
    seconds = bench["run_seconds"]

    # runs[set][workload] = one entry per repetition
    runs = []
    n = 0
    for set_no in range(args.sets):
        runs.append({w: [] for w in workloads})
        for rep in range(args.runs):
            for w in workloads:
                seed = args.seed + rep
                # With --traced, every other run puts the traced side
                # first, so that what one run leaves behind (disk
                # write-back, a warm page cache) does not always land on
                # the same side.
                traced_first = args.traced and n % 2 == 1
                n += 1
                if traced_first:
                    traced, traced_info, _ = run_once(bench["command"], w, seed, seconds, 1)
                result, info, elapsed = run_once(bench["command"], w, seed, seconds, 0)
                entry = {"seed": seed, "result": result, "info": info, "elapsed_s": elapsed}
                if args.traced and not traced_first:
                    traced, traced_info, _ = run_once(bench["command"], w, seed, seconds, 1)
                if args.traced:
                    entry["traced"], entry["traced_info"] = traced, traced_info
                runs[set_no][w].append(entry)
                print(f"set {set_no} rep {rep} {w} seed {seed}: {elapsed:.1f} s",
                      file=sys.stderr, flush=True)

    report = {"machine": runs[0][workloads[0]][0]["info"]["machine"], "workloads": {}}
    steady, within = True, True
    for w in workloads:
        entry = {"sets": []}
        wall = statistics.median(r["elapsed_s"] for s_ in runs for r in s_[w])
        print(f"\n{w}  (wall per run: {wall:.1f} s)")
        for set_no, set_runs in enumerate(runs):
            rows = {}
            print(f"  set {set_no}: {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
                  f"{'spread':>9}{'bound':>7}")
            for name, m in metrics.items():
                values = [r["info"]["e2e"][name]["value"] for r in set_runs[w]]
                med, q1, q3, sp = spread(values)
                bound = m["bound"]
                ok = name == "setup_s" or bound is None or sp <= bound
                steady &= ok
                third = name == "setup_s" or bound is None or sp <= bound / 3
                within &= third
                rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                              "spread": sp, "bound": bound}
                flag = "" if third else ("  <-- above bound/3" if ok else "  <-- ABOVE BOUND")
                shown = "-" if bound is None else f"{bound:.2f}"
                print(f"         {name:<14}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                      f"{sp:>9.3f}{shown:>7}{flag}")
            entry["sets"].append(rows)
        if args.sets >= 2:
            entry["against_set_0"] = {}
            print(f"  against set 0: {'metric':<14}{'worse by':>10}{'ratio q1':>10}"
                  f"{'ratio med':>10}{'ratio q3':>10}")
            for later in range(1, args.sets):
                for name, m in metrics.items():
                    a = entry["sets"][0][name]
                    b = entry["sets"][later][name]
                    worse = (b["median"] - a["median"]) / a["median"]
                    if m["better"] == "higher":
                        worse = -worse
                    held = m["bound"] is None or worse <= m["bound"]
                    steady &= held
                    ratios = [y / x for x, y in zip(a["values"], b["values"]) if x]
                    q1, med, q3 = statistics.quantiles(ratios, n=4)
                    entry["against_set_0"].setdefault(name, []).append(
                        {"set": later, "worse_by": worse, "ratio_quartiles": [q1, med, q3]})
                    flag = "" if held else "  <-- ABOVE BOUND"
                    print(f"  set {later}:         {name:<14}{worse:>+10.3f}{q1:>10.3f}"
                          f"{med:>10.3f}{q3:>10.3f}{flag}")
        if args.traced:
            every = [r for s_ in runs for r in s_[w]]
            overhead = {}
            for name in metrics:
                plain = statistics.median(r["info"]["e2e"][name]["value"] for r in every)
                traced = statistics.median(r["traced_info"]["e2e"][name]["value"] for r in every)
                overhead[name] = (traced - plain) / plain if plain else None
            layers = {}
            for name in every[0]["traced"]["metrics"]:
                layers[name] = statistics.median(
                    r["traced"]["metrics"][name]["value"] for r in every)
            entry["tracing_overhead"] = overhead
            entry["per_layer_median"] = layers
            print("  tracing overhead (traced - untraced) / untraced: " +
                  ", ".join(f"{k} {v:+.3f}" for k, v in overhead.items() if v is not None))
        report["workloads"][w] = entry
    report["runs"] = runs
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    if not steady:
        print("\nNOT steady: a spread or a median shift exceeds its bound")
    elif not within:
        print("\nwithin bounds, but a spread exceeds a third of its bound")
    else:
        print("\nsteady: every spread is within a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
