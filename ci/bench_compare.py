#!/usr/bin/env python3
"""Bench-regression gate: compare two google-benchmark JSON snapshots.

Usage (normally via `ci/check.sh --bench-compare OLD NEW`):

    python3 ci/bench_compare.py BENCH_pr3.json bench_smoke_ci.json \
        --threshold 0.15 [--metric real_time]

A benchmark REGRESSES when its new time exceeds old * (1 + threshold).
Benchmarks are matched by name. A benchmark present in OLD but missing from
NEW fails the gate, so a dropped row cannot pass silently; benchmarks new in
NEW are listed and allowed.
Only plain iteration runs are compared (aggregate rows like `_mean` are
skipped). Exit status: 0 = no regressions, 1 = at least one regression or
missing benchmark, 2 = usage/parse error.

Wall-clock comparisons are only meaningful between runs on the same class
of machine; the CI workflow therefore treats this gate as advisory on
shared runners, while local runs against the committed BENCH_*.json
snapshot are the authoritative check.
"""

import argparse
import json
import sys

# Multipliers to nanoseconds, the unit everything is normalized to.
_TIME_UNITS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def die(msg):
    """Usage/parse failure: exit 2, distinct from a regression (exit 1)."""
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load_benchmarks(path, metric):
    """Returns {name: time_ns} for plain iteration runs in the snapshot."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read {path}: {e}")
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench.get("name")
        if name is None or metric not in bench:
            continue
        unit = _TIME_UNITS.get(bench.get("time_unit", "ns"))
        if unit is None:
            die(f"unknown time_unit in {path}: {bench.get('time_unit')}")
        out[name] = float(bench[metric]) * unit
    if not out:
        die(f"no iteration benchmarks found in {path}")
    return out


def format_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline snapshot (e.g. BENCH_pr3.json)")
    parser.add_argument("new", help="candidate snapshot")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional slowdown (default 0.15)")
    parser.add_argument("--metric", default="real_time",
                        choices=["real_time", "cpu_time"],
                        help="which benchmark time to compare")
    args = parser.parse_args()

    old = load_benchmarks(args.old, args.metric)
    new = load_benchmarks(args.new, args.metric)

    regressions = []
    improvements = 0
    print(f"{'benchmark':<44} {'old':>10} {'new':>10} {'ratio':>7}")
    for name in sorted(old.keys() & new.keys()):
        ratio = new[name] / old[name] if old[name] > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + args.threshold:
            regressions.append((name, ratio))
            flag = "  << REGRESSION"
        elif ratio < 1.0 - args.threshold:
            improvements += 1
            flag = "  (improved)"
        print(f"{name:<44} {format_ns(old[name]):>10} "
              f"{format_ns(new[name]):>10} {ratio:>6.2f}x{flag}")

    missing = sorted(old.keys() - new.keys())
    for name in missing:
        print(f"{name:<44} only in {args.old}  << MISSING")
    for name in sorted(new.keys() - old.keys()):
        print(f"{name:<44} only in {args.new} (new)")

    compared = len(old.keys() & new.keys())
    print(f"\ncompared {compared} benchmarks against {args.old}: "
          f"{len(regressions)} regressed >{args.threshold:.0%}, "
          f"{improvements} improved >{args.threshold:.0%}, "
          f"{len(missing)} missing")
    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        print(f"FAIL: worst regression {worst[0]} at {worst[1]:.2f}x")
    if missing:
        print(f"FAIL: {len(missing)} benchmark(s) in {args.old} missing "
              f"from {args.new}")
    if regressions or missing:
        return 1
    print("OK: no benchmark regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
