#!/usr/bin/env python3
"""Checks estimate() in tools/bench_rows.py, the one estimator behind
every overhead row of BENCH_stemming.json, on fixed pair lists.

Usage: overhead_estimate_test.py
"""

import json
import os
import statistics
import sys

sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))
from bench_rows import estimate  # noqa: E402

FAILURES = []


def check(cond, message):
    if cond:
        print(f"ok: {message}")
    else:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def block(centre, n=24):
    """n pairs whose on/off ratios spread -1% .. +1% around 1 + centre."""
    return [{"off_ns": 3e8, "on_ns": 3e8 * (1 + centre + 0.005 * (i % 5 - 2))}
            for i in range(n)]


def rejects(pairs):
    try:
        estimate(pairs, 0.03)
    except ValueError:
        return True
    return False


def main():
    same = [{"off_ns": t, "on_ns": t} for t in (3e8, 2.9e8, 3.4e8, 3.1e8)]
    row = estimate(same, 0.03)
    check(row["overhead_fraction"] == 0.0, "identical sides: zero overhead")
    check(row["ci95"] == [0.0, 0.0], "identical sides: zero-width CI")
    check(row["verdict"] == "within", "identical sides: within budget")
    check(row["pairs"] == 4 and row["budget"] == 0.03,
          "row carries its pair count and budget")

    # The committed provenance_overhead rounds: the old rule kept the
    # round with the smallest |median quiet-pair ratio - 1| and passed.
    rounds = [block(0.074), block(0.065), block(-0.020)]
    old = min((statistics.median(p["on_ns"] / p["off_ns"] for p in r) - 1
               for r in rounds), key=abs)
    check(old <= 0.03, f"old rule reads {old:+.3f}, within a 3% budget")
    row = estimate(rounds[0] + rounds[1] + rounds[2], 0.03)
    check(row["overhead_fraction"] > 0.03,
          f"pooled median reads {row['overhead_fraction']:+.3f}")
    check(row["ci95"][0] <= row["overhead_fraction"] <= row["ci95"][1],
          f"CI {row['ci95']} brackets the estimate")
    check(row["verdict"] == "OVER", "pooled rounds are OVER a 3% budget")
    check(row["pairs"] == 72, "every pair of every round counts")

    pairs = block(0.01) + block(0.03)
    check(json.dumps(estimate(pairs, 0.03)) == json.dumps(estimate(pairs, 0.03)),
          "the same input twice gives identical bytes")

    check(rejects([]), "an empty pair list is rejected")
    check(rejects([{"off_ns": 0, "on_ns": 1e8}]), "a zero off time is rejected")
    check(rejects(block(0.0) + [{"off_ns": 1e8, "on_ns": -1.0}]),
          "a negative on time is rejected")

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed")
        return 1
    print("all overhead estimator checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
