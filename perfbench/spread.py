#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs one or more workloads on
several seeds and prints, for each end-to-end metric, the median and the
distance between the first and third quartile as a share of the median,
beside the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads replay_internet serve_churn \
        --seeds 1 2 3 4 5 [--seconds 30] [--out set2.json] \
        [--against set1.json]

A metric is steady when its spread stays below a third of its bound.
The host-speed probes each run stamps (host_spin_ms, a CPU loop, and
host_chase_ms, a chase through the shared cache) are reported the same
way: when they move, the host moved.
`--against` compares each median with an earlier set written by `--out`
and flags a shift worse than the metric's bound, beside the shift of the
host-speed probes.  The runs go through run.py with the arguments a
benchmark harness passes.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PROBES = ("host_spin_ms", "host_chase_ms")


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--out", help="also write every value as JSON")
    parser.add_argument("--against", help="an earlier --out to compare with")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    report = {}
    steady = True
    for workload in args.workloads:
        values = {name: [] for name in list(metrics) + list(PROBES)}
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed ({result})")
                steady = False
                continue
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            info = json.loads(lines[-2])["stamp"]
            for name in PROBES:
                values[name].append(info[name])
            print(f"{workload} seed {seed} ({time.monotonic() - t0:.0f} s): " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        report[workload] = values
        before = earlier.get(workload, {})
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            med, spr = spread(vals)
            line = f"  {workload:16s} {name:14s} median {med:12.5g}  spread {spr:6.3f}"
            if name in metrics:
                bound = metrics[name]["bound"]
                ok = spr < bound / 3
                steady &= ok
                line += f"  bound {bound:.2f}  {'ok' if ok else 'WIDE'}"
            if len(before.get(name, [])) >= 4:
                shift = med / statistics.median(before[name]) - 1
                line += f"  vs earlier {shift:+.3f}"
                if name in metrics:
                    worse = -shift if metrics[name]["better"] == "higher" else shift
                    if worse > metrics[name]["bound"]:
                        steady = False
                        line += " WORSE"
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
