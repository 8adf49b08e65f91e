#!/usr/bin/env python3
"""Runs the benchmark binaries and writes their rows into BENCH_stemming.json.

tools/run_bench.sh builds what a run needs and then calls

    bench_rows.py --build-dir DIR --out FILE [--quick] MODE...

with one MODE per flag it was given (see its usage header).  Every row
goes through write_row(), which stamps it with the commit, date, host
CPU count and build type it was measured at and merges it into the
output file.  Every overhead row goes through estimate().
"""
import argparse
import datetime
import json
import os
import random
import statistics
import subprocess
import sys

# Fixed so the same pairs always give the same row, byte for byte.
BOOTSTRAP_SEED = 1
BOOTSTRAP_RESAMPLES = 2000

STAMP_KEYS = ("commit", "date", "host_cpus", "build_type")
OVERHEAD_KEYS = ("estimator", "overhead_fraction", "ci95", "pairs", "budget",
                 "verdict")

# Overhead rows: mode -> (output key, budget).  The budgets are the ones
# each feature was admitted under (docs/OBSERVABILITY.md).
OVERHEADS = {
    "instrumentation": ("instrumentation_overhead", 0.05),
    "serve": ("serve_overhead", 0.03),
    "dashboard": ("dashboard_overhead", 0.03),
    "checkpoint": ("checkpoint_overhead", 0.03),
    "provenance": ("provenance_overhead", 0.03),
}
PAIRS, QUICK_PAIRS = 24, 3


def estimate(pairs, budget):
    """Overhead of the `on` side over the `off` side of paired timings.

    `pairs` is a list of {"off_ns", "on_ns"} dicts, as bench_overhead
    prints them.  The estimate is the median of the per-pair on/off
    ratios, minus one; its 95% CI is a percentile bootstrap of that
    median.  The verdict is "within" only when the CI's upper bound is
    at or below `budget`, so a noisy run cannot pass by luck, and no
    pair or round is dropped for landing far from zero.
    """
    if not pairs:
        raise ValueError("no pairs to estimate from")
    for p in pairs:
        if not (p["off_ns"] > 0 and p["on_ns"] > 0):
            raise ValueError(f"non-positive time in pair {p}")
    ratios = [p["on_ns"] / p["off_ns"] for p in pairs]
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_RESAMPLES))
    last = BOOTSTRAP_RESAMPLES - 1
    ci95 = [medians[round(0.025 * last)] - 1.0,
            medians[round(0.975 * last)] - 1.0]
    return {
        "estimator": "median_pair_ratio_bootstrap_ci95",
        "overhead_fraction": statistics.median(ratios) - 1.0,
        "ci95": ci95,
        "pairs": len(pairs),
        "budget": budget,
        "verdict": "within" if ci95[1] <= budget else "OVER",
    }


def git(repo_root, *args):
    proc = subprocess.run(["git", "-C", repo_root, *args],
                          capture_output=True, text=True)
    # rstrip only: a porcelain status line may start with a space.
    return proc.stdout.rstrip() if proc.returncode == 0 else None


def stamp(row, build_dir, out_path):
    """`row` plus where it was measured: the commit (suffixed -dirty when
    tracked files other than the output differ from it), the UTC time,
    the host CPU count and the build type of `build_dir`."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    commit = git(repo_root, "rev-parse", "--short", "HEAD") or "unknown"
    out_rel = os.path.relpath(os.path.abspath(out_path), repo_root)
    changed = (git(repo_root, "status", "--porcelain", "--untracked-files=no")
               or "").splitlines()
    if any(line[3:] != out_rel for line in changed):
        commit += "-dirty"
    build_type = ""
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {
        **row,
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "host_cpus": os.cpu_count(),
        "build_type": build_type,
    }


def write_row(out_path, key, row, build_dir):
    """Stamps `row` and merges it into `out_path` under `key`, or into the
    top level when `key` is None; the other rows in the file survive.
    Exits on a row that lacks a required field."""
    row = stamp(row, build_dir, out_path)
    required = STAMP_KEYS + (OVERHEAD_KEYS if "verdict" in row else ())
    missing = [k for k in required if row.get(k) in (None, "")]
    if missing:
        sys.exit(f"malformed {key or 'top-level'} row: no {', '.join(missing)}")
    result = {}
    if os.path.exists(out_path):
        with open(out_path) as f:
            result = json.load(f)
    if key is None:
        result.update(row)
    else:
        result[key] = row
    with open(out_path, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    return row


def run_json(*cmd):
    return json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                     text=True).stdout)


def ns(benchmark, field):
    """A Google Benchmark JSON entry's `field` time in nanoseconds."""
    scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[
        benchmark.get("time_unit", "ns")]
    return benchmark[field] * scale


def instrumentation_report(build_dir, pairs):
    """Pairs of the 12k-event stemming row from the normal build (on) and
    a -DRANOMALY_NO_TRACING=ON build (off): one process per side,
    alternating which side goes first, as bench_overhead does in-process.
    A side is the median of 8 in-process repetitions of the benchmark's
    CPU time per op (Stem runs serially): a single short run per process
    swings by more than the effect."""
    binaries = {False: f"{build_dir}-notrace/bench/bench_stemming_opt",
                True: f"{build_dir}/bench/bench_stemming_opt"}

    def timed(on):
        report = run_json(binaries[on], "--benchmark_filter=BM_StemmingArena/12000$",
                          "--benchmark_min_time=0.1", "--benchmark_repetitions=8",
                          "--benchmark_report_aggregates_only=true",
                          "--benchmark_format=json")
        return next(ns(b, "cpu_time") for b in report["benchmarks"]
                    if b.get("aggregate_name") == "median")

    timed(False)  # one warm-up of each side before anything is recorded
    timed(True)
    out = []
    for i in range(pairs):
        if i % 2 == 0:
            off = timed(False)
            on = timed(True)
        else:
            on = timed(True)
            off = timed(False)
        out.append({"off_ns": off, "on_ns": on})
    return {"toggle": "instrumentation", "iters_per_side": 1, "pairs": out}


def overhead(mode, args):
    key, budget = OVERHEADS[mode]
    pairs = QUICK_PAIRS if args.quick else PAIRS
    if mode == "instrumentation":
        report = instrumentation_report(args.build_dir, pairs)
        benchmark = "bench_stemming_opt BM_StemmingArena/12000"
        metric = "cpu_time"
    else:
        report = run_json(f"{args.build_dir}/bench/bench_overhead", mode,
                          str(pairs))
        benchmark = f"bench_overhead {mode}"
        metric = "process_cpu_time"
    if report.get("toggle") != mode or len(report.get("pairs", [])) != pairs:
        sys.exit(f"malformed {mode} report: {report}")
    iters = report["iters_per_side"]
    row = write_row(args.out, key, {
        "benchmark": benchmark,
        "metric": metric,
        "iters_per_side": iters,
        "off_ns_per_op": statistics.median(
            p["off_ns"] for p in report["pairs"]) / iters,
        "on_ns_per_op": statistics.median(
            p["on_ns"] for p in report["pairs"]) / iters,
        **estimate(report["pairs"], budget),
    }, args.build_dir)
    lo, hi = row["ci95"]
    print(f'  {key}: off {row["off_ns_per_op"] / 1e6:.2f} ms, on '
          f'{row["on_ns_per_op"] / 1e6:.2f} ms per op, overhead '
          f'{row["overhead_fraction"] * 100:+.1f}% (95% CI {lo * 100:+.1f}% '
          f'to {hi * 100:+.1f}%, {row["pairs"]} pairs): {row["verdict"]} '
          f'the {budget * 100:.0f}% budget')
    return row["verdict"] == "within"


def throughput(mode, args):
    # The bench replays the full serve path (tick ingest -> windowed
    # analysis -> incident log) once per (thread count, rep) and keeps
    # each count's fastest run; it also diffs the incident stream across
    # thread counts, so this row doubles as an end-to-end determinism
    # check.  --internet runs the same harness over the Gao-Rexford
    # table-dump workload: a full-table regime instead of churn.
    if mode == "throughput":
        key, benchmark = "throughput_events_per_sec", "bench_throughput"
        workload = "SessionReset + Churn"
        size = ["--events", "40000" if args.quick else "200000"]
    else:
        key, benchmark = "internet_scale_throughput", "bench_throughput --internet"
        ases, prefixes, peers = (4, 20, 3) if args.quick else (32, 210, 5)
        workload = (f"BuildInternetScale({ases}k ASes, {prefixes}k prefixes, "
                    f"{peers} vantages)")
        size = ["--internet", "--ases", str(ases * 1000), "--prefixes",
                str(prefixes * 1000), "--peers", str(peers)]
    reps = (["--reps", "1", "--threads", "1,2"] if args.quick else
            ["--reps", "2", "--threads", "1,2,4,8"])
    report = run_json(f"{args.build_dir}/bench/bench_throughput", "--json",
                      *size, *reps)
    if not report.get("incident_streams_identical", False):
        sys.exit("incident streams differ across thread counts")
    row = write_row(args.out, key, {
        "benchmark": benchmark,
        "workload": workload + " live replay, 10s tick / 5min window",
        "target_events_per_sec": 1_000_000,
        "events": report["events"],
        "incident_streams_identical": True,
        "rows": report["rows"],
    }, args.build_dir)
    for r in report["rows"]:
        print(f'  {r["threads"]} thread(s): {r["events_per_sec"]:>10,.0f} '
              f'events/s ({r["seconds"]:.2f} s, {r["incidents"]} incidents)')
    best = max(r["events_per_sec"] for r in report["rows"])
    print(f'  best {best:,.0f} events/s of the 1,000,000 events/s target on a '
          f'{row["host_cpus"]}-CPU host')
    return True


def stemming(_mode, args):
    cmd = [f"{args.build_dir}/bench/bench_stemming_opt", "--benchmark_format=json"]
    if args.quick:
        # 12k rows only, plus the thread curve's 1-thread point; short runs.
        cmd += ["--benchmark_filter=/(12000|1)$", "--benchmark_min_time=0.05"]
    runs = {b["name"]: b for b in run_json(*cmd)["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}

    def ns_of(name, field="real_time"):
        return ns(runs[name], field) if name in runs else None

    rows = []
    for size in (12_000, 57_000, 330_000):
        legacy = ns_of(f"BM_StemmingLegacy/{size}")
        arena = ns_of(f"BM_StemmingArena/{size}")
        if legacy is None and arena is None:
            continue
        row = {"events": size, "legacy_ns_per_op": legacy,
               "arena_ns_per_op": arena}
        if legacy is not None and arena is not None and arena > 0:
            row["speedup"] = legacy / arena
        rows.append(row)
    # Wall time per point plus the *main thread's* CPU time: on a host
    # with fewer CPUs than threads, every thread count time-slices one
    # core and wall time cannot improve — but the main-thread CPU curve
    # still shows how much of the work moved to the workers, which is
    # what a multi-CPU host would turn into wall-time speedup.
    parallel = []
    for threads in (1, 2, 4, 8):
        name = f"BM_StemmingArenaThreads/{threads}"
        if name in runs:
            parallel.append({"threads": threads, "ns_per_op": ns_of(name),
                             "main_thread_cpu_ns_per_op": ns_of(name, "cpu_time")})
    if not rows and not parallel:
        sys.exit("no benchmark rows parsed")
    top = {
        "benchmark": "bench_stemming_opt",
        "workload": "BerkeleyScale(23000) SpikeEvents, Table I stemming rows",
        "mode": "quick" if args.quick else "full",
        "rows": rows,
        "parallel_330k": parallel,
    }
    big = next((r for r in rows if r["events"] == 330_000 and "speedup" in r),
               None)
    if big is not None:
        top["serial_speedup_330k"] = big["speedup"]
    write_row(args.out, None, top, args.build_dir)
    for r in rows:
        s = f'  {r["events"]:>7} events: '
        if r["legacy_ns_per_op"] is not None:
            s += f'legacy {r["legacy_ns_per_op"] / 1e6:.1f} ms  '
        if r["arena_ns_per_op"] is not None:
            s += f'arena {r["arena_ns_per_op"] / 1e6:.1f} ms  '
        if "speedup" in r:
            s += f'speedup {r["speedup"]:.1f}x'
        print(s)
    for p in parallel:
        print(f'  330k @ {p["threads"]} thread(s): {p["ns_per_op"] / 1e6:.1f} '
              f'ms wall, {p["main_thread_cpu_ns_per_op"] / 1e6:.1f} ms '
              f'main-thread CPU')
    if not args.quick and big is not None and big["speedup"] < 5.0:
        print(f'serial speedup at 330k is {big["speedup"]:.2f}x, below the 5x '
              "target", file=sys.stderr)
        return False
    return True


def main():
    modes = {"stemming": stemming, "throughput": throughput,
             "internet": throughput, **{m: overhead for m in OVERHEADS}}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("modes", nargs="+", choices=modes)
    args = parser.parse_args()
    # Every mode writes its row before any verdict is acted on.  Quick
    # runs are too short to judge a budget, so they gate only on shape.
    passed = [modes[mode](mode, args) for mode in args.modes]
    print(f"updated {args.out}")
    return 0 if args.quick or all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
