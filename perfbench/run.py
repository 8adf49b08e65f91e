#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload replay_internet --seed 1 \
        --seconds 55 --trace 0

Run from the root of a source checkout.  The script

  1. builds perfbench/ (the ranomaly sources plus the two benchmark
     programs) into $CARGO_TARGET_DIR/perfbench, default .bench_build/;
  2. writes the workload's RNE1 capture for the seed with perfbench_gen,
     twice (or once, against the digest an earlier run of the same
     sources recorded for the seed), and fails the run unless the files
     are byte-identical;
  3. runs perfbench_run, the measured process, on the capture;
  4. checks that the incident-log digest matches every earlier run of
     the same sources, workload and seed;
  5. prints a stamp line (commit, date, nproc, build type, seed, capture
     digest, host speed) and, as the last line, one JSON object with the
     keys correct, attempted, failed and metrics.  --trace 0 reports the
     end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones.

`--smoke` runs every workload at tiny sizes, untraced and traced, with
the thread-count self-check, and exits 0 only if all of it passes.
See perfbench/README.md.
"""

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay_internet", "serve_churn", "batch_full")
BUILD_TYPE = "Release"
# The host-speed probes perfbench_run times after each iteration: a CPU
# loop and a chase through the shared cache.  A run in which either
# varies more than HOST_DRIFT_BAND (slowest / fastest) ran on a host that
# changed speed under it; its stamp says so.
PROBES = ("host_spin_ms", "host_chase_ms")
HOST_DRIFT_BAND = 1.5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(out):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (ROOT / "src" / "core" / "live.h").is_file():
        raise RuntimeError(f"ranomaly sources not found under {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   check=True, stdout=sys.stderr)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")


def source_sha256():
    """SHA-256 of src/ and perfbench/: identifies the code under test,
    with or without git."""
    source = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*")):
        if p.is_file():
            source.update(p.relative_to(ROOT).as_posix().encode())
            source.update(p.read_bytes())
    return source.hexdigest()


def generate(out, key, workload, seed, scale, checks):
    """Writes the capture; returns (path, facts).  Checks determinism.

    `key` names the sources as well as the workload, scale and seed, so a
    recorded capture digest is only compared with runs of the same code."""
    captures = out / "captures"
    captures.mkdir(parents=True, exist_ok=True)
    path = captures / f"{key}.rne1"
    record_path = captures / f"{key}.json"

    def gen(target):
        proc = subprocess.run(
            [str(out / "perfbench_gen"), "--workload", workload, "--seed",
             str(seed), "--scale", scale, "--out", str(target)],
            check=True, stdout=subprocess.PIPE, text=True)
        facts = json.loads(proc.stdout.strip().splitlines()[-1])
        facts["sha256"] = sha256(target)
        facts["bytes"] = target.stat().st_size
        return facts

    facts = gen(path)
    if record_path.is_file():
        reference = json.loads(record_path.read_text())
    else:
        second = path.with_suffix(".second")
        reference = gen(second)
        second.unlink()
        record_path.write_text(json.dumps(reference, sort_keys=True) + "\n")
    checks.expect(facts == reference,
                  f"generator output differs between two runs of seed {seed}")
    checks.expect(facts["events"] == facts["routing_events"],
                  "capture holds marker events")
    return path, facts


def stamp(workload, seed, scale, facts, source, probes):
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    drift = 1.0
    for values in probes.values():
        values = sorted(values) or [0.0]
        drift = max(drift, values[-1] / values[0] if values[0] > 0
                    else float("inf"))
    return {
        "commit": commit,
        # A checkout without git still gets a reproducible identity.
        "source_sha256": source,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "capture_sha256": facts["sha256"],
        "capture_bytes": facts["bytes"],
        "capture_events": facts["events"],
        # Compare the probes' medians across runs to tell a slower host
        # from a slower program.
        **{name: statistics.median(values or [0.0])
           for name, values in probes.items()},
        "host_drift": drift,
        "host_steady": drift <= HOST_DRIFT_BAND,
    }


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(workload, seed, seconds, trace, scale="full", self_check=False):
    """Runs one workload; returns (result dict, stamp dict)."""
    out = build_dir()
    build(out)
    checks = Checks()
    source = source_sha256()
    key = f"{source[:16]}-{workload}-{scale}-{seed}"
    capture, facts = generate(out, key, workload, seed, scale, checks)
    work = out / "work" / f"{workload}-{scale}-{seed}-{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench_run"), "--workload", workload,
           "--capture", str(capture), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", str(work),
           "--expect-events", str(facts["events"]),
           "--expect-prefixes", str(facts["routed_prefixes"]),
           "--self-check", "1" if self_check else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    finally:
        capture.unlink(missing_ok=True)
    lines = proc.stdout.strip().splitlines()
    raw = json.loads(lines[-1]) if lines else {
        "attempted": 0, "failed": 0, "metrics": {}, "digest": ""}
    checks.attempted += raw["attempted"]
    checks.failed += raw["failed"]
    checks.expect(proc.returncode == 0,
                  f"perfbench_run exited {proc.returncode}: {raw.get('failures')}")

    digests = out / "digests"
    digests.mkdir(exist_ok=True)
    digest_path = digests / f"{key}.txt"
    if raw["digest"]:
        if digest_path.is_file():
            checks.expect(digest_path.read_text().strip() == raw["digest"],
                          "incident log digest differs from an earlier run "
                          f"of the same sources and seed {seed}")
        else:
            digest_path.write_text(raw["digest"] + "\n")

    metrics = {}
    names = metric_names(trace)
    for name in names:
        if name in raw["metrics"]:
            metrics[name] = raw["metrics"][name]
        elif name != "error_ratio":
            checks.expect(False, f"metric {name} was not measured")
    if "error_ratio" in names:
        metrics["error_ratio"] = {
            "value": checks.failed / max(1, checks.attempted), "unit": "ratio"}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    info = stamp(workload, seed, scale, facts, source,
                 {name: raw.get(name, []) for name in PROBES})
    if not info["host_steady"]:
        log(f"host speed drifted during the run: a host-speed probe "
            f"varied {info['host_drift']:.2f}x (band {HOST_DRIFT_BAND}x)")
    info["iterations"] = raw.get("iterations")
    info["incident_digest"] = raw["digest"]
    results = out / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-{scale}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"stamp": info, "result": result,
                    "all_metrics": raw["metrics"]}, indent=1) + "\n")
    return result, info


def smoke():
    """Every workload at tiny size, untraced and traced, every check."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            t0 = time.monotonic()
            result, _ = run(workload, seed=1, seconds=1, trace=trace,
                            scale="tiny", self_check=True)
            missing = [n for n in metric_names(trace)
                       if n not in result["metrics"]]
            passed = result["correct"] and not missing
            ok &= passed
            print(f"{workload:16s} trace={int(trace)} "
                  f"{'ok' if passed else 'FAIL'} "
                  f"({result['attempted']} checks, {result['failed']} failed, "
                  f"{time.monotonic() - t0:.1f} s)", flush=True)
    print("smoke:", "ok" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-check", action="store_true",
                        help="also replay at 1 and 4 threads and compare digests")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload and check")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, info = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.scale, args.self_check)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        return 2
    print(json.dumps({"stamp": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
