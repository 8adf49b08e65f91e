#!/usr/bin/env bash
# Runs the repo's benchmarks and merges their rows into BENCH_stemming.json.
# This script parses the flags and builds what the run needs;
# tools/bench_rows.py runs the binaries, distils each row, stamps it with
# commit, date, host_cpus and build_type, and merges it into the file.
#
# Usage:
#   tools/run_bench.sh [--quick] [--overhead] [--serve-overhead]
#                      [--dashboard-overhead] [--checkpoint-overhead]
#                      [--provenance-overhead] [--throughput] [--internet]
#                      [--build-dir DIR] [--out FILE]
#
# Row flags combine; each adds its row.  With none, the script runs the
# stemming-opt benchmark: ns/op per workload size for the legacy and
# arena stemmers, the serial speedup per row, and the 1/2/4/8-thread
# curve at 330k events.  A full run fails below a 5x serial speedup.
#
#   --throughput end-to-end ingest-to-incident events/s
#                (bench_throughput --json) at 1/2/4/8 analysis threads:
#                the `throughput_events_per_sec` row, the trajectory
#                toward the 1M events/s target.  Fails unless the incident
#                stream is byte-identical across thread counts.
#   --internet   the same over the internet-scale workload
#                (workload::BuildInternetScale: 32k ASes, 210k prefixes, a
#                ~1M-route table dump plus churn): the
#                `internet_scale_throughput` row.
#
# Overhead rows run 24 (off, on) pairs each and report the median on/off
# ratio with a bootstrap 95% CI.  The run writes every row, then exits
# non-zero if a row's CI upper bound is over its budget
# (docs/OBSERVABILITY.md, "Overhead rows"):
#   --overhead   `instrumentation_overhead`: the 12k-event stemming row of
#                this build against a -DRANOMALY_NO_TRACING=ON build
#                (configured into <build>-notrace), one process per side.
#                Budget 5%.
#   --serve-overhead
#                `serve_overhead`: a 1 Hz /metrics + /varz scraper beside
#                analysis batches (bench_overhead serve).  Budget 3%.
#   --dashboard-overhead
#                `dashboard_overhead`: a 1 Hz dashboard-tab poller beside
#                the same batches (bench_overhead dashboard).  Budget 3%.
#   --checkpoint-overhead
#                `checkpoint_overhead`: an RNC1 snapshot every 16 ticks
#                during a live replay (bench_overhead checkpoint).
#                Budget 3%.
#   --provenance-overhead
#                `provenance_overhead`: the per-incident evidence ledger
#                during the same replay (bench_overhead provenance).
#                Budget 3%.
#
#   --quick      trimmed runs: 12k stemming rows with short runs, fewer
#                events, reps and threads for the throughput rows, and 3
#                pairs per overhead row, which is too few to judge a
#                budget, so only a malformed row fails.  The bench_smoke*
#                ctest entries run this.
#   --build-dir  cmake build directory (default: <repo>/build)
#   --out        output JSON path (default: <repo>/BENCH_stemming.json,
#                or <build>/BENCH_stemming_quick.json with --quick)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build"
quick=()
modes=()
out=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=(--quick); shift ;;
    --overhead) modes+=(instrumentation); shift ;;
    --serve-overhead) modes+=(serve); shift ;;
    --dashboard-overhead) modes+=(dashboard); shift ;;
    --checkpoint-overhead) modes+=(checkpoint); shift ;;
    --provenance-overhead) modes+=(provenance); shift ;;
    --throughput) modes+=(throughput); shift ;;
    --internet) modes+=(internet); shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
[[ ${#modes[@]} -gt 0 ]] || modes=(stemming)
if [[ -z "$out" ]]; then
  if [[ ${#quick[@]} -gt 0 ]]; then
    out="$build_dir/BENCH_stemming_quick.json"
  else
    out="$repo_root/BENCH_stemming.json"
  fi
fi

# Builds bench target $2 in build dir $1 unless it is already there.
need() {
  if [[ ! -x "$1/bench/$2" ]]; then
    echo "building $2 in $1 ..." >&2
    cmake --build "$1" --target "$2" -j"$(nproc)"
  fi
}

for mode in "${modes[@]}"; do
  case "$mode" in
    stemming) need "$build_dir" bench_stemming_opt ;;
    throughput|internet) need "$build_dir" bench_throughput ;;
    instrumentation)
      need "$build_dir" bench_stemming_opt
      if [[ ! -f "$build_dir-notrace/CMakeCache.txt" ]]; then
        echo "configuring NO_TRACING build in $build_dir-notrace ..." >&2
        # Mirror the traced build's type so the comparison isolates the
        # instrumentation, not the optimization level.
        build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
          "$build_dir/CMakeCache.txt")"
        cmake -B "$build_dir-notrace" -S "$repo_root" \
          -DCMAKE_BUILD_TYPE="$build_type" -DRANOMALY_NO_TRACING=ON > /dev/null
      fi
      need "$build_dir-notrace" bench_stemming_opt
      ;;
    *) need "$build_dir" bench_overhead ;;
  esac
done

exec python3 "$repo_root/tools/bench_rows.py" --build-dir "$build_dir" \
  --out "$out" "${quick[@]}" "${modes[@]}"
