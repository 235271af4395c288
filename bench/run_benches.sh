#!/usr/bin/env bash
# Runs the perf-trajectory benchmark suites and captures machine-readable
# results:
#   BENCH_spatial.json  — spatial-index fast path (point location, snapping,
#                         memoized routing, batch distances, venue scaling)
#   BENCH_service.json  — end-to-end Service translation throughput
#   BENCH_cleaning.json — columnar cleaning: the vectorized SoA RecordBlock
#                         pipeline + scratch reuse vs the AoS reference
#                         cleaner (tests/testing/reference_cleaner.h), the
#                         snap-heavy high-noise configuration,
#                         parallel passes at 1-8 threads, combined
#                         SnapIfOutside vs the two-call pair, and the batched
#                         vs per-record snap (with snap-probe counters)
#   BENCH_routing.json  — CH-lite contracted portal graph vs the flat clique
#                         reference (FindRoute cached/uncached, batch
#                         distances, planner build) at 1x/4x/16x venue scale
#   BENCH_cluster.json  — multi-venue Cluster ingest throughput at 1/2/4/8
#                         venue shards, balanced and skewed feeds, plus
#                         city-wide analytics fan-out
#   BENCH_obs_overhead.json — metrics-subsystem cost: Counter/Histogram
#                         primitives (enabled and gated off) and end-to-end
#                         Service throughput with recording on vs off (the
#                         < 2% overhead gate)
#   BENCH_store.json    — TripStore storage axes on the tiled ~100x corpus
#                         (TRIPS_BENCH_STORE_SCALE tiles, one day each):
#                         cold open + first window (footers mapped, only the
#                         overlapped segments decoded), windowed scans on the
#                         partitioned vs flat layout, plus append/history/
#                         visitor latencies
#
# Usage: bench/run_benches.sh [build_dir] [out_dir] [min_time]
#   build_dir  where the bench binaries live        (default: build)
#   out_dir    where the JSON files are written     (default: repo root)
#   min_time   google-benchmark --benchmark_min_time (default: 0.05)
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
MIN_TIME="${3:-0.05}"
mkdir -p "$OUT_DIR"

if [[ ! -x "$BUILD_DIR/bench_spatial_index" ]]; then
  echo "error: $BUILD_DIR/bench_spatial_index not found." >&2
  echo "Configure with google-benchmark available and build first, e.g.:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j" >&2
  exit 1
fi

# google-benchmark >= 1.7 wants a unit suffix on --benchmark_min_time; older
# releases reject it. Probe once and use whichever form this binary accepts.
min_time_flag="--benchmark_min_time=${MIN_TIME}s"
if ! "$BUILD_DIR/bench_spatial_index" --benchmark_list_tests "$min_time_flag" \
    >/dev/null 2>&1; then
  min_time_flag="--benchmark_min_time=${MIN_TIME}"
fi

run_suite() {
  local binary="$1" out="$2" filter="${3:-}"
  local args=("$min_time_flag" "--benchmark_format=json" "--benchmark_out=$out"
              "--benchmark_out_format=json")
  if [[ -n "$filter" ]]; then args+=("--benchmark_filter=$filter"); fi
  echo "== $binary -> $out"
  "$BUILD_DIR/$binary" "${args[@]}" > /dev/null
}

run_suite bench_spatial_index "$OUT_DIR/BENCH_spatial.json"
run_suite bench_service_throughput "$OUT_DIR/BENCH_service.json"
run_suite bench_cleaning "$OUT_DIR/BENCH_cleaning.json"
run_suite bench_routing "$OUT_DIR/BENCH_routing.json"
run_suite bench_cluster "$OUT_DIR/BENCH_cluster.json"
run_suite bench_obs_overhead "$OUT_DIR/BENCH_obs_overhead.json"
# Filtered to the registered benchmarks so the default latency-study payload
# (meant for humans) doesn't slow the JSON capture down.
run_suite bench_store_query "$OUT_DIR/BENCH_store.json" \
  'BM_StoreAppend|BM_DeviceHistory|BM_RegionVisitors|BM_ColdOpenFirstWindow|BM_WindowScan'

echo "Wrote $OUT_DIR/BENCH_spatial.json, $OUT_DIR/BENCH_service.json, $OUT_DIR/BENCH_cleaning.json, $OUT_DIR/BENCH_routing.json, $OUT_DIR/BENCH_cluster.json, $OUT_DIR/BENCH_obs_overhead.json and $OUT_DIR/BENCH_store.json"
