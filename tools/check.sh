#!/bin/sh
# Full verification sweep: a Release build + test run, the pinned
# figure CSVs (bench/figure_csv.sha256), the static-analysis gates
# (simlint, clang-tidy, clang-format when available), an ASan/UBSan
# build + test run, and a TSan build of the threaded tests; each of
# the three builds also runs the determinism_check matrix. Run from
# anywhere;
# builds land in build-release/, build-sanitize/ and build-tsan/ next
# to the sources.
#
#   tools/check.sh [extra ctest args...]
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

run() {
    build=$1
    shift
    cmake -B "$root/$build" -S "$root" "$@" >/dev/null
    cmake --build "$root/$build" -j "$(nproc)"
    ctest --test-dir "$root/$build" --output-on-failure -j "$(nproc)"
}

echo "== Release build + tests =="
run build-release -DCMAKE_BUILD_TYPE=Release

echo "== Figure CSVs match their pinned hashes (bench/figure_csv.sha256) =="
"$root/tools/check_figure_csvs.sh" "$root/build-release"

echo "== Static analysis: simlint =="
"$root/build-release/tools/simlint" "$root/src" "$root/bench" "$root/tools"

echo "== Static analysis: clang-tidy + clang-format (if present) =="
cmake --build "$root/build-release" --target dsasim-tidy
cmake --build "$root/build-release" --target dsasim-format-check

echo "== Determinism matrix (tools/determinism_check.cc) =="
"$root/build-release/tools/determinism_check" --n=2000 --seed=1

echo "== Parallel partition gate (BENCH_parallel.json) =="
"$root/build-release/bench/bench_parallel" \
    --check="$root/BENCH_parallel.json"

echo "== Serving SLO gate (BENCH_serving.json, DESIGN.md §12) =="
"$root/build-release/bench/bench_serving" \
    --check="$root/BENCH_serving.json"

echo "== Overload soak =="
"$root/build-release/tools/chaos_soak" --overload --n=3000 --seed=1

echo "== Telemetry exporters (DESIGN.md §15) =="
# Exporter end-to-end: arm the sampler, render the CSV with
# statsdump, and sanity-check the Prometheus snapshot covers the
# component families.
tele_dir=$(mktemp -d)
DSASIM_STATS="$tele_dir/check-" \
    "$root/build-release/tools/dsa_perf_micros" \
    --op=memcpy --ts=4096 --mode=async --qd=32 >/dev/null
"$root/build-release/tools/statsdump" --list \
    "$tele_dir"/check-*.csv >/dev/null
"$root/build-release/tools/statsdump" --interval-us=100 \
    "$tele_dir"/check-*.csv >/dev/null
for metric in dsa0_descriptors_submitted dsa0_wq0_depth \
    dsa0_eng0_bytes_read dsa0_eng0_utilization \
    llc_occupancy_bytes llc_miss_bytes iommu_translations; do
    grep -q "# TYPE dsasim_$metric " "$tele_dir"/check-*.prom || {
        echo "telemetry: dsasim_$metric missing from the Prometheus \
export" >&2
        exit 1
    }
done
# Telemetry purity: the engine walk's stream_hash must match
# BENCH_engine.json with sampling armed at the default period (the
# sampler is a pure observer).
DSASIM_STATS="$tele_dir/bench-" \
    "$root/build-release/bench/bench_engine" \
    --check="$root/BENCH_engine.json"
# The serving SLO gate with every socket's sampler armed, and the
# serving<N> latency views in its Prometheus export.
DSASIM_STATS="$tele_dir/serving-" \
    "$root/build-release/bench/bench_serving" \
    --check="$root/BENCH_serving.json"
grep -q "# TYPE dsasim_serving0_completed counter" \
    "$tele_dir"/serving-*.prom || {
    echo "telemetry: dsasim_serving0_completed missing from the \
Prometheus export" >&2
    exit 1
}
rm -rf "$tele_dir"

echo "== ASan/UBSan build + tests + determinism matrix =="
# Leak checking stays off: SimTask coroutines are fire-and-forget by
# design (sim/task.hh), so tearing a platform down mid-run abandons
# the suspended frames. Heap misuse and UB are still fatal.
export ASAN_OPTIONS="detect_leaks=0${ASAN_OPTIONS:+:$ASAN_OPTIONS}"
run build-sanitize -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDSASIM_SANITIZE=address,undefined
"$root/build-sanitize/tools/determinism_check" --n=2000 --seed=1

echo "== TSan build + threaded tests + determinism matrix =="
cmake -B "$root/build-tsan" -S "$root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDSASIM_SANITIZE=thread >/dev/null
cmake --build "$root/build-tsan" -j "$(nproc)" \
    --target test_sweep test_partition determinism_check
"$root/build-tsan/tests/test_sweep"
DSASIM_PARTITIONS=4 "$root/build-tsan/tests/test_partition"
"$root/build-tsan/tools/determinism_check" --n=2000 --seed=1

echo "check.sh: all green"
