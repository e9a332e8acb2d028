#!/bin/sh
# Regenerate every figure CSV pinned in bench/figure_csv.sha256 from
# a built tree and check it byte for byte against its hash. Each line
# names <name>.csv, written by bench_<name> with DSASIM_CSV=1. The
# CSVs land in BUILD_DIR/figcsv/. Re-pin only with an intended model
# change.
#
#   tools/check_figure_csvs.sh BUILD_DIR
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=$(CDPATH= cd -- "$1" && pwd)
pins="$root/bench/figure_csv.sha256"

csv_dir="$build/figcsv"
mkdir -p "$csv_dir"
for name in $(awk '{ sub(/\.csv$/, "", $2); print $2 }' "$pins"); do
    DSASIM_CSV=1 "$build/bench/bench_$name" >"$csv_dir/$name.csv"
done
(cd "$csv_dir" && sha256sum --strict -c "$pins")
