#!/usr/bin/env bash
# Builds hamlet-serve and the benchmark from source, then runs one workload.
#
#   bash e2ebench/run.sh --workload small_raw --seed 1 --seconds 10 --trace 0
#
# Run from the root of a hamlet checkout. Build output goes to stderr and
# the last line of stdout is the run's JSON result. Builds land in
# $CARGO_TARGET_DIR (default .bench_build); records in .bench_out.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -d e2ebench ]]; then
    echo "e2ebench: run from the root of a hamlet checkout" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p hamlet-serve --bin hamlet-serve >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2

exec "$target/release/e2ebench" --server "$target/release/hamlet-serve" "$@"
