#!/usr/bin/env bash
# Builds the `tr-opt` daemon and the benchmark from source, then runs
# the benchmark with the arguments given, e.g.
#
#   bash pipebench/run.sh --workload exact_suite --seed 1 --seconds 10 --trace 0
#
# Build output lands in $CARGO_TARGET_DIR (default .bench_build at the
# repository root). Build messages go to stderr; the benchmark's result
# is the last line of stdout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin tr-opt >&2
cargo build --release --offline --quiet --manifest-path pipebench/Cargo.toml >&2
exec "$target/release/pipebench" --tr-opt "$target/release/tr-opt" "$@"
