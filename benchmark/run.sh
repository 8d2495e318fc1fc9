#!/usr/bin/env bash
# Builds the repository's server and worker binaries and the benchmark
# from source into one target directory, then runs the benchmark with
# the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload match_mall --seed 1 --seconds 16 --trace 0
#
# The target directory is $CARGO_TARGET_DIR when set, else .bench_build.
# The benchmark finds sts-serve and sts-worker next to its own binary.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --target-dir "$target" \
    --bin sts-serve --bin sts-worker >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/bench" "$@"
