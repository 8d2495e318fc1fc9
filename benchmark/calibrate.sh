#!/usr/bin/env bash
# Records two run-sets of the same code and compares them: every
# workload, seeds 1..N, alternating which set runs first for each seed.
# The two sets must come out "unchanged" on every end-to-end metric, and
# each metric's spread (interquartile distance over median, across the
# seeds) should sit well inside its bound in BENCHMARK.json.
#
# Usage, from the repository root:
#
#   bash benchmark/calibrate.sh OUT_DIR [N]
#
# Writes OUT_DIR/set_a.jsonl and OUT_DIR/set_b.jsonl and prints
# `bench compare` of the two.
set -euo pipefail

out="${1:?usage: calibrate.sh OUT_DIR [N]}"
seeds="${2:-10}"
mkdir -p "$out"
for workload in match_mall topk_taxi fleet_taxi serve_mixed; do
    for seed in $(seq 1 "$seeds"); do
        if ((seed % 2)); then order="a b"; else order="b a"; fi
        for set in $order; do
            bash benchmark/run.sh --workload "$workload" --seed "$seed" --trace 0 \
                --json "$out/set_$set.jsonl" >/dev/null
        done
    done
done
bash benchmark/run.sh compare "$out/set_a.jsonl" "$out/set_b.jsonl"
