#!/usr/bin/env bash
# Tier-1 gate for the STS reproduction. The workspace is hermetic
# (zero external crates), so everything here must pass with no network
# access — --offline makes any reintroduced external dependency fail
# loudly at resolution time.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs a seeded suite; on failure, says how to replay it. Every seeded
# test in the workspace derives its cases from fixed seeds and embeds
# the failing seed in the assertion message, so the replay is exact.
run_seeded() {
    local label="$1"
    shift
    if ! "$@"; then
        echo "!! ${label} failed. Seeds are fixed and the failing seed is named in the assertion output above."
        echo "!! replay: $* -- --nocapture"
        exit 1
    fi
}

echo "== build (release, offline) =="
cargo build --workspace --release --offline

# --no-fail-fast: one failing test binary must not hide the results of
# the others.
echo "== test (offline) =="
cargo test --workspace -q --offline --no-fail-fast

# The examples check their own results (planted pairs recovered, the
# tiled top-k equal to the in-memory one bit for bit, …) and exit
# non-zero when a check fails; companion_detection and scalable_query
# drive the strict matrix and tiled top-k views end to end. The five
# seeded examples must also print exactly their record in
# results/examples.txt (their output does not depend on STS_THREADS);
# to regenerate the record after an intended change, run the loop below
# with its output redirected to that file. observe_job prints timings,
# so it gates on exit status only.
echo "== examples (self-checking; seeded output vs results/examples.txt) =="
examples_out="$(mktemp)"
for example in quickstart contact_tracing companion_detection \
    cross_system_linking scalable_query; do
    echo "=== ${example} ===" >>"${examples_out}"
    cargo run -q --release --offline --example "${example}" >>"${examples_out}"
done
if ! diff -u results/examples.txt "${examples_out}"; then
    echo "!! example output differs from results/examples.txt"
    rm -f "${examples_out}"
    exit 1
fi
rm -f "${examples_out}"
cargo run -q --release --offline --example observe_job >/dev/null

# Explicit robustness gate: the chaos property suite (every fault
# injector, 100+ seeded cases each, through repair → prepare → STP →
# similarity under catch_unwind) and the byte-mangling fuzz of the
# lenient reader. Both also run inside the workspace tests above; the
# dedicated step keeps a regression here from hiding in the noise.
echo "== chaos (fault injection + lenient-reader fuzz; seeds 0..128 per injector) =="
run_seeded "chaos suite" cargo test -p sts-robust -q --offline --test chaos

# Supervised batch runtime gate: budget/deadline/cancellation
# semantics, per-cell retries and the soft-timeout watchdog, and the
# panic/slow-pair injection suite driving a real 64-trajectory job.
# (Crash → resume runs through tiles; the tiles step gates it.)
echo "== runtime (deadlines, cancellation, retries, watchdog; fixed seeds) =="
run_seeded "runtime unit tests" cargo test -p sts-runtime -q --offline
run_seeded "job lifecycle suite" cargo test -p sts-core -q --offline --test job_lifecycle
run_seeded "supervised chaos suite" cargo test -p sts-robust -q --offline --test supervised_chaos

# Process-isolation gate: the worker-fleet coordinator's units (lease
# policy and the Subprocess bisection policy against scripted workers
# that die, hang and garble), the sts-isolate frame codec and
# transport, and the crash suite — real worker processes aborted,
# wedged, SIGKILLed and garbled, with poison-pair attribution compared
# against the fault plan's prediction, across fixed seeds.
echo "== isolation (fleet coordinator + frame codec + crash suite; fixed seeds) =="
run_seeded "fleet coordinator unit tests" cargo test -p sts-core -q --offline --lib shard
run_seeded "frame codec and transport tests" cargo test -p sts-isolate -q --offline
run_seeded "isolation crash suite" cargo test -p sts-repro -q --offline --test isolation

# Out-of-core tiling gate: the disk-chaos suite (seeded torn writes,
# bit flips, ENOSPC, stale tmp debris through the injectable storage
# trait; byte-identical matrices and exact injection accounting across
# 8 seeds) and the tile crash suite — a real tiled job SIGKILLed
# mid-spill, resumed from the surviving tiles, byte-compared against an
# uninterrupted run. Runs after the workspace tests above so the debug
# sts-worker binary exists for tile-drive.
echo "== tiles (disk chaos + SIGKILL resume; fixed seeds) =="
run_seeded "tile chaos suite" cargo test -p sts-robust -q --offline --test tile_chaos
run_seeded "tile crash suite" cargo test -p sts-repro -q --offline --test tile_crash

# Sharded-execution gate: the network-chaos suite (seeded frame drops,
# delays, corruption, duplicates, disconnects and wedges through the
# injectable transport seam; byte-identical matrices and exact
# corruption accounting across 8 seeds) and the shard crash suite —
# real serve-tcp workers SIGKILLed mid-tile, tiles re-leased, the
# finished matrix byte-compared against an in-process run, plus the
# fleet-exhaustion → local-compute degradation path.
echo "== shard (network chaos + worker SIGKILL; fixed seeds) =="
run_seeded "network chaos suite" cargo test -p sts-robust -q --offline --test net_chaos
run_seeded "shard crash suite" cargo test -p sts-repro -q --offline --test shard_crash

# Streaming-service gate: sts-serve's own unit tests (WAL commit,
# recovery and quarantine, snapshot fallback, state replay), the serve
# chaos suite (send-side network faults reconciled *exactly* against
# the server's ingest counters, full-duplex survival, disk faults split
# into silent/honest ledgers, byte-mangler fuzz of the listener) and
# the serve crash suite — the real sts-serve binary SIGKILLed at
# seed-staggered moments mid-ingest, restarted, resent above the
# durable horizon, and byte-compared against an uninterrupted run
# across 8 seeds.
echo "== serve (unit tests + ingest chaos + SIGKILL recovery; fixed seeds) =="
run_seeded "serve unit tests" cargo test -p sts-serve -q --offline --lib
run_seeded "serve chaos suite" cargo test -p sts-robust -q --offline --test serve_chaos
run_seeded "serve crash suite" cargo test -p sts-repro -q --offline --test serve_crash

# Bridge-kernel gate: the stprob unit tests (the box correlation equals
# a scalar per-candidate stencil loop bit for bit on the walker,
# ragged-column, single-cell and corner-clipped grids and under
# stp_dense; sparse ≡ dense; table ≡ pairwise; the pinned kernel work)
# and the kernel's relative-error bound against the pairwise
# probability() path on both evaluation scenarios.
echo "== kernel (box correlation ≡ scalar stencil + error bound vs pairwise; fixed seeds) =="
run_seeded "stprob unit tests" cargo test -p sts-core -q --offline --lib stprob
run_seeded "kernel bound suite" cargo test -p sts-repro -q --offline --test kernel_bound

# STP-cache equivalence gate: the differential suite proving the cached
# sparse hot path equals the uncached oracle — bit-exact matrices,
# top-k, crash/resume and subprocess runs for exact mode, plus the
# sts_rng::check property tests over distributions and visitation
# order. Runs after the workspace tests above so the debug sts-worker
# binary exists for the subprocess cases. The eval-count guard checks
# that the cache saves work at all: Exact spends fewer STP evaluations
# per scored pair than Off.
echo "== stp cache (differential equivalence + property tests + eval-count guard; fixed seeds) =="
run_seeded "stp cache equivalence suite" cargo test -p sts-core -q --offline --test stp_cache_equiv
run_seeded "stp eval-count guard" cargo test -p sts-bench -q --offline --test stp_cache_smoke

# Telemetry gate: the std-only observability crate (metrics registry,
# tracing layer, JSONL writers) plus the end-to-end telemetry and
# overhead-guard suites that drive a real supervised job with tracing
# on and assert the disabled paths stay cheap.
echo "== telemetry (sts-obs unit tests + end-to-end tracing/overhead) =="
run_seeded "obs unit tests" cargo test -p sts-obs -q --offline
run_seeded "telemetry suite" cargo test -p sts-core -q --offline --test telemetry
run_seeded "telemetry overhead guard" cargo test -p sts-core -q --offline --test telemetry_overhead

# Contended STP-cache fill: the two 1 × N telemetry tests score one
# query against every candidate in 1-pair chunks on eight threads, so
# the threads race to claim the query's stamps; the second injects a
# panic inside a claimed evaluation. Twenty runs of each under a
# timeout: a lost wake-up or a leaked claim fails as a hang with its
# replay line instead of passing by luck.
echo "== stp cache fill (contended 1 × N claims + a panicking evaluation; 20 runs each, timed out) =="
cargo test -p sts-core -q --offline --test telemetry --no-run
for run in $(seq 1 20); do
    for test in metric_totals_are_thread_count_invariant \
        a_panicking_evaluation_neither_hangs_the_fill_nor_changes_a_score; do
        run_seeded "${test} (run ${run} of 20)" timeout 120 \
            cargo test -p sts-core -q --offline --test telemetry "${test}"
    done
done

# Benchmark gate: the benchmark package's own tests (workload smoke
# runs with their correctness checks, calibration comparison, trace
# output). The benchmark compiles against sts-core, so an API change
# that breaks it fails here rather than when the benchmark is next run.
# Built into the benchmark's own target directory, next to the
# sts-serve/sts-worker binaries its fleet and serve workloads spawn.
echo "== benchmark (own tests; workload smoke + correctness checks) =="
cargo build --release --offline --target-dir .bench_build --bin sts-serve --bin sts-worker
cargo test --release --offline --target-dir .bench_build --manifest-path benchmark/Cargo.toml

# Documented perf commands, end to end: two paper-facing timing suites
# at the smoke config, and the timeline recipe — a traced chaos fleet
# run replayed by `perf --timeline`. Gates on exit status only: timings
# are the benchmark's business (benchmark/). The chaos run's killed
# workers leave orphan `worker.chunk` spans, so the replay warns; that
# warning is expected here.
echo "== perf + timeline (documented commands; exit status only) =="
cargo run -q -p sts-bench --release --offline --bin perf -- --quick stp substrates
trace_dir="$(mktemp -d)"
STS_TRACE="${trace_dir}/chaos.jsonl" \
    cargo run -q --release --offline --bin sts-worker -- chaos subprocess 1 >/dev/null
cargo run -q -p sts-bench --release --offline --bin perf -- --timeline "${trace_dir}/chaos.jsonl"
rm -rf "${trace_dir}"

echo "== format =="
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "rustfmt not installed; skipping format check"
fi

echo "== ci green =="
