#![warn(missing_docs)]
//! # sts-bench — paper-facing harness
//!
//! Two entry points:
//!
//! * the `repro` binary (`cargo run -p sts-bench --release --bin repro
//!   -- <experiment id | all> [--n N] [--full] [--seed S]`) regenerates
//!   the series behind every evaluation figure of the paper (Figs.
//!   4–14 plus the headline-improvement aggregate) and prints them as
//!   text tables;
//! * the `perf` binary (`cargo run -p sts-bench --release --bin perf
//!   [-- --quick] [-- <suite>]`), built on the in-repo [`timing`]
//!   harness, times what the paper reports: the measure kernels
//!   (`similarity`), the grid-size/running-time trade-off of Fig. 12
//!   (`grid_size`), the matching task (`matching`), the dense-vs-sparse
//!   STP ablation (`stp`) and the substrate primitives (`substrates`).
//!   A smoke run of every suite hides behind
//!   `cargo test -p sts-bench -- --ignored`. `perf --timeline
//!   <trace.jsonl>` replays a traced fleet run instead.
//!
//! Engine throughput and latency are the repository benchmark's
//! (`benchmark/`, see `benchmark/BENCHMARK.md`), not this crate's.

pub mod perf;
pub mod timing;

pub use sts_eval::experiments::{run, ExperimentConfig};
use sts_eval::scenario::ScenarioKind;

/// Shared fixture: a small deterministic mall scenario for benches.
pub fn bench_mall(n_objects: usize) -> sts_eval::Scenario {
    sts_eval::Scenario::build(sts_eval::ScenarioConfig {
        kind: ScenarioKind::Mall,
        n_objects,
        seed: 0xBE7C,
    })
}

/// Shared fixture: a small deterministic taxi scenario for benches.
pub fn bench_taxi(n_objects: usize) -> sts_eval::Scenario {
    sts_eval::Scenario::build(sts_eval::ScenarioConfig {
        kind: ScenarioKind::Taxi,
        n_objects,
        seed: 0xBE7C,
    })
}
