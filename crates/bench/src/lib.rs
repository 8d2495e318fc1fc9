#![warn(missing_docs)]
//! # sts-bench — benchmark harness
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
//!   harness, times the measure kernels (`similarity`), the
//!   grid-size/running-time trade-off of Fig. 12 (`grid_size`), the
//!   matching task (`matching`), the dense-vs-sparse STP ablation
//!   (`stp`), the per-trajectory STP cache against the uncached oracle
//!   (`stp_cache`), the substrate primitives (`substrates`) and the
//!   dirty-data path — repair and lenient parsing — (`chaos`) and
//!   the supervised matrix in process and in worker subprocesses
//!   (`runtime`). A smoke run of
//!   every suite hides behind `cargo test -p sts-bench -- --ignored`.
//!   `--json <path>` additionally writes the machine-readable
//!   [`report`] document (`BENCH_<name>.json` by convention).

pub mod perf;
pub mod report;
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
