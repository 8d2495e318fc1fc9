#![warn(missing_docs)]
//! # sts-benchmark — the repository benchmark
//!
//! One command builds the program from source, runs four seeded
//! workloads, checks their outputs and prints every metric by name and
//! unit:
//!
//! ```text
//! bash benchmark/run.sh [--workload W]... [--seed S] [--seconds N]
//!                       [--trace 0|1|DIR] [--json OUT] [--smoke]
//! bash benchmark/run.sh compare BASE.jsonl NEW.jsonl
//! ```
//!
//! | workload      | what runs | what it separates |
//! |---------------|-----------|-------------------|
//! | `match_mall`  | exact-mode supervised matrix over sporadically sampled mall pedestrians, then top-1 matching | bridge STP evaluation with little cache reuse (the kernel) |
//! | `topk_taxi`   | tiled top-k over taxis whose beacons share one time lattice | the STP cache (few evaluations per pair), pool scheduling, the top-k merge |
//! | `fleet_taxi`  | full tiled matrix on a two-worker `sts-worker` fleet, spilling every tile | the distribution tax and tile writes |
//! | `serve_mixed` | a real `sts-serve` under open-loop ingest and queries, then SIGKILL and recovery | the WAL, state mutex and per-query STP |
//!
//! Each workload runs in its own child process (`bench --run-one W`), so
//! peak memory and the `sts-obs` registry are per workload. End-to-end
//! metrics ([`report::END_TO_END`]) come from an untraced run; with
//! `--trace` a second pass replays a fixed sample through the layers'
//! public functions, each call in a span, and derives the per-layer
//! metrics ([`report::PER_LAYER`]). [`compare`] turns two run-sets into
//! per-metric verdicts using the bounds in `BENCHMARK.json`, and
//! [`timing`] is the noise band every number is reported with.
//! `benchmark/BENCHMARK.md` documents the workloads, metrics, the
//! layer-to-end-to-end map and the calibration procedure.

pub mod batch;
pub mod compare;
pub mod inputs;
pub mod json;
pub mod report;
pub mod serve;
pub mod storage;
pub mod timing;
pub mod trace;

use std::path::PathBuf;

/// The benchmark's workloads, in run order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See [`batch::BatchKind::MatchMall`].
    MatchMall,
    /// See [`batch::BatchKind::TopkTaxi`].
    TopkTaxi,
    /// See [`batch::BatchKind::FleetTaxi`].
    FleetTaxi,
    /// See [`serve`].
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::MatchMall,
        Workload::TopkTaxi,
        Workload::FleetTaxi,
        Workload::ServeMixed,
    ];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MatchMall => "match_mall",
            Workload::TopkTaxi => "topk_taxi",
            Workload::FleetTaxi => "fleet_taxi",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Environment the workload's child process runs with: fleet
    /// workers score on one thread each, so two workers use the same
    /// two cores the in-process workloads do.
    pub fn child_env(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::FleetTaxi => &[("STS_THREADS", "1")],
            _ => &[],
        }
    }
}

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload's name (names the trace file).
    pub workload: &'static str,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Where the traced pass writes `<workload>.jsonl`; `None` skips it.
    pub trace_dir: Option<PathBuf>,
    /// Seconds-scale inputs, for the smoke test.
    pub smoke: bool,
    /// Perturb every reference value the checks compare against, so a
    /// run must fail: proves the checks are not vacuous.
    pub inject_mismatch: bool,
    /// Scratch directory for tiles, server data and WAL replays.
    pub work_dir: PathBuf,
}

/// Runs one workload in this process.
pub fn run_workload(w: Workload, opts: &RunOptions) -> Result<report::RunResult, String> {
    match w {
        Workload::MatchMall => batch::run(batch::BatchKind::MatchMall, opts),
        Workload::TopkTaxi => batch::run(batch::BatchKind::TopkTaxi, opts),
        Workload::FleetTaxi => batch::run(batch::BatchKind::FleetTaxi, opts),
        Workload::ServeMixed => serve::run(opts),
    }
}
