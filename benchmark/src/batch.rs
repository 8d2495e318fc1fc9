//! The three batch workloads: `match_mall`, `topk_taxi` and
//! `fleet_taxi`.
//!
//! Each sets up [`SETUP_REPS`] times (inputs, measure, one untimed job;
//! the first is the warm-up), then times whole jobs until the measured
//! time is spent (at least [`MIN_TIMED_REPS`]). The job is the request
//! a batch user waits for:
//! `pairs_per_s` is the matrix's pairs over one job's wall time and the
//! latency metrics are order statistics of job wall times.

use crate::inputs::{sub_seed, BatchInputs, BatchShape};
use crate::report::{Metrics, RunResult};
use crate::storage::CountingStorage;
use crate::timing::{nearest_rank, Band};
use crate::trace::{self, Layers};
use crate::RunOptions;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sts_core::transition::SpeedKdeTransition;
use sts_core::{
    ExecMode, GaussianNoise, JobConfig, JobReport, PairOutcome, ShardOptions, StpCacheMode,
    StpEstimator, StpEvalScratch, StpScratch, Sts, TileConfig, TILE_CELL_BYTES,
};
use sts_eval::metrics::{precision, ranks_of_true_matches};
use sts_eval::scenario::ScenarioKind;
use sts_obs::trace::span;
use sts_rng::{Rng, Xoshiro256pp};
use sts_stats::Kernel;
use sts_traj::Trajectory;

/// Compute threads of the in-process jobs, and workers of the fleet.
/// Fixed rather than read from the host so runs on different machines
/// describe the same workload.
pub const PARALLELISM: usize = 2;
/// Timed jobs per run, at least.
pub const MIN_TIMED_REPS: usize = 3;
/// Set-ups per run, the first of them the warm-up; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 3;
/// `k` of the top-k workload.
pub const TOP_K: usize = 10;
/// Cells checked bit for bit against the uncached reference.
const CHECK_CELLS: usize = 16;
/// Top-k rows checked against an exhaustive scan.
const CHECK_ROWS: usize = 8;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// Exact-mode matching matrix over sporadically sampled mall
    /// pedestrians, in process.
    MatchMall,
    /// Tiled top-k over taxis on a shared beacon lattice, in process.
    TopkTaxi,
    /// Full tiled matrix over taxis on a two-worker socket fleet.
    FleetTaxi,
}

impl BatchKind {
    /// The frozen input shape (the `--smoke` shape is a few seconds'
    /// worth of the same thing).
    pub fn shape(self, smoke: bool) -> BatchShape {
        let (kind, n_objects, beta) = match (self, smoke) {
            (BatchKind::MatchMall, false) => (ScenarioKind::Mall, 16, 4.0),
            (BatchKind::MatchMall, true) => (ScenarioKind::Mall, 5, 4.0),
            (BatchKind::TopkTaxi, false) => (ScenarioKind::Taxi, 260, 40.0),
            (BatchKind::TopkTaxi, true) => (ScenarioKind::Taxi, 24, 40.0),
            (BatchKind::FleetTaxi, false) => (ScenarioKind::Taxi, 200, 40.0),
            (BatchKind::FleetTaxi, true) => (ScenarioKind::Taxi, 20, 40.0),
        };
        BatchShape {
            kind,
            n_objects,
            rate: 0.3,
            beta,
        }
    }

    fn job_config(self) -> JobConfig {
        let exec = match self {
            BatchKind::FleetTaxi => ExecMode::Sharded(ShardOptions {
                workers: PARALLELISM,
                ..ShardOptions::default()
            }),
            _ => ExecMode::InProcess,
        };
        JobConfig {
            threads: PARALLELISM,
            telemetry: true,
            exec,
            ..JobConfig::default()
        }
    }
}

/// What one job returned.
enum Output {
    Matrix(Vec<Vec<PairOutcome>>),
    TopK(Vec<Vec<(usize, f64)>>),
}

struct Job {
    wall: Duration,
    output: Output,
    report: JobReport,
}

/// A tile configuration holding an eighth of the matrix in memory, so
/// every job spills.
fn tiling(
    dir: &std::path::Path,
    pairs: usize,
    storage: Arc<dyn sts_runtime::Storage>,
) -> TileConfig {
    TileConfig {
        storage,
        ..TileConfig::with_memory_budget(dir, (pairs / 8).max(1) * TILE_CELL_BYTES)
    }
}

fn run_job(
    kind: BatchKind,
    sts: &Sts,
    queries: &[Trajectory],
    candidates: &[Trajectory],
    tiles: &TileConfig,
) -> Result<Job, String> {
    let cfg = kind.job_config();
    let started = Instant::now();
    let (output, report) = match kind {
        BatchKind::MatchMall => {
            let (m, r) = sts
                .similarity_matrix_supervised(queries, candidates, &cfg)
                .map_err(|e| e.to_string())?;
            (Output::Matrix(m), r)
        }
        BatchKind::TopkTaxi => {
            let (rows, r) = sts
                .top_k_matrix_tiled(queries, candidates, TOP_K, &cfg, tiles)
                .map_err(|e| e.to_string())?;
            (Output::TopK(rows), r)
        }
        BatchKind::FleetTaxi => {
            let (m, r) = sts
                .similarity_matrix_tiled(queries, candidates, &cfg, tiles)
                .map_err(|e| e.to_string())?;
            (Output::Matrix(m), r)
        }
    };
    Ok(Job {
        wall: started.elapsed(),
        output,
        report,
    })
}

/// Cells of a `rows × cols` job that did not produce a score.
fn failed_cells(job: &Job, rows: usize, cols: usize) -> u64 {
    match &job.output {
        Output::Matrix(m) => m.iter().flatten().filter(|c| c.score().is_none()).count() as u64,
        Output::TopK(_) => {
            let s = &job.report.stats;
            let b = &job.report.batch;
            let (qq, qc) = (b.quarantined_queries.len(), b.quarantined_candidates.len());
            let quarantined = qq * cols + qc * rows - qq * qc;
            (s.pairs_failed + s.pairs_skipped + quarantined) as u64
        }
    }
}

/// Share of queries whose true partner (same index) ranks first.
fn match_precision(output: &Output) -> f64 {
    match output {
        Output::Matrix(m) => {
            let scores: Vec<Vec<f64>> = m
                .iter()
                .map(|row| row.iter().map(|c| c.score_or(0.0)).collect())
                .collect();
            precision(&ranks_of_true_matches(&scores))
        }
        Output::TopK(rows) => {
            let hits = rows
                .iter()
                .enumerate()
                .filter(|(i, row)| row.first().map(|&(j, _)| j) == Some(*i))
                .count();
            hits as f64 / rows.len().max(1) as f64
        }
    }
}

fn flip(v: f64, inject: bool) -> f64 {
    if inject {
        f64::from_bits(v.to_bits() ^ 1)
    } else {
        v
    }
}

/// Compares the job's output against references: sampled cells against
/// the uncached `StpCacheMode::Off` path, and (top-k) sampled rows
/// against an exhaustive `similarity_prepared` scan.
fn check(kind: BatchKind, inputs: &BatchInputs, output: &Output, opts: &RunOptions) -> Vec<String> {
    let mut problems = Vec::new();
    let mut rng = Xoshiro256pp::seed_from_u64(sub_seed(opts.seed, 5));
    let off = inputs.measure(StpCacheMode::Off);
    let (rows, cols) = (inputs.queries.len(), inputs.candidates.len());
    let mut cells: Vec<(usize, usize, Option<f64>)> = Vec::new();
    for _ in 0..CHECK_CELLS {
        match output {
            Output::Matrix(m) => {
                let (i, j) = (rng.random_range(0..rows), rng.random_range(0..cols));
                cells.push((i, j, m[i][j].score()));
            }
            Output::TopK(r) => {
                let i = rng.random_range(0..rows);
                let e = rng.random_range(0..r[i].len().max(1));
                match r[i].get(e) {
                    Some(&(j, s)) => cells.push((i, j, Some(s))),
                    None => problems.push(format!("top-k row {i} is empty")),
                }
            }
        }
    }
    for (i, j, got) in cells {
        let want = off
            .similarity(&inputs.queries[i], &inputs.candidates[j])
            .map(|s| flip(s, opts.inject_mismatch));
        match (got, want) {
            (Some(g), Ok(w)) if g.to_bits() == w.to_bits() => {}
            (g, w) => problems.push(format!(
                "cell ({i}, {j}): job {g:?} vs uncached reference {w:?}"
            )),
        }
    }
    if let (BatchKind::TopkTaxi, Output::TopK(top)) = (kind, output) {
        let sts = &inputs.sts;
        let prepared: Result<Vec<_>, _> =
            inputs.candidates.iter().map(|c| sts.prepare(c)).collect();
        let prepared = match prepared {
            Ok(p) => p,
            Err(e) => return vec![format!("candidate preparation failed: {e}")],
        };
        for _ in 0..CHECK_ROWS {
            let i = rng.random_range(0..rows);
            let q = match sts.prepare(&inputs.queries[i]) {
                Ok(q) => q,
                Err(e) => {
                    problems.push(format!("query {i} preparation failed: {e}"));
                    continue;
                }
            };
            let mut scan: Vec<(usize, f64)> = prepared
                .iter()
                .enumerate()
                .map(|(j, c)| {
                    (
                        j,
                        flip(sts.similarity_prepared(&q, c), opts.inject_mismatch),
                    )
                })
                .collect();
            let key = |s: f64| if s.is_nan() { f64::NEG_INFINITY } else { s };
            scan.sort_by(|a, b| key(b.1).total_cmp(&key(a.1)).then(a.0.cmp(&b.0)));
            scan.truncate(TOP_K);
            let same = scan.len() == top[i].len()
                && scan
                    .iter()
                    .zip(&top[i])
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
            if !same {
                problems.push(format!(
                    "top-k row {i}: job {:?} vs exhaustive scan {scan:?}",
                    top[i]
                ));
            }
        }
    }
    problems
}

/// Runs one batch workload: set-ups, timed jobs, checks and (with a
/// trace directory) the traced pass.
pub fn run(kind: BatchKind, opts: &RunOptions) -> Result<RunResult, String> {
    let shape = kind.shape(opts.smoke);

    // A set-up is what a caller does before the first answer: make the
    // inputs, build the measure and run the job once. The first one is
    // the warm-up. Timing the millisecond input generation alone read
    // one core's speed at one moment, which on a shared host spread
    // 20–30% from run to run; with the job it spreads as jobs do.
    let mut setups = Vec::new();
    let mut peak_rss = None;
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let started = Instant::now();
        let inputs = BatchInputs::generate(&shape, opts.seed);
        let tiles = tiling(
            &opts.work_dir.join("tiles"),
            inputs.pairs(),
            Arc::new(sts_runtime::FsStorage),
        );
        run_job(
            kind,
            &inputs.sts,
            &inputs.queries,
            &inputs.candidates,
            &tiles,
        )?;
        setups.push(started.elapsed().as_secs_f64());
        // One job's peak, as a caller running one job sees it (later
        // jobs only add allocator slack).
        peak_rss = peak_rss.or_else(sts_obs::peak_rss_bytes);
        kept = Some((inputs, tiles));
    }
    let (inputs, tiles) = kept.expect("at least one set-up");
    let pairs = inputs.pairs();
    let (sts, q, c) = (&inputs.sts, &inputs.queries, &inputs.candidates);

    let started = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < MIN_TIMED_REPS || started.elapsed().as_secs_f64() < opts.seconds {
        jobs.push(run_job(kind, sts, q, c, &tiles)?);
    }

    let walls: Vec<f64> = jobs.iter().map(|j| j.wall.as_secs_f64()).collect();
    let rates: Vec<f64> = walls.iter().map(|w| pairs as f64 / w).collect();
    let median = |v: &[f64]| Band::of(v).map_or(f64::NAN, |b| b.median);
    let mut metrics = Metrics::default();
    metrics.set("pairs_per_s", median(&rates));
    metrics.set("latency_p50_ms", median(&walls) * 1e3);
    metrics.set(
        "latency_p99_ms",
        nearest_rank(&walls, 0.99).unwrap_or(f64::NAN) * 1e3,
    );
    metrics.set("setup_s", median(&setups));
    metrics.set("peak_rss_mb", peak_rss.map_or(f64::NAN, |b| b as f64 / 1e6));

    let last = jobs.last().expect("at least one timed job");
    metrics.extend(job_layers(kind, last));
    let mut problems = check(kind, &inputs, &last.output, opts);
    if let Some(dir) = &opts.trace_dir {
        let (layer_metrics, trace_problems) = traced_pass(kind, &inputs, opts, dir)?;
        metrics.extend(layer_metrics);
        problems.extend(trace_problems);
    }
    let _ = std::fs::remove_dir_all(&tiles.dir);
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: (pairs * jobs.len()) as u64,
        failed: jobs.iter().map(|j| failed_cells(j, q.len(), c.len())).sum(),
        metrics,
        problems,
    })
}

/// Per-layer numbers read off the untraced job: registry deltas and
/// the job report.
fn job_layers(kind: BatchKind, job: &Job) -> Metrics {
    let mut m = Metrics::default();
    let stats = &job.report.stats;
    if let Some(t) = &job.report.telemetry {
        let counter = |name: &str| t.metrics.counter(name).unwrap_or(0) as f64;
        let scored = counter("core.pairs.scored");
        if scored > 0.0 {
            m.set(
                "core.stpcache.evals_per_pair",
                counter("core.stp.evals") / scored,
            );
        }
        let lookups = counter("core.stp.cache_hits") + counter("core.stp.cache_misses");
        if lookups > 0.0 {
            m.set(
                "core.stpcache.hit_ratio",
                counter("core.stp.cache_hits") / lookups,
            );
        }
    }
    if kind != BatchKind::FleetTaxi {
        let busy = stats.chunk_run_total.as_secs_f64()
            / (stats.elapsed.as_secs_f64() * PARALLELISM as f64);
        m.set("runtime.pool.busy_share", busy);
        m.set("runtime.pool.chunks", stats.chunks_completed as f64);
    }
    if let Some(t) = &stats.tiles {
        m.set("runtime.tile.spilled", t.tiles_spilled as f64);
    }
    if let Some(s) = &stats.shard {
        m.set("core.shard.workers_spawned", s.workers_spawned as f64);
        m.set("core.shard.tiles_leased", s.tiles_leased as f64);
        m.set("core.shard.leases_expired", s.leases_expired as f64);
        m.set("core.shard.local_fallback", s.tiles_local_fallback as f64);
    }
    m.set("eval.match_precision", match_precision(&job.output));
    m
}

/// Pairs replayed through the kernel layers, and the side of the
/// query × candidate block replayed through the program's own path.
fn trace_sample(kind: BatchKind, smoke: bool) -> (usize, usize) {
    match (kind, smoke) {
        (_, true) => (4, 4),
        (BatchKind::MatchMall, false) => (6, 4),
        (_, false) => (64, 24),
    }
}

/// What one replay of the traced sample produced.
struct Replay {
    kernel_scores: Vec<(usize, usize, f64)>,
    bridges: u64,
    bridge_cells: u64,
    job_cells: usize,
    store_bytes: u64,
}

/// `STS(a, b)` recomputed from the layers' public functions, each call
/// in its own span: the speed KDE (`stats.kde`), the observation noise
/// distributions (`core.noise`), one STP per side and merged timestamp
/// (`core.stprob.bridge` between observations, `core.stprob.observed`
/// at one) and their dot product (`core.colocation`). Follows the
/// uncached reference path step for step, so the score is bit-identical
/// to `Sts::similarity`.
fn kernel_pair(
    grid: &sts_geo::Grid,
    noise: &GaussianNoise,
    a: &Trajectory,
    b: &Trajectory,
    scratch: &mut [StpEvalScratch; 2],
    cells: &mut (u64, u64),
) -> Option<f64> {
    let _request = span("bench.pair");
    let model = |t: &Trajectory| {
        let _s = span("stats.kde");
        SpeedKdeTransition::from_trajectory(t, Kernel::Gaussian)
            .ok()
            .map(|m| m.with_position_uncertainty(grid.cell_size() / 2.0))
    };
    let (ma, mb) = (model(a)?, model(b)?);
    let obs = |t: &Trajectory| {
        let _s = span("core.noise");
        StpEstimator::observation_distributions(grid, noise, t)
    };
    let (oa, ob) = (obs(a), obs(b));
    let ea = StpEstimator::with_observation_distributions(grid, noise, &ma, a, &oa);
    let eb = StpEstimator::with_observation_distributions(grid, noise, &mb, b, &ob);
    let ts = a.merged_timestamps(b);
    let lo = a.start_time().max(b.start_time());
    let hi = a.end_time().min(b.end_time());
    let [sa, sb] = scratch;
    let mut sum = 0.0;
    let mut i = 0;
    while i < ts.len() {
        let t = ts[i];
        let mut mult = 1;
        while i + mult < ts.len() && ts[i + mult] == t {
            mult += 1;
        }
        if t >= lo && t <= hi {
            let mut stp = |est: &StpEstimator<'_>, traj: &Trajectory, s: &mut StpEvalScratch| {
                if traj.observed_at(t) {
                    let _s = span("core.stprob.observed");
                    est.stp_into(t, s);
                } else {
                    let _s = span("core.stprob.bridge");
                    let d = est.stp_into(t, s);
                    cells.0 += 1;
                    cells.1 += d.len() as u64;
                }
            };
            stp(&ea, a, sa);
            stp(&eb, b, sb);
            let cp = {
                let _s = span("core.colocation");
                sa.distribution().dot(sb.distribution())
            };
            sum += cp * mult as f64;
        }
        i += mult;
    }
    Some(sum / ts.len() as f64)
}

fn replay(kind: BatchKind, inputs: &BatchInputs, opts: &RunOptions) -> Result<Replay, String> {
    let (n_kernel, side) = trace_sample(kind, opts.smoke);
    let (q, c) = (&inputs.queries, &inputs.candidates);
    let grid = inputs.sts.grid();
    let noise = GaussianNoise::new(inputs.noise_sigma);
    let mut rng = Xoshiro256pp::seed_from_u64(sub_seed(opts.seed, 6));
    let mut scratch = [StpEvalScratch::new(), StpEvalScratch::new()];
    let mut cells = (0u64, 0u64);
    let mut kernel_scores = Vec::new();
    for k in 0..n_kernel {
        // Alternate true partners with random pairs.
        let i = rng.random_range(0..q.len());
        let j = if k % 2 == 0 {
            i
        } else {
            rng.random_range(0..c.len())
        };
        if let Some(s) = kernel_pair(grid, &noise, &q[i], &c[j], &mut scratch, &mut cells) {
            kernel_scores.push((i, j, s));
        }
    }

    // The program's own scoring path on a block of the matrix.
    let (bq, bc) = (&q[..side.min(q.len())], &c[..side.min(c.len())]);
    let sts = &inputs.sts;
    let prepare = |t: &Trajectory| {
        let _request = span("bench.prepare");
        let _s = span("core.sts.prepare");
        sts.prepare(t).map_err(|e| e.to_string())
    };
    let pq: Vec<_> = bq.iter().map(prepare).collect::<Result<_, _>>()?;
    let pc: Vec<_> = bc.iter().map(prepare).collect::<Result<_, _>>()?;
    let mut scratch = StpScratch::new();
    for a in &pq {
        for b in &pc {
            let _request = span("bench.score");
            let _s = span("core.sts.score");
            std::hint::black_box(sts.similarity_prepared_with(a, b, &mut scratch));
        }
    }

    let mut replay = Replay {
        kernel_scores,
        bridges: cells.0,
        bridge_cells: cells.1,
        job_cells: 0,
        store_bytes: 0,
    };
    // The workload's engine on the same block, spilling through a
    // counting store.
    if kind != BatchKind::MatchMall {
        let storage = Arc::new(CountingStorage::default());
        let dir = opts.work_dir.join("trace-tiles");
        let tiles = tiling(&dir, bq.len() * bc.len(), storage.clone());
        {
            let _request = span("bench.job");
            let _s = span(match kind {
                BatchKind::FleetTaxi => "core.shard.job",
                _ => "core.tiled.job",
            });
            run_job(kind, sts, bq, bc, &tiles)?;
        }
        let _ = std::fs::remove_dir_all(&dir);
        replay.job_cells = bq.len() * bc.len();
        replay.store_bytes = storage.bytes_written();
    }
    Ok(replay)
}

/// The traced pass: replays a fixed sample with tracing off, then on,
/// writes the spans to `<dir>/<workload>.jsonl` and derives the
/// per-layer metrics from them.
fn traced_pass(
    kind: BatchKind,
    inputs: &BatchInputs,
    opts: &RunOptions,
    dir: &std::path::Path,
) -> Result<(Metrics, Vec<String>), String> {
    let thread = sts_obs::trace::thread_id();
    let traced = trace::off_and_on(|| replay(kind, inputs, opts))?;
    let replayed = traced.value.as_ref()?;
    trace::write_jsonl(&dir.join(format!("{}.jsonl", opts.workload)), &traced.spans)
        .map_err(|e| format!("writing the trace: {e}"))?;
    let layers = Layers::of(&traced.spans, thread);

    let mut problems = Vec::new();
    for &(i, j, s) in &replayed.kernel_scores {
        match inputs
            .sts
            .similarity(&inputs.queries[i], &inputs.candidates[j])
        {
            Ok(want) if want.to_bits() == s.to_bits() => {}
            other => problems.push(format!(
                "layer replay of pair ({i}, {j}) scored {s}, the program {other:?}"
            )),
        }
    }

    let secs = |name: &str| layers.total(name).as_secs_f64();
    let us = |name: &str| layers.mean(name).as_secs_f64() * 1e6;
    // Shares are of the layer replay's pair time.
    let pair_wall = secs("bench.pair");
    let mut m = Metrics::default();
    m.set("stats.kde.build_us", us("stats.kde"));
    m.set("core.noise.obs_dists_us", us("core.noise"));
    let prepare = secs("core.sts.prepare");
    m.set(
        "core.sts.prepare_share",
        prepare / (prepare + secs("core.sts.score")),
    );
    m.set("core.stprob.bridge_us", us("core.stprob.bridge"));
    m.set(
        "core.stprob.bridge_cells",
        replayed.bridge_cells as f64 / replayed.bridges.max(1) as f64,
    );
    m.set("core.stprob.observed_us", us("core.stprob.observed"));
    m.set(
        "core.stprob.share",
        (secs("core.stprob.bridge") + secs("core.stprob.observed")) / pair_wall,
    );
    m.set("core.colocation.dot_ns", us("core.colocation") * 1e3);
    m.set("core.colocation.share", secs("core.colocation") / pair_wall);
    if replayed.job_cells > 0 {
        m.set("runtime.store.write_ms", us("runtime.store.write") / 1e3);
        m.set(
            "runtime.store.bytes_per_cell",
            replayed.store_bytes as f64 / replayed.job_cells as f64,
        );
    }
    m.set("bench.trace_coverage", traced.coverage(&layers));
    m.set("bench.trace_overhead_pct", traced.overhead_pct());
    Ok((m, problems))
}
