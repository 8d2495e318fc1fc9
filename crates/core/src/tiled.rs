//! The matrix engine: every similarity matrix and top-k ranking — in
//! memory, out of core, on a thread pool, in worker subprocesses or on
//! a socket fleet — runs through one engine, `Sts::tiled_engine`.
//!
//! The public entry points are views of it that differ only in the job
//! they configure and what their sink keeps of each cell:
//!
//! | entry point | job | sink keeps |
//! |---|---|---|
//! | [`Sts::similarity_matrix`] | strict: untiled, in process, no retries | every score |
//! | [`Sts::top_k`] | strict | the row's best `k` |
//! | [`Sts::similarity_matrix_supervised`] | the caller's, untiled | every outcome |
//! | [`Sts::top_k_supervised`] | the caller's, untiled | the row's best `k` |
//! | [`Sts::similarity_matrix_tiled`] | the caller's, tiled | every outcome |
//! | [`Sts::top_k_matrix_tiled`] | the caller's, tiled | each row's best `k` |
//!
//! The strict views report an unpreparable trajectory as its
//! `StsError` and panic on a panic; the others report both as data.
//! Top-k views rank through one bounded per-row accumulator, so the
//! full matrix is never materialized for them.
//!
//! The pair space is dealt into **tiles**. An untiled job is one
//! in-memory tile spanning the whole space: the pool schedules every
//! chunk in one run and nothing is written anywhere. Given a
//! [`TileConfig`], the engine goes out of core without weakening a
//! single supervised guarantee:
//!
//! * tiles are [`TileConfig::tile_pairs`] pairs each, derivable from a
//!   byte budget via [`TileConfig::with_memory_budget`];
//! * each tile is computed on the configured executor, per
//!   [`JobConfig::exec`](crate::job::JobConfig::exec) — the in-process
//!   pool, or the `sts-worker` fleet of [`crate::shard`], which either
//!   takes the tile's chunks (`Subprocess`) or is dealt whole tiles
//!   (`Sharded`) — then
//!   **spilled** to its own file through the
//!   [`Storage`](sts_runtime::Storage) trait (tmp write → fsync →
//!   rename → dir fsync) and **read-back verified** before the
//!   in-memory copy is dropped;
//! * tile files are bound to the job fingerprint and digest-protected
//!   ([`sts_runtime::tile`]): a torn write, flipped byte or stale file
//!   is *detected*, quarantined aside as `.corrupt` evidence and
//!   recomputed — never silently read back;
//! * completed tiles are the job's only resume state: a killed job
//!   resumes by reloading verified tiles and recomputing only the
//!   rest, so the resumed result is byte-identical to an uninterrupted
//!   run (the default [`StpCacheMode::Exact`](crate::StpCacheMode)
//!   scoring path is deterministic and visitation-order independent);
//! * the final matrix is **stream-merged** tile by tile into the
//!   caller's sink, so the engine itself holds at most one tile plus
//!   any spill-failed fallbacks — the honest bound is reported as
//!   [`TileStats::max_resident_cells`] and the measured one as
//!   [`TileStats::peak_rss_bytes`].
//!
//! A spill failure (ENOSPC, verification failure on read-back) costs
//! durability for that tile, not correctness: the tile is served from
//! memory and counted in [`TileStats::spill_errors`]. The disk-chaos
//! suite in `sts-robust` drives torn writes, bit flips, ENOSPC and
//! stale-tmp crashes through this engine via an injected `Storage`
//! implementation and asserts bit-identical results with every
//! corruption detected.

use crate::batch::{prepare_all, BatchReport, PairOutcome, QuarantineReason};
use crate::job::{job_fingerprint, ExecMode, JobConfig, JobError, JobReport};
use crate::shard::{run_sharded, FleetTelemetry, Policy, ShardOptions, ShardRun};
use crate::sts::{sort_scores_descending, PreparedTrajectory, Sts};
use crate::{worker, StsError};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sts_obs::{trace, Telemetry};
use sts_runtime::pool::{run_supervised_with, ChunkStatus, PoolConfig};
use sts_runtime::{
    Budget, FsStorage, JobState, JobStats, PairChunk, PairSpace, RetryPolicy, ShardStats,
    StopReason, Storage, TileData, TileError, TileStats, TileStore,
};
use sts_traj::Trajectory;

/// Rough in-memory footprint of one resident cell (outcome enum plus
/// `Vec` slack), used by [`TileConfig::with_memory_budget`] to turn a
/// byte budget into a tile size. Deliberately conservative.
pub const TILE_CELL_BYTES: usize = 64;

/// How a tiled job spills and resumes: the tile directory, the tile
/// granularity and the storage implementation all tile I/O goes
/// through (the chaos suite injects a fault-raising one).
#[derive(Clone)]
pub struct TileConfig {
    /// Directory holding the per-tile spill files (created if absent).
    /// A directory left by a killed run of the *same* job is resumed
    /// from; tiles from a different job are detected by fingerprint
    /// and recomputed.
    pub dir: PathBuf,
    /// Pairs per tile — the spill granularity and the engine's
    /// resident-memory unit. Must be ≥ 1
    /// ([`JobError::InvalidTiling`] otherwise: a zero tile would
    /// schedule forever without progressing).
    pub tile_pairs: usize,
    /// Keep tile files after a run that resolved every pair (default:
    /// they are removed — quarantined `.corrupt` evidence is always
    /// kept). Interrupted runs always keep them; they are the resume
    /// state.
    pub keep_tiles: bool,
    /// The storage implementation behind every tile read and write.
    pub storage: Arc<dyn Storage>,
}

impl fmt::Debug for TileConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TileConfig")
            .field("dir", &self.dir)
            .field("tile_pairs", &self.tile_pairs)
            .field("keep_tiles", &self.keep_tiles)
            .finish_non_exhaustive()
    }
}

impl TileConfig {
    /// Spill to `dir` with the default tile size (4096 pairs) on the
    /// real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TileConfig {
            dir: dir.into(),
            tile_pairs: 4096,
            keep_tiles: false,
            storage: Arc::new(FsStorage),
        }
    }

    /// Derive the tile size from a resident-memory budget in bytes
    /// (at least one pair per tile, [`TILE_CELL_BYTES`] per cell).
    pub fn with_memory_budget(dir: impl Into<PathBuf>, budget_bytes: usize) -> Self {
        TileConfig {
            tile_pairs: (budget_bytes / TILE_CELL_BYTES).max(1),
            ..TileConfig::new(dir)
        }
    }
}

/// One query's `(candidate index, similarity)` ranking, best first.
type Ranking = Vec<(usize, f64)>;

/// Where a tile's cells live between computing and merging.
enum TileSource {
    /// Durably on disk, verified; reloaded one at a time at merge.
    Disk,
    /// Held in memory: the job is untiled, the spill failed, or the run
    /// stopped mid-tile (partial tiles are never spilled). Dense,
    /// tile-length.
    Memory(Vec<PairOutcome>),
    /// Never attempted — the run stopped before this tile.
    Skipped,
}

/// What every tile computation of one job shares.
struct Scorer<'a> {
    sts: &'a Sts,
    cfg: &'a JobConfig,
    space: PairSpace,
    prepared_q: Vec<Option<PreparedTrajectory>>,
    prepared_c: Vec<Option<PreparedTrajectory>>,
    /// The fleet a tile's chunks are dealt to under
    /// [`ExecMode::Subprocess`]; `None` scores on the thread pool.
    fleet: Option<ShardOptions>,
    /// The job as worker preamble frames (empty in process).
    preamble: Vec<String>,
    /// Chunks in a full tile: tile `t` numbers its chunks from
    /// `t * chunks_per_tile`, so chunk ids are distinct job-wide.
    chunks_per_tile: usize,
    cell_retries: AtomicU64,
}

/// What the tiles computed so far add up to.
struct Progress {
    /// Why the run stopped, once it has.
    stop: Option<StopReason>,
    /// Pairs given a terminal outcome this run — the budget's unit.
    new_pairs: usize,
    /// Chunk, retry, timing and fleet accounting.
    stats: JobStats,
    /// Telemetry the fleet shipped, over every fleet run of the job.
    fleet: FleetTelemetry,
}

impl Progress {
    /// Folds one fleet run's accounting and shipped telemetry in.
    fn absorb(&mut self, run: &ShardRun) {
        if let Some(shard) = self.stats.shard.as_mut() {
            shard.add(&run.stats);
        }
        self.fleet.add(&run.telemetry);
    }
}

impl Sts {
    /// The full `queries × candidates` similarity matrix. Row `i`,
    /// column `j` holds `STS(queries[i], candidates[j])`.
    ///
    /// The *strict* view of the engine: an untiled in-process job with
    /// retries off, on [`sts_runtime::thread_count`] workers
    /// (`STS_THREADS` overrides, otherwise the host's available
    /// parallelism). The first trajectory that cannot be prepared —
    /// queries before candidates — comes back as its error, and a
    /// panic while preparing or scoring panics the call. Services want
    /// [`similarity_matrix_supervised`](Sts::similarity_matrix_supervised),
    /// which reports both as data.
    pub fn similarity_matrix(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
    ) -> Result<Vec<Vec<f64>>, StsError> {
        let _span = trace::span("sts.matrix");
        let cols = candidates.len();
        let mut rows = vec![vec![0.0; cols]; queries.len()];
        let report = self
            .tiled_engine(
                queries,
                candidates,
                &strict_job(),
                None,
                &mut |lin, cell| {
                    // The strict contract below admits no other outcome.
                    if let PairOutcome::Score(s) = cell {
                        rows[lin / cols][lin % cols] = s;
                    }
                },
            )
            .expect(STRICT_STARTS);
        strict(report.batch)?;
        Ok(rows)
    }

    /// The `k` most similar candidates to `query`, best first, as
    /// `(candidate index, similarity)` — the strict contract of
    /// [`similarity_matrix`](Sts::similarity_matrix), ranked like
    /// [`top_k_supervised`](Sts::top_k_supervised).
    pub fn top_k(
        &self,
        query: &Trajectory,
        candidates: &[Trajectory],
        k: usize,
    ) -> Result<Vec<(usize, f64)>, StsError> {
        let (mut rows, report) = self
            .top_k_job(
                std::slice::from_ref(query),
                candidates,
                k,
                &strict_job(),
                None,
            )
            .expect(STRICT_STARTS);
        strict(report.batch)?;
        Ok(rows.remove(0))
    }

    /// The supervised `queries × candidates` similarity matrix: never
    /// fails a batch for a bad trajectory or a panicking pair (see
    /// [`crate::batch`]), plus deadlines, cancellation and retries —
    /// see the [`crate::job`] docs. The matrix is computed as one
    /// in-memory tile;
    /// [`similarity_matrix_tiled`](Sts::similarity_matrix_tiled) adds
    /// spilling and resume.
    ///
    /// Never panics and never loses completed work: whatever stops the
    /// job (deadline, budget, cancel, per-cell failures), every
    /// completed cell is returned and the [`JobReport`] says exactly
    /// what happened. `Err` is only possible when the configured
    /// executor cannot start ([`JobError`]).
    pub fn similarity_matrix_supervised(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
        cfg: &JobConfig,
    ) -> Result<(Vec<Vec<PairOutcome>>, JobReport), JobError> {
        self.matrix_job(queries, candidates, cfg, None)
    }

    /// Supervised top-k: ranks every scorable candidate under the same
    /// budget/cancellation/retry regime as
    /// [`similarity_matrix_supervised`](Sts::similarity_matrix_supervised).
    /// Skipped, quarantined and failed candidates are excluded from the
    /// ranking — the report says which and why.
    pub fn top_k_supervised(
        &self,
        query: &Trajectory,
        candidates: &[Trajectory],
        k: usize,
        cfg: &JobConfig,
    ) -> Result<(Vec<(usize, f64)>, JobReport), JobError> {
        let (mut rows, report) =
            self.top_k_job(std::slice::from_ref(query), candidates, k, cfg, None)?;
        Ok((rows.remove(0), report))
    }

    /// The supervised similarity matrix computed **out of core**: same
    /// contract as
    /// [`similarity_matrix_supervised`](Sts::similarity_matrix_supervised)
    /// — budget, cancellation, retries, fault injection, in-process,
    /// subprocess or sharded execution — but progress is spilled per
    /// tile and the engine never holds more than one tile of cells (see
    /// the [module docs](crate::tiled)). The returned full matrix is the
    /// *caller's* memory; use
    /// [`top_k_matrix_tiled`](Sts::top_k_matrix_tiled) when the output
    /// itself must stay bounded.
    ///
    /// A run interrupted at any point — including SIGKILL mid-spill —
    /// resumes from `tiling.dir` with byte-identical results.
    pub fn similarity_matrix_tiled(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
        cfg: &JobConfig,
        tiling: &TileConfig,
    ) -> Result<(Vec<Vec<PairOutcome>>, JobReport), JobError> {
        self.matrix_job(queries, candidates, cfg, Some(tiling))
    }

    /// Top-k nearest candidates for **every** query row, out of core:
    /// the full `N × M` matrix is never materialized. Ranking semantics
    /// match [`top_k_supervised`](Sts::top_k_supervised): only scored
    /// cells rank; skipped, quarantined and failed pairs are excluded
    /// (the report says which and why).
    pub fn top_k_matrix_tiled(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
        k: usize,
        cfg: &JobConfig,
        tiling: &TileConfig,
    ) -> Result<(Vec<Vec<(usize, f64)>>, JobReport), JobError> {
        self.top_k_job(queries, candidates, k, cfg, Some(tiling))
    }

    /// The full matrix out of the engine: cells it never reached stay
    /// `Skipped`.
    fn matrix_job(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
        cfg: &JobConfig,
        tiling: Option<&TileConfig>,
    ) -> Result<(Vec<Vec<PairOutcome>>, JobReport), JobError> {
        let cols = candidates.len();
        let mut rows = vec![vec![PairOutcome::Skipped; cols]; queries.len()];
        let report = self.tiled_engine(queries, candidates, cfg, tiling, &mut |lin, outcome| {
            rows[lin / cols][lin % cols] = outcome;
        })?;
        Ok((rows, report))
    }

    /// Each row's best `k` scored cells out of the engine, best first.
    /// A row keeps a bounded accumulator — at most `max(2k, 16)`
    /// entries, pruned back to `k` as cells stream in — so memory is
    /// `O(rows · k)` whatever the candidate count.
    fn top_k_job(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
        k: usize,
        cfg: &JobConfig,
        tiling: Option<&TileConfig>,
    ) -> Result<(Vec<Ranking>, JobReport), JobError> {
        let cols = candidates.len();
        let mut rows: Vec<Ranking> = vec![Vec::new(); queries.len()];
        let prune_at = k.saturating_mul(2).max(16);
        let report = self.tiled_engine(queries, candidates, cfg, tiling, &mut |lin, outcome| {
            if let Some(s) = outcome.score() {
                let row = &mut rows[lin / cols];
                row.push((lin % cols, s));
                if row.len() >= prune_at {
                    sort_scores_descending(row);
                    row.truncate(k);
                }
            }
        })?;
        for row in &mut rows {
            sort_scores_descending(row);
            row.truncate(k);
        }
        Ok((rows, report))
    }

    /// The one matrix engine every entry point is a view of. Without
    /// `tiling` the job is a single in-memory tile. `sink` receives every
    /// non-skipped cell exactly once, in ascending linear-index order;
    /// cells the run never reached are simply not emitted.
    fn tiled_engine(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
        cfg: &JobConfig,
        tiling: Option<&TileConfig>,
        sink: &mut dyn FnMut(usize, PairOutcome),
    ) -> Result<JobReport, JobError> {
        let started = Instant::now();
        let _job_span = trace::span("job.run");
        let metrics_base = cfg.telemetry.then(|| sts_obs::metrics::global().snapshot());

        if tiling.is_some_and(|t| t.tile_pairs == 0) {
            return Err(JobError::InvalidTiling(
                "tile_pairs must be ≥ 1 (a zero-pair tile would never progress)".into(),
            ));
        }
        if tiling.is_none() && matches!(cfg.exec, ExecMode::Sharded(_)) {
            return Err(JobError::ShardRequiresTiling);
        }

        let space = PairSpace::new(queries.len(), candidates.len());
        let mut batch = BatchReport::default();
        let mut tstats = TileStats::default();
        let on_fleet = !matches!(cfg.exec, ExecMode::InProcess);

        // A job with no budget at all returns before preparing
        // anything: "0-pair budget" must mean *immediately*, not
        // "after an O(n) preparation pass".
        if let Some(reason) = stop_check(cfg, 0) {
            let mut stats = JobStats::new(JobState::from_run(Some(reason), false), space.len());
            stats.elapsed = started.elapsed();
            stats.pairs_skipped = space.len();
            stats.tiles = tiling.map(|_| tstats);
            stats.shard = on_fleet.then(ShardStats::default);
            return Ok(JobReport {
                batch,
                stats,
                telemetry: job_telemetry(metrics_base.as_ref()),
            });
        }

        let (prepared_q, prepared_c) = {
            let _span = trace::span("job.prepare");
            (
                prepare_all(self, queries, &mut batch.quarantined_queries),
                prepare_all(self, candidates, &mut batch.quarantined_candidates),
            )
        };

        // Resolve remote execution up front, so an undescribable
        // measure or a missing worker fails fast, before any tile I/O.
        let preamble = match &cfg.exec {
            ExecMode::InProcess => Vec::new(),
            ExecMode::Subprocess(_) | ExecMode::Sharded(_) => {
                let spec = self.measure_spec().ok_or(JobError::SubprocessUnsupported)?;
                let hb_every = match &cfg.exec {
                    ExecMode::Sharded(opts) => opts.hb_every,
                    _ => 0,
                };
                let grid = self.grid();
                worker::encode_preamble(spec, grid, cfg, &space, queries, candidates, hb_every)
            }
        };
        let fleet = match &cfg.exec {
            // The Subprocess policy's fleet: a worker per thread, the
            // hard timeout as the lease and no heartbeats (a chunk must
            // answer within one lease), and quick respawns.
            ExecMode::Subprocess(opts) => Some(ShardOptions {
                worker: Some(worker_program(&opts.worker)?),
                workers: match cfg.threads {
                    0 => sts_runtime::thread_count(usize::MAX),
                    n => n,
                },
                lease_timeout: opts.hard_timeout,
                ready_timeout: opts.ready_timeout,
                hb_every: 0,
                restart_budget: opts.restart_budget,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(100),
                ..ShardOptions::default()
            }),
            // Custom launchers bring their own workers.
            ExecMode::Sharded(opts) if opts.launcher.is_none() => {
                worker_program(&opts.worker)?;
                None
            }
            _ => None,
        };

        let store = match tiling {
            Some(t) => {
                let fingerprint = job_fingerprint(self.grid(), queries, candidates);
                let (store, swept) = TileStore::open(t.storage.as_ref(), &t.dir, fingerprint)
                    .map_err(JobError::TileDir)?;
                tstats.stale_tmp_swept = swept.stale_tmp;
                tstats.corrupt_swept = swept.corrupt;
                Some(store)
            }
            None => None,
        };

        let tile_pairs = tiling.map_or(space.len(), |t| t.tile_pairs);
        let tiles: Vec<PairChunk> = space.chunks(tile_pairs).collect();
        tstats.tiles_total = tiles.len();
        let scorer = Scorer {
            sts: self,
            cfg,
            space,
            prepared_q,
            prepared_c,
            fleet,
            preamble,
            chunks_per_tile: tile_pairs.div_ceil(cfg.chunk_pairs.max(1)),
            cell_retries: AtomicU64::new(0),
        };
        let mut progress = Progress {
            stop: None,
            new_pairs: 0,
            stats: JobStats::new(JobState::Complete, space.len()),
            fleet: FleetTelemetry::default(),
        };
        progress.stats.shard = on_fleet.then(ShardStats::default);

        // ---- Resume: a verified tile on disk is free progress. -----
        let mut sources: Vec<TileSource> = tiles.iter().map(|_| TileSource::Skipped).collect();
        let mut todo: Vec<usize> = Vec::new();
        let mut pairs_resumed = 0usize;
        let mut resident_fallback = 0usize; // cells pinned by Memory sources
        match &store {
            None => todo.extend(0..tiles.len()),
            Some(store) => {
                let _span = trace::span("job.resume");
                for (idx, tile) in tiles.iter().enumerate() {
                    match load_verified(store, tile, &scorer) {
                        Loaded::Verified => {
                            tstats.max_resident_cells = tstats.max_resident_cells.max(tile.len);
                            tstats.tiles_resumed += 1;
                            pairs_resumed += tile.len;
                            sources[idx] = TileSource::Disk;
                        }
                        Loaded::Corrupt => {
                            store.quarantine(tile.id);
                            tstats.tiles_corrupt += 1;
                            todo.push(idx);
                        }
                        Loaded::Absent => todo.push(idx),
                    }
                }
            }
        }

        // ---- Sharded: deal the rest to the fleet under leases,
        // spilling each commit as it lands. ----
        if let (ExecMode::Sharded(sopts), Some(store)) = (&cfg.exec, &store) {
            let units: Vec<PairChunk> = todo.iter().map(|&idx| tiles[idx]).collect();
            let run = run_sharded(
                &units,
                &scorer.preamble,
                sopts,
                Policy::Release,
                &cfg.cancel,
                cfg.budget,
                &mut |tile, outs| {
                    tstats.max_resident_cells =
                        tstats.max_resident_cells.max(resident_fallback + tile.len);
                    tstats.tiles_computed += 1;
                    progress.new_pairs += outs.iter().filter(|o| is_terminal(o)).count();
                    sources[tile.id] =
                        spill_tile(store, tile, outs, &mut tstats, &mut resident_fallback);
                },
            );
            progress.stop = run.stop;
            progress.absorb(&run);
            // Whatever the fleet could not finish — it was exhausted,
            // rejected the handshake, or the run stopped — degrades to
            // the local executor below. A dead fleet never loses a job.
            todo = run.leftover.iter().map(|tile| tile.id).collect();
        }

        // ---- Compute the remaining tiles locally, then spill. ----
        for idx in todo {
            let tile = &tiles[idx];
            let Some(outs) = scorer.compute_tile(tile, &mut progress) else {
                continue; // the run stopped first: stays Skipped
            };
            tstats.max_resident_cells = tstats.max_resident_cells.max(resident_fallback + tile.len);
            tstats.tiles_computed += 1;
            if let (ExecMode::Sharded(_), Some(shard)) = (&cfg.exec, progress.stats.shard.as_mut())
            {
                shard.tiles_local_fallback += 1;
                sts_obs::static_counter!("shard.tiles.local_fallback").incr();
                trace::event("shard.tile.fallback", tile.id as f64);
            }
            sources[idx] = match &store {
                // Partial tiles are never spilled: a tile file always
                // represents a *complete* slab.
                Some(store) if progress.stop.is_none() => {
                    spill_tile(store, tile, outs, &mut tstats, &mut resident_fallback)
                }
                _ => {
                    resident_fallback += tile.len;
                    TileSource::Memory(outs)
                }
            };
        }

        // ---- Stream-merge tiles into the sink. ----
        let merge_span = trace::span("job.tiled.merge");
        let mut pairs_completed = 0usize;
        let mut pairs_failed = 0usize;
        let mut emit = |lin: usize, outcome: PairOutcome, batch: &mut BatchReport| {
            match &outcome {
                PairOutcome::Skipped => return,
                PairOutcome::Failed { .. } => {
                    pairs_failed += 1;
                    batch.failed_pairs.push(space.pair(lin));
                }
                PairOutcome::Poisoned { exit } => {
                    pairs_failed += 1;
                    let (i, j) = space.pair(lin);
                    batch.poisoned_pairs.push((i, j, *exit));
                }
                PairOutcome::Score(_) | PairOutcome::Quarantined => {}
            }
            pairs_completed += 1;
            sink(lin, outcome);
        };
        for (tile, source) in tiles.iter().zip(sources) {
            let outs = match source {
                TileSource::Skipped => continue,
                TileSource::Memory(outs) => {
                    resident_fallback = resident_fallback.saturating_sub(tile.len);
                    outs
                }
                TileSource::Disk => {
                    tstats.max_resident_cells =
                        tstats.max_resident_cells.max(resident_fallback + tile.len);
                    let store = store.as_ref().expect("disk tiles come from a store");
                    match store.load(tile.id, tile.start, tile.len) {
                        Ok(Some(data)) => data.cells,
                        // Verified minutes ago and unreadable now —
                        // disk decay mid-job. Detect, quarantine,
                        // recompute inline: a corrupt tile is never
                        // read back and never fabricated.
                        Ok(None) | Err(_) => {
                            store.quarantine(tile.id);
                            tstats.tiles_corrupt += 1;
                            let Some(outs) = scorer.compute_tile(tile, &mut progress) else {
                                continue;
                            };
                            tstats.tiles_computed += 1;
                            outs
                        }
                    }
                }
            };
            for (off, outcome) in outs.into_iter().enumerate() {
                emit(tile.start + off, outcome, &mut batch);
            }
        }
        drop(merge_span);

        if let (Some(store), Some(tiling)) = (&store, tiling) {
            // Tiles are resume state: only a run that resolved every
            // pair may clean up (quarantined `.corrupt` files are kept
            // either way — they are the post-mortem evidence).
            if progress.stop.is_none() && !tiling.keep_tiles {
                let _ = store.remove_all_tiles();
            }
            tstats.peak_rss_bytes = sts_obs::record_peak_rss();
        }

        let mut stats = progress.stats;
        stats.state = JobState::from_run(progress.stop, pairs_failed > 0);
        stats.elapsed = started.elapsed();
        stats.pairs_completed = pairs_completed;
        stats.pairs_failed = pairs_failed;
        stats.pairs_skipped = space.len() - pairs_completed;
        stats.pairs_resumed = pairs_resumed;
        stats.retries += scorer.cell_retries.into_inner();
        stats.slow_chunks.sort_unstable();
        stats.slow_chunks.dedup();
        stats.tiles = tiling.map(|_| tstats);

        let mut telemetry = job_telemetry(metrics_base.as_ref());
        if let Some(t) = telemetry.as_mut() {
            let fleet = &progress.fleet;
            // Fold the workers' shipped deltas into the coordinator's
            // own registry delta: unlabeled fleet sums (so
            // `core.pairs.scored` counts work performed anywhere in the
            // fleet) plus per-worker labeled attribution. The
            // coordinator's own `shard.pairs.committed` counter already
            // covers every commit, so the fleet copy is dropped rather
            // than double-counted.
            let mut merged = fleet.merged.clone();
            merged
                .counters
                .retain(|(n, _)| n != "shard.pairs.committed");
            t.metrics.merge(&merged.without_zeros());
            t.metrics.merge(&fleet.labeled.clone().without_zeros());
        }

        Ok(JobReport {
            batch,
            stats,
            telemetry,
        })
    }
}

impl Scorer<'_> {
    /// Computes one tile on the local executor — the thread pool, or
    /// the worker fleet under [`ExecMode::Subprocess`] — with
    /// whatever budget the run has left (the deadline is absolute, so
    /// it carries over unchanged). `None` when the run had already
    /// stopped: the tile is never attempted. Otherwise the tile's dense
    /// outcomes, `Skipped` where the executor stopped first, in which
    /// case `p.stop` says why.
    fn compute_tile(&self, tile: &PairChunk, p: &mut Progress) -> Option<Vec<PairOutcome>> {
        let cfg = self.cfg;
        p.stop = p.stop.or_else(|| stop_check(cfg, p.new_pairs));
        if p.stop.is_some() {
            return None;
        }
        let _span = trace::span("job.tiled.tile");
        let budget = Budget {
            deadline: cfg.budget.deadline,
            max_pairs: cfg.budget.max_pairs.map(|m| m.saturating_sub(p.new_pairs)),
        };
        let chunks = chunk_tile(tile, cfg.chunk_pairs, tile.id * self.chunks_per_tile);
        let mut outs = vec![PairOutcome::Skipped; tile.len];
        let stats = &mut p.stats;
        stats.chunks_total += chunks.len();

        if let Some(fleet) = &self.fleet {
            let started = Instant::now();
            let run = run_sharded(
                &chunks,
                &self.preamble,
                fleet,
                Policy::Bisect,
                &cfg.cancel,
                budget,
                &mut |unit, unit_outs| {
                    let off = unit.start - tile.start;
                    outs.splice(off..off + unit.len, unit_outs);
                },
            );
            // Chunks count once fully resolved; bisection fragments
            // are not chunks.
            let resolved = chunks
                .iter()
                .filter(|c| c.range().all(|lin| is_terminal(&outs[lin - tile.start])))
                .count();
            stats.chunks_completed += resolved;
            stats.chunks_skipped += chunks.len() - resolved;
            stats.chunk_run_total += started.elapsed();
            p.stop = run.stop;
            p.absorb(&run);
        } else {
            let pool_cfg = PoolConfig {
                threads: cfg.threads,
                soft_timeout: cfg.soft_timeout,
                budget,
                cancel: cfg.cancel.clone(),
            };
            let run = run_supervised_with(
                &chunks,
                &pool_cfg,
                |_slot| crate::StpScratch::new(),
                |scratch: &mut crate::StpScratch, chunk: &PairChunk| -> Vec<(usize, PairOutcome)> {
                    chunk
                        .range()
                        .map(|lin| {
                            let (i, j) = self.space.pair(lin);
                            let outcome = self.sts.score_cell_retrying(
                                self.prepared_q[i].as_ref(),
                                self.prepared_c[j].as_ref(),
                                cfg,
                                lin,
                                &self.cell_retries,
                                scratch,
                            );
                            (lin, outcome)
                        })
                        .collect()
                },
                |_chunk, computed| {
                    for (lin, outcome) in computed {
                        outs[lin - tile.start] = outcome;
                    }
                },
            );
            // Pool-level backstop: a chunk whose work panicked outside
            // the per-cell containment fails its unresolved cells.
            for (chunk, status) in chunks.iter().zip(&run.statuses) {
                match status {
                    ChunkStatus::Completed => stats.chunks_completed += 1,
                    ChunkStatus::Skipped(_) => stats.chunks_skipped += 1,
                    ChunkStatus::Failed => {
                        stats.chunks_failed += 1;
                        for out in &mut outs[chunk.start - tile.start..][..chunk.len] {
                            if !is_terminal(out) {
                                *out = PairOutcome::Failed { attempts: 1 };
                            }
                        }
                    }
                }
            }
            stats.slow_chunks.extend(run.slow_chunks);
            stats.chunk_wait_total += run.chunk_wait;
            stats.chunk_run_total += run.chunk_run;
            p.stop = run.stop;
        }
        p.new_pairs += outs.iter().filter(|o| is_terminal(o)).count();
        Some(outs)
    }
}

/// Why the strict views may `expect` their job: an untiled in-process
/// job has no executor or tile directory that could fail to start.
const STRICT_STARTS: &str = "an untiled in-process job always starts";

/// The strict views' job: untiled, in process, unlimited, no retries.
fn strict_job() -> JobConfig {
    JobConfig {
        retry: RetryPolicy::none(),
        ..JobConfig::default()
    }
}

/// Holds a finished strict job to the strict contract: the first
/// quarantined trajectory — queries before candidates — is its error,
/// or a panic if preparing it panicked; a failed cell is a panic.
fn strict(batch: BatchReport) -> Result<(), StsError> {
    let quarantined = batch.quarantined_queries.into_iter();
    match quarantined.chain(batch.quarantined_candidates).next() {
        Some((_, QuarantineReason::Unpreparable(e))) => return Err(e),
        Some((_, QuarantineReason::PreparePanicked)) => panic!("preparing a trajectory panicked"),
        None => {}
    }
    assert!(
        batch.failed_pairs.is_empty(),
        "scoring panicked for pair(s) {:?}",
        batch.failed_pairs
    );
    Ok(())
}

/// The worker executable `worker` names (default: `sts-worker` next to
/// the current executable), checked to exist.
fn worker_program(worker: &Option<PathBuf>) -> Result<PathBuf, JobError> {
    let path = worker.clone().unwrap_or_else(worker::default_worker_path);
    if path.is_file() {
        Ok(path)
    } else {
        Err(JobError::WorkerMissing { path })
    }
}

/// Cancellation and global-budget check: before any work, and before
/// every tile.
fn stop_check(cfg: &JobConfig, new_pairs: usize) -> Option<StopReason> {
    if cfg.cancel.is_cancelled() {
        return Some(StopReason::Cancelled);
    }
    cfg.budget.check(new_pairs)
}

/// The report's telemetry section: the global-registry delta since the
/// job-start snapshot, zero-valued instruments dropped. `None` when
/// telemetry was not requested.
fn job_telemetry(base: Option<&sts_obs::Snapshot>) -> Option<Telemetry> {
    base.map(|base| Telemetry {
        metrics: sts_obs::metrics::global()
            .snapshot()
            .since(base)
            .without_zeros(),
    })
}

/// Is this outcome terminal for resume purposes (never recomputed)?
fn is_terminal(cell: &PairOutcome) -> bool {
    !matches!(cell, PairOutcome::Skipped)
}

/// What probing the store for an existing tile concluded.
enum Loaded {
    /// Present, verified, and consistent with this job's preparation.
    Verified,
    /// Present but failed verification (or inconsistent coverage) —
    /// the caller must quarantine and recompute.
    Corrupt,
    /// Not spilled yet (or unreadable: treated as absent and
    /// recomputed).
    Absent,
}

/// Probes the store for tile `tile.id` and cross-checks its cells
/// against preparation: a cell is quarantined exactly when its query
/// or candidate is (fingerprint-matched inputs prepare
/// deterministically, so any disagreement means the file does not
/// describe this job and is treated as corrupt).
fn load_verified(store: &TileStore<'_>, tile: &PairChunk, scorer: &Scorer<'_>) -> Loaded {
    let data = match store.load(tile.id, tile.start, tile.len) {
        Ok(Some(data)) => data,
        Ok(None) | Err(TileError::Io(_)) => return Loaded::Absent,
        Err(TileError::Corrupt { .. }) => return Loaded::Corrupt,
    };
    for (lin, cell) in tile.range().zip(&data.cells) {
        let (i, j) = scorer.space.pair(lin);
        let quarantined = scorer.prepared_q[i].is_none() || scorer.prepared_c[j].is_none();
        if matches!(cell, PairOutcome::Quarantined) != quarantined {
            return Loaded::Corrupt;
        }
    }
    Loaded::Verified
}

/// Spills a completed tile, verified by read-back, before letting go of
/// the in-memory copy. Any failure — write error (ENOSPC, a
/// crash-shaped storage fault) or a read-back that differs from the
/// bytes written — degrades to serving the tile from memory.
fn spill_tile(
    store: &TileStore<'_>,
    tile: &PairChunk,
    outs: Vec<PairOutcome>,
    tstats: &mut TileStats,
    resident_fallback: &mut usize,
) -> TileSource {
    let data = TileData {
        id: tile.id,
        start: tile.start,
        cells: outs,
    };
    let durable = match store.save(&data) {
        Ok(()) => true,
        Err(TileError::Io(_)) => false,
        Err(TileError::Corrupt { .. }) => {
            store.quarantine(tile.id);
            tstats.tiles_corrupt += 1;
            false
        }
    };
    if durable {
        tstats.tiles_spilled += 1;
        trace::event("job.tile.spilled", tile.id as f64);
        TileSource::Disk
    } else {
        tstats.spill_errors += 1;
        *resident_fallback += tile.len;
        TileSource::Memory(data.cells)
    }
}

/// Deals one tile's slab into scheduling chunks of `chunk_pairs`
/// (clamped to ≥ 1), numbered from `first_id`, with linear indices
/// absolute in the full pair space — a subprocess worker scores
/// whatever slab it is sent, so the chunks must speak the global
/// coordinate system.
fn chunk_tile(tile: &PairChunk, chunk_pairs: usize, first_id: usize) -> Vec<PairChunk> {
    let size = chunk_pairs.max(1);
    (0..tile.len.div_ceil(size))
        .map(|k| PairChunk {
            id: first_id + k,
            start: tile.start + k * size,
            len: size.min(tile.len - k * size),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ids_are_distinct_across_tiles() {
        let space = PairSpace::new(5, 7); // 35 pairs
        let (tile_pairs, chunk_pairs) = (10usize, 4usize);
        let per_tile = tile_pairs.div_ceil(chunk_pairs);
        let chunks: Vec<PairChunk> = space
            .chunks(tile_pairs)
            .flat_map(|t| chunk_tile(&t, chunk_pairs, t.id * per_tile))
            .collect();
        // Every pair covered once, in order, by chunks no larger than
        // `chunk_pairs` that never straddle a tile boundary.
        let lins: Vec<usize> = chunks.iter().flat_map(|c| c.range()).collect();
        assert_eq!(lins, (0..35).collect::<Vec<_>>());
        assert!(chunks.iter().all(|c| c.len <= chunk_pairs));
        assert!(chunks
            .iter()
            .all(|c| c.start / 10 == (c.start + c.len - 1) / 10));
        let mut ids: Vec<usize> = chunks.iter().map(|c| c.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), chunks.len(), "ids collide: {ids:?}");
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }
}
