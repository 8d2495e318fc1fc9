//! Job lifecycle accounting.

use crate::StopReason;
use std::fmt;
use std::time::Duration;

/// Terminal state of a supervised job.
///
/// Lifecycle: a job is *Running* (implicit — it has no report yet),
/// degrades as cells fail, and terminates in one of these states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Every pair resolved, none failed.
    Complete,
    /// Every pair resolved, but some cells terminally failed
    /// (panicked through all retries) — the matrix is partial but
    /// consistent.
    Degraded,
    /// Stopped by the [`CancelToken`](crate::CancelToken); unprocessed
    /// cells are skipped.
    Cancelled,
    /// Stopped by the wall-clock deadline.
    DeadlineExceeded,
    /// Stopped by the max-pairs budget.
    BudgetExhausted,
    /// Stopped because the subprocess fleet's worker-restart budget
    /// ran out (workers were dying faster than work completed).
    WorkersExhausted,
    /// Stopped because a worker refused the job handshake (protocol
    /// version or job fingerprint mismatch) — a permanent condition
    /// for the binaries involved, surfaced instead of retried.
    WorkerRejected,
}

impl JobState {
    /// Derives the terminal state from how the pool stopped and
    /// whether any cell terminally failed.
    pub fn from_run(stop: Option<StopReason>, any_failed: bool) -> Self {
        match stop {
            Some(StopReason::Cancelled) => JobState::Cancelled,
            Some(StopReason::DeadlineExceeded) => JobState::DeadlineExceeded,
            Some(StopReason::PairBudgetExhausted) => JobState::BudgetExhausted,
            Some(StopReason::WorkerRestartsExhausted) => JobState::WorkersExhausted,
            Some(StopReason::WorkerRejected) => JobState::WorkerRejected,
            None if any_failed => JobState::Degraded,
            None => JobState::Complete,
        }
    }

    /// Did the job resolve every pair (completely or degraded)?
    pub fn ran_to_end(&self) -> bool {
        matches!(self, JobState::Complete | JobState::Degraded)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JobState::Complete => "complete",
            JobState::Degraded => "degraded",
            JobState::Cancelled => "cancelled",
            JobState::DeadlineExceeded => "deadline-exceeded",
            JobState::BudgetExhausted => "budget-exhausted",
            JobState::WorkersExhausted => "workers-exhausted",
            JobState::WorkerRejected => "worker-rejected",
        };
        write!(f, "{s}")
    }
}

/// Out-of-core tiling accounting, present only when a job ran through
/// the tiled engine (`Sts::similarity_matrix_tiled` and friends in
/// `sts-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileStats {
    /// Tiles the pair space was dealt into.
    pub tiles_total: usize,
    /// Tiles computed this run (not restored from disk).
    pub tiles_computed: usize,
    /// Tiles restored from verified spill files instead of recomputed.
    pub tiles_resumed: usize,
    /// Corrupt tile files detected (fingerprint/digest/trailer check
    /// failed), quarantined aside and recomputed. A corrupt tile is
    /// never silently read back.
    pub tiles_corrupt: usize,
    /// Tiles durably spilled *and* read-back-verified this run.
    pub tiles_spilled: usize,
    /// Spills that failed (I/O error such as ENOSPC, or a write whose
    /// read-back failed verification). The tile's results are served
    /// from memory instead — durability degrades, the matrix does not.
    pub spill_errors: usize,
    /// Orphaned `*.tmp` files swept from the tile directory at open.
    pub stale_tmp_swept: usize,
    /// Aged-out `*.corrupt` quarantine files swept from the tile
    /// directory at open (the capped hygiene sweep — recent quarantines
    /// are kept for forensics, old overflow is reclaimed).
    pub corrupt_swept: usize,
    /// Peak number of cell records resident in memory at any moment —
    /// the honest bounded-memory claim, independent of allocator and
    /// OS noise: at most one in-flight tile plus spill-failed
    /// fallbacks plus whatever the merge sink retains.
    pub max_resident_cells: usize,
    /// Process peak RSS (`VmHWM`) observed after the merge, when the
    /// platform exposes it.
    pub peak_rss_bytes: Option<u64>,
}

impl fmt::Display for TileStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tile(s): {} computed, {} resumed, {} corrupt, {} spilled, \
             {} spill error(s), peak {} resident cell(s)",
            self.tiles_total,
            self.tiles_computed,
            self.tiles_resumed,
            self.tiles_corrupt,
            self.tiles_spilled,
            self.spill_errors,
            self.max_resident_cells,
        )
    }
}

/// Worker-fleet accounting, present when a job ran on the lease
/// coordinator (`ExecMode::Subprocess` or `ExecMode::Sharded` in
/// `sts-core`). Under `Subprocess` the leased units are scheduling
/// chunks and their bisected halves; under `Sharded`, whole tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Workers the coordinator spawned over the whole run (initial
    /// fleet plus restarts).
    pub workers_spawned: usize,
    /// Workers respawned after a loss (death, deadline, protocol).
    pub worker_restarts: usize,
    /// Workers that refused the handshake (version or fingerprint
    /// mismatch) and were rejected with a typed error.
    pub workers_rejected: usize,
    /// Leases granted (re-leases of the same unit count again).
    pub tiles_leased: usize,
    /// Leases that expired — the holder died, wedged, broke the
    /// protocol or missed its deadline — and whose unit was re-dealt
    /// (or, under `Subprocess`, bisected or quarantined).
    pub leases_expired: usize,
    /// Results refused by the at-most-once commit gate: duplicates of
    /// an already-committed unit or stale epochs from a superseded
    /// lease. Refused results are discarded, never merged.
    pub commits_refused: usize,
    /// Garbage frames observed on worker connections (corrupt bytes
    /// on the wire); each costs the offending worker its lease.
    pub frames_corrupt: usize,
    /// Tiles computed locally after the fleet was exhausted — the
    /// graceful-degradation path of `Sharded` (the job completes
    /// in-process instead of failing).
    pub tiles_local_fallback: usize,
    /// Clean final telemetry flushes received from shutting-down
    /// workers (`bye` frames): `== workers alive at shutdown` on a
    /// healthy run, fewer under chaos.
    pub telemetry_flushes: usize,
    /// Pairs quarantined as poison after crash attribution
    /// (`Subprocess` only).
    pub pairs_poisoned: usize,
    /// Deepest bisection performed while attributing a crash.
    pub max_bisect_depth: usize,
}

impl ShardStats {
    /// Adds another fleet run's accounting to this one (the deepest
    /// bisection of either wins).
    pub fn add(&mut self, o: &ShardStats) {
        self.workers_spawned += o.workers_spawned;
        self.worker_restarts += o.worker_restarts;
        self.workers_rejected += o.workers_rejected;
        self.tiles_leased += o.tiles_leased;
        self.leases_expired += o.leases_expired;
        self.commits_refused += o.commits_refused;
        self.frames_corrupt += o.frames_corrupt;
        self.tiles_local_fallback += o.tiles_local_fallback;
        self.telemetry_flushes += o.telemetry_flushes;
        self.pairs_poisoned += o.pairs_poisoned;
        self.max_bisect_depth = self.max_bisect_depth.max(o.max_bisect_depth);
    }
}

impl fmt::Display for ShardStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} worker(s) spawned ({} restart(s), {} rejected), \
             {} lease(s) ({} expired, {} commit(s) refused), \
             {} corrupt frame(s), {} local-fallback tile(s), \
             {} telemetry flush(es), {} poisoned pair(s), bisect depth {}",
            self.workers_spawned,
            self.worker_restarts,
            self.workers_rejected,
            self.tiles_leased,
            self.leases_expired,
            self.commits_refused,
            self.frames_corrupt,
            self.tiles_local_fallback,
            self.telemetry_flushes,
            self.pairs_poisoned,
            self.max_bisect_depth,
        )
    }
}

/// Timing, retry and completion accounting for one supervised job.
/// The measure-specific half of the report (quarantines, per-cell
/// outcomes) lives in `sts-core`'s `BatchReport`; this is the
/// runtime half.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStats {
    /// Terminal state.
    pub state: JobState,
    /// Wall-clock time of the run (excludes work restored from tiles).
    pub elapsed: Duration,
    /// Total pairs in the matrix.
    pub pairs_total: usize,
    /// Pairs with a terminal outcome (scored, quarantined, failed) —
    /// including cells restored from tiles.
    pub pairs_completed: usize,
    /// Pairs whose scoring panicked through every retry.
    pub pairs_failed: usize,
    /// Pairs never attempted (budget/deadline/cancel stopped the job).
    pub pairs_skipped: usize,
    /// Pairs restored from verified tiles instead of recomputed.
    pub pairs_resumed: usize,
    /// Pair chunks dealt to the local executor (the thread pool or the
    /// subprocess fleet). Resumed tiles and tiles a sharded fleet
    /// computed deal none; tiles themselves are counted in
    /// [`TileStats`].
    pub chunks_total: usize,
    /// Chunks that completed.
    pub chunks_completed: usize,
    /// Chunks whose work panicked outside the per-cell containment
    /// (the pool's backstop); their unresolved cells fail.
    pub chunks_failed: usize,
    /// Chunks skipped by an early stop.
    pub chunks_skipped: usize,
    /// Per-cell retry attempts performed in process.
    pub retries: u64,
    /// Ids of chunks that exceeded the per-chunk soft timeout,
    /// ascending. Ids number the chunks of the whole pair space, so
    /// they are distinct across tiles.
    pub slow_chunks: Vec<usize>,
    /// Total time chunks spent queued before a worker picked them up
    /// (`> elapsed` is normal with several workers: it sums
    /// *per-chunk* waits).
    pub chunk_wait_total: Duration,
    /// Total time workers spent inside chunk work functions.
    pub chunk_run_total: Duration,
    /// Out-of-core tiling accounting; `None` for in-memory runs.
    pub tiles: Option<TileStats>,
    /// Worker-fleet accounting; `None` for in-process jobs.
    pub shard: Option<ShardStats>,
}

impl JobStats {
    /// A report for a `pairs_total`-pair job in `state` with every
    /// counter at zero; the engine fills in what it tracked.
    pub fn new(state: JobState, pairs_total: usize) -> Self {
        JobStats {
            state,
            elapsed: Duration::ZERO,
            pairs_total,
            pairs_completed: 0,
            pairs_failed: 0,
            pairs_skipped: 0,
            pairs_resumed: 0,
            chunks_total: 0,
            chunks_completed: 0,
            chunks_failed: 0,
            chunks_skipped: 0,
            retries: 0,
            slow_chunks: Vec::new(),
            chunk_wait_total: Duration::ZERO,
            chunk_run_total: Duration::ZERO,
            tiles: None,
            shard: None,
        }
    }

    /// Fraction of the matrix with a terminal outcome, in percent.
    /// An empty matrix is 100% complete — and so is a zero-pair job
    /// stopped before it started, whichever path produced it.
    pub fn percent_complete(&self) -> f64 {
        if self.pairs_total == 0 {
            100.0
        } else {
            100.0 * self.pairs_completed as f64 / self.pairs_total as f64
        }
    }

    /// Mean time a chunk spent queued, over chunks the pool actually
    /// dealt (zero when nothing ran).
    pub fn mean_chunk_wait(&self) -> Duration {
        let ran = self.chunks_completed + self.chunks_failed;
        if ran == 0 {
            Duration::ZERO
        } else {
            self.chunk_wait_total / u32::try_from(ran).unwrap_or(u32::MAX)
        }
    }

    /// Mean time a chunk spent running, over chunks the pool actually
    /// dealt (zero when nothing ran).
    pub fn mean_chunk_run(&self) -> Duration {
        let ran = self.chunks_completed + self.chunks_failed;
        if ran == 0 {
            Duration::ZERO
        } else {
            self.chunk_run_total / u32::try_from(ran).unwrap_or(u32::MAX)
        }
    }
}

impl fmt::Display for JobStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.1}% complete ({}/{} pairs, {} resumed, {} failed, {} skipped) \
             in {:.3}s; {} retries, {} slow chunk(s)",
            self.state,
            self.percent_complete(),
            self.pairs_completed,
            self.pairs_total,
            self.pairs_resumed,
            self.pairs_failed,
            self.pairs_skipped,
            self.elapsed.as_secs_f64(),
            self.retries,
            self.slow_chunks.len(),
        )?;
        if self.chunk_run_total > Duration::ZERO {
            write!(
                f,
                "; chunk wait/run {:.3}s/{:.3}s",
                self.chunk_wait_total.as_secs_f64(),
                self.chunk_run_total.as_secs_f64(),
            )?;
        }
        if let Some(tiles) = &self.tiles {
            write!(f, "; tiles: {tiles}")?;
        }
        if let Some(shard) = &self.shard {
            write!(f, "; shard: {shard}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_derivation() {
        assert_eq!(JobState::from_run(None, false), JobState::Complete);
        assert_eq!(JobState::from_run(None, true), JobState::Degraded);
        assert_eq!(
            JobState::from_run(Some(StopReason::Cancelled), false),
            JobState::Cancelled
        );
        assert_eq!(
            JobState::from_run(Some(StopReason::DeadlineExceeded), true),
            JobState::DeadlineExceeded
        );
        assert_eq!(
            JobState::from_run(Some(StopReason::PairBudgetExhausted), false),
            JobState::BudgetExhausted
        );
        assert_eq!(
            JobState::from_run(Some(StopReason::WorkerRestartsExhausted), true),
            JobState::WorkersExhausted
        );
        assert_eq!(
            JobState::from_run(Some(StopReason::WorkerRejected), false),
            JobState::WorkerRejected
        );
        assert!(JobState::Complete.ran_to_end());
        assert!(JobState::Degraded.ran_to_end());
        assert!(!JobState::Cancelled.ran_to_end());
        assert!(!JobState::WorkersExhausted.ran_to_end());
    }

    #[test]
    fn percent_complete_handles_empty_and_partial() {
        let mut s = JobStats::new(JobState::Complete, 0);
        assert_eq!(s.percent_complete(), 100.0);
        s.pairs_total = 200;
        s.pairs_completed = 50;
        assert_eq!(s.percent_complete(), 25.0);
        let text = s.to_string();
        assert!(text.contains("25.0% complete"), "{text}");
        assert!(text.contains("50/200"), "{text}");
    }

    #[test]
    fn zero_pair_jobs_report_100_percent_in_every_terminal_state() {
        // A degenerate (zero-pair) job must read as fully complete no
        // matter how it terminated — budget-stopped empty jobs used to
        // be ambiguous.
        for state in [
            JobState::Complete,
            JobState::Degraded,
            JobState::Cancelled,
            JobState::DeadlineExceeded,
            JobState::BudgetExhausted,
            JobState::WorkersExhausted,
            JobState::WorkerRejected,
        ] {
            let s = JobStats::new(state, 0);
            assert_eq!(s.percent_complete(), 100.0, "{state}");
            assert_eq!(s.mean_chunk_wait(), Duration::ZERO);
            assert_eq!(s.mean_chunk_run(), Duration::ZERO);
        }
    }

    #[test]
    fn chunk_timing_means_and_display() {
        let mut s = JobStats::new(JobState::Complete, 0);
        s.pairs_total = 100;
        s.pairs_completed = 100;
        s.chunks_total = 4;
        s.chunks_completed = 3;
        s.chunks_failed = 1;
        s.chunk_wait_total = Duration::from_millis(40);
        s.chunk_run_total = Duration::from_millis(200);
        assert_eq!(s.mean_chunk_wait(), Duration::from_millis(10));
        assert_eq!(s.mean_chunk_run(), Duration::from_millis(50));
        let text = s.to_string();
        assert!(text.contains("chunk wait/run 0.040s/0.200s"), "{text}");
    }

    #[test]
    fn shard_stats_render_in_the_job_report() {
        let mut s = JobStats::new(JobState::Complete, 0);
        s.shard = Some(ShardStats {
            workers_spawned: 4,
            worker_restarts: 2,
            workers_rejected: 1,
            tiles_leased: 9,
            leases_expired: 2,
            commits_refused: 1,
            frames_corrupt: 3,
            tiles_local_fallback: 0,
            telemetry_flushes: 2,
            pairs_poisoned: 1,
            max_bisect_depth: 3,
        });
        let text = s.to_string();
        assert!(text.contains("shard: 4 worker(s) spawned"), "{text}");
        assert!(text.contains("9 lease(s) (2 expired"), "{text}");
        assert!(text.contains("3 corrupt frame(s)"), "{text}");
        assert!(
            text.contains("1 poisoned pair(s), bisect depth 3"),
            "{text}"
        );
    }
}
