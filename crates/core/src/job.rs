//! Supervised similarity-matrix jobs: the configuration, the report,
//! the input fingerprint and per-cell scoring.
//!
//! At production scale the dominant failure mode of a matrix job is
//! operational — a job killed at 90%, a stripe wedged on a
//! pathological pair, a host with fewer cores than assumed — so every
//! matrix job here is *supervised*:
//!
//! * **deadline-aware** — a [`Budget`] (wall-clock and/or max-pairs)
//!   is checked at every pair-chunk boundary; a stopped job returns
//!   every completed cell and marks the rest [`PairOutcome::Skipped`];
//! * **cancellable** — a [`CancelToken`] gives Ctrl-C handlers and RPC
//!   deadline watchers a clean way in;
//! * **self-healing** — a panicked cell is retried with
//!   decorrelated-jitter backoff up to [`RetryPolicy::max_retries`]
//!   times before becoming [`PairOutcome::Failed`] (retries are the
//!   cell's alone: the pool only contains a panicking chunk), and a
//!   watchdog marks chunks exceeding the soft timeout;
//! * **resumable** — given a [`TileConfig`](crate::TileConfig), every
//!   completed tile is spilled to disk and a rerun resumes from the
//!   verified tiles (see [`crate::tiled`]), so a crash loses at most
//!   the tiles in flight.
//!
//! Every matrix and top-k entry point — strict, supervised or tiled —
//! is a view of the one engine in [`crate::tiled`]; this module holds
//! what the engine is configured with and what it reports. The
//! [`JobReport`] pairs the data-quality [`BatchReport`] with the
//! runtime half: timing, retry counts, chunk accounting and
//! percent-complete ([`JobStats`]).

use crate::batch::{BatchReport, PairOutcome};
use crate::sts::{PreparedTrajectory, Sts};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use sts_geo::Grid;
use sts_obs::Telemetry;
use sts_runtime::{
    Budget, CancelToken, DecorrelatedJitter, FaultPlan, Fnv1a, JobState, JobStats, RetryPolicy,
};
use sts_traj::Trajectory;

/// Where a supervised job's scoring actually runs.
#[derive(Debug, Clone, Default)]
pub enum ExecMode {
    /// Score on a thread pool inside this process (the default).
    /// Panics are contained per cell, but aborts, OOM kills and wedged
    /// computations take the whole job down.
    #[default]
    InProcess,
    /// Score in `sts-worker` subprocesses: each tile's chunks are dealt
    /// to a fleet on the lease coordinator in [`crate::shard`]. A
    /// crashed, wedged or babbling worker costs one chunk: the
    /// coordinator restarts it under a budget and bisects the killing
    /// chunk down to the single poison pair, which is quarantined as
    /// [`PairOutcome::Poisoned`] with how its worker ended. Budget,
    /// cancellation, tile resume and telemetry behave exactly as
    /// in-process; per-cell *retries* run inside the worker, so they
    /// are applied identically but not counted in
    /// [`JobStats::retries`], and chunk accounting counts
    /// fully-resolved chunks (bisection fragments are not chunks).
    ///
    /// Requires a measure built purely from config ([`Sts::new`] or
    /// the `NoNoise` variant) — trait-object and corpus-trained
    /// measures cannot be described to a worker
    /// ([`JobError::SubprocessUnsupported`]).
    Subprocess(IsolateOptions),
    /// Score on a fleet of `sts-worker` processes dealt whole tiles by
    /// the same lease coordinator; a tile the fleet cannot finish is
    /// computed in-process. Only meaningful
    /// with a [`TileConfig`](crate::TileConfig) — tiles are the unit of
    /// distribution; an untiled job is one in-memory tile with nothing
    /// to deal ([`JobError::ShardRequiresTiling`]). Same pure-config
    /// measure requirement as `Subprocess`.
    Sharded(crate::shard::ShardOptions),
}

/// Tuning for [`ExecMode::Subprocess`]. `Default` is production-shaped;
/// tests shrink the timeouts.
#[derive(Debug, Clone)]
pub struct IsolateOptions {
    /// Worker executable; `None` resolves `sts-worker` next to the
    /// current executable ([`crate::worker::default_worker_path`]).
    pub worker: Option<PathBuf>,
    /// Hard per-chunk timeout — the chunk's lease: a worker that has
    /// not answered within this long is killed and the chunk
    /// attributed. Must comfortably exceed the honest worst-case chunk
    /// time.
    pub hard_timeout: Duration,
    /// How long a fresh worker may take to rebuild the measure,
    /// prepare the corpus and answer `ready`.
    pub ready_timeout: Duration,
    /// Worker respawns allowed across the run (the initial fleet is
    /// free); exhaustion stops the job as
    /// [`JobState::WorkersExhausted`]. A single pair is quarantined as
    /// poison on the first death it causes in isolation.
    pub restart_budget: usize,
}

impl Default for IsolateOptions {
    fn default() -> Self {
        IsolateOptions {
            worker: None,
            hard_timeout: Duration::from_secs(30),
            ready_timeout: Duration::from_secs(10),
            restart_budget: 256,
        }
    }
}

/// Everything that governs one supervised job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Wall-clock / max-pairs budget (default: unlimited).
    pub budget: Budget,
    /// Cooperative cancellation (default: a fresh, never-cancelled
    /// token — keep a clone to cancel from outside).
    pub cancel: CancelToken,
    /// Per-cell retry policy.
    pub retry: RetryPolicy,
    /// Worker threads; `0` = automatic ([`sts_runtime::thread_count`],
    /// which honors the `STS_THREADS` env override).
    pub threads: usize,
    /// Pairs per scheduling chunk — the granularity of cancellation
    /// checks and budget accounting.
    pub chunk_pairs: usize,
    /// Per-chunk soft timeout for the watchdog (default: none).
    pub soft_timeout: Option<Duration>,
    /// Failpoint-style fault injection, consulted before every scoring
    /// attempt — how the chaos suite drives panicking and slow cells
    /// through a real job (default: none; production jobs pay one
    /// `Option` check per cell).
    pub fault: Option<FaultPlan>,
    /// Attach a [`Telemetry`] section to the [`JobReport`]: the global
    /// metrics-registry delta over the job's lifetime (zero-valued
    /// instruments dropped). In a process running concurrent jobs the
    /// delta includes their overlap — the registry is process-wide.
    pub telemetry: bool,
    /// In-process thread pool or supervised worker subprocesses
    /// (default: in-process).
    pub exec: ExecMode,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
            retry: RetryPolicy::default(),
            threads: 0,
            chunk_pairs: 64,
            soft_timeout: None,
            fault: None,
            telemetry: false,
            exec: ExecMode::InProcess,
        }
    }
}

/// Errors starting a supervised job. Only the executor set-up and the
/// tile directory can produce these; once a job runs it never fails —
/// it degrades.
#[derive(Debug)]
pub enum JobError {
    /// [`ExecMode::Subprocess`] was requested but the measure was
    /// built around trait objects or a training corpus, which cannot
    /// be serialized into a worker preamble.
    SubprocessUnsupported,
    /// [`ExecMode::Subprocess`] was requested but the worker
    /// executable does not exist at the resolved path.
    WorkerMissing {
        /// The path that was probed.
        path: PathBuf,
    },
    /// The engine was asked to run with an unusable
    /// [`TileConfig`](crate::TileConfig): a zero tile size, which
    /// would schedule forever without progressing.
    InvalidTiling(String),
    /// The tile directory could not be created or scanned.
    TileDir(std::io::Error),
    /// [`ExecMode::Sharded`] was requested without a
    /// [`TileConfig`](crate::TileConfig). Sharding deals *tiles* to
    /// workers; without tiling there is nothing to lease.
    ShardRequiresTiling,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::SubprocessUnsupported => write!(
                f,
                "subprocess execution needs a pure-config measure (Sts::new or the NoNoise \
                 variant); custom noise/transition models cannot be described to a worker"
            ),
            JobError::WorkerMissing { path } => {
                write!(f, "worker executable not found at {}", path.display())
            }
            JobError::InvalidTiling(why) => write!(f, "invalid tile config: {why}"),
            JobError::TileDir(e) => write!(f, "tile directory unusable: {e}"),
            JobError::ShardRequiresTiling => write!(
                f,
                "sharded execution distributes tiles and needs a tile config \
                 (similarity_matrix_tiled or top_k_matrix_tiled); use Subprocess for \
                 untiled supervision"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// The full report of a supervised job: the data-quality half
/// ([`BatchReport`]: quarantines, per-cell failures) plus the runtime
/// half ([`JobStats`]: state, timing, retries, completion).
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Quarantined trajectories and failed or poisoned pairs.
    pub batch: BatchReport,
    /// Lifecycle accounting.
    pub stats: JobStats,
    /// What the job recorded in the metrics registry, when
    /// [`JobConfig::telemetry`] was set (see [`Telemetry`]).
    pub telemetry: Option<Telemetry>,
}

impl JobReport {
    /// Terminal state of the job.
    pub fn state(&self) -> JobState {
        self.stats.state
    }

    /// Did every pair get a terminal outcome (no skips)?
    pub fn is_complete(&self) -> bool {
        self.stats.pairs_skipped == 0
    }

    /// Fraction of the matrix with a terminal outcome, in percent.
    pub fn percent_complete(&self) -> f64 {
        self.stats.percent_complete()
    }
}

impl fmt::Display for JobReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; {}", self.stats, self.batch)?;
        if let Some(t) = &self.telemetry {
            write!(f, "; {t}")?;
        }
        Ok(())
    }
}

/// Binds tiles to their job inputs: grid geometry plus the shape
/// (length, first/last point) of every trajectory. Deliberately *not*
/// the full point data — hashing millions of points per flush would
/// tax the hot path — so resuming with a corpus edited in place
/// between identical endpoints is undetected; the documented contract
/// is "same files, same grid, same order".
pub(crate) fn job_fingerprint(
    grid: &Grid,
    queries: &[Trajectory],
    candidates: &[Trajectory],
) -> u64 {
    let qs: Vec<TrajShape> = queries.iter().map(traj_shape).collect();
    let cs: Vec<TrajShape> = candidates.iter().map(traj_shape).collect();
    fingerprint_shapes(grid, &qs, &cs)
}

/// One trajectory as the fingerprint sees it: length plus first/last
/// point. A worker can reconstruct these from decoded preamble frames
/// without holding full [`Trajectory`] values, so the handshake
/// fingerprint check shares this exact hash with the tile store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TrajShape {
    pub len: u64,
    pub first: [f64; 3],
    pub last: [f64; 3],
}

pub(crate) fn traj_shape(t: &Trajectory) -> TrajShape {
    let (first, last) = (t.get(0), t.get(t.len() - 1));
    TrajShape {
        len: t.len() as u64,
        first: [first.loc.x, first.loc.y, first.t],
        last: [last.loc.x, last.loc.y, last.t],
    }
}

/// The single fingerprint implementation — [`job_fingerprint`] and the
/// worker's handshake verification both call this, so they cannot
/// drift apart.
pub(crate) fn fingerprint_shapes(
    grid: &Grid,
    queries: &[TrajShape],
    candidates: &[TrajShape],
) -> u64 {
    let mut h = Fnv1a::new();
    let area = grid.area();
    for v in [
        area.min().x,
        area.min().y,
        area.max().x,
        area.max().y,
        grid.cell_size(),
    ] {
        h.write_f64(v);
    }
    for side in [queries, candidates] {
        h.write_u64(side.len() as u64);
        for s in side {
            h.write_u64(s.len);
            for p in [s.first, s.last] {
                h.write_f64(p[0]);
                h.write_f64(p[1]);
                h.write_f64(p[2]);
            }
        }
    }
    h.finish()
}

impl Sts {
    /// Scores one cell with per-cell panic containment and retries.
    /// The jitter is seeded by the cell's linear index, so a replayed
    /// job backs off through the same schedule. The fault hook runs
    /// inside the containment, before the real work, so injected
    /// panics take exactly the retry path a genuine panic would.
    /// `scratch` is the calling worker's reusable arena; its buffers
    /// are cleared on entry, so reuse after a caught panic is safe.
    pub(crate) fn score_cell_retrying(
        &self,
        q: Option<&PreparedTrajectory>,
        c: Option<&PreparedTrajectory>,
        cfg: &JobConfig,
        lin: usize,
        retries: &AtomicU64,
        scratch: &mut crate::StpScratch,
    ) -> PairOutcome {
        let (Some(q), Some(c)) = (q, c) else {
            return PairOutcome::Quarantined;
        };
        let retry = &cfg.retry;
        let mut jitter = DecorrelatedJitter::new(
            retry.backoff_base,
            retry.backoff_cap,
            retry.seed ^ (lin as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
        let mut attempts = 0u32;
        loop {
            match catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = &cfg.fault {
                    plan.apply(lin, attempts);
                }
                self.similarity_prepared_with(q, c, scratch)
            })) {
                Ok(s) => return PairOutcome::Score(s),
                Err(_) => {
                    attempts += 1;
                    if attempts > retry.max_retries {
                        return PairOutcome::Failed { attempts };
                    }
                    retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(jitter.next_delay());
                }
            }
        }
    }
}
