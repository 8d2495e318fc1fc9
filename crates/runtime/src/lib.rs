#![warn(missing_docs)]
//! # sts-runtime — supervised batch runtime for similarity jobs
//!
//! The all-pairs STS matrix is the workload the production system
//! actually serves, and at scale its dominant failure mode is
//! operational, not numerical: a stripe wedges on a pathological pair,
//! a job is killed at 90% with all progress lost, a host has fewer
//! cores than assumed. This crate supplies the job-lifecycle machinery
//! that makes a long-running batch *supervised* rather than fired and
//! forgotten:
//!
//! * [`CancelToken`] — cooperative, `AtomicBool`-backed cancellation,
//!   checked by workers at every pair-chunk boundary;
//! * [`Budget`] / [`Deadline`] — wall-clock and max-pairs limits that
//!   stop a job cleanly with every completed cell intact;
//! * [`PairSpace`] / [`PairChunk`] — the pair-chunking iterator of
//!   the one matrix engine, so pair iteration logic exists exactly
//!   once;
//! * [`thread_count`] — worker-count selection from
//!   `std::thread::available_parallelism` with an `STS_THREADS`
//!   override (see the function docs for the fallback rules);
//! * [`pool::run_supervised`] — a std-only worker pool that deals
//!   chunks from a shared queue, contains a panicking chunk to that
//!   chunk, and runs a watchdog that marks chunks exceeding a
//!   per-chunk soft timeout;
//! * [`RetryPolicy`] / [`DecorrelatedJitter`] — per-cell retries with
//!   seeded decorrelated-jitter backoff;
//! * [`PairOutcome`] with [`encode_cell`] / [`decode_cell`] — the one
//!   cell vocabulary and its bit-exact text form, shared by tile files
//!   and the worker wire; [`Fnv1a`] — the fingerprint hash behind job
//!   fingerprints and the store's seal;
//! * [`store`] — the one sealed-artifact layer behind every durable
//!   file (tiles, WAL segments, snapshots): the injectable [`Storage`]
//!   trait, with [`FsStorage`] owning the tmp-write → fsync → rename
//!   discipline (the disk-chaos suite in `sts-robust` swaps in a
//!   fault-injecting implementation), the sealed format, the
//!   read-back-verified write and the quarantine;
//! * [`tile`] — per-tile spill files for the matrix engine, which are
//!   also its only resume state: sealed and job-fingerprint bound, so
//!   torn writes and bit rot are detected on load instead of silently
//!   read back;
//! * [`JobStats`] / [`JobState`] — timing, retry and completion
//!   accounting for the job report surfaced by `sts-core`;
//! * [`FaultPlan`] — deterministic, seeded fault injection (panicking
//!   and slow cells), the failpoint-style hook the chaos suite uses to
//!   drive operational faults through a *real* job via `sts-core`'s
//!   `JobConfig::fault`.
//!
//! The crate is deliberately independent of the measure: it moves
//! chunks and cells, never trajectories. `sts-core` builds the
//! similarity-specific job (`Sts::similarity_matrix_supervised`) on
//! top of these primitives; `sts-eval` and the chaos suite in
//! `sts-robust` drive them end to end.
//!
//! Everything here is std-only (the workspace builds offline with zero
//! external crates); the workspace dependencies are `sts-obs`, which
//! the pool and the stores record their counters and spans in, and
//! `sts-rng`, which seeds the deterministic backoff jitter.

mod backoff;
mod budget;
mod cancel;
mod chunk;
mod exit;
pub mod fault;
pub mod lease;
pub mod pool;
mod record;
mod stats;
pub mod store;
pub mod tile;

pub use backoff::{DecorrelatedJitter, RetryPolicy};
pub use budget::{Budget, Deadline, StopReason};
pub use cancel::CancelToken;
pub use chunk::{PairChunk, PairSpace};
pub use exit::{ParseWorkerExitError, WorkerExit};
pub use fault::{Fault, FaultPlan};
pub use lease::{CommitOutcome, LeaseTable};
pub use pool::{ChunkStatus, PoolConfig, PoolRun};
pub use record::{decode_cell, encode_cell, Fnv1a, PairOutcome};
pub use stats::{JobState, JobStats, ShardStats, TileStats};
pub use store::{FsStorage, Storage};
pub use tile::{TileData, TileError, TileStore};

/// Number of worker threads to use for a workload with `cap` parallel
/// units (chunks, rows, …).
///
/// Selection order:
/// 1. the `STS_THREADS` environment variable, when set to an integer
///    ≥ 1 (a service operator pinning a job to a core budget);
/// 2. [`std::thread::available_parallelism`] — the actual host, not a
///    hard-coded stripe count;
/// 3. `1` when the platform cannot report its parallelism (the
///    documented fallback: correctness never depends on thread count,
///    so degrading to sequential is always safe).
///
/// The result is clamped to `[1, max(cap, 1)]` — spawning more workers
/// than there are units only adds scheduling noise.
pub fn thread_count(cap: usize) -> usize {
    let configured = std::env::var("STS_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    let n = configured.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    n.min(cap.max(1))
}

/// Number of shard workers to spawn for a workload with `cap` parallel
/// units (tiles). Mirrors [`thread_count`] exactly, but reads the
/// `STS_WORKERS` environment variable instead: socket workers are
/// whole processes, so operators size the fleet independently of the
/// in-process thread pool.
///
/// Selection order:
/// 1. `STS_WORKERS`, when set to an integer ≥ 1 (invalid, empty and
///    zero values are ignored, as with `STS_THREADS`);
/// 2. [`std::thread::available_parallelism`];
/// 3. `1` when the platform cannot report its parallelism.
///
/// The result is clamped to `[1, max(cap, 1)]`.
pub fn worker_count(cap: usize) -> usize {
    let configured = std::env::var("STS_WORKERS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    let n = configured.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    n.min(cap.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_clamped_to_cap() {
        // Whatever the host reports, the cap wins when smaller.
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(4) <= 4);
        assert!(thread_count(usize::MAX) >= 1);
        // A zero cap still yields one worker (a job with no chunks
        // spawns a pool that immediately drains).
        assert_eq!(thread_count(0), 1);
    }

    #[test]
    fn worker_count_env_override_and_fallbacks() {
        // One test mutates the process-global variable serially;
        // nothing else in this crate reads STS_WORKERS.
        std::env::set_var("STS_WORKERS", "3");
        assert_eq!(worker_count(100), 3);
        assert_eq!(worker_count(2), 2, "cap still clamps the override");
        // Zero is not a fleet: ignored, like STS_THREADS=0.
        std::env::set_var("STS_WORKERS", "0");
        assert!(worker_count(100) >= 1);
        // Garbage is ignored, not a panic.
        for bad in ["four", "", " ", "-2", "3.5"] {
            std::env::set_var("STS_WORKERS", bad);
            assert!(worker_count(100) >= 1, "invalid `{bad}` must fall back");
        }
        // Whitespace around a valid value is tolerated.
        std::env::set_var("STS_WORKERS", " 5 ");
        assert_eq!(worker_count(100), 5);
        std::env::remove_var("STS_WORKERS");
        assert!(worker_count(100) >= 1);
        assert_eq!(worker_count(0), 1);
    }
}
