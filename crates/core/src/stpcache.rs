//! Per-trajectory STP caching for the STS hot path.
//!
//! `STP(r, t, Tra)` (Eqs. 1–5) depends on a *single* trajectory, yet the
//! matrix paths historically recomputed it per *pair* — every trajectory
//! was re-evaluated against every partner's timestamps. This module
//! gives each [`crate::PreparedTrajectory`] a shared, thread-safe STP
//! cache so a distribution is evaluated once per `(trajectory,
//! timestamp)` and every pair that needs it afterwards reduces to a
//! sparse dot product over cached entries.
//!
//! Layout: a flat structure-of-arrays arena (`cell_ids: Vec<u32>` /
//! `probs: Vec<f64>`) plus an index from timestamp bits to an
//! `(offset, len)` range. The SoA form keeps a pair's inner loop — the
//! sorted merge of two cached distributions — on two dense, cache-line
//! friendly slices, and makes an empty distribution a zero-length range
//! rather than an allocation.
//!
//! Concurrency: the cache sits behind an `RwLock`. Scoring threads
//! detect misses under a short read lock; when there are any, the
//! re-check and the evaluation both happen under one write lock, so
//! every `(trajectory, timestamp)` is evaluated **exactly once**
//! process-wide — work counters (`core.stp.evals`, `core.stp.cells`,
//! hits/misses) stay thread-count invariant, which the telemetry suite
//! asserts. Holding the write lock across evaluation serializes fills
//! of *one* trajectory's cache; threads filling different trajectories
//! proceed in parallel, and a thread blocked on a filling writer would
//! otherwise have computed the same distributions itself. When a pair
//! reads two caches simultaneously the guards are taken in a canonical
//! (address) order, which rules out reader/writer deadlock cycles.
//!
//! The arena is bounded by [`MAX_ARENA_ENTRIES`]; on overflow the cache
//! recycles (clears) itself. Correctness never depends on an entry
//! being present: readers fall back to direct evaluation for missing
//! timestamps, so eviction only costs time.

use crate::dist::SparseDistribution;
use crate::stprob::{StpEstimator, StpEvalScratch};
use std::collections::HashMap;
use std::sync::{RwLock, RwLockReadGuard};

/// How [`crate::Sts`] evaluates STP distributions when scoring pairs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StpCacheMode {
    /// The uncached reference path: both trajectories are re-evaluated
    /// at every merged timestamp of every pair, exactly as written in
    /// the paper's Algorithm 1. Kept as the oracle for the differential
    /// equivalence suite.
    Off,
    /// Per-trajectory caching keyed by exact timestamp bits (the
    /// default). Scores are **bit-identical** to [`StpCacheMode::Off`]:
    /// the cache stores precisely what `stp()` returns and the sparse
    /// dot over cached entries performs the same merge in the same
    /// order. Saves the mirror-pair/diagonal recomputation and all
    /// per-evaluation allocation.
    #[default]
    Exact,
}

/// Upper bound on `(cell, prob)` entries held per trajectory cache
/// (≈ 48 MB). On overflow the cache recycles; see module docs.
pub(crate) const MAX_ARENA_ENTRIES: usize = 4 << 20;

#[derive(Default)]
struct CacheInner {
    /// `t.to_bits()` → `(offset, len)` into the SoA arena. A `len` of 0
    /// is a cached *empty* distribution (e.g. `t` outside the span).
    index: HashMap<u64, (u32, u32)>,
    cell_ids: Vec<u32>,
    probs: Vec<f64>,
}

/// A trajectory's STP cache (one per [`crate::PreparedTrajectory`]).
#[derive(Default)]
pub(crate) struct StpCache {
    inner: RwLock<CacheInner>,
}

impl std::fmt::Debug for StpCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock_read();
        f.debug_struct("StpCache")
            .field("timestamps", &inner.index.len())
            .field("entries", &inner.cell_ids.len())
            .finish()
    }
}

impl StpCache {
    fn lock_read(&self) -> RwLockReadGuard<'_, CacheInner> {
        // A poisoned lock only means some scoring thread panicked; the
        // cache itself is never left mid-mutation (appends are
        // panic-free), so recover the guard rather than wedging the
        // whole job.
        self.inner
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Makes sure every timestamp in `times` is cached, evaluating
    /// misses through `est.stp_into` with the caller's scratch. Misses
    /// are re-checked and evaluated under one write lock, so each
    /// timestamp is computed exactly once however many threads race on
    /// it (see the module docs for why determinism wins over
    /// out-of-lock evaluation here).
    pub(crate) fn ensure(
        &self,
        est: &StpEstimator<'_>,
        times: &[(f64, f64)],
        scratch: &mut FillScratch,
    ) {
        let any_miss = {
            let inner = self.lock_read();
            times
                .iter()
                .any(|&(t, _)| !inner.index.contains_key(&t.to_bits()))
        };
        if !any_miss {
            sts_obs::static_counter!("core.stp.cache_hits").add(times.len() as u64);
            return;
        }
        let mut inner = self
            .inner
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Re-check under the write lock: a concurrent filler may have
        // committed some timestamps since the read probe. Whatever is
        // still missing here is missing for every thread — exactly one
        // writer evaluates it.
        scratch.miss.clear();
        scratch.miss.extend(
            times
                .iter()
                .map(|&(t, _)| t)
                .filter(|t| !inner.index.contains_key(&t.to_bits())),
        );
        let hits = times.len() - scratch.miss.len();
        if hits > 0 {
            sts_obs::static_counter!("core.stp.cache_hits").add(hits as u64);
        }
        if scratch.miss.is_empty() {
            return;
        }
        sts_obs::static_counter!("core.stp.cache_misses").add(scratch.miss.len() as u64);
        for i in 0..scratch.miss.len() {
            let t = scratch.miss[i];
            let d = est.stp_into(t, &mut scratch.eval);
            let n = d.entries().len();
            if n > MAX_ARENA_ENTRIES {
                // A single distribution larger than the arena bound
                // (degenerate dense fallback on a huge grid): leave it
                // uncached; readers evaluate it directly.
                continue;
            }
            if inner.cell_ids.len() + n > MAX_ARENA_ENTRIES {
                // Arena full: recycle wholesale. Readers never rely on
                // presence, so this only trades time, not correctness.
                inner.index.clear();
                inner.cell_ids.clear();
                inner.probs.clear();
            }
            let at = inner.cell_ids.len() as u32;
            for &(c, w) in d.entries() {
                inner.cell_ids.push(c.0);
                inner.probs.push(w);
            }
            inner.index.insert(t.to_bits(), (at, n as u32));
        }
    }

    /// A read view over the cache for the dot-product phase.
    pub(crate) fn read(&self) -> StpCacheReader<'_> {
        StpCacheReader {
            guard: self.lock_read(),
        }
    }
}

/// Read guard over a trajectory's cache; hands out SoA slices.
pub(crate) struct StpCacheReader<'a> {
    guard: RwLockReadGuard<'a, CacheInner>,
}

impl StpCacheReader<'_> {
    /// The cached distribution at `t` as parallel `(cell_ids, probs)`
    /// slices, or `None` when `t` is not cached (never computes).
    pub(crate) fn get(&self, t: f64) -> Option<(&[u32], &[f64])> {
        let &(start, len) = self.guard.index.get(&t.to_bits())?;
        let (s, e) = (start as usize, start as usize + len as usize);
        Some((&self.guard.cell_ids[s..e], &self.guard.probs[s..e]))
    }
}

/// Buffers used while filling a cache: the miss list and the low-level
/// evaluation scratch.
#[derive(Default)]
pub(crate) struct FillScratch {
    miss: Vec<f64>,
    pub(crate) eval: StpEvalScratch,
}

/// Per-worker scratch arena for the cached STS hot path: the pair's
/// evaluation-time list plus all cache-fill buffers. One instance per
/// worker thread (pool workers, strict-matrix threads, the subprocess
/// worker's serve loop) is created once and reused across every pair
/// that worker scores — the hot path performs no per-pair allocation
/// beyond first-touch growth of these buffers.
///
/// Ownership rules: a scratch is exclusively owned by one worker and
/// never crosses threads mid-job; the shared state is the per-trajectory
/// [`StpCache`], which the scratch only stages into. Buffers are
/// cleared at the start of each use, so a scratch remains valid even if
/// a previous score panicked mid-evaluation.
#[derive(Default)]
pub struct StpScratch {
    /// `(t, multiplicity)` evaluation points for the current pair.
    pub(crate) times: Vec<(f64, f64)>,
    pub(crate) fill: FillScratch,
}

impl StpScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        StpScratch::default()
    }
}

/// Converts a cached SoA distribution back into a standalone
/// [`SparseDistribution`] (exact copy, including any zero-weight
/// entries the normalization kept).
pub(crate) fn soa_to_dist(ids: &[u32], probs: &[f64]) -> SparseDistribution {
    let mut d = SparseDistribution::empty();
    d.entries_mut().extend(
        ids.iter()
            .zip(probs)
            .map(|(&c, &p)| (sts_geo::CellId(c), p)),
    );
    d
}
