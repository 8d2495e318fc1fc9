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
//! Concurrency: the arena sits behind an `RwLock`, and no lock is held
//! while a distribution is evaluated. [`ensure`] fills a pair's two
//! caches by *claims*: under a short write lock a thread claims one
//! stamp that is neither cached nor claimed, evaluates it with no lock
//! held, and publishes it under a second short write lock. A stamp
//! another thread has claimed is set aside; the thread goes on with its
//! pair's other missing stamps, on both sides, and only then sleeps
//! until the set-aside stamps are published. A claim is taken once, so
//! every `(trajectory, timestamp)` is evaluated **exactly once**
//! process-wide and the work counters (`core.stp.evals`,
//! `core.stp.cells`, hits/misses) stay thread-count invariant, which the
//! telemetry suite asserts. A thread never sleeps while it holds a
//! claim, so waits form no cycle; a claim whose evaluation unwinds is
//! released by a drop guard and its waiters are woken, and one of them
//! claims the stamp in turn. When a pair reads two caches
//! simultaneously the read guards are taken in a canonical (address)
//! order, which rules out reader/writer deadlock cycles.
//!
//! The arena is bounded by [`MAX_ARENA_ENTRIES`]; on overflow the cache
//! recycles (clears) itself. Correctness never depends on an entry
//! being present: readers fall back to direct evaluation for missing
//! timestamps, so eviction only costs time.

use crate::dist::SparseDistribution;
use crate::stprob::{StpEstimator, StpEvalScratch};
use std::collections::HashMap;
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

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
    /// Stamps (`t.to_bits()`) some thread is evaluating: claimed, not
    /// yet published. At most one per filling thread.
    claimed: Vec<u64>,
}

/// Where a stamp stands in one cache.
enum Slot {
    Cached,
    Claimed,
    Free,
}

impl CacheInner {
    fn slot(&self, key: u64) -> Slot {
        if self.index.contains_key(&key) {
            Slot::Cached
        } else if self.claimed.contains(&key) {
            Slot::Claimed
        } else {
            Slot::Free
        }
    }

    /// Appends `d` to the arena under `key`.
    fn insert(&mut self, key: u64, d: &SparseDistribution) {
        let n = d.entries().len();
        if n > MAX_ARENA_ENTRIES {
            // A single distribution larger than the arena bound
            // (degenerate dense fallback on a huge grid): leave it
            // uncached; readers evaluate it directly.
            return;
        }
        if self.cell_ids.len() + n > MAX_ARENA_ENTRIES {
            // Arena full: recycle wholesale. Readers never rely on
            // presence, so this only trades time, not correctness.
            self.index.clear();
            self.cell_ids.clear();
            self.probs.clear();
        }
        let at = self.cell_ids.len() as u32;
        for &(c, w) in d.entries() {
            self.cell_ids.push(c.0);
            self.probs.push(w);
        }
        self.index.insert(key, (at, n as u32));
    }
}

/// A trajectory's STP cache (one per [`crate::PreparedTrajectory`]).
#[derive(Default)]
pub(crate) struct StpCache {
    inner: RwLock<CacheInner>,
    /// Threads asleep on `settled`. A waiter holds this mutex from its
    /// last look at a claim until it sleeps, and a settling thread takes
    /// it before notifying, so no wake-up is lost.
    sleepers: Mutex<usize>,
    settled: Condvar,
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
    // A poisoned lock only means some thread panicked while holding it;
    // no critical section here can leave the arena mid-mutation short of
    // an allocation failure, and claims are released by their guard, so
    // the guards are recovered rather than wedging the whole job.
    fn lock_read(&self) -> RwLockReadGuard<'_, CacheInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_write(&self) -> RwLockWriteGuard<'_, CacheInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_sleepers(&self) -> MutexGuard<'_, usize> {
        self.sleepers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A read view over the cache for the dot-product phase.
    pub(crate) fn read(&self) -> StpCacheReader<'_> {
        StpCacheReader {
            guard: self.lock_read(),
        }
    }

    /// Claims the first stamp of `times[*cursor..]` that is neither
    /// cached nor claimed, advancing `cursor` past it. Stamps cached on
    /// the way count into `hits`; stamps claimed by other threads are
    /// pushed to `waits` under `side`.
    fn claim_next(
        &self,
        times: &[(f64, f64)],
        cursor: &mut usize,
        side: usize,
        hits: &mut usize,
        waits: &mut Vec<(usize, f64)>,
    ) -> Option<Claim<'_>> {
        let mut inner = self.lock_write();
        while let Some(&(t, _)) = times.get(*cursor) {
            *cursor += 1;
            let key = t.to_bits();
            match inner.slot(key) {
                Slot::Cached => *hits += 1,
                Slot::Claimed => waits.push((side, t)),
                Slot::Free => {
                    inner.claimed.push(key);
                    return Some(Claim { cache: self, key });
                }
            }
        }
        None
    }

    /// Sleeps until no other thread holds a claim on `t`. Returns `None`
    /// once `t` is cached, or a claim for the caller when the stamp is
    /// free again — its evaluation unwound, or a recycle evicted it.
    fn await_or_claim(&self, t: f64) -> Option<Claim<'_>> {
        let key = t.to_bits();
        let mut sleepers = self.lock_sleepers();
        loop {
            {
                let mut inner = self.lock_write();
                match inner.slot(key) {
                    Slot::Cached => return None,
                    Slot::Free => {
                        inner.claimed.push(key);
                        return Some(Claim { cache: self, key });
                    }
                    Slot::Claimed => {}
                }
            }
            *sleepers += 1;
            sleepers = self
                .settled
                .wait(sleepers)
                .unwrap_or_else(PoisonError::into_inner);
            *sleepers -= 1;
        }
    }

    /// Ends the claim on `key`, publishing `d` when given, and wakes the
    /// threads waiting for a claim of this cache to settle.
    fn settle(&self, key: u64, d: Option<&SparseDistribution>) {
        {
            let mut inner = self.lock_write();
            if let Some(at) = inner.claimed.iter().position(|&k| k == key) {
                inner.claimed.swap_remove(at);
            }
            if let Some(d) = d {
                inner.insert(key, d);
            }
        }
        if *self.lock_sleepers() > 0 {
            self.settled.notify_all();
        }
    }

    /// Threads asleep waiting for a claim of this cache to settle.
    #[cfg(test)]
    fn sleepers(&self) -> usize {
        *self.lock_sleepers()
    }
}

/// A claimed stamp. [`Claim::evaluate`] ends it by publishing the
/// distribution; dropped unpublished — its evaluation unwound — it
/// releases the stamp and wakes the waiters, so a panic never leaves a
/// stamp claimed.
struct Claim<'c> {
    cache: &'c StpCache,
    key: u64,
}

impl Claim<'_> {
    /// Evaluates the claimed stamp with no lock held and publishes it.
    fn evaluate(self, est: &StpEstimator<'_>, eval: &mut StpEvalScratch) {
        let d = est.stp_into(f64::from_bits(self.key), eval);
        self.cache.settle(self.key, Some(d));
        std::mem::forget(self);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.cache.settle(self.key, None);
    }
}

/// Makes sure every stamp of `times` is cached in every side's cache,
/// evaluating misses through the side's estimator with the caller's
/// scratch. Each side's missing stamps are claimed and evaluated one at
/// a time; stamps claimed by other threads are awaited only after every
/// side's other misses are done. Counts one `core.stp.cache_misses` per
/// stamp this call evaluated and one `core.stp.cache_hits` per other
/// lookup, so both totals are thread-count invariant.
pub(crate) fn ensure(
    sides: &[(&StpCache, &StpEstimator<'_>)],
    times: &[(f64, f64)],
    scratch: &mut FillScratch,
) {
    let FillScratch { waits, eval } = scratch;
    waits.clear();
    let (mut hits, mut misses) = (0, 0);
    for (side, &(cache, est)) in sides.iter().enumerate() {
        // Fast path: one read lock when every stamp is cached already.
        let first_miss = {
            let inner = cache.lock_read();
            times
                .iter()
                .position(|&(t, _)| !inner.index.contains_key(&t.to_bits()))
        };
        let Some(mut cursor) = first_miss else {
            hits += times.len();
            continue;
        };
        hits += cursor;
        while let Some(claim) = cache.claim_next(times, &mut cursor, side, &mut hits, waits) {
            claim.evaluate(est, eval);
            misses += 1;
        }
    }
    for &(side, t) in waits.iter() {
        let (cache, est) = sides[side];
        match cache.await_or_claim(t) {
            None => hits += 1,
            Some(claim) => {
                claim.evaluate(est, eval);
                misses += 1;
            }
        }
    }
    if hits > 0 {
        sts_obs::static_counter!("core.stp.cache_hits").add(hits as u64);
    }
    if misses > 0 {
        sts_obs::static_counter!("core.stp.cache_misses").add(misses as u64);
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

/// Buffers used while filling caches: the stamps awaited from other
/// threads and the low-level evaluation scratch.
#[derive(Default)]
pub(crate) struct FillScratch {
    waits: Vec<(usize, f64)>,
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
    /// `(t, weight)` evaluation points for the current pair.
    pub(crate) times: Vec<(f64, f64)>,
    /// Per evaluation point, the cell-id span its dot product is
    /// bounded to.
    pub(crate) spans: Vec<(u32, u32)>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::GaussianNoise;
    use crate::transition::{BrownianTransition, TransitionModel};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use sts_geo::{BoundingBox, Grid, Point};
    use sts_traj::Trajectory;

    /// A Brownian transition whose first evaluation meets the test at
    /// `gate` twice — once inside the evaluation, once to be released —
    /// and then panics.
    struct PanicsOnceAtGate {
        inner: BrownianTransition,
        armed: AtomicBool,
        gate: Barrier,
    }

    impl TransitionModel for PanicsOnceAtGate {
        fn probability(&self, from: Point, to: Point, dt: f64) -> f64 {
            self.inner.probability(from, to, dt)
        }
        fn max_displacement(&self, dt: f64) -> f64 {
            self.inner.max_displacement(dt)
        }
        fn is_isotropic(&self) -> bool {
            true
        }
        fn probability_by_distance(&self, d: f64, dt: f64) -> f64 {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.gate.wait();
                self.gate.wait();
                panic!("injected: the first transition evaluation panics");
            }
            self.inner.probability_by_distance(d, dt)
        }
    }

    #[test]
    fn an_unwound_claim_wakes_its_waiter_who_evaluates_the_stamp() {
        let grid = Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(100.0, 20.0)),
            2.0,
        )
        .unwrap();
        let noise = GaussianNoise::new(2.0);
        let traj =
            Trajectory::from_xyt(&[(5.0, 10.0, 0.0), (15.0, 10.0, 10.0), (25.0, 10.0, 20.0)])
                .unwrap();
        let model = PanicsOnceAtGate {
            inner: BrownianTransition::new(4.0),
            armed: AtomicBool::new(true),
            gate: Barrier::new(2),
        };
        let est = StpEstimator::new(&grid, &noise, &model, &traj);
        let cache = StpCache::default();
        // A bridge stamp: its evaluation reads the transition model.
        let times = [(5.0, 1.0)];
        let fill = || ensure(&[(&cache, &est)], &times, &mut FillScratch::default());
        std::thread::scope(|s| {
            let claimant = s.spawn(fill);
            // The claimant is inside its evaluation of t = 5.
            model.gate.wait();
            let waiter = s.spawn(fill);
            while cache.sleepers() == 0 {
                std::thread::yield_now();
            }
            // The waiter sleeps on the claim; let the claimant panic.
            model.gate.wait();
            assert!(
                claimant.join().is_err(),
                "the claimant's evaluation unwinds"
            );
            waiter.join().expect("the waiter completes the fill");
        });
        let want = est.stp(5.0);
        let reader = cache.read();
        let (ids, probs) = reader.get(5.0).expect("the waiter cached t = 5");
        let got = soa_to_dist(ids, probs);
        assert!(!want.is_empty());
        assert_eq!(got.len(), want.len());
        for (&(cg, wg), &(cw, ww)) in got.entries().iter().zip(want.entries()) {
            assert_eq!((cg, wg.to_bits()), (cw, ww.to_bits()));
        }
        drop(reader);
        assert!(cache.lock_read().claimed.is_empty(), "no claim is left");
        assert_eq!(cache.sleepers(), 0);
    }
}
