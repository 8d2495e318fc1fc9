//! Spatio-temporal inverted index for candidate pruning.
//!
//! Exact STS costs `O(|Tra|·|Tra'|·|R|²)` per pair (paper §V-C);
//! scanning a large corpus for the most similar trajectory at that
//! price is wasteful when almost every candidate shares *no*
//! spatio-temporal region with the query. [`ColocationIndex`] maps
//! `(grid cell, time bucket)` keys to the trajectories observed there,
//! so a query only pays the exact measure on candidates that plausibly
//! co-locate — the classic filter-and-refine pattern of trajectory
//! databases.
//!
//! The filter is *conservative by construction* for the matching task:
//! any trajectory pair with an observation in the same spatial
//! neighborhood (3×3 cells) within one time bucket is retained. Pairs
//! without any such co-occurrence would score near-zero STS anyway.

use crate::StsError;
use std::collections::HashMap;
use sts_geo::{CellId, Grid};
use sts_traj::Trajectory;

/// Inverted index over `(cell, time bucket)` co-occurrences.
pub struct ColocationIndex {
    grid: Grid,
    bucket_seconds: f64,
    /// Posting lists: key → ids of trajectories observed there.
    postings: HashMap<(CellId, i64), Vec<u32>>,
    n_indexed: usize,
}

impl ColocationIndex {
    /// Builds the index over a corpus. `bucket_seconds` controls the
    /// temporal resolution: co-locations farther apart than one bucket
    /// are not guaranteed to be found (choose it at or above the
    /// corpus's typical sampling gap).
    pub fn build(grid: Grid, bucket_seconds: f64, corpus: &[Trajectory]) -> Self {
        assert!(bucket_seconds > 0.0, "bucket width must be positive");
        let mut postings: HashMap<(CellId, i64), Vec<u32>> = HashMap::new();
        for (id, traj) in corpus.iter().enumerate() {
            for p in traj.points() {
                let key = (
                    grid.cell_at_clamped(p.loc),
                    (p.t / bucket_seconds).floor() as i64,
                );
                let list = postings.entry(key).or_default();
                if list.last() != Some(&(id as u32)) {
                    list.push(id as u32);
                }
            }
        }
        ColocationIndex {
            grid,
            bucket_seconds,
            postings,
            n_indexed: corpus.len(),
        }
    }

    /// Number of indexed trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_indexed
    }

    /// `true` when no trajectories are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_indexed == 0
    }

    /// Number of posting lists (index size indicator).
    #[inline]
    pub fn posting_lists(&self) -> usize {
        self.postings.len()
    }

    /// Candidate ids that co-occur with `query` in at least one
    /// `(3×3 cell neighborhood, ±1 time bucket)` region, with their
    /// co-occurrence counts, sorted by decreasing count.
    pub fn candidates(&self, query: &Trajectory) -> Vec<(u32, u32)> {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for p in query.points() {
            let cell = self.grid.cell_at_clamped(p.loc);
            let bucket = (p.t / self.bucket_seconds).floor() as i64;
            let mut cells = self.grid.neighbors(cell);
            cells.push(cell);
            for c in cells {
                for b in [bucket - 1, bucket, bucket + 1] {
                    if let Some(list) = self.postings.get(&(c, b)) {
                        for &id in list {
                            *counts.entry(id).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        let mut out: Vec<(u32, u32)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Filter-and-refine top-k: prune with the index, then rank the
    /// `refine_limit` strongest candidates (at least `k`) with
    /// [`Sts::top_k`](crate::Sts::top_k) — the exact ranking's scoring
    /// path and error contract, so an unpreparable survivor is an
    /// error. Returns `(corpus index, similarity)`, best first, ties
    /// broken by corpus index. Candidates never touched by the filter
    /// are never scored (their STS would be ~0 — no shared
    /// spatio-temporal region).
    pub fn top_k(
        &self,
        sts: &crate::Sts,
        query: &Trajectory,
        corpus: &[Trajectory],
        k: usize,
        refine_limit: usize,
    ) -> Result<Vec<(usize, f64)>, StsError> {
        assert_eq!(
            corpus.len(),
            self.n_indexed,
            "corpus must be the one the index was built over"
        );
        let mut survivors: Vec<usize> = self
            .candidates(query)
            .into_iter()
            .take(refine_limit.max(k))
            .map(|(id, _)| id as usize)
            .collect();
        survivors.sort_unstable();
        let refine: Vec<Trajectory> = survivors.iter().map(|&id| corpus[id].clone()).collect();
        let ranked = sts.top_k(query, &refine, k)?;
        Ok(ranked.into_iter().map(|(j, s)| (survivors[j], s)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sts, StsConfig};
    use sts_geo::{BoundingBox, Point};
    use sts_traj::TrajPoint;

    fn grid() -> Grid {
        Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(400.0, 400.0)),
            5.0,
        )
        .unwrap()
    }

    /// Walker along y = `y` starting at `t0`.
    fn walker(y: f64, t0: f64, n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| {
                    let t = t0 + 10.0 * i as f64;
                    TrajPoint::from_xy(2.0 * (t - t0), y, t)
                })
                .collect(),
        )
        .unwrap()
    }

    fn corpus() -> Vec<Trajectory> {
        (0..12)
            .map(|k| walker(30.0 * k as f64 + 5.0, 0.0, 10))
            .collect()
    }

    #[test]
    fn index_statistics() {
        let corpus = corpus();
        let idx = ColocationIndex::build(grid(), 30.0, &corpus);
        assert_eq!(idx.len(), 12);
        assert!(!idx.is_empty());
        assert!(idx.posting_lists() > 0);
    }

    #[test]
    fn candidates_find_the_co_located_trajectory() {
        let corpus = corpus();
        let idx = ColocationIndex::build(grid(), 30.0, &corpus);
        // A query following corpus trajectory 3's route, shifted by 5 s.
        let query = walker(95.0, 5.0, 10);
        let cands = idx.candidates(&query);
        assert!(!cands.is_empty());
        assert_eq!(cands[0].0, 3, "strongest candidate should be walker 3");
        // Walkers far away are not candidates at all.
        let ids: Vec<u32> = cands.iter().map(|&(id, _)| id).collect();
        assert!(!ids.contains(&11), "walker 11 is 240 m away");
    }

    #[test]
    fn pruned_top_k_matches_exact_top_k() {
        let corpus = corpus();
        let g = grid();
        let idx = ColocationIndex::build(g.clone(), 30.0, &corpus);
        let sts = Sts::new(
            StsConfig {
                noise_sigma: 4.0,
                ..StsConfig::default()
            },
            g,
        );
        let query = walker(65.0, 5.0, 10);
        let pruned = idx.top_k(&sts, &query, &corpus, 1, 4).unwrap();
        let exact = sts.top_k(&query, &corpus, 1).unwrap();
        assert_eq!(pruned[0].0, exact[0].0, "pruned and exact disagree");
        assert!((pruned[0].1 - exact[0].1).abs() < 1e-12);
    }

    #[test]
    fn unpreparable_survivor_is_an_error_not_a_zero() {
        let mut corpus = corpus();
        // A one-point trajectory right on the query's route.
        corpus[2] = Trajectory::new(vec![TrajPoint::from_xy(20.0, 65.0, 15.0)]).unwrap();
        let g = grid();
        let idx = ColocationIndex::build(g.clone(), 30.0, &corpus);
        let sts = Sts::new(StsConfig::default(), g);
        let query = walker(65.0, 5.0, 10);
        assert!(idx.candidates(&query).iter().any(|&(id, _)| id == 2));
        assert_eq!(
            idx.top_k(&sts, &query, &corpus, 1, 4),
            Err(StsError::TrajectoryTooShort { len: 1 })
        );
    }

    #[test]
    fn disjoint_query_yields_no_candidates() {
        let corpus = corpus();
        let idx = ColocationIndex::build(grid(), 30.0, &corpus);
        // Same space, 10 hours later: temporal buckets disjoint.
        let query = walker(65.0, 36_000.0, 10);
        assert!(idx.candidates(&query).is_empty());
    }

    #[test]
    #[should_panic]
    fn corpus_mismatch_panics() {
        let corpus = corpus();
        let g = grid();
        let idx = ColocationIndex::build(g.clone(), 30.0, &corpus);
        let sts = Sts::new(StsConfig::default(), g);
        let _ = idx.top_k(&sts, &corpus[0], &corpus[..3], 1, 4);
    }
}
