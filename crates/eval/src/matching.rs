//! The trajectory-matching task (paper §VI-B/C).
//!
//! Given paired datasets `D(1)`/`D(2)` where `d1[i]` and `d2[i]` belong
//! to the same object, a measure is evaluated by ranking, for each
//! `d1[i]`, all of `D(2)` by similarity and recording where `d2[i]`
//! lands.

use crate::metrics::ranks_of_true_matches;
use sts_baselines::SimilarityMeasure;
use sts_core::{JobConfig, JobError, JobReport, PairOutcome, Sts};
use sts_runtime::RetryPolicy;
use sts_traj::{MatchingPairs, Trajectory};

/// Anything that can produce a full query × candidate similarity matrix.
/// Separating this from [`SimilarityMeasure`] lets STS amortize its
/// per-trajectory preparation (speed KDE, noise distributions) across a
/// whole matrix instead of redoing it per pair.
pub trait MatrixMeasure: Send + Sync {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// `matrix[i][j]` = similarity of `queries[i]` and `candidates[j]`.
    fn matrix(&self, queries: &[Trajectory], candidates: &[Trajectory]) -> Vec<Vec<f64>>;

    /// Similarity of a single pair (defaults to a 1×1 matrix).
    fn pair(&self, a: &Trajectory, b: &Trajectory) -> f64 {
        self.matrix(std::slice::from_ref(a), std::slice::from_ref(b))[0][0]
    }
}

/// Baselines compute the matrix pair-by-pair with scoped threads.
impl<M: SimilarityMeasure> MatrixMeasure for M {
    fn name(&self) -> &'static str {
        SimilarityMeasure::name(self)
    }

    fn matrix(&self, queries: &[Trajectory], candidates: &[Trajectory]) -> Vec<Vec<f64>> {
        // `thread_count` honors `STS_THREADS` and falls back to
        // `available_parallelism()` (then 1), like every other
        // parallel path in the workspace.
        let n_threads = sts_runtime::thread_count(queries.len().max(1));
        let chunk = queries.len().div_ceil(n_threads).max(1);
        let mut rows: Vec<Vec<f64>> = vec![Vec::new(); queries.len()];
        std::thread::scope(|scope| {
            for (q_chunk, out_chunk) in queries.chunks(chunk).zip(rows.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (q, out) in q_chunk.iter().zip(out_chunk.iter_mut()) {
                        *out = candidates.iter().map(|c| self.similarity(q, c)).collect();
                    }
                });
            }
        });
        rows
    }
}

/// STS amortizes preparation via its own matrix path. Pairs that cannot
/// be prepared (e.g. a 1-point trajectory after aggressive
/// down-sampling) score 0 — an unmeasurable pair is maximally
/// dissimilar, never an error that aborts an experiment.
pub struct StsMatrix(pub Sts);

impl MatrixMeasure for StsMatrix {
    fn name(&self) -> &'static str {
        "STS"
    }

    fn matrix(&self, queries: &[Trajectory], candidates: &[Trajectory]) -> Vec<Vec<f64>> {
        // The supervised matrix quarantines unpreparable trajectories
        // and contains per-pair panics, so one broken trajectory costs
        // only its own cells — the rest of the experiment is unaffected.
        // Retries are off: a measure that panics on a pair panics on
        // every attempt.
        let cfg = JobConfig {
            retry: RetryPolicy::none(),
            ..JobConfig::default()
        };
        let (outcomes, _report) = self
            .0
            .similarity_matrix_supervised(queries, candidates, &cfg)
            .expect("an untiled in-process job always starts");
        scores(outcomes)
    }

    fn pair(&self, a: &Trajectory, b: &Trajectory) -> f64 {
        self.0.similarity(a, b).unwrap_or(0.0)
    }
}

/// Runs the matching task: ranks of the true matches of every pair.
pub fn matching_ranks(measure: &dyn MatrixMeasure, pairs: &MatchingPairs) -> Vec<usize> {
    let matrix = measure.matrix(&pairs.d1, &pairs.d2);
    ranks_of_true_matches(&matrix)
}

/// The matching task under a supervised STS job: deadlines,
/// cancellation and retries all apply, and the [`JobReport`] tells the
/// caller how much of the matrix actually ran.
///
/// Cells that did not produce a score — quarantined, failed after
/// retries, or skipped by a deadline/budget — count as 0 similarity, so
/// the returned ranks are exact only when `report.is_complete()`. An
/// interrupted experiment still yields a well-formed (if pessimistic)
/// ranking plus the report needed to judge it.
pub fn matching_ranks_supervised(
    sts: &Sts,
    pairs: &MatchingPairs,
    cfg: &JobConfig,
) -> Result<(Vec<usize>, JobReport), JobError> {
    let (outcomes, report) = sts.similarity_matrix_supervised(&pairs.d1, &pairs.d2, cfg)?;
    Ok((ranks_of_true_matches(&scores(outcomes)), report))
}

/// Folds a matrix of outcomes to similarities: an unscored cell is 0.
fn scores(outcomes: Vec<Vec<PairOutcome>>) -> Vec<Vec<f64>> {
    outcomes
        .into_iter()
        .map(|row| row.into_iter().map(|cell| cell.score_or(0.0)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mean_rank, precision};
    use sts_baselines::Cats;
    use sts_core::StsConfig;
    use sts_geo::{BoundingBox, Grid, Point};
    use sts_traj::{Dataset, TrajPoint};

    fn walkers(n: usize) -> Dataset {
        // n well-separated straight-line walkers.
        (0..n)
            .map(|k| {
                let y = 20.0 * k as f64 + 5.0;
                Trajectory::new(
                    (0..12)
                        .map(|i| TrajPoint::from_xy(5.0 * i as f64, y, 5.0 * i as f64))
                        .collect(),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn baseline_matrix_matches_pairwise() {
        let ds = walkers(3);
        let pairs = sts_traj::MatchingPairs::from_dataset(&ds);
        let cats = Cats::new(10.0, 20.0);
        let m = MatrixMeasure::matrix(&cats, &pairs.d1, &pairs.d2);
        for (i, row) in m.iter().enumerate() {
            for (j, got) in row.iter().enumerate() {
                let s = cats.similarity(&pairs.d1[i], &pairs.d2[j]);
                assert!((got - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn well_separated_walkers_match_perfectly() {
        let ds = walkers(4);
        let pairs = sts_traj::MatchingPairs::from_dataset(&ds);
        let grid = Grid::new(
            BoundingBox::new(Point::new(-5.0, -5.0), Point::new(100.0, 100.0)),
            4.0,
        )
        .unwrap();
        let sts = StsMatrix(Sts::new(
            StsConfig {
                noise_sigma: 3.0,
                ..StsConfig::default()
            },
            grid,
        ));
        let ranks = matching_ranks(&sts, &pairs);
        assert_eq!(precision(&ranks), 1.0, "ranks {ranks:?}");
        assert_eq!(mean_rank(&ranks), 1.0);
    }

    #[test]
    fn supervised_ranks_match_plain_ranks_on_clean_data() {
        let ds = walkers(4);
        let pairs = sts_traj::MatchingPairs::from_dataset(&ds);
        let grid = Grid::new(
            BoundingBox::new(Point::new(-5.0, -5.0), Point::new(100.0, 100.0)),
            4.0,
        )
        .unwrap();
        let sts = Sts::new(
            StsConfig {
                noise_sigma: 3.0,
                ..StsConfig::default()
            },
            grid,
        );
        let (ranks, report) =
            matching_ranks_supervised(&sts, &pairs, &JobConfig::default()).unwrap();
        assert!(report.is_complete(), "{report}");

        // A starved job still returns well-formed ranks and owns up to
        // the missing work in its report.
        let cfg = JobConfig {
            budget: sts_runtime::Budget::with_max_pairs(0),
            ..JobConfig::default()
        };
        let (starved, starved_report) = matching_ranks_supervised(&sts, &pairs, &cfg).unwrap();
        assert_eq!(starved.len(), pairs.d1.len());
        assert!(!starved_report.is_complete());
        assert_eq!(starved_report.stats.pairs_completed, 0);

        let plain = matching_ranks(&StsMatrix(sts), &pairs);
        assert_eq!(ranks, plain);
    }

    #[test]
    fn sts_matrix_scores_unpreparable_pairs_zero() {
        let good =
            Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (5.0, 0.0, 5.0), (10.0, 0.0, 10.0)]).unwrap();
        let single = Trajectory::from_xyt(&[(0.0, 0.0, 0.0)]).unwrap();
        let grid = Grid::new(
            BoundingBox::new(Point::new(-5.0, -5.0), Point::new(20.0, 20.0)),
            2.0,
        )
        .unwrap();
        let sts = StsMatrix(Sts::new(StsConfig::default(), grid));
        let m = sts.matrix(
            &[good.clone(), single.clone()],
            &[good.clone(), single.clone()],
        );
        assert!(m[0][0] > 0.0);
        assert_eq!(m[0][1], 0.0);
        assert_eq!(m[1][0], 0.0);
        assert_eq!(m[1][1], 0.0);
        assert_eq!(sts.pair(&good, &single), 0.0);
    }
}
