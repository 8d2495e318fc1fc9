//! The data-quality half of a matrix job: quarantine, per-cell
//! containment and the batch report.
//!
//! A batch of thousands of real-world trajectories routinely contains
//! a few broken ones, so the matrix engine ([`crate::tiled`]) never
//! lets one of them cost more than its own cells:
//!
//! * **quarantine** — unpreparable trajectories are set aside up front
//!   ([`prepare_all`]); every pair touching one gets
//!   [`PairOutcome::Quarantined`], every other pair is still scored;
//! * **containment** — each pair's similarity runs under
//!   [`std::panic::catch_unwind`], so a pair that panics on every
//!   attempt is [`PairOutcome::Failed`] for that cell only, never a
//!   dead thread or a propagated abort;
//! * **report** — a [`BatchReport`] names each quarantined index (with
//!   its reason) and each failed or poisoned pair.
//!
//! The supervised entry points return all of this as data.
//! [`Sts::similarity_matrix`] and [`Sts::top_k`] run the same engine
//! but hold it to the strict contract: the first unpreparable
//! trajectory comes back as its `StsError`, and a panic panics the
//! call.
//!
//! Caching: every [`PreparedTrajectory`] produced by [`prepare_all`]
//! carries its own STP cache (see [`crate::StpCacheMode`]), so within
//! one job a trajectory's distributions are evaluated once and shared
//! by every pair — across the diagonal, across mirror cells, and
//! across worker threads. The cache lives exactly as long as the
//! prepared set: separate calls never share cached state. Worker
//! threads score through a per-worker [`crate::StpScratch`] arena
//! (threaded by the pool's `run_supervised_with`), so the hot path
//! allocates nothing per pair.

use crate::sts::{PreparedTrajectory, Sts};
use crate::StsError;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
pub use sts_runtime::PairOutcome;
use sts_runtime::WorkerExit;
use sts_traj::Trajectory;

/// Why a trajectory was quarantined.
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineReason {
    /// Preparation returned a typed error.
    Unpreparable(StsError),
    /// Preparation itself panicked (contained).
    PreparePanicked,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Unpreparable(e) => write!(f, "unpreparable: {e}"),
            QuarantineReason::PreparePanicked => write!(f, "preparation panicked"),
        }
    }
}

/// Everything a matrix job quarantined or contained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Quarantined query indices with their reasons.
    pub quarantined_queries: Vec<(usize, QuarantineReason)>,
    /// Quarantined candidate indices with their reasons.
    pub quarantined_candidates: Vec<(usize, QuarantineReason)>,
    /// `(query index, candidate index)` pairs whose scoring panicked
    /// on every attempt.
    pub failed_pairs: Vec<(usize, usize)>,
    /// `(query index, candidate index, worker exit)` pairs whose
    /// scoring killed a worker subprocess; crash attribution isolated
    /// and quarantined them (see [`crate::job::ExecMode::Subprocess`]).
    pub poisoned_pairs: Vec<(usize, usize, WorkerExit)>,
}

impl BatchReport {
    /// Total quarantined trajectories (queries + candidates).
    pub fn quarantine_count(&self) -> usize {
        self.quarantined_queries.len() + self.quarantined_candidates.len()
    }

    /// Number of pairs that failed through every retry.
    pub fn failed_count(&self) -> usize {
        self.failed_pairs.len()
    }

    /// Number of pairs quarantined by crash attribution.
    pub fn poisoned_count(&self) -> usize {
        self.poisoned_pairs.len()
    }

    /// `true` when nothing was quarantined, failed or poisoned — the
    /// batch degraded not at all. (Pairs
    /// *skipped* by a deadline or cancellation are a lifecycle
    /// property, reported in the job stats, not a data-quality defect.)
    pub fn is_clean(&self) -> bool {
        self.quarantine_count() == 0 && self.failed_count() == 0 && self.poisoned_count() == 0
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} quarantined ({} queries, {} candidates), {} failed pair(s), \
             {} poisoned pair(s)",
            self.quarantine_count(),
            self.quarantined_queries.len(),
            self.quarantined_candidates.len(),
            self.failed_count(),
            self.poisoned_count(),
        )
    }
}

/// Prepares every trajectory, quarantining failures (typed errors and
/// contained panics alike) into `out`. Shared with the matrix engine
/// in [`crate::tiled`].
pub(crate) fn prepare_all(
    sts: &Sts,
    trajectories: &[Trajectory],
    out: &mut Vec<(usize, QuarantineReason)>,
) -> Vec<Option<PreparedTrajectory>> {
    trajectories
        .iter()
        .enumerate()
        .map(
            |(i, t)| match catch_unwind(AssertUnwindSafe(|| sts.prepare(t))) {
                Ok(Ok(p)) => Some(p),
                Ok(Err(e)) => {
                    sts_obs::static_counter!("core.trajectories.quarantined").incr();
                    out.push((i, QuarantineReason::Unpreparable(e)));
                    None
                }
                Err(_) => {
                    sts_obs::static_counter!("core.trajectories.quarantined").incr();
                    out.push((i, QuarantineReason::PreparePanicked));
                    None
                }
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobConfig;
    use crate::transition::TransitionModel;
    use crate::StsConfig;
    use sts_geo::{BoundingBox, Grid, Point};
    use sts_runtime::RetryPolicy;

    fn grid() -> Grid {
        Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(200.0, 50.0)),
            5.0,
        )
        .unwrap()
    }

    fn walker(y: f64, phase: f64, n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| {
                    let t = phase + 10.0 * i as f64;
                    sts_traj::TrajPoint::from_xy(2.0 * t, y, t)
                })
                .collect(),
        )
        .unwrap()
    }

    fn single_point() -> Trajectory {
        Trajectory::from_xyt(&[(10.0, 25.0, 0.0)]).unwrap()
    }

    /// An unlimited job with retries disabled: the first panic of a
    /// cell is terminal.
    fn no_retries() -> JobConfig {
        JobConfig {
            retry: RetryPolicy::none(),
            ..JobConfig::default()
        }
    }

    /// The supervised matrix under [`no_retries`], with its batch report.
    fn contained(
        sts: &Sts,
        queries: &[Trajectory],
        candidates: &[Trajectory],
    ) -> (Vec<Vec<PairOutcome>>, BatchReport) {
        let (matrix, report) = sts
            .similarity_matrix_supervised(queries, candidates, &no_retries())
            .unwrap();
        (matrix, report.batch)
    }

    #[test]
    fn clean_batch_matches_strict_matrix() {
        let sts = Sts::new(StsConfig::default(), grid());
        let queries = vec![walker(25.0, 0.0, 6), walker(5.0, 0.0, 6)];
        let candidates = vec![walker(25.0, 5.0, 6), walker(5.0, 5.0, 6)];
        let (matrix, report) = contained(&sts, &queries, &candidates);
        assert!(report.is_clean(), "{report}");
        let strict = sts.similarity_matrix(&queries, &candidates).unwrap();
        // The oracle is the pairwise scoring loop, not another view of
        // the engine.
        for (i, q) in queries.iter().enumerate() {
            let q = sts.prepare(q).unwrap();
            for (j, c) in candidates.iter().enumerate() {
                let s = sts.similarity_prepared(&q, &sts.prepare(c).unwrap());
                assert_eq!(matrix[i][j], PairOutcome::Score(s), "({i},{j})");
                assert_eq!(strict[i][j].to_bits(), s.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn bad_trajectories_are_quarantined_good_pairs_still_scored() {
        let sts = Sts::new(StsConfig::default(), grid());
        let queries = vec![walker(25.0, 0.0, 6), single_point(), walker(5.0, 0.0, 6)];
        let candidates = vec![single_point(), walker(25.0, 5.0, 6)];
        let (m, report) = contained(&sts, &queries, &candidates);

        // The report names exactly the bad indices.
        assert_eq!(report.quarantined_queries.len(), 1);
        assert_eq!(report.quarantined_queries[0].0, 1);
        assert!(matches!(
            report.quarantined_queries[0].1,
            QuarantineReason::Unpreparable(StsError::TrajectoryTooShort { len: 1 })
        ));
        assert_eq!(report.quarantined_candidates.len(), 1);
        assert_eq!(report.quarantined_candidates[0].0, 0);
        assert_eq!(report.failed_count(), 0);

        // Every good pair scored; every touched-by-bad cell quarantined.
        for (i, row) in m.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                if i == 1 || j == 0 {
                    assert_eq!(*cell, PairOutcome::Quarantined, "({i},{j})");
                } else {
                    assert!(cell.score().is_some(), "({i},{j}): {cell:?}");
                }
            }
        }
        // The matched pair outranks the mismatched one.
        assert!(m[0][1].score_or(0.0) > m[2][1].score_or(0.0));
    }

    /// A transition model that panics whenever it is actually evaluated
    /// — scoring any bridging pair through it dies mid-similarity.
    struct PoisonTransition;
    impl TransitionModel for PoisonTransition {
        fn probability(&self, _: Point, _: Point, _: f64) -> f64 {
            panic!("poisoned transition");
        }
        fn max_displacement(&self, _: f64) -> f64 {
            panic!("poisoned transition");
        }
    }

    fn poisoned_sts() -> Sts {
        Sts::with_shared_transition(
            StsConfig::default(),
            grid(),
            std::sync::Arc::new(PoisonTransition),
        )
    }

    /// Runs `f` with panic output silenced (the poison tests panic on
    /// purpose; their backtraces would drown the test output).
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn scoring_panic_is_contained_to_the_cell() {
        let sts = poisoned_sts();
        // Phase-shifted walkers force bridge evaluations → the poison
        // transition panics for every pair.
        let queries = vec![walker(25.0, 0.0, 4), walker(5.0, 0.0, 4)];
        let candidates = vec![walker(25.0, 5.0, 4)];
        let (m, report) = quietly(|| contained(&sts, &queries, &candidates));
        assert_eq!(report.failed_count(), 2, "{report}");
        assert_eq!(report.quarantine_count(), 0);
        assert_eq!(m[0][0], PairOutcome::Failed { attempts: 1 });
        assert_eq!(m[1][0], PairOutcome::Failed { attempts: 1 });
        assert_eq!(report.failed_pairs, vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn strict_calls_return_the_first_unpreparable_trajectory_error() {
        let sts = Sts::new(StsConfig::default(), grid());
        let good = walker(25.0, 0.0, 6);
        let too_short = single_point();
        let short_err = StsError::TrajectoryTooShort { len: 1 };
        // An infinite speed sample: the speed KDE refuses it.
        let teleport = Trajectory::from_xyt(&[(0.0, 25.0, 0.0), (1e300, 25.0, 1e-10)]).unwrap();
        let is_kde = |r: Result<Vec<Vec<f64>>, StsError>| matches!(r, Err(StsError::Kde(_)));
        // A query's error comes back before any candidate's...
        assert!(is_kde(sts.similarity_matrix(
            &[good.clone(), teleport.clone()],
            &[too_short.clone(), good.clone()],
        )));
        // ...lower indices first within a side...
        assert_eq!(
            sts.similarity_matrix(
                &[too_short.clone(), teleport.clone()],
                std::slice::from_ref(&good)
            ),
            Err(short_err.clone())
        );
        // ...and candidates in order once every query prepares.
        assert!(is_kde(sts.similarity_matrix(
            std::slice::from_ref(&good),
            &[good.clone(), teleport.clone(), too_short.clone()],
        )));
        // The strict top-k keeps the same contract.
        assert_eq!(
            sts.top_k(&too_short, std::slice::from_ref(&teleport), 1),
            Err(short_err.clone())
        );
        assert_eq!(
            sts.top_k(&good, &[good.clone(), too_short, teleport], 1),
            Err(short_err)
        );
    }

    #[test]
    fn strict_matrix_panics_when_a_cell_panics() {
        let sts = poisoned_sts();
        let queries = vec![walker(25.0, 0.0, 4)];
        let candidates = vec![walker(25.0, 5.0, 4)];
        let matrix = quietly(|| {
            catch_unwind(AssertUnwindSafe(|| {
                sts.similarity_matrix(&queries, &candidates)
            }))
        });
        assert!(matrix.is_err(), "a failed cell must panic the strict call");
        let top =
            quietly(|| catch_unwind(AssertUnwindSafe(|| sts.top_k(&queries[0], &candidates, 1))));
        assert!(top.is_err(), "and so must the strict top-k");
    }

    /// Top-k with retries disabled: a quarantined *query* yields an
    /// empty ranking (the report says why); quarantined and failed
    /// candidates are excluded from the ranking rather than scored 0,
    /// so the caller can tell "dissimilar" from "unmeasurable".
    #[test]
    fn top_k_without_retries_ranks_good_candidates_and_reports_bad() {
        let sts = Sts::new(StsConfig::default(), grid());
        let q = walker(25.0, 0.0, 6);
        let candidates = vec![
            walker(45.0, 5.0, 6),
            single_point(),
            walker(25.0, 5.0, 6),
            walker(5.0, 5.0, 6),
        ];
        let (top, report) = sts
            .top_k_supervised(&q, &candidates, 2, &no_retries())
            .unwrap();
        let report = report.batch;
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 2, "co-located walker ranks first");
        assert!(top[0].1 >= top[1].1);
        assert!(!top.iter().any(|&(j, _)| j == 1), "bad candidate excluded");
        assert_eq!(report.quarantined_candidates.len(), 1);
        assert_eq!(report.quarantined_candidates[0].0, 1);
    }

    #[test]
    fn top_k_without_retries_with_bad_query_is_empty_not_an_error() {
        let sts = Sts::new(StsConfig::default(), grid());
        let candidates = vec![walker(25.0, 5.0, 6)];
        let (top, report) = sts
            .top_k_supervised(&single_point(), &candidates, 3, &no_retries())
            .unwrap();
        let report = report.batch;
        assert!(top.is_empty());
        assert_eq!(report.quarantined_queries.len(), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn batch_report_display_is_informative() {
        let sts = Sts::new(StsConfig::default(), grid());
        let (_, report) = contained(&sts, &[single_point()], &[walker(25.0, 0.0, 4)]);
        let text = report.to_string();
        assert!(text.contains("1 queries"), "{text}");
        assert!(text.contains("0 failed"), "{text}");
    }
}
