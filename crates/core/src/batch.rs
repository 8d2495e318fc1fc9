//! Degraded-mode batch similarity: per-cell outcomes instead of
//! whole-batch errors.
//!
//! [`Sts::similarity_matrix`] is all-or-nothing: one unpreparable
//! trajectory fails the entire batch, and a panic anywhere in the
//! pipeline kills a whole stripe of scoped worker threads. That is the
//! wrong failure mode for a service ingesting real-world feeds, where a
//! batch of thousands of trajectories routinely contains a few broken
//! ones. The degraded APIs here:
//!
//! * **quarantine** unpreparable trajectories up front — every pair
//!   touching one gets [`PairOutcome::Quarantined`], every other pair is
//!   still scored;
//! * **isolate panics** — each pair's similarity runs under
//!   [`std::panic::catch_unwind`], so one poisoned pair yields
//!   [`PairOutcome::Panicked`] for that cell only, never a dead thread
//!   or a propagated abort;
//! * **report** everything in a [`BatchReport`] naming each quarantined
//!   index (with its reason) and each panicked pair.
//!
//! The degraded guarantee: for any input accepted by the type system,
//! these APIs return — no panic, no `Err`, no partial loss of the good
//! pairs.
//!
//! Caching: every [`PreparedTrajectory`] produced by [`prepare_all`]
//! carries its own STP cache (see [`crate::StpCacheMode`]), so within
//! one batch call a trajectory's distributions are evaluated once and
//! shared by every pair — across the diagonal, across mirror cells,
//! and across worker threads. The cache lives exactly as long as the
//! prepared set: separate calls never share cached state. Worker
//! threads score through a per-worker [`crate::StpScratch`] arena
//! (threaded by the pool's `run_supervised_with`), so the hot path
//! allocates nothing per pair.

use crate::sts::{PreparedTrajectory, Sts};
use crate::StsError;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use sts_runtime::WorkerExit;
use sts_traj::Trajectory;

/// The outcome of scoring one (query, candidate) cell.
#[derive(Debug, Clone, PartialEq)]
pub enum PairOutcome {
    /// The pair was scored. The value is passed through as computed;
    /// use [`PairOutcome::score_or`] to fold non-finite values away.
    Score(f64),
    /// The query or the candidate was quarantined during preparation;
    /// the pair was never attempted.
    Quarantined,
    /// Scoring this pair panicked; the panic was contained to the cell.
    /// Produced when retries are disabled (the legacy degraded-mode
    /// contract, [`sts_runtime::RetryPolicy::none`]).
    Panicked,
    /// Scoring this pair panicked on every attempt of a supervised
    /// job's retry loop (`attempts` made, with backoff between them).
    Failed {
        /// Total attempts consumed before giving up.
        attempts: u32,
    },
    /// The pair was never attempted: the supervised job stopped first
    /// (deadline, pair budget or cancellation). A resumed job will
    /// compute it.
    Skipped,
    /// Scoring this pair killed its worker subprocess (abort, OOM
    /// kill, hard-timeout kill, garbage output); crash attribution
    /// isolated the pair and quarantined it with the worker's exit.
    /// Only produced by [`crate::job::ExecMode::Subprocess`] jobs —
    /// in-process execution does not survive these faults at all.
    Poisoned {
        /// How the worker holding the isolated pair died.
        exit: WorkerExit,
    },
}

impl PairOutcome {
    /// The score, if the pair produced one.
    pub fn score(&self) -> Option<f64> {
        match self {
            PairOutcome::Score(s) => Some(*s),
            _ => None,
        }
    }

    /// The score, with quarantined/panicked/non-finite cells folded to
    /// `default` — the "an unmeasurable pair is maximally dissimilar"
    /// convention of the matching harness.
    pub fn score_or(&self, default: f64) -> f64 {
        match self {
            PairOutcome::Score(s) if s.is_finite() => *s,
            _ => default,
        }
    }
}

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

/// Everything a degraded batch call quarantined or contained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Quarantined query indices with their reasons.
    pub quarantined_queries: Vec<(usize, QuarantineReason)>,
    /// Quarantined candidate indices with their reasons.
    pub quarantined_candidates: Vec<(usize, QuarantineReason)>,
    /// `(query index, candidate index)` pairs whose scoring panicked
    /// with retries disabled.
    pub panicked_pairs: Vec<(usize, usize)>,
    /// `(query index, candidate index)` pairs whose scoring panicked
    /// through every retry of a supervised job.
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

    /// Number of pairs whose scoring panicked.
    pub fn panic_count(&self) -> usize {
        self.panicked_pairs.len()
    }

    /// Number of pairs that failed through every retry.
    pub fn failed_count(&self) -> usize {
        self.failed_pairs.len()
    }

    /// Number of pairs quarantined by crash attribution.
    pub fn poisoned_count(&self) -> usize {
        self.poisoned_pairs.len()
    }

    /// `true` when nothing was quarantined and nothing panicked,
    /// failed or poisoned — the batch degraded not at all. (Pairs
    /// *skipped* by a deadline or cancellation are a lifecycle
    /// property, reported in the job stats, not a data-quality defect.)
    pub fn is_clean(&self) -> bool {
        self.quarantine_count() == 0
            && self.panic_count() == 0
            && self.failed_count() == 0
            && self.poisoned_count() == 0
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} quarantined ({} queries, {} candidates), {} panicked pair(s), \
             {} failed pair(s), {} poisoned pair(s)",
            self.quarantine_count(),
            self.quarantined_queries.len(),
            self.quarantined_candidates.len(),
            self.panic_count(),
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

impl Sts {
    /// The degraded-mode `queries × candidates` similarity matrix.
    ///
    /// Unlike [`Sts::similarity_matrix`], this never fails: trajectories
    /// that cannot be prepared are quarantined (their rows/columns get
    /// [`PairOutcome::Quarantined`]) while every remaining pair is still
    /// scored, and a panic while scoring one pair is contained to that
    /// cell as [`PairOutcome::Panicked`]. The [`BatchReport`] names
    /// every quarantined index and panicked pair.
    pub fn similarity_matrix_degraded(
        &self,
        queries: &[Trajectory],
        candidates: &[Trajectory],
    ) -> (Vec<Vec<PairOutcome>>, BatchReport) {
        // The degraded API is the supervised job under the legacy
        // contract: unlimited budget, no retries (a panicked cell is
        // terminal and reported as `Panicked`). An in-process job with
        // no tile store cannot fail to start.
        let (matrix, report) = self
            .similarity_matrix_supervised(
                queries,
                candidates,
                &crate::job::JobConfig::legacy_degraded(),
            )
            .expect("an untiled in-process job always starts");
        (matrix, report.batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobConfig;
    use crate::transition::TransitionModel;
    use crate::StsConfig;
    use sts_geo::{BoundingBox, Grid, Point};

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

    #[test]
    fn clean_batch_matches_strict_matrix() {
        let sts = Sts::new(StsConfig::default(), grid());
        let queries = vec![walker(25.0, 0.0, 6), walker(5.0, 0.0, 6)];
        let candidates = vec![walker(25.0, 5.0, 6), walker(5.0, 5.0, 6)];
        let strict = sts.similarity_matrix(&queries, &candidates).unwrap();
        let (degraded, report) = sts.similarity_matrix_degraded(&queries, &candidates);
        assert!(report.is_clean(), "{report}");
        for (i, row) in strict.iter().enumerate() {
            for (j, &s) in row.iter().enumerate() {
                assert_eq!(degraded[i][j], PairOutcome::Score(s), "({i},{j})");
            }
        }
    }

    #[test]
    fn bad_trajectories_are_quarantined_good_pairs_still_scored() {
        let sts = Sts::new(StsConfig::default(), grid());
        let queries = vec![walker(25.0, 0.0, 6), single_point(), walker(5.0, 0.0, 6)];
        let candidates = vec![single_point(), walker(25.0, 5.0, 6)];
        let (m, report) = sts.similarity_matrix_degraded(&queries, &candidates);

        // The report names exactly the bad indices.
        assert_eq!(report.quarantined_queries.len(), 1);
        assert_eq!(report.quarantined_queries[0].0, 1);
        assert!(matches!(
            report.quarantined_queries[0].1,
            QuarantineReason::Unpreparable(StsError::TrajectoryTooShort { len: 1 })
        ));
        assert_eq!(report.quarantined_candidates.len(), 1);
        assert_eq!(report.quarantined_candidates[0].0, 0);
        assert_eq!(report.panic_count(), 0);

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
        let sts = Sts::with_shared_transition(
            StsConfig::default(),
            grid(),
            std::sync::Arc::new(PoisonTransition),
        );
        // Phase-shifted walkers force bridge evaluations → the poison
        // transition panics for every pair.
        let queries = vec![walker(25.0, 0.0, 4), walker(5.0, 0.0, 4)];
        let candidates = vec![walker(25.0, 5.0, 4)];
        let (m, report) = quietly(|| sts.similarity_matrix_degraded(&queries, &candidates));
        assert_eq!(report.panic_count(), 2, "{report}");
        assert_eq!(report.quarantine_count(), 0);
        assert_eq!(m[0][0], PairOutcome::Panicked);
        assert_eq!(m[1][0], PairOutcome::Panicked);
        assert_eq!(report.panicked_pairs, vec![(0, 0), (1, 0)]);
    }

    /// Top-k under the legacy no-retry contract: a quarantined *query*
    /// yields an empty ranking (the report says why); quarantined and
    /// panicked candidates are excluded from the ranking rather than
    /// scored 0, so the caller can tell "dissimilar" from
    /// "unmeasurable".
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
            .top_k_supervised(&q, &candidates, 2, &JobConfig::legacy_degraded())
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
            .top_k_supervised(
                &single_point(),
                &candidates,
                3,
                &JobConfig::legacy_degraded(),
            )
            .unwrap();
        let report = report.batch;
        assert!(top.is_empty());
        assert_eq!(report.quarantined_queries.len(), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn batch_report_display_is_informative() {
        let sts = Sts::new(StsConfig::default(), grid());
        let (_, report) =
            sts.similarity_matrix_degraded(&[single_point()], &[walker(25.0, 0.0, 4)]);
        let text = report.to_string();
        assert!(text.contains("1 queries"), "{text}");
        assert!(text.contains("0 panicked"), "{text}");
    }
}
