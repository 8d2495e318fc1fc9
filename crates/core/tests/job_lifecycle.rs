//! Lifecycle tests for supervised similarity jobs: budget/deadline
//! semantics and tiled crash → resume round-trips.
//!
//! Seeded tests embed the seed in every assertion message so a CI
//! failure is replayable (`scripts/ci.sh` runtime step).

use std::path::PathBuf;
use std::time::Duration;
use sts_core::{
    ExecMode, JobConfig, JobError, PairOutcome, ShardOptions, Sts, StsConfig, TileConfig,
};
use sts_geo::{BoundingBox, Grid, Point};
use sts_rng::{Rng, Xoshiro256pp};
use sts_runtime::{Budget, CancelToken, JobState};
use sts_traj::{TrajPoint, Trajectory};

fn grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::ORIGIN, Point::new(400.0, 200.0)),
        6.0,
    )
    .unwrap()
}

/// A seeded corpus of straight walkers with varied lanes and phases.
fn corpus(seed: u64, n: usize) -> Vec<Trajectory> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let y = rng.random_range(5.0..190.0);
            let phase = rng.random_range(0.0..20.0);
            let speed = rng.random_range(1.0..3.0);
            Trajectory::new(
                (0..5)
                    .map(|i| {
                        let t = phase + 10.0 * i as f64;
                        TrajPoint::from_xy(speed * t, y, t)
                    })
                    .collect(),
            )
            .unwrap()
        })
        .collect()
}

/// A unique tile directory that is removed on drop.
struct TempTiles(PathBuf);

impl TempTiles {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sts-job-tests-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempTiles(dir)
    }

    /// Tiles of `tile_pairs` pairs in this directory.
    fn tiling(&self, tile_pairs: usize) -> TileConfig {
        TileConfig {
            tile_pairs,
            ..TileConfig::new(&self.0)
        }
    }

    /// `*.tile` files currently in the directory.
    fn tile_count(&self) -> usize {
        std::fs::read_dir(&self.0).map_or(0, |entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "tile"))
                .count()
        })
    }
}

impl Drop for TempTiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn score_bits(matrix: &[Vec<PairOutcome>]) -> Vec<Vec<Option<u64>>> {
    matrix
        .iter()
        .map(|row| row.iter().map(|c| c.score().map(f64::to_bits)).collect())
        .collect()
}

#[test]
fn zero_pair_budget_returns_immediately_with_empty_valid_report() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(1, 6);
    let cfg = JobConfig {
        budget: Budget::with_max_pairs(0),
        ..JobConfig::default()
    };
    let (matrix, report) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();
    assert_eq!(report.state(), JobState::BudgetExhausted);
    assert_eq!(report.stats.pairs_total, 36);
    assert_eq!(report.stats.pairs_completed, 0);
    assert_eq!(report.stats.pairs_skipped, 36);
    assert_eq!(report.percent_complete(), 0.0);
    assert!(report.batch.is_clean(), "{report}");
    assert!(matrix.iter().flatten().all(|c| *c == PairOutcome::Skipped));
    // The report formats without panicking and names the state.
    assert!(report.to_string().contains("budget-exhausted"), "{report}");
}

#[test]
fn already_cancelled_token_skips_everything() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(2, 4);
    let cancel = CancelToken::new();
    cancel.cancel();
    let cfg = JobConfig {
        cancel,
        ..JobConfig::default()
    };
    let (matrix, report) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();
    assert_eq!(report.state(), JobState::Cancelled);
    assert!(matrix.iter().flatten().all(|c| *c == PairOutcome::Skipped));
}

/// Cells that panicked on their only attempt.
fn failed_on_first_attempt(matrix: &[Vec<PairOutcome>]) -> usize {
    let first = PairOutcome::Failed { attempts: 1 };
    matrix.iter().flatten().filter(|c| **c == first).count()
}

/// Mid-job pair budget: exactly the completed cells are scored, the
/// rest are Skipped, and nothing failed.
#[test]
fn mid_job_pair_budget_yields_exactly_the_completed_cells() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(3, 10); // 100 pairs
    let full = sts
        .similarity_matrix_supervised(&qs, &qs, &JobConfig::default())
        .unwrap()
        .0;
    let cfg = JobConfig {
        budget: Budget::with_max_pairs(40),
        chunk_pairs: 16,
        threads: 2,
        ..JobConfig::default()
    };
    let (matrix, report) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();
    assert_eq!(report.state(), JobState::BudgetExhausted);
    assert!(!report.is_complete());
    assert!(report.stats.pairs_completed > 0, "{report}");
    assert!(report.stats.pairs_skipped > 0, "{report}");
    assert_eq!(
        report.stats.pairs_completed + report.stats.pairs_skipped,
        100
    );
    assert_eq!(failed_on_first_attempt(&matrix), 0);
    assert_eq!(report.batch.failed_count(), 0);
    // Every completed cell is bit-identical to the uninterrupted run.
    for (i, row) in matrix.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            match cell {
                PairOutcome::Score(s) => {
                    let f = full[i][j].score().unwrap();
                    assert_eq!(s.to_bits(), f.to_bits(), "({i},{j})");
                }
                PairOutcome::Skipped => {}
                other => panic!("({i},{j}): unexpected {other:?}"),
            }
        }
    }
}

/// Mid-job wall-clock deadline: when the clock stops the job partway,
/// the result holds exactly the completed cells (bit-identical to an
/// uninterrupted run) and no Failed entries. The *where* it
/// stops is timing-dependent; the invariants are not.
#[test]
fn mid_job_deadline_yields_completed_cells_and_no_panics() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(4, 16); // 256 pairs: enough work to outlive 1ms
    let full = sts
        .similarity_matrix_supervised(&qs, &qs, &JobConfig::default())
        .unwrap()
        .0;
    let cfg = JobConfig {
        budget: Budget::with_deadline(Duration::from_millis(1)),
        chunk_pairs: 8,
        ..JobConfig::default()
    };
    let (matrix, report) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();
    assert_eq!(report.state(), JobState::DeadlineExceeded, "{report}");
    assert_eq!(failed_on_first_attempt(&matrix), 0);
    assert_eq!(report.batch.failed_count(), 0);
    for (i, row) in matrix.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            match cell {
                PairOutcome::Score(s) => {
                    assert_eq!(
                        s.to_bits(),
                        full[i][j].score().unwrap().to_bits(),
                        "({i},{j})"
                    );
                }
                PairOutcome::Skipped => {}
                other => panic!("({i},{j}): unexpected {other:?}"),
            }
        }
    }
}

/// Tiled crash → resume across 8 seeds: a run cut short mid-job (pair
/// budget, mid-tile) leaves its completed tiles on disk, and the
/// resumed run is byte-identical to an uninterrupted in-memory run.
#[test]
fn budget_cut_tiled_run_resumes_byte_identical_across_seeds() {
    for seed in 0..8u64 {
        let sts = Sts::new(StsConfig::default(), grid());
        let qs = corpus(0xC0DE + seed, 12); // 144 pairs
        let tiles = TempTiles::new(&format!("resume-{seed}"));
        let tiling = tiles.tiling(16);

        let uninterrupted = sts
            .similarity_matrix_supervised(&qs, &qs, &JobConfig::default())
            .unwrap()
            .0;

        // "Crash": the pair budget runs out partway through the fifth
        // tile, so four tiles are on disk and the fifth is lost.
        let crash_cfg = JobConfig {
            cancel: CancelToken::new(),
            budget: Budget::with_max_pairs(70),
            chunk_pairs: 8,
            ..JobConfig::default()
        };
        let (_partial, crash_report) = sts
            .similarity_matrix_tiled(&qs, &qs, &crash_cfg, &tiling)
            .unwrap();
        assert!(
            !crash_report.is_complete(),
            "seed={seed}: the crashed run must not finish ({crash_report})"
        );
        let spilled = crash_report.stats.tiles.unwrap().tiles_spilled;
        assert!(spilled > 0, "seed={seed}: no tile was written");
        assert_eq!(tiles.tile_count(), spilled, "seed={seed}");

        // Resume from the tiles with no budget: must complete and
        // match the uninterrupted run bit for bit.
        let resume_cfg = JobConfig {
            chunk_pairs: 8,
            ..JobConfig::default()
        };
        let (resumed, resume_report) = sts
            .similarity_matrix_tiled(&qs, &qs, &resume_cfg, &tiling)
            .unwrap();
        assert_eq!(
            resume_report.state(),
            JobState::Complete,
            "seed={seed}: {resume_report}"
        );
        assert!(
            resume_report.stats.pairs_resumed > 0,
            "seed={seed}: nothing was restored from the tiles"
        );
        assert!(
            resume_report.stats.pairs_resumed < 144,
            "seed={seed}: everything was restored — the crash run completed?"
        );
        assert_eq!(
            score_bits(&resumed),
            score_bits(&uninterrupted),
            "seed={seed}: resumed matrix differs from uninterrupted run"
        );
    }
}

/// Tiles written for other inputs are never blended in: resuming
/// against a different corpus restores nothing, counts every tile
/// corrupt (the fingerprint check), and equals a clean in-memory run.
#[test]
fn tiles_from_other_inputs_are_corrupt_and_recomputed() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(50, 6);
    let tiles = TempTiles::new("fingerprint");
    let tiling = TileConfig {
        keep_tiles: true,
        ..tiles.tiling(8)
    };
    sts.similarity_matrix_tiled(&qs, &qs, &JobConfig::default(), &tiling)
        .unwrap();
    assert_eq!(tiles.tile_count(), 5, "36 pairs in 8-pair tiles");

    let other = corpus(51, 6);
    let clean = sts
        .similarity_matrix_supervised(&other, &other, &JobConfig::default())
        .unwrap()
        .0;
    let (matrix, report) = sts
        .similarity_matrix_tiled(&other, &other, &JobConfig::default(), &tiling)
        .unwrap();
    let t = report.stats.tiles.unwrap();
    assert_eq!(t.tiles_resumed, 0, "{report}");
    assert_eq!(report.stats.pairs_resumed, 0, "{report}");
    assert_eq!(t.tiles_corrupt, t.tiles_total, "{report}");
    assert_eq!(t.tiles_computed, t.tiles_total, "{report}");
    assert_eq!(score_bits(&matrix), score_bits(&clean));
}

/// A completed job's kept tiles make a re-run a pure restore: every
/// tile resumed, no pool chunk queued, and both runs equal the
/// in-memory matrix.
#[test]
fn rerun_after_complete_tiled_run_restores_everything() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(60, 6);
    let tiles = TempTiles::new("rerun");
    let tiling = TileConfig {
        keep_tiles: true,
        ..tiles.tiling(8)
    };
    let cfg = JobConfig::default();
    let (reference, _) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();
    let (first, _) = sts
        .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
        .unwrap();
    let (second, report) = sts
        .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
        .unwrap();
    let t = report.stats.tiles.unwrap();
    assert_eq!(t.tiles_resumed, t.tiles_total, "{report}");
    assert_eq!(report.stats.pairs_resumed, 36, "{report}");
    assert_eq!(report.stats.chunks_total, 0, "no chunk was queued");
    assert_eq!(score_bits(&first), score_bits(&reference));
    assert_eq!(score_bits(&second), score_bits(&reference));
}

/// A tile's cells are checked against preparation on resume, quarantined
/// cells included: an input edited between unchanged endpoints — which
/// the job fingerprint does not see — that changes which trajectories
/// prepare makes every tile that disagrees corrupt, in both directions,
/// and it is recomputed.
#[test]
fn resumed_tiles_must_agree_with_preparation_cell_for_cell() {
    let sts = Sts::new(StsConfig::default(), grid());
    let good = corpus(95, 4);
    // Trajectory 3 with its second point 1e300 m away a hair after the
    // first: same length and endpoints (same fingerprint), but an
    // infinite speed sample no KDE accepts.
    let mut bad = good.clone();
    let mut pts = bad[3].points().to_vec();
    let t1 = f64::from_bits(pts[0].t.to_bits() + 1);
    pts[1] = TrajPoint::from_xy(1e300, pts[0].loc.y, t1);
    bad[3] = Trajectory::new(pts).unwrap();
    assert!(sts.prepare(&bad[3]).is_err());
    let cfg = JobConfig::default();
    for (first, second) in [(&good, &bad), (&bad, &good)] {
        let tiles = TempTiles::new("prep-check");
        let tiling = TileConfig {
            keep_tiles: true,
            ..tiles.tiling(2)
        };
        sts.similarity_matrix_tiled(first, first, &cfg, &tiling)
            .unwrap();
        let (resumed, report) = sts
            .similarity_matrix_tiled(second, second, &cfg, &tiling)
            .unwrap();
        // 16 pairs in 2-pair tiles: both tiles of row 3 and the
        // column-3 tile of every other row disagree.
        let t = report.stats.tiles.unwrap();
        assert_eq!((t.tiles_corrupt, t.tiles_resumed), (5, 3), "{report}");
        let (reference, ref_report) = sts
            .similarity_matrix_supervised(second, second, &cfg)
            .unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(score_bits(&resumed), score_bits(&reference));
        assert_eq!(report.batch, ref_report.batch);
    }
}

/// An untiled job is one in-memory tile: no tile accounting, and the
/// chunk counters count every pool chunk of the pair space.
#[test]
fn untiled_job_counts_pool_chunks_and_reports_no_tiles() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(90, 7); // 49 pairs
    let cfg = JobConfig {
        chunk_pairs: 8,
        ..JobConfig::default()
    };
    let (_, report) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();
    assert_eq!(report.state(), JobState::Complete);
    assert!(report.stats.tiles.is_none(), "{report}");
    assert_eq!(report.stats.chunks_total, 7, "{report}");
    assert_eq!(report.stats.chunks_completed, 7, "{report}");
    assert_eq!(report.stats.pairs_resumed, 0, "{report}");
}

/// Sharding deals tiles: without a tile config there is nothing to
/// lease, and the job says so before preparing anything.
#[test]
fn sharded_job_without_tiles_is_rejected() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(91, 3);
    let cfg = JobConfig {
        exec: ExecMode::Sharded(ShardOptions::default()),
        ..JobConfig::default()
    };
    let err = sts
        .similarity_matrix_supervised(&qs, &qs, &cfg)
        .unwrap_err();
    assert!(matches!(err, JobError::ShardRequiresTiling), "{err:?}");
    assert!(err.to_string().contains("tile"), "{err}");
}

#[test]
fn top_k_supervised_matches_strict_top_k_and_respects_budget() {
    let sts = Sts::new(StsConfig::default(), grid());
    let q = corpus(70, 1).pop().unwrap();
    let candidates = corpus(71, 8);
    // The oracle: a pairwise scoring loop, sorted best first (ties by
    // index), not another view of the engine.
    let pq = sts.prepare(&q).unwrap();
    let mut pairwise: Vec<(usize, f64)> = candidates
        .iter()
        .enumerate()
        .map(|(j, c)| (j, sts.similarity_prepared(&pq, &sts.prepare(c).unwrap())))
        .collect();
    pairwise.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    pairwise.truncate(3);
    let strict = sts.top_k(&q, &candidates, 3).unwrap();
    let (supervised, report) = sts
        .top_k_supervised(&q, &candidates, 3, &JobConfig::default())
        .unwrap();
    assert_eq!(report.state(), JobState::Complete);
    for ranked in [&strict, &supervised] {
        assert_eq!(ranked.len(), pairwise.len());
        for ((si, ss), (ui, us)) in pairwise.iter().zip(ranked) {
            assert_eq!(si, ui);
            assert_eq!(ss.to_bits(), us.to_bits());
        }
    }
    // A zero budget yields an empty ranking, not an error.
    let cfg = JobConfig {
        budget: Budget::with_max_pairs(0),
        ..JobConfig::default()
    };
    let (empty, report) = sts.top_k_supervised(&q, &candidates, 3, &cfg).unwrap();
    assert!(empty.is_empty());
    assert_eq!(report.state(), JobState::BudgetExhausted);
}

/// Quarantined trajectories flow through the supervised path exactly
/// as the batch contract says.
#[test]
fn supervised_quarantines_like_degraded() {
    let sts = Sts::new(StsConfig::default(), grid());
    let mut qs = corpus(80, 4);
    qs.push(Trajectory::from_xyt(&[(1.0, 1.0, 0.0)]).unwrap()); // 1 point
    let (matrix, report) = sts
        .similarity_matrix_supervised(&qs, &qs, &JobConfig::default())
        .unwrap();
    assert_eq!(report.batch.quarantined_queries.len(), 1);
    assert_eq!(report.batch.quarantined_queries[0].0, 4);
    for (i, row) in matrix.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            if i == 4 || j == 4 {
                assert_eq!(*cell, PairOutcome::Quarantined, "({i},{j})");
            } else {
                assert!(cell.score().is_some(), "({i},{j})");
            }
        }
    }
    // Quarantined cells count as completed (terminal), not skipped.
    assert_eq!(report.stats.pairs_completed, 25);
    assert_eq!(report.state(), JobState::Complete);
}
