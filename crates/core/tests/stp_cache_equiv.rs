//! Differential equivalence suite for the STP-cache hot path.
//!
//! [`StpCacheMode::Off`] is the uncached oracle — Algorithm 1 exactly
//! as written. These tests pin the cached path against it: `Exact`
//! mode must agree **bit for bit** — on full matrices, on top-k,
//! through tiled crash→resume, and through `ExecMode::Subprocess`
//! workers.
//!
//! Scenario axes per seed: Gaussian noise on a normal grid, a
//! degenerate single-cell grid, duplicate timestamps across
//! trajectories, and corpora containing quarantined (single-point)
//! inputs. Seeded assertions embed the seed and scenario so a CI
//! failure replays exactly (`scripts/ci.sh` convention).

use std::cell::Cell;
use std::path::PathBuf;
use sts_core::{
    default_worker_path, ExecMode, IsolateOptions, JobConfig, PairOutcome, StpCacheMode, Sts,
    StsConfig, TileConfig,
};
use sts_geo::{BoundingBox, Grid, Point};
use sts_rng::check::Checker;
use sts_rng::{prop_assert, Rng, Xoshiro256pp};
use sts_runtime::{Budget, CancelToken, JobState};
use sts_traj::Trajectory;

fn grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        5.0,
    )
    .unwrap()
}

/// A grid whose single cell covers the whole area: every in-span STP
/// distribution collapses to one entry of weight 1.
fn single_cell_grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        120.0,
    )
    .unwrap()
}

/// Seeded random walks confined to the grid; all preparable.
fn corpus(seed: u64, n: usize) -> Vec<Trajectory> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut x = rng.random_range(20.0..80.0);
            let mut y = rng.random_range(20.0..80.0);
            let mut t = rng.random_range(0.0..5.0);
            let pts: Vec<(f64, f64, f64)> = (0..10)
                .map(|_| {
                    x = (x + rng.random_range(-4.0..4.0)).clamp(0.5, 99.5);
                    y = (y + rng.random_range(-4.0..4.0)).clamp(0.5, 99.5);
                    t += rng.random_range(2.0..8.0);
                    (x, y, t)
                })
                .collect();
            Trajectory::from_xyt(&pts).unwrap()
        })
        .collect()
}

/// Walkers that all sample at the *same* integer timestamps, so every
/// merged list is full of exact duplicates (the multiplicity-weighted
/// branch of Eq. 10).
fn duplicate_stamp_corpus(seed: u64, n: usize) -> Vec<Trajectory> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let y = rng.random_range(10.0..90.0);
            let speed = rng.random_range(1.0..3.0);
            let pts: Vec<(f64, f64, f64)> = (0..8)
                .map(|i| {
                    let t = 10.0 * i as f64; // identical stamps for all
                    ((speed * t).clamp(0.5, 99.5), y, t)
                })
                .collect();
            Trajectory::from_xyt(&pts).unwrap()
        })
        .collect()
}

/// A corpus with two unpreparable (single-point) members that the
/// supervised path must quarantine identically in every mode.
fn quarantined_corpus(seed: u64, n: usize) -> Vec<Trajectory> {
    let mut c = corpus(seed, n);
    c[0] = Trajectory::from_xyt(&[(50.0, 50.0, 0.0)]).unwrap();
    c[n / 2] = Trajectory::from_xyt(&[(20.0, 80.0, 10.0)]).unwrap();
    c
}

/// The four scenario axes: `(name, grid, corpus)`.
fn scenarios(seed: u64) -> Vec<(&'static str, Grid, Vec<Trajectory>)> {
    vec![
        ("gaussian", grid(), corpus(seed, 6)),
        ("single-cell-grid", single_cell_grid(), corpus(seed, 6)),
        ("duplicate-stamps", grid(), duplicate_stamp_corpus(seed, 6)),
        ("quarantined", grid(), quarantined_corpus(seed, 6)),
    ]
}

fn sts_with(grid: Grid, mode: StpCacheMode) -> Sts {
    Sts::new(StsConfig::default(), grid).with_cache_mode(mode)
}

/// Every cell's exact bit pattern (non-scores as `None`), so matrix
/// comparison covers outcomes, not just values.
fn score_bits(matrix: &[Vec<PairOutcome>]) -> Vec<Vec<Option<u64>>> {
    matrix
        .iter()
        .map(|row| row.iter().map(|c| c.score().map(f64::to_bits)).collect())
        .collect()
}

/// A unique tile directory that is removed on drop.
struct TempTiles(PathBuf);

impl TempTiles {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("sts-cache-equiv-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempTiles(dir)
    }
}

impl Drop for TempTiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The tentpole differential: `Exact` cached scoring is bit-identical
/// to the uncached oracle on full matrices and top-k, across 8 seeds
/// and all four scenario axes, under a multi-threaded pool.
#[test]
fn exact_mode_matches_uncached_oracle_bit_for_bit() {
    for seed in 0..8u64 {
        for (scenario, g, ts) in scenarios(seed) {
            let cfg = JobConfig {
                threads: 3,
                chunk_pairs: 5,
                ..JobConfig::default()
            };
            let off = sts_with(g.clone(), StpCacheMode::Off);
            let exact = sts_with(g, StpCacheMode::Exact);
            let (m_off, r_off) = off.similarity_matrix_supervised(&ts, &ts, &cfg).unwrap();
            let (m_exact, r_exact) = exact.similarity_matrix_supervised(&ts, &ts, &cfg).unwrap();
            assert_eq!(
                score_bits(&m_off),
                score_bits(&m_exact),
                "seed={seed} scenario={scenario}: cached matrix differs from oracle"
            );
            assert_eq!(
                r_off.batch.quarantine_count(),
                r_exact.batch.quarantine_count(),
                "seed={seed} scenario={scenario}: quarantine sets diverge"
            );

            let (top_off, _) = off.top_k_supervised(&ts[1], &ts, 4, &cfg).unwrap();
            let (top_exact, _) = exact.top_k_supervised(&ts[1], &ts, 4, &cfg).unwrap();
            let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
            };
            assert_eq!(
                bits(&top_off),
                bits(&top_exact),
                "seed={seed} scenario={scenario}: top-k differs"
            );
        }
    }
}

/// Exact cached scoring through a tiled crash→resume is bit-identical
/// to an *uncached, uninterrupted* run — the cache never leaks into
/// what gets persisted or restored.
#[test]
fn crash_resume_with_cached_scoring_matches_uncached_uninterrupted_run() {
    for seed in 0..4u64 {
        let ts = corpus(0xEC40 + seed, 10); // 100 pairs
        let oracle = sts_with(grid(), StpCacheMode::Off)
            .similarity_matrix_supervised(&ts, &ts, &JobConfig::default())
            .unwrap()
            .0;

        let exact = sts_with(grid(), StpCacheMode::Exact);
        let tiles = TempTiles::new(&format!("cache-resume-{seed}"));
        let tiling = TileConfig {
            tile_pairs: 16,
            ..TileConfig::new(&tiles.0)
        };
        let crash_cfg = JobConfig {
            cancel: CancelToken::new(),
            budget: Budget::with_max_pairs(48),
            chunk_pairs: 8,
            ..JobConfig::default()
        };
        let (_partial, crash_report) = exact
            .similarity_matrix_tiled(&ts, &ts, &crash_cfg, &tiling)
            .unwrap();
        assert!(
            !crash_report.is_complete(),
            "seed={seed}: the crashed run must not finish ({crash_report})"
        );
        assert!(
            crash_report.stats.tiles.unwrap().tiles_spilled > 0,
            "seed={seed}: no tile written"
        );

        let resume_cfg = JobConfig {
            chunk_pairs: 8,
            ..JobConfig::default()
        };
        let (resumed, resume_report) = exact
            .similarity_matrix_tiled(&ts, &ts, &resume_cfg, &tiling)
            .unwrap();
        assert_eq!(
            resume_report.state(),
            JobState::Complete,
            "seed={seed}: {resume_report}"
        );
        assert!(
            resume_report.stats.pairs_resumed > 0,
            "seed={seed}: nothing restored from the tiles"
        );
        assert_eq!(
            score_bits(&resumed),
            score_bits(&oracle),
            "seed={seed}: resumed cached matrix differs from uncached oracle"
        );
    }
}

/// `ExecMode::Subprocess` with cached scoring: the worker rebuilds the
/// measure (cache mode included) from the preamble and must agree bit
/// for bit with the in-process oracle. Skipped when the worker binary
/// has not been built yet.
#[test]
fn subprocess_cached_scoring_matches_in_process_oracle() {
    let worker = default_worker_path();
    if !worker.is_file() {
        eprintln!(
            "skipping subprocess differential: worker binary not built at {}",
            worker.display()
        );
        return;
    }
    for seed in 0..2u64 {
        let ts = corpus(0x5B0C + seed, 6);
        let sub_cfg = JobConfig {
            exec: ExecMode::Subprocess(IsolateOptions {
                worker: Some(worker.clone()),
                ..IsolateOptions::default()
            }),
            chunk_pairs: 8,
            ..JobConfig::default()
        };
        // Exact over the wire vs the in-process uncached oracle.
        let oracle = sts_with(grid(), StpCacheMode::Off)
            .similarity_matrix_supervised(&ts, &ts, &JobConfig::default())
            .unwrap()
            .0;
        let (m_sub, report) = sts_with(grid(), StpCacheMode::Exact)
            .similarity_matrix_supervised(&ts, &ts, &sub_cfg)
            .unwrap();
        assert_eq!(report.state(), JobState::Complete, "seed={seed}: {report}");
        assert_eq!(
            score_bits(&m_sub),
            score_bits(&oracle),
            "seed={seed}: subprocess exact run differs from in-process oracle"
        );
    }
}

// ---------------------------------------------------------------------
// Property tests (sts_rng::check): distribution-level invariants of the
// cache, driven by random trajectories and query times.
// ---------------------------------------------------------------------

/// Builds a random-walk trajectory from a seed (the shrinkable source
/// is the seed + point count, so failures replay from the message). The
/// walk starts `x_shift` meters right of its random start, and stays on
/// the grid.
fn traj_from(seed: u64, n_points: usize, x_shift: f64) -> Trajectory {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut x = (rng.random_range(20.0..80.0) + x_shift).clamp(0.5, 99.5);
    let mut y = rng.random_range(20.0..80.0);
    let mut t = rng.random_range(0.0..5.0);
    let pts: Vec<(f64, f64, f64)> = (0..n_points.max(2))
        .map(|_| {
            x = (x + rng.random_range(-4.0..4.0)).clamp(0.5, 99.5);
            y = (y + rng.random_range(-4.0..4.0)).clamp(0.5, 99.5);
            t += rng.random_range(2.0..8.0);
            (x, y, t)
        })
        .collect();
    Trajectory::from_xyt(&pts).unwrap()
}

/// After an exact cached scoring pass, every in-window stamp is either
/// cached on both sides — each distribution summing to ≤ 1 (+ float
/// slack), their CP reproducing the legacy per-timestamp co-location
/// value bit for bit — or cached on neither, because the two supports'
/// cell boxes are disjoint there, and then its legacy CP is exactly
/// 0.0. The second walk starts up to 70 m right of the first, so some
/// cases skip stamps and some cache them; both must occur.
#[test]
fn prop_cached_distributions_are_normalized_and_reproduce_cp() {
    let (cached, skipped) = (Cell::new(0usize), Cell::new(0usize));
    Checker::new().cases(24).seed(0xCAC4E).run(
        (0u64..1 << 48, 3usize..9, 3usize..9, 0.0f64..70.0),
        |(seed, na, nb, gap)| {
            let sts = sts_with(grid(), StpCacheMode::Exact);
            let a = sts.prepare(&traj_from(seed, na, -gap / 2.0)).unwrap();
            let b = sts.prepare(&traj_from(seed ^ 0xB, nb, gap / 2.0)).unwrap();
            let s_cached = sts.similarity_prepared(&a, &b);
            let profile = sts.colocation_profile(&a, &b); // legacy estimator path
            let lo = a.trajectory().start_time().max(b.trajectory().start_time());
            let hi = a.trajectory().end_time().min(b.trajectory().end_time());
            for &(t, cp_legacy) in &profile {
                if !(lo..=hi).contains(&t) {
                    continue;
                }
                let (da, db) = match (a.cached_stp(t), b.cached_stp(t)) {
                    (Some(da), Some(db)) => (da, db),
                    (None, None) => {
                        prop_assert!(
                            cp_legacy.to_bits() == 0.0f64.to_bits(),
                            "skipped t={t} has legacy CP {cp_legacy} (seed={seed}, gap={gap})"
                        );
                        skipped.set(skipped.get() + 1);
                        continue;
                    }
                    (da, db) => {
                        return Err(format!(
                            "t={t} cached on one side only: a {}, b {} (seed={seed})",
                            da.is_some(),
                            db.is_some()
                        ))
                    }
                };
                cached.set(cached.get() + 1);
                for d in [&da, &db] {
                    let total: f64 = d.entries().iter().map(|&(_, w)| w).sum();
                    prop_assert!(
                        total <= 1.0 + 1e-9,
                        "cached mass {total} > 1 at t={t} (seed={seed})"
                    );
                }
                prop_assert!(
                    da.dot(&db).to_bits() == cp_legacy.to_bits(),
                    "cached CP {} != legacy CP {cp_legacy} at t={t} (seed={seed})",
                    da.dot(&db)
                );
            }
            // And the score itself equals the uncached oracle's bits.
            let s_oracle = sts_with(grid(), StpCacheMode::Off).similarity_prepared(
                &sts.prepare(a.trajectory()).unwrap(),
                &sts.prepare(b.trajectory()).unwrap(),
            );
            prop_assert!(
                s_cached.to_bits() == s_oracle.to_bits(),
                "cached {s_cached} != oracle {s_oracle} (seed={seed})"
            );
            Ok(())
        },
    );
    assert!(
        cached.get() > 0 && skipped.get() > 0,
        "the cases must both cache and skip stamps: {} cached, {} skipped",
        cached.get(),
        skipped.get()
    );
}

/// The truncated sparse evaluation and the dense `O(|R|²)` evaluation
/// agree on random query times: bit-for-bit when truncation is off
/// (identical candidate sets), within total-variation 1e-5 under the
/// default truncation.
#[test]
fn prop_sparse_stp_matches_dense_on_random_times() {
    use sts_core::transition::SpeedKdeTransition;
    use sts_core::{GaussianNoise, StpEstimator};
    let small_grid = Grid::new(
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(50.0, 20.0)),
        5.0,
    )
    .unwrap();
    Checker::new()
        .cases(24)
        .seed(0xD15E)
        .run((0u64..1 << 48, -10.0f64..80.0), |(seed, t)| {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut x = rng.random_range(5.0..45.0);
            let y = rng.random_range(2.0..18.0);
            let pts: Vec<(f64, f64, f64)> = (0..6)
                .map(|i| {
                    x = (x + rng.random_range(-3.0..3.0)).clamp(0.5, 49.5);
                    (x, y, 10.0 * i as f64)
                })
                .collect();
            let traj = Trajectory::from_xyt(&pts).unwrap();
            let kde = SpeedKdeTransition::from_trajectory(&traj, sts_stats::Kernel::Gaussian)
                .unwrap()
                .with_position_uncertainty(small_grid.cell_size() / 2.0);

            // Untruncated: sparse candidate machinery must degenerate
            // to the dense computation exactly.
            let noise_full = GaussianNoise::with_truncation(3.0, None);
            let est = StpEstimator::new(&small_grid, &noise_full, &kde, &traj);
            let (sparse, dense) = (est.stp(t), est.stp_dense(t));
            prop_assert!(
                sparse.entries().len() == dense.entries().len()
                    && sparse
                        .entries()
                        .iter()
                        .zip(dense.entries())
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
                "untruncated sparse != dense at t={t} (seed={seed})"
            );

            // Default truncation: small total-variation distance.
            let noise_trunc = GaussianNoise::new(3.0);
            let est = StpEstimator::new(&small_grid, &noise_trunc, &kde, &traj);
            let (sparse, dense) = (est.stp(t), est.stp_dense(t));
            let mut tv = 0.0f64;
            for &(c, w) in dense.entries() {
                let ws = sparse
                    .entries()
                    .iter()
                    .find(|&&(cs, _)| cs == c)
                    .map_or(0.0, |&(_, w)| w);
                tv += (w - ws).abs();
            }
            for &(c, w) in sparse.entries() {
                if !dense.entries().iter().any(|&(cd, _)| cd == c) {
                    tv += w;
                }
            }
            prop_assert!(
                tv / 2.0 < 1e-5,
                "TV(sparse, dense) = {} at t={t} (seed={seed})",
                tv / 2.0
            );
            Ok(())
        });
}

/// Cache warm-up order never changes a score: scoring a pair on fresh
/// caches and scoring it after the caches were warmed by every other
/// pair (in a shuffled order) produce identical bits.
#[test]
fn prop_scores_are_insensitive_to_pair_visitation_order() {
    Checker::new()
        .cases(16)
        .seed(0x08DE8)
        .run(0u64..1 << 48, |seed| {
            let ts = corpus(seed, 5);
            let sts = sts_with(grid(), StpCacheMode::Exact);

            // Fresh: each pair scored on its own just-prepared set.
            let mut fresh = vec![vec![0u64; ts.len()]; ts.len()];
            for i in 0..ts.len() {
                for j in 0..ts.len() {
                    let a = sts.prepare(&ts[i]).unwrap();
                    let b = sts.prepare(&ts[j]).unwrap();
                    fresh[i][j] = sts.similarity_prepared(&a, &b).to_bits();
                }
            }

            // Warmed: one prepared set, pairs visited in a seeded
            // shuffle, every cache warmed by earlier pairs.
            let prepared: Vec<_> = ts.iter().map(|t| sts.prepare(t).unwrap()).collect();
            let mut order: Vec<(usize, usize)> = (0..ts.len())
                .flat_map(|i| (0..ts.len()).map(move |j| (i, j)))
                .collect();
            let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5482);
            rng.shuffle(&mut order);
            for &(i, j) in &order {
                let s = sts
                    .similarity_prepared(&prepared[i], &prepared[j])
                    .to_bits();
                prop_assert!(
                    s == fresh[i][j],
                    "({i},{j}) warmed {s:#x} != fresh {:#x} (seed={seed})",
                    fresh[i][j]
                );
            }
            Ok(())
        });
}
