//! Chaos suite for the supervised batch runtime: panics and slow
//! pairs injected into real 64-trajectory similarity jobs.
//!
//! PR 2's chaos suite attacks the *data* (corrupt coordinates, mangled
//! bytes); this one attacks the *operation*: cells that panic once,
//! cells that panic forever, cells that wedge. The invariants under
//! attack are the runtime's, not the measure's:
//!
//! * a job under injection still terminates under its deadline, with
//!   every healthy cell scored and every poisoned cell named in the
//!   [`JobReport`] — partial-but-consistent, never hung, never dead;
//! * crash (a tiled run cut short mid-job) → resume from its tiles
//!   reproduces an uninterrupted in-memory run's matrix byte for byte,
//!   *including* the failed cells, across 8 seeds;
//! * a corpus of wedged-slow pairs cannot outlive the wall-clock
//!   deadline by more than one chunk's worth of work.
//!
//! Every seeded assertion embeds its seed, so a CI failure (the
//! `runtime` step of `scripts/ci.sh`) is replayable.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use sts_core::{JobConfig, PairOutcome, Sts, StsConfig, TileConfig};
use sts_geo::{BoundingBox, Grid, Point};
use sts_rng::{Rng, Xoshiro256pp};
use sts_runtime::{Budget, FaultPlan, JobState, RetryPolicy};
use sts_traj::{TrajPoint, Trajectory};

const N_TRAJECTORIES: usize = 64;
const N_PAIRS: usize = N_TRAJECTORIES * N_TRAJECTORIES;
const SEEDS: u64 = 8;

fn grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::ORIGIN, Point::new(400.0, 200.0)),
        8.0,
    )
    .unwrap()
}

/// A seeded corpus of straight walkers with varied lanes, phases and
/// speeds — clean data, so every fault below is injected, not latent.
fn corpus(seed: u64, n: usize) -> Vec<Trajectory> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let y = rng.random_range(5.0..190.0);
            let phase = rng.random_range(0.0..20.0);
            let speed = rng.random_range(1.0..3.0);
            Trajectory::new(
                (0..4)
                    .map(|i| {
                        let t = phase + 12.0 * i as f64;
                        TrajPoint::from_xy(speed * t, y, t)
                    })
                    .collect(),
            )
            .unwrap()
        })
        .collect()
}

/// The chaos mix: ~3% of pairs panic once then heal, ~1% panic on
/// every attempt, ~0.5% wedge for 2 ms.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: 0xFA17 ^ seed,
        slow_per_mille: 5,
        transient_per_mille: 30,
        transient_failures: 1,
        persistent_per_mille: 10,
        slow_for: Duration::from_millis(2),
        ..FaultPlan::default()
    }
}

/// Fast-backoff retry policy so 8 seeded jobs stay CI-sized.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        backoff_base: Duration::from_micros(20),
        backoff_cap: Duration::from_micros(200),
        seed: 0xBAC0FF,
    }
}

/// A unique tile directory that is removed on drop.
struct TempTiles(PathBuf);

impl TempTiles {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("sts-supervised-chaos-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempTiles(dir)
    }
}

impl Drop for TempTiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A comparable, bit-exact rendering of one cell outcome.
fn outcome_bits(cell: &PairOutcome) -> (u8, u64) {
    match cell {
        PairOutcome::Score(s) => (0, s.to_bits()),
        PairOutcome::Quarantined => (1, 0),
        PairOutcome::Failed { attempts } => (3, *attempts as u64),
        PairOutcome::Skipped => (4, 0),
        // Process faults never fire on the in-process path; the arm
        // exists so this stays exhaustive.
        PairOutcome::Poisoned { .. } => (5, 0),
    }
}

fn matrix_bits(matrix: &[Vec<PairOutcome>]) -> Vec<Vec<(u8, u64)>> {
    matrix
        .iter()
        .map(|row| row.iter().map(outcome_bits).collect())
        .collect()
}

/// Runs `f` with panic output silenced (this suite injects panics on
/// purpose; hundreds of default-hook backtraces would bury a genuine
/// failure).
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// The acceptance criterion: for 8 seeds, a 64-trajectory matrix job
/// under injected panics and slow pairs (1) completes under its
/// deadline with the failed cells named in the report, and (2) a crash
/// (a tiled run cut short mid-job) followed by a resume from its tiles
/// reproduces the uninterrupted run's matrix byte for byte.
#[test]
fn chaos_job_meets_deadline_names_failures_and_resumes_byte_identical() {
    quietly(|| {
        for seed in 0..SEEDS {
            let sts = Sts::new(StsConfig::default(), grid());
            let qs = corpus(0xC405 + seed, N_TRAJECTORIES);
            let plan = chaos_plan(seed);
            let deadline = Duration::from_secs(120);
            let base = JobConfig {
                budget: Budget::with_deadline(deadline),
                retry: fast_retry(),
                chunk_pairs: 32,
                soft_timeout: Some(Duration::from_millis(1)),
                fault: Some(plan.clone()),
                ..JobConfig::default()
            };

            // Uninterrupted run under injection.
            let started = Instant::now();
            let (full, report) = sts.similarity_matrix_supervised(&qs, &qs, &base).unwrap();
            let elapsed = started.elapsed();
            assert!(
                elapsed < deadline,
                "seed={seed}: job blew its deadline ({elapsed:?})"
            );
            assert_eq!(report.state(), JobState::Degraded, "seed={seed}: {report}");
            assert!(report.is_complete(), "seed={seed}: {report}");

            // Every persistently poisoned pair — and nothing else — is
            // reported failed, with the full retry budget consumed.
            let expected: Vec<(usize, usize)> = plan
                .persistent_pairs(N_PAIRS)
                .iter()
                .map(|&lin| (lin / N_TRAJECTORIES, lin % N_TRAJECTORIES))
                .collect();
            assert!(!expected.is_empty(), "seed={seed}: plan injected nothing");
            let mut reported = report.batch.failed_pairs.clone();
            reported.sort_unstable();
            assert_eq!(reported, expected, "seed={seed}");
            for &(i, j) in &expected {
                assert_eq!(
                    full[i][j],
                    PairOutcome::Failed {
                        attempts: fast_retry().max_retries + 1
                    },
                    "seed={seed}: ({i},{j})"
                );
            }
            // Transient panics healed through retries...
            assert!(
                report.stats.retries > report.batch.failed_count() as u64,
                "seed={seed}: no transient retries recorded ({report})"
            );
            // ...and the watchdog marked the wedged-slow chunks.
            assert!(
                !report.stats.slow_chunks.is_empty(),
                "seed={seed}: no slow chunk marked ({report})"
            );

            // Crash: spill 256-pair tiles, stop via a mid-job pair
            // budget, then resume under the same fault plan.
            let tiles = TempTiles::new(&format!("chaos-{seed}"));
            let tiling = TileConfig {
                tile_pairs: 256,
                ..TileConfig::new(&tiles.0)
            };
            let crash = JobConfig {
                budget: Budget::with_max_pairs(N_PAIRS / 2).deadline(deadline),
                ..base.clone()
            };
            let (_partial, crash_report) = sts
                .similarity_matrix_tiled(&qs, &qs, &crash, &tiling)
                .unwrap();
            assert!(
                !crash_report.is_complete(),
                "seed={seed}: crash run finished ({crash_report})"
            );
            assert!(
                crash_report.stats.tiles.unwrap().tiles_spilled > 0,
                "seed={seed}: no tile spilled"
            );

            let (resumed, resume_report) = sts
                .similarity_matrix_tiled(&qs, &qs, &base, &tiling)
                .unwrap();
            assert_eq!(
                resume_report.state(),
                JobState::Degraded,
                "seed={seed}: {resume_report}"
            );
            assert!(
                resume_report.stats.pairs_resumed > 0,
                "seed={seed}: the tiles restored nothing"
            );
            assert_eq!(
                matrix_bits(&resumed),
                matrix_bits(&full),
                "seed={seed}: resumed matrix differs from uninterrupted run"
            );
        }
    });
}

/// Liveness under wedging: a corpus where *every* pair sleeps longer
/// than the deadline's headroom must still return promptly — the
/// boundary checks stop dealing work, completed chunks survive, and
/// nothing is mislabelled as failed.
#[test]
fn wedged_slow_pairs_cannot_outlive_the_deadline() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(0x51_0e, 16); // 256 pairs, every one wedged
    let plan = FaultPlan {
        seed: 1,
        slow_per_mille: 1000,
        slow_for: Duration::from_millis(20),
        ..FaultPlan::default()
    };
    // Sequentially the job would sleep ≥ 256 × 20 ms ≈ 5 s; the
    // deadline allows ~100 ms plus at most one in-flight chunk per
    // worker (4 pairs × 20 ms).
    let deadline = Duration::from_millis(100);
    let cfg = JobConfig {
        budget: Budget::with_deadline(deadline),
        chunk_pairs: 4,
        soft_timeout: Some(Duration::from_millis(5)),
        fault: Some(plan),
        ..JobConfig::default()
    };
    let started = Instant::now();
    let (matrix, report) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline did not bound the wedged job ({elapsed:?})"
    );
    assert_eq!(report.state(), JobState::DeadlineExceeded, "{report}");
    assert_eq!(report.batch.failed_count(), 0, "{report}");
    let first = PairOutcome::Failed { attempts: 1 };
    assert_eq!(
        matrix.iter().flatten().filter(|c| **c == first).count(),
        0,
        "{report}"
    );
    assert!(report.stats.pairs_skipped > 0, "{report}");
    assert!(
        !report.stats.slow_chunks.is_empty(),
        "watchdog missed the wedge ({report})"
    );
    // Partial but consistent: every cell is either a real score or an
    // honestly reported skip.
    for row in &matrix {
        for cell in row {
            match cell {
                PairOutcome::Score(s) => assert!(s.is_finite(), "{s}"),
                PairOutcome::Skipped => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }
}
