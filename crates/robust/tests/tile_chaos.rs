//! Disk-chaos suite for the out-of-core tiled matrix engine: seeded
//! torn writes, bit flips, ENOSPC and crash-before-rename injected
//! into real tiled similarity jobs via [`FaultyStorage`].
//!
//! The invariants under attack are the tile store's durability
//! contract and the engine's resume semantics:
//!
//! * a tiled job on a faulty disk produces the **byte-identical**
//!   matrix of an in-memory supervised run, for every seed — faults
//!   cost durability, never correctness;
//! * every injected corruption is **detected** (quarantined and
//!   recomputed or served from memory), never silently read back —
//!   the suite asserts *exact* counts against the injection log;
//! * a run interrupted mid-job resumes from its tile directory to the
//!   byte-identical full result, and crash debris (`*.tmp`) is swept
//!   and counted on the next open.
//!
//! Every seeded assertion embeds its seed, so a CI failure (the
//! `tile_chaos` step of `scripts/ci.sh`) is replayable.

use std::path::PathBuf;
use std::sync::Arc;
use sts_core::{JobConfig, PairOutcome, Sts, StsConfig, TileConfig};
use sts_geo::{BoundingBox, Grid, Point};
use sts_rng::{Rng, Xoshiro256pp};
use sts_robust::{DiskFault, DiskFaultPlan, FaultyStorage};
use sts_runtime::{Budget, FaultPlan, JobState, RetryPolicy, Storage};
use sts_traj::{TrajPoint, Trajectory};

const N_TRAJECTORIES: usize = 32;
const N_PAIRS: usize = N_TRAJECTORIES * N_TRAJECTORIES;
const TILE_PAIRS: usize = 64;
const SEEDS: u64 = 8;

fn grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::ORIGIN, Point::new(400.0, 200.0)),
        8.0,
    )
    .unwrap()
}

/// Seeded straight walkers (same shape as the supervised chaos suite):
/// clean data, so every fault below is injected, not latent.
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

/// Compute-side chaos, layered *under* the disk chaos: transient
/// panics heal through retries, persistent ones become Failed cells —
/// byte-identity must hold for those too.
fn cell_chaos(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: 0xFA17 ^ seed,
        transient_per_mille: 20,
        transient_failures: 1,
        persistent_per_mille: 5,
        ..FaultPlan::default()
    }
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        backoff_base: std::time::Duration::from_micros(20),
        backoff_cap: std::time::Duration::from_micros(200),
        seed: 0xBAC0FF,
    }
}

fn base_cfg(seed: u64) -> JobConfig {
    JobConfig {
        retry: fast_retry(),
        chunk_pairs: 16,
        fault: Some(cell_chaos(seed)),
        ..JobConfig::default()
    }
}

/// RAII tile directory under the system tmp dir.
struct TempTiles(PathBuf);

impl TempTiles {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sts-tile-chaos-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempTiles(dir)
    }
}

impl Drop for TempTiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn outcome_bits(cell: &PairOutcome) -> (u8, u64) {
    match cell {
        PairOutcome::Score(s) => (0, s.to_bits()),
        PairOutcome::Quarantined => (1, 0),
        PairOutcome::Failed { attempts } => (3, *attempts as u64),
        PairOutcome::Skipped => (4, 0),
        PairOutcome::Poisoned { .. } => (5, 0),
    }
}

fn matrix_bits(matrix: &[Vec<PairOutcome>]) -> Vec<Vec<(u8, u64)>> {
    matrix
        .iter()
        .map(|row| row.iter().map(outcome_bits).collect())
        .collect()
}

fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// `*.tile` files currently in `dir` (absent dir counts as none).
fn tile_files(dir: &PathBuf) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut v: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tile"))
        .collect();
    v.sort();
    v
}

/// The acceptance criterion: for 8 seeds and at every tile size — one
/// pair, [`TILE_PAIRS`] and the whole space — a tiled job on a disk
/// that tears, flips, fills and crashes produces the byte-identical
/// matrix of an in-memory supervised run, and the report's detection
/// counts match the injection log exactly — every torn/flipped write
/// is caught as corrupt, every failed spill is counted, nothing is
/// silently read back.
#[test]
fn faulty_disk_runs_are_byte_identical_and_every_fault_detected() {
    quietly(|| {
        let mut injected_kinds = [0usize; 4];
        for (seed, tile_pairs) in (0..SEEDS).flat_map(|s| [1, TILE_PAIRS, N_PAIRS].map(|t| (s, t)))
        {
            let sts = Sts::new(StsConfig::default(), grid());
            let qs = corpus(0x71C5 + seed, N_TRAJECTORIES);
            let cfg = base_cfg(seed);

            let (reference, ref_report) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();
            assert!(ref_report.is_complete(), "seed={seed}: {ref_report}");

            let tiles = TempTiles::new(&format!("faulty-{seed}-{tile_pairs}"));
            let storage = Arc::new(FaultyStorage::new(DiskFaultPlan {
                seed: 0xD15C ^ seed,
                torn_per_mille: 150,
                flip_per_mille: 150,
                enospc_per_mille: 100,
                stale_per_mille: 100,
                enospc_at_write: None,
            }));
            let tiling = TileConfig {
                tile_pairs,
                storage: storage.clone() as Arc<dyn Storage>,
                ..TileConfig::new(&tiles.0)
            };
            let (tiled, report) = sts
                .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
                .unwrap();
            assert!(
                report.is_complete(),
                "seed={seed} tile_pairs={tile_pairs}: {report}"
            );
            assert_eq!(
                matrix_bits(&tiled),
                matrix_bits(&reference),
                "seed={seed} tile_pairs={tile_pairs}: faulty-disk tiled matrix differs from \
                 in-memory run"
            );

            // Exact detection accounting against the injection log:
            // torn/flipped writes *reported success*, so only read-back
            // verification can catch them — and it must catch each one.
            let torn = storage.count(DiskFault::TornWrite);
            let flip = storage.count(DiskFault::BitFlip);
            let enospc = storage.count(DiskFault::Enospc);
            let stale = storage.count(DiskFault::StaleTmp);
            let t = report.stats.tiles.expect("tiled job reports TileStats");
            assert_eq!(
                t.tiles_corrupt,
                torn + flip,
                "seed={seed} tile_pairs={tile_pairs}: corrupt-detection count drifted from \
                 injections ({t})"
            );
            assert_eq!(
                t.spill_errors,
                torn + flip + enospc + stale,
                "seed={seed} tile_pairs={tile_pairs}: every injected fault must cost exactly one \
                 spill ({t})"
            );
            assert_eq!(
                t.tiles_spilled + t.spill_errors,
                t.tiles_computed,
                "seed={seed} tile_pairs={tile_pairs}: every computed tile either spilled or \
                 degraded ({t})"
            );
            for i in 0..4 {
                injected_kinds[i] += [torn, flip, enospc, stale][i];
            }
        }
        // The rates must actually have exercised all four fault kinds
        // across the seed battery, or the suite is vacuous.
        for (i, n) in injected_kinds.iter().enumerate() {
            assert!(*n > 0, "fault kind {i} never fired across {SEEDS} seeds");
        }
    });
}

/// Crash/resume: a tiled job stopped halfway by a pair budget leaves
/// its verified tiles on disk; a resumed run restores them (counted in
/// the report), computes only the remainder, matches the uninterrupted
/// in-memory run byte for byte, and cleans the directory on success.
#[test]
fn interrupted_tiled_run_resumes_byte_identical() {
    quietly(|| {
        for seed in 0..SEEDS {
            let sts = Sts::new(StsConfig::default(), grid());
            let qs = corpus(0x2E5 + seed, N_TRAJECTORIES);
            let cfg = base_cfg(seed);
            let (reference, _) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();

            let tiles = TempTiles::new(&format!("resume-{seed}"));
            let tiling = TileConfig {
                tile_pairs: TILE_PAIRS,
                ..TileConfig::new(&tiles.0)
            };
            let crash = JobConfig {
                budget: Budget::with_max_pairs(N_PAIRS / 2),
                ..cfg.clone()
            };
            let (_partial, crash_report) = sts
                .similarity_matrix_tiled(&qs, &qs, &crash, &tiling)
                .unwrap();
            assert_eq!(
                crash_report.state(),
                JobState::BudgetExhausted,
                "seed={seed}: {crash_report}"
            );
            assert!(
                !tile_files(&tiles.0).is_empty(),
                "seed={seed}: interrupted run left no tiles to resume from"
            );

            let (resumed, resume_report) = sts
                .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
                .unwrap();
            assert!(resume_report.is_complete(), "seed={seed}: {resume_report}");
            let t = resume_report.stats.tiles.unwrap();
            assert!(
                t.tiles_resumed > 0 && resume_report.stats.pairs_resumed > 0,
                "seed={seed}: resume restored nothing ({resume_report})"
            );
            assert!(
                t.tiles_computed < t.tiles_total,
                "seed={seed}: resume recomputed everything ({t})"
            );
            assert_eq!(
                matrix_bits(&resumed),
                matrix_bits(&reference),
                "seed={seed}: resumed tiled matrix differs from uninterrupted run"
            );
            assert!(
                tile_files(&tiles.0).is_empty(),
                "seed={seed}: completed run must clean its tiles"
            );
        }
    });
}

/// On-disk rot between runs: mangle one kept tile file (flip a byte)
/// and truncate another; the next run must detect both by
/// verification, quarantine the evidence aside and recompute — with
/// the final matrix still byte-identical.
#[test]
fn mangled_tiles_on_disk_are_detected_quarantined_and_recomputed() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(0xB07, N_TRAJECTORIES);
    let cfg = JobConfig {
        chunk_pairs: 16,
        ..JobConfig::default()
    };
    let (reference, _) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();

    let tiles = TempTiles::new("mangle");
    let tiling = TileConfig {
        tile_pairs: TILE_PAIRS,
        keep_tiles: true,
        ..TileConfig::new(&tiles.0)
    };
    let (_, first) = sts
        .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
        .unwrap();
    assert!(first.is_complete(), "{first}");
    let files = tile_files(&tiles.0);
    assert!(files.len() >= 3, "need several tiles, got {}", files.len());

    // Bit-rot one tile mid-file, truncate another's tail.
    let mut bytes = std::fs::read(&files[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&files[1], &bytes).unwrap();
    let bytes = std::fs::read(&files[2]).unwrap();
    std::fs::write(&files[2], &bytes[..bytes.len() - 4]).unwrap();

    let (second_matrix, second) = sts
        .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
        .unwrap();
    let t = second.stats.tiles.unwrap();
    assert_eq!(t.tiles_corrupt, 2, "both mangled tiles detected: {t}");
    assert_eq!(
        t.tiles_computed, 2,
        "exactly the mangled tiles recomputed: {t}"
    );
    assert_eq!(
        t.tiles_resumed,
        t.tiles_total - 2,
        "healthy tiles resumed: {t}"
    );
    assert_eq!(
        matrix_bits(&second_matrix),
        matrix_bits(&reference),
        "matrix after on-disk rot differs"
    );
    // The corrupt files were quarantined aside as evidence, not erased.
    let corrupt: Vec<PathBuf> = std::fs::read_dir(&tiles.0)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(".corrupt"))
        .collect();
    assert_eq!(corrupt.len(), 2, "quarantine evidence missing: {corrupt:?}");
}

/// ENOSPC at the k-th write: the affected tile degrades to memory
/// (counted as a spill error), everything else stays durable, and the
/// job completes with the correct matrix — a full disk costs
/// durability, not data.
#[test]
fn enospc_at_kth_write_degrades_without_data_loss() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(0xE05, N_TRAJECTORIES);
    let cfg = JobConfig {
        chunk_pairs: 16,
        ..JobConfig::default()
    };
    let (reference, _) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();

    let tiles = TempTiles::new("enospc");
    let storage = Arc::new(FaultyStorage::new(DiskFaultPlan {
        enospc_at_write: Some(2),
        ..DiskFaultPlan::none(0)
    }));
    let tiling = TileConfig {
        tile_pairs: TILE_PAIRS,
        storage: storage.clone() as Arc<dyn Storage>,
        ..TileConfig::new(&tiles.0)
    };
    let (matrix, report) = sts
        .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
        .unwrap();
    assert_eq!(report.state(), JobState::Complete, "{report}");
    let t = report.stats.tiles.unwrap();
    assert_eq!(t.spill_errors, 1, "exactly the k-th write failed: {t}");
    assert_eq!(t.tiles_corrupt, 0, "ENOSPC is not corruption: {t}");
    assert_eq!(t.tiles_spilled, t.tiles_computed - 1, "{t}");
    assert_eq!(matrix_bits(&matrix), matrix_bits(&reference));
}

/// Crash-before-rename debris: a run whose every spill dies between
/// tmp write and rename still completes correctly from memory; the
/// next run sweeps every orphaned `*.tmp` (counted in its report)
/// before computing.
#[test]
fn stale_tmp_debris_is_swept_and_counted_on_the_next_open() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(0x57A1E, N_TRAJECTORIES);
    let cfg = JobConfig {
        chunk_pairs: 16,
        ..JobConfig::default()
    };
    let tiles = TempTiles::new("stale");

    let crashy = Arc::new(FaultyStorage::new(DiskFaultPlan {
        stale_per_mille: 1000,
        ..DiskFaultPlan::none(0)
    }));
    let tiling = TileConfig {
        tile_pairs: TILE_PAIRS,
        storage: crashy.clone() as Arc<dyn Storage>,
        ..TileConfig::new(&tiles.0)
    };
    let (_, first) = sts
        .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
        .unwrap();
    assert!(first.is_complete(), "{first}");
    let t = first.stats.tiles.unwrap();
    assert_eq!(
        t.spill_errors, t.tiles_computed,
        "every spill must have crashed: {t}"
    );
    let tmps = std::fs::read_dir(&tiles.0)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
        .count();
    assert_eq!(tmps, t.tiles_computed, "one tmp orphan per crashed spill");

    let healthy = TileConfig {
        tile_pairs: TILE_PAIRS,
        ..TileConfig::new(&tiles.0)
    };
    let (_, second) = sts
        .similarity_matrix_tiled(&qs, &qs, &cfg, &healthy)
        .unwrap();
    let t2 = second.stats.tiles.unwrap();
    assert_eq!(
        t2.stale_tmp_swept, tmps,
        "second open must sweep every orphan: {t2}"
    );
}

/// Config validation: a zero tile size is rejected up front with a
/// typed error — not accepted, not spun on forever.
#[test]
fn unusable_tile_configs_are_rejected_up_front() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(1, 4);
    let tiles = TempTiles::new("reject");

    let mut tiling = TileConfig::new(&tiles.0);
    tiling.tile_pairs = 0;
    let err = sts
        .similarity_matrix_tiled(&qs, &qs, &JobConfig::default(), &tiling)
        .unwrap_err();
    assert!(
        matches!(err, sts_core::JobError::InvalidTiling(_)),
        "zero tile_pairs: {err}"
    );
}

/// The soft-timeout watchdog's verdicts survive tiling: a tiled job
/// whose every pair is slow reports its slow chunks, named by ids that
/// are distinct across tiles (each tile's chunks are numbered within
/// the whole pair space), and every chunk it dealt is accounted for.
#[test]
fn tiled_soft_timeouts_report_distinct_slow_chunks() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(0x5104, 8); // 64 pairs
    let cfg = JobConfig {
        chunk_pairs: 4,
        threads: 2,
        soft_timeout: Some(std::time::Duration::from_millis(2)),
        fault: Some(FaultPlan {
            seed: 7,
            slow_per_mille: 1000,
            slow_for: std::time::Duration::from_millis(3),
            ..FaultPlan::default()
        }),
        ..JobConfig::default()
    };
    let tiles = TempTiles::new("slow");
    let tiling = TileConfig {
        tile_pairs: 16,
        ..TileConfig::new(&tiles.0)
    };
    let (matrix, report) = sts
        .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
        .unwrap();
    assert!(report.is_complete(), "{report}");
    let slow = &report.stats.slow_chunks;
    // 4 tiles of 16 pairs, 4 chunks of 4 pairs each, all of them slow.
    assert_eq!(report.stats.chunks_total, 16, "{report}");
    assert_eq!(report.stats.chunks_completed, 16, "{report}");
    assert_eq!(slow.len(), 16, "every chunk overran: {slow:?}");
    let mut distinct = slow.clone();
    distinct.dedup();
    assert_eq!(&distinct, slow, "slow chunk ids collide: {slow:?}");
    assert_eq!(report.stats.tiles.unwrap().tiles_computed, 4, "{report}");
    assert!(matrix.iter().flatten().all(|c| c.score().is_some()));
}

/// The out-of-core ranking path: per-row top-k matches the supervised
/// ranking bit for bit while the engine's resident-cell high-water
/// mark stays bounded by one tile — the N² matrix is never held.
#[test]
fn top_k_tiled_matches_supervised_within_tile_sized_memory() {
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(0x70B, N_TRAJECTORIES);
    let cfg = JobConfig {
        chunk_pairs: 16,
        ..JobConfig::default()
    };
    let k = 5;

    let tiles = TempTiles::new("topk");
    let tiling = TileConfig {
        tile_pairs: TILE_PAIRS,
        ..TileConfig::new(&tiles.0)
    };
    let (ranked, report) = sts.top_k_matrix_tiled(&qs, &qs, k, &cfg, &tiling).unwrap();
    assert!(report.is_complete(), "{report}");
    let t = report.stats.tiles.unwrap();
    assert!(
        t.max_resident_cells <= TILE_PAIRS,
        "engine held {} cells — more than one {TILE_PAIRS}-pair tile",
        t.max_resident_cells
    );

    for (i, q) in qs.iter().enumerate() {
        let (expected, _) = sts.top_k_supervised(q, &qs, k, &cfg).unwrap();
        let got: Vec<(usize, u64)> = ranked[i].iter().map(|(j, s)| (*j, s.to_bits())).collect();
        let want: Vec<(usize, u64)> = expected.iter().map(|(j, s)| (*j, s.to_bits())).collect();
        assert_eq!(got, want, "row {i}: tiled ranking differs");
    }
}
