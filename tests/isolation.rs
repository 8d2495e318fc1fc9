//! The crash suite: end-to-end acceptance tests for process-isolated
//! STS jobs (`ExecMode::Subprocess`) against real worker processes —
//! real aborts, real wedges, real SIGKILLs, real garbage on the pipe.
//!
//! The workload is an 8×8 similarity matrix whose fault plan makes
//! some pairs abort the process, wedge it forever, or corrupt its
//! output frame. In-process execution provably cannot finish this
//! workload (a child process running it dies or hangs); subprocess
//! mode must finish it, quarantining exactly the poison pairs the
//! plan predicts — deterministically across seeds and reruns.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sts_repro::core::{
    ExecMode, IsolateOptions, JobConfig, JobError, PairOutcome, Sts, StsConfig, TileConfig,
};
use sts_repro::geo::{BoundingBox, Grid, Point};
use sts_repro::rng::{Rng, Xoshiro256pp};
use sts_repro::runtime::{Fault, FaultPlan, JobState, RetryPolicy, WorkerExit};
use sts_repro::traj::Trajectory;

const WORKER: &str = env!("CARGO_BIN_EXE_sts-worker");

fn grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        5.0,
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
            let mut t = 0.0;
            let pts: Vec<(f64, f64, f64)> = (0..12)
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

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        backoff_base: Duration::from_micros(20),
        backoff_cap: Duration::from_micros(200),
        seed: 0xBAC0FF,
    }
}

/// The crash mix: retryable panics, terminal panics, and the three
/// process killers (abort / wedge / garbage output).
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: 0x15_0A7E ^ seed,
        transient_per_mille: 30,
        transient_failures: 1,
        persistent_per_mille: 30,
        abort_per_mille: 40,
        wedge_per_mille: 20,
        garbage_per_mille: 30,
        ..FaultPlan::default()
    }
}

fn subprocess_opts() -> IsolateOptions {
    IsolateOptions {
        worker: Some(PathBuf::from(WORKER)),
        hard_timeout: Duration::from_millis(800),
        ..IsolateOptions::default()
    }
}

fn chaos_cfg(seed: u64) -> JobConfig {
    JobConfig {
        retry: fast_retry(),
        chunk_pairs: 8,
        fault: Some(chaos_plan(seed)),
        exec: ExecMode::Subprocess(subprocess_opts()),
        ..JobConfig::default()
    }
}

/// Bit-exact rendering of a matrix for cross-run comparison.
fn matrix_bits(matrix: &[Vec<PairOutcome>]) -> Vec<String> {
    matrix
        .iter()
        .flat_map(|row| row.iter())
        .map(|cell| match cell {
            PairOutcome::Score(s) => format!("s:{:016x}", s.to_bits()),
            PairOutcome::Quarantined => "q".into(),
            PairOutcome::Failed { attempts } => format!("f:{attempts}"),
            PairOutcome::Skipped => "k".into(),
            PairOutcome::Poisoned { exit } => format!("x:{exit}"),
        })
        .collect()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sts-isolation-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The tentpole acceptance test: the chaos matrix completes in
/// subprocess mode with *exactly* the plan's process-killing pairs
/// quarantined — each attributed to how its worker died — and every
/// other cell resolved, across seeds.
#[test]
fn subprocess_chaos_quarantines_exactly_the_poison_pairs() {
    for seed in [1u64, 2] {
        let trajs = corpus(0xC0FE ^ seed, 16);
        let (queries, candidates) = trajs.split_at(8);
        let plan = chaos_plan(seed);
        let expected_poison = plan.process_killing_pairs(64);
        let expected_failed = plan.persistent_pairs(64);
        assert!(
            !expected_poison.is_empty(),
            "seed {seed}: the plan must actually kill workers"
        );

        let sts = Sts::new(StsConfig::default(), grid());
        let (matrix, report) = sts
            .similarity_matrix_supervised(queries, candidates, &chaos_cfg(seed))
            .unwrap();

        assert_eq!(report.stats.state, JobState::Degraded, "seed {seed}");
        assert_eq!(
            report.stats.pairs_skipped, 0,
            "seed {seed}: matrix must finish"
        );
        assert_eq!(report.stats.pairs_total, 64);

        // The quarantine list names exactly the predicted pairs, each
        // with the exit its fault causes.
        let poisoned: BTreeMap<usize, WorkerExit> = report
            .batch
            .poisoned_pairs
            .iter()
            .map(|&(i, j, exit)| (i * 8 + j, exit))
            .collect();
        let lins: Vec<usize> = poisoned.keys().copied().collect();
        assert_eq!(lins, expected_poison, "seed {seed}: poison set");
        for (&lin, &exit) in &poisoned {
            match plan.fault_for(lin) {
                Fault::Abort => {
                    assert!(matches!(exit, WorkerExit::Signal(_) | WorkerExit::Code(_)))
                }
                Fault::Wedge => assert_eq!(exit, WorkerExit::HardTimeout),
                Fault::GarbageOutput => assert_eq!(exit, WorkerExit::Protocol),
                f => panic!("seed {seed}: pair {lin} poisoned but fault is {f:?}"),
            }
        }

        // Every other cell resolved: persistent faults as Failed, the
        // rest as finite scores.
        for (lin, cell) in matrix.iter().flat_map(|r| r.iter()).enumerate() {
            match cell {
                PairOutcome::Score(s) => assert!(s.is_finite(), "pair {lin}"),
                PairOutcome::Failed { attempts } => {
                    assert!(
                        expected_failed.contains(&lin),
                        "pair {lin} failed unpredicted"
                    );
                    assert_eq!(*attempts, 3, "pair {lin}: retries run in-worker");
                }
                PairOutcome::Poisoned { .. } => {
                    assert!(
                        expected_poison.contains(&lin),
                        "pair {lin} poisoned unpredicted"
                    )
                }
                other => panic!("seed {seed}: pair {lin} unresolved: {other:?}"),
            }
        }

        let shard = report
            .stats
            .shard
            .expect("subprocess job reports fleet stats");
        assert!(shard.workers_spawned > 0);
        assert_eq!(shard.pairs_poisoned, expected_poison.len());

        // Rerun: byte-identical outcome.
        let (again, report2) = sts
            .similarity_matrix_supervised(queries, candidates, &chaos_cfg(seed))
            .unwrap();
        assert_eq!(matrix_bits(&matrix), matrix_bits(&again), "seed {seed}");
        assert_eq!(report.batch.poisoned_pairs, report2.batch.poisoned_pairs);
    }
}

/// The same workload is unsurvivable in-process: a child process
/// running it either dies abnormally (abort pair) or wedges until we
/// lose patience and kill it. It must never finish cleanly.
#[test]
fn in_process_mode_cannot_survive_the_chaos_plan() {
    let mut child = Command::new(WORKER)
        .args(["chaos", "in-process", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match child.try_wait().unwrap() {
            Some(status) => {
                assert!(
                    !status.success(),
                    "in-process chaos run finished cleanly: {status:?}"
                );
                return;
            }
            None if Instant::now() >= deadline => {
                // Wedged — the other unsurvivable outcome.
                child.kill().unwrap();
                child.wait().unwrap();
                return;
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// With no faults, subprocess mode is a pure transport: bit-identical
/// scores to the in-process path, state Complete in both.
#[test]
fn subprocess_matches_in_process_bit_for_bit_on_a_clean_run() {
    let trajs = corpus(0xB17_E4AC7, 12);
    let (queries, candidates) = trajs.split_at(6);
    let sts = Sts::new(StsConfig::default(), grid());

    let base = JobConfig {
        retry: fast_retry(),
        chunk_pairs: 5,
        ..JobConfig::default()
    };
    let (inproc, r1) = sts
        .similarity_matrix_supervised(queries, candidates, &base)
        .unwrap();
    let sub = JobConfig {
        exec: ExecMode::Subprocess(subprocess_opts()),
        ..base
    };
    let (subproc, r2) = sts
        .similarity_matrix_supervised(queries, candidates, &sub)
        .unwrap();

    assert_eq!(r1.stats.state, JobState::Complete);
    assert_eq!(r2.stats.state, JobState::Complete);
    assert_eq!(matrix_bits(&inproc), matrix_bits(&subproc));
    assert!(r2.stats.shard.is_some());
    assert!(r1.stats.shard.is_none());
}

/// A completed (degraded) subprocess job spills its poison cells into
/// its kept tiles; rerunning it replays the whole matrix from the tiles
/// — no workers spawned, no pair re-killed — and both runs equal the
/// untiled subprocess run, poison list included.
#[test]
fn subprocess_resume_replays_poison_without_respawning() {
    let tmp = TempDir::new("resume");
    let trajs = corpus(0xC0FE ^ 1, 16);
    let (queries, candidates) = trajs.split_at(8);
    let sts = Sts::new(StsConfig::default(), grid());

    let cfg = chaos_cfg(1);
    let (untiled, r0) = sts
        .similarity_matrix_supervised(queries, candidates, &cfg)
        .unwrap();
    let tiling = TileConfig {
        tile_pairs: 16,
        keep_tiles: true,
        ..TileConfig::new(tmp.path("tiles"))
    };
    let (first, r1) = sts
        .similarity_matrix_tiled(queries, candidates, &cfg, &tiling)
        .unwrap();
    assert_eq!(r1.stats.state, JobState::Degraded);
    assert!(r1.stats.shard.unwrap().workers_spawned > 0);
    assert!(
        !r1.batch.poisoned_pairs.is_empty(),
        "the plan kills workers"
    );

    let (second, r2) = sts
        .similarity_matrix_tiled(queries, candidates, &cfg, &tiling)
        .unwrap();
    assert_eq!(
        r2.stats.pairs_resumed, 64,
        "everything comes from the tiles"
    );
    let shard = r2.stats.shard.expect("still a subprocess job");
    assert_eq!(shard.workers_spawned, 0, "no work left, no workers");
    assert_eq!(
        (
            shard.tiles_leased,
            shard.leases_expired,
            shard.pairs_poisoned
        ),
        (0, 0, 0),
        "poison must not be rediscovered"
    );
    for (matrix, report) in [(&first, &r1), (&second, &r2)] {
        assert_eq!(matrix_bits(matrix), matrix_bits(&untiled));
        assert_eq!(report.batch.poisoned_pairs, r0.batch.poisoned_pairs);
    }
}

/// SIGKILL a subprocess-mode tiled job mid-run (a real process death
/// of the coordinator, between and during tile spills), resume it from
/// its tiles, and require the final matrix to be byte-identical to the
/// untiled in-memory run of the same workload — across 8 seeds.
#[test]
fn sigkill_resume_is_byte_identical_across_seeds() {
    let tmp = TempDir::new("sigkill");
    let sts = Sts::new(StsConfig::default(), grid());
    let mut killed_mid_run = 0;
    for seed in 0u64..8 {
        let tiles = tmp.path(&format!("drive-{seed}"));
        let out = tmp.path(&format!("drive-{seed}.out"));

        // The reference: `tile-drive`'s corpus (only slow faults, which
        // change timing, never scores) scored untiled in memory.
        let trajs = corpus(0x711E_D000 ^ seed, 12);
        let (queries, candidates) = trajs.split_at(6);
        let (matrix, report) = sts
            .similarity_matrix_supervised(queries, candidates, &JobConfig::default())
            .unwrap();
        let mut reference = format!("state {:?}\n", report.stats.state);
        for (lin, bits) in matrix_bits(&matrix).iter().enumerate() {
            reference.push_str(&format!("cell {} {} {bits}\n", lin / 6, lin % 6));
        }

        // Victim run: SIGKILLed somewhere between tile spills.
        let drive = || {
            let mut cmd = Command::new(WORKER);
            cmd.arg("tile-drive")
                .arg(&tiles)
                .arg(seed.to_string())
                .arg(&out)
                .arg("subprocess");
            cmd
        };
        let mut child = drive().spawn().unwrap();
        std::thread::sleep(Duration::from_millis(40 + seed * 9));
        match child.try_wait().unwrap() {
            Some(status) => assert!(status.success(), "seed {seed}: early exit failed"),
            None => {
                child.kill().unwrap(); // SIGKILL: no cleanup, no final spill
                child.wait().unwrap();
                killed_mid_run += 1;
            }
        }

        // Resume to completion and compare bytes.
        let status = drive().status().unwrap();
        assert!(status.success(), "seed {seed}: resume failed");
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            reference,
            "seed {seed}: resumed matrix differs from the in-memory run"
        );
    }
    assert!(
        killed_mid_run >= 1,
        "no run was actually killed mid-flight; slow the tile-drive workload down"
    );
}

/// A subprocess job with a bogus worker path fails with a typed error
/// before touching any pair.
#[test]
fn missing_worker_binary_is_a_typed_error() {
    let trajs = corpus(7, 4);
    let (queries, candidates) = trajs.split_at(2);
    let cfg = JobConfig {
        exec: ExecMode::Subprocess(IsolateOptions {
            worker: Some(PathBuf::from("/nonexistent/sts-worker")),
            ..IsolateOptions::default()
        }),
        ..JobConfig::default()
    };
    let sts = Sts::new(StsConfig::default(), grid());
    match sts.similarity_matrix_supervised(queries, candidates, &cfg) {
        Err(JobError::WorkerMissing { path }) => {
            assert_eq!(path, PathBuf::from("/nonexistent/sts-worker"))
        }
        other => panic!("expected WorkerMissing, got {other:?}"),
    }
}
