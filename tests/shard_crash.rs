//! Crash suite for the sharded tile coordinator with *real* worker
//! processes: `sts-worker serve-tcp` children are SIGKILLed mid-tile
//! and the job must re-lease, recover and finish byte-identically —
//! no cell lost, no cell committed twice. The in-thread network-chaos
//! battery lives in `crates/robust/tests/net_chaos.rs`; this suite
//! covers the process boundary it elides.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use sts_core::{
    ExecMode, JobConfig, PairOutcome, ShardOptions, Sts, StsConfig, TileConfig, WorkerHandle,
    WorkerLauncher,
};
use sts_geo::{BoundingBox, Grid, Point};
use sts_rng::{Rng, Xoshiro256pp};
use sts_runtime::FaultPlan;
use sts_traj::Trajectory;

const WORKER: &str = env!("CARGO_BIN_EXE_sts-worker");
const N_TRAJECTORIES: usize = 12;
const TILE_PAIRS: usize = 16;
const N_TILES: usize = N_TRAJECTORIES * N_TRAJECTORIES / TILE_PAIRS;

fn grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        5.0,
    )
    .unwrap()
}

/// Seeded random walks confined to the grid (the same corpus shape the
/// other crash suites use).
fn corpus(seed: u64, n: usize) -> Vec<Trajectory> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut x = rng.random_range(20.0..80.0);
            let mut y = rng.random_range(20.0..80.0);
            let mut t = 0.0;
            let pts: Vec<(f64, f64, f64)> = (0..8)
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

/// RAII tile directory under the system tmp dir.
struct TempTiles(PathBuf);

impl TempTiles {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("sts-shard-crash-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempTiles(dir)
    }
}

impl Drop for TempTiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Spawns real `sts-worker serve-tcp` children and shares their PIDs
/// so the test can SIGKILL one from outside while the coordinator
/// believes it healthy.
struct PidTrackingLauncher {
    pids: Arc<Mutex<Vec<u32>>>,
}

struct PidHandle {
    child: Child,
}

impl WorkerHandle for PidHandle {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl WorkerLauncher for PidTrackingLauncher {
    fn launch(&self, addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
        let child = Command::new(WORKER)
            .arg("serve-tcp")
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        self.pids.lock().unwrap().push(child.id());
        Ok(Box::new(PidHandle { child }))
    }
}

/// A launcher that can never produce a worker: the fleet-exhaustion
/// path, end to end.
struct NoWorkers;

impl WorkerLauncher for NoWorkers {
    fn launch(&self, _addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
        Err(io::Error::other("the datacenter is on fire"))
    }
}

/// SIGKILL, not `Child::kill` — the coordinator must see the death the
/// way it sees any remote worker death: an unannounced EOF.
fn sigkill(pid: u32) {
    let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
}

/// The acceptance criterion: a real worker process SIGKILLed mid-tile
/// costs a lease and a respawn, never a cell. The finished matrix is
/// byte-identical to an in-process run — nothing lost to the dead
/// worker's tile, nothing committed twice by its replacement.
#[test]
fn sigkill_mid_tile_re_leases_and_finishes_byte_identical() {
    let sts = Sts::new(StsConfig::default(), grid());
    let trajs = corpus(0x51C_61FF, N_TRAJECTORIES * 2);
    let (queries, candidates) = trajs.split_at(N_TRAJECTORIES);

    // ~2 ms per pair gives each 16-pair tile a ~30 ms compute window —
    // wide enough that a kill 120 ms in lands mid-tile, short enough
    // for CI.
    let slow = FaultPlan {
        seed: 7,
        slow_per_mille: 1000,
        slow_for: Duration::from_millis(2),
        ..FaultPlan::default()
    };
    let cfg_ref = JobConfig {
        fault: Some(slow.clone()),
        ..JobConfig::default()
    };
    let (reference, ref_report) = sts
        .similarity_matrix_supervised(queries, candidates, &cfg_ref)
        .unwrap();
    assert!(ref_report.is_complete(), "{ref_report}");

    let pids = Arc::new(Mutex::new(Vec::new()));
    let tiles = TempTiles::new("sigkill");
    let cfg = JobConfig {
        fault: Some(slow),
        exec: ExecMode::Sharded(ShardOptions {
            workers: 2,
            lease_timeout: Duration::from_millis(600),
            ready_timeout: Duration::from_secs(10),
            hb_every: 2,
            restart_budget: 8,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
            launcher: Some(Arc::new(PidTrackingLauncher { pids: pids.clone() })),
            ..ShardOptions::default()
        }),
        ..JobConfig::default()
    };
    let tiling = TileConfig {
        tile_pairs: TILE_PAIRS,
        ..TileConfig::new(&tiles.0)
    };

    // The assassin: wait for the fleet to be mid-job, then SIGKILL the
    // first worker that was spawned.
    let killer = {
        let pids = pids.clone();
        std::thread::spawn(move || {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                if let Some(&pid) = pids.lock().unwrap().first() {
                    std::thread::sleep(Duration::from_millis(120));
                    sigkill(pid);
                    return true;
                }
                if std::time::Instant::now() > deadline {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let (sharded, report) = sts
        .similarity_matrix_tiled(queries, candidates, &cfg, &tiling)
        .unwrap();
    assert!(killer.join().unwrap(), "no worker was ever spawned to kill");
    assert!(report.is_complete(), "{report}");
    assert_eq!(
        matrix_bits(&sharded),
        matrix_bits(&reference),
        "matrix after mid-tile SIGKILL differs from in-process run"
    );

    let shard = report.stats.shard.expect("sharded job reports ShardStats");
    assert!(
        shard.leases_expired >= 1 || shard.worker_restarts >= 1,
        "the SIGKILL left no trace in recovery accounting ({shard:?})"
    );
    assert!(
        shard.workers_spawned >= 2,
        "the dead worker was never replaced ({shard:?})"
    );
    // Lease conservation doubles as the no-double-commit check: every
    // granted lease either committed its tile exactly once on the
    // fleet or expired.
    assert_eq!(
        shard.tiles_leased,
        (N_TILES - shard.tiles_local_fallback) + shard.leases_expired,
        "lease ledger does not conserve ({shard:?})"
    );
}

/// When no worker can be launched at all, the job does not fail — it
/// burns the restart budget, retires the fleet and computes every tile
/// locally, byte-identical to a healthy run.
#[test]
fn exhausted_fleet_degrades_to_local_compute() {
    let sts = Sts::new(StsConfig::default(), grid());
    let trajs = corpus(0xDEAD_F1EE7, N_TRAJECTORIES * 2);
    let (queries, candidates) = trajs.split_at(N_TRAJECTORIES);

    let cfg_ref = JobConfig::default();
    let (reference, _) = sts
        .similarity_matrix_supervised(queries, candidates, &cfg_ref)
        .unwrap();

    let tiles = TempTiles::new("exhausted");
    let cfg = JobConfig {
        exec: ExecMode::Sharded(ShardOptions {
            workers: 2,
            restart_budget: 3,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_micros(500),
            launcher: Some(Arc::new(NoWorkers)),
            ..ShardOptions::default()
        }),
        ..JobConfig::default()
    };
    let tiling = TileConfig {
        tile_pairs: TILE_PAIRS,
        ..TileConfig::new(&tiles.0)
    };
    let (sharded, report) = sts
        .similarity_matrix_tiled(queries, candidates, &cfg, &tiling)
        .unwrap();
    assert!(report.is_complete(), "{report}");
    assert_eq!(
        matrix_bits(&sharded),
        matrix_bits(&reference),
        "locally-degraded sharded matrix differs from in-process run"
    );
    let shard = report.stats.shard.expect("sharded job reports ShardStats");
    assert_eq!(
        shard.tiles_local_fallback, N_TILES,
        "every tile must degrade to local compute ({shard:?})"
    );
    assert_eq!(shard.workers_spawned, 0, "no launch ever succeeded");
    assert_eq!(
        shard.worker_restarts, 3,
        "the whole restart budget must be consumed before retiring ({shard:?})"
    );
}
