//! Network-chaos suite for the sharded tile coordinator: seeded frame
//! drops, delays, corruption, duplicates, disconnects and wedges
//! injected into the coordinator↔worker transport via [`NetChaos`].
//!
//! The invariants under attack are the lease/commit contract of
//! `sts_core::shard` and the tiled engine's recovery semantics:
//!
//! * a sharded job on a hostile network produces the **byte-identical**
//!   matrix of an in-process run, for every seed — network faults cost
//!   retries and restarts, never correctness, and never a double
//!   commit;
//! * injections reconcile against detections **exactly** where the
//!   fault class admits it: every corrupted coordinator-bound frame
//!   surfaces as a counted garbage frame, delays below half the lease
//!   timeout are harmless by construction, and the lease ledger
//!   conserves (every granted lease is either committed or expired);
//! * when chaos (or a fleet that cannot spawn at all, or workers that
//!   garble every result) takes every worker down, the job degrades to
//!   local compute instead of failing.
//!
//! Every seeded assertion embeds its seed, so a CI failure (the
//! `net_chaos` step of `scripts/ci.sh`) is replayable.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use sts_core::{
    ExecMode, JobConfig, PairOutcome, ShardOptions, Sts, StsConfig, TileConfig, WorkerHandle,
    WorkerLauncher,
};
use sts_geo::{BoundingBox, Grid, Point};
use sts_isolate::{NetDirection, NetFault};
use sts_rng::{Rng, Xoshiro256pp};
use sts_robust::{NetChaos, NetFaultPlan};
use sts_runtime::{Budget, FaultPlan, JobState};
use sts_traj::{TrajPoint, Trajectory};

const N_TRAJECTORIES: usize = 16;
const TILE_PAIRS: usize = 32;
const N_TILES: usize = N_TRAJECTORIES * N_TRAJECTORIES / TILE_PAIRS;
const SEEDS: u64 = 8;

fn grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::ORIGIN, Point::new(400.0, 200.0)),
        8.0,
    )
    .unwrap()
}

/// Seeded straight walkers: clean data, so every failure below is
/// injected by the transport, not latent in the corpus.
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

/// In-thread workers speaking the wire protocol over real loopback
/// sockets: every transport byte is real, only the process boundary is
/// elided (the SIGKILL suite in `tests/shard_crash.rs` covers that).
struct ThreadLauncher;

struct ThreadHandle {
    stream: TcpStream,
}

impl WorkerHandle for ThreadHandle {
    fn kill(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl WorkerLauncher for ThreadLauncher {
    fn launch(&self, addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
        let stream = TcpStream::connect(addr)?;
        let reader = stream.try_clone()?;
        let writer = stream.try_clone()?;
        std::thread::spawn(move || {
            let mut r = io::BufReader::new(reader);
            let mut w = writer;
            let _ = sts_core::serve(&mut r, &mut w);
        });
        Ok(Box::new(ThreadHandle { stream }))
    }
}

/// RAII tile directory under the system tmp dir.
struct TempTiles(PathBuf);

impl TempTiles {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sts-net-chaos-{}-{tag}", std::process::id()));
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

/// Lease timeout used by every plan here; `NetFaultPlan::delay` stays
/// below half of it so delayed frames can never expire a lease.
const LEASE: Duration = Duration::from_millis(250);

fn shard_opts(chaos: &Arc<NetChaos>) -> ShardOptions {
    ShardOptions {
        workers: 3,
        lease_timeout: LEASE,
        // In-thread workers answer `ready` in milliseconds; a short
        // deadline keeps chaos-eaten ready frames from stalling the
        // suite.
        ready_timeout: Duration::from_millis(800),
        hb_every: 4,
        restart_budget: 64,
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_micros(500),
        launcher: Some(Arc::new(ThreadLauncher)),
        injector: Some(chaos.clone() as Arc<dyn sts_isolate::NetInjector>),
        ..ShardOptions::default()
    }
}

/// Runs the same corpus in-process (reference) and sharded under
/// `plan`, asserts byte-identity and lease conservation, and returns
/// `(ShardStats, NetChaos ledger)` for fault-class-specific checks.
fn chaotic_run(
    seed: u64,
    plan: NetFaultPlan,
    tag: &str,
) -> (sts_runtime::ShardStats, Arc<NetChaos>) {
    let sts = Sts::new(StsConfig::default(), grid());
    let queries = corpus(0x5EA0 + seed, N_TRAJECTORIES);
    let candidates = corpus(0xC0DE + seed, N_TRAJECTORIES);
    let cfg = JobConfig::default();

    let (reference, ref_report) = sts
        .similarity_matrix_supervised(&queries, &candidates, &cfg)
        .unwrap();
    assert!(ref_report.is_complete(), "seed={seed}: {ref_report}");

    let chaos = Arc::new(NetChaos::new(plan));
    let tiles = TempTiles::new(&format!("{tag}-{seed}"));
    let tiling = TileConfig {
        tile_pairs: TILE_PAIRS,
        ..TileConfig::new(&tiles.0)
    };
    let cfg = JobConfig {
        exec: ExecMode::Sharded(shard_opts(&chaos)),
        ..JobConfig::default()
    };
    let (sharded, report) = sts
        .similarity_matrix_tiled(&queries, &candidates, &cfg, &tiling)
        .unwrap();
    assert!(report.is_complete(), "seed={seed}: {report}");
    assert_eq!(
        matrix_bits(&sharded),
        matrix_bits(&reference),
        "seed={seed}: sharded matrix under network chaos differs from in-process run"
    );

    let shard = report.stats.shard.expect("sharded job reports ShardStats");
    // Lease conservation: nothing stops this run, so every granted
    // lease either committed a tile on the fleet or expired. The fleet
    // committed exactly the tiles local fallback did not.
    assert_eq!(
        shard.tiles_leased,
        (N_TILES - shard.tiles_local_fallback) + shard.leases_expired,
        "seed={seed}: lease ledger does not conserve ({shard:?})"
    );
    (shard, chaos)
}

/// Recv-direction corrupt injections from the ledger — each one must
/// surface as exactly one counted garbage frame at the coordinator.
fn recv_corrupt(chaos: &NetChaos) -> usize {
    chaos
        .injected()
        .iter()
        .filter(|f| f.dir == NetDirection::Recv && f.fault == NetFault::Corrupt)
        .count()
}

/// The acceptance criterion: for 8 seeds, a sharded job over a
/// transport that drops, delays, corrupts, duplicates, disconnects and
/// wedges produces the byte-identical matrix of an in-process run,
/// with corruption detection reconciling exactly against the injection
/// ledger — and the battery actually exercises every fault class.
#[test]
fn mixed_network_chaos_is_byte_identical_across_seeds() {
    let mut totals = sts_robust::NetFaultCounts::default();
    let mut expired_total = 0usize;
    let mut restarts_total = 0usize;
    for seed in 0..SEEDS {
        let plan = NetFaultPlan {
            seed: 0x0E7C_4A05 ^ seed,
            drop_per_mille: 8,
            delay_per_mille: 10,
            corrupt_per_mille: 8,
            duplicate_per_mille: 8,
            disconnect_per_mille: 5,
            wedge_per_mille: 3,
            delay: Duration::from_millis(5),
        };
        let (shard, chaos) = chaotic_run(seed, plan, "mixed");
        assert_eq!(
            shard.frames_corrupt,
            recv_corrupt(&chaos),
            "seed={seed}: coordinator-side garbage frames must reconcile exactly \
             against injected recv-corruption ({shard:?})"
        );
        let counts = chaos.counts();
        totals.dropped += counts.dropped;
        totals.delayed += counts.delayed;
        totals.corrupted += counts.corrupted;
        totals.duplicated += counts.duplicated;
        totals.disconnected += counts.disconnected;
        totals.wedged += counts.wedged;
        expired_total += shard.leases_expired;
        restarts_total += shard.worker_restarts;
    }
    // Non-vacuity: the rates must actually have fired every class
    // across the seed battery, and the chaos must actually have forced
    // the recovery machinery to engage.
    for (kind, n) in [
        ("drop", totals.dropped),
        ("delay", totals.delayed),
        ("corrupt", totals.corrupted),
        ("duplicate", totals.duplicated),
        ("disconnect", totals.disconnected),
        ("wedge", totals.wedged),
    ] {
        assert!(n > 0, "fault kind {kind} never fired across {SEEDS} seeds");
    }
    assert!(
        expired_total > 0,
        "chaos never expired a lease — the suite is not stressing recovery"
    );
    assert!(
        restarts_total > 0,
        "chaos never restarted a worker — the suite is not stressing failover"
    );
}

/// Delays below half the lease timeout are harmless *by construction*:
/// no lease expires, no worker restarts, and the matrix is
/// byte-identical. This is the exact-detection claim for the delay
/// class.
#[test]
fn sub_lease_delays_are_provably_harmless() {
    for seed in 0..2 {
        let plan = NetFaultPlan {
            delay_per_mille: 300,
            delay: Duration::from_millis(5),
            ..NetFaultPlan::none(0xDE1A_7000 ^ seed)
        };
        let (shard, chaos) = chaotic_run(seed, plan, "delay");
        assert!(
            chaos.counts().delayed > 0,
            "seed={seed}: the delay plan never fired"
        );
        assert_eq!(
            (
                shard.leases_expired,
                shard.worker_restarts,
                shard.frames_corrupt
            ),
            (0, 0, 0),
            "seed={seed}: sub-lease delays must be invisible to recovery ({shard:?})"
        );
    }
}

/// Duplicated frames are absorbed by the at-most-once commit gate:
/// byte-identical output with every replayed result refused, never
/// double-committed (`chaotic_run` asserts byte-identity, and the
/// engine spills each tile exactly once). Duplicated *control* frames
/// are not free — a second `begin` is a protocol violation that kills
/// the worker — so restarts are legitimate here; what must never
/// happen is a duplicate changing the answer.
#[test]
fn duplicates_never_double_commit() {
    let mut fired = 0usize;
    for seed in 0..2 {
        let plan = NetFaultPlan {
            duplicate_per_mille: 250,
            ..NetFaultPlan::none(0xD0_0B1E ^ seed)
        };
        let (_, chaos) = chaotic_run(seed, plan, "dup");
        fired += chaos.counts().duplicated;
    }
    assert!(fired > 0, "the duplicate plan never fired");
}

/// Corruption-only chaos: every recv-direction injection is detected
/// as exactly one garbage frame, and the job still completes
/// byte-identically (send-direction corruption garbles the worker's
/// input and is recovered by respawn).
#[test]
fn every_corrupted_frame_is_detected_exactly_once() {
    let mut fired = 0usize;
    for seed in 0..3 {
        let plan = NetFaultPlan {
            corrupt_per_mille: 60,
            ..NetFaultPlan::none(0xC0_44B7 ^ seed)
        };
        let (shard, chaos) = chaotic_run(seed, plan, "corrupt");
        assert_eq!(
            shard.frames_corrupt,
            recv_corrupt(&chaos),
            "seed={seed}: garbage-frame count drifted from the injection ledger ({shard:?})"
        );
        fired += chaos.counts().corrupted;
    }
    assert!(fired > 0, "the corruption plan never fired");
}

/// Lossy chaos only (drops, disconnects, wedges): the classes that
/// silence or sever connections. Leases expire, workers restart, and
/// the matrix still comes back byte-identical.
#[test]
fn lossy_chaos_recovers_through_leases_and_restarts() {
    let mut expired = 0usize;
    for seed in 0..2 {
        let plan = NetFaultPlan {
            drop_per_mille: 15,
            disconnect_per_mille: 10,
            wedge_per_mille: 5,
            ..NetFaultPlan::none(0x1055_1000 ^ seed)
        };
        let (shard, chaos) = chaotic_run(seed, plan, "lossy");
        assert!(
            chaos.counts().lossy() > 0,
            "seed={seed}: the lossy plan never fired"
        );
        expired += shard.leases_expired + shard.worker_restarts;
    }
    assert!(
        expired > 0,
        "lossy chaos never engaged lease expiry or worker restart"
    );
}

/// Workers that garble every result frame (a worker-side fault plan,
/// not the transport) cost a lease and a restart each time, so the
/// fleet spends its restart budget and retires, and every tile falls
/// back to local compute — where the garbage fault does nothing —
/// well inside the deadline, instead of being re-leased forever.
#[test]
fn garbling_workers_spend_the_budget_and_fall_back_locally() {
    const SIDE: usize = 4;
    const PAIRS_PER_TILE: usize = 4;
    let sts = Sts::new(StsConfig::default(), grid());
    let queries = corpus(0x6A4B_0001, SIDE);
    let candidates = corpus(0x6A4B_0002, SIDE);
    let fault = Some(FaultPlan {
        garbage_per_mille: 1000,
        ..FaultPlan::default()
    });
    let in_process = JobConfig {
        fault: fault.clone(),
        ..JobConfig::default()
    };
    let (reference, _) = sts
        .similarity_matrix_supervised(&queries, &candidates, &in_process)
        .unwrap();

    let tiles = TempTiles::new("garbage");
    let tiling = TileConfig {
        tile_pairs: PAIRS_PER_TILE,
        ..TileConfig::new(&tiles.0)
    };
    let restart_budget = 4;
    let cfg = JobConfig {
        fault,
        budget: Budget::with_deadline(Duration::from_secs(3)),
        exec: ExecMode::Sharded(ShardOptions {
            restart_budget,
            ..shard_opts(&Arc::new(NetChaos::new(NetFaultPlan::none(0))))
        }),
        ..JobConfig::default()
    };
    let (sharded, report) = sts
        .similarity_matrix_tiled(&queries, &candidates, &cfg, &tiling)
        .unwrap();
    assert_eq!(report.stats.state, JobState::Complete, "{report}");
    assert_eq!(matrix_bits(&sharded), matrix_bits(&reference));
    let shard = report.stats.shard.expect("sharded job reports ShardStats");
    assert_eq!(shard.worker_restarts, restart_budget, "{shard:?}");
    assert_eq!(
        shard.tiles_local_fallback,
        SIDE * SIDE / PAIRS_PER_TILE,
        "{shard:?}"
    );
}
