//! `sts-worker` — the scoring worker, plus the crash-suite workloads
//! the isolation tests exercise it with.
//!
//! Subcommands:
//!
//! - `serve-tcp <addr>`: connect to the fleet coordinator at `addr`
//!   (loopback TCP), speak the worker wire protocol over the socket and
//!   score chunks until EOF or `shutdown`. This is what both
//!   [`sts_core::ExecMode::Subprocess`] and
//!   [`sts_core::ExecMode::Sharded`] jobs spawn.
//! - `chaos <in-process|subprocess> <seed>`: run the 8×8 crash-suite
//!   workload whose fault plan aborts, wedges and garbles workers.
//!   Subprocess mode finishes with only the poison pairs quarantined;
//!   in-process mode provably cannot finish (the acceptance test
//!   asserts this process dies or wedges).
//! - `tile-drive <dir> <seed> <out> [subprocess]`: run a slow *tiled*
//!   job spilling tiny tiles to `<dir>` and write the final matrix
//!   bits to `<out>`. The tile and isolation crash suites SIGKILL this
//!   mid-spill, rerun it, and assert the resumed output is
//!   byte-identical.
//!
//! `chaos` and `tile-drive` are fleet coordinators: they honour
//! `STS_TRACE`/`STS_METRICS` like every other binary, so
//! `STS_TRACE=t.jsonl sts-worker chaos subprocess 1` writes a fleet
//! trace that `perf --timeline t.jsonl` replays.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use sts_core::{
    ExecMode, IsolateOptions, JobConfig, JobReport, PairOutcome, Sts, StsConfig, TileConfig,
};
use sts_geo::{BoundingBox, Grid, Point};
use sts_rng::{Rng, Xoshiro256pp};
use sts_runtime::{FaultPlan, RetryPolicy};
use sts_traj::Trajectory;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    match argv.as_slice() {
        ["serve-tcp", addr] => run_serve_tcp(addr),
        ["chaos", mode, seed] => run_chaos(mode, seed),
        ["tile-drive", dir, seed, out] => run_tile_drive(dir, seed, out, false),
        ["tile-drive", dir, seed, out, "subprocess"] => run_tile_drive(dir, seed, out, true),
        _ => {
            eprintln!(
                "usage: sts-worker serve-tcp <addr> | chaos <in-process|subprocess> <seed> | \
                 tile-drive <dir> <seed> <out> [subprocess]"
            );
            ExitCode::from(2)
        }
    }
}

/// Connect out to the fleet coordinator and serve the wire protocol
/// over the socket until it hangs up. A protocol error (torn frame,
/// dead socket) is a nonzero exit the coordinator will see and
/// attribute; it must not look like success.
///
/// `STS_TRACE`/`STS_METRICS` work here exactly as in the coordinator,
/// with one twist: a file-path `STS_TRACE` gets `.<pid>` appended, so
/// a worker inheriting its coordinator's environment streams its own
/// trace JSONL to its own file (on top of whatever telemetry it ships
/// over the wire) instead of truncating the coordinator's.
fn run_serve_tcp(addr: &str) -> ExitCode {
    sts_obs::init_from_env_suffixed(Some(&std::process::id().to_string()));
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sts-worker: cannot connect to coordinator {addr}: {e}");
            return ExitCode::from(3);
        }
    };
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("sts-worker: cannot clone socket: {e}");
            return ExitCode::from(3);
        }
    };
    let mut reader = std::io::BufReader::new(stream);
    let mut writer = writer;
    match sts_core::serve(&mut reader, &mut writer) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sts-worker: {e}");
            ExitCode::from(3)
        }
    }
}

/// The shared deterministic arena: 100×100 world, 5-unit cells.
fn grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
        5.0,
    )
    .unwrap()
}

/// `n` seeded random walks of 12 points each, confined to the grid.
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

/// One cell as a stable, bit-exact token.
fn cell_token(cell: &PairOutcome) -> String {
    match cell {
        PairOutcome::Score(s) => format!("s:{:016x}", s.to_bits()),
        PairOutcome::Quarantined => "q".into(),
        PairOutcome::Failed { attempts } => format!("f:{attempts}"),
        PairOutcome::Skipped => "k".into(),
        PairOutcome::Poisoned { exit } => format!("x:{exit}"),
    }
}

/// FNV-1a over the rendered matrix — one digest a test can compare
/// across runs, modes and resumes.
fn matrix_digest(matrix: &[Vec<PairOutcome>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in matrix {
        for cell in row {
            for b in cell_token(cell).bytes().chain([b'|']) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Fast retries so the crash suites stay CI-sized.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        backoff_base: Duration::from_micros(20),
        backoff_cap: Duration::from_micros(200),
        seed: 0xBAC0FF,
    }
}

/// Slow tiled in-process (or subprocess) job spilling 4-pair tiles to
/// `dir`: every pair sleeps ~3 ms, so a tile spill lands every ~12 ms
/// — a long window of mid-spill moments for the SIGKILL test. The
/// matrix bits written to `out` must be identical whether the run was
/// interrupted-and-resumed or not, and across exec modes.
fn run_tile_drive(dir: &str, seed: &str, out: &str, subprocess: bool) -> ExitCode {
    sts_obs::init_from_env();
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("sts-worker: tile-drive seed must be a u64");
        return ExitCode::from(2);
    };
    let trajs = corpus(0x711E_D000 ^ seed, 12);
    let (queries, candidates) = trajs.split_at(6);
    let exec = if subprocess {
        ExecMode::Subprocess(IsolateOptions {
            worker: std::env::current_exe().ok(),
            hard_timeout: Duration::from_secs(5),
            ..IsolateOptions::default()
        })
    } else {
        ExecMode::InProcess
    };
    let cfg = JobConfig {
        retry: fast_retry(),
        threads: 1,
        chunk_pairs: 1,
        fault: Some(FaultPlan {
            seed,
            slow_per_mille: 1000,
            slow_for: Duration::from_millis(3),
            ..FaultPlan::default()
        }),
        exec,
        ..JobConfig::default()
    };
    let tiling = TileConfig {
        tile_pairs: 4,
        ..TileConfig::new(dir)
    };
    let sts = Sts::new(StsConfig::default(), grid());
    let (matrix, report) = match sts.similarity_matrix_tiled(queries, candidates, &cfg, &tiling) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sts-worker: tile-drive failed: {e}");
            return ExitCode::from(4);
        }
    };
    let mut body = format!("state {:?}\n", report.stats.state);
    for (i, row) in matrix.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            body.push_str(&format!("cell {i} {j} {}\n", cell_token(cell)));
        }
    }
    if std::fs::write(out, body).is_err() {
        eprintln!("sts-worker: cannot write {out}");
        return ExitCode::from(4);
    }
    ExitCode::SUCCESS
}

/// The crash-suite fault mix over 64 pairs: transient panics retries
/// heal, persistent panics that degrade cells, and the three process
/// killers — aborts, wedges (caught by the 1 s hard timeout) and
/// garbage output (caught by the frame codec).
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: 0xC4A0_5000 ^ seed,
        transient_per_mille: 30,
        transient_failures: 1,
        persistent_per_mille: 30,
        abort_per_mille: 40,
        wedge_per_mille: 20,
        garbage_per_mille: 30,
        ..FaultPlan::default()
    }
}

/// Run the 8×8 crash-suite matrix in the requested mode and print a
/// parseable report. In-process mode is expected to never reach the
/// report: the first abort pair kills this process, or the first wedge
/// pair hangs it until the caller loses patience.
fn run_chaos(mode: &str, seed: &str) -> ExitCode {
    sts_obs::init_from_env();
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("sts-worker: chaos seed must be a u64");
        return ExitCode::from(2);
    };
    let exec = match mode {
        "in-process" => ExecMode::InProcess,
        "subprocess" => ExecMode::Subprocess(IsolateOptions {
            worker: std::env::current_exe().ok(),
            hard_timeout: Duration::from_secs(1),
            ..IsolateOptions::default()
        }),
        _ => {
            eprintln!("sts-worker: chaos mode must be in-process or subprocess");
            return ExitCode::from(2);
        }
    };
    let trajs = corpus(0xC4A0_5EED ^ seed, 16);
    let (queries, candidates) = trajs.split_at(8);
    let cfg = JobConfig {
        retry: fast_retry(),
        chunk_pairs: 8,
        fault: Some(chaos_plan(seed)),
        exec,
        ..JobConfig::default()
    };
    let sts = Sts::new(StsConfig::default(), grid());
    let (matrix, report): (Vec<Vec<PairOutcome>>, JobReport) =
        match sts.similarity_matrix_supervised(queries, candidates, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sts-worker: chaos failed: {e}");
                return ExitCode::from(4);
            }
        };
    let mut out = String::new();
    out.push_str(&format!("state {:?}\n", report.stats.state));
    out.push_str(&format!(
        "pairs {} completed {} failed {} skipped {}\n",
        report.stats.pairs_total,
        report.stats.pairs_completed,
        report.stats.pairs_failed,
        report.stats.pairs_skipped,
    ));
    let cols = candidates.len();
    for &(i, j, exit) in &report.batch.poisoned_pairs {
        out.push_str(&format!("poisoned {} {exit}\n", i * cols + j));
    }
    if let Some(shard) = &report.stats.shard {
        out.push_str(&format!("shard {shard}\n"));
    }
    out.push_str(&format!("digest {:016x}\n", matrix_digest(&matrix)));
    let stdout = std::io::stdout();
    let _ = stdout.lock().write_all(out.as_bytes());
    ExitCode::SUCCESS
}
