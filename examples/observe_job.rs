//! Observe a supervised similarity job end to end: structured tracing,
//! live progress from the metrics registry, and the job's telemetry
//! section.
//!
//! ```sh
//! # Plain run: progress lines + telemetry summary on stdout.
//! cargo run --release --example observe_job
//!
//! # Structured spans/events as JSONL on stderr:
//! STS_TRACE=jsonl cargo run --release --example observe_job 2>trace.jsonl
//!
//! # Or straight to a file:
//! STS_TRACE=/tmp/sts-trace.jsonl cargo run --release --example observe_job
//! ```
//!
//! Every span line carries `name`, `id`, `parent`, `thread`, `start_ns`
//! and `dur_ns`; stitch them by `parent` to recover the job tree
//! (`job.run` → `job.prepare` → `job.tiled.tile` → `pool.run` →
//! `pool.chunk`, then `tile.save`/`tile.load` as each tile spills).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use sts_repro::core::{JobConfig, Sts, StsConfig, TileConfig};
use sts_repro::geo::{BoundingBox, Grid, Point};
use sts_repro::obs;
use sts_repro::rng::{Rng, Xoshiro256pp};
use sts_repro::traj::{TrajPoint, Trajectory};

/// A seeded corpus of straight walkers with varied lanes and phases.
fn corpus(seed: u64, n: usize) -> Vec<Trajectory> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let y = rng.random_range(5.0..190.0);
            let phase = rng.random_range(0.0..20.0);
            let speed = rng.random_range(1.0..3.0);
            Trajectory::new(
                (0..6)
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

fn main() {
    // Honour STS_TRACE / STS_METRICS. With STS_TRACE=jsonl (or a file
    // path) every span and event goes out as one JSON line.
    let tracing = obs::init_from_env();
    if tracing {
        eprintln!("# tracing enabled via STS_TRACE");
    }

    let grid = Grid::new(
        BoundingBox::new(Point::ORIGIN, Point::new(400.0, 200.0)),
        6.0,
    )
    .unwrap();
    let sts = Sts::new(StsConfig::default(), grid);
    let queries = corpus(0x0B5E, 24);

    let tiles = std::env::temp_dir().join(format!("sts-observe-job-{}", std::process::id()));
    let tiling = TileConfig {
        tile_pairs: 64,
        ..TileConfig::new(&tiles)
    };
    let cfg = JobConfig {
        chunk_pairs: 16,
        threads: 4,
        telemetry: true,
        ..JobConfig::default()
    };

    // Live progress straight from the lock-free registry: any thread
    // may read the same instruments the job is writing.
    let total = (queries.len() * queries.len()) as u64;
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let pairs = obs::metrics::counter("core.pairs.scored");
            let depth = obs::metrics::gauge("runtime.pool.queue_depth");
            let base = pairs.get();
            while !done.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(25));
                println!(
                    "progress: {}/{} pairs scored, queue depth {}",
                    pairs.get() - base,
                    total,
                    depth.get()
                );
            }
        })
    };

    let (matrix, report) = sts
        .similarity_matrix_tiled(&queries, &queries, &cfg, &tiling)
        .expect("tiled job");
    done.store(true, Ordering::Release);
    watcher.join().unwrap();
    let _ = std::fs::remove_dir_all(&tiles);

    println!("\nreport: {report}");
    println!(
        "matrix: {}x{}, chunk wait/run means {:?}/{:?}",
        matrix.len(),
        matrix[0].len(),
        report.stats.mean_chunk_wait(),
        report.stats.mean_chunk_run(),
    );

    // The telemetry section is the registry delta over this job alone.
    if let Some(t) = &report.telemetry {
        println!("\n{t}; as JSONL:");
        print!("{}", t.metrics.to_jsonl_string());
    }
}
