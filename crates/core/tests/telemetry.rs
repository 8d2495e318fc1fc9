//! End-to-end telemetry over a real supervised job: JSONL traces cover
//! every pipeline stage, metric totals are thread-count invariant, and
//! `JobConfig::telemetry` attaches the registry delta to the report.
//!
//! The metrics registry and trace subscriber are process-global, so
//! every test here serializes on one poison-tolerant lock. The overhead
//! guard lives in a separate test binary (`telemetry_overhead.rs`) —
//! separate process, no shared registry.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use sts_core::{JobConfig, Sts, StsConfig, TileConfig};
use sts_geo::{BoundingBox, Grid, Point};
use sts_obs::json::is_valid_json;
use sts_obs::{clear_subscriber, set_subscriber, JsonlSubscriber};
use sts_rng::{Rng, Xoshiro256pp};
use sts_runtime::JobState;
use sts_traj::{TrajPoint, Trajectory};

/// Serializes tests that touch the process-global registry/subscriber.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// A unique temp path (file or tile directory) removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sts-telemetry-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempFile(dir.join(tag.to_string()))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `STS_TRACE=jsonl`-equivalent: a JSONL subscriber on a file captures
/// parseable span/event lines covering prepare → chunk work → tile
/// spill, stitched into one tree under `job.run`.
#[test]
fn jsonl_trace_covers_the_job_stages() {
    let _guard = serial();
    let trace = TempFile::new("stages.jsonl");
    let tiles = TempFile::new("stages-tiles");

    let sub = Arc::new(JsonlSubscriber::to_file(&trace.0).unwrap());
    set_subscriber(sub.clone());
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(11, 10);
    let cfg = JobConfig {
        chunk_pairs: 8,
        threads: 2,
        ..JobConfig::default()
    };
    let tiling = TileConfig {
        tile_pairs: 16,
        ..TileConfig::new(&tiles.0)
    };
    let (_, report) = sts
        .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
        .unwrap();
    clear_subscriber();
    assert_eq!(report.state(), JobState::Complete);
    assert_eq!(sub.write_errors(), 0);

    let text = std::fs::read_to_string(&trace.0).unwrap();
    let mut span_names = BTreeSet::new();
    let mut event_names = BTreeSet::new();
    let mut lines = 0;
    for line in text.lines() {
        lines += 1;
        assert!(is_valid_json(line), "unparseable trace line: {line}");
        let name = line
            .split("\"name\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("trace line without a name: {line}"))
            .to_string();
        if line.starts_with("{\"type\":\"span\"") {
            span_names.insert(name);
        } else {
            assert!(line.starts_with("{\"type\":\"event\""), "{line}");
            event_names.insert(name);
        }
    }
    assert!(lines > 10, "expected a real trace, got {lines} lines");
    for required in [
        "job.run",
        "job.prepare",
        "sts.prepare",
        "pool.run",
        "pool.chunk",
        "tile.save",
    ] {
        assert!(
            span_names.contains(required),
            "missing span {required}; got {span_names:?}"
        );
    }
    assert!(
        event_names.contains("job.tile.spilled"),
        "missing spill event; got {event_names:?}"
    );
}

/// Resuming from tiles traces `tile.load` + `job.resume`.
#[test]
fn resume_traces_tile_load() {
    let _guard = serial();
    let trace = TempFile::new("resume.jsonl");
    let tiles = TempFile::new("resume-tiles");

    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(12, 8);
    let base_cfg = JobConfig {
        chunk_pairs: 8,
        threads: 1,
        ..JobConfig::default()
    };
    let tiling = TileConfig {
        tile_pairs: 8,
        ..TileConfig::new(&tiles.0)
    };
    // First pass spills tiles but is budget-cut partway.
    let cfg = JobConfig {
        budget: sts_runtime::Budget::with_max_pairs(24),
        ..base_cfg.clone()
    };
    let (_, report) = sts
        .similarity_matrix_tiled(&qs, &qs, &cfg, &tiling)
        .unwrap();
    assert_eq!(report.state(), JobState::BudgetExhausted);

    // Second pass resumes under tracing.
    let sub = Arc::new(JsonlSubscriber::to_file(&trace.0).unwrap());
    set_subscriber(sub);
    let (_, report) = sts
        .similarity_matrix_tiled(&qs, &qs, &base_cfg, &tiling)
        .unwrap();
    clear_subscriber();
    assert_eq!(report.state(), JobState::Complete);
    assert!(report.stats.pairs_resumed > 0, "{report}");

    let text = std::fs::read_to_string(&trace.0).unwrap();
    for required in ["\"tile.load\"", "\"job.resume\""] {
        assert!(text.contains(required), "missing {required} in trace");
    }
}

/// The same job produces the same work counters whether it runs on one
/// thread or eight — instrumentation must not perturb determinism.
#[test]
fn metric_totals_are_thread_count_invariant() {
    let _guard = serial();
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(13, 9);
    let watched = [
        "core.pairs.scored",
        "core.stp.evals",
        "core.stp.cells",
        "core.stp.bridges",
        "core.stp.lens_cells",
        "core.stp.kernel_terms",
        "core.trajectories.prepared",
        "core.speed_models.built",
    ];

    let mut totals: Vec<Vec<u64>> = Vec::new();
    for threads in [1usize, 8] {
        let base = sts_obs::metrics::global().snapshot();
        let cfg = JobConfig {
            threads,
            chunk_pairs: 8,
            ..JobConfig::default()
        };
        let (_, report) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();
        assert_eq!(report.state(), JobState::Complete);
        let delta = sts_obs::metrics::global().snapshot().since(&base);
        totals.push(
            watched
                .iter()
                .map(|name| delta.counter(name).unwrap_or(0))
                .collect(),
        );
    }
    assert_eq!(
        totals[0], totals[1],
        "counter deltas diverged between 1 and 8 threads ({watched:?})"
    );
    assert_eq!(totals[0][0], 81, "9×9 pairs all scored");
}

/// `JobConfig::telemetry` attaches the job's registry delta to the
/// report, and the section serializes to parseable JSONL.
#[test]
fn telemetry_section_reports_job_work() {
    let _guard = serial();
    let sts = Sts::new(StsConfig::default(), grid());
    let qs = corpus(14, 6);

    // Off by default.
    let (_, report) = sts
        .similarity_matrix_supervised(&qs, &qs, &JobConfig::default())
        .unwrap();
    assert!(report.telemetry.is_none());

    let cfg = JobConfig {
        telemetry: true,
        ..JobConfig::default()
    };
    let (_, report) = sts.similarity_matrix_supervised(&qs, &qs, &cfg).unwrap();
    let t = report.telemetry.as_ref().expect("telemetry requested");
    assert_eq!(
        t.metrics.counter("core.pairs.scored"),
        Some(report.stats.pairs_completed as u64),
        "{report}"
    );
    for line in t.metrics.to_jsonl_string().lines() {
        assert!(is_valid_json(line), "unparseable telemetry line: {line}");
    }
    // The zero-valued instruments of other subsystems are dropped.
    assert_eq!(t.metrics.counter("robust.injections"), None);
    // The report's Display mentions the section.
    assert!(report.to_string().contains("telemetry:"), "{report}");
}
