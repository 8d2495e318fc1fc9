//! Cross-process trace propagation for the sharded fleet: a real
//! `sts-worker serve-tcp` subprocess fleet runs under a coordinator
//! whose tracing is on, and the coordinator's merged view must be a
//! *single coherent trace*:
//!
//! * every worker span shipped over the wire re-parents under the
//!   coordinator's `job.shard` span — no orphan spans anywhere;
//! * every line the JSONL subscriber exported is valid JSON;
//! * the `shard.tile.*` lifecycle events reconstruct a complete
//!   lease → deal → commit timeline for every tile;
//! * the fleet-merged telemetry attached to the job report reconciles
//!   exactly: fleet-summed `core.pairs.scored` equals the matrix pair
//!   count, and so does the coordinator's commit tally.
//!
//!
//! A second case runs a tiled `Subprocess` job — one fleet per tile,
//! each numbering its connections from 0 — and asserts the merged
//! trace still names every span once.
//!
//! The trace subscriber is process-global, so the tests in this file
//! take turns under [`TRACE_TURN`].

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use sts_core::{
    default_worker_path, ExecMode, IsolateOptions, JobConfig, ShardOptions, Sts, StsConfig,
    TileConfig,
};
use sts_geo::{BoundingBox, Grid, Point};
use sts_obs::{
    build_timeline, parse_jsonl, write_chrome_trace, FanoutSubscriber, JsonlSubscriber,
    RingRecorder, Subscriber,
};
use sts_rng::{Rng, Xoshiro256pp};
use sts_traj::{TrajPoint, Trajectory};

const N: usize = 8; // N×N pair matrix
const TILE_PAIRS: usize = 16;
const N_TILES: usize = N * N / TILE_PAIRS;

fn grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::ORIGIN, Point::new(400.0, 200.0)),
        8.0,
    )
    .unwrap()
}

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

/// RAII temp dir + trace file under the system tmp dir.
struct Temp(PathBuf);

impl Temp {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("sts-fleet-trace-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Temp(dir)
    }
}

impl Drop for Temp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Serialises the tests that install a trace subscriber.
static TRACE_TURN: Mutex<()> = Mutex::new(());

fn trace_turn() -> MutexGuard<'static, ()> {
    TRACE_TURN.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn subprocess_fleet_produces_one_coherent_trace_and_exact_telemetry() {
    let worker = default_worker_path();
    if !worker.is_file() {
        eprintln!(
            "skipping fleet trace test: worker binary not built at {}",
            worker.display()
        );
        return;
    }
    let _turn = trace_turn();
    let tmp = Temp::new("run");
    let trace_path = tmp.0.join("trace.jsonl");
    let ring = Arc::new(RingRecorder::new(4096));
    let jsonl = Arc::new(JsonlSubscriber::to_file(&trace_path).unwrap());
    sts_obs::set_subscriber(Arc::new(FanoutSubscriber::new(vec![
        ring.clone() as Arc<dyn Subscriber>,
        jsonl.clone() as Arc<dyn Subscriber>,
    ])));

    let sts = Sts::new(StsConfig::default(), grid());
    let queries = corpus(0xF1EE_7001, N);
    let candidates = corpus(0xF1EE_7002, N);
    let tiling = TileConfig {
        tile_pairs: TILE_PAIRS,
        ..TileConfig::new(tmp.0.join("tiles"))
    };
    let cfg = JobConfig {
        telemetry: true,
        exec: ExecMode::Sharded(ShardOptions {
            worker: Some(worker),
            workers: 2,
            ..ShardOptions::default()
        }),
        ..JobConfig::default()
    };
    let (matrix, report) = sts
        .similarity_matrix_tiled(&queries, &candidates, &cfg, &tiling)
        .unwrap();
    sts_obs::clear_subscriber();
    assert!(report.is_complete(), "{report}");
    assert_eq!(matrix.len() * matrix[0].len(), N * N);

    let shard = report.stats.shard.expect("sharded job reports ShardStats");
    assert_eq!(shard.tiles_local_fallback, 0, "clean run: no fallback");
    assert_eq!(
        shard.telemetry_flushes, shard.workers_spawned,
        "every worker alive at shutdown flushes exactly once ({shard:?})"
    );

    // --- Every exported line is valid JSON; no span is orphaned. ---
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert_eq!(jsonl.write_errors(), 0);
    let log = parse_jsonl(&text);
    assert_eq!(log.skipped, 0, "every exported line must be valid JSON");
    assert!(!log.spans.is_empty() && !log.events.is_empty());
    assert_eq!(
        log.orphan_spans(),
        Vec::<u64>::new(),
        "no span may reference an unknown parent"
    );

    // --- Every worker span resolves to a coordinator ancestor. ---
    let by_id: BTreeMap<u64, &sts_obs::timeline::OwnedSpan> =
        log.spans.iter().map(|s| (s.id, s)).collect();
    let shard_span = log
        .spans
        .iter()
        .find(|s| s.name == "job.shard")
        .expect("the coordinator exported its job.shard span");
    let worker_spans: Vec<_> = log
        .spans
        .iter()
        .filter(|s| s.name.starts_with("worker."))
        .collect();
    assert!(
        worker_spans.iter().any(|s| s.name == "worker.serve")
            && worker_spans.iter().any(|s| s.name == "worker.chunk"),
        "the fleet shipped both serve and chunk spans: {worker_spans:?}"
    );
    for span in &worker_spans {
        // Shipped ids were rebased into a per-connection window above
        // any coordinator-local id.
        assert!(span.id >= 1 << 32, "worker span id not rebased: {span:?}");
        let mut cur = *span;
        let mut hops = 0;
        while cur.id != shard_span.id {
            let parent = by_id.get(&cur.parent).unwrap_or_else(|| {
                panic!("worker span {span:?} does not resolve to a coordinator ancestor")
            });
            cur = parent;
            hops += 1;
            assert!(hops < 16, "parent chain cycle from {span:?}");
        }
    }
    // Worker clocks were mapped into coordinator trace time: every
    // chunk span lands inside (a generously padded) job.shard window.
    let lo = shard_span.start_ns.saturating_sub(1_000_000_000);
    let hi = shard_span.start_ns + shard_span.dur_ns + 1_000_000_000;
    for span in &worker_spans {
        assert!(
            (lo..=hi).contains(&span.start_ns),
            "worker span outside the mapped clock window: {span:?} vs job.shard {shard_span:?}"
        );
    }

    // --- The lifecycle timeline reconstructs every tile. ---
    let tiles = build_timeline(&log);
    assert_eq!(tiles.len(), N_TILES, "one lifecycle per tile");
    for t in &tiles {
        assert!(!t.lease_ns.is_empty(), "tile {} never leased", t.tile);
        assert!(!t.deal_ns.is_empty(), "tile {} never dealt", t.tile);
        assert!(t.commit_ns.is_some(), "tile {} never committed", t.tile);
        assert!(t.fallback_ns.is_none(), "tile {} fell back locally", t.tile);
        assert!(t.complete());
    }
    let mut chrome = Vec::new();
    write_chrome_trace(&log, &mut chrome).unwrap();
    assert!(sts_obs::json::is_valid_json(
        std::str::from_utf8(&chrome).unwrap()
    ));

    // --- Fleet telemetry reconciles exactly. ---
    // Subprocess workers own their registries, so the fleet-summed
    // counters in the report are exactly the work performed: on a
    // clean run every pair is scored once and committed once.
    let t = report.telemetry.as_ref().expect("telemetry was requested");
    assert_eq!(
        t.metrics.counter("core.pairs.scored"),
        Some((N * N) as u64),
        "fleet-summed scored pairs == matrix pair count"
    );
    assert_eq!(
        t.metrics.counter("shard.pairs.committed"),
        Some((N * N) as u64),
        "coordinator committed every pair exactly once"
    );
    let attributed: u64 = t
        .metrics
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("core.pairs.scored{worker="))
        .map(|&(_, v)| v)
        .sum();
    assert_eq!(
        attributed,
        (N * N) as u64,
        "per-worker attribution sums to the fleet total: {:?}",
        t.metrics.counters
    );
}

#[test]
fn tiled_subprocess_job_names_each_span_once() {
    let worker = default_worker_path();
    if !worker.is_file() {
        eprintln!(
            "skipping tiled trace test: worker binary not built at {}",
            worker.display()
        );
        return;
    }
    let _turn = trace_turn();
    let tmp = Temp::new("tiled");
    let trace_path = tmp.0.join("trace.jsonl");
    let jsonl = Arc::new(JsonlSubscriber::to_file(&trace_path).unwrap());
    sts_obs::set_subscriber(jsonl.clone());

    let sts = Sts::new(StsConfig::default(), grid());
    let queries = corpus(0xF1EE_7003, 4);
    let candidates = corpus(0xF1EE_7004, 4);
    let tiling = TileConfig {
        tile_pairs: 4,
        ..TileConfig::new(tmp.0.join("tiles"))
    };
    let cfg = JobConfig {
        threads: 2,
        exec: ExecMode::Subprocess(IsolateOptions {
            worker: Some(worker),
            ..IsolateOptions::default()
        }),
        ..JobConfig::default()
    };
    let (_, report) = sts
        .similarity_matrix_tiled(&queries, &candidates, &cfg, &tiling)
        .unwrap();
    sts_obs::clear_subscriber();
    assert!(report.is_complete(), "{report}");
    assert_eq!(jsonl.write_errors(), 0);

    let log = parse_jsonl(&std::fs::read_to_string(&trace_path).unwrap());
    assert_eq!(log.skipped, 0, "every exported line must be valid JSON");
    let fleets = log.spans.iter().filter(|s| s.name == "job.shard").count();
    assert!(
        fleets >= 2,
        "one fleet per tile, got {fleets} job.shard span(s)"
    );

    let mut uses: BTreeMap<u64, usize> = BTreeMap::new();
    for span in &log.spans {
        *uses.entry(span.id).or_default() += 1;
    }
    let reused: Vec<_> = uses.iter().filter(|&(_, &n)| n > 1).collect();
    assert!(
        reused.is_empty(),
        "span ids named more than once: {reused:?}"
    );

    let by_id: BTreeMap<u64, &sts_obs::timeline::OwnedSpan> =
        log.spans.iter().map(|s| (s.id, s)).collect();
    let worker_spans: Vec<_> = log
        .spans
        .iter()
        .filter(|s| s.name.starts_with("worker."))
        .collect();
    assert!(!worker_spans.is_empty(), "the fleets shipped no spans");
    for span in worker_spans {
        let mut cur = span;
        let mut hops = 0;
        while cur.name != "job.shard" {
            cur = by_id.get(&cur.parent).unwrap_or_else(|| {
                panic!("worker span {span:?} does not resolve to a job.shard ancestor")
            });
            hops += 1;
            assert!(hops < 16, "parent chain cycle from {span:?}");
        }
    }
}
