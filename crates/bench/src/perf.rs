//! The performance suites formerly expressed as Criterion benches, now
//! plain functions over the in-repo [`timing`](crate::timing) harness.
//!
//! Each suite builds its fixture, times a handful of named closures and
//! returns a [`PerfReport`]. Run them all via the `perf` binary
//! (`cargo run -p sts-bench --release --bin perf`) or, as a smoke
//! check, `cargo test -p sts-bench -- --ignored perf_smoke`.

use crate::timing::{time, Measurement, TimingConfig};
use crate::{bench_mall, bench_taxi};
use sts_core::noise::GaussianNoise;
use sts_core::transition::SpeedKdeTransition;
use sts_core::{
    default_worker_path, ExecMode, IsolateOptions, JobConfig, ShardOptions, StpCacheMode,
    StpEstimator, Sts, StsConfig, TileConfig, TILE_CELL_BYTES,
};
use sts_eval::matching::matching_ranks;
use sts_eval::measures::{make_measure, measure_set, MeasureKind};
use sts_geo::{BoundingBox, Grid, Point};
use sts_rng::Xoshiro256pp;
use sts_robust::{standard_injectors, ByteMangler};
use sts_stats::{KalmanConfig, KalmanFilter2D, Kde, Kernel};
use sts_traj::repair::{repair, RepairConfig};
use sts_traj::{io, Trajectory};

/// Named timings from one suite.
pub struct PerfReport {
    /// The suite name (matches the old Criterion bench target).
    pub suite: &'static str,
    /// `(benchmark id, measurement)` pairs in execution order.
    pub entries: Vec<(String, Measurement)>,
    /// Derived scalars beyond raw timings — throughput and latency
    /// quantiles pulled from the telemetry registry (e.g. `pairs_per_sec`,
    /// `chunk_run_p99_ns`). Empty for suites that only report timings.
    pub extras: Vec<(String, f64)>,
}

/// All suites, in the order the old `cargo bench` ran them.
pub fn all_suites() -> Vec<(&'static str, fn(&TimingConfig) -> PerfReport)> {
    vec![
        ("similarity", similarity),
        ("grid_size", grid_size),
        ("matching", matching),
        ("stp", stp),
        ("stp_cache", stp_cache),
        ("substrates", substrates),
        ("chaos", chaos),
        ("runtime", runtime),
        ("tiles", tiles),
        ("shard", shard),
        ("serve", serve),
    ]
}

/// Per-pair similarity kernels: STS versus every baseline on one
/// mall-scale trajectory pair. The relative costs contextualize the
/// complexity analysis of paper §V-C.
pub fn similarity(config: &TimingConfig) -> PerfReport {
    let scenario = bench_mall(6);
    let a = scenario.pairs.d1[0].clone();
    let b = scenario.pairs.d2[0].clone();
    let corpus: Vec<_> = scenario.dataset.trajectories().to_vec();
    let mut entries = Vec::new();
    for kind in [
        MeasureKind::Sts,
        MeasureKind::Cats,
        MeasureKind::Sst,
        MeasureKind::Wgm,
        MeasureKind::Apm,
        MeasureKind::Edwp,
        MeasureKind::Kf,
        MeasureKind::Dtw,
        MeasureKind::Lcss,
        MeasureKind::Edr,
        MeasureKind::Erp,
        MeasureKind::Frechet,
    ] {
        let measure = make_measure(kind, &scenario, &corpus, scenario.scale.grid_size);
        let m = time(config, || measure.pair(&a, &b));
        entries.push((kind.name().to_string(), m));
    }
    PerfReport {
        suite: "similarity",
        entries,
        extras: Vec::new(),
    }
}

/// Fig. 12: STS similarity cost versus grid cell size ("a small grid
/// size means a larger number of grids, leading to a better probability
/// approximation but higher time cost", §VI-E).
pub fn grid_size(config: &TimingConfig) -> PerfReport {
    let mut entries = Vec::new();
    for (scenario, label) in [(bench_mall(4), "mall"), (bench_taxi(4), "taxi")] {
        let a = scenario.pairs.d1[0].clone();
        let b = scenario.pairs.d2[0].clone();
        for cell in scenario.scale.grid_sizes.clone() {
            let sts = Sts::new(
                StsConfig {
                    noise_sigma: scenario.scale.noise_sigma,
                    ..StsConfig::default()
                },
                scenario.grid(cell),
            );
            let m = time(config, || sts.similarity(&a, &b).unwrap());
            entries.push((format!("{label}/{cell}m"), m));
        }
    }
    PerfReport {
        suite: "grid_size",
        entries,
        extras: Vec::new(),
    }
}

/// The full trajectory-matching task (the workload behind Figs. 4–10):
/// an n × n similarity matrix plus ranking, for STS and the two
/// strongest baselines.
pub fn matching(config: &TimingConfig) -> PerfReport {
    let scenario = bench_mall(5);
    let measures = measure_set(
        &[MeasureKind::Sts, MeasureKind::Cats, MeasureKind::Sst],
        &scenario,
        &scenario.pairs,
    );
    let mut entries = Vec::new();
    for (name, measure) in &measures {
        let m = time(config, || matching_ranks(measure.as_ref(), &scenario.pairs));
        entries.push((name.to_string(), m));
    }
    PerfReport {
        suite: "matching",
        entries,
        extras: Vec::new(),
    }
}

/// Dense versus truncated S-T probability estimation — the ablation of
/// the sparse-computation design choice (`DESIGN.md` §5). The dense
/// path is the paper's faithful `O(|R|²)` computation (§V-C); the
/// truncated path is the default.
pub fn stp(config: &TimingConfig) -> PerfReport {
    let scenario = bench_mall(4);
    let grid = scenario.default_grid();
    let traj = scenario.pairs.d1[0].clone();
    let noise = GaussianNoise::new(scenario.scale.noise_sigma);
    let transition = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
        .unwrap()
        .with_position_uncertainty(grid.cell_size() / 2.0);
    let est = StpEstimator::new(&grid, &noise, &transition, &traj);
    // A mid-bridge timestamp (strictly between two observations).
    let t = (traj.get(0).t + traj.get(1).t) / 2.0;

    let entries = vec![
        ("sparse".to_string(), time(config, || est.stp(t))),
        ("dense".to_string(), time(config, || est.stp_dense(t))),
    ];
    PerfReport {
        suite: "stp",
        entries,
        extras: Vec::new(),
    }
}

/// The per-trajectory STP cache (DESIGN.md §3g): the uncached oracle
/// versus exact caching and lattice evaluation on matrix workloads.
/// Beyond raw timings, registry deltas expose how many STP evaluations
/// each scored pair costs under every mode — the `*_stp_evals_per_pair`
/// extras are the direct evidence that caching moved evaluation from
/// per-pair to per-trajectory, and the `*_speedup_*` extras put the
/// headline per-pair cost reduction in the report.
pub fn stp_cache(config: &TimingConfig) -> PerfReport {
    let make_sts = |scenario: &sts_eval::Scenario, mode: StpCacheMode| {
        Sts::new(
            StsConfig {
                noise_sigma: scenario.scale.noise_sigma,
                ..StsConfig::default()
            },
            scenario.default_grid(),
        )
        .with_cache_mode(mode)
    };
    let small = bench_mall(8);
    let small_trajs: Vec<Trajectory> = small.pairs.d1.clone();
    let medium = bench_mall(16);
    let medium_trajs: Vec<Trajectory> = medium.pairs.d1.clone();
    let large = bench_mall(32);
    let large_trajs: Vec<Trajectory> = large.pairs.d1.clone();

    let off_small = make_sts(&small, StpCacheMode::Off);
    let exact_small = make_sts(&small, StpCacheMode::Exact);
    let exact_medium = make_sts(&medium, StpCacheMode::Exact);
    let lattice_large = make_sts(&large, StpCacheMode::Lattice { dt: 20.0 });

    let entries = vec![
        (
            "uncached_matrix_8".to_string(),
            time(config, || {
                off_small
                    .similarity_matrix(&small_trajs, &small_trajs)
                    .unwrap()
            }),
        ),
        (
            "exact_matrix_8".to_string(),
            time(config, || {
                exact_small
                    .similarity_matrix(&small_trajs, &small_trajs)
                    .unwrap()
            }),
        ),
        (
            "exact_matrix_16".to_string(),
            time(config, || {
                exact_medium
                    .similarity_matrix(&medium_trajs, &medium_trajs)
                    .unwrap()
            }),
        ),
        (
            "lattice20_matrix_32".to_string(),
            time(config, || {
                lattice_large
                    .similarity_matrix(&large_trajs, &large_trajs)
                    .unwrap()
            }),
        ),
    ];

    // One dedicated run per mode bracketed by registry snapshots: the
    // counter deltas attribute STP evaluations to scored pairs without
    // contamination from the warm-up iterations above, and the wall
    // clock of the same run yields a per-pair cost for the speedup
    // ratios.
    let mut extras = Vec::new();
    let mut per_pair_secs = |label: &str, sts: &Sts, trajs: &[Trajectory]| -> f64 {
        let base = sts_obs::metrics::global().snapshot();
        let started = std::time::Instant::now();
        sts.similarity_matrix(trajs, trajs).unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        let delta = sts_obs::metrics::global().snapshot().since(&base);
        let pairs = delta.counter("core.pairs.scored").unwrap_or(0).max(1);
        let evals = delta.counter("core.stp.evals").unwrap_or(0);
        extras.push((
            format!("{label}_stp_evals_per_pair"),
            evals as f64 / pairs as f64,
        ));
        if elapsed > 0.0 {
            extras.push((format!("{label}_pairs_per_sec"), pairs as f64 / elapsed));
        }
        elapsed / pairs as f64
    };
    let t_off = per_pair_secs("uncached_8", &off_small, &small_trajs);
    let t_exact = per_pair_secs("exact_8", &exact_small, &small_trajs);
    per_pair_secs("exact_16", &exact_medium, &medium_trajs);
    let t_lattice = per_pair_secs("lattice20_32", &lattice_large, &large_trajs);
    if t_exact > 0.0 {
        extras.push(("exact_8_speedup_per_pair".to_string(), t_off / t_exact));
    }
    if t_lattice > 0.0 {
        extras.push((
            "lattice20_32_speedup_per_pair_vs_uncached_8".to_string(),
            t_off / t_lattice,
        ));
    }

    PerfReport {
        suite: "stp_cache",
        entries,
        extras,
    }
}

/// The dirty-data path: repairing injector-corrupted streams and
/// lenient parsing of a byte-mangled file. (Every matrix entry point is
/// a view of one engine, so containment costs the same everywhere; the
/// `runtime` suite times it.)
pub fn chaos(config: &TimingConfig) -> PerfReport {
    let scenario = bench_mall(5);
    let clean: Vec<Trajectory> = scenario.pairs.d1.clone();
    let battery = standard_injectors();
    let mut rng = Xoshiro256pp::seed_from_u64(0xBE7C);
    let corrupted: Vec<Vec<sts_traj::TrajPoint>> = clean
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut pts = t.points().to_vec();
            battery[i % battery.len()].inject(&mut pts, &mut rng);
            pts
        })
        .collect();
    let mut mangled = Vec::new();
    io::write_trajectories(&mut mangled, &clean).unwrap();
    ByteMangler::default().mangle(&mut mangled, &mut rng);

    let repair_cfg = RepairConfig::default();
    let entries = vec![
        (
            "repair_corrupted_batch".to_string(),
            time(config, || {
                corrupted
                    .iter()
                    .map(|pts| repair(pts, &repair_cfg).unwrap().report.dropped_points())
                    .sum::<usize>()
            }),
        ),
        (
            "lenient_read_mangled".to_string(),
            time(config, || {
                io::read_trajectories_lenient(&mut mangled.as_slice())
                    .unwrap()
                    .records
            }),
        ),
    ];
    PerfReport {
        suite: "chaos",
        entries,
        extras: Vec::new(),
    }
}

/// A supervised job on a clean batch (pair-chunk queue, budget/cancel
/// checks, per-cell retry containment) — what every matrix entry point
/// pays, since each is a view of the same engine — next to the same
/// matrix in worker subprocesses. The `tiles` suite times the durable
/// (spilling, resumable) path.
pub fn runtime(config: &TimingConfig) -> PerfReport {
    let scenario = bench_mall(5);
    let clean: Vec<Trajectory> = scenario.pairs.d1.clone();
    let sts = Sts::new(
        StsConfig {
            noise_sigma: scenario.scale.noise_sigma,
            ..StsConfig::default()
        },
        scenario.default_grid(),
    );

    let mut entries = vec![(
        "supervised_matrix".to_string(),
        time(config, || {
            sts.similarity_matrix_supervised(&clean, &clean, &JobConfig::default())
                .unwrap()
        }),
    )];

    // Subprocess execution of the same matrix, to keep the isolation
    // tax (spawn + preamble + frame codec) visible next to the
    // in-process timing. Skipped when the worker binary isn't built
    // alongside this bench (e.g. a bare `cargo run -p sts-bench`).
    let worker = default_worker_path();
    if worker.is_file() {
        entries.push((
            "subprocess_matrix".to_string(),
            time(config, || {
                let cfg = JobConfig {
                    exec: ExecMode::Subprocess(IsolateOptions::default()),
                    ..JobConfig::default()
                };
                sts.similarity_matrix_supervised(&clean, &clean, &cfg)
                    .unwrap()
            }),
        ));
    } else {
        eprintln!(
            "perf: skipping runtime/subprocess_matrix ({} not built)",
            worker.display()
        );
    }

    // One dedicated supervised run bracketed by registry snapshots: the
    // delta yields throughput and chunk-latency quantiles untainted by
    // the warm-up iterations above.
    let base = sts_obs::metrics::global().snapshot();
    let started = std::time::Instant::now();
    sts.similarity_matrix_supervised(&clean, &clean, &JobConfig::default())
        .unwrap();
    let elapsed = started.elapsed().as_secs_f64();
    let delta = sts_obs::metrics::global().snapshot().since(&base);

    let mut extras = Vec::new();
    let pairs = delta.counter("core.pairs.scored").unwrap_or(0);
    if elapsed > 0.0 {
        extras.push(("pairs_per_sec".to_string(), pairs as f64 / elapsed));
    }
    for (metric, label) in [
        ("runtime.pool.chunk_run_ns", "chunk_run"),
        ("runtime.pool.chunk_wait_ns", "chunk_wait"),
    ] {
        if let Some(h) = delta.histogram(metric) {
            extras.push((format!("{label}_p50_ns"), h.quantile(0.50) as f64));
            extras.push((format!("{label}_p99_ns"), h.quantile(0.99) as f64));
        }
    }

    PerfReport {
        suite: "runtime",
        entries,
        extras,
    }
}

/// Out-of-core tiling: the full in-memory supervised matrix versus the
/// same job dealt into spilled tiles under a memory budget of 1/8 of
/// the matrix footprint, plus the tiled top-k reduction that never
/// materializes full rows. The extras record throughput and the
/// bounded-memory evidence (`max_resident_cells`, `peak_rss_bytes`)
/// quoted in README §"Out-of-core matrices".
pub fn tiles(config: &TimingConfig) -> PerfReport {
    let scenario = bench_mall(5);
    let clean: Vec<Trajectory> = scenario.pairs.d1.clone();
    let sts = Sts::new(
        StsConfig {
            noise_sigma: scenario.scale.noise_sigma,
            ..StsConfig::default()
        },
        scenario.default_grid(),
    );
    let dir = std::env::temp_dir().join(format!("sts-bench-tiles-{}", std::process::id()));
    let total_cells = clean.len() * clean.len();
    // 1/8 of the full matrix footprint: forces ≥ 8 spill/reload cycles.
    let budget_bytes = (total_cells / 8).max(1) * TILE_CELL_BYTES;
    let tiling = TileConfig::with_memory_budget(&dir, budget_bytes);
    let job = JobConfig::default();

    let entries = vec![
        (
            "in_memory_matrix".to_string(),
            time(config, || {
                sts.similarity_matrix_supervised(&clean, &clean, &job)
                    .unwrap()
            }),
        ),
        (
            "tiled_matrix".to_string(),
            time(config, || {
                sts.similarity_matrix_tiled(&clean, &clean, &job, &tiling)
                    .unwrap()
            }),
        ),
        (
            "tiled_topk_5".to_string(),
            time(config, || {
                sts.top_k_matrix_tiled(&clean, &clean, 5, &job, &tiling)
                    .unwrap()
            }),
        ),
    ];

    // One dedicated tiled run bracketed by registry snapshots for
    // throughput, plus the report's own tiling stats for the
    // bounded-memory extras.
    let base = sts_obs::metrics::global().snapshot();
    let started = std::time::Instant::now();
    let (_, report) = sts
        .similarity_matrix_tiled(&clean, &clean, &job, &tiling)
        .unwrap();
    let elapsed = started.elapsed().as_secs_f64();
    let delta = sts_obs::metrics::global().snapshot().since(&base);
    let _ = std::fs::remove_dir_all(&dir);

    let mut extras = vec![("matrix_cells".to_string(), total_cells as f64)];
    let pairs = delta.counter("core.pairs.scored").unwrap_or(0);
    if elapsed > 0.0 {
        extras.push(("pairs_per_sec".to_string(), pairs as f64 / elapsed));
    }
    extras.push(("tile_pairs".to_string(), tiling.tile_pairs as f64));
    if let Some(t) = report.stats.tiles {
        extras.push(("tiles_total".to_string(), t.tiles_total as f64));
        extras.push(("tiles_spilled".to_string(), t.tiles_spilled as f64));
        extras.push((
            "max_resident_cells".to_string(),
            t.max_resident_cells as f64,
        ));
        if let Some(rss) = t.peak_rss_bytes {
            extras.push(("peak_rss_bytes".to_string(), rss as f64));
        }
    }

    PerfReport {
        suite: "tiles",
        entries,
        extras,
    }
}

/// Sharded tile execution: the same tiled matrix dealt to 1-worker and
/// 4-worker `sts-worker serve-tcp` fleets next to the in-process tiled
/// baseline. The spread between `tiled_in_process` and
/// `sharded_matrix_1w` is the full distribution tax (fleet spawn,
/// per-worker corpus preparation, frame codec both ways); the spread
/// between 1 and 4 workers is what parallel tile dealing buys back.
/// Extras record the coordinator's lease accounting — on a healthy
/// loopback fleet, `leases_expired` must be 0. Sharded entries are
/// skipped when the worker binary isn't built alongside this bench
/// (e.g. a bare `cargo run -p sts-bench`).
pub fn shard(config: &TimingConfig) -> PerfReport {
    // Larger than the tiles fixture: with only a handful of pairs the
    // constant fleet cost (spawn + per-worker corpus preparation)
    // swamps the compute being parallelized.
    let scenario = bench_mall(12);
    let clean: Vec<Trajectory> = scenario.pairs.d1.clone();
    let sts = Sts::new(
        StsConfig {
            noise_sigma: scenario.scale.noise_sigma,
            ..StsConfig::default()
        },
        scenario.default_grid(),
    );
    let dir = std::env::temp_dir().join(format!("sts-bench-shard-{}", std::process::id()));
    let total_cells = clean.len() * clean.len();
    let budget_bytes = (total_cells / 8).max(1) * TILE_CELL_BYTES;
    let tiling = TileConfig::with_memory_budget(&dir, budget_bytes);

    let mut entries = vec![(
        "tiled_in_process".to_string(),
        time(config, || {
            sts.similarity_matrix_tiled(&clean, &clean, &JobConfig::default(), &tiling)
                .unwrap()
        }),
    )];

    let mut extras = vec![
        ("matrix_cells".to_string(), total_cells as f64),
        ("tile_pairs".to_string(), tiling.tile_pairs as f64),
    ];
    let worker = default_worker_path();
    if worker.is_file() {
        let sharded_cfg = |workers: usize| JobConfig {
            exec: ExecMode::Sharded(ShardOptions {
                workers,
                ..ShardOptions::default()
            }),
            ..JobConfig::default()
        };
        for workers in [1usize, 4] {
            let cfg = sharded_cfg(workers);
            entries.push((
                format!("sharded_matrix_{workers}w"),
                time(config, || {
                    sts.similarity_matrix_tiled(&clean, &clean, &cfg, &tiling)
                        .unwrap()
                }),
            ));
        }

        // One dedicated 4-worker run for throughput and the lease
        // ledger, untainted by the warm-up iterations above.
        let started = std::time::Instant::now();
        let (_, report) = sts
            .similarity_matrix_tiled(&clean, &clean, &sharded_cfg(4), &tiling)
            .unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            extras.push(("pairs_per_sec".to_string(), total_cells as f64 / elapsed));
        }
        if let Some(s) = report.stats.shard {
            extras.push(("workers_spawned".to_string(), s.workers_spawned as f64));
            extras.push(("tiles_leased".to_string(), s.tiles_leased as f64));
            extras.push(("leases_expired".to_string(), s.leases_expired as f64));
            extras.push((
                "tiles_local_fallback".to_string(),
                s.tiles_local_fallback as f64,
            ));
        }
    } else {
        eprintln!(
            "perf: skipping shard/sharded_matrix_* ({} not built)",
            worker.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    PerfReport {
        suite: "shard",
        entries,
        extras,
    }
}

/// The streaming co-location service: ack'd ingest and windowed-query
/// round-trips against a live `sts-serve` instance over loopback TCP,
/// plus the durability-path extras quoted in README §"Online serving"
/// — ack'd ingest throughput, query latency quantiles measured
/// client-side, and the WAL-replay recovery time for the whole
/// ingested history.
pub fn serve(config: &TimingConfig) -> PerfReport {
    use sts_serve::{Ping, ServeClient, ServeOptions, Server};
    const OBJECTS: u64 = 16;
    let dir = std::env::temp_dir().join(format!("sts-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let h = Server::start(
        ServeOptions::new(&dir),
        std::sync::Arc::new(sts_runtime::FsStorage),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = ServeClient::connect(h.addr()).unwrap();
    // Seq-indexed walk over a fixed object fleet: time advances with
    // seq, so every generated ping is fresh and applies.
    let ping = |seq: u64| {
        let obj = seq % OBJECTS;
        Ping {
            seq,
            obj,
            t: seq as f64 / OBJECTS as f64,
            x: 20.0 + (obj as f64 * 3.7 + seq as f64 * 0.01) % 60.0,
            y: 20.0 + (obj as f64 * 5.3 + seq as f64 * 0.007) % 60.0,
        }
    };
    // Warm every object past the cold-model threshold.
    let mut seq = 0u64;
    for _ in 0..4 * OBJECTS {
        seq += 1;
        c.ingest_until_acked(&ping(seq)).unwrap();
    }
    c.flush().unwrap();
    let t_hi = seq as f64 / OBJECTS as f64;

    let mut next = seq;
    let entries = vec![
        (
            "ingest_acked".to_string(),
            time(config, || {
                next += 1;
                c.ingest_until_acked(&ping(next)).unwrap()
            }),
        ),
        (
            "coloc_window_7".to_string(),
            time(config, || c.colocate_raw(0, 1, 0.0, t_hi, 7).unwrap()),
        ),
        (
            "topk_16_obj".to_string(),
            time(config, || c.topk_raw(0, 0.0, t_hi, 5, 4).unwrap()),
        ),
        (
            "hello_roundtrip".to_string(),
            time(config, || c.hello().unwrap()),
        ),
    ];
    seq = next;

    let mut extras = Vec::new();
    // Ack'd ingest throughput: a dedicated pipelined burst (send all,
    // drain all acks), made durable before the clock stops.
    let burst: Vec<Ping> = (1..=1024).map(|i| ping(seq + i)).collect();
    let started = std::time::Instant::now();
    let (ok, _busy) = c.ingest_pipelined(&burst).unwrap();
    c.flush().unwrap();
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > 0.0 {
        extras.push(("ingest_records_per_sec".to_string(), ok as f64 / elapsed));
    }
    // Client-observed query latency quantiles over individual
    // round-trips (the `time` entries above report batch means, which
    // hide the tail).
    let mut lat_ns: Vec<f64> = (0..200)
        .map(|i| {
            let started = std::time::Instant::now();
            c.colocate_raw(i % OBJECTS, (i + 1) % OBJECTS, 0.0, t_hi, 7)
                .unwrap();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    lat_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    extras.push(("query_p50_ns".to_string(), lat_ns[lat_ns.len() / 2]));
    extras.push(("query_p99_ns".to_string(), lat_ns[lat_ns.len() * 99 / 100]));
    drop(c);
    h.shutdown();

    // Recovery time: reopen the directory and replay the full WAL
    // history written above (no snapshot ever ran, so this is the
    // worst-case replay for this ingest volume).
    let started = std::time::Instant::now();
    let h2 = Server::start(
        ServeOptions::new(&dir),
        std::sync::Arc::new(sts_runtime::FsStorage),
        "127.0.0.1:0",
    )
    .unwrap();
    extras.push((
        "recovery_replay_ms".to_string(),
        started.elapsed().as_secs_f64() * 1e3,
    ));
    extras.push((
        "recovery_replayed_records".to_string(),
        h2.stats().get("recovered_records").unwrap_or(0) as f64,
    ));
    h2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    PerfReport {
        suite: "serve",
        entries,
        extras,
    }
}

/// Substrate primitives: the KDE speed model (Eq. 6–7), the grid range
/// query behind the truncation, and the Kalman smoother of the KF
/// baseline.
pub fn substrates(config: &TimingConfig) -> PerfReport {
    let samples: Vec<f64> = (0..200).map(|i| 1.0 + (i % 17) as f64 * 0.05).collect();
    let kde = Kde::new(samples, Kernel::Gaussian).unwrap();
    let grid = Grid::new(
        BoundingBox::new(Point::ORIGIN, Point::new(10_000.0, 10_000.0)),
        100.0,
    )
    .unwrap();
    let obs: Vec<(Point, f64)> = (0..100)
        .map(|i| (Point::new(i as f64 * 2.0, (i % 7) as f64), i as f64))
        .collect();
    let kf = KalmanFilter2D::new(KalmanConfig::default());

    let entries = vec![
        (
            "kde_scaled_density_200".to_string(),
            time(config, || kde.scaled_density(1.3)),
        ),
        (
            "grid_cells_within_500m".to_string(),
            time(config, || {
                grid.cells_within(Point::new(5000.0, 5000.0), 500.0)
            }),
        ),
        (
            "kalman_smooth_100".to_string(),
            time(config, || kf.smooth(&obs)),
        ),
    ];
    PerfReport {
        suite: "substrates",
        entries,
        extras: Vec::new(),
    }
}
