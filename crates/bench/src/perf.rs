//! The paper-facing timing suites, as plain functions over the in-repo
//! [`timing`](crate::timing) harness.
//!
//! These time what the paper itself reports — §V-C's per-pair cost
//! (`similarity`, `stp`, `matching`), Fig. 12's running time against
//! grid size (`grid_size`) and the substrate primitives under them
//! (`substrates`) — for EXPERIMENTS.md to quote. Engine throughput and
//! latency (matrix pairs/s, tiles, the fleet, the streaming service)
//! belong to the repository benchmark in `benchmark/`, which has the
//! calibrated bounds and noise bands these single runs lack.
//!
//! Each suite builds its fixture, times a handful of named closures and
//! returns a [`PerfReport`]. Run them via the `perf` binary
//! (`cargo run -p sts-bench --release --bin perf`) or, as a smoke
//! check, `cargo test -p sts-bench -- --ignored perf_smoke`.

use crate::timing::{time, Measurement, TimingConfig};
use crate::{bench_mall, bench_taxi};
use sts_core::noise::GaussianNoise;
use sts_core::transition::SpeedKdeTransition;
use sts_core::{StpEstimator, Sts, StsConfig};
use sts_eval::matching::matching_ranks;
use sts_eval::measures::{make_measure, measure_set, MeasureKind};
use sts_geo::{BoundingBox, Grid, Point};
use sts_stats::{KalmanConfig, KalmanFilter2D, Kde, Kernel};

/// Named timings from one suite.
pub struct PerfReport {
    /// The suite name.
    pub suite: &'static str,
    /// `(benchmark id, measurement)` pairs in execution order.
    pub entries: Vec<(String, Measurement)>,
}

/// All suites, in run order.
pub fn all_suites() -> Vec<(&'static str, fn(&TimingConfig) -> PerfReport)> {
    vec![
        ("similarity", similarity),
        ("grid_size", grid_size),
        ("matching", matching),
        ("stp", stp),
        ("substrates", substrates),
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
    }
}
