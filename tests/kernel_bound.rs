//! Error bound of the isotropic bridge kernel against the pairwise
//! reference, on both evaluation scenarios.
//!
//! An isotropic transition model is evaluated through a per-bridge
//! distance table (`cell/8` resolution, linear interpolation) read
//! once per cell offset into a stencil. Any model that does not declare
//! isotropy takes the pairwise `TransitionModel::probability` path
//! instead. Hiding the speed model's isotropy behind a wrapper scores
//! the same pairs both ways; the difference is the table's
//! approximation error, bounded here and recorded in DESIGN §5b.

use sts_repro::core::noise::GaussianNoise;
use sts_repro::core::transition::{SpeedKdeTransition, TransitionModel};
use sts_repro::core::{colocation_probability, StpCacheMode, StpEstimator, Sts, StsConfig};
use sts_repro::eval::experiments::sampling::downsample_pairs;
use sts_repro::eval::experiments::ExperimentConfig;
use sts_repro::eval::scenario::{Scenario, ScenarioConfig, ScenarioKind};
use sts_repro::geo::{Grid, Point};
use sts_repro::stats::Kernel;
use sts_repro::traj::Trajectory;

/// Same model, isotropy hidden: forces the pairwise path.
struct NonIso(SpeedKdeTransition);

impl TransitionModel for NonIso {
    fn probability(&self, from: Point, to: Point, dt: f64) -> f64 {
        self.0.probability(from, to, dt)
    }
    fn max_displacement(&self, dt: f64) -> f64 {
        self.0.max_displacement(dt)
    }
    // is_isotropic stays false (default).
}

/// `STS(a, b)` (Eq. 10) with the given per-trajectory models, as the
/// uncached reference path computes it.
fn sts_with(
    grid: &Grid,
    noise: &GaussianNoise,
    (a, ma): (&Trajectory, &dyn TransitionModel),
    (b, mb): (&Trajectory, &dyn TransitionModel),
) -> f64 {
    let ea = StpEstimator::new(grid, noise, ma, a);
    let eb = StpEstimator::new(grid, noise, mb, b);
    let ts = a.merged_timestamps(b);
    // A stamp both trajectories share counts twice but is scored once.
    let mut sum = 0.0;
    let mut i = 0;
    while i < ts.len() {
        let mult = ts[i..].iter().take_while(|&&t| t == ts[i]).count();
        sum += colocation_probability(&ea, &eb, ts[i]) * mult as f64;
        i += mult;
    }
    sum / ts.len() as f64
}

/// Maximum relative error over pairwise scores above `floor`, and the
/// number of query rows whose top-1 candidate differs, on a `side` ×
/// `side` block of the scenario's pairs sampled at rate 0.3.
fn compare(kind: ScenarioKind, side: usize, floor: f64) -> (f64, usize) {
    let scenario = Scenario::build(ScenarioConfig {
        kind,
        n_objects: side + 2,
        seed: 0xB0D,
    });
    let cfg = ExperimentConfig {
        n_objects: side + 2,
        seed: 0xB0D,
        full: false,
    };
    let pairs = downsample_pairs(&cfg, &scenario.pairs, 0.3, "kernel_bound");
    let n = side.min(pairs.len());
    assert!(n >= 4, "{}: only {n} pairs", scenario.name());
    let grid = scenario.default_grid();
    let sigma = scenario.scale.noise_sigma;
    let noise = GaussianNoise::new(sigma);
    let model = |t: &Trajectory| {
        SpeedKdeTransition::from_trajectory(t, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(grid.cell_size() / 2.0)
    };
    let sts = Sts::new(
        StsConfig {
            noise_sigma: sigma,
            ..StsConfig::default()
        },
        grid.clone(),
    )
    .with_cache_mode(StpCacheMode::Off);
    let (mut max_rel, mut top1_changed) = (0.0f64, 0);
    for a in &pairs.d1[..n] {
        let ma = model(a);
        let na = NonIso(ma.clone());
        let mut row = Vec::with_capacity(n);
        for b in &pairs.d2[..n] {
            let mb = model(b);
            let nb = NonIso(mb.clone());
            let kernel = sts_with(&grid, &noise, (a, &ma), (b, &mb));
            // The scores above are the measure's own, bit for bit.
            let own = sts.similarity(a, b).unwrap();
            assert_eq!(kernel.to_bits(), own.to_bits(), "{}", scenario.name());
            let pairwise = sts_with(&grid, &noise, (a, &na), (b, &nb));
            if pairwise > floor {
                max_rel = max_rel.max((kernel - pairwise).abs() / pairwise);
            }
            row.push((kernel, pairwise));
        }
        let top1 = |pick: fn(&(f64, f64)) -> f64| {
            (0..n).max_by(|&i, &j| pick(&row[i]).total_cmp(&pick(&row[j])))
        };
        if top1(|s| s.0) != top1(|s| s.1) {
            top1_changed += 1;
        }
    }
    (max_rel, top1_changed)
}

/// The kernel scores every scenario's pairs within a stated relative
/// error of the pairwise path and ranks each query's top-1 the same.
/// Measured maxima: 4.5e-4 on the mall (4 × 4 pairs) and 4.9e-3 on the
/// taxi (6 × 6); each bound leaves ≥ 2× headroom over its reading.
#[test]
fn kernel_stays_within_its_bound_on_every_scenario() {
    for kind in ScenarioKind::both() {
        let (side, floor, bound) = match kind {
            ScenarioKind::Mall => (4, 0.0, 1e-3),
            // Scores at or below 1e-9 belong to pairs kilometres apart;
            // their relative error says nothing about a ranking.
            ScenarioKind::Taxi => (6, 1e-9, 1.25e-2),
        };
        let (max_rel, top1_changed) = compare(kind, side, floor);
        assert!(
            max_rel < bound,
            "{}: max relative error {max_rel:e} (bound {bound:e})",
            kind.name()
        );
        assert_eq!(top1_changed, 0, "{}: top-1 changed", kind.name());
    }
}
