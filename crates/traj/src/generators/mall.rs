//! Shopping-mall pedestrian workload (WiFi-dataset substitute).
//!
//! Pedestrians move along a corridor lattice of a mall floor, dwell at
//! stores (exponential dwell times), and walk with *personal* speeds
//! (normal around ~1.3 m/s, per the pedestrian-speed literature the paper
//! cites [26]). A WiFi-scan-like Poisson process observes each device
//! sporadically and asynchronously — the paper's hard regime of sporadic
//! sampling in a narrow site.

use super::{GeneratedObject, Workload};
use crate::sampling::{randn, sample_path_poisson};
use crate::{Path, TrajPoint};
use sts_geo::Point;
use sts_rng::Rng;
use sts_rng::Xoshiro256pp;

/// Configuration of the mall workload generator.
#[derive(Debug, Clone)]
pub struct MallConfig {
    /// Number of pedestrians (= trajectories).
    pub n_pedestrians: usize,
    /// Floor width (x extent), meters.
    pub width: f64,
    /// Floor depth (y extent), meters.
    pub height: f64,
    /// Corridor lattice spacing, meters.
    pub corridor_spacing: f64,
    /// Number of stores each pedestrian visits.
    pub n_stops: usize,
    /// Number of anchor stores (the food court, a department store, …)
    /// shared by all pedestrians; shared destinations put different
    /// people on the same corridors at the same time — the confusable
    /// regime the matching task must disambiguate.
    pub anchor_count: usize,
    /// Probability that a stop targets an anchor store rather than a
    /// uniformly random corridor node.
    pub anchor_prob: f64,
    /// Mean dwell time at each stop, seconds.
    pub mean_dwell: f64,
    /// Mean interval of the Poisson observation process, seconds.
    pub mean_scan_interval: f64,
    /// Mean personal walking speed, m/s.
    pub mean_speed: f64,
    /// Std of the personal walking speed across pedestrians.
    pub speed_std: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MallConfig {
    fn default() -> Self {
        MallConfig {
            n_pedestrians: 100,
            width: 150.0,
            height: 80.0,
            corridor_spacing: 10.0,
            n_stops: 5,
            anchor_count: 6,
            anchor_prob: 0.6,
            mean_dwell: 60.0,
            mean_scan_interval: 12.0,
            mean_speed: 1.3,
            speed_std: 0.25,
            seed: 0x3A11,
        }
    }
}

/// Generates the mall workload described by `config`.
pub fn generate(config: &MallConfig) -> Workload {
    assert!(config.n_pedestrians > 0, "need at least one pedestrian");
    assert!(
        config.corridor_spacing > 0.0
            && config.width >= config.corridor_spacing
            && config.height >= config.corridor_spacing,
        "floor must hold at least one corridor cell"
    );
    let mut rng = Xoshiro256pp::seed_from_u64(config.seed);
    let nx = (config.width / config.corridor_spacing).floor() as i64;
    let ny = (config.height / config.corridor_spacing).floor() as i64;
    let anchors: Vec<(i64, i64)> = (0..config.anchor_count)
        .map(|_| (rng.random_range(0..=nx), rng.random_range(0..=ny)))
        .collect();
    let objects = (0..config.n_pedestrians)
        .map(|_| generate_pedestrian(config, nx, ny, &anchors, &mut rng))
        .collect();
    Workload { objects }
}

fn generate_pedestrian<R: Rng + ?Sized>(
    config: &MallConfig,
    nx: i64,
    ny: i64,
    anchors: &[(i64, i64)],
    rng: &mut R,
) -> GeneratedObject {
    // Personal walking speed, normal and clamped to plausible bounds.
    let speed = (config.mean_speed + randn(rng) * config.speed_std).clamp(0.5, 2.5);
    let mut current = (rng.random_range(0..=nx), rng.random_range(0..=ny));
    let mut waypoints: Vec<TrajPoint> = Vec::new();
    let mut t = 0.0;
    let to_point = |node: (i64, i64)| -> Point {
        Point::new(
            node.0 as f64 * config.corridor_spacing,
            node.1 as f64 * config.corridor_spacing,
        )
    };
    waypoints.push(TrajPoint::new(to_point(current), t));
    for _ in 0..config.n_stops {
        let dest = loop {
            let d = if !anchors.is_empty() && rng.random::<f64>() < config.anchor_prob {
                anchors[rng.random_range(0..anchors.len())]
            } else {
                (rng.random_range(0..=nx), rng.random_range(0..=ny))
            };
            if d != current {
                break d;
            }
        };
        // Walk a staircase lattice route at the personal speed (with a
        // small per-leg variation: pace changes while window shopping).
        let mut nodes = Vec::new();
        super::lattice_route(current, dest, rng, &mut nodes);
        for node in nodes {
            let p = to_point(node);
            let prev = waypoints.last().expect("non-empty").loc;
            let pace = (speed * (randn(rng) * 0.1).exp()).max(0.3);
            t += prev.distance(&p) / pace;
            waypoints.push(TrajPoint::new(p, t));
        }
        current = dest;
        // Dwell at the store: exponential holding time.
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let dwell = -config.mean_dwell * u.ln();
        t += dwell;
        waypoints.push(TrajPoint::new(to_point(current), t));
    }
    let path = Path::new(waypoints).expect("mall timestamps increase");
    let trajectory = sample_path_poisson(&path, config.mean_scan_interval, rng);
    GeneratedObject { path, trajectory }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64) -> MallConfig {
        MallConfig {
            n_pedestrians: 5,
            n_stops: 4,
            seed,
            ..MallConfig::default()
        }
    }

    #[test]
    fn generates_requested_population() {
        let w = generate(&small_config(1));
        assert_eq!(w.objects.len(), 5);
        for o in &w.objects {
            assert!(o.trajectory.len() >= 2);
            assert!(o.path.duration() > 0.0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_config(7));
        let b = generate(&small_config(7));
        for (x, y) in a.objects.iter().zip(&b.objects) {
            assert_eq!(x.trajectory, y.trajectory);
        }
    }

    #[test]
    fn stays_on_floor() {
        let cfg = small_config(2);
        let w = generate(&cfg);
        for o in &w.objects {
            for p in o.path.waypoints() {
                assert!(p.loc.x >= -1e-9 && p.loc.x <= cfg.width + 1e-9);
                assert!(p.loc.y >= -1e-9 && p.loc.y <= cfg.height + 1e-9);
            }
        }
    }

    #[test]
    fn pedestrians_dwell_at_every_stop() {
        let cfg = small_config(6);
        let w = generate(&cfg);
        for (i, o) in w.objects.iter().enumerate() {
            // A dwell is two consecutive waypoints at one location with
            // time passing between them; corridor legs always move.
            let dwells = o
                .path
                .waypoints()
                .windows(2)
                .filter(|p| p[0].loc == p[1].loc && p[1].t > p[0].t)
                .count();
            assert_eq!(dwells, cfg.n_stops, "pedestrian {i} skipped a store");
        }
    }

    #[test]
    fn sampling_is_sporadic() {
        let w = generate(&small_config(3));
        let t = &w.objects[0].trajectory;
        let gaps: Vec<f64> = t.points().windows(2).map(|p| p[1].t - p[0].t).collect();
        // Poisson gaps are irregular: not all equal.
        let min = gaps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = gaps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > min * 1.5, "gaps suspiciously regular");
    }

    #[test]
    fn walking_speed_is_pedestrian_scale() {
        let w = generate(&small_config(4));
        for o in &w.objects {
            // Ground-truth leg speeds (excluding dwells) are bounded by
            // the clamp range.
            for pair in o.path.waypoints().windows(2) {
                let d = pair[0].loc.distance(&pair[1].loc);
                let dt = pair[1].t - pair[0].t;
                if d > 0.0 && dt > 0.0 {
                    let v = d / dt;
                    assert!(v <= 3.5, "pedestrian at {v} m/s");
                }
            }
        }
    }

    #[test]
    fn trajectory_lies_on_path() {
        let w = generate(&small_config(5));
        for o in &w.objects {
            for p in o.trajectory.points() {
                assert!(p.loc.distance(&o.path.position_at(p.t)) < 1e-6);
            }
        }
    }
}
