//! Seeded workload inputs. Every input is a pure function of the
//! workload's parameters and the `--seed` argument; the program under
//! test only ever receives the generated trajectories or pings.

use sts_core::{StpCacheMode, Sts, StsConfig};
use sts_eval::scenario::ScenarioKind;
use sts_eval::{Scenario, ScenarioConfig};
use sts_geo::Point;
use sts_rng::{Rng, SplitMix64, Xoshiro256pp};
use sts_serve::Ping;
use sts_traj::generators::mall::{self, MallConfig};
use sts_traj::noise::add_gaussian_noise;
use sts_traj::sampling::{downsample_fraction, sample_path_poisson};
use sts_traj::{Path, TrajPoint, Trajectory};

/// Seed of everything but the location noise: the population (who walks
/// or drives where) and which observations each sensing system keeps.
/// The run seed draws the noise on every observation, so each seed gives
/// different inputs that ask for the same work; the spread of a run-set
/// then measures the program, not the draw of gap lengths (one long gap
/// is one bridge over most of the grid).
pub const POPULATION_SEED: u64 = 0x5757;

/// Derives an independent sub-seed for one input stream, so the
/// sampling and noise draws never share RNG state.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    mix.random::<u64>()
}

/// Parameters of a batch workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct BatchShape {
    /// Which generator.
    pub kind: ScenarioKind,
    /// Objects generated (before the evaluation's 20-point filter).
    pub n_objects: usize,
    /// Share of each trajectory's points kept (sporadic sampling).
    pub rate: f64,
    /// Gaussian location noise added to every kept point, meters (β).
    pub beta: f64,
}

/// A batch workload's inputs: the measure and the paired query /
/// candidate sets (query `i` and candidate `i` are the same object seen
/// by two sensing systems).
pub struct BatchInputs {
    /// The measure, configured for the scenario's scale.
    pub sts: Sts,
    /// The measure's location-noise σ, meters.
    pub noise_sigma: f64,
    /// `D(1)`: the queries.
    pub queries: Vec<Trajectory>,
    /// `D(2)`: the candidates.
    pub candidates: Vec<Trajectory>,
}

impl BatchInputs {
    /// Builds the inputs for `shape` under `seed`.
    pub fn generate(shape: &BatchShape, seed: u64) -> BatchInputs {
        let scenario = Scenario::build(ScenarioConfig {
            kind: shape.kind,
            n_objects: shape.n_objects,
            seed: POPULATION_SEED,
        });
        let mut keep = Xoshiro256pp::seed_from_u64(sub_seed(POPULATION_SEED, 2));
        let mut noise = Xoshiro256pp::seed_from_u64(sub_seed(seed, 2));
        let pairs = scenario.pairs.transform_both(|t| {
            let kept = downsample_fraction(t, shape.rate, &mut keep);
            Some(add_gaussian_noise(&kept, shape.beta, &mut noise))
        });
        let noise_sigma = scenario.scale.noise_sigma;
        let sts = Sts::new(
            StsConfig {
                noise_sigma,
                ..StsConfig::default()
            },
            scenario.default_grid(),
        );
        BatchInputs {
            sts,
            noise_sigma,
            queries: pairs.d1,
            candidates: pairs.d2,
        }
    }

    /// The workload's measure with another STP cache mode.
    pub fn measure(&self, cache: StpCacheMode) -> Sts {
        Sts::new(
            StsConfig {
                noise_sigma: self.noise_sigma,
                cache,
                ..StsConfig::default()
            },
            self.sts.grid().clone(),
        )
    }

    /// Pairs in the full `queries × candidates` matrix.
    pub fn pairs(&self) -> usize {
        self.queries.len() * self.candidates.len()
    }
}

/// Parameters of the serve workload's ping stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    /// Pedestrians walked; each is observed by two independent sensing
    /// systems, so the server sees twice as many objects and object
    /// `2i + 1` is the true partner of object `2i`.
    pub pedestrians: usize,
    /// Mean interval of each sensing system's Poisson pings, seconds.
    pub mean_interval: f64,
    /// Shortest interval between two pings of one sensing system,
    /// seconds (a scan rate limit). Without it, noise over the Poisson
    /// process's sub-second gaps makes speed outliers whose size — and
    /// with it the STP cost of every query — swings with the seed.
    pub min_interval: f64,
    /// Gaussian location noise on every ping, meters.
    pub beta: f64,
}

/// Side of the square the pedestrians walk in: inside the server's
/// default 100 m × 100 m area with a margin, so noise rarely pushes a
/// ping off the grid.
const FLOOR: f64 = 90.0;
const MARGIN: f64 = 5.0;

/// The serve workload's input: a time-ordered ping stream over
/// `2 × pedestrians` objects, with consecutive `seq` numbers from 1.
pub struct PingStream {
    /// Pings in ingest order.
    pub pings: Vec<Ping>,
    /// Number of objects (ids `0..objects`).
    pub objects: u64,
}

impl PingStream {
    /// At least `count` pings for `shape` under `seed`. Walks get longer
    /// until every object is still moving when the stream ends.
    pub fn generate(shape: &StreamShape, count: usize, seed: u64) -> PingStream {
        let objects = 2 * shape.pedestrians;
        // Each object pings about once per `mean_interval + min_interval`.
        let horizon =
            1.2 * count as f64 * (shape.mean_interval + shape.min_interval) / objects as f64;
        let mut n_stops = 8;
        let paths = loop {
            let cfg = MallConfig {
                n_pedestrians: shape.pedestrians,
                width: FLOOR,
                height: FLOOR,
                n_stops,
                seed: POPULATION_SEED,
                ..MallConfig::default()
            };
            let paths: Vec<Path> = mall::generate(&cfg)
                .objects
                .into_iter()
                .map(|o| o.path)
                .collect();
            if paths.iter().all(|p| p.end_time() >= horizon) {
                break paths;
            }
            n_stops *= 2;
        };
        let mut sense = Xoshiro256pp::seed_from_u64(sub_seed(POPULATION_SEED, 4));
        let mut noise = Xoshiro256pp::seed_from_u64(sub_seed(seed, 4));
        let mut raw: Vec<(f64, u64, Point)> = Vec::new();
        for (i, path) in paths.iter().enumerate() {
            for side in 0..2u64 {
                let sensed = sample_path_poisson(path, shape.mean_interval, &mut sense);
                let mut last = f64::NEG_INFINITY;
                let kept: Vec<usize> = (0..sensed.len())
                    .filter(|&k| {
                        let t = sensed.get(k).t;
                        let keep = t - last >= shape.min_interval;
                        if keep {
                            last = t;
                        }
                        keep
                    })
                    .collect();
                let sensed = sensed.subsequence(&kept).expect("the first ping is kept");
                let noisy = add_gaussian_noise(&sensed, shape.beta, &mut noise);
                raw.extend(noisy.points().iter().filter(|p| p.t <= horizon).map(
                    |p: &TrajPoint| {
                        let loc = Point::new(p.loc.x + MARGIN, p.loc.y + MARGIN);
                        (p.t, 2 * i as u64 + side, loc)
                    },
                ));
            }
        }
        raw.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert!(
            raw.len() >= count,
            "stream of {} pings is shorter than the {count} needed",
            raw.len()
        );
        let pings = raw
            .into_iter()
            .enumerate()
            .map(|(i, (t, obj, loc))| Ping {
                seq: i as u64 + 1,
                obj,
                t,
                x: loc.x,
                y: loc.y,
            })
            .collect();
        PingStream {
            pings,
            objects: objects as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_inputs_are_seed_deterministic_and_paired() {
        let shape = BatchShape {
            kind: ScenarioKind::Mall,
            n_objects: 6,
            rate: 0.3,
            beta: 4.0,
        };
        let a = BatchInputs::generate(&shape, 7);
        let b = BatchInputs::generate(&shape, 7);
        let c = BatchInputs::generate(&shape, 8);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.candidates, b.candidates);
        assert_ne!(a.queries, c.queries);
        // Another seed only moves the observations: same sizes.
        let lens = |i: &BatchInputs| i.queries.iter().map(|t| t.len()).collect::<Vec<_>>();
        assert_eq!(lens(&a), lens(&c));
        assert_eq!(a.queries.len(), a.candidates.len());
        assert!(a.queries.iter().all(|t| t.len() >= 2));
    }

    #[test]
    fn ping_stream_is_ordered_complete_and_seed_deterministic() {
        let shape = StreamShape {
            pedestrians: 4,
            mean_interval: 12.0,
            min_interval: 4.0,
            beta: 2.0,
        };
        let s = PingStream::generate(&shape, 500, 3);
        assert!(s.pings.len() >= 500);
        assert_eq!(s.objects, 8);
        for (i, w) in s.pings.windows(2).enumerate() {
            assert!(w[0].t <= w[1].t);
            assert_eq!(w[0].seq, i as u64 + 1);
        }
        for obj in 0..s.objects {
            let ts: Vec<f64> = s
                .pings
                .iter()
                .filter(|p| p.obj == obj)
                .map(|p| p.t)
                .collect();
            assert!(
                ts.windows(2).all(|w| w[1] - w[0] >= 4.0),
                "object {obj} pinged too soon"
            );
        }
        // Every object keeps pinging until the end of the stream.
        let tail = &s.pings[s.pings.len() - 200..];
        for obj in 0..s.objects {
            assert!(tail.iter().any(|p| p.obj == obj), "object {obj} went quiet");
        }
        let again = PingStream::generate(&shape, 500, 3);
        assert_eq!(again.pings, s.pings);
    }
}
