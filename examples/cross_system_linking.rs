//! Cross-system trajectory linking — the paper's main evaluation task
//! (§VI-B): "an effective similarity measure should match correctly two
//! trajectories of the same user" observed by two different sensing
//! systems.
//!
//! We simulate a taxi fleet observed by (1) the dispatch GPS feed and
//! (2) a sparser, noisier roadside-sensor network, then link each
//! dispatch trajectory to its sensor-network counterpart with STS and
//! with CATS, reporting precision and mean rank for both.
//!
//! ```sh
//! cargo run --release --example cross_system_linking
//! ```

use sts_repro::baselines::Cats;
use sts_repro::core::{Sts, StsConfig};
use sts_repro::eval::matching::{matching_ranks, MatrixMeasure, StsMatrix};
use sts_repro::eval::metrics::{mean_rank, precision};
use sts_repro::geo::{BoundingBox, Grid, Point};
use sts_repro::traj::generators::taxi;
use sts_repro::traj::noise::add_gaussian_noise;
use sts_repro::traj::sampling::downsample_fraction;
use sts_repro::traj::{Dataset, MatchingPairs, MIN_EVAL_LEN};
use sts_rng::Xoshiro256pp;

fn main() {
    let mut rng = Xoshiro256pp::seed_from_u64(99);

    // 12 taxis, beaconing every 15 s (the Porto regime).
    let cfg = taxi::TaxiConfig {
        n_taxis: 12,
        seed: 99,
        ..taxi::TaxiConfig::default()
    };
    let dataset = taxi::generate(&cfg).dataset().filter_min_len(MIN_EVAL_LEN);
    println!("{} taxis with >= {MIN_EVAL_LEN} fixes", dataset.len());

    // System 1 / system 2: the Fig. 3 alternate split, then system 2 is
    // degraded — it keeps only 40 % of its observations and carries
    // 40 m of location error (a roadside sensor network).
    let pairs = MatchingPairs::from_dataset(&dataset);
    let pairs = pairs.transform(
        |gps| Some(gps.clone()),
        |sensor| {
            let sparse = downsample_fraction(sensor, 0.4, &mut rng);
            Some(add_gaussian_noise(&sparse, 40.0, &mut rng))
        },
    );

    // Measures: STS on the paper's 100 m taxi grid, CATS with
    // road-scale tolerances.
    let area = BoundingBox::new(Point::ORIGIN, Point::new(cfg.city_size, cfg.city_size));
    let grid = Grid::new(area.inflated(200.0), 100.0).expect("valid grid");
    let sts = StsMatrix(Sts::new(
        StsConfig {
            noise_sigma: 50.0,
            ..StsConfig::default()
        },
        grid,
    ));
    let cats = Cats::new(200.0, 90.0);

    for (name, measure) in [
        ("STS", &sts as &dyn MatrixMeasure),
        ("CATS", &cats as &dyn MatrixMeasure),
    ] {
        let ranks = matching_ranks(measure, &pairs);
        println!(
            "{name:<5} precision = {:.3}  mean rank = {:.2}",
            precision(&ranks),
            mean_rank(&ranks)
        );
    }

    let sts_ranks = matching_ranks(&sts, &pairs);
    assert!(
        precision(&sts_ranks) >= 0.5,
        "STS should link most taxis across systems"
    );
    println!("=> each dispatch trajectory linked to its sensor-network twin.");

    // Persist the degraded system-2 view so it can be inspected or
    // re-used (plain-text format of `sts_traj::io`).
    let name = "sts_linking_system2.txt";
    let mut buf = Vec::new();
    sts_repro::traj::io::write_trajectories(&mut buf, &pairs.d2).expect("serialize");
    std::fs::write(std::env::temp_dir().join(name), buf).expect("write file");
    println!("system-2 trajectories written to {name} in the temp directory");
    let _ = Dataset::new(pairs.d2.clone()); // demonstrate dataset wrapping
}
