//! Scalable querying: top-k against a corpus, out of core.
//!
//! The paper's complexity analysis (§V-C) prices one STS evaluation at
//! `O(|Tra|·|Tra'|·|R|²)`, and the score matrix of a city-scale corpus
//! does not fit in memory. `Sts::top_k_matrix_tiled` streams the pair
//! space through the matrix engine one tile at a time: each tile is
//! spilled to disk and verified, and only a bounded top-k per query row
//! is kept. Here the tiles are smaller than the corpus, and the
//! out-of-core ranking must equal the in-memory `Sts::top_k` bit for
//! bit.
//!
//! ```sh
//! cargo run --release --example scalable_query
//! ```

use sts_repro::core::{JobConfig, Sts, StsConfig, TileConfig};
use sts_repro::geo::{BoundingBox, Grid, Point};
use sts_repro::traj::generators::{cdr, taxi};
use sts_repro::traj::Trajectory;
use sts_rng::Xoshiro256pp;

fn main() {
    // A fleet of 60 taxis.
    let cfg = taxi::TaxiConfig {
        n_taxis: 60,
        seed: 4242,
        ..taxi::TaxiConfig::default()
    };
    let workload = taxi::generate(&cfg);
    let corpus: Vec<Trajectory> = workload
        .objects
        .iter()
        .map(|o| o.trajectory.clone())
        .collect();

    // The query: taxi 17's movement as seen by a *different* sensing
    // system — sparse, bursty CDR-style events from the driver's phone.
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let query = cdr::sample_path_cdr(
        &workload.objects[17].path,
        &cdr::CdrConfig {
            burst_interval: 20.0,
            idle_interval: 180.0,
            ..cdr::CdrConfig::default()
        },
        &mut rng,
    );
    println!(
        "query: {} CDR events over {:.0} s (taxi 17's phone)",
        query.len(),
        query.duration()
    );

    let area = BoundingBox::new(Point::ORIGIN, Point::new(cfg.city_size, cfg.city_size));
    let grid = Grid::new(area.inflated(200.0), 100.0).expect("valid grid");
    let sts = Sts::new(
        StsConfig {
            noise_sigma: 50.0,
            ..StsConfig::default()
        },
        grid,
    );

    // Out of core: tiles of 16 pairs over the 60-taxi corpus.
    let tiles = std::env::temp_dir().join(format!("sts-scalable-query-{}", std::process::id()));
    let tiling = TileConfig {
        tile_pairs: 16,
        ..TileConfig::new(&tiles)
    };
    let (rows, report) = sts
        .top_k_matrix_tiled(
            std::slice::from_ref(&query),
            &corpus,
            3,
            &JobConfig::default(),
            &tiling,
        )
        .expect("tiled top-k");
    let _ = std::fs::remove_dir_all(&tiles);
    assert!(report.is_complete(), "tiled job incomplete: {report}");
    let tiled = &rows[0];
    println!(
        "tiled top-3 over {} taxis in {} tiles of {} pairs:",
        corpus.len(),
        report.stats.tiles.map_or(0, |t| t.tiles_total),
        tiling.tile_pairs
    );
    for (rank, (taxi, score)) in tiled.iter().enumerate() {
        println!("  #{} taxi {taxi:<3} STS {score:.4}", rank + 1);
    }

    // In memory: the same query through the untiled engine.
    let exact = sts
        .top_k(&query, &corpus, 3)
        .expect("query has >= 2 points");

    let bits = |ranking: &[(usize, f64)]| -> Vec<(usize, u64)> {
        ranking.iter().map(|&(i, s)| (i, s.to_bits())).collect()
    };
    assert_eq!(tiled[0].0, 17, "the tiled scan must identify taxi 17");
    assert_eq!(
        bits(tiled),
        bits(&exact),
        "tiling must not change the ranking"
    );
    println!("=> taxi 17 identified; the ranking equals the in-memory top_k bit for bit");
}
