//! Work guard for the per-trajectory STP cache: on an 8-trajectory
//! matrix, the `Exact` and `Lattice` caches must each spend strictly
//! fewer STP evaluations per scored pair than the uncached oracle.
//! This is the repo's only check that the cache saves work
//! (`stp_cache_equiv` checks that it stays exact). Lives in its own
//! test binary so the global telemetry registry it reads is not
//! shared with any other suite's process.

use sts_bench::bench_mall;
use sts_core::{StpCacheMode, Sts, StsConfig};
use sts_traj::Trajectory;

fn evals_per_pair(sts: &Sts, trajs: &[Trajectory]) -> f64 {
    let base = sts_obs::metrics::global().snapshot();
    sts.similarity_matrix(trajs, trajs).unwrap();
    let delta = sts_obs::metrics::global().snapshot().since(&base);
    let pairs = delta.counter("core.pairs.scored").unwrap_or(0);
    assert_eq!(pairs, (trajs.len() * trajs.len()) as u64);
    delta.counter("core.stp.evals").unwrap_or(0) as f64 / pairs as f64
}

#[test]
fn cached_matrix_spends_fewer_stp_evals_per_pair_than_uncached() {
    let scenario = bench_mall(8);
    let trajs: Vec<Trajectory> = scenario.pairs.d1.clone();
    let make = |mode: StpCacheMode| {
        Sts::new(
            StsConfig {
                noise_sigma: scenario.scale.noise_sigma,
                ..StsConfig::default()
            },
            scenario.default_grid(),
        )
        .with_cache_mode(mode)
    };

    let uncached = evals_per_pair(&make(StpCacheMode::Off), &trajs);
    let exact = evals_per_pair(&make(StpCacheMode::Exact), &trajs);
    let lattice = evals_per_pair(&make(StpCacheMode::Lattice { dt: 20.0 }), &trajs);

    assert!(
        exact < uncached,
        "exact caching did not reduce STP evals per pair: \
         exact {exact:.2} vs uncached {uncached:.2}"
    );
    assert!(
        lattice < uncached,
        "lattice caching did not reduce STP evals per pair: \
         lattice {lattice:.2} vs uncached {uncached:.2}"
    );
}
