//! Co-location probability (paper §V-A, Eqs. 8–9, Algorithm 1).
//!
//! The co-location probability of two trajectories at a timestamp `t` is
//! the probability that both objects occupy the same grid cell at `t`:
//!
//! ```text
//! CP(t | Tra1, Tra2) = Σ_{r ∈ R} STP(r, t, Tra1) · STP(r, t, Tra2)
//! ```
//!
//! Algorithm 1's three cases (both observed at `t`, one observed, none
//! observed — the last cannot arise when `t` comes from the merged
//! timestamp list, but `STP` handles it anyway) are all subsumed by
//! `STP`: each side is the normalized noise distribution when observed
//! and the normalized Markov bridge otherwise. The per-case
//! normalization of Algorithm 1 is exactly [`SparseDistribution::normalize`],
//! applied inside [`StpEstimator::stp`].

use crate::dist::SparseDistribution;
use crate::stprob::StpEstimator;

/// `CP(t | Tra1, Tra2)`: the inner product of the two objects' cell
/// distributions at `t`. Zero when `t` is outside either trajectory's
/// time span (Eq. 5's zero case).
pub fn colocation_probability(a: &StpEstimator<'_>, b: &StpEstimator<'_>, t: f64) -> f64 {
    a.stp(t).dot(&b.stp(t))
}

/// Convenience for callers that already have the two distributions.
pub fn colocation_of(d1: &SparseDistribution, d2: &SparseDistribution) -> f64 {
    d1.dot(d2)
}

/// `CP` over two cached SoA distributions (parallel `cell_ids`/`probs`
/// slices, sorted by cell id) — the cached hot path's inner loop. Same
/// sorted linear merge, same accumulation order as
/// [`SparseDistribution::dot`], so the result is bit-identical to
/// [`colocation_of`] on the equivalent distributions.
pub(crate) fn colocation_sparse(
    ids_a: &[u32],
    probs_a: &[f64],
    ids_b: &[u32],
    probs_b: &[f64],
) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut acc = 0.0;
    while i < ids_a.len() && j < ids_b.len() {
        match ids_a[i].cmp(&ids_b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += probs_a[i] * probs_b[j];
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// [`colocation_sparse`] bounded to the cell ids `lo..=hi`: each list's
/// merge starts at its first id ≥ `lo` and stops after its last id ≤
/// `hi`. When every cell the two lists share lies in that span — as it
/// does for the row-major id span of their support boxes' overlap — the
/// same products are added in the same order, so the result is
/// bit-identical to the unbounded merge.
pub(crate) fn colocation_sparse_within(
    ids_a: &[u32],
    probs_a: &[f64],
    ids_b: &[u32],
    probs_b: &[f64],
    (lo, hi): (u32, u32),
) -> f64 {
    let span = |ids: &[u32]| ids.partition_point(|&c| c < lo)..ids.partition_point(|&c| c <= hi);
    let (sa, sb) = (span(ids_a), span(ids_b));
    colocation_sparse(
        &ids_a[sa.clone()],
        &probs_a[sa],
        &ids_b[sb.clone()],
        &probs_b[sb],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::GaussianNoise;
    use crate::transition::SpeedKdeTransition;
    use sts_geo::{BoundingBox, Grid, Point};
    use sts_stats::Kernel;
    use sts_traj::Trajectory;

    fn grid() -> Grid {
        Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(100.0, 20.0)),
            2.0,
        )
        .unwrap()
    }

    fn walker(y: f64, t_offset: f64) -> Trajectory {
        Trajectory::from_xyt(&[
            (5.0, y, t_offset),
            (15.0, y, t_offset + 10.0),
            (25.0, y, t_offset + 20.0),
            (35.0, y, t_offset + 30.0),
        ])
        .unwrap()
    }

    #[test]
    fn co_moving_beats_distant() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let a = walker(10.0, 0.0);
        let b = walker(10.0, 5.0); // same route, asynchronous sampling
        let c = walker(2.0, 5.0); // parallel route 8 m away
        let ta = SpeedKdeTransition::from_trajectory(&a, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(1.0);
        let tb = SpeedKdeTransition::from_trajectory(&b, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(1.0);
        let tc = SpeedKdeTransition::from_trajectory(&c, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(1.0);
        let ea = StpEstimator::new(&g, &noise, &ta, &a);
        let eb = StpEstimator::new(&g, &noise, &tb, &b);
        let ec = StpEstimator::new(&g, &noise, &tc, &c);
        // At t = 15 s, a is between fixes, b is between fixes; both near
        // x ≈ 20 / 15 respectively.
        let cp_ab = colocation_probability(&ea, &eb, 15.0);
        let cp_ac = colocation_probability(&ea, &ec, 15.0);
        assert!(cp_ab > cp_ac, "co-moving {cp_ab} <= distant {cp_ac}");
        assert!(cp_ab > 0.0);
    }

    #[test]
    fn outside_either_span_is_zero() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let a = walker(10.0, 0.0);
        let b = walker(10.0, 100.0); // disjoint time span
        let ta = SpeedKdeTransition::from_trajectory(&a, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(1.0);
        let tb = SpeedKdeTransition::from_trajectory(&b, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(1.0);
        let ea = StpEstimator::new(&g, &noise, &ta, &a);
        let eb = StpEstimator::new(&g, &noise, &tb, &b);
        assert_eq!(colocation_probability(&ea, &eb, 15.0), 0.0);
        assert_eq!(colocation_probability(&ea, &eb, 115.0), 0.0);
    }

    #[test]
    fn cp_is_symmetric() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let a = walker(10.0, 0.0);
        let b = walker(12.0, 3.0);
        let ta = SpeedKdeTransition::from_trajectory(&a, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(1.0);
        let tb = SpeedKdeTransition::from_trajectory(&b, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(1.0);
        let ea = StpEstimator::new(&g, &noise, &ta, &a);
        let eb = StpEstimator::new(&g, &noise, &tb, &b);
        for t in [0.0, 7.0, 15.0, 30.0] {
            let ab = colocation_probability(&ea, &eb, t);
            let ba = colocation_probability(&eb, &ea, t);
            assert!((ab - ba).abs() < 1e-12);
        }
    }

    /// A random distribution over a `cols × rows` grid: a sorted set of
    /// cell ids clustered around one cell, with random weights.
    fn random_support(
        rng: &mut sts_rng::Xoshiro256pp,
        cols: u32,
        rows: u32,
    ) -> (Vec<u32>, Vec<f64>) {
        use sts_rng::Rng;
        let (c0, r0) = (rng.random_range(0..cols), rng.random_range(0..rows));
        let reach = rng.random_range(0..4u32);
        let mut ids = Vec::new();
        for row in r0.saturating_sub(reach)..=(r0 + reach).min(rows - 1) {
            for col in c0.saturating_sub(reach)..=(c0 + reach).min(cols - 1) {
                if rng.random_range(0..4u32) > 0 {
                    ids.push(row * cols + col);
                }
            }
        }
        let probs = ids.iter().map(|_| rng.random_range(0.0..1.0)).collect();
        (ids, probs)
    }

    #[test]
    fn bounded_merge_equals_unbounded_bit_for_bit() {
        use sts_geo::CellBox;
        use sts_rng::check::Checker;
        use sts_rng::{prop_assert, Xoshiro256pp};
        Checker::new().cases(512).seed(29).run(
            (1u32..12, 1u32..12, 0u64..u64::MAX),
            |(cols, rows, seed)| {
                let mut rng = Xoshiro256pp::seed_from_u64(seed);
                let (ia, pa) = random_support(&mut rng, cols, rows);
                let (ib, pb) = random_support(&mut rng, cols, rows);
                let cell_box = |ids: &[u32]| {
                    ids.iter().fold(CellBox::EMPTY, |cells, &id| {
                        cells.including(id % cols, id / cols)
                    })
                };
                let overlap = cell_box(&ia).intersection(&cell_box(&ib));
                let unbounded = colocation_sparse(&ia, &pa, &ib, &pb);
                if overlap.is_empty() {
                    prop_assert!(unbounded == 0.0, "disjoint boxes, CP {unbounded}");
                    return Ok(());
                }
                let id = |col: i64, row: i64| (row * cols as i64 + col) as u32;
                let span = (
                    id(overlap.cols.0, overlap.rows.0),
                    id(overlap.cols.1, overlap.rows.1),
                );
                let bounded = colocation_sparse_within(&ia, &pa, &ib, &pb, span);
                prop_assert!(
                    bounded.to_bits() == unbounded.to_bits(),
                    "bounded {bounded} vs unbounded {unbounded} over {span:?}"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn cp_bounded_by_one() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let a = walker(10.0, 0.0);
        let ta = SpeedKdeTransition::from_trajectory(&a, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(1.0);
        let ea = StpEstimator::new(&g, &noise, &ta, &a);
        for t in [0.0, 5.0, 10.0, 25.0] {
            let cp = colocation_probability(&ea, &ea, t);
            assert!((0.0..=1.0 + 1e-12).contains(&cp), "CP {cp} at {t}");
        }
    }
}
