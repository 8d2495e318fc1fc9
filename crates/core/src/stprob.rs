//! Spatial-temporal probability estimation (paper §IV-A, Eqs. 1–5).
//!
//! `STP(r, t, Tra)` is the probability that the object whose trajectory
//! is `Tra` occupies grid cell `r` at time `t`:
//!
//! * at an observed timestamp it is the (normalized) location-noise
//!   distribution of that observation (Eq. 3);
//! * strictly between two observations `(ℓᵢ, tᵢ)` and `(ℓᵢ₊₁, tᵢ₊₁)` it
//!   is the Markov bridge of Eq. 4 — the product of the probability of
//!   reaching `r` from the noisy previous observation and the probability
//!   of reaching the noisy next observation from `r`, summed over the
//!   noise distributions;
//! * outside `[t₁, tₙ]` it is zero.
//!
//! Following Algorithm 1, the denominator of Eq. 4 is never computed: it
//! is constant over `r` at a fixed `t` and drops out in the per-timestamp
//! normalization.
//!
//! The estimator truncates the candidate-cell set using the noise model's
//! truncation radius and the transition model's maximum plausible
//! displacement; `stp_dense` evaluates every cell for validation. For
//! isotropic transition models the two sums of Eq. 4 are correlations
//! of each noise patch with an offset stencil over the candidates'
//! bounding box (`BoxKernel`); other models are evaluated pairwise.

use crate::dist::SparseDistribution;
use crate::noise::NoiseModel;
use crate::transition::TransitionModel;
use std::borrow::Cow;
use sts_geo::{CellBox, CellId, Grid, Point};
use sts_traj::Trajectory;

/// Per-trajectory S-T probability estimator. Borrowing is deliberate:
/// one trajectory's estimator is used against many timestamps while
/// computing a similarity matrix.
pub struct StpEstimator<'a> {
    grid: &'a Grid,
    noise: &'a dyn NoiseModel,
    transition: &'a dyn TransitionModel,
    traj: &'a Trajectory,
    /// Normalized location-noise distribution at each observation.
    obs_dists: Cow<'a, [SparseDistribution]>,
}

impl<'a> StpEstimator<'a> {
    /// Builds the estimator, precomputing the noise distribution of every
    /// observation (they are reused across all timestamps and pairs).
    pub fn new(
        grid: &'a Grid,
        noise: &'a dyn NoiseModel,
        transition: &'a dyn TransitionModel,
        traj: &'a Trajectory,
    ) -> Self {
        let obs_dists = Self::observation_distributions(grid, noise, traj);
        StpEstimator {
            grid,
            noise,
            transition,
            traj,
            obs_dists: Cow::Owned(obs_dists),
        }
    }

    /// Builds an estimator reusing observation distributions precomputed
    /// by [`StpEstimator::observation_distributions`] — the pattern used
    /// by `Sts` when one trajectory participates in many pairs.
    ///
    /// # Panics
    /// If `obs_dists.len() != traj.len()`.
    pub fn with_observation_distributions(
        grid: &'a Grid,
        noise: &'a dyn NoiseModel,
        transition: &'a dyn TransitionModel,
        traj: &'a Trajectory,
        obs_dists: &'a [SparseDistribution],
    ) -> Self {
        assert_eq!(
            obs_dists.len(),
            traj.len(),
            "one observation distribution per trajectory point"
        );
        StpEstimator {
            grid,
            noise,
            transition,
            traj,
            obs_dists: Cow::Borrowed(obs_dists),
        }
    }

    /// The normalized location-noise distribution of every observation of
    /// `traj` — the cacheable part of the estimator.
    pub fn observation_distributions(
        grid: &Grid,
        noise: &dyn NoiseModel,
        traj: &Trajectory,
    ) -> Vec<SparseDistribution> {
        traj.points()
            .iter()
            .map(|p| noise.weights(grid, p.loc).normalize())
            .collect()
    }

    /// The trajectory the estimator describes.
    #[inline]
    pub fn trajectory(&self) -> &Trajectory {
        self.traj
    }

    /// The precomputed, normalized observation distribution at index `i`.
    #[inline]
    pub fn observation_distribution(&self, i: usize) -> &SparseDistribution {
        &self.obs_dists[i]
    }

    /// `STP(·, t, Tra)` as a normalized sparse distribution over cells
    /// (Eq. 5). Returns the empty distribution when `t` lies outside the
    /// trajectory's time span or when no cell is reachable under the
    /// models (a measure-zero bridge).
    pub fn stp(&self, t: f64) -> SparseDistribution {
        let mut scratch = StpEvalScratch::default();
        self.stp_into_impl(t, false, &mut scratch);
        scratch.out
    }

    /// Like [`StpEstimator::stp`] but evaluating **every** grid cell as a
    /// bridge candidate — the faithful `O(|R|²)` computation of §V-C,
    /// kept for validation and the dense-vs-sparse ablation.
    pub fn stp_dense(&self, t: f64) -> SparseDistribution {
        let mut scratch = StpEvalScratch::default();
        self.stp_into_impl(t, true, &mut scratch);
        scratch.out
    }

    /// Allocation-free variant of [`StpEstimator::stp`]: evaluates the
    /// distribution into `scratch`'s reusable buffers and returns a
    /// borrow of the result. Bit-identical to `stp()` — the allocating
    /// path is a thin wrapper around this one (guarded by
    /// `stp_into_matches_stp_bitwise`).
    pub fn stp_into<'s>(&self, t: f64, scratch: &'s mut StpEvalScratch) -> &'s SparseDistribution {
        self.stp_into_impl(t, false, scratch);
        &scratch.out
    }

    /// Evaluates `STP(·, t)` into `scratch.out` and returns the kernel
    /// work it did (zero unless `t` needed an isotropic bridge).
    fn stp_into_impl(&self, t: f64, dense: bool, scratch: &mut StpEvalScratch) -> BridgeWork {
        sts_obs::static_counter!("core.stp.evals").incr();
        let StpEvalScratch {
            out,
            lens,
            table1,
            table2,
            kernel,
        } = scratch;
        out.clear();
        // The negated comparison also routes NaN query times to the
        // empty distribution (a NaN fails every comparison), honoring
        // the `stp()` contract for any input rather than panicking in
        // the binary search below.
        if !(t >= self.traj.start_time() && t <= self.traj.end_time()) {
            return BridgeWork::default();
        }
        let Some(i) = self.traj.index_at_or_before(t) else {
            return BridgeWork::default();
        };
        if self.traj.get(i).t == t {
            out.clone_from_dist(&self.obs_dists[i]);
            return BridgeWork::default();
        }
        // Strictly between observations i and i+1.
        let prev = self.traj.get(i);
        let next = self.traj.get(i + 1);
        let dt1 = t - prev.t;
        let dt2 = next.t - t;
        let before = &self.obs_dists[i];
        let after = &self.obs_dists[i + 1];
        if dense {
            lens.fill_all(self.grid);
        } else {
            self.candidate_lens(prev.loc, dt1, next.loc, dt2, lens);
        }
        // Candidates arrive sorted and unique (dense grid order), so
        // pushing positive weights directly yields exactly what
        // `from_weights` would: no resort, no dedup, same entry order.
        let mut work = BridgeWork::default();
        if self.transition.is_isotropic() {
            // Isotropic transition models are evaluated through a
            // per-bridge distance table, read once per cell offset into
            // a stencil (see `BoxKernel`).
            let step = (self.grid.cell_size() * 0.125).max(1e-3);
            table1.fill(self.transition, dt1, self.table_extent(dt1, step), step);
            table2.fill(self.transition, dt2, self.table_extent(dt2, step), step);
            work = kernel.bridge(
                self.grid,
                lens,
                (before, table1),
                (after, table2),
                out.entries_mut(),
            );
            sts_obs::static_counter!("core.stp.bridges").incr();
            sts_obs::static_counter!("core.stp.lens_cells").add(work.lens_cells);
            sts_obs::static_counter!("core.stp.kernel_terms").add(work.kernel_terms);
        } else {
            self.pairwise_bridge(lens, (before, dt1), (after, dt2), out.entries_mut());
        }
        out.normalize_in_place();
        sts_obs::static_counter!("core.stp.cells").add(out.entries().len() as u64);
        work
    }

    /// The reference bridge for any transition model: both sums of
    /// Eq. 4 term by term through `TransitionModel::probability`, per
    /// candidate. Non-isotropic models (STS-F's frequency transition,
    /// user models) take this path.
    fn pairwise_bridge(
        &self,
        lens: &Lens,
        (before, dt1): (&SparseDistribution, f64),
        (after, dt2): (&SparseDistribution, f64),
        entries: &mut Vec<(CellId, f64)>,
    ) {
        let cols = self.grid.cols();
        for &(col, row) in &lens.cells {
            let center = self.grid.center_at(col, row);
            // Σ_j f(r_j, ℓᵢ)·P(r, t | r_j, tᵢ)
            let mut p_in = 0.0;
            for &(rj, fj) in before.entries() {
                p_in += fj
                    * self
                        .transition
                        .probability(self.grid.center(rj), center, dt1);
            }
            if p_in == 0.0 {
                continue;
            }
            // Σ_k f(r_k, ℓᵢ₊₁)·P(r_k, tᵢ₊₁ | r, t)
            let mut p_out = 0.0;
            for &(rk, fk) in after.entries() {
                p_out += fk
                    * self
                        .transition
                        .probability(center, self.grid.center(rk), dt2);
            }
            let w = p_in * p_out;
            if w > 0.0 {
                entries.push((CellId(row * cols + col), w));
            }
        }
    }

    /// Largest distance a transition table must cover: the model's own
    /// negligibility bound, capped by the grid diagonal (no two cell
    /// centers are farther apart).
    fn table_extent(&self, dt: f64, step: f64) -> f64 {
        let diag = self.grid.area().width().hypot(self.grid.area().height());
        self.transition.max_displacement(dt).min(diag) + 2.0 * step
    }

    /// Candidate bridge cells: reachable both forward from the previous
    /// noisy observation and backward from the next one — the lens of
    /// two discs, scanned once over their common row and column range.
    /// When a radius is not finite, every cell is a candidate.
    fn candidate_lens(&self, prev: Point, dt1: f64, next: Point, dt2: f64, lens: &mut Lens) {
        let (r1, r2) = self.lens_radii(dt1, dt2);
        if !r1.is_finite() || !r2.is_finite() {
            lens.fill_all(self.grid);
            return;
        }
        lens.clear();
        self.grid
            .lens_cells(prev, r1, next, r2, |col, row| lens.push(col, row));
    }

    /// Radii of the two reachability discs of a bridge `dt1` after the
    /// previous observation and `dt2` before the next. A cell-size
    /// margin absorbs center-vs-point discretization.
    fn lens_radii(&self, dt1: f64, dt2: f64) -> (f64, f64) {
        let slack = self.noise.truncation_radius() + self.grid.cell_size();
        (
            self.transition.max_displacement(dt1) + slack,
            self.transition.max_displacement(dt2) + slack,
        )
    }

    /// A cell box holding every cell of `STP(·, t)` for a `t` strictly
    /// between observations `i` and `i + 1`: the box `candidate_lens`
    /// scans ([`Grid::lens_box`]), the whole grid when a radius is not
    /// finite. Never narrower than the lens, so a cell outside it has
    /// probability exactly 0.
    pub(crate) fn bridge_box(&self, i: usize, t: f64) -> CellBox {
        let (prev, next) = (self.traj.get(i), self.traj.get(i + 1));
        let (r1, r2) = self.lens_radii(t - prev.t, next.t - t);
        self.grid.lens_box(prev.loc, r1, next.loc, r2)
    }
}

/// Reusable buffers for [`StpEstimator::stp_into`]: the output
/// distribution plus every intermediate the bridge evaluation needs
/// (the candidate lens, the two per-bridge distance tables and the
/// stencil kernel's buffers). One scratch per worker thread removes all
/// per-evaluation allocation from the STS hot path.
#[derive(Default)]
pub struct StpEvalScratch {
    out: SparseDistribution,
    lens: Lens,
    table1: DistTable,
    table2: DistTable,
    kernel: BoxKernel,
}

impl StpEvalScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        StpEvalScratch::default()
    }

    /// The distribution produced by the most recent `stp_into` call.
    pub fn distribution(&self) -> &SparseDistribution {
        &self.out
    }
}

/// What one isotropic bridge cost: the unit the `core.stp.lens_cells`
/// and `core.stp.kernel_terms` counters add up.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct BridgeWork {
    /// Candidate cells.
    lens_cells: u64,
    /// Patch-cell × box-cell multiply-adds over both sides.
    kernel_terms: u64,
}

/// The candidate cells of one bridge as `(col, row)` in dense order,
/// with their bounding box.
#[derive(Default)]
struct Lens {
    cells: Vec<(u32, u32)>,
    cols: (u32, u32),
    rows: (u32, u32),
}

impl Lens {
    fn clear(&mut self) {
        self.cells.clear();
        self.cols = (u32::MAX, 0);
        self.rows = (u32::MAX, 0);
    }

    #[inline]
    fn push(&mut self, col: u32, row: u32) {
        self.cells.push((col, row));
        self.cols = (self.cols.0.min(col), self.cols.1.max(col));
        self.rows = (self.rows.0.min(row), self.rows.1.max(row));
    }

    fn fill_all(&mut self, grid: &Grid) {
        self.clear();
        for row in 0..grid.rows() {
            for col in 0..grid.cols() {
                self.push(col, row);
            }
        }
    }

    /// Width and height of the bounding box (zero when empty).
    fn box_dims(&self) -> (usize, usize) {
        if self.cells.is_empty() {
            return (0, 0);
        }
        (
            (self.cols.1 - self.cols.0) as usize + 1,
            (self.rows.1 - self.rows.0) as usize + 1,
        )
    }
}

/// The isotropic bridge as two box correlations.
///
/// On a regular grid an isotropic transition between two cell centers
/// depends only on their integer offset `(dx, dy)`: it is
/// `table(cell·√(dx²+dy²))`. So each side of a bridge reads its table
/// once per offset into a stencil `S[|dy|][dx]` (signed `dx`, so a
/// stencil row is one contiguous slice), and its sum of Eq. 4 over the
/// candidates' bounding box becomes, for each patch entry `(r_j, f_j)`
/// in entry order and each box row, `acc_row += f_j · stencil_row`.
/// Every box cell's sum therefore adds the same terms in the same order
/// as a per-candidate loop over the patch, bit for bit; the compiler
/// vectorises across cells, never across the terms of one sum.
#[derive(Default)]
struct BoxKernel {
    patch: Vec<(u32, u32, f64)>,
    stencil: Vec<f64>,
    p_in: Vec<f64>,
    p_out: Vec<f64>,
}

impl BoxKernel {
    /// Writes the unnormalized bridge weight `P_in·P_out` of every lens
    /// cell with `P_in ≠ 0` and a positive weight into `entries`, in
    /// the lens's (dense) order.
    fn bridge(
        &mut self,
        grid: &Grid,
        lens: &Lens,
        before: (&SparseDistribution, &DistTable),
        after: (&SparseDistribution, &DistTable),
        entries: &mut Vec<(CellId, f64)>,
    ) -> BridgeWork {
        let BoxKernel {
            patch,
            stencil,
            p_in,
            p_out,
        } = self;
        let (w, h) = lens.box_dims();
        correlate(grid, lens, before, patch, stencil, p_in);
        correlate(grid, lens, after, patch, stencil, p_out);
        let (col0, row0) = (lens.cols.0, lens.rows.0);
        let cols = grid.cols();
        for &(col, row) in &lens.cells {
            let k = (row - row0) as usize * w + (col - col0) as usize;
            let p_in = p_in[k];
            if p_in == 0.0 {
                continue;
            }
            let weight = p_in * p_out[k];
            if weight > 0.0 {
                entries.push((CellId(row * cols + col), weight));
            }
        }
        BridgeWork {
            lens_cells: lens.cells.len() as u64,
            kernel_terms: ((before.0.len() + after.0.len()) * w * h) as u64,
        }
    }
}

/// `acc[cell] = Σ_j f_j · table(‖cell − r_j‖)` over every cell of the
/// lens's bounding box (row-major), the sum running over `side`'s
/// entries in entry order.
fn correlate(
    grid: &Grid,
    lens: &Lens,
    (side, table): (&SparseDistribution, &DistTable),
    patch: &mut Vec<(u32, u32, f64)>,
    stencil: &mut Vec<f64>,
    acc: &mut Vec<f64>,
) {
    let (w, h) = lens.box_dims();
    acc.clear();
    acc.resize(w * h, 0.0);
    patch.clear();
    patch.extend(side.entries().iter().map(|&(id, f)| {
        let (col, row) = grid.col_row(id);
        (col, row, f)
    }));
    if patch.is_empty() || acc.is_empty() {
        return;
    }
    let (mut pc0, mut pc1, mut pr0, mut pr1) = (u32::MAX, 0, u32::MAX, 0);
    for &(col, row, _) in patch.iter() {
        (pc0, pc1) = (pc0.min(col), pc1.max(col));
        (pr0, pr1) = (pr0.min(row), pr1.max(row));
    }
    let ((col0, col1), (row0, row1)) = (lens.cols, lens.rows);
    // Offsets box cell − patch cell: dx ∈ [dx0, dx0 + sw), and |dy|
    // between the nearest and farthest row pair.
    let dx0 = col0 as i64 - pc1 as i64;
    let sw = (col1 as i64 - pc0 as i64 - dx0 + 1) as usize;
    let (dy_lo, dy_hi) = (row0 as i64 - pr1 as i64, row1 as i64 - pr0 as i64);
    let ady0 = if dy_lo <= 0 && dy_hi >= 0 {
        0
    } else {
        dy_lo.abs().min(dy_hi.abs())
    };
    let ady1 = dy_lo.abs().max(dy_hi.abs());
    let cell = grid.cell_size();
    stencil.clear();
    for ady in ady0..=ady1 {
        stencil.extend((0..sw as i64).map(|k| {
            let dx = dx0 + k;
            offset_probability(table, cell, dx * dx + ady * ady)
        }));
    }
    for &(pc, pr, f) in patch.iter() {
        // This entry's dx for box column col0.
        let first = (col0 as i64 - pc as i64 - dx0) as usize;
        for (row, acc_row) in (row0..=row1).zip(acc.chunks_exact_mut(w)) {
            let ady = (row as i64 - pr as i64).abs();
            let s = &stencil[(ady - ady0) as usize * sw + first..][..w];
            for (a, &p) in acc_row.iter_mut().zip(s) {
                *a += f * p;
            }
        }
    }
}

/// The transition between two cell centers `√d2` cells apart.
#[inline]
fn offset_probability(table: &DistTable, cell: f64, d2: i64) -> f64 {
    table.eval(cell * (d2 as f64).sqrt())
}

/// Linear-interpolation lookup table for an isotropic transition's
/// probability-by-distance at a fixed interval. Distances beyond the
/// table evaluate to 0 (the model declared them negligible via
/// `max_displacement`, or they exceed the grid diagonal and cannot
/// occur).
#[derive(Default)]
struct DistTable {
    step_inv: f64,
    values: Vec<f64>,
}

impl DistTable {
    fn fill(&mut self, model: &dyn TransitionModel, dt: f64, max_d: f64, step: f64) {
        let n = (max_d / step).ceil().max(1.0) as usize + 2;
        self.step_inv = 1.0 / step;
        self.values.clear();
        self.values
            .extend((0..n).map(|i| model.probability_by_distance(i as f64 * step, dt)));
    }

    #[inline]
    fn eval(&self, d: f64) -> f64 {
        let x = d * self.step_inv;
        let i = x as usize;
        if i + 1 >= self.values.len() {
            return 0.0;
        }
        let frac = x - i as f64;
        self.values[i] * (1.0 - frac) + self.values[i + 1] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{DeterministicNoise, GaussianNoise};
    use crate::transition::{BrownianTransition, SpeedKdeTransition};
    use sts_geo::BoundingBox;
    use sts_stats::Kernel;

    fn grid() -> Grid {
        Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(100.0, 20.0)),
            2.0,
        )
        .unwrap()
    }

    /// Walker going +x at ~1 m/s with 10 s between fixes.
    fn walker() -> Trajectory {
        Trajectory::from_xyt(&[
            (5.0, 10.0, 0.0),
            (15.0, 10.0, 10.0),
            (25.0, 10.0, 20.0),
            (35.0, 10.0, 30.0),
            (45.0, 10.0, 40.0),
        ])
        .unwrap()
    }

    #[test]
    fn stp_outside_span_is_empty() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = walker();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        assert!(est.stp(-1.0).is_empty());
        assert!(est.stp(41.0).is_empty());
    }

    #[test]
    fn stp_at_observation_is_noise_distribution() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = walker();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        let d = est.stp(10.0);
        assert_eq!(&d, est.observation_distribution(1));
        assert!((d.total() - 1.0).abs() < 1e-12);
        // Peak cell contains the observation.
        let peak = d
            .entries()
            .iter()
            .cloned()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, g.cell_at(Point::new(15.0, 10.0)).unwrap());
    }

    #[test]
    fn bridge_concentrates_between_observations() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = walker();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        let d = est.stp(15.0); // halfway between fixes at x=15 and x=25
        assert!(!d.is_empty());
        assert!((d.total() - 1.0).abs() < 1e-9);
        // Expected position is near x = 20.
        let mut ex = 0.0;
        for &(c, w) in d.entries() {
            ex += g.center(c).x * w;
        }
        assert!((ex - 20.0).abs() < 2.5, "expected x ≈ 20, got {ex}");
        // Mass near the expected position dominates mass far away.
        let near = d.get(g.cell_at(Point::new(20.0, 10.0)).unwrap());
        let far = d.get(g.cell_at(Point::new(80.0, 10.0)).unwrap());
        assert!(near > far);
    }

    #[test]
    fn bridge_mass_grows_toward_the_next_fix() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = walker();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        let near_25 = |d: &SparseDistribution| d.get(g.cell_at(Point::new(25.0, 10.0)).unwrap());
        let early = est.stp(11.0);
        let late = est.stp(19.0);
        assert!(near_25(&late) > near_25(&early));
    }

    #[test]
    fn sparse_matches_dense() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = walker();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        for t in [3.0, 12.5, 15.0, 27.9, 36.0] {
            let sparse = est.stp(t);
            let dense = est.stp_dense(t);
            let mut tv = 0.0;
            for &(c, w) in dense.entries() {
                tv += (w - sparse.get(c)).abs();
            }
            for &(c, w) in sparse.entries() {
                if dense.get(c) == 0.0 {
                    tv += w;
                }
            }
            assert!(tv < 1e-6, "t={t}: TV distance {tv}");
        }
    }

    #[test]
    fn stp_into_matches_stp_bitwise() {
        // Satellite guarantee: the scratch path must EQUAL the
        // allocating path — bit-for-bit, not just within tolerance —
        // across observed stamps, bridge times, and out-of-span times,
        // with the scratch reused (dirty) between evaluations.
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = walker();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        let mut scratch = StpEvalScratch::new();
        for t in [
            -1.0,
            0.0,
            3.0,
            10.0,
            12.5,
            15.0,
            27.9,
            36.0,
            40.0,
            41.0,
            f64::NAN,
        ] {
            let alloc = est.stp(t);
            let scratched = est.stp_into(t, &mut scratch);
            assert_eq!(alloc.len(), scratched.len(), "t={t}: cell count");
            for (&(ca, wa), &(cb, wb)) in alloc.entries().iter().zip(scratched.entries()) {
                assert_eq!(ca, cb, "t={t}: cell id");
                assert_eq!(wa.to_bits(), wb.to_bits(), "t={t}: weight bits");
            }
            assert_eq!(scratch.distribution().len(), alloc.len());
        }
    }

    #[test]
    fn deterministic_noise_bridge_still_spreads() {
        let g = grid();
        let noise = DeterministicNoise;
        let traj = walker();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        let d = est.stp(15.0);
        // Even with point observations, the bridge is uncertain.
        assert!(d.len() > 1);
        assert!((d.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_point_trajectory() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = Trajectory::from_xyt(&[(50.0, 10.0, 5.0)]).unwrap();
        // A single-point trajectory has no speed samples; use a stand-in
        // transition model.
        let trans = SpeedKdeTransition::from_speed_samples(vec![1.0], Kernel::Gaussian).unwrap();
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        assert!(!est.stp(5.0).is_empty());
        assert!(est.stp(5.1).is_empty());
        assert!(est.stp(4.9).is_empty());
    }

    #[test]
    fn distance_table_path_matches_pairwise_path() {
        use crate::transition::TransitionModel;
        use sts_geo::Point as P;

        /// Same model, isotropy hidden — forces the pairwise slow path.
        struct NonIso(SpeedKdeTransition);
        impl TransitionModel for NonIso {
            fn probability(&self, from: P, to: P, dt: f64) -> f64 {
                self.0.probability(from, to, dt)
            }
            fn max_displacement(&self, dt: f64) -> f64 {
                self.0.max_displacement(dt)
            }
            // is_isotropic stays false (default).
        }

        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = walker();
        let fast = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let slow = NonIso(fast.clone());
        let est_fast = StpEstimator::new(&g, &noise, &fast, &traj);
        let est_slow = StpEstimator::new(&g, &noise, &slow, &traj);
        for t in [3.0, 12.5, 15.0, 27.9, 36.0] {
            let a = est_fast.stp(t);
            let b = est_slow.stp(t);
            let mut tv = 0.0;
            for &(c, w) in a.entries() {
                tv += (w - b.get(c)).abs();
            }
            for &(c, w) in b.entries() {
                if a.get(c) == 0.0 {
                    tv += w;
                }
            }
            // Interpolation at cell/8 resolution against a near-Dirac
            // speed density: sub-0.2% total-variation error.
            assert!(tv < 2e-3, "t={t}: table vs pairwise TV {tv}");
        }
    }

    /// The bridge at `t` recomputed per candidate from what the last
    /// `stp_into_impl` call left in `scratch` (its lens and tables):
    /// each candidate's two sums term by term, in entry order, through
    /// the same `offset_probability` the stencil reads.
    fn scalar_stencil_bridge(
        est: &StpEstimator<'_>,
        t: f64,
        scratch: &StpEvalScratch,
    ) -> SparseDistribution {
        let i = est.traj.index_at_or_before(t).unwrap();
        let g = est.grid;
        let sum = |side: &SparseDistribution, table: &DistTable, col: u32, row: u32| {
            let mut acc = 0.0;
            for &(id, f) in side.entries() {
                let (c, r) = g.col_row(id);
                let (dx, dy) = (col as i64 - c as i64, row as i64 - r as i64);
                acc += f * offset_probability(table, g.cell_size(), dx * dx + dy * dy);
            }
            acc
        };
        let mut out = SparseDistribution::empty();
        let entries = out.entries_mut();
        for &(col, row) in &scratch.lens.cells {
            let p_in = sum(&est.obs_dists[i], &scratch.table1, col, row);
            if p_in == 0.0 {
                continue;
            }
            let w = p_in * sum(&est.obs_dists[i + 1], &scratch.table2, col, row);
            if w > 0.0 {
                entries.push((CellId(row * g.cols() + col), w));
            }
        }
        out.normalize_in_place();
        out
    }

    fn assert_bit_equal(a: &SparseDistribution, b: &SparseDistribution, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: cell count");
        for (&(ca, wa), &(cb, wb)) in a.entries().iter().zip(b.entries()) {
            assert_eq!(ca, cb, "{what}: cell id");
            assert_eq!(wa.to_bits(), wb.to_bits(), "{what}: weight bits of {ca}");
        }
    }

    #[test]
    fn box_correlation_matches_scalar_stencil_loop() {
        let kde = |g: &Grid, traj: &Trajectory| {
            SpeedKdeTransition::from_trajectory(traj, Kernel::Gaussian)
                .unwrap()
                .with_position_uncertainty(g.cell_size() / 2.0)
        };
        // 95 × 21 m over 2 m cells: the last column and row hang over.
        let ragged = Grid::new(
            BoundingBox::new(Point::new(-1.0, 0.5), Point::new(94.0, 21.5)),
            2.0,
        )
        .unwrap();
        assert_eq!((ragged.cols(), ragged.rows()), (48, 11));
        let single =
            Grid::new(BoundingBox::new(Point::ORIGIN, Point::new(5.0, 5.0)), 10.0).unwrap();
        // Starts and ends in grid corners: the noise patches there are
        // clipped by the border.
        let cornered = Trajectory::from_xyt(&[
            (0.3, 0.4, 0.0),
            (8.0, 6.0, 10.0),
            (20.0, 12.0, 22.0),
            (99.5, 19.8, 90.0),
        ])
        .unwrap();
        let tiny =
            Trajectory::from_xyt(&[(1.0, 1.0, 0.0), (2.0, 2.0, 10.0), (3.0, 1.0, 20.0)]).unwrap();
        let cases: [(&str, Grid, Trajectory, &[f64]); 4] = [
            ("walker", grid(), walker(), &[3.0, 12.5, 15.0, 27.9, 36.0]),
            ("ragged", ragged, walker(), &[3.0, 15.0, 27.9, 36.0]),
            ("single cell", single, tiny, &[5.0, 12.5]),
            ("corner", grid(), cornered, &[0.5, 4.0, 16.0, 60.0, 89.9]),
        ];
        let noise = GaussianNoise::new(2.0);
        let mut scratch = StpEvalScratch::new();
        for (name, g, traj, times) in &cases {
            let trans = kde(g, traj);
            let est = StpEstimator::new(g, &noise, &trans, traj);
            for &t in times.iter() {
                for dense in [false, true] {
                    let what = format!("{name} t={t} dense={dense}");
                    est.stp_into_impl(t, dense, &mut scratch);
                    assert!(!scratch.out.is_empty(), "{what}: empty bridge");
                    let scalar = scalar_stencil_bridge(&est, t, &scratch);
                    assert_bit_equal(&scratch.out, &scalar, &what);
                }
            }
        }
        // `stp_dense` is the same kernel over every cell.
        let (g, traj) = (grid(), walker());
        let trans = kde(&g, &traj);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        est.stp_into_impl(15.0, true, &mut scratch);
        assert_eq!(scratch.lens.cells.len(), g.len());
        assert_bit_equal(&est.stp_dense(15.0), &scratch.out, "stp_dense");
    }

    #[test]
    fn bridge_box_holds_every_lens_cell() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        // A walker, and one whose last leg crosses the grid in 60 s.
        let cornered =
            Trajectory::from_xyt(&[(0.3, 0.4, 0.0), (8.0, 6.0, 10.0), (99.5, 19.8, 70.0)]).unwrap();
        let mut scratch = StpEvalScratch::new();
        for (traj, times) in [
            (walker(), &[0.5, 3.0, 12.5, 15.0, 27.9, 39.9][..]),
            (cornered, &[0.1, 5.0, 10.5, 40.0, 69.9][..]),
        ] {
            let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
                .unwrap()
                .with_position_uncertainty(g.cell_size() / 2.0);
            let est = StpEstimator::new(&g, &noise, &trans, &traj);
            for &t in times {
                let i = traj.index_at_or_before(t).unwrap();
                let b = est.bridge_box(i, t);
                est.stp_into_impl(t, false, &mut scratch);
                assert!(!scratch.lens.cells.is_empty(), "t={t}: empty lens");
                let lens_box = scratch
                    .lens
                    .cells
                    .iter()
                    .fold(CellBox::EMPTY, |acc, &(col, row)| acc.including(col, row));
                assert_eq!(b.intersection(&lens_box), lens_box, "t={t}: {b:?}");
                for &(id, _) in scratch.out.entries() {
                    let (col, row) = g.col_row(id);
                    assert!(b.intersects(&CellBox::EMPTY.including(col, row)), "t={t}");
                }
            }
        }
        // A model with no finite reach (the trait's default
        // `max_displacement`) bounds nothing: the whole grid.
        struct Unbounded(BrownianTransition);
        impl TransitionModel for Unbounded {
            fn probability(&self, from: Point, to: Point, dt: f64) -> f64 {
                self.0.probability(from, to, dt)
            }
        }
        let (traj, model) = (walker(), Unbounded(BrownianTransition::new(4.0)));
        let est = StpEstimator::new(&g, &noise, &model, &traj);
        assert_eq!(est.bridge_box(1, 15.0), g.full_box());
    }

    #[test]
    fn kernel_work_is_pinned_on_the_walker() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = walker();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        let counters = [
            "core.stp.bridges",
            "core.stp.lens_cells",
            "core.stp.kernel_terms",
        ];
        let read = || counters.map(|c| sts_obs::metrics::counter(c).get());
        let base = read();
        let mut scratch = StpEvalScratch::new();
        let mut total = BridgeWork::default();
        let mut bridges = 0;
        for t in [0.0, 3.0, 10.0, 12.5, 15.0, 27.9, 36.0, 41.0] {
            let work = est.stp_into_impl(t, false, &mut scratch);
            if traj.observed_at(t) || !(0.0..=40.0).contains(&t) {
                assert_eq!(work, BridgeWork::default(), "t={t}: not a bridge");
                continue;
            }
            bridges += 1;
            let i = traj.index_at_or_before(t).unwrap();
            let patch = est.obs_dists[i].len() + est.obs_dists[i + 1].len();
            let (w, h) = scratch.lens.box_dims();
            assert_eq!(work.lens_cells, scratch.lens.cells.len() as u64, "t={t}");
            assert_eq!(work.kernel_terms, (patch * w * h) as u64, "t={t}");
            total.lens_cells += work.lens_cells;
            total.kernel_terms += work.kernel_terms;
        }
        assert_eq!(bridges, 5);
        assert_eq!(
            total,
            BridgeWork {
                lens_cells: 842,
                kernel_terms: 82_740,
            }
        );
        // Other tests evaluate STP concurrently, so the process-wide
        // counters moved by at least this test's own work.
        let delta: Vec<u64> = read().iter().zip(base).map(|(now, b)| now - b).collect();
        assert!(delta[0] >= 5, "bridges {delta:?}");
        assert!(delta[1] >= total.lens_cells, "lens cells {delta:?}");
        assert!(delta[2] >= total.kernel_terms, "kernel terms {delta:?}");
    }

    #[test]
    fn nan_query_time_yields_empty_stp() {
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = walker();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        assert!(est.stp(f64::NAN).is_empty());
        assert!(est.stp_dense(f64::NAN).is_empty());
        assert!(est.stp(f64::INFINITY).is_empty());
        assert!(est.stp(f64::NEG_INFINITY).is_empty());
    }

    /// Sanity for a distribution: non-empty, every weight finite, total
    /// mass 1.
    fn assert_finite_normalized(d: &SparseDistribution, what: &str) {
        assert!(!d.is_empty(), "{what}: empty");
        for &(_, w) in d.entries() {
            assert!(w.is_finite() && w >= 0.0, "{what}: weight {w}");
        }
        assert!(
            (d.total() - 1.0).abs() < 1e-9,
            "{what}: total {}",
            d.total()
        );
    }

    #[test]
    fn zero_variance_speed_model_gives_finite_normalized_stp() {
        // Perfectly constant speed: σ̂ = 0, so Silverman's bandwidth
        // degenerates and the KDE takes the bandwidth-floor path.
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let traj = Trajectory::from_xyt(&[
            (5.0, 10.0, 0.0),
            (15.0, 10.0, 10.0),
            (25.0, 10.0, 20.0),
            (35.0, 10.0, 30.0),
        ])
        .unwrap();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        assert_eq!(trans.kde().bandwidth(), sts_stats::Kde::BANDWIDTH_FLOOR);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        for t in [0.0, 5.0, 13.7, 25.0, 30.0] {
            assert_finite_normalized(&est.stp(t), &format!("t={t}"));
        }
    }

    #[test]
    fn repaired_duplicate_stamps_give_finite_normalized_stp() {
        // Identical consecutive timestamps cannot enter a Trajectory;
        // the degraded path is raw stream → repair → STP. The repaired
        // trajectory must produce a proper distribution everywhere.
        use sts_traj::repair::{repair, RepairConfig};
        let raw = vec![
            sts_traj::TrajPoint::from_xy(5.0, 10.0, 0.0),
            sts_traj::TrajPoint::from_xy(6.0, 10.0, 0.0), // duplicate stamp
            sts_traj::TrajPoint::from_xy(15.0, 10.0, 10.0),
            sts_traj::TrajPoint::from_xy(15.5, 10.0, 10.0), // duplicate stamp
            sts_traj::TrajPoint::from_xy(25.0, 10.0, 20.0),
        ];
        let out = repair(&raw, &RepairConfig::default()).unwrap();
        assert_eq!(out.report.dropped_duplicate_stamps, 2);
        assert_eq!(out.trajectories.len(), 1);
        let traj = &out.trajectories[0];
        let g = grid();
        let noise = GaussianNoise::new(2.0);
        let trans = SpeedKdeTransition::from_trajectory(traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, traj);
        for t in [0.0, 4.2, 10.0, 15.0, 20.0] {
            assert_finite_normalized(&est.stp(t), &format!("t={t}"));
        }
    }

    #[test]
    fn single_cell_grid_concentrates_all_mass() {
        // A one-cell grid: every distribution must be exactly {cell: 1}.
        let g = Grid::new(BoundingBox::new(Point::ORIGIN, Point::new(5.0, 5.0)), 10.0).unwrap();
        assert_eq!(g.len(), 1);
        let noise = GaussianNoise::new(2.0);
        let traj =
            Trajectory::from_xyt(&[(1.0, 1.0, 0.0), (2.0, 2.0, 10.0), (3.0, 1.0, 20.0)]).unwrap();
        let trans = SpeedKdeTransition::from_trajectory(&traj, Kernel::Gaussian)
            .unwrap()
            .with_position_uncertainty(g.cell_size() / 2.0);
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        for t in [0.0, 5.0, 10.0, 12.5, 20.0] {
            let d = est.stp(t);
            assert_finite_normalized(&d, &format!("t={t}"));
            assert_eq!(d.len(), 1);
            assert!((d.get(CellId(0)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn teleporting_trajectory_yields_empty_bridge() {
        // Two fixes so far apart in so little time that no speed in the
        // personal distribution can bridge them: STP should be empty
        // rather than garbage.
        let g = grid();
        let noise = GaussianNoise::new(1.0);
        let traj = Trajectory::from_xyt(&[
            (5.0, 10.0, 0.0),
            (6.0, 10.0, 1.0),
            (7.0, 10.0, 2.0),
            // 90 m in one second — unreachable at ~1 m/s.
            (97.0, 10.0, 3.0),
        ])
        .unwrap();
        // Compact-support kernel around 1 m/s: 90 m/s is impossible.
        let trans =
            SpeedKdeTransition::from_speed_samples(vec![0.9, 1.0, 1.1], Kernel::Epanechnikov)
                .unwrap();
        let est = StpEstimator::new(&g, &noise, &trans, &traj);
        let d = est.stp(2.5);
        assert!(d.is_empty(), "unbridgeable gap should give empty STP");
    }
}
