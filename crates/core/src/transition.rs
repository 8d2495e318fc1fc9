//! Transition-probability models (paper §IV-B, Eq. 7).
//!
//! The transition probability `P(ℓ', t' | ℓ, t)` is the probability that
//! an object moves from `ℓ` to `ℓ'` within `|t − t'|` seconds. The
//! paper's estimator is *personalized*: it evaluates the object's own
//! speed distribution (a KDE over the trajectory's consecutive-point
//! speeds) at `v = dis(ℓ, ℓ') / |t − t'|`:
//!
//! ```text
//! P(ℓ', t' | ℓ, t) = h · Q̂(v) = (1/|S|) Σ_{v'∈S} K((v − v')/h)
//! ```
//!
//! This module also provides the alternatives the paper compares against:
//! a *global* pooled-speed model (`STS-G`), the *frequency-based* grid
//! Markov model of prior work (`STS-F`, [24] [25] [34]), and the
//! Brownian-motion transition that §II identifies as the Gaussian-speed
//! special case of the paper's approach.

use crate::StsError;
use sts_geo::{Grid, Point};
use sts_stats::{Kde, Kernel, TransitionCounts};
use sts_traj::Trajectory;

/// A transition-probability model between two locations over a time
/// interval.
pub trait TransitionModel: Send + Sync {
    /// Probability weight of moving from `from` to `to` in `dt >= 0`
    /// seconds. For `dt == 0` the model degenerates to an indicator of
    /// staying put.
    fn probability(&self, from: Point, to: Point, dt: f64) -> f64;

    /// Displacement beyond which `probability` is negligible for the
    /// given interval — the truncation bound used by the S-T probability
    /// estimator. `f64::INFINITY` disables truncation.
    fn max_displacement(&self, _dt: f64) -> f64 {
        f64::INFINITY
    }

    /// `true` when the model depends only on the distance between the
    /// two locations (and on `dt`). Isotropic models let the S-T
    /// probability estimator evaluate transitions through a precomputed
    /// distance table instead of per-pair, which is the difference
    /// between `O(KDE samples)` and `O(1)` in the innermost loop.
    fn is_isotropic(&self) -> bool {
        false
    }

    /// For isotropic models: the probability as a function of distance.
    /// Must agree with [`TransitionModel::probability`] for any pair of
    /// points `d` apart. The default routes through `probability`.
    fn probability_by_distance(&self, d: f64, dt: f64) -> f64 {
        self.probability(Point::new(0.0, 0.0), Point::new(d, 0.0), dt)
    }
}

/// Shared "am I staying put" handling for the degenerate `dt == 0` case.
#[inline]
fn zero_interval_indicator(from: Point, to: Point) -> f64 {
    if from.distance_sq(&to) < 1e-12 {
        1.0
    } else {
        0.0
    }
}

/// The paper's personalized (or pooled) speed-KDE transition model.
///
/// # Grid-quantization smoothing
///
/// Eq. 4 evaluates transitions between grid-cell *centers*, which
/// quantizes displacements to the lattice of center distances. When the
/// speed distribution is very tight (σ̂ → 0 and thus `h` at its floor)
/// and the interval `Δt` is short, the continuous speed support can fall
/// entirely between lattice speeds — every transition evaluates to zero
/// and the bridge of Eq. 4 vanishes. The paper does not address this
/// (its datasets have diverse speed samples); we fold the positional
/// quantization `u` (half a cell per endpoint) into the evaluation
/// bandwidth: `h_eff(Δt) = √(h² + 2(u/Δt)²)`. With `u = 0` this is
/// exactly Eq. 7; as `Δt` grows the correction disappears.
#[derive(Debug, Clone)]
pub struct SpeedKdeTransition {
    kde: Kde,
    /// Largest speed sample, precomputed for the truncation bound.
    max_sample: f64,
    /// Positional quantization of transition endpoints (meters); see the
    /// type-level docs.
    position_uncertainty: f64,
}

impl SpeedKdeTransition {
    /// Builds the *personalized* model from a single trajectory's own
    /// speed samples (no data from other objects — §IV-B). Requires at
    /// least two points.
    pub fn from_trajectory(traj: &Trajectory, kernel: Kernel) -> Result<Self, StsError> {
        if traj.len() < 2 {
            return Err(StsError::TrajectoryTooShort { len: traj.len() });
        }
        Self::from_speed_samples(traj.speed_samples(), kernel)
    }

    /// Builds the model from explicit speed samples — used for the
    /// `STS-G` global variant (pool the samples of every trajectory) and
    /// for testing.
    pub fn from_speed_samples(samples: Vec<f64>, kernel: Kernel) -> Result<Self, StsError> {
        sts_obs::static_counter!("core.speed_models.built").incr();
        let kde = Kde::new(samples, kernel).map_err(StsError::Kde)?;
        let max_sample = kde
            .samples()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(SpeedKdeTransition {
            kde,
            max_sample,
            position_uncertainty: 0.0,
        })
    }

    /// Sets the positional quantization of transition endpoints (half a
    /// grid-cell side when evaluating between cell centers). See the
    /// type-level docs for why this matters.
    pub fn with_position_uncertainty(mut self, uncertainty: f64) -> Self {
        assert!(
            uncertainty >= 0.0 && uncertainty.is_finite(),
            "position uncertainty must be >= 0"
        );
        self.position_uncertainty = uncertainty;
        self
    }

    /// Effective evaluation bandwidth at interval `dt`.
    fn effective_bandwidth(&self, dt: f64) -> f64 {
        let h = self.kde.bandwidth();
        if self.position_uncertainty == 0.0 {
            return h;
        }
        let extra = self.position_uncertainty * std::f64::consts::SQRT_2 / dt;
        (h * h + extra * extra).sqrt()
    }

    /// Pools the speed samples of a whole dataset into one global model
    /// (the `STS-G` ablation: "a constant global speed distribution for
    /// all objects").
    pub fn global_from_trajectories<'a, I>(
        trajectories: I,
        kernel: Kernel,
    ) -> Result<Self, StsError>
    where
        I: IntoIterator<Item = &'a Trajectory>,
    {
        let samples: Vec<f64> = trajectories
            .into_iter()
            .flat_map(|t| t.speed_samples())
            .collect();
        Self::from_speed_samples(samples, kernel)
    }

    /// The underlying speed-density estimator.
    #[inline]
    pub fn kde(&self) -> &Kde {
        &self.kde
    }
}

impl TransitionModel for SpeedKdeTransition {
    fn probability(&self, from: Point, to: Point, dt: f64) -> f64 {
        debug_assert!(dt >= 0.0, "negative interval");
        if dt <= 0.0 {
            return zero_interval_indicator(from, to);
        }
        let v = from.distance(&to) / dt;
        // Eq. 7: h·Q̂(v), with the quantization-smoothed bandwidth.
        self.kde
            .scaled_density_with_bandwidth(v, self.effective_bandwidth(dt))
    }

    fn max_displacement(&self, dt: f64) -> f64 {
        let support = self.kde.kernel().support_radius();
        (self.max_sample + support * self.effective_bandwidth(dt)) * dt
    }

    fn is_isotropic(&self) -> bool {
        true
    }

    fn probability_by_distance(&self, d: f64, dt: f64) -> f64 {
        if dt <= 0.0 {
            return if d < 1e-6 { 1.0 } else { 0.0 };
        }
        self.kde
            .scaled_density_with_bandwidth(d / dt, self.effective_bandwidth(dt))
    }
}

/// Frequency-based grid Markov transition (prior work / `STS-F`):
/// `P(r' | r)` is the Laplace-smoothed frequency of `r → r'` steps among
/// consecutive observations across the *whole* dataset — universal for
/// all objects and independent of the interval length, which is exactly
/// the weakness the ablation exposes.
#[derive(Debug, Clone)]
pub struct FrequencyTransition {
    grid: Grid,
    counts: TransitionCounts,
}

impl FrequencyTransition {
    /// Learns the counts from every consecutive observation pair of every
    /// trajectory in the dataset.
    pub fn from_trajectories<'a, I>(grid: Grid, trajectories: I, laplace_alpha: f64) -> Self
    where
        I: IntoIterator<Item = &'a Trajectory>,
    {
        let mut counts = TransitionCounts::new(grid.len(), laplace_alpha);
        for t in trajectories {
            let cells: Vec<usize> = t
                .locations()
                .map(|p| grid.cell_at_clamped(p).index())
                .collect();
            counts.record_sequence(&cells);
        }
        FrequencyTransition { grid, counts }
    }

    /// The learned counts (for inspection/testing).
    #[inline]
    pub fn counts(&self) -> &TransitionCounts {
        &self.counts
    }
}

impl TransitionModel for FrequencyTransition {
    fn probability(&self, from: Point, to: Point, dt: f64) -> f64 {
        if dt <= 0.0 {
            return zero_interval_indicator(from, to);
        }
        let a = self.grid.cell_at_clamped(from).index();
        let b = self.grid.cell_at_clamped(to).index();
        self.counts.probability(a, b)
    }
}

/// Brownian-motion transition: a Gaussian random walk with diffusion
/// coefficient `q` (m²/s), `P(ℓ'|ℓ, Δt) ∝ exp(−d²/(2qΔt))`. The paper
/// (§II) observes the Brownian bridge is the special case of its
/// estimator under a Gaussian speed distribution. This is the
/// workspace's one Brownian model: [`Sts::brownian`](crate::Sts::brownian)
/// bridges with it, and the `brownian_special_case_behaves_like_gaussian_speed_sts`
/// test in `sts.rs` makes the comparison executable.
#[derive(Debug, Clone, Copy)]
pub struct BrownianTransition {
    diffusion: f64,
}

impl BrownianTransition {
    /// Creates the model; `diffusion > 0` in m²/s.
    pub fn new(diffusion: f64) -> Self {
        assert!(
            diffusion > 0.0 && diffusion.is_finite(),
            "diffusion must be positive"
        );
        BrownianTransition { diffusion }
    }
}

impl TransitionModel for BrownianTransition {
    fn probability(&self, from: Point, to: Point, dt: f64) -> f64 {
        if dt <= 0.0 {
            return zero_interval_indicator(from, to);
        }
        let var = self.diffusion * dt;
        // Normalization constant is shared by all targets at a fixed dt
        // and cancels under Algorithm 1's normalization; keep the bare
        // exponential for numerical headroom.
        (-from.distance_sq(&to) / (2.0 * var)).exp()
    }

    fn max_displacement(&self, dt: f64) -> f64 {
        6.0 * (self.diffusion * dt).sqrt()
    }

    fn is_isotropic(&self) -> bool {
        true
    }

    fn probability_by_distance(&self, d: f64, dt: f64) -> f64 {
        if dt <= 0.0 {
            return if d < 1e-6 { 1.0 } else { 0.0 };
        }
        (-(d * d) / (2.0 * self.diffusion * dt)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk_trajectory() -> Trajectory {
        // Constant 1 m/s in x with slight variation.
        Trajectory::from_xyt(&[
            (0.0, 0.0, 0.0),
            (1.0, 0.0, 1.0),
            (2.2, 0.0, 2.0),
            (3.1, 0.0, 3.0),
            (4.1, 0.0, 4.0),
            (5.0, 0.0, 5.0),
        ])
        .unwrap()
    }

    #[test]
    fn personalized_model_requires_two_points() {
        let single = Trajectory::from_xyt(&[(0.0, 0.0, 0.0)]).unwrap();
        assert!(matches!(
            SpeedKdeTransition::from_trajectory(&single, Kernel::Gaussian),
            Err(StsError::TrajectoryTooShort { len: 1 })
        ));
    }

    #[test]
    fn likely_speed_scores_higher_than_unlikely() {
        let model =
            SpeedKdeTransition::from_trajectory(&walk_trajectory(), Kernel::Gaussian).unwrap();
        let from = Point::new(0.0, 0.0);
        // Walker does ~1 m/s; moving 10 m in 10 s is likely, 100 m is not.
        let likely = model.probability(from, Point::new(10.0, 0.0), 10.0);
        let unlikely = model.probability(from, Point::new(100.0, 0.0), 10.0);
        assert!(likely > unlikely);
        assert!(likely > 0.0);
    }

    #[test]
    fn transition_depends_only_on_speed() {
        let model =
            SpeedKdeTransition::from_trajectory(&walk_trajectory(), Kernel::Gaussian).unwrap();
        let a = model.probability(Point::new(0.0, 0.0), Point::new(5.0, 0.0), 5.0);
        let b = model.probability(Point::new(100.0, 50.0), Point::new(100.0, 55.0), 5.0);
        assert!((a - b).abs() < 1e-12, "same speed must score the same");
        // Doubling distance and time keeps the speed and the score.
        let c = model.probability(Point::new(0.0, 0.0), Point::new(10.0, 0.0), 10.0);
        assert!((a - c).abs() < 1e-12);
    }

    #[test]
    fn zero_interval_is_stay_put_indicator() {
        let model =
            SpeedKdeTransition::from_trajectory(&walk_trajectory(), Kernel::Gaussian).unwrap();
        let p = Point::new(3.0, 3.0);
        assert_eq!(model.probability(p, p, 0.0), 1.0);
        assert_eq!(model.probability(p, Point::new(4.0, 3.0), 0.0), 0.0);
    }

    #[test]
    fn max_displacement_bounds_support() {
        let model =
            SpeedKdeTransition::from_trajectory(&walk_trajectory(), Kernel::Gaussian).unwrap();
        let dt = 7.0;
        let bound = model.max_displacement(dt);
        let from = Point::ORIGIN;
        let beyond = Point::new(bound * 1.01, 0.0);
        assert!(model.probability(from, beyond, dt) < 1e-12);
        // Displacement at the typical speed is well inside the bound.
        assert!(bound > 1.0 * dt);
    }

    #[test]
    fn global_model_pools_samples() {
        let slow = walk_trajectory();
        let fast =
            Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (10.0, 0.0, 1.0), (20.0, 0.0, 2.0)]).unwrap();
        let global =
            SpeedKdeTransition::global_from_trajectories([&slow, &fast], Kernel::Gaussian).unwrap();
        assert_eq!(
            global.kde().samples().len(),
            slow.speed_samples().len() + fast.speed_samples().len()
        );
        // The pooled model assigns non-negligible mass at both speeds.
        let from = Point::ORIGIN;
        assert!(global.probability(from, Point::new(1.0, 0.0), 1.0) > 1e-6);
        assert!(global.probability(from, Point::new(10.0, 0.0), 1.0) > 1e-6);
    }

    #[test]
    fn frequency_model_reflects_history() {
        use sts_geo::BoundingBox;
        let grid = Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(100.0, 10.0)),
            10.0,
        )
        .unwrap();
        // Everyone moves one cell to the right per step.
        let t1 =
            Trajectory::from_xyt(&[(5.0, 5.0, 0.0), (15.0, 5.0, 1.0), (25.0, 5.0, 2.0)]).unwrap();
        let t2 = Trajectory::from_xyt(&[(15.0, 5.0, 0.0), (25.0, 5.0, 1.0)]).unwrap();
        let model = FrequencyTransition::from_trajectories(grid.clone(), [&t1, &t2], 0.0);
        let right = model.probability(Point::new(15.0, 5.0), Point::new(25.0, 5.0), 1.0);
        let left = model.probability(Point::new(15.0, 5.0), Point::new(5.0, 5.0), 1.0);
        assert!(right > left);
        assert_eq!(left, 0.0); // never observed, no smoothing
                               // Frequency models ignore the interval length entirely.
        let long = model.probability(Point::new(15.0, 5.0), Point::new(25.0, 5.0), 100.0);
        assert_eq!(right, long);
    }

    #[test]
    fn frequency_model_smoothing_keeps_unseen_positive() {
        use sts_geo::BoundingBox;
        let grid = Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(30.0, 10.0)),
            10.0,
        )
        .unwrap();
        let t = Trajectory::from_xyt(&[(5.0, 5.0, 0.0), (15.0, 5.0, 1.0)]).unwrap();
        let model = FrequencyTransition::from_trajectories(grid, [&t], 1.0);
        assert!(model.probability(Point::new(5.0, 5.0), Point::new(25.0, 5.0), 1.0) > 0.0);
    }

    #[test]
    fn brownian_decays_with_distance_and_spreads_with_time() {
        let model = BrownianTransition::new(2.0);
        let from = Point::ORIGIN;
        let near = model.probability(from, Point::new(1.0, 0.0), 1.0);
        let far = model.probability(from, Point::new(5.0, 0.0), 1.0);
        assert!(near > far);
        // More time makes the same displacement more probable (unnormalized).
        let later = model.probability(from, Point::new(5.0, 0.0), 25.0);
        assert!(later > far);
        // Truncation bound is conservative.
        let dt = 4.0;
        let bound = model.max_displacement(dt);
        assert!(model.probability(from, Point::new(bound * 1.01, 0.0), dt) < 1e-7);
    }

    #[test]
    #[should_panic]
    fn brownian_rejects_bad_diffusion() {
        let _ = BrownianTransition::new(-1.0);
    }
}
