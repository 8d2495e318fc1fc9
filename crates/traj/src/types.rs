//! Trajectory types (paper §III-A, Definition 2).

use std::fmt;
use sts_geo::{BoundingBox, Point};

/// One observation of a moving object: a location and its timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajPoint {
    /// Observed location in the local metric frame (meters).
    pub loc: Point,
    /// Timestamp in seconds.
    pub t: f64,
}

impl TrajPoint {
    /// Creates an observation.
    #[inline]
    pub const fn new(loc: Point, t: f64) -> Self {
        TrajPoint { loc, t }
    }

    /// Convenience constructor from raw coordinates.
    #[inline]
    pub const fn from_xy(x: f64, y: f64, t: f64) -> Self {
        TrajPoint {
            loc: Point::new(x, y),
            t,
        }
    }
}

/// Errors constructing a [`Trajectory`].
#[derive(Debug, Clone, PartialEq)]
pub enum TrajectoryError {
    /// A trajectory must contain at least one observation.
    Empty,
    /// Timestamps must be strictly increasing; the offending index is the
    /// later of the two.
    NonMonotonicTime {
        /// Index of the offending observation.
        index: usize,
    },
    /// A coordinate or timestamp was NaN or infinite.
    NonFinite {
        /// Index of the offending observation.
        index: usize,
    },
}

impl fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrajectoryError::Empty => write!(f, "trajectory must not be empty"),
            TrajectoryError::NonMonotonicTime { index } => {
                write!(
                    f,
                    "timestamps must strictly increase (violated at index {index})"
                )
            }
            TrajectoryError::NonFinite { index } => {
                write!(f, "non-finite coordinate or timestamp at index {index}")
            }
        }
    }
}

impl std::error::Error for TrajectoryError {}

/// A trajectory `Tra = {(ℓ1,t1) … (ℓn,tn)}`: a time-ordered sequence of
/// observed locations sampled from an underlying continuous path.
///
/// Invariants (validated at construction):
/// * non-empty;
/// * strictly increasing timestamps;
/// * all coordinates and timestamps finite.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    points: Vec<TrajPoint>,
}

impl Trajectory {
    /// Builds a trajectory, validating the invariants.
    pub fn new(points: Vec<TrajPoint>) -> Result<Self, TrajectoryError> {
        if points.is_empty() {
            return Err(TrajectoryError::Empty);
        }
        for (i, p) in points.iter().enumerate() {
            if !p.loc.is_finite() || !p.t.is_finite() {
                return Err(TrajectoryError::NonFinite { index: i });
            }
            if i > 0 && points[i - 1].t >= p.t {
                return Err(TrajectoryError::NonMonotonicTime { index: i });
            }
        }
        Ok(Trajectory { points })
    }

    /// Builds a trajectory from `(x, y, t)` triples.
    pub fn from_xyt(xyt: &[(f64, f64, f64)]) -> Result<Self, TrajectoryError> {
        Self::new(
            xyt.iter()
                .map(|&(x, y, t)| TrajPoint::from_xy(x, y, t))
                .collect(),
        )
    }

    /// The observations, in time order.
    #[inline]
    pub fn points(&self) -> &[TrajPoint] {
        &self.points
    }

    /// Number of observations `|Tra|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false` — trajectories are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First observation time `t1`.
    #[inline]
    pub fn start_time(&self) -> f64 {
        self.points[0].t
    }

    /// Last observation time `tn`.
    #[inline]
    pub fn end_time(&self) -> f64 {
        self.points[self.points.len() - 1].t
    }

    /// Duration `tn − t1` in seconds (zero for a single observation).
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end_time() - self.start_time()
    }

    /// The i-th observation.
    #[inline]
    pub fn get(&self, i: usize) -> TrajPoint {
        self.points[i]
    }

    /// Iterates over the timestamps.
    pub fn timestamps(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|p| p.t)
    }

    /// Iterates over the locations.
    pub fn locations(&self) -> impl Iterator<Item = Point> + '_ {
        self.points.iter().map(|p| p.loc)
    }

    /// Index of the last observation with `t_i <= t`, or `None` when `t`
    /// precedes the trajectory. Binary search: `O(log n)`.
    pub fn index_at_or_before(&self, t: f64) -> Option<usize> {
        // Negated comparison: a NaN query time precedes nothing and
        // returns `None` instead of corrupting the binary search.
        if !(t >= self.start_time()) {
            return None;
        }
        // Numeric order, not `total_cmp`: −0.0 must find an observation
        // at +0.0. The first point passes the predicate, so the
        // partition point is at least 1.
        Some(self.points.partition_point(|p| p.t <= t) - 1)
    }

    /// The pair of observations bracketing `t`
    /// (`t_i <= t <= t_{i+1}`), or `None` when `t` is outside the
    /// trajectory's time span. When `t` hits an observation exactly, that
    /// observation is returned as both ends.
    pub fn bracketing(&self, t: f64) -> Option<(TrajPoint, TrajPoint)> {
        // Negated form so a NaN query time yields `None`, not a panic.
        if !(t >= self.start_time() && t <= self.end_time()) {
            return None;
        }
        let i = self.index_at_or_before(t)?;
        if self.points[i].t == t {
            return Some((self.points[i], self.points[i]));
        }
        Some((self.points[i], self.points[i + 1]))
    }

    /// `true` when some observation has exactly timestamp `t`.
    pub fn observed_at(&self, t: f64) -> bool {
        self.index_at_or_before(t)
            .map(|i| self.points[i].t == t)
            .unwrap_or(false)
    }

    /// The observation speeds between consecutive points, in m/s —
    /// the paper's speed sample set `S` (§IV-B). Pairs with zero time
    /// delta are impossible by the strict-monotonicity invariant.
    /// Returns an empty vector for single-point trajectories.
    pub fn speed_samples(&self) -> Vec<f64> {
        self.points
            .windows(2)
            .map(|w| w[0].loc.distance(&w[1].loc) / (w[1].t - w[0].t))
            .collect()
    }

    /// Total travelled distance along the observation polyline, meters.
    pub fn travelled_distance(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].loc.distance(&w[1].loc))
            .sum()
    }

    /// Bounding box of the observed locations.
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::from_points(self.points.iter().map(|p| &p.loc))
            .expect("trajectory is non-empty")
    }

    /// Sub-trajectory keeping the observations at `indices` (must be
    /// strictly increasing). Returns `None` when `indices` is empty.
    pub fn subsequence(&self, indices: &[usize]) -> Option<Trajectory> {
        if indices.is_empty() {
            return None;
        }
        let pts: Vec<TrajPoint> = indices.iter().map(|&i| self.points[i]).collect();
        Some(Trajectory::new(pts).expect("subsequence preserves invariants"))
    }

    /// The merged, time-sorted list of timestamps of two trajectories —
    /// the evaluation points of the STS measure (§III-B). Duplicates are
    /// kept (each trajectory contributes its own co-location term in
    /// Eq. 10).
    pub fn merged_timestamps(&self, other: &Trajectory) -> Vec<f64> {
        let mut ts: Vec<f64> = self.timestamps().chain(other.timestamps()).collect();
        ts.sort_by(f64::total_cmp);
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj() -> Trajectory {
        Trajectory::from_xyt(&[
            (0.0, 0.0, 0.0),
            (10.0, 0.0, 10.0),
            (10.0, 20.0, 20.0),
            (30.0, 20.0, 40.0),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(Trajectory::new(vec![]), Err(TrajectoryError::Empty));
        assert_eq!(
            Trajectory::from_xyt(&[(0.0, 0.0, 5.0), (1.0, 0.0, 5.0)]),
            Err(TrajectoryError::NonMonotonicTime { index: 1 })
        );
        assert_eq!(
            Trajectory::from_xyt(&[(0.0, 0.0, 5.0), (1.0, 0.0, 1.0)]),
            Err(TrajectoryError::NonMonotonicTime { index: 1 })
        );
        assert_eq!(
            Trajectory::from_xyt(&[(f64::NAN, 0.0, 0.0)]),
            Err(TrajectoryError::NonFinite { index: 0 })
        );
        assert_eq!(
            Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (1.0, 0.0, f64::INFINITY)]),
            Err(TrajectoryError::NonFinite { index: 1 })
        );
    }

    #[test]
    fn basic_accessors() {
        let t = traj();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.start_time(), 0.0);
        assert_eq!(t.end_time(), 40.0);
        assert_eq!(t.duration(), 40.0);
        assert_eq!(t.get(1).loc, Point::new(10.0, 0.0));
    }

    #[test]
    fn index_at_or_before() {
        let t = traj();
        assert_eq!(t.index_at_or_before(-1.0), None);
        assert_eq!(t.index_at_or_before(0.0), Some(0));
        assert_eq!(t.index_at_or_before(5.0), Some(0));
        assert_eq!(t.index_at_or_before(10.0), Some(1));
        assert_eq!(t.index_at_or_before(39.9), Some(2));
        assert_eq!(t.index_at_or_before(40.0), Some(3));
        assert_eq!(t.index_at_or_before(100.0), Some(3));
    }

    #[test]
    fn negative_zero_finds_the_observation_at_positive_zero() {
        // `traj()` starts at +0.0, which −0.0 equals numerically but
        // precedes under `total_cmp`.
        let t = traj();
        assert_eq!(t.index_at_or_before(-0.0), Some(0));
        assert!(t.observed_at(-0.0));
        assert_eq!(t.bracketing(-0.0), t.bracketing(0.0));
        // Mid-trajectory, too: −0.0 is the observation at +0.0, not a
        // bridge from the point before it.
        let mid =
            Trajectory::from_xyt(&[(0.0, 0.0, -5.0), (1.0, 0.0, 0.0), (2.0, 0.0, 5.0)]).unwrap();
        assert_eq!(mid.index_at_or_before(-0.0), Some(1));
        assert!(mid.observed_at(-0.0));
    }

    #[test]
    fn bracketing() {
        let t = traj();
        assert_eq!(t.bracketing(-0.1), None);
        assert_eq!(t.bracketing(40.1), None);
        let (a, b) = t.bracketing(15.0).unwrap();
        assert_eq!(a.t, 10.0);
        assert_eq!(b.t, 20.0);
        let (a, b) = t.bracketing(10.0).unwrap();
        assert_eq!(a.t, 10.0);
        assert_eq!(b.t, 10.0);
        let (a, b) = t.bracketing(0.0).unwrap();
        assert_eq!((a.t, b.t), (0.0, 0.0));
    }

    #[test]
    fn observed_at() {
        let t = traj();
        assert!(t.observed_at(10.0));
        assert!(!t.observed_at(10.5));
        assert!(!t.observed_at(-3.0));
    }

    #[test]
    fn speed_samples() {
        let t = traj();
        let s = t.speed_samples();
        assert_eq!(s.len(), 3);
        assert!((s[0] - 1.0).abs() < 1e-12); // 10 m / 10 s
        assert!((s[1] - 2.0).abs() < 1e-12); // 20 m / 10 s
        assert!((s[2] - 1.0).abs() < 1e-12); // 20 m / 20 s
        let single = Trajectory::from_xyt(&[(0.0, 0.0, 0.0)]).unwrap();
        assert!(single.speed_samples().is_empty());
    }

    #[test]
    fn travelled_distance_and_bbox() {
        let t = traj();
        assert!((t.travelled_distance() - 50.0).abs() < 1e-12);
        let bb = t.bounding_box();
        assert_eq!(bb.min(), Point::new(0.0, 0.0));
        assert_eq!(bb.max(), Point::new(30.0, 20.0));
    }

    #[test]
    fn subsequence() {
        let t = traj();
        let sub = t.subsequence(&[0, 2]).unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(1).t, 20.0);
        assert!(t.subsequence(&[]).is_none());
    }

    #[test]
    fn merged_timestamps_sorted_with_duplicates() {
        let a = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (0.0, 0.0, 10.0)]).unwrap();
        let b = Trajectory::from_xyt(&[(0.0, 0.0, 5.0), (0.0, 0.0, 10.0)]).unwrap();
        let m = a.merged_timestamps(&b);
        assert_eq!(m, vec![0.0, 5.0, 10.0, 10.0]);
    }
}
