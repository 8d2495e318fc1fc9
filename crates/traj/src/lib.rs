#![warn(missing_docs)]
//! # sts-traj — trajectory substrate
//!
//! Trajectory and path types (paper §III Definitions 1–2), the sampling
//! and noise processes used by the evaluation (§VI), plain-text I/O, and
//! the synthetic workload generators substituting for the paper's Porto
//! taxi and shopping-mall datasets (see `DESIGN.md` §2 for the
//! substitution rationale).
//!
//! * [`Trajectory`] — a time-ordered sequence of `(location, timestamp)`
//!   samples with validated invariants;
//! * [`Path`] — the continuous ground-truth movement, a piecewise-linear
//!   function of time that trajectories are sampled from;
//! * [`sampling`] — Bernoulli down-sampling, the alternate odd/even split
//!   of Fig. 3, uniform and Poisson sampling of paths;
//! * [`noise`] — the Gaussian location-noise distortion of Eq. 14;
//! * [`repair`] — degraded-mode repair of corrupted raw point streams
//!   (drop / split / clamp policies with a per-stream report);
//! * [`generators`] — seeded road-network taxi and mall pedestrian
//!   simulators;
//! * [`dataset`] — dataset filtering and the paired D(1)/D(2)
//!   construction used by the trajectory-matching task.

pub mod dataset;
pub mod generators;
pub mod io;
pub mod noise;
pub mod path;
pub mod repair;
pub mod sampling;
mod types;

pub use dataset::{Dataset, MatchingPairs};
pub use path::Path;
pub use repair::{RepairConfig, RepairOutcome, RepairPolicy, RepairReport};
pub use types::{TrajPoint, Trajectory, TrajectoryError};

/// The minimum trajectory length the paper keeps for evaluation ("we
/// removed trajectories the length of which was less than 20", §VI-A).
pub const MIN_EVAL_LEN: usize = 20;
