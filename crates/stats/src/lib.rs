#![warn(missing_docs)]
//! # sts-stats — statistics substrate
//!
//! Probability and estimation building blocks used by the STS measure and
//! by the rebuilt baselines:
//!
//! * [`gaussian`] — normal pdf/cdf (with an `erf` implementation);
//! * [`kernel`] / [`kde`] — kernel density estimation with Silverman's
//!   rule-of-thumb bandwidth, the engine behind the paper's personalized
//!   speed model (§IV-B, Eq. 6);
//! * [`summary`] — descriptive statistics;
//! * [`kalman`] — a 2-D constant-velocity Kalman filter (the `KF`
//!   baseline of §VI-A);
//! * [`empirical`] — frequency-based discrete transition estimation with
//!   Laplace smoothing (the `STS-F` ablation variant and APM's calibration
//!   model [24], [25], [34]).

pub mod empirical;
pub mod gaussian;
pub mod kalman;
pub mod kde;
pub mod kernel;
pub mod summary;

pub use empirical::TransitionCounts;
pub use gaussian::Gaussian;
pub use kalman::{KalmanConfig, KalmanFilter2D, KalmanState};
pub use kde::{Kde, KdeError};
pub use kernel::Kernel;
