#![warn(missing_docs)]
//! # sts-core — the STS spatial-temporal similarity measure
//!
//! Implementation of *"Spatial-Temporal Similarity for Trajectories with
//! Location Noise and Sporadic Sampling"* (ICDE 2021):
//!
//! 1. space is partitioned into a uniform [`sts_geo::Grid`] (§IV-A);
//! 2. every observation becomes a probability distribution over cells
//!    via a [`noise::NoiseModel`] (Eq. 3);
//! 3. each trajectory gets a *personalized* speed distribution — a KDE
//!    over its own consecutive-point speeds — defining its
//!    [`transition::TransitionModel`] (Eqs. 6–7);
//! 4. the [`stprob::StpEstimator`] combines both into the probability of
//!    the object being at any cell at any time (Eqs. 4–5);
//! 5. the co-location probability of two trajectories at a timestamp is
//!    the inner product of their cell distributions (Eqs. 8–9,
//!    Algorithm 1), and [`Sts`] averages it over the merged timestamps
//!    (Eq. 10).
//!
//! ```
//! use sts_core::{Sts, StsConfig};
//! use sts_geo::{BoundingBox, Grid, Point};
//! use sts_traj::Trajectory;
//!
//! let grid = Grid::new(
//!     BoundingBox::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)),
//!     5.0,
//! ).unwrap();
//! let sts = Sts::new(StsConfig { noise_sigma: 3.0, ..StsConfig::default() }, grid);
//!
//! let a = Trajectory::from_xyt(&[(0.0, 50.0, 0.0), (20.0, 50.0, 20.0), (40.0, 50.0, 40.0)]).unwrap();
//! let b = Trajectory::from_xyt(&[(1.0, 51.0, 5.0), (21.0, 49.0, 25.0), (39.0, 50.0, 45.0)]).unwrap();
//! let c = Trajectory::from_xyt(&[(0.0, 10.0, 0.0), (20.0, 10.0, 20.0), (40.0, 10.0, 40.0)]).unwrap();
//!
//! let close = sts.similarity(&a, &b).unwrap();
//! let far = sts.similarity(&a, &c).unwrap();
//! assert!(close > far);
//! ```

pub mod batch;
mod colocation;
mod dist;
pub mod job;
pub mod noise;
pub mod shard;
mod stpcache;
pub mod stprob;
mod sts;
pub mod tiled;
pub mod transition;
pub mod worker;

pub use batch::{BatchReport, PairOutcome, QuarantineReason};
pub use colocation::colocation_probability;
pub use dist::SparseDistribution;
pub use job::{ExecMode, IsolateOptions, JobConfig, JobError, JobReport};
pub use noise::{DeterministicNoise, GaussianNoise, NoiseModel, UniformDiscNoise};
pub use shard::{ProcessLauncher, ShardOptions, WorkerHandle, WorkerLauncher};
pub use stpcache::{StpCacheMode, StpScratch};
pub use stprob::{StpEstimator, StpEvalScratch};
pub use sts::{exposure_duration, CpSum, PreparedTrajectory, Sts, StsConfig, StsVariant};
pub use tiled::{TileConfig, TILE_CELL_BYTES};
pub use transition::{
    BrownianTransition, FrequencyTransition, SpeedKdeTransition, TransitionModel,
};
pub use worker::{default_worker_path, serve, ServeError, PROTOCOL_VERSION};

use std::fmt;

/// Errors produced by the STS measure.
#[derive(Debug, Clone, PartialEq)]
pub enum StsError {
    /// The personalized speed model needs at least two observations.
    TrajectoryTooShort {
        /// The offending trajectory's length.
        len: usize,
    },
    /// The speed KDE could not be constructed.
    Kde(sts_stats::KdeError),
}

impl fmt::Display for StsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StsError::TrajectoryTooShort { len } => write!(
                f,
                "trajectory with {len} point(s) cannot yield a speed distribution (need >= 2)"
            ),
            StsError::Kde(e) => write!(f, "speed density estimation failed: {e}"),
        }
    }
}

impl std::error::Error for StsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StsError::Kde(e) => Some(e),
            _ => None,
        }
    }
}
