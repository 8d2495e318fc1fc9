//! The STS measure (paper §V-B, Eq. 10) and its ablation variants.
//!
//! `STS(Tra, Tra')` is the average co-location probability over all
//! timestamps of both trajectories (the merged trajectory of §III-B).
//! Averaging — rather than summing — removes the dependence on trajectory
//! length, which varies freely under sporadic sampling.

use crate::colocation::{colocation_of, colocation_sparse};
use crate::dist::SparseDistribution;
use crate::noise::{DeterministicNoise, GaussianNoise, NoiseModel};
use crate::stpcache::{self, soa_to_dist, StpCache, StpCacheReader};
use crate::stprob::StpEstimator;
use crate::transition::{
    BrownianTransition, FrequencyTransition, SpeedKdeTransition, TransitionModel,
};
use crate::StsError;
use crate::{StpCacheMode, StpScratch};
use std::sync::Arc;
use sts_geo::{CellBox, Grid};
use sts_obs::{static_counter, trace};
use sts_stats::Kernel;
use sts_traj::Trajectory;

/// Tuning knobs of the measure. The grid is passed separately (it is
/// dataset-scale, not a tuning constant).
#[derive(Debug, Clone)]
pub struct StsConfig {
    /// Location-noise standard deviation σ of Eq. 3, meters. The paper
    /// suggests setting the grid size to the localization error; σ plays
    /// that role here.
    pub noise_sigma: f64,
    /// KDE kernel for the personalized speed model (paper: Gaussian).
    pub kernel: Kernel,
    /// Gaussian-noise truncation multiple (`None` = evaluate every cell:
    /// the faithful dense computation).
    pub truncation_k: Option<f64>,
    /// How STP distributions are evaluated and reused when scoring
    /// pairs (see [`StpCacheMode`]). The default, `Exact`, is
    /// bit-identical to the uncached reference path.
    pub cache: StpCacheMode,
}

impl Default for StsConfig {
    fn default() -> Self {
        StsConfig {
            noise_sigma: 3.0,
            kernel: Kernel::Gaussian,
            truncation_k: Some(GaussianNoise::DEFAULT_TRUNCATION_K),
            cache: StpCacheMode::default(),
        }
    }
}

/// The ablation variants of §VI-C ("Effectiveness of each component").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StsVariant {
    /// Full STS: Gaussian location noise + personalized speed KDE.
    #[default]
    Full,
    /// `STS-N`: locations are deterministic points (no noise model).
    NoNoise,
    /// `STS-G`: one global speed distribution pooled over all objects.
    GlobalSpeed,
    /// `STS-F`: frequency-based grid transition learned from all objects.
    FrequencyBased,
}

impl StsVariant {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            StsVariant::Full => "STS",
            StsVariant::NoNoise => "STS-N",
            StsVariant::GlobalSpeed => "STS-G",
            StsVariant::FrequencyBased => "STS-F",
        }
    }
}

/// How the transition model is obtained for a trajectory.
enum TransitionSource {
    /// Build a personalized speed KDE from the trajectory itself (§IV-B).
    Personalized { kernel: Kernel },
    /// One shared model for every object (`STS-G`, `STS-F`, Brownian).
    Shared(Arc<dyn TransitionModel>),
}

/// How an [`Sts`] was constructed, when that construction is pure
/// config — the information a worker subprocess needs to rebuild the
/// identical measure from a preamble. Measures built around arbitrary
/// trait objects ([`Sts::with_noise_model`],
/// [`Sts::with_shared_transition`]) or trained on a corpus (`STS-G`,
/// `STS-F`) carry no spec and cannot run under
/// [`crate::job::ExecMode::Subprocess`].
#[derive(Debug, Clone)]
pub(crate) enum MeasureSpec {
    /// [`Sts::new`]: Gaussian noise + personalized speed KDE.
    Full(StsConfig),
    /// [`StsVariant::NoNoise`]: deterministic locations.
    NoNoise(StsConfig),
}

/// A trajectory with its per-trajectory model state precomputed: the
/// transition model and the noise distribution of each observation.
/// Preparing once and reusing across pairs is what makes `n × n`
/// similarity matrices affordable.
pub struct PreparedTrajectory {
    traj: Trajectory,
    transition: Arc<dyn TransitionModel>,
    obs_dists: Vec<SparseDistribution>,
    /// The cell bounding box of each observation distribution: where
    /// `STP(·, tᵢ)` can be non-zero at observed stamp `tᵢ`.
    obs_boxes: Vec<CellBox>,
    /// Per-trajectory STP cache shared by every pair this trajectory
    /// participates in (interior mutability; see `stpcache` docs).
    cache: StpCache,
}

impl PreparedTrajectory {
    /// The underlying trajectory.
    #[inline]
    pub fn trajectory(&self) -> &Trajectory {
        &self.traj
    }

    /// The cached STP distribution at exactly `t`, if this trajectory's
    /// cache holds one (an exact copy of what `stp(t)` returned when the
    /// entry was filled). `None` means the timestamp was never evaluated
    /// through the cached scoring path — this accessor never computes.
    pub fn cached_stp(&self, t: f64) -> Option<SparseDistribution> {
        let reader = self.cache.read();
        let (ids, probs) = reader.get(t)?;
        Some(soa_to_dist(ids, probs))
    }
}

/// The STS spatial-temporal similarity measure.
pub struct Sts {
    grid: Grid,
    noise: Arc<dyn NoiseModel>,
    transition: TransitionSource,
    spec: Option<MeasureSpec>,
    cache: StpCacheMode,
}

impl Sts {
    /// Full STS (Gaussian noise + personalized speed model).
    pub fn new(config: StsConfig, grid: Grid) -> Self {
        Sts {
            grid,
            noise: Arc::new(GaussianNoise::with_truncation(
                config.noise_sigma,
                config.truncation_k,
            )),
            transition: TransitionSource::Personalized {
                kernel: config.kernel,
            },
            cache: config.cache,
            spec: Some(MeasureSpec::Full(config)),
        }
    }

    /// Builds one of the paper's variants. `corpus` provides the
    /// "historical data of all objects" that the non-personalized
    /// variants (`STS-G`, `STS-F`) learn from; `Full` and `NoNoise`
    /// ignore it.
    pub fn variant(
        config: StsConfig,
        grid: Grid,
        variant: StsVariant,
        corpus: &[Trajectory],
    ) -> Result<Self, StsError> {
        let gaussian: Arc<dyn NoiseModel> = Arc::new(GaussianNoise::with_truncation(
            config.noise_sigma,
            config.truncation_k,
        ));
        Ok(match variant {
            StsVariant::Full => Sts::new(config, grid),
            StsVariant::NoNoise => Sts {
                grid,
                noise: Arc::new(DeterministicNoise),
                transition: TransitionSource::Personalized {
                    kernel: config.kernel,
                },
                cache: config.cache,
                spec: Some(MeasureSpec::NoNoise(config)),
            },
            StsVariant::GlobalSpeed => {
                let global =
                    SpeedKdeTransition::global_from_trajectories(corpus.iter(), config.kernel)?
                        .with_position_uncertainty(grid.cell_size() / 2.0);
                Sts {
                    grid,
                    noise: gaussian,
                    transition: TransitionSource::Shared(Arc::new(global)),
                    spec: None,
                    cache: config.cache,
                }
            }
            StsVariant::FrequencyBased => {
                let freq = FrequencyTransition::from_trajectories(grid.clone(), corpus.iter(), 0.1);
                Sts {
                    grid,
                    noise: gaussian,
                    transition: TransitionSource::Shared(Arc::new(freq)),
                    spec: None,
                    cache: config.cache,
                }
            }
        })
    }

    /// STS with an arbitrary noise model (the "any arbitrary probability
    /// distribution" claim of §IV-A).
    pub fn with_noise_model(grid: Grid, noise: Arc<dyn NoiseModel>, kernel: Kernel) -> Self {
        Sts {
            grid,
            noise,
            transition: TransitionSource::Personalized { kernel },
            spec: None,
            cache: StpCacheMode::default(),
        }
    }

    /// STS with a shared transition model for all objects (e.g. the
    /// Brownian-motion model of the related-work comparison).
    pub fn with_shared_transition(
        config: StsConfig,
        grid: Grid,
        transition: Arc<dyn TransitionModel>,
    ) -> Self {
        Sts {
            grid,
            noise: Arc::new(GaussianNoise::with_truncation(
                config.noise_sigma,
                config.truncation_k,
            )),
            transition: TransitionSource::Shared(transition),
            spec: None,
            cache: config.cache,
        }
    }

    /// Convenience: the Brownian special case (§II) — Gaussian noise plus
    /// a Gaussian random-walk transition with the given diffusion.
    pub fn brownian(config: StsConfig, grid: Grid, diffusion: f64) -> Self {
        let b = BrownianTransition::new(diffusion);
        Self::with_shared_transition(config, grid, Arc::new(b))
    }

    /// The grid partition in use.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The pure-config construction recipe, when one exists — what the
    /// subprocess job path serializes into the worker preamble.
    pub(crate) fn measure_spec(&self) -> Option<&MeasureSpec> {
        self.spec.as_ref()
    }

    /// Precomputes the per-trajectory model state. Fails when the
    /// personalized speed model cannot be built (trajectory shorter than
    /// 2 points).
    pub fn prepare(&self, traj: &Trajectory) -> Result<PreparedTrajectory, StsError> {
        let _span = trace::span("sts.prepare");
        static_counter!("core.trajectories.prepared").incr();
        let transition: Arc<dyn TransitionModel> = match &self.transition {
            TransitionSource::Personalized { kernel } => Arc::new(
                SpeedKdeTransition::from_trajectory(traj, *kernel)?
                    // Transitions are evaluated between cell centers;
                    // account for that quantization (see the
                    // `SpeedKdeTransition` docs).
                    .with_position_uncertainty(self.grid.cell_size() / 2.0),
            ),
            TransitionSource::Shared(model) => Arc::clone(model),
        };
        let obs_dists =
            StpEstimator::observation_distributions(&self.grid, self.noise.as_ref(), traj);
        let obs_boxes = obs_dists
            .iter()
            .map(|d| {
                d.entries().iter().fold(CellBox::EMPTY, |cells, &(id, _)| {
                    let (col, row) = self.grid.col_row(id);
                    cells.including(col, row)
                })
            })
            .collect();
        Ok(PreparedTrajectory {
            traj: traj.clone(),
            transition,
            obs_dists,
            obs_boxes,
            cache: StpCache::default(),
        })
    }

    fn estimator<'a>(&'a self, p: &'a PreparedTrajectory) -> StpEstimator<'a> {
        StpEstimator::with_observation_distributions(
            &self.grid,
            self.noise.as_ref(),
            p.transition.as_ref(),
            &p.traj,
            &p.obs_dists,
        )
    }

    /// Overrides the STP cache mode (and the embedded subprocess spec,
    /// so `ExecMode::Subprocess` workers score identically). Used by the
    /// differential suites to pit cached scoring against the
    /// [`StpCacheMode::Off`] reference on an otherwise identical
    /// measure.
    pub fn with_cache_mode(mut self, mode: StpCacheMode) -> Self {
        self.cache = mode;
        match &mut self.spec {
            Some(MeasureSpec::Full(cfg)) | Some(MeasureSpec::NoNoise(cfg)) => cfg.cache = mode,
            None => {}
        }
        self
    }

    /// `STS(Tra, Tra')` (Eq. 10): the average co-location probability
    /// over the merged timestamps of the two prepared trajectories.
    ///
    /// Ad-hoc entry point: allocates a fresh [`StpScratch`] per call.
    /// The matrix engine threads one scratch per worker through
    /// [`Sts::similarity_prepared_with`] instead.
    pub fn similarity_prepared(&self, a: &PreparedTrajectory, b: &PreparedTrajectory) -> f64 {
        let mut scratch = StpScratch::new();
        self.similarity_prepared_with(a, b, &mut scratch)
    }

    /// [`Sts::similarity_prepared`] with a caller-owned scratch arena —
    /// the hot-path form every worker loop uses. The scratch must not be
    /// shared across threads; the per-trajectory STP caches take care of
    /// cross-worker reuse.
    pub fn similarity_prepared_with(
        &self,
        a: &PreparedTrajectory,
        b: &PreparedTrajectory,
        scratch: &mut StpScratch,
    ) -> f64 {
        static_counter!("core.pairs.scored").incr();
        match self.cache {
            StpCacheMode::Off => self.similarity_uncached(a, b),
            StpCacheMode::Exact => self.similarity_cached(a, b, scratch),
        }
    }

    /// The uncached reference path (`StpCacheMode::Off`): re-evaluates
    /// both STP distributions at every merged timestamp, exactly as
    /// Algorithm 1 is written. The differential equivalence suite pins
    /// the cached paths against this oracle.
    fn similarity_uncached(&self, a: &PreparedTrajectory, b: &PreparedTrajectory) -> f64 {
        let ea = self.estimator(a);
        let eb = self.estimator(b);
        let ts = a.traj.merged_timestamps(&b.traj);
        debug_assert!(!ts.is_empty());
        // Timestamps outside the overlap of the two spans contribute 0
        // (Eq. 5) but still count in the average's denominator.
        let lo = a.traj.start_time().max(b.traj.start_time());
        let hi = a.traj.end_time().min(b.traj.end_time());
        let mut sum = 0.0;
        let mut i = 0;
        while i < ts.len() {
            let t = ts[i];
            // Duplicate timestamps (one per trajectory) contribute the
            // same CP value; compute once, weight by multiplicity.
            let mut mult = 1;
            while i + mult < ts.len() && ts[i + mult] == t {
                mult += 1;
            }
            if t >= lo && t <= hi {
                let cp = colocation_of(&ea.stp(t), &eb.stp(t));
                sum += cp * mult as f64;
            }
            i += mult;
        }
        sum / ts.len() as f64
    }

    /// The cached hot path: collect the pair's in-window merged stamps,
    /// drop those where the two supports' cell boxes are disjoint, fill
    /// both trajectories' STP caches for the rest, then reduce to sparse
    /// dot products over the cached SoA slices. The result is
    /// bit-identical to [`Sts::similarity_uncached`]: a dropped stamp's
    /// CP is exactly 0, and adding `0.0 · multiplicity` to the
    /// non-negative running sum leaves it unchanged.
    fn similarity_cached(
        &self,
        a: &PreparedTrajectory,
        b: &PreparedTrajectory,
        scratch: &mut StpScratch,
    ) -> f64 {
        let (pa, pb) = (a.traj.points(), b.traj.points());
        let stamps = pa.len() + pb.len();
        debug_assert!(stamps > 0);
        let lo = a.traj.start_time().max(b.traj.start_time());
        let hi = a.traj.end_time().min(b.traj.end_time());
        let est_a = self.estimator(a);
        let est_b = self.estimator(b);
        // The merge of `merged_timestamps` (ordered by `total_cmp`, equal
        // stamps grouped), walked in place: one entry per distinct stamp,
        // weighted by multiplicity. Out-of-window stamps contribute 0 but
        // count in the denominator. Each side is either observed at `t`
        // or strictly inside the gap before its next unconsumed point.
        scratch.times.clear();
        let mut skipped = 0u64;
        let (mut i, mut j) = (0, 0);
        while i < pa.len() || j < pb.len() {
            let t = match (pa.get(i), pb.get(j)) {
                (Some(p), Some(q)) if q.t.total_cmp(&p.t).is_lt() => q.t,
                (Some(p), _) => p.t,
                (None, Some(q)) => q.t,
                (None, None) => unreachable!("loop condition"),
            };
            let at_a = pa.get(i).is_some_and(|p| p.t == t);
            let at_b = pb.get(j).is_some_and(|q| q.t == t);
            if t >= lo && t <= hi {
                let box_a = if at_a {
                    a.obs_boxes[i]
                } else {
                    est_a.bridge_box(i - 1, t)
                };
                let box_b = if at_b {
                    b.obs_boxes[j]
                } else {
                    est_b.bridge_box(j - 1, t)
                };
                if box_a.intersects(&box_b) {
                    scratch.times.push((t, (at_a as u8 + at_b as u8) as f64));
                } else {
                    skipped += 1;
                }
            }
            i += at_a as usize;
            j += at_b as usize;
        }
        if skipped > 0 {
            static_counter!("core.stp.stamps_skipped").add(skipped);
        }
        if scratch.times.is_empty() {
            static_counter!("core.pairs.pruned").incr();
            return 0.0;
        }
        let same = std::ptr::eq(a, b);
        let sides = [(&a.cache, &est_a), (&b.cache, &est_b)];
        let sides = if same { &sides[..1] } else { &sides[..] };
        stpcache::ensure(sides, &scratch.times, &mut scratch.fill);
        let times = &scratch.times;
        let score = |ra: &StpCacheReader<'_>, rb: &StpCacheReader<'_>| -> f64 {
            let mut sum = 0.0;
            for &(t, weight) in times {
                let cp = match (ra.get(t), rb.get(t)) {
                    (Some((ia, pa)), Some((ib, pb))) => colocation_sparse(ia, pa, ib, pb),
                    // Evicted between fill and read (arena recycle under
                    // pressure): evaluate directly — same value, since
                    // cached entries are exactly what `stp` returns.
                    _ => colocation_of(&est_a.stp(t), &est_b.stp(t)),
                };
                sum += cp * weight;
            }
            sum
        };
        let sum = if same {
            // One guard serves both sides: re-acquiring a std read lock
            // recursively can deadlock behind a queued writer.
            let r = a.cache.read();
            score(&r, &r)
        } else {
            // Canonical (address) acquisition order rules out
            // reader/writer deadlock cycles across scoring threads.
            let a_first = (a as *const PreparedTrajectory) < (b as *const PreparedTrajectory);
            let (first, second) = if a_first { (a, b) } else { (b, a) };
            let r1 = first.cache.read();
            let r2 = second.cache.read();
            if a_first {
                score(&r1, &r2)
            } else {
                score(&r2, &r1)
            }
        };
        sum / stamps as f64
    }

    /// The co-location probability at every merged timestamp, in time
    /// order — the trace Eq. 10 averages. Applications that need *when*
    /// and *for how long* two objects met (contact tracing, §I) consume
    /// this directly; see [`exposure_duration`].
    pub fn colocation_profile(
        &self,
        a: &PreparedTrajectory,
        b: &PreparedTrajectory,
    ) -> Vec<(f64, f64)> {
        let ea = self.estimator(a);
        let eb = self.estimator(b);
        a.traj
            .merged_timestamps(&b.traj)
            .into_iter()
            .map(|t| (t, colocation_of(&ea.stp(t), &eb.stp(t))))
            .collect()
    }

    /// `STS(Tra, Tra')` from raw trajectories (prepares both first).
    pub fn similarity(&self, a: &Trajectory, b: &Trajectory) -> Result<f64, StsError> {
        let pa = self.prepare(a)?;
        let pb = self.prepare(b)?;
        Ok(self.similarity_prepared(&pa, &pb))
    }
}

/// Sorts `(index, similarity)` pairs best-first without ever panicking:
/// NaN similarities (a degenerate model, not a valid score) rank below
/// every real number instead of aborting the whole top-k.
pub(crate) fn sort_scores_descending(scored: &mut [(usize, f64)]) {
    let key = |s: f64| if s.is_nan() { f64::NEG_INFINITY } else { s };
    scored.sort_by(|a, b| key(b.1).total_cmp(&key(a.1)).then(a.0.cmp(&b.0)));
}

/// Total time (seconds) during which a co-location profile (from
/// [`Sts::colocation_profile`]) stays at or above `threshold`,
/// integrated by the trapezoid-free "interval owned by its left sample"
/// rule over consecutive profile timestamps.
pub fn exposure_duration(profile: &[(f64, f64)], threshold: f64) -> f64 {
    profile
        .windows(2)
        .filter(|w| w[0].1 >= threshold)
        .map(|w| w[1].0 - w[0].0)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_geo::{BoundingBox, Point};

    fn grid() -> Grid {
        Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(200.0, 50.0)),
            5.0,
        )
        .unwrap()
    }

    fn config() -> StsConfig {
        StsConfig {
            noise_sigma: 3.0,
            ..StsConfig::default()
        }
    }

    /// Straight walker along y = `y`, 2 m/s, one fix every 10 s, shifted
    /// in phase by `phase` seconds.
    fn walker(y: f64, phase: f64, n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| {
                    let t = phase + 10.0 * i as f64;
                    sts_traj::TrajPoint::from_xy(2.0 * t, y, t)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn same_object_scores_higher_than_different() {
        let sts = Sts::new(config(), grid());
        let a = walker(25.0, 0.0, 8);
        let same = walker(25.0, 5.0, 8); // same path, asynchronous
        let other = walker(5.0, 5.0, 8); // 20 m away in parallel
        let s_same = sts.similarity(&a, &same).unwrap();
        let s_other = sts.similarity(&a, &other).unwrap();
        assert!(s_same > s_other, "same {s_same} <= other {s_other}");
        assert!(s_same > 0.0);
    }

    #[test]
    fn similarity_is_symmetric() {
        let sts = Sts::new(config(), grid());
        let a = walker(25.0, 0.0, 6);
        let b = walker(20.0, 3.0, 7);
        let ab = sts.similarity(&a, &b).unwrap();
        let ba = sts.similarity(&b, &a).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn similarity_bounded_in_unit_interval() {
        let sts = Sts::new(config(), grid());
        let a = walker(25.0, 0.0, 6);
        let b = walker(25.0, 1.0, 6);
        let s = sts.similarity(&a, &b).unwrap();
        assert!((0.0..=1.0).contains(&s), "similarity {s}");
        let s_self = sts.similarity(&a, &a).unwrap();
        assert!((0.0..=1.0).contains(&s_self));
        assert!(s_self >= s);
    }

    #[test]
    fn disjoint_time_spans_score_zero() {
        let sts = Sts::new(config(), grid());
        let a = walker(25.0, 0.0, 5);
        let b = walker(25.0, 1000.0, 5);
        assert_eq!(sts.similarity(&a, &b).unwrap(), 0.0);
    }

    #[test]
    fn too_short_trajectory_errors() {
        let sts = Sts::new(config(), grid());
        let a = walker(25.0, 0.0, 5);
        let single = Trajectory::from_xyt(&[(10.0, 25.0, 0.0)]).unwrap();
        assert!(matches!(
            sts.similarity(&a, &single),
            Err(StsError::TrajectoryTooShort { len: 1 })
        ));
    }

    #[test]
    fn variants_construct_and_rank_consistently() {
        let g = grid();
        let corpus: Vec<Trajectory> = vec![walker(25.0, 0.0, 8), walker(5.0, 0.0, 8)];
        for v in [
            StsVariant::Full,
            StsVariant::NoNoise,
            StsVariant::GlobalSpeed,
            StsVariant::FrequencyBased,
        ] {
            let sts = Sts::variant(config(), g.clone(), v, &corpus).unwrap();
            let a = walker(25.0, 0.0, 8);
            let same = walker(25.0, 5.0, 8);
            let other = walker(5.0, 5.0, 8);
            let s_same = sts.similarity(&a, &same).unwrap();
            let s_other = sts.similarity(&a, &other).unwrap();
            assert!(
                s_same >= s_other,
                "{}: same {s_same} < other {s_other}",
                v.name()
            );
        }
    }

    #[test]
    fn variant_names() {
        assert_eq!(StsVariant::Full.name(), "STS");
        assert_eq!(StsVariant::NoNoise.name(), "STS-N");
        assert_eq!(StsVariant::GlobalSpeed.name(), "STS-G");
        assert_eq!(StsVariant::FrequencyBased.name(), "STS-F");
        assert_eq!(StsVariant::default(), StsVariant::Full);
    }

    #[test]
    fn matrix_matches_pairwise_calls() {
        let sts = Sts::new(config(), grid());
        let queries = vec![walker(25.0, 0.0, 6), walker(5.0, 0.0, 6)];
        let candidates = vec![
            walker(25.0, 5.0, 6),
            walker(5.0, 5.0, 6),
            walker(45.0, 5.0, 6),
        ];
        let m = sts.similarity_matrix(&queries, &candidates).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 3);
        for (i, q) in queries.iter().enumerate() {
            for (j, c) in candidates.iter().enumerate() {
                let s = sts.similarity(q, c).unwrap();
                assert!((m[i][j] - s).abs() < 1e-12, "({i},{j})");
            }
        }
        // The diagonal structure: query 0 matches candidate 0, query 1
        // matches candidate 1.
        assert!(m[0][0] > m[0][1]);
        assert!(m[1][1] > m[1][0]);
    }

    #[test]
    fn score_sort_ranks_nan_last_instead_of_panicking() {
        // Regression: a single NaN similarity used to abort top-k via
        // `partial_cmp(..).expect("finite similarities")`.
        let mut scored = vec![(0, f64::NAN), (1, 0.3), (2, 0.9), (3, f64::NAN)];
        sort_scores_descending(&mut scored);
        assert_eq!(scored[0].0, 2);
        assert_eq!(scored[1].0, 1);
        assert!(scored[2].1.is_nan() && scored[3].1.is_nan());
        assert_eq!((scored[2].0, scored[3].0), (0, 3));
    }

    #[test]
    fn top_k_orders_by_similarity() {
        let sts = Sts::new(config(), grid());
        let q = walker(25.0, 0.0, 6);
        let candidates = vec![
            walker(45.0, 5.0, 6),
            walker(25.0, 5.0, 6),
            walker(5.0, 5.0, 6),
        ];
        let top = sts.top_k(&q, &candidates, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 1, "closest candidate should rank first");
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn brownian_special_case_behaves_like_gaussian_speed_sts() {
        // §II: the Brownian bridge is STS's estimator with a Gaussian
        // speed assumption. Both should therefore produce the same
        // *ranking* on a clean separation task.
        let g = grid();
        let sts_kde = Sts::new(config(), g.clone());
        let sts_brown = Sts::brownian(config(), g, 4.0);
        let a = walker(25.0, 0.0, 8);
        let same = walker(25.0, 5.0, 8);
        let other = walker(5.0, 5.0, 8);
        for sts in [&sts_kde, &sts_brown] {
            let s1 = sts.similarity(&a, &same).unwrap();
            let s2 = sts.similarity(&a, &other).unwrap();
            assert!(s1 > s2);
        }
    }

    #[test]
    fn colocation_profile_averages_to_similarity() {
        let sts = Sts::new(config(), grid());
        let a = walker(25.0, 0.0, 6);
        let b = walker(25.0, 4.0, 6);
        let pa = sts.prepare(&a).unwrap();
        let pb = sts.prepare(&b).unwrap();
        let profile = sts.colocation_profile(&pa, &pb);
        assert_eq!(profile.len(), a.len() + b.len());
        let avg = profile.iter().map(|&(_, cp)| cp).sum::<f64>() / profile.len() as f64;
        let s = sts.similarity_prepared(&pa, &pb);
        assert!((avg - s).abs() < 1e-12, "profile avg {avg} vs STS {s}");
        // Profile timestamps are sorted.
        for w in profile.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn exposure_duration_thresholds() {
        let profile = vec![(0.0, 0.9), (10.0, 0.9), (20.0, 0.1), (30.0, 0.8)];
        // Intervals owned by samples >= 0.5: [0,10) and [10,20) and [30, ..) has
        // no right neighbor.
        assert_eq!(exposure_duration(&profile, 0.5), 20.0);
        assert_eq!(exposure_duration(&profile, 0.95), 0.0);
        assert_eq!(exposure_duration(&profile, 0.0), 30.0);
        assert_eq!(exposure_duration(&[], 0.5), 0.0);
    }

    #[test]
    fn co_movers_have_long_exposure() {
        let sts = Sts::new(config(), grid());
        let a = walker(25.0, 0.0, 8);
        let together = walker(25.0, 5.0, 8);
        let apart = walker(5.0, 5.0, 8);
        let pa = sts.prepare(&a).unwrap();
        let e_together = exposure_duration(
            &sts.colocation_profile(&pa, &sts.prepare(&together).unwrap()),
            0.05,
        );
        let e_apart = exposure_duration(
            &sts.colocation_profile(&pa, &sts.prepare(&apart).unwrap()),
            0.05,
        );
        assert!(
            e_together > e_apart,
            "together {e_together}s vs apart {e_apart}s"
        );
    }

    #[test]
    fn dense_and_truncated_agree() {
        let dense_cfg = StsConfig {
            noise_sigma: 3.0,
            truncation_k: None,
            ..StsConfig::default()
        };
        let sparse_cfg = config();
        let a = walker(25.0, 0.0, 5);
        let b = walker(25.0, 5.0, 5);
        let s_dense = Sts::new(dense_cfg, grid()).similarity(&a, &b).unwrap();
        let s_sparse = Sts::new(sparse_cfg, grid()).similarity(&a, &b).unwrap();
        assert!(
            (s_dense - s_sparse).abs() < 1e-3,
            "dense {s_dense} vs sparse {s_sparse}"
        );
    }
}
