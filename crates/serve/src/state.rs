//! Per-object incremental state and the windowed query engine.
//!
//! The invariant everything else leans on: **the served state is a
//! pure function of the applied ping sequence**. Every container
//! iterates deterministically (`BTreeMap`, rings), every derived
//! quantity (speed samples, the cached KDE) is recomputed from the
//! same inputs in the same order, and all floats persist bit-exactly —
//! so replaying the WAL after a SIGKILL reconstructs a state whose
//! query answers are byte-identical to the uninterrupted run.
//!
//! Per object, the state is deliberately small and bounded:
//!
//! * a **tail ring** of the last `ring_capacity` accepted pings — the
//!   live tail of the trajectory, the paper's sporadic-sampling regime
//!   served incrementally;
//! * a **speed-sample ring** feeding the KDE transition model of
//!   Eq. 4/5 ([`sts_core::SpeedKdeTransition`]), updated with one
//!   division per accepted ping and rebuilt into a model lazily;
//! * the cached rebuilt model, versioned so the shedding ladder can
//!   *defer* the rebuild (answer from the stale model, flagged) without
//!   ever changing what a fresh rebuild would produce.
//!
//! Queries evaluate the paper's machinery unchanged: Eq. 8/9
//! co-location probability, averaged over evenly spaced timestamps in
//! the query window, through the co-location core batch scoring uses
//! ([`Sts::colocation_sum`]). A query runs in two halves. Under the
//! state lock, `colocation_view` and `topk_view` refresh or defer the
//! speed models and copy out, per object, only the ring points that
//! bracket the window's stamps plus the model's `Arc`: `STP(·, t)`
//! depends only on the two observations around `t` (Eqs. 4–5). The
//! view's `evaluate` then scores with no lock held, preparing each
//! object once, so a `topk` evaluates the query object's STP once per
//! stamp for every candidate.

use crate::{f64_from_hex, f64_to_hex, ServeStats};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sts_core::{PreparedTrajectory, SpeedKdeTransition, StpScratch, Sts, StsConfig};
use sts_geo::{BoundingBox, Grid, Point};
use sts_runtime::store::{seal, unseal};
use sts_stats::Kernel;
use sts_traj::{TrajPoint, Trajectory};

/// One timestamped location report for one object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ping {
    /// Client-assigned, globally increasing ingest sequence number —
    /// the idempotency key for resends and duplicated frames.
    pub seq: u64,
    /// Object (user / vehicle / device) id.
    pub obj: u64,
    /// Observation time (seconds, arbitrary epoch).
    pub t: f64,
    /// Observed x, in grid meters.
    pub x: f64,
    /// Observed y, in grid meters.
    pub y: f64,
}

impl Ping {
    /// The WAL / wire record body: `p <seq> <obj> <t> <x> <y>` with
    /// bit-exact hex floats.
    pub fn encode(&self) -> String {
        format!(
            "p {} {} {} {} {}",
            self.seq,
            self.obj,
            f64_to_hex(self.t),
            f64_to_hex(self.x),
            f64_to_hex(self.y)
        )
    }

    /// Parses [`Ping::encode`]'s output.
    pub fn decode(line: &str) -> Option<Ping> {
        let mut it = line.split_whitespace();
        if it.next()? != "p" {
            return None;
        }
        let ping = Ping {
            seq: it.next()?.parse().ok()?,
            obj: it.next()?.parse().ok()?,
            t: f64_from_hex(it.next()?)?,
            x: f64_from_hex(it.next()?)?,
            y: f64_from_hex(it.next()?)?,
        };
        if it.next().is_some() {
            return None;
        }
        Some(ping)
    }
}

/// Geometry + model configuration of the served state. Must be
/// identical across restarts of the same data directory (it is not
/// persisted — the operator owns it, like a schema).
#[derive(Debug, Clone)]
pub struct StateConfig {
    /// Grid area minimum corner.
    pub area_min: (f64, f64),
    /// Grid area maximum corner.
    pub area_max: (f64, f64),
    /// Grid cell size (meters).
    pub cell_size: f64,
    /// Location-noise sigma for the observation model (meters).
    pub noise_sigma: f64,
    /// KDE kernel for the speed transition model.
    pub kernel: Kernel,
    /// Tail-ring capacity per object (pings kept).
    pub ring_capacity: usize,
    /// Speed-sample ring capacity per object.
    pub speed_capacity: usize,
}

impl Default for StateConfig {
    fn default() -> Self {
        StateConfig {
            area_min: (0.0, 0.0),
            area_max: (100.0, 100.0),
            cell_size: 5.0,
            noise_sigma: 2.0,
            kernel: Kernel::Gaussian,
            ring_capacity: 32,
            speed_capacity: 32,
        }
    }
}

/// Verdict of applying one ping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyVerdict {
    /// Applied to the served state (and owed to the WAL).
    Applied,
    /// Sequence number already consumed — a resend or duplicate.
    DupSeq,
    /// Time not strictly after the object's last accepted ping (or not
    /// finite); the seq is consumed but the state unchanged.
    StaleTime,
}

/// Freshness of a query answer, carried in the reply header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staleness {
    /// Every model involved was rebuilt to the current state version.
    Fresh,
    /// At least one object answered from a stale cached speed model
    /// (refresh deferred by the shedding ladder).
    Stale,
}

impl Staleness {
    /// The wire token.
    pub fn token(self) -> &'static str {
        match self {
            Staleness::Fresh => "fresh",
            Staleness::Stale => "stale",
        }
    }
}

/// A query answer plus its degradation markers.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome<T> {
    /// The answer.
    pub value: T,
    /// Whether any stale cached model contributed.
    pub staleness: Staleness,
    /// Whether the deadline budget cut the evaluation short (top-k
    /// only: remaining candidates were skipped).
    pub deadline_hit: bool,
}

#[derive(Debug, Default)]
struct ObjectState {
    /// Tail of the trajectory: (t, x, y), oldest first, bounded.
    ring: VecDeque<(f64, f64, f64)>,
    /// Recent speed samples, oldest first, bounded.
    speeds: VecDeque<f64>,
    /// Pings applied to this object over its lifetime.
    applied: u64,
    /// Bumped once per applied ping; cache validity token.
    version: u64,
    /// Lazily rebuilt speed model: (version it was built at, model).
    cache: Option<(u64, Arc<SpeedKdeTransition>)>,
}

impl ObjectState {
    fn last_t(&self) -> Option<f64> {
        self.ring.back().map(|&(t, _, _)| t)
    }

    /// The ring points that bracket every stamp inside the ring's span:
    /// from the last point at or before the earliest such stamp to the
    /// first point at or after the latest. Every stamp then sees the
    /// same bracketing observations, so the same STP, as over the whole
    /// ring. Empty when no stamp lies inside the span (NaN never does).
    fn window_slice(&self, stamps: &[f64]) -> Vec<TrajPoint> {
        let (Some(&(first, ..)), Some(&(last, ..))) = (self.ring.front(), self.ring.back()) else {
            return Vec::new();
        };
        let inside = stamps.iter().filter(|&&t| t >= first && t <= last);
        let Some((lo, hi)) = inside.fold(None, |span: Option<(f64, f64)>, &t| {
            Some(span.map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))))
        }) else {
            return Vec::new();
        };
        // Numeric comparisons: `first <= lo` makes the first partition
        // point at least 1, and `hi <= last` keeps the second in range.
        let from = self.ring.partition_point(|&(t, ..)| t <= lo) - 1;
        let to = self.ring.partition_point(|&(t, ..)| t < hi);
        self.ring
            .range(from..=to)
            .map(|&(t, x, y)| TrajPoint::from_xy(x, y, t))
            .collect()
    }
}

/// The served state: every object's incremental tail + the query
/// engine. Single-writer (the ingest thread) behind the server's
/// mutex; queries take the same lock only to copy out their view.
pub struct ServeState {
    cfg: StateConfig,
    /// The measure queries score through: its grid and observation
    /// noise. Each object brings its own transition model.
    sts: Arc<Sts>,
    objects: BTreeMap<u64, ObjectState>,
    /// Highest ingest seq ever consumed (applied or refused stale).
    max_seq: u64,
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("cfg", &self.cfg)
            .field("objects", &self.objects)
            .field("max_seq", &self.max_seq)
            .finish()
    }
}

impl ServeState {
    /// A fresh, empty state.
    ///
    /// # Panics
    /// If the grid configuration is invalid (degenerate area or
    /// non-positive cell size) — a config error, not a data error.
    pub fn new(cfg: StateConfig) -> Self {
        let area = BoundingBox::new(
            Point::new(cfg.area_min.0, cfg.area_min.1),
            Point::new(cfg.area_max.0, cfg.area_max.1),
        );
        let grid = Grid::new(area, cfg.cell_size).expect("valid serve grid config");
        let measure = StsConfig {
            noise_sigma: cfg.noise_sigma,
            kernel: cfg.kernel,
            ..StsConfig::default()
        };
        ServeState {
            sts: Arc::new(Sts::new(measure, grid)),
            cfg,
            objects: BTreeMap::new(),
            max_seq: 0,
        }
    }

    /// The state configuration.
    pub fn config(&self) -> &StateConfig {
        &self.cfg
    }

    /// Highest ingest seq consumed so far.
    pub fn max_seq(&self) -> u64 {
        self.max_seq
    }

    /// Total pings applied across all objects.
    pub fn total_applied(&self) -> u64 {
        self.objects.values().map(|o| o.applied).sum()
    }

    /// Applies one ping. Pure in the sequence of accepted calls: the
    /// same ping sequence always produces the same state, which is the
    /// whole recovery argument.
    pub fn apply(&mut self, p: &Ping) -> ApplyVerdict {
        if p.seq <= self.max_seq {
            return ApplyVerdict::DupSeq;
        }
        self.max_seq = p.seq;
        if !(p.t.is_finite() && p.x.is_finite() && p.y.is_finite()) {
            return ApplyVerdict::StaleTime;
        }
        let obj = self.objects.entry(p.obj).or_default();
        if let Some(last_t) = obj.last_t() {
            if p.t <= last_t {
                return ApplyVerdict::StaleTime;
            }
            let &(lt, lx, ly) = obj.ring.back().expect("non-empty ring has a back");
            let dist = ((p.x - lx).powi(2) + (p.y - ly).powi(2)).sqrt();
            let speed = dist / (p.t - lt);
            if speed.is_finite() {
                if obj.speeds.len() == self.cfg.speed_capacity {
                    obj.speeds.pop_front();
                }
                obj.speeds.push_back(speed);
            }
        }
        if obj.ring.len() == self.cfg.ring_capacity {
            obj.ring.pop_front();
        }
        obj.ring.push_back((p.t, p.x, p.y));
        obj.applied += 1;
        obj.version += 1;
        ApplyVerdict::Applied
    }

    /// Ensures `obj`'s speed model cache is usable, rebuilding it
    /// unless `allow_stale` and a previous build exists. Returns
    /// whether the object will answer from a stale model, or `None`
    /// when the object is cold (no model possible).
    fn ensure_model(&mut self, obj: u64, allow_stale: bool, stats: &ServeStats) -> Option<bool> {
        let cell = self.sts.grid().cell_size();
        let kernel = self.cfg.kernel;
        let o = self.objects.get_mut(&obj)?;
        if o.ring.len() < 2 || o.speeds.is_empty() {
            return None;
        }
        match &o.cache {
            Some((v, _)) if *v == o.version => Some(false),
            Some(_) if allow_stale => {
                stats.refresh_deferred(1);
                Some(true)
            }
            _ => {
                let model = SpeedKdeTransition::from_speed_samples(
                    o.speeds.iter().copied().collect(),
                    kernel,
                )
                .ok()?
                .with_position_uncertainty(cell / 2.0);
                o.cache = Some((o.version, Arc::new(model)));
                Some(false)
            }
        }
    }

    /// [`ServeState::ensure_model`], then the object's window slice and
    /// model: what a query reads of it, or `None` while it is cold.
    fn object_view(
        &mut self,
        obj: u64,
        stamps: &[f64],
        allow_stale: bool,
        stats: &ServeStats,
    ) -> Option<ObjectView> {
        let stale = self.ensure_model(obj, allow_stale, stats)?;
        let o = &self.objects[&obj];
        let (_, model) = o.cache.as_ref().expect("ensure_model left a model");
        Some(ObjectView {
            points: o.window_slice(stamps),
            model: Arc::clone(model),
            stale,
        })
    }

    /// Mean co-location probability (Eq. 8/9) of `a` and `b` over
    /// `steps` evenly spaced timestamps in `[t0, t1]`. Cold or unknown
    /// objects score exactly `0.0`.
    #[allow(clippy::too_many_arguments)]
    pub fn windowed_colocation(
        &mut self,
        a: u64,
        b: u64,
        t0: f64,
        t1: f64,
        steps: usize,
        allow_stale: bool,
        stats: &ServeStats,
    ) -> QueryOutcome<f64> {
        self.colocation_view(a, b, t0, t1, steps, allow_stale, stats)
            .evaluate(stats)
    }

    /// The locked half of [`ServeState::windowed_colocation`]: refreshes
    /// or defers both models and copies out what scoring reads.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn colocation_view(
        &mut self,
        a: u64,
        b: u64,
        t0: f64,
        t1: f64,
        steps: usize,
        allow_stale: bool,
        stats: &ServeStats,
    ) -> ColocView {
        stats.queries(1);
        let stamps = window_stamps(t0, t1, steps);
        let view_a = self.object_view(a, &stamps, allow_stale, stats);
        let view_b = self.object_view(b, &stamps, allow_stale, stats);
        let stale = |v: &Option<ObjectView>| v.as_ref().is_some_and(|v| v.stale);
        let staleness = if stale(&view_a) || stale(&view_b) {
            stats.queries_stale(1);
            Staleness::Stale
        } else {
            Staleness::Fresh
        };
        ColocView {
            sts: Arc::clone(&self.sts),
            stamps,
            pair: view_a.zip(view_b),
            staleness,
        }
    }

    /// Top-`k` objects by windowed co-location with `obj`, scored over
    /// `steps` timestamps in `[t0, t1]`. Ties break by object id
    /// ascending (deterministic). `budget` bounds wall time: once
    /// exceeded, remaining candidates are skipped and the outcome is
    /// flagged `deadline_hit`.
    #[allow(clippy::too_many_arguments)]
    pub fn topk(
        &mut self,
        obj: u64,
        t0: f64,
        t1: f64,
        steps: usize,
        k: usize,
        allow_stale: bool,
        budget: Duration,
        stats: &ServeStats,
    ) -> QueryOutcome<Vec<(u64, f64)>> {
        self.topk_view(obj, t0, t1, steps, k, allow_stale, budget, stats)
            .evaluate(stats)
    }

    /// The locked half of [`ServeState::topk`]: refreshes or defers the
    /// query object's model and each candidate's, in id order, and
    /// copies out what scoring reads. The budget's clock starts here; a
    /// candidate reached after it ran out is neither refreshed nor
    /// scored, as in a single pass.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn topk_view(
        &mut self,
        obj: u64,
        t0: f64,
        t1: f64,
        steps: usize,
        k: usize,
        allow_stale: bool,
        budget: Duration,
        stats: &ServeStats,
    ) -> TopkView {
        stats.queries(1);
        let start = Instant::now();
        let stamps = window_stamps(t0, t1, steps);
        let query = self.object_view(obj, &stamps, allow_stale, stats);
        let ids: Vec<u64> = self.objects.keys().copied().filter(|&o| o != obj).collect();
        let mut candidates = Vec::with_capacity(ids.len());
        let mut deadline_hit = false;
        for cand in ids {
            if start.elapsed() > budget {
                deadline_hit = true;
                break;
            }
            if let Some(view) = self.object_view(cand, &stamps, allow_stale, stats) {
                candidates.push((cand, view));
            }
        }
        TopkView {
            sts: Arc::clone(&self.sts),
            stamps,
            k,
            query,
            candidates,
            start,
            budget,
            deadline_hit,
        }
    }

    /// Serializes the full state as a sealed snapshot file: the header
    /// `stssnap 2 <max_seq>`, then one line per object, floats as hex
    /// bits, so decode→encode is the identity.
    pub(crate) fn encode_snapshot(&self) -> String {
        let mut body = String::new();
        for (id, o) in &self.objects {
            body.push_str(&format!("o {} {} {}", id, o.applied, o.ring.len()));
            for &(t, x, y) in &o.ring {
                body.push_str(&format!(
                    " {} {} {}",
                    f64_to_hex(t),
                    f64_to_hex(x),
                    f64_to_hex(y)
                ));
            }
            body.push_str(&format!(" {}", o.speeds.len()));
            for &v in &o.speeds {
                body.push_str(&format!(" {}", f64_to_hex(v)));
            }
            body.push('\n');
        }
        seal(&format!("stssnap 2 {}", self.max_seq), &body)
    }

    /// Unseals and rebuilds a state from [`ServeState::encode_snapshot`]'s
    /// output. Caches start cold — they are rebuilt lazily and
    /// deterministically from the rings.
    pub(crate) fn decode_snapshot(cfg: StateConfig, bytes: &[u8]) -> Result<Self, String> {
        let (header, body) = unseal(bytes)?;
        let max_seq: u64 = header
            .strip_prefix("stssnap 2 ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad snapshot header {header:?}"))?;
        let mut state = ServeState::new(cfg);
        state.max_seq = max_seq;
        for line in body.lines() {
            let mut it = line.split_whitespace();
            if it.next() != Some("o") {
                return Err(format!("bad object line {line:?}"));
            }
            let id: u64 = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("bad object id")?;
            let applied: u64 = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("bad applied count")?;
            let ring_n: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("bad ring length")?;
            if ring_n > state.cfg.ring_capacity {
                return Err(format!("ring length {ring_n} exceeds capacity"));
            }
            let mut o = ObjectState {
                applied,
                version: applied,
                ..ObjectState::default()
            };
            for _ in 0..ring_n {
                let t = it.next().and_then(f64_from_hex).ok_or("bad ring t")?;
                let x = it.next().and_then(f64_from_hex).ok_or("bad ring x")?;
                let y = it.next().and_then(f64_from_hex).ok_or("bad ring y")?;
                o.ring.push_back((t, x, y));
            }
            let speed_n: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or("bad speed length")?;
            if speed_n > state.cfg.speed_capacity {
                return Err(format!("speed length {speed_n} exceeds capacity"));
            }
            for _ in 0..speed_n {
                o.speeds
                    .push_back(it.next().and_then(f64_from_hex).ok_or("bad speed sample")?);
            }
            if it.next().is_some() {
                return Err(format!("trailing fields on object line {line:?}"));
            }
            state.objects.insert(id, o);
        }
        Ok(state)
    }
}

/// The `steps` evenly spaced stamps of `[t0, t1]`; one step is `t0`
/// alone.
fn window_stamps(t0: f64, t1: f64, steps: usize) -> Vec<f64> {
    let steps = steps.max(1);
    (0..steps)
        .map(|i| {
            if steps == 1 {
                t0
            } else {
                t0 + (t1 - t0) * (i as f64) / ((steps - 1) as f64)
            }
        })
        .collect()
}

/// What a query reads of one warm object, copied out under the lock.
struct ObjectView {
    /// The ring points bracketing the window's stamps (possibly none).
    points: Vec<TrajPoint>,
    model: Arc<SpeedKdeTransition>,
    /// Whether the model is a deferred, stale one.
    stale: bool,
}

impl ObjectView {
    /// The slice prepared for scoring, or `None` when it is empty: no
    /// stamp lies inside the object's span, so every CP is 0.
    fn prepare(self, sts: &Sts) -> Option<PreparedTrajectory> {
        let traj = Trajectory::new(self.points).ok()?;
        Some(sts.prepare_with_transition(traj, self.model))
    }
}

/// Mean CP of two prepared window slices over `stamps` (Eq. 8/9),
/// counting the stamps scored and box-skipped in `stats`.
fn window_score(
    sts: &Sts,
    a: Option<&PreparedTrajectory>,
    b: Option<&PreparedTrajectory>,
    stamps: &[f64],
    scratch: &mut StpScratch,
    stats: &ServeStats,
) -> f64 {
    stats.query_stamps(stamps.len() as u64);
    let sum = match (a, b) {
        (Some(a), Some(b)) => {
            let cp = sts.colocation_sum(a, b, stamps, scratch);
            stats.query_stamps_skipped(cp.skipped);
            cp.sum
        }
        _ => 0.0,
    };
    sum / stamps.len() as f64
}

/// A `colocate` query's view of the state; [`ColocView::evaluate`]
/// scores it with no lock held.
pub(crate) struct ColocView {
    sts: Arc<Sts>,
    stamps: Vec<f64>,
    /// Both objects' views, or `None` when either is cold.
    pair: Option<(ObjectView, ObjectView)>,
    staleness: Staleness,
}

impl ColocView {
    /// The query's answer.
    pub(crate) fn evaluate(self, stats: &ServeStats) -> QueryOutcome<f64> {
        let value = match self.pair {
            Some((a, b)) => {
                let (a, b) = (a.prepare(&self.sts), b.prepare(&self.sts));
                let mut scratch = StpScratch::new();
                window_score(
                    &self.sts,
                    a.as_ref(),
                    b.as_ref(),
                    &self.stamps,
                    &mut scratch,
                    stats,
                )
            }
            None => 0.0,
        };
        QueryOutcome {
            value,
            staleness: self.staleness,
            deadline_hit: false,
        }
    }
}

/// A `topk` query's view of the state; [`TopkView::evaluate`] scores
/// it with no lock held.
pub(crate) struct TopkView {
    sts: Arc<Sts>,
    stamps: Vec<f64>,
    k: usize,
    /// The query object's view, or `None` when it is cold.
    query: Option<ObjectView>,
    /// Every warm candidate reached within the budget, in id order.
    candidates: Vec<(u64, ObjectView)>,
    start: Instant,
    budget: Duration,
    /// The budget ran out while the view was taken.
    deadline_hit: bool,
}

impl TopkView {
    /// The query's answer. The query object is prepared once and every
    /// candidate is scored against it. Candidates are scored in id
    /// order until the budget runs out; the answer is stale when the
    /// query object or a candidate reached in time answered from a
    /// stale model.
    pub(crate) fn evaluate(self, stats: &ServeStats) -> QueryOutcome<Vec<(u64, f64)>> {
        let mut any_stale = self.query.as_ref().is_some_and(|q| q.stale);
        let warm = self.query.is_some();
        let query = self.query.and_then(|q| q.prepare(&self.sts));
        let mut scratch = StpScratch::new();
        let mut scored = Vec::with_capacity(self.candidates.len());
        let mut deadline_hit = self.deadline_hit;
        for (cand, view) in self.candidates {
            if deadline_hit || self.start.elapsed() > self.budget {
                deadline_hit = true;
                break;
            }
            any_stale |= view.stale;
            if warm {
                // An empty query slice scores every candidate 0.
                let slice = if query.is_some() {
                    view.prepare(&self.sts)
                } else {
                    None
                };
                let score = window_score(
                    &self.sts,
                    query.as_ref(),
                    slice.as_ref(),
                    &self.stamps,
                    &mut scratch,
                    stats,
                );
                scored.push((cand, score));
            }
        }
        if deadline_hit {
            stats.queries_deadline(1);
        }
        scored.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        scored.truncate(self.k);
        let staleness = if any_stale {
            stats.queries_stale(1);
            Staleness::Stale
        } else {
            Staleness::Fresh
        };
        QueryOutcome {
            value: scored,
            staleness,
            deadline_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use sts_core::{GaussianNoise, StpEstimator, StpEvalScratch};
    use sts_rng::check::Checker;
    use sts_rng::{Rng, Xoshiro256pp};

    fn stats() -> ServeStats {
        ServeStats::default()
    }

    /// The full-ring oracle: the scoring pass the window views replaced.
    /// Both objects' whole tail rings become trajectories with their own
    /// [`StpEstimator`]s, and the query object's STP is evaluated afresh
    /// for every pair and step.
    fn oracle_pair_score(
        s: &ServeState,
        a: u64,
        b: u64,
        t0: f64,
        t1: f64,
        steps: usize,
    ) -> Option<f64> {
        let trajectory = |o: &ObjectState| {
            if o.ring.len() < 2 || o.speeds.is_empty() {
                return None;
            }
            let pts = o.ring.iter().map(|&(t, x, y)| TrajPoint::from_xy(x, y, t));
            Trajectory::new(pts.collect()).ok()
        };
        let oa = s.objects.get(&a)?;
        let ob = s.objects.get(&b)?;
        let traj_a = trajectory(oa)?;
        let traj_b = trajectory(ob)?;
        let model_a = &oa.cache.as_ref()?.1;
        let model_b = &ob.cache.as_ref()?.1;
        let noise = GaussianNoise::new(s.cfg.noise_sigma);
        let grid = s.sts.grid();
        let est_a = StpEstimator::new(grid, &noise, model_a.as_ref(), &traj_a);
        let est_b = StpEstimator::new(grid, &noise, model_b.as_ref(), &traj_b);
        let steps = steps.max(1);
        let (mut sa, mut sb) = (StpEvalScratch::new(), StpEvalScratch::new());
        let mut sum = 0.0;
        for i in 0..steps {
            let t = if steps == 1 {
                t0
            } else {
                t0 + (t1 - t0) * (i as f64) / ((steps - 1) as f64)
            };
            sum += est_a.stp_into(t, &mut sa).dot(est_b.stp_into(t, &mut sb));
        }
        Some(sum / steps as f64)
    }

    /// [`ServeState::windowed_colocation`] as one locked pass over
    /// [`oracle_pair_score`].
    fn oracle_colocation(
        s: &mut ServeState,
        (a, b): (u64, u64),
        (t0, t1, steps): (f64, f64, usize),
        allow_stale: bool,
        stats: &ServeStats,
    ) -> QueryOutcome<f64> {
        stats.queries(1);
        let stale_a = s.ensure_model(a, allow_stale, stats);
        let stale_b = s.ensure_model(b, allow_stale, stats);
        let staleness = if stale_a == Some(true) || stale_b == Some(true) {
            stats.queries_stale(1);
            Staleness::Stale
        } else {
            Staleness::Fresh
        };
        let value = match (stale_a, stale_b) {
            (Some(_), Some(_)) => oracle_pair_score(s, a, b, t0, t1, steps).unwrap(),
            _ => 0.0,
        };
        QueryOutcome {
            value,
            staleness,
            deadline_hit: false,
        }
    }

    /// [`ServeState::topk`] as one locked pass over [`oracle_pair_score`]:
    /// each candidate's model is refreshed and the pair scored in turn.
    fn oracle_topk(
        s: &mut ServeState,
        (obj, k): (u64, usize),
        (t0, t1, steps): (f64, f64, usize),
        (allow_stale, budget): (bool, Duration),
        stats: &ServeStats,
    ) -> QueryOutcome<Vec<(u64, f64)>> {
        stats.queries(1);
        let start = Instant::now();
        let mut any_stale = s.ensure_model(obj, allow_stale, stats) == Some(true);
        let candidates: Vec<u64> = s.objects.keys().copied().filter(|&o| o != obj).collect();
        let mut scored = Vec::new();
        let mut deadline_hit = false;
        for cand in candidates {
            if start.elapsed() > budget {
                deadline_hit = true;
                stats.queries_deadline(1);
                break;
            }
            match s.ensure_model(cand, allow_stale, stats) {
                None => continue,
                Some(stale) => any_stale |= stale,
            }
            if let Some(score) = oracle_pair_score(s, obj, cand, t0, t1, steps) {
                scored.push((cand, score));
            }
        }
        scored.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        scored.truncate(k);
        let staleness = if any_stale {
            stats.queries_stale(1);
            Staleness::Stale
        } else {
            Staleness::Fresh
        };
        QueryOutcome {
            value: scored,
            staleness,
            deadline_hit,
        }
    }

    /// Pings of `objects` random walks, each starting at t = 0.0 within
    /// `spread` meters of the area's center (so some pairs meet and some
    /// never do) and moving up to 5 m per 0.5–6 s step. Object
    /// `objects - 1` pings once and stays cold.
    fn random_walks(rng: &mut Xoshiro256pp, objects: u64, pings: usize, spread: f64) -> Vec<Ping> {
        let mut out = Vec::new();
        for obj in 0..objects {
            let mut x = 50.0 + rng.random_range(-spread..spread);
            let mut y = 50.0 + rng.random_range(-spread..spread);
            let mut t = 0.0;
            let n = if obj + 1 == objects { 1 } else { pings };
            for _ in 0..n {
                out.push(ping(0, obj, t, x, y));
                x = (x + rng.random_range(-5.0..5.0)).clamp(1.0, 99.0);
                y = (y + rng.random_range(-5.0..5.0)).clamp(1.0, 99.0);
                t += rng.random_range(0.5..6.0);
            }
        }
        out.sort_by(|p, q| p.t.total_cmp(&q.t).then(p.obj.cmp(&q.obj)));
        out
    }

    /// A query window of one of the shapes the bit-identity gate covers.
    fn random_window(rng: &mut Xoshiro256pp, t_end: f64) -> (f64, f64) {
        let a = rng.random_range(0.0..t_end);
        let b = rng.random_range(a..t_end + 1.0);
        match rng.random_range(0..10u32) {
            0 | 1 => (a, b),                   // inside the rings
            2 => (-20.0, a),                   // partly outside
            3 => (t_end + 10.0, t_end + 90.0), // wholly outside
            4 => (b, a),                       // reversed
            5 => (a, a),                       // t0 == t1
            6 => (-0.0, a),                    // −0.0 meets the first pings
            7 => (
                [f64::NAN, a][rng.random_range(0..2usize)],
                [b, f64::NAN][rng.random_range(0..2usize)],
            ),
            8 => (
                f64::NEG_INFINITY,
                [b, f64::INFINITY][rng.random_range(0..2usize)],
            ),
            _ => (a, f64::INFINITY),
        }
    }

    /// The gate on the window views: on random states, `colocate` and
    /// `topk` answer exactly as the full-ring oracle — values bit for
    /// bit, `stale` and `deadline` tokens, and the query counters —
    /// fresh and stale, over windows inside, partly outside and wholly
    /// outside the rings, reversed, empty, and bounded by NaN, ±∞ and
    /// −0.0, at 1, 7 and other step counts. Fresh pings arrive between
    /// queries, so deferred refreshes answer stale.
    #[test]
    fn window_views_answer_as_the_full_ring_oracle() {
        let (scored, skipped, stale) = (Cell::new(0u64), Cell::new(0u64), Cell::new(0u64));
        Checker::new().cases(48).seed(29).run(
            (0u64..1 << 48, 3u64..8, 2usize..40),
            |(seed, objects, pings)| {
                let mut rng = Xoshiro256pp::seed_from_u64(seed);
                let spread = [12.0, 45.0][rng.random_range(0..2usize)];
                let (mut views, mut oracle) = (ServeState::new(StateConfig::default()), ServeState::new(StateConfig::default()));
                let (sv, so) = (stats(), stats());
                let mut seq = 0;
                let mut feed = |views: &mut ServeState, oracle: &mut ServeState, batch: Vec<Ping>| {
                    for mut p in batch {
                        seq += 1;
                        p.seq = seq;
                        prop_assert_eq_verdict(views.apply(&p), oracle.apply(&p))?;
                    }
                    Ok::<(), String>(())
                };
                let walks = random_walks(&mut rng, objects, pings, spread);
                let t_end = walks.last().map_or(1.0, |p| p.t);
                feed(&mut views, &mut oracle, walks)?;
                for q in 0..12 {
                    if rng.random_range(0..4u32) == 0 {
                        // Later pings dirty the models: a deferred
                        // refresh now answers stale.
                        let obj = rng.random_range(0..objects);
                        let t = t_end + 1.0 + q as f64;
                        let batch = vec![ping(0, obj, t, rng.random_range(1.0..99.0), rng.random_range(1.0..99.0))];
                        feed(&mut views, &mut oracle, batch)?;
                    }
                    let (t0, t1) = random_window(&mut rng, t_end);
                    let steps = [1, 7, rng.random_range(2..6usize)][rng.random_range(0..3usize)];
                    let allow_stale = rng.random_range(0..2u32) == 0;
                    let a = rng.random_range(0..objects + 1);
                    let case = format!("seed={seed} query {q}: a={a} window=({t0}, {t1}) steps={steps} allow_stale={allow_stale}");
                    if rng.random_range(0..2u32) == 0 {
                        let b = rng.random_range(0..objects + 1);
                        let got = views.windowed_colocation(a, b, t0, t1, steps, allow_stale, &sv);
                        let want = oracle_colocation(&mut oracle, (a, b), (t0, t1, steps), allow_stale, &so);
                        if got.value.to_bits() != want.value.to_bits() || got.staleness != want.staleness || got.deadline_hit != want.deadline_hit {
                            return Err(format!("{case} b={b}: colocate {got:?}, oracle {want:?}"));
                        }
                    } else {
                        let k = rng.random_range(1..6usize);
                        let budget = [Duration::from_secs(60), Duration::ZERO][(rng.random_range(0..8u32) == 0) as usize];
                        let got = views.topk(a, t0, t1, steps, k, allow_stale, budget, &sv);
                        let want = oracle_topk(&mut oracle, (a, k), (t0, t1, steps), (allow_stale, budget), &so);
                        let bits = |o: &QueryOutcome<Vec<(u64, f64)>>| o.value.iter().map(|&(id, v)| (id, v.to_bits())).collect::<Vec<_>>();
                        if bits(&got) != bits(&want) || got.staleness != want.staleness || got.deadline_hit != want.deadline_hit {
                            return Err(format!("{case} k={k} budget={budget:?}: topk {got:?}, oracle {want:?}"));
                        }
                    }
                }
                for counter in ["queries", "queries_stale", "refresh_deferred", "queries_deadline"] {
                    if sv.get(counter) != so.get(counter) {
                        return Err(format!("seed={seed}: {counter} {:?}, oracle {:?}", sv.get(counter), so.get(counter)));
                    }
                }
                scored.set(scored.get() + sv.get("query_stamps").unwrap());
                skipped.set(skipped.get() + sv.get("query_stamps_skipped").unwrap());
                stale.set(stale.get() + sv.get("queries_stale").unwrap());
                Ok(())
            },
        );
        assert!(
            skipped.get() > 0 && skipped.get() < scored.get() && stale.get() > 0,
            "the cases must skip some stamps, score others and answer stale: \
             {} of {} stamps skipped, {} stale answers",
            skipped.get(),
            scored.get(),
            stale.get()
        );
    }

    fn prop_assert_eq_verdict(a: ApplyVerdict, b: ApplyVerdict) -> Result<(), String> {
        if a == b {
            Ok(())
        } else {
            Err(format!("apply verdicts differ: {a:?} vs {b:?}"))
        }
    }

    fn ping(seq: u64, obj: u64, t: f64, x: f64, y: f64) -> Ping {
        Ping { seq, obj, t, x, y }
    }

    /// A deterministic two-object walk: both drift along y = x, object
    /// 1 offset by `gap`.
    fn walked_state(n: u64, gap: f64) -> ServeState {
        let mut s = ServeState::new(StateConfig::default());
        let st = stats();
        let mut seq = 0;
        for i in 0..n {
            let t = i as f64;
            for obj in 0..2u64 {
                seq += 1;
                let off = if obj == 1 { gap } else { 0.0 };
                let p = ping(seq, obj, t + 0.5 * obj as f64, 10.0 + t + off, 10.0 + t);
                assert_eq!(s.apply(&p), ApplyVerdict::Applied, "{p:?}");
                let _ = st;
            }
        }
        s
    }

    #[test]
    fn ping_encode_decode_round_trips_bit_exactly() {
        let p = ping(7, 3, 1.25, -0.0, f64::NAN);
        let d = Ping::decode(&p.encode()).unwrap();
        assert_eq!(d.seq, 7);
        assert_eq!(d.obj, 3);
        assert_eq!(d.t.to_bits(), p.t.to_bits());
        assert_eq!(d.x.to_bits(), p.x.to_bits());
        assert_eq!(d.y.to_bits(), p.y.to_bits());
        assert_eq!(Ping::decode("p 1 2 deadbeef"), None);
        assert_eq!(Ping::decode("q 1 2"), None);
    }

    #[test]
    fn apply_filters_dup_seq_and_stale_time() {
        let mut s = ServeState::new(StateConfig::default());
        assert_eq!(s.apply(&ping(1, 0, 0.0, 1.0, 1.0)), ApplyVerdict::Applied);
        assert_eq!(s.apply(&ping(1, 0, 9.0, 1.0, 1.0)), ApplyVerdict::DupSeq);
        assert_eq!(s.apply(&ping(2, 0, 0.0, 2.0, 2.0)), ApplyVerdict::StaleTime);
        // Seq 2 was consumed even though refused.
        assert_eq!(s.apply(&ping(2, 0, 5.0, 2.0, 2.0)), ApplyVerdict::DupSeq);
        assert_eq!(s.apply(&ping(3, 0, 5.0, 2.0, 2.0)), ApplyVerdict::Applied);
        assert_eq!(
            s.apply(&ping(4, 0, f64::NAN, 2.0, 2.0)),
            ApplyVerdict::StaleTime
        );
        assert_eq!(s.max_seq(), 4);
        assert_eq!(s.total_applied(), 2);
    }

    #[test]
    fn rings_stay_bounded() {
        let cfg = StateConfig {
            ring_capacity: 4,
            speed_capacity: 3,
            ..StateConfig::default()
        };
        let mut s = ServeState::new(cfg);
        for i in 0..50u64 {
            s.apply(&ping(i + 1, 0, i as f64, (i % 90) as f64, 1.0));
        }
        let o = s.objects.get(&0).unwrap();
        assert_eq!(o.ring.len(), 4);
        assert_eq!(o.speeds.len(), 3);
        assert_eq!(o.applied, 50);
    }

    #[test]
    fn colocation_is_deterministic_and_orders_sensibly() {
        let st = stats();
        // Close pair scores higher than a far pair, and repeated
        // evaluation is bit-identical.
        let mut near = walked_state(12, 1.0);
        let mut far = walked_state(12, 60.0);
        let qn = near.windowed_colocation(0, 1, 4.0, 9.0, 5, false, &st);
        let qn2 = near.windowed_colocation(0, 1, 4.0, 9.0, 5, false, &st);
        let qf = far.windowed_colocation(0, 1, 4.0, 9.0, 5, false, &st);
        assert_eq!(qn.value.to_bits(), qn2.value.to_bits());
        assert_eq!(qn.staleness, Staleness::Fresh);
        assert!(qn.value > qf.value, "{} vs {}", qn.value, qf.value);
        assert!(qn.value > 0.0);
        // Unknown object: exact zero.
        let q = near.windowed_colocation(0, 99, 4.0, 9.0, 5, false, &st);
        assert_eq!(q.value, 0.0);
    }

    #[test]
    fn stale_marker_fires_only_when_refresh_is_deferred() {
        let st = stats();
        let mut s = walked_state(10, 1.0);
        // Warm the caches.
        let q = s.windowed_colocation(0, 1, 4.0, 8.0, 3, false, &st);
        assert_eq!(q.staleness, Staleness::Fresh);
        // New pings dirty the caches.
        s.apply(&ping(1000, 0, 50.0, 60.0, 60.0));
        s.apply(&ping(1001, 1, 50.0, 61.0, 60.0));
        // Shedding: allow_stale answers from the old model, flagged.
        let stale = s.windowed_colocation(0, 1, 4.0, 8.0, 3, true, &st);
        assert_eq!(stale.staleness, Staleness::Stale);
        assert!(st.get("refresh_deferred").unwrap() >= 2);
        // Fresh query rebuilds and differs in marker.
        let fresh = s.windowed_colocation(0, 1, 4.0, 8.0, 3, false, &st);
        assert_eq!(fresh.staleness, Staleness::Fresh);
    }

    #[test]
    fn topk_ranks_deterministically_with_id_tiebreak() {
        let st = stats();
        let mut s = ServeState::new(StateConfig::default());
        let mut seq = 0;
        // Object 0 walks; 1 shadows it closely; 2 is far; 3 is cold
        // (one ping).
        for i in 0..10u64 {
            let t = i as f64;
            for (obj, off) in [(0u64, 0.0), (1, 1.0), (2, 70.0)] {
                seq += 1;
                s.apply(&ping(seq, obj, t, 10.0 + t + off, 20.0 + off / 2.0));
            }
        }
        seq += 1;
        s.apply(&ping(seq, 3, 0.0, 10.0, 20.0));
        let q = s.topk(0, 3.0, 8.0, 4, 2, false, Duration::from_secs(30), &st);
        assert!(!q.deadline_hit);
        assert_eq!(q.value.len(), 2);
        assert_eq!(q.value[0].0, 1, "shadow ranks first: {:?}", q.value);
        assert!(q.value[0].1 > q.value[1].1);
        let q2 = s.topk(0, 3.0, 8.0, 4, 2, false, Duration::from_secs(30), &st);
        assert_eq!(q, q2, "top-k must be deterministic");
    }

    #[test]
    fn topk_deadline_cuts_short_and_is_flagged() {
        let st = stats();
        let mut s = walked_state(10, 1.0);
        let q = s.topk(0, 4.0, 8.0, 3, 5, false, Duration::from_secs(0), &st);
        assert!(q.deadline_hit);
        assert!(q.value.len() <= 1);
        assert_eq!(st.get("queries_deadline"), Some(1));
    }

    #[test]
    fn a_negative_zero_window_answers_as_positive_zero() {
        // Object 0 is observed at +0.0; object 1 is between pings there.
        // A −0.0 stamp must find object 0's observation at +0.0.
        let mut s = ServeState::new(StateConfig::default());
        for i in 0..8u64 {
            let t = i as f64;
            s.apply(&ping(2 * i + 1, 0, t, 20.0 + t, 20.0));
            s.apply(&ping(2 * i + 2, 1, t - 0.5, 20.5 + t, 21.0));
        }
        let st = stats();
        let neg = s.windowed_colocation(0, 1, -0.0, 3.0, 1, false, &st);
        let pos = s.windowed_colocation(0, 1, 0.0, 3.0, 1, false, &st);
        assert!(pos.value > 0.0);
        assert_eq!(neg.value.to_bits(), pos.value.to_bits());
        let neg = s.topk(0, -0.0, 3.0, 1, 1, false, Duration::from_secs(30), &st);
        let pos = s.topk(0, 0.0, 3.0, 1, 1, false, Duration::from_secs(30), &st);
        assert_eq!(neg, pos);
    }

    #[test]
    fn query_stamp_counters_reconcile_with_the_box_skip() {
        // 80 m apart: every stamp's support boxes are disjoint, bridges
        // included (a bridge box reaches ~30 m around its pings).
        let mut far = ServeState::new(StateConfig::default());
        for i in 0..12u64 {
            let t = i as f64;
            far.apply(&ping(2 * i + 1, 0, t, 10.0 + t, 10.0));
            far.apply(&ping(2 * i + 2, 1, t + 0.5, 10.0 + t, 90.0));
        }
        let st = stats();
        let q = far.windowed_colocation(0, 1, 4.0, 9.0, 5, false, &st);
        assert_eq!(q.value, 0.0);
        assert_eq!(st.get("query_stamps"), Some(5));
        assert_eq!(st.get("query_stamps_skipped"), Some(5));
        // A shadowing pair overlaps at every stamp.
        let st = stats();
        let q = walked_state(12, 1.0).windowed_colocation(0, 1, 4.0, 9.0, 5, false, &st);
        assert!(q.value > 0.0);
        assert_eq!(st.get("query_stamps"), Some(5));
        assert_eq!(st.get("query_stamps_skipped"), Some(0));
        // A top-k counts the stamps of every candidate it scores; a
        // cold object is not scored.
        let st = stats();
        let mut s = walked_state(12, 1.0);
        s.apply(&ping(1000, 7, 3.0, 90.0, 90.0));
        s.topk(1, 4.0, 9.0, 3, 5, false, Duration::from_secs(30), &st);
        assert_eq!(st.get("query_stamps"), Some(3));
        assert_eq!(st.get("query_stamps_skipped"), Some(0));
    }

    #[test]
    fn snapshot_body_round_trips_bit_exactly() {
        let s = walked_state(20, 3.0);
        let body = s.encode_snapshot();
        let back = ServeState::decode_snapshot(StateConfig::default(), body.as_bytes()).unwrap();
        assert_eq!(back.encode_snapshot(), body);
        assert_eq!(back.max_seq(), s.max_seq());
        assert_eq!(back.total_applied(), s.total_applied());
        // And the restored state answers queries identically.
        let st = stats();
        let mut a = s;
        let mut b = back;
        let qa = a.windowed_colocation(0, 1, 5.0, 15.0, 7, false, &st);
        let qb = b.windowed_colocation(0, 1, 5.0, 15.0, 7, false, &st);
        assert_eq!(qa.value.to_bits(), qb.value.to_bits());
    }

    #[test]
    fn snapshot_decode_rejects_structural_corruption() {
        // Sealed, so past the digest, but wrong inside.
        let s = walked_state(5, 1.0);
        let snapshot = s.encode_snapshot();
        let (_, body) = unseal(snapshot.as_bytes()).unwrap();
        for bad in [
            seal("stssnap 1 0", ""),                          // wrong version
            seal("stssnap 2 5", &body.replace("o 0", "x 0")), // bad object tag
            seal("stssnap 2 5", "o 9 1 33\n"),                // ring over capacity
            seal("stssnap 2 5", "o 9 1 0 0 junk\n"),          // trailing fields
        ] {
            assert!(
                ServeState::decode_snapshot(StateConfig::default(), bad.as_bytes()).is_err(),
                "{bad:?} must not decode"
            );
        }
    }

    #[test]
    fn replay_equals_direct_application() {
        // The recovery argument in miniature: applying pings 1..n, or
        // snapshotting at n/2 and replaying the rest, yields
        // bit-identical answers.
        let st = stats();
        let mut pings = Vec::new();
        let mut seq = 0;
        for i in 0..16u64 {
            for obj in 0..3u64 {
                seq += 1;
                pings.push(ping(
                    seq,
                    obj,
                    i as f64 + 0.1 * obj as f64,
                    5.0 + i as f64 + obj as f64,
                    30.0 - obj as f64,
                ));
            }
        }
        let mut direct = ServeState::new(StateConfig::default());
        for p in &pings {
            direct.apply(p);
        }
        let mut half = ServeState::new(StateConfig::default());
        for p in &pings[..24] {
            half.apply(p);
        }
        let body = half.encode_snapshot();
        let mut recovered =
            ServeState::decode_snapshot(StateConfig::default(), body.as_bytes()).unwrap();
        // Replay everything with overlap: dedup must discard the first
        // 24 and apply the rest.
        for p in &pings {
            recovered.apply(p);
        }
        let qa = direct.windowed_colocation(0, 1, 2.0, 14.0, 9, false, &st);
        let qb = recovered.windowed_colocation(0, 1, 2.0, 14.0, 9, false, &st);
        assert_eq!(qa.value.to_bits(), qb.value.to_bits());
        let ta = direct.topk(0, 2.0, 14.0, 5, 3, false, Duration::from_secs(30), &st);
        let tb = recovered.topk(0, 2.0, 14.0, 5, 3, false, Duration::from_secs(30), &st);
        assert_eq!(ta, tb);
    }
}
