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
//! Queries evaluate the paper's machinery unchanged: a
//! [`StpEstimator`] per object over the tail trajectory and Eq. 8/9
//! co-location probability, averaged over evenly spaced timestamps in
//! the query window.

use crate::{f64_from_hex, f64_to_hex, ServeStats};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};
use sts_core::{GaussianNoise, SpeedKdeTransition, StpEstimator, StpEvalScratch};
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
    cache: Option<(u64, SpeedKdeTransition)>,
}

impl ObjectState {
    fn last_t(&self) -> Option<f64> {
        self.ring.back().map(|&(t, _, _)| t)
    }

    /// The tail trajectory, or `None` while the object is cold
    /// (fewer than 2 pings: no speed evidence, no meaningful STP).
    fn trajectory(&self) -> Option<Trajectory> {
        if self.ring.len() < 2 || self.speeds.is_empty() {
            return None;
        }
        let pts: Vec<TrajPoint> = self
            .ring
            .iter()
            .map(|&(t, x, y)| TrajPoint::from_xy(x, y, t))
            .collect();
        Trajectory::new(pts).ok()
    }
}

/// The served state: every object's incremental tail + the query
/// engine. Single-writer (the ingest thread) behind the server's
/// mutex; queries take the same lock.
#[derive(Debug)]
pub struct ServeState {
    cfg: StateConfig,
    grid: Grid,
    noise: GaussianNoise,
    objects: BTreeMap<u64, ObjectState>,
    /// Highest ingest seq ever consumed (applied or refused stale).
    max_seq: u64,
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
        let noise = GaussianNoise::new(cfg.noise_sigma);
        ServeState {
            cfg,
            grid,
            noise,
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
        let cell = self.grid.cell_size();
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
                o.cache = Some((o.version, model));
                Some(false)
            }
        }
    }

    /// Mean co-location probability (Eq. 8/9) of `a` and `b` over
    /// `steps` evenly spaced timestamps in `[t0, t1]`. Cold or unknown
    /// objects score exactly `0.0`.
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
        stats.queries(1);
        let stale_a = self.ensure_model(a, allow_stale, stats);
        let stale_b = self.ensure_model(b, allow_stale, stats);
        let staleness = if stale_a == Some(true) || stale_b == Some(true) {
            stats.queries_stale(1);
            Staleness::Stale
        } else {
            Staleness::Fresh
        };
        let value = match (stale_a, stale_b) {
            (Some(_), Some(_)) => {
                let mut scratch = [StpEvalScratch::new(), StpEvalScratch::new()];
                self.pair_score(a, b, t0, t1, steps, &mut scratch)
                    .expect("ensure_model guarantees both objects are warm")
            }
            _ => 0.0,
        };
        QueryOutcome {
            value,
            staleness,
            deadline_hit: false,
        }
    }

    /// The immutable scoring pass: both objects must have valid caches.
    /// `scratch` holds one STP evaluation buffer per side; callers reuse
    /// the pair across every step and candidate of a query.
    fn pair_score(
        &self,
        a: u64,
        b: u64,
        t0: f64,
        t1: f64,
        steps: usize,
        scratch: &mut [StpEvalScratch; 2],
    ) -> Option<f64> {
        let oa = self.objects.get(&a)?;
        let ob = self.objects.get(&b)?;
        let traj_a = oa.trajectory()?;
        let traj_b = ob.trajectory()?;
        let model_a = &oa.cache.as_ref()?.1;
        let model_b = &ob.cache.as_ref()?.1;
        let est_a = StpEstimator::new(&self.grid, &self.noise, model_a, &traj_a);
        let est_b = StpEstimator::new(&self.grid, &self.noise, model_b, &traj_b);
        let steps = steps.max(1);
        let [sa, sb] = scratch;
        let mut sum = 0.0;
        for i in 0..steps {
            let t = if steps == 1 {
                t0
            } else {
                t0 + (t1 - t0) * (i as f64) / ((steps - 1) as f64)
            };
            // CP(t) (Eq. 8/9), as `colocation_probability` computes it.
            sum += est_a.stp_into(t, sa).dot(est_b.stp_into(t, sb));
        }
        Some(sum / steps as f64)
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
        stats.queries(1);
        let start = Instant::now();
        let mut any_stale = self.ensure_model(obj, allow_stale, stats) == Some(true);
        let candidates: Vec<u64> = self.objects.keys().copied().filter(|&o| o != obj).collect();
        let mut scored: Vec<(u64, f64)> = Vec::with_capacity(candidates.len());
        let mut scratch = [StpEvalScratch::new(), StpEvalScratch::new()];
        let mut deadline_hit = false;
        for cand in candidates {
            if start.elapsed() > budget {
                deadline_hit = true;
                stats.queries_deadline(1);
                break;
            }
            match self.ensure_model(cand, allow_stale, stats) {
                None => continue,
                Some(stale) => any_stale |= stale,
            }
            if let Some(score) = self.pair_score(obj, cand, t0, t1, steps, &mut scratch) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> ServeStats {
        ServeStats::default()
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
