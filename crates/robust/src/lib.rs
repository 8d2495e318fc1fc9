#![warn(missing_docs)]
//! # sts-robust — deterministic fault injection for trajectory data
//!
//! Real-world trajectory feeds are dirty: GPS units emit NaN fixes,
//! loggers shuffle or duplicate timestamps, multipath reflections
//! teleport points across town, uploads truncate mid-record, and disk
//! corruption mangles bytes. The paper's premise — location noise and
//! sporadic sampling are the *normal* case (§I) — extends naturally to
//! outright corruption, and a pipeline that reproduces the measure must
//! not fall over on the inputs the measure was designed for.
//!
//! This crate is the *attack side* of that contract. It provides:
//!
//! * the [`Injector`] trait — a named, deterministic corruption of a raw
//!   point stream, driven by an [`sts_rng::Xoshiro256pp`] so every
//!   chaos case is replayable from its seed;
//! * point-stream injectors: [`NanCoords`], [`InfCoords`],
//!   [`ShuffleTimes`], [`DuplicateStamps`], [`TeleportSpikes`],
//!   [`TruncateRecord`];
//! * [`ByteMangler`] — byte-level corruption of the `sts-traj` `io`
//!   text format (bit flips, deletions, line duplication);
//! * [`standard_injectors`] — the full battery, for chaos suites.
//!
//! The *defense side* lives across the workspace: `sts_traj::repair`
//! turns corrupted streams back into valid trajectories,
//! `sts_traj::io::read_trajectories_lenient` survives mangled files,
//! and `sts_core`'s matrix engine quarantines whatever remains
//! unusable. The chaos suite in `tests/chaos.rs` drives every injector
//! through that whole pipeline and asserts the invariant that matters:
//! **never a panic — always a typed error or a repaired result.**
//!
//! Injectors mutate plain `Vec<TrajPoint>` (which may hold anything,
//! including NaN), never `Trajectory` (whose constructor enforces the
//! clean-data invariants).

pub mod disk;
pub mod net;

pub use disk::{DiskFault, DiskFaultPlan, FaultyStorage, InjectedFault};
pub use net::{InjectedNetFault, NetChaos, NetFaultCounts, NetFaultPlan};

use sts_rng::{Rng, Xoshiro256pp};
use sts_traj::TrajPoint;

/// A named, deterministic corruption of a raw point stream.
///
/// Implementations must be pure functions of `(points, rng)`: replaying
/// the same stream with the same seeded generator reproduces the same
/// corruption byte for byte. They must also be total — any input vector,
/// including one produced by another injector, is acceptable.
pub trait Injector {
    /// Short stable name, used in chaos-suite diagnostics.
    fn name(&self) -> &'static str;

    /// Corrupts `points` in place.
    fn inject(&self, points: &mut Vec<TrajPoint>, rng: &mut Xoshiro256pp);
}

/// Replaces coordinates with NaN at the given per-point rate.
#[derive(Debug, Clone, Copy)]
pub struct NanCoords {
    /// Probability that a given point's x and/or y becomes NaN.
    pub rate: f64,
}

impl Injector for NanCoords {
    fn name(&self) -> &'static str {
        "nan-coords"
    }

    fn inject(&self, points: &mut Vec<TrajPoint>, rng: &mut Xoshiro256pp) {
        sts_obs::static_counter!("robust.injections").incr();
        for p in points.iter_mut() {
            if rng.f64() < self.rate {
                // Corrupt x, y or both — real units fail in all three ways.
                match rng.random_range(0..3u32) {
                    0 => p.loc.x = f64::NAN,
                    1 => p.loc.y = f64::NAN,
                    _ => {
                        p.loc.x = f64::NAN;
                        p.loc.y = f64::NAN;
                    }
                }
            }
        }
    }
}

/// Replaces coordinates with ±∞ at the given per-point rate.
#[derive(Debug, Clone, Copy)]
pub struct InfCoords {
    /// Probability that a given point's x or y becomes infinite.
    pub rate: f64,
}

impl Injector for InfCoords {
    fn name(&self) -> &'static str {
        "inf-coords"
    }

    fn inject(&self, points: &mut Vec<TrajPoint>, rng: &mut Xoshiro256pp) {
        sts_obs::static_counter!("robust.injections").incr();
        for p in points.iter_mut() {
            if rng.f64() < self.rate {
                let val = if rng.f64() < 0.5 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                };
                if rng.f64() < 0.5 {
                    p.loc.x = val;
                } else {
                    p.loc.y = val;
                }
            }
        }
    }
}

/// Swaps randomly chosen pairs of timestamps, breaking monotonicity
/// while preserving the multiset of stamps (a reordered upload).
#[derive(Debug, Clone, Copy)]
pub struct ShuffleTimes {
    /// Number of random transpositions to apply.
    pub swaps: usize,
}

impl Injector for ShuffleTimes {
    fn name(&self) -> &'static str {
        "shuffle-times"
    }

    fn inject(&self, points: &mut Vec<TrajPoint>, rng: &mut Xoshiro256pp) {
        sts_obs::static_counter!("robust.injections").incr();
        if points.len() < 2 {
            return;
        }
        for _ in 0..self.swaps {
            let i = rng.random_range(0..points.len());
            let j = rng.random_range(0..points.len());
            let (ti, tj) = (points[i].t, points[j].t);
            points[i].t = tj;
            points[j].t = ti;
        }
    }
}

/// Copies the previous point's timestamp onto a point at the given rate
/// (a logger stamping at coarser resolution than its sampling rate).
#[derive(Debug, Clone, Copy)]
pub struct DuplicateStamps {
    /// Probability that a given point inherits its predecessor's stamp.
    pub rate: f64,
}

impl Injector for DuplicateStamps {
    fn name(&self) -> &'static str {
        "duplicate-stamps"
    }

    fn inject(&self, points: &mut Vec<TrajPoint>, rng: &mut Xoshiro256pp) {
        sts_obs::static_counter!("robust.injections").incr();
        for i in 1..points.len() {
            if rng.f64() < self.rate {
                points[i].t = points[i - 1].t;
            }
        }
    }
}

/// Displaces points by a large random jump at the given rate (GPS
/// multipath: the fix lands blocks away for one sample).
#[derive(Debug, Clone, Copy)]
pub struct TeleportSpikes {
    /// Probability that a given point is displaced.
    pub rate: f64,
    /// Magnitude of the displacement, in the stream's length unit.
    pub magnitude: f64,
}

impl Injector for TeleportSpikes {
    fn name(&self) -> &'static str {
        "teleport-spikes"
    }

    fn inject(&self, points: &mut Vec<TrajPoint>, rng: &mut Xoshiro256pp) {
        sts_obs::static_counter!("robust.injections").incr();
        for p in points.iter_mut() {
            if rng.f64() < self.rate {
                let angle = rng.f64() * std::f64::consts::TAU;
                p.loc.x += self.magnitude * angle.cos();
                p.loc.y += self.magnitude * angle.sin();
            }
        }
    }
}

/// Truncates the stream at a random point — possibly to a single point
/// or to nothing (an upload cut off mid-record).
#[derive(Debug, Clone, Copy)]
pub struct TruncateRecord;

impl Injector for TruncateRecord {
    fn name(&self) -> &'static str {
        "truncate-record"
    }

    fn inject(&self, points: &mut Vec<TrajPoint>, rng: &mut Xoshiro256pp) {
        sts_obs::static_counter!("robust.injections").incr();
        let keep = rng.random_range(0..points.len() + 1);
        points.truncate(keep);
    }
}

/// The full battery of point-stream injectors with representative
/// parameters, for chaos suites. The order is stable so chaos-case
/// numbering stays meaningful across runs.
pub fn standard_injectors() -> Vec<Box<dyn Injector>> {
    vec![
        Box::new(NanCoords { rate: 0.2 }),
        Box::new(InfCoords { rate: 0.2 }),
        Box::new(ShuffleTimes { swaps: 4 }),
        Box::new(DuplicateStamps { rate: 0.3 }),
        Box::new(TeleportSpikes {
            rate: 0.15,
            magnitude: 5_000.0,
        }),
        Box::new(TruncateRecord),
    ]
}

/// Byte-level corruption of the `sts-traj` `io` text format: flips
/// random bytes, deletes random spans, and duplicates random lines —
/// the failure modes of disk corruption and interrupted appends.
#[derive(Debug, Clone, Copy)]
pub struct ByteMangler {
    /// Number of single-byte flips.
    pub flips: usize,
    /// Number of random span deletions (up to 16 bytes each).
    pub deletions: usize,
    /// Number of line duplications.
    pub line_dups: usize,
}

impl Default for ByteMangler {
    fn default() -> Self {
        ByteMangler {
            flips: 8,
            deletions: 2,
            line_dups: 1,
        }
    }
}

impl ByteMangler {
    /// Corrupts `bytes` in place. Total for any input, including empty.
    pub fn mangle(&self, bytes: &mut Vec<u8>, rng: &mut Xoshiro256pp) {
        sts_obs::static_counter!("robust.byte_mangles").incr();
        for _ in 0..self.flips {
            if bytes.is_empty() {
                break;
            }
            let i = rng.random_range(0..bytes.len());
            bytes[i] ^= 1 << rng.random_range(0..8u32);
        }
        for _ in 0..self.deletions {
            if bytes.is_empty() {
                break;
            }
            let start = rng.random_range(0..bytes.len());
            let len = (rng.random_range(1..17usize)).min(bytes.len() - start);
            bytes.drain(start..start + len);
        }
        for _ in 0..self.line_dups {
            let lines: Vec<(usize, usize)> = line_spans(bytes);
            if lines.is_empty() {
                break;
            }
            let (start, end) = lines[rng.random_range(0..lines.len())];
            let line: Vec<u8> = bytes[start..end].to_vec();
            let at = lines[rng.random_range(0..lines.len())].0;
            bytes.splice(at..at, line);
        }
    }
}

/// `(start, end)` byte spans of the lines in `bytes`, each including its
/// trailing newline when present.
fn line_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < bytes.len() {
        spans.push((start, bytes.len()));
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walk(n: usize) -> Vec<TrajPoint> {
        (0..n)
            .map(|i| TrajPoint::from_xy(3.0 * i as f64, 40.0, 10.0 * i as f64))
            .collect()
    }

    fn rng(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(seed)
    }

    /// Bitwise image of a stream — NaN-proof equality for determinism
    /// checks (`assert_eq!` on points would treat NaN ≠ NaN).
    fn bits(points: &[TrajPoint]) -> Vec<(u64, u64, u64)> {
        points
            .iter()
            .map(|p| (p.loc.x.to_bits(), p.loc.y.to_bits(), p.t.to_bits()))
            .collect()
    }

    #[test]
    fn injectors_are_deterministic() {
        for inj in standard_injectors() {
            let mut a = walk(20);
            let mut b = walk(20);
            inj.inject(&mut a, &mut rng(7));
            inj.inject(&mut b, &mut rng(7));
            assert_eq!(
                bits(&a),
                bits(&b),
                "{} not a pure function of the seed",
                inj.name()
            );
        }
    }

    #[test]
    fn nan_coords_actually_injects_nan() {
        let mut pts = walk(50);
        NanCoords { rate: 0.5 }.inject(&mut pts, &mut rng(1));
        assert!(pts.iter().any(|p| p.loc.x.is_nan() || p.loc.y.is_nan()));
    }

    #[test]
    fn inf_coords_actually_injects_infinities() {
        let mut pts = walk(50);
        InfCoords { rate: 0.5 }.inject(&mut pts, &mut rng(1));
        assert!(pts
            .iter()
            .any(|p| p.loc.x.is_infinite() || p.loc.y.is_infinite()));
    }

    #[test]
    fn shuffle_times_preserves_stamp_multiset() {
        let mut pts = walk(30);
        let mut before: Vec<f64> = pts.iter().map(|p| p.t).collect();
        ShuffleTimes { swaps: 10 }.inject(&mut pts, &mut rng(3));
        let mut after: Vec<f64> = pts.iter().map(|p| p.t).collect();
        before.sort_by(f64::total_cmp);
        after.sort_by(f64::total_cmp);
        assert_eq!(before, after);
        assert!(
            pts.windows(2).any(|w| w[1].t <= w[0].t),
            "10 swaps over 30 points should break monotonicity"
        );
    }

    #[test]
    fn duplicate_stamps_creates_equal_neighbors() {
        let mut pts = walk(50);
        DuplicateStamps { rate: 0.5 }.inject(&mut pts, &mut rng(4));
        assert!(pts.windows(2).any(|w| w[0].t == w[1].t));
    }

    #[test]
    fn teleport_spikes_displace_by_the_magnitude() {
        let mut pts = walk(50);
        let clean = walk(50);
        TeleportSpikes {
            rate: 0.3,
            magnitude: 1_000.0,
        }
        .inject(&mut pts, &mut rng(5));
        let displaced = pts
            .iter()
            .zip(&clean)
            .filter(|(a, b)| a.loc.distance(&b.loc) > 999.0)
            .count();
        assert!(displaced > 0, "no point was teleported");
        for (a, b) in pts.iter().zip(&clean) {
            let d = a.loc.distance(&b.loc);
            assert!(d < 1e-9 || (d - 1_000.0).abs() < 1e-6);
        }
    }

    #[test]
    fn truncate_record_only_shortens() {
        for seed in 0..32 {
            let mut pts = walk(10);
            TruncateRecord.inject(&mut pts, &mut rng(seed));
            assert!(pts.len() <= 10);
            assert_eq!(pts[..], walk(10)[..pts.len()]);
        }
    }

    #[test]
    fn truncate_record_survives_empty_input() {
        let mut pts = Vec::new();
        TruncateRecord.inject(&mut pts, &mut rng(0));
        assert!(pts.is_empty());
    }

    #[test]
    fn byte_mangler_changes_bytes_and_survives_empty() {
        let mut bytes = b"traj 2\n0 40 0\n3 40 10\n".to_vec();
        let original = bytes.clone();
        ByteMangler::default().mangle(&mut bytes, &mut rng(9));
        assert_ne!(bytes, original);

        let mut empty = Vec::new();
        ByteMangler::default().mangle(&mut empty, &mut rng(9));
        assert!(empty.is_empty());
    }

    #[test]
    fn byte_mangler_is_deterministic() {
        let src = b"traj 3\n0 40 0\n3 40 10\n6 40 20\ntraj 1\n1 1 1\n".to_vec();
        let (mut a, mut b) = (src.clone(), src);
        ByteMangler::default().mangle(&mut a, &mut rng(11));
        ByteMangler::default().mangle(&mut b, &mut rng(11));
        assert_eq!(a, b);
    }
}
