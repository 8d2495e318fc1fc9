//! The one cell vocabulary and the workspace fingerprint hash.
//!
//! A [`PairOutcome`] is what scoring one (query, candidate) cell came
//! to. Everything that writes a cell down — a tile file's cell lines
//! (`crate::tile`) and a worker's `result` frame (`sts-core`'s worker
//! protocol) — writes it with [`encode_cell`] and reads it back with
//! [`decode_cell`]:
//!
//! ```text
//! s <score>      # scored cell
//! f <attempts>   # cell that panicked on every attempt
//! q              # cell of a quarantined trajectory
//! x <exit>       # poison pair that killed a worker
//! ```
//!
//! The `x` cell's `<exit>` is the single-token form of
//! [`WorkerExit`](crate::WorkerExit) (`signal:6`, `hard-timeout`, …),
//! so a resumed job never re-runs — and never re-dies on — a known
//! poison pair. [`PairOutcome::Skipped`] has no text form: only
//! complete slabs are ever written, and a skipped cell is by
//! definition not complete.
//!
//! Scores are written with Rust's shortest-round-trip `f64` formatting
//! (`Display`), which parses back to the *bit-identical* value —
//! including `NaN`, `inf` and `-0` — so a resumed job reproduces an
//! uninterrupted run's matrix byte for byte, and a worker-scored cell
//! equals its in-process twin.

use crate::WorkerExit;
use std::fmt::Write;

/// FNV-1a 64-bit — the workspace's zero-dependency fingerprint hash.
/// Not cryptographic; it guards against *accidental* input mismatch
/// (wrong file, edited corpus), which is the failure mode resume
/// actually meets.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds an `f64` by bit pattern (so `-0.0` and `0.0` differ and
    /// `NaN` payloads are preserved — the fingerprint is about bytes,
    /// not numerics).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The outcome of scoring one (query, candidate) cell.
#[derive(Debug, Clone, PartialEq)]
pub enum PairOutcome {
    /// The pair was scored. The value is passed through as computed;
    /// use [`PairOutcome::score_or`] to fold non-finite values away.
    Score(f64),
    /// The query or the candidate was quarantined during preparation;
    /// the pair was never attempted.
    Quarantined,
    /// Scoring this pair panicked on every attempt: `attempts` made,
    /// with backoff between them (1 when retries are disabled).
    Failed {
        /// Total attempts consumed before giving up.
        attempts: u32,
    },
    /// The pair was never attempted: the job stopped first (deadline,
    /// pair budget or cancellation). A resumed job will compute it.
    Skipped,
    /// Scoring this pair killed its worker subprocess (abort, OOM
    /// kill, hard-timeout kill, garbage output); crash attribution
    /// isolated the pair and quarantined it with the worker's exit.
    /// Only subprocess execution produces it — in-process execution
    /// does not survive these faults at all.
    Poisoned {
        /// How the worker holding the isolated pair died.
        exit: WorkerExit,
    },
}

impl PairOutcome {
    /// The score, if the pair produced one.
    pub fn score(&self) -> Option<f64> {
        match self {
            PairOutcome::Score(s) => Some(*s),
            _ => None,
        }
    }

    /// The score, with unscored and non-finite cells folded to
    /// `default` — the "an unmeasurable pair is maximally dissimilar"
    /// convention of the matching harness.
    pub fn score_or(&self, default: f64) -> f64 {
        match self {
            PairOutcome::Score(s) if s.is_finite() => *s,
            _ => default,
        }
    }
}

/// Appends `cell`'s text form (`s 0.5`, `f 3`, `q`, `x signal:6`) to
/// `out`.
///
/// # Panics
/// On [`PairOutcome::Skipped`], which has no text form: the engine
/// writes complete slabs only.
pub fn encode_cell(cell: &PairOutcome, out: &mut String) {
    // Writing to a String cannot fail.
    let _ = match cell {
        PairOutcome::Score(s) => write!(out, "s {s}"),
        PairOutcome::Failed { attempts } => write!(out, "f {attempts}"),
        PairOutcome::Quarantined => write!(out, "q"),
        PairOutcome::Poisoned { exit } => write!(out, "x {exit}"),
        PairOutcome::Skipped => unreachable!("a skipped cell is never written"),
    };
}

/// Parses one cell's text form, as written by [`encode_cell`], off the
/// front of `fields`.
pub fn decode_cell<'a>(fields: &mut impl Iterator<Item = &'a str>) -> Result<PairOutcome, String> {
    let tag = fields.next().ok_or("missing cell tag")?;
    let mut value = |what: &str| fields.next().ok_or_else(|| format!("missing {what}"));
    match tag {
        "s" => {
            let v = value("score")?;
            v.parse()
                .map(PairOutcome::Score)
                .map_err(|_| format!("bad score `{v}`"))
        }
        "f" => {
            let v = value("attempts")?;
            v.parse()
                .map(|attempts| PairOutcome::Failed { attempts })
                .map_err(|_| format!("bad attempts `{v}`"))
        }
        "q" => Ok(PairOutcome::Quarantined),
        "x" => {
            let v = value("worker exit")?;
            v.parse()
                .map(|exit| PairOutcome::Poisoned { exit })
                .map_err(|_| format!("bad worker exit `{v}`"))
        }
        other => Err(format!("unknown cell tag `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cell: &PairOutcome) -> Result<PairOutcome, String> {
        let mut text = String::new();
        encode_cell(cell, &mut text);
        decode_cell(&mut text.split_whitespace())
    }

    fn parse(text: &str) -> Result<PairOutcome, String> {
        decode_cell(&mut text.split_whitespace())
    }

    /// Bit-exact outcome equality (`PartialEq` on `f64` misses NaN and
    /// conflates `0.0`/`-0.0`).
    fn bit_eq(a: &PairOutcome, b: &PairOutcome) -> bool {
        match (a, b) {
            (PairOutcome::Score(x), PairOutcome::Score(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    #[test]
    fn random_scores_round_trip_bit_exact() {
        use sts_rng::{Rng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let specials = [f64::NAN, -0.0, f64::INFINITY, 0.12345678901234567];
        let cells = (0..200)
            .map(|_| PairOutcome::Score(rng.f64().powi(7) * 1e3))
            .chain(specials.map(PairOutcome::Score))
            .chain([
                PairOutcome::Failed { attempts: 3 },
                PairOutcome::Quarantined,
                PairOutcome::Poisoned {
                    exit: WorkerExit::Signal(6),
                },
                PairOutcome::Poisoned {
                    exit: WorkerExit::HardTimeout,
                },
            ]);
        for cell in cells {
            let back = round_trip(&cell).unwrap();
            assert!(bit_eq(&cell, &back), "{cell:?} vs {back:?}");
        }
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        for (text, want) in [
            ("", "missing cell tag"),
            ("z", "unknown cell tag"),
            ("p", "unknown cell tag"),
            ("s", "missing score"),
            ("s zero", "bad score"),
            ("f -1", "bad attempts"),
            ("x", "missing worker exit"),
            ("x sig9", "bad worker exit"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(want), "`{text}` -> `{err}` (wanted `{want}`)");
        }
    }

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        let mut a = Fnv1a::new();
        a.write(b"hello");
        // Reference FNV-1a 64 digest of "hello".
        assert_eq!(a.finish(), 0xa430_d846_80aa_bd0b);
        let mut b = Fnv1a::new();
        b.write_f64(0.0);
        let mut c = Fnv1a::new();
        c.write_f64(-0.0);
        assert_ne!(b.finish(), c.finish(), "sign of zero must matter");
    }
}
