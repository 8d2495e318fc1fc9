//! The cell record codec and the workspace fingerprint hash.
//!
//! A [`CellRecord`] is one terminal, *computed* cell outcome as the
//! durable formats store it. Matrix tiles (`crate::tile`) key records
//! by linear pair index; the record itself is the tag-and-value tail of
//! a `cell` line:
//!
//! ```text
//! s <score>      # scored cell
//! f <attempts>   # terminally failed cell (attempts made)
//! p              # panicked cell (legacy no-retry mode)
//! x <exit>       # poison pair that killed a worker
//! ```
//!
//! The `x` record's `<exit>` is the single-token form of
//! [`WorkerExit`](crate::WorkerExit) (`signal:6`, `hard-timeout`, …),
//! so a resumed job never re-runs — and never re-dies on — a known
//! poison pair.
//!
//! Scores are written with Rust's shortest-round-trip `f64` formatting
//! (`Display`), which parses back to the *bit-identical* value —
//! including `NaN`, `inf` and `-0` — so a resumed job reproduces an
//! uninterrupted run's matrix byte for byte.

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

/// A persisted cell outcome. Mirrors the terminal, *computed* outcomes
/// of the matrix job; the mapping to `sts-core`'s `PairOutcome` lives
/// there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellRecord {
    /// The cell was scored.
    Score(f64),
    /// The cell panicked on every attempt (`attempts` made).
    Failed {
        /// Total attempts consumed before giving up.
        attempts: u32,
    },
    /// The cell panicked with retries disabled (legacy degraded mode).
    Panicked,
    /// The cell killed a worker subprocess and was quarantined with
    /// the worker's exit status (subprocess execution mode).
    Poisoned {
        /// How the worker holding this pair died.
        exit: crate::WorkerExit,
    },
}

/// The record's tag-and-value fields (`s 0.5`, `f 3`, `p`,
/// `x signal:6`) — the part of a `cell` line after the index.
pub(crate) fn record_fields(rec: &CellRecord) -> String {
    match rec {
        CellRecord::Score(s) => format!("s {s}"),
        CellRecord::Failed { attempts } => format!("f {attempts}"),
        CellRecord::Panicked => "p".to_string(),
        CellRecord::Poisoned { exit } => format!("x {exit}"),
    }
}

/// Parses the tag-and-value fields written by [`record_fields`].
pub(crate) fn record_from_fields(
    fields: &mut std::str::SplitWhitespace,
) -> Result<CellRecord, String> {
    let tag = fields
        .next()
        .ok_or_else(|| "missing cell tag".to_string())?;
    match tag {
        "s" => {
            let v = fields.next().ok_or_else(|| "missing score".to_string())?;
            v.parse()
                .map(CellRecord::Score)
                .map_err(|_| format!("bad score `{v}`"))
        }
        "f" => {
            let v = fields
                .next()
                .ok_or_else(|| "missing attempts".to_string())?;
            v.parse()
                .map(|attempts| CellRecord::Failed { attempts })
                .map_err(|_| format!("bad attempts `{v}`"))
        }
        "p" => Ok(CellRecord::Panicked),
        "x" => {
            let v = fields
                .next()
                .ok_or_else(|| "missing worker exit".to_string())?;
            v.parse()
                .map(|exit| CellRecord::Poisoned { exit })
                .map_err(|_| format!("bad worker exit `{v}`"))
        }
        other => Err(format!("unknown cell tag `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<CellRecord, String> {
        record_from_fields(&mut text.split_whitespace())
    }

    /// Bit-exact record equality (`PartialEq` on `f64` misses NaN and
    /// conflates `0.0`/`-0.0`).
    fn bit_eq(a: &CellRecord, b: &CellRecord) -> bool {
        match (a, b) {
            (CellRecord::Score(x), CellRecord::Score(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    #[test]
    fn random_scores_round_trip_bit_exact() {
        use sts_rng::{Rng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let specials = [f64::NAN, -0.0, f64::INFINITY, 0.12345678901234567];
        let records = (0..200)
            .map(|_| CellRecord::Score(rng.f64().powi(7) * 1e3))
            .chain(specials.map(CellRecord::Score))
            .chain([
                CellRecord::Failed { attempts: 3 },
                CellRecord::Panicked,
                CellRecord::Poisoned {
                    exit: crate::WorkerExit::Signal(6),
                },
                CellRecord::Poisoned {
                    exit: crate::WorkerExit::HardTimeout,
                },
            ]);
        for rec in records {
            let back = parse(&record_fields(&rec)).unwrap();
            assert!(bit_eq(&rec, &back), "{rec:?} vs {back:?}");
        }
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        for (text, want) in [
            ("", "missing cell tag"),
            ("z", "unknown cell tag"),
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
