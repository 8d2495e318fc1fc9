//! `sts-serve` — the long-running co-location service (ROADMAP item 2).
//!
//! Everything else in the workspace is batch: load trajectories,
//! compute a matrix, exit. This crate is the *online* shape of the
//! paper's query — pings arrive one at a time (sporadically sampled,
//! location-noised, exactly the paper's data regime), and clients ask
//! "how strongly did a and b co-locate over window `[t0, t1]`" or
//! "which objects co-located most with x" *while ingest continues*.
//!
//! The headline is robustness, not throughput:
//!
//! * **Durability** — every applied ping is logged to a segmented WAL
//!   ([`wal`]) group-committed through `sts_runtime::store`'s sealed,
//!   read-back-verified writes, with periodic snapshots ([`snapshot`])
//!   in the same format that truncate the log. A SIGKILL at any instant
//!   recovers to a state whose query answers are **byte-identical** to
//!   an uninterrupted run, because the served state is a pure function
//!   of the applied ping sequence and recovery replays exactly that
//!   sequence (`tests/serve_crash.rs` proves it with real SIGKILLs).
//! * **Bounded memory** — the ingest queue is a bounded channel,
//!   per-object state lives in fixed-capacity rings, and frame reads
//!   are capped per endpoint; overload surfaces as explicit `busy`
//!   backpressure frames and counted shed decisions, never as OOM or a
//!   silent drop.
//! * **Graceful degradation** — the shedding ladder drops the
//!   cheapest thing first: speed-KDE refreshes are deferred (queries
//!   answer from the stale cached model, flagged `stale` in the reply
//!   header), then ingest is refused with `busy`. Slow or wedged
//!   clients hit a read deadline and are disconnected; mangled frames
//!   surface as typed errors and leave the server standing.
//!
//! The wire protocol is the `sts-isolate` frame codec (length-prefixed
//! text lines) over TCP; all floats cross the wire and the
//! disk as exact IEEE-754 bit patterns (hex), so "byte-identical" is a
//! meaningful comparison, not a tolerance.

pub mod client;
pub mod server;
pub mod snapshot;
pub mod state;
pub mod wal;

pub use client::{AckOutcome, ServeClient};
pub use server::{ServeOptions, Server, ServerHandle};
pub use state::{Ping, QueryOutcome, ServeState, Staleness, StateConfig};
pub use wal::Wal;

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// Exact `f64` → wire text: 16 lowercase hex digits of the bit
/// pattern. The inverse of [`f64_from_hex`]; round-trips every value
/// including `-0.0` and NaN payloads.
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Exact wire text → `f64`. `None` for anything that is not exactly
/// 16 hex digits.
pub fn f64_from_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// A serving-side failure: storage that kept failing, or a listener
/// that could not be set up. Corrupt persisted bytes are not an error:
/// recovery quarantines a corrupt WAL segment or snapshot and carries
/// on with what verifies.
#[derive(Debug)]
pub enum ServeError {
    /// A storage operation (a durable write, or a directory open,
    /// listing or removal) kept failing after bounded attempts.
    Storage {
        /// What was being stored or listed.
        what: &'static str,
        /// Attempts made before giving up.
        attempts: u32,
        /// The last underlying error.
        source: io::Error,
    },
    /// Setting up the TCP listener failed (`bind`, `local_addr` or
    /// `set_nonblocking`).
    Network {
        /// Which setup step failed.
        what: &'static str,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Storage {
                what,
                attempts,
                source,
            } => write!(
                f,
                "{what}: storage failed after {attempts} attempt(s): {source}"
            ),
            ServeError::Network { what, source } => write!(f, "{what}: network failed: {source}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Maps the error of a single-attempt storage operation on `what`
    /// (a directory open, listing or removal).
    pub(crate) fn storage(what: &'static str) -> impl FnOnce(io::Error) -> ServeError {
        move |source| ServeError::Storage {
            what,
            attempts: 1,
            source,
        }
    }

    /// Maps the error of a listener setup step on `what`.
    pub(crate) fn network(what: &'static str) -> impl FnOnce(io::Error) -> ServeError {
        move |source| ServeError::Network { what, source }
    }
}

macro_rules! stat_counters {
    ($($(#[$doc:meta])* $name:ident => $obs:literal,)+) => {
        /// Per-server counters, mirrored into the global `sts-obs`
        /// registry. Tests reconcile injected-fault ledgers against
        /// these *exactly*, which is why they are per-server atomics
        /// (the global registry is shared across parallel tests) —
        /// the obs mirror is for operators, the struct for proofs.
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        impl ServeStats {
            $(
                /// Bumps the counter and its obs mirror.
                pub fn $name(&self, n: u64) {
                    self.$name.fetch_add(n, Ordering::SeqCst);
                    sts_obs::static_counter!($obs).add(n);
                }
            )+

            /// One reply frame body: `stats <name> <value> ...`, in
            /// declaration order — the machine-readable counter dump
            /// the chaos suites reconcile against.
            pub fn render(&self) -> String {
                let mut out = String::from("stats");
                $(
                    out.push(' ');
                    out.push_str(stringify!($name));
                    out.push(' ');
                    out.push_str(&self.$name.load(Ordering::SeqCst).to_string());
                )+
                out
            }

            /// Parses a [`ServeStats::render`] frame into name/value
            /// pairs (the client side of the dump).
            pub fn parse(frame: &str) -> Option<Vec<(String, u64)>> {
                let mut it = frame.split_whitespace();
                if it.next()? != "stats" {
                    return None;
                }
                let mut out = Vec::new();
                while let Some(name) = it.next() {
                    out.push((name.to_string(), it.next()?.parse().ok()?));
                }
                Some(out)
            }
        }
    };
}

stat_counters! {
    /// Pings applied to the served state.
    ingest_applied => "serve.ingest.applied",
    /// Pings refused because their seq was already consumed (resent or
    /// duplicated frames).
    ingest_dup => "serve.ingest.dup",
    /// Pings refused by the per-object time-monotonicity filter.
    ingest_old => "serve.ingest.old",
    /// Garbage frames received (line noise, corrupt injections).
    ingest_garbage => "serve.ingest.garbage",
    /// Frames refused by the endpoint byte cap.
    frames_too_large => "serve.ingest.frame_too_large",
    /// Pings refused with a `busy` backpressure frame (queue full).
    shed_busy => "serve.shed.busy",
    /// Queries answered from a stale cached speed model because the
    /// shedding ladder deferred the refresh.
    refresh_deferred => "serve.shed.refresh_deferred",
    /// Queries answered.
    queries => "serve.query.total",
    /// Queries whose reply carried the `stale` marker.
    queries_stale => "serve.query.stale",
    /// Queries cut short by their deadline budget.
    queries_deadline => "serve.query.deadline",
    /// WAL group commits that reached verified-durable.
    wal_commits => "serve.wal.commits",
    /// WAL writes that reported success but failed read-back
    /// verification (torn / bit-flipped) and were retried.
    wal_verify_failed => "serve.wal.verify_failed",
    /// WAL writes that failed outright (ENOSPC, stale-tmp crash) and
    /// were retried.
    wal_append_errors => "serve.wal.append_errors",
    /// WAL segments sealed full.
    wal_segments_sealed => "serve.wal.segments_sealed",
    /// WAL segment files deleted by post-snapshot truncation.
    wal_truncated => "serve.wal.truncated",
    /// Corrupt WAL segments quarantined aside during recovery.
    wal_quarantined => "serve.wal.quarantined",
    /// Snapshots written and verified durable.
    snapshots => "serve.snapshot.written",
    /// Snapshot writes that failed read-back verification.
    snapshot_verify_failed => "serve.snapshot.verify_failed",
    /// Snapshot writes that failed outright and were retried.
    snapshot_write_errors => "serve.snapshot.write_errors",
    /// Corrupt snapshots quarantined aside during recovery.
    snapshot_quarantined => "serve.snapshot.quarantined",
    /// WAL records replayed into state during recovery.
    recovered_records => "serve.recover.records",
    /// Connections accepted.
    conns => "serve.conns.accepted",
    /// Connections refused by admission control.
    conns_rejected => "serve.conns.rejected",
    /// Connections closed by the read deadline (slow clients,
    /// slowloris, wedges).
    slow_clients => "serve.conns.slow_closed",
    /// High-water mark of the ingest queue depth (a gauge stored as a
    /// monotonic max).
    queue_depth_max => "serve.queue.depth_max",
}

impl ServeStats {
    /// Records an observed queue depth, keeping the high-water mark.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth_max.fetch_max(depth, Ordering::SeqCst);
        sts_obs::static_gauge!("serve.queue.depth").set(depth as i64);
    }

    /// Reads one counter by its field name (as rendered).
    pub fn get(&self, name: &str) -> Option<u64> {
        Self::parse(&self.render())?
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_hex_round_trips_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            -123.456e-78,
        ] {
            let hex = f64_to_hex(v);
            assert_eq!(hex.len(), 16);
            let back = f64_from_hex(&hex).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {hex}");
        }
        assert_eq!(f64_from_hex("xyz"), None);
        assert_eq!(f64_from_hex("0"), None);
        assert_eq!(f64_from_hex("00000000000000000"), None, "17 digits");
    }

    #[test]
    fn stats_render_parse_round_trips() {
        let s = ServeStats::default();
        s.ingest_applied(3);
        s.shed_busy(2);
        s.observe_queue_depth(7);
        s.observe_queue_depth(4);
        let parsed = ServeStats::parse(&s.render()).unwrap();
        let get = |n: &str| parsed.iter().find(|(k, _)| k == n).unwrap().1;
        assert_eq!(get("ingest_applied"), 3);
        assert_eq!(get("shed_busy"), 2);
        assert_eq!(get("queue_depth_max"), 7, "high-water, not last");
        assert_eq!(s.get("ingest_applied"), Some(3));
        assert_eq!(ServeStats::parse("nonsense"), None);
    }
}
