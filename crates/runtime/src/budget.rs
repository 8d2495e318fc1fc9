//! Wall-clock and work budgets for long-running jobs.

use std::fmt;
use std::time::{Duration, Instant};

/// A wall-clock deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline {
            at: Instant::now() + d,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// Has the deadline passed?
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// Why a job stopped before completing every pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The [`CancelToken`](crate::CancelToken) was cancelled.
    Cancelled,
    /// The wall-clock [`Deadline`] expired.
    DeadlineExceeded,
    /// The max-pairs budget was spent.
    PairBudgetExhausted,
    /// The subprocess fleet spent its worker-restart budget: workers
    /// kept dying faster than the job made progress, so the
    /// coordinator stopped dealing work instead of crash-looping.
    WorkerRestartsExhausted,
    /// A worker refused the job handshake (protocol version or job
    /// fingerprint mismatch). Unlike a crash, rejection is permanent
    /// for the pair of binaries involved — respawning the same worker
    /// would reject again — so the run stops immediately instead of
    /// burning the restart budget.
    WorkerRejected,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            StopReason::PairBudgetExhausted => write!(f, "pair budget exhausted"),
            StopReason::WorkerRestartsExhausted => write!(f, "worker restarts exhausted"),
            StopReason::WorkerRejected => write!(f, "worker rejected the job handshake"),
        }
    }
}

/// How much work a job is allowed: a wall-clock deadline, a cap on the
/// number of pairs processed, both, or neither.
///
/// Budgets are checked cooperatively at pair-chunk boundaries; a chunk
/// already dealt runs to completion, so a stopped job always holds a
/// *consistent* partial result (whole chunks, never a torn cell).
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Stop dealing work once this instant passes.
    pub deadline: Option<Deadline>,
    /// Stop dealing work once this many pairs have been processed this
    /// run (cells restored from tiles do not count — they cost nothing).
    pub max_pairs: Option<usize>,
}

impl Budget {
    /// No limits: the job runs until every pair is resolved.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A wall-clock budget of `d` from now.
    pub fn with_deadline(d: Duration) -> Self {
        Budget {
            deadline: Some(Deadline::after(d)),
            max_pairs: None,
        }
    }

    /// A work budget of at most `n` pairs.
    pub fn with_max_pairs(n: usize) -> Self {
        Budget {
            deadline: None,
            max_pairs: Some(n),
        }
    }

    /// Builder: add a wall-clock deadline `d` from now.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Deadline::after(d));
        self
    }

    /// Builder: add a max-pairs cap.
    pub fn max_pairs(mut self, n: usize) -> Self {
        self.max_pairs = Some(n);
        self
    }

    /// Should a job that has processed `pairs_done` pairs stop *now*?
    /// Deadline expiry wins over the pair budget when both have
    /// tripped (the wall clock is the harder constraint).
    pub fn check(&self, pairs_done: usize) -> Option<StopReason> {
        if let Some(d) = &self.deadline {
            if d.expired() {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        if let Some(max) = self.max_pairs {
            if pairs_done >= max {
                return Some(StopReason::PairBudgetExhausted);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_stops() {
        let b = Budget::unlimited();
        assert_eq!(b.check(0), None);
        assert_eq!(b.check(usize::MAX), None);
    }

    #[test]
    fn zero_pair_budget_stops_immediately() {
        let b = Budget::with_max_pairs(0);
        assert_eq!(b.check(0), Some(StopReason::PairBudgetExhausted));
    }

    #[test]
    fn pair_budget_stops_at_the_cap() {
        let b = Budget::with_max_pairs(100);
        assert_eq!(b.check(99), None);
        assert_eq!(b.check(100), Some(StopReason::PairBudgetExhausted));
    }

    #[test]
    fn expired_deadline_stops_and_wins_over_pair_budget() {
        let b = Budget::with_deadline(Duration::ZERO).max_pairs(0);
        assert_eq!(b.check(0), Some(StopReason::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_does_not_stop() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        assert_eq!(b.check(1_000_000), None);
        assert!(b.deadline.unwrap().remaining() > Duration::from_secs(3000));
        assert!(!b.deadline.unwrap().expired());
    }
}
