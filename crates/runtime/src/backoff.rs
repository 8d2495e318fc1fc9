//! Decorrelated-jitter retry backoff.

use std::time::Duration;
use sts_rng::{Rng, Xoshiro256pp};

/// Per-cell retry behaviour for panicked scoring: how many extra
/// attempts, and the decorrelated-jitter backoff between them.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure. `0` disables retries:
    /// the first panic is terminal.
    pub max_retries: u32,
    /// First/minimum backoff delay.
    pub backoff_base: Duration,
    /// Backoff cap.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(20),
            seed: 0x5753_5254, // "STSR"
        }
    }
}

impl RetryPolicy {
    /// No retries: first panic is terminal.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }
}

/// The decorrelated-jitter backoff policy: each delay is drawn
/// uniformly from `[base, prev * 3]` and capped, so retries spread out
/// quickly without synchronizing (the classic thundering-herd fix —
/// correlated retries are exactly what a wedged shared resource does
/// not need).
///
/// The jitter stream is seeded, so a replayed job backs off through
/// the same delays — sleeps never affect *results*, but deterministic
/// schedules keep chaos-suite timings reproducible.
#[derive(Debug)]
pub struct DecorrelatedJitter {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: Xoshiro256pp,
}

impl DecorrelatedJitter {
    /// A fresh backoff sequence. `base` is the first/minimum delay,
    /// `cap` the maximum ever returned.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        DecorrelatedJitter {
            base,
            cap: cap.max(base),
            prev: base,
            rng: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// The next delay to sleep before retrying.
    ///
    /// Arithmetic saturates end to end (`u128 → u64` clamps, a
    /// saturating triple, a saturating `+1`), so even a restart storm
    /// that walks the sequence for days — or degenerate second-scale
    /// bases — can never overflow or exceed the cap.
    pub fn next_delay(&mut self) -> Duration {
        let base = u64::try_from(self.base.as_nanos()).unwrap_or(u64::MAX);
        let hi = u64::try_from(self.prev.as_nanos())
            .unwrap_or(u64::MAX)
            .saturating_mul(3)
            .max(base.saturating_add(1));
        // `base == hi` only when base saturated at u64::MAX — the
        // range would be empty, so skip the draw.
        let nanos = if base >= hi {
            base
        } else {
            self.rng.random_range(base..hi)
        };
        let delay = Duration::from_nanos(nanos).min(self.cap);
        self.prev = delay.max(self.base);
        delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_stay_within_base_and_cap() {
        let base = Duration::from_micros(50);
        let cap = Duration::from_millis(5);
        let mut j = DecorrelatedJitter::new(base, cap, 42);
        for _ in 0..1000 {
            let d = j.next_delay();
            assert!(d >= base, "{d:?} < base");
            assert!(d <= cap, "{d:?} > cap");
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || DecorrelatedJitter::new(Duration::from_micros(10), Duration::from_millis(2), 7);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..64 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }

    #[test]
    fn restart_replays_the_identical_schedule_from_the_start() {
        // A crashed-and-restarted client reconstructs its backoff from
        // the same (base, cap, seed) triple. The replayed schedule must
        // match the original walk element-for-element — including past
        // the point where the first incarnation died — because chaos
        // replays only stay reproducible if sleeps do.
        let mk =
            || DecorrelatedJitter::new(Duration::from_micros(25), Duration::from_millis(8), 77);
        let mut first_life = mk();
        let before_crash: Vec<Duration> = (0..10).map(|_| first_life.next_delay()).collect();
        // "Restart": a brand-new instance, same constructor inputs.
        let mut second_life = mk();
        let replayed: Vec<Duration> = (0..40).map(|_| second_life.next_delay()).collect();
        assert_eq!(&replayed[..10], &before_crash[..]);
        // And a third incarnation agrees with the second beyond the
        // first's horizon.
        let mut third_life = mk();
        let again: Vec<Duration> = (0..40).map(|_| third_life.next_delay()).collect();
        assert_eq!(again, replayed);
    }

    #[test]
    fn golden_schedule_is_pinned() {
        // First five delays for (base=1ms, cap=1s, seed=0xD15EA5E),
        // in nanoseconds. Any drift in the RNG stream, the draw order,
        // or the clamping arithmetic shows up here as an exact diff.
        let mut j =
            DecorrelatedJitter::new(Duration::from_millis(1), Duration::from_secs(1), 0xD15EA5E);
        let got: Vec<u64> = (0..5)
            .map(|_| u64::try_from(j.next_delay().as_nanos()).unwrap())
            .collect();
        let want = [2_111_918u64, 2_101_095, 2_041_500, 5_967_984, 4_172_983];
        assert_eq!(got, want.to_vec(), "schedule drifted: {got:?}");
    }

    #[test]
    fn delays_grow_from_the_base() {
        let mut j = DecorrelatedJitter::new(Duration::from_millis(1), Duration::from_secs(1), 3);
        let first = j.next_delay();
        // After many steps the running max must have left the base
        // neighborhood (growth is stochastic but bounded below by the
        // uniform draw's upper bound tripling).
        let max = (0..100).map(|_| j.next_delay()).max().unwrap();
        assert!(max > first, "backoff never grew: {first:?} -> {max:?}");
    }

    #[test]
    fn restart_storm_never_overflows_or_exceeds_the_cap() {
        // A supervisor restarting workers in a tight loop for a long
        // time walks deep into the sequence where prev*3 would
        // overflow without saturation. Every delay must stay inside
        // [base, cap] for the whole storm.
        let base = Duration::from_millis(1);
        let cap = Duration::from_secs(30);
        let mut j = DecorrelatedJitter::new(base, cap, 0xBAD_5EED);
        for step in 0..100_000 {
            let d = j.next_delay();
            assert!(d >= base && d <= cap, "step {step}: {d:?}");
        }
    }

    #[test]
    fn extreme_durations_saturate_instead_of_overflowing() {
        // base/cap whose nanosecond counts exceed u64 (as_nanos() is
        // u128): the u64 clamps must saturate, not truncate — a
        // truncated base could produce a near-zero delay and a
        // truncated prev could wrap the triple.
        let huge = Duration::from_secs(u64::MAX / 2);
        let mut j = DecorrelatedJitter::new(huge, Duration::MAX, 9);
        for _ in 0..64 {
            // The base saturates to u64::MAX nanoseconds (~584 years);
            // truncation instead would wrap to an arbitrary small
            // delay.
            let d = j.next_delay();
            assert_eq!(d, Duration::from_nanos(u64::MAX), "{d:?}");
        }
        // A huge cap with a tiny base must still be reachable without
        // panicking anywhere in the walk.
        let mut j = DecorrelatedJitter::new(Duration::from_nanos(1), Duration::MAX, 10);
        for _ in 0..10_000 {
            let _ = j.next_delay();
        }
    }

    #[test]
    fn degenerate_cap_below_base_is_clamped() {
        let mut j = DecorrelatedJitter::new(Duration::from_millis(2), Duration::from_millis(1), 1);
        let d = j.next_delay();
        assert_eq!(d, Duration::from_millis(2));
    }
}
