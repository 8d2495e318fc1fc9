//! Deterministic fault injection for supervised jobs.
//!
//! The chaos suite has to push *operational* faults — panicking cells
//! and pathologically slow cells — through a real similarity job, not
//! a mock pool: the interesting failure modes live in the interplay of
//! retries, the watchdog, tile spills and the budget checks.
//! After PR 2 hardened the measure, no constructible trajectory makes
//! scoring panic, so the faults need an explicit injection point — the
//! same pattern as the failpoint hooks production storage engines ship
//! with.
//!
//! A [`FaultPlan`] is that hook: a seeded, declarative assignment of
//! faults to linear pair indices. The job's scoring loop consults it
//! immediately before every attempt (`sts-core` threads it through
//! `JobConfig::fault`); production jobs leave it `None` and pay one
//! `Option` check per cell. Classification is a pure function of
//! `(plan, linear index)`, so an interrupted-and-resumed job meets
//! exactly the faults an uninterrupted run met — which is what lets
//! the chaos suite assert byte-identical resume *under* injection.

use std::time::Duration;
use sts_rng::{Rng, SplitMix64};

/// The fault assigned to one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Scored normally.
    None,
    /// Panics on the first `failures` attempts, then succeeds — a
    /// transient wedge that retries heal.
    Transient {
        /// Attempts that panic before the cell scores.
        failures: u32,
    },
    /// Panics on every attempt — a poisoned pair no retry heals; the
    /// job must degrade it to a `Failed` cell.
    Persistent,
    /// Sleeps before scoring — a slow pair for the watchdog to mark.
    Slow,
    /// Calls [`std::process::abort`] — `catch_unwind` cannot contain
    /// it, so an in-process job dies with the pair while a subprocess
    /// job loses one worker and quarantines the pair.
    Abort,
    /// Spins forever without reaching a cancellation checkpoint — a
    /// wedged computation only a hard-timeout kill can stop.
    Wedge,
    /// Scores normally, but a subprocess worker replaces the result
    /// frame with garbage bytes — exercising the coordinator's protocol
    /// validation. In-process execution has no protocol, so `apply`
    /// treats it as [`Fault::None`].
    GarbageOutput,
}

/// A seeded assignment of [`Fault`]s to the pair space.
///
/// Rates are per mille of pairs, drawn deterministically per linear
/// pair index; the categories are disjoint (slow wins over transient
/// wins over persistent when the rates overlap the same draw range).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed deciding which pairs fault.
    pub seed: u64,
    /// Per mille of pairs that sleep [`FaultPlan::slow_for`].
    pub slow_per_mille: u64,
    /// Per mille of pairs that panic transiently.
    pub transient_per_mille: u64,
    /// Panicking attempts a transient pair makes before succeeding.
    pub transient_failures: u32,
    /// Per mille of pairs that panic on every attempt.
    pub persistent_per_mille: u64,
    /// Per mille of pairs that abort the whole process.
    pub abort_per_mille: u64,
    /// Per mille of pairs that wedge (spin forever).
    pub wedge_per_mille: u64,
    /// Per mille of pairs whose subprocess result frame is garbage.
    pub garbage_per_mille: u64,
    /// Sleep duration of a slow pair (per attempt).
    pub slow_for: Duration,
}

impl FaultPlan {
    /// The fault assigned to linear pair index `lin` — a pure
    /// function, identical across runs, threads and resumes.
    ///
    /// The draw ladder is ordered slow → transient → persistent →
    /// abort → wedge → garbage; the three process-level categories come
    /// *last* so a plan that leaves them at zero classifies every pair
    /// exactly as it did before they existed (old chaos seeds replay
    /// unchanged).
    pub fn fault_for(&self, lin: usize) -> Fault {
        let mut rng = SplitMix64::new(self.seed ^ (lin as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let draw = rng.random_range(0..1000u64);
        let mut edge = self.slow_per_mille;
        if draw < edge {
            return Fault::Slow;
        }
        edge += self.transient_per_mille;
        if draw < edge {
            return Fault::Transient {
                failures: self.transient_failures,
            };
        }
        edge += self.persistent_per_mille;
        if draw < edge {
            return Fault::Persistent;
        }
        edge += self.abort_per_mille;
        if draw < edge {
            return Fault::Abort;
        }
        edge += self.wedge_per_mille;
        if draw < edge {
            return Fault::Wedge;
        }
        edge += self.garbage_per_mille;
        if draw < edge {
            return Fault::GarbageOutput;
        }
        Fault::None
    }

    /// Executes the fault for attempt `attempt` (0-based) of pair
    /// `lin`: sleeps for a slow pair, panics for a (still-failing)
    /// transient or persistent pair, does nothing otherwise. Call
    /// inside the scoring `catch_unwind`, before the real work.
    pub fn apply(&self, lin: usize, attempt: u32) {
        match self.fault_for(lin) {
            Fault::None => {}
            Fault::Slow => std::thread::sleep(self.slow_for),
            Fault::Transient { failures } if attempt < failures => {
                panic!("fault injection: transient panic, pair {lin} attempt {attempt}")
            }
            Fault::Transient { .. } => {}
            Fault::Persistent => {
                panic!("fault injection: persistent panic, pair {lin} attempt {attempt}")
            }
            Fault::Abort => std::process::abort(),
            Fault::Wedge => loop {
                // Never returns, never checks cancellation: the shape
                // of a genuinely wedged computation. Only killing the
                // process stops it.
                std::thread::sleep(Duration::from_secs(3600));
            },
            // No protocol in-process; the subprocess worker handles
            // this fault itself (it corrupts the result frame).
            Fault::GarbageOutput => {}
        }
    }

    /// The linear indices (within `0..pairs`) this plan poisons
    /// persistently — the cells a supervised job must report `Failed`.
    pub fn persistent_pairs(&self, pairs: usize) -> Vec<usize> {
        (0..pairs)
            .filter(|&lin| self.fault_for(lin) == Fault::Persistent)
            .collect()
    }

    /// The linear indices (within `0..pairs`) whose fault kills or
    /// discards a worker process (abort, wedge, garbage output) — the
    /// cells a subprocess-mode job must attribute and quarantine as
    /// poison, and an in-process job cannot survive at all (aborts and
    /// wedges have no in-process recovery).
    pub fn process_killing_pairs(&self, pairs: usize) -> Vec<usize> {
        (0..pairs)
            .filter(|&lin| {
                matches!(
                    self.fault_for(lin),
                    Fault::Abort | Fault::Wedge | Fault::GarbageOutput
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            slow_per_mille: 10,
            transient_per_mille: 40,
            transient_failures: 2,
            persistent_per_mille: 20,
            slow_for: Duration::from_micros(1),
            ..FaultPlan::default()
        }
    }

    #[test]
    fn classification_is_deterministic_and_roughly_at_rate() {
        let p = plan();
        let mut counts = [0usize; 3]; // slow, transient, persistent
        for lin in 0..10_000 {
            assert_eq!(p.fault_for(lin), p.fault_for(lin));
            match p.fault_for(lin) {
                Fault::Slow => counts[0] += 1,
                Fault::Transient { failures } => {
                    assert_eq!(failures, 2);
                    counts[1] += 1;
                }
                Fault::Persistent => counts[2] += 1,
                Fault::None => {}
                other => panic!("zero-rate process fault drawn: {other:?}"),
            }
        }
        // 10k draws at 10/40/20 per mille: expect ~100/~400/~200.
        assert!((50..200).contains(&counts[0]), "slow: {}", counts[0]);
        assert!((250..600).contains(&counts[1]), "transient: {}", counts[1]);
        assert!((100..350).contains(&counts[2]), "persistent: {}", counts[2]);
    }

    #[test]
    fn different_seeds_poison_different_pairs() {
        let a = FaultPlan {
            persistent_per_mille: 100,
            ..FaultPlan { seed: 1, ..plan() }
        };
        let b = FaultPlan {
            seed: 2,
            ..a.clone()
        };
        assert_ne!(a.persistent_pairs(2_000), b.persistent_pairs(2_000));
    }

    #[test]
    fn apply_panics_exactly_per_class() {
        let p = plan();
        let panics = |lin: usize, attempt: u32| {
            catch_unwind(AssertUnwindSafe(|| p.apply(lin, attempt))).is_err()
        };
        let lins = 0..10_000usize;
        let transient = lins
            .clone()
            .find(|&l| matches!(p.fault_for(l), Fault::Transient { .. }))
            .unwrap();
        let persistent = lins
            .clone()
            .find(|&l| p.fault_for(l) == Fault::Persistent)
            .unwrap();
        let clean = lins
            .clone()
            .find(|&l| p.fault_for(l) == Fault::None)
            .unwrap();
        let slow = lins
            .clone()
            .find(|&l| p.fault_for(l) == Fault::Slow)
            .unwrap();
        assert!(panics(transient, 0) && panics(transient, 1));
        assert!(!panics(transient, 2), "transient heals after `failures`");
        assert!(panics(persistent, 0) && panics(persistent, 99));
        assert!(!panics(clean, 0) && !panics(slow, 0));
    }

    #[test]
    fn process_faults_draw_after_the_legacy_ladder() {
        // With the process-level rates at zero, every pair classifies
        // exactly as it did before those categories existed — old
        // chaos seeds replay unchanged.
        let legacy = plan();
        let extended = FaultPlan {
            abort_per_mille: 0,
            wedge_per_mille: 0,
            garbage_per_mille: 0,
            ..plan()
        };
        for lin in 0..10_000 {
            assert_eq!(legacy.fault_for(lin), extended.fault_for(lin));
        }
        // Non-zero process rates classify deterministically and at
        // roughly the requested rate.
        let p = FaultPlan {
            abort_per_mille: 15,
            wedge_per_mille: 10,
            garbage_per_mille: 10,
            ..plan()
        };
        let mut counts = [0usize; 3]; // abort, wedge, garbage
        for lin in 0..10_000 {
            assert_eq!(p.fault_for(lin), p.fault_for(lin));
            match p.fault_for(lin) {
                Fault::Abort => counts[0] += 1,
                Fault::Wedge => counts[1] += 1,
                Fault::GarbageOutput => counts[2] += 1,
                _ => {}
            }
        }
        assert!((70..280).contains(&counts[0]), "abort: {}", counts[0]);
        assert!((40..200).contains(&counts[1]), "wedge: {}", counts[1]);
        assert!((40..200).contains(&counts[2]), "garbage: {}", counts[2]);
        let killers = p.process_killing_pairs(10_000);
        assert_eq!(killers.len(), counts.iter().sum::<usize>());
        assert_eq!(killers, p.process_killing_pairs(10_000));
    }

    #[test]
    fn garbage_output_is_inert_in_process() {
        // `apply` must not panic/abort for a garbage-output pair: the
        // fault only exists at the subprocess protocol layer.
        let p = FaultPlan {
            garbage_per_mille: 1000,
            ..FaultPlan::default()
        };
        for lin in 0..100 {
            assert_eq!(p.fault_for(lin), Fault::GarbageOutput);
            p.apply(lin, 0);
        }
    }

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        for lin in 0..1000 {
            assert_eq!(p.fault_for(lin), Fault::None);
            p.apply(lin, 0);
        }
        assert!(p.persistent_pairs(1000).is_empty());
    }
}
