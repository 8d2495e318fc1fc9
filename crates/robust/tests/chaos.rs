//! Chaos property suite: every injector, 100+ seeded cases each, driven
//! through the full defensive pipeline — repair → prepare → STP →
//! similarity — with the single invariant that matters under fault
//! injection: **the pipeline never panics.** Every case runs under
//! `catch_unwind`, so a violation is reported with the injector name and
//! seed that reproduce it.
//!
//! The byte-level half fuzzes the `io` text format through
//! [`sts_traj::io::read_trajectories_lenient`], and the acceptance test
//! checks that a supervised batch with retries off quarantines
//! known-bad trajectories while scoring every good pair.

use std::panic::{catch_unwind, AssertUnwindSafe};
use sts_core::{BatchReport, JobConfig, PairOutcome, QuarantineReason, Sts, StsConfig, StsError};
use sts_geo::{BoundingBox, Grid, Point};
use sts_rng::{Rng, Xoshiro256pp};
use sts_robust::{standard_injectors, ByteMangler};
use sts_runtime::RetryPolicy;
use sts_traj::repair::{repair, RepairConfig, RepairPolicy};
use sts_traj::{io, TrajPoint, Trajectory};

const CASES_PER_INJECTOR: u64 = 128;

fn grid() -> Grid {
    Grid::new(
        BoundingBox::new(Point::ORIGIN, Point::new(300.0, 120.0)),
        6.0,
    )
    .unwrap()
}

/// A clean random walk: length, origin, heading and cadence all drawn
/// from the seed, so the corpus of chaos cases spans short/long,
/// fast/slow, dense/sporadic streams.
fn random_walk(rng: &mut Xoshiro256pp) -> Vec<TrajPoint> {
    let n = rng.random_range(2..16usize);
    let mut x = rng.random_range(0.0..250.0);
    let mut y = rng.random_range(0.0..100.0);
    let mut t = rng.random_range(0.0..50.0);
    let speed = rng.random_range(0.5..8.0);
    let mut pts = Vec::with_capacity(n);
    for _ in 0..n {
        pts.push(TrajPoint::from_xy(x, y, t));
        let dt = rng.random_range(1.0..30.0);
        let angle = rng.f64() * std::f64::consts::TAU;
        x += speed * dt * angle.cos();
        y += speed * dt * angle.sin();
        t += dt;
    }
    pts
}

/// The defensive pipeline under test: repair the corrupted stream, then
/// prepare every surviving trajectory and score every pair (similarity
/// internally evaluates the STP estimator at every merged timestamp).
/// Unpreparable survivors must come back as typed errors, and every
/// produced score must be a valid probability.
fn run_pipeline(points: &[TrajPoint], policy: RepairPolicy) {
    let config = RepairConfig {
        policy,
        ..RepairConfig::default()
    };
    let outcome = match repair(points, &config) {
        Ok(o) => o,
        // Strict mode refusing corrupted input IS the contract.
        Err(_) => return,
    };
    let sts = Sts::new(StsConfig::default(), grid());
    let mut prepared = Vec::new();
    for t in &outcome.trajectories {
        match sts.prepare(t) {
            Ok(p) => prepared.push(p),
            Err(StsError::TrajectoryTooShort { .. }) | Err(StsError::Kde(_)) => {}
        }
    }
    for a in &prepared {
        for b in &prepared {
            let s = sts.similarity_prepared(a, b);
            assert!(
                (0.0..=1.0 + 1e-9).contains(&s),
                "similarity {s} is not a probability"
            );
        }
    }
}

/// Runs `f` with panic output silenced: the suite *expects* candidate
/// panics and reports them itself; default-hook backtraces for hundreds
/// of cases would bury the one that matters.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// 128 seeded cases per injector per repair policy: corrupt a clean
/// walk, then demand the pipeline completes without panicking.
#[test]
fn no_injector_panics_the_pipeline() {
    quietly(|| {
        for inj in standard_injectors() {
            for policy in [
                RepairPolicy::Strict,
                RepairPolicy::DropBad,
                RepairPolicy::SplitAtGaps,
                RepairPolicy::ClampSpeed,
            ] {
                for seed in 0..CASES_PER_INJECTOR {
                    let mut rng = Xoshiro256pp::seed_from_u64(seed);
                    let mut pts = random_walk(&mut rng);
                    inj.inject(&mut pts, &mut rng);
                    let ok = catch_unwind(AssertUnwindSafe(|| run_pipeline(&pts, policy))).is_ok();
                    assert!(
                        ok,
                        "pipeline panicked: injector={} policy={policy:?} seed={seed}",
                        inj.name()
                    );
                }
            }
        }
    });
}

/// Stacked corruption: every injector applied in sequence to the same
/// stream — the worst feed imaginable still must not panic the pipeline.
#[test]
fn stacked_injectors_do_not_panic_the_pipeline() {
    quietly(|| {
        let battery = standard_injectors();
        for seed in 0..CASES_PER_INJECTOR {
            let mut rng = Xoshiro256pp::seed_from_u64(0xDEAD_0000 + seed);
            let mut pts = random_walk(&mut rng);
            for inj in &battery {
                inj.inject(&mut pts, &mut rng);
            }
            let ok = catch_unwind(AssertUnwindSafe(|| {
                run_pipeline(&pts, RepairPolicy::DropBad)
            }))
            .is_ok();
            assert!(ok, "pipeline panicked on stacked corruption, seed={seed}");
        }
    });
}

/// Byte-level fuzz of the text format: serialize a clean corpus, mangle
/// the bytes, and demand the lenient reader returns per-record errors —
/// never a panic — and that whatever it recovers satisfies the
/// `Trajectory` invariants and survives repair + preparation.
#[test]
fn byte_mangled_files_never_panic_the_lenient_reader() {
    quietly(|| {
        let mangler = ByteMangler::default();
        for seed in 0..CASES_PER_INJECTOR {
            let mut rng = Xoshiro256pp::seed_from_u64(0xFEED_0000 + seed);
            let corpus: Vec<Trajectory> = (0..rng.random_range(1..5usize))
                .map(|_| loop {
                    if let Ok(t) = Trajectory::new(random_walk(&mut rng)) {
                        break t;
                    }
                })
                .collect();
            let mut bytes = Vec::new();
            io::write_trajectories(&mut bytes, &corpus).unwrap();
            mangler.mangle(&mut bytes, &mut rng);

            let ok = catch_unwind(AssertUnwindSafe(|| {
                let read = io::read_trajectories_lenient(&mut bytes.as_slice()).unwrap();
                // Recovered trajectories uphold the invariants...
                for t in &read.trajectories {
                    assert!(t.points().windows(2).all(|w| w[0].t < w[1].t));
                }
                // ...and the salvage path (repair the raw leftovers,
                // run the measure) completes too.
                for raw in &read.raw_invalid {
                    run_pipeline(raw, RepairPolicy::DropBad);
                }
            }))
            .is_ok();
            assert!(ok, "lenient read pipeline panicked, seed={seed}");
        }
    });
}

/// On clean output the lenient reader is exactly the strict reader:
/// same trajectories, no errors, nothing quarantined.
#[test]
fn lenient_reader_round_trips_clean_output() {
    for seed in 0..32u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(0xC1EA_0000 + seed);
        let corpus: Vec<Trajectory> = (0..4)
            .map(|_| loop {
                if let Ok(t) = Trajectory::new(random_walk(&mut rng)) {
                    break t;
                }
            })
            .collect();
        let mut bytes = Vec::new();
        io::write_trajectories(&mut bytes, &corpus).unwrap();

        let strict = io::read_trajectories(&mut bytes.as_slice()).unwrap();
        let lenient = io::read_trajectories_lenient(&mut bytes.as_slice()).unwrap();
        assert!(lenient.errors.is_empty(), "seed={seed}");
        assert!(lenient.raw_invalid.is_empty());
        assert_eq!(lenient.trajectories.len(), strict.len());
        for (a, b) in lenient.trajectories.iter().zip(&strict) {
            assert_eq!(a.points(), b.points());
        }
    }
}

/// The supervised matrix with retries off (the first panic of a cell
/// is terminal), with its batch report.
fn without_retries(
    sts: &Sts,
    queries: &[Trajectory],
    candidates: &[Trajectory],
) -> (Vec<Vec<PairOutcome>>, BatchReport) {
    let cfg = JobConfig {
        retry: RetryPolicy::none(),
        ..JobConfig::default()
    };
    let (matrix, report) = sts
        .similarity_matrix_supervised(queries, candidates, &cfg)
        .unwrap();
    (matrix, report.batch)
}

/// Cells that panicked on their only attempt.
fn failed_on_first_attempt(matrix: &[Vec<PairOutcome>]) -> usize {
    let first = PairOutcome::Failed { attempts: 1 };
    matrix.iter().flatten().filter(|c| **c == first).count()
}

/// Acceptance: a batch containing known-bad trajectories yields a score
/// for every good pair and a report naming each quarantined index.
#[test]
fn degraded_matrix_scores_good_pairs_and_names_the_quarantined() {
    let sts = Sts::new(StsConfig::default(), grid());
    let good = |phase: f64| {
        Trajectory::new(
            (0..8)
                .map(|i| {
                    let t = phase + 12.0 * i as f64;
                    TrajPoint::from_xy(2.5 * t, 60.0, t)
                })
                .collect(),
        )
        .unwrap()
    };
    let bad = Trajectory::from_xyt(&[(10.0, 10.0, 0.0)]).unwrap(); // single point

    let queries = vec![good(0.0), bad.clone(), good(3.0)];
    let candidates = vec![good(6.0), bad, good(9.0)];
    let (matrix, report) = without_retries(&sts, &queries, &candidates);

    assert_eq!(
        report.quarantined_queries,
        vec![(
            1,
            QuarantineReason::Unpreparable(StsError::TrajectoryTooShort { len: 1 })
        )]
    );
    assert_eq!(
        report.quarantined_candidates,
        vec![(
            1,
            QuarantineReason::Unpreparable(StsError::TrajectoryTooShort { len: 1 })
        )]
    );
    assert_eq!(failed_on_first_attempt(&matrix), 0);
    assert!(!report.is_clean());

    for (i, row) in matrix.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            if i == 1 || j == 1 {
                assert_eq!(*cell, PairOutcome::Quarantined, "({i},{j})");
            } else {
                let s = cell
                    .score()
                    .unwrap_or_else(|| panic!("good pair ({i},{j}) was not scored: {cell:?}"));
                assert!(s.is_finite() && s > 0.0, "({i},{j}): {s}");
            }
        }
    }
}

/// End to end on a corrupted corpus: inject → repair → supervised
/// batch without retries.
/// Whatever survives repair is either scored or named in the report.
#[test]
fn corrupted_corpus_survives_repair_into_degraded_batch() {
    let battery = standard_injectors();
    let mut rng = Xoshiro256pp::seed_from_u64(0xE2E0_0001);
    let mut survivors = Vec::new();
    for k in 0..12 {
        let mut pts = random_walk(&mut rng);
        battery[k % battery.len()].inject(&mut pts, &mut rng);
        let outcome = repair(&pts, &RepairConfig::default()).unwrap();
        survivors.extend(outcome.trajectories);
    }
    // Repair guarantees invariants but not preparability (a 2-point
    // trajectory with one surviving speed sample can still fail KDE);
    // the supervised matrix absorbs whatever is left.
    let sts = Sts::new(StsConfig::default(), grid());
    let (matrix, report) = without_retries(&sts, &survivors, &survivors);
    assert_eq!(failed_on_first_attempt(&matrix), 0);
    let quarantined: Vec<usize> = report.quarantined_queries.iter().map(|&(i, _)| i).collect();
    for (i, row) in matrix.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            match cell {
                PairOutcome::Score(s) => assert!(s.is_finite(), "({i},{j})"),
                PairOutcome::Quarantined => {
                    assert!(quarantined.contains(&i) || quarantined.contains(&j))
                }
                PairOutcome::Failed { .. } | PairOutcome::Poisoned { .. } => {
                    panic!("({i},{j}) panicked: {cell:?}")
                }
                PairOutcome::Skipped => {
                    panic!("({i},{j}) skipped: this batch runs unbudgeted")
                }
            }
        }
    }
}
