//! Overhead guard: telemetry that is switched off must be close to
//! free. Runs as its own test binary so the process-global kill
//! switches (`set_metrics_enabled(false)`, no subscriber) cannot leak
//! into the end-to-end telemetry suite.
//!
//! Bounds are deliberately generous — they catch a disabled path that
//! regresses to locking or allocation, not nanosecond drift on shared
//! CI hardware. Fixtures use fixed seeds.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use sts_core::{JobConfig, StpScratch, Sts, StsConfig};
use sts_geo::{BoundingBox, Grid, Point};
use sts_obs::{set_metrics_enabled, static_counter, static_gauge, static_histogram, trace};
use sts_rng::{Rng, Xoshiro256pp};
use sts_traj::{TrajPoint, Trajectory};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn corpus(seed: u64, n: usize) -> Vec<Trajectory> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let y = rng.random_range(5.0..190.0);
            let phase = rng.random_range(0.0..20.0);
            let speed = rng.random_range(1.0..3.0);
            Trajectory::new(
                (0..5)
                    .map(|i| {
                        let t = phase + 10.0 * i as f64;
                        TrajPoint::from_xy(speed * t, y, t)
                    })
                    .collect(),
            )
            .unwrap()
        })
        .collect()
}

/// With metrics disabled and no subscriber installed, every telemetry
/// primitive is a relaxed atomic load — far under 1 µs per call even
/// in a debug build on loaded hardware.
#[test]
fn disabled_primitives_stay_under_a_microsecond() {
    let _guard = serial();
    set_metrics_enabled(false);
    trace::clear_subscriber();
    assert!(!sts_obs::metrics_enabled());
    assert!(!trace::tracing_enabled());

    const N: u32 = 1_000_000;
    let per_call = |label: &str, elapsed: Duration| {
        let each = elapsed / N;
        assert!(
            each < Duration::from_micros(1),
            "disabled {label} costs {each:?} per call"
        );
    };

    let start = Instant::now();
    for _ in 0..N {
        static_counter!("overhead.counter").incr();
    }
    per_call("counter.incr", start.elapsed());

    let start = Instant::now();
    for i in 0..N {
        static_gauge!("overhead.gauge").set(i as i64);
    }
    per_call("gauge.set", start.elapsed());

    let start = Instant::now();
    for i in 0..N {
        static_histogram!("overhead.histogram").record(i as u64);
    }
    per_call("histogram.record", start.elapsed());

    let start = Instant::now();
    for _ in 0..N {
        let _span = trace::span("overhead.span");
    }
    per_call("span", start.elapsed());

    // Nothing was recorded while disabled.
    let snap = sts_obs::metrics::global().snapshot();
    assert_eq!(snap.counter("overhead.counter"), Some(0));
    assert_eq!(snap.histogram("overhead.histogram").unwrap().count, 0);

    set_metrics_enabled(true);
}

/// The instrumented similarity matrix stays within noise of the same
/// work done through the bare per-pair API when telemetry is off. The
/// 3× bound is generous: the real delta is a handful of relaxed loads
/// per pair against ~10⁵ ns of STP arithmetic. Both sides score on one
/// thread — the job on a one-worker pool — so on a loaded host the
/// bound compares telemetry, not the start-up of a host-sized pool
/// against a ~2 ms job.
#[test]
fn instrumented_matrix_within_noise_of_bare_loop() {
    let _guard = serial();
    set_metrics_enabled(false);
    trace::clear_subscriber();

    let grid = Grid::new(
        BoundingBox::new(Point::ORIGIN, Point::new(400.0, 200.0)),
        6.0,
    )
    .unwrap();
    let sts = Sts::new(StsConfig::default(), grid);
    let qs = corpus(0x0F_F0, 6);

    // The engine prepares queries and candidates as two sets, each with
    // its own STP caches, and scores on a worker's reused scratch; the
    // bare loop does the same, so both sides evaluate the same
    // distributions.
    let bare = || {
        let prepare = || -> Vec<_> { qs.iter().map(|t| sts.prepare(t).unwrap()).collect() };
        let (queries, candidates) = (prepare(), prepare());
        let mut scratch = StpScratch::new();
        let mut acc = 0.0;
        for a in &queries {
            for b in &candidates {
                acc += sts.similarity_prepared_with(a, b, &mut scratch);
            }
        }
        acc
    };
    let one_thread = JobConfig {
        threads: 1,
        ..JobConfig::default()
    };
    let instrumented = || {
        sts.similarity_matrix_supervised(&qs, &qs, &one_thread)
            .unwrap()
            .0
            .iter()
            .flatten()
            .map(|cell| cell.score().expect("every cell scores"))
            .sum::<f64>()
    };

    // Warm-up, then interleaved runs so clock drift hits both sides.
    let (mut acc_bare, mut acc_inst) = (bare(), instrumented());
    let mut bare_ns = Vec::new();
    let mut inst_ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        acc_bare += bare();
        bare_ns.push(t.elapsed().as_nanos());
        let t = Instant::now();
        acc_inst += instrumented();
        inst_ns.push(t.elapsed().as_nanos());
    }
    assert!(acc_bare.is_finite() && acc_inst.is_finite());
    bare_ns.sort_unstable();
    inst_ns.sort_unstable();
    let (bare_med, inst_med) = (bare_ns[2], inst_ns[2]);
    assert!(
        inst_med <= bare_med.saturating_mul(3),
        "instrumented matrix {inst_med} ns vs bare loop {bare_med} ns (> 3×)"
    );

    set_metrics_enabled(true);
}
