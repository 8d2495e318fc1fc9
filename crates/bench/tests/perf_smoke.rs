//! Perf smoke checks: every paper-facing timing suite runs end-to-end
//! under the smoke configuration and yields sane measurements. Ignored
//! by default (they exist to catch bit-rot in the suites, not to
//! produce numbers); run with `cargo test -p sts-bench -- --ignored`.

use sts_bench::perf::all_suites;
use sts_bench::timing::TimingConfig;

#[test]
#[ignore = "perf smoke loop; run explicitly with -- --ignored"]
fn perf_smoke() {
    let config = TimingConfig::smoke();
    let names: Vec<&str> = all_suites().iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names,
        ["similarity", "grid_size", "matching", "stp", "substrates"]
    );
    for (name, suite) in all_suites() {
        let report = suite(&config);
        assert_eq!(report.suite, name);
        assert!(!report.entries.is_empty(), "suite {name} produced nothing");
        for (id, m) in &report.entries {
            assert!(
                m.min_ns > 0.0 && m.median_ns.is_finite(),
                "suite {name}, entry {id}: bogus measurement {m}"
            );
        }
    }
}
