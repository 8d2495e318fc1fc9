//! `bench compare` on the recorded calibration run-sets
//! (`benchmark/calibration/`): two sets of the same code come out
//! unchanged on every (workload, end-to-end metric), and a synthetic
//! two-fold slowdown of one set is flagged as a regression on each.

use std::path::{Path, PathBuf};
use std::process::Command;
use sts_benchmark::compare::{compare, load_runs, load_spec, RunSet, SpecMetric, Verdict};
use sts_benchmark::report::Better;
use sts_benchmark::Workload;

fn path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(path(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn spec() -> Vec<SpecMetric> {
    load_spec(&read("../BENCHMARK.json")).expect("BENCHMARK.json")
}

fn set(name: &str) -> RunSet {
    load_runs(&read(&format!("calibration/{name}.jsonl"))).expect("run-set parses")
}

/// `set` with every end-to-end metric made two-fold worse.
fn slowed(set: &RunSet, spec: &[SpecMetric]) -> RunSet {
    let mut out = set.clone();
    for run in out.values_mut().flatten() {
        for m in spec.iter().filter(|m| m.bound.is_some()) {
            if let Some(v) = run.metrics.get_mut(&m.name) {
                *v = match m.better {
                    Better::Higher => *v / 2.0,
                    Better::Lower => *v * 2.0,
                };
            }
        }
    }
    out
}

/// The run-set as `bench --json` writes it.
fn to_jsonl(set: &RunSet) -> String {
    let mut out = String::new();
    for (workload, runs) in set {
        for run in runs {
            let metrics: Vec<String> = run
                .metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"-\"}}"))
                .collect();
            out.push_str(&format!(
                "{{\"workload\": \"{workload}\", \"result\": {{\"correct\": {}, \"attempted\": 1, \
                 \"failed\": {}, \"metrics\": {{{}}}}}}}\n",
                run.correct,
                run.failed,
                metrics.join(", ")
            ));
        }
    }
    out
}

#[test]
fn recorded_run_sets_of_one_commit_compare_unchanged() {
    let spec = spec();
    let (a, b) = (set("set_a"), set("set_b"));
    let rows = compare(&spec, &a, &b);
    let bounded = spec.iter().filter(|m| m.bound.is_some()).count();
    for w in Workload::ALL {
        let runs = &a[w.name()];
        assert_eq!(runs.len(), 10, "{}: ten seeds per set", w.name());
        assert!(
            runs.iter().all(|r| r.correct && r.failed == 0.0),
            "{}",
            w.name()
        );
        let verdicts: Vec<_> = rows
            .iter()
            .filter(|r| r.workload == w.name() && r.metric.bound.is_some())
            .map(|r| (r.metric.name.as_str(), r.verdict))
            .collect();
        assert_eq!(verdicts.len(), bounded, "{}: {verdicts:?}", w.name());
        for (metric, verdict) in verdicts {
            assert_eq!(verdict, Verdict::Unchanged, "{} {metric}", w.name());
        }
    }
}

#[test]
fn a_two_fold_slowdown_is_flagged_everywhere() {
    let spec = spec();
    let a = set("set_a");
    let rows = compare(&spec, &a, &slowed(&set("set_b"), &spec));
    let flagged: Vec<_> = rows.iter().filter(|r| r.metric.bound.is_some()).collect();
    assert_eq!(
        flagged.len(),
        Workload::ALL.len() * spec.iter().filter(|m| m.bound.is_some()).count()
    );
    for r in flagged {
        assert_eq!(
            r.verdict,
            Verdict::Regressed,
            "{} {}",
            r.workload,
            r.metric.name
        );
    }
}

#[test]
fn the_command_exits_nonzero_only_on_a_regression() {
    let spec = spec();
    let dir = std::env::temp_dir().join(format!("sts-bench-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let slow = dir.join("slow.jsonl");
    std::fs::write(&slow, to_jsonl(&slowed(&set("set_b"), &spec))).expect("write");
    let run = |new: &Path| {
        Command::new(env!("CARGO_BIN_EXE_bench"))
            .arg("compare")
            .arg(path("calibration/set_a.jsonl"))
            .arg(new)
            .arg("--spec")
            .arg(path("../BENCHMARK.json"))
            .output()
            .expect("bench compare runs")
    };
    let same = run(&path("calibration/set_b.jsonl"));
    assert_eq!(
        same.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let worse = run(&slow);
    assert_eq!(worse.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&worse.stdout).contains("REGRESSED"));
    let _ = std::fs::remove_dir_all(&dir);
}
