//! Smoke test of the `bench` command: every workload at `--smoke` scale
//! prints every metric `BENCHMARK.json` names, with its unit, as valid
//! JSON; its correctness checks pass; and a deliberately wrong expected
//! value makes the run fail, so the checks are not vacuous.
//!
//! `fleet_taxi` and `serve_mixed` need `sts-worker` and `sts-serve`
//! built into the same target directory as this test; without them
//! those workloads are skipped with a note. To run everything:
//!
//! ```text
//! cargo build --release --offline --target-dir T --bin sts-serve --bin sts-worker
//! cargo test --release --offline --target-dir T --manifest-path benchmark/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use sts_benchmark::json::{self, Value};
use sts_benchmark::report::{END_TO_END, PER_LAYER};
use sts_benchmark::Workload;

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// The workloads whose helper binaries are built next to `bench`.
fn runnable() -> Vec<Workload> {
    let dir = Path::new(env!("CARGO_BIN_EXE_bench"))
        .parent()
        .expect("bench has a directory")
        .to_path_buf();
    Workload::ALL
        .into_iter()
        .filter(|w| {
            let needs = match w {
                Workload::FleetTaxi => Some("sts-worker"),
                Workload::ServeMixed => Some("sts-serve"),
                _ => None,
            };
            match needs {
                Some(bin) if !dir.join(bin).is_file() => {
                    eprintln!(
                        "bench_smoke: skipping {} ({bin} is not built in {})",
                        w.name(),
                        dir.display()
                    );
                    false
                }
                _ => true,
            }
        })
        .collect()
}

/// A private working directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sts-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn bench(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("bench runs")
}

/// The last stdout line, parsed and checked for the four result keys.
fn result(out: &Output) -> Value {
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().expect("bench printed a result");
    assert!(sts_obs::json::is_valid_json(line), "not JSON: {line}");
    let v = json::parse(line).expect("result parses");
    let keys: Vec<&str> = v
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{line}"
    );
    v
}

/// Every metric of `list` in `BENCHMARK.json` is printed with its unit.
fn assert_metrics(result: &Value, list: &str, workload: &str) {
    let printed = result.get("metrics").expect("metrics");
    let declared = spec();
    let declared = declared.get(list).and_then(Value::as_array).expect("list");
    assert_eq!(
        printed.as_object().expect("metrics object").len(),
        declared.len(),
        "{workload}: printed a different metric set than {list}"
    );
    for d in declared {
        let name = d.get("name").and_then(Value::as_str).expect("name");
        let m = printed
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            d.get("unit").and_then(Value::as_str),
            "{workload}: unit of {name}"
        );
        let v = m.get("value").and_then(Value::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
    }
}

#[test]
fn benchmark_json_matches_the_metric_catalogue() {
    let spec = spec();
    for (list, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String, String)> = spec
            .get(list)
            .and_then(Value::as_array)
            .expect("list")
            .iter()
            .map(|m| {
                let f = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (f("name"), f("unit"), f("better"))
            })
            .collect();
        let expected: Vec<(String, String, String)> = catalogue
            .iter()
            .map(|d| {
                let better = format!("{:?}", d.better).to_lowercase();
                (d.name.to_string(), d.unit.to_string(), better)
            })
            .collect();
        assert_eq!(declared, expected, "{list}");
    }
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let dir = scratch("smoke");
    for w in runnable() {
        let out = bench(
            &dir,
            &[
                "--workload",
                w.name(),
                "--smoke",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
        );
        let r = result(&out);
        assert!(
            out.status.success(),
            "{}: exit {:?}\n{}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
        assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(
            r.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{}",
            w.name()
        );
        assert!(r.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
        assert_metrics(&r, "end_to_end", w.name());
        for d in END_TO_END {
            let v = r
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"));
            assert!(
                v.and_then(Value::as_f64).is_some_and(|v| v > 0.0),
                "{}: end-to-end {} must be positive",
                w.name(),
                d.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_wrong_expected_value_fails_every_workload() {
    let dir = scratch("mismatch");
    for w in runnable() {
        let out = bench(
            &dir,
            &[
                "--workload",
                w.name(),
                "--smoke",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--inject-mismatch",
            ],
        );
        assert_eq!(
            out.status.code(),
            Some(1),
            "{} must fail its checks",
            w.name()
        );
        let r = result(&out);
        assert_eq!(
            r.get("correct").and_then(Value::as_bool),
            Some(false),
            "{}",
            w.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_print_no_result() {
    let dir = scratch("usage");
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
