//! The traced pass: `--trace DIR` writes `DIR/<workload>.jsonl` that
//! loads through `sts_obs::load_trace` with no orphan spans, prints
//! every per-layer metric, reaches at least 90% span coverage on the
//! batch workloads, and reports its own overhead.
//!
//! Workloads whose helper binaries are not built next to `bench` are
//! skipped with a note (see `bench_smoke.rs`).

use std::path::Path;
use std::process::Command;
use sts_benchmark::json::{self, Value};
use sts_benchmark::report::PER_LAYER;
use sts_benchmark::Workload;

fn built(bin: &str) -> bool {
    let dir = Path::new(env!("CARGO_BIN_EXE_bench"))
        .parent()
        .expect("bench has a directory");
    let ok = dir.join(bin).is_file();
    if !ok {
        eprintln!(
            "trace_output: skipping a workload ({bin} is not built in {})",
            dir.display()
        );
    }
    ok
}

#[test]
fn traced_runs_write_loadable_spans_and_cover_the_batch_layers() {
    let dir = std::env::temp_dir().join(format!("sts-bench-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let traces = dir.join("traces");
    for w in Workload::ALL {
        let skip = match w {
            Workload::FleetTaxi => !built("sts-worker"),
            Workload::ServeMixed => !built("sts-serve"),
            _ => false,
        };
        if skip {
            continue;
        }
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .current_dir(&dir)
            .args([
                "--workload",
                w.name(),
                "--smoke",
                "--seconds",
                "1",
                "--trace",
            ])
            .arg(&traces)
            .output()
            .expect("bench runs");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{}: {:?}\n{text}",
            w.name(),
            out.status
        );
        let line = text.lines().last().expect("a result line");
        assert!(sts_obs::json::is_valid_json(line), "{line}");
        let metrics = json::parse(line).expect("parses");
        let metrics = metrics.get("metrics").expect("metrics");
        assert_eq!(metrics.as_object().map(<[_]>::len), Some(PER_LAYER.len()));
        let value = |name: &str| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{}: {name} missing", w.name()))
        };

        let log = sts_obs::load_trace(&traces.join(format!("{}.jsonl", w.name())))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(!log.spans.is_empty(), "{}: no spans", w.name());
        assert_eq!(
            log.orphan_spans(),
            Vec::<u64>::new(),
            "{}: orphans",
            w.name()
        );
        assert!(
            log.spans.iter().any(|s| s.name.starts_with("bench.")),
            "{}: no request roots",
            w.name()
        );

        let coverage = value("bench.trace_coverage");
        assert!(coverage <= 1.0 + 1e-9, "{}: coverage {coverage}", w.name());
        if w != Workload::ServeMixed {
            assert!(coverage >= 0.90, "{}: coverage {coverage} < 0.90", w.name());
            assert!(value("core.stprob.bridge_us") > 0.0, "{}", w.name());
            assert!(value("core.colocation.dot_ns") > 0.0, "{}", w.name());
        } else {
            assert!(value("serve.wal.commit_ms_p50") > 0.0);
            assert!(value("serve.state.apply_us") > 0.0);
        }
        assert!(value("bench.trace_overhead_pct").is_finite());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
