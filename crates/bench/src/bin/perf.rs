//! Paper-facing timing suites and fleet-trace replay.
//!
//! ```text
//! cargo run -p sts-bench --release --bin perf                      # all suites
//! cargo run -p sts-bench --release --bin perf -- stp               # one suite
//! cargo run -p sts-bench --release --bin perf -- --quick           # smoke config
//! cargo run -p sts-bench --release --bin perf -- --timeline t.jsonl  # replay a trace
//! ```
//!
//! The suites time what the paper reports (see [`sts_bench::perf`]);
//! engine throughput and latency are measured by `benchmark/`.
//!
//! `--timeline <trace.jsonl>` switches from timing to *replay*: the
//! file (an `STS_TRACE=<path>` export from a fleet run, e.g.
//! `STS_TRACE=t.jsonl sts-worker chaos subprocess 1`) is folded into
//! per-tile lease → deal → heartbeat → commit lifecycles, stragglers
//! beyond `--straggler-pct` (default 90) are flagged, and
//! `--json <out>` writes a chrome://tracing-compatible trace.

use std::process::ExitCode;
use sts_bench::perf::all_suites;
use sts_bench::timing::{format_ns, TimingConfig};

fn main() -> ExitCode {
    let mut config = TimingConfig::default();
    let mut selected: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut timeline_path: Option<String> = None;
    let mut straggler_pct = 90.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => config = TimingConfig::smoke(),
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a path argument");
                    print_usage();
                    return ExitCode::FAILURE;
                }
            },
            "--timeline" => match args.next() {
                Some(path) => timeline_path = Some(path),
                None => {
                    eprintln!("--timeline requires a path argument");
                    print_usage();
                    return ExitCode::FAILURE;
                }
            },
            "--straggler-pct" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(pct) => straggler_pct = pct,
                None => {
                    eprintln!("--straggler-pct requires a numeric argument");
                    print_usage();
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            name if !name.starts_with('-') => selected.push(name.to_string()),
            other => {
                eprintln!("unknown flag: {other}");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = timeline_path {
        return run_timeline(&path, straggler_pct, json_path.as_deref());
    }
    if json_path.is_some() {
        eprintln!("--json only applies to --timeline");
        print_usage();
        return ExitCode::FAILURE;
    }

    // Timing runs honour STS_TRACE/STS_METRICS like every other binary.
    sts_obs::init_from_env();

    let suites = all_suites();
    let known: Vec<&str> = suites.iter().map(|(name, _)| *name).collect();
    for name in &selected {
        if !known.contains(&name.as_str()) {
            eprintln!("unknown suite: {name} (available: {})", known.join(", "));
            return ExitCode::FAILURE;
        }
    }

    for (name, suite) in suites {
        if !selected.is_empty() && !selected.iter().any(|s| s == name) {
            continue;
        }
        println!("== {name} ==");
        let report = suite(&config);
        let width = report
            .entries
            .iter()
            .map(|(id, _)| id.len())
            .max()
            .unwrap_or(0);
        for (id, m) in &report.entries {
            println!(
                "  {id:<width$}  {median:>12}  (min {min}, {samples}×{iters})",
                median = format_ns(m.median_ns),
                min = format_ns(m.min_ns),
                samples = m.samples,
                iters = m.iters_per_sample,
            );
        }
        println!();
    }
    ExitCode::SUCCESS
}

/// Replay a trace JSONL export as per-tile lifecycle timelines: print
/// each tile's lease → commit walk, flag stragglers beyond the
/// percentile threshold, and optionally write a chrome-trace JSON.
fn run_timeline(path: &str, straggler_pct: f64, json_out: Option<&str>) -> ExitCode {
    // `load_trace` fails typed on a missing, empty, record-free or
    // mid-write-truncated file — an empty timeline report silently
    // inverting a straggler analysis is worse than no report.
    let log = match sts_obs::load_trace(std::path::Path::new(path)) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("timeline error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if log.skipped > 0 {
        eprintln!(
            "warning: skipped {} non-trace line(s) in {path}",
            log.skipped
        );
    }
    let orphans = log.orphan_spans();
    let tiles = sts_obs::build_timeline(&log);
    println!(
        "== timeline: {path} ({} span(s), {} event(s), {} tile(s)) ==",
        log.spans.len(),
        log.events.len(),
        tiles.len()
    );
    for t in &tiles {
        let state = if t.commit_ns.is_some() {
            "committed"
        } else if t.fallback_ns.is_some() {
            "local-fallback"
        } else {
            "incomplete"
        };
        let dur = t
            .duration_ns()
            .map_or_else(|| "-".to_string(), |ns| format_ns(ns as f64));
        println!(
            "  tile {:<4} {state:<14} {dur:>10}  leases {} deals {} hb {} expiries {}",
            t.tile,
            t.lease_ns.len(),
            t.deal_ns.len(),
            t.hb_ns.len(),
            t.expire_ns.len(),
        );
    }
    let stragglers = sts_obs::stragglers(&tiles, straggler_pct);
    if stragglers.is_empty() {
        println!("no stragglers beyond the p{straggler_pct:.0} threshold");
    } else {
        println!("stragglers beyond p{straggler_pct:.0} (slowest first):");
        for (tile, dur_ns) in &stragglers {
            println!("  tile {tile}: {}", format_ns(*dur_ns as f64));
        }
    }
    if !orphans.is_empty() {
        eprintln!(
            "warning: {} orphan span(s) (unknown parents): {orphans:?}",
            orphans.len()
        );
    }
    if let Some(out) = json_out {
        let mut file = match std::fs::File::create(out) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot create {out}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = sts_obs::write_chrome_trace(&log, &mut file) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote chrome trace to {out} (open via chrome://tracing or ui.perfetto.dev)");
    }
    ExitCode::SUCCESS
}

fn print_usage() {
    eprintln!(
        "usage: perf [--quick] [suite ...]\n       \
         perf --timeline <trace.jsonl> [--straggler-pct <p>] [--json <chrome-trace-out>]"
    );
    let names: Vec<&str> = all_suites().iter().map(|(name, _)| *name).collect();
    eprintln!("suites: {}", names.join(", "));
}
