//! The `bench` command; see the crate documentation and
//! `benchmark/BENCHMARK.md`.
//!
//! Exit codes: 0 every check passed; 1 a correctness check failed (the
//! result is still printed) or `compare` found a regression; 2 the run
//! could not complete (no result printed) or the arguments were wrong.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use sts_benchmark::compare::{compare, load_runs, load_spec, render, Verdict};
use sts_benchmark::{run_workload, RunOptions, Workload};

const USAGE: &str = "usage: bench [--workload W]... [--seed S] [--seconds N] [--trace 0|1|DIR]\n\
                     \x20            [--json OUT] [--smoke]\n\
                     \x20      bench compare BASE.jsonl NEW.jsonl [--spec BENCHMARK.json]\n\
                     workloads: match_mall topk_taxi fleet_taxi serve_mixed (default: all)";

/// Scratch space for tiles, server data and default traces, relative to
/// the directory the benchmark runs in.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workloads: Vec<Workload>,
    run_one: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
    json: Option<PathBuf>,
    smoke: bool,
    inject_mismatch: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        run_one: None,
        seed: 1,
        seconds: 16.0,
        trace: None,
        json: None,
        smoke: false,
        inject_mismatch: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let workload = |name: &str| Workload::parse(name).ok_or(format!("unknown workload {name}"));
        match flag.as_str() {
            "--workload" => args.workloads.push(workload(value()?)?),
            "--run-one" => args.run_one = Some(workload(value()?)?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from(WORK_ROOT).join("trace")),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--inject-mismatch" => args.inject_mismatch = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

/// Runs one workload in this process and prints its table and result.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let work_dir = PathBuf::from(WORK_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
    let dirs = std::fs::create_dir_all(&work_dir)
        .and_then(|()| args.trace.as_ref().map_or(Ok(()), std::fs::create_dir_all));
    if let Err(e) = dirs {
        eprintln!("bench: cannot create scratch directories: {e}");
        return ExitCode::from(2);
    }
    let opts = RunOptions {
        workload: w.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace_dir: args.trace.clone(),
        smoke: args.smoke,
        inject_mismatch: args.inject_mismatch,
        work_dir: work_dir.clone(),
    };
    let result = run_workload(w, &opts);
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(r) => {
            let traced = args.trace.is_some();
            print!("{}", r.table(w.name(), traced));
            println!("{}", r.to_json(traced));
            ExitCode::from(if r.correct { 0 } else { 1 })
        }
        Err(e) => {
            eprintln!("bench: {}: {e}", w.name());
            ExitCode::from(2)
        }
    }
}

/// Runs each workload in a child process and relays its output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for &w in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--run-one", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .envs(w.child_env().iter().copied())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(dir) = &args.trace {
            cmd.arg("--trace").arg(dir);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        if args.inject_mismatch {
            cmd.arg("--inject-mismatch");
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("bench: cannot run {}: {e}", w.name());
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let code = out.status.code().unwrap_or(2).clamp(0, 2) as u8;
        if let (Some(path), true, Some(line)) = (&args.json, code < 2, text.lines().last()) {
            let record = format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"result\": {line}}}\n",
                w.name(),
                args.seed,
                args.trace.is_some()
            );
            let appended = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(record.as_bytes()));
            if let Err(e) = appended {
                eprintln!("bench: cannot append to {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn compare_main(argv: &[String]) -> ExitCode {
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut files = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            match it.next() {
                Some(p) => spec_path = PathBuf::from(p),
                None => files.clear(),
            }
        } else {
            files.push(a);
        }
    }
    let [base, new] = files.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let read =
        |p: &PathBuf| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let loaded = (|| {
        let spec = load_spec(&read(&spec_path)?)?;
        let base = load_runs(&read(&PathBuf::from(base))?)?;
        let new = load_runs(&read(&PathBuf::from(new))?)?;
        Ok::<_, String>((spec, base, new))
    })();
    let (spec, base, new) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare(&spec, &base, &new);
    print!("{}", render(&rows, &base, &new));
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed)
        || new.values().flatten().any(|r| !r.correct);
    ExitCode::from(u8::from(regressed))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_main(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.run_one {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}
