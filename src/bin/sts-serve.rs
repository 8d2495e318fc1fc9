//! `sts-serve` — the crash-safe streaming co-location server.
//!
//! Binds a TCP listener on `--addr <host:port>` (default
//! `127.0.0.1:0`) and serves the `sts-isolate` frame protocol until a
//! client sends `shutdown` (or the process is killed — that is the
//! point: the WAL and snapshots in `--dir` make a SIGKILL at any
//! instant recoverable to byte-identical query answers). Prints
//! `listening <addr>` on stdout once bound, which is how the crash
//! suite finds the ephemeral port.
//!
//! All durability/overload knobs are flags so the kill- and chaos-tests
//! can shrink commit intervals to CI scale. `STS_TRACE`/`STS_METRICS`
//! work as everywhere else in the workspace.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use sts_runtime::FsStorage;
use sts_serve::{ServeOptions, Server};

struct Args {
    opts: ServeOptions,
    addr: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sts-serve --dir <data-dir> [--addr <host:port>]\n\
         \x20      [--segment-records <n>] [--snapshot-every <n>] [--queue-bound <n>]\n\
         \x20      [--commit-every <n>] [--ingest-delay-ms <n>] [--read-deadline-ms <n>]\n\
         \x20      [--frame-cap <bytes>] [--shed-defer-depth <n>]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut dir: Option<String> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut opts_edits: Vec<(String, u64)> = Vec::new();
    let mut i = 0;
    let take_str = |argv: &[String], i: usize, flag: &str| -> Result<String, ExitCode> {
        argv.get(i + 1).cloned().ok_or_else(|| {
            eprintln!("sts-serve: {flag} needs an argument");
            usage()
        })
    };
    let take_num = |argv: &[String], i: usize, flag: &str| -> Result<u64, ExitCode> {
        argv.get(i + 1).and_then(|v| v.parse().ok()).ok_or_else(|| {
            eprintln!("sts-serve: {flag} needs an integer argument");
            usage()
        })
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--dir" => {
                dir = Some(take_str(&argv, i, flag)?);
                i += 2;
            }
            "--addr" => {
                addr = take_str(&argv, i, flag)?;
                i += 2;
            }
            "--segment-records" | "--snapshot-every" | "--queue-bound" | "--commit-every"
            | "--ingest-delay-ms" | "--read-deadline-ms" | "--frame-cap" | "--shed-defer-depth" => {
                opts_edits.push((flag.to_string(), take_num(&argv, i, flag)?));
                i += 2;
            }
            _ => {
                eprintln!("sts-serve: unknown flag {flag}");
                return Err(usage());
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("sts-serve: --dir is required");
        return Err(usage());
    };
    let mut opts = ServeOptions::new(dir);
    for (name, v) in opts_edits {
        match name.as_str() {
            "--segment-records" => opts.segment_records = v.max(1) as usize,
            "--snapshot-every" => opts.snapshot_every = v,
            "--queue-bound" => opts.queue_bound = v.max(1) as usize,
            "--commit-every" => opts.commit_every = v.max(1) as usize,
            "--ingest-delay-ms" => opts.ingest_delay = Duration::from_millis(v),
            "--read-deadline-ms" => {
                opts.read_deadline = if v == 0 {
                    None
                } else {
                    Some(Duration::from_millis(v))
                }
            }
            "--frame-cap" => opts.frame_cap = v.max(64) as usize,
            "--shed-defer-depth" => opts.shed_defer_depth = v as usize,
            _ => unreachable!(),
        }
    }
    Ok(Args { opts, addr })
}

fn main() -> ExitCode {
    sts_obs::init_from_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let storage = Arc::new(FsStorage);
    let handle = match Server::start(args.opts, storage, &args.addr) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("sts-serve: {e}");
            return ExitCode::from(3);
        }
    };
    // The crash suite parses this line to find the ephemeral port, so
    // it must be flushed before any client connects.
    use std::io::Write as _;
    let mut stdout = std::io::stdout();
    let _ = writeln!(stdout, "listening {}", handle.addr());
    let _ = stdout.flush();
    handle.join();
    ExitCode::SUCCESS
}
