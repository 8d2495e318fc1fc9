//! The `serve_mixed` workload: a real `sts-serve` process under an
//! open-loop mix of ingest and queries, then SIGKILL and recovery.
//!
//! One thread and connection replays the ping stream on a fixed
//! schedule; a second sends `colocate` and `topk` queries on fixed
//! schedules. Every request is timed from when it was due, not from
//! when it was sent, so a stall is charged to the requests queued
//! behind it. The run is a nominal step followed by a ladder of higher
//! ingest rates (queries stay at their nominal rates).

use crate::inputs::{sub_seed, PingStream, StreamShape};
use crate::report::{Metrics, RunResult};
use crate::storage::CountingStorage;
use crate::timing::{nearest_rank, Band};
use crate::trace::{self, Layers};
use crate::RunOptions;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sts_obs::trace::span;
use sts_rng::{Rng, Xoshiro256pp};
use sts_serve::snapshot::write_snapshot;
use sts_serve::{
    f64_to_hex, Ping, QueryOutcome, ServeClient, ServeOptions, ServeState, ServeStats, StateConfig,
    Wal,
};

/// Window steps of every `colocate` query.
const STEPS: usize = 7;
/// Window steps of every `topk` query: fewer than `colocate`, since a
/// `topk` scores every object and holds the state mutex throughout.
const TOPK_STEPS: usize = 3;
/// `k` of every `topk` query.
const TOPK_K: usize = 5;
/// Query windows end this many simulated seconds before the newest due
/// ping, so pings in flight do not decide the answer.
const WINDOW_LAG: f64 = 30.0;
/// Simulated seconds a query window spans.
const WINDOW: f64 = 60.0;
/// A ladder step is sustained only while `colocate` p99 stays under
/// this limit (ms).
const QUERY_P99_LIMIT_MS: f64 = 100.0;
/// Set-ups timed before the measured phases, and again after;
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 7;
/// Kill/restart cycles; `serve.client.recovery_s` is their median.
const RESTARTS: usize = 3;
/// `hello` round trips timed for the protocol floor.
const HELLO_PROBES: usize = 200;
/// Client read deadline: far above any honest reply time, so a timeout
/// means a wedged server, not a slow one.
const READ_DEADLINE: Duration = Duration::from_secs(10);

/// The frozen traffic mix.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// The ping stream's population and noise.
    pub stream: StreamShape,
    /// Nominal ingest rate, pings/s.
    pub ingest_rps: f64,
    /// `colocate` queries per second.
    pub coloc_rps: f64,
    /// `topk` queries per second.
    pub topk_rps: f64,
    /// Ingest-rate multipliers of the ladder steps after the nominal one.
    pub ladder: &'static [f64],
    /// Share of the measured time spent in the nominal step.
    pub nominal_share: f64,
    /// Pings per object ingested during set-up, before timing starts.
    pub prefill_per_object: usize,
    /// Pings replayed by the traced pass.
    pub trace_pings: usize,
}

impl ServeShape {
    /// The frozen shape (`smoke` scales the rates and samples down).
    pub fn new(smoke: bool) -> ServeShape {
        let stream = StreamShape {
            pedestrians: 16,
            mean_interval: 8.0,
            min_interval: 4.0,
            beta: 2.0,
        };
        ServeShape {
            stream,
            ingest_rps: if smoke { 100.0 } else { 200.0 },
            coloc_rps: if smoke { 30.0 } else { 80.0 },
            topk_rps: if smoke { 3.0 } else { 8.0 },
            ladder: &[1.5, 2.0],
            nominal_share: 0.8,
            prefill_per_object: 8,
            trace_pings: if smoke { 400 } else { 3000 },
        }
    }
}

/// A running `sts-serve` child; killed and reaped on drop.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    fn spawn(bin: &Path, dir: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Ok(ServerProc { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "sts-serve did not report its address (got {line:?})"
                ))
            }
        }
    }

    fn connect(&self) -> Result<ServeClient, String> {
        let c = ServeClient::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_deadline(Some(READ_DEADLINE))
            .map_err(|e| format!("read deadline: {e}"))?;
        Ok(c)
    }

    /// High-water resident memory of the server process, bytes.
    fn peak_rss(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
        Some(
            kb.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()?
                * 1024,
        )
    }

    /// SIGKILL, then reap.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks the server to stop and reaps it.
    fn shutdown(mut self, client: &mut ServeClient) -> Result<(), String> {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        self.child.wait().map_err(|e| format!("wait: {e}"))?;
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `sts-serve` binary next to this executable.
fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe
        .parent()
        .ok_or("executable has no directory")?
        .join(format!("sts-serve{}", std::env::consts::EXE_SUFFIX));
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is not built", bin.display()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum QueryKind {
    Coloc { a: u64 },
    Topk { obj: u64 },
}

/// One scheduled request and what happened to it.
#[derive(Debug, Clone, Copy)]
struct Op {
    phase: usize,
    due: Duration,
    sent: Duration,
    done: Duration,
    ok: bool,
    /// Ingest only: `busy` refusals before the ping was acked.
    refused: u32,
    /// `topk` only: did the true partner rank first?
    hit: bool,
}

impl Op {
    fn latency_ms(&self) -> f64 {
        (self.done.saturating_sub(self.due)).as_secs_f64() * 1e3
    }
}

struct Query {
    phase: usize,
    due: Duration,
    kind: QueryKind,
    t0: f64,
    t1: f64,
}

/// The measured schedule: each ping's phase and due offset, and the
/// merged query schedule.
struct Schedule {
    phases: usize,
    ping_due: Vec<(usize, Duration)>,
    queries: Vec<Query>,
}

fn schedule(
    shape: &ServeShape,
    seconds: f64,
    stream: &[Ping],
    objects: u64,
    seed: u64,
) -> Schedule {
    let nominal = seconds * shape.nominal_share;
    let step = (seconds - nominal) / shape.ladder.len() as f64;
    let mut phases = vec![(0.0, nominal, shape.ingest_rps)];
    for (k, m) in shape.ladder.iter().enumerate() {
        let start = nominal + step * k as f64;
        phases.push((start, start + step, shape.ingest_rps * m));
    }
    let mut ping_due = Vec::new();
    for (p, &(start, end, rate)) in phases.iter().enumerate() {
        let n = ((end - start) * rate).floor() as usize;
        ping_due.extend((0..n).map(|k| (p, Duration::from_secs_f64(start + k as f64 / rate))));
    }
    ping_due.truncate(stream.len());
    // Simulated time of the newest ping due at a wall offset.
    let now_at = |due: Duration| {
        let k = ping_due.partition_point(|&(_, d)| d <= due);
        stream[k.saturating_sub(1)].t
    };
    let mut rng = Xoshiro256pp::seed_from_u64(sub_seed(seed, 7));
    let mut queries = Vec::new();
    for (rate, topk) in [(shape.coloc_rps, false), (shape.topk_rps, true)] {
        let n = (seconds * rate).floor() as usize;
        for k in 0..n {
            // Offset the two schedules so they do not fire together.
            let at = (k as f64 + if topk { 0.37 } else { 0.0 }) / rate;
            let due = Duration::from_secs_f64(at);
            let phase = phases.iter().rposition(|p| at >= p.0).unwrap_or(0);
            let t1 = now_at(due) - WINDOW_LAG;
            let kind = if topk {
                QueryKind::Topk {
                    obj: rng.random_range(0..objects),
                }
            } else {
                QueryKind::Coloc {
                    a: 2 * rng.random_range(0..objects / 2),
                }
            };
            queries.push(Query {
                phase,
                due,
                kind,
                t0: t1 - WINDOW,
                t1,
            });
        }
    }
    queries.sort_by_key(|q| q.due);
    Schedule {
        phases: phases.len(),
        ping_due,
        queries,
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn ask(client: &mut ServeClient, q: &Query) -> Result<String, String> {
    let reply = match q.kind {
        QueryKind::Coloc { a } => client.colocate_raw(a, a + 1, q.t0, q.t1, STEPS),
        QueryKind::Topk { obj } => client.topk_raw(obj, q.t0, q.t1, TOPK_STEPS, TOPK_K),
    };
    reply.map_err(|e| e.to_string())
}

/// Did a reply answer its query in full, and (topk) rank the partner
/// first?
fn judge(kind: QueryKind, reply: &str) -> (bool, bool) {
    let mut it = reply.split_whitespace();
    match kind {
        QueryKind::Coloc { .. } => (it.next() == Some("coloc"), false),
        QueryKind::Topk { obj } => {
            let head: Vec<&str> = it.by_ref().take(4).collect();
            let ok = head.len() == 4 && head[0] == "topk" && head[2] == "ok";
            let first = it.next().and_then(|id| id.parse::<u64>().ok());
            (ok, ok && first == Some(obj ^ 1))
        }
    }
}

/// The server's reply text for an in-process answer (the wire format of
/// `sts-serve`).
fn coloc_reply(o: &QueryOutcome<f64>) -> String {
    format!("coloc {} {}", o.staleness.token(), f64_to_hex(o.value))
}

fn topk_reply(o: &QueryOutcome<Vec<(u64, f64)>>) -> String {
    let mut out = format!(
        "topk {} {} {}",
        o.staleness.token(),
        if o.deadline_hit { "deadline" } else { "ok" },
        o.value.len()
    );
    for (id, score) in &o.value {
        out.push_str(&format!(" {id} {}", f64_to_hex(*score)));
    }
    out
}

/// The probe queries compared across the kill and against the
/// in-process replay.
fn probes(objects: u64, now: f64) -> Vec<Query> {
    let (t0, t1) = (now - WINDOW_LAG - WINDOW, now - WINDOW_LAG);
    (0..4.min(objects / 2))
        .map(|i| QueryKind::Coloc { a: 2 * i })
        .chain([
            QueryKind::Topk { obj: 0 },
            QueryKind::Topk { obj: objects - 1 },
        ])
        .map(|kind| Query {
            phase: 0,
            due: Duration::ZERO,
            kind,
            t0,
            t1,
        })
        .collect()
}

fn ask_all(client: &mut ServeClient, qs: &[Query]) -> Result<Vec<String>, String> {
    qs.iter().map(|q| ask(client, q)).collect()
}

/// A server set up for measurement: input stream generated, process
/// started, both connections open and the prefill ingested.
struct Setup {
    stream: PingStream,
    dir: PathBuf,
    server: ServerProc,
    ingest: ServeClient,
    query: ServeClient,
    prefill: usize,
}

fn set_up(
    shape: &ServeShape,
    opts: &RunOptions,
    rep: usize,
    needed: usize,
) -> Result<Setup, String> {
    let stream = PingStream::generate(&shape.stream, needed, opts.seed);
    let dir = opts.work_dir.join(format!("serve-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    let server = ServerProc::spawn(&server_binary()?, &dir)?;
    let mut ingest = server.connect()?;
    let query = server.connect()?;
    ingest.hello().map_err(|e| format!("hello: {e}"))?;
    let prefill = shape.prefill_per_object * stream.objects as usize;
    // Half a queue at a time, so the prefill never fills the ingest
    // queue (the server's queue high-water mark stays the measured
    // phases').
    for batch in stream.pings[..prefill].chunks(ServeOptions::new(&dir).queue_bound / 2) {
        for p in batch {
            ingest
                .ingest_until_acked(p)
                .map_err(|e| format!("prefill: {e}"))?;
        }
        ingest.flush().map_err(|e| format!("flush: {e}"))?;
    }
    Ok(Setup {
        stream,
        dir,
        server,
        ingest,
        query,
        prefill,
    })
}

impl Setup {
    /// Stops the server (it stops once every connection is gone) and
    /// removes its data.
    fn tear_down(self) -> Result<(), String> {
        let Setup {
            dir,
            server,
            ingest,
            mut query,
            ..
        } = self;
        drop(ingest);
        server.shutdown(&mut query)?;
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }
}

fn ms(samples: &[f64], p: f64) -> f64 {
    nearest_rank(samples, p).unwrap_or(f64::NAN)
}

/// Runs the workload: set-up, the timed open-loop phases, the checks,
/// the kill/restart cycles and (with a trace directory) the traced pass.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let shape = ServeShape::new(opts.smoke);
    let ladder_peak = shape.ladder.iter().copied().fold(1.0, f64::max);
    let needed = (shape.prefill_per_object as f64 * 2.0 * shape.stream.pedestrians as f64
        + opts.seconds * shape.ingest_rps * ladder_peak)
        .ceil() as usize;

    // Set-ups are timed before the measured phases and again after the
    // restarts, so their median spans the run rather than one moment of
    // a shared host; the last one before is the one measured.
    let mut setups = Vec::new();
    let mut timed_set_up = |rep: usize| {
        let started = Instant::now();
        let s = set_up(&shape, opts, rep, needed)?;
        setups.push(started.elapsed().as_secs_f64());
        Ok::<_, String>(s)
    };
    for rep in 1..SETUP_REPS {
        timed_set_up(rep)?.tear_down()?;
    }
    let Setup {
        stream,
        dir,
        server,
        mut ingest,
        mut query,
        prefill,
    } = timed_set_up(0)?;
    let objects = stream.objects;
    let measured = &stream.pings[prefill..];
    let plan = schedule(&shape, opts.seconds, measured, objects, opts.seed);

    let t0 = Instant::now() + Duration::from_millis(20);
    let (ingest_ops, query_ops) = std::thread::scope(|scope| {
        let ingest = &mut ingest;
        let query = &mut query;
        let plan = &plan;
        let pings = scope.spawn(move || {
            let mut ops = Vec::with_capacity(plan.ping_due.len());
            for (p, &(phase, due)) in measured.iter().zip(&plan.ping_due) {
                sleep_until(t0 + due);
                let sent = t0.elapsed();
                // As the repository's client does: a `busy` refusal is
                // retried after a backoff, so it costs latency (counted
                // from the due time) and shows in `refused`.
                let acked = ingest.ingest_until_acked(p);
                ops.push(Op {
                    phase,
                    due,
                    sent,
                    done: t0.elapsed(),
                    ok: acked.is_ok(),
                    refused: acked.map_or(0, |a| a.busy_retries),
                    hit: false,
                });
            }
            ops
        });
        let queries = scope.spawn(move || {
            let mut ops = Vec::with_capacity(plan.queries.len());
            for q in &plan.queries {
                sleep_until(t0 + q.due);
                let sent = t0.elapsed();
                let (ok, hit) = ask(query, q).map_or((false, false), |r| judge(q.kind, &r));
                ops.push((
                    q.kind,
                    Op {
                        phase: q.phase,
                        due: q.due,
                        sent,
                        done: t0.elapsed(),
                        ok,
                        refused: 0,
                        hit,
                    },
                ));
            }
            ops
        });
        (
            pings.join().expect("ingest thread"),
            queries.join().expect("query thread"),
        )
    });

    // Durability horizon, probes and server-side counters before the kill.
    let durable = ingest.flush().map_err(|e| format!("flush: {e}"))?;
    let now = measured[ingest_ops.len().saturating_sub(1)].t;
    let probe_set = probes(objects, now);
    let before = ask_all(&mut query, &probe_set)?;
    let counters = query.stats().map_err(|e| format!("stats: {e}"))?;
    let mut hello_us = Vec::new();
    for _ in 0..HELLO_PROBES {
        let started = Instant::now();
        query.hello().map_err(|e| format!("hello: {e}"))?;
        hello_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let peak_rss = server.peak_rss();
    drop((ingest, query));
    server.kill();

    let bin = server_binary()?;
    let mut recoveries = Vec::new();
    let mut last = None;
    for r in 0..RESTARTS {
        let started = Instant::now();
        let s = ServerProc::spawn(&bin, &dir)?;
        let mut c = s.connect()?;
        let ready = c.hello().map_err(|e| format!("hello: {e}"))?;
        recoveries.push(started.elapsed().as_secs_f64());
        if ready < durable {
            return Err(format!(
                "recovered to seq {ready}, below the durable {durable}"
            ));
        }
        if r + 1 < RESTARTS {
            drop(c);
            s.kill();
        } else {
            last = Some((s, c));
        }
    }
    let (server, mut client) = last.expect("at least one restart");
    let after = ask_all(&mut client, &probe_set)?;
    server.shutdown(&mut client)?;
    for rep in SETUP_REPS..2 * SETUP_REPS {
        timed_set_up(rep)?.tear_down()?;
    }

    // The same acked ping sequence applied in process.
    let stats = ServeStats::default();
    let mut state = ServeState::new(StateConfig::default());
    for p in stream.pings[..prefill].iter().chain(
        measured
            .iter()
            .zip(&ingest_ops)
            .filter(|(_, o)| o.ok)
            .map(|(p, _)| p),
    ) {
        state.apply(p);
    }
    let budget = ServeOptions::new(&dir).query_budget;
    let replayed: Vec<String> = probe_set
        .iter()
        .map(|q| match q.kind {
            QueryKind::Coloc { a } => {
                coloc_reply(&state.windowed_colocation(a, a + 1, q.t0, q.t1, STEPS, false, &stats))
            }
            QueryKind::Topk { obj } => {
                topk_reply(&state.topk(obj, q.t0, q.t1, TOPK_STEPS, TOPK_K, false, budget, &stats))
            }
        })
        .collect();
    let mut problems = Vec::new();
    for (i, ((b, a), r)) in before.iter().zip(&after).zip(&replayed).enumerate() {
        let r = if opts.inject_mismatch {
            format!("{r} ")
        } else {
            r.clone()
        };
        if b != a {
            problems.push(format!(
                "probe {i} changed across the kill: {b:?} then {a:?}"
            ));
        }
        if *b != r {
            problems.push(format!("probe {i}: server {b:?}, in-process replay {r:?}"));
        }
    }

    let mut metrics = measure(&plan, &ingest_ops, &query_ops, objects);
    metrics.set("setup_s", Band::of(&setups).map_or(f64::NAN, |b| b.median));
    metrics.set("peak_rss_mb", peak_rss.map_or(f64::NAN, |b| b as f64 / 1e6));
    metrics.set(
        "serve.client.recovery_s",
        Band::of(&recoveries).map_or(f64::NAN, |b| b.median),
    );
    metrics.set(
        "isolate.protocol.hello_rtt_us",
        Band::of(&hello_us).map_or(f64::NAN, |b| b.median),
    );
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    };
    metrics.set("serve.server.shed_busy", counter("shed_busy"));
    metrics.set("serve.server.queue_depth_max", counter("queue_depth_max"));
    metrics.set("serve.server.refresh_deferred", counter("refresh_deferred"));
    metrics.set("serve.server.queries_deadline", counter("queries_deadline"));
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(tdir) = &opts.trace_dir {
        let (layer_metrics, trace_problems) = traced_pass(&shape, &stream, opts, tdir)?;
        metrics.extend(layer_metrics);
        problems.extend(trace_problems);
    }
    let failed = ingest_ops.iter().filter(|o| !o.ok).count()
        + query_ops.iter().filter(|(_, o)| !o.ok).count();
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: (ingest_ops.len() + query_ops.len()) as u64,
        failed: failed as u64,
        metrics,
        problems,
    })
}

/// End-to-end and client-side metrics from the timed phases.
fn measure(plan: &Schedule, ingest: &[Op], queries: &[(QueryKind, Op)], objects: u64) -> Metrics {
    let lat = |ops: &mut dyn Iterator<Item = &Op>| -> Vec<f64> {
        ops.filter(|o| o.ok).map(Op::latency_ms).collect()
    };
    let nominal_coloc = lat(&mut queries
        .iter()
        .filter(|(k, o)| o.phase == 0 && matches!(k, QueryKind::Coloc { .. }))
        .map(|(_, o)| o));
    let nominal_topk = lat(&mut queries
        .iter()
        .filter(|(k, o)| o.phase == 0 && matches!(k, QueryKind::Topk { .. }))
        .map(|(_, o)| o));
    let nominal_acks = lat(&mut ingest.iter().filter(|o| o.phase == 0));

    // Pairs the nominal queries scored, over the time they took.
    let (mut pairs, mut busy) = (0.0, 0.0);
    for (kind, o) in queries.iter().filter(|(_, o)| o.phase == 0 && o.ok) {
        pairs += match kind {
            QueryKind::Coloc { .. } => 1.0,
            QueryKind::Topk { .. } => (objects - 1) as f64,
        };
        busy += o.done.saturating_sub(o.sent).as_secs_f64();
    }

    // The highest step that applied ≥ 98% of its offered pings, failed
    // or was refused on ≤ 1% of its requests, kept colocate p99 under
    // the limit and did not fall further behind schedule.
    let mut sustained: f64 = 0.0;
    for p in 0..plan.phases {
        let pings: Vec<&Op> = ingest.iter().filter(|o| o.phase == p).collect();
        let qs: Vec<&Op> = queries
            .iter()
            .map(|(_, o)| o)
            .filter(|o| o.phase == p)
            .collect();
        if pings.is_empty() {
            continue;
        }
        let acked = pings.iter().filter(|o| o.ok).count() as f64;
        let errors = pings.iter().filter(|o| !o.ok || o.refused > 0).count()
            + qs.iter().filter(|o| !o.ok).count();
        let coloc_p99 = ms(
            &queries
                .iter()
                .filter(|(k, o)| o.phase == p && o.ok && matches!(k, QueryKind::Coloc { .. }))
                .map(|(_, o)| o.latency_ms())
                .collect::<Vec<_>>(),
            0.99,
        );
        let lag = |ops: &[&Op]| {
            let v: Vec<f64> = ops
                .iter()
                .map(|o| o.sent.saturating_sub(o.due).as_secs_f64())
                .collect();
            Band::of(&v).map_or(0.0, |b| b.median)
        };
        let quarter = (pings.len() / 4).max(1);
        let growing = lag(&pings[pings.len() - quarter..]) - lag(&pings[..quarter]) > 0.005;
        let passed = acked >= 0.98 * pings.len() as f64
            && errors as f64 <= 0.01 * (pings.len() + qs.len()) as f64
            && coloc_p99 <= QUERY_P99_LIMIT_MS
            && !growing;
        if passed {
            // Over the step as it ran: first ping due to last ping acked.
            let ran = pings[pings.len() - 1].done.saturating_sub(pings[0].due);
            sustained = sustained.max(acked / ran.as_secs_f64());
        }
    }

    let lags: Vec<f64> = ingest
        .iter()
        .map(|o| o.sent.saturating_sub(o.due).as_secs_f64() * 1e3)
        .collect();
    let topk: Vec<&Op> = queries
        .iter()
        .filter(|(k, o)| o.ok && matches!(k, QueryKind::Topk { .. }))
        .map(|(_, o)| o)
        .collect();
    let mut m = Metrics::default();
    m.set("pairs_per_s", pairs / busy);
    m.set("latency_p50_ms", ms(&nominal_coloc, 0.5));
    m.set("latency_p99_ms", ms(&nominal_coloc, 0.99));
    m.set("serve.client.ingest_ack_p50_ms", ms(&nominal_acks, 0.5));
    m.set("serve.client.ingest_ack_p99_ms", ms(&nominal_acks, 0.99));
    m.set("serve.client.topk_p90_ms", ms(&nominal_topk, 0.9));
    m.set("serve.client.sustained_ingest_rps", sustained);
    m.set("bench.gen_lag_ms_p99", ms(&lags, 0.99));
    m.set(
        "eval.match_precision",
        topk.iter().filter(|o| o.hit).count() as f64 / topk.len().max(1) as f64,
    );
    m
}

/// What one in-process replay of the traced sample measured.
struct Replay {
    records: u64,
    commits: u64,
    wal_bytes: u64,
}

/// Replays the head of the ping stream through the serving layers in
/// process — state, WAL, snapshot — each call in its own span.
fn replay(shape: &ServeShape, stream: &PingStream, dir: &Path) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(dir);
    let storage = Arc::new(CountingStorage::default());
    let stats = Arc::new(ServeStats::default());
    let opts = ServeOptions::new(dir);
    let wal_dir = dir.join("wal");
    let (mut wal, _) = Wal::open(
        storage.clone(),
        &wal_dir,
        opts.segment_records,
        stats.clone(),
    )
    .map_err(|e| e.to_string())?;
    let mut state = ServeState::new(opts.state.clone());
    let pings = &stream.pings[..shape.trace_pings.min(stream.pings.len())];
    let warm = shape.prefill_per_object * stream.objects as usize;
    let (mut records, mut commits) = (0u64, 0u64);
    for (k, p) in pings.iter().enumerate() {
        {
            let _request = span("bench.ping");
            {
                let _s = span("serve.state.apply");
                state.apply(p);
            }
            wal.append(p.encode());
            records += 1;
            if wal.pending_len() >= opts.commit_every {
                let _s = span("serve.wal.commit");
                wal.commit().map_err(|e| e.to_string())?;
                commits += 1;
            }
        }
        if k >= warm && k % 16 == 0 {
            let _request = span("bench.query");
            let a = 2 * (p.obj / 2);
            let (t0, t1) = (p.t - WINDOW_LAG - WINDOW, p.t - WINDOW_LAG);
            {
                let _s = span("serve.state.coloc_cold");
                state.windowed_colocation(a, a + 1, t0, t1, STEPS, false, &stats);
            }
            let _s = span("serve.state.coloc_warm");
            state.windowed_colocation(a, a + 1, t0, t1, STEPS, false, &stats);
        }
        if k >= warm && k % 200 == 0 {
            let _request = span("bench.query");
            let _s = span("serve.state.topk");
            state.topk(
                p.obj,
                p.t - WINDOW_LAG - WINDOW,
                p.t - WINDOW_LAG,
                TOPK_STEPS,
                TOPK_K,
                false,
                opts.query_budget,
                &stats,
            );
        }
    }
    {
        let _request = span("bench.ping");
        let _s = span("serve.wal.commit");
        wal.commit().map_err(|e| e.to_string())?;
        commits += 1;
    }
    let wal_bytes = storage.bytes_written();
    {
        let _request = span("bench.snapshot");
        let _s = span("serve.snapshot.write");
        write_snapshot(storage.as_ref(), &dir.join("snap"), &state, &stats)
            .map_err(|e| e.to_string())?;
    }
    drop(wal);
    {
        let _request = span("bench.recover");
        let _s = span("serve.wal.replay");
        let (_, recovered) = Wal::open(storage.clone(), &wal_dir, opts.segment_records, stats)
            .map_err(|e| e.to_string())?;
        if recovered.len() as u64 != records {
            return Err(format!(
                "WAL replayed {} of {records} records",
                recovered.len()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(Replay {
        records,
        commits,
        wal_bytes,
    })
}

fn traced_pass(
    shape: &ServeShape,
    stream: &PingStream,
    opts: &RunOptions,
    dir: &Path,
) -> Result<(Metrics, Vec<String>), String> {
    let thread = sts_obs::trace::thread_id();
    let work = opts.work_dir.join("trace-serve");
    let traced = trace::off_and_on(|| replay(shape, stream, &work))?;
    let replayed = traced.value.as_ref()?;
    trace::write_jsonl(&dir.join(format!("{}.jsonl", opts.workload)), &traced.spans)
        .map_err(|e| format!("writing the trace: {e}"))?;
    let layers = Layers::of(&traced.spans, thread);
    let mean_ms = |name: &str| layers.mean(name).as_secs_f64() * 1e3;
    let commits: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "serve.wal.commit")
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    let mut m = Metrics::default();
    m.set("serve.state.apply_us", mean_ms("serve.state.apply") * 1e3);
    m.set(
        "serve.state.coloc_cold_ms",
        mean_ms("serve.state.coloc_cold"),
    );
    m.set(
        "serve.state.coloc_warm_ms",
        mean_ms("serve.state.coloc_warm"),
    );
    m.set("serve.state.topk_ms", mean_ms("serve.state.topk"));
    m.set("serve.wal.commit_ms_p50", ms(&commits, 0.5));
    m.set("serve.wal.commit_ms_p99", ms(&commits, 0.99));
    m.set(
        "serve.wal.bytes_per_record",
        replayed.wal_bytes as f64 / replayed.records as f64,
    );
    m.set(
        "serve.wal.records_per_commit",
        replayed.records as f64 / replayed.commits as f64,
    );
    m.set("serve.wal.replay_ms", mean_ms("serve.wal.replay"));
    m.set("serve.snapshot.write_ms", mean_ms("serve.snapshot.write"));
    m.set("bench.trace_coverage", traced.coverage(&layers));
    m.set("bench.trace_overhead_pct", traced.overhead_pct());
    Ok((m, Vec::new()))
}
