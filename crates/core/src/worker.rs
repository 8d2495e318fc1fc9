//! The STS worker: preamble codec and serve loop.
//!
//! [`sts_isolate`] moves frames; this module gives them their STS
//! meaning. The coordinator side ([`crate::shard`], under
//! `ExecMode::Subprocess` and `ExecMode::Sharded`) encodes the whole
//! job — measure config, grid, retry policy, fault plan, matrix dims
//! and both trajectory sides — as *preamble* frames; the worker side
//! ([`serve`]) decodes them, rebuilds the identical [`Sts`], prepares
//! every trajectory once, answers `ready`, and then scores chunks
//! until `shutdown` or EOF.
//!
//! Wire vocabulary, protocol v5 (one whitespace-separated record per
//! frame, framed by [`sts_isolate::protocol`]):
//!
//! ```text
//! coordinator → worker (preamble, then `begin`):
//!   hello <version> <fingerprint:016x> <hb_every>
//!   trace <trace_id:016x> <parent_span> <span_base> <ship_spans>
//!   measure <full|no-noise> <sigma> <kernel> <trunc|none> <off|exact>
//!   grid <minx> <miny> <maxx> <maxy> <cell>
//!   retry <max_retries> <base_ns> <cap_ns> <seed>
//!   fault <seed> <slow> <transient> <tfail> <persistent> <abort> <wedge> <garbage> <slow_ns>
//!   dims <rows> <cols>
//!   traj <q|c> <index> <npoints> (<x> <y> <t>)*
//!   begin
//! worker → coordinator:
//!   ready <worker_now_ns>
//!   | reject version <got> <want>
//!   | reject fingerprint <computed:016x> <claimed:016x>
//! coordinator → worker (per chunk):
//!   chunk <req_id> <start> <len>
//! worker → coordinator (heartbeats only when hb_every > 0):
//!   hb <req_id> <pairs_done>
//!   tstat <seq> (c <name> <v> | g <name> <v> | h <name> ...)*
//!   tspan <seq> <n> (<id> <parent> <name> <thread> <start> <dur>)* (iff ship_spans)
//!   result <req_id> <n> (s <score> | f <attempts> | q)*   (one cell per pair, in order)
//! coordinator → worker (end of run):
//!   shutdown
//! worker → coordinator (final telemetry flush):
//!   tstat ... [tspan ...] bye <trace_id:016x>
//! ```
//!
//! `hello` and `trace` are mandatory: a preamble missing either is
//! refused with a typed [`ServeError::Spec`] before any `ready`.
//! Worker and coordinator ship from the same build, so there is no
//! older dialect to serve.
//!
//! A `result` holds the chunk's `n` cells in pair order, each in the
//! one cell text form tile files use too
//! ([`sts_runtime::encode_cell`]); the coordinator accepts it only when
//! `n` is the length of the unit it dealt.
//!
//! The `hello` handshake makes version or corpus skew a *typed*
//! rejection instead of undefined scoring: the worker recomputes the
//! job fingerprint from its own decoded preamble (the same hash tile
//! files are bound to) and answers `reject ...` instead of `ready`
//! on any mismatch. The coordinator treats a rejection as permanent —
//! the pairing of binaries is wrong, and restarting cannot fix it.
//!
//! The `trace` frame is the **fleet telemetry handshake**: it hands
//! the worker the coordinator's trace id and parent span id, a
//! `span_base` that namespaces this connection's span ids into a
//! disjoint range, and whether to ship spans at all. The worker echoes
//! its monotonic trace clock in `ready <now_ns>` (each process counts
//! from its own arbitrary epoch — the coordinator turns the echo into
//! a per-connection [`sts_obs::ClockMap`]), attaches a cumulative
//! registry snapshot (`tstat`, latest-seq-wins so chaos drops and
//! duplicates self-heal) and a drained span buffer (`tspan`, span ids
//! pre-shifted by `span_base`, roots re-parented under `parent_span`)
//! to every result, and flushes both once more before `bye` on clean
//! exit.
//!
//! `f64`s travel as Rust's shortest round-trip decimal (the cell
//! codec's encoding), so a worker-scored cell is bit-identical to its
//! in-process twin. Injected
//! [`Fault::GarbageOutput`](sts_runtime::Fault) pairs make the worker
//! replace the chunk's result frame with unframed noise — the
//! coordinator's protocol validation, not this module, turns that into
//! a quarantine.

use crate::job::JobConfig;
use crate::sts::MeasureSpec;
use crate::{StpCacheMode, Sts, StsConfig, StsVariant};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;
use sts_geo::{BoundingBox, Grid, Point};
use sts_isolate::protocol::{read_frame, write_frame, ProtocolError};
use sts_obs::{trace, FanoutSubscriber, RingRecorder, Snapshot, Subscriber};
use sts_runtime::{
    decode_cell, encode_cell, Fault, FaultPlan, PairOutcome, PairSpace, RetryPolicy,
};
use sts_stats::Kernel;
use sts_traj::Trajectory;

/// The wire-protocol version spoken by this build's `hello` frame. A
/// worker answering a different version's preamble replies
/// `reject version <got> <want>` instead of `ready`. Version 4 made
/// `hello` and `trace` mandatory and `ready <now_ns>` the only answer;
/// version 5 made `result` cells dense, in the cell codec's text form.
pub const PROTOCOL_VERSION: u64 = 5;

/// How many closed spans a worker buffers between shipping
/// opportunities; the oldest are dropped past this (span shipping is
/// best-effort diagnostics, memory is not allowed to grow with chunk
/// size).
const SPAN_BUFFER: usize = 1024;

/// The conventional worker executable name, resolved next to the
/// current executable (test and release binaries land in the same
/// target directory; integration tests one level deeper, in `deps/`).
pub fn default_worker_path() -> PathBuf {
    let name = format!("sts-worker{}", std::env::consts::EXE_SUFFIX);
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            let dir = exe.parent()?;
            let dir = if dir.ends_with("deps") {
                dir.parent()?
            } else {
                dir
            };
            Some(dir.join(&name))
        })
        .unwrap_or_else(|| PathBuf::from(name))
}

fn kernel_token(k: Kernel) -> &'static str {
    match k {
        Kernel::Gaussian => "gaussian",
        Kernel::Epanechnikov => "epanechnikov",
        Kernel::Uniform => "uniform",
        Kernel::Triangular => "triangular",
    }
}

fn kernel_from_token(s: &str) -> Option<Kernel> {
    Some(match s {
        "gaussian" => Kernel::Gaussian,
        "epanechnikov" => Kernel::Epanechnikov,
        "uniform" => Kernel::Uniform,
        "triangular" => Kernel::Triangular,
        _ => return None,
    })
}

/// Encodes the whole job as preamble frames for [`serve`] to decode.
/// The `spec` is the measure's pure-config construction recipe; `cfg`
/// contributes the retry policy and fault plan the worker must apply
/// so in-process and subprocess cells take identical code paths.
/// `hb_every` asks the worker to emit `hb` heartbeat frames every that
/// many scored pairs inside a chunk (0 disables them — the subprocess
/// path, whose per-chunk hard timeout covers liveness). The
/// per-connection `trace` frame is the coordinator's to add.
pub(crate) fn encode_preamble(
    spec: &MeasureSpec,
    grid: &Grid,
    cfg: &JobConfig,
    space: &PairSpace,
    queries: &[Trajectory],
    candidates: &[Trajectory],
    hb_every: u64,
) -> Vec<String> {
    let mut frames = Vec::with_capacity(6 + queries.len() + candidates.len());
    let fingerprint = crate::job::job_fingerprint(grid, queries, candidates);
    frames.push(format!(
        "hello {PROTOCOL_VERSION} {fingerprint:016x} {hb_every}"
    ));
    let (variant, sts_cfg) = match spec {
        MeasureSpec::Full(c) => ("full", c),
        MeasureSpec::NoNoise(c) => ("no-noise", c),
    };
    let trunc = match sts_cfg.truncation_k {
        Some(k) => k.to_string(),
        None => "none".to_string(),
    };
    // The cache mode travels with the measure so a worker-scored cell
    // takes the same code path as its in-process twin.
    let cache = match sts_cfg.cache {
        StpCacheMode::Off => "off",
        StpCacheMode::Exact => "exact",
    };
    frames.push(format!(
        "measure {variant} {} {} {trunc} {cache}",
        sts_cfg.noise_sigma,
        kernel_token(sts_cfg.kernel),
    ));
    let area = grid.area();
    frames.push(format!(
        "grid {} {} {} {} {}",
        area.min().x,
        area.min().y,
        area.max().x,
        area.max().y,
        grid.cell_size(),
    ));
    frames.push(format!(
        "retry {} {} {} {}",
        cfg.retry.max_retries,
        cfg.retry.backoff_base.as_nanos(),
        cfg.retry.backoff_cap.as_nanos(),
        cfg.retry.seed,
    ));
    if let Some(p) = &cfg.fault {
        frames.push(format!(
            "fault {} {} {} {} {} {} {} {} {}",
            p.seed,
            p.slow_per_mille,
            p.transient_per_mille,
            p.transient_failures,
            p.persistent_per_mille,
            p.abort_per_mille,
            p.wedge_per_mille,
            p.garbage_per_mille,
            p.slow_for.as_nanos(),
        ));
    }
    frames.push(format!("dims {} {}", space.rows(), space.cols()));
    for (side, trajectories) in [("q", queries), ("c", candidates)] {
        for (idx, t) in trajectories.iter().enumerate() {
            let mut frame = format!("traj {side} {idx} {}", t.len());
            for k in 0..t.len() {
                let p = t.get(k);
                frame.push_str(&format!(" {} {} {}", p.loc.x, p.loc.y, p.t));
            }
            frames.push(frame);
        }
    }
    frames
}

/// Why a worker's serve loop gave up.
#[derive(Debug)]
pub enum ServeError {
    /// The coordinator's bytes do not form valid frames (or the stream
    /// ended mid-preamble).
    Protocol(ProtocolError),
    /// The preamble does not describe a runnable job (including one
    /// missing its mandatory `hello` or `trace` frame).
    Spec(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol(e) => write!(f, "worker protocol error: {e}"),
            ServeError::Spec(msg) => write!(f, "bad job preamble: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}

/// The fleet telemetry handshake decoded from a `trace` preamble
/// frame (see the module docs).
#[derive(Debug, Clone, Copy)]
struct TraceCtx {
    /// Coordinator-chosen id for the whole job's trace, echoed in `bye`.
    trace_id: u64,
    /// Coordinator span id the worker's root spans re-parent under.
    parent_span: u64,
    /// Added to every shipped span id — namespaces this connection's
    /// ids into a range disjoint from the coordinator's and every
    /// other worker's.
    span_base: u64,
    /// Ship `tspan` frames at all? (The coordinator turns this off
    /// when it has no subscriber — buffering spans nobody will read
    /// is wasted work.)
    ship_spans: bool,
}

/// The decoded preamble, accumulated frame by frame until `begin`.
#[derive(Default)]
struct JobSpec {
    hello: Option<(u64, u64, u64)>,
    trace: Option<TraceCtx>,
    measure: Option<(StsVariant, StsConfig)>,
    grid: Option<Grid>,
    retry: Option<RetryPolicy>,
    fault: Option<FaultPlan>,
    dims: Option<(usize, usize)>,
    queries: Side,
    candidates: Side,
}

/// One side's decoded `traj` frames by index: the trajectory (`None`
/// when unconstructible) and its shape. Shapes are recorded from the
/// *raw decoded points*, independently of Trajectory construction, so
/// the fingerprint check sees exactly what the coordinator hashed. A
/// map rather than a `dims`-sized vector: the frames say how many
/// trajectories there are, not a count read off the wire.
type Side = BTreeMap<usize, (Option<Trajectory>, Option<crate::job::TrajShape>)>;

fn spec_err(msg: impl Into<String>) -> ServeError {
    ServeError::Spec(msg.into())
}

fn parse<T: std::str::FromStr>(
    fields: &mut std::str::SplitWhitespace<'_>,
    what: &str,
) -> Result<T, ServeError> {
    fields
        .next()
        .ok_or_else(|| spec_err(format!("missing {what}")))?
        .parse()
        .map_err(|_| spec_err(format!("bad {what}")))
}

fn duration_ns(
    fields: &mut std::str::SplitWhitespace<'_>,
    what: &str,
) -> Result<Duration, ServeError> {
    // Encoded via `as_nanos()` (u128); saturate rather than reject a
    // pathological-but-legal `Duration`.
    let ns: u128 = parse(fields, what)?;
    Ok(Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX)))
}

impl JobSpec {
    fn absorb(&mut self, frame: &str) -> Result<(), ServeError> {
        let mut fields = frame.split_whitespace();
        match fields.next().unwrap_or("") {
            "hello" => {
                let version: u64 = parse(&mut fields, "protocol version")?;
                let fingerprint = fields
                    .next()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| spec_err("bad job fingerprint"))?;
                let hb_every: u64 = parse(&mut fields, "heartbeat stride")?;
                self.hello = Some((version, fingerprint, hb_every));
            }
            "trace" => {
                let trace_id = fields
                    .next()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| spec_err("bad trace id"))?;
                let parent_span: u64 = parse(&mut fields, "parent span")?;
                let span_base: u64 = parse(&mut fields, "span base")?;
                let ship: u64 = parse(&mut fields, "ship flag")?;
                self.trace = Some(TraceCtx {
                    trace_id,
                    parent_span,
                    span_base,
                    ship_spans: ship != 0,
                });
            }
            "measure" => {
                let variant = match fields.next() {
                    Some("full") => StsVariant::Full,
                    Some("no-noise") => StsVariant::NoNoise,
                    other => return Err(spec_err(format!("unknown measure `{other:?}`"))),
                };
                let noise_sigma: f64 = parse(&mut fields, "noise sigma")?;
                let kernel = fields
                    .next()
                    .and_then(kernel_from_token)
                    .ok_or_else(|| spec_err("unknown kernel"))?;
                let truncation_k = match fields.next() {
                    Some("none") => None,
                    Some(v) => Some(v.parse().map_err(|_| spec_err("bad truncation"))?),
                    None => return Err(spec_err("missing truncation")),
                };
                let cache = match fields.next() {
                    Some("off") => StpCacheMode::Off,
                    Some("exact") => StpCacheMode::Exact,
                    Some(_) => return Err(spec_err("unknown cache mode")),
                    None => return Err(spec_err("missing cache mode")),
                };
                self.measure = Some((
                    variant,
                    StsConfig {
                        noise_sigma,
                        kernel,
                        truncation_k,
                        cache,
                    },
                ));
            }
            "grid" => {
                let min_x: f64 = parse(&mut fields, "grid min x")?;
                let min_y: f64 = parse(&mut fields, "grid min y")?;
                let max_x: f64 = parse(&mut fields, "grid max x")?;
                let max_y: f64 = parse(&mut fields, "grid max y")?;
                let cell: f64 = parse(&mut fields, "grid cell size")?;
                let bbox = BoundingBox::new(Point::new(min_x, min_y), Point::new(max_x, max_y));
                self.grid =
                    Some(Grid::new(bbox, cell).map_err(|e| spec_err(format!("bad grid: {e}")))?);
            }
            "retry" => {
                self.retry = Some(RetryPolicy {
                    max_retries: parse(&mut fields, "max retries")?,
                    backoff_base: duration_ns(&mut fields, "backoff base")?,
                    backoff_cap: duration_ns(&mut fields, "backoff cap")?,
                    seed: parse(&mut fields, "retry seed")?,
                });
            }
            "fault" => {
                self.fault = Some(FaultPlan {
                    seed: parse(&mut fields, "fault seed")?,
                    slow_per_mille: parse(&mut fields, "slow rate")?,
                    transient_per_mille: parse(&mut fields, "transient rate")?,
                    transient_failures: parse(&mut fields, "transient failures")?,
                    persistent_per_mille: parse(&mut fields, "persistent rate")?,
                    abort_per_mille: parse(&mut fields, "abort rate")?,
                    wedge_per_mille: parse(&mut fields, "wedge rate")?,
                    garbage_per_mille: parse(&mut fields, "garbage rate")?,
                    slow_for: duration_ns(&mut fields, "slow duration")?,
                });
            }
            "dims" => {
                let rows: usize = parse(&mut fields, "rows")?;
                let cols: usize = parse(&mut fields, "cols")?;
                self.dims = Some((rows, cols));
            }
            "traj" => {
                let side = fields.next().unwrap_or("");
                let idx: usize = parse(&mut fields, "trajectory index")?;
                let n: usize = parse(&mut fields, "point count")?;
                // `n` comes off the wire: grow as points arrive.
                let mut points = Vec::new();
                for _ in 0..n {
                    let x: f64 = parse(&mut fields, "point x")?;
                    let y: f64 = parse(&mut fields, "point y")?;
                    let t: f64 = parse(&mut fields, "point t")?;
                    points.push((x, y, t));
                }
                // An unconstructible trajectory is the *pair's*
                // problem (quarantined per cell), not the preamble's.
                let traj = Trajectory::from_xyt(&points).ok();
                let shape = points.first().map(|&(x, y, t)| {
                    let (lx, ly, lt) = points[points.len() - 1];
                    crate::job::TrajShape {
                        len: n as u64,
                        first: [x, y, t],
                        last: [lx, ly, lt],
                    }
                });
                let (rows, cols) = self.dims.unwrap_or_default();
                let (decoded, dim) = match side {
                    "q" => (&mut self.queries, rows),
                    "c" => (&mut self.candidates, cols),
                    other => return Err(spec_err(format!("unknown trajectory side `{other}`"))),
                };
                if idx >= dim {
                    return Err(spec_err("trajectory index out of dims"));
                }
                decoded.insert(idx, (traj, shape));
            }
            other => return Err(spec_err(format!("unknown preamble frame `{other}`"))),
        }
        Ok(())
    }

    /// The typed rejection this preamble's handshake earns, if any.
    /// `None` means go on to [`build`](Self::build), which refuses a
    /// preamble missing `hello` or too torn to name a grid with the
    /// specific missing frame.
    fn handshake_rejection(&self) -> Option<String> {
        let (version, claimed, _) = self.hello?;
        if version != PROTOCOL_VERSION {
            return Some(format!("reject version {version} {PROTOCOL_VERSION}"));
        }
        let grid = self.grid.as_ref()?;
        let (rows, cols) = self.dims?;
        // Indices are distinct and below `dims`, so a full side holds
        // exactly `dims` of them, in order.
        let shapes = |side: &Side, dim: usize| {
            (side.len() == dim)
                .then(|| {
                    side.values()
                        .map(|&(_, shape)| shape)
                        .collect::<Option<Vec<_>>>()
                })
                .flatten()
        };
        let computed = match (shapes(&self.queries, rows), shapes(&self.candidates, cols)) {
            (Some(qs), Some(cs)) => crate::job::fingerprint_shapes(grid, &qs, &cs),
            // A missing trajectory frame can never hash to an honest
            // claim; any value other than the claim rejects.
            _ => claimed.wrapping_add(1),
        };
        (computed != claimed).then(|| format!("reject fingerprint {computed:016x} {claimed:016x}"))
    }

    fn build(self) -> Result<WorkerState, ServeError> {
        let (_, _, hb_every) = self.hello.ok_or_else(|| spec_err("no hello frame"))?;
        let trace = self.trace.ok_or_else(|| spec_err("no trace frame"))?;
        let (variant, config) = self.measure.ok_or_else(|| spec_err("no measure frame"))?;
        let grid = self.grid.ok_or_else(|| spec_err("no grid frame"))?;
        self.dims.ok_or_else(|| spec_err("no dims frame"))?;
        let sts = match variant {
            StsVariant::Full => Sts::new(config, grid),
            StsVariant::NoNoise => Sts::variant(config, grid, StsVariant::NoNoise, &[])
                .map_err(|e| spec_err(format!("cannot build measure: {e}")))?,
            _ => return Err(spec_err("variant not expressible in a preamble")),
        };
        let cfg = JobConfig {
            retry: self.retry.unwrap_or_default(),
            fault: self.fault,
            ..JobConfig::default()
        };
        let prepare_side = |side: Side| {
            side.into_values()
                .map(|(t, _)| {
                    t.and_then(|t| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            sts.prepare(&t).ok()
                        }))
                        .ok()
                        .flatten()
                    })
                })
                .collect()
        };
        let prepared_q: Vec<_> = prepare_side(self.queries);
        let prepared_c: Vec<_> = prepare_side(self.candidates);
        Ok(WorkerState {
            sts,
            cfg,
            // The handshake matched the fingerprint, so the sides hold
            // exactly `dims` trajectories each.
            space: PairSpace::new(prepared_q.len(), prepared_c.len()),
            prepared_q,
            prepared_c,
            hb_every,
            trace,
        })
    }
}

/// Everything a ready worker needs to score chunks.
struct WorkerState {
    sts: Sts,
    cfg: JobConfig,
    space: PairSpace,
    prepared_q: Vec<Option<crate::PreparedTrajectory>>,
    prepared_c: Vec<Option<crate::PreparedTrajectory>>,
    hb_every: u64,
    trace: TraceCtx,
}

/// Runs the worker side of the protocol over the given streams until
/// `shutdown` or clean EOF. This is what `sts-worker serve-tcp` wraps
/// around its coordinator socket; tests drive it over in-memory pipes.
///
/// Faults from the preamble's plan are *executed* here: aborts and
/// wedges kill or hang this process (that is the point — the
/// coordinator contains them), and a [`Fault::GarbageOutput`] pair
/// makes the worker emit unframed noise instead of its chunk's result
/// frame.
pub fn serve<R: BufRead, W: Write>(input: &mut R, output: &mut W) -> Result<(), ServeError> {
    // The shipping baseline: everything this process records past here
    // is this job's work. In a real worker subprocess the registry is
    // empty anyway; the baseline matters for in-process test workers.
    let metrics_base = sts_obs::metrics::global().snapshot();
    let mut spec = JobSpec::default();
    let state = loop {
        let frame = read_frame(input)?;
        if frame == "begin" {
            if let Some(rejection) = spec.handshake_rejection() {
                write_frame(output, &rejection).map_err(ProtocolError::Io)?;
                return Err(spec_err(format!("handshake failed: {rejection}")));
            }
            break spec.build()?;
        }
        spec.absorb(&frame)?;
    };
    let mut shipper = Shipper::install(state.trace, metrics_base);
    // The clock-origin exchange: the coordinator needs this worker's
    // monotonic epoch to map shipped timestamps into its own clock
    // domain.
    write_frame(output, &format!("ready {}", trace::now_ns())).map_err(ProtocolError::Io)?;
    let serve_span = trace::span_with_parent("worker.serve", 0);

    let retries = AtomicU64::new(0);
    // One scratch arena for the whole process, reused across chunks —
    // the subprocess twin of the pool's per-worker state.
    let mut scratch = crate::StpScratch::new();
    loop {
        let frame = match read_frame(input) {
            Ok(f) => f,
            Err(ProtocolError::Eof) => {
                // The coordinator hung up; flush telemetry best-effort
                // (the write side may be gone too).
                drop(serve_span);
                let _ = shipper.flush(output);
                return Ok(());
            }
            Err(e) => return Err(e.into()),
        };
        let mut fields = frame.split_whitespace();
        match fields.next().unwrap_or("") {
            "chunk" => {
                let req_id: u64 = parse(&mut fields, "request id")?;
                let start: usize = parse(&mut fields, "chunk start")?;
                let len: usize = parse(&mut fields, "chunk len")?;
                if start + len > state.space.len() {
                    return Err(spec_err(format!(
                        "chunk {start}+{len} exceeds the {}-pair space",
                        state.space.len()
                    )));
                }
                let chunk_span = trace::span("worker.chunk");
                trace::event("worker.tile", req_id as f64);
                let mut body = format!("result {req_id} {len}");
                let mut garbage = false;
                let mut pairs_done = 0u64;
                for lin in start..start + len {
                    // A garbage-output pair corrupts the whole chunk's
                    // result frame; checked before scoring so the
                    // corruption is deterministic however the chunk
                    // was bisected.
                    if let Some(plan) = &state.cfg.fault {
                        if plan.fault_for(lin) == Fault::GarbageOutput {
                            garbage = true;
                            break;
                        }
                    }
                    let (i, j) = state.space.pair(lin);
                    let outcome = state.sts.score_cell_retrying(
                        state.prepared_q[i].as_ref(),
                        state.prepared_c[j].as_ref(),
                        &state.cfg,
                        lin,
                        &retries,
                        &mut scratch,
                    );
                    body.push(' ');
                    encode_cell(&outcome, &mut body);
                    pairs_done += 1;
                    // Progress heartbeats keep a long chunk's lease
                    // alive without the coordinator guessing at
                    // honest-but-slow scoring.
                    if state.hb_every > 0 && pairs_done % state.hb_every == 0 {
                        write_frame(output, &format!("hb {req_id} {pairs_done}"))
                            .map_err(ProtocolError::Io)?;
                    }
                }
                // Close the chunk's span *before* shipping so it rides
                // this round's tspan, then attach telemetry ahead of
                // the result (or the garbage noise — the corruption is
                // the result's problem, not the snapshot's).
                drop(chunk_span);
                shipper.ship(output).map_err(ProtocolError::Io)?;
                if garbage {
                    // Deliberately NOT a frame: no length prefix, and
                    // bytes that cannot parse as one.
                    output
                        .write_all(b"!! garbage fault: this is not a frame !!\n")
                        .and_then(|()| output.flush())
                        .map_err(ProtocolError::Io)?;
                } else {
                    write_frame(output, &body).map_err(ProtocolError::Io)?;
                }
            }
            "shutdown" => {
                drop(serve_span);
                shipper.flush(output).map_err(ProtocolError::Io)?;
                return Ok(());
            }
            other => return Err(spec_err(format!("unknown request frame `{other}`"))),
        }
    }
}

/// The worker side of telemetry shipping: owns the shipping baseline,
/// the bounded span collector and the frame sequence counter, and
/// restores the process's previous subscriber on drop (in-process test
/// workers share the coordinator's subscriber slot).
struct Shipper {
    ctx: TraceCtx,
    base: Snapshot,
    seq: u64,
    ring: Option<Arc<RingRecorder>>,
    prev: Option<Arc<dyn Subscriber>>,
}

impl Shipper {
    /// Starts shipping under `ctx`; when span shipping is on, installs
    /// a bounded collector (fanned out alongside any subscriber the
    /// process already had, so `STS_TRACE` keeps working in workers).
    fn install(ctx: TraceCtx, base: Snapshot) -> Shipper {
        let (ring, prev) = if ctx.ship_spans {
            let ring = Arc::new(RingRecorder::new(SPAN_BUFFER));
            let prev = trace::set_subscriber(ring.clone());
            if let Some(p) = prev.clone() {
                let fanout: Arc<dyn Subscriber> =
                    Arc::new(FanoutSubscriber::new(vec![p, ring.clone()]));
                trace::set_subscriber(fanout);
            }
            (Some(ring), prev)
        } else {
            (None, None)
        };
        Shipper {
            ctx,
            base,
            seq: 0,
            ring,
            prev,
        }
    }

    /// Writes one telemetry round: a cumulative `tstat` (latest wins
    /// coordinator-side) and, when collecting, a `tspan` draining the
    /// buffer, span ids shifted into this connection's range and roots
    /// re-parented under the coordinator's span.
    fn ship<W: Write>(&mut self, output: &mut W) -> std::io::Result<()> {
        self.seq += 1;
        let delta = sts_obs::metrics::global()
            .snapshot()
            .since(&self.base)
            .without_zeros();
        write_frame(
            output,
            &format!("tstat {} {}", self.seq, delta.encode_wire()),
        )?;
        if let Some(ring) = &self.ring {
            let spans = ring.spans();
            ring.clear();
            if !spans.is_empty() {
                let mut body = format!("tspan {} {}", self.seq, spans.len());
                for s in &spans {
                    let id = s.id.wrapping_add(self.ctx.span_base);
                    let parent = if s.parent == 0 {
                        self.ctx.parent_span
                    } else {
                        s.parent.wrapping_add(self.ctx.span_base)
                    };
                    body.push_str(&format!(
                        " {id} {parent} {} {} {} {}",
                        s.name, s.thread, s.start_ns, s.dur_ns
                    ));
                }
                write_frame(output, &body)?;
            }
        }
        Ok(())
    }

    /// The clean-exit flush: one last shipping round, then `bye`
    /// echoing the trace id so the coordinator can count completed
    /// flushes.
    fn flush<W: Write>(&mut self, output: &mut W) -> std::io::Result<()> {
        self.ship(output)?;
        write_frame(output, &format!("bye {:016x}", self.ctx.trace_id))
    }
}

impl Drop for Shipper {
    fn drop(&mut self) {
        if self.ring.is_some() {
            trace::clear_subscriber();
            if let Some(prev) = self.prev.take() {
                trace::set_subscriber(prev);
            }
        }
    }
}

/// Parses one result payload (`<n> <cell>*`, the body after
/// `result <req_id> `) for a unit of `len` pairs into its cells, in
/// pair order. `None` unless `n == len` and exactly `len` well-formed
/// cells follow — the caller treats the unit as undelivered. `n` comes
/// off the wire, so it is checked before anything is sized by it.
pub(crate) fn decode_result_payload(payload: &str, len: usize) -> Option<Vec<PairOutcome>> {
    let mut fields = payload.split_whitespace();
    if fields.next()?.parse::<usize>().ok()? != len {
        return None;
    }
    let cells = (0..len)
        .map(|_| decode_cell(&mut fields).ok())
        .collect::<Option<Vec<_>>>()?;
    fields.next().is_none().then_some(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairOutcome;
    use sts_geo::{BoundingBox, Grid, Point};

    fn grid() -> Grid {
        Grid::new(
            BoundingBox::new(Point::ORIGIN, Point::new(200.0, 50.0)),
            5.0,
        )
        .unwrap()
    }

    fn walker(y: f64, phase: f64, n: usize) -> Trajectory {
        Trajectory::new(
            (0..n)
                .map(|i| {
                    let t = phase + 10.0 * i as f64;
                    sts_traj::TrajPoint::from_xy(2.0 * t, y, t)
                })
                .collect(),
        )
        .unwrap()
    }

    /// The preamble plus the per-connection `trace` frame a coordinator
    /// adds (spans not shipped).
    fn traced(mut preamble: Vec<String>) -> Vec<String> {
        preamble.insert(1, format!("trace {:016x} 0 0 0", 0xabu64));
        preamble
    }

    /// The payload of the `result <id>` frame among `frames`.
    fn result_payload(frames: &[String], id: u64) -> &str {
        let prefix = format!("result {id} ");
        frames
            .iter()
            .find_map(|f| f.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("no result {id} in {frames:?}"))
    }

    /// Feeds a full preamble + chunks through `serve` over in-memory
    /// pipes and returns the worker's framed responses.
    fn drive_serve(preamble: &[String], requests: &[String]) -> Vec<String> {
        let mut input = Vec::new();
        for frame in preamble {
            write_frame(&mut input, frame).unwrap();
        }
        write_frame(&mut input, "begin").unwrap();
        for frame in requests {
            write_frame(&mut input, frame).unwrap();
        }
        write_frame(&mut input, "shutdown").unwrap();
        let mut output = Vec::new();
        serve(&mut input.as_slice(), &mut output).unwrap();
        let mut frames = Vec::new();
        let mut r = output.as_slice();
        while let Ok(f) = read_frame(&mut r) {
            frames.push(f);
        }
        frames
    }

    #[test]
    fn served_chunks_match_in_process_scores_bit_exactly() {
        let sts = Sts::new(StsConfig::default(), grid());
        let queries = vec![walker(25.0, 0.0, 6), walker(5.0, 0.0, 6)];
        let candidates = vec![walker(25.0, 5.0, 6), walker(5.0, 5.0, 6)];
        let space = PairSpace::new(2, 2);
        let cfg = JobConfig::default();
        let preamble = traced(encode_preamble(
            &MeasureSpec::Full(StsConfig::default()),
            sts.grid(),
            &cfg,
            &space,
            &queries,
            &candidates,
            0,
        ));
        let frames = drive_serve(&preamble, &["chunk 7 0 4".into()]);
        assert!(frames[0].starts_with("ready "), "{frames:?}");
        let cells = decode_result_payload(result_payload(&frames, 7), 4).unwrap();
        for (lin, outcome) in cells.into_iter().enumerate() {
            let (i, j) = space.pair(lin);
            let want = sts.similarity_prepared(
                &sts.prepare(&queries[i]).unwrap(),
                &sts.prepare(&candidates[j]).unwrap(),
            );
            match outcome {
                PairOutcome::Score(s) => assert_eq!(s.to_bits(), want.to_bits(), "({i},{j})"),
                other => panic!("({i},{j}): {other:?}"),
            }
        }
    }

    #[test]
    fn unpreparable_trajectory_yields_quarantined_records() {
        let queries = vec![walker(25.0, 0.0, 6)];
        let candidates = vec![
            Trajectory::from_xyt(&[(10.0, 25.0, 0.0)]).unwrap(),
            walker(25.0, 5.0, 6),
        ];
        let space = PairSpace::new(1, 2);
        let cfg = JobConfig::default();
        let preamble = traced(encode_preamble(
            &MeasureSpec::Full(StsConfig::default()),
            &grid(),
            &cfg,
            &space,
            &queries,
            &candidates,
            0,
        ));
        let frames = drive_serve(&preamble, &["chunk 0 0 2".into()]);
        let cells = decode_result_payload(result_payload(&frames, 0), 2).unwrap();
        assert_eq!(cells[0], PairOutcome::Quarantined);
        assert!(matches!(cells[1], PairOutcome::Score(_)));
    }

    #[test]
    fn garbage_fault_corrupts_the_result_frame() {
        let queries = vec![walker(25.0, 0.0, 4)];
        let candidates = vec![walker(25.0, 5.0, 4)];
        let space = PairSpace::new(1, 1);
        let cfg = JobConfig {
            fault: Some(FaultPlan {
                garbage_per_mille: 1000,
                ..FaultPlan::default()
            }),
            ..JobConfig::default()
        };
        let preamble = traced(encode_preamble(
            &MeasureSpec::Full(StsConfig::default()),
            &grid(),
            &cfg,
            &space,
            &queries,
            &candidates,
            0,
        ));
        let mut input = Vec::new();
        for frame in &preamble {
            write_frame(&mut input, frame).unwrap();
        }
        write_frame(&mut input, "begin").unwrap();
        write_frame(&mut input, "chunk 0 0 1").unwrap();
        let mut output = Vec::new();
        // EOF after the chunk is a clean exit.
        serve(&mut input.as_slice(), &mut output).unwrap();
        let mut r = output.as_slice();
        assert!(read_frame(&mut r).unwrap().starts_with("ready "));
        // Telemetry rides ahead of the result, or of the noise here.
        assert!(read_frame(&mut r).unwrap().starts_with("tstat 1 "));
        assert!(
            matches!(read_frame(&mut r), Err(ProtocolError::Garbage { .. })),
            "garbage pair must not produce a valid frame"
        );
    }

    #[test]
    fn version_skew_is_rejected_before_ready() {
        let queries = vec![walker(25.0, 0.0, 4)];
        let candidates = vec![walker(25.0, 5.0, 4)];
        let mut preamble = encode_preamble(
            &MeasureSpec::Full(StsConfig::default()),
            &grid(),
            &JobConfig::default(),
            &PairSpace::new(1, 1),
            &queries,
            &candidates,
            0,
        );
        // A future coordinator speaking version 99.
        preamble[0] = preamble[0].replacen(&format!("hello {PROTOCOL_VERSION} "), "hello 99 ", 1);
        let mut input = Vec::new();
        for frame in &preamble {
            write_frame(&mut input, frame).unwrap();
        }
        write_frame(&mut input, "begin").unwrap();
        let mut output = Vec::new();
        let err = serve(&mut input.as_slice(), &mut output).unwrap_err();
        assert!(matches!(err, ServeError::Spec(_)), "{err}");
        let mut r = output.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap(),
            format!("reject version 99 {PROTOCOL_VERSION}")
        );
    }

    #[test]
    fn preamble_without_hello_or_trace_is_refused_before_ready() {
        let queries = vec![walker(25.0, 0.0, 4)];
        let candidates = vec![walker(25.0, 5.0, 4)];
        let preamble = traced(encode_preamble(
            &MeasureSpec::Full(StsConfig::default()),
            &grid(),
            &JobConfig::default(),
            &PairSpace::new(1, 1),
            &queries,
            &candidates,
            0,
        ));
        for (dropped, why) in [("hello ", "no hello frame"), ("trace ", "no trace frame")] {
            let mut input = Vec::new();
            for frame in preamble.iter().filter(|f| !f.starts_with(dropped)) {
                write_frame(&mut input, frame).unwrap();
            }
            write_frame(&mut input, "begin").unwrap();
            write_frame(&mut input, "chunk 0 0 1").unwrap();
            let mut output = Vec::new();
            match serve(&mut input.as_slice(), &mut output) {
                Err(ServeError::Spec(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("without {dropped:?}: {other:?}"),
            }
            assert!(
                output.is_empty(),
                "without {dropped:?}: wrote before refusing"
            );
        }
    }

    #[test]
    fn corpus_skew_is_a_fingerprint_rejection() {
        let queries = vec![walker(25.0, 0.0, 4)];
        let candidates = vec![walker(25.0, 5.0, 4)];
        let mut preamble = encode_preamble(
            &MeasureSpec::Full(StsConfig::default()),
            &grid(),
            &JobConfig::default(),
            &PairSpace::new(1, 1),
            &queries,
            &candidates,
            0,
        );
        // The corpus the worker decodes is not the corpus the
        // coordinator hashed: nudge one endpoint coordinate.
        let traj = preamble
            .iter_mut()
            .find(|f| f.starts_with("traj q 0 "))
            .unwrap();
        *traj = traj.replacen(" 0 25 0", " 1 25 0", 1);
        let mut input = Vec::new();
        for frame in &preamble {
            write_frame(&mut input, frame).unwrap();
        }
        write_frame(&mut input, "begin").unwrap();
        let mut output = Vec::new();
        assert!(serve(&mut input.as_slice(), &mut output).is_err());
        let mut r = output.as_slice();
        let frame = read_frame(&mut r).unwrap();
        assert!(
            frame.starts_with("reject fingerprint "),
            "expected a fingerprint rejection, got {frame:?}"
        );
    }

    #[test]
    fn heartbeats_pace_long_chunks_when_asked() {
        let queries = vec![walker(25.0, 0.0, 6), walker(5.0, 0.0, 6)];
        let candidates = vec![walker(25.0, 5.0, 6), walker(5.0, 5.0, 6)];
        let space = PairSpace::new(2, 2);
        let preamble = traced(encode_preamble(
            &MeasureSpec::Full(StsConfig::default()),
            &grid(),
            &JobConfig::default(),
            &space,
            &queries,
            &candidates,
            2,
        ));
        let frames = drive_serve(&preamble, &["chunk 9 0 4".into()]);
        assert!(frames[0].starts_with("ready "), "{frames:?}");
        assert_eq!(
            &frames[1..3],
            &["hb 9 2".to_string(), "hb 9 4".to_string()],
            "hb_every=2 over a 4-pair chunk beats twice"
        );
        assert!(frames[3].starts_with("tstat 1 "), "{frames:?}");
        assert!(frames[4].starts_with("result 9 4 "), "{frames:?}");
    }

    #[test]
    fn trace_handshake_ships_telemetry_and_spans() {
        let queries = vec![walker(25.0, 0.0, 6), walker(5.0, 0.0, 6)];
        let candidates = vec![walker(25.0, 5.0, 6), walker(5.0, 5.0, 6)];
        let space = PairSpace::new(2, 2);
        let mut preamble = encode_preamble(
            &MeasureSpec::Full(StsConfig::default()),
            &grid(),
            &JobConfig::default(),
            &space,
            &queries,
            &candidates,
            0,
        );
        let span_base = 1u64 << 32;
        preamble.insert(1, format!("trace {:016x} 42 {span_base} 1", 0xabcdu64));
        let frames = drive_serve(&preamble, &["chunk 3 0 4".into()]);

        // The clock-origin exchange rides the ready frame.
        assert!(frames[0].starts_with("ready "), "{:?}", frames[0]);
        let origin: u64 = frames[0].strip_prefix("ready ").unwrap().parse().unwrap();
        assert!(origin > 0);

        // One shipping round per chunk plus the shutdown flush, with
        // increasing sequence numbers and a decodable snapshot whose
        // pair counter covers the chunk (≥: other tests in this
        // process may score concurrently — the registry is global).
        let tstats: Vec<&String> = frames.iter().filter(|f| f.starts_with("tstat ")).collect();
        assert_eq!(tstats.len(), 2, "{frames:?}");
        assert!(tstats[0].starts_with("tstat 1 "));
        let payload = tstats[1].strip_prefix("tstat 2").unwrap().trim_start();
        let snap = Snapshot::decode_wire(payload).unwrap();
        assert!(
            snap.counter("core.pairs.scored").unwrap_or(0) >= 4,
            "{snap:?}"
        );

        // Shipped spans are shifted into this connection's id range
        // and roots hang under the coordinator's parent span.
        let mut shipped: Vec<(u64, u64, String)> = Vec::new();
        for f in frames.iter().filter(|f| f.starts_with("tspan ")) {
            let mut fields = f.split_whitespace().skip(1);
            let _seq: u64 = fields.next().unwrap().parse().unwrap();
            let n: usize = fields.next().unwrap().parse().unwrap();
            for _ in 0..n {
                let id: u64 = fields.next().unwrap().parse().unwrap();
                let parent: u64 = fields.next().unwrap().parse().unwrap();
                let name = fields.next().unwrap().to_string();
                let _thread = fields.next().unwrap();
                let _start = fields.next().unwrap();
                let _dur = fields.next().unwrap();
                shipped.push((id, parent, name));
            }
        }
        let chunk = shipped
            .iter()
            .find(|(_, _, n)| n == "worker.chunk")
            .expect("chunk span shipped");
        let serve_root = shipped
            .iter()
            .find(|(_, _, n)| n == "worker.serve")
            .expect("serve span shipped in the final flush");
        assert!(chunk.0 >= span_base, "id shifted: {chunk:?}");
        assert_eq!(chunk.1, serve_root.0, "chunk nests under serve");
        assert_eq!(serve_root.1, 42, "root re-parents under the coordinator");

        // Clean exit ends with bye echoing the trace id.
        assert_eq!(frames.last().unwrap(), &format!("bye {:016x}", 0xabcdu64));
        // The shipper restored the subscriber slot on the way out.
        assert!(!sts_obs::tracing_enabled());
    }

    #[test]
    fn preamble_round_trips_f64_extremes() {
        // Encode → absorb must preserve bits for the values the grid
        // and trajectories can legally hold.
        let mut spec = JobSpec::default();
        spec.absorb("dims 1 1").unwrap();
        spec.absorb("traj q 0 1 0.1000000000000000055511151231257827 -0 1e-308")
            .unwrap();
        let t = spec.queries[&0].0.clone().unwrap();
        assert_eq!(t.get(0).loc.x.to_bits(), 0.1f64.to_bits());
        assert_eq!(t.get(0).loc.y.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn cache_mode_round_trips_through_the_measure_frame() {
        for mode in [StpCacheMode::Off, StpCacheMode::Exact] {
            let cfg = StsConfig {
                cache: mode,
                ..StsConfig::default()
            };
            let preamble = encode_preamble(
                &MeasureSpec::Full(cfg),
                &grid(),
                &JobConfig::default(),
                &PairSpace::new(1, 1),
                &[walker(25.0, 0.0, 4)],
                &[walker(25.0, 5.0, 4)],
                0,
            );
            let measure = preamble.iter().find(|f| f.starts_with("measure "));
            let mut spec = JobSpec::default();
            spec.absorb(measure.unwrap()).unwrap();
            assert_eq!(spec.measure.map(|(_, c)| c.cache), Some(mode));
        }
    }

    #[test]
    fn malformed_preambles_are_typed_errors() {
        for bad in [
            "measure sideways 1 gaussian none",
            "measure full nope gaussian none",
            "measure full 3 gaussian 4 lattice:10",
            "grid 0 0 10 10 not-a-number",
            "traj z 0 1 0 0 0",
            "blorp 1 2 3",
        ] {
            let mut spec = JobSpec::default();
            spec.absorb("dims 2 2").unwrap();
            assert!(
                matches!(spec.absorb(bad), Err(ServeError::Spec(_))),
                "{bad:?} should be rejected"
            );
        }
        // Building without the mandatory frames fails, not panics.
        assert!(JobSpec::default().build().is_err());
    }

    #[test]
    fn result_payload_decoder_rejects_torn_records() {
        assert_eq!(
            decode_result_payload("2 s 0.5 q", 2),
            Some(vec![PairOutcome::Score(0.5), PairOutcome::Quarantined])
        );
        for bad in [
            "",
            "2",
            "2 s 0.5",
            "2 s 0.5 s",
            "2 s 0.5 z 1",
            "1 s 0.5",
            "2 s 0.5 q extra",
            "2 0 s 0.5 1 q",
        ] {
            assert!(decode_result_payload(bad, 2).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn counts_off_the_wire_never_size_an_allocation() {
        // A claimed count of 1e17 cells would ask for exabytes if it
        // sized the result vector; it is a protocol violation instead.
        assert!(decode_result_payload("100000000000000000 0 s 0.5", 1).is_none());
        assert!(decode_result_payload("100000000000000000 s 0.5", 1).is_none());
        // Likewise the preamble's dimension and point counts.
        let mut spec = JobSpec::default();
        spec.absorb("dims 100000000000000000 100000000000000000")
            .unwrap();
        assert!(matches!(
            spec.absorb("traj q 7 100000000000000000 1 2"),
            Err(ServeError::Spec(_))
        ));
        assert!(spec.handshake_rejection().is_none(), "no hello yet");
    }
}
