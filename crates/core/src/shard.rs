//! The worker-fleet coordinator: lease-based distribution of pair
//! units to `sts-worker` processes over loopback TCP, with failover,
//! crash attribution and byte-identical recovery.
//!
//! Both fleet modes of [`ExecMode`](crate::job::ExecMode) run here,
//! and differ only in the [`Policy`] the engine derives from the mode:
//!
//! * **`Sharded`** deals whole tiles, each scored by one worker as a
//!   single wire chunk. A tile whose worker is lost is re-leased whole;
//!   when the whole fleet is gone, the leftover tiles are returned to
//!   the caller, which computes them in-process
//!   ([`ShardStats::tiles_local_fallback`]) — graceful degradation,
//!   never a lost job.
//! * **`Subprocess`** deals one tile's scheduling chunks, with the hard
//!   timeout as the lease and no heartbeats. A unit whose worker is
//!   lost is **bisected**, its halves dealt first, until the single
//!   pair that kills workers is isolated and quarantined as
//!   [`PairOutcome::Poisoned`] with how its worker ended. Which pairs
//!   end up quarantined depends only on which pairs kill workers, so
//!   seeded chaos runs replay the same poison set whatever the thread
//!   scheduling. Work left when the fleet is gone stops the job
//!   ([`StopReason::WorkerRestartsExhausted`] or
//!   [`StopReason::WorkerRejected`]).
//!
//! The pieces that make this safe under real failure:
//!
//! * **Leases, not assignments.** Every deal carries a fresh epoch from
//!   a [`LeaseTable`] (the wire request id). Heartbeats (`hb` frames
//!   every [`ShardOptions::hb_every`] scored pairs) let an
//!   honest-but-slow worker keep its lease alive indefinitely.
//! * **At-most-once commit.** A result only commits when it carries the
//!   *live* epoch of its unit. Duplicated frames and zombie results
//!   from superseded leases are refused — refusal is sound because
//!   scoring is deterministic, so the committed bytes equal whatever
//!   the zombie computed. Exactly one commit per unit ever happens.
//! * **One loss path.** If the live epoch's result does not arrive —
//!   the deadline passes, the connection hits EOF or an I/O error, or
//!   a garbage or malformed frame arrives — the worker is killed, the
//!   lease expires and the unit goes back to the policy. How the worker
//!   ended is classified once: the reaped exit status if it died,
//!   [`WorkerExit::HardTimeout`] if it went silent,
//!   [`WorkerExit::Protocol`] if it broke the protocol. Every
//!   replacement worker is charged to one shared restart budget, with
//!   decorrelated-jitter backoff; a slot whose respawn the budget
//!   refuses retires.
//! * **Typed handshake rejection.** Workers verify the `hello` frame's
//!   protocol version and job fingerprint before `ready`
//!   ([`crate::worker`]); a rejection marks the *pairing of binaries*
//!   broken and stops all further spawning rather than burning the
//!   restart budget on a permanent condition.
//! * **Stop checks before every deal.** Cancellation, the deadline and
//!   the pair budget are checked each time a slot claims a unit.
//!
//! The transport seam ([`ShardOptions::injector`]) is where the
//! network-chaos suite in `sts-robust` injects seeded drops, delays,
//! corruption, duplicates, disconnects and wedges, then reconciles
//! every injection against this coordinator's [`ShardStats`] and
//! asserts the final matrix is byte-identical to an in-process run.

use crate::batch::PairOutcome;
use crate::worker;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use sts_isolate::protocol::ProtocolError;
use sts_isolate::{is_timeout, FrameConn, NetDirection, NetFault, NetInjector};
use sts_obs::trace::{self, ClockMap};
use sts_obs::{Snapshot, SpanRecord};
use sts_runtime::{
    Budget, CancelToken, CommitOutcome, DecorrelatedJitter, LeaseTable, PairChunk, ShardStats,
    StopReason, WorkerExit,
};

/// Tuning for [`ExecMode::Sharded`](crate::job::ExecMode). `Default`
/// is production-shaped; tests shrink the timeouts and inject their
/// own launcher and fault plan.
#[derive(Clone)]
pub struct ShardOptions {
    /// Worker executable; `None` resolves `sts-worker` next to the
    /// current executable ([`worker::default_worker_path`]). Ignored
    /// when [`launcher`](Self::launcher) is set.
    pub worker: Option<PathBuf>,
    /// Fleet size (0 → [`sts_runtime::worker_count`], which honors the
    /// `STS_WORKERS` environment override). Clamped to the tile count.
    pub workers: usize,
    /// How long a dealt tile may go without any frame (heartbeat or
    /// result) before its lease expires and the worker is presumed
    /// lost. Must comfortably exceed `hb_every` pairs of honest
    /// scoring.
    pub lease_timeout: Duration,
    /// How long a fresh worker may take to connect, rebuild the
    /// measure, prepare the corpus and answer `ready`.
    pub ready_timeout: Duration,
    /// Heartbeat stride in scored pairs, forwarded in the `hello`
    /// frame. 0 disables heartbeats (then a tile must finish within
    /// one lease timeout).
    pub hb_every: u64,
    /// Worker respawns allowed across the whole fleet (the initial
    /// fleet is free). Exhaustion retires slots; leftover tiles fall
    /// back to local compute.
    pub restart_budget: usize,
    /// Respawn backoff (decorrelated jitter between these bounds).
    pub backoff_base: Duration,
    /// See [`backoff_base`](Self::backoff_base).
    pub backoff_cap: Duration,
    /// How workers are launched. `None` spawns
    /// `sts-worker serve-tcp <addr>` subprocesses
    /// ([`ProcessLauncher`]); tests inject in-thread workers.
    pub launcher: Option<Arc<dyn WorkerLauncher>>,
    /// Fault injector applied to every coordinator-side connection
    /// (both directions). `None` is the clean transport.
    pub injector: Option<Arc<dyn NetInjector>>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            worker: None,
            workers: 0,
            lease_timeout: Duration::from_secs(30),
            ready_timeout: Duration::from_secs(10),
            hb_every: 64,
            restart_budget: 64,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            launcher: None,
            injector: None,
        }
    }
}

impl fmt::Debug for ShardOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardOptions")
            .field("worker", &self.worker)
            .field("workers", &self.workers)
            .field("lease_timeout", &self.lease_timeout)
            .field("ready_timeout", &self.ready_timeout)
            .field("hb_every", &self.hb_every)
            .field("restart_budget", &self.restart_budget)
            .finish_non_exhaustive()
    }
}

/// Launches one worker that must connect to `addr` and speak the
/// worker protocol over that socket. The default is
/// [`ProcessLauncher`]; tests launch in-thread workers for speed and
/// determinism.
pub trait WorkerLauncher: Send + Sync {
    /// Launch a worker that will connect to `addr`.
    fn launch(&self, addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>>;
}

/// A launched worker, killable by the coordinator. Implementations
/// must make `kill` idempotent and must reap any OS resources (a
/// killed child is waited on, not left a zombie).
pub trait WorkerHandle: Send {
    /// Terminate the worker. Idempotent; called on every teardown
    /// path, including drop-equivalent cleanup at coordinator exit.
    fn kill(&mut self);

    /// How a worker whose connection died (EOF or an I/O error) ended:
    /// waits for it within a bound, killing it if it lingers. The
    /// default, for workers with no exit status to read, kills and
    /// reports [`WorkerExit::Protocol`] (an unexpected end of stream).
    fn reap(&mut self) -> WorkerExit {
        self.kill();
        WorkerExit::Protocol
    }
}

/// Spawns `<program> serve-tcp <addr>` subprocesses with null stdio —
/// the production launcher.
#[derive(Debug, Clone)]
pub struct ProcessLauncher {
    /// The worker executable.
    pub program: PathBuf,
}

impl WorkerLauncher for ProcessLauncher {
    fn launch(&self, addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
        let child = Command::new(&self.program)
            .arg("serve-tcp")
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        Ok(Box::new(ProcessHandle { child }))
    }
}

struct ProcessHandle {
    child: Child,
}

impl WorkerHandle for ProcessHandle {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn reap(&mut self) -> WorkerExit {
        // Bounded: a child that lingers after its connection died is
        // killed rather than blocking the slot forever.
        for _ in 0..200 {
            match self.child.try_wait() {
                Ok(Some(status)) => return WorkerExit::from_status(status),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(_) => break,
            }
        }
        let _ = self.child.kill();
        self.child
            .wait()
            .map_or(WorkerExit::Code(-1), WorkerExit::from_status)
    }
}

impl Drop for ProcessHandle {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Decorrelates per-connection fault schedules: each worker connection
/// gets a disjoint frame-index window into the shared injector, so a
/// respawned worker does not replay its predecessor's exact faults
/// (which would turn one seeded disconnect into an unconditional
/// restart loop).
struct OffsetInjector {
    inner: Arc<dyn NetInjector>,
    base: u64,
}

impl NetInjector for OffsetInjector {
    fn fault_for(&self, index: u64, dir: NetDirection) -> Option<NetFault> {
        self.inner.fault_for(self.base + index, dir)
    }
}

/// Index-window stride per connection — far beyond any real frame
/// count, so windows never overlap.
const CONN_INDEX_STRIDE: u64 = 1 << 20;

/// How the coordinator treats a unit whose worker was lost, and the
/// work the fleet could not finish. The engine derives it from the
/// job's `ExecMode`; it is not a caller option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Policy {
    /// `Sharded`: re-lease a lost tile whole; leftovers go back to the
    /// caller for local compute.
    Release,
    /// `Subprocess`: bisect a lost unit, halves first, down to a single
    /// pair, which is quarantined; leftovers stop the job.
    Bisect,
}

/// What [`run_sharded`] concluded.
#[derive(Default)]
pub(crate) struct ShardRun {
    /// Coordinator accounting ([`ShardStats::tiles_local_fallback`] is
    /// left 0 — the caller owns the fallback).
    pub stats: ShardStats,
    /// Units the fleet did not resolve because the run stopped or the
    /// fleet was exhausted or rejected, ascending by start.
    pub leftover: Vec<PairChunk>,
    /// Why the run stopped early, if it did.
    pub stop: Option<StopReason>,
    /// The fleet's shipped telemetry, merged coordinator-side.
    pub telemetry: FleetTelemetry,
}

/// The fleet-wide view of worker-shipped telemetry: every connection's
/// cumulative job-delta snapshot (latest sequence wins, so chaos drops
/// and duplicate frames self-heal), merged unlabeled for fleet totals
/// and per-worker-labeled for attribution. The coordinator's own
/// `shard.pairs.committed{worker="cN"}` tally rides along, which is
/// what lets a consumer reconcile worker-*performed* work (a worker
/// that lost its lease still scored the pairs) against
/// coordinator-*committed* work exactly.
#[derive(Debug, Default, Clone)]
pub struct FleetTelemetry {
    /// All workers' snapshots merged (counters/histograms summed).
    pub merged: Snapshot,
    /// Per-worker labeled copies, merged: `name{worker="c<conn>"}`.
    pub labeled: Snapshot,
    /// Connections that shipped at least one snapshot.
    pub workers: usize,
    /// Clean final flushes observed (`bye` frames after `shutdown`).
    pub flushes: usize,
}

impl FleetTelemetry {
    /// Folds another fleet run's view into this one.
    pub(crate) fn add(&mut self, other: &FleetTelemetry) {
        self.merged.merge(&other.merged);
        self.labeled.merge(&other.labeled);
        self.workers += other.workers;
        self.flushes += other.flushes;
    }
}

/// Per-connection telemetry accumulation (keyed by connection id).
#[derive(Default)]
struct ConnTelemetry {
    /// Highest `tstat` sequence absorbed; 0 = none yet.
    stat_seq: u64,
    /// That sequence's cumulative snapshot.
    snapshot: Snapshot,
    /// Highest `tspan` sequence absorbed (spans ship drained, so the
    /// gate only rejects duplicated frames, never reorders).
    span_seq: u64,
    /// Pairs the coordinator committed from this connection.
    committed_pairs: u64,
}

/// Why the live epoch's result did not arrive.
enum Loss {
    /// The read deadline passed: the worker wedged or went silent.
    Silent,
    /// A garbage, oversized or malformed frame: the worker broke the
    /// protocol.
    Protocol,
    /// EOF or an I/O error: the worker or its connection died.
    Died,
}

enum SpawnError {
    /// Launch, connect, preamble or ready failed — transient, costs a
    /// restart from the shared budget.
    Failed,
    /// The worker answered `reject ...`: version or fingerprint skew.
    /// Permanent for this pairing of binaries.
    Rejected,
}

/// One dealable unit: a tile, a scheduling chunk, or a bisected half.
#[derive(Clone, Copy)]
struct Unit {
    chunk: PairChunk,
    /// Bisection depth (0 for a unit the caller dealt).
    depth: usize,
}

/// A resolved unit on its way to the caller's commit sink.
type Resolved = mpsc::Sender<(PairChunk, Vec<PairOutcome>)>;

/// Scheduling state, under one lock. Positions index `units` and the
/// lease table alike.
struct Sched {
    units: Vec<Unit>,
    leases: LeaseTable,
    /// Positions waiting for a slot, front first.
    queue: VecDeque<usize>,
    /// Units queued or in flight; 0 once every unit is resolved.
    open: usize,
    /// Pairs resolved this run — the pair budget's unit.
    pairs_done: usize,
    stop: Option<StopReason>,
    pairs_poisoned: usize,
    max_depth: usize,
}

impl Sched {
    /// Hands a unit's outcomes to the caller: committed or poisoned,
    /// it is final.
    fn resolve(&mut self, chunk: PairChunk, outs: Vec<PairOutcome>, tx: &Resolved) {
        self.open -= 1;
        self.pairs_done += chunk.len;
        // The receiver outlives every slot thread.
        let _ = tx.send((chunk, outs));
    }
}

/// Coordinator state shared by all slot threads.
struct Shared<'a> {
    preamble: &'a [String],
    opts: &'a ShardOptions,
    policy: Policy,
    cancel: &'a CancelToken,
    budget: Budget,
    launcher: Arc<dyn WorkerLauncher>,
    sched: Mutex<Sched>,
    sched_cv: Condvar,
    rejected: AtomicBool,
    restarts_left: AtomicUsize,
    conn_seq: AtomicU64,
    workers_spawned: AtomicUsize,
    worker_restarts: AtomicUsize,
    workers_rejected: AtomicUsize,
    frames_corrupt: AtomicUsize,
    /// Results refused without going through the lease table (epochs
    /// other than the one a slot is waiting on).
    stale_results: AtomicUsize,
    /// Job-wide trace id forwarded in every connection's `trace` frame.
    trace_id: u64,
    /// The `job.shard` span id worker root spans re-parent under (0
    /// when tracing is off — harmless, shipped roots stay roots).
    trace_parent: u64,
    /// Shipped telemetry per connection id.
    telemetry: Mutex<BTreeMap<u64, ConnTelemetry>>,
    /// Clean `bye` flushes observed.
    flushes: AtomicUsize,
}

impl Shared<'_> {
    fn sched(&self) -> MutexGuard<'_, Sched> {
        self.sched
            .lock()
            .expect("a slot panicked holding the schedule")
    }

    /// Runs the stop checks — cancellation, deadline, pair budget —
    /// then claims the next queued unit, waiting out windows where
    /// every open unit is in flight on some other slot. `None` once the
    /// run stopped or every unit is resolved.
    fn claim(&self) -> Option<usize> {
        let mut s = self.sched();
        loop {
            if s.stop.is_none() {
                s.stop = if self.cancel.is_cancelled() {
                    Some(StopReason::Cancelled)
                } else {
                    self.budget.check(s.pairs_done)
                };
            }
            if s.stop.is_some() {
                return None;
            }
            if let Some(pos) = s.queue.pop_front() {
                return Some(pos);
            }
            if s.open == 0 {
                return None;
            }
            // An in-flight unit may yet come back from a failing slot;
            // the timeout is only a safety net against lost wakeups.
            s = self
                .sched_cv
                .wait_timeout(s, Duration::from_millis(50))
                .expect("a slot panicked holding the schedule")
                .0;
        }
    }

    /// Returns a claimed, unleased unit to the front of the queue.
    fn requeue(&self, pos: usize) {
        self.sched().queue.push_front(pos);
        self.sched_cv.notify_all();
    }

    /// Leases `pos` under a fresh epoch. `None` if it is already
    /// committed (defensive: a unit is claimed by one slot at a time).
    fn lease(&self, pos: usize) -> Option<(PairChunk, u64)> {
        let mut s = self.sched();
        let epoch = s.leases.lease(pos)?;
        trace::event("shard.tile.lease", s.units[pos].chunk.id as f64);
        Some((s.units[pos].chunk, epoch))
    }

    /// Commits the live epoch's outcomes through the at-most-once gate.
    fn commit(&self, pos: usize, epoch: u64, outs: Vec<PairOutcome>, tx: &Resolved) -> bool {
        let mut s = self.sched();
        if s.leases.commit(pos, epoch) != CommitOutcome::Committed {
            return false;
        }
        let chunk = s.units[pos].chunk;
        trace::event("shard.tile.commit", chunk.id as f64);
        s.resolve(chunk, outs, tx);
        self.sched_cv.notify_all();
        true
    }

    /// The scheduling half of the loss path: the lease expires and the
    /// policy decides what becomes of the unit.
    fn lose(&self, pos: usize, exit: WorkerExit, tx: &Resolved) {
        let mut s = self.sched();
        s.leases.expire(pos);
        let Unit { chunk, depth } = s.units[pos];
        trace::event("shard.tile.expire", chunk.id as f64);
        match self.policy {
            Policy::Release => s.queue.push_front(pos),
            Policy::Bisect if chunk.len > 1 => {
                let left = chunk.len / 2;
                let halves = [
                    PairChunk { len: left, ..chunk },
                    PairChunk {
                        start: chunk.start + left,
                        len: chunk.len - left,
                        ..chunk
                    },
                ];
                // Right half pushed first, so the left half runs first.
                for half in halves.into_iter().rev() {
                    let at = s.leases.add();
                    debug_assert_eq!(at, s.units.len());
                    s.units.push(Unit {
                        chunk: half,
                        depth: depth + 1,
                    });
                    s.queue.push_front(at);
                }
                s.open += 1;
                s.max_depth = s.max_depth.max(depth + 1);
            }
            Policy::Bisect => {
                sts_obs::static_counter!("shard.pairs.poisoned").incr();
                s.pairs_poisoned += 1;
                s.max_depth = s.max_depth.max(depth);
                s.resolve(chunk, vec![PairOutcome::Poisoned { exit }], tx);
            }
        }
        self.sched_cv.notify_all();
    }

    /// Takes one respawn from the shared budget. `false` = exhausted.
    fn charge_restart(&self) -> bool {
        self.restarts_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Classifies a failed send or receive. Every garbage frame read is
    /// counted here, exactly once — the chaos suites reconcile this
    /// count against their injection ledgers.
    fn loss(&self, err: &ProtocolError) -> Loss {
        match err {
            ProtocolError::Garbage { .. } => {
                self.frames_corrupt.fetch_add(1, Ordering::SeqCst);
                sts_obs::static_counter!("shard.frames.corrupt").incr();
                Loss::Protocol
            }
            ProtocolError::FrameTooLarge { .. } => Loss::Protocol,
            err if is_timeout(err) => Loss::Silent,
            _ => Loss::Died,
        }
    }

    /// Credits `pairs` committed pairs to connection `conn_id` (the
    /// coordinator-side half of the reconciliation ledger).
    fn credit_commit(&self, conn_id: u64, pairs: u64) {
        sts_obs::static_counter!("shard.pairs.committed").add(pairs);
        let mut t = self.telemetry.lock().unwrap();
        t.entry(conn_id).or_default().committed_pairs += pairs;
    }

    /// Absorbs a `tstat <seq> <wire snapshot>` frame. `false` means
    /// the frame is malformed (a protocol violation, not chaos — the
    /// framing layer already filtered corrupt frames into
    /// [`ProtocolError::Garbage`]).
    fn absorb_tstat(&self, conn_id: u64, frame: &str) -> bool {
        let Some(rest) = frame.strip_prefix("tstat ") else {
            return false;
        };
        let (seq, payload) = match rest.split_once(' ') {
            Some((s, p)) => (s, p),
            None => (rest, ""),
        };
        let Ok(seq) = seq.parse::<u64>() else {
            return false;
        };
        let Some(snapshot) = Snapshot::decode_wire(payload) else {
            return false;
        };
        let mut t = self.telemetry.lock().unwrap();
        let entry = t.entry(conn_id).or_default();
        // Cumulative snapshots: the latest sequence is the truth, and
        // anything older (a duplicated frame) is stale.
        if seq > entry.stat_seq {
            entry.stat_seq = seq;
            entry.snapshot = snapshot;
        }
        true
    }

    /// Absorbs a `tspan <seq> <n> (<id> <parent> <name> <thread>
    /// <start> <dur>)*` frame: sequence-gates against duplicates, maps
    /// worker clocks and thread ids into coordinator ranges, and
    /// re-emits each span through the coordinator's subscriber.
    fn absorb_tspan(&self, conn_id: u64, clock: ClockMap, frame: &str) -> bool {
        let mut fields = frame.split_whitespace();
        fields.next(); // "tspan"
        let Some(seq) = fields.next().and_then(|s| s.parse::<u64>().ok()) else {
            return false;
        };
        let Some(n) = fields.next().and_then(|s| s.parse::<usize>().ok()) else {
            return false;
        };
        {
            let mut t = self.telemetry.lock().unwrap();
            let entry = t.entry(conn_id).or_default();
            if seq <= entry.span_seq {
                return true; // duplicated frame; spans already emitted
            }
            entry.span_seq = seq;
        }
        for _ in 0..n {
            fn num<'a>(fields: &mut impl Iterator<Item = &'a str>) -> Option<u64> {
                fields.next().and_then(|s| s.parse::<u64>().ok())
            }
            let Some(id) = num(&mut fields) else {
                return false;
            };
            let Some(parent) = num(&mut fields) else {
                return false;
            };
            let Some(name) = fields.next() else {
                return false;
            };
            let name = trace::intern_name(name);
            let Some(thread) = num(&mut fields) else {
                return false;
            };
            let Some(start_ns) = num(&mut fields) else {
                return false;
            };
            let Some(dur_ns) = num(&mut fields) else {
                return false;
            };
            trace::emit_span(&SpanRecord {
                id,
                parent,
                name,
                // Worker thread ids are per-process; shift them into a
                // per-connection range so fleet threads stay distinct.
                thread: ((conn_id + 1) << 16) | (thread & 0xffff),
                start_ns: clock.to_local(start_ns),
                dur_ns,
            });
        }
        fields.next().is_none()
    }

    /// Folds every connection's accumulated telemetry into the fleet
    /// view handed back on [`ShardRun`].
    fn fleet_telemetry(&self) -> FleetTelemetry {
        let t = self.telemetry.lock().unwrap();
        let mut fleet = FleetTelemetry {
            flushes: self.flushes.load(Ordering::SeqCst),
            ..FleetTelemetry::default()
        };
        for (&conn_id, ct) in t.iter() {
            let mut contribution = ct.snapshot.clone();
            // In-process test workers share the coordinator's registry
            // and may echo coordinator-side counters back; this one is
            // authoritative coordinator-side, so theirs is dropped.
            contribution
                .counters
                .retain(|(n, _)| n != "shard.pairs.committed");
            contribution
                .counters
                .push(("shard.pairs.committed".to_string(), ct.committed_pairs));
            contribution.counters.sort_by(|a, b| a.0.cmp(&b.0));
            fleet.merged.merge(&contribution);
            fleet
                .labeled
                .merge(&contribution.with_label("worker", &format!("c{conn_id}")));
            if ct.stat_seq > 0 {
                fleet.workers += 1;
            }
        }
        fleet
    }
}

/// Deals `units` to a worker fleet under `policy` and calls `on_commit`
/// (on this thread) exactly once per resolved unit, in resolution
/// order, with the unit and its dense outcomes. See the
/// [module docs](self) for the protocol; see [`ShardRun`] for what
/// comes back.
pub(crate) fn run_sharded(
    units: &[PairChunk],
    preamble: &[String],
    opts: &ShardOptions,
    policy: Policy,
    cancel: &CancelToken,
    budget: Budget,
    on_commit: &mut dyn FnMut(&PairChunk, Vec<PairOutcome>),
) -> ShardRun {
    let shard_span = trace::span("job.shard");
    if units.is_empty() {
        return ShardRun::default();
    }
    let launcher: Arc<dyn WorkerLauncher> = match &opts.launcher {
        Some(l) => Arc::clone(l),
        None => Arc::new(ProcessLauncher {
            program: opts
                .worker
                .clone()
                .unwrap_or_else(worker::default_worker_path),
        }),
    };
    let slots = if opts.workers == 0 {
        sts_runtime::worker_count(units.len())
    } else {
        opts.workers.min(units.len()).max(1)
    };
    let shared = Shared {
        preamble,
        opts,
        policy,
        cancel,
        budget,
        launcher,
        sched: Mutex::new(Sched {
            units: units
                .iter()
                .map(|&chunk| Unit { chunk, depth: 0 })
                .collect(),
            leases: LeaseTable::new(units.len()),
            queue: (0..units.len()).collect(),
            open: units.len(),
            pairs_done: 0,
            stop: None,
            pairs_poisoned: 0,
            max_depth: 0,
        }),
        sched_cv: Condvar::new(),
        rejected: AtomicBool::new(false),
        restarts_left: AtomicUsize::new(opts.restart_budget),
        conn_seq: AtomicU64::new(0),
        workers_spawned: AtomicUsize::new(0),
        worker_restarts: AtomicUsize::new(0),
        workers_rejected: AtomicUsize::new(0),
        frames_corrupt: AtomicUsize::new(0),
        stale_results: AtomicUsize::new(0),
        // Process id ⊕ span id: unique across a fleet of coordinators
        // on one host and across reruns in one process.
        trace_id: (u64::from(std::process::id()) << 32) | (shard_span.id() & 0xffff_ffff),
        trace_parent: shard_span.id(),
        telemetry: Mutex::new(BTreeMap::new()),
        flushes: AtomicUsize::new(0),
    };

    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        for slot in 0..slots {
            let tx = tx.clone();
            let shared = &shared;
            s.spawn(move || slot_loop(shared, slot, &tx));
        }
        drop(tx);
        // This thread owns the commit sink: spills happen here, in
        // commit order, so the caller's closure needs no Send bound.
        for (chunk, outs) in rx {
            on_commit(&chunk, outs);
        }
    });

    let telemetry = shared.fleet_telemetry();
    let s = shared.sched();
    // Every slot has exited and requeued what it held, so the queue is
    // exactly the unresolved work.
    let mut leftover: Vec<PairChunk> = s.queue.iter().map(|&pos| s.units[pos].chunk).collect();
    leftover.sort_unstable_by_key(|c| c.start);
    let rejected = shared.rejected.load(Ordering::SeqCst);
    let stop = match (s.stop, policy) {
        (None, Policy::Bisect) if !leftover.is_empty() => Some(if rejected {
            StopReason::WorkerRejected
        } else {
            StopReason::WorkerRestartsExhausted
        }),
        (stop, _) => stop,
    };
    let stats = ShardStats {
        workers_spawned: shared.workers_spawned.load(Ordering::SeqCst),
        worker_restarts: shared.worker_restarts.load(Ordering::SeqCst),
        workers_rejected: shared.workers_rejected.load(Ordering::SeqCst),
        tiles_leased: s.leases.leases_granted(),
        leases_expired: s.leases.leases_expired(),
        commits_refused: s.leases.commits_refused() + shared.stale_results.load(Ordering::SeqCst),
        frames_corrupt: shared.frames_corrupt.load(Ordering::SeqCst),
        tiles_local_fallback: 0,
        telemetry_flushes: shared.flushes.load(Ordering::SeqCst),
        pairs_poisoned: s.pairs_poisoned,
        max_bisect_depth: s.max_depth,
    };
    ShardRun {
        stats,
        leftover,
        stop,
        telemetry,
    }
}

/// One live worker connection, as held by a slot: the framed socket,
/// the kill handle, the connection id (telemetry attribution key and
/// injector window), and the worker→coordinator clock mapping from the
/// ready exchange.
struct Worker {
    conn: FrameConn,
    handle: Box<dyn WorkerHandle>,
    id: u64,
    clock: ClockMap,
}

impl Worker {
    /// The worker half of the loss path: tears the worker down and
    /// classifies how it ended.
    fn lose(self, loss: Loss) -> WorkerExit {
        let Worker {
            conn, mut handle, ..
        } = self;
        // Closing our end lets a worker that is still reading exit.
        drop(conn);
        match loss {
            Loss::Died => handle.reap(),
            Loss::Silent => {
                handle.kill();
                WorkerExit::HardTimeout
            }
            Loss::Protocol => {
                handle.kill();
                WorkerExit::Protocol
            }
        }
    }
}

/// One slot: claim a unit, keep a worker alive, deal and commit, until
/// the queue drains, the run stops, the handshake is rejected, or the
/// restart budget retires this slot.
fn slot_loop(shared: &Shared<'_>, slot: usize, tx: &Resolved) {
    let mut live: Option<Worker> = None;
    let mut jitter = DecorrelatedJitter::new(
        shared.opts.backoff_base,
        shared.opts.backoff_cap,
        0x5AAD_0000 ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut spawned_once = false;
    while let Some(pos) = shared.claim() {
        let w = match &mut live {
            Some(w) => w,
            None => {
                // Every spawn after the slot's first replaces a lost
                // worker; a rejection is permanent for these binaries.
                if shared.rejected.load(Ordering::SeqCst)
                    || (spawned_once && !shared.charge_restart())
                {
                    shared.requeue(pos);
                    break; // the slot retires; the fleet shrinks
                }
                if spawned_once {
                    shared.worker_restarts.fetch_add(1, Ordering::SeqCst);
                    sts_obs::static_counter!("shard.workers.restarted").incr();
                    std::thread::sleep(jitter.next_delay());
                }
                spawned_once = true;
                match spawn_ready_worker(shared) {
                    Ok(w) => live.insert(w),
                    Err(e) => {
                        if let SpawnError::Rejected = e {
                            shared.workers_rejected.fetch_add(1, Ordering::SeqCst);
                            sts_obs::static_counter!("shard.workers.rejected").incr();
                            shared.rejected.store(true, Ordering::SeqCst);
                        }
                        shared.requeue(pos);
                        continue;
                    }
                }
            }
        };
        let Some((unit, epoch)) = shared.lease(pos) else {
            continue;
        };
        match deal(shared, w, &unit, epoch) {
            Ok(outs) => {
                let pairs = outs.len() as u64;
                if shared.commit(pos, epoch, outs, tx) {
                    shared.credit_commit(w.id, pairs);
                }
            }
            Err(loss) => {
                let exit = live.take().expect("dealt on a live worker").lose(loss);
                shared.lose(pos, exit, tx);
            }
        }
    }
    if let Some(mut w) = live.take() {
        // A graceful shutdown earns the worker one final telemetry
        // flush: absorb tstat/tspan frames (and drain any stale
        // leftovers) until `bye`, a bounded deadline, or a dead pipe.
        let _ = w.conn.send("shutdown");
        let _ = w
            .conn
            .set_read_deadline(Some(shared.opts.lease_timeout.min(Duration::from_secs(2))));
        loop {
            match w.conn.recv() {
                Ok(f) if f.starts_with("tstat ") => {
                    if !shared.absorb_tstat(w.id, &f) {
                        break;
                    }
                }
                Ok(f) if f.starts_with("tspan ") => {
                    if !shared.absorb_tspan(w.id, w.clock, &f) {
                        break;
                    }
                }
                Ok(f) if f.starts_with("bye") => {
                    shared.flushes.fetch_add(1, Ordering::SeqCst);
                    break;
                }
                Ok(_) => continue, // stale hb/result frames drain here
                // Corruption detected here still counts: the chaos
                // suites reconcile garbage frames against the
                // injection ledger exactly, shutdown included.
                Err(e @ ProtocolError::Garbage { .. }) => {
                    shared.loss(&e);
                }
                Err(_) => break,
            }
        }
        w.handle.kill();
    }
}

/// Deals `unit` under `epoch` and reads frames until the live epoch's
/// result arrives, or the wait ends in a [`Loss`]. Heartbeats for any
/// epoch reset the deadline simply by being frames; results for other
/// epochs are refused and skipped. Telemetry frames (`tstat`/`tspan`)
/// are absorbed in passing.
fn deal(
    shared: &Shared<'_>,
    w: &mut Worker,
    unit: &PairChunk,
    epoch: u64,
) -> Result<Vec<PairOutcome>, Loss> {
    let request = format!("chunk {epoch} {} {}", unit.start, unit.len);
    w.conn.send(&request).map_err(|e| shared.loss(&e))?;
    trace::event("shard.tile.deal", unit.id as f64);
    let _ = w.conn.set_read_deadline(Some(shared.opts.lease_timeout));
    loop {
        let frame = w.conn.recv().map_err(|e| shared.loss(&e))?;
        let mut fields = frame.split_whitespace();
        let well_formed = match fields.next() {
            Some("hb") => {
                // `hb <epoch> <pairs_done>` — surface progress instead
                // of treating the frame as opaque.
                let mut num = || fields.next().and_then(|s| s.parse::<u64>().ok());
                if let (Some(hb_epoch), Some(pairs_done)) = (num(), num()) {
                    if hb_epoch == epoch {
                        sts_obs::static_gauge!("shard.tile.progress").set(pairs_done as i64);
                        trace::event("shard.tile.hb", unit.id as f64);
                    }
                }
                true
            }
            Some("tstat") => shared.absorb_tstat(w.id, &frame),
            Some("tspan") => shared.absorb_tspan(w.id, w.clock, &frame),
            Some("result") => {
                let id = fields.next().and_then(|s| s.parse::<u64>().ok());
                if id == Some(epoch) {
                    let payload = frame
                        .strip_prefix(&format!("result {epoch} "))
                        .unwrap_or_default();
                    // The unit was dealt whole, so anything but its
                    // exact cell count is a protocol violation.
                    return worker::decode_result_payload(payload, unit.len).ok_or(Loss::Protocol);
                }
                // A duplicated frame or a superseded deal's late
                // result: refuse it, keep listening for ours.
                shared.stale_results.fetch_add(1, Ordering::SeqCst);
                id.is_some()
            }
            _ => false,
        };
        if !well_formed {
            return Err(Loss::Protocol);
        }
    }
}

/// Launches one worker and walks it to `ready`: bind an ephemeral
/// loopback listener, launch, accept within the ready deadline, send
/// the preamble, the `trace` context frame and `begin`, and interpret
/// the worker's answer. The worker's `ready <now_ns>` clock echo is
/// paired with the coordinator's own clock at receipt to build the
/// per-connection [`ClockMap`].
fn spawn_ready_worker(shared: &Shared<'_>) -> Result<Worker, SpawnError> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|_| SpawnError::Failed)?;
    let addr = listener.local_addr().map_err(|_| SpawnError::Failed)?;
    listener
        .set_nonblocking(true)
        .map_err(|_| SpawnError::Failed)?;
    let mut handle = shared
        .launcher
        .launch(addr)
        .map_err(|_| SpawnError::Failed)?;
    shared.workers_spawned.fetch_add(1, Ordering::SeqCst);
    sts_obs::static_counter!("shard.workers.spawned").incr();
    let deadline = Instant::now() + shared.opts.ready_timeout;
    let stream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                handle.kill();
                return Err(SpawnError::Failed);
            }
        }
    };
    let _ = stream.set_nodelay(true);
    // Connection ids are allocated unconditionally: they key telemetry
    // attribution and span-id/thread-id remapping even when no fault
    // injector is installed.
    let conn_id = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
    let injector = shared.opts.injector.as_ref().map(|inner| {
        Arc::new(OffsetInjector {
            inner: Arc::clone(inner),
            base: conn_id * CONN_INDEX_STRIDE,
        }) as Arc<dyn NetInjector>
    });
    let Ok(mut conn) = FrameConn::with_injector(stream, injector) else {
        handle.kill();
        return Err(SpawnError::Failed);
    };
    let _ = conn.set_read_deadline(Some(shared.opts.ready_timeout));
    // Trace context: job-wide trace id, the span the worker's root
    // should parent under, a disjoint id window per connection, and
    // whether spans are worth shipping at all (the coordinator is the
    // only consumer, so its tracing switch decides).
    let span_base = (conn_id + 1) << 32;
    let ship_spans = u64::from(trace::tracing_enabled());
    let trace_frame = format!(
        "trace {:016x} {} {span_base} {ship_spans}",
        shared.trace_id, shared.trace_parent
    );
    let answer = shared
        .preamble
        .iter()
        .map(String::as_str)
        .chain([trace_frame.as_str(), "begin"])
        .try_for_each(|frame| conn.send(frame))
        .and_then(|()| conn.recv());
    match answer {
        Ok(f) => {
            // `ready <worker_now_ns>` is the clock-origin exchange.
            if let Some(remote) = f.strip_prefix("ready ").and_then(|s| s.parse().ok()) {
                let clock = ClockMap::from_exchange(remote, trace::now_ns());
                return Ok(Worker {
                    conn,
                    handle,
                    id: conn_id,
                    clock,
                });
            }
            handle.kill();
            Err(if f.starts_with("reject ") {
                SpawnError::Rejected
            } else {
                SpawnError::Failed
            })
        }
        Err(e) => {
            shared.loss(&e); // counts a garbage answer
            handle.kill();
            Err(SpawnError::Failed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sts::MeasureSpec;
    use crate::{Sts, StsConfig};
    use std::net::{Shutdown, TcpStream};
    use sts_geo::{BoundingBox, Grid, Point};
    use sts_runtime::PairSpace;
    use sts_traj::Trajectory;

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

    fn corpus() -> (Vec<Trajectory>, Vec<Trajectory>) {
        let queries: Vec<_> = (0..4)
            .map(|i| walker(5.0 + 10.0 * i as f64, 0.0, 6))
            .collect();
        let candidates: Vec<_> = (0..4)
            .map(|i| walker(8.0 + 9.0 * i as f64, 5.0, 6))
            .collect();
        (queries, candidates)
    }

    /// Runs `crate::worker::serve` on an in-process thread over the
    /// connecting socket — the test fleet.
    struct ThreadLauncher;

    struct ThreadHandle {
        stream: TcpStream,
    }

    impl WorkerHandle for ThreadHandle {
        fn kill(&mut self) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }

    impl WorkerLauncher for ThreadLauncher {
        fn launch(&self, addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
            let stream = TcpStream::connect(addr)?;
            let reader = stream.try_clone()?;
            let writer = stream.try_clone()?;
            std::thread::spawn(move || {
                let mut r = std::io::BufReader::new(reader);
                let mut w = writer;
                let _ = crate::worker::serve(&mut r, &mut w);
            });
            Ok(Box::new(ThreadHandle { stream }))
        }
    }

    /// A launcher that never produces a worker: exercises budget
    /// exhaustion and the leftover path.
    struct BrokenLauncher;

    impl WorkerLauncher for BrokenLauncher {
        fn launch(&self, _addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
            Err(io::Error::other("no workers here"))
        }
    }

    fn shard_opts(launcher: Arc<dyn WorkerLauncher>) -> ShardOptions {
        ShardOptions {
            workers: 2,
            lease_timeout: Duration::from_secs(5),
            ready_timeout: Duration::from_secs(5),
            hb_every: 2,
            restart_budget: 4,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_micros(500),
            launcher: Some(launcher),
            ..ShardOptions::default()
        }
    }

    fn run(
        opts: &ShardOptions,
        preamble_tamper: impl FnOnce(&mut Vec<String>),
    ) -> (
        Vec<Option<Vec<PairOutcome>>>,
        ShardRun,
        Vec<Trajectory>,
        Vec<Trajectory>,
    ) {
        let (queries, candidates) = corpus();
        let sts = Sts::new(StsConfig::default(), grid());
        let space = PairSpace::new(queries.len(), candidates.len());
        let cfg = crate::job::JobConfig::default();
        let mut preamble = crate::worker::encode_preamble(
            &MeasureSpec::Full(StsConfig::default()),
            sts.grid(),
            &cfg,
            &space,
            &queries,
            &candidates,
            opts.hb_every,
        );
        preamble_tamper(&mut preamble);
        let tiles: Vec<PairChunk> = space.chunks(4).collect();
        let mut committed: Vec<Option<Vec<PairOutcome>>> = vec![None; tiles.len()];
        let run = run_sharded(
            &tiles,
            &preamble,
            opts,
            Policy::Release,
            &CancelToken::new(),
            Budget::default(),
            &mut |tile, outs| {
                assert!(
                    committed[tile.id].is_none(),
                    "tile {tile:?} committed twice"
                );
                committed[tile.id] = Some(outs);
            },
        );
        (committed, run, queries, candidates)
    }

    fn leftover_ids(run: &ShardRun) -> Vec<usize> {
        run.leftover.iter().map(|tile| tile.id).collect()
    }

    #[test]
    fn clean_fleet_commits_every_tile_bit_exactly_once() {
        let opts = shard_opts(Arc::new(ThreadLauncher));
        let (committed, run, queries, candidates) = run(&opts, |_| {});
        let sts = Sts::new(StsConfig::default(), grid());
        let prepare =
            |ts: &[Trajectory]| -> Vec<_> { ts.iter().map(|t| sts.prepare(t).unwrap()).collect() };
        let (pq, pc) = (prepare(&queries), prepare(&candidates));
        let cols = candidates.len();
        for (idx, outs) in committed.iter().enumerate() {
            let outs = outs.as_ref().expect("every tile commits");
            for (off, outcome) in outs.iter().enumerate() {
                let lin = idx * 4 + off;
                let want = sts.similarity_prepared(&pq[lin / cols], &pc[lin % cols]);
                match outcome {
                    PairOutcome::Score(s) => assert_eq!(s.to_bits(), want.to_bits(), "cell {lin}"),
                    other => panic!("cell {lin}: {other:?}"),
                }
            }
        }
        assert!(run.leftover.is_empty());
        assert!(run.stop.is_none());
        assert_eq!(run.stats.tiles_leased, 4);
        assert_eq!(run.stats.leases_expired, 0);
        assert_eq!(run.stats.workers_rejected, 0);
        assert!(run.stats.workers_spawned >= 1 && run.stats.workers_spawned <= 2);
        assert_eq!(run.stats.worker_restarts, 0);
        // Fleet telemetry: every spawned worker survives a clean run
        // and flushes on shutdown; the coordinator-authoritative commit
        // tally covers the whole 4×4 matrix exactly.
        assert_eq!(run.stats.telemetry_flushes, run.stats.workers_spawned);
        assert_eq!(run.telemetry.flushes, run.stats.telemetry_flushes);
        assert!(run.telemetry.workers >= 1);
        assert_eq!(
            run.telemetry.merged.counter("shard.pairs.committed"),
            Some(16)
        );
        // The in-process test fleet shares this process's registry, so
        // worker-shipped counters are a superset of the fleet's own
        // work — exact equality needs subprocess workers (integration
        // tests); here `>=` proves the shipping path moved real deltas.
        assert!(
            run.telemetry
                .merged
                .counter("core.pairs.scored")
                .unwrap_or(0)
                >= 16
        );
        let labeled_commits: u64 = run
            .telemetry
            .labeled
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("shard.pairs.committed{worker="))
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(
            labeled_commits, 16,
            "per-worker attribution sums to the matrix"
        );
    }

    #[test]
    fn exhausted_fleet_returns_every_tile_as_leftover() {
        let opts = shard_opts(Arc::new(BrokenLauncher));
        let (committed, run, _, _) = run(&opts, |_| {});
        assert!(committed.iter().all(Option::is_none));
        assert_eq!(leftover_ids(&run), vec![0, 1, 2, 3]);
        assert!(
            run.stop.is_none(),
            "exhaustion is not a stop: {:?}",
            run.stop
        );
        // Initial fleet spawns are free; every further attempt drew
        // from the shared budget of 4.
        assert_eq!(run.stats.worker_restarts, 4);
        assert_eq!(run.stats.workers_spawned, 0, "launch never succeeded");
    }

    #[test]
    fn version_skew_rejects_typed_without_burning_restarts() {
        let opts = shard_opts(Arc::new(ThreadLauncher));
        let (committed, run, _, _) = run(&opts, |preamble| {
            preamble[0] = preamble[0].replacen(
                &format!("hello {} ", crate::worker::PROTOCOL_VERSION),
                "hello 99 ",
                1,
            );
        });
        assert!(committed.iter().all(Option::is_none));
        assert_eq!(leftover_ids(&run), vec![0, 1, 2, 3]);
        assert!(run.stats.workers_rejected >= 1);
        assert_eq!(
            run.stats.worker_restarts, 0,
            "a permanent rejection must not burn the restart budget"
        );
    }

    #[test]
    fn zero_pair_result_payloads_are_protocol_violations() {
        // A 3-pair unit: its exact cover commits.
        let decode = |payload| worker::decode_result_payload(payload, 3);
        assert!(decode("3 s 0.5 q s 0.25").is_some());
        for bad in [
            "0",                  // zero pairs
            "2 s 0.5 q",          // short
            "4 s 0.5 q s 0.25 q", // long
            "3 s 0.5 q",          // count says 3, two cells follow
            "3 s 0.5 zz s 0.25",  // malformed cell
        ] {
            assert!(decode(bad).is_none(), "{bad:?}");
        }
    }

    // ---- The Subprocess policy, against scripted in-thread workers. ----

    /// What a scripted worker does with one chunk.
    #[derive(Clone, Copy)]
    enum Act {
        /// Answer `result` with `s <lin*2>` for every pair.
        Score,
        /// Answer `result` claiming 10^17 cells.
        Overclaim,
        /// Exit with this code without answering.
        Die(i32),
        /// Never answer (until killed).
        Hang,
        /// Answer with unframed noise, and stay alive.
        Garble,
    }

    /// In-thread workers that speak the wire protocol and do whatever
    /// `script(start, len)` says with each chunk — or refuse the
    /// handshake outright.
    struct ScriptedLauncher {
        script: fn(usize, usize) -> Act,
        reject: bool,
    }

    struct ScriptedHandle {
        stream: TcpStream,
        exit: Arc<Mutex<Option<WorkerExit>>>,
    }

    impl WorkerHandle for ScriptedHandle {
        fn kill(&mut self) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }

        fn reap(&mut self) -> WorkerExit {
            self.kill();
            self.exit.lock().unwrap().unwrap_or(WorkerExit::Protocol)
        }
    }

    impl WorkerLauncher for ScriptedLauncher {
        fn launch(&self, addr: SocketAddr) -> io::Result<Box<dyn WorkerHandle>> {
            let stream = TcpStream::connect(addr)?;
            let mut r = io::BufReader::new(stream.try_clone()?);
            let mut w = stream.try_clone()?;
            let exit = Arc::new(Mutex::new(None));
            let (script, reject, died) = (self.script, self.reject, Arc::clone(&exit));
            std::thread::spawn(move || {
                use std::io::Write;
                use sts_isolate::protocol::{read_frame, write_frame};
                while let Ok(frame) = read_frame(&mut r) {
                    let fields: Vec<&str> = frame.split_whitespace().collect();
                    match fields.as_slice() {
                        ["begin"] if reject => {
                            let _ = write_frame(&mut w, "reject version 1 4");
                            break;
                        }
                        ["begin"] => {
                            let _ = write_frame(&mut w, "ready 1");
                        }
                        ["chunk", id, start, len] => {
                            let (start, len) = (start.parse().unwrap(), len.parse().unwrap());
                            match script(start, len) {
                                Act::Score => {
                                    let mut out = format!("result {id} {len}");
                                    for lin in start..start + len {
                                        out.push_str(&format!(" s {}", lin * 2));
                                    }
                                    let _ = write_frame(&mut w, &out);
                                }
                                Act::Overclaim => {
                                    let out = format!("result {id} 100000000000000000 s 0.5");
                                    let _ = write_frame(&mut w, &out);
                                }
                                Act::Die(code) => {
                                    *died.lock().unwrap() = Some(WorkerExit::Code(code));
                                    break;
                                }
                                Act::Hang => {}
                                Act::Garble => {
                                    let _ = w.write_all(b"blorp blorp blorp\n");
                                }
                            }
                        }
                        ["shutdown"] => break,
                        _ => {} // preamble frames
                    }
                }
                // Exiting closes the worker's end of the connection.
                let _ = w.shutdown(Shutdown::Both);
            });
            Ok(Box::new(ScriptedHandle { stream, exit }))
        }
    }

    fn subprocess_opts(launcher: Arc<dyn WorkerLauncher>) -> ShardOptions {
        ShardOptions {
            workers: 2,
            lease_timeout: Duration::from_secs(5),
            ready_timeout: Duration::from_secs(5),
            hb_every: 0,
            restart_budget: 64,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(2),
            launcher: Some(launcher),
            ..ShardOptions::default()
        }
    }

    fn scripted(script: fn(usize, usize) -> Act) -> ShardOptions {
        subprocess_opts(Arc::new(ScriptedLauncher {
            script,
            reject: false,
        }))
    }

    /// Does the chunk `[start, start + len)` hold pair `lin`?
    fn holds(start: usize, len: usize, lin: usize) -> bool {
        (start..start + len).contains(&lin)
    }

    /// A `rows × cols` matrix in `chunk`-pair units under the Subprocess
    /// policy: the cells and the run.
    fn run_matrix(
        rows: usize,
        cols: usize,
        chunk: usize,
        opts: &ShardOptions,
        cancel: &CancelToken,
    ) -> (Vec<PairOutcome>, ShardRun) {
        let space = PairSpace::new(rows, cols);
        let chunks: Vec<PairChunk> = space.chunks(chunk).collect();
        let mut cells = vec![PairOutcome::Skipped; space.len()];
        let run = run_sharded(
            &chunks,
            &[],
            opts,
            Policy::Bisect,
            cancel,
            Budget::default(),
            &mut |unit, outs| {
                for (lin, outcome) in unit.range().zip(outs) {
                    assert_eq!(
                        cells[lin],
                        PairOutcome::Skipped,
                        "pair {lin} resolved twice"
                    );
                    cells[lin] = outcome;
                }
            },
        );
        (cells, run)
    }

    fn scored(cells: &[PairOutcome]) -> usize {
        cells
            .iter()
            .filter(|c| matches!(c, PairOutcome::Score(_)))
            .count()
    }

    fn skipped(run: &ShardRun) -> usize {
        run.leftover.iter().map(|unit| unit.len).sum()
    }

    /// The quarantined pairs, ascending, with how their workers ended.
    fn poisoned(cells: &[PairOutcome]) -> Vec<(usize, WorkerExit)> {
        cells
            .iter()
            .enumerate()
            .filter_map(|(lin, c)| match c {
                PairOutcome::Poisoned { exit } => Some((lin, *exit)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn clean_fleet_completes_every_chunk() {
        let opts = scripted(|_, _| Act::Score);
        let (cells, run) = run_matrix(6, 7, 5, &opts, &CancelToken::new());
        assert_eq!(run.stop, None);
        assert_eq!(scored(&cells), 42);
        assert_eq!(run.stats.pairs_poisoned, 0);
        assert_eq!(run.stats.worker_restarts, 0);
        for (lin, cell) in cells.iter().enumerate() {
            assert_eq!(*cell, PairOutcome::Score(lin as f64 * 2.0), "cell {lin}");
        }
    }

    #[test]
    fn aborting_pair_is_bisected_to_poison_and_the_rest_completes() {
        // Pair 11 kills its worker (exit 13 stands in for a crash).
        let opts = scripted(|start, len| match holds(start, len, 11) {
            true => Act::Die(13),
            false => Act::Score,
        });
        let (cells, run) = run_matrix(4, 8, 8, &opts, &CancelToken::new());
        assert_eq!(run.stop, None, "{:?}", run.stats);
        assert_eq!(poisoned(&cells), vec![(11, WorkerExit::Code(13))]);
        assert_eq!(run.stats.pairs_poisoned, 1);
        assert_eq!(scored(&cells), 31);
        assert!(run.stats.worker_restarts > 0);
        assert!(
            run.stats.max_bisect_depth >= 3,
            "depth {}",
            run.stats.max_bisect_depth
        );
        for (lin, cell) in cells.iter().enumerate() {
            if lin != 11 {
                assert_eq!(*cell, PairOutcome::Score(lin as f64 * 2.0), "cell {lin}");
            }
        }
    }

    #[test]
    fn wedged_pair_is_killed_and_attributed_as_hard_timeout() {
        let mut opts = scripted(|start, len| match holds(start, len, 3) {
            true => Act::Hang,
            false => Act::Score,
        });
        opts.lease_timeout = Duration::from_millis(250);
        let (cells, run) = run_matrix(2, 4, 4, &opts, &CancelToken::new());
        assert_eq!(run.stop, None, "{:?}", run.stats);
        assert_eq!(poisoned(&cells), vec![(3, WorkerExit::HardTimeout)]);
        // The silent worker was killed and replaced.
        assert!(run.stats.leases_expired > 0 && run.stats.worker_restarts > 0);
        assert_eq!(scored(&cells), 7);
    }

    #[test]
    fn garbage_output_is_attributed_as_protocol_poison() {
        let opts = scripted(|start, len| match holds(start, len, 5) {
            true => Act::Garble,
            false => Act::Score,
        });
        let (cells, run) = run_matrix(3, 3, 4, &opts, &CancelToken::new());
        assert_eq!(run.stop, None, "{:?}", run.stats);
        assert_eq!(poisoned(&cells), vec![(5, WorkerExit::Protocol)]);
        assert!(run.stats.frames_corrupt > 0);
        assert_eq!(scored(&cells), 8);
    }

    #[test]
    fn overclaiming_result_loses_the_worker_not_the_coordinator() {
        // A result claiming 10^17 cells must not size an allocation in
        // the coordinator: the unit is a protocol loss, bisected down
        // to the pair, and every other pair completes.
        let opts = scripted(|start, len| match holds(start, len, 4) {
            true => Act::Overclaim,
            false => Act::Score,
        });
        let (cells, run) = run_matrix(3, 3, 4, &opts, &CancelToken::new());
        assert_eq!(run.stop, None, "{:?}", run.stats);
        assert_eq!(poisoned(&cells), vec![(4, WorkerExit::Protocol)]);
        assert_eq!(scored(&cells), 8);
        assert!(run.stats.worker_restarts > 0);
    }

    #[test]
    fn restart_budget_exhaustion_stops_instead_of_crash_looping() {
        // Every chunk kills the worker: with a tiny budget the run
        // must stop with WorkerRestartsExhausted and skip the rest.
        let mut opts = scripted(|_, _| Act::Die(7));
        opts.restart_budget = 3;
        opts.workers = 1;
        let (cells, run) = run_matrix(4, 4, 2, &opts, &CancelToken::new());
        assert_eq!(run.stop, Some(StopReason::WorkerRestartsExhausted));
        assert_eq!(scored(&cells), 0);
        assert!(skipped(&run) > 0, "{:?}", run.stats);
    }

    #[test]
    fn missing_worker_binary_exhausts_the_budget_cleanly() {
        let mut opts = subprocess_opts(Arc::new(ProcessLauncher {
            program: PathBuf::from("/nonexistent/sts-worker"),
        }));
        opts.restart_budget = 2;
        opts.workers = 1;
        let (cells, run) = run_matrix(2, 2, 2, &opts, &CancelToken::new());
        assert_eq!(run.stop, Some(StopReason::WorkerRestartsExhausted));
        assert_eq!(scored(&cells), 0);
        assert_eq!(skipped(&run), 4);
    }

    #[test]
    fn handshake_rejection_stops_typed_without_burning_restarts() {
        // The worker answers `begin` with a typed reject frame — a
        // version-skewed binary. The run must stop as WorkerRejected
        // on the first refusal, not crash-loop through the budget.
        let mut opts = subprocess_opts(Arc::new(ScriptedLauncher {
            script: |_, _| Act::Score,
            reject: true,
        }));
        opts.workers = 1;
        let (cells, run) = run_matrix(2, 2, 2, &opts, &CancelToken::new());
        assert_eq!(run.stop, Some(StopReason::WorkerRejected));
        assert_eq!(run.stats.workers_rejected, 1);
        assert_eq!(run.stats.worker_restarts, 0, "rejection must not retry");
        assert_eq!(scored(&cells), 0);
        assert_eq!(skipped(&run), 4);
    }

    #[test]
    fn cancellation_skips_queued_chunks() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let (cells, run) = run_matrix(4, 4, 2, &scripted(|_, _| Act::Score), &cancel);
        assert_eq!(run.stop, Some(StopReason::Cancelled));
        assert_eq!(scored(&cells), 0);
        assert_eq!(skipped(&run), 16);
    }

    #[test]
    fn poison_set_is_deterministic_across_repeat_runs() {
        let mut sets = Vec::new();
        for _ in 0..3 {
            let opts = scripted(
                |start, len| match holds(start, len, 2) || holds(start, len, 9) {
                    true => Act::Die(5),
                    false => Act::Score,
                },
            );
            let (cells, _) = run_matrix(4, 4, 16, &opts, &CancelToken::new());
            let set = poisoned(&cells);
            let lins: Vec<usize> = set.iter().map(|&(lin, _)| lin).collect();
            assert_eq!(lins, vec![2, 9], "{set:?}");
            sets.push(set);
        }
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
    }
}
