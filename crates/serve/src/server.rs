//! The long-running service: recovery, ingest pipeline, query serving,
//! backpressure and the shedding ladder.
//!
//! Thread layout:
//!
//! ```text
//!   listener ──accept──► conn thread (one per client)
//!                            │ parse frame, dispatch
//!                            │ pings → bounded sync_channel ──► ingest thread
//!                            │         (try_send: full ⇒ `busy`)     │ apply → WAL
//!                            └─ queries lock the state directly      │ group commit
//!                                                                    │ auto-snapshot
//! ```
//!
//! The **ingest thread** is the single writer: it owns the WAL, applies
//! pings to the shared state under its mutex, group-commits every
//! `commit_every` appended records, and snapshots + truncates the log
//! every `snapshot_every` applied pings. Conn threads only enqueue —
//! `try_send` on the bounded channel *is* the backpressure seam: a full
//! queue surfaces as an explicit `busy <seq> <depth>` frame the client
//! retries, counted in `shed_busy`, and memory stays bounded no matter
//! how fast clients push.
//!
//! The **shedding ladder**, cheapest first:
//!
//! 1. queue depth ≥ `shed_defer_depth` ⇒ queries answer from stale
//!    cached speed models (`stale` reply marker, `refresh_deferred`);
//! 2. queue full ⇒ ingest refused with `busy` (`shed_busy`);
//! 3. top-k evaluation exceeding `query_budget` returns what it has
//!    with a `deadline` marker (`queries_deadline`);
//! 4. clients that stall mid-frame longer than `read_deadline` are
//!    disconnected (`slow_clients`) — the slowloris defense.
//!
//! An `ok <seq>` ack means *accepted into the pipeline*, not durable:
//! durability advances at group-commit granularity and is published in
//! the `ready <durable>` hello reply, which is exactly what a
//! reconnecting client uses to decide what to resend after a crash
//! (resends are idempotent — seq dedup). `flush` forces a commit and
//! returns the new durable horizon.

use crate::snapshot::{load_latest, write_snapshot};
use crate::state::{ApplyVerdict, Ping, ServeState, StateConfig};
use crate::wal::Wal;
use crate::{f64_from_hex, f64_to_hex, ServeError, ServeStats};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use sts_isolate::protocol::{write_frame, ProtocolError};
use sts_isolate::transport::{is_timeout, FrameConn};
use sts_runtime::Storage;

/// Upper bound on client-requested window steps — a query knob, not a
/// memory knob, but an unbounded value would turn one frame into an
/// unbounded amount of work.
const MAX_QUERY_STEPS: usize = 512;

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Data directory (WAL under `wal/`, snapshots under `snap/`).
    pub dir: PathBuf,
    /// Bound of the ingest queue (pings in flight between conn threads
    /// and the ingest thread). Full ⇒ `busy` backpressure.
    pub queue_bound: usize,
    /// Group-commit the WAL every this many appended records.
    pub commit_every: usize,
    /// Seal WAL segments at this many records.
    pub segment_records: usize,
    /// Snapshot + truncate the WAL every this many applied pings
    /// (0 = only on explicit `snapshot` frames).
    pub snapshot_every: u64,
    /// Read deadline per connection; `None` disarms.
    pub read_deadline: Option<Duration>,
    /// Inbound frame cap for this endpoint (bytes).
    pub frame_cap: usize,
    /// Artificial per-ping apply delay — a test hook to make the
    /// bounded queue observable under flood.
    pub ingest_delay: Duration,
    /// Queue depth at which queries start answering from stale cached
    /// models (rung 1 of the shedding ladder).
    pub shed_defer_depth: usize,
    /// Wall-clock budget for one top-k evaluation.
    pub query_budget: Duration,
    /// Admission control: connections beyond this are refused.
    pub max_conns: usize,
    /// Geometry and model configuration (must match across restarts).
    pub state: StateConfig,
}

impl ServeOptions {
    /// Defaults tuned for tests and small deployments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeOptions {
            dir: dir.into(),
            queue_bound: 64,
            commit_every: 8,
            segment_records: 256,
            snapshot_every: 0,
            read_deadline: Some(Duration::from_secs(10)),
            frame_cap: 4096,
            ingest_delay: Duration::ZERO,
            shed_defer_depth: 32,
            query_budget: Duration::from_millis(250),
            max_conns: 64,
            state: StateConfig::default(),
        }
    }
}

/// What the ingest thread consumes.
enum IngestMsg {
    Ping(Ping),
    /// Commit now; reply with the durable seq.
    Flush(SyncSender<u64>),
    /// Snapshot + truncate now; reply with the covered seq.
    Snapshot(SyncSender<Result<u64, String>>),
}

/// State shared by every thread of one server instance.
struct Shared {
    state: Mutex<ServeState>,
    stats: Arc<ServeStats>,
    storage: Arc<dyn Storage>,
    /// Highest seq proven durable (WAL-committed or snapshot-covered).
    durable: AtomicU64,
    /// Current ingest queue depth (enqueued, not yet applied).
    /// Signed and clamped on read: the producer's increment races the
    /// consumer's decrement, so transients may dip below zero.
    depth: AtomicI64,
    stop: AtomicBool,
    active_conns: AtomicUsize,
    opts: ServeOptions,
}

enum Reply {
    Text(String),
    /// Send the text, then stop the whole server.
    Shutdown(String),
}

/// Parses and executes one client frame. Pure dispatch: all policy
/// (shedding, budgets) reads off `Shared`.
fn dispatch(sh: &Shared, tx: &SyncSender<IngestMsg>, frame: &str) -> Reply {
    let mut it = frame.split_whitespace();
    let cmd = it.next().unwrap_or("");
    match cmd {
        "hello" => Reply::Text(format!("ready {}", sh.durable.load(Ordering::SeqCst))),
        "p" => {
            let Some(p) = Ping::decode(frame) else {
                sh.stats.ingest_garbage(1);
                return Reply::Text("err garbage".to_string());
            };
            match tx.try_send(IngestMsg::Ping(p)) {
                Ok(()) => {
                    let depth = (sh.depth.fetch_add(1, Ordering::SeqCst) + 1).max(0);
                    sh.stats.observe_queue_depth(depth as u64);
                    Reply::Text(format!("ok {}", p.seq))
                }
                Err(TrySendError::Full(_)) => {
                    sh.stats.shed_busy(1);
                    Reply::Text(format!(
                        "busy {} {}",
                        p.seq,
                        sh.depth.load(Ordering::SeqCst).max(0)
                    ))
                }
                Err(TrySendError::Disconnected(_)) => Reply::Text("err closed".to_string()),
            }
        }
        "flush" => {
            let (rtx, rrx) = sync_channel(1);
            if tx.send(IngestMsg::Flush(rtx)).is_err() {
                return Reply::Text("err closed".to_string());
            }
            match rrx.recv() {
                Ok(d) => Reply::Text(format!("flushed {d}")),
                Err(_) => Reply::Text("err closed".to_string()),
            }
        }
        "snapshot" => {
            let (rtx, rrx) = sync_channel(1);
            if tx.send(IngestMsg::Snapshot(rtx)).is_err() {
                return Reply::Text("err closed".to_string());
            }
            match rrx.recv() {
                Ok(Ok(seq)) => Reply::Text(format!("snapped {seq}")),
                Ok(Err(why)) => Reply::Text(format!("err snapshot {why}")),
                Err(_) => Reply::Text("err closed".to_string()),
            }
        }
        "coloc" => {
            let parsed = (|| {
                let a: u64 = it.next()?.parse().ok()?;
                let b: u64 = it.next()?.parse().ok()?;
                let t0 = f64_from_hex(it.next()?)?;
                let t1 = f64_from_hex(it.next()?)?;
                let steps: usize = it.next()?.parse().ok()?;
                it.next().is_none().then_some((a, b, t0, t1, steps))
            })();
            let Some((a, b, t0, t1, steps)) = parsed else {
                return Reply::Text("err bad-query".to_string());
            };
            let steps = steps.clamp(1, MAX_QUERY_STEPS);
            let allow_stale =
                sh.depth.load(Ordering::SeqCst).max(0) >= sh.opts.shed_defer_depth as i64;
            let outcome = sh.state.lock().expect("state lock").windowed_colocation(
                a,
                b,
                t0,
                t1,
                steps,
                allow_stale,
                &sh.stats,
            );
            Reply::Text(format!(
                "coloc {} {}",
                outcome.staleness.token(),
                f64_to_hex(outcome.value)
            ))
        }
        "topk" => {
            let parsed = (|| {
                let obj: u64 = it.next()?.parse().ok()?;
                let t0 = f64_from_hex(it.next()?)?;
                let t1 = f64_from_hex(it.next()?)?;
                let steps: usize = it.next()?.parse().ok()?;
                let k: usize = it.next()?.parse().ok()?;
                it.next().is_none().then_some((obj, t0, t1, steps, k))
            })();
            let Some((obj, t0, t1, steps, k)) = parsed else {
                return Reply::Text("err bad-query".to_string());
            };
            let steps = steps.clamp(1, MAX_QUERY_STEPS);
            let allow_stale =
                sh.depth.load(Ordering::SeqCst).max(0) >= sh.opts.shed_defer_depth as i64;
            let outcome = sh.state.lock().expect("state lock").topk(
                obj,
                t0,
                t1,
                steps,
                k,
                allow_stale,
                sh.opts.query_budget,
                &sh.stats,
            );
            let mut reply = format!(
                "topk {} {} {}",
                outcome.staleness.token(),
                if outcome.deadline_hit {
                    "deadline"
                } else {
                    "ok"
                },
                outcome.value.len()
            );
            for (id, score) in &outcome.value {
                reply.push_str(&format!(" {id} {}", f64_to_hex(*score)));
            }
            Reply::Text(reply)
        }
        "stats" => Reply::Text(sh.stats.render()),
        "shutdown" => Reply::Shutdown("bye".to_string()),
        _ => Reply::Text("err unknown".to_string()),
    }
}

/// Recovers the served state from disk: newest verified snapshot, plus
/// replay of every verified WAL record.
fn recover(
    opts: &ServeOptions,
    storage: &Arc<dyn Storage>,
    stats: &Arc<ServeStats>,
) -> Result<(ServeState, Wal), ServeError> {
    let snap_dir = opts.dir.join("snap");
    sts_runtime::store::open_dir(storage.as_ref(), &snap_dir)
        .map_err(ServeError::storage("snapshot dir"))?;
    let mut state = load_latest(storage.as_ref(), &snap_dir, &opts.state, stats)
        .unwrap_or_else(|| ServeState::new(opts.state.clone()));
    let (wal, records) = Wal::open(
        Arc::clone(storage),
        &opts.dir.join("wal"),
        opts.segment_records,
        Arc::clone(stats),
    )?;
    let mut replayed = 0u64;
    for rec in &records {
        let Some(p) = Ping::decode(rec) else {
            // Unreachable for segments we wrote (digest-verified), but
            // a foreign record must not abort recovery.
            eprintln!("sts-serve: skipping undecodable wal record {rec:?}");
            continue;
        };
        if state.apply(&p) != ApplyVerdict::DupSeq {
            replayed += 1;
        }
    }
    stats.recovered_records(replayed);
    Ok((state, wal))
}

/// The ingest thread body: the single writer of state and WAL.
fn ingest_loop(sh: &Shared, mut wal: Wal, rx: Receiver<IngestMsg>) {
    let commit_every = sh.opts.commit_every.max(1);
    let mut applied_since_snap = 0u64;
    fn commit(wal: &mut Wal, sh: &Shared) -> Result<(), ServeError> {
        wal.commit()?;
        let seq = sh.state.lock().expect("state lock").max_seq();
        sh.durable.store(seq, Ordering::SeqCst);
        Ok(())
    }
    fn snapshot(wal: &mut Wal, sh: &Shared) -> Result<u64, ServeError> {
        wal.commit()?;
        let state = sh.state.lock().expect("state lock");
        let seq = write_snapshot(
            sh.storage.as_ref(),
            &sh.opts.dir.join("snap"),
            &state,
            &sh.stats,
        )?;
        drop(state);
        wal.truncate_all()?;
        sh.durable.store(seq, Ordering::SeqCst);
        Ok(seq)
    }
    while let Ok(msg) = rx.recv() {
        match msg {
            IngestMsg::Ping(p) => {
                sh.depth.fetch_sub(1, Ordering::SeqCst);
                if !sh.opts.ingest_delay.is_zero() {
                    std::thread::sleep(sh.opts.ingest_delay);
                }
                let verdict = sh.state.lock().expect("state lock").apply(&p);
                match verdict {
                    ApplyVerdict::Applied => {
                        sh.stats.ingest_applied(1);
                        wal.append(p.encode());
                        applied_since_snap += 1;
                    }
                    ApplyVerdict::DupSeq => sh.stats.ingest_dup(1),
                    // Refused, but the seq was consumed: log it so
                    // replay reproduces the dedup horizon exactly.
                    ApplyVerdict::StaleTime => {
                        sh.stats.ingest_old(1);
                        wal.append(p.encode());
                    }
                }
                if wal.pending_len() >= commit_every {
                    if let Err(e) = commit(&mut wal, sh) {
                        eprintln!("sts-serve: wal commit failed: {e}");
                        sh.stop.store(true, Ordering::SeqCst);
                        return;
                    }
                }
                if sh.opts.snapshot_every > 0 && applied_since_snap >= sh.opts.snapshot_every {
                    match snapshot(&mut wal, sh) {
                        Ok(_) => applied_since_snap = 0,
                        Err(e) => {
                            eprintln!("sts-serve: snapshot failed: {e}");
                            sh.stop.store(true, Ordering::SeqCst);
                            return;
                        }
                    }
                }
            }
            IngestMsg::Flush(reply) => {
                if let Err(e) = commit(&mut wal, sh) {
                    eprintln!("sts-serve: wal commit failed: {e}");
                    sh.stop.store(true, Ordering::SeqCst);
                    return;
                }
                let _ = reply.send(sh.durable.load(Ordering::SeqCst));
            }
            IngestMsg::Snapshot(reply) => {
                let res = snapshot(&mut wal, sh).map_err(|e| e.to_string());
                if res.is_ok() {
                    applied_since_snap = 0;
                }
                let _ = reply.send(res);
            }
        }
    }
    // Channel closed: every sender is gone. Make the tail durable.
    if let Err(e) = commit(&mut wal, sh) {
        eprintln!("sts-serve: final wal commit failed: {e}");
    }
}

/// Decrements the active-connection gauge on scope exit, however the
/// conn loop ends.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One TCP connection's frame loop.
fn serve_conn(sh: Arc<Shared>, tx: SyncSender<IngestMsg>, stream: TcpStream) {
    let _guard = ConnGuard(Arc::clone(&sh));
    let conn = match FrameConn::new(stream) {
        Ok(c) => c.with_frame_cap(sh.opts.frame_cap),
        Err(_) => return,
    };
    if conn.set_read_deadline(sh.opts.read_deadline).is_err() {
        return;
    }
    let mut conn = conn;
    loop {
        if sh.stop.load(Ordering::SeqCst) {
            break;
        }
        match conn.recv() {
            Ok(frame) => match dispatch(&sh, &tx, &frame) {
                Reply::Text(t) => {
                    if conn.send(&t).is_err() {
                        break;
                    }
                }
                Reply::Shutdown(t) => {
                    let _ = conn.send(&t);
                    sh.stop.store(true, Ordering::SeqCst);
                    break;
                }
            },
            // Line noise: typed, counted, survivable — keep serving
            // this connection (the frame boundary resynchronizes).
            Err(ProtocolError::Garbage { .. }) => {
                sh.stats.ingest_garbage(1);
                if conn.send("err garbage").is_err() {
                    break;
                }
            }
            // Over-cap frame: the stream is mid-frame, unrecoverable.
            Err(ProtocolError::FrameTooLarge { .. }) => {
                sh.stats.frames_too_large(1);
                let _ = conn.send("err too-large");
                break;
            }
            Err(ref e) if is_timeout(e) => {
                sh.stats.slow_clients(1);
                break;
            }
            Err(_) => break, // EOF or hard I/O error.
        }
    }
}

/// The service entry points.
pub struct Server;

impl Server {
    /// Recovers from `opts.dir` and starts serving on a TCP listener
    /// bound to `addr` (use port 0 for an ephemeral port; the bound
    /// address is on the returned handle).
    pub fn start(
        opts: ServeOptions,
        storage: Arc<dyn Storage>,
        addr: &str,
    ) -> Result<ServerHandle, ServeError> {
        let stats = Arc::new(ServeStats::default());
        let (state, wal) = recover(&opts, &storage, &stats)?;
        let durable = state.max_seq();
        let listener = TcpListener::bind(addr).map_err(ServeError::network("tcp bind"))?;
        let bound = listener
            .local_addr()
            .map_err(ServeError::network("tcp local_addr"))?;
        listener
            .set_nonblocking(true)
            .map_err(ServeError::network("tcp nonblocking"))?;
        let sh = Arc::new(Shared {
            state: Mutex::new(state),
            stats,
            storage,
            durable: AtomicU64::new(durable),
            depth: AtomicI64::new(0),
            stop: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            opts,
        });
        let (tx, rx) = sync_channel::<IngestMsg>(sh.opts.queue_bound.max(1));
        let ingest = {
            let sh = Arc::clone(&sh);
            std::thread::spawn(move || ingest_loop(&sh, wal, rx))
        };
        let listen_thread = {
            let sh = Arc::clone(&sh);
            std::thread::spawn(move || {
                // `tx` lives in this thread: when the listener exits and
                // every conn thread finishes, the channel closes and the
                // ingest thread commits its tail and exits.
                let tx = tx;
                loop {
                    if sh.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            if sh.active_conns.load(Ordering::SeqCst) >= sh.opts.max_conns {
                                sh.stats.conns_rejected(1);
                                let mut stream = stream;
                                let _ = write_frame(&mut stream, "err conns");
                                continue;
                            }
                            sh.stats.conns(1);
                            sh.active_conns.fetch_add(1, Ordering::SeqCst);
                            let sh = Arc::clone(&sh);
                            let tx = tx.clone();
                            std::thread::spawn(move || serve_conn(sh, tx, stream));
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            })
        };
        Ok(ServerHandle {
            addr: bound,
            shared: sh,
            listener: Some(listen_thread),
            ingest: Some(ingest),
        })
    }
}

/// A running TCP server: join/stop handle plus introspection for
/// in-process tests.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    ingest: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }

    /// The durable (WAL-committed or snapshot-covered) seq horizon.
    pub fn durable_seq(&self) -> u64 {
        self.shared.durable.load(Ordering::SeqCst)
    }

    /// Blocks until the server stops on its own — a client `shutdown`
    /// frame, or a fatal storage error in the ingest thread. This is
    /// what the `sts-serve` binary parks on.
    pub fn join(mut self) {
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        if let Some(h) = self.ingest.take() {
            let _ = h.join();
        }
    }

    /// Stops the listener and waits for the ingest thread to commit
    /// its tail. Connected clients must have disconnected (or be past
    /// their read deadline) for this to complete.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        if let Some(h) = self.ingest.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        if let Some(h) = self.ingest.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::state::Staleness;
    use sts_runtime::FsStorage;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sts-serve-srv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn start(opts: ServeOptions) -> ServerHandle {
        Server::start(opts, Arc::new(FsStorage), "127.0.0.1:0").unwrap()
    }

    fn walk_pings(n: u64, objects: u64) -> Vec<Ping> {
        let mut out = Vec::new();
        let mut seq = 0;
        for i in 0..n {
            for obj in 0..objects {
                seq += 1;
                out.push(Ping {
                    seq,
                    obj,
                    t: i as f64 + 0.1 * obj as f64,
                    x: 10.0 + i as f64 + 1.5 * obj as f64,
                    y: 20.0 + i as f64 / 2.0,
                });
            }
        }
        out
    }

    #[test]
    fn a_taken_port_is_a_network_error_not_a_storage_one() {
        let dir = tmp_dir("taken-port");
        let holder = TcpListener::bind("127.0.0.1:0").unwrap();
        let taken = holder.local_addr().unwrap().to_string();
        let err = match Server::start(ServeOptions::new(&dir), Arc::new(FsStorage), &taken) {
            Ok(h) => {
                h.shutdown();
                panic!("bound {taken}, which another listener holds");
            }
            Err(e) => e,
        };
        assert!(
            matches!(&err, ServeError::Network { what: "tcp bind", source }
                if source.kind() == std::io::ErrorKind::AddrInUse),
            "{err:?}"
        );
        let message = err.to_string();
        assert!(message.starts_with("tcp bind: "), "{message}");
        assert!(!message.contains("durable write"), "{message}");
        drop(holder);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_query_flush_and_restart_round_trip() {
        let dir = tmp_dir("roundtrip");
        let pings = walk_pings(12, 2);
        let expected_applied = pings.len() as u64;
        let reply_before;
        {
            let h = start(ServeOptions::new(&dir));
            let mut c = ServeClient::connect(h.addr()).unwrap();
            assert_eq!(c.hello().unwrap(), 0);
            for p in &pings {
                c.ingest_until_acked(p).unwrap();
            }
            let durable = c.flush().unwrap();
            assert_eq!(durable, expected_applied);
            reply_before = c.colocate_raw(0, 1, 3.0, 9.0, 5).unwrap();
            assert!(reply_before.starts_with("coloc fresh "));
            let stats = c.stats().unwrap();
            let get = |n: &str| stats.iter().find(|(k, _)| k == n).unwrap().1;
            assert_eq!(get("ingest_applied"), expected_applied);
            assert_eq!(get("shed_busy"), 0);
            drop(c);
            h.shutdown();
        }
        // Restart on the same dir: recovery replays the WAL and the
        // same query answers byte-identically.
        let h = start(ServeOptions::new(&dir));
        assert_eq!(h.durable_seq(), expected_applied);
        assert!(h.stats().get("recovered_records").unwrap() > 0);
        let mut c = ServeClient::connect(h.addr()).unwrap();
        assert_eq!(c.hello().unwrap(), expected_applied);
        let reply_after = c.colocate_raw(0, 1, 3.0, 9.0, 5).unwrap();
        assert_eq!(reply_after, reply_before, "recovery must be byte-identical");
        // Resending already-consumed pings is a counted no-op.
        for p in &pings[..4] {
            c.ingest_until_acked(p).unwrap();
        }
        c.flush().unwrap();
        assert_eq!(c.stats_get("ingest_dup").unwrap(), 4);
        drop(c);
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_wal_and_recovery_still_matches() {
        let dir = tmp_dir("snap");
        let pings = walk_pings(15, 2);
        let reply_before;
        {
            let h = start(ServeOptions::new(&dir));
            let mut c = ServeClient::connect(h.addr()).unwrap();
            for p in &pings[..20] {
                c.ingest_until_acked(p).unwrap();
            }
            let seq = c.snapshot().unwrap();
            assert_eq!(seq, 20);
            for p in &pings[20..] {
                c.ingest_until_acked(p).unwrap();
            }
            c.flush().unwrap();
            reply_before = c.topk_raw(0, 2.0, 13.0, 5, 3).unwrap();
            let stats = c.stats().unwrap();
            let get = |n: &str| stats.iter().find(|(k, _)| k == n).unwrap().1;
            assert_eq!(get("snapshots"), 1);
            assert!(get("wal_truncated") > 0);
            drop(c);
            h.shutdown();
        }
        let h = start(ServeOptions::new(&dir));
        let mut c = ServeClient::connect(h.addr()).unwrap();
        assert_eq!(c.hello().unwrap(), pings.len() as u64);
        assert_eq!(c.topk_raw(0, 2.0, 13.0, 5, 3).unwrap(), reply_before);
        drop(c);
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_snapshot_fires_on_applied_count() {
        let dir = tmp_dir("autosnap");
        let mut opts = ServeOptions::new(&dir);
        opts.snapshot_every = 10;
        let h = start(opts);
        let mut c = ServeClient::connect(h.addr()).unwrap();
        for p in walk_pings(13, 2) {
            c.ingest_until_acked(&p).unwrap();
        }
        c.flush().unwrap();
        assert!(c.stats_get("snapshots").unwrap() >= 2);
        drop(c);
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_sheds_with_busy_and_stale_markers_not_oom() {
        let dir = tmp_dir("overload");
        let mut opts = ServeOptions::new(&dir);
        opts.queue_bound = 4;
        opts.shed_defer_depth = 2;
        opts.ingest_delay = Duration::from_millis(3);
        // The flood connection sits idle while the prober below runs;
        // don't let the slowloris deadline cut it off under a loaded
        // test host (the deadline has its own dedicated test).
        opts.read_deadline = Some(Duration::from_secs(120));
        let h = start(opts);
        // Warm two objects and their caches.
        let mut c = ServeClient::connect(h.addr()).unwrap();
        for p in walk_pings(6, 2) {
            c.ingest_until_acked(&p).unwrap();
        }
        c.flush().unwrap();
        assert_eq!(c.colocate(0, 1, 1.0, 5.0, 3).unwrap().0, Staleness::Fresh);
        // The warm-up's resend-until-acked loop may itself have been
        // shed (acks return in microseconds, the 3 ms apply delay is
        // the bottleneck), so account for the flood as a delta.
        let busy_before = c.stats_get("shed_busy").unwrap();
        // Flood without waiting for acks: the bounded queue must push
        // back with `busy`, never grow.
        let flood: Vec<Ping> = walk_pings(80, 2).into_iter().skip(12).collect();
        let (ok, busy) = c.ingest_pipelined(&flood).unwrap();
        assert_eq!(ok + busy, flood.len() as u64, "every ping answered");
        assert!(busy > 0, "flood against a 4-deep queue must shed");
        c.flush().unwrap();
        let stats = c.stats().unwrap();
        let get = |n: &str| stats.iter().find(|(k, _)| k == n).unwrap().1;
        assert_eq!(
            get("shed_busy") - busy_before,
            busy,
            "every busy reply is counted"
        );
        assert_eq!(
            get("ingest_applied"),
            12 + ok,
            "exactly the acked pings applied — no silent drops"
        );
        // The depth gauge is approximate by one: the single consumer
        // decrements right after dequeue, so at most one dequeued ping
        // can still be counted when a producer reads the high water.
        assert!(get("queue_depth_max") <= 5, "queue bound respected");
        drop(c);
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_ladder_rung_one_answers_stale_with_marker() {
        // `shed_defer_depth = 0` pins the ladder's first rung engaged,
        // making the stale-answer path deterministic instead of a race
        // against the ingest queue draining.
        let dir = tmp_dir("shedstale");
        let mut opts = ServeOptions::new(&dir);
        opts.shed_defer_depth = 0;
        let h = start(opts);
        let mut c = ServeClient::connect(h.addr()).unwrap();
        for p in walk_pings(8, 2) {
            c.ingest_until_acked(&p).unwrap();
        }
        c.flush().unwrap();
        // Cold caches: the first query must build models (a build is
        // not a refresh, so it is never deferred) and answer fresh.
        let (stale0, v0) = c.colocate(0, 1, 1.0, 6.0, 4).unwrap();
        assert_eq!(stale0, Staleness::Fresh);
        assert!(v0 > 0.0);
        // Dirty the caches, then query again: the ladder defers the
        // rebuild and the reply carries the explicit stale marker.
        let mut extra = walk_pings(10, 2);
        extra.drain(..16);
        for p in &mut extra {
            p.seq += 16;
        }
        for p in &extra {
            c.ingest_until_acked(p).unwrap();
        }
        c.flush().unwrap();
        // Only the speed-KDE rebuild is deferred — the trajectory ring
        // still advances — so the answer is usable, just flagged.
        let (stale1, v1) = c.colocate(0, 1, 1.0, 6.0, 4).unwrap();
        assert_eq!(stale1, Staleness::Stale, "deferred refresh must be flagged");
        assert!(v1.is_finite());
        assert!(c.stats_get("refresh_deferred").unwrap() >= 2);
        assert!(c.stats_get("queries_stale").unwrap() >= 1);
        drop(c);
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_frames_are_survivable_and_counted() {
        let dir = tmp_dir("garbage");
        let h = start(ServeOptions::new(&dir));
        let mut c = ServeClient::connect(h.addr()).unwrap();
        assert_eq!(c.roundtrip("p not a ping").unwrap(), "err garbage");
        assert_eq!(c.roundtrip("wat").unwrap(), "err unknown");
        // Still serving afterwards.
        assert_eq!(c.hello().unwrap(), 0);
        assert_eq!(c.stats_get("ingest_garbage").unwrap(), 1);
        drop(c);
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_client_is_disconnected_by_the_read_deadline() {
        let dir = tmp_dir("slowloris");
        let mut opts = ServeOptions::new(&dir);
        opts.read_deadline = Some(Duration::from_millis(60));
        let h = start(opts);
        // Connect, say nothing. The server must cut us loose.
        let stream = TcpStream::connect(h.addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while h.stats().get("slow_clients") != Some(1) {
            assert!(
                std::time::Instant::now() < deadline,
                "server never enforced the read deadline"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(stream);
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_frames_hit_the_endpoint_cap() {
        let dir = tmp_dir("cap");
        let mut opts = ServeOptions::new(&dir);
        opts.frame_cap = 64;
        let h = start(opts);
        let mut c = ServeClient::connect(h.addr()).unwrap();
        let reply = c.roundtrip(&"x".repeat(65));
        assert_eq!(reply.unwrap(), "err too-large");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while h.stats().get("frames_too_large") != Some(1) {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(5));
        }
        // The poisoned connection is gone, but the server still accepts
        // fresh ones at or under the cap.
        let mut c2 = ServeClient::connect(h.addr()).unwrap();
        assert_eq!(c2.hello().unwrap(), 0);
        drop((c, c2));
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
