//! Chaos suite for the streaming co-location service (`sts-serve`):
//! seeded network and disk faults injected at the server's two
//! external seams — the framed transport and the [`Storage`] trait —
//! with injections reconciled against the server's counters *exactly*
//! wherever the fault class admits it.
//!
//! The invariants under attack:
//!
//! * **Exact network accounting** — with faults injected only on the
//!   client→server direction of a ping-only connection, every corrupt
//!   frame surfaces as exactly one counted garbage frame, every
//!   duplicate as exactly one counted dup, and every distinct ping is
//!   applied exactly once; query answers are byte-identical to an
//!   uninjected reference server fed the same pings.
//! * **Full-duplex survival** — with every fault class firing both
//!   ways (drops, delays, corruption, duplicates, disconnects,
//!   wedges), a reconnecting resend-until-acked client still lands
//!   every ping exactly once and the server keeps serving.
//! * **Exact disk accounting** — torn and bit-flipped writes (which
//!   report success) are each caught by read-back verification, and
//!   honest write errors are each retried, with the WAL and snapshot
//!   counters matching the injected ledger split by artifact; a clean
//!   restart of the battered directory answers byte-identically and
//!   leaves no tmp debris.
//! * **Frame fuzz** — seeded byte-mangled frames (flips, deletions,
//!   duplicated lines) never take the server down.
//!
//! Every seeded assertion embeds its seed, so a CI failure (the
//! `serve_chaos` step of `scripts/ci.sh`) is replayable.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use sts_isolate::protocol::write_frame;
use sts_isolate::{NetDirection, NetFault, NetInjector};
use sts_rng::{Rng, Xoshiro256pp};
use sts_robust::{ByteMangler, DiskFault, DiskFaultPlan, FaultyStorage, NetChaos, NetFaultPlan};
use sts_runtime::{FsStorage, Storage};
use sts_serve::{Ping, ServeClient, ServeOptions, Server, ServerHandle};

fn tmp_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sts-serve-chaos-{tag}-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(opts: ServeOptions, storage: Arc<dyn Storage>) -> ServerHandle {
    Server::start(opts, storage, "127.0.0.1:0").unwrap()
}

/// Seeded random-walk pings over `objects` objects, seq 1..=n*objects.
fn corpus(seed: u64, rounds: u64, objects: u64) -> Vec<Ping> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut pos: Vec<(f64, f64)> = (0..objects)
        .map(|_| (rng.random_range(20.0..80.0), rng.random_range(20.0..80.0)))
        .collect();
    let mut out = Vec::new();
    let mut seq = 0;
    for i in 0..rounds {
        for obj in 0..objects {
            let p = &mut pos[obj as usize];
            p.0 = (p.0 + rng.random_range(-3.0..3.0)).clamp(0.5, 99.5);
            p.1 = (p.1 + rng.random_range(-3.0..3.0)).clamp(0.5, 99.5);
            seq += 1;
            out.push(Ping {
                seq,
                obj,
                t: i as f64 * 4.0 + 0.5 * obj as f64,
                x: p.0,
                y: p.1,
            });
        }
    }
    out
}

/// The query set whose raw replies are the unit of byte-identity
/// comparisons across servers and restarts.
fn probe(c: &mut ServeClient, t_hi: f64) -> Vec<String> {
    vec![
        c.colocate_raw(0, 1, 2.0, t_hi, 7).unwrap(),
        c.colocate_raw(1, 2, 0.0, t_hi / 2.0, 4).unwrap(),
        c.topk_raw(0, 1.0, t_hi, 6, 3).unwrap(),
    ]
}

/// Forwards faults only on the client→server direction, so the ledger
/// counts exactly the faults the *server's ingest path* experienced.
struct SendOnly(Arc<NetChaos>);

impl NetInjector for SendOnly {
    fn fault_for(&self, index: u64, dir: NetDirection) -> Option<NetFault> {
        match dir {
            NetDirection::Send => self.0.fault_for(index, dir),
            NetDirection::Recv => None,
        }
    }
}

/// Exact reconciliation: faults on the ping path only, no delays (a
/// delayed reply would trigger a resend and muddy the dup count), no
/// disconnects/wedges (those end the connection, not the accounting).
/// Every corrupt fault must surface as one garbage frame, every
/// duplicate as one dup, and the final answers must match a fault-free
/// reference byte for byte.
#[test]
fn send_chaos_reconciles_exactly_against_reference() {
    let mut faults_fired_somewhere = 0usize;
    for seed in 0..4u64 {
        let pings = corpus(0xC0C0_0000 ^ seed, 20, 3);
        let n = pings.len() as u64;
        let t_hi = 20.0 * 4.0;

        // Reference run: same pings, no injector.
        let ref_dir = tmp_dir("netref", seed);
        let href = start(ServeOptions::new(&ref_dir), Arc::new(FsStorage));
        let mut cref = ServeClient::connect(href.addr()).unwrap();
        for p in &pings {
            cref.ingest_until_acked(p).unwrap();
        }
        cref.flush().unwrap();
        let want = probe(&mut cref, t_hi);
        drop(cref);
        href.shutdown();
        let _ = std::fs::remove_dir_all(&ref_dir);

        // Chaos run: the injected connection carries only `p` frames;
        // flush/queries/stats ride a clean second connection so the
        // ledger maps one-to-one onto the ingest counters.
        let chaos = Arc::new(NetChaos::new(NetFaultPlan {
            drop_per_mille: 40,
            corrupt_per_mille: 40,
            duplicate_per_mille: 40,
            ..NetFaultPlan::none(0x5E4D_C4A0 ^ seed)
        }));
        let dir = tmp_dir("netchaos", seed);
        let h = start(ServeOptions::new(&dir), Arc::new(FsStorage));
        let mut dirty = ServeClient::connect_with_injector(
            h.addr(),
            Some(Arc::new(SendOnly(Arc::clone(&chaos)))),
        )
        .unwrap();
        // A dropped ping costs one full read-deadline before the
        // resend; keep it short enough for CI, long enough that a
        // merely-slow reply is never mistaken for a drop (a spurious
        // resend would inflate the dup count and break exactness).
        dirty
            .set_read_deadline(Some(Duration::from_secs(1)))
            .unwrap();
        for p in &pings {
            dirty.ingest_until_acked(p).unwrap();
        }
        let mut clean = ServeClient::connect(h.addr()).unwrap();
        assert_eq!(clean.flush().unwrap(), n, "seed {seed}: all pings durable");
        let got = probe(&mut clean, t_hi);
        assert_eq!(
            got, want,
            "seed {seed}: answers under send-chaos must match the reference"
        );
        let counts = chaos.counts();
        faults_fired_somewhere += counts.total();
        let stats = h.stats();
        assert_eq!(
            stats.get("ingest_applied"),
            Some(n),
            "seed {seed}: every distinct ping applied exactly once"
        );
        assert_eq!(
            stats.get("ingest_garbage"),
            Some(counts.corrupted as u64),
            "seed {seed}: every corrupt frame surfaces as one garbage frame"
        );
        assert_eq!(
            stats.get("ingest_dup"),
            Some(counts.duplicated as u64),
            "seed {seed}: every duplicated frame surfaces as one dup"
        );
        assert_eq!(
            stats.get("shed_busy"),
            Some(0),
            "seed {seed}: no overload here"
        );
        assert_eq!(
            counts.delayed + counts.disconnected + counts.wedged,
            0,
            "seed {seed}: plan only fires drop/corrupt/duplicate"
        );
        drop((dirty, clean));
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        faults_fired_somewhere > 0,
        "rates must actually fire across the seeds or the suite proves nothing"
    );
}

/// Survival under every fault class both ways: the client reconnects
/// through disconnects and wedges, resends through drops and garbage,
/// and every ping still lands exactly once.
#[test]
fn full_duplex_chaos_lands_every_ping_exactly_once() {
    for seed in 0..3u64 {
        let pings = corpus(0xD0_0D ^ seed, 12, 2);
        let n = pings.len() as u64;
        let chaos = Arc::new(NetChaos::new(NetFaultPlan {
            drop_per_mille: 30,
            delay_per_mille: 30,
            corrupt_per_mille: 30,
            duplicate_per_mille: 30,
            disconnect_per_mille: 20,
            wedge_per_mille: 10,
            delay: Duration::from_millis(5),
            ..NetFaultPlan::none(0xF0_11 ^ seed)
        }));
        let dir = tmp_dir("duplex", seed);
        let h = start(ServeOptions::new(&dir), Arc::new(FsStorage));
        let mut next = 0usize;
        let mut sessions = 0u32;
        while next < pings.len() {
            sessions += 1;
            assert!(
                sessions < 300,
                "seed {seed}: {next}/{} pings after {sessions} sessions",
                pings.len()
            );
            let Ok(mut c) = ServeClient::connect_with_injector(
                h.addr(),
                Some(Arc::clone(&chaos) as Arc<dyn NetInjector>),
            ) else {
                continue;
            };
            // Fail fast on a wedged connection: a handful of resends
            // against silence, then reconnect.
            c.max_resends = 4;
            let _ = c.set_read_deadline(Some(Duration::from_millis(150)));
            while next < pings.len() {
                match c.ingest_until_acked(&pings[next]) {
                    Ok(_) => next += 1,
                    Err(_) => break, // reconnect through the fault
                }
            }
        }
        let mut clean = ServeClient::connect(h.addr()).unwrap();
        assert_eq!(clean.flush().unwrap(), n, "seed {seed}: all pings durable");
        let stats = h.stats();
        assert_eq!(
            stats.get("ingest_applied"),
            Some(n),
            "seed {seed}: exactly-once apply despite resends and dups"
        );
        let (_, v) = clean.colocate(0, 1, 2.0, 40.0, 5).unwrap();
        assert!(v.is_finite(), "seed {seed}: still answering queries");
        assert!(
            chaos.counts().total() > 0,
            "seed {seed}: the duplex plan must actually fire"
        );
        drop(clean);
        h.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn under(path: &Path, dir_name: &str) -> bool {
    path.components()
        .any(|c| c.as_os_str().to_str() == Some(dir_name))
}

fn ledger_split(faulty: &FaultyStorage, dir_name: &str) -> (u64, u64) {
    let mut silent = 0u64; // reported success, corrupted payload
    let mut honest = 0u64; // reported an error
    for f in faulty.injected() {
        if !under(&f.path, dir_name) {
            continue;
        }
        match f.fault {
            DiskFault::TornWrite | DiskFault::BitFlip => silent += 1,
            DiskFault::Enospc | DiskFault::StaleTmp => honest += 1,
        }
    }
    (silent, honest)
}

/// Exact disk reconciliation: every silent corruption (torn write,
/// bit flip) is caught by read-back verification and every honest
/// error is retried, per artifact; then a clean restart of the
/// battered directory answers byte-identically with no tmp debris.
#[test]
fn disk_chaos_reconciles_exactly_and_recovers_clean() {
    for seed in 0..3u64 {
        let pings = corpus(0xD15C ^ seed, 25, 2);
        let n = pings.len() as u64;
        let t_hi = 25.0 * 4.0;
        let dir = tmp_dir("disk", seed);
        let faulty = Arc::new(FaultyStorage::new(DiskFaultPlan {
            torn_per_mille: 60,
            flip_per_mille: 60,
            enospc_per_mille: 60,
            stale_per_mille: 60,
            ..DiskFaultPlan::none(0xBAD_D15C ^ seed)
        }));
        let mut opts = ServeOptions::new(&dir);
        opts.commit_every = 2;
        opts.segment_records = 16;
        opts.snapshot_every = 20;
        let h = start(opts, Arc::clone(&faulty) as Arc<dyn Storage>);
        let mut c = ServeClient::connect(h.addr()).unwrap();
        for p in &pings {
            c.ingest_until_acked(p).unwrap();
        }
        assert_eq!(c.flush().unwrap(), n, "seed {seed}");
        c.snapshot().unwrap();
        let want = probe(&mut c, t_hi);
        drop(c);
        let stats = h.stats();
        h.shutdown();
        // Reconcile after shutdown: the ledger and the counters are
        // both final, and commit-with-empty-pending writes nothing.
        let (wal_silent, wal_honest) = ledger_split(&faulty, "wal");
        let (snap_silent, snap_honest) = ledger_split(&faulty, "snap");
        assert!(
            faulty.injected().len() > 4,
            "seed {seed}: the disk plan must actually fire"
        );
        assert_eq!(
            stats.get("wal_verify_failed"),
            Some(wal_silent),
            "seed {seed}: every silent WAL corruption caught by read-back"
        );
        assert_eq!(
            stats.get("wal_append_errors"),
            Some(wal_honest),
            "seed {seed}: every honest WAL write error retried"
        );
        assert_eq!(
            stats.get("snapshot_verify_failed"),
            Some(snap_silent),
            "seed {seed}: every silent snapshot corruption caught"
        );
        assert_eq!(
            stats.get("snapshot_write_errors"),
            Some(snap_honest),
            "seed {seed}: every honest snapshot write error retried"
        );
        // Clean restart over the battered directory: same answers,
        // no debris.
        let h2 = start(ServeOptions::new(&dir), Arc::new(FsStorage));
        assert_eq!(h2.durable_seq(), n, "seed {seed}: nothing acked was lost");
        let mut c2 = ServeClient::connect(h2.addr()).unwrap();
        assert_eq!(
            probe(&mut c2, t_hi),
            want,
            "seed {seed}: recovery from a fault-battered disk is byte-identical"
        );
        drop(c2);
        h2.shutdown();
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let p = entry.unwrap().path();
                if p.is_dir() {
                    stack.push(p);
                } else {
                    assert!(
                        p.extension().map(|e| e != "tmp").unwrap_or(true),
                        "seed {seed}: tmp debris survived recovery: {}",
                        p.display()
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Seeded frame fuzz: barrages of byte-mangled (flipped, torn,
/// line-duplicated) frames must never take the server down — after
/// every barrage a fresh clean client still gets served.
#[test]
fn mangled_frames_never_kill_the_server() {
    let dir = tmp_dir("fuzz", 0);
    let h = start(ServeOptions::new(&dir), Arc::new(FsStorage));
    let mangler = ByteMangler::default();
    let templates = [
        "p 1 0 4010000000000000 4024000000000000 4034000000000000",
        "coloc 0 1 4000000000000000 4024000000000000 5",
        "topk 0 4000000000000000 4024000000000000 5 3",
        "hello",
        "stats",
        "flush",
    ];
    for seed in 0..6u64 {
        let mut rng = Xoshiro256pp::seed_from_u64(0xF422 ^ seed);
        // Writes may fail once the server cuts a poisoned connection;
        // that is the server defending itself, not a test failure.
        if let Ok(mut stream) = TcpStream::connect(h.addr()) {
            for _ in 0..24 {
                let template = templates[rng.random_range(0..templates.len())];
                let mut bytes = Vec::new();
                write_frame(&mut bytes, template).unwrap();
                mangler.mangle(&mut bytes, &mut rng);
                if stream.write_all(&bytes).is_err() {
                    break;
                }
            }
        }
        // The server must still be serving after every barrage.
        let mut c = ServeClient::connect(h.addr()).unwrap();
        let p = Ping {
            seq: 1000 + seed,
            obj: 9,
            t: seed as f64,
            x: 50.0,
            y: 50.0,
        };
        c.ingest_until_acked(&p).unwrap();
        // `ok <seq>` means queued, not applied: flush before reading a
        // counter, as every other serve test does.
        c.flush().unwrap();
        assert!(
            c.stats_get("ingest_applied").unwrap() >= seed + 1,
            "seed {seed}: server lost pings after fuzz"
        );
        drop(c);
    }
    h.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
