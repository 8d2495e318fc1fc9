//! The resilient client: resend-until-acked ingest over the frame
//! protocol.
//!
//! The client side of the durability contract is deliberately dumb:
//! every ping carries a client-assigned seq, every send is retried
//! until a matching `ok` arrives (timeouts, `busy` backpressure and
//! `err garbage` all just mean "send it again"), and after a reconnect
//! the `ready <durable>` hello reply says exactly which seqs must be
//! resent. Resends are idempotent server-side (seq dedup), so the
//! client never has to reason about which failure mode ate a frame —
//! which is what makes the chaos suites able to inject drops, dups,
//! corruption and crashes and still demand byte-identical answers.

use crate::state::{Ping, Staleness};
use crate::{f64_from_hex, f64_to_hex, ServeStats};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use sts_isolate::protocol::ProtocolError;
use sts_isolate::transport::{is_timeout, FrameConn, NetInjector};

/// How an [`ServeClient::ingest_until_acked`] call got its ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AckOutcome {
    /// `busy` backpressure replies absorbed before the ack.
    pub busy_retries: u32,
    /// Times the ping was re-sent (timeouts, garbage, busy).
    pub resends: u32,
}

/// A framed client connection with retry-based ingest.
pub struct ServeClient {
    conn: FrameConn,
    /// Pause before resending after a `busy` frame.
    pub busy_backoff: Duration,
    /// Give up after this many resends of one ping.
    pub max_resends: u32,
}

impl ServeClient {
    /// Connects with no fault injection and a 300 ms read deadline
    /// (long enough for a loaded test server, short enough to drive
    /// the resend loop under drop faults).
    pub fn connect(addr: SocketAddr) -> io::Result<ServeClient> {
        ServeClient::connect_with_injector(addr, None)
    }

    /// Connects with a chaos injector at the connection seam — the
    /// chaos suite's entry point.
    pub fn connect_with_injector(
        addr: SocketAddr,
        injector: Option<Arc<dyn NetInjector>>,
    ) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        let conn = FrameConn::with_injector(stream, injector)?;
        conn.set_read_deadline(Some(Duration::from_millis(300)))?;
        Ok(ServeClient {
            conn,
            busy_backoff: Duration::from_millis(2),
            max_resends: 400,
        })
    }

    /// Caps inbound reply frames (builder style).
    pub fn with_frame_cap(mut self, cap: usize) -> ServeClient {
        self.conn = self.conn.with_frame_cap(cap);
        self
    }

    /// Re-arms the read deadline.
    pub fn set_read_deadline(&self, deadline: Option<Duration>) -> io::Result<()> {
        self.conn.set_read_deadline(deadline)
    }

    /// Sends one frame and returns the next reply (no retries) — the
    /// raw escape hatch for protocol tests.
    pub fn roundtrip(&mut self, frame: &str) -> Result<String, ProtocolError> {
        self.conn.send(frame)?;
        self.conn.recv()
    }

    /// `hello` → the server's durable seq horizon: everything above it
    /// must be resent after a reconnect.
    pub fn hello(&mut self) -> Result<u64, ProtocolError> {
        self.conn.send("hello")?;
        loop {
            let reply = self.conn.recv()?;
            if let Some(rest) = reply.strip_prefix("ready ") {
                return rest.parse().map_err(|_| unexpected(&reply));
            }
            // Stray replies from earlier pipelined traffic: skip.
        }
    }

    /// Sends `p` and retries until the server acks that exact seq.
    /// Timeouts, `busy` frames and garbage replies all trigger a
    /// resend — safe because ingest is idempotent per seq.
    pub fn ingest_until_acked(&mut self, p: &Ping) -> Result<AckOutcome, ProtocolError> {
        let frame = p.encode();
        let mut out = AckOutcome::default();
        self.conn.send(&frame)?;
        loop {
            if out.resends > self.max_resends {
                return Err(ProtocolError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("ping seq {} never acked", p.seq),
                )));
            }
            match self.conn.recv() {
                Ok(reply) => {
                    let mut it = reply.split_whitespace();
                    let head = it.next().unwrap_or("");
                    let seq = it.next().and_then(|s| s.parse::<u64>().ok());
                    match (head, seq) {
                        ("ok", Some(s)) if s == p.seq => return Ok(out),
                        // An ack or busy for an *older* frame — a
                        // duplicate fault's second reply, or a resend
                        // that raced its own ack. Skip it.
                        ("ok", Some(_)) | ("busy", Some(_)) if seq != Some(p.seq) => {}
                        ("busy", _) => {
                            out.busy_retries += 1;
                            out.resends += 1;
                            std::thread::sleep(self.busy_backoff);
                            self.conn.send(&frame)?;
                        }
                        _ => {
                            // `err garbage` (our frame was mangled on
                            // the wire) or anything unrecognized:
                            // resend and keep listening.
                            out.resends += 1;
                            self.conn.send(&frame)?;
                        }
                    }
                }
                // Reply lost or delayed past the deadline: resend.
                Err(ref e) if is_timeout(e) => {
                    out.resends += 1;
                    self.conn.send(&frame)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fire-and-collect flood: sends every ping without waiting, then
    /// drains one reply per ping. Returns `(acked, busy)` counts —
    /// the overload test's instrument. No retries: a `busy` ping is
    /// *meant* to stay shed here.
    pub fn ingest_pipelined(&mut self, pings: &[Ping]) -> Result<(u64, u64), ProtocolError> {
        for p in pings {
            self.conn.send(&p.encode())?;
        }
        let (mut ok, mut busy) = (0u64, 0u64);
        for _ in 0..pings.len() {
            // A loaded server may stall behind its ingest delay; be
            // patient per reply but bounded overall.
            let reply = self.recv_patiently(Duration::from_secs(10))?;
            if reply.starts_with("ok ") {
                ok += 1;
            } else if reply.starts_with("busy ") {
                busy += 1;
            } else {
                return Err(unexpected(&reply));
            }
        }
        Ok((ok, busy))
    }

    fn recv_patiently(&mut self, total: Duration) -> Result<String, ProtocolError> {
        let deadline = std::time::Instant::now() + total;
        loop {
            match self.conn.recv() {
                Ok(reply) => return Ok(reply),
                Err(ref e) if is_timeout(e) && std::time::Instant::now() < deadline => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Forces a WAL group commit; returns the durable seq horizon.
    pub fn flush(&mut self) -> Result<u64, ProtocolError> {
        self.conn.send("flush")?;
        loop {
            let reply = self.recv_patiently(Duration::from_secs(30))?;
            if let Some(rest) = reply.strip_prefix("flushed ") {
                return rest.parse().map_err(|_| unexpected(&reply));
            }
            if reply.starts_with("err ") {
                return Err(unexpected(&reply));
            }
            // Stray ingest acks from pipelined traffic: skip.
        }
    }

    /// Forces a snapshot + WAL truncation; returns the covered seq.
    pub fn snapshot(&mut self) -> Result<u64, ProtocolError> {
        self.conn.send("snapshot")?;
        loop {
            let reply = self.recv_patiently(Duration::from_secs(30))?;
            if let Some(rest) = reply.strip_prefix("snapped ") {
                return rest.parse().map_err(|_| unexpected(&reply));
            }
            if reply.starts_with("err ") {
                return Err(unexpected(&reply));
            }
        }
    }

    /// Windowed co-location query; returns the raw reply frame (the
    /// unit of the byte-identical recovery comparison).
    pub fn colocate_raw(
        &mut self,
        a: u64,
        b: u64,
        t0: f64,
        t1: f64,
        steps: usize,
    ) -> Result<String, ProtocolError> {
        self.conn.send(&format!(
            "coloc {a} {b} {} {} {steps}",
            f64_to_hex(t0),
            f64_to_hex(t1)
        ))?;
        loop {
            let reply = self.recv_patiently(Duration::from_secs(30))?;
            if reply.starts_with("coloc ") || reply.starts_with("err ") {
                return Ok(reply);
            }
        }
    }

    /// Parsed [`ServeClient::colocate_raw`].
    pub fn colocate(
        &mut self,
        a: u64,
        b: u64,
        t0: f64,
        t1: f64,
        steps: usize,
    ) -> Result<(Staleness, f64), ProtocolError> {
        let reply = self.colocate_raw(a, b, t0, t1, steps)?;
        let mut it = reply.split_whitespace();
        let parsed = (|| {
            if it.next()? != "coloc" {
                return None;
            }
            let staleness = match it.next()? {
                "fresh" => Staleness::Fresh,
                "stale" => Staleness::Stale,
                _ => return None,
            };
            Some((staleness, f64_from_hex(it.next()?)?))
        })();
        parsed.ok_or_else(|| unexpected(&reply))
    }

    /// Top-k query; returns the raw reply frame.
    pub fn topk_raw(
        &mut self,
        obj: u64,
        t0: f64,
        t1: f64,
        steps: usize,
        k: usize,
    ) -> Result<String, ProtocolError> {
        self.conn.send(&format!(
            "topk {obj} {} {} {steps} {k}",
            f64_to_hex(t0),
            f64_to_hex(t1)
        ))?;
        loop {
            let reply = self.recv_patiently(Duration::from_secs(30))?;
            if reply.starts_with("topk ") || reply.starts_with("err ") {
                return Ok(reply);
            }
        }
    }

    /// Parsed [`ServeClient::topk_raw`]: `(staleness, deadline_hit,
    /// ranked (object, score) pairs)`.
    #[allow(clippy::type_complexity)]
    pub fn topk(
        &mut self,
        obj: u64,
        t0: f64,
        t1: f64,
        steps: usize,
        k: usize,
    ) -> Result<(Staleness, bool, Vec<(u64, f64)>), ProtocolError> {
        let reply = self.topk_raw(obj, t0, t1, steps, k)?;
        let mut it = reply.split_whitespace();
        let parsed = (|| {
            if it.next()? != "topk" {
                return None;
            }
            let staleness = match it.next()? {
                "fresh" => Staleness::Fresh,
                "stale" => Staleness::Stale,
                _ => return None,
            };
            let deadline = match it.next()? {
                "ok" => false,
                "deadline" => true,
                _ => return None,
            };
            // `n` comes off the wire: grow as entries parse.
            let n: usize = it.next()?.parse().ok()?;
            let mut out = Vec::new();
            for _ in 0..n {
                let id: u64 = it.next()?.parse().ok()?;
                out.push((id, f64_from_hex(it.next()?)?));
            }
            it.next().is_none().then_some((staleness, deadline, out))
        })();
        parsed.ok_or_else(|| unexpected(&reply))
    }

    /// The server's counter dump.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ProtocolError> {
        self.conn.send("stats")?;
        loop {
            let reply = self.recv_patiently(Duration::from_secs(30))?;
            if reply.starts_with("stats") {
                return ServeStats::parse(&reply).ok_or_else(|| unexpected(&reply));
            }
        }
    }

    /// One counter by name.
    pub fn stats_get(&mut self, name: &str) -> Result<u64, ProtocolError> {
        let stats = self.stats()?;
        stats
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| unexpected(&format!("no counter {name}")))
    }

    /// Asks the server to stop (replies `bye`).
    pub fn shutdown_server(&mut self) -> Result<(), ProtocolError> {
        self.conn.send("shutdown")?;
        let reply = self.recv_patiently(Duration::from_secs(30))?;
        if reply == "bye" {
            Ok(())
        } else {
            Err(unexpected(&reply))
        }
    }
}

fn unexpected(reply: &str) -> ProtocolError {
    ProtocolError::Garbage {
        message: format!("unexpected reply {reply:?}"),
    }
}
