//! Framed socket transport with an injectable network-chaos seam.
//!
//! The fleet coordinator in `sts-core` talks to its workers over TCP
//! loopback in [`protocol`](crate::protocol) frames. [`FrameConn`]
//! wraps one such connection and adds the two things a socket needs
//! that a bare frame reader does not:
//!
//! * **read deadlines** — [`FrameConn::set_read_deadline`] arms the
//!   socket's read timeout, so a silent peer surfaces as a typed
//!   timeout ([`is_timeout`]) the coordinator can convert into a lease
//!   expiry instead of blocking a slot forever;
//! * **fault injection** — an optional [`NetInjector`] is consulted
//!   once per frame, per direction, and can drop, delay, corrupt,
//!   duplicate, disconnect or wedge the connection. Production passes
//!   `None` and pays one `Option` check per frame; the network-chaos
//!   suite in `sts-robust` passes a seeded plan and then proves the
//!   sharded matrix is byte-identical anyway.
//!
//! A connection that times out mid-frame is *dead to the caller*: the
//! partial line already consumed from the stream is gone, so the only
//! sound recovery is to discard the connection (which is exactly what
//! the coordinator does — the lease has expired anyway).

use crate::protocol::{read_frame_capped, write_frame, ProtocolError, MAX_FRAME_BYTES};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Which way a frame is crossing the transport, from the wrapping
/// endpoint's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDirection {
    /// A frame this endpoint is writing to the peer.
    Send,
    /// A frame this endpoint has read from the peer.
    Recv,
}

/// One injected network fault, applied to a single frame (except
/// [`NetFault::Wedge`], which latches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The frame is silently lost. The sender believes it was
    /// delivered; the receiver never sees it.
    Drop,
    /// The frame is delivered after this extra delay.
    Delay(Duration),
    /// The frame's bytes are destroyed: on send, unframed line noise
    /// goes on the wire instead; on recv, the frame surfaces as a
    /// [`ProtocolError::Garbage`].
    Corrupt,
    /// The frame is delivered twice.
    Duplicate,
    /// The connection is torn down (both directions) and the frame
    /// lost with it.
    Disconnect,
    /// The connection wedges: every later write is swallowed and every
    /// later read times out. Models a peer that is alive but silent.
    Wedge,
}

/// Injectable chaos seam, consulted once per frame with the frame's
/// per-direction index (0-based, counting frames this endpoint has
/// sent or received over the connection's lifetime).
///
/// Returning a fault *is* the injection: the connection always applies
/// what the injector returns, so an implementation that keeps a ledger
/// can record the fault inside `fault_for` and trust the two to match.
pub trait NetInjector: Send + Sync {
    /// The fault to apply to frame `index` in direction `dir`, if any.
    fn fault_for(&self, index: u64, dir: NetDirection) -> Option<NetFault>;
}

/// The unframed bytes a send-side [`NetFault::Corrupt`] puts on the
/// wire — deliberately newline-terminated printable noise, so the
/// peer's reader resynchronizes at the next frame and classifies this
/// one as [`ProtocolError::Garbage`] rather than wedging.
pub const CORRUPT_WIRE_NOISE: &[u8] = b"@@ net fault: line noise @@\n";

/// One framed, deadline-capable, chaos-injectable connection.
pub struct FrameConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    injector: Option<Arc<dyn NetInjector>>,
    frame_cap: usize,
    sent: u64,
    received: u64,
    /// A recv-side duplicated frame waiting to be surfaced again.
    pending: Option<String>,
    wedged: bool,
}

impl FrameConn {
    /// Wraps `stream` with no fault injection (production).
    pub fn new(stream: TcpStream) -> io::Result<FrameConn> {
        FrameConn::with_injector(stream, None)
    }

    /// Wraps `stream`, consulting `injector` on every frame.
    pub fn with_injector(
        stream: TcpStream,
        injector: Option<Arc<dyn NetInjector>>,
    ) -> io::Result<FrameConn> {
        // Frames are request/response turns the peer blocks on; Nagle
        // buys nothing here and costs a delayed-ACK stall per frame.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(FrameConn {
            reader: BufReader::new(stream),
            writer,
            injector,
            frame_cap: MAX_FRAME_BYTES,
            sent: 0,
            received: 0,
            pending: None,
            wedged: false,
        })
    }

    /// Caps inbound frames at `cap` bytes (builder style). The default
    /// is the workspace-wide [`MAX_FRAME_BYTES`]; a streaming ingest
    /// endpoint sets a far smaller cap so one lying length prefix
    /// cannot balloon its memory. Over-cap frames surface as the typed
    /// [`ProtocolError::FrameTooLarge`], after which the connection
    /// must be dropped (the stream is mid-frame).
    pub fn with_frame_cap(mut self, cap: usize) -> FrameConn {
        self.frame_cap = cap;
        self
    }

    /// The inbound frame cap in force.
    pub fn frame_cap(&self) -> usize {
        self.frame_cap
    }

    /// Arms (or disarms, with `None`) the socket read timeout. A recv
    /// that exceeds the deadline fails with a timeout I/O error — see
    /// [`is_timeout`].
    pub fn set_read_deadline(&self, deadline: Option<Duration>) -> io::Result<()> {
        // `set_read_timeout(Some(ZERO))` is an error by contract;
        // treat it as the smallest meaningful deadline.
        let deadline = deadline.map(|d| d.max(Duration::from_millis(1)));
        self.reader.get_ref().set_read_timeout(deadline)
    }

    /// Frames this endpoint has sent (faulted sends count: the caller
    /// believes they were delivered).
    pub fn frames_sent(&self) -> u64 {
        self.sent
    }

    /// Frames this endpoint has received off the wire (dropped-on-recv
    /// frames count: they crossed the wire before being lost).
    pub fn frames_received(&self) -> u64 {
        self.received
    }

    /// Sends one frame, applying any injected fault.
    pub fn send(&mut self, body: &str) -> Result<(), ProtocolError> {
        let index = self.sent;
        self.sent += 1;
        if self.wedged {
            return Ok(());
        }
        match self.fault(index, NetDirection::Send) {
            None => write_frame(&mut self.writer, body)?,
            Some(NetFault::Drop) => {}
            Some(NetFault::Delay(d)) => {
                std::thread::sleep(d);
                write_frame(&mut self.writer, body)?;
            }
            Some(NetFault::Corrupt) => {
                self.writer.write_all(CORRUPT_WIRE_NOISE)?;
                self.writer.flush()?;
            }
            Some(NetFault::Duplicate) => {
                write_frame(&mut self.writer, body)?;
                write_frame(&mut self.writer, body)?;
            }
            Some(NetFault::Disconnect) => {
                let _ = self.writer.shutdown(Shutdown::Both);
                return Err(ProtocolError::Io(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected disconnect",
                )));
            }
            Some(NetFault::Wedge) => self.wedged = true,
        }
        Ok(())
    }

    /// Receives one frame, applying any injected fault. Honors the
    /// read deadline armed by [`set_read_deadline`](Self::set_read_deadline).
    pub fn recv(&mut self) -> Result<String, ProtocolError> {
        if let Some(frame) = self.pending.take() {
            return Ok(frame);
        }
        loop {
            if self.wedged {
                return Err(ProtocolError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "injected wedge",
                )));
            }
            let frame = read_frame_capped(&mut self.reader, self.frame_cap)?;
            let index = self.received;
            self.received += 1;
            match self.fault(index, NetDirection::Recv) {
                None => return Ok(frame),
                // Lost on the wire: keep waiting for the next frame.
                Some(NetFault::Drop) => continue,
                Some(NetFault::Delay(d)) => {
                    std::thread::sleep(d);
                    return Ok(frame);
                }
                Some(NetFault::Corrupt) => {
                    return Err(ProtocolError::Garbage {
                        message: "injected frame corruption".to_string(),
                    })
                }
                Some(NetFault::Duplicate) => {
                    self.pending = Some(frame.clone());
                    return Ok(frame);
                }
                Some(NetFault::Disconnect) => {
                    let _ = self.writer.shutdown(Shutdown::Both);
                    return Err(ProtocolError::Eof);
                }
                Some(NetFault::Wedge) => {
                    self.wedged = true;
                    return Err(ProtocolError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "injected wedge",
                    )));
                }
            }
        }
    }

    fn fault(&self, index: u64, dir: NetDirection) -> Option<NetFault> {
        self.injector.as_ref()?.fault_for(index, dir)
    }
}

/// Is this error a read-deadline expiry (as opposed to a dead peer or
/// garbage on the wire)? Platforms disagree on the kind a timed-out
/// socket read yields, so both are accepted.
pub fn is_timeout(err: &ProtocolError) -> bool {
    matches!(
        err,
        ProtocolError::Io(e)
            if e.kind() == io::ErrorKind::TimedOut || e.kind() == io::ErrorKind::WouldBlock
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A loopback connection pair.
    fn pair() -> (FrameConn, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (
            FrameConn::new(client).unwrap(),
            FrameConn::new(server).unwrap(),
        )
    }

    /// Scripted injector: faults exactly the listed (index, dir) slots.
    struct Script(Vec<(u64, NetDirection, NetFault)>);

    impl NetInjector for Script {
        fn fault_for(&self, index: u64, dir: NetDirection) -> Option<NetFault> {
            self.0
                .iter()
                .find(|(i, d, _)| *i == index && *d == dir)
                .map(|(_, _, f)| *f)
        }
    }

    fn pair_with_client_injector(script: Script) -> (FrameConn, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (
            FrameConn::with_injector(client, Some(Arc::new(script))).unwrap(),
            FrameConn::new(server).unwrap(),
        )
    }

    #[test]
    fn clean_frames_round_trip_both_directions() {
        let (mut a, mut b) = pair();
        a.send("chunk 1 0 64").unwrap();
        assert_eq!(b.recv().unwrap(), "chunk 1 0 64");
        b.send("result 1 0").unwrap();
        assert_eq!(a.recv().unwrap(), "result 1 0");
        assert_eq!(a.frames_sent(), 1);
        assert_eq!(a.frames_received(), 1);
    }

    #[test]
    fn read_deadline_surfaces_as_typed_timeout() {
        let (a, mut b) = pair();
        b.set_read_deadline(Some(Duration::from_millis(30)))
            .unwrap();
        let err = b.recv().unwrap_err();
        assert!(is_timeout(&err), "{err}");
        drop(a);
    }

    #[test]
    fn dropped_send_never_reaches_the_peer() {
        let (mut a, mut b) =
            pair_with_client_injector(Script(vec![(0, NetDirection::Send, NetFault::Drop)]));
        a.send("lost").unwrap();
        a.send("kept").unwrap();
        assert_eq!(b.recv().unwrap(), "kept");
    }

    #[test]
    fn corrupt_send_is_garbage_to_the_peer_who_then_resyncs() {
        let (mut a, mut b) =
            pair_with_client_injector(Script(vec![(0, NetDirection::Send, NetFault::Corrupt)]));
        a.send("mangled").unwrap();
        a.send("intact").unwrap();
        assert!(matches!(
            b.recv().unwrap_err(),
            ProtocolError::Garbage { .. }
        ));
        // The noise is newline-terminated: the next frame parses.
        assert_eq!(b.recv().unwrap(), "intact");
    }

    #[test]
    fn duplicate_faults_double_the_frame_on_both_sides() {
        let (mut a, mut b) = pair_with_client_injector(Script(vec![
            (0, NetDirection::Send, NetFault::Duplicate),
            (2, NetDirection::Recv, NetFault::Duplicate),
        ]));
        a.send("twice").unwrap();
        assert_eq!(b.recv().unwrap(), "twice");
        assert_eq!(b.recv().unwrap(), "twice");
        for _ in 0..3 {
            b.send("reply").unwrap();
        }
        assert_eq!(a.recv().unwrap(), "reply"); // recv index 0
        assert_eq!(a.recv().unwrap(), "reply"); // recv index 1
        assert_eq!(a.recv().unwrap(), "reply"); // recv index 2, duplicated
        assert_eq!(a.recv().unwrap(), "reply"); // the duplicate
        assert_eq!(a.frames_received(), 3, "wire saw three frames");
    }

    #[test]
    fn recv_drop_skips_to_the_next_frame() {
        let (mut a, mut b) =
            pair_with_client_injector(Script(vec![(0, NetDirection::Recv, NetFault::Drop)]));
        b.send("eaten").unwrap();
        b.send("delivered").unwrap();
        assert_eq!(a.recv().unwrap(), "delivered");
    }

    #[test]
    fn disconnect_tears_the_connection_down() {
        let (mut a, mut b) =
            pair_with_client_injector(Script(vec![(0, NetDirection::Send, NetFault::Disconnect)]));
        assert!(a.send("doomed").is_err());
        assert!(matches!(b.recv().unwrap_err(), ProtocolError::Eof));
    }

    #[test]
    fn wedge_latches_swallowing_writes_and_timing_out_reads() {
        let (mut a, mut b) =
            pair_with_client_injector(Script(vec![(1, NetDirection::Send, NetFault::Wedge)]));
        a.send("before").unwrap();
        a.send("wedges here").unwrap();
        a.send("swallowed").unwrap();
        assert!(is_timeout(&a.recv().unwrap_err()));
        b.set_read_deadline(Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(b.recv().unwrap(), "before");
        assert!(is_timeout(&b.recv().unwrap_err()), "nothing else arrives");
    }
}
