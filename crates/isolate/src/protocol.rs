//! The length-prefixed line protocol between coordinator and worker.
//!
//! Same zero-dependency text style as the matrix tile and
//! `sts-traj::io` formats, with one addition: every frame carries its
//! own byte length up front, so the reader can tell a *torn* or
//! *garbage* frame from a merely unexpected one.
//!
//! ```text
//! <len> <body>\n
//! ```
//!
//! `<len>` is the decimal byte length of `<body>` (exclusive of the
//! separating space and the trailing newline). A frame whose length
//! field is non-numeric, whose body is shorter or longer than
//! declared, or whose terminator is missing is a [`ProtocolError`] —
//! the signal the coordinator uses to classify a worker as emitting
//! garbage and discard it.
//!
//! The body itself is a whitespace-separated record in the in-repo
//! text style (`chunk 3 128 64`, `result 3 64 …`); this module only
//! frames and unframes, it does not interpret bodies.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Longest body the default reader will allocate for (64 MiB). A
/// garbage length field must not become an OOM — the same
/// untrusted-count guard the lenient trajectory reader uses. Endpoints
/// with a tighter budget (a streaming ingest server does not want to
/// buffer a 64 MiB "ping") pass their own cap to
/// [`read_frame_capped`].
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A protocol violation: the peer's bytes do not form a valid frame.
#[derive(Debug)]
pub enum ProtocolError {
    /// Underlying I/O failure (broken pipe when the peer died, …).
    Io(io::Error),
    /// The stream ended cleanly where a frame was expected.
    Eof,
    /// The bytes on the wire do not parse as a frame.
    Garbage {
        /// What was wrong with them.
        message: String,
    },
    /// The frame exceeds the endpoint's byte cap — either its declared
    /// length field, or the raw line itself before a terminator was
    /// seen. The oversize bytes were *not* buffered; the stream is
    /// mid-frame and the only sound recovery is to drop the connection.
    FrameTooLarge {
        /// The declared body length (or, for an unterminated line, the
        /// number of bytes observed before giving up).
        declared: usize,
        /// The cap in force at this endpoint.
        cap: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol I/O error: {e}"),
            ProtocolError::Eof => write!(f, "unexpected end of stream"),
            ProtocolError::Garbage { message } => write!(f, "garbage frame: {message}"),
            ProtocolError::FrameTooLarge { declared, cap } => {
                write!(f, "frame of {declared} byte(s) exceeds the {cap}-byte cap")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Writes one frame (`<len> <body>\n`) and flushes. Flushing per frame
/// is deliberate: frames are small, rare relative to the chunk work
/// they describe, and the peer blocks on them.
///
/// The frame is staged in one buffer and written with a single
/// `write_all`: formatting straight into an unbuffered `TcpStream`
/// emits one segment per format fragment, and Nagle + delayed-ACK
/// turns that into ~40 ms per stall on loopback.
pub fn write_frame<W: Write>(w: &mut W, body: &str) -> io::Result<()> {
    debug_assert!(!body.contains('\n'), "frame bodies are single-line");
    let mut line = String::with_capacity(body.len() + 12);
    use std::fmt::Write as _;
    let _ = write!(line, "{} {body}\n", body.len());
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Reads one frame, validating the length prefix against the body,
/// under the workspace-default [`MAX_FRAME_BYTES`] cap.
pub fn read_frame<R: BufRead>(r: &mut R) -> Result<String, ProtocolError> {
    read_frame_capped(r, MAX_FRAME_BYTES)
}

/// Reads one frame under an endpoint-specific byte cap.
///
/// The cap bounds *allocation*, not just acceptance: both the declared
/// length field and the raw wire line are checked as bytes stream in,
/// so neither a lying length prefix nor an endless unterminated line
/// can make this endpoint buffer more than `cap` bytes (plus the few
/// bytes of prefix framing). A breach is the typed
/// [`ProtocolError::FrameTooLarge`]; the stream is mid-frame at that
/// point, so callers must discard the connection.
pub fn read_frame_capped<R: BufRead>(r: &mut R, cap: usize) -> Result<String, ProtocolError> {
    // Room for "<len> " and the '\n' on top of a cap-sized body: the
    // length field of a cap-sized frame is at most 20 digits.
    let wire_cap = cap.saturating_add(24);
    let mut raw: Vec<u8> = Vec::new();
    let terminated = loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            if raw.is_empty() {
                return Err(ProtocolError::Eof);
            }
            break false;
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if raw.len() + pos > wire_cap {
                    let declared = raw.len() + pos;
                    return Err(ProtocolError::FrameTooLarge { declared, cap });
                }
                raw.extend_from_slice(&buf[..pos]);
                r.consume(pos + 1);
                break true;
            }
            None => {
                let n = buf.len();
                if raw.len() + n > wire_cap {
                    // Oversize before any terminator: stop buffering
                    // now. The unread remainder stays in the stream
                    // (the connection is poisoned by contract).
                    let declared = raw.len() + n;
                    r.consume(n);
                    return Err(ProtocolError::FrameTooLarge { declared, cap });
                }
                raw.extend_from_slice(buf);
                r.consume(n);
            }
        }
    };
    let garbage = |message: String| ProtocolError::Garbage { message };
    let line = String::from_utf8(raw).map_err(|e| {
        garbage(format!(
            "frame is not UTF-8 ({} byte(s))",
            e.as_bytes().len()
        ))
    })?;
    if !terminated {
        return Err(garbage(format!(
            "missing newline terminator after {} byte(s)",
            line.len()
        )));
    }
    let Some((len_field, body)) = line.split_once(' ') else {
        return Err(garbage(format!(
            "no length prefix in {:?}",
            truncate_for_error(&line)
        )));
    };
    let declared: usize = len_field.parse().map_err(|_| {
        garbage(format!(
            "non-numeric length {:?}",
            truncate_for_error(len_field)
        ))
    })?;
    if declared > cap {
        return Err(ProtocolError::FrameTooLarge { declared, cap });
    }
    if declared != body.len() {
        return Err(garbage(format!(
            "declared length {declared} but body has {} byte(s)",
            body.len()
        )));
    }
    Ok(body.to_string())
}

/// First few bytes of a bad frame, for error messages (garbage can be
/// arbitrarily long binary noise).
fn truncate_for_error(s: &str) -> String {
    let mut t: String = s.chars().take(32).collect();
    if t.len() < s.len() {
        t.push('…');
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(body: &str) -> String {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, body).unwrap();
        read_frame(&mut bytes.as_slice()).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        for body in ["ready", "", "chunk 3 128 64", "result 0 1 17 s 0.25"] {
            assert_eq!(round_trip(body), body);
        }
    }

    #[test]
    fn multiple_frames_stream() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, "a").unwrap();
        write_frame(&mut bytes, "bb cc").unwrap();
        let mut r = bytes.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), "a");
        assert_eq!(read_frame(&mut r).unwrap(), "bb cc");
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Eof)));
    }

    #[test]
    fn garbage_is_detected() {
        for (wire, why) in [
            ("hello world\n", "non-numeric length"),
            ("5 abc\n", "declared length 5 but body has 3"),
            ("2 abc\n", "declared length 2 but body has 3"),
            ("nolengthprefix\n", "no length prefix"),
            ("3 abc", "missing newline"),
            ("99999999999999999999 x\n", "non-numeric length"),
            ("999999999999 x\n", "exceeds"),
        ] {
            let err = read_frame(&mut wire.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(why), "{wire:?} -> {msg} (wanted {why:?})");
        }
    }

    #[test]
    fn binary_noise_is_garbage_not_a_panic() {
        // Invalid UTF-8 and printable noise both land in a typed
        // Garbage error, never a panic.
        let noise: &[u8] = &[0xFF, 0xFE, 0x00, b'\n'];
        assert!(matches!(
            read_frame(&mut &noise[..]),
            Err(ProtocolError::Garbage { .. })
        ));
        let printable = "!!!###$$$\n";
        assert!(matches!(
            read_frame(&mut printable.as_bytes()),
            Err(ProtocolError::Garbage { .. })
        ));
    }

    #[test]
    fn endpoint_cap_boundary_is_exact() {
        let cap = 64usize;
        // A body of exactly `cap` bytes passes.
        let body = "x".repeat(cap);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        assert_eq!(read_frame_capped(&mut wire.as_slice(), cap).unwrap(), body);
        // One byte more is the typed FrameTooLarge, carrying both the
        // declared length and the cap in force.
        let body = "x".repeat(cap + 1);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let err = read_frame_capped(&mut wire.as_slice(), cap).unwrap_err();
        assert!(
            matches!(
                err,
                ProtocolError::FrameTooLarge { declared, cap: c } if declared == cap + 1 && c == cap
            ),
            "{err}"
        );
    }

    #[test]
    fn lying_length_prefix_is_too_large_without_allocation() {
        // A declared length over the cap is rejected from the prefix
        // alone — the (short) wire line never allocates `declared`.
        let wire = "4096 tiny\n";
        let err = read_frame_capped(&mut wire.as_bytes(), 64).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::FrameTooLarge {
                declared: 4096,
                cap: 64
            }
        ));
    }

    #[test]
    fn unterminated_flood_is_bounded_by_the_cap() {
        // A slowloris-style endless line with no newline must not
        // buffer past the cap: the reader gives up with the typed
        // error after ~cap bytes, leaving the rest unread.
        let flood = vec![b'z'; 1 << 16];
        let mut r = std::io::BufReader::with_capacity(256, &flood[..]);
        let err = read_frame_capped(&mut r, 64).unwrap_err();
        assert!(
            matches!(err, ProtocolError::FrameTooLarge { cap: 64, .. }),
            "{err}"
        );
    }

    #[test]
    fn default_cap_is_max_frame_bytes() {
        // `read_frame` keeps the historical 64 MiB default.
        let wire = format!("{} x\n", MAX_FRAME_BYTES + 1);
        let err = read_frame(&mut wire.as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::FrameTooLarge {
                cap: MAX_FRAME_BYTES,
                ..
            }
        ));
    }
}
