//! The frame codec under a byte-level adversary.
//!
//! Property tests (via the in-repo `sts_rng::check` harness) for the
//! length-prefixed frame protocol: arbitrary bodies round-trip, the
//! 64 MiB cap is enforced exactly at the boundary, truncated wire
//! bytes never parse as a frame, and a reader on a real loopback
//! socket resynchronizes after garbage-prefix noise — the property the
//! fleet coordinator's garbage-worker containment and corrupt-frame
//! accounting both rest on.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use sts_isolate::protocol::{read_frame, write_frame, ProtocolError};
use sts_isolate::MAX_FRAME_BYTES;
use sts_rng::check::{map, vec_of, Checker, Strategy};
use sts_rng::{prop_assert, prop_assert_eq};

/// Frame bodies: printable characters including spaces (the in-repo
/// record separator), never a newline.
const BODY_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 .:-+/";

/// Garbage-prefix noise: printable, newline-free, and digit-free, so a
/// noise line can never accidentally form a valid length prefix.
const NOISE_ALPHABET: &[u8] = b"abcxyz!@#$%^&*() ";

fn text(
    alphabet: &'static [u8],
    len: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = String> {
    map(vec_of(0usize..alphabet.len(), len), move |idxs| {
        idxs.iter()
            .map(|&i| alphabet[i] as char)
            .collect::<String>()
    })
}

fn body_strategy() -> impl Strategy<Value = String> {
    text(BODY_ALPHABET, 0..=160)
}

#[test]
fn every_body_round_trips_exactly() {
    Checker::new()
        .cases(128)
        .seed(0xF7A3_0001)
        .run(body_strategy(), |body| {
            let mut wire = Vec::new();
            write_frame(&mut wire, &body).map_err(|e| e.to_string())?;
            let got = read_frame(&mut wire.as_slice()).map_err(|e| e.to_string())?;
            prop_assert_eq!(got, body);
            Ok(())
        });
}

#[test]
fn cap_boundary_round_trips_and_one_past_is_garbage() {
    // Exactly at the cap: a legal frame, read back intact.
    let body = "a".repeat(MAX_FRAME_BYTES);
    let mut wire = Vec::with_capacity(MAX_FRAME_BYTES + 16);
    write_frame(&mut wire, &body).unwrap();
    let got = read_frame(&mut wire.as_slice()).unwrap();
    assert_eq!(got.len(), MAX_FRAME_BYTES);
    assert_eq!(got, body);

    // One byte past the cap: rejected by the declared-length guard
    // (the untrusted-count defense — a liar's length must not drive
    // allocation or acceptance).
    let mut over = format!("{} ", MAX_FRAME_BYTES + 1).into_bytes();
    over.resize(over.len() + MAX_FRAME_BYTES + 1, b'b');
    over.push(b'\n');
    let err = read_frame(&mut over.as_slice()).unwrap_err();
    assert!(
        matches!(
            &err,
            ProtocolError::FrameTooLarge { declared, cap }
                if *declared == MAX_FRAME_BYTES + 1 && *cap == MAX_FRAME_BYTES
        ),
        "{err}"
    );
}

#[test]
fn truncated_frames_never_parse() {
    Checker::new().cases(128).seed(0xF7A3_0002).run(
        (body_strategy(), 0usize..100_000),
        |(body, cut)| {
            let mut wire = Vec::new();
            write_frame(&mut wire, &body).map_err(|e| e.to_string())?;
            // Truncate strictly before the end: at least the newline
            // terminator is missing.
            let cut = cut % wire.len();
            let result = read_frame(&mut &wire[..cut]);
            prop_assert!(
                result.is_err(),
                "frame truncated at {cut}/{} bytes parsed as {result:?}",
                wire.len()
            );
            Ok(())
        },
    );
}

#[test]
fn reader_resyncs_after_garbage_prefix_over_a_loopback_socket() {
    Checker::new().cases(24).seed(0xF7A3_0003).run(
        (vec_of(text(NOISE_ALPHABET, 0..=40), 1..=5), body_strategy()),
        |(noise_lines, body)| {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            let writer = std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                for line in &noise_lines {
                    s.write_all(line.as_bytes()).expect("noise");
                    s.write_all(b"\n").expect("noise");
                }
                write_frame(&mut s, &body).expect("frame");
                (noise_lines, body)
            });
            let (conn, _) = listener.accept().map_err(|e| e.to_string())?;
            let mut reader = BufReader::new(conn);
            let mut garbage_seen = 0usize;
            let frame = loop {
                match read_frame(&mut reader) {
                    Ok(frame) => break frame,
                    // Newline-terminated noise: one typed error per
                    // line, then the reader is aligned again.
                    Err(ProtocolError::Garbage { .. }) => garbage_seen += 1,
                    Err(e) => return Err(format!("unexpected error: {e}")),
                }
            };
            let (noise_lines, body) = writer.join().expect("writer thread");
            prop_assert_eq!(frame, body);
            prop_assert_eq!(garbage_seen, noise_lines.len());
            Ok(())
        },
    );
}
