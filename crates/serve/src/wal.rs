//! Segmented write-ahead log for the ingest path.
//!
//! Design: the WAL is a directory of **whole-file-atomic segments**
//! (`seg-<idx>.log`) written through the [`Storage`] discipline the
//! matrix tiles use (tmp → fsync → rename → dir-fsync). There is
//! no appending-in-place: each group commit rewrites the *active*
//! segment in full, which keeps every byte on disk covered by one
//! atomic rename — a SIGKILL can lose the in-flight commit (whose
//! pings the client has not been acked for and will resend) but can
//! never tear a record in half. Segments are bounded
//! (`segment_records`), so the rewrite cost is bounded too; a full
//! segment is sealed and a new one started.
//!
//! Every segment carries a header (`walseg <idx> <count>`) and a
//! trailer (`end <count> <fnv64-hex>`) whose FNV-1a digest covers the
//! record bytes, and every commit is **read back and byte-compared**
//! before the records are considered durable — the only defense that
//! catches a torn or bit-flipped write that reported success
//! (`FaultyStorage` injects exactly those). Failed or unverifiable
//! writes are retried with exact accounting: `wal_verify_failed` for
//! read-back mismatches, `wal_append_errors` for outright I/O errors,
//! which the chaos suite reconciles against the injected-fault ledger.
//!
//! After a verified snapshot covers everything, [`Wal::truncate_all`]
//! deletes every segment and starts fresh. Recovery
//! ([`Wal::open`]) scans segments in index order, verifies each,
//! quarantines corrupt ones aside as `.corrupt` (keep the evidence,
//! keep serving) and returns the surviving records for replay.

use crate::{ServeError, ServeStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use sts_runtime::{Fnv1a, Storage};

/// Cap on write→verify retries per commit before declaring storage
/// unusable. Chaos plans inject faults far more sparsely than this.
const MAX_COMMIT_ATTEMPTS: u32 = 64;

fn seg_path(dir: &Path, idx: u64) -> PathBuf {
    dir.join(format!("seg-{idx}.log"))
}

fn digest_records(records: &[String]) -> u64 {
    let mut h = Fnv1a::new();
    for r in records {
        h.write(r.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

fn encode_segment(idx: u64, records: &[String]) -> String {
    let mut out = format!("walseg {idx} {}\n", records.len());
    for r in records {
        out.push_str(r);
        out.push('\n');
    }
    out.push_str(&format!(
        "end {} {:016x}\n",
        records.len(),
        digest_records(records)
    ));
    out
}

/// Parses and verifies one segment file. `Err` carries the reason the
/// segment is untrustworthy.
fn decode_segment(idx: u64, bytes: &[u8]) -> Result<Vec<String>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut lines: Vec<&str> = text.lines().collect();
    if lines.len() < 2 {
        return Err(format!("only {} line(s)", lines.len()));
    }
    let trailer = lines.pop().expect("len checked");
    let header = lines.remove(0);
    let mut h = header.split_whitespace();
    if h.next() != Some("walseg") {
        return Err(format!("bad header {header:?}"));
    }
    let hidx: u64 = h
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("bad header index")?;
    let hcount: usize = h
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("bad header count")?;
    if hidx != idx {
        return Err(format!("header index {hidx} != filename index {idx}"));
    }
    if hcount != lines.len() {
        return Err(format!(
            "header count {hcount} != {} record(s)",
            lines.len()
        ));
    }
    let mut t = trailer.split_whitespace();
    if t.next() != Some("end") {
        return Err(format!("bad trailer {trailer:?} (truncated segment)"));
    }
    let tcount: usize = t
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or("bad trailer count")?;
    let tdigest = t
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("bad trailer digest")?;
    if tcount != lines.len() {
        return Err(format!(
            "trailer count {tcount} != {} record(s)",
            lines.len()
        ));
    }
    let records: Vec<String> = lines.into_iter().map(str::to_string).collect();
    let actual = digest_records(&records);
    if actual != tdigest {
        return Err(format!(
            "digest mismatch: trailer {tdigest:016x}, records {actual:016x}"
        ));
    }
    Ok(records)
}

/// The ingest thread's write-ahead log. Single-writer by construction
/// (owned by the ingest thread, never shared).
pub struct Wal {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    stats: Arc<ServeStats>,
    /// Records committed into the active segment (already durable).
    records: Vec<String>,
    /// Records appended since the last commit (owed to disk; the
    /// clients that sent them have not been acked).
    pending: Vec<String>,
    /// Index of the active segment.
    seg_index: u64,
    /// Seal the active segment once it holds this many records.
    segment_records: usize,
}

impl Wal {
    /// Opens (or creates) the WAL under `dir`, verifying every
    /// existing segment. Returns the log plus all records recovered
    /// from verified segments, in write order, for replay. Corrupt
    /// segments are quarantined aside as `<name>.corrupt` and their
    /// records skipped — the snapshot + resend path covers the loss.
    pub fn open(
        storage: Arc<dyn Storage>,
        dir: &Path,
        segment_records: usize,
        stats: Arc<ServeStats>,
    ) -> Result<(Wal, Vec<String>), ServeError> {
        assert!(segment_records > 0, "segment_records must be positive");
        storage
            .create_dir_all(dir)
            .map_err(|e| ServeError::Storage {
                what: "wal dir",
                attempts: 1,
                source: e,
            })?;
        sts_runtime::sweep_stale_tmp(storage.as_ref(), dir).map_err(|e| ServeError::Storage {
            what: "wal tmp sweep",
            attempts: 1,
            source: e,
        })?;
        let mut indexed: Vec<(u64, PathBuf)> = storage
            .list(dir)
            .map_err(|e| ServeError::Storage {
                what: "wal dir listing",
                attempts: 1,
                source: e,
            })?
            .into_iter()
            .filter_map(|p| {
                let name = p.file_name()?.to_str()?;
                let idx = name
                    .strip_prefix("seg-")?
                    .strip_suffix(".log")?
                    .parse()
                    .ok()?;
                Some((idx, p))
            })
            .collect();
        indexed.sort_by_key(|&(idx, _)| idx);
        let mut recovered = Vec::new();
        let mut last_good: Option<(u64, Vec<String>)> = None;
        let mut max_index = None;
        for (idx, path) in indexed {
            max_index = Some(max_index.map_or(idx, |m: u64| m.max(idx)));
            let bytes = match storage.read(&path) {
                Ok(b) => b,
                Err(e) => {
                    quarantine(storage.as_ref(), &path, &stats, &format!("unreadable: {e}"));
                    continue;
                }
            };
            match decode_segment(idx, &bytes) {
                Ok(records) => {
                    if let Some((_, prev)) = last_good.take() {
                        recovered.extend(prev);
                    }
                    last_good = Some((idx, records));
                }
                Err(why) => {
                    quarantine(storage.as_ref(), &path, &stats, &why);
                }
            }
        }
        // The highest verified segment is the active one: reopen it
        // for continued appends instead of stranding a partial
        // segment forever.
        let (seg_index, records) = match last_good {
            Some((idx, recs)) if recs.len() < segment_records => {
                recovered.extend(recs.iter().cloned());
                (idx, recs)
            }
            Some((idx, recs)) => {
                recovered.extend(recs);
                (idx + 1, Vec::new())
            }
            None => (max_index.map_or(0, |m| m + 1), Vec::new()),
        };
        let wal = Wal {
            storage,
            dir: dir.to_path_buf(),
            stats,
            records,
            pending: Vec::new(),
            seg_index,
            segment_records,
        };
        Ok((wal, recovered))
    }

    /// Queues one encoded record for the next group commit. Nothing is
    /// durable (and nothing may be acked) until [`Wal::commit`]
    /// returns `Ok`.
    pub fn append(&mut self, record: String) {
        self.pending.push(record);
    }

    /// Records waiting for the next commit.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Group commit: folds pending records into the active segment and
    /// rewrites it atomically, retrying until a read-back of the file
    /// byte-matches what was written. Seals the segment when full.
    pub fn commit(&mut self) -> Result<(), ServeError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.records.append(&mut self.pending);
        self.write_active_verified()?;
        self.stats.wal_commits(1);
        if self.records.len() >= self.segment_records {
            self.seg_index += 1;
            self.records.clear();
            self.stats.wal_segments_sealed(1);
        }
        Ok(())
    }

    /// Writes the active segment and read-back-verifies it, retrying
    /// with exact fault accounting.
    fn write_active_verified(&mut self) -> Result<(), ServeError> {
        let path = seg_path(&self.dir, self.seg_index);
        let bytes = encode_segment(self.seg_index, &self.records).into_bytes();
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 1..=MAX_COMMIT_ATTEMPTS {
            match self.storage.write_atomic(&path, &bytes) {
                Err(e) => {
                    self.stats.wal_append_errors(1);
                    last_err = Some(e);
                    continue;
                }
                Ok(()) => {}
            }
            match self.storage.read(&path) {
                Ok(back) if back == bytes => return Ok(()),
                Ok(_) => {
                    // The write reported success but the bytes on disk
                    // differ: a torn or bit-flipped write. Retry.
                    self.stats.wal_verify_failed(1);
                    last_err = Some(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("read-back mismatch on attempt {attempt}"),
                    ));
                }
                Err(e) => {
                    self.stats.wal_verify_failed(1);
                    last_err = Some(e);
                }
            }
        }
        Err(ServeError::Storage {
            what: "wal segment",
            attempts: MAX_COMMIT_ATTEMPTS,
            source: last_err.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::Other, "unknown wal failure")
            }),
        })
    }

    /// Deletes every segment after a verified snapshot has covered all
    /// committed records, and starts a fresh segment. Returns how many
    /// segment files were removed.
    pub fn truncate_all(&mut self) -> Result<usize, ServeError> {
        assert!(
            self.pending.is_empty(),
            "truncate with uncommitted records would lose acked data"
        );
        let listed = self
            .storage
            .list(&self.dir)
            .map_err(|e| ServeError::Storage {
                what: "wal dir listing",
                attempts: 1,
                source: e,
            })?;
        let mut removed = 0usize;
        for path in listed {
            let is_seg = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"));
            if !is_seg {
                continue;
            }
            self.storage
                .remove(&path)
                .map_err(|e| ServeError::Storage {
                    what: "wal truncation",
                    attempts: 1,
                    source: e,
                })?;
            removed += 1;
        }
        self.stats.wal_truncated(removed as u64);
        self.seg_index += 1;
        self.records.clear();
        Ok(removed)
    }
}

fn quarantine(storage: &dyn Storage, path: &Path, stats: &ServeStats, why: &str) {
    let mut name = path.as_os_str().to_os_string();
    name.push(".corrupt");
    let dest = PathBuf::from(name);
    // Best effort: a failed rename leaves the corrupt file in place,
    // where the next open will try (and fail) to verify it again.
    let moved = storage.rename(path, &dest).is_ok();
    stats.wal_verify_failed(1);
    sts_obs::event("serve.wal.quarantine", 1.0);
    eprintln!(
        "sts-serve: quarantined wal segment {} ({why}; moved={moved})",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sts_runtime::FsStorage;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sts-serve-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path, seg: usize) -> (Wal, Vec<String>) {
        Wal::open(
            Arc::new(FsStorage),
            dir,
            seg,
            Arc::new(ServeStats::default()),
        )
        .unwrap()
    }

    #[test]
    fn commit_seal_reopen_recovers_in_order() {
        let dir = tmp_dir("roundtrip");
        let (mut wal, recovered) = open(&dir, 3);
        assert!(recovered.is_empty());
        for i in 0..8 {
            wal.append(format!("rec {i}"));
            wal.commit().unwrap();
        }
        assert_eq!(wal.stats.get("wal_commits"), Some(8));
        assert_eq!(wal.stats.get("wal_segments_sealed"), Some(2));
        drop(wal);
        let (wal2, recovered) = open(&dir, 3);
        let want: Vec<String> = (0..8).map(|i| format!("rec {i}")).collect();
        assert_eq!(recovered, want);
        // The partial third segment stays active.
        assert_eq!(wal2.seg_index, 2);
        assert_eq!(wal2.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_pending_records() {
        let dir = tmp_dir("group");
        let (mut wal, _) = open(&dir, 100);
        for i in 0..10 {
            wal.append(format!("r{i}"));
        }
        assert_eq!(wal.pending_len(), 10);
        wal.commit().unwrap();
        assert_eq!(wal.pending_len(), 0);
        assert_eq!(wal.stats.get("wal_commits"), Some(1), "one commit, not ten");
        wal.commit().unwrap();
        assert_eq!(
            wal.stats.get("wal_commits"),
            Some(1),
            "empty commit is free"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_is_quarantined_and_rest_survive() {
        let dir = tmp_dir("quarantine");
        let (mut wal, _) = open(&dir, 2);
        for i in 0..6 {
            wal.append(format!("rec {i}"));
            wal.commit().unwrap();
        }
        drop(wal);
        // Flip a byte inside the middle (sealed) segment's records.
        let victim = seg_path(&dir, 1);
        let mut bytes = std::fs::read(&victim).unwrap();
        let pos = bytes.len() / 2;
        bytes[pos] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let (wal2, recovered) = open(&dir, 2);
        assert_eq!(
            recovered,
            vec![
                "rec 0".to_string(),
                "rec 1".into(),
                "rec 4".into(),
                "rec 5".into()
            ],
            "the corrupt segment's records are skipped, not invented"
        );
        assert!(!victim.exists(), "victim moved aside");
        assert!(dir.join("seg-1.log.corrupt").exists(), "evidence kept");
        assert_eq!(wal2.stats.get("wal_verify_failed"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_trailer_is_rejected() {
        let records = vec!["a b c".to_string(), "d e".into()];
        let full = encode_segment(4, &records);
        assert_eq!(decode_segment(4, full.as_bytes()).unwrap(), records);
        // Chop mid-trailer: the atomic-rename discipline should make
        // this impossible, but the decoder must still refuse it.
        let cut = &full[..full.len() - 5];
        assert!(decode_segment(4, cut.as_bytes()).is_err());
        // Wrong filename index.
        assert!(decode_segment(5, full.as_bytes()).is_err());
        // Record tampering with a recomputed count but stale digest.
        let tampered = full.replace("a b c", "a B c");
        assert!(decode_segment(4, tampered.as_bytes())
            .unwrap_err()
            .contains("digest"));
    }

    #[test]
    fn truncate_all_removes_segments_and_starts_fresh() {
        let dir = tmp_dir("truncate");
        let (mut wal, _) = open(&dir, 2);
        for i in 0..5 {
            wal.append(format!("rec {i}"));
            wal.commit().unwrap();
        }
        let removed = wal.truncate_all().unwrap();
        assert_eq!(removed, 3, "two sealed + one active");
        assert_eq!(wal.stats.get("wal_truncated"), Some(3));
        wal.append("after".to_string());
        wal.commit().unwrap();
        drop(wal);
        let (_, recovered) = open(&dir, 2);
        assert_eq!(recovered, vec!["after".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "uncommitted records")]
    fn truncate_with_pending_records_panics() {
        let dir = tmp_dir("truncpend");
        let (mut wal, _) = open(&dir, 2);
        wal.append("r".to_string());
        let _ = wal.truncate_all();
    }
}
