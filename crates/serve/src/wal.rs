//! Segmented write-ahead log for the ingest path.
//!
//! Design: the WAL is a directory of **whole-file-atomic segments**
//! (`seg-<idx>.log`), each a sealed artifact
//! ([`sts_runtime::store::seal`]): the header `walseg <idx>`, one line
//! per record, and the `end <count> <fnv64>` trailer whose digest
//! covers every byte above it. There is no appending-in-place: each
//! group commit rewrites the *active* segment in full under one
//! digest, so every byte on disk is covered by one atomic rename — a
//! SIGKILL can lose the in-flight commit (whose pings the client has
//! not been acked for and will resend) but can never tear a record in
//! half. Segments are bounded (`segment_records`), so the rewrite cost
//! is bounded too; a full segment is sealed and a new one started.
//!
//! Every commit goes through [`write_verified`]: written, **read back
//! and byte-compared** before the records are considered durable — the
//! only defense that catches a torn or bit-flipped write that reported
//! success (`FaultyStorage` injects exactly those). Failed attempts are
//! retried with exact accounting: `wal_verify_failed` for read-back
//! failures, `wal_append_errors` for outright write errors, which the
//! chaos suite reconciles against the injected-fault ledger.
//!
//! After a verified snapshot covers everything, [`Wal::truncate_all`]
//! deletes every segment and starts fresh. Recovery ([`Wal::open`])
//! sweeps the directory ([`open_dir`]), scans segments in index order,
//! unseals each, quarantines corrupt ones aside as `.corrupt` (keep
//! the evidence, keep serving; counted as `wal_quarantined`) and
//! returns the surviving records for replay.

use crate::{ServeError, ServeStats};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use sts_runtime::store::{self, numbered, open_dir, seal, unseal, write_verified, WriteFailure};
use sts_runtime::Storage;

/// Cap on write→verify retries per commit before declaring storage
/// unusable. Chaos plans inject faults far more sparsely than this.
const MAX_COMMIT_ATTEMPTS: u32 = 64;

fn seg_path(dir: &Path, idx: u64) -> PathBuf {
    dir.join(format!("seg-{idx}.log"))
}

fn encode_segment(idx: u64, records: &[String]) -> String {
    let mut body = String::new();
    for r in records {
        body.push_str(r);
        body.push('\n');
    }
    seal(&format!("walseg {idx}"), &body)
}

/// Unseals one segment file. `Err` carries the reason the segment is
/// untrustworthy.
fn decode_segment(idx: u64, bytes: &[u8]) -> Result<Vec<String>, String> {
    let (header, body) = unseal(bytes)?;
    if header != format!("walseg {idx}") {
        return Err(format!("header `{header}` does not name segment {idx}"));
    }
    Ok(body.lines().map(str::to_string).collect())
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
        open_dir(storage.as_ref(), dir).map_err(ServeError::storage("wal dir"))?;
        let segments = numbered(storage.as_ref(), dir, "seg-", "log")
            .map_err(ServeError::storage("wal dir listing"))?;
        let mut recovered = Vec::new();
        let mut last_good: Option<(u64, Vec<String>)> = None;
        let max_index = segments.last().map(|&(idx, _)| idx);
        for (idx, path) in segments {
            let decoded = storage
                .read(&path)
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|bytes| decode_segment(idx, &bytes));
            match decoded {
                Ok(records) => {
                    if let Some((_, prev)) = last_good.replace((idx, records)) {
                        recovered.extend(prev);
                    }
                }
                Err(why) => quarantine(storage.as_ref(), &path, &stats, &why),
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
    /// rewrites it with [`write_verified`], retrying until a read-back
    /// of the file byte-matches what was written. Seals the segment
    /// when full.
    pub fn commit(&mut self) -> Result<(), ServeError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.records.append(&mut self.pending);
        let path = seg_path(&self.dir, self.seg_index);
        let bytes = encode_segment(self.seg_index, &self.records).into_bytes();
        let stats = &self.stats;
        write_verified(
            self.storage.as_ref(),
            &path,
            &bytes,
            MAX_COMMIT_ATTEMPTS,
            |failure| match failure {
                WriteFailure::Write => stats.wal_append_errors(1),
                WriteFailure::Read | WriteFailure::Mismatch => stats.wal_verify_failed(1),
            },
        )
        .map_err(|source| ServeError::Storage {
            what: "wal segment",
            attempts: MAX_COMMIT_ATTEMPTS,
            source,
        })?;
        self.stats.wal_commits(1);
        if self.records.len() >= self.segment_records {
            self.seg_index += 1;
            self.records.clear();
            self.stats.wal_segments_sealed(1);
        }
        Ok(())
    }

    /// Deletes every segment after a verified snapshot has covered all
    /// committed records, and starts a fresh segment. Returns how many
    /// segment files were removed.
    pub fn truncate_all(&mut self) -> Result<usize, ServeError> {
        assert!(
            self.pending.is_empty(),
            "truncate with uncommitted records would lose acked data"
        );
        let segments = numbered(self.storage.as_ref(), &self.dir, "seg-", "log")
            .map_err(ServeError::storage("wal dir listing"))?;
        for (_, path) in &segments {
            self.storage
                .remove(path)
                .map_err(ServeError::storage("wal truncation"))?;
        }
        let removed = segments.len();
        self.stats.wal_truncated(removed as u64);
        self.seg_index += 1;
        self.records.clear();
        Ok(removed)
    }
}

fn quarantine(storage: &dyn Storage, path: &Path, stats: &ServeStats, why: &str) {
    let aside = store::quarantine(storage, path);
    stats.wal_quarantined(1);
    sts_obs::event("serve.wal.quarantine", 1.0);
    eprintln!(
        "sts-serve: quarantined wal segment {} as {} ({why})",
        path.display(),
        aside.display()
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
        assert_eq!(wal2.stats.get("wal_quarantined"), Some(1));
        assert_eq!(
            wal2.stats.get("wal_verify_failed"),
            Some(0),
            "a quarantine on recovery is not a failed write"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_bounds_quarantine_debris() {
        // Every restart over a flaky disk may quarantine a segment; the
        // evidence is kept under the same retention policy as tiles.
        let dir = tmp_dir("debris");
        let keep = sts_runtime::store::CORRUPT_KEEP_MAX;
        let now = std::time::SystemTime::now();
        for i in 0..keep + 3 {
            let path = dir.join(format!("seg-{i}.log.corrupt"));
            std::fs::write(&path, b"evidence").unwrap();
            std::fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(now - std::time::Duration::from_secs(600 - 60 * i as u64))
                .unwrap();
        }
        let (_, recovered) = open(&dir, 4);
        assert!(recovered.is_empty());
        let kept: Vec<usize> = (0..keep + 3)
            .filter(|i| dir.join(format!("seg-{i}.log.corrupt")).exists())
            .collect();
        assert_eq!(kept, (3..keep + 3).collect::<Vec<_>>(), "newest kept");
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
