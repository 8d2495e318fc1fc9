//! Verified snapshots with quarantine-and-fall-back recovery.
//!
//! A snapshot is the full served state ([`ServeState`]) serialized
//! bit-exactly (floats as hex bit patterns) into `snap-<seq>.snap`, a
//! sealed artifact ([`sts_runtime::store::seal`]) whose format
//! `ServeState::encode_snapshot` owns, written through the same
//! [`write_verified`] write → read-back → retry loop as a WAL segment.
//! Once a snapshot is verified durable, every WAL record it covers is
//! redundant and the log is truncated — that pair is the only thing
//! bounding recovery-replay time and disk usage on a long-running
//! server.
//!
//! Recovery scans snapshots newest-first: a snapshot that fails to
//! unseal or decode is **quarantined aside** (`.corrupt`, keep the
//! evidence) and the next-older one is tried, degrading gracefully to
//! an empty state plus full WAL replay. The byte-identical-recovery
//! invariant never depends on the snapshot being recent — only on
//! `state ∘ replay` being a pure function, which
//! `state::tests::replay_equals_direct_application` pins.

use crate::state::{ServeState, StateConfig};
use crate::{ServeError, ServeStats};
use std::path::{Path, PathBuf};
use sts_runtime::store::{self, numbered, write_verified, WriteFailure};
use sts_runtime::Storage;

const MAX_WRITE_ATTEMPTS: u32 = 64;

fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq}.snap"))
}

/// Writes a verified-durable snapshot of `state`, then deletes all
/// older snapshots. Returns the sequence number it covers.
pub fn write_snapshot(
    storage: &dyn Storage,
    dir: &Path,
    state: &ServeState,
    stats: &ServeStats,
) -> Result<u64, ServeError> {
    storage
        .create_dir_all(dir)
        .map_err(ServeError::storage("snapshot dir"))?;
    let seq = state.max_seq();
    let bytes = state.encode_snapshot().into_bytes();
    write_verified(
        storage,
        &snap_path(dir, seq),
        &bytes,
        MAX_WRITE_ATTEMPTS,
        |failure| match failure {
            WriteFailure::Write => stats.snapshot_write_errors(1),
            WriteFailure::Read | WriteFailure::Mismatch => stats.snapshot_verify_failed(1),
        },
    )
    .map_err(|source| ServeError::Storage {
        what: "snapshot",
        attempts: MAX_WRITE_ATTEMPTS,
        source,
    })?;
    stats.snapshots(1);
    // Older snapshots are now strictly redundant. Failure to delete is
    // harmless (recovery scans newest-first), so best effort.
    for (s, path) in numbered(storage, dir, "snap-", "snap").unwrap_or_default() {
        if s < seq {
            let _ = storage.remove(&path);
        }
    }
    Ok(seq)
}

/// Loads the newest snapshot that verifies, quarantining corrupt ones
/// aside. `None` means "start empty" (no snapshot survives).
pub fn load_latest(
    storage: &dyn Storage,
    dir: &Path,
    cfg: &StateConfig,
    stats: &ServeStats,
) -> Option<ServeState> {
    for (_, path) in numbered(storage, dir, "snap-", "snap")
        .ok()?
        .into_iter()
        .rev()
    {
        let decoded = storage
            .read(&path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|bytes| ServeState::decode_snapshot(cfg.clone(), &bytes));
        match decoded {
            Ok(state) => return Some(state),
            Err(why) => quarantine(storage, &path, stats, &why),
        }
    }
    None
}

fn quarantine(storage: &dyn Storage, path: &Path, stats: &ServeStats, why: &str) {
    let aside = store::quarantine(storage, path);
    stats.snapshot_quarantined(1);
    sts_obs::event("serve.snapshot.quarantine", 1.0);
    eprintln!(
        "sts-serve: quarantined snapshot {} as {} ({why})",
        path.display(),
        aside.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Ping;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sts-serve-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn walked(n: u64) -> ServeState {
        let mut s = ServeState::new(StateConfig::default());
        for i in 0..n {
            s.apply(&Ping {
                seq: i + 1,
                obj: i % 3,
                t: i as f64,
                x: 10.0 + i as f64 / 2.0,
                y: 20.0,
            });
        }
        s
    }

    #[test]
    fn snapshot_round_trips_and_prunes_older() {
        let dir = tmp_dir("roundtrip");
        let storage = sts_runtime::FsStorage;
        let stats = ServeStats::default();
        let s10 = walked(10);
        let seq = write_snapshot(&storage, &dir, &s10, &stats).unwrap();
        assert_eq!(seq, 10);
        let s25 = walked(25);
        write_snapshot(&storage, &dir, &s25, &stats).unwrap();
        assert!(!snap_path(&dir, 10).exists(), "older snapshot pruned");
        let loaded = load_latest(&storage, &dir, &StateConfig::default(), &stats).unwrap();
        assert_eq!(loaded.max_seq(), 25);
        assert_eq!(loaded.encode_snapshot(), s25.encode_snapshot());
        assert_eq!(stats.get("snapshots"), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older_and_quarantines() {
        let dir = tmp_dir("fallback");
        let storage = sts_runtime::FsStorage;
        let stats = ServeStats::default();
        write_snapshot(&storage, &dir, &walked(10), &stats).unwrap();
        // Hand-write a "newer" corrupt snapshot (pruning normally
        // removes older ones, so plant the corruption directly).
        let bogus = snap_path(&dir, 99);
        std::fs::write(
            &bogus,
            b"stssnap 1 99 1\no 0 1 1 junk\nend 0000000000000000\n",
        )
        .unwrap();
        let loaded = load_latest(&storage, &dir, &StateConfig::default(), &stats).unwrap();
        assert_eq!(loaded.max_seq(), 10, "fell back to the verified one");
        assert!(!bogus.exists());
        assert!(dir.join("snap-99.snap.corrupt").exists());
        assert_eq!(stats.get("snapshot_quarantined"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_tampered_snapshots_fail_decode() {
        let s = walked(8);
        let full = s.encode_snapshot();
        let decode = |bytes: &[u8]| ServeState::decode_snapshot(StateConfig::default(), bytes);
        assert!(decode(full.as_bytes()).is_ok());
        let cut = &full[..full.len() - 3];
        assert!(decode(cut.as_bytes()).is_err());
        let tampered = full.replacen('o', "0", 1);
        assert!(decode(tampered.as_bytes()).unwrap_err().contains("digest"));
        assert!(decode(b"").is_err());
    }

    #[test]
    fn empty_dir_loads_nothing() {
        let dir = tmp_dir("empty");
        let stats = ServeStats::default();
        assert!(load_latest(
            &sts_runtime::FsStorage,
            &dir,
            &StateConfig::default(),
            &stats
        )
        .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
