//! The injectable storage boundary for durable job artifacts.
//!
//! Everything the runtime persists — matrix tiles, WAL segments — goes
//! through the [`Storage`] trait instead of calling `std::fs`
//! directly. Production uses [`FsStorage`], which owns the workspace's
//! atomic-write discipline (tmp file → flush → `fsync` → rename →
//! parent-directory `fsync`); the chaos suite swaps in `sts-robust`'s
//! `FaultyStorage`, which injects torn writes, bit flips, ENOSPC and
//! stale tmp files *under* the exact code paths production runs. That
//! is the point of the trait: durability claims are only as good as
//! the faults they have been tested against.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A byte-level durable store. Implementations must be safe to share
/// across the worker threads of one job.
///
/// The contract [`write_atomic`](Storage::write_atomic) must uphold:
/// after it returns `Ok`, `path` holds exactly `bytes` and survives a
/// host crash; after it returns `Err` (or the process dies inside it),
/// `path` holds whatever it held before — never a torn file. A failed
/// write may leave a `<stem>.tmp` sibling behind; callers sweep those
/// on open (see [`sweep_stale_tmp`]).
pub trait Storage: Send + Sync {
    /// Atomically and durably replaces `path` with `bytes`.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Does `path` exist?
    fn exists(&self, path: &Path) -> bool;

    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Renames `from` to `to` (same directory; used to quarantine
    /// corrupt artifacts aside rather than destroy the evidence).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Lists the files directly inside `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Last-modified time of `path`, when the backend tracks one.
    /// `Ok(None)` means "unknown" — age-based hygiene (quarantine
    /// sweeps) then falls back to count-based policies only.
    fn modified(&self, _path: &Path) -> io::Result<Option<std::time::SystemTime>> {
        Ok(None)
    }
}

/// The tmp-file sibling a partially completed [`Storage::write_atomic`]
/// may leave next to `path`.
pub fn tmp_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// The production [`Storage`]: plain `std::fs`, with the atomic-write
/// discipline every durable artifact in the workspace relies on.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsStorage;

impl Storage for FsStorage {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path);
        fs::write(&tmp, bytes)?;
        // Durability of the *data* needs an fsync before the rename;
        // otherwise a crash can leave the renamed file empty.
        fs::File::open(&tmp)?.sync_all()?;
        fs::rename(&tmp, path)?;
        // Durability of the *rename* needs the directory entry
        // flushed; platforms that cannot fsync a directory (or a path
        // with no parent) just skip it — the rename is still atomic.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn modified(&self, path: &Path) -> io::Result<Option<std::time::SystemTime>> {
        Ok(fs::metadata(path)?.modified().ok())
    }
}

/// Sweeps orphaned `*.tmp` files out of `dir`: debris from writes
/// killed between tmp-write and rename. Returns how many were deleted
/// and bumps the `runtime.checkpoint.stale_tmp_swept` counter, so
/// silent garbage accumulation is visible in telemetry. Failures to
/// remove individual files are ignored — sweeping is hygiene, not
/// correctness (an un-renamed tmp is never *read* by anything).
pub fn sweep_stale_tmp(storage: &dyn Storage, dir: &Path) -> io::Result<usize> {
    let mut swept = 0usize;
    for path in storage.list(dir)? {
        if path.extension().is_some_and(|e| e == "tmp") && storage.remove(&path).is_ok() {
            swept += 1;
        }
    }
    if swept > 0 {
        sts_obs::static_counter!("runtime.checkpoint.stale_tmp_swept").add(swept as u64);
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sts-store-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_round_trips_and_leaves_no_tmp() {
        let dir = temp_dir("rt");
        let path = dir.join("artifact.tile");
        let s = FsStorage;
        s.write_atomic(&path, b"hello tiles").unwrap();
        assert!(!tmp_path(&path).exists(), "tmp renamed away");
        assert_eq!(s.read(&path).unwrap(), b"hello tiles");
        // Overwrite is atomic too.
        s.write_atomic(&path, b"v2").unwrap();
        assert_eq!(s.read(&path).unwrap(), b"v2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_returns_only_files_sorted() {
        let dir = temp_dir("ls");
        fs::create_dir_all(dir.join("subdir")).unwrap();
        let s = FsStorage;
        s.write_atomic(&dir.join("b.tile"), b"b").unwrap();
        s.write_atomic(&dir.join("a.tile"), b"a").unwrap();
        let names: Vec<String> = s
            .list(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.tile", "b.tile"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_tmp_debris_and_counts() {
        let dir = temp_dir("sweep");
        let s = FsStorage;
        s.write_atomic(&dir.join("keep.tile"), b"keep").unwrap();
        fs::write(dir.join("orphan-1.tmp"), b"torn").unwrap();
        fs::write(dir.join("orphan-2.tmp"), b"torn").unwrap();
        let before = sts_obs::metrics::global()
            .snapshot()
            .counter("runtime.checkpoint.stale_tmp_swept")
            .unwrap_or(0);
        let swept = sweep_stale_tmp(&s, &dir).unwrap();
        assert_eq!(swept, 2);
        assert!(dir.join("keep.tile").exists());
        assert!(!dir.join("orphan-1.tmp").exists());
        let after = sts_obs::metrics::global()
            .snapshot()
            .counter("runtime.checkpoint.stale_tmp_swept")
            .unwrap_or(0);
        assert!(after >= before + 2, "sweep counter must advance");
        fs::remove_dir_all(&dir).unwrap();
    }
}
