//! A counting [`Storage`] the traced pass hands to the tile engine and
//! the WAL: it forwards to the real filesystem, counts the bytes
//! written, and wraps every write and read in a span.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use sts_obs::trace;
use sts_runtime::{FsStorage, Storage};

/// [`FsStorage`] plus a count of the bytes written.
#[derive(Debug, Default)]
pub struct CountingStorage {
    bytes_written: AtomicU64,
}

impl CountingStorage {
    /// Bytes handed to atomic writes.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }
}

impl Storage for CountingStorage {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let _span = trace::span("runtime.store.write");
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        FsStorage.write_atomic(path, bytes)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let _span = trace::span("runtime.store.read");
        FsStorage.read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        FsStorage.exists(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        FsStorage.remove(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        FsStorage.rename(from, to)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        FsStorage.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        FsStorage.create_dir_all(dir)
    }

    fn modified(&self, path: &Path) -> io::Result<Option<std::time::SystemTime>> {
        FsStorage.modified(path)
    }
}
