//! The storage boundary, and the one sealed format every durable
//! artifact in the workspace is written in.
//!
//! Three kinds of file persist: matrix tiles ([`crate::tile`]), and
//! `sts-serve`'s WAL segments and snapshots. They share everything but
//! their header fields and body codecs:
//!
//! * **I/O** goes through the injectable [`Storage`] trait instead of
//!   calling `std::fs` directly. Production uses [`FsStorage`], which
//!   owns the atomic-write discipline (tmp file → flush → `fsync` →
//!   rename → parent-directory `fsync`); the chaos suites swap in
//!   `sts-robust`'s `FaultyStorage`, which injects torn writes, bit
//!   flips, ENOSPC and stale tmp files *under* the exact code paths
//!   production runs. Durability claims are only as good as the faults
//!   they have been tested against.
//! * **Format**: [`seal`] / [`unseal`]. A sealed file is a header line
//!   naming its kind and version, the body lines, then
//!   `end <lines> <fnv64>`, whose FNV-1a digest covers every byte above
//!   it. `unseal` compares the trailer as text, so no byte of the file
//!   goes unchecked: a torn tail, a flipped bit or a file written by
//!   another format fails before any decoder sees it.
//! * **Writes**: [`write_verified`] writes atomically, reads the file
//!   back and compares, retrying up to a caller-chosen bound — the only
//!   defense against a write that reported success but tore or flipped
//!   the bytes.
//! * **Hygiene**: [`quarantine`] moves a corrupt file aside as
//!   evidence, [`open_dir`] sweeps tmp debris and old quarantine files,
//!   and [`numbered`] lists `tile-N.tile`, `seg-N.log` and
//!   `snap-N.snap`.

use crate::record::Fnv1a;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// A byte-level durable store. Implementations must be safe to share
/// across the worker threads of one job.
///
/// The contract [`write_atomic`](Storage::write_atomic) must uphold:
/// after it returns `Ok`, `path` holds exactly `bytes` and survives a
/// host crash; after it returns `Err` (or the process dies inside it),
/// `path` holds whatever it held before — never a torn file. A failed
/// write may leave a `<stem>.tmp` sibling behind; callers sweep those
/// on open (see [`open_dir`]).
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

/// Wraps `body` — zero or more `\n`-terminated lines — into a sealed
/// artifact: the `header` line, the body, then `end <lines> <fnv64>`,
/// where `<lines>` counts the body lines and the FNV-1a digest covers
/// every byte above the trailer.
pub fn seal(header: &str, body: &str) -> String {
    debug_assert!(!header.contains('\n') && (body.is_empty() || body.ends_with('\n')));
    let mut out = String::with_capacity(header.len() + body.len() + 48);
    out.push_str(header);
    out.push('\n');
    out.push_str(body);
    let trailer = trailer(&out);
    out.push_str(&trailer);
    out
}

/// The trailer that seals `above`: a header line plus the body lines.
fn trailer(above: &str) -> String {
    let lines = above.bytes().filter(|&b| b == b'\n').count() - 1;
    let mut digest = Fnv1a::new();
    digest.write(above.as_bytes());
    format!("end {lines} {:016x}\n", digest.finish())
}

/// Verifies a [`seal`]ed artifact and splits it into its header line
/// (without the newline) and its body. The trailer must equal, as
/// text, the one the bytes above it produce, so a torn tail, a flipped
/// bit anywhere — trailer included — or a file in another format is an
/// `Err` naming the damage; the bytes are never partially trusted.
pub fn unseal(bytes: &[u8]) -> Result<(&str, &str), String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "not valid UTF-8".to_string())?;
    let last_line = text
        .strip_suffix('\n')
        .ok_or("truncated: missing final newline")?;
    let split = last_line.rfind('\n').ok_or("truncated: no trailer line")? + 1;
    let (above, found) = text.split_at(split);
    let want = trailer(above);
    if found != want {
        return Err(format!(
            "trailer `{}` does not match the digest of the bytes above it, `{}` (torn or corrupt)",
            found.trim_end(),
            want.trim_end()
        ));
    }
    Ok(above.split_once('\n').expect("`above` ends with a newline"))
}

/// How one attempt of [`write_verified`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFailure {
    /// [`Storage::write_atomic`] returned an error (ENOSPC, a crash
    /// before the rename): an honest failure.
    Write,
    /// The write reported success but reading the file back failed.
    Read,
    /// The write reported success but the file reads back different
    /// bytes: a torn or bit-flipped write.
    Mismatch,
}

/// Writes `bytes` to `path` with [`Storage::write_atomic`], reads the
/// file back and compares, for up to `attempts` attempts. Every failed
/// attempt is passed to `on_failure` — the hook callers keep their
/// exact fault counters with — and after the last one its error is
/// returned (`InvalidData` for a mismatch).
pub fn write_verified(
    storage: &dyn Storage,
    path: &Path,
    bytes: &[u8],
    attempts: u32,
    mut on_failure: impl FnMut(WriteFailure),
) -> io::Result<()> {
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no write attempted");
    for _ in 0..attempts {
        let (failure, error) = match storage.write_atomic(path, bytes) {
            Err(e) => (WriteFailure::Write, e),
            Ok(()) => match storage.read(path) {
                Err(e) => (WriteFailure::Read, e),
                Ok(back) if back == bytes => return Ok(()),
                Ok(_) => (
                    WriteFailure::Mismatch,
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "read-back differs from the bytes written",
                    ),
                ),
            },
        };
        on_failure(failure);
        last = error;
    }
    Err(last)
}

/// Moves a corrupt artifact aside to `<name>.corrupt` — evidence, not
/// garbage — and returns that path. If even the rename fails, removes
/// the file so it blocks neither a fresh write nor the next recovery.
/// Best effort by design.
pub fn quarantine(storage: &dyn Storage, path: &Path) -> PathBuf {
    let mut aside = path.as_os_str().to_os_string();
    aside.push(".corrupt");
    let aside = PathBuf::from(aside);
    if storage.rename(path, &aside).is_err() {
        let _ = storage.remove(path);
    }
    aside
}

/// Quarantined `*.corrupt` files kept for forensics: the newest this
/// many survive every [`open_dir`] (unless they also age out).
pub const CORRUPT_KEEP_MAX: usize = 8;

/// Quarantined files older than this are swept even when the count cap
/// has room — day-old evidence has been looked at or never will be.
pub const CORRUPT_KEEP_AGE: Duration = Duration::from_secs(24 * 60 * 60);

/// What [`open_dir`] cleaned out of an artifact directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sweep {
    /// Orphaned `*.tmp` files from interrupted writes.
    pub stale_tmp: usize,
    /// Aged- or counted-out `*.corrupt` quarantine files.
    pub corrupt: usize,
}

/// Creates `dir` if needed and sweeps its debris: every orphaned
/// `*.tmp` (a write killed between tmp-write and rename; nothing ever
/// reads one), and the `*.corrupt` quarantine files beyond the
/// retention policy — those older than [`CORRUPT_KEEP_AGE`], and the
/// oldest overflow beyond [`CORRUPT_KEEP_MAX`]. Files whose age the
/// backend cannot report count as fresh (count cap only). Bumps
/// `runtime.store.stale_tmp_swept` and `runtime.store.corrupt_swept`;
/// a file that fails to go is left — this is hygiene, not correctness.
pub fn open_dir(storage: &dyn Storage, dir: &Path) -> io::Result<Sweep> {
    storage.create_dir_all(dir)?;
    let mut sweep = Sweep::default();
    let mut corrupt: Vec<(Option<SystemTime>, PathBuf)> = Vec::new();
    for path in storage.list(dir)? {
        match path.extension().and_then(|e| e.to_str()) {
            Some("tmp") => sweep.stale_tmp += usize::from(storage.remove(&path).is_ok()),
            Some("corrupt") => corrupt.push((storage.modified(&path).ok().flatten(), path)),
            _ => {}
        }
    }
    // Oldest first; unknown ages sort last (newest), so they are only
    // ever count-swept, never age-swept.
    corrupt.sort_by(|a, b| (a.0.is_none(), a.0, &a.1).cmp(&(b.0.is_none(), b.0, &b.1)));
    let now = SystemTime::now();
    let overflow = corrupt.len().saturating_sub(CORRUPT_KEEP_MAX);
    for (i, (mtime, path)) in corrupt.iter().enumerate() {
        let aged_out = mtime
            .and_then(|t| now.duration_since(t).ok())
            .is_some_and(|age| age > CORRUPT_KEEP_AGE);
        if (i < overflow || aged_out) && storage.remove(path).is_ok() {
            sweep.corrupt += 1;
        }
    }
    if sweep.stale_tmp > 0 {
        sts_obs::static_counter!("runtime.store.stale_tmp_swept").add(sweep.stale_tmp as u64);
    }
    if sweep.corrupt > 0 {
        sts_obs::static_counter!("runtime.store.corrupt_swept").add(sweep.corrupt as u64);
    }
    Ok(sweep)
}

/// The files in `dir` named `<prefix><N>.<ext>`, with their `N`, in
/// ascending `N` — `tile-N.tile`, `seg-N.log`, `snap-N.snap`. Tmp and
/// quarantine files never match.
pub fn numbered(
    storage: &dyn Storage,
    dir: &Path,
    prefix: &str,
    ext: &str,
) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found: Vec<(u64, PathBuf)> = storage
        .list(dir)?
        .into_iter()
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let n = name
                .strip_prefix(prefix)?
                .strip_suffix(ext)?
                .strip_suffix('.')?
                .parse()
                .ok()?;
            Some((n, path))
        })
        .collect();
    found.sort();
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::{encode_tile, TileData};
    use crate::{PairOutcome, WorkerExit};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sts-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn counter(name: &str) -> u64 {
        sts_obs::metrics::global()
            .snapshot()
            .counter(name)
            .unwrap_or(0)
    }

    fn set_age(path: &Path, age: Duration) {
        fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(SystemTime::now() - age)
            .unwrap();
    }

    /// One sealed file of each kind, shaped as its writer shapes it.
    fn samples() -> Vec<(&'static str, Vec<u8>)> {
        let tile = TileData {
            id: 3,
            start: 12,
            cells: vec![
                PairOutcome::Score(0.12345678901234567),
                PairOutcome::Score(f64::NAN),
                PairOutcome::Score(-0.0),
                PairOutcome::Failed { attempts: 3 },
                PairOutcome::Quarantined,
                PairOutcome::Poisoned {
                    exit: WorkerExit::Signal(9),
                },
            ],
        };
        let wal = "p 1 0 4010000000000000 4024000000000000 4034000000000000\n\
                   p 2 1 4010000000000000 4024800000000000 4034000000000000\n";
        let snap = "o 0 9 2 4000000000000000 4024000000000000 4034000000000000 \
                    4008000000000000 4025000000000000 4034000000000000 1 3fe0000000000000\n\
                    o 1 1 1 4000000000000000 4040000000000000 4034000000000000 0\n";
        vec![
            ("tile", encode_tile(0xFEED, &tile)),
            ("wal segment", seal("walseg 4", wal).into_bytes()),
            ("snapshot", seal("stssnap 2 25", snap).into_bytes()),
        ]
    }

    #[test]
    fn sealed_files_unseal_to_their_header_and_body() {
        for (kind, bytes) in samples() {
            let (header, body) = unseal(&bytes).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(seal(header, body).into_bytes(), bytes, "{kind}");
        }
        let empty = seal("empty 1", "");
        assert!(empty.starts_with("empty 1\nend 0 "), "{empty:?}");
        assert_eq!(unseal(empty.as_bytes()), Ok(("empty 1", "")));
    }

    #[test]
    fn every_truncation_is_detected() {
        // A torn write can stop at any byte; every prefix must fail —
        // including prefixes that end exactly on a line boundary, which
        // only the trailer catches.
        for (kind, bytes) in samples() {
            for cut in 0..bytes.len() {
                assert!(
                    unseal(&bytes[..cut]).is_err(),
                    "{kind}: truncation at byte {cut} must be detected"
                );
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // No byte is exempt: the digest covers the header and the body,
        // and the trailer is compared as text, so even a flip that only
        // changes a hex digit's case (0x20) is caught.
        for (kind, bytes) in samples() {
            for pos in 0..bytes.len() {
                for bit in [0x01u8, 0x20, 0x80] {
                    let mut mangled = bytes.clone();
                    mangled[pos] ^= bit;
                    assert!(
                        unseal(&mangled).is_err(),
                        "{kind}: flip of bit {bit:#x} at byte {pos} must be rejected"
                    );
                }
            }
        }
    }

    #[test]
    fn files_in_the_unsealed_formats_are_rejected() {
        // The formats tiles, WAL segments and snapshots had before they
        // were sealed: each fails `unseal`, so it is quarantined like
        // any corrupt file instead of being read.
        let digest = |text: &str| {
            let mut h = Fnv1a::new();
            h.write(text.as_bytes());
            format!("{:016x}", h.finish())
        };
        let old = [
            format!(
                "# STS matrix tile\ntile v2\njob 000000000000feed\ntile 0 0 1\npayload {}\nq\nend 1\n",
                digest("q\n")
            ),
            format!("walseg 4 1\np 1\nend 1 {}\n", digest("p 1\n")),
            format!("stssnap 1 5 0\nend {}\n", digest("stssnap 1 5 0\n")),
        ];
        for file in old {
            assert!(unseal(file.as_bytes()).is_err(), "{file:?} must not unseal");
        }
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
    fn numbered_lists_one_kind_in_numeric_order() {
        let dir = temp_dir("numbered");
        for name in [
            "seg-10.log",
            "seg-9.log",
            "seg-1.log.corrupt",
            "seg-2.tmp",
            "seg-x.log",
            "snap-3.snap",
        ] {
            fs::write(dir.join(name), b"x").unwrap();
        }
        let found: Vec<u64> = numbered(&FsStorage, &dir, "seg-", "log")
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(found, vec![9, 10]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_tmp_debris_and_counts() {
        let dir = temp_dir("sweep");
        let s = FsStorage;
        s.write_atomic(&dir.join("keep.tile"), b"keep").unwrap();
        fs::write(dir.join("orphan-1.tmp"), b"torn").unwrap();
        fs::write(dir.join("orphan-2.tmp"), b"torn").unwrap();
        let before = counter("runtime.store.stale_tmp_swept");
        let sweep = open_dir(&s, &dir).unwrap();
        assert_eq!(
            sweep,
            Sweep {
                stale_tmp: 2,
                corrupt: 0
            }
        );
        assert!(dir.join("keep.tile").exists());
        assert!(!dir.join("orphan-1.tmp").exists());
        assert!(
            counter("runtime.store.stale_tmp_swept") >= before + 2,
            "sweep counter must advance"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_sweep_caps_count_keeping_the_newest() {
        let dir = temp_dir("qsweep");
        // CORRUPT_KEEP_MAX + 3 quarantine files with strictly older
        // mtimes for lower ids, plus a live tile that must survive.
        fs::write(dir.join("tile-000099.tile"), b"live").unwrap();
        for i in 0..CORRUPT_KEEP_MAX + 3 {
            let path = dir.join(format!("tile-{i:06}.tile.corrupt"));
            fs::write(&path, b"evidence").unwrap();
            set_age(&path, Duration::from_secs(600 - 60 * i as u64));
        }
        let sweep = open_dir(&FsStorage, &dir).unwrap();
        assert_eq!(sweep.corrupt, 3, "overflow beyond the cap is swept");
        for i in 0..3 {
            assert!(
                !dir.join(format!("tile-{i:06}.tile.corrupt")).exists(),
                "oldest file {i} must be swept"
            );
        }
        for i in 3..CORRUPT_KEEP_MAX + 3 {
            assert!(
                dir.join(format!("tile-{i:06}.tile.corrupt")).exists(),
                "newest file {i} must be kept"
            );
        }
        assert!(
            dir.join("tile-000099.tile").exists(),
            "live tiles untouched"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_sweep_ages_out_old_evidence_and_counts() {
        let dir = temp_dir("qage");
        // Two fresh files (under the count cap) plus one backdated past
        // the age cap: only the old one goes.
        fs::write(dir.join("tile-000000.tile.corrupt"), b"old").unwrap();
        fs::write(dir.join("tile-000001.tile.corrupt"), b"new").unwrap();
        fs::write(dir.join("tile-000002.tile.corrupt"), b"new").unwrap();
        set_age(&dir.join("tile-000000.tile.corrupt"), CORRUPT_KEEP_AGE * 2);
        let before = counter("runtime.store.corrupt_swept");
        let sweep = open_dir(&FsStorage, &dir).unwrap();
        assert_eq!(sweep.corrupt, 1, "only the aged-out file is swept");
        assert!(!dir.join("tile-000000.tile.corrupt").exists());
        assert!(dir.join("tile-000001.tile.corrupt").exists());
        assert!(dir.join("tile-000002.tile.corrupt").exists());
        assert!(
            counter("runtime.store.corrupt_swept") > before,
            "sweep counter must advance"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
