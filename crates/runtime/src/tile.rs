//! Durable matrix tiles: the out-of-core unit of the tiled job engine.
//!
//! A *tile* is one [`PairChunk`](crate::PairChunk)-sized slab of the
//! pair space, spilled to its own file once every cell in it has a
//! terminal outcome. The format is the workspace's line-based text
//! style, and it is verified end to end on every load:
//!
//! ```text
//! # STS matrix tile (DESIGN.md §3h)
//! tile v2
//! job <16 hex digits>          # job-input fingerprint
//! tile <id> <start> <len>      # which slab of the pair space this is
//! payload <16 hex digits>      # FNV-1a over the cell-line bytes below
//! s <score>                    # one line per cell of the slab, in
//! q                            # order, in the one cell text form
//! f <attempts>                 # (`crate::record`: s/f/q/x)
//! end <len>                    # trailer: number of cell lines above
//! ```
//!
//! Three independent integrity checks make silent corruption
//! structurally impossible to read back:
//!
//! 1. the `job` fingerprint binds the tile to its inputs (a tile from
//!    another corpus is rejected);
//! 2. the `payload` digest covers every cell-line byte, so a flipped
//!    bit anywhere in the data fails the load;
//! 3. the `end <n>` trailer closes the file, so a torn (truncated)
//!    write — the classic crash-mid-spill artifact — fails the load
//!    even when the truncation lands exactly on a line boundary.
//!
//! A failed check — or a slab with a cell missing — is a typed
//! [`TileError::Corrupt`]; the engine quarantines the file aside
//! (`.corrupt` suffix — evidence, not garbage) and recomputes the
//! tile. Loads never guess. A tile written by an older build in
//! another format fails the same checks and is recomputed the same way.
//!
//! All I/O goes through the injectable [`Storage`] trait, which is how
//! the `sts-robust` disk-chaos suite drives torn writes, bit flips,
//! ENOSPC and stale tmp files through this exact code.

use crate::record::{decode_cell, encode_cell, Fnv1a, PairOutcome};
use crate::store::{sweep_stale_tmp, Storage};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One spilled tile: the slab geometry plus the outcome of every cell
/// in it.
#[derive(Debug, Clone, PartialEq)]
pub struct TileData {
    /// Tile id (the chunk id in the tile-sized chunking of the space).
    pub id: usize,
    /// First linear pair index covered.
    pub start: usize,
    /// The slab's cells in order — `cells[k]` is pair `start + k` —
    /// none of them `Skipped`. Quarantined cells are written too, and
    /// the engine checks them against preparation on resume.
    pub cells: Vec<PairOutcome>,
}

/// Errors loading a tile.
#[derive(Debug)]
pub enum TileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The tile file failed an integrity check (truncated, bit-flipped,
    /// wrong job, wrong slab). The payload must be recomputed.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Which check failed.
        reason: String,
    },
}

impl fmt::Display for TileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileError::Io(e) => write!(f, "tile I/O error: {e}"),
            TileError::Corrupt { path, reason } => {
                write!(f, "corrupt tile {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for TileError {}

impl From<io::Error> for TileError {
    fn from(e: io::Error) -> Self {
        TileError::Io(e)
    }
}

/// Serializes a tile to the text format. Infallible (writes to memory);
/// durability is the caller's [`Storage::write_atomic`].
pub fn encode_tile(job_fingerprint: u64, tile: &TileData) -> Vec<u8> {
    let mut cells_text = String::new();
    for cell in &tile.cells {
        encode_cell(cell, &mut cells_text);
        cells_text.push('\n');
    }
    let mut digest = Fnv1a::new();
    digest.write(cells_text.as_bytes());
    let mut out = String::new();
    out.push_str("# STS matrix tile (DESIGN.md \u{a7}3h)\n");
    out.push_str("tile v2\n");
    out.push_str(&format!("job {:016x}\n", job_fingerprint));
    let len = tile.cells.len();
    out.push_str(&format!("tile {} {} {len}\n", tile.id, tile.start));
    out.push_str(&format!("payload {:016x}\n", digest.finish()));
    out.push_str(&cells_text);
    out.push_str(&format!("end {len}\n"));
    out.into_bytes()
}

/// Parses and fully verifies a tile against the slab the caller
/// expects. Any deviation — torn tail, flipped byte, wrong job
/// fingerprint, wrong geometry, a cell too many or too few — returns
/// `Err` with the failed check; the bytes are never partially trusted.
pub fn decode_tile(
    bytes: &[u8],
    job_fingerprint: u64,
    id: usize,
    start: usize,
    len: usize,
) -> Result<TileData, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "not valid UTF-8".to_string())?;
    // A complete tile always ends `end <n>\n`; a file cut anywhere —
    // even one byte short — must fail, so the trailer's newline is
    // part of the contract.
    if !text.ends_with('\n') {
        return Err("truncated: missing final newline".to_string());
    }
    let mut lines = text.split('\n');
    // Header: comments/blank lines tolerated until `tile v2`.
    loop {
        let line = lines.next().ok_or("missing `tile v2` header")?.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line != "tile v2" {
            return Err(format!("expected `tile v2` header, got `{line}`"));
        }
        break;
    }
    let field = |line: Option<&str>, keyword: &str| -> Result<String, String> {
        let line = line
            .ok_or_else(|| format!("missing `{keyword}` record"))?
            .trim();
        line.strip_prefix(keyword)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(|rest| rest.to_string())
            .ok_or_else(|| format!("expected `{keyword} ...`, got `{line}`"))
    };
    let job_hex = field(lines.next(), "job")?;
    let job = u64::from_str_radix(job_hex.trim(), 16)
        .map_err(|_| format!("bad job fingerprint `{job_hex}`"))?;
    if job != job_fingerprint {
        return Err(format!(
            "job fingerprint {job:016x} does not match inputs {job_fingerprint:016x}"
        ));
    }
    let geom = field(lines.next(), "tile")?;
    let nums: Vec<usize> = geom
        .split_whitespace()
        .map(|s| s.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad tile geometry `{geom}`"))?;
    if nums.len() != 3 {
        return Err(format!("bad tile geometry `{geom}`"));
    }
    if nums != [id, start, len] {
        return Err(format!(
            "tile geometry {}/{}/{} does not match expected {id}/{start}/{len}",
            nums[0], nums[1], nums[2]
        ));
    }
    let payload_hex = field(lines.next(), "payload")?;
    let payload = u64::from_str_radix(payload_hex.trim(), 16)
        .map_err(|_| format!("bad payload digest `{payload_hex}`"))?;

    // Cells region: exact bytes, re-hashed as read. No comments, no
    // blank lines — we wrote this file; anything unexpected is damage.
    let mut digest = Fnv1a::new();
    let mut cells: Vec<PairOutcome> = Vec::new();
    let end_count = loop {
        let line = lines.next().ok_or("truncated: missing `end` trailer")?;
        if let Some(rest) = line.strip_prefix("end ") {
            break rest
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("bad `end` count `{rest}`"))?;
        }
        digest.write(line.as_bytes());
        digest.write(b"\n");
        let mut fields = line.split_whitespace();
        cells.push(decode_cell(&mut fields)?);
        if fields.next().is_some() {
            return Err(format!("trailing fields in `{line}`"));
        }
    };
    if end_count != cells.len() {
        return Err(format!(
            "trailer says {end_count} cell(s) but {} present (torn write)",
            cells.len()
        ));
    }
    if cells.len() != len {
        return Err(format!("slab holds {} of its {len} cell(s)", cells.len()));
    }
    if digest.finish() != payload {
        return Err(format!(
            "payload digest {:016x} does not match header {payload:016x} (corrupt data)",
            digest.finish()
        ));
    }
    // Nothing after the trailer but the final newline's empty split.
    for line in lines {
        if !line.trim().is_empty() {
            return Err(format!("trailing garbage after `end`: `{line}`"));
        }
    }
    Ok(TileData { id, start, cells })
}

/// Quarantined `.tile.corrupt` files kept for forensics: the newest
/// this many survive every sweep (unless they also age out).
pub const CORRUPT_KEEP_MAX: usize = 8;

/// Quarantined `.tile.corrupt` files older than this are swept even
/// when the count cap has room — day-old evidence has been looked at
/// or never will be.
pub const CORRUPT_KEEP_AGE: std::time::Duration = std::time::Duration::from_secs(24 * 60 * 60);

/// What [`TileStore::open`] cleaned out of the tile directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileSweep {
    /// Orphaned `*.tmp` files from interrupted spills.
    pub stale_tmp: usize,
    /// Aged- or counted-out `*.tile.corrupt` quarantine files.
    pub corrupt: usize,
}

/// Sweeps quarantined `*.tile.corrupt` files beyond the retention
/// policy: everything older than [`CORRUPT_KEEP_AGE`], and the oldest
/// overflow beyond [`CORRUPT_KEEP_MAX`]. Files whose age the backend
/// cannot report are treated as fresh (count cap only). Bumps the
/// `runtime.tile.corrupt_swept` counter; individual remove failures
/// are ignored — this is hygiene, not correctness.
pub fn sweep_quarantine(storage: &dyn Storage, dir: &Path) -> io::Result<usize> {
    let mut corrupt: Vec<(Option<std::time::SystemTime>, PathBuf)> = storage
        .list(dir)?
        .into_iter()
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with(".tile.corrupt"))
        })
        .map(|p| (storage.modified(&p).ok().flatten(), p))
        .collect();
    // Oldest first; unknown ages sort last (newest) so they are only
    // ever count-swept, never age-swept.
    corrupt.sort_by(|a, b| match (&a.0, &b.0) {
        (Some(x), Some(y)) => x.cmp(y).then_with(|| a.1.cmp(&b.1)),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => a.1.cmp(&b.1),
    });
    let now = std::time::SystemTime::now();
    let overflow = corrupt.len().saturating_sub(CORRUPT_KEEP_MAX);
    let mut swept = 0usize;
    for (i, (mtime, path)) in corrupt.iter().enumerate() {
        let aged_out = mtime
            .and_then(|t| now.duration_since(t).ok())
            .is_some_and(|age| age > CORRUPT_KEEP_AGE);
        if (i < overflow || aged_out) && storage.remove(path).is_ok() {
            swept += 1;
        }
    }
    if swept > 0 {
        sts_obs::static_counter!("runtime.tile.corrupt_swept").add(swept as u64);
    }
    Ok(swept)
}

/// A directory of tiles for one job, bound to the job's input
/// fingerprint. All I/O goes through the injected [`Storage`].
pub struct TileStore<'s> {
    storage: &'s dyn Storage,
    dir: PathBuf,
    job_fingerprint: u64,
}

impl<'s> TileStore<'s> {
    /// Opens (creating if needed) the tile directory and sweeps debris:
    /// orphaned `*.tmp` files from interrupted spills, and quarantined
    /// `*.tile.corrupt` files beyond the retention policy
    /// ([`CORRUPT_KEEP_MAX`] newest kept, [`CORRUPT_KEEP_AGE`] max
    /// age). Returns the store and what was swept.
    pub fn open(
        storage: &'s dyn Storage,
        dir: &Path,
        job_fingerprint: u64,
    ) -> io::Result<(Self, TileSweep)> {
        storage.create_dir_all(dir)?;
        let swept = TileSweep {
            stale_tmp: sweep_stale_tmp(storage, dir)?,
            corrupt: sweep_quarantine(storage, dir)?,
        };
        Ok((
            TileStore {
                storage,
                dir: dir.to_path_buf(),
                job_fingerprint,
            },
            swept,
        ))
    }

    /// The file backing tile `id`.
    pub fn tile_path(&self, id: usize) -> PathBuf {
        self.dir.join(format!("tile-{id:06}.tile"))
    }

    /// Spills a completed tile atomically and durably, then reads it
    /// back. `Corrupt` unless the file holds exactly the bytes written
    /// — a write that reported success can still have torn or flipped
    /// them, in bytes a decoder would never look at (the comment line)
    /// as much as in the data; `Io` when the write or the read failed.
    pub fn save(&self, tile: &TileData) -> Result<(), TileError> {
        let _span = sts_obs::trace::span("tile.save");
        let started = std::time::Instant::now();
        let path = self.tile_path(tile.id);
        let bytes = encode_tile(self.job_fingerprint, tile);
        let back = self
            .storage
            .write_atomic(&path, &bytes)
            .and_then(|()| self.storage.read(&path));
        sts_obs::static_histogram!("runtime.tile.save_ns").record_duration(started.elapsed());
        if back? != bytes {
            sts_obs::static_counter!("runtime.tile.corrupt_detected").incr();
            return Err(TileError::Corrupt {
                path,
                reason: "read-back differs from the bytes written".into(),
            });
        }
        sts_obs::static_counter!("runtime.tile.saved").incr();
        Ok(())
    }

    /// Loads and verifies tile `id` against the slab `(start, len)`.
    /// `Ok(None)` means the tile has not been spilled; `Corrupt` means
    /// the file exists but failed verification and must be recomputed
    /// (the `runtime.tile.corrupt_detected` counter is bumped — a
    /// corrupt tile is *never* silently read back).
    pub fn load(&self, id: usize, start: usize, len: usize) -> Result<Option<TileData>, TileError> {
        let _span = sts_obs::trace::span("tile.load");
        let path = self.tile_path(id);
        if !self.storage.exists(&path) {
            return Ok(None);
        }
        let bytes = self.storage.read(&path)?;
        match decode_tile(&bytes, self.job_fingerprint, id, start, len) {
            Ok(tile) => {
                sts_obs::static_counter!("runtime.tile.loaded").incr();
                Ok(Some(tile))
            }
            Err(reason) => {
                sts_obs::static_counter!("runtime.tile.corrupt_detected").incr();
                Err(TileError::Corrupt { path, reason })
            }
        }
    }

    /// Moves a corrupt tile aside to `<file>.corrupt` so the evidence
    /// survives the recompute; if even the rename fails, removes it so
    /// the fresh spill is not blocked. Best effort by design.
    pub fn quarantine(&self, id: usize) -> PathBuf {
        let path = self.tile_path(id);
        let aside = path.with_extension("tile.corrupt");
        if self.storage.rename(&path, &aside).is_err() {
            let _ = self.storage.remove(&path);
        }
        sts_obs::static_counter!("runtime.tile.quarantined").incr();
        aside
    }

    /// Removes every `tile-*.tile` file (a completed job cleaning up
    /// after itself). Quarantined `.corrupt` files are kept.
    pub fn remove_all_tiles(&self) -> io::Result<usize> {
        let mut removed = 0usize;
        for path in self.storage.list(&self.dir)? {
            let is_tile = path.extension().is_some_and(|e| e == "tile")
                && path
                    .file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("tile-"));
            if is_tile && self.storage.remove(&path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FsStorage;
    use crate::WorkerExit;

    fn sample() -> TileData {
        TileData {
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
        }
    }

    fn bit_eq(a: &PairOutcome, b: &PairOutcome) -> bool {
        match (a, b) {
            (PairOutcome::Score(x), PairOutcome::Score(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let tile = sample();
        let bytes = encode_tile(0xFEED, &tile);
        let back = decode_tile(&bytes, 0xFEED, 3, 12, 6).unwrap();
        assert_eq!(back.cells.len(), tile.cells.len());
        for (r1, r2) in back.cells.iter().zip(&tile.cells) {
            assert!(bit_eq(r1, r2), "{r1:?} vs {r2:?}");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        // A torn write can stop at any byte; every prefix must fail
        // verification — including prefixes that end exactly on a line
        // boundary, which only the `end` trailer catches.
        let bytes = encode_tile(0xFEED, &sample());
        for cut in 0..bytes.len() {
            let result = decode_tile(&bytes[..cut], 0xFEED, 3, 12, 6);
            assert!(result.is_err(), "truncation at byte {cut} must be detected");
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_harmless() {
        // Flip one bit in every byte position. The decode must either
        // reject the file or produce records bit-identical to the
        // original — silently *different* data is the one forbidden
        // outcome. (Flips in the leading comment are harmless.)
        let tile = sample();
        let bytes = encode_tile(0xFEED, &tile);
        for pos in 0..bytes.len() {
            for bit in [0x01u8, 0x20u8, 0x80u8] {
                let mut mangled = bytes.clone();
                mangled[pos] ^= bit;
                match decode_tile(&mangled, 0xFEED, 3, 12, 6) {
                    Err(_) => {}
                    Ok(back) => {
                        assert_eq!(back.cells.len(), tile.cells.len(), "flip at {pos}");
                        for (r1, r2) in back.cells.iter().zip(&tile.cells) {
                            assert!(
                                bit_eq(r1, r2),
                                "flip at byte {pos} bit {bit:#x}: {r1:?} vs {r2:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wrong_job_or_slab_is_rejected() {
        let bytes = encode_tile(0xFEED, &sample());
        assert!(decode_tile(&bytes, 0xBEEF, 3, 12, 6)
            .unwrap_err()
            .contains("fingerprint"));
        assert!(decode_tile(&bytes, 0xFEED, 4, 12, 6)
            .unwrap_err()
            .contains("geometry"));
        assert!(decode_tile(&bytes, 0xFEED, 3, 12, 8)
            .unwrap_err()
            .contains("geometry"));
    }

    #[test]
    fn a_slab_with_a_missing_cell_is_corrupt() {
        // A well-formed file — digest and trailer consistent — that
        // holds one cell fewer than its slab: never read back short.
        let mut tile = sample();
        tile.cells.pop();
        let bytes = encode_tile(0xFEED, &tile);
        let text = String::from_utf8(bytes)
            .unwrap()
            .replace("tile 3 12 5", "tile 3 12 6");
        let dir = std::env::temp_dir().join(format!("sts-tile-short-{}", std::process::id()));
        let (store, _) = TileStore::open(&FsStorage, &dir, 0xFEED).unwrap();
        std::fs::write(store.tile_path(3), text).unwrap();
        match store.load(3, 12, 6) {
            Err(TileError::Corrupt { reason, .. }) => {
                assert!(reason.contains("5 of its 6"), "{reason}")
            }
            other => panic!("a short slab must be corrupt: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Real storage whose writes flip one bit at a fixed offset and
    /// still report success.
    struct FlipAt(usize);

    impl Storage for FlipAt {
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            let mut mangled = bytes.to_vec();
            mangled[self.0] ^= 0x01;
            FsStorage.write_atomic(path, &mangled)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
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
    }

    #[test]
    fn save_rejects_a_flip_in_bytes_no_decoder_reads() {
        // Offset 3 lies in the leading comment line: the file still
        // decodes to the same tile, but it is not what was written.
        let dir = std::env::temp_dir().join(format!("sts-tile-flip-{}", std::process::id()));
        let storage = FlipAt(3);
        let (store, _) = TileStore::open(&storage, &dir, 0xFEED).unwrap();
        let tile = sample();
        assert!(matches!(store.save(&tile), Err(TileError::Corrupt { .. })));
        let decoded = store.load(3, 12, 6).unwrap().expect("still decodes");
        assert_eq!(decoded.cells.len(), tile.cells.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_spill_load_quarantine_cycle() {
        let dir = std::env::temp_dir().join(format!("sts-tile-store-{}", std::process::id()));
        let storage = FsStorage;
        let (store, swept) = TileStore::open(&storage, &dir, 0xFEED).unwrap();
        assert_eq!(swept, TileSweep::default());
        let tile = sample();
        store.save(&tile).unwrap();
        let back = store.load(3, 12, 6).unwrap().expect("tile present");
        assert_eq!(back.cells.len(), tile.cells.len());
        // Missing tile is None, not an error.
        assert!(store.load(9, 0, 4).unwrap().is_none());
        // Corrupt the file on disk: load must detect and refuse.
        let path = store.tile_path(3);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 20] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(3, 12, 6),
            Err(TileError::Corrupt { .. })
        ));
        let aside = store.quarantine(3);
        assert!(aside.exists(), "quarantined evidence kept");
        assert!(store.load(3, 12, 6).unwrap().is_none(), "slot now free");
        // Stale tmp debris is swept on the next open.
        std::fs::write(dir.join("tile-000004.tmp"), b"torn").unwrap();
        let (_store2, swept2) = TileStore::open(&storage, &dir, 0xFEED).unwrap();
        assert_eq!(swept2.stale_tmp, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_sweep_caps_count_keeping_the_newest() {
        let dir = std::env::temp_dir().join(format!("sts-tile-qsweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let storage = FsStorage;
        // CORRUPT_KEEP_MAX + 3 quarantine files with strictly older
        // mtimes for lower ids, plus a live tile that must survive.
        std::fs::write(dir.join("tile-000099.tile"), b"live").unwrap();
        let now = std::time::SystemTime::now();
        for i in 0..CORRUPT_KEEP_MAX + 3 {
            let path = dir.join(format!("tile-{i:06}.tile.corrupt"));
            std::fs::write(&path, b"evidence").unwrap();
            let age = std::time::Duration::from_secs(600 - 60 * i as u64);
            std::fs::File::options()
                .write(true)
                .open(&path)
                .unwrap()
                .set_modified(now - age)
                .unwrap();
        }
        let swept = sweep_quarantine(&storage, &dir).unwrap();
        assert_eq!(swept, 3, "overflow beyond the cap is swept");
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
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_sweep_ages_out_old_evidence_and_counts() {
        let dir = std::env::temp_dir().join(format!("sts-tile-qage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let storage = FsStorage;
        // Two fresh files (under the count cap) plus one backdated past
        // the age cap: only the old one goes.
        std::fs::write(dir.join("tile-000000.tile.corrupt"), b"old").unwrap();
        std::fs::write(dir.join("tile-000001.tile.corrupt"), b"new").unwrap();
        std::fs::write(dir.join("tile-000002.tile.corrupt"), b"new").unwrap();
        std::fs::File::options()
            .write(true)
            .open(dir.join("tile-000000.tile.corrupt"))
            .unwrap()
            .set_modified(std::time::SystemTime::now() - CORRUPT_KEEP_AGE * 2)
            .unwrap();
        let before = sts_obs::metrics::global()
            .snapshot()
            .counter("runtime.tile.corrupt_swept")
            .unwrap_or(0);
        let (_store, swept) = TileStore::open(&storage, &dir, 0xFEED).unwrap();
        assert_eq!(swept.corrupt, 1, "only the aged-out file is swept");
        assert!(!dir.join("tile-000000.tile.corrupt").exists());
        assert!(dir.join("tile-000001.tile.corrupt").exists());
        assert!(dir.join("tile-000002.tile.corrupt").exists());
        let after = sts_obs::metrics::global()
            .snapshot()
            .counter("runtime.tile.corrupt_swept")
            .unwrap_or(0);
        assert!(after >= before + 1, "sweep counter must advance");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
