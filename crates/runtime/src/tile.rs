//! Durable matrix tiles: the out-of-core unit of the tiled job engine.
//!
//! A *tile* is one [`PairChunk`](crate::PairChunk)-sized slab of the
//! pair space, spilled to its own file once every cell in it has a
//! terminal outcome. The file is sealed like every durable artifact
//! ([`crate::store::seal`]); only the header and the cell lines are the
//! tile's own:
//!
//! ```text
//! tile v3 <job:016x> <id> <start> <len>   # job-input fingerprint, slab
//! s <score>                               # one line per cell of the
//! q                                       # slab, in order, in the one
//! f <attempts>                            # cell text form
//! end <len> <fnv64>                       # (`crate::record`: s/f/q/x)
//! ```
//!
//! A load accepts a file only when it unseals (no torn tail, no flipped
//! byte anywhere), its header names the job's input fingerprint (a tile
//! from another corpus is rejected) and the expected slab, and its body
//! holds exactly the slab's cells. Anything else is a typed
//! [`TileError::Corrupt`]; the engine quarantines the file aside
//! (`.corrupt` suffix — evidence, not garbage) and recomputes the tile.
//! Loads never guess. A tile written by an older build in another
//! format fails the same checks and is recomputed the same way.
//!
//! All I/O goes through the injectable [`Storage`] trait, which is how
//! the `sts-robust` disk-chaos suite drives torn writes, bit flips,
//! ENOSPC and stale tmp files through this exact code.

use crate::record::{decode_cell, encode_cell, PairOutcome};
use crate::store::{self, numbered, open_dir, seal, unseal, write_verified};
use crate::store::{Storage, Sweep, WriteFailure};
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
    /// wrong job, wrong slab). The tile must be recomputed.
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

/// Serializes a tile to the sealed text format. Infallible (writes to
/// memory); durability is the caller's [`TileStore::save`].
pub fn encode_tile(job_fingerprint: u64, tile: &TileData) -> Vec<u8> {
    let mut cells = String::new();
    for cell in &tile.cells {
        encode_cell(cell, &mut cells);
        cells.push('\n');
    }
    let (id, start, len) = (tile.id, tile.start, tile.cells.len());
    seal(
        &format!("tile v3 {job_fingerprint:016x} {id} {start} {len}"),
        &cells,
    )
    .into_bytes()
}

/// Unseals and fully verifies a tile against the slab the caller
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
    let (header, body) = unseal(bytes)?;
    let fields: Vec<&str> = header.split(' ').collect();
    let ["tile", "v3", job, ref geometry @ ..] = fields[..] else {
        return Err(format!("expected a `tile v3` header, got `{header}`"));
    };
    let want_job = format!("{job_fingerprint:016x}");
    if job != want_job {
        return Err(format!(
            "job fingerprint {job} does not match inputs {want_job}"
        ));
    }
    if geometry.join(" ") != format!("{id} {start} {len}") {
        return Err(format!(
            "tile geometry {} does not match expected {id}/{start}/{len}",
            geometry.join("/")
        ));
    }
    let cells = body
        .lines()
        .map(|line| {
            let mut fields = line.split_whitespace();
            let cell = decode_cell(&mut fields)?;
            match fields.next() {
                Some(_) => Err(format!("trailing fields in `{line}`")),
                None => Ok(cell),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    if cells.len() != len {
        return Err(format!("slab holds {} of its {len} cell(s)", cells.len()));
    }
    Ok(TileData { id, start, cells })
}

/// A directory of tiles for one job, bound to the job's input
/// fingerprint. All I/O goes through the injected [`Storage`].
pub struct TileStore<'s> {
    storage: &'s dyn Storage,
    dir: PathBuf,
    job_fingerprint: u64,
}

impl<'s> TileStore<'s> {
    /// Opens (creating if needed) the tile directory and sweeps its
    /// debris with [`store::open_dir`]: orphaned `*.tmp` files from
    /// interrupted spills, and quarantine files beyond the retention
    /// policy. Returns the store and what was swept.
    pub fn open(
        storage: &'s dyn Storage,
        dir: &Path,
        job_fingerprint: u64,
    ) -> io::Result<(Self, Sweep)> {
        let swept = open_dir(storage, dir)?;
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
    /// back, in one attempt: a failed spill degrades to memory, so it
    /// is not retried. `Corrupt` unless the file holds exactly the
    /// bytes written — a write that reported success can still have
    /// torn or flipped them; `Io` when the write or the read failed.
    pub fn save(&self, tile: &TileData) -> Result<(), TileError> {
        let _span = sts_obs::trace::span("tile.save");
        let started = std::time::Instant::now();
        let path = self.tile_path(tile.id);
        let bytes = encode_tile(self.job_fingerprint, tile);
        let mut mismatch = false;
        let written = write_verified(self.storage, &path, &bytes, 1, |failure| {
            mismatch = failure == WriteFailure::Mismatch;
        });
        sts_obs::static_histogram!("runtime.tile.save_ns").record_duration(started.elapsed());
        match written {
            Ok(()) => {
                sts_obs::static_counter!("runtime.tile.saved").incr();
                Ok(())
            }
            Err(_) if mismatch => {
                sts_obs::static_counter!("runtime.tile.corrupt_detected").incr();
                Err(TileError::Corrupt {
                    path,
                    reason: "read-back differs from the bytes written".into(),
                })
            }
            Err(e) => Err(TileError::Io(e)),
        }
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

    /// Moves a corrupt tile aside with [`store::quarantine`] so the
    /// evidence survives the recompute, and returns where it went.
    pub fn quarantine(&self, id: usize) -> PathBuf {
        sts_obs::static_counter!("runtime.tile.quarantined").incr();
        store::quarantine(self.storage, &self.tile_path(id))
    }

    /// Removes every `tile-N.tile` file (a completed job cleaning up
    /// after itself). Quarantined `.corrupt` files are kept.
    pub fn remove_all_tiles(&self) -> io::Result<usize> {
        let mut removed = 0usize;
        for (_, path) in numbered(self.storage, &self.dir, "tile-", "tile")? {
            if self.storage.remove(&path).is_ok() {
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
        // A well-formed, sealed file whose header names a slab of six
        // cells but whose body holds five: never read back short.
        let mut tile = sample();
        tile.cells.pop();
        let bytes = encode_tile(0xFEED, &tile);
        let (_, body) = unseal(&bytes).unwrap();
        let text = seal("tile v3 000000000000feed 3 12 6", body);
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
        // Offset 3 lies in the header's `tile` keyword: the read-back
        // differs from what was written, and since the seal covers the
        // header too, a load refuses the file as well.
        let dir = std::env::temp_dir().join(format!("sts-tile-flip-{}", std::process::id()));
        let storage = FlipAt(3);
        let (store, _) = TileStore::open(&storage, &dir, 0xFEED).unwrap();
        let tile = sample();
        assert!(matches!(store.save(&tile), Err(TileError::Corrupt { .. })));
        assert!(matches!(
            store.load(3, 12, 6),
            Err(TileError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_spill_load_quarantine_cycle() {
        let dir = std::env::temp_dir().join(format!("sts-tile-store-{}", std::process::id()));
        let storage = FsStorage;
        let (store, swept) = TileStore::open(&storage, &dir, 0xFEED).unwrap();
        assert_eq!(swept, Sweep::default());
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
}
