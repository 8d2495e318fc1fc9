//! Disk-fault injection for the [`Storage`] trait — the attack side of
//! the out-of-core tiled engine's durability contract.
//!
//! The tiled matrix engine (`sts_core::tiled`) routes every tile spill
//! through `sts_runtime::Storage`. [`FaultyStorage`] wraps the real
//! [`FsStorage`] and, per a seeded [`DiskFaultPlan`], turns individual
//! atomic writes into the disk failures that actually eat data in
//! production:
//!
//! * [`DiskFault::TornWrite`] — the file lands truncated at a seeded
//!   cut point (an fsync that lied, a kernel crash mid-flush): the
//!   write *reports success* and the corruption must be caught on
//!   read-back;
//! * [`DiskFault::BitFlip`] — one seeded bit of the payload flips
//!   (bit rot, a bad cable): again reported as success;
//! * [`DiskFault::Enospc`] — the write fails up front with
//!   `StorageFull`, the honest ENOSPC;
//! * [`DiskFault::StaleTmp`] — the `*.tmp` sibling is written and the
//!   operation dies before the rename (a SIGKILL between the two
//!   syscalls), leaving exactly the debris the runtime's
//!   `store::open_dir` sweeps.
//!
//! Every decision is a pure function of `(plan.seed, write_index)`, so
//! a chaos run is replayable from its seed alone, and every injected
//! fault is logged ([`FaultyStorage::injected`]) so suites can assert
//! *exact* detection counts: a fault that was injected but never
//! detected is a test failure, not a shrug.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use sts_rng::{Rng, Xoshiro256pp};
use sts_runtime::store::tmp_path;
use sts_runtime::{FsStorage, Storage};

/// One way an atomic write can go wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The file is durably written but truncated at a seeded cut
    /// point; the write reports success.
    TornWrite,
    /// One seeded bit of the written bytes is flipped; the write
    /// reports success.
    BitFlip,
    /// The write fails with `StorageFull` before touching the disk.
    Enospc,
    /// The `*.tmp` sibling is written, then the operation "crashes"
    /// before the rename: the target is untouched, the tmp file is
    /// left behind, and the write reports an error.
    StaleTmp,
}

/// A seeded, per-write fault schedule. Rates are per-mille and
/// cumulative (their sum must be ≤ 1000); `enospc_at_write` forces a
/// deterministic `Enospc` at exactly the k-th write regardless of the
/// rates — the "disk fills at the worst moment" scenario.
#[derive(Debug, Clone, Copy)]
pub struct DiskFaultPlan {
    /// Seed for every per-write decision.
    pub seed: u64,
    /// Per-mille of writes that land torn.
    pub torn_per_mille: u32,
    /// Per-mille of writes that land with a flipped bit.
    pub flip_per_mille: u32,
    /// Per-mille of writes that fail with `StorageFull`.
    pub enospc_per_mille: u32,
    /// Per-mille of writes that die between tmp write and rename.
    pub stale_per_mille: u32,
    /// Force `Enospc` at exactly this 0-based write index.
    pub enospc_at_write: Option<u64>,
}

impl DiskFaultPlan {
    /// A plan that never injects — the identity wrapper, for
    /// differential runs.
    pub fn none(seed: u64) -> Self {
        DiskFaultPlan {
            seed,
            torn_per_mille: 0,
            flip_per_mille: 0,
            enospc_per_mille: 0,
            stale_per_mille: 0,
            enospc_at_write: None,
        }
    }

    /// The fault (if any) injected at 0-based `write_index`. Pure:
    /// same plan, same index, same answer.
    pub fn fault_for(&self, write_index: u64) -> Option<DiskFault> {
        if Some(write_index) == self.enospc_at_write {
            return Some(DiskFault::Enospc);
        }
        let mut rng = self.write_rng(write_index);
        let roll = rng.random_range(0u32..1000);
        let mut acc = self.torn_per_mille;
        if roll < acc {
            return Some(DiskFault::TornWrite);
        }
        acc += self.flip_per_mille;
        if roll < acc {
            return Some(DiskFault::BitFlip);
        }
        acc += self.enospc_per_mille;
        if roll < acc {
            return Some(DiskFault::Enospc);
        }
        acc += self.stale_per_mille;
        if roll < acc {
            return Some(DiskFault::StaleTmp);
        }
        None
    }

    /// The per-write generator — also drives the cut point / bit
    /// choice, decorrelated from the fault roll above.
    fn write_rng(&self, write_index: u64) -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(
            self.seed ^ write_index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD15C_FA17,
        )
    }
}

/// One fault that actually fired, for post-run assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// 0-based index of the write the fault hit.
    pub write_index: u64,
    /// The path the write targeted.
    pub path: PathBuf,
    /// What was done to it.
    pub fault: DiskFault,
}

/// A [`Storage`] that injects [`DiskFaultPlan`] faults into
/// `write_atomic` and delegates everything else (reads are always
/// honest: the point is detecting what the *writes* corrupted).
#[derive(Debug)]
pub struct FaultyStorage {
    inner: FsStorage,
    plan: DiskFaultPlan,
    writes: AtomicU64,
    log: Mutex<Vec<InjectedFault>>,
}

impl FaultyStorage {
    /// Wraps the real filesystem with `plan`.
    pub fn new(plan: DiskFaultPlan) -> Self {
        FaultyStorage {
            inner: FsStorage,
            plan,
            writes: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Total `write_atomic` calls observed so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Every fault that fired, in write order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.log.lock().unwrap().clone()
    }

    /// How many times `fault` fired.
    pub fn count(&self, fault: DiskFault) -> usize {
        self.log
            .lock()
            .unwrap()
            .iter()
            .filter(|f| f.fault == fault)
            .count()
    }

    fn record(&self, write_index: u64, path: &Path, fault: DiskFault) {
        // Telemetry mirrors the ledger one-to-one — chaos suites
        // reconcile the per-kind counters against `injected()` exactly.
        sts_obs::static_counter!("robust.disk.injected").incr();
        match fault {
            DiskFault::TornWrite => {
                sts_obs::static_counter!("robust.disk.injected.torn").incr();
                sts_obs::trace::event("robust.disk.torn", write_index as f64);
            }
            DiskFault::BitFlip => {
                sts_obs::static_counter!("robust.disk.injected.bitflip").incr();
                sts_obs::trace::event("robust.disk.bitflip", write_index as f64);
            }
            DiskFault::Enospc => {
                sts_obs::static_counter!("robust.disk.injected.enospc").incr();
                sts_obs::trace::event("robust.disk.enospc", write_index as f64);
            }
            DiskFault::StaleTmp => {
                sts_obs::static_counter!("robust.disk.injected.stale_tmp").incr();
                sts_obs::trace::event("robust.disk.stale_tmp", write_index as f64);
            }
        }
        self.log.lock().unwrap().push(InjectedFault {
            write_index,
            path: path.to_path_buf(),
            fault,
        });
    }
}

impl Storage for FaultyStorage {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let idx = self.writes.fetch_add(1, Ordering::SeqCst);
        let Some(fault) = self.plan.fault_for(idx) else {
            return self.inner.write_atomic(path, bytes);
        };
        self.record(idx, path, fault);
        let mut rng = self.plan.write_rng(idx);
        rng.next_u64(); // skip the fault roll's draw
        match fault {
            DiskFault::TornWrite => {
                // The truncated prefix lands "durably": success is
                // reported and detection is the reader's job.
                let cut = if bytes.len() < 2 {
                    0
                } else {
                    rng.random_range(1..bytes.len())
                };
                self.inner.write_atomic(path, &bytes[..cut])
            }
            DiskFault::BitFlip => {
                let mut mangled = bytes.to_vec();
                if !mangled.is_empty() {
                    let pos = rng.random_range(0..mangled.len());
                    let bit = rng.random_range(0u32..8);
                    mangled[pos] ^= 1 << bit;
                }
                self.inner.write_atomic(path, &mangled)
            }
            DiskFault::Enospc => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            )),
            DiskFault::StaleTmp => {
                // Crash between tmp write and rename: target untouched,
                // tmp debris left for store::open_dir to sweep.
                std::fs::write(tmp_path(path), bytes)?;
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "injected crash before rename",
                ))
            }
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn modified(&self, path: &Path) -> io::Result<Option<std::time::SystemTime>> {
        self.inner.modified(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sts-robust-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fault_schedule_is_deterministic_and_ladder_shaped() {
        let plan = DiskFaultPlan {
            seed: 42,
            torn_per_mille: 250,
            flip_per_mille: 250,
            enospc_per_mille: 250,
            stale_per_mille: 250,
            enospc_at_write: Some(7),
        };
        let mut counts = [0usize; 4];
        for idx in 0..4000 {
            let a = plan.fault_for(idx);
            assert_eq!(
                a,
                plan.fault_for(idx),
                "write {idx} must replay identically"
            );
            match a {
                Some(DiskFault::TornWrite) => counts[0] += 1,
                Some(DiskFault::BitFlip) => counts[1] += 1,
                Some(DiskFault::Enospc) => counts[2] += 1,
                Some(DiskFault::StaleTmp) => counts[3] += 1,
                None => panic!("rates sum to 1000: every write must fault"),
            }
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(c),
                "fault {i} fired {c}/4000 times — ladder is skewed"
            );
        }
        assert_eq!(
            plan.fault_for(7),
            Some(DiskFault::Enospc),
            "forced k-th write"
        );
        assert_eq!(
            DiskFaultPlan::none(9).fault_for(123),
            None,
            "the identity plan never fires"
        );
    }

    #[test]
    fn faults_land_on_disk_as_advertised() {
        let dir = temp_dir("land");
        // One deterministic fault per scenario via forced/none plans.
        let torn = FaultyStorage::new(DiskFaultPlan {
            torn_per_mille: 1000,
            ..DiskFaultPlan::none(1)
        });
        let target = dir.join("a.tile");
        let payload = vec![0xABu8; 256];
        torn.write_atomic(&target, &payload).unwrap();
        let back = std::fs::read(&target).unwrap();
        assert!(
            back.len() < payload.len() && !back.is_empty(),
            "torn prefix"
        );
        assert_eq!(torn.count(DiskFault::TornWrite), 1);

        let flip = FaultyStorage::new(DiskFaultPlan {
            flip_per_mille: 1000,
            ..DiskFaultPlan::none(2)
        });
        flip.write_atomic(&target, &payload).unwrap();
        let back = std::fs::read(&target).unwrap();
        assert_eq!(back.len(), payload.len());
        let flipped: u32 = back
            .iter()
            .zip(&payload)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit flips");

        let full = FaultyStorage::new(DiskFaultPlan {
            enospc_at_write: Some(0),
            ..DiskFaultPlan::none(3)
        });
        let err = full
            .write_atomic(&dir.join("b.tile"), &payload)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!dir.join("b.tile").exists(), "ENOSPC touches nothing");

        let stale = FaultyStorage::new(DiskFaultPlan {
            stale_per_mille: 1000,
            ..DiskFaultPlan::none(4)
        });
        let c = dir.join("c.tile");
        stale.write_atomic(&c, &payload).unwrap_err();
        assert!(!c.exists(), "target untouched");
        assert!(tmp_path(&c).exists(), "tmp debris left for the sweeper");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
