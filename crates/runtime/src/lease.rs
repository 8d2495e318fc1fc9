//! Lease-based tile assignment with at-most-once commit.
//!
//! The sharded tile engine deals tiles to a fleet of socket workers.
//! Under network chaos the same tile can be in flight on two workers
//! at once: worker A wedges mid-tile, the lease expires, the tile is
//! re-dealt to worker B — and then A's result arrives late anyway.
//! [`LeaseTable`] is the arbiter that makes this safe:
//!
//! * every grant carries a fresh, monotonically increasing **epoch**
//!   (the wire request id), so the table can tell the live lease from
//!   every superseded one;
//! * [`LeaseTable::commit`] accepts a result only when it carries the
//!   *current* epoch of a tile that is still leased — duplicate results
//!   (same epoch twice: a duplicated frame) and stale results (an
//!   expired lease's epoch) are refused with a typed verdict;
//! * a committed tile is final: no later result, however confused the
//!   sender, can overwrite or double-count it.
//!
//! Scoring is deterministic, so refusing a stale result is correct
//! either way — the committed bytes are identical to what the stale
//! sender computed. Refusal is simply the smaller proof obligation:
//! exactly one spill per tile ever happens.
//!
//! The table is single-threaded on purpose (the coordinator owns it
//! behind its own mutex); it tracks assignment, not I/O. Units are
//! indexed densely; crash attribution adds the halves of a bisected
//! unit as new units ([`LeaseTable::add`]).

/// Lifecycle of one tile in the shard scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileState {
    /// Not yet dealt (or returned to the queue by an expiry).
    Pending,
    /// Held by a worker under the given epoch.
    Leased { epoch: u64 },
    /// Committed; the spill exists and is final.
    Done,
}

/// Verdict of a commit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// First valid result for this tile under its live epoch: the
    /// caller owns the spill now.
    Committed,
    /// The tile is already committed — a duplicated or re-sent result.
    /// Discard it.
    Duplicate,
    /// The epoch does not match the live lease (an expired lease's
    /// result arriving late, or a result for a tile not currently
    /// leased). Discard it.
    Stale,
}

/// Per-tile lease registry with monotonically increasing epochs.
#[derive(Debug)]
pub struct LeaseTable {
    states: Vec<TileState>,
    next_epoch: u64,
    granted: usize,
    expired: usize,
    refused: usize,
}

impl LeaseTable {
    /// A table over `tiles` tiles, all pending.
    pub fn new(tiles: usize) -> Self {
        LeaseTable {
            states: vec![TileState::Pending; tiles],
            next_epoch: 1,
            granted: 0,
            expired: 0,
            refused: 0,
        }
    }

    /// Adds one pending tile and returns its index.
    pub fn add(&mut self) -> usize {
        self.states.push(TileState::Pending);
        self.states.len() - 1
    }

    /// Grants a lease on `tile`, superseding any live lease it had
    /// (the old epoch becomes stale immediately). Returns the new
    /// epoch, or `None` when the tile is already committed.
    pub fn lease(&mut self, tile: usize) -> Option<u64> {
        if self.states[tile] == TileState::Done {
            return None;
        }
        let epoch = self.next_epoch;
        // Epoch uniqueness is the whole at-most-once argument: a
        // wrapped counter could resurrect a zombie's stale epoch as
        // live. u64 exhaustion is unreachable in practice (5 GHz of
        // grants for a century), so treat it as corruption, never wrap.
        self.next_epoch = self
            .next_epoch
            .checked_add(1)
            .expect("lease epoch counter exhausted");
        self.states[tile] = TileState::Leased { epoch };
        self.granted += 1;
        Some(epoch)
    }

    /// Expires the live lease on `tile` (holder died or went silent):
    /// the tile returns to pending and its epoch becomes stale. No-op
    /// for tiles not currently leased.
    pub fn expire(&mut self, tile: usize) {
        if matches!(self.states[tile], TileState::Leased { .. }) {
            self.states[tile] = TileState::Pending;
            self.expired += 1;
        }
    }

    /// Attempts to commit `tile` under `epoch`. Exactly one call per
    /// tile ever returns [`CommitOutcome::Committed`].
    pub fn commit(&mut self, tile: usize, epoch: u64) -> CommitOutcome {
        match self.states[tile] {
            TileState::Done => {
                self.refused += 1;
                CommitOutcome::Duplicate
            }
            TileState::Leased { epoch: live } if live == epoch => {
                self.states[tile] = TileState::Done;
                CommitOutcome::Committed
            }
            _ => {
                self.refused += 1;
                CommitOutcome::Stale
            }
        }
    }

    /// Leases granted over the table's lifetime (re-leases count).
    pub fn leases_granted(&self) -> usize {
        self.granted
    }

    /// Leases expired over the table's lifetime.
    pub fn leases_expired(&self) -> usize {
        self.expired
    }

    /// Commits refused (duplicate or stale) over the table's lifetime.
    pub fn commits_refused(&self) -> usize {
        self.refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_unique_and_monotonic() {
        let mut t = LeaseTable::new(3);
        let e0 = t.lease(0).unwrap();
        let e1 = t.lease(1).unwrap();
        let e2 = t.lease(2).unwrap();
        assert!(e0 < e1 && e1 < e2, "epochs must increase");
        assert_eq!(t.leases_granted(), 3);
    }

    #[test]
    fn commit_is_at_most_once() {
        let mut t = LeaseTable::new(1);
        let e = t.lease(0).unwrap();
        assert_eq!(t.commit(0, e), CommitOutcome::Committed);
        // The same result delivered twice (a duplicated frame).
        assert_eq!(t.commit(0, e), CommitOutcome::Duplicate);
        // A fresh lease on a committed tile is refused outright.
        assert_eq!(t.lease(0), None);
        assert_eq!(t.commits_refused(), 1);
    }

    #[test]
    fn stale_epochs_never_commit() {
        let mut t = LeaseTable::new(1);
        let old = t.lease(0).unwrap();
        // Holder went silent; the tile is re-dealt.
        t.expire(0);
        let new = t.lease(0).unwrap();
        assert_ne!(old, new);
        // The zombie's late result must not win.
        assert_eq!(t.commit(0, old), CommitOutcome::Stale);
        assert_eq!(t.commit(0, new), CommitOutcome::Committed);
        assert_eq!(t.leases_expired(), 1);
        assert_eq!(t.commits_refused(), 1);
    }

    #[test]
    fn releasing_supersedes_the_live_epoch() {
        let mut t = LeaseTable::new(1);
        let old = t.lease(0).unwrap();
        // Re-lease without an explicit expire (lost worker detected at
        // grant time): the old epoch silently dies.
        let new = t.lease(0).unwrap();
        assert_eq!(t.commit(0, old), CommitOutcome::Stale);
        assert_eq!(t.commit(0, new), CommitOutcome::Committed);
    }

    #[test]
    fn double_expiry_chain_keeps_every_dead_epoch_stale() {
        // The full zombie parade: lease → expire → re-lease → expire
        // again → re-lease. Both dead epochs' results then arrive late,
        // in either order, and must be refused; only the third (live)
        // epoch commits.
        let mut t = LeaseTable::new(1);
        let e1 = t.lease(0).unwrap();
        t.expire(0);
        let e2 = t.lease(0).unwrap();
        t.expire(0);
        let e3 = t.lease(0).unwrap();
        assert!(e1 < e2 && e2 < e3);
        // Second zombie reports first, then the first.
        assert_eq!(t.commit(0, e2), CommitOutcome::Stale);
        assert_eq!(t.commit(0, e1), CommitOutcome::Stale);
        assert_eq!(t.commit(0, e3), CommitOutcome::Committed);
        // Post-commit, the zombies retry: now Duplicate, not Stale.
        assert_eq!(t.commit(0, e1), CommitOutcome::Duplicate);
        assert_eq!(t.leases_granted(), 3);
        assert_eq!(t.leases_expired(), 2);
        assert_eq!(t.commits_refused(), 3);
    }

    #[test]
    #[should_panic(expected = "lease epoch counter exhausted")]
    fn epoch_counter_exhaustion_panics_instead_of_wrapping() {
        // A wrapped epoch counter would hand a live lease an epoch some
        // zombie may still hold — the guard must refuse to wrap.
        let mut t = LeaseTable::new(1);
        t.next_epoch = u64::MAX;
        let e = t.lease(0);
        // Unreachable: the grant at u64::MAX must panic, not succeed.
        assert_eq!(e, Some(u64::MAX));
    }

    #[test]
    fn added_tiles_lease_and_commit_like_the_rest() {
        let mut t = LeaseTable::new(1);
        let e0 = t.lease(0).unwrap();
        t.expire(0);
        // The expired tile is bisected into two new ones.
        assert_eq!((t.add(), t.add()), (1, 2));
        let (e1, e2) = (t.lease(1).unwrap(), t.lease(2).unwrap());
        assert!(e0 < e1 && e1 < e2);
        assert_eq!(t.commit(2, e2), CommitOutcome::Committed);
        assert_eq!(t.commit(1, e2), CommitOutcome::Stale);
        assert_eq!(t.commit(1, e1), CommitOutcome::Committed);
        assert_eq!(t.leases_granted(), 3);
    }

    #[test]
    fn expire_on_unleased_tile_is_a_no_op() {
        let mut t = LeaseTable::new(1);
        t.expire(0);
        assert_eq!(t.leases_expired(), 0);
        let e = t.lease(0).unwrap();
        assert_eq!(t.commit(0, e), CommitOutcome::Committed);
        t.expire(0);
        assert_eq!(t.leases_expired(), 0, "done tiles cannot expire");
    }
}
