//! The pair-chunking iterator.
//!
//! Every matrix entry point is a view of one engine that iterates a
//! `rows × cols` pair space. [`PairSpace`] linearizes the space
//! row-major and [`PairSpace::chunks`] deals it out in fixed-size
//! [`PairChunk`]s, the unit of scheduling, cancellation checks and
//! panic containment throughout the runtime (tiles are chunks too, one
//! level up).

/// A `rows × cols` pair space, linearized row-major: linear index
/// `lin` names the cell `(lin / cols, lin % cols)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSpace {
    rows: usize,
    cols: usize,
}

impl PairSpace {
    /// The space of all `(query row, candidate column)` pairs.
    ///
    /// # Panics
    /// When `rows * cols` overflows `usize` — a space whose linear
    /// indices cannot be represented would silently wrap every
    /// downstream chunk computation, so it is rejected at the door.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows.checked_mul(cols).is_some(),
            "pair space {rows}x{cols} overflows usize"
        );
        PairSpace { rows, cols }
    }

    /// Number of query rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of candidate columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of pairs.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Is the space empty (no rows or no columns)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maps a linear index back to its `(row, col)` cell.
    ///
    /// # Panics
    /// When `lin >= self.len()` (out of the space).
    pub fn pair(&self, lin: usize) -> (usize, usize) {
        assert!(lin < self.len(), "pair index {lin} out of {}", self.len());
        (lin / self.cols, lin % self.cols)
    }

    /// Deals the space into chunks of at most `chunk_pairs` pairs, in
    /// linear order. `chunk_pairs` is clamped to ≥ 1. The chunks
    /// partition the space exactly: every pair appears in exactly one
    /// chunk, and chunk `k` covers linear indices
    /// `[k·chunk_pairs, …)` — aligned with `slice::chunks_mut` over a
    /// flat row-major buffer, which is how the strict matrix path
    /// hands each chunk a disjoint output slice.
    pub fn chunks(&self, chunk_pairs: usize) -> impl Iterator<Item = PairChunk> + '_ {
        let size = chunk_pairs.max(1);
        let total = self.len();
        (0..total.div_ceil(size)).map(move |id| {
            let start = id * size;
            PairChunk {
                id,
                start,
                len: size.min(total - start),
            }
        })
    }
}

/// A contiguous run of linear pair indices — the unit of work dealt to
/// the supervised pool's shared queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairChunk {
    /// Sequential chunk id (`0..n_chunks` for [`PairSpace::chunks`]).
    /// The pool reports slow chunks by this id; its status vector is
    /// indexed by position in the chunk slice instead.
    pub id: usize,
    /// First linear pair index covered.
    pub start: usize,
    /// Number of pairs covered.
    pub len: usize,
}

impl PairChunk {
    /// The linear pair indices this chunk covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_the_space_exactly() {
        for (rows, cols, size) in [(3, 5, 4), (1, 1, 1), (4, 4, 16), (4, 4, 64), (7, 3, 1)] {
            let space = PairSpace::new(rows, cols);
            let mut seen = vec![0usize; space.len()];
            for (k, chunk) in space.chunks(size).enumerate() {
                assert_eq!(chunk.id, k);
                assert!(chunk.len >= 1 && chunk.len <= size);
                for lin in chunk.range() {
                    seen[lin] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "{rows}x{cols}/{size}: {seen:?}"
            );
        }
    }

    #[test]
    fn empty_space_yields_no_chunks() {
        assert_eq!(PairSpace::new(0, 7).chunks(4).count(), 0);
        assert_eq!(PairSpace::new(7, 0).chunks(4).count(), 0);
        assert!(PairSpace::new(0, 7).is_empty());
    }

    #[test]
    fn pair_mapping_is_row_major() {
        let space = PairSpace::new(3, 4);
        assert_eq!(space.pair(0), (0, 0));
        assert_eq!(space.pair(3), (0, 3));
        assert_eq!(space.pair(4), (1, 0));
        assert_eq!(space.pair(11), (2, 3));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn pair_mapping_rejects_out_of_space() {
        PairSpace::new(2, 2).pair(4);
    }

    #[test]
    fn zero_chunk_size_is_clamped() {
        let space = PairSpace::new(2, 2);
        assert_eq!(space.chunks(0).count(), 4);
    }

    #[test]
    fn single_row_and_single_column_spaces_chunk_correctly() {
        // Degenerate-but-legal geometries: a 1×n top-k row job and an
        // n×1 column job must chunk exactly like any other space.
        for (rows, cols) in [(1, 9), (9, 1), (1, 1)] {
            let space = PairSpace::new(rows, cols);
            assert_eq!(space.len(), rows * cols);
            let chunks: Vec<PairChunk> = space.chunks(4).collect();
            assert_eq!(chunks.len(), space.len().div_ceil(4));
            let covered: usize = chunks.iter().map(|c| c.len).sum();
            assert_eq!(covered, space.len());
            // Row-major mapping holds at the edges.
            assert_eq!(space.pair(0), (0, 0));
            assert_eq!(space.pair(space.len() - 1), (rows - 1, cols - 1));
        }
    }

    #[test]
    fn empty_space_has_full_api_coverage() {
        for (rows, cols) in [(0, 0), (0, 5), (5, 0)] {
            let space = PairSpace::new(rows, cols);
            assert!(space.is_empty());
            assert_eq!(space.len(), 0);
            assert_eq!(space.chunks(1).count(), 0);
            assert_eq!(space.chunks(usize::MAX).count(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn huge_dims_overflow_is_rejected_not_wrapped() {
        // usize::MAX x 2 wraps to a *small* product; before the guard
        // this produced a chunk count of ~0 and silently dropped the
        // entire pair space.
        PairSpace::new(usize::MAX, 2);
    }

    #[test]
    fn max_len_space_still_counts_chunks_without_overflow() {
        // A space of exactly usize::MAX pairs is representable; its
        // chunk *count* must not overflow either.
        let space = PairSpace::new(usize::MAX, 1);
        assert_eq!(space.len(), usize::MAX);
        let mut chunks = space.chunks(usize::MAX);
        let first = chunks.next().unwrap();
        assert_eq!(first.len, usize::MAX);
        assert!(chunks.next().is_none());
    }

    #[test]
    fn chunk_boundaries_align_with_slice_chunks_mut() {
        let space = PairSpace::new(5, 7);
        let mut flat = vec![0u8; space.len()];
        let size = 4;
        let chunks: Vec<PairChunk> = space.chunks(size).collect();
        let slices: Vec<&mut [u8]> = flat.chunks_mut(size).collect();
        assert_eq!(chunks.len(), slices.len());
        for (c, s) in chunks.iter().zip(&slices) {
            assert_eq!(c.len, s.len());
        }
    }
}
