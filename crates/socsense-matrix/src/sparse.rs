//! Immutable sparse binary matrices with a dual CSR/CSC index.
//!
//! The source-claim matrix `SC` and the dependency indicator matrix `D`
//! are consumed along both axes: the EM E-step walks *columns* (all sources
//! touching one assertion), the M-step walks *rows* (all assertions touched
//! by one source). [`SparseBinaryMatrix`] therefore stores both a CSR and a
//! CSC index, built once by [`SparseBinaryMatrixBuilder::build`], and is
//! immutable afterwards.

use serde::{Deserialize, Serialize};

/// Builder accumulating `(row, col)` entries for a [`SparseBinaryMatrix`].
///
/// Duplicate insertions are allowed and collapse to a single entry at
/// [`build`](Self::build) time, matching the semantics of a binary
/// incidence matrix ("source `i` asserted `C_j` at least once").
///
/// # Example
///
/// ```
/// use socsense_matrix::SparseBinaryMatrixBuilder;
///
/// let mut b = SparseBinaryMatrixBuilder::new(2, 2);
/// b.insert(1, 0);
/// b.insert(1, 0); // duplicate, collapsed
/// let m = b.build();
/// assert_eq!(m.nnz(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseBinaryMatrixBuilder {
    nrows: u32,
    ncols: u32,
    entries: Vec<(u32, u32)>,
}

impl SparseBinaryMatrixBuilder {
    /// Creates a builder for an `nrows × ncols` matrix with no entries.
    pub fn new(nrows: u32, ncols: u32) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates a builder and pre-reserves space for `cap` entries.
    pub fn with_capacity(nrows: u32, ncols: u32, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Records that cell `(row, col)` is set.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds; entries are validated
    /// eagerly so the panic points at the faulty insertion, not at `build`.
    pub fn insert(&mut self, row: u32, col: u32) {
        assert!(
            row < self.nrows && col < self.ncols,
            "entry ({row}, {col}) out of bounds for {}x{} matrix",
            self.nrows,
            self.ncols
        );
        self.entries.push((row, col));
    }

    /// Sorts, deduplicates, and freezes the entries into a matrix.
    pub fn build(mut self) -> SparseBinaryMatrix {
        self.entries.sort_unstable();
        self.entries.dedup();
        SparseBinaryMatrix::from_sorted_unique(self.nrows, self.ncols, &self.entries)
    }
}

impl Extend<(u32, u32)> for SparseBinaryMatrixBuilder {
    fn extend<T: IntoIterator<Item = (u32, u32)>>(&mut self, iter: T) {
        for (r, c) in iter {
            self.insert(r, c);
        }
    }
}

/// An immutable `nrows × ncols` binary matrix with CSR *and* CSC indexes.
///
/// Rows and columns are addressed by `u32`; set cells within a row (or
/// column) are exposed as sorted slices, so membership tests are binary
/// searches and intersections are linear merges.
///
/// Construct it through [`SparseBinaryMatrixBuilder`] or
/// [`SparseBinaryMatrix::from_entries`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseBinaryMatrix {
    nrows: u32,
    ncols: u32,
    // CSR
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    // CSC
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
}

impl SparseBinaryMatrix {
    /// Builds a matrix from an arbitrary entry list (duplicates collapsed).
    ///
    /// # Panics
    ///
    /// Panics if any entry is out of bounds.
    pub fn from_entries(
        nrows: u32,
        ncols: u32,
        entries: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let mut b = SparseBinaryMatrixBuilder::new(nrows, ncols);
        b.extend(entries);
        b.build()
    }

    /// An `nrows × ncols` matrix with no set cells.
    pub fn empty(nrows: u32, ncols: u32) -> Self {
        Self::from_sorted_unique(nrows, ncols, &[])
    }

    fn from_sorted_unique(nrows: u32, ncols: u32, entries: &[(u32, u32)]) -> Self {
        let n = nrows as usize;
        let m = ncols as usize;
        let nnz = entries.len();

        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::with_capacity(nnz);
        for &(r, c) in entries {
            row_ptr[r as usize + 1] += 1;
            col_idx.push(c);
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }

        // Counting sort by column for the CSC side; rows remain sorted
        // within each column because the input is row-major sorted.
        let mut col_ptr = vec![0usize; m + 1];
        for &(_, c) in entries {
            col_ptr[c as usize + 1] += 1;
        }
        for j in 0..m {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut cursor = col_ptr.clone();
        let mut row_idx = vec![0u32; nnz];
        for &(r, c) in entries {
            let slot = cursor[c as usize];
            row_idx[slot] = r;
            cursor[c as usize] += 1;
        }

        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            col_ptr,
            row_idx,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> u32 {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> u32 {
        self.ncols
    }

    /// Number of set cells.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Sorted column indices set in `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= nrows`.
    pub fn row(&self, row: u32) -> &[u32] {
        let r = row as usize;
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Sorted row indices set in `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col >= ncols`.
    pub fn col(&self, col: u32) -> &[u32] {
        let c = col as usize;
        &self.row_idx[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// Number of set cells in `row`.
    pub fn row_nnz(&self, row: u32) -> usize {
        self.row(row).len()
    }

    /// Number of set cells in `col`.
    pub fn col_nnz(&self, col: u32) -> usize {
        self.col(col).len()
    }

    /// Whether cell `(row, col)` is set. Out-of-bounds coordinates are
    /// reported as unset rather than panicking, which lets callers probe
    /// ragged data safely.
    pub fn contains(&self, row: u32, col: u32) -> bool {
        if row >= self.nrows || col >= self.ncols {
            return false;
        }
        self.row(row).binary_search(&col).is_ok()
    }

    /// Iterates over all set cells in row-major order.
    pub fn entries(&self) -> EntriesIter<'_> {
        EntriesIter {
            matrix: self,
            row: 0,
            offset: 0,
        }
    }
}

/// Row-major iterator over the set cells of a [`SparseBinaryMatrix`],
/// created by [`SparseBinaryMatrix::entries`].
#[derive(Debug, Clone)]
pub struct EntriesIter<'a> {
    matrix: &'a SparseBinaryMatrix,
    row: u32,
    offset: usize,
}

impl Iterator for EntriesIter<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<Self::Item> {
        while self.row < self.matrix.nrows {
            let r = self.row as usize;
            let start = self.matrix.row_ptr[r];
            let end = self.matrix.row_ptr[r + 1];
            let idx = start + self.offset;
            if idx < end {
                self.offset += 1;
                return Some((self.row, self.matrix.col_idx[idx]));
            }
            self.row += 1;
            self.offset = 0;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Cheap over-approximation; exact counting would walk row_ptr.
        (0, Some(self.matrix.nnz()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseBinaryMatrix {
        SparseBinaryMatrix::from_entries(3, 4, [(0, 1), (0, 3), (1, 0), (2, 1), (2, 2)])
    }

    #[test]
    fn builder_collapses_duplicates() {
        let m = SparseBinaryMatrix::from_entries(2, 2, [(0, 0), (0, 0), (1, 1)]);
        assert_eq!(m.nnz(), 2);
        assert!(m.contains(0, 0));
        assert!(m.contains(1, 1));
        assert!(!m.contains(0, 1));
    }

    #[test]
    fn rows_and_cols_are_sorted_views() {
        let m = sample();
        assert_eq!(m.row(0), &[1, 3]);
        assert_eq!(m.row(1), &[0]);
        assert_eq!(m.row(2), &[1, 2]);
        assert_eq!(m.col(0), &[1]);
        assert_eq!(m.col(1), &[0, 2]);
        assert_eq!(m.col(2), &[2]);
        assert_eq!(m.col(3), &[0]);
    }

    #[test]
    fn contains_handles_out_of_bounds() {
        let m = sample();
        assert!(!m.contains(99, 0));
        assert!(!m.contains(0, 99));
    }

    #[test]
    fn entries_iterates_row_major() {
        let m = sample();
        let e: Vec<_> = m.entries().collect();
        assert_eq!(e, vec![(0, 1), (0, 3), (1, 0), (2, 1), (2, 2)]);
    }

    #[test]
    fn transpose_swaps_axes() {
        // The column index is the transpose of the row index: every cell
        // sits in both, with its axes swapped.
        let m = sample();
        for (r, c) in m.entries() {
            assert!(m.col(c).contains(&r));
        }
        let by_cols: usize = (0..m.ncols()).map(|c| m.col_nnz(c)).sum();
        assert_eq!(by_cols, m.nnz());
    }

    #[test]
    fn empty_matrix_has_zero_density() {
        let m = SparseBinaryMatrix::empty(0, 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.entries().next(), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_bounds_panics() {
        let mut b = SparseBinaryMatrixBuilder::new(1, 1);
        b.insert(1, 0);
    }

    #[test]
    fn serde_round_trip() {
        let m = sample();
        let json = serde_json::to_string(&m).unwrap();
        let back: SparseBinaryMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
