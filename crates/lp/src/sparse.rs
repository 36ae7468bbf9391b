//! Compressed-sparse-column (CSC) matrix for the revised simplex engine.
//!
//! Conductor's planning models are ~95 % sparse: each constraint touches a
//! handful of the per-interval variables. A dense tableau would pay
//! O(m·cols) per pivot regardless; the revised engine keeps the constraint
//! matrix in CSC form so FTRAN/BTRAN/pricing all cost O(nnz) instead.
//!
//! The matrix is assembled from a triplet scratch buffer with a counting
//! sort (no comparison sort, no per-column allocation), and every buffer is
//! retained across [`CscMatrix::assemble`] calls so rebuilding the matrix at
//! a cold fill allocates nothing after the first node.

/// A sparse matrix stored by columns: `col_ptr[j]..col_ptr[j+1]` indexes the
/// `(row_idx, values)` pairs of column `j`.
#[derive(Debug, Clone, Default)]
pub(crate) struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
    /// Scratch cursor reused by [`CscMatrix::assemble`].
    cursor: Vec<usize>,
}

impl CscMatrix {
    /// Rebuilds the matrix from `(column, row, value)` triplets (any order;
    /// duplicates are kept as separate entries, which the solve kernels
    /// accumulate naturally). Buffers are reused across calls.
    pub(crate) fn assemble(&mut self, rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) {
        self.rows = rows;
        self.cols = cols;
        self.col_ptr.clear();
        self.col_ptr.resize(cols + 1, 0);
        for &(c, _, _) in triplets {
            self.col_ptr[c + 1] += 1;
        }
        for j in 0..cols {
            self.col_ptr[j + 1] += self.col_ptr[j];
        }
        self.row_idx.clear();
        self.row_idx.resize(triplets.len(), 0);
        self.values.clear();
        self.values.resize(triplets.len(), 0.0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.col_ptr[..cols]);
        for &(c, r, v) in triplets {
            let at = self.cursor[c];
            self.cursor[c] += 1;
            self.row_idx[at] = r;
            self.values[at] = v;
        }
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// `(row indices, values)` of column `j`.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.values[s..e])
    }

    /// `Σ_r y[r] · A[r, j]` — one pricing dot product.
    #[inline]
    pub(crate) fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (idx, val) = self.col(j);
        let mut acc = 0.0;
        for (&r, &v) in idx.iter().zip(val) {
            acc += y[r] * v;
        }
        acc
    }

    /// Scatters column `j` into the dense vector `x` (which the caller has
    /// zeroed), accumulating duplicates.
    #[inline]
    pub(crate) fn scatter_col(&self, j: usize, x: &mut [f64]) {
        let (idx, val) = self.col(j);
        for (&r, &v) in idx.iter().zip(val) {
            x[r] += v;
        }
    }

    /// `x += factor · A[:, j]` — used by residual checks.
    #[inline]
    pub(crate) fn axpy_col(&self, j: usize, factor: f64, x: &mut [f64]) {
        let (idx, val) = self.col(j);
        for (&r, &v) in idx.iter().zip(val) {
            x[r] += factor * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_counting_sort_groups_columns() {
        let mut m = CscMatrix::default();
        // 3x3 with columns given out of order.
        let triplets = vec![
            (2usize, 0usize, 5.0),
            (0, 1, 1.0),
            (2, 2, 6.0),
            (0, 0, 2.0),
            (1, 1, 3.0),
        ];
        m.assemble(3, 3, &triplets);
        assert_eq!(m.row_idx.len(), 5);
        let (idx, val) = m.col(0);
        assert_eq!(idx, &[1, 0]);
        assert_eq!(val, &[1.0, 2.0]);
        let (idx, val) = m.col(1);
        assert_eq!(idx, &[1]);
        assert_eq!(val, &[3.0]);
        let (idx, val) = m.col(2);
        assert_eq!(idx, &[0, 2]);
        assert_eq!(val, &[5.0, 6.0]);
    }

    #[test]
    fn dot_scatter_and_axpy_agree_with_dense() {
        let mut m = CscMatrix::default();
        m.assemble(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
        assert_eq!(m.col_dot(0, &[10.0, 100.0]), 10.0 + 200.0);
        let mut x = vec![0.0; 2];
        m.scatter_col(1, &mut x);
        assert_eq!(x, vec![3.0, 4.0]);
        m.axpy_col(0, -1.0, &mut x);
        assert_eq!(x, vec![2.0, 2.0]);
    }

    #[test]
    fn reassembly_reuses_buffers() {
        let mut m = CscMatrix::default();
        m.assemble(4, 2, &[(0, 3, 1.0)]);
        m.assemble(2, 3, &[(2, 1, 7.0), (0, 0, 1.0)]);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.col(2), (&[1usize][..], &[7.0][..]));
        assert!(m.col(1).0.is_empty());
    }
}
