//! Sparse LU factorization of the simplex basis with product-form
//! (eta-file) pivot updates.
//!
//! The revised simplex engine never forms `B⁻¹` explicitly. Instead it keeps
//!
//! * a left-looking sparse **LU factorization** `B₀ = L·U` (with partial
//!   pivoting, rows permuted implicitly through `prow`), refreshed by
//!   [`BasisFactorization::refactorize`], and
//! * an **eta file**: after `k` basis changes the basis is `B₀·E₁·…·E_k`,
//!   where each `Eₖ` is the identity except for one column (the FTRAN'd
//!   entering column). Applying `Eₖ⁻¹` costs O(nnz of the pivot column) —
//!   and that cost is paid by *every* FTRAN/BTRAN, so solve cost grows
//!   linearly with the eta file until the [`eta_limit`] refactorization.
//!   At the sizes this repo solves (m ≤ 255) that is every 20–28 pivots,
//!   and a file that short is cheaper to replay than an in-place update of
//!   `U` is to maintain (EXPERIMENTS.md, *Forrest–Tomlin never paid at
//!   these sizes*).
//!
//! FTRAN (`B⁻¹·b`, entering-column transform / RHS re-derivation) and BTRAN
//! (`B⁻ᵀ·c`, pricing / dual row extraction) both run in O(nnz(L)+nnz(U)+
//! Σ nnz(etas)). When the eta file grows past its limit — or a drift
//! check fails — the factorization is rebuilt from the basis columns, which
//! bounds both fill-in and accumulated floating-point error: an explicit,
//! observable refresh policy (counts surface in `SolveStats`).

use crate::sparse::CscMatrix;

/// Largest admissible eta-file length before a refactorization is forced:
/// long products both slow the solves down and accumulate rounding error.
/// Scales with √m — the break-even between the O(m²+fill) refactorization
/// (amortized over the interval) and the O(nnz(w)) ≈ O(m) cost every
/// FTRAN/BTRAN pays per eta.
pub fn eta_limit(m: usize) -> usize {
    12 + (m as f64).sqrt() as usize
}

/// Pivot magnitude below which the basis is declared numerically singular.
const SINGULAR_TOL: f64 = 1e-10;
/// Entries below this magnitude are dropped during elimination (relative to
/// unit-scaled model coefficients); keeps cancellation noise out of the fill.
const DROP_TOL: f64 = 1e-13;

/// The basis factorization could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular {
    /// Elimination step at which no admissible pivot remained.
    pub step: usize,
}

/// The pending elimination steps of one column, drained in ascending order.
/// The elimination only ever adds a step above the one it just took, so a
/// bitmap read by a forward cursor is the priority queue: the order of the
/// drain — and with it every float the elimination produces — is the
/// ascending order any other queue would give.
#[derive(Debug, Clone, Default)]
struct StepQueue {
    words: Vec<u64>,
    /// No bit is set in a word before this one.
    cursor: usize,
}

impl StepQueue {
    /// Empties the queue and sizes it for steps `0..n`.
    fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
        self.cursor = 0;
    }

    fn push(&mut self, step: usize) {
        self.words[step / 64] |= 1 << (step % 64);
        self.cursor = self.cursor.min(step / 64);
    }

    /// Removes and returns the smallest pending step.
    fn pop(&mut self) -> Option<usize> {
        while let Some(&word) = self.words.get(self.cursor) {
            if word != 0 {
                self.words[self.cursor] = word & (word - 1);
                return Some(self.cursor * 64 + word.trailing_zeros() as usize);
            }
            self.cursor += 1;
        }
        None
    }
}

/// `B₀ = L·U` with row permutation `prow` (step `k` pivoted original row
/// `prow[k]`); `L` unit lower triangular stored by columns in original row
/// space, `U` upper triangular stored by columns in step space.
#[derive(Debug, Clone, Default)]
struct LuFactors {
    m: usize,
    /// Sub-diagonal entries of `L`'s column `k`: `(original row, multiplier)`.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Strictly-above-diagonal entries of `U`'s column `k`: `(step j < k, value)`.
    u_cols: Vec<Vec<(usize, f64)>>,
    u_diag: Vec<f64>,
    prow: Vec<usize>,
    /// Inverse of `prow`: `step_of_row[prow[k]] == k` (usize::MAX while
    /// unpivoted). Lets the elimination loop visit only the pivot steps that
    /// actually appear in the current column instead of scanning all `0..k`.
    step_of_row: Vec<usize>,
}

impl LuFactors {
    /// Left-looking factorization of the basis columns `A[:, basis[k]]`.
    ///
    /// The elimination per column is worklist-driven (Gilbert–Peierls
    /// flavor): pivot steps present in the column are drained from a
    /// [`StepQueue`] in ascending order, and applying `L`'s column may push
    /// newly-reached steps. Cost is O(nnz(column's elimination subtree)),
    /// not O(k) — simplex bases from Conductor models factor with almost no
    /// fill, so this is the difference between O(nnz) and O(m²) per
    /// refactorization.
    #[allow(clippy::too_many_arguments)]
    fn factorize(
        &mut self,
        m: usize,
        a: &CscMatrix,
        basis: &[usize],
        work: &mut Vec<f64>,
        in_work: &mut Vec<bool>,
        touched: &mut Vec<usize>,
        queue: &mut StepQueue,
    ) -> Result<(), Singular> {
        self.m = m;
        self.l_cols.iter_mut().for_each(Vec::clear);
        self.u_cols.iter_mut().for_each(Vec::clear);
        self.l_cols.resize(m, Vec::new());
        self.u_cols.resize(m, Vec::new());
        self.u_diag.clear();
        self.u_diag.resize(m, 0.0);
        self.prow.clear();
        self.prow.resize(m, usize::MAX);
        self.step_of_row.clear();
        self.step_of_row.resize(m, usize::MAX);
        work.clear();
        work.resize(m, 0.0);
        in_work.clear();
        in_work.resize(m, false);
        touched.clear();
        queue.reset(m);

        for (k, &bcol) in basis.iter().enumerate() {
            // Scatter column k of B, seeding the worklist with the pivot
            // steps of already-pivoted rows it touches.
            let (idx, val) = a.col(bcol);
            for (&r, &v) in idx.iter().zip(val) {
                if !in_work[r] {
                    in_work[r] = true;
                    touched.push(r);
                    if self.step_of_row[r] != usize::MAX {
                        queue.push(self.step_of_row[r]);
                    }
                }
                work[r] += v;
            }
            // Eliminate reached pivot steps in ascending order.
            while let Some(j) = queue.pop() {
                let u = work[self.prow[j]];
                work[self.prow[j]] = 0.0;
                // A row enters the queue once only (guarded by `in_work`),
                // but its value may have cancelled to zero meanwhile.
                if u.abs() > DROP_TOL {
                    self.u_cols[k].push((j, u));
                    for &(r, v) in &self.l_cols[j] {
                        if !in_work[r] {
                            in_work[r] = true;
                            touched.push(r);
                            if self.step_of_row[r] != usize::MAX {
                                queue.push(self.step_of_row[r]);
                            }
                        }
                        work[r] -= u * v;
                    }
                }
            }
            // Partial pivoting: largest remaining magnitude among unpivoted
            // touched rows.
            let mut pivot_row = usize::MAX;
            let mut pivot_abs = SINGULAR_TOL;
            for &r in touched.iter() {
                if self.step_of_row[r] == usize::MAX && work[r].abs() > pivot_abs {
                    pivot_abs = work[r].abs();
                    pivot_row = r;
                }
            }
            if pivot_row == usize::MAX {
                // Leave scratch clean for the next attempt.
                for &r in touched.iter() {
                    work[r] = 0.0;
                    in_work[r] = false;
                }
                touched.clear();
                return Err(Singular { step: k });
            }
            let pivot = work[pivot_row];
            self.prow[k] = pivot_row;
            self.u_diag[k] = pivot;
            self.step_of_row[pivot_row] = k;
            for &r in touched.iter() {
                if self.step_of_row[r] == usize::MAX && work[r].abs() > DROP_TOL {
                    self.l_cols[k].push((r, work[r] / pivot));
                }
                work[r] = 0.0;
                in_work[r] = false;
            }
            touched.clear();
        }
        Ok(())
    }

    /// `x ← B₀⁻¹·x`; input in original row space, output in step (= basis
    /// position) space. `z` is caller-provided scratch.
    fn ftran(&self, x: &mut [f64], z: &mut Vec<f64>) {
        let m = self.m;
        // Forward solve L·z = x (in place on the row-space vector), then
        // gather into step space: z[k] = x[prow[k]].
        for k in 0..m {
            let zk = x[self.prow[k]];
            if zk != 0.0 {
                for &(r, v) in &self.l_cols[k] {
                    x[r] -= zk * v;
                }
            }
        }
        z.clear();
        z.extend((0..m).map(|k| x[self.prow[k]]));
        // Backward solve U·y = z, column-oriented.
        for k in (0..m).rev() {
            let yk = z[k] / self.u_diag[k];
            z[k] = yk;
            if yk != 0.0 {
                for &(j, v) in &self.u_cols[k] {
                    z[j] -= v * yk;
                }
            }
        }
        x[..m].copy_from_slice(z);
    }

    /// `x ← B₀⁻ᵀ·x`; input in step space, output in original row space.
    fn btran(&self, x: &mut [f64], z: &mut Vec<f64>) {
        let m = self.m;
        z.clear();
        z.resize(m, 0.0);
        // Forward solve Uᵀ·w = x.
        for k in 0..m {
            let mut s = x[k];
            for &(j, v) in &self.u_cols[k] {
                s -= v * z[j];
            }
            z[k] = s / self.u_diag[k];
        }
        // Backward solve Lᵀ·y = w, landing in original row space.
        for v in x.iter_mut() {
            *v = 0.0;
        }
        for k in (0..m).rev() {
            let mut s = z[k];
            for &(r, v) in &self.l_cols[k] {
                s -= v * x[r];
            }
            x[self.prow[k]] = s;
        }
    }
}

/// One product-form update: the basis column at position `r` was replaced,
/// and `w = B_old⁻¹·a_entering` (basis-position space) is the eta column.
#[derive(Debug, Clone)]
struct Eta {
    r: usize,
    wr: f64,
    /// Entries of `w` other than position `r`.
    nz: Vec<(usize, f64)>,
}

impl Eta {
    #[inline]
    fn ftran(&self, x: &mut [f64]) {
        let xr = x[self.r] / self.wr;
        if xr != 0.0 {
            for &(i, w) in &self.nz {
                x[i] -= w * xr;
            }
        }
        x[self.r] = xr;
    }

    #[inline]
    fn btran(&self, x: &mut [f64]) {
        let mut s = x[self.r];
        for &(i, w) in &self.nz {
            s -= w * x[i];
        }
        x[self.r] = s / self.wr;
    }
}

/// The live factorized basis `B = B₀·E₁·…·E_k` plus refresh bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct BasisFactorization {
    lu: LuFactors,
    /// Staging area so a failed refactorization never corrupts the live
    /// factors (the old LU + eta file still represent the current basis).
    lu_next: LuFactors,
    etas: Vec<Eta>,
    /// Entry lists of retired etas, kept for the next ones: an eta column is
    /// collected once per pivot and dropped at every refactorization, so
    /// without this the file reallocates its way up to size ~m/2 per pivot.
    spare_nz: Vec<Vec<(usize, f64)>>,
    // Scratch buffers (retained across calls).
    solve_scratch: Vec<f64>,
    work: Vec<f64>,
    in_work: Vec<bool>,
    touched: Vec<usize>,
    queue: StepQueue,
    /// Lifetime LU factorizations through this handle.
    pub factorizations: usize,
    /// Factorizations triggered *mid-stream* by the eta limit or a drift
    /// check (a subset of `factorizations`; the rest are cold-start builds).
    pub refactorizations: usize,
}

impl BasisFactorization {
    /// Factorizes `B = A[:, basis]` from scratch and clears the eta file.
    /// `refresh` marks eta-limit/drift-triggered rebuilds for the stats.
    /// On failure the previous factorization (if any) remains usable.
    pub fn refactorize(
        &mut self,
        a: &CscMatrix,
        basis: &[usize],
        refresh: bool,
    ) -> Result<(), Singular> {
        let m = basis.len();
        self.lu_next.factorize(
            m,
            a,
            basis,
            &mut self.work,
            &mut self.in_work,
            &mut self.touched,
            &mut self.queue,
        )?;
        std::mem::swap(&mut self.lu, &mut self.lu_next);
        self.retire_etas();
        self.factorizations += 1;
        if refresh {
            self.refactorizations += 1;
        }
        Ok(())
    }

    /// Eta-file length: pivot updates since the last refactorization.
    /// Compare against [`eta_limit`].
    #[inline]
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Records the pivot `(position r, w = B⁻¹·a_entering)` as an eta.
    /// `w[r]` must be safely away from zero (the caller's ratio test
    /// guarantees it).
    pub fn push_eta(&mut self, r: usize, w: &[f64]) {
        let mut nz = self.spare_nz.pop().unwrap_or_default();
        nz.extend(
            w.iter()
                .enumerate()
                .filter(|&(i, &v)| i != r && v != 0.0)
                .map(|(i, &v)| (i, v)),
        );
        self.etas.push(Eta { r, wr: w[r], nz });
    }

    /// Empties the eta file, keeping its entry lists' storage.
    fn retire_etas(&mut self) {
        for mut eta in self.etas.drain(..) {
            eta.nz.clear();
            self.spare_nz.push(eta.nz);
        }
    }

    /// `x ← B⁻¹·x` (row space in, basis-position space out).
    pub fn ftran(&mut self, x: &mut [f64]) {
        self.lu.ftran(x, &mut self.solve_scratch);
        for e in &self.etas {
            e.ftran(x);
        }
    }

    /// `x ← B⁻ᵀ·x` (basis-position space in, row space out).
    pub fn btran(&mut self, x: &mut [f64]) {
        for e in self.etas.iter().rev() {
            e.btran(x);
        }
        self.lu.btran(x, &mut self.solve_scratch);
    }
}

// --- Checkpoint codec -------------------------------------------------------
//
// Carried: the factors, the eta file and the two counters. Their floats are
// the accumulated result of the exact pivot sequence — refactorizing the
// same basis from scratch lands on bitwise-different values — so a resumed
// run must hold these bytes verbatim. Overwritten before any read, and so
// left out: `step_of_row` (only `factorize` reads it, after resetting it),
// the staging `lu_next`, the solve and elimination scratch and the
// `spare_nz` pool. A decoded handle starts them empty.

use crate::state::{distinct_below, ensure, Reader, StateError, Writer};

/// Every `(index, value)` entry of every list addresses one of `m` slots.
fn indices_below(lists: &[Vec<(usize, f64)>], m: usize) -> bool {
    lists.iter().flatten().all(|&(i, _)| i < m)
}

impl LuFactors {
    fn encode_state(&self, w: &mut Writer) {
        w.seq(&self.l_cols, |w, col| w.vec_idx_f64(col));
        w.seq(&self.u_cols, |w, col| w.vec_idx_f64(col));
        w.vec_f64(&self.u_diag);
        w.vec_usize(&self.prow);
    }

    /// Decodes the factors and checks what the solves index or divide by:
    /// `m` columns each way, every stored row or step inside `0..m`, `prow`
    /// a permutation, and a diagonal that can be divided by.
    fn decode_state(r: &mut Reader<'_>) -> Result<Self, StateError> {
        let l_cols = r.seq(|r| r.vec_idx_f64())?;
        let u_cols = r.seq(|r| r.vec_idx_f64())?;
        let u_diag = r.vec_f64()?;
        let prow = r.vec_usize()?;
        let m = u_diag.len();
        ensure(l_cols.len() == m && u_cols.len() == m, || {
            format!("LU factors: a column list is not {m} long")
        })?;
        ensure(
            indices_below(&l_cols, m) && indices_below(&u_cols, m),
            || format!("LU factors: an entry lies outside 0..{m}"),
        )?;
        ensure(prow.len() == m && distinct_below(&prow, m), || {
            "LU factors: the row order is not a permutation".into()
        })?;
        ensure(u_diag.iter().all(|d| d.is_finite() && *d != 0.0), || {
            "LU factors: a zero or non-finite diagonal".into()
        })?;
        Ok(Self {
            m,
            l_cols,
            u_cols,
            u_diag,
            prow,
            step_of_row: Vec::new(),
        })
    }
}

impl Eta {
    fn encode_state(&self, w: &mut Writer) {
        w.usize(self.r);
        w.f64(self.wr);
        w.vec_idx_f64(&self.nz);
    }

    /// Decodes one eta of an `m`-row file: a position inside `0..m` and a
    /// pivot that can be divided by.
    fn decode_state(r: &mut Reader<'_>, m: usize) -> Result<Self, StateError> {
        let eta = Self {
            r: r.usize()?,
            wr: r.f64()?,
            nz: r.vec_idx_f64()?,
        };
        ensure(
            eta.r < m && eta.wr.is_finite() && eta.wr != 0.0 && eta.nz.iter().all(|&(i, _)| i < m),
            || format!("eta file: a position outside 0..{m} or an unusable pivot"),
        )?;
        Ok(eta)
    }
}

impl BasisFactorization {
    pub(crate) fn encode_state(&self, w: &mut Writer) {
        self.lu.encode_state(w);
        w.seq(&self.etas, |w, e| e.encode_state(w));
        w.usize(self.factorizations);
        w.usize(self.refactorizations);
    }

    /// Dimension of the factorized basis (0 before the first factorization).
    pub(crate) fn rows(&self) -> usize {
        self.lu.m
    }

    /// Decodes a handle whose factors and etas hold everything an FTRAN, a
    /// BTRAN, an update or a refactorization would index or divide by.
    pub(crate) fn decode_state(r: &mut Reader<'_>) -> Result<Self, StateError> {
        let lu = LuFactors::decode_state(r)?;
        let m = lu.m;
        Ok(Self {
            lu,
            etas: r.seq(|r| Eta::decode_state(r, m))?,
            factorizations: r.usize()?,
            refactorizations: r.usize()?,
            ..Self::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> CscMatrix {
        let mut m = CscMatrix::default();
        m.assemble(rows, cols, entries);
        m
    }

    #[test]
    fn identity_factorizes_and_solves() {
        let a = matrix(3, 3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        let mut bf = BasisFactorization::default();
        bf.refactorize(&a, &[0, 1, 2], false).unwrap();
        let mut x = vec![3.0, -1.0, 2.0];
        bf.ftran(&mut x);
        assert_eq!(x, vec![3.0, -1.0, 2.0]);
        bf.btran(&mut x);
        assert_eq!(x, vec![3.0, -1.0, 2.0]);
    }

    #[test]
    fn ftran_and_btran_invert_a_dense_3x3() {
        // B = [[2,1,0],[1,3,1],[0,1,4]] (columns 0..3 of A).
        let a = matrix(
            3,
            3,
            &[
                (0, 0, 2.0),
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (2, 2, 4.0),
            ],
        );
        let mut bf = BasisFactorization::default();
        bf.refactorize(&a, &[0, 1, 2], false).unwrap();
        // Solve B x = b, verify by multiplying back.
        let b = [5.0, -2.0, 7.0];
        let mut x = b.to_vec();
        bf.ftran(&mut x);
        let mut back = vec![0.0; 3];
        for (k, &xk) in x.iter().enumerate() {
            a.axpy_col(k, xk, &mut back);
        }
        for (got, want) in back.iter().zip(b.iter()) {
            assert!((got - want).abs() < 1e-12, "{back:?} vs {b:?}");
        }
        // Solve Bᵀ y = c, verify dot products against columns.
        let c = [1.0, 2.0, 3.0];
        let mut y = c.to_vec();
        bf.btran(&mut y);
        for (k, &want) in c.iter().enumerate() {
            assert!((a.col_dot(k, &y) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn eta_update_matches_refactorization() {
        // Start from basis {0,1,2} of a 3x5 matrix, swap in column 3 at
        // position 1 via an eta, and compare FTRAN/BTRAN results against a
        // from-scratch factorization of the updated basis.
        let a = matrix(
            3,
            5,
            &[
                (0, 0, 4.0),
                (1, 1, 2.0),
                (1, 2, 1.0),
                (2, 2, 3.0),
                (3, 0, 1.0),
                (3, 1, 1.0),
                (3, 2, 2.0),
                (4, 0, 5.0),
            ],
        );
        let mut bf = BasisFactorization::default();
        bf.refactorize(&a, &[0, 1, 2], false).unwrap();
        // w = B⁻¹ a_3.
        let mut w = vec![0.0; 3];
        a.scatter_col(3, &mut w);
        bf.ftran(&mut w);
        bf.push_eta(1, &w);
        let updated_basis = [0usize, 3, 2];

        let mut fresh = BasisFactorization::default();
        fresh.refactorize(&a, &updated_basis, false).unwrap();

        let b = [1.0, 2.0, 3.0];
        let (mut x1, mut x2) = (b.to_vec(), b.to_vec());
        bf.ftran(&mut x1);
        fresh.ftran(&mut x2);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-12, "{x1:?} vs {x2:?}");
        }
        let c = [0.5, -1.0, 2.0];
        let (mut y1, mut y2) = (c.to_vec(), c.to_vec());
        bf.btran(&mut y1);
        fresh.btran(&mut y2);
        for (p, q) in y1.iter().zip(&y2) {
            assert!((p - q).abs() < 1e-12, "{y1:?} vs {y2:?}");
        }
        assert_eq!(bf.eta_count(), 1);
        assert_eq!(fresh.eta_count(), 0);
    }

    #[test]
    fn singular_basis_is_rejected_and_previous_factors_survive() {
        let a = matrix(2, 3, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.0), (1, 1, 1.0)]);
        let mut bf = BasisFactorization::default();
        bf.refactorize(&a, &[0, 1], false).unwrap();
        // Column 2 is all-zero: basis {0, 2} is singular.
        assert!(bf.refactorize(&a, &[0, 2], true).is_err());
        // The old factorization still solves correctly.
        let mut x = vec![3.0, 3.0];
        bf.ftran(&mut x);
        let mut back = vec![0.0; 2];
        a.axpy_col(0, x[0], &mut back);
        a.axpy_col(1, x[1], &mut back);
        assert!((back[0] - 3.0).abs() < 1e-12 && (back[1] - 3.0).abs() < 1e-12);
        assert_eq!(bf.factorizations, 1);
        assert_eq!(bf.refactorizations, 0);
    }

    #[test]
    fn permuted_basis_requires_row_pivoting() {
        // B's natural order would hit a zero pivot without row swaps.
        let a = matrix(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let mut bf = BasisFactorization::default();
        bf.refactorize(&a, &[0, 1], false).unwrap();
        let mut x = vec![7.0, 9.0];
        bf.ftran(&mut x);
        // B = [[0,1],[1,0]] so x = [9, 7].
        assert_eq!(x, vec![9.0, 7.0]);
    }
}
