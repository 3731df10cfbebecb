//! Minimal dense-matrix kernel: row-major square matrices with
//! Gauss–Jordan inversion (partial pivoting), used for basis
//! refactorization and by the reference tableau solver.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from nested rows.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable row slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Transposed product `Aᵀ·y`.
    pub fn tr_mul_vec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (row, &yi) in self.data.chunks_exact(self.cols).zip(y) {
            if yi != 0.0 {
                for (o, &a) in out.iter_mut().zip(row) {
                    *o += a * yi;
                }
            }
        }
        out
    }

    /// Reshapes to `rows × cols`, zero-filling, and keeping the backing
    /// allocation when it already fits.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to the identity of order `n`, reusing the allocation.
    pub fn set_identity(&mut self, n: usize) {
        self.resize_zeroed(n, n);
        for i in 0..n {
            self[(i, i)] = 1.0;
        }
    }

    /// Copies shape and contents from `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Inverse by Gauss–Jordan elimination with partial pivoting.
    ///
    /// Returns `None` if the largest remaining |entry| of a pivot column
    /// is at most `tol` — an absolute threshold, not one relative to the
    /// matrix scale — i.e. the matrix is (numerically) singular.
    pub fn inverse(&self, tol: f64) -> Option<Matrix> {
        let mut scratch = InverseScratch::new();
        let mut out = Matrix::zeros(0, 0);
        self.inverse_into(tol, &mut scratch, &mut out)
            .then_some(out)
    }

    /// Allocation-free form of [`Matrix::inverse`]: `scratch` receives a
    /// working copy of `self` and the pivot-row patterns, `out` the
    /// inverse. Both are reshaped as needed, so repeated refactorizations
    /// reuse their buffers. The elimination sequence and the absolute
    /// singularity test are identical to [`Matrix::inverse`].
    pub fn inverse_into(&self, tol: f64, scratch: &mut InverseScratch, out: &mut Matrix) -> bool {
        self.gauss_jordan(tol, scratch, out).is_ok()
    }

    /// Pattern-aware Gauss–Jordan elimination: normalizes and eliminates
    /// only over the nonzero entries of the pivot row — those of `a` right
    /// of the pivot (the columns at or left of it are never read again)
    /// and those of `inv`. A skipped entry would only add or subtract ±0,
    /// so every nonzero of the inverse is bit-identical to the dense loop.
    /// `Err(col)` names the column whose pivot fell to `tol` or below.
    fn gauss_jordan(
        &self,
        tol: f64,
        scratch: &mut InverseScratch,
        inv: &mut Matrix,
    ) -> Result<(), usize> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let InverseScratch { a, a_row, inv_row } = scratch;
        a.copy_from(self);
        inv.set_identity(n);
        for col in 0..n {
            // Partial pivoting: the largest |entry| in this column at or
            // below the diagonal.
            let mut piv = col;
            let mut best = a[(col, col)].abs();
            for r in col + 1..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best <= tol {
                return Err(col);
            }
            if piv != col {
                a.swap_rows(piv, col);
                inv.swap_rows(piv, col);
            }
            let d = a[(col, col)];
            normalize_pattern(&mut a.row_mut(col)[col + 1..], col + 1, d, a_row);
            normalize_pattern(inv.row_mut(col), 0, d, inv_row);
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a[(r, col)];
                if f == 0.0 {
                    continue;
                }
                let ar = a.row_mut(r);
                for &(j, v) in a_row.iter() {
                    ar[j] -= f * v;
                }
                let ir = inv.row_mut(r);
                for &(j, v) in inv_row.iter() {
                    ir[j] -= f * v;
                }
            }
        }
        Ok(())
    }

    /// Dot product of row `r` with `v`, accumulated left to right — the
    /// FTRAN inner kernel (`x_B[k] = B⁻¹ row · resid`).
    ///
    /// # Panics
    /// Panics if `v.len() != cols`.
    #[inline]
    pub fn row_dot(&self, r: usize, v: &[f64]) -> f64 {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        self.row(r).iter().zip(v).map(|(a, b)| a * b).sum()
    }

    /// `out += scale · row(r)`, accumulated left to right — the BTRAN
    /// inner kernel (`y += y_B[k] · B⁻¹ row`). A no-op when `scale == 0`.
    ///
    /// # Panics
    /// Panics if `out.len() != cols`.
    #[inline]
    pub fn axpy_row(&self, r: usize, scale: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "dimension mismatch");
        if scale == 0.0 {
            return;
        }
        for (o, &a) in out.iter_mut().zip(self.row(r)) {
            *o += scale * a;
        }
    }

    /// `out += scale · column(c)`, walking rows top to bottom — the FTRAN
    /// column-scatter kernel (`w += a_ij · B⁻¹ col`). A no-op when
    /// `scale == 0`.
    ///
    /// # Panics
    /// Panics if `out.len() != rows`.
    #[inline]
    pub fn axpy_col(&self, c: usize, scale: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.rows, "dimension mismatch");
        if scale == 0.0 {
            return;
        }
        for (k, o) in out.iter_mut().enumerate() {
            *o += self.data[k * self.cols + c] * scale;
        }
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }
}

/// Reusable scratch of [`Matrix::inverse_into`]: the elimination's
/// working copy plus the nonzero pattern of the current pivot row (of the
/// working copy and of the inverse), so repeated refactorizations
/// allocate nothing once the buffers have grown.
#[derive(Debug, Clone)]
pub struct InverseScratch {
    a: Matrix,
    a_row: Vec<(usize, f64)>,
    inv_row: Vec<(usize, f64)>,
}

impl InverseScratch {
    /// Empty buffers; they grow on first use.
    pub fn new() -> Self {
        InverseScratch {
            a: Matrix::zeros(0, 0),
            a_row: Vec::new(),
            inv_row: Vec::new(),
        }
    }
}

impl Default for InverseScratch {
    fn default() -> Self {
        InverseScratch::new()
    }
}

/// Divides the nonzero entries of `row` (whose first entry is column
/// `first`) by `d` and records them as `(column, value)` pairs in
/// `pattern`, ascending. The zeros are left as they are: `±0 / d` is ±0.
fn normalize_pattern(row: &mut [f64], first: usize, d: f64, pattern: &mut Vec<(usize, f64)>) {
    pattern.clear();
    for (j, v) in row.iter_mut().enumerate() {
        if *v != 0.0 {
            *v /= d;
            pattern.push((first + j, *v));
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference dense Gauss–Jordan loop: every column of the pivot row
    /// normalized and eliminated. The bit-exact oracle of the
    /// pattern-aware loop; `Err(col)` names the column whose pivot failed.
    fn gauss_jordan_dense(m: &Matrix, tol: f64) -> Result<Matrix, usize> {
        let n = m.rows;
        let mut a = m.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            let mut piv = col;
            let mut best = a[(col, col)].abs();
            for r in col + 1..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best <= tol {
                return Err(col);
            }
            if piv != col {
                a.swap_rows(piv, col);
                inv.swap_rows(piv, col);
            }
            let d = a[(col, col)];
            for j in 0..n {
                a[(col, j)] /= d;
                inv[(col, j)] /= d;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a[(r, col)];
                if f == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a[(r, j)] -= f * a[(col, j)];
                    inv[(r, j)] -= f * inv[(col, j)];
                }
            }
        }
        Ok(inv)
    }

    /// Runs both eliminations on `m` and asserts they agree: the same
    /// failing column, or inverses equal under `==` with equal bits
    /// wherever nonzero.
    fn assert_matches_dense(m: &Matrix, scratch: &mut InverseScratch) {
        let mut got = Matrix::zeros(0, 0);
        let sparse = m.gauss_jordan(1e-12, scratch, &mut got);
        match (sparse, gauss_jordan_dense(m, 1e-12)) {
            (Ok(()), Ok(want)) => {
                assert_eq!(got, want);
                for (g, w) in got.data.iter().zip(&want.data) {
                    if *w != 0.0 {
                        assert_eq!(g.to_bits(), w.to_bits(), "{got:?} vs {want:?}");
                    }
                }
            }
            (s, d) => assert_eq!(s, d.map(|_| ()), "singularity column differs"),
        }
    }

    /// A random sparse `n × n` matrix: each entry zero with probability
    /// `zero_share`, with the diagonal optionally kept nonzero.
    fn sparse_matrix(n: usize, zero_share: f64, raw: &[(f64, f64)], diag: bool) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let (u, v) = raw[i * n + j];
                if (diag && i == j) || u >= zero_share {
                    m[(i, j)] = if v == 0.0 { 1.0 } else { v };
                }
            }
        }
        m
    }

    /// Matrices of every shape the basis takes: general sparse, permuted
    /// (a row permutation of a nonsingular triangular matrix, so pivoting
    /// swaps rows), triangular, and singular (a duplicated or zero row).
    fn matrix_case() -> impl Strategy<Value = Matrix> {
        (1usize..9, 0.0f64..0.9, 0usize..4).prop_flat_map(|(n, zero_share, kind)| {
            (
                proptest::collection::vec((0.0f64..1.0, -4.0f64..4.0), n * n),
                proptest::collection::vec(0usize..n, n),
            )
                .prop_map(move |(raw, picks)| match kind {
                    0 => sparse_matrix(n, zero_share, &raw, false),
                    1 | 2 => {
                        let mut t = sparse_matrix(n, zero_share, &raw, true);
                        for i in 0..n {
                            for j in 0..i {
                                t[(i, j)] = 0.0;
                            }
                        }
                        if kind == 1 {
                            for (i, &p) in picks.iter().enumerate() {
                                t.swap_rows(i, p);
                            }
                        }
                        t
                    }
                    _ => {
                        let mut s = sparse_matrix(n, zero_share, &raw, true);
                        let (i, j) = (picks[0], picks[n - 1]);
                        if i == j {
                            s.row_mut(i).fill(0.0);
                        } else {
                            let dup = s.row(i).to_vec();
                            s.row_mut(j).copy_from_slice(&dup);
                        }
                        s
                    }
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn pattern_aware_inverse_matches_dense_oracle_bit_for_bit(m in matrix_case()) {
            // One scratch across cases, as in the simplex core.
            thread_local! {
                static SCRATCH: std::cell::RefCell<InverseScratch> =
                    std::cell::RefCell::new(InverseScratch::new());
            }
            SCRATCH.with(|s| assert_matches_dense(&m, &mut s.borrow_mut()));
        }
    }

    #[test]
    fn singular_input_fails_at_the_dense_column() {
        let mut scratch = InverseScratch::new();
        // Column 1 is a multiple of column 0: the pivot of column 1 fails.
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.0],
            vec![3.0, 6.0, 1.0],
            vec![0.0, 0.0, 5.0],
        ]);
        let mut out = Matrix::zeros(0, 0);
        assert_eq!(m.gauss_jordan(1e-12, &mut scratch, &mut out), Err(1));
        assert_matches_dense(&m, &mut scratch);
        assert_matches_dense(&Matrix::zeros(2, 2), &mut scratch);
    }

    #[test]
    fn identity_and_indexing() {
        let m = Matrix::identity(3);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn mul_vec_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(a.tr_mul_vec(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn inverse_of_identity() {
        let inv = Matrix::identity(4).inverse(1e-12).unwrap();
        assert_eq!(inv, Matrix::identity(4));
    }

    #[test]
    fn inverse_known_2x2() {
        let a = Matrix::from_rows(&[vec![4.0, 7.0], vec![2.0, 6.0]]);
        let inv = a.inverse(1e-12).unwrap();
        // A^{-1} = 1/10 [6 -7; -2 4]
        assert!((inv[(0, 0)] - 0.6).abs() < 1e-12);
        assert!((inv[(0, 1)] + 0.7).abs() < 1e-12);
        assert!((inv[(1, 0)] + 0.2).abs() < 1e-12);
        assert!((inv[(1, 1)] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn inverse_round_trip() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 4.0],
        ]);
        let inv = a.inverse(1e-12).unwrap();
        // a * inv == I
        for i in 0..3 {
            let e: Vec<f64> = (0..3).map(|j| inv[(j, i)]).collect();
            let col = a.mul_vec(&e);
            for (j, &v) in col.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-10, "({i},{j}) = {v}");
            }
        }
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.inverse(1e-12).is_none());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let inv = a.inverse(1e-12).unwrap();
        assert_eq!(inv, a); // a swap matrix is its own inverse
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn inverse_into_matches_inverse_and_reuses_buffers() {
        let a = Matrix::from_rows(&[vec![4.0, 7.0], vec![2.0, 6.0]]);
        let mut scratch = InverseScratch::new();
        let mut out = Matrix::zeros(0, 0);
        assert!(a.inverse_into(1e-12, &mut scratch, &mut out));
        assert_eq!(out, a.inverse(1e-12).unwrap());
        // A second, larger inversion through the same buffers.
        let b = Matrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 4.0],
        ]);
        assert!(b.inverse_into(1e-12, &mut scratch, &mut out));
        assert_eq!(out, b.inverse(1e-12).unwrap());
        // Singular input reports false through the same path.
        let s = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(!s.inverse_into(1e-12, &mut scratch, &mut out));
    }

    #[test]
    fn axpy_kernels_match_naive_loops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.row_dot(1, &[1.0, 0.5, 2.0]), 4.0 + 2.5 + 12.0);
        let mut out = vec![1.0, 1.0, 1.0];
        a.axpy_row(0, 2.0, &mut out);
        assert_eq!(out, vec![3.0, 5.0, 7.0]);
        a.axpy_row(0, 0.0, &mut out); // scale 0 is a no-op
        assert_eq!(out, vec![3.0, 5.0, 7.0]);
        let mut col = vec![0.0, 10.0];
        a.axpy_col(2, -1.0, &mut col);
        assert_eq!(col, vec![-3.0, 4.0]);
    }

    #[test]
    fn resize_identity_and_copy() {
        let mut m = Matrix::zeros(1, 1);
        m.set_identity(3);
        assert_eq!(m, Matrix::identity(3));
        m.resize_zeroed(2, 4);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 4);
        assert!(m.row(1).iter().all(|&v| v == 0.0));
        let src = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.copy_from(&src);
        assert_eq!(m, src);
    }
}
