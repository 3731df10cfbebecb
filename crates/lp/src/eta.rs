//! Product-form (eta-file) updates of the basis factorization.
//!
//! After a pivot that brings column `A_j` into basis position `r`, the new
//! basis inverse relates to the old one by an elementary *eta matrix*:
//!
//! ```text
//! B_new⁻¹ = E · B_old⁻¹,   E = I − (w − e_r) e_rᵀ / w_r,   w = B_old⁻¹ A_j
//! ```
//!
//! Instead of applying `E` to the explicit inverse eagerly (O(m²) per
//! pivot), the simplex core appends `(r, w)` to an [`EtaFile`] — O(m) per
//! pivot — and every subsequent FTRAN/BTRAN threads through the base
//! inverse `B₀⁻¹` from the last refactorization plus the recorded etas:
//!
//! ```text
//! FTRAN:  B⁻¹ v  = E_K · … · E_1 · (B₀⁻¹ v)      (append order)
//! BTRAN:  y B⁻¹  = (((y E_K) E_{K-1}) … E_1) B₀⁻¹ (reverse order)
//! ```
//!
//! The file is cleared by every refactorization, so its length is bounded
//! by [`crate::SolverOptions::refactor_interval`] — the stability fallback
//! — and an **empty** file makes every application an exact no-op: right
//! after the extraction refactor of an optimal solve, warm paths that
//! reuse the factorization are bitwise-identical to paths that rebuild it.
//!
//! ## Sparse storage and zero skips
//!
//! Each eta keeps its pivot row and pivot value `w_r` in a header; `w`
//! itself goes into one word arena (`u64`s, values as their IEEE bits).
//! A **sparse** eta stores its nonzero entries (the pivot's included) in
//! ascending row order, two per 3-word block `[rows, w_a, w_b]` whose
//! first word packs the two `u32` row indices (an odd tail is a 2-word
//! `[row, w_a]` block) — 12 bytes per entry. An eta with more than 2/3
//! of its entries nonzero would need more words than `m`, so it falls
//! back to a dense length-`m` slab: no eta takes more bytes than the
//! dense slab it replaces, and the single arena grows like one. It is
//! reused across refactor cycles, so the pivot loop stays allocation-free
//! in steady state.
//!
//! The kernels skip work on exact zeros only: FTRAN skips an eta whose
//! multiplier `x[r] / w_r` is 0 and otherwise updates only the stored
//! rows; BTRAN takes each dot product over the stored rows, in ascending
//! row order. A skipped term only ever adds or subtracts ±0 and the
//! summation order is unchanged, so every nonzero result is bit-identical
//! to the dense kernels (kept as test oracles below); at most the sign of
//! an exact zero differs, which no comparison distinguishes.

/// Where one eta's `w` lives in the arena of an [`EtaFile`].
#[derive(Debug, Clone, Copy)]
struct EtaHead {
    /// Pivot row `r`.
    r: usize,
    /// Pivot value `w_r` (nonzero).
    wr: f64,
    /// Offset of the eta's first word in the arena.
    start: usize,
    /// Words taken: `m` for a dense slab, fewer for sparse blocks.
    len: usize,
    /// Whether the words are sparse blocks rather than a dense slab.
    sparse: bool,
}

/// A product-form update file: pivot rows plus the FTRAN images of the
/// entering columns (sparse, or dense above 2/3 fill), applied lazily by
/// FTRAN/BTRAN. See module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct EtaFile {
    /// Basis dimension.
    m: usize,
    /// One header per recorded eta, in append order.
    heads: Vec<EtaHead>,
    /// Every eta's words, in append order.
    words: Vec<u64>,
}

impl EtaFile {
    /// An empty file for a zero-dimensional basis.
    pub(crate) fn new() -> Self {
        EtaFile::default()
    }

    /// Drops every recorded eta and re-dimensions for an `m`-row basis,
    /// keeping the allocations (called by each refactorization).
    pub(crate) fn clear(&mut self, m: usize) {
        assert!(u32::try_from(m).is_ok(), "basis too large for u32 rows");
        self.m = m;
        self.heads.clear();
        self.words.clear();
    }

    /// Number of recorded etas since the last refactorization.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// `true` iff no eta is recorded (applications are exact no-ops).
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Records the pivot `(r, w)` with `w = B⁻¹ A_j` under the *current*
    /// factorization (base inverse plus every eta already recorded).
    ///
    /// # Panics
    /// Panics (debug) on a dimension mismatch or a zero pivot element.
    pub(crate) fn push(&mut self, r: usize, w: &[f64]) {
        debug_assert_eq!(w.len(), self.m, "eta dimension mismatch");
        debug_assert!(w[r] != 0.0, "zero pivot element in eta update");
        let nnz = w.iter().filter(|&&v| v != 0.0).count();
        let start = self.words.len();
        // nnz + ⌈nnz/2⌉ ≤ m exactly when nnz ≤ 2m/3.
        let sparse = nnz + nnz.div_ceil(2) <= self.m;
        if sparse {
            let mut nonzeros = w.iter().enumerate().filter(|&(_, &v)| v != 0.0);
            while let Some((ka, wa)) = nonzeros.next() {
                match nonzeros.next() {
                    Some((kb, wb)) => self.words.extend([
                        ka as u64 | (kb as u64) << 32,
                        wa.to_bits(),
                        wb.to_bits(),
                    ]),
                    None => self.words.extend([ka as u64, wa.to_bits()]),
                }
            }
        } else {
            self.words.extend(w.iter().map(|v| v.to_bits()));
        }
        self.heads.push(EtaHead {
            r,
            wr: w[r],
            start,
            len: self.words.len() - start,
            sparse,
        });
    }

    /// FTRAN tail: `x ← E_K · … · E_1 · x` (append order). Called after
    /// the base-inverse application; a no-op when the file is empty.
    pub(crate) fn apply_ftran(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        for h in &self.heads {
            let t = x[h.r] / h.wr;
            if t != 0.0 {
                let w = &self.words[h.start..h.start + h.len];
                if h.sparse {
                    let blocks = w.chunks_exact(3);
                    let tail = blocks.remainder();
                    for b in blocks {
                        x[b[0] as u32 as usize] -= f64::from_bits(b[1]) * t;
                        x[(b[0] >> 32) as usize] -= f64::from_bits(b[2]) * t;
                    }
                    if let &[row, wa] = tail {
                        x[row as usize] -= f64::from_bits(wa) * t;
                    }
                } else {
                    for (xk, &wk) in x.iter_mut().zip(w) {
                        let wk = f64::from_bits(wk);
                        if wk != 0.0 {
                            *xk -= wk * t;
                        }
                    }
                }
            }
            x[h.r] = t;
        }
    }

    /// BTRAN head: `y ← ((y E_K) E_{K-1}) … E_1` (reverse order). Called
    /// before the base-inverse application; each eta changes only the
    /// entry at its pivot row. A no-op when the file is empty.
    pub(crate) fn apply_btran(&self, y: &mut [f64]) {
        debug_assert_eq!(y.len(), self.m);
        for h in self.heads.iter().rev() {
            let w = &self.words[h.start..h.start + h.len];
            // Accumulated left to right from -0.0, as `Iterator::sum`.
            let mut dot = -0.0;
            if h.sparse {
                let blocks = w.chunks_exact(3);
                let tail = blocks.remainder();
                for b in blocks {
                    dot += y[b[0] as u32 as usize] * f64::from_bits(b[1]);
                    dot += y[(b[0] >> 32) as usize] * f64::from_bits(b[2]);
                }
                if let &[row, wa] = tail {
                    dot += y[row as usize] * f64::from_bits(wa);
                }
            } else {
                for (&yk, &wk) in y.iter().zip(w) {
                    dot += yk * f64::from_bits(wk);
                }
            }
            y[h.r] -= (dot - y[h.r]) / h.wr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Matrix;
    use proptest::prelude::*;

    /// Reference dense eta file: one full length-`m` slab per eta, every
    /// entry visited. The bit-exact oracle of the sparse kernels.
    struct DenseEtas {
        m: usize,
        pivots: Vec<usize>,
        data: Vec<f64>,
    }

    impl DenseEtas {
        fn new(m: usize) -> Self {
            DenseEtas {
                m,
                pivots: Vec::new(),
                data: Vec::new(),
            }
        }

        fn push(&mut self, r: usize, w: &[f64]) {
            self.pivots.push(r);
            self.data.extend_from_slice(w);
        }

        fn apply_ftran(&self, x: &mut [f64]) {
            for (e, &r) in self.pivots.iter().enumerate() {
                let w = &self.data[e * self.m..(e + 1) * self.m];
                let t = x[r] / w[r];
                for (xk, &wk) in x.iter_mut().zip(w) {
                    if wk != 0.0 {
                        *xk -= wk * t;
                    }
                }
                x[r] = t;
            }
        }

        fn apply_btran(&self, y: &mut [f64]) {
            for (e, &r) in self.pivots.iter().enumerate().rev() {
                let w = &self.data[e * self.m..(e + 1) * self.m];
                let dot: f64 = y.iter().zip(w).map(|(&yk, &wk)| yk * wk).sum();
                y[r] -= (dot - y[r]) / w[r];
            }
        }
    }

    /// `==` everywhere, and equal bits wherever the value is nonzero
    /// (a skipped ±0 term may flip the sign of an exact zero only).
    fn assert_same_bits(got: &[f64], want: &[f64]) {
        assert_eq!(got, want);
        for (g, w) in got.iter().zip(want) {
            if *w != 0.0 {
                assert_eq!(g.to_bits(), w.to_bits(), "{got:?} vs {want:?}");
            }
        }
    }

    /// Applies the recorded etas eagerly to an explicit inverse — the
    /// historical `update_binv` row operation — as the reference.
    fn eager_update(binv: &mut Matrix, r: usize, w: &[f64]) {
        let m = w.len();
        let wr = w[r];
        for i in 0..m {
            binv[(r, i)] /= wr;
        }
        for k in 0..m {
            if k == r || w[k] == 0.0 {
                continue;
            }
            for i in 0..m {
                let delta = w[k] * binv[(r, i)];
                binv[(k, i)] -= delta;
            }
        }
    }

    fn mat3() -> Matrix {
        Matrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 4.0],
        ])
    }

    #[test]
    fn empty_file_is_a_no_op() {
        let mut f = EtaFile::new();
        f.clear(3);
        assert!(f.is_empty());
        let mut x = vec![1.0, -2.0, 3.5];
        let orig = x.clone();
        f.apply_ftran(&mut x);
        assert_eq!(x, orig);
        f.apply_btran(&mut x);
        assert_eq!(x, orig);
    }

    #[test]
    fn ftran_matches_eager_inverse_updates() {
        // Base inverse of a 3x3; pivot two synthetic columns in and check
        // lazily-applied FTRAN against the eagerly-updated inverse.
        let base = mat3().inverse(1e-12).unwrap();
        let mut eager = base.clone();
        let mut f = EtaFile::new();
        f.clear(3);
        for (r, col) in [(1usize, [1.0, 2.0, 0.5]), (0, [3.0, 0.0, 1.0])] {
            // w = current B⁻¹ col, via the lazy path itself.
            let mut w = base.mul_vec(&col);
            f.apply_ftran(&mut w);
            f.push(r, &w);
            eager_update(&mut eager, r, &w);
        }
        let v = [0.7, -1.3, 2.2];
        let mut lazy = base.mul_vec(&v);
        f.apply_ftran(&mut lazy);
        let want = eager.mul_vec(&v);
        for (a, b) in lazy.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10, "{lazy:?} != {want:?}");
        }
    }

    #[test]
    fn btran_matches_eager_inverse_updates() {
        let base = mat3().inverse(1e-12).unwrap();
        let mut eager = base.clone();
        let mut f = EtaFile::new();
        f.clear(3);
        let mut w = base.mul_vec(&[0.5, 1.5, -1.0]);
        f.apply_ftran(&mut w);
        f.push(2, &w);
        eager_update(&mut eager, 2, &w);
        // y B⁻¹ lazily: BTRAN etas then multiply by the base inverse.
        let y = [1.0, -0.5, 2.0];
        let mut yb = y.to_vec();
        f.apply_btran(&mut yb);
        let lazy = base.tr_mul_vec(&yb);
        let want = eager.tr_mul_vec(&y);
        for (a, b) in lazy.iter().zip(&want) {
            assert!((a - b).abs() < 1e-10, "{lazy:?} != {want:?}");
        }
    }

    #[test]
    fn clear_resets_and_reuses() {
        let mut f = EtaFile::new();
        f.clear(2);
        f.push(0, &[2.0, 1.0]);
        assert_eq!(f.len(), 1);
        f.clear(4);
        assert!(f.is_empty());
        f.push(3, &[0.0, 0.0, 1.0, 5.0]);
        assert_eq!(f.len(), 1);
        let mut x = vec![0.0, 0.0, 0.0, 10.0];
        f.apply_ftran(&mut x);
        assert_eq!(x, vec![0.0, 0.0, -2.0, 2.0]);
    }

    #[test]
    fn storage_switches_to_a_dense_slab_above_two_thirds_fill() {
        // The rule is exactly "sparse iff at most 2/3 nonzero".
        for m in 1..40 {
            for nnz in 1..=m {
                let mut f = EtaFile::new();
                f.clear(m);
                let w: Vec<f64> = (0..m)
                    .map(|k| if k < nnz { 1.0 + k as f64 } else { 0.0 })
                    .collect();
                f.push(0, &w);
                let h = f.heads[0];
                assert_eq!(h.sparse, 3 * nnz <= 2 * m, "m {m} nnz {nnz}");
                // No eta takes more words than a dense slab.
                assert!(h.len <= m);
            }
        }
        // 4 of 6 nonzero: two 3-word blocks; 5 of 6: a dense slab.
        let mut f = EtaFile::new();
        f.clear(6);
        f.push(1, &[0.0, 2.0, 1.0, 0.0, -1.0, 3.0]);
        f.push(0, &[1.0, 2.0, 1.0, 0.0, -1.0, 3.0]);
        assert_eq!(f.words.len(), 6 + 6);
        assert_eq!(f.words[0], 1 | 2 << 32);
        assert!(f.heads[0].sparse && !f.heads[1].sparse);
    }

    /// `(m, [(pivot row, w)], x)`.
    type EtaCase = (usize, Vec<(usize, Vec<f64>)>, Vec<f64>);

    /// One random eta sequence plus the vectors it is applied to. Each
    /// `w` has its pivot forced nonzero and a random share of exact zeros
    /// (from none to all but the pivot), so both storage layouts and the
    /// `x[r] == 0` skip are exercised.
    fn eta_case() -> impl Strategy<Value = EtaCase> {
        (1usize..12, 1usize..8).prop_flat_map(|(m, k)| {
            let w = (
                0..m,
                0.0f64..1.0,
                proptest::collection::vec((0.0f64..1.0, -4.0f64..4.0), m),
            )
                .prop_map(|(r, zero_share, raw)| {
                    let w: Vec<f64> = raw
                        .iter()
                        .enumerate()
                        .map(|(i, &(u, v))| {
                            if i == r && v == 0.0 {
                                1.0
                            } else if i != r && u < zero_share {
                                0.0
                            } else {
                                v
                            }
                        })
                        .collect();
                    (r, w)
                });
            let x = proptest::collection::vec((0.0f64..1.0, -3.0f64..3.0), m).prop_map(|v| {
                v.into_iter()
                    .map(|(u, x)| if u < 0.4 { 0.0 } else { x })
                    .collect()
            });
            (Just(m), proptest::collection::vec(w, k), x)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn sparse_kernels_match_dense_oracle_bit_for_bit(case in eta_case()) {
            let (m, etas, x0) = case;
            let mut sparse = EtaFile::new();
            sparse.clear(m);
            let mut dense = DenseEtas::new(m);
            for (r, w) in &etas {
                sparse.push(*r, w);
                dense.push(*r, w);
                // Apply after every push so short and long files, and
                // mixes of both layouts, are all compared.
                let (mut xs, mut xd) = (x0.clone(), x0.clone());
                sparse.apply_ftran(&mut xs);
                dense.apply_ftran(&mut xd);
                assert_same_bits(&xs, &xd);
                let (mut ys, mut yd) = (x0.clone(), x0.clone());
                sparse.apply_btran(&mut ys);
                dense.apply_btran(&mut yd);
                assert_same_bits(&ys, &yd);
            }
        }
    }
}
