//! A minimal dense matrix type for the classifier.
//!
//! The ELF classifier is a 325-parameter MLP evaluated on batches of cut
//! features.  The paper's engineering trick is batching, and batching is what
//! makes the kernel shape matter: `Mlp::predict` multiplies a tall skinny
//! activation matrix by each layer's weights for every inference batch, so
//! the three product kernels here are blocked for cache reuse and written
//! with `chunks_exact` inner loops the autovectorizer turns into SIMD.
//!
//! # Determinism contract
//!
//! Every kernel accumulates each output element as a **single scalar chain
//! in ascending-`k` order**.  Blocking only reorders *which* element is
//! updated next, never the order of additions within one element, so the
//! blocked kernels are bit-identical to naive triple-loop reference kernels
//! (the oracles of this module's tests) on every finite input.  No kernel
//! skips zero operands: `0.0 * inf` must produce `NaN` everywhere (an
//! earlier version short-circuited `a == 0.0` in two of the three kernels,
//! silently dropping those terms and yielding finite values where the third
//! kernel yielded `NaN`).  The one caveat is the `NaN` *payload*: when both
//! operands of an addition are `NaN`, x86 keeps whichever one the compiler
//! happened to place as the destination register, so payloads can differ
//! across kernels (and across compiler versions).  The contract is therefore
//! bit-identity on every non-`NaN` element and agreement on *which* elements
//! are `NaN` — never on `NaN` payload bits.

use std::fmt;

/// Columns processed per vectorized step of the axpy inner loops.
const LANES: usize = 8;

/// Rows of the output blocked together (keeps `MC` output rows plus one
/// operand row hot in cache while a `k`-block streams by).
const MC: usize = 32;

/// Depth (`k`) block: one block of operand rows is reused across a whole
/// `MC`-row output panel before moving on.
const KC: usize = 64;

/// Output columns accumulated simultaneously by `matmul_transpose_other`
/// (independent scalar chains — instruction-level parallelism without
/// changing any chain's addition order).
const NR: usize = 4;

/// `out[j] += a * x[j]` over full slices, `LANES` columns per step.
#[inline]
fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    let mut out_chunks = out.chunks_exact_mut(LANES);
    let mut x_chunks = x.chunks_exact(LANES);
    for (o, v) in (&mut out_chunks).zip(&mut x_chunks) {
        for lane in 0..LANES {
            o[lane] += a * v[lane];
        }
    }
    for (o, &v) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(x_chunks.remainder())
    {
        *o += a * v;
    }
}

/// Ascending-`k` scalar dot product (the canonical per-element chain).
#[inline]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0.0f32;
    for (&a, &b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// Four dot products against a shared left operand, each accumulated as its
/// own ascending-`k` scalar chain (bit-identical to four [`dot`] calls).
#[inline]
fn dot4(x: &[f32], y0: &[f32], y1: &[f32], y2: &[f32], y3: &[f32]) -> [f32; 4] {
    let len = x.len();
    let (y0, y1, y2, y3) = (&y0[..len], &y1[..len], &y2[..len], &y3[..len]);
    let mut acc = [0.0f32; 4];
    for (k, &a) in x.iter().enumerate() {
        acc[0] += a * y0[k];
        acc[1] += a * y1[k];
        acc[2] += a * y2[k];
        acc[3] += a * y3[k];
    }
    acc
}

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use elf_nn::Matrix;
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of the given size.
    pub fn identity(size: usize) -> Self {
        let mut m = Self::zeros(size, size);
        for i in 0..size {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "at least one row is required");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable access to the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the element at (`row`, `col`).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at (`row`, `col`).
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Returns a view of row `row`.
    pub fn row(&self, row: usize) -> &[f32] {
        debug_assert!(row < self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns `self * other` via the blocked kernel.
    ///
    /// Bit-identical to the naive triple loop (see the module-level
    /// determinism contract).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for kb in (0..self.cols).step_by(KC) {
            let k_end = (kb + KC).min(self.cols);
            for ib in (0..self.rows).step_by(MC) {
                let i_end = (ib + MC).min(self.rows);
                for i in ib..i_end {
                    let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                    let out_row = &mut out.data[i * n..(i + 1) * n];
                    for (k, &a_ik) in a_row.iter().enumerate().take(k_end).skip(kb) {
                        axpy(out_row, a_ik, &other.data[k * n..(k + 1) * n]);
                    }
                }
            }
        }
        out
    }

    /// Returns `self^T * other` without materializing the transpose, via the
    /// blocked kernel.
    ///
    /// Bit-identical to the naive triple loop.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    pub fn matmul_transpose_self(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row counts must agree");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        for kb in (0..self.rows).step_by(KC) {
            let k_end = (kb + KC).min(self.rows);
            for ib in (0..self.cols).step_by(MC) {
                let i_end = (ib + MC).min(self.cols);
                for k in kb..k_end {
                    let a_row = &self.data[k * self.cols..(k + 1) * self.cols];
                    let b_row = &other.data[k * n..(k + 1) * n];
                    for (i, &a_ki) in a_row.iter().enumerate().take(i_end).skip(ib) {
                        axpy(&mut out.data[i * n..(i + 1) * n], a_ki, b_row);
                    }
                }
            }
        }
        out
    }

    /// Returns `self * other^T` without materializing the transpose, via the
    /// register-blocked kernel (`NR` output columns per pass).
    ///
    /// Bit-identical to the naive triple loop.
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub fn matmul_transpose_other(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "column counts must agree");
        let mut out = Matrix::zeros(self.rows, other.rows);
        let n = other.rows;
        let c = self.cols;
        for i in 0..self.rows {
            let a_row = &self.data[i * c..(i + 1) * c];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let mut j = 0;
            while j + NR <= n {
                let sums = dot4(
                    a_row,
                    &other.data[j * c..(j + 1) * c],
                    &other.data[(j + 1) * c..(j + 2) * c],
                    &other.data[(j + 2) * c..(j + 3) * c],
                    &other.data[(j + 3) * c..(j + 4) * c],
                );
                out_row[j..j + NR].copy_from_slice(&sums);
                j += NR;
            }
            while j < n {
                out_row[j] = dot(a_row, &other.data[j * c..(j + 1) * c]);
                j += 1;
            }
        }
        out
    }

    /// Applies a function to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds a row vector to every row (broadcast), in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        if self.cols == 0 {
            return;
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (value, b) in row.iter_mut().zip(bias) {
                *value += b;
            }
        }
    }

    /// Sums the rows, returning one value per column.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        if self.cols == 0 {
            return sums;
        }
        for row in self.data.chunks_exact(self.cols) {
            for (sum, value) in sums.iter_mut().zip(row) {
                *sum += value;
            }
        }
        sums
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            let row: Vec<String> = self.row(i).iter().map(|v| format!("{v:8.4}")).collect();
            writeln!(f, "  {}", row.join(" "))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive triple-loop `a * b`: the reference oracle of [`Matrix::matmul`].
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut sum = 0.0;
                for k in 0..a.cols() {
                    sum += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, sum);
            }
        }
        out
    }

    /// Naive reference oracle of [`Matrix::matmul_transpose_self`].
    fn matmul_transpose_self_naive(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "row counts must agree");
        let mut out = Matrix::zeros(a.cols(), b.cols());
        for i in 0..a.cols() {
            for j in 0..b.cols() {
                let mut sum = 0.0;
                for k in 0..a.rows() {
                    sum += a.get(k, i) * b.get(k, j);
                }
                out.set(i, j, sum);
            }
        }
        out
    }

    /// Naive reference oracle of [`Matrix::matmul_transpose_other`].
    fn matmul_transpose_other_naive(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "column counts must agree");
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut sum = 0.0;
                for k in 0..a.cols() {
                    sum += a.get(i, k) * b.get(j, k);
                }
                out.set(i, j, sum);
            }
        }
        out
    }

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn transpose_products_match_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.5], vec![-1.0, 2.0], vec![0.0, 1.0]]);
        // a^T (2x3) * b (3x2) = 2x2
        let atb = a.matmul_transpose_self(&b);
        assert_eq!(atb.rows(), 2);
        assert_eq!(atb.cols(), 2);
        assert!((atb.get(0, 0) - (1.0 - 3.0 + 0.0)).abs() < 1e-6);
        // a (3x2) * a^T (2x3) = 3x3 symmetric
        let aat = a.matmul_transpose_other(&a);
        assert_eq!(aat.get(0, 1), aat.get(1, 0));
        assert_eq!(aat.get(0, 0), 5.0);
    }

    #[test]
    fn broadcast_and_sums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(m.column_sums(), vec![3.0, 6.0]);
        let h = m.hadamard(&m);
        assert_eq!(h.get(0, 1), 4.0);
        let s = m.add(&m);
        assert_eq!(s.get(2, 0), 2.0);
        let n = m.map(|x| -x);
        assert_eq!(n.get(0, 0), -1.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "row < self.rows")]
    fn row_out_of_range_is_a_debug_assert() {
        let m = Matrix::zeros(2, 3);
        let _ = m.row(2);
    }

    /// Materializes the transpose (test helper for cross-kernel checks).
    fn transpose(m: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(m.cols(), m.rows());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                t.set(j, i, m.get(i, j));
            }
        }
        t
    }

    /// Bitwise equality — `PartialEq` on `f32` would treat `NaN != NaN` and
    /// `0.0 == -0.0`, hiding exactly the divergences these tests hunt.
    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
        for (index, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {index} diverges ({x} vs {y})"
            );
        }
    }

    /// The non-finite contract: every non-`NaN` element bit-identical, and
    /// the same elements `NaN` (payload bits excluded — see the module docs).
    fn assert_values_eq_modulo_nan_payload(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
        for (index, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            let same = (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits();
            assert!(same, "{what}: element {index} diverges ({x} vs {y})");
        }
    }

    #[test]
    fn kernels_agree_bitwise_on_nonfinite_inputs() {
        // Zeros meeting infinities: the old zero-skip dropped the resulting
        // NaNs in `matmul`/`matmul_transpose_self` but not in
        // `matmul_transpose_other`.  All three kernels (and their oracles)
        // must now produce the same bits.
        let a = Matrix::from_rows(&[
            vec![0.0, 1.0, f32::NEG_INFINITY],
            vec![-0.0, f32::NAN, 2.0],
            vec![3.0, 0.0, -1.5],
        ]);
        let b = Matrix::from_rows(&[
            vec![f32::INFINITY, 0.0],
            vec![1.0, f32::NAN],
            vec![0.0, -2.0],
        ]);
        let product = a.matmul(&b);
        assert_values_eq_modulo_nan_payload(&product, &matmul_naive(&a, &b), "matmul vs oracle");
        assert_values_eq_modulo_nan_payload(
            &transpose(&a).matmul_transpose_self(&b),
            &product,
            "matmul_transpose_self vs matmul",
        );
        assert_values_eq_modulo_nan_payload(
            &a.matmul_transpose_other(&transpose(&b)),
            &product,
            "matmul_transpose_other vs matmul",
        );
        // The zero-skip bug in one concrete cell: a[0] · b[:,0] contains
        // 0.0 * inf, so the result must actually be NaN, not 1.0.
        assert!(product.get(0, 0).is_nan());
    }

    #[test]
    fn blocked_kernels_match_oracles_on_adversarial_shapes() {
        // Empty, single-row, and not-multiple-of-block shapes (LANES = 8,
        // MC = 32, KC = 64, NR = 4 — all deliberately straddled).
        let shapes: &[(usize, usize, usize)] = &[
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (1, 70, 5),
            (5, 7, 3),
            (33, 65, 9),
            (40, 130, 12),
        ];
        for &(m, k, n) in shapes {
            let a = Matrix::from_vec(m, k, pseudo_data(m * k, 1));
            let b = Matrix::from_vec(k, n, pseudo_data(k * n, 2));
            let what = format!("{m}x{k} * {k}x{n}");
            assert_bits_eq(&a.matmul(&b), &matmul_naive(&a, &b), &what);
            let at = transpose(&a);
            assert_bits_eq(
                &at.matmul_transpose_self(&b),
                &matmul_transpose_self_naive(&at, &b),
                &what,
            );
            let bt = transpose(&b);
            assert_bits_eq(
                &a.matmul_transpose_other(&bt),
                &matmul_transpose_other_naive(&a, &bt),
                &what,
            );
        }
    }

    /// Deterministic non-trivial test data (varied magnitudes and signs so
    /// float addition is far from associative).
    fn pseudo_data(len: usize, salt: u64) -> Vec<f32> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt + 1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mantissa = ((state >> 33) as i32 % 2000) as f32 / 64.0;
                let scale = [1.0f32, 1e-4, 1e4][(state >> 13) as usize % 3];
                mantissa * scale
            })
            .collect()
    }

    /// Deterministic finite data with wildly mixed magnitudes, so that float
    /// addition order is observable (catching any accumulation reordering).
    fn pseudo_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mantissa = ((state >> 33) as i32 % 2000) as f32 / 64.0;
                let scale = [1.0f32, 1e-5, 1e5][(state >> 13) as usize % 3];
                mantissa * scale
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    // The blocked kernels against the naive oracles on random shapes, drawn
    // small and skewed on purpose: empty matrices, single rows, and
    // dimensions that straddle the `LANES`/`MC`/`KC`/`NR` block boundaries.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn blocked_matmul_matches_naive_oracle(
            m in 0usize..40,
            k in 0usize..80,
            n in 0usize..20,
            seed in any::<u64>(),
        ) {
            let a = pseudo_matrix(m, k, seed);
            let b = pseudo_matrix(k, n, seed.wrapping_add(1));
            assert_bits_eq(&a.matmul(&b), &matmul_naive(&a, &b), "matmul");
        }

        #[test]
        fn blocked_transpose_kernels_match_naive_oracles(
            m in 0usize..40,
            k in 0usize..80,
            n in 0usize..20,
            seed in any::<u64>(),
        ) {
            let a = pseudo_matrix(m, k, seed);
            let b = pseudo_matrix(k, n, seed.wrapping_add(1));
            let at = transpose(&a);
            assert_bits_eq(
                &at.matmul_transpose_self(&b),
                &matmul_transpose_self_naive(&at, &b),
                "matmul_transpose_self",
            );
            let bt = transpose(&b);
            assert_bits_eq(
                &a.matmul_transpose_other(&bt),
                &matmul_transpose_other_naive(&a, &bt),
                "matmul_transpose_other",
            );
        }

        #[test]
        fn all_three_kernels_compute_the_same_product(
            m in 1usize..24,
            k in 1usize..48,
            n in 1usize..12,
            seed in any::<u64>(),
        ) {
            // A*B through all three kernels (transposing operands as needed):
            // the per-element ascending-k chain makes them bitwise
            // interchangeable.
            let a = pseudo_matrix(m, k, seed);
            let b = pseudo_matrix(k, n, seed.wrapping_add(1));
            let product = a.matmul(&b);
            assert_bits_eq(
                &transpose(&a).matmul_transpose_self(&b),
                &product,
                "transpose_self route",
            );
            assert_bits_eq(
                &a.matmul_transpose_other(&transpose(&b)),
                &product,
                "transpose_other route",
            );
        }
    }
}
