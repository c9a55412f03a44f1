//! A minimal dense matrix type for training the classifier.
//!
//! Inference never multiplies through this type: [`Mlp::predict`] carries
//! feature rows through the network in its own feature-major blocks.  What is
//! left is training, whose backpropagation needs three products per layer —
//! `X·W` forward, `Xᵀ·G` for the weight gradient and `G·Wᵀ` for the input
//! gradient — on batches of 64 rows and layers at most 12 wide.  All three
//! run through the one [`Matrix::matmul`] kernel, the transposed operands
//! materialized by [`Matrix::transpose`] (a few hundred values at these
//! sizes).  Each output row is built from `axpy` updates whose inner loop
//! `chunks_exact` turns into SIMD lanes.
//!
//! [`Mlp::predict`]: crate::Mlp::predict
//!
//! # Determinism contract
//!
//! The kernel accumulates each output element as a **single scalar chain
//! from `0.0` in ascending-`k` order**, so it is bit-identical to the naive
//! triple loop (the oracles of this module's tests) on every finite input,
//! and a transposed operand changes which element is read, never the order
//! of additions.  No zero operand is skipped: `0.0 * inf` must produce `NaN`.
//! The one caveat is the `NaN` *payload*: when both operands of an addition
//! are `NaN`, x86 keeps whichever one the compiler happened to place as the
//! destination register, so payloads can differ between the kernel and an
//! oracle (and across compiler versions).  The contract is therefore
//! bit-identity on every non-`NaN` element and agreement on *which* elements
//! are `NaN` — never on `NaN` payload bits.

/// Columns processed per vectorized step of the axpy inner loop.
const LANES: usize = 8;

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

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use elf_nn::Matrix;
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(a.matmul(&a.transpose()).data(), &[5.0, 11.0, 11.0, 25.0]);
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

    /// Returns `self * other`: every row of `self` scales and adds the rows
    /// of `other` in ascending `k`.
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
        for i in 0..self.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (k, &a_ik) in a_row.iter().enumerate() {
                axpy(out_row, a_ik, &other.data[k * n..(k + 1) * n]);
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
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

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub(crate) fn hadamard(&self, other: &Matrix) -> Matrix {
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
    pub(crate) fn add_row_broadcast(&mut self, bias: &[f32]) {
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
    pub(crate) fn column_sums(&self) -> Vec<f32> {
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

    /// Naive `aᵀ * b`: the oracle of the weight-gradient product `Xᵀ·G`.
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

    /// Naive `a * bᵀ`: the oracle of the input-gradient product `G·Wᵀ`.
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
        assert_eq!(&m.data()[..3], &[1.0, 2.0, 3.0]);
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
        let at = a.transpose();
        assert_eq!((at.rows(), at.cols()), (2, 3));
        assert_eq!(at.data(), &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        assert_eq!(at.transpose(), a);
        // a^T (2x3) * b (3x2) = 2x2
        let atb = at.matmul(&b);
        assert_eq!((atb.rows(), atb.cols()), (2, 2));
        assert_eq!(atb.get(0, 0), 1.0 - 3.0 + 0.0);
        // a (3x2) * a^T (2x3) = 3x3 symmetric
        let aat = a.matmul(&at);
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
        let _ = m.get(2, 0);
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

    /// The three products of backpropagation, each through `matmul` (with
    /// the operand transposed where the product needs it) and through its
    /// naive oracle, compared by `check`.  `a` is `m x k`, `b` is `k x n`.
    fn check_products(a: &Matrix, b: &Matrix, check: fn(&Matrix, &Matrix, &str)) {
        let what = format!("{}x{} * {}x{}", a.rows(), a.cols(), b.rows(), b.cols());
        check(&a.matmul(b), &matmul_naive(a, b), &format!("X·W {what}"));
        // The weight gradient `inputᵀ · grad` with `input = aᵀ`, `grad = b`.
        let input = a.transpose();
        check(
            &input.transpose().matmul(b),
            &matmul_transpose_self_naive(&input, b),
            &format!("Xᵀ·G {what}"),
        );
        // The input gradient `grad · Wᵀ` with `grad = a`, `W = bᵀ`.
        let weights = b.transpose();
        check(
            &a.matmul(&weights.transpose()),
            &matmul_transpose_other_naive(a, &weights),
            &format!("G·Wᵀ {what}"),
        );
    }

    #[test]
    fn kernels_agree_bitwise_on_nonfinite_inputs() {
        // Zeros meeting infinities: no route may skip a zero operand and
        // drop the NaN it makes.
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
        check_products(&a, &b, assert_values_eq_modulo_nan_payload);
        // The zero-skip bug in one concrete cell: a[0] · b[:,0] contains
        // 0.0 * inf, so the result must actually be NaN, not 1.0.
        assert!(a.matmul(&b).get(0, 0).is_nan());
        assert!(b.transpose().matmul(&a.transpose()).get(0, 0).is_nan());
    }

    #[test]
    fn products_match_oracles_on_adversarial_shapes() {
        // Empty, single-row, and not-multiple-of-`LANES` shapes, plus the
        // training shapes: batches of 64 (and a short last batch) through
        // layers 6, 12 and 1 wide.
        let shapes: &[(usize, usize, usize)] = &[
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (1, 70, 5),
            (5, 7, 3),
            (33, 65, 9),
            (40, 130, 12),
            (64, 6, 12),
            (64, 12, 1),
            (17, 12, 6),
        ];
        for (seed, &(m, k, n)) in shapes.iter().enumerate() {
            let a = pseudo_matrix(m, k, seed as u64, 0);
            let b = pseudo_matrix(k, n, seed as u64 + 100, 0);
            check_products(&a, &b, assert_bits_eq);
        }
    }

    /// Deterministic data with wildly mixed magnitudes, so that float
    /// addition order is observable (catching any accumulation reordering).
    /// With `nonfinite` set, about one value in `nonfinite` is replaced by a
    /// zero, an infinity or a `NaN`.
    fn pseudo_matrix(rows: usize, cols: usize, seed: u64, nonfinite: u64) -> Matrix {
        const SPECIAL: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if nonfinite > 0 && (state >> 40).is_multiple_of(nonfinite) {
                    return SPECIAL[(state >> 20) as usize % SPECIAL.len()];
                }
                let mantissa = ((state >> 33) as i32 % 2000) as f32 / 64.0;
                let scale = [1.0f32, 1e-5, 1e5][(state >> 13) as usize % 3];
                mantissa * scale
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    // The kernel against the naive oracles on random shapes, drawn small and
    // skewed on purpose: empty matrices, single rows, and dimensions that
    // straddle the `LANES` boundary.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn blocked_matmul_matches_naive_oracle(
            m in 0usize..40,
            k in 0usize..80,
            n in 0usize..20,
            seed in any::<u64>(),
        ) {
            let a = pseudo_matrix(m, k, seed, 0);
            let b = pseudo_matrix(k, n, seed.wrapping_add(1), 0);
            assert_bits_eq(&a.matmul(&b), &matmul_naive(&a, &b), "matmul");
        }

        #[test]
        fn blocked_transpose_kernels_match_naive_oracles(
            m in 0usize..40,
            k in 0usize..80,
            n in 0usize..20,
            seed in any::<u64>(),
            nonfinite in 2u64..8,
        ) {
            // All three products equal their naive oracles: bit for bit on
            // finite data, modulo `NaN` payloads once zeros, infinities and
            // `NaN`s are mixed in.
            let a = pseudo_matrix(m, k, seed, 0);
            let b = pseudo_matrix(k, n, seed.wrapping_add(1), 0);
            check_products(&a, &b, assert_bits_eq);
            let a = pseudo_matrix(m, k, seed, nonfinite);
            let b = pseudo_matrix(k, n, seed.wrapping_add(1), nonfinite);
            check_products(&a, &b, assert_values_eq_modulo_nan_payload);
        }

        #[test]
        fn all_three_kernels_compute_the_same_product(
            m in 1usize..24,
            k in 1usize..48,
            n in 1usize..12,
            seed in any::<u64>(),
        ) {
            // A*B through all three product routes of backpropagation and
            // through all three naive oracles (transposing operands as
            // needed): the per-element ascending-k chain makes them bitwise
            // interchangeable.
            let a = pseudo_matrix(m, k, seed, 0);
            let b = pseudo_matrix(k, n, seed.wrapping_add(1), 0);
            let product = a.matmul(&b);
            let (at, bt) = (a.transpose(), b.transpose());
            assert_bits_eq(&at.transpose().matmul(&b), &product, "Xᵀ·G route");
            assert_bits_eq(&a.matmul(&bt.transpose()), &product, "G·Wᵀ route");
            assert_bits_eq(&matmul_naive(&a, &b), &product, "naive oracle");
            assert_bits_eq(
                &matmul_transpose_self_naive(&at, &b),
                &product,
                "transpose_self oracle",
            );
            assert_bits_eq(
                &matmul_transpose_other_naive(&a, &bt),
                &product,
                "transpose_other oracle",
            );
        }
    }
}
