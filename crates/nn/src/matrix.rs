//! A dense matrix type holding a layer's weights, and the three products
//! training multiplies through.
//!
//! Inference never multiplies through this module: [`Mlp::predict`] carries
//! feature rows through the network in its own feature-major blocks.  What is
//! left is training, whose fused step needs three products per layer on a
//! mini-batch of at most 64 rows held **batch-major** (feature `f` of the
//! batch's rows contiguous, `values[f * rows + r]`):
//!
//! * [`forward`]: `X·W + b`, summed over ascending inputs;
//! * [`input_gradient`]: `G·Wᵀ`, summed over ascending outputs;
//! * [`weight_gradient`]: `Xᵀ·G` and the bias sums `1ᵀ·G`, summed over the
//!   batch's rows in ascending order from `G` held row-major.
//!
//! The first two vectorize across the batch's rows, 16 rows' sums held in
//! registers at a time; the third across blocks of 8 of the layer's outputs,
//! four weight rows at a time, so that four independent chains of additions
//! hide each other's latency.
//!
//! [`Mlp::predict`]: crate::Mlp::predict
//!
//! # Determinism contract
//!
//! Each product element is accumulated as a **single scalar chain from `0.0`
//! in ascending order** of its inner index (inputs, outputs or rows), and a
//! bias is added after the sum, so every product is bit-identical to the
//! naive loops (the oracles of this module's tests) on every finite input.
//! No zero operand is skipped: `0.0 * inf` must produce `NaN`.  The one
//! caveat is the `NaN` *payload*: when both operands of an addition are
//! `NaN`, x86 keeps whichever one the compiler happened to place as the
//! destination register, so payloads can differ between a kernel and an
//! oracle (and across compiler versions).  The contract is therefore
//! bit-identity on every non-`NaN` element and agreement on *which* elements
//! are `NaN` — never on `NaN` payload bits.

/// Columns of `G` the weight gradient sums in registers at a time.
pub(crate) const LANES: usize = 8;

/// Rows of `dw` the weight gradient sums at a time.
const GROUP: usize = 4;

/// Sums of one block of [`LANES`] columns.
type Block = [f32; LANES];

/// Rows of a batch the forward and input-gradient products hold in
/// registers at a time.
const BLOCK: usize = 16;

/// `out[r] = Σ lane[r] * c` over the `(lane, c)` pairs in order, one chain
/// from `0.0` per row: rows [`BLOCK`] at a time, each block's sums held in
/// registers over the pairs.
#[inline]
fn combine<'a>(out: &mut [f32], pairs: impl Iterator<Item = (&'a [f32], f32)> + Clone) {
    let full = out.len() - out.len() % BLOCK;
    let mut blocks = out.chunks_exact_mut(BLOCK);
    for (index, block) in (&mut blocks).enumerate() {
        combine_block(block, index * BLOCK, pairs.clone());
    }
    combine_block(blocks.into_remainder(), full, pairs);
}

/// [`combine`] for the rows `start..start + out.len()`, at most [`BLOCK`].
#[inline(always)]
fn combine_block<'a>(out: &mut [f32], start: usize, pairs: impl Iterator<Item = (&'a [f32], f32)>) {
    let mut sums = [0.0f32; BLOCK];
    let sums = &mut sums[..out.len()];
    for (lane, c) in pairs {
        for (s, &x) in sums.iter_mut().zip(&lane[start..start + out.len()]) {
            *s += x * c;
        }
    }
    out.copy_from_slice(sums);
}

/// A dense row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use elf_nn::Matrix;
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!((a.rows(), a.cols()), (2, 2));
/// assert_eq!(a.get(1, 0), 3.0);
/// assert_eq!(a.data(), &[1.0, 2.0, 3.0, 4.0]);
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
}

/// `out = x·W + b` for a batch of `rows` rows: `x` holds `weights.rows()`
/// input lanes and `out` one lane per column of `weights`, both batch-major.
///
/// # Panics
///
/// Panics if `x`, `bias` or `out` does not match `weights` and `rows`.
pub(crate) fn forward(x: &[f32], rows: usize, weights: &Matrix, bias: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), rows * weights.rows, "inner dimensions must agree");
    assert_eq!((bias.len(), out.len()), (weights.cols, rows * weights.cols));
    // `max(1)`: a zero-sized dimension leaves the slices it strides empty.
    let w_rows = weights.data.chunks_exact(weights.cols.max(1));
    for ((j, lane), &b) in out.chunks_exact_mut(rows.max(1)).enumerate().zip(bias) {
        combine(lane, x.chunks_exact(rows).zip(w_rows.clone().map(|w| w[j])));
        lane.iter_mut().for_each(|y| *y += b);
    }
}

/// `d = g·Wᵀ` for a batch of `rows` rows: `g` holds one lane per column of
/// `weights` and `d` one per row of it, both batch-major.
///
/// # Panics
///
/// Panics if `g` or `d` does not match `weights` and `rows`.
pub(crate) fn input_gradient(g: &[f32], rows: usize, weights: &Matrix, d: &mut [f32]) {
    assert_eq!(g.len(), rows * weights.cols, "inner dimensions must agree");
    assert_eq!(d.len(), rows * weights.rows);
    let w_rows = weights.data.chunks_exact(weights.cols.max(1));
    for (lane, w_row) in d.chunks_exact_mut(rows.max(1)).zip(w_rows) {
        combine(lane, g.chunks_exact(rows).zip(w_row.iter().copied()));
    }
}

/// The row stride of `G` as [`weight_gradient`] reads it: `n` columns padded
/// to whole blocks of [`LANES`].
pub(crate) fn padded(n: usize) -> usize {
    n.next_multiple_of(LANES)
}

/// For each of the `K` lanes of `x`, the sums over the rows of `g` (each
/// `stride` values) of columns `start..start + LANES`, row `r`'s block
/// scaled by the lane's `x[r]`: one chain from `0.0` in ascending row per
/// column, `K` lanes at once so that their chains hide each other's latency.
#[inline(always)]
fn column_blocks<const K: usize>(
    g: &[f32],
    stride: usize,
    start: usize,
    x: [&[f32]; K],
) -> [Block; K] {
    let mut sums = [[0.0f32; LANES]; K];
    for (r, g) in g.chunks_exact(stride).enumerate() {
        let g = &g[start..start + LANES];
        for (sums, x) in sums.iter_mut().zip(x) {
            let a = x[r];
            for (s, &v) in sums.iter_mut().zip(g) {
                *s += a * v;
            }
        }
    }
    sums
}

/// `dw = xᵀ·G` and `db = 1ᵀ·G` for a batch of `rows` rows: `x` holds one
/// batch-major lane per row of `dw`, `g` the batch's rows of `G`, each one
/// value per column of `dw` and entry of `db`, padded to [`padded`] values
/// (the padding is read and never reaches a result).
///
/// # Panics
///
/// Panics if the slices' sizes disagree.
pub(crate) fn weight_gradient(x: &[f32], g: &[f32], rows: usize, dw: &mut [f32], db: &mut [f32]) {
    let (n, stride) = (db.len(), padded(db.len()));
    assert_eq!(g.len(), rows * stride, "inner dimensions must agree");
    assert_eq!(x.len() * n, rows * dw.len());
    // An empty batch leaves every lane unvisited: its sums are zero.
    dw.fill(0.0);
    let rows = rows.max(1);
    for start in (0..n).step_by(LANES) {
        let width = LANES.min(n - start);
        let mut sums = [0.0f32; LANES];
        for g in g.chunks_exact(stride) {
            sums.iter_mut().zip(&g[start..]).for_each(|(s, v)| *s += v);
        }
        db[start..start + width].copy_from_slice(&sums[..width]);
        let mut x_groups = x.chunks_exact(GROUP * rows);
        let mut dw_groups = dw.chunks_exact_mut(GROUP * n);
        for (x, dw) in (&mut x_groups).zip(&mut dw_groups) {
            let lanes = std::array::from_fn(|i| &x[i * rows..][..rows]);
            let sums = column_blocks::<GROUP>(g, stride, start, lanes);
            for (dw_row, sums) in dw.chunks_exact_mut(n).zip(sums) {
                dw_row[start..start + width].copy_from_slice(&sums[..width]);
            }
        }
        let x_rest = x_groups.remainder().chunks_exact(rows);
        for (x, dw_row) in x_rest.zip(dw_groups.into_remainder().chunks_exact_mut(n)) {
            let [sums] = column_blocks::<1>(g, stride, start, [x]);
            dw_row[start..start + width].copy_from_slice(&sums[..width]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Matrix {
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
    }

    /// The transpose of `a`, which is also `a`'s data read batch-major.
    fn transpose(a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), a.rows());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                out.set(j, i, a.get(i, j));
            }
        }
        out
    }

    /// Naive triple-loop `a * b`: the reference oracle of every product.
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

    /// Naive column sums of `a`: the oracle of the bias gradient.
    fn column_sums_naive(a: &Matrix) -> Vec<f32> {
        (0..a.cols())
            .map(|j| (0..a.rows()).fold(0.0, |sum, i| sum + a.get(i, j)))
            .collect()
    }

    /// `a·b + bias` through [`forward`], with `a`'s rows as the batch.
    fn forward_route(a: &Matrix, b: &Matrix, bias: &[f32]) -> Matrix {
        let mut out = vec![0.0; a.rows() * b.cols()];
        forward(transpose(a).data(), a.rows(), b, bias, &mut out);
        transpose(&Matrix::from_vec(b.cols(), a.rows(), out))
    }

    /// `a·b` through [`weight_gradient`] (`x = aᵀ`, `G = b`, the batch
    /// `a`'s columns), and `1ᵀ·b`.  `G`'s padding is `NaN`, which must not
    /// reach a result.
    fn weight_route(a: &Matrix, b: &Matrix) -> (Matrix, Vec<f32>) {
        let (mut dw, mut db) = (vec![0.0; a.rows() * b.cols()], vec![0.0; b.cols()]);
        let stride = padded(b.cols());
        let mut g_rows = vec![f32::NAN; b.rows() * stride];
        for (row, padded) in b
            .data()
            .chunks(b.cols().max(1))
            .zip(g_rows.chunks_mut(stride.max(1)))
        {
            padded[..row.len()].copy_from_slice(row);
        }
        weight_gradient(a.data(), &g_rows, a.cols(), &mut dw, &mut db);
        (Matrix::from_vec(a.rows(), b.cols(), dw), db)
    }

    /// `a·b` through [`input_gradient`] (`G = a`, `W = bᵀ`, the batch `a`'s
    /// rows).
    fn input_route(a: &Matrix, b: &Matrix) -> Matrix {
        let mut d = vec![0.0; a.rows() * b.cols()];
        input_gradient(transpose(a).data(), a.rows(), &transpose(b), &mut d);
        transpose(&Matrix::from_vec(b.cols(), a.rows(), d))
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
        let expected = Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]);
        assert_eq!(forward_route(&a, &b, &[0.0; 2]), expected);
        assert_eq!(weight_route(&a, &b).0, expected);
        assert_eq!(input_route(&a, &b), expected);
    }

    #[test]
    fn transpose_products_match_explicit_transpose() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = Matrix::from_rows(&[vec![1.0, 0.5], vec![-1.0, 2.0], vec![0.0, 1.0]]);
        // The weight gradient xᵀ·g of a 3-row batch, x and g each 2 wide.
        let (dw, _) = weight_route(&transpose(&x), &g);
        assert_eq!(dw, matmul_naive(&transpose(&x), &g));
        assert_eq!(dw.get(0, 0), 1.0 - 3.0 + 0.0);
        // The input gradient g·wᵀ with w = x: 3x3 and symmetric for g = x.
        let d = input_route(&x, &transpose(&x));
        assert_eq!(d, matmul_naive(&x, &transpose(&x)));
        assert_eq!(d.get(0, 1), d.get(1, 0));
        assert_eq!(d.get(0, 0), 5.0);
    }

    #[test]
    fn broadcast_and_sums() {
        // Zero weights: the forward product is the bias on every row.
        let out = forward_route(&Matrix::zeros(3, 4), &Matrix::zeros(4, 2), &[1.0, 2.0]);
        assert_eq!(out, Matrix::from_rows(&vec![vec![1.0, 2.0]; 3]));
        // The bias gradient sums each column of G over the batch.
        let (_, db) = weight_route(&Matrix::zeros(1, 3), &out);
        assert_eq!(db, vec![3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let mut out = [0.0; 6];
        forward(&[0.0; 6], 2, &Matrix::zeros(2, 3), &[0.0; 3], &mut out);
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
    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: shape");
        for (index, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {index} diverges ({x} vs {y})"
            );
        }
    }

    /// The non-finite contract: every non-`NaN` element bit-identical, and
    /// the same elements `NaN` (payload bits excluded — see the module docs).
    fn assert_values_eq_modulo_nan_payload(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: shape");
        for (index, (x, y)) in a.iter().zip(b).enumerate() {
            let same = (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits();
            assert!(same, "{what}: element {index} diverges ({x} vs {y})");
        }
    }

    /// The product `a·b` (`a` is `m x k`, `b` is `k x n`) through all three
    /// kernels, and the bias sums of `b`, each against its naive oracle,
    /// compared by `check`.  Adding a bias of `-0.0` changes no value, so
    /// the forward route computes the bare product.
    fn check_products(a: &Matrix, b: &Matrix, check: fn(&[f32], &[f32], &str)) {
        let what = format!("{}x{} * {}x{}", a.rows(), a.cols(), b.rows(), b.cols());
        let product = matmul_naive(a, b);
        let bias = vec![-0.0; b.cols()];
        let forward = forward_route(a, b, &bias);
        check(forward.data(), product.data(), &format!("X·W {what}"));
        let (dw, db) = weight_route(a, b);
        check(dw.data(), product.data(), &format!("Xᵀ·G {what}"));
        check(&db, &column_sums_naive(b), &format!("1ᵀ·G {what}"));
        let d = input_route(a, b);
        check(d.data(), product.data(), &format!("G·Wᵀ {what}"));
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
        assert!(forward_route(&a, &b, &[0.0; 2]).get(0, 0).is_nan());
        assert!(weight_route(&a, &b).0.get(0, 0).is_nan());
        assert!(input_route(&a, &b).get(0, 0).is_nan());
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

    // The kernels against the naive oracles on random shapes, drawn small
    // and skewed on purpose: empty matrices, single rows, and dimensions
    // that straddle the `LANES` boundary.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn blocked_matmul_matches_naive_oracle(
            m in 0usize..40,
            k in 0usize..80,
            n in 0usize..20,
            seed in any::<u64>(),
        ) {
            // The forward product, with a bias added after the sum.
            let a = pseudo_matrix(m, k, seed, 0);
            let b = pseudo_matrix(k, n, seed.wrapping_add(1), 0);
            let bias = pseudo_matrix(1, n, seed.wrapping_add(2), 0);
            let mut expected = matmul_naive(&a, &b);
            for i in 0..m {
                for j in 0..n {
                    expected.set(i, j, expected.get(i, j) + bias.get(0, j));
                }
            }
            let forward = forward_route(&a, &b, bias.data());
            assert_bits_eq(forward.data(), expected.data(), "forward");
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
            // A*B through all three kernels, batched along the product's
            // rows (forward, input gradient) or its inner dimension (weight
            // gradient): the per-element ascending chain makes them bitwise
            // interchangeable.
            let a = pseudo_matrix(m, k, seed, 0);
            let b = pseudo_matrix(k, n, seed.wrapping_add(1), 0);
            let product = forward_route(&a, &b, &vec![-0.0; n]);
            assert_bits_eq(weight_route(&a, &b).0.data(), product.data(), "Xᵀ·G route");
            assert_bits_eq(input_route(&a, &b).data(), product.data(), "G·Wᵀ route");
            assert_bits_eq(matmul_naive(&a, &b).data(), product.data(), "naive oracle");
        }
    }
}
