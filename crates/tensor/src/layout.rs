//! Logical mode-n unfolding of a natural-order dense tensor.
//!
//! As in the paper (Sec. IV-C), unfolding never moves data. For a tensor with
//! dimensions `I_1 × … × I_N` stored first-mode-fastest, fix a mode `n` and
//! group the dimensions into
//!
//! * `left  = ∏_{m<n} I_m` — the "row-block width" of the local layout,
//! * `I_n` — the unfolding's row count,
//! * `right = ∏_{m>n} I_m` — the number of contiguous blocks.
//!
//! The buffer then consists of `right` contiguous blocks of `left · I_n`
//! elements each. Block `t`, viewed in memory, is a **column-major
//! `left × I_n` matrix** — equivalently a row-major `I_n × left` matrix whose
//! rows are the mode-n fibers. The mode-n unfolding `Y(n)` (of size
//! `I_n × (I/I_n)`) is the concatenation of the transposes of those blocks,
//! exactly the "series of row-major subblocks" of Fig. 3b in the paper.
//!
//! Every local kernel (TTM, Gram) iterates over these blocks and calls a
//! BLAS-3 routine per block, so the unfolding itself is free.

use crate::dense::DenseTensor;

/// A logical description of the mode-n unfolding of a tensor: no data is copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unfolding {
    /// The unfolding mode `n` (0-based).
    pub mode: usize,
    /// `∏_{m<n} I_m` — width of each row-major subblock.
    pub left: usize,
    /// `I_n` — number of rows of the unfolded matrix.
    pub mode_dim: usize,
    /// `∏_{m>n} I_m` — number of contiguous subblocks.
    pub right: usize,
}

impl Unfolding {
    /// Computes the unfolding structure of `dims` in mode `n` (0-based).
    ///
    /// # Panics
    /// Panics if `n` is out of range.
    pub fn new(dims: &[usize], n: usize) -> Self {
        assert!(n < dims.len(), "Unfolding: mode {n} out of range");
        let left: usize = dims[..n].iter().product();
        let right: usize = dims[n + 1..].iter().product();
        Unfolding {
            mode: n,
            left,
            mode_dim: dims[n],
            right,
        }
    }

    /// Number of rows of the unfolded matrix (`I_n`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.mode_dim
    }

    /// Number of columns of the unfolded matrix (`Î_n = left · right`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.left * self.right
    }

    /// Number of elements in one contiguous subblock (`left · I_n`).
    #[inline]
    pub fn block_len(&self) -> usize {
        self.left * self.mode_dim
    }

    /// Byte-free view of subblock `t` of the given buffer.
    ///
    /// The returned slice is a column-major `left × mode_dim` matrix, i.e. a
    /// row-major `mode_dim × left` matrix with leading dimension `left`.
    #[inline]
    pub fn block<'a>(&self, data: &'a [f64], t: usize) -> &'a [f64] {
        let b = self.block_len();
        &data[t * b..(t + 1) * b]
    }

    /// Materializes the unfolded matrix explicitly (row-major `I_n × Î_n`).
    ///
    /// Only used by tests and small reference computations — production kernels
    /// operate block-wise on the original buffer.
    pub fn materialize(&self, tensor: &DenseTensor) -> tucker_linalg::Matrix {
        assert_eq!(tensor.dim(self.mode), self.mode_dim);
        let rows = self.rows();
        let cols = self.cols();
        let mut m = tucker_linalg::Matrix::zeros(rows, cols);
        let data = tensor.as_slice();
        for t in 0..self.right {
            let block = self.block(data, t);
            for i in 0..self.mode_dim {
                for l in 0..self.left {
                    // Column index in the unfolding: modes < n vary fastest,
                    // then modes > n (the standard Kolda ordering restricted to
                    // the natural layout).
                    let col = l + t * self.left;
                    m.set(i, col, block[l + i * self.left]);
                }
            }
        }
        m
    }

    /// Element of the unfolding at `(row, col)` read directly from the tensor buffer.
    #[inline]
    pub fn get(&self, data: &[f64], row: usize, col: usize) -> f64 {
        let l = col % self.left.max(1);
        let t = col / self.left.max(1);
        let block = self.block(data, t);
        block[l + row * self.left]
    }
}

/// Maps a tensor multi-index to its `(row, col)` position in the mode-n unfolding.
///
/// Follows the same column ordering as [`Unfolding::materialize`]: modes before
/// `n` vary fastest in the column index, followed by modes after `n`.
pub fn unfold_index(dims: &[usize], n: usize, index: &[usize]) -> (usize, usize) {
    assert_eq!(dims.len(), index.len());
    let row = index[n];
    let mut col = 0usize;
    let mut stride = 1usize;
    for (k, (&d, &i)) in dims.iter().zip(index.iter()).enumerate() {
        if k == n {
            continue;
        }
        col += i * stride;
        stride *= d;
    }
    (row, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfolding_shapes() {
        let dims = [2usize, 3, 4, 5];
        let u = Unfolding::new(&dims, 2);
        assert_eq!(u.left, 6);
        assert_eq!(u.mode_dim, 4);
        assert_eq!(u.right, 5);
        assert_eq!(u.rows(), 4);
        assert_eq!(u.cols(), 30);
        assert_eq!(u.block_len(), 24);
    }

    #[test]
    fn first_and_last_mode_shapes() {
        let dims = [3usize, 4, 5];
        let u0 = Unfolding::new(&dims, 0);
        assert_eq!((u0.left, u0.right), (1, 20));
        let u2 = Unfolding::new(&dims, 2);
        assert_eq!((u2.left, u2.right), (12, 1));
    }

    #[test]
    #[should_panic]
    fn mode_out_of_range_panics() {
        Unfolding::new(&[2, 2], 2);
    }

    #[test]
    fn materialized_unfolding_matches_index_map() {
        let dims = [2usize, 3, 4];
        let t = DenseTensor::from_fn(&dims, |idx| (idx[0] + 10 * idx[1] + 100 * idx[2]) as f64);
        for n in 0..3 {
            let u = Unfolding::new(&dims, n);
            let m = u.materialize(&t);
            assert_eq!(m.shape(), (dims[n], t.len() / dims[n]));
            for (idx, v) in t.indexed_iter() {
                let (r, c) = unfold_index(&dims, n, &idx);
                assert_eq!(m.get(r, c), v, "mismatch at {idx:?} mode {n}");
            }
        }
    }

    #[test]
    fn get_matches_materialized() {
        let dims = [3usize, 2, 4, 2];
        let t = DenseTensor::from_fn(&dims, |idx| {
            (idx[0] + idx[1] * 7 + idx[2] * 13 + idx[3] * 31) as f64
        });
        for n in 0..4 {
            let u = Unfolding::new(&dims, n);
            let m = u.materialize(&t);
            for r in 0..u.rows() {
                for c in 0..u.cols() {
                    assert_eq!(u.get(t.as_slice(), r, c), m.get(r, c));
                }
            }
        }
    }

    #[test]
    fn mode1_unfolding_is_raw_buffer_column_major() {
        // For n = 0 the unfolding is the buffer itself read column-major.
        let dims = [3usize, 4];
        let t = DenseTensor::from_fn(&dims, |idx| (idx[0] + 3 * idx[1]) as f64);
        let u = Unfolding::new(&dims, 0);
        let m = u.materialize(&t);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), t.as_slice()[i + 3 * j]);
            }
        }
    }

    #[test]
    fn norm_preserved_by_unfolding() {
        let dims = [4usize, 3, 5];
        let t = DenseTensor::from_fn(&dims, |idx| (idx[0] as f64 - idx[2] as f64) * 0.37 + 1.0);
        for n in 0..3 {
            let u = Unfolding::new(&dims, n);
            let m = u.materialize(&t);
            assert!((m.frob_norm() - t.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn unfold_index_row_is_mode_index() {
        let dims = [2usize, 3, 4];
        let (r, c) = unfold_index(&dims, 1, &[1, 2, 3]);
        assert_eq!(r, 2);
        // col = i0 * 1 + i2 * 2 = 1 + 6 = 7
        assert_eq!(c, 7);
    }

    #[test]
    fn blocks_tile_the_buffer() {
        let dims = [2usize, 3, 4];
        let t = DenseTensor::from_fn(&dims, |idx| (idx[0] + idx[1] + idx[2]) as f64);
        let u = Unfolding::new(&dims, 1);
        let mut total = 0usize;
        for b in 0..u.right {
            total += u.block(t.as_slice(), b).len();
        }
        assert_eq!(total, t.len());
    }
}
