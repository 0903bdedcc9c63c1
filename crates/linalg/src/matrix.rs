//! Dense, row-major, owned `f64` matrix.
//!
//! The Tucker kernels mostly operate directly on raw slices with explicit
//! leading dimensions (see [`crate::gemm`](mod@crate::gemm)), but factor matrices, Gram
//! matrices, and eigenvector matrices are carried around as [`Matrix`] values.
//! Row-major storage matches the paper's choice for local factor-matrix blocks
//! (Sec. IV-B: "the local matrices are stored in row-major order").

use std::fmt;

/// A dense matrix of `f64` stored in row-major order.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: tucker_exec::zeroed(rows * cols),
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the backing vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Extracts rows `[r0, r1)` as a new matrix.
    pub fn row_block(&self, r0: usize, r1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row_block out of range");
        Matrix::from_vec(
            r1 - r0,
            self.cols,
            self.data[r0 * self.cols..r1 * self.cols].to_vec(),
        )
    }

    /// Extracts columns `[c0, c1)` as a new matrix.
    pub fn col_block(&self, c0: usize, c1: usize) -> Matrix {
        assert!(c0 <= c1 && c1 <= self.cols, "col_block out of range");
        let mut out = Matrix::zeros(self.rows, c1 - c0);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Extracts the rows whose indices appear in `idx` (in order) as a new matrix.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (k, &i) in idx.iter().enumerate() {
            assert!(i < self.rows, "select_rows index out of range");
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        crate::blas1::nrm2(&self.data)
    }

    /// Sum of the diagonal, `Σᵢ aᵢᵢ`: one running sum from `+0.0` over `i`
    /// ascending, so its bits are fixed by the diagonal alone.
    pub fn trace(&self) -> f64 {
        (0..self.rows.min(self.cols)).fold(0.0, |acc, i| acc + self.get(i, i))
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Entrywise sum of this matrix and another.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Entrywise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scales every entry by `a`.
    pub fn scale(&mut self, a: f64) {
        crate::blas1::scal(a, &mut self.data);
    }

    /// Returns `true` if the columns of this matrix are orthonormal to within `tol`.
    pub fn has_orthonormal_columns(&self, tol: f64) -> bool {
        for j in 0..self.cols {
            for k in j..self.cols {
                let mut s = 0.0;
                for i in 0..self.rows {
                    s += self.get(i, j) * self.get(i, k);
                }
                let expected = if j == k { 1.0 } else { 0.0 };
                if (s - expected).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for i in 0..self.rows.min(max_show) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(max_show) {
                write!(f, "{:>10.4} ", self.get(i, j))?;
            }
            if self.cols > max_show {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn trace_adds_the_diagonal_in_ascending_order() {
        // Ascending: (1 + 2⁵³) rounds to 2⁵³, then − 2⁵³ gives 0; descending,
        // (−2⁵³ + 2⁵³) + 1 gives 1.
        let big = 2f64.powi(53);
        let m = Matrix::from_fn(3, 4, |i, j| if i == j { [1.0, big, -big][i] } else { 7.0 });
        assert_eq!(m.trace().to_bits(), 0f64.to_bits());
        assert_eq!(Matrix::zeros(0, 0).trace().to_bits(), 0f64.to_bits());
    }

    #[test]
    #[should_panic]
    fn from_vec_wrong_len_panics() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn row_and_col_blocks() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let rb = m.row_block(1, 3);
        assert_eq!(rb.shape(), (2, 4));
        assert_eq!(rb.get(0, 0), 4.0);
        let cb = m.col_block(2, 4);
        assert_eq!(cb.shape(), (4, 2));
        assert_eq!(cb.get(0, 0), 2.0);
        assert_eq!(cb.get(3, 1), 15.0);
    }

    #[test]
    fn select_rows_picks_in_order() {
        let m = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64);
        let s = m.select_rows(&[3, 0]);
        assert_eq!(s.row(0), &[6.0, 7.0]);
        assert_eq!(s.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn matvec_and_matmul() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::identity(2);
        let no = crate::gemm::Transpose::No;
        assert_eq!(crate::gemm::gemm(no, no, 1.0, &a, &b), a);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![3.0, 2.0, 1.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 4.0, 4.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-2.0, 0.0, 2.0]);
        let mut c = a.clone();
        c.scale(2.0);
        assert_eq!(c.as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn frob_norm_and_max_abs() {
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, -4.0]);
        assert!((a.frob_norm() - 5.0).abs() < 1e-14);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn orthonormal_column_check() {
        let i = Matrix::identity(4);
        assert!(i.has_orthonormal_columns(1e-14));
        let m = Matrix::from_vec(2, 2, vec![1.0, 1.0, 0.0, 1.0]);
        assert!(!m.has_orthonormal_columns(1e-14));
    }

    #[test]
    fn debug_format_does_not_panic() {
        let m = Matrix::from_fn(10, 10, |i, j| (i + j) as f64);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 10x10"));
    }
}
