//! Dense N-way tensor with first-mode-fastest (natural) memory layout.

/// Error returned by the checked slab accessor
/// [`DenseTensor::try_last_mode_slab`] when the requested last-mode range
/// does not fit inside the tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlabRangeError {
    /// First last-mode index of the requested slab.
    pub start: usize,
    /// Number of last-mode steps requested.
    pub len: usize,
    /// The size of the last mode.
    pub last_dim: usize,
}

impl std::fmt::Display for SlabRangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.len == 0 {
            write!(
                f,
                "empty last-mode slab (start {}, len 0, last dim {})",
                self.start, self.last_dim
            )
        } else {
            write!(
                f,
                "last-mode slab {}..{} exceeds last dim {}",
                self.start,
                self.start.saturating_add(self.len),
                self.last_dim
            )
        }
    }
}

impl std::error::Error for SlabRangeError {}

/// A dense, owned, N-way tensor of `f64`.
///
/// Element `(i_1, i_2, …, i_N)` is stored at linear offset
/// `i_1 + I_1·(i_2 + I_2·(i_3 + …))`, so the mode-1 unfolding of the tensor is
/// the data buffer viewed as an `I_1 × (I/I_1)` column-major matrix, matching
/// the layout assumed throughout Sec. IV of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    dims: Vec<usize>,
    data: Vec<f64>,
}

impl DenseTensor {
    /// Creates a tensor of zeros with the given dimensions. The buffer comes
    /// from [`tucker_exec::zeroed`], so a large one is advised for
    /// transparent huge pages before its first touch.
    ///
    /// # Panics
    /// Panics if `dims` is empty.
    pub fn zeros(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "DenseTensor: dims must be non-empty");
        let len: usize = dims.iter().product();
        DenseTensor {
            dims: dims.to_vec(),
            data: tucker_exec::zeroed(len),
        }
    }

    /// Creates a tensor from an existing data buffer in natural (first-mode-fastest) order.
    ///
    /// # Panics
    /// Panics if the buffer length does not equal the product of the dimensions.
    pub fn from_vec(dims: &[usize], data: Vec<f64>) -> Self {
        assert!(!dims.is_empty(), "DenseTensor: dims must be non-empty");
        let len: usize = dims.iter().product();
        assert_eq!(
            data.len(),
            len,
            "DenseTensor::from_vec: data length {} does not match dims {:?}",
            data.len(),
            dims
        );
        DenseTensor {
            dims: dims.to_vec(),
            data,
        }
    }

    /// Creates a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut t = DenseTensor::zeros(dims);
        let mut idx = vec![0usize; dims.len()];
        for off in 0..t.data.len() {
            t.data[off] = f(&idx);
            // Increment the multi-index with mode 1 fastest.
            for (k, i) in idx.iter_mut().enumerate() {
                *i += 1;
                if *i < dims[k] {
                    break;
                }
                *i = 0;
            }
        }
        t
    }

    /// Number of modes (ways) of the tensor.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// The dimension sizes `I_1, …, I_N`.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The size of mode `n`.
    #[inline]
    pub fn dim(&self, n: usize) -> usize {
        self.dims[n]
    }

    /// Total number of elements `I = ∏ I_n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `Î_n = I / I_n`, the product of all dimensions except mode `n`.
    #[inline]
    pub fn codim(&self, n: usize) -> usize {
        if self.dims[n] == 0 {
            return 0;
        }
        self.len() / self.dims[n]
    }

    /// Immutable access to the backing data in natural order.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the backing data in natural order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Number of elements in one slab of the **last** mode: `∏_{n<N} I_n`.
    ///
    /// Because the layout is first-mode-fastest, the elements with last-mode
    /// index `t` form one contiguous range of this length — the unit of
    /// streaming (e.g. one timestep of a time-last field).
    #[inline]
    pub fn last_mode_stride(&self) -> usize {
        self.dims[..self.dims.len() - 1].iter().product()
    }

    /// Borrows the contiguous slab covering last-mode indices
    /// `[start, start + len)` — zero-copy, in natural order.
    ///
    /// # Panics
    /// Panics if `start + len` exceeds the last dimension.
    pub fn last_mode_slab(&self, start: usize, len: usize) -> &[f64] {
        let last = *self.dims.last().expect("tensor has at least one mode");
        assert!(
            start + len <= last,
            "last_mode_slab: range {start}+{len} exceeds last dim {last}"
        );
        let stride = self.last_mode_stride();
        &self.data[start * stride..(start + len) * stride]
    }

    /// Mutable borrow of the contiguous slab covering last-mode indices
    /// `[start, start + len)` — the write-side counterpart of
    /// [`DenseTensor::last_mode_slab`], used by the pass-2 streaming driver to
    /// assemble the truncated tensor slab by slab in place.
    ///
    /// # Panics
    /// Panics if `start + len` exceeds the last dimension.
    pub fn last_mode_slab_mut(&mut self, start: usize, len: usize) -> &mut [f64] {
        let last = *self.dims.last().expect("tensor has at least one mode");
        assert!(
            start + len <= last,
            "last_mode_slab_mut: range {start}+{len} exceeds last dim {last}"
        );
        let stride = self.last_mode_stride();
        &mut self.data[start * stride..(start + len) * stride]
    }

    /// Checked variant of [`DenseTensor::last_mode_slab`]: returns a typed
    /// error instead of panicking on an empty or out-of-range request
    /// (overflow-safe).
    pub fn try_last_mode_slab(&self, start: usize, len: usize) -> Result<&[f64], SlabRangeError> {
        self.check_slab_range(start, len)?;
        Ok(self.last_mode_slab(start, len))
    }

    fn check_slab_range(&self, start: usize, len: usize) -> Result<(), SlabRangeError> {
        let last = *self.dims.last().expect("tensor has at least one mode");
        let in_range = len > 0 && start.checked_add(len).is_some_and(|end| end <= last);
        if in_range {
            Ok(())
        } else {
            Err(SlabRangeError {
                start,
                len,
                last_dim: last,
            })
        }
    }

    /// Converts a multi-index to the linear offset in the backing buffer.
    #[inline]
    pub fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.dims.len());
        let mut off = 0usize;
        let mut stride = 1usize;
        for (k, &i) in index.iter().enumerate() {
            debug_assert!(i < self.dims[k], "index out of bounds in mode {k}");
            off += i * stride;
            stride *= self.dims[k];
        }
        off
    }

    /// Converts a linear offset back to a multi-index.
    fn multi_index(&self, mut off: usize) -> Vec<usize> {
        let mut idx = vec![0usize; self.dims.len()];
        for (k, d) in self.dims.iter().enumerate() {
            idx[k] = off % d;
            off /= d;
        }
        idx
    }

    /// Element accessor by multi-index.
    #[inline]
    pub fn get(&self, index: &[usize]) -> f64 {
        self.data[self.offset(index)]
    }

    /// Element mutator by multi-index.
    #[inline]
    pub fn set(&mut self, index: &[usize], value: f64) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// The Frobenius-style tensor norm `‖X‖` (square root of the sum of squares).
    pub fn norm(&self) -> f64 {
        tucker_linalg::blas1::nrm2(&self.data)
    }

    /// Squared norm `‖X‖²`.
    pub fn norm_sq(&self) -> f64 {
        tucker_linalg::blas1::sumsq(&self.data)
    }

    /// Elementwise difference `self - other` as a new tensor.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn sub(&self, other: &DenseTensor) -> DenseTensor {
        assert_eq!(self.dims, other.dims, "sub: dimension mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        DenseTensor {
            dims: self.dims.clone(),
            data,
        }
    }

    /// Elementwise sum `self + other` as a new tensor.
    pub fn add(&self, other: &DenseTensor) -> DenseTensor {
        assert_eq!(self.dims, other.dims, "add: dimension mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        DenseTensor {
            dims: self.dims.clone(),
            data,
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, a: f64) {
        tucker_linalg::blas1::scal(a, &mut self.data);
    }

    /// Returns an iterator over `(multi_index, value)` pairs in storage order.
    pub fn indexed_iter(&self) -> impl Iterator<Item = (Vec<usize>, f64)> + '_ {
        self.data
            .iter()
            .enumerate()
            .map(|(off, &v)| (self.multi_index(off), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let t = DenseTensor::zeros(&[2, 3, 4]);
        assert_eq!(t.ndims(), 3);
        assert_eq!(t.len(), 24);
        assert_eq!(t.dims(), &[2, 3, 4]);
        assert_eq!(t.codim(0), 12);
        assert_eq!(t.codim(2), 6);
    }

    #[test]
    #[should_panic]
    fn empty_dims_panics() {
        DenseTensor::zeros(&[]);
    }

    #[test]
    fn last_mode_slabs_are_contiguous_timesteps() {
        let t = DenseTensor::from_fn(&[3, 2, 4], |idx| idx[2] as f64);
        assert_eq!(t.last_mode_stride(), 6);
        // Slab t holds exactly the elements with last-mode index t.
        for step in 0..4 {
            let slab = t.last_mode_slab(step, 1);
            assert_eq!(slab.len(), 6);
            assert!(slab.iter().all(|&v| v == step as f64));
        }
        // A multi-step slab is the concatenation of its steps.
        let slab = t.last_mode_slab(1, 2);
        assert_eq!(slab.len(), 12);
        assert_eq!(slab, &t.as_slice()[6..18]);
    }

    #[test]
    #[should_panic]
    fn last_mode_slab_out_of_range_panics() {
        DenseTensor::zeros(&[2, 3]).last_mode_slab(2, 2);
    }

    #[test]
    fn last_mode_slab_mut_writes_in_place() {
        let mut t = DenseTensor::zeros(&[2, 3, 4]);
        t.last_mode_slab_mut(1, 2).fill(7.0);
        for step in 0..4 {
            let expect = if (1..3).contains(&step) { 7.0 } else { 0.0 };
            assert!(t.last_mode_slab(step, 1).iter().all(|&v| v == expect));
        }
    }

    #[test]
    fn try_last_mode_slab_rejects_degenerate_ranges() {
        let t = DenseTensor::from_fn(&[2, 3], |idx| idx[1] as f64);
        // A valid request round-trips through the checked accessor.
        assert_eq!(t.try_last_mode_slab(1, 2).unwrap(), &[1.0, 1.0, 2.0, 2.0]);
        // Empty, out-of-range, and overflowing requests all fail typed.
        let empty = t.try_last_mode_slab(1, 0).unwrap_err();
        assert_eq!(empty.len, 0);
        let over = t.try_last_mode_slab(2, 2).unwrap_err();
        assert_eq!((over.start, over.len, over.last_dim), (2, 2, 3));
        assert!(t.try_last_mode_slab(usize::MAX, 2).is_err());
        assert!(t.try_last_mode_slab(3, 1).is_err());
        // The error formats without panicking.
        assert!(format!("{over}").contains("exceeds"));
    }

    #[test]
    fn offset_is_first_mode_fastest() {
        let t = DenseTensor::zeros(&[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[1, 0, 0]), 1);
        assert_eq!(t.offset(&[0, 1, 0]), 2);
        assert_eq!(t.offset(&[0, 0, 1]), 6);
        assert_eq!(t.offset(&[1, 2, 3]), 1 + 2 * 2 + 3 * 6);
    }

    #[test]
    fn multi_index_round_trip() {
        let t = DenseTensor::zeros(&[3, 4, 5, 2]);
        for off in 0..t.len() {
            let idx = t.multi_index(off);
            assert_eq!(t.offset(&idx), off);
        }
    }

    #[test]
    fn get_set() {
        let mut t = DenseTensor::zeros(&[2, 2]);
        t.set(&[1, 0], 3.5);
        assert_eq!(t.get(&[1, 0]), 3.5);
        assert_eq!(t.get(&[0, 1]), 0.0);
    }

    #[test]
    fn from_fn_orders_by_storage() {
        let t = DenseTensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        // storage order: (0,0),(1,0),(0,1),(1,1),(0,2),(1,2)
        assert_eq!(t.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    #[test]
    fn from_vec_length_check() {
        let t = DenseTensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(&[1, 1]), 4.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_wrong_length_panics() {
        DenseTensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn norm_matches_manual() {
        let t = DenseTensor::from_vec(&[2, 2], vec![1.0, 2.0, 2.0, 4.0]);
        assert!((t.norm() - 25.0f64.sqrt()).abs() < 1e-14);
        assert!((t.norm_sq() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn add_sub_scale() {
        let a = DenseTensor::from_vec(&[2], vec![1.0, 2.0]);
        let b = DenseTensor::from_vec(&[2], vec![3.0, 5.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        let mut c = a.clone();
        c.scale(3.0);
        assert_eq!(c.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn indexed_iter_visits_all() {
        let t = DenseTensor::from_fn(&[2, 2], |idx| (idx[0] + 2 * idx[1]) as f64);
        let collected: Vec<(Vec<usize>, f64)> = t.indexed_iter().collect();
        assert_eq!(collected.len(), 4);
        for (idx, v) in collected {
            assert_eq!(t.get(&idx), v);
        }
    }

    #[test]
    fn single_mode_tensor() {
        let t = DenseTensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.ndims(), 1);
        assert_eq!(t.get(&[2]), 3.0);
        assert_eq!(t.codim(0), 1);
    }
}
