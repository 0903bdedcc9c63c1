//! Subtensor extraction and insertion.
//!
//! The paper highlights (Sec. II-C, VII) that a key benefit of Tucker
//! compression is reconstructing *subsets* of the data — a single species, a
//! few time steps, a coarser or cropped grid — without forming the full tensor.
//! Partial reconstruction multiplies the core by row-subsets of the factor
//! matrices; the result is a subtensor. This module provides the index-subset
//! machinery shared by that path and by the block distribution of
//! `tucker-core::dist`.

use crate::dense::DenseTensor;

/// A per-mode selection of indices describing a subtensor.
///
/// Mode `n` of the subtensor consists of the (not necessarily contiguous)
/// indices `selection[n]` of the original tensor, in the given order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtensorSpec {
    selection: Vec<Vec<usize>>,
}

impl SubtensorSpec {
    /// Selects every index of every mode (the identity selection).
    pub fn all(dims: &[usize]) -> Self {
        SubtensorSpec {
            selection: dims.iter().map(|&d| (0..d).collect()).collect(),
        }
    }

    /// Builds a spec from explicit index lists, one per mode.
    ///
    /// # Panics
    /// Panics if any index list is empty.
    pub fn from_indices(selection: Vec<Vec<usize>>) -> Self {
        assert!(
            selection.iter().all(|s| !s.is_empty()),
            "SubtensorSpec: every mode needs at least one index"
        );
        SubtensorSpec { selection }
    }

    /// Builds a spec of contiguous ranges, one `(start, len)` pair per mode.
    pub fn from_ranges(ranges: &[(usize, usize)]) -> Self {
        SubtensorSpec {
            selection: ranges
                .iter()
                .map(|&(start, len)| (start..start + len).collect())
                .collect(),
        }
    }

    /// Restricts a single mode to the given indices, keeping all others intact.
    pub fn restrict_mode(mut self, mode: usize, indices: Vec<usize>) -> Self {
        assert!(!indices.is_empty(), "restrict_mode: empty index list");
        self.selection[mode] = indices;
        self
    }

    /// Number of modes covered by this spec.
    pub fn ndims(&self) -> usize {
        self.selection.len()
    }

    /// The selected indices of mode `n`.
    pub fn mode_indices(&self, n: usize) -> &[usize] {
        &self.selection[n]
    }

    /// Dimensions of the resulting subtensor.
    pub fn sub_dims(&self) -> Vec<usize> {
        self.selection.iter().map(|s| s.len()).collect()
    }

    /// Total number of elements in the subtensor.
    pub fn len(&self) -> usize {
        self.selection.iter().map(|s| s.len()).product()
    }

    /// True when the subtensor would be empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates the spec against tensor dimensions.
    pub fn validate(&self, dims: &[usize]) {
        assert_eq!(
            self.selection.len(),
            dims.len(),
            "SubtensorSpec: mode count mismatch"
        );
        for (n, (sel, &d)) in self.selection.iter().zip(dims.iter()).enumerate() {
            for &i in sel {
                assert!(
                    i < d,
                    "SubtensorSpec: index {i} out of range in mode {n} (dim {d})"
                );
            }
        }
    }
}

/// Walks the subtensor `spec` of a tensor with dimensions `dims` one mode-0
/// fiber at a time, in storage order: calls `f(at, base)` where `at` is the
/// fiber's offset in the subtensor and `base` the offset in the tensor of
/// its element with mode-0 index 0, so the fiber's `i`-th element sits at
/// `base + spec.mode_indices(0)[i]`.
fn for_each_fiber(dims: &[usize], spec: &SubtensorSpec, mut f: impl FnMut(usize, usize)) {
    if spec.is_empty() {
        return;
    }
    let sub_dims = spec.sub_dims();
    let fiber_len = sub_dims[0];
    let mut strides = vec![1usize; dims.len()];
    for k in 1..dims.len() {
        strides[k] = strides[k - 1] * dims[k - 1];
    }
    // Multi-index of the current fiber over modes 1.. (mode 0 stays 0).
    let mut idx = vec![0usize; dims.len()];
    for fiber in 0..spec.len() / fiber_len {
        let base = (1..dims.len())
            .map(|k| spec.mode_indices(k)[idx[k]] * strides[k])
            .sum();
        f(fiber * fiber_len, base);
        for k in 1..dims.len() {
            idx[k] += 1;
            if idx[k] < sub_dims[k] {
                break;
            }
            idx[k] = 0;
        }
    }
}

/// Extracts the subtensor described by `spec` from `x` as a new dense tensor.
///
/// Each mode-0 fiber of the result is one gather over mode 0's index list.
pub fn extract_subtensor(x: &DenseTensor, spec: &SubtensorSpec) -> DenseTensor {
    spec.validate(x.dims());
    let mut out = DenseTensor::zeros(&spec.sub_dims());
    let rows = spec.mode_indices(0);
    let src = x.as_slice();
    let dst = out.as_mut_slice();
    for_each_fiber(x.dims(), spec, |at, base| {
        for (d, &i) in dst[at..at + rows.len()].iter_mut().zip(rows) {
            *d = src[base + i];
        }
    });
    out
}

/// Writes the subtensor `sub` into `x` at the positions described by `spec`
/// (the inverse of [`extract_subtensor`]): one scatter per mode-0 fiber.
pub fn insert_subtensor(x: &mut DenseTensor, spec: &SubtensorSpec, sub: &DenseTensor) {
    spec.validate(x.dims());
    assert_eq!(
        spec.sub_dims(),
        sub.dims(),
        "insert_subtensor: subtensor shape does not match spec"
    );
    let dims = x.dims().to_vec();
    let rows = spec.mode_indices(0);
    let src = sub.as_slice();
    let dst = x.as_mut_slice();
    for_each_fiber(&dims, spec, |at, base| {
        for (s, &i) in src[at..at + rows.len()].iter().zip(rows) {
            dst[base + i] = *s;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(dims: &[usize]) -> DenseTensor {
        let mut count = 0.0;
        DenseTensor::from_fn(dims, |_| {
            count += 1.0;
            count
        })
    }

    #[test]
    fn all_spec_is_identity() {
        let x = numbered(&[3, 4, 2]);
        let spec = SubtensorSpec::all(x.dims());
        let sub = extract_subtensor(&x, &spec);
        assert_eq!(sub, x);
    }

    #[test]
    fn range_extraction() {
        let x = numbered(&[4, 4]);
        let spec = SubtensorSpec::from_ranges(&[(1, 2), (2, 2)]);
        let sub = extract_subtensor(&x, &spec);
        assert_eq!(sub.dims(), &[2, 2]);
        assert_eq!(sub.get(&[0, 0]), x.get(&[1, 2]));
        assert_eq!(sub.get(&[1, 1]), x.get(&[2, 3]));
    }

    #[test]
    fn scattered_indices() {
        let x = numbered(&[5, 3]);
        let spec = SubtensorSpec::from_indices(vec![vec![4, 0, 2], vec![1]]);
        let sub = extract_subtensor(&x, &spec);
        assert_eq!(sub.dims(), &[3, 1]);
        assert_eq!(sub.get(&[0, 0]), x.get(&[4, 1]));
        assert_eq!(sub.get(&[1, 0]), x.get(&[0, 1]));
        assert_eq!(sub.get(&[2, 0]), x.get(&[2, 1]));
    }

    #[test]
    fn restrict_mode_builder() {
        let x = numbered(&[3, 3, 3]);
        let spec = SubtensorSpec::all(x.dims()).restrict_mode(2, vec![1]);
        let sub = extract_subtensor(&x, &spec);
        assert_eq!(sub.dims(), &[3, 3, 1]);
        assert_eq!(sub.get(&[2, 2, 0]), x.get(&[2, 2, 1]));
    }

    #[test]
    fn insert_round_trip() {
        let mut x = DenseTensor::zeros(&[4, 4]);
        let spec = SubtensorSpec::from_ranges(&[(1, 2), (0, 3)]);
        let sub = numbered(&[2, 3]);
        insert_subtensor(&mut x, &spec, &sub);
        let back = extract_subtensor(&x, &spec);
        assert_eq!(back, sub);
        // Untouched entries stay zero.
        assert_eq!(x.get(&[0, 0]), 0.0);
        assert_eq!(x.get(&[3, 3]), 0.0);
    }

    #[test]
    fn spec_len_and_dims() {
        let spec = SubtensorSpec::from_indices(vec![vec![0, 2], vec![1, 2, 3]]);
        assert_eq!(spec.sub_dims(), vec![2, 3]);
        assert_eq!(spec.len(), 6);
        assert_eq!(spec.ndims(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_index_panics() {
        let x = numbered(&[2, 2]);
        let spec = SubtensorSpec::from_indices(vec![vec![0], vec![5]]);
        extract_subtensor(&x, &spec);
    }

    #[test]
    #[should_panic]
    fn empty_mode_selection_panics() {
        SubtensorSpec::from_indices(vec![vec![0], vec![]]);
    }
}
