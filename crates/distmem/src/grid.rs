//! The logical N-way processor grid of Sec. IV of the paper.
//!
//! A grid `P_1 × P_2 × … × P_N` assigns every rank `p ∈ [0, P)` a coordinate
//! vector `(p_1, …, p_N)`. The Tucker kernels need two families of rank
//! subsets per mode `n`:
//!
//! * the **processor column** of a rank (paper notation
//!   `(p_1, …, p_{n-1}, ∗, p_{n+1}, …, p_N)`): the `P_n` ranks that differ only
//!   in coordinate `n`. The parallel TTM reduces over these, and the parallel
//!   Gram shifts data around them.
//! * the **processor row** (all ranks sharing coordinate `n`): the `P̂_n = P/P_n`
//!   ranks across which the Gram result is all-reduced.

/// An N-way Cartesian processor grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcGrid {
    shape: Vec<usize>,
}

impl ProcGrid {
    /// Creates a grid with the given per-mode sizes.
    ///
    /// # Panics
    /// Panics if the shape is empty or any entry is zero.
    pub fn new(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "ProcGrid: shape must be non-empty");
        assert!(
            shape.iter().all(|&p| p > 0),
            "ProcGrid: every grid dimension must be positive"
        );
        ProcGrid {
            shape: shape.to_vec(),
        }
    }

    /// Number of grid modes (equals the tensor order it is used with).
    #[inline]
    pub fn ndims(&self) -> usize {
        self.shape.len()
    }

    /// Grid extent in mode `n` (`P_n`).
    #[inline]
    pub fn dim(&self, n: usize) -> usize {
        self.shape[n]
    }

    /// The full shape `P_1, …, P_N`.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of ranks `P = ∏ P_n`.
    #[inline]
    pub fn size(&self) -> usize {
        self.shape.iter().product()
    }

    /// Converts a rank to its grid coordinates (first mode fastest, matching the
    /// tensor storage order so that block distributions are contiguous in rank).
    pub fn coords(&self, rank: usize) -> Vec<usize> {
        assert!(rank < self.size(), "ProcGrid: rank {rank} out of range");
        let mut c = vec![0usize; self.ndims()];
        let mut r = rank;
        for (k, &p) in self.shape.iter().enumerate() {
            c[k] = r % p;
            r /= p;
        }
        c
    }

    /// Converts grid coordinates back to a rank.
    pub fn rank(&self, coords: &[usize]) -> usize {
        assert_eq!(
            coords.len(),
            self.ndims(),
            "ProcGrid: coordinate arity mismatch"
        );
        let mut rank = 0usize;
        let mut stride = 1usize;
        for (k, (&c, &p)) in coords.iter().zip(self.shape.iter()).enumerate() {
            assert!(c < p, "ProcGrid: coordinate {c} out of range in mode {k}");
            rank += c * stride;
            stride *= p;
        }
        rank
    }

    /// The ranks of the processor **column** of `rank` in mode `n`: all ranks
    /// whose coordinates agree with `rank` everywhere except mode `n`, ordered
    /// by their mode-`n` coordinate.
    pub fn mode_column(&self, rank: usize, n: usize) -> Vec<usize> {
        let mut coords = self.coords(rank);
        (0..self.shape[n])
            .map(|i| {
                coords[n] = i;
                self.rank(&coords)
            })
            .collect()
    }

    /// The ranks of the processor **row** of `rank` in mode `n`: all ranks that
    /// share `rank`'s mode-`n` coordinate (there are `P̂_n` of them), in
    /// lexicographic order of the remaining coordinates.
    pub fn mode_row(&self, rank: usize, n: usize) -> Vec<usize> {
        let pin = self.coords(rank)[n];
        (0..self.size())
            .filter(|&r| self.coords(r)[n] == pin)
            .collect()
    }

    /// Splits a global extent `len` into `parts` near-equal contiguous pieces and
    /// returns the `(offset, size)` of piece `idx`. Earlier pieces get the
    /// remainder, so sizes differ by at most one — this is how tensor modes are
    /// block-distributed when `P_n` does not evenly divide `I_n` (the paper's
    /// implementation "does not require" even divisibility, Sec. IV).
    pub fn block_range(len: usize, parts: usize, idx: usize) -> (usize, usize) {
        assert!(parts > 0 && idx < parts);
        let base = len / parts;
        let rem = len % parts;
        let size = base + usize::from(idx < rem);
        let offset = idx * base + idx.min(rem);
        (offset, size)
    }

    /// The local block `(offset, size)` of a tensor mode of global size `len`
    /// owned by `rank` in mode `n`.
    pub fn local_range(&self, rank: usize, n: usize, len: usize) -> (usize, usize) {
        Self::block_range(len, self.shape[n], self.coords(rank)[n])
    }

    /// The local dimensions of a block-distributed tensor with global dims `dims`.
    pub fn local_dims(&self, rank: usize, dims: &[usize]) -> Vec<usize> {
        assert_eq!(dims.len(), self.ndims(), "local_dims: arity mismatch");
        dims.iter()
            .enumerate()
            .map(|(n, &d)| self.local_range(rank, n, d).1)
            .collect()
    }

    /// Enumerates all factorizations of `p` into `ndims` positive factors —
    /// the candidate processor grids examined in the paper's Fig. 8a sweep.
    pub fn enumerate_grids(p: usize, ndims: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut current = vec![1usize; ndims];
        fn rec(p: usize, pos: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if pos + 1 == current.len() {
                current[pos] = p;
                out.push(current.clone());
                return;
            }
            let mut d = 1;
            while d <= p {
                if p.is_multiple_of(d) {
                    current[pos] = d;
                    rec(p / d, pos + 1, current, out);
                }
                d += 1;
            }
        }
        rec(p, 0, &mut current, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_cosize() {
        let g = ProcGrid::new(&[4, 3, 2]);
        assert_eq!(g.size(), 24);
    }

    #[test]
    fn coords_rank_round_trip() {
        let g = ProcGrid::new(&[3, 2, 4]);
        for r in 0..g.size() {
            assert_eq!(g.rank(&g.coords(r)), r);
        }
    }

    #[test]
    fn first_coordinate_varies_fastest() {
        let g = ProcGrid::new(&[3, 2]);
        assert_eq!(g.coords(0), vec![0, 0]);
        assert_eq!(g.coords(1), vec![1, 0]);
        assert_eq!(g.coords(3), vec![0, 1]);
    }

    #[test]
    fn mode_column_has_pn_members_and_contains_self() {
        let g = ProcGrid::new(&[4, 3, 2]);
        for r in 0..g.size() {
            for n in 0..3 {
                let col = g.mode_column(r, n);
                assert_eq!(col.len(), g.dim(n));
                assert!(col.contains(&r));
                // All members share the other coordinates.
                let base = g.coords(r);
                for &m in &col {
                    let c = g.coords(m);
                    for k in 0..3 {
                        if k != n {
                            assert_eq!(c[k], base[k]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mode_row_has_cosize_members() {
        let g = ProcGrid::new(&[2, 3, 2]);
        for r in 0..g.size() {
            for n in 0..3 {
                let row = g.mode_row(r, n);
                assert_eq!(row.len(), g.size() / g.dim(n));
                assert!(row.contains(&r));
            }
        }
    }

    #[test]
    fn columns_partition_ranks() {
        let g = ProcGrid::new(&[3, 4]);
        for n in 0..2 {
            let mut seen = vec![false; g.size()];
            for r in 0..g.size() {
                if g.coords(r)[n] == 0 {
                    for &m in &g.mode_column(r, n) {
                        assert!(!seen[m], "rank {m} in two mode-{n} columns");
                        seen[m] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn block_range_even_and_uneven() {
        assert_eq!(ProcGrid::block_range(12, 4, 0), (0, 3));
        assert_eq!(ProcGrid::block_range(12, 4, 3), (9, 3));
        // 10 over 4: sizes 3,3,2,2
        assert_eq!(ProcGrid::block_range(10, 4, 0), (0, 3));
        assert_eq!(ProcGrid::block_range(10, 4, 1), (3, 3));
        assert_eq!(ProcGrid::block_range(10, 4, 2), (6, 2));
        assert_eq!(ProcGrid::block_range(10, 4, 3), (8, 2));
    }

    #[test]
    fn block_ranges_tile_the_extent() {
        for len in [1usize, 7, 16, 100] {
            for parts in [1usize, 2, 3, 5, 8] {
                let mut next = 0;
                for idx in 0..parts {
                    let (off, size) = ProcGrid::block_range(len, parts, idx);
                    assert_eq!(off, next);
                    next += size;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn local_dims_cover_tensor() {
        let g = ProcGrid::new(&[2, 3]);
        let dims = [7usize, 8];
        let mut total = 0usize;
        for r in 0..g.size() {
            let ld = g.local_dims(r, &dims);
            total += ld.iter().product::<usize>();
        }
        assert_eq!(total, 56);
    }

    #[test]
    fn enumerate_grids_products() {
        let grids = ProcGrid::enumerate_grids(12, 3);
        assert!(!grids.is_empty());
        for gshape in &grids {
            assert_eq!(gshape.iter().product::<usize>(), 12);
            assert_eq!(gshape.len(), 3);
        }
        // 12 = 2^2*3 has (number of ordered factorizations into 3 factors) = 18.
        assert_eq!(grids.len(), 18);
    }

    #[test]
    #[should_panic]
    fn zero_dim_grid_panics() {
        ProcGrid::new(&[2, 0]);
    }

    #[test]
    #[should_panic]
    fn rank_out_of_range_panics() {
        ProcGrid::new(&[2, 2]).coords(4);
    }
}
