//! Tensor-times-matrix (TTM) products — the central kernel of the Tucker
//! decomposition (paper Sec. II-A, V-B).
//!
//! `Y = X ×_n V` multiplies the mode-n unfolding: `Y(n) = V · X(n)`, where `V`
//! is `K × I_n`. With the natural layout of [`crate::layout`], each of the
//! `right` contiguous subblocks of `X` is a column-major `left × I_n` matrix,
//! so the per-block computation is a single GEMM and the result blocks land in
//! the output tensor's natural layout directly — no transposition, no copies.
//!
//! Chains of products ([`multi_ttm_ctx`]) run mode by mode, except for an
//! *expanding tail*: when the chain ends in modes `m, m+1, …, N−1`, each
//! growing its mode (a reconstruction), those products run tile by tile
//! over `w`-wide ranges of the leading `∏_{n<m} I_n` index, inside
//! cache-sized buffers, and each finished tile is written into the output
//! once. The trailing intermediates are never formed, and the tiles spread
//! over the pool even where the last mode's own product has a single block.

use crate::dense::DenseTensor;
use crate::layout::Unfolding;
use std::ops::Range;
use tucker_exec::{chunk_ranges, ExecContext};
use tucker_linalg::blocking::detected_caches;
use tucker_linalg::gemm::{gemm_slices, gemm_slices_ctx, Transpose};
use tucker_linalg::Matrix;
use tucker_obs::metrics::Counter;

/// Kernel accounting: one call per [`ttm_into_ctx`] invocation; flops are
/// the mode-product multiply-adds `2 · |X| · K` regardless of which
/// (fused/unfused, pooled/sequential) path executes them.
static TTM_CALLS: Counter = Counter::new("tensor.ttm.calls");
static TTM_FLOPS: Counter = Counter::new("tensor.ttm.flops");

/// `left` widths below this use the fused batch path: the `left == 1` trick
/// generalized, gluing runs of tiny per-block GEMMs into one wide GEMM.
const FUSE_MAX_LEFT: usize = 32;

/// Target column count of a fused GEMM (the batch size is
/// `FUSE_TARGET_COLS / left`, at least 2 blocks).
const FUSE_TARGET_COLS: usize = 256;

/// Narrowest tile of an expanding tail: a tile is a run of this many
/// contiguous output elements in every output column, and narrower runs
/// make the copy-out and the in-tile GEMMs too thin to beat the chain.
const TAIL_MIN_TILE: usize = 32;

/// Whether the multiplying matrix is applied as stored or transposed.
///
/// ST-HOSVD and HOOI apply factor matrices transposed (`X ×_n U(n)ᵀ` with
/// `U(n)` of size `I_n × R_n`), while reconstruction applies them as stored
/// (`G ×_n U(n)`). Accepting the flag avoids materializing transposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtmTranspose {
    /// Multiply by `V` itself: `V` must be `K × I_n`.
    NoTranspose,
    /// Multiply by `Vᵀ`: `V` must be `I_n × K`.
    Transpose,
}

/// Computes the mode-n TTM `Y = X ×_n op(V)`.
///
/// * `op(V) = V` (shape `K × I_n`) when `trans == NoTranspose`;
/// * `op(V) = Vᵀ` (so `V` has shape `I_n × K`) when `trans == Transpose`.
///
/// The result has the same dimensions as `X` except mode `n` becomes `K`.
///
/// # Panics
/// The kernel runs on `ctx` (hybrid runs hand each simulated rank a
/// budget-limited context; everything else uses the global one).
///
/// # Panics
/// Panics if the matrix dimensions are incompatible with mode `n` of `X`.
pub fn ttm_ctx(
    ctx: &ExecContext,
    x: &DenseTensor,
    v: &Matrix,
    mode: usize,
    trans: TtmTranspose,
) -> DenseTensor {
    ttm_slice_ctx(ctx, x.dims(), x.as_slice(), v, mode, trans)
}

/// [`ttm_ctx`] on a borrowed input: `data` is a tensor of shape `dims` in
/// natural layout that the caller does not own as a [`DenseTensor`] (a
/// decoded `.tkr` chunk shared through a cache, say), multiplied in place —
/// no copy into a tensor first. Same kernel, same bits.
///
/// # Panics
/// Panics if `data.len() != ∏ dims` or the matrix dimensions are
/// incompatible with mode `mode`.
pub fn ttm_slice_ctx(
    ctx: &ExecContext,
    dims: &[usize],
    data: &[f64],
    v: &Matrix,
    mode: usize,
    trans: TtmTranspose,
) -> DenseTensor {
    assert!(mode < dims.len(), "ttm: mode {mode} out of range");
    assert_eq!(
        data.len(),
        dims.iter().product::<usize>(),
        "ttm: data length does not match dims {dims:?}"
    );
    let in_dim = dims[mode];
    let (k, vin) = match trans {
        TtmTranspose::NoTranspose => (v.rows(), v.cols()),
        TtmTranspose::Transpose => (v.cols(), v.rows()),
    };
    assert_eq!(
        vin, in_dim,
        "ttm: matrix inner dimension {vin} does not match tensor mode {mode} size {in_dim}"
    );

    let mut out_dims = dims.to_vec();
    out_dims[mode] = k;
    let mut y = DenseTensor::zeros(&out_dims);
    if data.is_empty() || k == 0 {
        return y;
    }

    ttm_kernel(ctx, dims, data, v, mode, trans, &mut y);
    y
}

/// In-place variant of [`ttm_ctx`]: writes the result into a preallocated
/// tensor whose dimensions must already be correct (every element of `y` is
/// overwritten). Used by the distributed kernels and the workspace-reusing
/// HOOI loop to avoid repeated allocation.
///
/// Parallelism: the first mode is one large GEMM scattered over row panels;
/// every other mode scatters contiguous ranges of the `right` block loop,
/// each range writing its own disjoint slice of `y`. Narrow blocks
/// (`left < FUSE_MAX_LEFT`) are additionally **fused**: runs of tiny
/// per-block GEMMs are packed into one GEMM of ~`FUSE_TARGET_COLS` columns
/// (the `left == 1` trick generalized). Neither choice changes the
/// per-element accumulation order, so results are bit-identical across
/// thread counts and across the fused/unfused boundary.
pub fn ttm_into_ctx(
    ctx: &ExecContext,
    x: &DenseTensor,
    v: &Matrix,
    mode: usize,
    trans: TtmTranspose,
    y: &mut DenseTensor,
) {
    ttm_kernel(ctx, x.dims(), x.as_slice(), v, mode, trans, y)
}

/// The TTM kernel on a raw input buffer of shape `dims` — shared by the
/// tensor-typed and slice-typed entries.
fn ttm_kernel(
    ctx: &ExecContext,
    dims: &[usize],
    xdata: &[f64],
    v: &Matrix,
    mode: usize,
    trans: TtmTranspose,
    y: &mut DenseTensor,
) {
    let in_dim = dims[mode];
    let (k, vin) = match trans {
        TtmTranspose::NoTranspose => (v.rows(), v.cols()),
        TtmTranspose::Transpose => (v.cols(), v.rows()),
    };
    assert_eq!(vin, in_dim, "ttm_into: inner dimension mismatch");
    assert_eq!(y.dim(mode), k, "ttm_into: output mode dimension mismatch");
    for (m, (&a, &b)) in dims.iter().zip(y.dims().iter()).enumerate() {
        if m != mode {
            assert_eq!(a, b, "ttm_into: output dimension mismatch in mode {m}");
        }
    }

    let _span = tucker_obs::span!("ttm", mode = mode, k_out = k);
    TTM_CALLS.inc();
    TTM_FLOPS.add(2 * (xdata.len() as u64) * (k as u64));

    let unf = Unfolding::new(dims, mode);
    let left = unf.left;
    let right = unf.right;
    let ydata = y.as_mut_slice();
    let in_block = left * in_dim;
    let out_block = left * k;

    // The per-block computation, in row-major terms:
    //   out_blockᵀ (k × left, row-major) = op(V) · in_blockᵀ (in_dim × left, row-major)
    // where in_blockᵀ is exactly the raw block memory reinterpreted row-major
    // with leading dimension `left`, and likewise for the output block.
    let (ta, a_rows, a_cols) = match trans {
        TtmTranspose::NoTranspose => (Transpose::No, v.rows(), v.cols()),
        TtmTranspose::Transpose => (Transpose::Yes, v.rows(), v.cols()),
    };
    let lda = v.cols();

    if left == 1 {
        // First mode: the whole buffer is the column-major unfolding, so the
        // product is a single large GEMM instead of `right` column-sized ones:
        //   Y(1)ᵀ (Î₁ × K, row-major) = X(1)ᵀ (Î₁ × I₁, row-major) · op(V)ᵀ.
        let cols = right;
        gemm_slices_ctx(
            ctx,
            Transpose::No,
            match ta {
                Transpose::No => Transpose::Yes,
                Transpose::Yes => Transpose::No,
            },
            1.0,
            xdata,
            cols,
            in_dim,
            in_dim,
            v.as_slice(),
            a_rows,
            a_cols,
            lda,
            0.0,
            ydata,
            k,
        );
        return;
    }

    let blocks = BlockMul {
        v: v.as_slice(),
        ta,
        a_rows,
        a_cols,
        lda,
        in_dim,
        k,
        left,
        in_block,
        out_block,
    };
    let work = right
        .saturating_mul(k)
        .saturating_mul(in_dim)
        .saturating_mul(left);
    let parts = ctx.partition_for_work(right, work);
    if parts <= 1 {
        blocks.run(xdata, ydata, 0..right);
        return;
    }
    // Each range of `right` blocks is a "row panel" of width `out_block`.
    ctx.for_each_row_panel(ydata, out_block, chunk_ranges(right, parts), |ts, chunk| {
        blocks.run(xdata, chunk, ts)
    });
}

/// The mode-`n` (n > 0) block multiply over a range of `right` blocks —
/// the scatter unit of [`ttm_into_ctx`].
struct BlockMul<'a> {
    v: &'a [f64],
    ta: Transpose,
    a_rows: usize,
    a_cols: usize,
    lda: usize,
    in_dim: usize,
    k: usize,
    left: usize,
    in_block: usize,
    out_block: usize,
}

impl<'a> BlockMul<'a> {
    /// The mode product `op(v)` on blocks of `left × in_dim` input values.
    fn new(v: &'a Matrix, trans: TtmTranspose, in_dim: usize, k: usize, left: usize) -> Self {
        let ta = match trans {
            TtmTranspose::NoTranspose => Transpose::No,
            TtmTranspose::Transpose => Transpose::Yes,
        };
        BlockMul {
            v: v.as_slice(),
            ta,
            a_rows: v.rows(),
            a_cols: v.cols(),
            lda: v.cols(),
            in_dim,
            k,
            left,
            in_block: left * in_dim,
            out_block: left * k,
        }
    }

    /// Multiplies blocks `ts` of `xdata` into `ychunk` (whose first element
    /// corresponds to block `ts.start`).
    fn run(&self, xdata: &[f64], ychunk: &mut [f64], ts: Range<usize>) {
        let fuse = self.left < FUSE_MAX_LEFT && ts.len() > 1 && self.k > 0;
        if fuse {
            self.run_fused(xdata, ychunk, ts);
        } else {
            for t in ts.clone() {
                let xin = &xdata[t * self.in_block..(t + 1) * self.in_block];
                let yout = &mut ychunk
                    [(t - ts.start) * self.out_block..(t + 1 - ts.start) * self.out_block];
                self.gemm_one(xin, self.left, yout, self.left);
            }
        }
    }

    /// One `op(V) · blockᵀ` GEMM with explicit leading dimensions.
    fn gemm_one(&self, b: &[f64], ldb: usize, c: &mut [f64], ldc: usize) {
        gemm_slices(
            self.ta,
            Transpose::No,
            1.0,
            self.v,
            self.a_rows,
            self.a_cols,
            self.lda,
            b,
            self.in_dim,
            ldb,
            ldb,
            0.0,
            c,
            ldc,
        );
    }

    /// Fused path for narrow blocks: pack `gc` consecutive blocks side by
    /// side into an `in_dim × (gc·left)` panel, multiply once, and scatter
    /// the `k × (gc·left)` product back into the per-block output layout.
    /// Per element this performs the identical sum (same contraction
    /// blocking) as `gc` separate block GEMMs.
    fn run_fused(&self, xdata: &[f64], ychunk: &mut [f64], ts: Range<usize>) {
        let g_max = (FUSE_TARGET_COLS / self.left).max(2);
        let w_max = g_max * self.left;
        let mut pack = vec![0.0f64; self.in_dim * w_max];
        let mut prod = vec![0.0f64; self.k * w_max];
        let mut t0 = ts.start;
        while t0 < ts.end {
            let gc = g_max.min(ts.end - t0);
            let w = gc * self.left;
            for g in 0..gc {
                let xin = &xdata[(t0 + g) * self.in_block..(t0 + g + 1) * self.in_block];
                for i in 0..self.in_dim {
                    pack[i * w + g * self.left..i * w + (g + 1) * self.left]
                        .copy_from_slice(&xin[i * self.left..(i + 1) * self.left]);
                }
            }
            self.gemm_one(&pack[..self.in_dim * w], w, &mut prod[..self.k * w], w);
            for g in 0..gc {
                let yout = &mut ychunk[(t0 + g - ts.start) * self.out_block
                    ..(t0 + g + 1 - ts.start) * self.out_block];
                for kk in 0..self.k {
                    yout[kk * self.left..(kk + 1) * self.left].copy_from_slice(
                        &prod[kk * w + g * self.left..kk * w + (g + 1) * self.left],
                    );
                }
            }
            t0 += gc;
        }
    }
}

/// Applies a TTM in every mode listed in `matrices`, skipping `None` entries:
/// `Y = X ×_{n ∈ modes} op(V_n)`.
///
/// The multiplications are applied in the order given by `order` (a permutation
/// of the non-`None` modes); since TTMs in distinct modes commute (Sec. II-A),
/// the order only affects intermediate sizes, not the result. `x` is read in
/// place until the first product; only intermediate results are owned.
///
/// When the chain ends in an expanding tail (module docs), the products
/// before it run mode by mode and the tail runs over tiles of the leading
/// index scattered over `ctx`: its intermediates live in per-part buffers
/// of about half an L2 cache, so the peak is the output, the last
/// intermediate before the tail and `parts ×` two tile buffers. The tail
/// length and tile width come from the shapes and the detected cache
/// sizes only. Every output element keeps the chain's recurrence — one
/// running sum per product, seeded `+0.0`, ascending, unfused — so the
/// result is bit-identical to applying the products one by one.
pub fn multi_ttm_ctx(
    ctx: &ExecContext,
    x: &DenseTensor,
    matrices: &[Option<&Matrix>],
    trans: TtmTranspose,
    order: &[usize],
) -> DenseTensor {
    assert_eq!(
        matrices.len(),
        x.ndims(),
        "multi_ttm: need one (optional) matrix per mode"
    );
    let applied: Vec<(usize, &Matrix)> = order
        .iter()
        .filter_map(|&n| matrices[n].map(|v| (n, v)))
        .collect();
    let out_dim = |n: usize| match (matrices[n], trans) {
        (None, _) => x.dim(n),
        (Some(v), TtmTranspose::NoTranspose) => v.rows(),
        (Some(v), TtmTranspose::Transpose) => v.cols(),
    };
    let out_dims: Vec<usize> = (0..x.ndims()).map(out_dim).collect();
    let modes: Vec<usize> = applied.iter().map(|&(n, _)| n).collect();
    let tail = plan_tail(x.dims(), &out_dims, &modes);
    let (prefix, tail_mats) = applied.split_at(applied.len() - tail.map_or(0, |t| t.k));

    let mut current: Option<DenseTensor> = None;
    for &(n, v) in prefix {
        current = Some(ttm_ctx(ctx, current.as_ref().unwrap_or(x), v, n, trans));
    }
    match tail {
        Some(plan) => {
            let p = current.as_ref().unwrap_or(x);
            ExpandingTail::new(p, &out_dims, tail_mats, trans, plan.w).run(ctx)
        }
        None => current.unwrap_or_else(|| x.clone()),
    }
}

/// How a chain's expanding tail is fused: its last `k` products run over
/// tiles `w` wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TailPlan {
    k: usize,
    w: usize,
}

/// Plans the expanding tail of a chain that maps `dims` to `out_dims` by
/// applying `modes` in order, or `None` to run every product on its own.
///
/// The candidates are the suffixes of `modes` that read `m, m+1, …, N−1`
/// with `m ≥ 1` and every product growing its mode. The longest one wins
/// whose two tile buffers of `w` columns (each column holding the tail's
/// final `∏_{n≥m} out_dims[n]` values, the largest stage since every
/// product grows) fit in half of L2 with `w ≥ TAIL_MIN_TILE`, and whose
/// leading extent `∏_{n<m} out_dims[n]` holds at least two tiles.
fn plan_tail(dims: &[usize], out_dims: &[usize], modes: &[usize]) -> Option<TailPlan> {
    let nd = dims.len();
    let longest = modes
        .iter()
        .rev()
        .zip((1..nd).rev())
        .take_while(|&(&n, expected)| n == expected && 0 < dims[n] && dims[n] < out_dims[n])
        .count();
    let (_, l2, _) = detected_caches();
    let budget = l2 / (2 * std::mem::size_of::<f64>());
    (1..=longest).rev().find_map(|k| {
        let m = nd - k;
        let lead: usize = out_dims[..m].iter().product();
        let cols: usize = out_dims[m..].iter().product();
        let w = (budget / (2 * cols)).min(lead / 2) / 8 * 8;
        (w >= TAIL_MIN_TILE).then_some(TailPlan { k, w })
    })
}

/// The fused expanding tail of a chain: the products in modes
/// `m = N − k, …, N−1` applied to the prefix result `p`, tile by tile.
///
/// `p` is read as a `lead × ∏_{n≥m} p_n` column-major matrix (`lead =
/// ∏_{n<m} p_n`, the leading index fastest). A tile is `w` consecutive
/// rows of it: gathered into a buffer shaped `[w, p_m, …, p_{N−1}]`, it is
/// itself a small tensor in natural layout, so each tail product is the
/// mode product on that buffer ([`BlockMul`], the packed GEMM). The last
/// stage, shaped `[w, out_m, …, out_{N−1}]`, is copied into the output as
/// one `w`-long run per output column. Tiles are independent and each
/// output element belongs to one tile, so parts of the tile range run on
/// the pool, each owning the disjoint column ranges of its rows.
struct ExpandingTail<'a> {
    p: &'a [f64],
    p_dims: &'a [usize],
    out_dims: &'a [usize],
    /// The tail products `(mode, matrix)`, modes `m..N−1` in order.
    mats: &'a [(usize, &'a Matrix)],
    trans: TtmTranspose,
    /// First tail mode.
    m: usize,
    /// Leading extent `∏_{n<m}`, shared by `p` and the output.
    lead: usize,
    /// Tile width.
    w: usize,
}

/// One scatter part of the tail: a range of tiles and, per output column,
/// the part of the column those tiles cover.
struct TailPart<'y> {
    tiles: Range<usize>,
    runs: Vec<&'y mut [f64]>,
}

impl<'a> ExpandingTail<'a> {
    fn new(
        p: &'a DenseTensor,
        out_dims: &'a [usize],
        mats: &'a [(usize, &'a Matrix)],
        trans: TtmTranspose,
        w: usize,
    ) -> Self {
        let m = p.ndims() - mats.len();
        ExpandingTail {
            p: p.as_slice(),
            p_dims: p.dims(),
            out_dims,
            lead: out_dims[..m].iter().product(),
            mats,
            trans,
            m,
            w,
        }
    }

    /// Runs the tail into a freshly allocated output.
    fn run(&self, ctx: &ExecContext) -> DenseTensor {
        let (m, w, lead) = (self.m, self.w, self.lead);
        let _span = tucker_obs::span!("ttm.tail", m = m, k = self.mats.len(), w = w);
        // Kernel accounting as if the tail products ran one by one.
        let (mut len, mut work) = (self.p.len(), 0usize);
        for n in m..self.p_dims.len() {
            TTM_CALLS.inc();
            TTM_FLOPS.add(2 * (len as u64) * (self.out_dims[n] as u64));
            len = len / self.p_dims[n] * self.out_dims[n];
            work = work.saturating_add(len.saturating_mul(self.p_dims[n]));
        }

        let mut y = DenseTensor::zeros(self.out_dims);
        let tiles = lead.div_ceil(w);
        let ranges = chunk_ranges(tiles, ctx.partition_for_work(tiles, work));
        let cols: usize = self.out_dims[m..].iter().product();
        let mut parts: Vec<TailPart<'_>> = ranges
            .into_iter()
            .map(|tiles| TailPart {
                tiles,
                runs: Vec::with_capacity(cols),
            })
            .collect();
        for column in y.as_mut_slice().chunks_exact_mut(lead) {
            let mut rest = column;
            for part in &mut parts {
                let rows = (part.tiles.end * w).min(lead) - part.tiles.start * w;
                let (run, tail) = rest.split_at_mut(rows);
                part.runs.push(run);
                rest = tail;
            }
        }
        ctx.for_each_slot(&mut parts, |_, part| self.run_part(part));
        y
    }

    /// Runs one part's tiles in two buffers allocated once for the part.
    fn run_part(&self, part: &mut TailPart<'_>) {
        let (m, w, lead) = (self.m, self.w, self.lead);
        let cols_in: usize = self.p_dims[m..].iter().product();
        let cols_out: usize = self.out_dims[m..].iter().product();
        let mut src = vec![0.0f64; w * cols_out];
        let mut dst = vec![0.0f64; w * cols_out];
        let first_row = part.tiles.start * w;
        for t in part.tiles.clone() {
            let l0 = t * w;
            let wt = w.min(lead - l0);
            for (c, run) in src[..wt * cols_in].chunks_exact_mut(wt).enumerate() {
                run.copy_from_slice(&self.p[c * lead + l0..c * lead + l0 + wt]);
            }
            let mut left = wt;
            for &(n, v) in self.mats {
                let (in_dim, k) = (self.p_dims[n], self.out_dims[n]);
                let right: usize = self.p_dims[n + 1..].iter().product();
                BlockMul::new(v, self.trans, in_dim, k, left).run(
                    &src[..left * in_dim * right],
                    &mut dst[..left * k * right],
                    0..right,
                );
                std::mem::swap(&mut src, &mut dst);
                left *= k;
            }
            let at = l0 - first_row;
            for (run, tile) in part.runs.iter_mut().zip(src.chunks_exact(wt)) {
                run[at..at + wt].copy_from_slice(tile);
            }
        }
    }
}

/// Applies `op(V_n)` for every mode `n` in natural order ([`multi_ttm_ctx`]
/// with every mode present).
pub fn ttm_chain_ctx(
    ctx: &ExecContext,
    x: &DenseTensor,
    matrices: &[&Matrix],
    trans: TtmTranspose,
) -> DenseTensor {
    assert_eq!(
        matrices.len(),
        x.ndims(),
        "ttm_chain: need one matrix per mode"
    );
    let opts: Vec<Option<&Matrix>> = matrices.iter().map(|m| Some(*m)).collect();
    let order: Vec<usize> = (0..x.ndims()).collect();
    multi_ttm_ctx(ctx, x, &opts, trans, &order)
}

/// Reference TTM implemented directly from the definition
/// `Y(i_1,…,k,…,i_N) = Σ_{i_n} op(V)(k, i_n) · X(i_1,…,i_n,…,i_N)`.
/// Used by tests to validate the GEMM-based kernel.
pub fn ttm_reference(x: &DenseTensor, v: &Matrix, mode: usize, trans: TtmTranspose) -> DenseTensor {
    let dims = x.dims();
    let k = match trans {
        TtmTranspose::NoTranspose => v.rows(),
        TtmTranspose::Transpose => v.cols(),
    };
    let read_v = |kk: usize, i: usize| match trans {
        TtmTranspose::NoTranspose => v.get(kk, i),
        TtmTranspose::Transpose => v.get(i, kk),
    };
    let mut out_dims = dims.to_vec();
    out_dims[mode] = k;
    let mut y = DenseTensor::zeros(&out_dims);
    let mut out_idx = vec![0usize; dims.len()];
    for (idx, val) in x.indexed_iter() {
        if val == 0.0 {
            continue;
        }
        out_idx.clone_from_slice(&idx);
        for kk in 0..k {
            out_idx[mode] = kk;
            let cur = y.get(&out_idx);
            y.set(&out_idx, cur + read_v(kk, idx[mode]) * val);
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(rng: &mut StdRng, dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |_| rng.gen_range(-1.0..1.0))
    }

    fn random_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn assert_tensor_close(a: &DenseTensor, b: &DenseTensor, tol: f64) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "tensor mismatch {x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_all_modes() {
        let mut rng = StdRng::seed_from_u64(50);
        let dims = [4usize, 5, 3, 6];
        let x = random_tensor(&mut rng, &dims);
        for (mode, &d) in dims.iter().enumerate() {
            let v = random_matrix(&mut rng, 7, d);
            let fast = ttm_ctx(
                ExecContext::global(),
                &x,
                &v,
                mode,
                TtmTranspose::NoTranspose,
            );
            let slow = ttm_reference(&x, &v, mode, TtmTranspose::NoTranspose);
            assert_tensor_close(&fast, &slow, 1e-11);
            assert_eq!(fast.dim(mode), 7);
        }
    }

    #[test]
    fn transposed_matches_reference() {
        let mut rng = StdRng::seed_from_u64(51);
        let dims = [3usize, 6, 4];
        let x = random_tensor(&mut rng, &dims);
        for (mode, &d) in dims.iter().enumerate() {
            let v = random_matrix(&mut rng, d, 5);
            let fast = ttm_ctx(ExecContext::global(), &x, &v, mode, TtmTranspose::Transpose);
            let slow = ttm_reference(&x, &v, mode, TtmTranspose::Transpose);
            assert_tensor_close(&fast, &slow, 1e-11);
            assert_eq!(fast.dim(mode), 5);
        }
    }

    #[test]
    fn identity_matrix_is_neutral() {
        let mut rng = StdRng::seed_from_u64(52);
        let dims = [4usize, 3, 5];
        let x = random_tensor(&mut rng, &dims);
        for (mode, &d) in dims.iter().enumerate() {
            let i = Matrix::identity(d);
            let y = ttm_ctx(
                ExecContext::global(),
                &x,
                &i,
                mode,
                TtmTranspose::NoTranspose,
            );
            assert_tensor_close(&x, &y, 1e-14);
        }
    }

    #[test]
    fn ttm_unfolding_identity() {
        // Y(n) = V X(n): check via materialized unfoldings.
        let mut rng = StdRng::seed_from_u64(53);
        let dims = [3usize, 4, 5];
        let x = random_tensor(&mut rng, &dims);
        let mode = 1;
        let v = random_matrix(&mut rng, 6, dims[mode]);
        let y = ttm_ctx(
            ExecContext::global(),
            &x,
            &v,
            mode,
            TtmTranspose::NoTranspose,
        );
        let xu = Unfolding::new(&dims, mode).materialize(&x);
        let yu = Unfolding::new(y.dims(), mode).materialize(&y);
        let expected = tucker_linalg::gemm::gemm(Transpose::No, Transpose::No, 1.0, &v, &xu);
        for i in 0..yu.rows() {
            for j in 0..yu.cols() {
                assert!((yu.get(i, j) - expected.get(i, j)).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn modes_commute() {
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(54);
        let dims = [4usize, 5, 6];
        let x = random_tensor(&mut rng, &dims);
        let v0 = random_matrix(&mut rng, 2, 4);
        let v2 = random_matrix(&mut rng, 3, 6);
        let a = ttm_ctx(
            ctx,
            &ttm_ctx(ctx, &x, &v0, 0, TtmTranspose::NoTranspose),
            &v2,
            2,
            TtmTranspose::NoTranspose,
        );
        let b = ttm_ctx(
            ctx,
            &ttm_ctx(ctx, &x, &v2, 2, TtmTranspose::NoTranspose),
            &v0,
            0,
            TtmTranspose::NoTranspose,
        );
        assert_tensor_close(&a, &b, 1e-11);
    }

    #[test]
    fn multi_ttm_respects_order_and_skips_none() {
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(55);
        let dims = [3usize, 4, 5];
        let x = random_tensor(&mut rng, &dims);
        let v0 = random_matrix(&mut rng, 2, 3);
        let v2 = random_matrix(&mut rng, 2, 5);
        let out = multi_ttm_ctx(
            ctx,
            &x,
            &[Some(&v0), None, Some(&v2)],
            TtmTranspose::NoTranspose,
            &[2, 0],
        );
        assert_eq!(out.dims(), &[2, 4, 2]);
        let manual = ttm_ctx(
            ctx,
            &ttm_ctx(ctx, &x, &v2, 2, TtmTranspose::NoTranspose),
            &v0,
            0,
            TtmTranspose::NoTranspose,
        );
        assert_tensor_close(&out, &manual, 1e-12);
    }

    #[test]
    fn ttm_chain_applies_every_mode() {
        let mut rng = StdRng::seed_from_u64(56);
        let dims = [3usize, 4, 2];
        let x = random_tensor(&mut rng, &dims);
        let ms: Vec<Matrix> = dims
            .iter()
            .map(|&d| random_matrix(&mut rng, 2, d))
            .collect();
        let refs: Vec<&Matrix> = ms.iter().collect();
        let y = ttm_chain_ctx(ExecContext::global(), &x, &refs, TtmTranspose::NoTranspose);
        assert_eq!(y.dims(), &[2, 2, 2]);
    }

    #[test]
    fn norm_contraction_with_orthonormal_rows() {
        // Multiplying by a matrix with orthonormal rows cannot increase the norm.
        let ctx = ExecContext::global();
        let mut rng = StdRng::seed_from_u64(57);
        let dims = [6usize, 5, 4];
        let x = random_tensor(&mut rng, &dims);
        // Build a 3x6 matrix with orthonormal rows from a QR factorization.
        let q = tucker_linalg::qr::householder_qr_ctx(ctx, &random_matrix(&mut rng, 6, 3)).q; // 6x3
        let y = ttm_ctx(ctx, &x, &q, 0, TtmTranspose::Transpose); // multiply by qᵀ (3x6)
        assert!(y.norm() <= x.norm() + 1e-12);
    }

    #[test]
    fn fused_narrow_blocks_match_reference_elementwise() {
        // Shapes whose interior modes have small `left` (the fused batch
        // path) and enough `right` blocks to exercise group boundaries,
        // including a final partial group.
        let mut rng = StdRng::seed_from_u64(59);
        for dims in [vec![2usize, 5, 97], vec![3, 4, 5, 13], vec![7, 3, 41]] {
            let x = random_tensor(&mut rng, &dims);
            for (mode, &d) in dims.iter().enumerate().skip(1) {
                for (trans, v) in [
                    (TtmTranspose::NoTranspose, random_matrix(&mut rng, 6, d)),
                    (TtmTranspose::Transpose, random_matrix(&mut rng, d, 6)),
                ] {
                    let fast = ttm_ctx(ExecContext::global(), &x, &v, mode, trans);
                    let slow = ttm_reference(&x, &v, mode, trans);
                    assert_tensor_close(&fast, &slow, 1e-11);
                }
            }
        }
    }

    #[test]
    fn ttm_is_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(49);
        // Large enough that interior modes clear the parallel work threshold.
        let dims = [24usize, 20, 18, 16];
        let x = random_tensor(&mut rng, &dims);
        let seq = tucker_exec::ExecContext::new(1);
        for (mode, &d) in dims.iter().enumerate() {
            let v = random_matrix(&mut rng, 5, d);
            let baseline = ttm_ctx(&seq, &x, &v, mode, TtmTranspose::NoTranspose);
            for threads in [2usize, 4, 16] {
                let ctx = tucker_exec::ExecContext::new(threads);
                let out = ttm_ctx(&ctx, &x, &v, mode, TtmTranspose::NoTranspose);
                assert_eq!(out.as_slice(), baseline.as_slice(), "mode {mode}");
            }
        }
    }

    #[test]
    fn tail_plan_takes_only_ascending_growing_suffixes() {
        let sp_dims = [5usize, 5, 5, 2, 6];
        let sp_out = [72usize, 72, 72, 8, 16];
        let plan = plan_tail(&sp_dims, &sp_out, &[0, 1, 2, 3, 4]).expect("SP fuses");
        assert!((1..=4).contains(&plan.k) && plan.w >= TAIL_MIN_TILE && plan.w.is_multiple_of(8));
        let lead: usize = sp_out[..5 - plan.k].iter().product();
        assert!(lead >= 2 * plan.w);
        // The suffix must read m..N−1 ascending.
        assert_eq!(
            plan_tail(&sp_dims, &sp_out, &[0, 1, 2, 4, 3]).map(|p| p.k),
            None
        );
        assert_eq!(
            plan_tail(&sp_dims, &sp_out, &[4, 0, 1, 2, 3]).map(|p| p.k),
            None
        );
        // A mode that does not grow ends it.
        let flat_last = [72usize, 72, 72, 8, 6];
        assert_eq!(plan_tail(&sp_dims, &flat_last, &[0, 1, 2, 3, 4]), None);
        let shrink = [2usize, 2, 2, 1, 3];
        assert_eq!(plan_tail(&sp_dims, &shrink, &[0, 1, 2, 3, 4]), None);
        // Mode 0 never joins, so a 1-way chain never fuses.
        assert_eq!(plan_tail(&[3], &[900], &[0]), None);
        // A leading extent below two narrowest tiles runs the chain.
        assert_eq!(plan_tail(&[3, 2], &[50, 5], &[0, 1]), None);
        assert_eq!(
            plan_tail(&[3, 2], &[75, 5], &[0, 1]),
            Some(TailPlan { k: 1, w: 32 })
        );
    }

    #[test]
    fn expanding_tail_is_the_per_mode_chain_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(61);
        let dims = [3usize, 2, 3, 2];
        let out = [70usize, 5, 6, 4];
        let x = random_tensor(&mut rng, &dims);
        for trans in [TtmTranspose::NoTranspose, TtmTranspose::Transpose] {
            let ms: Vec<Matrix> = dims
                .iter()
                .zip(&out)
                .map(|(&d, &k)| match trans {
                    TtmTranspose::NoTranspose => random_matrix(&mut rng, k, d),
                    TtmTranspose::Transpose => random_matrix(&mut rng, d, k),
                })
                .collect();
            // Natural order, a reordered prefix, a skipped mode (the tail
            // then starts past it) and an empty prefix.
            let cases: [(Vec<Option<&Matrix>>, Vec<usize>); 4] = [
                (ms.iter().map(Some).collect(), vec![0, 1, 2, 3]),
                (ms.iter().map(Some).collect(), vec![1, 0, 2, 3]),
                (
                    vec![Some(&ms[0]), None, Some(&ms[2]), Some(&ms[3])],
                    vec![0, 2, 3],
                ),
                (
                    vec![None, Some(&ms[1]), Some(&ms[2]), Some(&ms[3])],
                    vec![1, 2, 3],
                ),
            ];
            for (mats, order) in &cases {
                for threads in [1usize, 2, 4] {
                    let ctx = tucker_exec::ExecContext::new(threads);
                    let want = order.iter().fold(x.clone(), |cur, &n| {
                        ttm_ctx(&ctx, &cur, mats[n].unwrap(), n, trans)
                    });
                    let got = multi_ttm_ctx(&ctx, &x, mats, trans, order);
                    assert_eq!(got.dims(), want.dims());
                    assert!(
                        got.as_slice()
                            .iter()
                            .zip(want.as_slice())
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{trans:?}, order {order:?}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn slice_entry_is_the_tensor_entry() {
        let mut rng = StdRng::seed_from_u64(60);
        let dims = [5usize, 4, 6];
        let x = random_tensor(&mut rng, &dims);
        let ctx = tucker_exec::ExecContext::new(2);
        for mode in 0..dims.len() {
            let v = random_matrix(&mut rng, 3, dims[mode]);
            let owned = ttm_ctx(&ctx, &x, &v, mode, TtmTranspose::NoTranspose);
            let borrowed = ttm_slice_ctx(
                &ctx,
                &dims,
                x.as_slice(),
                &v,
                mode,
                TtmTranspose::NoTranspose,
            );
            assert_eq!(owned, borrowed, "mode {mode}");
        }
    }

    #[test]
    #[should_panic]
    fn slice_entry_rejects_a_buffer_of_the_wrong_length() {
        let v = Matrix::zeros(2, 3);
        ttm_slice_ctx(
            tucker_exec::ExecContext::global(),
            &[3, 4],
            &[0.0; 11],
            &v,
            0,
            TtmTranspose::NoTranspose,
        );
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let x = DenseTensor::zeros(&[2, 3]);
        let v = Matrix::zeros(4, 4);
        ttm_ctx(ExecContext::global(), &x, &v, 0, TtmTranspose::NoTranspose);
    }

    #[test]
    fn two_way_tensor_is_matrix_product() {
        let mut rng = StdRng::seed_from_u64(58);
        let x = random_tensor(&mut rng, &[4, 5]);
        let v = random_matrix(&mut rng, 3, 4);
        let y = ttm_ctx(ExecContext::global(), &x, &v, 0, TtmTranspose::NoTranspose);
        // X as a matrix is 4x5 column-major; Y should equal V·X.
        for i in 0..3 {
            for j in 0..5 {
                let mut s = 0.0;
                for k in 0..4 {
                    s += v.get(i, k) * x.get(&[k, j]);
                }
                assert!((y.get(&[i, j]) - s).abs() < 1e-12);
            }
        }
    }
}
