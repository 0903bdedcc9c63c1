//! Distributed-memory Tucker decomposition (Secs. IV–VI of the paper).
//!
//! The data object is a [`DistTensor`]: a dense tensor block-distributed over
//! the N-way processor grid of the communicator, each rank owning the
//! contiguous block of every mode given by [`ProcGrid::local_range`]. On top
//! of it this module implements the paper's parallel kernels and drivers:
//!
//! * [`parallel_ttm_ctx`] — Alg. 3: local TTM against the owned slice of
//!   the matrix, sum-reduction across the mode-`n` processor column, then
//!   re-blocking of the shrunken mode.
//! * [`parallel_gram_ctx`] — Alg. 4: a ring (shifted sendrecv) over the
//!   mode-`n` processor column to build this rank's row block of
//!   `S = Y(n)·Y(n)ᵀ`, followed by an all-reduce across the mode-`n`
//!   processor row. It runs on the in-place `gram_ctx`/`gram_pair_ctx`
//!   kernels and moves blocks in their natural layout.
//! * Alg. 5, inside both drivers: the Gram row blocks are all-gathered
//!   within the processor column and the (small) `I_n × I_n` eigenproblem is
//!   solved redundantly on every rank, which keeps the factor matrices
//!   replicated.
//! * [`try_dist_st_hosvd_ctx`] / [`try_dist_hooi_ctx`] — the ST-HOSVD
//!   (Alg. 1) and HOOI (Alg. 2) drivers. They are the only implementation of
//!   either algorithm: the sequential [`crate::sthosvd::try_st_hosvd_ctx`]
//!   and [`crate::hooi::try_hooi_ctx`] run them on
//!   [`Communicator::single_rank`], the `1 × … × 1` world, over their input
//!   borrowed as its one block. There every processor group has one member,
//!   so no kernel communicates and no block is copied.
//! * [`dist_reconstruct_ctx`] — distributed reconstruction
//!   `X̂ = G ×₁ U⁽¹⁾ ⋯ ×_N U⁽ᴺ⁾`.
//!
//! Every kernel and driver takes the rank's execution context explicitly;
//! [`hybrid_ctx`] is the even share of the global pool a rank uses when the
//! caller has no other budget in mind.
//!
//! Factor matrices are small (`I_n × R_n`) and kept **replicated** on every
//! rank, exactly as the paper stores them; only the tensor (and the core) is
//! distributed.

use std::borrow::Cow;
use std::time::Instant;

use crate::hooi::HooiOptions;
use crate::rank::discarded_tail;
use crate::tucker::TuckerTensor;
use crate::validate::{self, CoreError};
use tucker_distmem::collectives::{all_gather, all_reduce, reduce_scatter_blocks};
use tucker_distmem::{Communicator, ProcGrid, SubCommunicator};
use tucker_exec::{ExecContext, Workspace};
use tucker_linalg::eig::sym_eig_desc;
use tucker_linalg::Matrix;
use tucker_obs::metrics::Counter;
use tucker_tensor::slice::insert_subtensor;
use tucker_tensor::{
    extract_subtensor, gram_ctx, gram_pair_ctx, ttm_into_ctx, DenseTensor, SubtensorSpec,
    TtmTranspose, Unfolding,
};

/// Completed ST-HOSVD runs, once per run and rank (see `tucker-obs`).
static ST_HOSVD_RUNS: Counter = Counter::new("core.st_hosvd.runs");

/// Outer HOOI iterations executed (convergence may stop early), once per
/// iteration and rank.
static HOOI_ITERATIONS: Counter = Counter::new("core.hooi.iterations");

/// The execution context a simulated rank uses when the caller did not pass
/// one: an even share of the global pool, `max(1, threads / ranks)` — the
/// hybrid "ranks × threads" model (MPI + OpenMP in TuckerMPI terms). All
/// ranks scatter onto the **same** persistent pool, so total parallelism
/// stays bounded by the machine rather than `ranks × threads`.
pub fn hybrid_ctx(comm: &Communicator) -> ExecContext {
    let global = ExecContext::global();
    global.with_budget((global.threads() / comm.size().max(1)).max(1))
}

use crate::sthosvd::SthosvdOptions;

/// A dense tensor block-distributed over the communicator's processor grid.
///
/// Every rank owns the sub-block `ranges[0] × … × ranges[N-1]` (per-mode
/// `(offset, len)` in global coordinates) of a tensor with dimensions
/// `global_dims`. Blocks tile the global tensor exactly. The local block is
/// either owned or borrowed: a one-rank world's single block is the global
/// tensor itself, so [`DistTensor::from_global`] borrows it there.
#[derive(Debug, Clone)]
pub struct DistTensor<'a> {
    global_dims: Vec<usize>,
    ranges: Vec<(usize, usize)>,
    local: Cow<'a, DenseTensor>,
}

impl<'a> DistTensor<'a> {
    /// Distributes a globally replicated tensor: every rank extracts its own
    /// block (on a one-rank world it borrows `global` instead, copying
    /// nothing). This is how the test harnesses and examples stage data; a
    /// real deployment would read each block from parallel storage instead.
    pub fn from_global(comm: &Communicator, global: &'a DenseTensor) -> DistTensor<'a> {
        let grid = comm.grid();
        assert_eq!(
            global.ndims(),
            grid.ndims(),
            "DistTensor::from_global: tensor order {} does not match grid order {}",
            global.ndims(),
            grid.ndims()
        );
        let ranges = Self::rank_ranges(grid, comm.rank(), global.dims());
        let local = if comm.size() == 1 {
            Cow::Borrowed(global)
        } else {
            Cow::Owned(extract_subtensor(global, &spec_from_ranges(&ranges)))
        };
        DistTensor {
            global_dims: global.dims().to_vec(),
            ranges,
            local,
        }
    }

    /// Wraps an already-extracted local block (used internally by the kernels).
    fn from_parts(
        global_dims: Vec<usize>,
        ranges: Vec<(usize, usize)>,
        local: DenseTensor,
    ) -> DistTensor<'static> {
        debug_assert_eq!(
            ranges.iter().map(|r| r.1).collect::<Vec<_>>(),
            local.dims().to_vec(),
            "DistTensor: block ranges inconsistent with local dims"
        );
        DistTensor {
            global_dims,
            ranges,
            local: Cow::Owned(local),
        }
    }

    fn rank_ranges(grid: &ProcGrid, rank: usize, dims: &[usize]) -> Vec<(usize, usize)> {
        (0..dims.len())
            .map(|n| grid.local_range(rank, n, dims[n]))
            .collect()
    }

    /// The global tensor dimensions.
    pub fn global_dims(&self) -> &[usize] {
        &self.global_dims
    }

    /// Per-mode `(offset, len)` of this rank's block, in global coordinates.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// This rank's local block.
    pub fn local(&self) -> &DenseTensor {
        &self.local
    }

    /// This rank's local block by value (a copy only if it is borrowed).
    pub(crate) fn into_local(self) -> DenseTensor {
        self.local.into_owned()
    }

    /// Gathers the distributed tensor onto rank 0, which returns the assembled
    /// global tensor; other ranks return `None`.
    pub fn gather_to_root(&self, comm: &Communicator) -> Option<DenseTensor> {
        if comm.size() == 1 {
            return Some(self.local().clone());
        }
        if comm.rank() == 0 {
            let mut out = DenseTensor::zeros(&self.global_dims);
            insert_subtensor(&mut out, &spec_from_ranges(&self.ranges), &self.local);
            for r in 1..comm.size() {
                let data = comm.recv(r);
                let ranges = Self::rank_ranges(comm.grid(), r, &self.global_dims);
                let ldims: Vec<usize> = ranges.iter().map(|&(_, l)| l).collect();
                let sub = DenseTensor::from_vec(&ldims, data);
                insert_subtensor(&mut out, &spec_from_ranges(&ranges), &sub);
            }
            Some(out)
        } else {
            comm.send(0, self.local.as_slice());
            None
        }
    }

    /// `‖X‖²` of the **global** tensor (an all-reduce of the local values; on a
    /// single rank this is exactly the sequential `norm_sq`).
    ///
    /// The drivers use it for the core only (HOOI's fit): the input's `‖X‖²`
    /// is the trace of the first processed mode's Gram, see
    /// [`try_dist_st_hosvd_ctx`].
    fn global_norm_sq(&self, comm: &Communicator) -> f64 {
        let group = SubCommunicator::world_group(comm);
        all_reduce(&group, &[self.local.norm_sq()])[0]
    }
}

fn spec_from_ranges(ranges: &[(usize, usize)]) -> SubtensorSpec {
    SubtensorSpec::from_ranges(ranges)
}

/// A Tucker decomposition whose core is block-distributed and whose (small)
/// factor matrices are replicated on every rank, as in the paper.
#[derive(Debug, Clone)]
pub struct DistTucker {
    /// The distributed core tensor `G`.
    pub core: DistTensor<'static>,
    /// Replicated factor matrices `U⁽ⁿ⁾` (`I_n × R_n`), indexed by mode.
    pub factors: Vec<Matrix>,
}

impl DistTucker {
    /// Gathers the core onto rank 0 and pairs it with the (already replicated)
    /// factors; rank 0 returns the sequential [`TuckerTensor`], others `None`.
    pub fn gather_to_root(&self, comm: &Communicator) -> Option<TuckerTensor> {
        self.core
            .gather_to_root(comm)
            .map(|core| TuckerTensor::new(core, self.factors.clone()))
    }

    /// The reduced dimensions `R_n`.
    pub fn ranks(&self) -> Vec<usize> {
        self.factors.iter().map(|u| u.cols()).collect()
    }
}

/// Wall-clock seconds spent in each distributed kernel, per mode — the
/// breakdown reported in the paper's Figs. 4–5 and used by the `fig9*`
/// scaling harnesses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelTimings {
    /// Seconds in [`parallel_gram_ctx`] (Alg. 4), indexed by mode.
    pub gram: Vec<f64>,
    /// Seconds assembling the Gram and solving its eigenproblem (Alg. 5),
    /// indexed by mode.
    pub evecs: Vec<f64>,
    /// Seconds in [`parallel_ttm_ctx`] (Alg. 3), indexed by mode.
    pub ttm: Vec<f64>,
    /// The per-rank thread budget the run executed with (hybrid
    /// ranks × threads accounting; 1 when no pool was used).
    pub thread_budget: usize,
}

impl KernelTimings {
    /// Zeroed timings for an `nmodes`-way decomposition.
    pub fn new(nmodes: usize) -> Self {
        KernelTimings {
            gram: vec![0.0; nmodes],
            evecs: vec![0.0; nmodes],
            ttm: vec![0.0; nmodes],
            thread_budget: 1,
        }
    }

    /// Per-kernel totals `(gram, evecs, ttm)` in seconds.
    pub fn totals(&self) -> (f64, f64, f64) {
        (
            self.gram.iter().sum(),
            self.evecs.iter().sum(),
            self.ttm.iter().sum(),
        )
    }

    /// Total seconds across all kernels and modes.
    pub fn total(&self) -> f64 {
        let (g, e, t) = self.totals();
        g + e + t
    }
}

// Kernel timings cross process boundaries when an SPMD region runs on the
// multi-process TCP backend (`tucker-net` ships each rank's closure result
// through the region result table), so they get an exact wire encoding.
impl tucker_distmem::Wire for KernelTimings {
    fn encode(&self, out: &mut Vec<u8>) {
        self.gram.encode(out);
        self.evecs.encode(out);
        self.ttm.encode(out);
        self.thread_budget.encode(out);
    }

    fn decode(r: &mut tucker_distmem::WireReader<'_>) -> Result<Self, tucker_distmem::WireError> {
        Ok(KernelTimings {
            gram: Vec::<f64>::decode(r)?,
            evecs: Vec::<f64>::decode(r)?,
            ttm: Vec::<f64>::decode(r)?,
            thread_budget: usize::decode(r)?,
        })
    }
}

/// Result of [`try_dist_st_hosvd_ctx`] on one rank.
#[derive(Debug, Clone)]
pub struct DistSthosvdResult {
    /// The decomposition (distributed core, replicated factors).
    pub tucker: DistTucker,
    /// The reduced dimension chosen in each mode (identical on every rank).
    pub ranks: Vec<usize>,
    /// The descending Gram eigenvalues observed per mode (identical on every
    /// rank, since the eigenproblem is solved redundantly).
    pub mode_eigenvalues: Vec<Vec<f64>>,
    /// Sum of discarded eigenvalues over all modes (eq. (3) bookkeeping).
    pub discarded_energy: f64,
    /// `‖X‖²` of the global input tensor: the trace of the first processed
    /// mode's Gram, summed over the diagonal in ascending order.
    pub norm_x_sq: f64,
    /// The order in which modes were processed.
    pub processed_order: Vec<usize>,
    /// This rank's wall-clock kernel breakdown.
    pub timings: KernelTimings,
}

/// Result of [`try_dist_hooi_ctx`] on one rank.
#[derive(Debug, Clone)]
pub struct DistHooiResult {
    /// The refined decomposition (distributed core, replicated factors).
    pub tucker: DistTucker,
    /// The reduced dimensions (fixed after initialization).
    pub ranks: Vec<usize>,
    /// `‖X‖² − ‖G‖²` after initialization and after each outer iteration.
    pub fit_history: Vec<f64>,
    /// Number of outer iterations performed.
    pub iterations: usize,
}

/// Parallel TTM `Z = Y ×_n op(V)` (Alg. 3).
///
/// `V` is replicated: with `NoTranspose` it is `K × I_n`, with `Transpose`
/// it is `I_n × K` (the factor-matrix convention of ST-HOSVD). Each rank
/// multiplies its block against its owned slice of `op(V)`, the partial
/// products are sum-reduced across the mode-`n` processor column with a
/// **mode-aware reduce-scatter** — the partial product is re-indexed so each
/// column member's mode-`n` block is contiguous, and the ring reduce-scatter
/// delivers to every rank only the fully summed block it owns. Per rank this
/// moves `(P_n − 1)·Ĵ_n·K/P` words, exactly the β term [`CostModel::ttm`]
/// charges for Alg. 3 (an all-reduce would move twice that and then discard
/// all but the owned block).
///
/// The local TTM runs on `ctx`, this rank's share of the shared pool
/// (hybrid ranks × threads).
///
/// [`CostModel::ttm`]: tucker_distmem::CostModel::ttm
pub fn parallel_ttm_ctx(
    comm: &Communicator,
    y: &DistTensor,
    v: &Matrix,
    n: usize,
    trans: TtmTranspose,
    ctx: &ExecContext,
) -> DistTensor<'static> {
    parallel_ttm_ws(comm, y, v, n, trans, ctx, &mut Workspace::new())
}

/// [`parallel_ttm_ctx`] whose local product is written into a buffer taken
/// from `ws` — the HOOI loop's recycled intermediates.
fn parallel_ttm_ws(
    comm: &Communicator,
    y: &DistTensor,
    v: &Matrix,
    n: usize,
    trans: TtmTranspose,
    ctx: &ExecContext,
    ws: &mut Workspace,
) -> DistTensor<'static> {
    let dims = y.global_dims();
    assert!(n < dims.len(), "parallel_ttm: mode {n} out of range");
    let in_dim = dims[n];
    let k = match trans {
        TtmTranspose::NoTranspose => {
            assert_eq!(v.cols(), in_dim, "parallel_ttm: V must be K × I_n");
            v.rows()
        }
        TtmTranspose::Transpose => {
            assert_eq!(v.rows(), in_dim, "parallel_ttm: V must be I_n × K");
            v.cols()
        }
    };

    // Local multiply against the owned column slice of op(V).
    let (off, len) = y.ranges()[n];
    let v_slice = match trans {
        TtmTranspose::NoTranspose => v.col_block(off, off + len),
        TtmTranspose::Transpose => v.row_block(off, off + len),
    };
    let mut partial_dims = y.local().dims().to_vec();
    partial_dims[n] = k;
    let partial_len = partial_dims.iter().product();
    let mut partial = DenseTensor::from_vec(&partial_dims, ws.take(partial_len));
    if y.local().is_empty() || partial.is_empty() {
        // A rank owning none of mode n contributes zeros.
        partial.as_mut_slice().fill(0.0);
    } else {
        ttm_into_ctx(ctx, y.local(), &v_slice, n, trans, &mut partial);
    }

    let mut new_dims = y.global_dims().to_vec();
    new_dims[n] = k;

    let col_group = SubCommunicator::mode_column(comm, n);
    if col_group.size() == 1 {
        // Single processor column: the partial product is already the result,
        // and this rank keeps the whole mode (bit-identical to the sequential
        // TTM on one rank).
        let mut new_ranges = y.ranges().to_vec();
        new_ranges[n] = (0, k);
        return DistTensor::from_parts(new_dims, new_ranges, partial);
    }

    // Re-index the partial product into block-major order along mode n: the
    // slab owned by column member q (mode-n indices `block_range(k, P_n, q)`)
    // becomes one contiguous chunk, flattened in natural order. In every
    // unfolding block those indices are one contiguous run of `qlen · left`
    // elements, so the chunk is the concatenation of `right` runs.
    let pn = col_group.size();
    let unf = Unfolding::new(partial.dims(), n);
    let data = partial.as_slice();
    let mut packed = Vec::with_capacity(partial.len());
    let mut counts = Vec::with_capacity(pn);
    for q in 0..pn {
        let (qoff, qlen) = ProcGrid::block_range(k, pn, q);
        counts.push(qlen * unf.cols());
        for t in 0..unf.right {
            packed
                .extend_from_slice(&unf.block(data, t)[qoff * unf.left..(qoff + qlen) * unf.left]);
        }
    }
    let mut local_dims = partial.dims().to_vec();
    // Freed before the reduce-scatter allocates, not recycled: keeping it
    // would raise every rank's peak by a partial product.
    drop(partial);

    // Mode-aware reduce-scatter: each member receives exactly its own fully
    // summed block, already flattened in the natural order of the local tensor.
    let mine = reduce_scatter_blocks(&col_group, packed, &counts);

    let (ks, kl) = comm.grid().local_range(comm.rank(), n, k);
    local_dims[n] = kl;
    let local = DenseTensor::from_vec(&local_dims, mine);

    let mut new_ranges = y.ranges().to_vec();
    new_ranges[n] = (ks, kl);
    DistTensor::from_parts(new_dims, new_ranges, local)
}

/// Parallel Gram `S = Y(n)·Y(n)ᵀ` (Alg. 4): returns this rank's **row block**
/// of the global `I_n × I_n` Gram matrix (rows `ranges()[n]`, all columns).
///
/// The ranks of a mode-`n` processor column share the same non-`n` local
/// ranges, so their unfolding panels cover the same global columns; the ring
/// of shifted sendrecv exchanges (Alg. 4 lines 9–10) rotates those blocks so
/// each rank accumulates `W_me · W_qᵀ` into the column block of every owner
/// `q`. The partial row block is then sum-reduced across the mode-`n`
/// processor row (the ranks owning the remaining global columns).
///
/// No unfolding is materialized: the diagonal block is [`gram_ctx`] (a SYRK
/// on the local block in place) and each received block goes through
/// [`gram_pair_ctx`]. Both sum over the unfolding columns in ascending
/// order, so on a grid that splits only mode `n` the rows equal those of
/// the sequential [`gram_ctx`] bit for bit. The local kernels run on `ctx`.
pub fn parallel_gram_ctx(
    comm: &Communicator,
    y: &DistTensor,
    n: usize,
    ctx: &ExecContext,
) -> Matrix {
    let dims = y.global_dims();
    assert!(n < dims.len(), "parallel_gram: mode {n} out of range");
    let col_group = SubCommunicator::mode_column(comm, n);
    let row_group = SubCommunicator::mode_row(comm, n);
    let in_total = dims[n];
    let pn = col_group.size();
    let local = y.local();
    let (my_off, my_len) = y.ranges()[n];

    // The diagonal block W_me · W_meᵀ is the local Gram: a SYRK on the
    // block's own buffer.
    let diag = gram_ctx(ctx, local, n);
    let s_partial = if pn == 1 {
        diag
    } else {
        let mut s_partial = Matrix::zeros(my_len, in_total);
        place_columns(&mut s_partial, my_off, &diag);
        // Ring over the processor column: after step s we hold the block of
        // the member at position (my_pos + s) mod P_n. Blocks travel in
        // their natural layout; a received buffer becomes a tensor by move
        // and is forwarded by move at the next step.
        let my_pos = col_group.pos();
        let dst = (my_pos + pn - 1) % pn;
        let src = (my_pos + 1) % pn;
        let mut held: Option<DenseTensor> = None;
        for step in 1..pn {
            let incoming = match held.take() {
                None => col_group.sendrecv(dst, local.as_slice(), src),
                Some(block) => {
                    col_group.send_vec(dst, block.into_vec());
                    col_group.recv(src)
                }
            };
            let (q_off, q_len) = ProcGrid::block_range(in_total, pn, (my_pos + step) % pn);
            let mut q_dims = local.dims().to_vec();
            q_dims[n] = q_len;
            let block = DenseTensor::from_vec(&q_dims, incoming);
            // W_me · W_qᵀ — the (my rows × owner's rows) block over the
            // shared local columns (Alg. 4 line 11).
            place_columns(&mut s_partial, q_off, &gram_pair_ctx(ctx, local, &block, n));
            held = Some(block);
        }
        s_partial
    };

    // Sum the contributions of all column sets (the mode-n processor row).
    if row_group.size() == 1 {
        return s_partial;
    }
    let summed = all_reduce(&row_group, s_partial.as_slice());
    Matrix::from_vec(my_len, in_total, summed)
}

/// Copies `block` into the columns `[col_off, col_off + block.cols())` of
/// every row of `s`.
fn place_columns(s: &mut Matrix, col_off: usize, block: &Matrix) {
    for i in 0..block.rows() {
        s.row_mut(i)[col_off..col_off + block.cols()].copy_from_slice(block.row(i));
    }
}

/// The communication half of the parallel leading-eigenvector computation
/// (Alg. 5): all-gathers the per-rank row blocks of the mode-`n` Gram
/// matrix from [`parallel_gram_ctx`] into the full `I_n × I_n` matrix,
/// identical on every rank of the processor column. The drivers then solve
/// the symmetric eigenproblem **redundantly** on every rank — the paper's
/// choice, which keeps the factors replicated and costs
/// `β·(P_n−1)/P_n·I_n²` words instead of a distributed eigensolver.
fn assemble_gram(comm: &Communicator, y: &DistTensor, n: usize, s_block: &Matrix) -> Matrix {
    let in_total = y.global_dims()[n];
    let col_group = SubCommunicator::mode_column(comm, n);
    if col_group.size() == 1 {
        return s_block.clone();
    }
    // Row blocks are row-major and ordered by mode-n coordinate, so the
    // concatenation of the gathered buffers is the full matrix.
    let data = all_gather(&col_group, s_block.as_slice());
    Matrix::from_vec(in_total, in_total, data)
}

/// Runs `run` on the one-rank world ([`Communicator::single_rank`]) over `x`
/// borrowed as its only block: how the sequential drivers run the
/// distributed ones, with no thread, no message and no copy of `x`.
pub(crate) fn on_one_rank<R>(
    x: &DenseTensor,
    run: impl FnOnce(&Communicator, &DistTensor) -> Result<R, CoreError>,
) -> Result<R, CoreError> {
    // The `1 × … × 1` grid needs at least one mode.
    validate::validate_shape(x.dims())?;
    let comm = Communicator::single_rank(x.ndims());
    run(&comm, &DistTensor::from_global(&comm, x))
}

/// Distributed ST-HOSVD (Alg. 1 over Algs. 3–5).
///
/// For each mode in the resolved order: Gram → eigenvectors → rank
/// selection → truncating TTM. Rank selection is driven by the global
/// `‖X‖²`, taken as the trace of the first processed mode's assembled Gram
/// (no separate pass over X, no extra collective), so every rank picks the
/// same ranks. The kernels run on `ctx`, this rank's execution context
/// (hybrid ranks × threads; [`KernelTimings::thread_budget`] records the
/// budget).
///
/// Validates the global shape, mode order, rank selection and processor
/// grid first, and refuses an input whose `‖X‖²` is not finite before the
/// first eigensolve; each failure is a [`CoreError`], returned by every
/// rank at the same step. Every rank of the grid must call this (it is
/// itself collective).
pub fn try_dist_st_hosvd_ctx(
    comm: &Communicator,
    x: &DistTensor,
    opts: &SthosvdOptions,
    ctx: &ExecContext,
) -> Result<DistSthosvdResult, CoreError> {
    validate::validate_sthosvd_inputs(x.global_dims(), opts)?;
    validate::validate_grid(x.global_dims(), comm.grid().shape())?;

    let nmodes = x.global_dims().len();
    let _span = tucker_obs::span!(
        "st_hosvd",
        nmodes = nmodes,
        ranks = comm.size(),
        threads = ctx.threads(),
    );
    ST_HOSVD_RUNS.inc();

    // Greedy strategies consume the shared rank hint: fixed ranks when
    // available, the dimensions otherwise.
    let order = opts.order.resolve(
        x.global_dims(),
        &validate::rank_hint(&opts.rank, x.global_dims()),
    );

    // `y` only ever holds an already-shrunk tensor: until the first TTM the
    // current tensor is the borrowed input itself.
    let mut y: Option<DistTensor<'static>> = None;
    // `order` is a permutation of the modes (validated), so every
    // placeholder below is overwritten.
    let mut factors = vec![Matrix::zeros(0, 0); nmodes];
    let mut ranks = vec![0usize; nmodes];
    let mut mode_eigenvalues: Vec<Vec<f64>> = vec![Vec::new(); nmodes];
    let mut discarded_energy = 0.0;
    // ‖X‖² is the trace of the first processed mode's Gram, which has read
    // every element of X by then; set before the first rank selection.
    let mut norm_x_sq = 0.0;
    let mut timings = KernelTimings::new(nmodes);
    timings.thread_budget = ctx.threads();

    for (step, &n) in order.iter().enumerate() {
        let _mode_span = tucker_obs::span!("st_hosvd.mode", mode = n);
        let current = y.as_ref().unwrap_or(x);
        let s_block = {
            let _k = tucker_obs::span!("dist.gram", mode = n);
            let t0 = Instant::now();
            let s_block = parallel_gram_ctx(comm, current, n, ctx);
            timings.gram[n] += t0.elapsed().as_secs_f64();
            s_block
        };

        let eig = {
            let _k = tucker_obs::span!("dist.evecs", mode = n);
            let t0 = Instant::now();
            let s = assemble_gram(comm, current, n, &s_block);
            if step == 0 {
                // The assembled Gram is bitwise the same on every rank (the
                // redundant eigensolve relies on it), so is its trace.
                norm_x_sq = s.trace();
                validate::finite_norm(norm_x_sq)?;
            }
            let eig = sym_eig_desc(&s);
            timings.evecs[n] += t0.elapsed().as_secs_f64();
            eig
        };

        let r = opts.rank.select(n, &eig.values, norm_x_sq, nmodes);
        let u = eig.leading_vectors(r);
        discarded_energy += discarded_tail(&eig.values, r);
        mode_eigenvalues[n] = eig.values;
        ranks[n] = r;

        {
            let _k = tucker_obs::span!("dist.ttm", mode = n);
            let t0 = Instant::now();
            y = Some(parallel_ttm_ctx(
                comm,
                current,
                &u,
                n,
                TtmTranspose::Transpose,
                ctx,
            ));
            timings.ttm[n] += t0.elapsed().as_secs_f64();
        }

        factors[n] = u;
    }

    Ok(DistSthosvdResult {
        tucker: DistTucker {
            core: y.expect("a validated tensor has at least one mode"),
            factors,
        },
        ranks,
        mode_eigenvalues,
        discarded_energy,
        norm_x_sq,
        processed_order: order,
        timings,
    })
}

/// [`try_dist_st_hosvd_ctx`] on [`hybrid_ctx`] that panics with the
/// [`CoreError`]'s message instead of returning it.
///
/// Kept only because the end-to-end benchmark binary (`bench_e2e`), whose
/// sources change only together with the benchmark definition, calls it by
/// this name. Everything else calls [`try_dist_st_hosvd_ctx`].
pub fn dist_st_hosvd(
    comm: &Communicator,
    x: &DistTensor,
    opts: &SthosvdOptions,
) -> DistSthosvdResult {
    crate::valid_or_panic(
        "st_hosvd",
        try_dist_st_hosvd_ctx(comm, x, opts, &hybrid_ctx(comm)),
    )
}

/// Distributed HOOI (Alg. 2 over Algs. 3–5), initialized with
/// [`try_dist_st_hosvd_ctx`] on `ctx`. The fit `‖X‖² − ‖G‖²` is computed
/// from globally reduced norms, so every rank makes the same convergence
/// decision. Validates like its initialization and returns a [`CoreError`]
/// instead of panicking.
///
/// The TTM chain of every factor update runs through a [`Workspace`]: the
/// shrinking intermediates of Alg. 2 line 5 ping-pong between recycled
/// buffers instead of allocating `O(iterations × modes²)` fresh tensors.
pub fn try_dist_hooi_ctx(
    comm: &Communicator,
    x: &DistTensor,
    opts: &HooiOptions,
    ctx: &ExecContext,
) -> Result<DistHooiResult, CoreError> {
    let nmodes = x.global_dims().len();
    let _span = tucker_obs::span!(
        "hooi",
        nmodes = nmodes,
        ranks = comm.size(),
        threads = ctx.threads(),
    );
    // Line 2: initialize with ST-HOSVD; the ranks are frozen afterwards.
    let init = try_dist_st_hosvd_ctx(comm, x, &opts.init, ctx)?;
    let norm_x_sq = init.norm_x_sq;
    let ranks = init.ranks;
    let mut factors = init.tucker.factors;
    let mut core = init.tucker.core;
    let mut fit_history = vec![norm_x_sq - core.global_norm_sq(comm)];
    let mut ws = Workspace::new();

    let mut iterations = 0;
    for _ in 0..opts.max_iterations {
        let _iter_span = tucker_obs::span!("hooi.iteration", iteration = iterations);
        HOOI_ITERATIONS.inc();
        // Lines 4–8: update each factor in turn.
        for n in 0..nmodes {
            // Y = X ×_{m≠n} U⁽ᵐ⁾ᵀ, applied in natural order, reading X in
            // place until the first product (`None` means "still X").
            let mut y: Option<DistTensor<'static>> = None;
            for m in (0..nmodes).filter(|&m| m != n) {
                let current = y.as_ref().unwrap_or(x);
                let next = parallel_ttm_ws(
                    comm,
                    current,
                    &factors[m],
                    m,
                    TtmTranspose::Transpose,
                    ctx,
                    &mut ws,
                );
                if let Some(prev) = y.replace(next) {
                    ws.give(prev.into_local().into_vec());
                }
            }
            let current = y.as_ref().unwrap_or(x);
            let s_block = parallel_gram_ctx(comm, current, n, ctx);
            let eig = sym_eig_desc(&assemble_gram(comm, current, n, &s_block));
            factors[n] = eig.leading_vectors(ranks[n]);
            // Line 9 (on the last mode): the current Y already has every
            // product but mode n's, so the new core is Y ×_n U⁽ⁿ⁾ᵀ.
            if n == nmodes - 1 {
                let new_core = parallel_ttm_ws(
                    comm,
                    current,
                    &factors[n],
                    n,
                    TtmTranspose::Transpose,
                    ctx,
                    &mut ws,
                );
                ws.give(
                    std::mem::replace(&mut core, new_core)
                        .into_local()
                        .into_vec(),
                );
            }
            if let Some(t) = y {
                ws.give(t.into_local().into_vec());
            }
        }
        iterations += 1;
        let fit = norm_x_sq - core.global_norm_sq(comm);
        let prev = fit_history[fit_history.len() - 1];
        fit_history.push(fit);
        // Line 10: stop when the fit ceases to decrease meaningfully.
        if prev - fit <= opts.fit_tolerance * norm_x_sq {
            break;
        }
    }

    Ok(DistHooiResult {
        tucker: DistTucker { core, factors },
        ranks,
        fit_history,
        iterations,
    })
}

/// Distributed reconstruction `X̂ = G ×₁ U⁽¹⁾ ⋯ ×_N U⁽ᴺ⁾`: a chain of
/// parallel TTMs on `ctx` that grows the distributed core back to the
/// original (distributed) dimensions.
pub fn dist_reconstruct_ctx(
    comm: &Communicator,
    t: &DistTucker,
    ctx: &ExecContext,
) -> DistTensor<'static> {
    let mut y = t.core.clone();
    for (n, u) in t.factors.iter().enumerate() {
        y = parallel_ttm_ctx(comm, &y, u, n, TtmTranspose::NoTranspose, ctx);
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sthosvd::try_st_hosvd_ctx;
    use tucker_distmem::runtime::spmd_with_grid;
    use tucker_tensor::normalized_rms_error;

    fn wavy(dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |idx| {
            let mut v = 0.5;
            for (k, &i) in idx.iter().enumerate() {
                v += ((k + 2) as f64 * 0.21 * i as f64).sin();
            }
            v
        })
    }

    #[test]
    fn blocks_tile_the_global_tensor() {
        let dims = [7usize, 5, 6];
        let x = wavy(&dims);
        let x2 = x.clone();
        let results = spmd_with_grid(ProcGrid::new(&[2, 1, 3]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x2);
            (dx.ranges().to_vec(), dx.local().len())
        });
        let total: usize = results.iter().map(|(_, l)| l).sum();
        assert_eq!(total, x.len());
    }

    #[test]
    fn gather_round_trips_from_global() {
        let dims = [6usize, 9, 4];
        let x = wavy(&dims);
        let x2 = x.clone();
        let results = spmd_with_grid(ProcGrid::new(&[2, 3, 1]), move |comm| {
            DistTensor::from_global(&comm, &x2).gather_to_root(&comm)
        });
        let gathered = results[0].as_ref().expect("root holds the tensor");
        assert_eq!(gathered.dims(), x.dims());
        assert!(normalized_rms_error(&x, gathered) == 0.0);
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn global_norm_matches_sequential() {
        let dims = [8usize, 6, 5];
        let x = wavy(&dims);
        let expected = x.norm_sq();
        let results = spmd_with_grid(ProcGrid::new(&[2, 2, 1]), move |comm| {
            DistTensor::from_global(&comm, &x).global_norm_sq(&comm)
        });
        for v in results {
            assert!((v - expected).abs() < 1e-9 * expected);
        }
    }

    #[test]
    fn dist_sthosvd_timings_cover_all_modes() {
        let dims = [8usize, 8, 8];
        let x = wavy(&dims);
        let results = spmd_with_grid(ProcGrid::new(&[2, 2, 1]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x);
            try_dist_st_hosvd_ctx(
                &comm,
                &dx,
                &SthosvdOptions::with_ranks(vec![3, 3, 3]),
                &hybrid_ctx(&comm),
            )
            .unwrap()
            .timings
        });
        for t in results {
            assert_eq!(t.gram.len(), 3);
            assert_eq!(t.evecs.len(), 3);
            assert_eq!(t.ttm.len(), 3);
            assert!(t.total() >= 0.0);
        }
    }

    #[test]
    fn dist_reconstruct_matches_gathered_sequential_reconstruction() {
        let ctx = ExecContext::global();
        let dims = [8usize, 7, 6];
        let x = wavy(&dims);
        let x2 = x.clone();
        let seq = try_st_hosvd_ctx(&x, &SthosvdOptions::with_ranks(vec![3, 3, 3]), ctx).unwrap();
        let seq_rec = seq.tucker.reconstruct_ctx(ctx);
        let results = spmd_with_grid(ProcGrid::new(&[1, 2, 2]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x2);
            let r = try_dist_st_hosvd_ctx(
                &comm,
                &dx,
                &SthosvdOptions::with_ranks(vec![3, 3, 3]),
                &hybrid_ctx(&comm),
            )
            .unwrap();
            dist_reconstruct_ctx(&comm, &r.tucker, &hybrid_ctx(&comm)).gather_to_root(&comm)
        });
        let rec = results[0].as_ref().expect("root gathers reconstruction");
        assert!(normalized_rms_error(&seq_rec, rec) < 1e-9);
    }

    #[test]
    fn uneven_blocks_are_handled() {
        // 3 does not divide 7, and P_n exceeds the truncated rank in mode 1.
        let ctx = ExecContext::global();
        let dims = [7usize, 5, 4];
        let x = wavy(&dims);
        let x2 = x.clone();
        let seq = try_st_hosvd_ctx(&x, &SthosvdOptions::with_ranks(vec![3, 2, 2]), ctx).unwrap();
        let seq_rec = seq.tucker.reconstruct_ctx(ctx);
        let results = spmd_with_grid(ProcGrid::new(&[3, 3, 1]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x2);
            let r = try_dist_st_hosvd_ctx(
                &comm,
                &dx,
                &SthosvdOptions::with_ranks(vec![3, 2, 2]),
                &hybrid_ctx(&comm),
            )
            .unwrap();
            r.tucker.gather_to_root(&comm)
        });
        let rec = results[0].as_ref().unwrap().reconstruct_ctx(ctx);
        assert!(normalized_rms_error(&seq_rec, &rec) < 1e-8);
    }
}
