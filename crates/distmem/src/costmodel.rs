//! The α-β-γ cost model of the paper (Tab. I, Secs. V–VI).
//!
//! The model charges `α` seconds of latency per message, `β` seconds per `f64`
//! word moved, and `γ` seconds per floating-point operation. Collective costs
//! follow Tab. I. Kernel costs follow the derivations of Sec. V (TTM, Gram,
//! eigenvectors) and Sec. VI (ST-HOSVD and HOOI totals); because every formula
//! is parameterized by the current tensor dimensions and grid, the model can
//! evaluate arbitrary mode orderings (Fig. 8b) and processor grids (Fig. 8a),
//! and extrapolate strong/weak scaling far beyond the core count of the host
//! machine (Figs. 9a/9b).

use crate::grid::ProcGrid;

/// Machine parameters for the α-β-γ model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Latency per message, in seconds.
    pub alpha: f64,
    /// Inverse bandwidth, in seconds per `f64` word.
    pub beta: f64,
    /// Time per floating-point operation, in seconds.
    pub gamma: f64,
}

impl MachineParams {
    /// Parameters loosely modelled on NERSC Edison (the paper's platform):
    /// 19.2 GFLOP/s per core, ~1 µs message latency, ~8 GB/s injection
    /// bandwidth per core (so 1 ns per 8-byte word).
    pub fn edison_like() -> Self {
        MachineParams {
            alpha: 1.0e-6,
            beta: 1.0e-9,
            gamma: 1.0 / 19.2e9,
        }
    }

    /// Builds parameters from measured per-core peak flops, latency, and bandwidth.
    pub fn from_measurements(flops_per_sec: f64, latency_sec: f64, words_per_sec: f64) -> Self {
        MachineParams {
            alpha: latency_sec,
            beta: 1.0 / words_per_sec,
            gamma: 1.0 / flops_per_sec,
        }
    }
}

/// A decomposed cost: message count (latency), word count (bandwidth) and flops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCost {
    /// Number of α-charged message start-ups on the critical path.
    pub messages: f64,
    /// Number of β-charged words moved on the critical path.
    pub words: f64,
    /// Number of γ-charged flops on the critical path.
    pub flops: f64,
}

impl KernelCost {
    /// Zero cost.
    pub fn zero() -> Self {
        KernelCost::default()
    }

    /// Sum of two costs (sequential composition).
    pub fn plus(&self, other: &KernelCost) -> KernelCost {
        KernelCost {
            messages: self.messages + other.messages,
            words: self.words + other.words,
            flops: self.flops + other.flops,
        }
    }

    /// Scales a cost by a repetition count.
    pub fn times(&self, n: f64) -> KernelCost {
        KernelCost {
            messages: self.messages * n,
            words: self.words * n,
            flops: self.flops * n,
        }
    }

    /// Predicted time under the given machine parameters.
    pub fn time(&self, m: &MachineParams) -> f64 {
        m.alpha * self.messages + m.beta * self.words + m.gamma * self.flops
    }

    /// Predicted time split into (latency, bandwidth, compute) seconds.
    pub fn time_breakdown(&self, m: &MachineParams) -> (f64, f64, f64) {
        (
            m.alpha * self.messages,
            m.beta * self.words,
            m.gamma * self.flops,
        )
    }
}

/// Costs of the collectives in Tab. I, for `p` participants and `w` words.
pub mod collective_cost {
    use super::KernelCost;

    /// Point-to-point send/receive of `w` words.
    pub fn send_recv(w: f64) -> KernelCost {
        KernelCost {
            messages: 1.0,
            words: w,
            flops: 0.0,
        }
    }

    /// All-gather of a combined `w` words over `p` ranks.
    pub fn all_gather(p: f64, w: f64) -> KernelCost {
        if p <= 1.0 {
            return KernelCost::zero();
        }
        KernelCost {
            messages: p.log2().ceil(),
            words: (p - 1.0) / p * w,
            flops: 0.0,
        }
    }

    /// Reduce of `w` words over `p` ranks (flop term included per Tab. I).
    pub fn reduce(p: f64, w: f64) -> KernelCost {
        if p <= 1.0 {
            return KernelCost::zero();
        }
        KernelCost {
            messages: p.log2().ceil(),
            words: (p - 1.0) / p * w,
            flops: (p - 1.0) / p * w,
        }
    }

    /// All-reduce of `w` words over `p` ranks.
    pub fn all_reduce(p: f64, w: f64) -> KernelCost {
        if p <= 1.0 {
            return KernelCost::zero();
        }
        KernelCost {
            messages: 2.0 * p.log2().ceil(),
            words: 2.0 * (p - 1.0) / p * w,
            flops: (p - 1.0) / p * w,
        }
    }
}

/// The cost model for the parallel Tucker kernels on a fixed processor grid.
#[derive(Debug, Clone)]
pub struct CostModel {
    grid: ProcGrid,
    params: MachineParams,
}

impl CostModel {
    /// Creates a model for the given grid and machine parameters.
    pub fn new(grid: ProcGrid, params: MachineParams) -> Self {
        CostModel { grid, params }
    }

    /// The machine parameters in use.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// The processor grid in use.
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// Cost of the parallel TTM `Z = Y ×_n V` (Alg. 3, Sec. V-B), where `Y` has
    /// (current) global dimensions `dims`, the matrix has `k` rows, and the
    /// product is in mode `n`.
    ///
    /// `C_TTM = 2γ·J·K/P + α·P_n·log P_n + β·(P_n − 1)·Ĵ_n·K/P`.
    pub fn ttm(&self, dims: &[usize], n: usize, k: usize) -> KernelCost {
        let p = self.grid.size() as f64;
        let pn = self.grid.dim(n) as f64;
        let j: f64 = dims.iter().map(|&d| d as f64).product();
        let jhat = j / dims[n] as f64;
        let kf = k as f64;
        let flops = 2.0 * j * kf / p;
        let messages = if pn > 1.0 {
            pn * pn.log2().max(1.0)
        } else {
            0.0
        };
        let words = if pn > 1.0 {
            (pn - 1.0) * jhat * kf / p
        } else {
            0.0
        };
        KernelCost {
            messages,
            words,
            flops,
        }
    }

    /// Cost of the parallel Gram `S = Y(n)·Y(n)ᵀ` (Alg. 4, Sec. V-C) for a
    /// tensor with global dimensions `dims`.
    ///
    /// `C_GRAM = 2γ·J_n·J/P + 2(P_n − 1)(α + β·J/P) + 2α·log P̂_n + 2β·(P̂_n − 1)·J_n²/P`.
    pub fn gram(&self, dims: &[usize], n: usize) -> KernelCost {
        let p = self.grid.size() as f64;
        let pn = self.grid.dim(n) as f64;
        let phat = p / pn;
        let j: f64 = dims.iter().map(|&d| d as f64).product();
        let jn = dims[n] as f64;
        let flops = 2.0 * jn * j / p;
        let mut messages = 0.0;
        let mut words = 0.0;
        if pn > 1.0 {
            messages += 2.0 * (pn - 1.0);
            words += 2.0 * (pn - 1.0) * j / p;
        }
        if phat > 1.0 {
            messages += 2.0 * phat.log2().ceil();
            words += 2.0 * (phat - 1.0) * jn * jn / p;
        }
        KernelCost {
            messages,
            words,
            flops,
        }
    }

    /// Cost of the parallel eigenvector computation (Alg. 5, Sec. V-D) for a
    /// Gram matrix of size `in_dim × in_dim`.
    ///
    /// `C_EIG = α·log P_n + β·(P_n − 1)/P_n·I_n² + γ·(10/3)·I_n³`.
    pub fn evecs(&self, in_dim: usize, n: usize) -> KernelCost {
        let pn = self.grid.dim(n) as f64;
        let i = in_dim as f64;
        let messages = if pn > 1.0 { pn.log2().ceil() } else { 0.0 };
        let words = if pn > 1.0 {
            (pn - 1.0) / pn * i * i
        } else {
            0.0
        };
        let flops = 10.0 / 3.0 * i * i * i;
        KernelCost {
            messages,
            words,
            flops,
        }
    }

    /// Per-kernel cost breakdown of ST-HOSVD (Alg. 1) processing the modes in
    /// `order`, reducing mode `n` from `dims[n]` to `ranks[n]`.
    ///
    /// Returns `(gram, evecs, ttm)` totals; the overall cost is their sum.
    pub fn st_hosvd_breakdown(
        &self,
        dims: &[usize],
        ranks: &[usize],
        order: &[usize],
    ) -> (KernelCost, KernelCost, KernelCost) {
        assert_eq!(dims.len(), ranks.len());
        assert_eq!(dims.len(), order.len());
        let mut current: Vec<usize> = dims.to_vec();
        let mut gram_total = KernelCost::zero();
        let mut evec_total = KernelCost::zero();
        let mut ttm_total = KernelCost::zero();
        for &n in order {
            gram_total = gram_total.plus(&self.gram(&current, n));
            evec_total = evec_total.plus(&self.evecs(current[n], n));
            ttm_total = ttm_total.plus(&self.ttm(&current, n, ranks[n]));
            current[n] = ranks[n];
        }
        (gram_total, evec_total, ttm_total)
    }

    /// Total cost of ST-HOSVD with the given mode-processing order.
    pub fn st_hosvd(&self, dims: &[usize], ranks: &[usize], order: &[usize]) -> KernelCost {
        let (g, e, t) = self.st_hosvd_breakdown(dims, ranks, order);
        g.plus(&e).plus(&t)
    }

    /// Cost of one outer HOOI iteration (Alg. 2, Sec. VI-B): for each mode `n`,
    /// a multi-TTM in all other modes, a Gram, and an eigenvector solve, plus
    /// the final TTM that forms the core.
    pub fn hooi_iteration(&self, dims: &[usize], ranks: &[usize]) -> KernelCost {
        let nmodes = dims.len();
        let mut total = KernelCost::zero();
        for n in 0..nmodes {
            // Multi-TTM: multiply by every factor except mode n, in natural order.
            let mut current: Vec<usize> = dims.to_vec();
            for m in 0..nmodes {
                if m == n {
                    continue;
                }
                total = total.plus(&self.ttm(&current, m, ranks[m]));
                current[m] = ranks[m];
            }
            total = total.plus(&self.gram(&current, n));
            total = total.plus(&self.evecs(current[n], n));
        }
        // Final TTM in the last mode to form the core.
        let mut current: Vec<usize> = ranks.to_vec();
        let last = nmodes - 1;
        current[last] = dims[last];
        total = total.plus(&self.ttm(&current, last, ranks[last]));
        total
    }

    /// Predicted ST-HOSVD time in seconds.
    pub fn st_hosvd_time(&self, dims: &[usize], ranks: &[usize], order: &[usize]) -> f64 {
        self.st_hosvd(dims, ranks, order).time(&self.params)
    }

    /// Predicted time of one HOOI iteration in seconds.
    pub fn hooi_iteration_time(&self, dims: &[usize], ranks: &[usize]) -> f64 {
        self.hooi_iteration(dims, ranks).time(&self.params)
    }

    /// Upper bound on per-rank memory (in `f64` words) for ST-HOSVD / HOOI,
    /// eq. (2) of the paper: `2·I/P + Σ R_n·I_n/P_n + max I_n² + max R_n·I_n`.
    pub fn memory_bound_words(&self, dims: &[usize], ranks: &[usize]) -> f64 {
        let p = self.grid.size() as f64;
        let i: f64 = dims.iter().map(|&d| d as f64).product();
        let factors: f64 = dims
            .iter()
            .zip(ranks.iter())
            .enumerate()
            .map(|(n, (&d, &r))| (d as f64) * (r as f64) / self.grid.dim(n) as f64)
            .sum();
        let max_in2 = dims
            .iter()
            .map(|&d| (d as f64) * (d as f64))
            .fold(0.0, f64::max);
        let max_rnin = dims
            .iter()
            .zip(ranks.iter())
            .map(|(&d, &r)| (d as f64) * (r as f64))
            .fold(0.0, f64::max);
        2.0 * i / p + factors + max_in2 + max_rnin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(shape: &[usize]) -> CostModel {
        CostModel::new(ProcGrid::new(shape), MachineParams::edison_like())
    }

    #[test]
    fn ttm_flops_are_grid_independent() {
        let dims = [64usize, 64, 64];
        let a = model(&[1, 1, 8]).ttm(&dims, 0, 16);
        let b = model(&[2, 2, 2]).ttm(&dims, 0, 16);
        assert!((a.flops - b.flops).abs() < 1e-9);
        // Total flops = 2*J*K/P with P=8.
        let expected = 2.0 * 64.0f64.powi(3) * 16.0 / 8.0;
        assert!((a.flops - expected).abs() < 1e-6);
    }

    #[test]
    fn ttm_no_communication_when_pn_is_one() {
        let dims = [64usize, 64, 64];
        let c = model(&[1, 4, 2]).ttm(&dims, 0, 16);
        assert_eq!(c.messages, 0.0);
        assert_eq!(c.words, 0.0);
    }

    #[test]
    fn gram_is_more_expensive_than_ttm_by_dimension_ratio() {
        // Sec. VIII-B: the first Gram costs ~I1/R1 times the first TTM in flops.
        let dims = [384usize, 384, 384, 384];
        let m = model(&[1, 2, 2, 2]);
        let gram = m.gram(&dims, 0);
        let ttm = m.ttm(&dims, 0, 96);
        let ratio = gram.flops / ttm.flops;
        assert!((ratio - 384.0 / 96.0).abs() < 1e-9);
    }

    #[test]
    fn evecs_cost_is_cubic_and_small() {
        let m = model(&[2, 2, 2]);
        let c = m.evecs(200, 0);
        assert!((c.flops - 10.0 / 3.0 * 200.0f64.powi(3)).abs() < 1.0);
    }

    #[test]
    fn st_hosvd_breakdown_sums_to_total() {
        let m = model(&[2, 2, 2, 2]);
        let dims = [100usize, 100, 100, 100];
        let ranks = [10usize, 10, 10, 10];
        let order = [0usize, 1, 2, 3];
        let (g, e, t) = m.st_hosvd_breakdown(&dims, &ranks, &order);
        let total = m.st_hosvd(&dims, &ranks, &order);
        let sum = g.plus(&e).plus(&t);
        assert!((total.flops - sum.flops).abs() < 1e-6);
        assert!((total.words - sum.words).abs() < 1e-6);
    }

    #[test]
    fn processing_small_mode_first_changes_cost() {
        // Fig. 8b: mode ordering matters. Tensor 25x250x250x250 compressed to
        // 10x10x100x100: starting with mode 1 (the highest-compression mode)
        // should beat starting with mode 0 per the paper's discussion.
        let dims = [25usize, 250, 250, 250];
        let ranks = [10usize, 10, 100, 100];
        let m = model(&[2, 2, 2, 2]);
        let natural = m.st_hosvd_time(&dims, &ranks, &[0, 1, 2, 3]);
        let start_mode1 = m.st_hosvd_time(&dims, &ranks, &[1, 0, 2, 3]);
        assert!(natural != start_mode1);
    }

    #[test]
    fn hooi_iteration_costs_more_than_sthosvd() {
        let dims = [200usize, 200, 200, 200];
        let ranks = [20usize, 20, 20, 20];
        let m = model(&[2, 2, 2, 3]);
        let st = m.st_hosvd(&dims, &ranks, &[0, 1, 2, 3]);
        let hooi = m.hooi_iteration(&dims, &ranks);
        // HOOI's multi-TTMs do more work than ST-HOSVD's single TTMs per mode.
        assert!(hooi.flops > 0.0 && st.flops > 0.0);
    }

    #[test]
    fn strong_scaling_reduces_time() {
        let dims = [200usize, 200, 200, 200];
        let ranks = [20usize, 20, 20, 20];
        let order = [0usize, 1, 2, 3];
        let t1 = model(&[1, 1, 1, 1]).st_hosvd_time(&dims, &ranks, &order);
        let t16 = model(&[2, 2, 2, 2]).st_hosvd_time(&dims, &ranks, &order);
        let t256 = model(&[4, 4, 4, 4]).st_hosvd_time(&dims, &ranks, &order);
        assert!(t16 < t1);
        assert!(t256 < t16);
    }

    #[test]
    fn memory_bound_matches_eq2_structure() {
        let m = model(&[2, 2]);
        let dims = [100usize, 100];
        let ranks = [10usize, 10];
        let bound = m.memory_bound_words(&dims, &ranks);
        let expected = 2.0 * 10_000.0 / 4.0 + 2.0 * (100.0 * 10.0 / 2.0) + 10_000.0 + 1000.0;
        assert!((bound - expected).abs() < 1e-9);
    }

    #[test]
    fn collective_costs_match_table1_shapes() {
        use super::collective_cost::*;
        let c = all_reduce(8.0, 1000.0);
        assert!((c.words - 2.0 * 7.0 / 8.0 * 1000.0).abs() < 1e-9);
        assert_eq!(c.messages, 6.0);
        let r = reduce(8.0, 1000.0);
        assert!((r.words - 7.0 / 8.0 * 1000.0).abs() < 1e-9);
        let g = all_gather(1.0, 1000.0);
        assert_eq!(g.words, 0.0);
        let s = send_recv(123.0);
        assert_eq!(s.messages, 1.0);
        assert_eq!(s.words, 123.0);
    }

    #[test]
    fn kernel_cost_algebra() {
        let a = KernelCost {
            messages: 1.0,
            words: 10.0,
            flops: 100.0,
        };
        let b = a.times(3.0).plus(&a);
        assert_eq!(b.messages, 4.0);
        assert_eq!(b.words, 40.0);
        assert_eq!(b.flops, 400.0);
        let p = MachineParams {
            alpha: 1.0,
            beta: 0.1,
            gamma: 0.01,
        };
        assert!((a.time(&p) - (1.0 + 1.0 + 1.0)).abs() < 1e-12);
        let (l, w, f) = a.time_breakdown(&p);
        assert!((l - 1.0).abs() < 1e-12 && (w - 1.0).abs() < 1e-12 && (f - 1.0).abs() < 1e-12);
    }
}
