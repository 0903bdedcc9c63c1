//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see README.md, "Reproducing the paper's figures and tables", for the
//! experiment index). They share the helpers here:
//! simple fixed-width table printing, a flop counter for reporting effective
//! GFLOP/s, and wrappers that run the distributed ST-HOSVD on a given grid and
//! return its kernel-timing breakdown.

use std::time::Instant;
use tucker_core::dist::{dist_st_hosvd, DistTensor, KernelTimings};
use tucker_core::sthosvd::SthosvdOptions;
use tucker_distmem::{CostModel, MachineParams, ProcGrid, StatsSnapshot};
use tucker_net::{spmd_transport, transport_from_env, TransportKind};
use tucker_tensor::DenseTensor;

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths.iter()) {
        line.push_str(&format!("{:>width$}  ", cell, width = w));
    }
    println!("{}", line.trim_end());
}

/// Prints a header row followed by a separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
}

/// Total flops of a sequential ST-HOSVD (Gram + TTM + eigensolver) — used to
/// report effective GFLOP/s in the scaling harnesses. Matches the Sec. VI-A
/// accounting with `P = 1`.
pub fn st_hosvd_flops(dims: &[usize], ranks: &[usize], order: &[usize]) -> f64 {
    let model = CostModel::new(
        ProcGrid::new(&vec![1; dims.len()]),
        MachineParams::edison_like(),
    );
    model.st_hosvd(dims, ranks, order).flops
}

/// The outcome of one distributed ST-HOSVD run (in-process threads or, with
/// `TUCKER_TRANSPORT=tcp`, real spawned processes over the TCP mesh).
#[derive(Debug, Clone)]
pub struct DistRunReport {
    /// The processor grid used.
    pub grid: Vec<usize>,
    /// Wall-clock seconds of the SPMD region.
    pub elapsed: f64,
    /// Maximum (over ranks) per-kernel timing breakdown.
    pub timings: KernelTimings,
    /// Aggregate communication statistics across all ranks.
    pub comm: StatsSnapshot,
    /// The ranks the run selected.
    pub ranks: Vec<usize>,
    /// Which backend carried the messages (`"inproc"` / `"tcp"`).
    pub transport: &'static str,
}

impl DistRunReport {
    /// Per-kernel totals `(gram, evecs, ttm)` in seconds.
    pub fn kernel_totals(&self) -> (f64, f64, f64) {
        self.timings.totals()
    }
}

/// The transport the harness binaries run their SPMD regions on, from
/// `TUCKER_TRANSPORT` (default in-process threads).
pub fn bench_transport() -> TransportKind {
    transport_from_env()
}

/// One banner line for the harness binaries: which backend, how selected.
pub fn transport_banner() -> String {
    match bench_transport() {
        TransportKind::InProc => {
            "transport: inproc (threads; TUCKER_TRANSPORT=tcp for real processes)".to_string()
        }
        TransportKind::Tcp => format!(
            "transport: tcp (spawned processes, TUCKER_RANKS={})",
            tucker_net::env_ranks()
        ),
    }
}

/// Runs the distributed ST-HOSVD of `data` on the given grid and reports
/// timings and communication volume. The tensor is replicated per rank for
/// block extraction (fine at harness scales).
///
/// With `TUCKER_TRANSPORT=tcp` the ranks are spawned worker processes of the
/// current binary, wired into a loopback TCP mesh: the report's `comm` then
/// carries non-zero `wire_bytes_*`, and `elapsed` includes real socket time.
/// Results are bit-identical across backends (ARCHITECTURE §10).
pub fn run_dist_sthosvd(
    data: &DenseTensor,
    grid_shape: &[usize],
    opts: &SthosvdOptions,
) -> DistRunReport {
    let kind = bench_transport();
    let grid = ProcGrid::new(grid_shape);
    let exec_args: Vec<String> = std::env::args().skip(1).collect();
    let data = data.clone();
    let opts = opts.clone();
    let handle = spmd_transport(kind, "dist_sthosvd", grid, &exec_args, move |comm| {
        let dx = DistTensor::from_global(&comm, &data);
        let result = dist_st_hosvd(&comm, &dx, &opts);
        (result.ranks.clone(), result.timings.clone())
    });
    // Use the slowest rank's per-kernel breakdown (critical path).
    let timings = handle
        .results
        .iter()
        .map(|(_, t)| t.clone())
        .max_by(|a, b| a.total().partial_cmp(&b.total()).unwrap())
        .unwrap_or_default();
    DistRunReport {
        grid: grid_shape.to_vec(),
        elapsed: handle.elapsed,
        timings,
        comm: handle.total_stats(),
        ranks: handle.results[0].0.clone(),
        transport: kind.label(),
    }
}

/// Times a closure and returns `(result, seconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Formats a float in engineering style with the given precision.
pub fn eng(v: f64, digits: usize) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    if v.abs() >= 1e4 || v.abs() < 1e-2 {
        format!("{:.*e}", digits, v)
    } else {
        format!("{:.*}", digits, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tucker_core::rank::RankSelection;

    #[test]
    fn flop_count_scales_with_problem_size() {
        let small = st_hosvd_flops(&[20, 20, 20], &[5, 5, 5], &[0, 1, 2]);
        let large = st_hosvd_flops(&[40, 40, 40], &[5, 5, 5], &[0, 1, 2]);
        assert!(large > 6.0 * small);
    }

    #[test]
    fn eng_formatting() {
        assert_eq!(eng(0.0, 2), "0");
        assert!(eng(12345.0, 2).contains('e'));
        assert_eq!(eng(3.14159, 2), "3.14");
    }

    #[test]
    fn dist_run_report_smoke() {
        let x = DenseTensor::from_fn(&[8, 8, 8], |idx| (idx[0] + idx[1] + idx[2]) as f64);
        let opts = SthosvdOptions {
            rank: RankSelection::Fixed(vec![2, 2, 2]),
            order: tucker_core::ordering::ModeOrder::Natural,
        };
        let report = run_dist_sthosvd(&x, &[2, 1, 2], &opts);
        assert_eq!(report.ranks, vec![2, 2, 2]);
        assert_eq!(report.timings.gram.len(), 3);
        assert!(report.elapsed > 0.0);
        let (g, e, t) = report.kernel_totals();
        assert!(g >= 0.0 && e >= 0.0 && t >= 0.0);
    }

    #[test]
    fn timed_returns_result() {
        let (v, s) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }
}
