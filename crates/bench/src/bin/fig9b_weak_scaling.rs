//! Fig. 9b — weak scaling of ST-HOSVD and one HOOI iteration.
//!
//! The paper fixes the data per processor ((200k)⁴ tensors on 24·k⁴ cores for
//! k = 1…6, up to 15 TB on 1296 nodes) and reports GFLOP/s per core, which
//! falls from ~66% of peak on one node to ~17% on 1296 nodes. The harness
//! measures small simulated-runtime runs with constant per-rank data (checking
//! that per-rank computation stays constant while communication grows) and then
//! evaluates the α-β-γ model at the paper's scale to regenerate the efficiency
//! curve.
//!
//! Run: `cargo run --release -p tucker-bench --bin fig9b_weak_scaling`

use tucker_bench::{print_header, print_row, run_dist_sthosvd, st_hosvd_flops};
use tucker_core::prelude::*;
use tucker_distmem::{CostModel, MachineParams, ProcGrid};
use tucker_scidata::random_low_rank;

fn main() {
    // ------------------------------------------------------------------
    // Measured part: per-rank block held at 12^4 while the grid grows.
    // ------------------------------------------------------------------
    println!("Fig. 9b (measured, simulated runtime) — constant 12^4 data per rank\n");
    println!("{}\n", tucker_bench::transport_banner());
    let widths = [16usize, 8, 14, 18, 18];
    print_header(&["grid", "P", "dims", "words moved", "flops/rank"], &widths);
    let mut per_rank_flops = Vec::new();
    for k in 1..=2usize {
        let grid: Vec<usize> = vec![k, k, k, k];
        let p: usize = grid.iter().product();
        let dims: Vec<usize> = vec![12 * k; 4];
        let ranks: Vec<usize> = vec![3 * k; 4];
        let x = random_low_rank(123, &dims, &ranks);
        let opts = SthosvdOptions::with_ranks(ranks.clone());
        let report = run_dist_sthosvd(&x, &grid, &opts);
        let flops = st_hosvd_flops(&dims, &ranks, &[0, 1, 2, 3]) / p as f64;
        per_rank_flops.push(flops);
        print_row(
            &[
                format!("{grid:?}"),
                format!("{p}"),
                format!("{:?}", dims),
                format!("{}", report.comm.words_sent),
                format!("{flops:.2e}"),
            ],
            &widths,
        );
    }
    // Weak scaling: per-rank flops stay within a small factor as P grows
    // (they grow slightly because the reduced dimensions grow with k, exactly
    // as in the paper's setup).
    let ratio = per_rank_flops[1] / per_rank_flops[0];
    assert!(
        ratio < 4.0,
        "per-rank work should stay bounded in the weak-scaling regime (got {ratio:.2}x)"
    );

    // ------------------------------------------------------------------
    // Model part: the paper-scale efficiency curve ((200k)^4 on 24·k^4 cores).
    // ------------------------------------------------------------------
    println!("\nFig. 9b (alpha-beta-gamma model, paper scale (200k)^4 -> (20k)^4, P = 24·k^4):\n");
    let params = MachineParams::edison_like();
    let peak_per_core = 1.0 / params.gamma; // flop/s
    let widths = [6usize, 10, 14, 16, 18, 14];
    print_header(
        &[
            "k",
            "nodes",
            "cores",
            "data size",
            "GFLOPS/core",
            "% of peak",
        ],
        &widths,
    );
    let mut efficiencies = Vec::new();
    for k in 1..=6usize {
        let nodes = k * k * k * k;
        let cores = 24 * nodes;
        let dims = vec![200 * k; 4];
        let ranks = vec![20 * k; 4];
        // The paper tunes over a few candidate grids; use the same three shapes.
        let candidates = [
            vec![1, 1, 4 * k * k, 6 * k * k],
            vec![k, k, 4 * k, 6 * k],
            vec![k, 2 * k, 3 * k, 4 * k],
        ];
        let best = candidates
            .iter()
            .filter(|g| g.iter().product::<usize>() == cores)
            .map(|g| {
                let model = CostModel::new(ProcGrid::new(g), params);
                model.st_hosvd_time(&dims, &ranks, &[0, 1, 2, 3])
                    + model.hooi_iteration_time(&dims, &ranks)
            })
            .fold(f64::INFINITY, f64::min);
        let model1 = CostModel::new(ProcGrid::new(&[1; 4]), params);
        let total_flops = model1.st_hosvd(&dims, &ranks, &[0, 1, 2, 3]).flops
            + model1.hooi_iteration(&dims, &ranks).flops;
        let gflops_per_core = total_flops / best / cores as f64 / 1e9;
        let efficiency = gflops_per_core * 1e9 / peak_per_core;
        efficiencies.push(efficiency);
        let data_gb = dims.iter().map(|&d| d as f64).product::<f64>() * 8.0 / 1e9;
        print_row(
            &[
                format!("{k}"),
                format!("{nodes}"),
                format!("{cores}"),
                format!("{:.1} GB", data_gb),
                format!("{gflops_per_core:.2}"),
                format!("{:.0}%", 100.0 * efficiency),
            ],
            &widths,
        );
    }
    // Shape check: efficiency decreases with scale and stays within the band the
    // paper reports (tens of percent at one node, >10% at 1296 nodes).
    assert!(
        efficiencies.windows(2).all(|w| w[1] <= w[0] + 1e-9),
        "per-core efficiency must not increase with scale"
    );
    assert!(
        efficiencies[0] > 0.3,
        "single-node efficiency should be tens of percent"
    );
    assert!(
        *efficiencies.last().unwrap() > 0.05,
        "largest-scale efficiency should stay above a few percent"
    );
    println!(
        "\nShape check passed: per-core performance decays gradually as the machine\n\
         grows — the Fig. 9b curve (the paper reports 66% of peak at one node and\n\
         17% at 1296 nodes; the model reproduces that qualitative falloff)."
    );
    // Under TUCKER_TRACE, close the sink so the chrome trace of the
    // distributed runs is complete and strictly valid JSON.
    tucker_obs::trace::uninstall();
}
