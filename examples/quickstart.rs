//! Quickstart: compress a synthetic scientific tensor, inspect the result,
//! reconstruct, and measure the error — through the unified `tucker-api`
//! facade.
//!
//! Exercises the paper's core sequential workflow (Secs. II–III): ST-HOSVD
//! with ε-driven rank selection (Alg. 1), HOOI refinement (Alg. 2), and
//! partial reconstruction from the compressed form (eq. (1), Sec. II-C).
//! Everything goes through [`Compressor`]: the builder validates the inputs
//! and dispatches to the exact same kernels the lower-level
//! `try_st_hosvd_ctx` / `try_hooi_ctx` calls would run, bit for bit.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use parallel_tucker::prelude::*;

fn main() -> Result<(), TuckerError> {
    // ------------------------------------------------------------------
    // 1. Build a 4-way data tensor: a small synthetic "simulation" with two
    //    spatial dimensions, a handful of variables, and time steps.
    // ------------------------------------------------------------------
    let dims = [40usize, 40, 8, 20];
    println!(
        "Generating a {:?} tensor ({} values, {:.1} MB)…",
        dims,
        dims.iter().product::<usize>(),
        dims.iter().product::<usize>() as f64 * 8.0 / 1e6
    );
    #[expect(
        clippy::approx_constant,
        reason = "6.28 is the background's wave number, kept as written so the field's bits stay"
    )]
    let x = DenseTensor::from_fn(&dims, |idx| {
        let (i, j, v, t) = (
            idx[0] as f64 / 40.0,
            idx[1] as f64 / 40.0,
            idx[2] as f64,
            idx[3] as f64 / 20.0,
        );
        // A traveling Gaussian bump whose amplitude depends on the variable,
        // plus a smooth background: clearly low-rank structure.
        let cx = 0.3 + 0.4 * t;
        let cy = 0.5;
        let bump = (-((i - cx).powi(2) + (j - cy).powi(2)) / 0.02).exp();
        (1.0 + 0.5 * v) * bump + 0.1 * (6.28 * (i + j)).sin()
    });

    // ------------------------------------------------------------------
    // 2. Compress with ST-HOSVD at a few tolerances.
    // ------------------------------------------------------------------
    println!(
        "\n{:<10} {:>18} {:>14} {:>14}",
        "epsilon", "core size", "compression", "actual error"
    );
    for eps in [1e-2, 1e-4, 1e-6] {
        let result = Compressor::new(&x).tolerance(eps).run()?;
        let rec = result.tucker().reconstruct_ctx(ExecContext::global());
        let err = normalized_rms_error(&x, &rec);
        println!(
            "{:<10.0e} {:>18} {:>13.1}x {:>14.2e}",
            eps,
            format!("{:?}", result.ranks()),
            result.tucker().compression_ratio(&dims),
            err
        );
        assert!(err <= eps, "the error guarantee must hold");
    }

    // ------------------------------------------------------------------
    // 3. Refine with HOOI and compare. The builder reuses the ST-HOSVD
    //    ranks by fixing them for the refined run.
    // ------------------------------------------------------------------
    let eps = 1e-4;
    let st = Compressor::new(&x).tolerance(eps).run()?;
    let ho = Compressor::new(&x)
        .ranks(st.ranks().to_vec())
        .refine(Refine::sweeps(3))
        .run()?;
    let st_err = normalized_rms_error(&x, &st.tucker().reconstruct_ctx(ExecContext::global()));
    let ho_err = normalized_rms_error(&x, &ho.tucker().reconstruct_ctx(ExecContext::global()));
    let iterations = ho.hooi().map_or(0, |h| h.iterations);
    println!(
        "\nST-HOSVD error {:.3e}  →  HOOI error {:.3e}  ({} iterations)",
        st_err, ho_err, iterations
    );

    // ------------------------------------------------------------------
    // 4. Reconstruct only a subset: one variable at the final time step.
    // ------------------------------------------------------------------
    let spec = SubtensorSpec::all(&dims)
        .restrict_mode(2, vec![3])
        .restrict_mode(3, vec![19]);
    let sub = tucker_core::reconstruct_subtensor_ctx(st.tucker(), &spec, ExecContext::global());
    println!(
        "\nReconstructed a single variable/time-step slice of shape {:?} \
         without forming the full tensor.",
        sub.dims()
    );

    // ------------------------------------------------------------------
    // 5. Malformed input is an error value, not a crash: the builder
    //    validates before any kernel runs.
    // ------------------------------------------------------------------
    let bad = Compressor::new(&x).ranks(vec![999, 1, 1, 1]).run();
    println!(
        "\nAsking for rank 999 in a 40-wide mode fails cleanly:\n  {}",
        bad.err().map_or_else(String::new, |e| e.to_string())
    );
    println!("Done.");
    Ok(())
}
