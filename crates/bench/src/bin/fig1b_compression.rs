//! Fig. 1b — compression ratio vs normalized RMS error for the SP dataset.
//!
//! The paper reports ratios of roughly 5, 16, 55, 231 and 5 580 at errors
//! 10⁻⁶ … 10⁻² for the 550 GB SP dataset. The surrogate reproduces the shape:
//! orders-of-magnitude growth of the compression ratio as the tolerance is
//! relaxed, with the steepest gains between 10⁻⁴ and 10⁻².
//!
//! Run: `cargo run --release -p tucker-bench --bin fig1b_compression`

use tucker_bench::{eng, print_header, print_row};
use tucker_core::prelude::*;
use tucker_scidata::DatasetPreset;
use tucker_tensor::normalized_rms_error;

fn main() {
    let ds = DatasetPreset::Sp.generate(1, 42);
    let dims = ds.data.dims().to_vec();
    println!(
        "Fig. 1b — compression vs error, SP surrogate {:?} (paper: {:?}, 550 GB)\n",
        dims,
        DatasetPreset::Sp.paper_dims()
    );

    let widths = [12usize, 26, 16, 16];
    print_header(
        &["target eps", "reduced dims", "achieved err", "compression"],
        &widths,
    );
    let mut last_ratio = 0.0;
    for eps in [1e-6, 1e-5, 1e-4, 1e-3, 1e-2] {
        let result = try_st_hosvd_ctx(
            &ds.data,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        let rec = result.tucker.reconstruct_ctx(ExecContext::global());
        let err = normalized_rms_error(&ds.data, &rec);
        let ratio = result.tucker.compression_ratio(&dims);
        print_row(
            &[
                format!("{eps:.0e}"),
                format!("{:?}", result.ranks),
                eng(err, 2),
                format!("{:.1}x", ratio),
            ],
            &widths,
        );
        assert!(err <= eps + 1e-12, "tolerance guarantee violated");
        assert!(
            ratio >= last_ratio - 1e-9,
            "compression ratio must grow as the tolerance is relaxed"
        );
        last_ratio = ratio;
    }
    println!(
        "\nShape check (paper Fig. 1b): ratio grows monotonically by orders of\n\
         magnitude from eps = 1e-6 to 1e-2. Absolute values differ because the\n\
         surrogate is far smaller than the 550 GB original (see README.md,\n\
         \"Reproducing the paper's figures and tables\")."
    );
}
