//! Tab. II — compression and errors at a maximum normalized RMS error threshold
//! of 1e-3 for the three datasets, comparing ST-HOSVD against HOOI.
//!
//! Paper rows (for reference):
//!   HCCI: reduced (297,279,29,153), norm RMS 9.26e-4 (both), ratio 25
//!   TJLR: reduced (306,232,239,35,16), norm RMS 7.62e-4 (both), ratio 7
//!   SP:   reduced (81,129,127,7,32),  norm RMS 8.66e-4 (both), ratio 231
//! The headline finding is that HOOI barely improves on ST-HOSVD.
//!
//! Run: `cargo run --release -p tucker-bench --bin table2_compression`

use tucker_bench::{eng, print_header, print_row};
use tucker_core::hooi::{try_hooi_ctx, HooiOptions};
use tucker_core::prelude::*;
use tucker_scidata::DatasetPreset;
use tucker_tensor::{max_abs_diff, normalized_rms_error};

fn main() {
    let eps = 1e-3;
    println!("Tab. II — compression and errors at eps = {eps:.0e}\n");
    let widths = [8usize, 24, 12, 12, 12, 12, 12];
    print_header(
        &[
            "dataset",
            "reduced dims",
            "ST nrms",
            "ST maxerr",
            "HOOI nrms",
            "HOOI maxerr",
            "ratio",
        ],
        &widths,
    );

    for preset in DatasetPreset::all() {
        let ds = preset.generate(1, 2024);
        let dims = ds.data.dims().to_vec();

        let st = try_st_hosvd_ctx(
            &ds.data,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        let st_rec = st.tucker.reconstruct_ctx(ExecContext::global());
        let st_err = normalized_rms_error(&ds.data, &st_rec);
        let st_max = max_abs_diff(&ds.data, &st_rec);

        let ho = try_hooi_ctx(
            &ds.data,
            &HooiOptions::with_ranks(st.ranks.clone(), 2),
            ExecContext::global(),
        )
        .unwrap();
        let ho_rec = ho.tucker.reconstruct_ctx(ExecContext::global());
        let ho_err = normalized_rms_error(&ds.data, &ho_rec);
        let ho_max = max_abs_diff(&ds.data, &ho_rec);

        let ratio = st.tucker.compression_ratio(&dims);
        print_row(
            &[
                preset.name().to_string(),
                format!("{:?}", st.ranks),
                eng(st_err, 3),
                eng(st_max, 3),
                eng(ho_err, 3),
                eng(ho_max, 3),
                format!("{ratio:.0}"),
            ],
            &widths,
        );

        // Shape checks mirroring the paper's observations.
        assert!(st_err <= eps, "ST-HOSVD must satisfy the error threshold");
        assert!(
            ho_err <= st_err + 1e-12,
            "HOOI must not be worse than ST-HOSVD"
        );
        // HOOI gives only marginal improvement (Sec. VII-C). Skip the relative
        // check when the error sits at machine precision (untruncated modes),
        // where the ratio is pure rounding noise.
        if st_err > 1e-12 {
            assert!(
                (st_err - ho_err) / st_err < 0.2,
                "HOOI should give only marginal improvement (paper Sec. VII-C)"
            );
        }
    }
    println!(
        "\nShape check passed: both algorithms meet the 1e-3 threshold and HOOI's\n\
         improvement over ST-HOSVD is marginal, matching Tab. II. Absolute ratios\n\
         differ from the paper because the surrogates are laptop-sized."
    );
}
