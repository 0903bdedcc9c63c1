//! Compress the three combustion-surrogate datasets (HCCI / TJLR / SP) across a
//! sweep of error tolerances — the workflow behind Fig. 7 and Tab. II of the
//! paper, at laptop scale, driven through the `tucker-api` [`Compressor`].
//!
//! Run with:
//! ```text
//! cargo run --release --example combustion_compression
//! ```

use parallel_tucker::prelude::*;
use tucker_tensor::max_abs_diff;

fn main() -> Result<(), TuckerError> {
    println!("Dataset surrogates (paper originals are 70–550 GB; see README.md):\n");
    for preset in DatasetPreset::all() {
        let ds = preset.generate(1, 2024);
        let dims = ds.data.dims().to_vec();
        println!(
            "=== {:5} surrogate: {:?} ({:.1} MB)  [paper: {:?}, {:.0} GB]",
            preset.name(),
            dims,
            ds.data.len() as f64 * 8.0 / 1e6,
            preset.paper_dims(),
            preset.paper_size_bytes() as f64 / 1e9,
        );

        println!(
            "    {:<10} {:>22} {:>12} {:>12} {:>12}",
            "epsilon", "reduced dims", "compression", "ST-HOSVD", "max-abs err"
        );
        for eps in [1e-2, 1e-3, 1e-4] {
            let result = Compressor::new(&ds.data).tolerance(eps).run()?;
            let rec = result.tucker().reconstruct();
            let err = normalized_rms_error(&ds.data, &rec);
            let max_err = max_abs_diff(&ds.data, &rec);
            println!(
                "    {:<10.0e} {:>22} {:>11.1}x {:>12.3e} {:>12.3e}",
                eps,
                format!("{:?}", result.ranks()),
                result.tucker().compression_ratio(ds.data.dims()),
                err,
                max_err
            );
        }

        // One HOOI refinement at eps = 1e-3, mirroring Tab. II's comparison:
        // the same builder, with the ST-HOSVD ranks fixed and two sweeps.
        let eps = 1e-3;
        let st = Compressor::new(&ds.data).tolerance(eps).run()?;
        let ho = Compressor::new(&ds.data)
            .ranks(st.ranks().to_vec())
            .refine(Refine::sweeps(2))
            .run()?;
        let st_err = normalized_rms_error(&ds.data, &st.tucker().reconstruct());
        let ho_err = normalized_rms_error(&ds.data, &ho.tucker().reconstruct());
        println!(
            "    HOOI refinement at eps=1e-3: {:.4e} -> {:.4e} (improvement {:.2}%)\n",
            st_err,
            ho_err,
            100.0 * (st_err - ho_err) / st_err.max(1e-300)
        );
    }
    println!(
        "As in the paper, SP compresses hardest, TJLR least, and HOOI adds only\n\
         marginal improvement over the ST-HOSVD initialization."
    );
    Ok(())
}
