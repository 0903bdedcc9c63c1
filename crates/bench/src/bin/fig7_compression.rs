//! Fig. 7 — approximation error versus compression ratio for all three
//! datasets (HCCI, TJLR, SP).
//!
//! The paper's qualitative result: TJLR is the least compressible (ratios 2–37
//! over ε = 10⁻⁶ … 10⁻²), SP the most (5–5600), HCCI in between. The surrogate
//! sweep reproduces that ordering at every tolerance.
//!
//! Run: `cargo run --release -p tucker-bench --bin fig7_compression`

use tucker_bench::{eng, print_header, print_row};
use tucker_core::prelude::*;
use tucker_scidata::DatasetPreset;
use tucker_tensor::normalized_rms_error;

fn main() {
    let epsilons = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
    println!("Fig. 7 — compression ratio vs max normalized RMS error\n");

    let mut table: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for preset in DatasetPreset::all() {
        let ds = preset.generate(1, 7);
        let dims = ds.data.dims().to_vec();
        let mut series = Vec::new();
        for &eps in &epsilons {
            let result = try_st_hosvd_ctx(
                &ds.data,
                &SthosvdOptions::with_tolerance(eps),
                ExecContext::global(),
            )
            .unwrap();
            let rec = result.tucker.reconstruct_ctx(ExecContext::global());
            let err = normalized_rms_error(&ds.data, &rec);
            let ratio = result.tucker.compression_ratio(&dims);
            series.push((err, ratio));
        }
        table.push((preset.name().to_string(), series));
    }

    let widths = [12usize, 22, 22, 22];
    print_header(
        &[
            "target eps",
            "HCCI (err, ratio)",
            "TJLR (err, ratio)",
            "SP (err, ratio)",
        ],
        &widths,
    );
    for (i, &eps) in epsilons.iter().enumerate() {
        let cell = |name: &str| -> String {
            let (err, ratio) = table.iter().find(|(n, _)| n == name).unwrap().1[i];
            format!("{}, {:.1}x", eng(err, 1), ratio)
        };
        print_row(
            &[format!("{eps:.0e}"), cell("HCCI"), cell("TJLR"), cell("SP")],
            &widths,
        );
    }

    // Shape checks mirroring the paper's conclusions.
    let ratio_at = |name: &str, i: usize| table.iter().find(|(n, _)| n == name).unwrap().1[i].1;
    let last = epsilons.len() - 1;
    assert!(
        ratio_at("SP", last) > ratio_at("HCCI", last)
            && ratio_at("HCCI", last) > ratio_at("TJLR", last),
        "compressibility ordering SP > HCCI > TJLR must hold at loose tolerance"
    );
    assert!(
        ratio_at("SP", last) / ratio_at("SP", 0) > ratio_at("TJLR", last) / ratio_at("TJLR", 0),
        "SP's ratio must grow faster with eps than TJLR's"
    );
    println!(
        "\nShape check passed: SP >> HCCI >> TJLR in compressibility, and the spread\n\
         widens as the tolerance is relaxed — the Fig. 7 ordering."
    );
}
