//! Tab. III (this repo's extension) — storage-layer performance of the
//! `tucker-store` subsystem on the three combustion surrogates.
//!
//! The paper stops at the in-memory decomposition (Tab. II); the system it
//! describes (TuckerMPI) writes the result to disk for later partial
//! reconstruction. This harness measures that storage layer end-to-end at
//! ε = 1e-3 for every codec:
//!
//! * **model ratio** — the paper's logical ratio `∏I / (∏R + Σ I·R)`,
//! * **file ratio**  — raw-f64 bytes of the field over actual `.tkr` bytes
//!   (the quantized codecs roughly double/quadruple the model ratio),
//! * **enc / dec**   — wall-clock encode (write) and open (decode) time,
//! * **query**       — partial-reconstruction throughput on a ~1% window,
//!   in reconstructed Melem/s,
//! * **budget**      — the artifact's declared error budget `ε + q`, which
//!   the measured round-trip error must not exceed.
//!
//! A second table compares point-query throughput: per-point
//! [`TkrArtifact::element`] calls versus one batched
//! [`TkrArtifact::elements`] call (the same `O(∏R)`-per-point contraction,
//! scratch shared across the batch), asserting the two agree bit for bit.
//!
//! Every ratio is asserted finite and every round-trip error is asserted
//! within budget, so CI fails loudly if the storage layer regresses.
//!
//! Run: `cargo run --release -p tucker-bench --bin table3_storage`

use tucker_bench::{eng, print_header, print_row, timed};
use tucker_core::prelude::*;
use tucker_scidata::DatasetPreset;
use tucker_store::{write_tucker_ctx, Codec, StoreOptions, TkrArtifact, TkrMetadata};
use tucker_tensor::relative_error;

fn main() {
    let eps = 1e-3;
    println!("Tab. III — tucker-store storage layer at eps = {eps:.0e}\n");
    let widths = [8usize, 6, 12, 12, 10, 10, 14, 12];
    print_header(
        &[
            "dataset",
            "codec",
            "model ratio",
            "file ratio",
            "enc (s)",
            "dec (s)",
            "query Mel/s",
            "budget",
        ],
        &widths,
    );

    let tmp = std::env::temp_dir();
    for preset in DatasetPreset::all() {
        let ds = preset.generate(1, 2024);
        let dims = ds.data.dims().to_vec();
        let result = try_st_hosvd_ctx(
            &ds.data,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        let model_ratio = result.tucker.compression_ratio(&dims);

        // A ~1% window: one third of every spatial mode, half of the rest.
        let window: Vec<(usize, usize)> = dims
            .iter()
            .enumerate()
            .map(|(n, &d)| {
                if n < dims.len() - 2 {
                    (d / 3, (d / 3).max(1))
                } else {
                    (0, (d / 2).max(1))
                }
            })
            .collect();
        let window_elems: usize = window.iter().map(|&(_, l)| l).product();

        let mut file_ratios = Vec::new();
        for codec in Codec::all() {
            let path = tmp.join(format!(
                "table3_{}_{}_{}.tkr",
                std::process::id(),
                preset.name(),
                codec.name()
            ));
            let opts = StoreOptions::new(codec, eps).with_meta(TkrMetadata::for_dataset(&ds));
            let (report, enc_s) = timed(|| {
                write_tucker_ctx(
                    &path,
                    &result.tucker,
                    &opts,
                    tucker_exec::ExecContext::global(),
                )
                .unwrap()
            });
            let file_ratio = report.compression_ratio(&dims);

            let (artifact, dec_s) =
                timed(|| TkrArtifact::open_ctx(&path, tucker_exec::ExecContext::global()).unwrap());
            std::fs::remove_file(&path).ok();

            let (sub, query_s) = timed(|| artifact.reconstruct_range(&window).unwrap());
            assert_eq!(sub.len(), window_elems);
            let query_meps = window_elems as f64 / query_s.max(1e-12) / 1e6;

            let budget = artifact.error_budget();
            let err = relative_error(&ds.data, &artifact.reconstruct());

            // CI contract: finite, positive ratios and errors within budget.
            assert!(
                model_ratio.is_finite() && model_ratio > 0.0,
                "{}: non-finite model ratio",
                preset.name()
            );
            assert!(
                file_ratio.is_finite() && file_ratio > 0.0,
                "{} {}: non-finite file ratio",
                preset.name(),
                codec.name()
            );
            assert!(
                err <= budget + 1e-12,
                "{} {}: round-trip error {err} exceeds declared budget {budget}",
                preset.name(),
                codec.name()
            );

            print_row(
                &[
                    preset.name().to_string(),
                    codec.name().to_string(),
                    format!("{model_ratio:.1}"),
                    format!("{file_ratio:.1}"),
                    eng(enc_s, 3),
                    eng(dec_s, 3),
                    format!("{query_meps:.1}"),
                    eng(budget, 3),
                ],
                &widths,
            );
            file_ratios.push(file_ratio);
        }
        // The quantized codecs must actually beat the f64 file ratio
        // (Codec::all() is ordered f64, f32, q16).
        assert!(
            file_ratios[2] > file_ratios[1] && file_ratios[1] > file_ratios[0],
            "{}: quantized codecs do not improve the file ratio: {file_ratios:?}",
            preset.name()
        );
    }
    // Point-query throughput: per-point calls vs one batched call.
    println!("\nPoint queries — element() vs batched elements()");
    let widths = [8usize, 8, 14, 14, 9];
    print_header(
        &[
            "dataset",
            "points",
            "single kel/s",
            "batched kel/s",
            "speedup",
        ],
        &widths,
    );
    for preset in DatasetPreset::all() {
        let ds = preset.generate(1, 2024);
        let dims = ds.data.dims().to_vec();
        let result = try_st_hosvd_ctx(
            &ds.data,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        let path = tmp.join(format!(
            "table3_pts_{}_{}.tkr",
            std::process::id(),
            preset.name()
        ));
        write_tucker_ctx(
            &path,
            &result.tucker,
            &StoreOptions::new(Codec::F64, eps),
            tucker_exec::ExecContext::global(),
        )
        .unwrap();
        let artifact = TkrArtifact::open_ctx(&path, tucker_exec::ExecContext::global()).unwrap();
        std::fs::remove_file(&path).ok();

        let n_points = 512usize;
        let points: Vec<Vec<usize>> = (0..n_points)
            .map(|i| {
                dims.iter()
                    .enumerate()
                    .map(|(n, &d)| (i * (2 * n + 3) * 131) % d)
                    .collect()
            })
            .collect();
        let refs: Vec<&[usize]> = points.iter().map(|p| p.as_slice()).collect();

        let (singles, single_s) = timed(|| {
            refs.iter()
                .map(|p| artifact.element(p).unwrap())
                .collect::<Vec<f64>>()
        });
        let (batched, batch_s) = timed(|| artifact.elements(&refs).unwrap());
        for (a, b) in singles.iter().zip(batched.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: batched point query diverged ({a} vs {b})",
                preset.name()
            );
        }
        print_row(
            &[
                preset.name().to_string(),
                format!("{n_points}"),
                format!("{:.1}", n_points as f64 / single_s.max(1e-12) / 1e3),
                format!("{:.1}", n_points as f64 / batch_s.max(1e-12) / 1e3),
                format!("{:.1}x", single_s / batch_s.max(1e-12)),
            ],
            &widths,
        );
    }

    println!(
        "\nShape check passed: every ratio is finite, quantized codecs beat the\n\
         f64 file ratio, every round-trip error is within the declared\n\
         eps + quantization budget, and batched point queries agree bit for\n\
         bit with per-point ones."
    );
}
