//! The out-of-core pipeline's contracts (ISSUE 4 acceptance criteria):
//!
//! * `try_st_hosvd_streaming_ctx` output — factors, core, ranks, eigenvalues,
//!   discarded energy, error bound — is **bit-identical** to `try_st_hosvd_ctx`
//!   on the same data for every slab width (1, a prime, the full last mode)
//!   and every thread count including oversubscription (the CI runs this
//!   suite under `TUCKER_THREADS=32` as well);
//! * the facade's streaming pipeline (`Compressor::from_slabs(..).write_to`)
//!   produces artifacts **byte-identical** to the in-memory
//!   `write_tucker_ctx` pipeline;
//! * every codec round-trips through the lazy `TkrReader` with byte-identical
//!   query answers while decoding no more than the touched chunks and
//!   keeping at most the cache capacity resident;
//! * the scidata slab generators drive the streaming path to the same bits
//!   as compressing their materialized field.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tucker_api::Compressor;
use tucker_core::prelude::*;
use tucker_exec::ExecContext;
use tucker_scidata::CombustionConfig;
use tucker_store::{
    write_tucker_ctx, Codec, StoreOptions, TkrArtifact, TkrHeader, TkrMetadata, TkrReader,
    TkrWriter,
};
use tucker_tensor::DenseTensor;

static COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_tkr(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("streaming_{}_{tag}_{n}.tkr", std::process::id()))
}

/// Strategy: a 2–4-way tensor with deliberately odd, uneven dims (3..=9) so
/// slab and chunk boundaries land mid-block in every kernel.
fn arbitrary_tensor() -> impl Strategy<Value = DenseTensor> {
    prop::collection::vec(3usize..=9, 2..=4).prop_flat_map(|dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(-1.0f64..1.0, len)
            .prop_map(move |data| DenseTensor::from_vec(&dims, data))
    })
}

fn assert_bit_identical(a: &SthosvdResult, b: &SthosvdResult, what: &str) {
    assert_eq!(a.ranks, b.ranks, "{what}: ranks");
    assert_eq!(a.processed_order, b.processed_order, "{what}: order");
    assert_eq!(a.norm_x_sq.to_bits(), b.norm_x_sq.to_bits(), "{what}: norm");
    assert_eq!(
        a.discarded_energy.to_bits(),
        b.discarded_energy.to_bits(),
        "{what}: discarded energy"
    );
    assert_eq!(
        a.error_bound().to_bits(),
        b.error_bound().to_bits(),
        "{what}: error bound"
    );
    assert_eq!(
        a.mode_eigenvalues, b.mode_eigenvalues,
        "{what}: eigenvalues"
    );
    assert_eq!(
        a.tucker.core.as_slice(),
        b.tucker.core.as_slice(),
        "{what}: core"
    );
    for (n, (fa, fb)) in a
        .tucker
        .factors
        .iter()
        .zip(b.tucker.factors.iter())
        .enumerate()
    {
        assert_eq!(fa.as_slice(), fb.as_slice(), "{what}: factor {n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline acceptance criterion: streaming ≡ in-memory, bitwise,
    /// across slab widths (1, a prime, the full last mode) and thread
    /// counts including oversubscription.
    #[test]
    fn streaming_is_bit_identical_across_slab_widths_and_threads(x in arbitrary_tensor()) {
        let opts = SthosvdOptions::with_tolerance(0.2);
        let baseline = try_st_hosvd_ctx(&x, &opts, &ExecContext::new(1)).unwrap();
        let last = *x.dims().last().unwrap();
        for width in [1usize, 3, last] {
            for threads in [1usize, 4, 32] {
                let r = try_st_hosvd_streaming_ctx(
                    &x,
                    &opts,
                    &StreamingOptions::with_slab_width(width),
                    &ExecContext::new(threads),
                )
                .unwrap();
                assert_bit_identical(&r, &baseline, &format!("width {width}, threads {threads}"));
            }
        }
    }

    /// Fixed-rank selection goes down a different rank-resolution path;
    /// pin it too.
    #[test]
    fn streaming_with_fixed_ranks_is_bit_identical(x in arbitrary_tensor()) {
        let ranks: Vec<usize> = x.dims().iter().map(|&d| d.min(3)).collect();
        let opts = SthosvdOptions::with_ranks(ranks);
        let baseline = try_st_hosvd_ctx(&x, &opts, &ExecContext::new(1)).unwrap();
        for width in [1usize, 2] {
            let r = try_st_hosvd_streaming_ctx(
                &x,
                &opts,
                &StreamingOptions::with_slab_width(width),
                &ExecContext::new(4),
            )
            .unwrap();
            assert_bit_identical(&r, &baseline, &format!("fixed ranks, width {width}"));
        }
    }

    /// Every codec through a lazy-reader round trip: per-slab chunks, a
    /// 2-chunk cache, and byte-identical answers to the eager reader.
    #[test]
    fn every_codec_round_trips_through_the_lazy_reader(x in arbitrary_tensor()) {
        let eps = 1e-2;
        let t = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap()
        .tucker;
        let last = *t.core.dims().last().unwrap();
        let dims = x.dims();
        let window: Vec<(usize, usize)> =
            dims.iter().map(|&d| (d / 3, (d / 2).max(1))).collect();
        let point: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
        for codec in Codec::all() {
            let path = temp_tkr(codec.name());
            let header = TkrHeader {
                dims: t.original_dims(),
                ranks: t.ranks(),
                eps,
                codec,
                quant_error_bound: 0.0,
                meta: TkrMetadata::default(),
            };
            let mut w = TkrWriter::create(&path, header).unwrap();
            for (n, u) in t.factors.iter().enumerate() {
                w.write_factor(n, u).unwrap();
            }
            for s in 0..last {
                w.write_core_chunk(t.core.last_mode_slab(s, 1)).unwrap();
            }
            w.finish().unwrap();

            let eager = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
            let lazy = TkrReader::open_with(&path, 2, &ExecContext::new(4)).unwrap();
            std::fs::remove_file(&path).ok();

            prop_assert_eq!(lazy.chunk_count(), last);
            prop_assert_eq!(lazy.decoded_chunks(), 0);
            // Byte-identical answers on every query shape.
            prop_assert_eq!(
                lazy.reconstruct_range(&window).unwrap(),
                eager.reconstruct_range(&window).unwrap()
            );
            prop_assert_eq!(lazy.reconstruct().unwrap(), eager.reconstruct());
            prop_assert_eq!(
                lazy.reconstruct_slice(0, dims[0] / 2).unwrap(),
                eager.reconstruct_slice(0, dims[0] / 2).unwrap()
            );
            prop_assert_eq!(
                lazy.element(&point).unwrap().to_bits(),
                eager.element(&point).unwrap().to_bits()
            );
            // Never more resident than the cache capacity; a full pass
            // decodes each chunk at most twice across these four queries
            // (range + full + slice + element with a 2-chunk cache evicting
            // in between — each *individual* query decodes ≤ chunk count).
            prop_assert!(lazy.resident_chunks() <= 2);
        }
    }
}

/// Shapes sized to clear every parallel work threshold, forcing the pool
/// paths of Gram/TTM/GEMM through the streaming driver.
#[test]
fn large_streaming_decomposition_is_bit_identical() {
    let x = DenseTensor::from_fn(&[40, 36, 34], |idx| {
        let mut v = 0.3;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 1) as f64 * 0.11 * i as f64).sin();
        }
        v
    });
    let opts = SthosvdOptions::with_ranks(vec![9, 8, 7]);
    let baseline = try_st_hosvd_ctx(&x, &opts, &ExecContext::new(1)).unwrap();
    for threads in [2usize, 8, 32] {
        let ctx = ExecContext::new(threads);
        for width in [1usize, 5, 34] {
            let r = try_st_hosvd_streaming_ctx(
                &x,
                &opts,
                &StreamingOptions::with_slab_width(width),
                &ctx,
            )
            .unwrap();
            assert_bit_identical(&r, &baseline, &format!("threads {threads}, width {width}"));
        }
    }
}

/// The streaming pipeline (`Compressor::from_slabs(..).write_to`) writes
/// byte-for-byte the artifact of the in-memory pipeline, for every codec and
/// thread count.
#[test]
fn streaming_compression_artifact_is_byte_identical_to_in_memory() {
    let cfg = CombustionConfig {
        grid: vec![14, 12],
        n_variables: 6,
        n_timesteps: 11,
        n_kernels: 5,
        species_rank: 3,
        kernel_width: 0.18,
        drift: 0.25,
        noise_level: 2e-4,
        seed: 77,
    };
    let src = cfg.slab_source();
    let x = src.materialize();
    let eps = 1e-3;
    let sth = SthosvdOptions::with_tolerance(eps);
    for codec in Codec::all() {
        for threads in [1usize, 4] {
            let ctx = ExecContext::new(threads);
            let opts = StoreOptions::new(codec, eps);

            let path_mem = temp_tkr(&format!("mem_{}_{threads}", codec.name()));
            let result = try_st_hosvd_ctx(&x, &sth, &ctx).unwrap();
            write_tucker_ctx(&path_mem, &result.tucker, &opts, &ctx).unwrap();

            let path_str = temp_tkr(&format!("str_{}_{threads}", codec.name()));
            let streamed = Compressor::from_slabs(&src)
                .tolerance(eps)
                .slab_width(3)
                .threads(threads)
                .codec(codec)
                .write_to(&path_str)
                .unwrap();

            let bytes_mem = std::fs::read(&path_mem).unwrap();
            let bytes_str = std::fs::read(&path_str).unwrap();
            std::fs::remove_file(&path_mem).ok();
            std::fs::remove_file(&path_str).ok();
            assert_eq!(
                bytes_mem,
                bytes_str,
                "{} at {threads} threads: artifacts differ",
                codec.name()
            );
            assert_eq!(streamed.compressed.ranks(), &result.ranks[..]);
        }
    }
}

/// A query on the lazy reader decodes each touched chunk exactly once when
/// the cache can hold the working set, and repeat queries are pure hits.
#[test]
fn lazy_reader_decode_accounting() {
    let x = DenseTensor::from_fn(&[9, 8, 13], |idx| {
        ((idx[0] + 2 * idx[1]) as f64 * 0.31).sin() + 0.1 * idx[2] as f64
    });
    let t = try_st_hosvd_ctx(
        &x,
        &SthosvdOptions::with_tolerance(1e-3),
        ExecContext::global(),
    )
    .unwrap()
    .tucker;
    let last = *t.core.dims().last().unwrap();
    let path = temp_tkr("accounting");
    let header = TkrHeader {
        dims: t.original_dims(),
        ranks: t.ranks(),
        eps: 1e-3,
        codec: Codec::Q16,
        quant_error_bound: 0.0,
        meta: TkrMetadata::default(),
    };
    let mut w = TkrWriter::create(&path, header).unwrap();
    for (n, u) in t.factors.iter().enumerate() {
        w.write_factor(n, u).unwrap();
    }
    for s in 0..last {
        w.write_core_chunk(t.core.last_mode_slab(s, 1)).unwrap();
    }
    w.finish().unwrap();

    let lazy = TkrReader::open_with(&path, 64, &ExecContext::new(2)).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(lazy.decoded_chunks(), 0, "open decoded core chunks");
    lazy.reconstruct_range(&[(0, 3), (0, 3), (0, 3)]).unwrap();
    assert_eq!(lazy.decoded_chunks(), lazy.chunk_count());
    let hits_before = lazy.cache_hits();
    lazy.element(&[1, 2, 3]).unwrap();
    lazy.reconstruct_slice(1, 4).unwrap();
    assert_eq!(
        lazy.decoded_chunks(),
        lazy.chunk_count(),
        "cached chunks were re-decoded"
    );
    assert!(lazy.cache_hits() >= hits_before + 2 * lazy.chunk_count());
    assert!(lazy.resident_chunks() <= lazy.chunk_count());
}

/// The scidata slab generators drive the streaming path to the same bits as
/// compressing their materialized field in memory — the end-to-end tie-in
/// of the surrogate datasets with the out-of-core pipeline.
#[test]
fn surrogate_slab_source_streams_to_the_in_memory_bits() {
    let cfg = CombustionConfig {
        grid: vec![12, 10],
        n_variables: 5,
        n_timesteps: 8,
        n_kernels: 4,
        species_rank: 2,
        kernel_width: 0.2,
        drift: 0.2,
        noise_level: 1e-4,
        seed: 4242,
    };
    let src = cfg.slab_source();
    let x = src.materialize();
    let opts = SthosvdOptions::with_tolerance(1e-3);
    let ctx = ExecContext::new(4);
    let baseline = try_st_hosvd_ctx(&x, &opts, &ctx).unwrap();
    for width in [1usize, 3, 8] {
        let r = try_st_hosvd_streaming_ctx(
            &src,
            &opts,
            &StreamingOptions::with_slab_width(width),
            &ctx,
        )
        .unwrap();
        assert_bit_identical(&r, &baseline, &format!("surrogate width {width}"));
    }
}
