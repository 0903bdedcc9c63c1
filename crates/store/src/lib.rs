//! `tucker-store` — durable storage and a query engine for Tucker-compressed
//! tensors.
//!
//! The paper's end product is not the decomposition in memory but *usable
//! compressed scientific data* (Secs. V–VII): write the core and factor
//! matrices to durable storage, ship the small artifact, and later
//! reconstruct the full field — or just the subtensor an analyst asks for —
//! without ever materializing the original. This crate plays the role the
//! TuckerMPI file format plays for the original code, in three layers:
//!
//! 1. **Container format** ([`format`](mod@format)) — the versioned `.tkr` binary layout:
//!    fixed header (shape, ranks, ε, codec, quantization bound), provenance
//!    metadata (dataset label, mode labels, per-species normalization), then
//!    tagged factor and core blocks.
//! 2. **Codecs** ([`codec`]) — configurable `f64` → `f32` / scaled-`i16`
//!    encoding with per-column scale factors, typically doubling-to-quadrupling
//!    the model's compression ratio; every block reports the exact error it
//!    introduced and the writer folds that into the artifact's declared error
//!    budget.
//! 3. **Writer & query engine** ([`writer`], [`reader`], [`lazy`]) — a
//!    streaming chunked [`TkrWriter`] (core serialized slab-by-slab, so
//!    fields larger than memory stream through; the facade's
//!    `Compressor::from_slabs(..).write_to(..)` feeds it the out-of-core
//!    ST-HOSVD's result), [`gather_and_write`] for distributed output, and
//!    two readers:
//!    the eager [`TkrArtifact`] (core decoded at open) and the lazy
//!    [`TkrReader`] (chunk directory at open, chunks decoded on demand
//!    behind a bounded, scan-resistant chunk cache) — both serving
//!    `reconstruct_range` / `reconstruct_slice` / `element` queries whose
//!    cost scales with the request, never with the original data, with
//!    byte-identical answers.
//!
//! # Example
//!
//! ```
//! use tucker_core::prelude::*;
//! use tucker_exec::ExecContext;
//! use tucker_store::{Codec, StoreOptions, TkrArtifact, TkrReader, write_tucker_ctx};
//! use tucker_tensor::DenseTensor;
//!
//! let x = DenseTensor::from_fn(&[12, 10, 8], |idx| {
//!     (0.3 * idx[0] as f64).sin() + (0.2 * idx[1] as f64 * idx[2] as f64).cos()
//! });
//! let eps = 1e-4;
//! let ctx = ExecContext::global();
//! let result = try_st_hosvd_ctx(&x, &SthosvdOptions::with_tolerance(eps), ctx).unwrap();
//!
//! let path = std::env::temp_dir().join("tucker_store_doctest.tkr");
//! let opts = StoreOptions::new(Codec::F32, eps);
//! let report = write_tucker_ctx(&path, &result.tucker, &opts, ctx).unwrap();
//! assert!(report.quant_error_bound < eps);
//!
//! let artifact = TkrArtifact::open_ctx(&path, ctx).unwrap();
//! // One element, one slice, one window — no full reconstruction anywhere.
//! let window = artifact.reconstruct_range(&[(2, 3), (0, 10), (5, 2)]).unwrap();
//! assert_eq!(window.dims(), &[3, 10, 2]);
//! let e = artifact.element(&[4, 5, 6]).unwrap();
//! assert!((e - x.get(&[4, 5, 6])).abs() < 1e-2);
//!
//! // The lazy reader answers the same queries byte-identically while
//! // decoding only the core chunks it touches.
//! let reader = TkrReader::open_with(&path, tucker_store::DEFAULT_CACHE_CHUNKS, ctx).unwrap();
//! assert_eq!(reader.reconstruct_range(&[(2, 3), (0, 10), (5, 2)]).unwrap(), window);
//! std::fs::remove_file(&path).ok();
//! ```

pub mod codec;
pub mod error;
pub mod format;
pub mod lazy;
pub mod query;
pub mod reader;
pub mod shared;
pub mod writer;

pub use codec::Codec;
pub use error::{CodecError, FormatError, StoreError};
pub use format::{TkrHeader, TkrMetadata};
pub use lazy::{TkrReader, DEFAULT_CACHE_CHUNKS};
pub use query::QueryError;
pub use reader::TkrArtifact;
pub use shared::{ArtifactCacheStats, CacheSession, SharedChunkCache};
pub use writer::{gather_and_write, write_tucker_ctx, EncodeReport, StoreOptions, TkrWriter};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tucker_core::dist::{hybrid_ctx, try_dist_st_hosvd_ctx, DistTensor};
    use tucker_core::ordering::window_order;
    use tucker_core::reconstruct::window_roundoff_bound;
    use tucker_core::sthosvd::{try_st_hosvd_ctx, SthosvdOptions};
    use tucker_core::TuckerTensor;
    use tucker_distmem::runtime::spmd_with_grid;
    use tucker_distmem::ProcGrid;
    use tucker_exec::ExecContext;
    use tucker_tensor::{extract_subtensor, relative_error, DenseTensor, SubtensorSpec};

    static COUNTER: AtomicUsize = AtomicUsize::new(0);

    /// A unique temp path per call (tests run in parallel).
    fn temp_tkr(tag: &str) -> PathBuf {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "tucker_store_test_{}_{tag}_{n}.tkr",
            std::process::id()
        ))
    }

    fn wavy(dims: &[usize]) -> DenseTensor {
        DenseTensor::from_fn(dims, |idx| {
            let mut v = 0.2;
            for (k, &i) in idx.iter().enumerate() {
                v += ((k + 1) as f64 * 0.23 * i as f64).sin();
            }
            v
        })
    }

    /// Asserts a read-side rejection: a typed [`FormatError::Invalid`]
    /// whose message mentions `what`.
    pub(crate) fn assert_invalid<T: std::fmt::Debug>(r: Result<T, StoreError>, what: &str) {
        match r {
            Err(StoreError::Format(FormatError::Invalid(msg))) => {
                assert!(msg.contains(what), "{msg:?} does not mention {what:?}")
            }
            other => panic!("expected FormatError::Invalid({what:?}…), got {other:?}"),
        }
    }

    fn compressed(dims: &[usize], eps: f64) -> (DenseTensor, TuckerTensor) {
        let x = wavy(dims);
        let r = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        (x, r.tucker)
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        let (_, t) = compressed(&[10, 9, 8], 1e-5);
        let path = temp_tkr("f64");
        write_tucker_ctx(
            &path,
            &t,
            &StoreOptions::new(Codec::F64, 1e-5),
            ExecContext::global(),
        )
        .unwrap();
        let artifact = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
        assert_eq!(artifact.tucker(), &t);
        assert_eq!(artifact.header().quant_error_bound, 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_codec_round_trips_within_budget() {
        let eps = 1e-3;
        let (x, t) = compressed(&[12, 10, 8], eps);
        for codec in Codec::all() {
            let path = temp_tkr(codec.name());
            let report = write_tucker_ctx(
                &path,
                &t,
                &StoreOptions::new(codec, eps),
                ExecContext::global(),
            )
            .unwrap();
            let artifact = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
            let rec = artifact.reconstruct();
            let err = relative_error(&x, &rec);
            assert!(
                err <= artifact.error_budget() + 1e-12,
                "{}: error {err} above declared budget {}",
                codec.name(),
                artifact.error_budget()
            );
            assert_eq!(
                report.quant_error_bound,
                artifact.header().quant_error_bound
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn quantized_codecs_shrink_the_file() {
        // Fixed ranks so the payload dominates the fixed header overhead.
        let x = wavy(&[14, 12, 10]);
        let t = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_ranks(vec![8, 8, 8]),
            ExecContext::global(),
        )
        .unwrap()
        .tucker;
        let mut sizes = Vec::new();
        for codec in Codec::all() {
            let path = temp_tkr(&format!("size_{}", codec.name()));
            let report = write_tucker_ctx(
                &path,
                &t,
                &StoreOptions::new(codec, 1e-4),
                ExecContext::global(),
            )
            .unwrap();
            assert_eq!(report.bytes, std::fs::metadata(&path).unwrap().len());
            sizes.push(report.bytes);
            std::fs::remove_file(&path).ok();
        }
        // f64 > f32 > q16, roughly by the per-value byte ratios (the fixed
        // header and per-block overhead dilute the ratio at this tiny size).
        assert!(sizes[0] > sizes[1] && sizes[1] > sizes[2]);
        assert!((sizes[0] as f64) / (sizes[1] as f64) > 1.6);
        assert!((sizes[0] as f64) / (sizes[2] as f64) > 2.5);
    }

    #[test]
    fn subtensor_query_matches_sliced_full_reconstruction_exactly() {
        let (_, t) = compressed(&[12, 10, 8], 1e-4);
        for codec in Codec::all() {
            let path = temp_tkr(&format!("window_{}", codec.name()));
            write_tucker_ctx(
                &path,
                &t,
                &StoreOptions::new(codec, 1e-4),
                ExecContext::global(),
            )
            .unwrap();
            let artifact = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
            let full = artifact.reconstruct();
            let window = artifact
                .reconstruct_range(&[(3, 4), (2, 5), (0, 8)])
                .unwrap();
            let spec = SubtensorSpec::from_ranges(&[(3, 4), (2, 5), (0, 8)]);
            let expected = extract_subtensor(&full, &spec);
            let order = window_order(&artifact.header().ranks, &spec.sub_dims());
            if order.into_iter().eq(0..3) {
                // Bit-identical: a window that is not mixed contracts in the
                // same order (0..N−1) as the full reconstruction.
                assert_eq!(window, expected);
            } else {
                // A mixed window contracts its narrow modes first: within
                // the proved round-off bound of the full reconstruction.
                let bound = window_roundoff_bound(artifact.tucker(), &spec);
                assert_eq!(window.dims(), expected.dims());
                for ((w, e), b) in window
                    .as_slice()
                    .iter()
                    .zip(expected.as_slice())
                    .zip(bound.as_slice())
                {
                    assert!((w - e).abs() <= *b, "|{w} - {e}| above the bound {b}");
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn slice_and_element_queries() {
        let eps = 1e-5;
        let (x, t) = compressed(&[11, 9, 7], eps);
        let path = temp_tkr("queries");
        write_tucker_ctx(
            &path,
            &t,
            &StoreOptions::new(Codec::F64, eps),
            ExecContext::global(),
        )
        .unwrap();
        let artifact = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
        let slice = artifact.reconstruct_slice(1, 4).unwrap();
        assert_eq!(slice.dims(), &[11, 1, 7]);
        for i in [0usize, 5, 10] {
            for k in [0usize, 3, 6] {
                assert!((slice.get(&[i, 0, k]) - x.get(&[i, 4, k])).abs() < 1e-3);
                let e = artifact.element(&[i, 4, k]).unwrap();
                assert!((e - x.get(&[i, 4, k])).abs() < 1e-3);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_writer_equals_one_shot_writer() {
        let (_, t) = compressed(&[9, 8, 10], 1e-4);
        let opts = StoreOptions::new(Codec::Q16, 1e-4);
        let one = temp_tkr("oneshot");
        write_tucker_ctx(&one, &t, &opts, ExecContext::global()).unwrap();

        // Hand-driven streaming path: factors, then the core one last-mode
        // slab (one "timestep") at a time.
        let streamed = temp_tkr("streamed");
        let header = TkrHeader {
            dims: t.original_dims(),
            ranks: t.ranks(),
            eps: 1e-4,
            codec: Codec::Q16,
            quant_error_bound: 0.0,
            meta: TkrMetadata::default(),
        };
        let mut w = TkrWriter::create(&streamed, header).unwrap();
        for (n, u) in t.factors.iter().enumerate() {
            w.write_factor(n, u).unwrap();
        }
        let last = *t.core.dims().last().unwrap();
        for s in 0..last {
            w.write_core_chunk(t.core.last_mode_slab(s, 1)).unwrap();
        }
        w.finish().unwrap();

        let a = TkrArtifact::open_ctx(&one, ExecContext::global()).unwrap();
        let b = TkrArtifact::open_ctx(&streamed, ExecContext::global()).unwrap();
        // Same decoded decomposition regardless of chunking... but Q16 core
        // chunks carry per-chunk scales, so compare reconstructions instead of
        // bytes: both must decode to cores within the quantization step.
        assert_eq!(a.tucker().factors, b.tucker().factors);
        let err = relative_error(&a.tucker().core, &b.tucker().core);
        assert!(err < 1e-3, "chunked vs one-shot core differ by {err}");
        std::fs::remove_file(&one).ok();
        std::fs::remove_file(&streamed).ok();
    }

    #[test]
    fn distributed_gather_and_write_round_trips() {
        let dims = [8usize, 9, 6];
        let x = wavy(&dims);
        let eps = 1e-4;
        let seq = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        let seq_rec = seq.tucker.reconstruct_ctx(ExecContext::global());

        let path = temp_tkr("dist");
        let path2 = path.clone();
        let results = spmd_with_grid(ProcGrid::new(&[2, 2, 1]), move |comm| {
            let dx = DistTensor::from_global(&comm, &x);
            let r = try_dist_st_hosvd_ctx(
                &comm,
                &dx,
                &SthosvdOptions::with_tolerance(eps),
                &hybrid_ctx(&comm),
            )
            .unwrap();
            gather_and_write(
                &comm,
                &r.tucker,
                &path2,
                &StoreOptions::new(Codec::F64, eps),
            )
            .unwrap()
            .is_some()
        });
        // Exactly rank 0 wrote the file.
        assert_eq!(results.iter().filter(|&&wrote| wrote).count(), 1);
        assert!(results[0]);

        let artifact = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
        let rec = artifact.reconstruct();
        let err = relative_error(&seq_rec, &rec);
        assert!(err < 1e-8, "distributed artifact deviates by {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metadata_round_trips_through_the_header() {
        use tucker_scidata::DatasetPreset;
        let ds = DatasetPreset::Sp.generate(1, 42);
        let eps = 1e-2;
        let r = try_st_hosvd_ctx(
            &ds.data,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        let path = temp_tkr("meta");
        let opts = StoreOptions::new(Codec::F32, eps).with_meta(TkrMetadata::for_dataset(&ds));
        write_tucker_ctx(&path, &r.tucker, &opts, ExecContext::global()).unwrap();
        let artifact = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
        let meta = &artifact.header().meta;
        assert_eq!(meta.dataset, "SP");
        assert_eq!(meta.mode_labels.len(), 5);
        let norm = meta.normalization.as_ref().unwrap();
        assert_eq!(norm, &ds.normalization);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lazy_reader_matches_eager_reader_byte_for_byte() {
        // Write the core one last-mode slab per chunk so the lazy reader has
        // several chunks to juggle, then compare every query shape against
        // the eager reader with exact equality.
        let (_, t) = compressed(&[10, 9, 12], 1e-4);
        for codec in Codec::all() {
            let path = temp_tkr(&format!("lazy_{}", codec.name()));
            let header = TkrHeader {
                dims: t.original_dims(),
                ranks: t.ranks(),
                eps: 1e-4,
                codec,
                quant_error_bound: 0.0,
                meta: TkrMetadata::default(),
            };
            let mut w = TkrWriter::create(&path, header).unwrap();
            for (n, u) in t.factors.iter().enumerate() {
                w.write_factor(n, u).unwrap();
            }
            let last = *t.core.dims().last().unwrap();
            for s in 0..last {
                w.write_core_chunk(t.core.last_mode_slab(s, 1)).unwrap();
            }
            w.finish().unwrap();

            let eager = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
            let lazy = TkrReader::open_with(&path, 2, tucker_exec::ExecContext::global()).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(lazy.chunk_count(), last);
            assert_eq!(lazy.header(), eager.header());

            let ranges = [(2usize, 5usize), (0, 9), (4, 6)];
            assert_eq!(
                lazy.reconstruct_range(&ranges).unwrap(),
                eager.reconstruct_range(&ranges).unwrap()
            );
            assert_eq!(
                lazy.reconstruct_slice(2, 7).unwrap(),
                eager.reconstruct_slice(2, 7).unwrap()
            );
            assert_eq!(lazy.reconstruct().unwrap(), eager.reconstruct());
            for idx in [[0usize, 0, 0], [9, 8, 11], [3, 4, 5]] {
                assert_eq!(
                    lazy.element(&idx).unwrap().to_bits(),
                    eager.element(&idx).unwrap().to_bits(),
                    "{}: element {idx:?}",
                    codec.name()
                );
            }
            // The bounded cache never holds more than its capacity.
            assert!(lazy.resident_chunks() <= 2);
        }
    }

    #[test]
    fn lazy_reader_decodes_only_touched_chunks_and_caches_repeats() {
        let (_, t) = compressed(&[8, 7, 10], 1e-4);
        let path = temp_tkr("lazy_counts");
        let header = TkrHeader {
            dims: t.original_dims(),
            ranks: t.ranks(),
            eps: 1e-4,
            codec: Codec::F64,
            quant_error_bound: 0.0,
            meta: TkrMetadata::default(),
        };
        let mut w = TkrWriter::create(&path, header).unwrap();
        for (n, u) in t.factors.iter().enumerate() {
            w.write_factor(n, u).unwrap();
        }
        let last = *t.core.dims().last().unwrap();
        for s in 0..last {
            w.write_core_chunk(t.core.last_mode_slab(s, 1)).unwrap();
        }
        w.finish().unwrap();

        // Cache large enough for the whole core: a query decodes each chunk
        // exactly once and repeats are pure cache hits.
        let lazy = TkrReader::open_with(&path, 64, tucker_exec::ExecContext::global()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(lazy.decoded_chunks(), 0, "open must not decode the core");
        lazy.element(&[0, 0, 0]).unwrap();
        assert_eq!(lazy.decoded_chunks(), lazy.chunk_count());
        lazy.reconstruct_range(&[(0, 2), (0, 2), (0, 2)]).unwrap();
        assert_eq!(
            lazy.decoded_chunks(),
            lazy.chunk_count(),
            "second query re-decoded cached chunks"
        );
        assert!(lazy.cache_hits() >= lazy.chunk_count());
    }

    #[test]
    fn degenerate_queries_return_typed_errors_on_both_readers() {
        use crate::query::QueryError;
        let (_, t) = compressed(&[6, 5, 4], 1e-3);
        let path = temp_tkr("typed_errors");
        write_tucker_ctx(
            &path,
            &t,
            &StoreOptions::new(Codec::F64, 1e-3),
            ExecContext::global(),
        )
        .unwrap();
        let eager = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
        let lazy = TkrReader::open_with(&path, crate::DEFAULT_CACHE_CHUNKS, ExecContext::global())
            .unwrap();
        std::fs::remove_file(&path).ok();

        // Wrong arity.
        assert!(matches!(
            eager.reconstruct_range(&[(0, 2)]),
            Err(QueryError::ModeCountMismatch {
                expected: 3,
                got: 1
            })
        ));
        assert!(matches!(
            lazy.reconstruct_range(&[(0, 2)]),
            Err(QueryError::ModeCountMismatch {
                expected: 3,
                got: 1
            })
        ));
        // Empty and out-of-range windows (including overflow).
        for bad in [
            [(0usize, 0usize), (0, 5), (0, 4)],
            [(0, 6), (5, 1), (0, 4)],
            [(usize::MAX, 2), (0, 5), (0, 4)],
        ] {
            assert!(eager.reconstruct_range(&bad).is_err());
            assert!(lazy.reconstruct_range(&bad).is_err());
        }
        // Slice and element validation.
        assert!(matches!(
            eager.reconstruct_slice(3, 0),
            Err(QueryError::ModeOutOfRange { mode: 3, ndims: 3 })
        ));
        assert!(matches!(
            lazy.reconstruct_slice(1, 5),
            Err(QueryError::IndexOutOfBounds {
                mode: 1,
                index: 5,
                dim: 5
            })
        ));
        assert!(eager.element(&[0, 0]).is_err());
        assert!(eager.element(&[6, 0, 0]).is_err());
        assert!(lazy.element(&[0, 0, 4]).is_err());
        assert!(eager.elements(&[&[0, 0, 0], &[0, 9, 0]]).is_err());
        // Arbitrary specs validate identically on both readers.
        let bad_spec = SubtensorSpec::from_indices(vec![vec![0, 6], vec![0], vec![0]]);
        assert!(matches!(
            eager.reconstruct_subtensor(&bad_spec),
            Err(QueryError::IndexOutOfBounds {
                mode: 0,
                index: 6,
                dim: 6
            })
        ));
        assert!(matches!(
            lazy.reconstruct_subtensor(&bad_spec),
            Err(QueryError::IndexOutOfBounds {
                mode: 0,
                index: 6,
                dim: 6
            })
        ));
        // Valid requests still succeed after rejected ones.
        assert!(eager.reconstruct_range(&[(0, 6), (0, 5), (0, 4)]).is_ok());
        assert!(lazy.element(&[5, 4, 3]).is_ok());
    }

    #[test]
    fn misaligned_core_chunk_is_rejected_at_open() {
        // The format contract says core chunks are whole last-mode slabs;
        // a crafted file violating it must fail at open on both readers,
        // not panic inside a lazy query.
        use crate::format::TAG_CORE_CHUNK;
        let header = TkrHeader {
            dims: vec![6, 6, 6],
            ranks: vec![2, 2, 2],
            eps: 1e-3,
            codec: Codec::F64,
            quant_error_bound: 0.0,
            meta: TkrMetadata::default(),
        };
        let mut bytes = Vec::new();
        header.write_to(&mut bytes).unwrap();
        // A 3-element chunk: not a multiple of the 2·2 = 4 slab stride.
        bytes.push(TAG_CORE_CHUNK);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 24]);
        let path = temp_tkr("misaligned_chunk");
        std::fs::write(&path, &bytes).unwrap();
        let what = "not a whole number of last-mode slabs";
        assert_invalid(TkrArtifact::open_ctx(&path, ExecContext::global()), what);
        assert_invalid(
            TkrReader::open_with(&path, DEFAULT_CACHE_CHUNKS, ExecContext::global()),
            what,
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batched_elements_match_per_point_queries() {
        let eps = 1e-4;
        let (x, t) = compressed(&[12, 10, 8], eps);
        let path = temp_tkr("batched");
        write_tucker_ctx(
            &path,
            &t,
            &StoreOptions::new(Codec::F64, eps),
            ExecContext::global(),
        )
        .unwrap();
        let artifact = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
        let lazy = TkrReader::open_with(&path, crate::DEFAULT_CACHE_CHUNKS, ExecContext::global())
            .unwrap();
        std::fs::remove_file(&path).ok();

        // An empty batch is free on both readers (no chunk is decoded).
        assert!(artifact.elements(&[]).unwrap().is_empty());
        assert!(lazy.elements(&[]).unwrap().is_empty());
        assert_eq!(lazy.decoded_chunks(), 0);

        let points: Vec<Vec<usize>> = (0..40)
            .map(|i| vec![(i * 7) % 12, (i * 5) % 10, (i * 3) % 8])
            .collect();
        let refs: Vec<&[usize]> = points.iter().map(|p| p.as_slice()).collect();
        let batched = artifact.elements(&refs).unwrap();
        let lazy_batched = lazy.elements(&refs).unwrap();
        let full = artifact.reconstruct();
        for ((p, &b), lb) in refs.iter().zip(batched.iter()).zip(lazy_batched.iter()) {
            let single = artifact.element(p).unwrap();
            // One point-contraction routine everywhere: batched, per-point,
            // eager and lazy agree bit for bit — with each other and with
            // the same entry of the full reconstruction.
            assert_eq!(b.to_bits(), single.to_bits(), "batched vs single at {p:?}");
            assert_eq!(lb.to_bits(), single.to_bits(), "lazy vs eager at {p:?}");
            assert_eq!(single.to_bits(), full.get(p).to_bits(), "vs full at {p:?}");
            // And everything approximates the original field.
            assert!((single - x.get(p)).abs() < 1e-2);
        }
    }

    #[test]
    fn core_declared_larger_than_file_is_rejected_not_allocated() {
        // Patch a valid small artifact's header so it declares a core of
        // ~2^36 elements (passing the per-mode rank <= dim checks): open()
        // must fail with a format error, not attempt a half-terabyte
        // allocation.
        let (_, t) = compressed(&[6, 6, 6], 1e-3);
        let path = temp_tkr("absurd_core");
        write_tucker_ctx(
            &path,
            &t,
            &StoreOptions::new(Codec::F64, 1e-3),
            ExecContext::global(),
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let big = (1u64 << 12).to_le_bytes();
        for n in 0..3 {
            let off = 32 + 16 * n;
            bytes[off..off + 8].copy_from_slice(&big); // dim
            bytes[off + 8..off + 16].copy_from_slice(&big); // rank
        }
        std::fs::write(&path, &bytes).unwrap();
        assert_invalid(
            TkrArtifact::open_ctx(&path, ExecContext::global()),
            "larger than the file itself",
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflowing_core_chunk_length_is_rejected_not_allocated() {
        // A crafted file whose first block is a core chunk with len close to
        // u64::MAX: open() must return a format error, not wrap the bounds
        // check and attempt a giant allocation.
        use crate::format::TAG_CORE_CHUNK;
        let header = TkrHeader {
            dims: vec![6, 6, 6],
            ranks: vec![2, 2, 2],
            eps: 1e-3,
            codec: Codec::F64,
            quant_error_bound: 0.0,
            meta: TkrMetadata::default(),
        };
        let mut bytes = Vec::new();
        header.write_to(&mut bytes).unwrap();
        bytes.push(TAG_CORE_CHUNK);
        bytes.extend_from_slice(&0u64.to_le_bytes()); // start
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // len
        let path = temp_tkr("overflow_chunk");
        std::fs::write(&path, &bytes).unwrap();
        assert_invalid(
            TkrArtifact::open_ctx(&path, ExecContext::global()),
            "overruns the core",
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_embedded_at_nonzero_offset_patches_its_own_header() {
        // A .tkr section embedded after a prefix in a larger container: the
        // finish-time quant-bound patch must land inside the section, not at
        // absolute offset 24 of the outer file.
        let (_, t) = compressed(&[6, 6, 6], 1e-3);
        let prefix = vec![0xABu8; 64];
        let last = *t.core.dims().last().unwrap();
        let path = temp_tkr("embedded");
        {
            let mut f = std::fs::File::create(&path).unwrap();
            std::io::Write::write_all(&mut f, &prefix).unwrap();
            let header = TkrHeader {
                dims: t.original_dims(),
                ranks: t.ranks(),
                eps: 1e-3,
                codec: Codec::Q16,
                quant_error_bound: 0.0,
                meta: TkrMetadata::default(),
            };
            let mut w = TkrWriter::new(f, header).unwrap();
            for (n, u) in t.factors.iter().enumerate() {
                w.write_factor(n, u).unwrap();
            }
            w.write_core_chunk(t.core.last_mode_slab(0, last)).unwrap();
            let report = w.finish().unwrap();
            assert!(report.quant_error_bound > 0.0);
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..64], &prefix[..], "prefix was corrupted");
        let section = TkrHeader::read_from(&mut std::io::Cursor::new(&bytes[64..])).unwrap();
        assert!(section.quant_error_bound > 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn label_count_must_match_mode_count() {
        let (_, t) = compressed(&[6, 6, 6], 1e-3);
        let path = temp_tkr("labels");
        let meta = TkrMetadata {
            dataset: "X".into(),
            mode_labels: vec!["only one".into()],
            normalization: None,
        };
        let opts = StoreOptions::new(Codec::F64, 1e-3).with_meta(meta);
        match write_tucker_ctx(&path, &t, &opts, ExecContext::global()) {
            Err(StoreError::Format(FormatError::Invalid(msg))) => {
                assert!(msg.contains("1 mode labels for a 3-mode tensor"), "{msg}")
            }
            other => panic!("expected a typed label-count error, got {other:?}"),
        }
        // Rejected before the file was created.
        assert!(!path.exists());
    }

    #[test]
    fn truncated_file_is_rejected() {
        let (_, t) = compressed(&[6, 6, 6], 1e-3);
        let path = temp_tkr("trunc");
        let opts = StoreOptions::new(Codec::F64, 1e-3);
        write_tucker_ctx(&path, &t, &opts, ExecContext::global()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        assert_invalid(
            TkrArtifact::open_ctx(&path, ExecContext::global()),
            "truncated artifact",
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_rejects_incomplete_core() {
        let (_, t) = compressed(&[6, 6, 6], 1e-3);
        let path = temp_tkr("incomplete");
        let header = TkrHeader {
            dims: t.original_dims(),
            ranks: t.ranks(),
            eps: 1e-3,
            codec: Codec::F64,
            quant_error_bound: 0.0,
            meta: TkrMetadata::default(),
        };
        let mut w = TkrWriter::create(&path, header).unwrap();
        for (n, u) in t.factors.iter().enumerate() {
            w.write_factor(n, u).unwrap();
        }
        // Only one slab of the core written: finish() is a typed error.
        w.write_core_chunk(t.core.last_mode_slab(0, 1)).unwrap();
        let slab: usize = t.ranks()[..2].iter().product();
        match w.finish() {
            Err(StoreError::Format(FormatError::CoreIncomplete { written, total })) => {
                assert_eq!(written, slab);
                assert_eq!(total, t.core.len());
            }
            other => panic!("expected CoreIncomplete, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Writes `t` one last-mode slab per chunk (the multi-chunk layout the
    /// shared-cache tests need) and returns the path.
    fn write_chunked(tag: &str, t: &TuckerTensor, codec: Codec) -> PathBuf {
        let path = temp_tkr(tag);
        let header = TkrHeader {
            dims: t.original_dims(),
            ranks: t.ranks(),
            eps: 1e-4,
            codec,
            quant_error_bound: 0.0,
            meta: TkrMetadata::default(),
        };
        let mut w = TkrWriter::create(&path, header).unwrap();
        for (n, u) in t.factors.iter().enumerate() {
            w.write_factor(n, u).unwrap();
        }
        let last = *t.core.dims().last().unwrap();
        for s in 0..last {
            w.write_core_chunk(t.core.last_mode_slab(s, 1)).unwrap();
        }
        w.finish().unwrap();
        path
    }

    #[test]
    fn shared_sessions_on_one_artifact_populate_a_single_cache() {
        let (_, t) = compressed(&[8, 7, 10], 1e-4);
        let path = write_chunked("shared_single", &t, Codec::F64);
        let ctx = tucker_exec::ExecContext::global();
        let cache = SharedChunkCache::new(64, 4);
        let a = TkrReader::open_shared(&path, "field", &cache, ctx).unwrap();
        let b = TkrReader::open_shared(&path, "field", &cache, ctx).unwrap();
        std::fs::remove_file(&path).ok();

        // A full sweep by reader A, then re-queries by both readers: the
        // aggregate decode count must stay at the chunk count — reader B
        // never decodes anything, it reads A's chunks out of the shared pool.
        let full_a = a.reconstruct().unwrap();
        assert_eq!(a.decoded_chunks(), a.chunk_count());
        let full_b = b.reconstruct().unwrap();
        assert_eq!(full_a, full_b);
        b.element(&[1, 2, 3]).unwrap();
        a.reconstruct_range(&[(0, 4), (1, 3), (2, 5)]).unwrap();
        assert_eq!(
            b.decoded_chunks(),
            b.chunk_count(),
            "re-queries through a warm shared cache must not decode again"
        );
        // Both sessions see the same per-artifact aggregate stats.
        assert_eq!(
            cache.artifact_stats("field").unwrap(),
            a.cache_session().stats()
        );
        assert_eq!(a.cache_hits(), b.cache_hits());
    }

    #[test]
    fn concurrent_shared_sessions_stay_correct_and_within_budget() {
        let (_, t) = compressed(&[8, 7, 12], 1e-4);
        let path = write_chunked("shared_conc", &t, Codec::F64);
        let ctx = tucker_exec::ExecContext::global();
        // A budget smaller than the chunk count keeps admission and bypass
        // live under the concurrent load.
        let cache = SharedChunkCache::new(5, 2);
        let reader = std::sync::Arc::new(TkrReader::open_shared(&path, "x", &cache, ctx).unwrap());
        let expected = TkrArtifact::open_ctx(&path, ExecContext::global()).unwrap();
        std::fs::remove_file(&path).ok();
        let want_full = expected.reconstruct();

        std::thread::scope(|scope| {
            for who in 0..4 {
                let reader = std::sync::Arc::clone(&reader);
                let want = want_full.clone();
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..3 {
                        let i = (who + round) % 8;
                        let got = reader
                            .reconstruct_range(&[(i, 1), (0, 7), (0, 12)])
                            .unwrap();
                        let exp = expected
                            .reconstruct_range(&[(i, 1), (0, 7), (0, 12)])
                            .unwrap();
                        assert_eq!(got, exp, "client {who} round {round}");
                        assert_eq!(reader.reconstruct().unwrap(), want);
                    }
                });
            }
        });
        assert!(cache.resident_total() <= cache.capacity());
        assert!(reader.resident_chunks() <= cache.capacity());
    }

    #[test]
    fn shared_eviction_respects_the_global_budget_across_artifacts() {
        let (_, t1) = compressed(&[8, 7, 10], 1e-4);
        let (_, t2) = compressed(&[6, 9, 8], 1e-4);
        let p1 = write_chunked("budget_a", &t1, Codec::F64);
        let p2 = write_chunked("budget_b", &t2, Codec::F32);
        let ctx = tucker_exec::ExecContext::global();
        let cache = SharedChunkCache::new(6, 3);
        let a = TkrReader::open_shared(&p1, "a", &cache, ctx).unwrap();
        let b = TkrReader::open_shared(&p2, "b", &cache, ctx).unwrap();
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();

        // Together the artifacts have 18 chunks against a 6-chunk budget:
        // interleaved sweeps must stay inside it at every step.
        for _ in 0..3 {
            a.reconstruct().unwrap();
            assert!(cache.resident_total() <= cache.capacity());
            b.reconstruct().unwrap();
            assert!(cache.resident_total() <= cache.capacity());
        }
        assert_eq!(
            a.resident_chunks() + b.resident_chunks(),
            cache.resident_total()
        );
        // Both artifacts show up in the aggregate listing.
        let names: Vec<String> = cache.artifacts().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn repeated_queries_keep_a_resident_prefix_instead_of_flooding_the_cache() {
        // 10 chunks behind a 4-chunk cache: under LRU every query evicted
        // exactly the chunks the next one needed first (0 hits, 10 decodes,
        // forever). Under the admission rule each query after the first is
        // served 4 chunks from memory and decodes the other 6.
        let t = try_st_hosvd_ctx(
            &wavy(&[8, 7, 10]),
            &SthosvdOptions::with_ranks(vec![3, 3, 10]),
            ExecContext::global(),
        )
        .unwrap()
        .tucker;
        let path = write_chunked("scan_resistant", &t, Codec::F32);
        let lazy = TkrReader::open_with(&path, 4, tucker_exec::ExecContext::global()).unwrap();
        std::fs::remove_file(&path).ok();
        let chunks = lazy.chunk_count();
        assert_eq!(chunks, 10);
        lazy.element(&[1, 2, 3]).unwrap();
        assert_eq!((lazy.cache_hits(), lazy.decoded_chunks()), (0, chunks));
        for q in 1..=6 {
            match q % 3 {
                0 => drop(lazy.element(&[q, 0, q]).unwrap()),
                1 => drop(lazy.reconstruct_range(&[(0, 2), (1, 3), (q, 2)]).unwrap()),
                _ => drop(lazy.reconstruct_slice(1, q).unwrap()),
            }
            assert_eq!(lazy.cache_hits(), 4 * q, "query {q}");
            assert_eq!(
                lazy.decoded_chunks(),
                chunks + (chunks - 4) * q,
                "query {q}"
            );
            assert_eq!(lazy.resident_chunks(), 4);
        }
    }

    #[test]
    fn private_cache_accounting_matches_shared_single_session() {
        // A private reader cache and a single-session shared cache must
        // agree stat-for-stat on the same workload: the private path *is* a
        // one-stripe shared cache, and this pins it.
        let (_, t) = compressed(&[8, 7, 10], 1e-4);
        let path = write_chunked("parity", &t, Codec::Q16);
        let ctx = tucker_exec::ExecContext::global();
        let private = TkrReader::open_with(&path, 3, ctx).unwrap();
        let cache = SharedChunkCache::new(3, 1);
        let shared = TkrReader::open_shared(&path, "p", &cache, ctx).unwrap();
        std::fs::remove_file(&path).ok();

        let workload = |r: &TkrReader| {
            r.element(&[0, 0, 0]).unwrap();
            r.reconstruct_range(&[(0, 4), (0, 7), (2, 6)]).unwrap();
            r.reconstruct_slice(2, 9).unwrap();
            r.elements(&[&[1, 2, 3], &[7, 6, 5]]).unwrap();
        };
        workload(&private);
        workload(&shared);
        assert_eq!(private.decoded_chunks(), shared.decoded_chunks());
        assert_eq!(private.cache_hits(), shared.cache_hits());
        assert_eq!(private.resident_chunks(), shared.resident_chunks());
        assert_eq!(
            private.cache_session().stats(),
            shared.cache_session().stats()
        );
    }

    #[test]
    fn zero_cache_chunks_is_a_typed_error() {
        let (_, t) = compressed(&[6, 6, 6], 1e-3);
        let path = write_chunked("zero_cache", &t, Codec::F64);
        let ctx = ExecContext::global();
        // Refused before the file is even opened.
        assert_invalid(TkrReader::open_with(&path, 0, ctx), "cache capacity");
        // Any positive capacity opens; one chunk is the legal minimum.
        let minimal = TkrReader::open_with(&path, 1, ctx).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(minimal.reconstruct().unwrap(), t.reconstruct_ctx(ctx));
        assert!(minimal.resident_chunks() <= 1);
    }
}
