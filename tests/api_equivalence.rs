//! The `tucker-api` facade contract (ISSUE 5 acceptance criteria):
//!
//! * every `CompressionPlan` path — in-memory / streaming / distributed ×
//!   tolerance / fixed-ranks, with and without HOOI refinement — is
//!   **bit-identical** to the corresponding direct-call pipeline;
//! * `CompressionPlan::write_to` produces artifacts **byte-identical** to
//!   the direct `write_tucker_ctx` / `compress_streaming` / `gather_and_write`
//!   pipelines, for every codec (f64 / f32 / q16);
//! * the eager and lazy `TensorQuery` backends answer every query shape
//!   byte-for-byte identically, through generic code that cannot tell them
//!   apart;
//! * no malformed input reachable through `tucker-api` panics — degenerate
//!   shapes, oversized ranks, bad tolerances, bad orders, bad grids, bad
//!   chunks, and out-of-range queries all surface as typed `TuckerError`s.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tucker_api::{Compressor, KernelPath, Open, PlanError, Refine, TensorQuery, TuckerError};
use tucker_core::dist::{hybrid_ctx, try_dist_hooi_ctx, try_dist_st_hosvd_ctx, DistTensor};
use tucker_core::prelude::*;
use tucker_core::validate::{RankError, ShapeError};
use tucker_distmem::runtime::spmd_with_grid;
use tucker_distmem::ProcGrid;
use tucker_exec::ExecContext;
use tucker_store::{
    compress_streaming, gather_and_write, write_tucker_ctx, Codec, FormatError, SharedChunkCache,
    StoreError, StoreOptions, TkrArtifact, TkrHeader, TkrMetadata, TkrReader, TkrWriter,
};
use tucker_tensor::DenseTensor;

static COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_tkr(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("api_equiv_{}_{tag}_{n}.tkr", std::process::id()))
}

/// Strategy: a 2–4-way tensor with odd, uneven dims so chunk and block
/// boundaries land mid-structure everywhere.
fn arbitrary_tensor() -> impl Strategy<Value = DenseTensor> {
    prop::collection::vec(3usize..=9, 2..=4).prop_flat_map(|dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(-1.0f64..1.0, len)
            .prop_map(move |data| DenseTensor::from_vec(&dims, data))
    })
}

fn assert_tucker_bits(a: &TuckerTensor, b: &TuckerTensor, what: &str) {
    assert_eq!(a.core.dims(), b.core.dims(), "{what}: core dims");
    assert_eq!(a.core.as_slice(), b.core.as_slice(), "{what}: core bits");
    assert_eq!(a.factors.len(), b.factors.len(), "{what}: factor count");
    for (n, (fa, fb)) in a.factors.iter().zip(b.factors.iter()).enumerate() {
        assert_eq!(fa.as_slice(), fb.as_slice(), "{what}: factor {n} bits");
    }
}

fn assert_sthosvd_bits(facade: &tucker_api::Compressed, direct: &SthosvdResult, what: &str) {
    let r = facade.sthosvd().expect("facade ran the ST-HOSVD path");
    assert_eq!(r.ranks, direct.ranks, "{what}: ranks");
    assert_eq!(r.processed_order, direct.processed_order, "{what}: order");
    assert_eq!(
        r.norm_x_sq.to_bits(),
        direct.norm_x_sq.to_bits(),
        "{what}: norm"
    );
    assert_eq!(
        r.discarded_energy.to_bits(),
        direct.discarded_energy.to_bits(),
        "{what}: discarded energy"
    );
    assert_eq!(
        r.mode_eigenvalues, direct.mode_eigenvalues,
        "{what}: eigenvalues"
    );
    assert_tucker_bits(&r.tucker, &direct.tucker, what);
}

/// Exercises every query shape through the `TensorQuery` trait — the same
/// generic code serves both backends, so the comparison cannot cheat.
fn query_fingerprint(q: &impl TensorQuery) -> Vec<u64> {
    let dims = q.dims().to_vec();
    let mut bits = Vec::new();
    let mut absorb = |t: DenseTensor| {
        for &v in t.as_slice() {
            bits.push(v.to_bits());
        }
    };
    absorb(q.reconstruct().expect("full reconstruction"));
    let window: Vec<(usize, usize)> = dims.iter().map(|&d| (d / 3, (d / 2).max(1))).collect();
    absorb(q.reconstruct_range(&window).expect("window"));
    absorb(
        q.reconstruct_slice(dims.len() - 1, dims[dims.len() - 1] - 1)
            .expect("slice"),
    );
    let p0: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
    let p1: Vec<usize> = dims.iter().map(|&d| d / 2).collect();
    bits.push(q.element(&p0).expect("element").to_bits());
    bits.push(q.element(&p1).expect("element").to_bits());
    bits.push(q.error_budget().to_bits());
    bits.push(q.file_bytes());
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// In-memory path, tolerance-driven: facade ≡ `try_st_hosvd_ctx`, bitwise.
    #[test]
    fn in_memory_tolerance_matches_direct(x in arbitrary_tensor()) {
        let direct = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(0.2),
            ExecContext::global(),
        )
        .unwrap();
        let facade = Compressor::new(&x).tolerance(0.2).run().expect("valid plan");
        assert_eq!(facade.kernel(), KernelPath::InMemory);
        assert_sthosvd_bits(&facade, &direct, "in-memory tolerance");
    }

    /// In-memory path, fixed ranks: facade ≡ `try_st_hosvd_ctx`, bitwise.
    #[test]
    fn in_memory_fixed_ranks_matches_direct(x in arbitrary_tensor()) {
        let ranks: Vec<usize> = x.dims().iter().map(|&d| d.min(3)).collect();
        let direct = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_ranks(ranks.clone()),
            ExecContext::global(),
        )
        .unwrap();
        let facade = Compressor::new(&x).ranks(ranks).run().expect("valid plan");
        assert_sthosvd_bits(&facade, &direct, "in-memory fixed ranks");
    }

    /// Refined path: facade `.refine(..)` ≡ `try_hooi_ctx`, bitwise, including the
    /// fit history.
    #[test]
    fn refined_matches_direct_hooi(x in arbitrary_tensor()) {
        let ranks: Vec<usize> = x.dims().iter().map(|&d| d.min(2)).collect();
        let direct = try_hooi_ctx(
            &x,
            &HooiOptions::with_ranks(ranks.clone(), 2),
            ExecContext::global(),
        )
        .unwrap();
        let facade = Compressor::new(&x)
            .ranks(ranks)
            .refine(Refine::sweeps(2))
            .run()
            .expect("valid plan");
        assert_eq!(facade.kernel(), KernelPath::InMemoryRefined);
        let h = facade.hooi().expect("refined run returns HOOI diagnostics");
        assert_eq!(h.iterations, direct.iterations, "iterations");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&h.fit_history), bits(&direct.fit_history), "fit history");
        assert_tucker_bits(&h.tucker, &direct.tucker, "hooi");
    }

    /// Streaming path across slab widths: facade ≡
    /// `try_st_hosvd_streaming_ctx` ≡ `try_st_hosvd_ctx`, bitwise.
    #[test]
    fn streaming_matches_direct(x in arbitrary_tensor()) {
        let in_memory = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(0.2),
            ExecContext::global(),
        )
        .unwrap();
        let last = *x.dims().last().unwrap();
        for width in [1usize, 3, last] {
            let facade = Compressor::from_slabs(&x)
                .tolerance(0.2)
                .slab_width(width)
                .run()
                .expect("valid plan");
            assert_eq!(facade.kernel(), KernelPath::Streaming);
            assert_sthosvd_bits(&facade, &in_memory, &format!("streaming width {width}"));
        }
    }

    /// Distributed path on a 2×1×…grid: facade ≡ `try_dist_st_hosvd_ctx` + gather,
    /// bitwise, for tolerance and fixed-rank selection.
    #[test]
    fn distributed_matches_direct(x in arbitrary_tensor()) {
        let mut grid_shape = vec![1usize; x.ndims()];
        grid_shape[0] = 2.min(x.dims()[0]);
        let ranks: Vec<usize> = x.dims().iter().map(|&d| d.min(3)).collect();
        for sel in [SthosvdOptions::with_tolerance(0.2), SthosvdOptions::with_ranks(ranks)] {
            let x2 = x.clone();
            let sel2 = sel.clone();
            let direct = spmd_with_grid(ProcGrid::new(&grid_shape), move |comm| {
                let dx = DistTensor::from_global(&comm, &x2);
                let r = try_dist_st_hosvd_ctx(&comm, &dx, &sel2, &hybrid_ctx(&comm)).unwrap();
                r.tucker.gather_to_root(&comm).map(|t| (t, r.ranks))
            })
            .into_iter()
            .flatten()
            .next()
            .expect("root gathered");

            let mut c = Compressor::distributed(&x, ProcGrid::new(&grid_shape));
            c = match &sel.rank {
                tucker_core::rank::RankSelection::Fixed(r) => c.ranks(r.clone()),
                _ => c.tolerance(0.2),
            };
            let facade = c.run().expect("valid plan");
            assert_eq!(facade.kernel(), KernelPath::Distributed);
            assert!(facade.dist_info().is_some(), "distributed runs carry stats");
            assert_eq!(facade.ranks(), direct.1.as_slice(), "dist ranks");
            assert_tucker_bits(facade.tucker(), &direct.0, "distributed");
        }
    }

    /// The write sink, all three codecs: facade artifacts are byte-identical
    /// to `write_tucker_ctx` on the direct decomposition — and, for the
    /// streaming source, to the `compress_streaming` pipeline.
    #[test]
    fn write_to_is_byte_identical_for_every_codec(x in arbitrary_tensor()) {
        let eps = 1e-2;
        let direct = try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_tolerance(eps),
            ExecContext::global(),
        )
        .unwrap();
        for codec in Codec::all() {
            let direct_path = temp_tkr(&format!("direct_{}", codec.name()));
            write_tucker_ctx(&direct_path, &direct.tucker, &StoreOptions::new(codec, eps), ExecContext::global()).unwrap();

            let facade_path = temp_tkr(&format!("facade_{}", codec.name()));
            let written = Compressor::new(&x)
                .tolerance(eps)
                .codec(codec)
                .write_to(&facade_path)
                .expect("valid plan");

            let direct_bytes = std::fs::read(&direct_path).unwrap();
            let facade_bytes = std::fs::read(&facade_path).unwrap();
            assert_eq!(direct_bytes, facade_bytes, "{}: artifact bytes", codec.name());
            assert_eq!(written.report.bytes as usize, facade_bytes.len());

            // Streaming source → same bytes again (compress_streaming is the
            // direct-call equivalent).
            let stream_path = temp_tkr(&format!("stream_{}", codec.name()));
            let (_, report) = compress_streaming(
                &stream_path,
                &x,
                &SthosvdOptions::with_tolerance(eps),
                &StreamingOptions::with_slab_width(2),
                &StoreOptions::new(codec, eps),
                ExecContext::global(),
            )
            .unwrap();
            let facade_stream_path = temp_tkr(&format!("fstream_{}", codec.name()));
            Compressor::from_slabs(&x)
                .tolerance(eps)
                .slab_width(2)
                .codec(codec)
                .write_to(&facade_stream_path)
                .expect("valid plan");
            assert_eq!(
                std::fs::read(&stream_path).unwrap(),
                std::fs::read(&facade_stream_path).unwrap(),
                "{}: streaming artifact bytes",
                codec.name()
            );
            assert_eq!(report.bytes as usize, facade_bytes.len());

            for p in [&direct_path, &facade_path, &stream_path, &facade_stream_path] {
                std::fs::remove_file(p).ok();
            }
        }
    }

    /// Eager and lazy `TensorQuery` backends agree byte-for-byte on every
    /// query shape, for every codec, through backend-blind generic code.
    #[test]
    fn eager_and_lazy_readers_agree_byte_for_byte(x in arbitrary_tensor()) {
        let eps = 1e-2;
        for codec in Codec::all() {
            let path = temp_tkr(&format!("query_{}", codec.name()));
            Compressor::new(&x)
                .tolerance(eps)
                .codec(codec)
                .write_to(&path)
                .expect("valid plan");
            let eager = Open::eager().open(&path).expect("eager open");
            let lazy = Open::lazy().cache_chunks(2).open(&path).expect("lazy open");
            std::fs::remove_file(&path).ok();
            assert_eq!(
                query_fingerprint(&eager),
                query_fingerprint(&lazy),
                "{}: eager vs lazy disagree",
                codec.name()
            );
            // Batched elements: one point-contraction routine behind both
            // readers, so every batch is bit-identical to the per-point
            // query — the readers' documented contract.
            let dims = x.dims();
            let p0: Vec<usize> = dims.iter().map(|&d| d - 1).collect();
            let p1: Vec<usize> = dims.iter().map(|&d| d / 2).collect();
            let points = [p0.as_slice(), p1.as_slice()];
            let lazy_batch = lazy.elements(&points).expect("lazy batch");
            let eager_batch = eager.elements(&points).expect("eager batch");
            for (i, p) in points.iter().enumerate() {
                let single = eager.element(p).expect("element");
                assert_eq!(lazy_batch[i].to_bits(), single.to_bits(), "lazy batch bit-exact");
                assert_eq!(eager_batch[i].to_bits(), single.to_bits(), "eager batch bit-exact");
            }
            // The cache bound held while answering.
            let lazy_reader = lazy.as_lazy().expect("lazy backend");
            assert!(lazy_reader.resident_chunks() <= 2);
        }
    }
}

// ---------------------------------------------------------------------------
// Distributed write sink: facade bytes ≡ gather_and_write bytes.
// ---------------------------------------------------------------------------

#[test]
fn distributed_write_matches_gather_and_write() {
    let x = DenseTensor::from_fn(&[8, 9, 6], |idx| {
        (0.3 * idx[0] as f64).sin() + (0.2 * (idx[1] * idx[2]) as f64).cos()
    });
    let eps = 1e-3;
    let grid_shape = [2usize, 2, 1];

    let direct_path = temp_tkr("gather_direct");
    let p2 = direct_path.clone();
    let x2 = x.clone();
    spmd_with_grid(ProcGrid::new(&grid_shape), move |comm| {
        let dx = DistTensor::from_global(&comm, &x2);
        let r = try_dist_st_hosvd_ctx(
            &comm,
            &dx,
            &SthosvdOptions::with_tolerance(eps),
            &hybrid_ctx(&comm),
        )
        .unwrap();
        gather_and_write(&comm, &r.tucker, &p2, &StoreOptions::new(Codec::Q16, eps)).unwrap();
    });

    let facade_path = temp_tkr("gather_facade");
    Compressor::distributed(&x, ProcGrid::new(&grid_shape))
        .tolerance(eps)
        .codec(Codec::Q16)
        .write_to(&facade_path)
        .expect("valid plan");

    assert_eq!(
        std::fs::read(&direct_path).unwrap(),
        std::fs::read(&facade_path).unwrap(),
        "distributed artifact bytes differ from gather_and_write"
    );
    std::fs::remove_file(&direct_path).ok();
    std::fs::remove_file(&facade_path).ok();
}

#[test]
fn distributed_refined_matches_direct_dist_hooi() {
    let x = DenseTensor::from_fn(&[8, 7, 6], |idx| {
        (0.4 * idx[0] as f64).cos() + 0.05 * (idx[1] * idx[2]) as f64
    });
    let grid_shape = [2usize, 1, 1];
    let ranks = vec![3usize, 3, 3];

    let r2 = ranks.clone();
    let x2 = x.clone();
    let direct = spmd_with_grid(ProcGrid::new(&grid_shape), move |comm| {
        let dx = DistTensor::from_global(&comm, &x2);
        let r = try_dist_hooi_ctx(
            &comm,
            &dx,
            &HooiOptions::with_ranks(r2.clone(), 2),
            &hybrid_ctx(&comm),
        )
        .unwrap();
        r.tucker.gather_to_root(&comm)
    })
    .into_iter()
    .flatten()
    .next()
    .expect("root gathered");

    let facade = Compressor::distributed(&x, ProcGrid::new(&grid_shape))
        .ranks(ranks)
        .refine(Refine::sweeps(2))
        .run()
        .expect("valid plan");
    assert_eq!(facade.kernel(), KernelPath::DistributedRefined);
    assert_tucker_bits(facade.tucker(), &direct, "distributed hooi");
}

// ---------------------------------------------------------------------------
// Negative paths: every malformed input is a typed error, never a panic.
// ---------------------------------------------------------------------------

#[test]
fn degenerate_shapes_are_typed_errors() {
    // Empty shape: a DenseTensor cannot even be built with one, but an
    // external SlabSource can claim one — the facade rejects it cleanly.
    struct EmptySource;
    impl tucker_tensor::SlabSource for EmptySource {
        fn dims(&self) -> &[usize] {
            &[]
        }
        fn fill_slab(&self, _: usize, _: usize, _: &mut [f64]) {
            unreachable!("validation rejects the source before any read")
        }
    }
    assert!(matches!(
        Compressor::from_slabs(&EmptySource).tolerance(0.1).run(),
        Err(TuckerError::Shape(ShapeError::EmptyShape))
    ));

    // Zero-extent mode.
    let empty = DenseTensor::zeros(&[4, 0, 3]);
    assert!(matches!(
        Compressor::new(&empty).tolerance(0.1).run(),
        Err(TuckerError::Shape(ShapeError::ZeroDim { mode: 1 }))
    ));

    // A 1-way tensor cannot stream.
    let one_way = DenseTensor::zeros(&[5]);
    assert!(matches!(
        Compressor::from_slabs(&one_way).tolerance(0.1).run(),
        Err(TuckerError::Shape(ShapeError::TooFewModes {
            need: 2,
            got: 1
        }))
    ));
}

#[test]
fn bad_rank_selections_are_typed_errors() {
    let x = DenseTensor::zeros(&[6, 5, 4]);
    // Oversized rank (the satellite case: with_ranks exceeding mode dims).
    assert!(matches!(
        Compressor::new(&x).ranks(vec![6, 9, 4]).run(),
        Err(TuckerError::Rank(RankError::ExceedsDim {
            mode: 1,
            rank: 9,
            dim: 5
        }))
    ));
    assert!(matches!(
        tucker_core::try_st_hosvd_ctx(
            &x,
            &SthosvdOptions::with_ranks(vec![6, 9, 4]),
            ExecContext::global()
        ),
        Err(tucker_core::CoreError::Rank(RankError::ExceedsDim { .. }))
    ));
    // Wrong arity and zero rank.
    assert!(matches!(
        Compressor::new(&x).ranks(vec![2, 2]).run(),
        Err(TuckerError::Rank(RankError::Arity {
            expected: 3,
            got: 2
        }))
    ));
    assert!(matches!(
        Compressor::new(&x).ranks(vec![2, 0, 2]).run(),
        Err(TuckerError::Rank(RankError::ZeroRank { mode: 1 }))
    ));
    // Bad tolerances.
    for bad in [-0.5, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            Compressor::new(&x).tolerance(bad).run(),
            Err(TuckerError::Rank(RankError::BadTolerance { .. }))
        ));
    }
    // No target at all.
    assert!(matches!(
        Compressor::new(&x).run(),
        Err(TuckerError::Plan(PlanError::NoTarget))
    ));
}

#[test]
fn bad_orders_grids_and_refines_are_typed_errors() {
    let x = DenseTensor::zeros(&[6, 5, 4]);
    // Non-permutation custom order.
    assert!(matches!(
        Compressor::new(&x)
            .tolerance(0.1)
            .order(ModeOrder::Custom(vec![0, 0, 1]))
            .run(),
        Err(TuckerError::Shape(ShapeError::InvalidModeOrder { .. }))
    ));
    // Streaming with an order that does not end in the last mode.
    assert!(matches!(
        Compressor::from_slabs(&x)
            .tolerance(0.1)
            .order(ModeOrder::Custom(vec![2, 1, 0]))
            .run(),
        Err(TuckerError::Shape(ShapeError::StreamingOrderNotLast { .. }))
    ));
    // Refinement on a streaming source.
    assert!(matches!(
        Compressor::from_slabs(&x)
            .tolerance(0.1)
            .refine(Refine::sweeps(2))
            .run(),
        Err(TuckerError::Plan(PlanError::RefineNeedsResident))
    ));
    // Grid arity mismatch and oversubscribed grid — the same taxonomy as
    // the core try_dist_* entry points.
    assert!(matches!(
        Compressor::distributed(&x, ProcGrid::new(&[2, 2]))
            .tolerance(0.1)
            .run(),
        Err(TuckerError::Shape(ShapeError::GridArity {
            grid: 2,
            tensor: 3
        }))
    ));
    assert!(matches!(
        Compressor::distributed(&x, ProcGrid::new(&[1, 1, 8]))
            .tolerance(0.1)
            .run(),
        Err(TuckerError::Shape(ShapeError::GridExceedsDim {
            mode: 2,
            procs: 8,
            dim: 4
        }))
    ));
}

/// A tensor whose `‖X‖²` is not finite (one NaN entry, one `+∞` entry, or
/// entries whose squares overflow) is refused with a typed error on every
/// compression path, before any eigensolve — none of them panics.
#[test]
fn non_finite_input_is_a_typed_error_on_every_path() {
    let smooth = DenseTensor::from_fn(&[12, 10, 8], |idx| {
        (0.3 * idx[0] as f64).sin() + (0.2 * idx[1] as f64 * idx[2] as f64).cos() + 2.0
    });
    let with_entry = |v: f64| {
        let mut x = smooth.clone();
        x.set(&[5, 4, 3], v);
        x
    };
    let mut huge = smooth.clone();
    huge.scale(1e160);
    let cases = [
        ("one NaN entry", with_entry(f64::NAN)),
        ("one +inf entry", with_entry(f64::INFINITY)),
        ("scaled by 1e160", huge),
    ];
    let refused = |what: &str, path: &str, r: Result<tucker_api::Compressed, TuckerError>| match r {
        Err(TuckerError::NonFinite { norm_x_sq }) => {
            assert!(!norm_x_sq.is_finite(), "{what}, {path}: {norm_x_sq}")
        }
        Err(e) => panic!("{what}, {path}: wrong error {e}"),
        Ok(_) => panic!("{what}, {path}: accepted"),
    };
    for (what, x) in &cases {
        refused(what, "new", Compressor::new(x).tolerance(1e-3).run());
        refused(
            what,
            "new + refine",
            Compressor::new(x)
                .tolerance(1e-3)
                .refine(Refine::sweeps(2))
                .run(),
        );
        refused(
            what,
            "from_slabs",
            Compressor::from_slabs(x).tolerance(1e-3).run(),
        );
        for grid in [vec![1usize, 1, 1], vec![2, 1, 1], vec![2, 2, 1]] {
            refused(
                what,
                "distributed",
                Compressor::distributed(x, ProcGrid::new(&grid))
                    .tolerance(1e-3)
                    .run(),
            );
            refused(
                what,
                "distributed + refine",
                Compressor::distributed(x, ProcGrid::new(&grid))
                    .ranks(vec![3, 3, 3])
                    .refine(Refine::sweeps(2))
                    .run(),
            );
        }
        // The core entry points return the CoreError the facade maps.
        assert!(matches!(
            try_st_hosvd_ctx(
                x,
                &SthosvdOptions::with_tolerance(1e-3),
                ExecContext::global()
            ),
            Err(CoreError::NonFinite { .. })
        ));
    }
}

#[test]
fn writer_contract_violations_are_typed_errors() {
    let x = DenseTensor::from_fn(&[6, 6, 6], |idx| (idx[0] + idx[1] + idx[2]) as f64);
    let t = try_st_hosvd_ctx(
        &x,
        &SthosvdOptions::with_tolerance(1e-3),
        ExecContext::global(),
    )
    .unwrap()
    .tucker;
    let header = TkrHeader {
        dims: t.original_dims(),
        ranks: t.ranks(),
        eps: 1e-3,
        codec: Codec::F64,
        quant_error_bound: 0.0,
        meta: TkrMetadata::default(),
    };
    let path = temp_tkr("writer_contract");
    let mut w = TkrWriter::create(&path, header.clone()).expect("valid header");

    // The satellite case: a zero-size chunk is a typed error, not an abort —
    // and surfaces as TuckerError through the facade's From conversions.
    let err: TuckerError = w.write_core_chunk(&[]).unwrap_err().into();
    assert!(matches!(err, TuckerError::Format(FormatError::EmptyChunk)));

    // Misaligned and overrunning chunks.
    let stride: usize = t.ranks()[..2].iter().product();
    assert!(matches!(
        w.write_core_chunk(&vec![0.0; stride + 1]).unwrap_err(),
        tucker_store::StoreError::Format(FormatError::MisalignedChunk { .. })
    ));
    let total: usize = t.ranks().iter().product();
    assert!(matches!(
        w.write_core_chunk(&vec![0.0; total + stride]).unwrap_err(),
        tucker_store::StoreError::Format(FormatError::CoreOverrun { .. })
    ));

    // Factor violations.
    assert!(matches!(
        w.write_factor(7, &t.factors[0]).unwrap_err(),
        tucker_store::StoreError::Format(FormatError::ModeOutOfRange { mode: 7, .. })
    ));
    w.write_factor(0, &t.factors[0]).expect("first write");
    assert!(matches!(
        w.write_factor(0, &t.factors[0]).unwrap_err(),
        tucker_store::StoreError::Format(FormatError::FactorRewritten { mode: 0 })
    ));

    // Premature finish.
    assert!(matches!(
        w.finish().unwrap_err(),
        tucker_store::StoreError::Format(FormatError::MissingFactor { mode: 1 })
    ));
    std::fs::remove_file(&path).ok();

    // A header with rank > dim is rejected at creation.
    let mut bad_header = header;
    bad_header.ranks[1] = bad_header.dims[1] + 2;
    let path2 = temp_tkr("bad_header");
    assert!(matches!(
        TkrWriter::create(&path2, bad_header).err(),
        Some(tucker_store::StoreError::Format(
            FormatError::RankExceedsDim { mode: 1, .. }
        ))
    ));
    std::fs::remove_file(&path2).ok();
}

#[test]
fn open_and_query_failures_are_typed_errors() {
    // Opening garbage is a Format error, not a panic (and not a bare Io).
    let path = temp_tkr("garbage");
    std::fs::write(&path, b"definitely not a tkr file").unwrap();
    assert!(matches!(
        Open::eager().open(&path),
        Err(TuckerError::Format(FormatError::Invalid(_)))
    ));
    assert!(matches!(
        Open::lazy().open(&path),
        Err(TuckerError::Format(FormatError::Invalid(_)))
    ));
    std::fs::remove_file(&path).ok();

    // A missing file stays an Io error.
    assert!(matches!(
        Open::eager().open("/nonexistent/nope.tkr"),
        Err(TuckerError::Io(_))
    ));

    // Out-of-range queries on a healthy artifact are typed Query errors on
    // both backends.
    let x = DenseTensor::from_fn(&[6, 5, 4], |idx| (idx[0] * idx[1] + idx[2]) as f64);
    let path = temp_tkr("healthy");
    Compressor::new(&x)
        .tolerance(1e-3)
        .write_to(&path)
        .expect("valid plan");
    for reader in [
        Open::eager().open(&path).unwrap(),
        Open::lazy().open(&path).unwrap(),
    ] {
        assert!(reader.reconstruct_range(&[(0, 2)]).is_err());
        assert!(reader.reconstruct_range(&[(0, 0), (0, 5), (0, 4)]).is_err());
        assert!(reader.reconstruct_slice(5, 0).is_err());
        assert!(reader.element(&[6, 0, 0]).is_err());
        assert!(reader.elements(&[&[0, 0, 0], &[0, 9, 0]]).is_err());
        // And valid requests still succeed afterwards.
        assert!(reader.element(&[5, 4, 3]).is_ok());
    }

    // cache_chunks(0) is a typed plan error on BOTH backends — a lazy
    // reader cannot function with zero resident chunks, and the eager
    // builder rejects it uniformly rather than silently ignoring it.
    for builder in [Open::eager(), Open::lazy()] {
        assert!(matches!(
            builder.cache_chunks(0).open(&path),
            Err(TuckerError::Plan(PlanError::ZeroCacheChunks))
        ));
    }
    // cache_chunks(1) remains the legal minimum and answers correctly.
    let minimal = Open::lazy().cache_chunks(1).open(&path).unwrap();
    assert!(minimal.element(&[5, 4, 3]).is_ok());
    std::fs::remove_file(&path).ok();
}

/// Every prefix of a valid artifact — cut at every byte offset, through
/// the header, the factor blocks, the chunk framing, the chunk payloads and
/// the end marker — fails to open with a typed format (or codec) error on
/// every open path: both store readers, the shared-cache reader, and both
/// facade backends. A short file is a corrupt artifact, never an IO error
/// and never a panic; only a missing file is IO.
#[test]
fn every_truncated_artifact_is_a_format_error_on_every_open_path() {
    let x = DenseTensor::from_fn(&[6, 5, 4], |idx| {
        ((idx[0] + 2 * idx[1]) as f64 * 0.3).sin() + 0.5 * idx[2] as f64
    });
    let ctx = ExecContext::global();
    let t = try_st_hosvd_ctx(&x, &SthosvdOptions::with_ranks(vec![3, 3, 3]), ctx)
        .unwrap()
        .tucker;
    let cut_path = temp_tkr("cut");
    let cache = SharedChunkCache::new(4, 1);
    let mut opens = 0usize;
    for codec in Codec::all() {
        // One slab per chunk: three core chunks behind three factor blocks.
        let path = temp_tkr("whole");
        let header = TkrHeader {
            dims: t.original_dims(),
            ranks: t.ranks(),
            eps: 1e-3,
            codec,
            quant_error_bound: 0.0,
            meta: TkrMetadata::default(),
        };
        let mut w = TkrWriter::create(&path, header).unwrap();
        for (n, u) in t.factors.iter().enumerate() {
            w.write_factor(n, u).unwrap();
        }
        for s in 0..t.core.dims()[2] {
            w.write_core_chunk(t.core.last_mode_slab(s, 1)).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::write(&cut_path, &bytes).unwrap();
        assert_eq!(
            TkrReader::open_with(&cut_path, 4, ctx)
                .unwrap()
                .chunk_count(),
            3
        );

        for cut in 0..bytes.len() {
            std::fs::write(&cut_path, &bytes[..cut]).unwrap();
            let key = format!("{}-{cut}", codec.name());
            let store_opens = [
                (
                    "TkrArtifact::open_ctx",
                    TkrArtifact::open_ctx(&cut_path, ctx).map(drop),
                ),
                (
                    "TkrReader::open_with",
                    TkrReader::open_with(&cut_path, 4, ctx).map(drop),
                ),
                (
                    "TkrReader::open_shared",
                    TkrReader::open_shared(&cut_path, &key, &cache, ctx).map(drop),
                ),
            ];
            for (how, r) in store_opens {
                assert!(
                    matches!(r, Err(StoreError::Format(_) | StoreError::Codec(_))),
                    "{} artifact cut at {cut} of {}: {how} gave {r:?}",
                    codec.name(),
                    bytes.len()
                );
                opens += 1;
            }
            for (how, builder) in [("Open::eager", Open::eager()), ("Open::lazy", Open::lazy())] {
                let r = builder.open(&cut_path).map(drop);
                assert!(
                    matches!(r, Err(TuckerError::Format(_) | TuckerError::Codec(_))),
                    "{} artifact cut at {cut} of {}: {how} gave {r:?}",
                    codec.name(),
                    bytes.len()
                );
                opens += 1;
            }
        }
    }
    std::fs::remove_file(&cut_path).ok();
    assert!(opens > 3000, "only {opens} truncated opens were tried");
    // A failed open leaves no session behind in the shared cache.
    assert_eq!(cache.artifacts(), vec![]);

    // A missing file is still a filesystem error, on every path.
    let missing = temp_tkr("missing");
    let not_found = |r: Result<(), StoreError>| matches!(r, Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound);
    assert!(not_found(TkrArtifact::open_ctx(&missing, ctx).map(drop)));
    assert!(not_found(TkrReader::open_with(&missing, 4, ctx).map(drop)));
    assert!(not_found(
        TkrReader::open_shared(&missing, "missing", &cache, ctx).map(drop)
    ));
    for builder in [Open::eager(), Open::lazy()] {
        assert!(matches!(
            builder.open(&missing).map(drop),
            Err(TuckerError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound
        ));
    }
}

#[test]
fn rejected_header_does_not_truncate_an_existing_artifact() {
    // A service re-using an output path must not lose the previous artifact
    // when a malformed write request is rejected: validation runs before
    // the file is created/truncated.
    let x = DenseTensor::from_fn(&[6, 5, 4], |idx| (idx[0] + idx[1] * idx[2]) as f64);
    let path = temp_tkr("no_truncate");
    Compressor::new(&x)
        .tolerance(1e-3)
        .write_to(&path)
        .expect("valid plan");
    let before = std::fs::read(&path).unwrap();
    let bad = TkrHeader {
        dims: vec![6, 5, 4],
        ranks: vec![2, 9, 2], // rank > dim: rejected
        eps: 1e-3,
        codec: Codec::F64,
        quant_error_bound: 0.0,
        meta: TkrMetadata::default(),
    };
    assert!(TkrWriter::create(&path, bad).is_err());
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "rejected request truncated the existing artifact"
    );
    // The same guarantee for headers only the serializer used to reject:
    // empty shape and label-arity mismatches are caught before File::create.
    let empty = TkrHeader {
        dims: vec![],
        ranks: vec![],
        eps: 1e-3,
        codec: Codec::F64,
        quant_error_bound: 0.0,
        meta: TkrMetadata::default(),
    };
    assert!(matches!(
        TkrWriter::create(&path, empty),
        Err(tucker_store::StoreError::Format(FormatError::Invalid(_)))
    ));
    let bad_labels = TkrHeader {
        dims: vec![6, 5, 4],
        ranks: vec![2, 2, 2],
        eps: 1e-3,
        codec: Codec::F64,
        quant_error_bound: 0.0,
        meta: TkrMetadata {
            dataset: "X".into(),
            mode_labels: vec!["only one".into()],
            normalization: None,
        },
    };
    assert!(matches!(
        TkrWriter::create(&path, bad_labels),
        Err(tucker_store::StoreError::Format(FormatError::Invalid(_)))
    ));
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "serializer-level rejection truncated the existing artifact"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn inconsistent_metadata_is_rejected_at_plan_time_as_format() {
    // A label count disagreeing with the shape must fail before any kernel
    // runs — and as a Format error, not as Io after the compression.
    let x = DenseTensor::zeros(&[6, 5, 4]);
    let meta = TkrMetadata {
        dataset: "X".into(),
        mode_labels: vec!["just one".into()],
        normalization: None,
    };
    assert!(matches!(
        Compressor::new(&x).tolerance(0.1).meta(meta).plan().err(),
        Some(TuckerError::Format(FormatError::Invalid(_)))
    ));
}

#[test]
fn declared_eps_is_stamped_into_fixed_rank_artifacts() {
    let x = DenseTensor::from_fn(&[8, 7, 6], |idx| (idx[0] * idx[1] + idx[2]) as f64);
    let path = temp_tkr("declared_eps");
    // Fixed ranks carry no intrinsic tolerance; the caller declares the
    // bound it knows, and readers' error budgets reflect it.
    let ranks = vec![3usize, 3, 3];
    let direct = try_st_hosvd_ctx(
        &x,
        &SthosvdOptions::with_ranks(ranks.clone()),
        ExecContext::global(),
    )
    .unwrap();
    let declared = direct.error_bound();
    Compressor::new(&x)
        .ranks(ranks.clone())
        .declared_eps(declared)
        .write_to(&path)
        .expect("valid plan");
    let reader = Open::eager().open(&path).expect("open");
    assert_eq!(reader.header().eps.to_bits(), declared.to_bits());
    assert!(reader.error_budget() >= declared);
    std::fs::remove_file(&path).ok();

    // Without a declaration the fixed-rank default stays 0.0 (and the
    // declaration itself is validated).
    let path2 = temp_tkr("default_eps");
    Compressor::new(&x)
        .ranks(ranks.clone())
        .write_to(&path2)
        .expect("valid plan");
    let reader = Open::eager().open(&path2).expect("open");
    assert_eq!(reader.header().eps, 0.0);
    std::fs::remove_file(&path2).ok();
    assert!(matches!(
        Compressor::new(&x)
            .ranks(ranks)
            .declared_eps(f64::NAN)
            .run(),
        Err(TuckerError::Rank(RankError::BadTolerance { .. }))
    ));
}

#[test]
fn slab_range_errors_convert_into_the_hierarchy() {
    let x = DenseTensor::zeros(&[4, 3, 5]);
    let err: TuckerError = x.try_last_mode_slab(4, 3).unwrap_err().into();
    assert!(matches!(err, TuckerError::Slab(_)));
    assert!(err.to_string().contains("slab"), "unhelpful: {err}");
}

#[test]
fn facade_error_display_is_actionable() {
    let x = DenseTensor::zeros(&[6, 5, 4]);
    let err = Compressor::new(&x).ranks(vec![6, 9, 4]).run().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("rank 9") && msg.contains("mode 1"),
        "unhelpful: {msg}"
    );
    let err = Compressor::new(&x).run().unwrap_err();
    assert!(err.to_string().contains("tolerance"), "unhelpful: {err}");
}
