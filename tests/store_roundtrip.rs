//! Round-trip fidelity of the `tucker-store` subsystem, property-based and on
//! the paper's surrogate datasets.
//!
//! The contract under test:
//! * write → read → `reconstruct_subtensor` matches slicing the direct
//!   reconstruction, for every codec: **bit-identically** when
//!   `window_order` contracts the window in natural order, and within the
//!   proved round-off bound (`window_roundoff_bound`) when the window is
//!   mixed and its narrow modes go first;
//! * the quantization error a codec introduces stays within the artifact's
//!   declared budget (`eps + quant_error_bound`);
//! * a `Tucker` compressed from the SP surrogate round-trips through `.tkr`
//!   with relative error ≤ ε, for the lossless and quantized codecs alike,
//!   and the same holds for `DistTucker` output on a non-trivial grid.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tucker_core::dist::{dist_st_hosvd, DistTensor};
use tucker_core::ordering::window_order;
use tucker_core::prelude::*;
use tucker_core::reconstruct::window_roundoff_bound;
use tucker_distmem::runtime::spmd_with_grid;
use tucker_distmem::ProcGrid;
use tucker_scidata::DatasetPreset;
use tucker_store::{
    gather_and_write, write_tucker_ctx, Codec, StoreOptions, TkrArtifact, TkrMetadata,
};
use tucker_tensor::{extract_subtensor, relative_error, DenseTensor, SubtensorSpec};

static COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_tkr(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "store_roundtrip_{}_{tag}_{n}.tkr",
        std::process::id()
    ))
}

/// Checks a window against the same window of the full reconstruction:
/// bit for bit when the window contracts in natural order, within the
/// proved round-off bound otherwise.
fn window_agrees_with_full(
    t: &TuckerTensor,
    spec: &SubtensorSpec,
    window: &DenseTensor,
    full: &DenseTensor,
) -> Result<(), String> {
    let expected = extract_subtensor(full, spec);
    let natural = window_order(&t.ranks(), &spec.sub_dims())
        .into_iter()
        .eq(0..t.ndims());
    if natural {
        return (window == &expected)
            .then_some(())
            .ok_or_else(|| "natural-order window is not bit-identical to the full one".into());
    }
    if window.dims() != expected.dims() {
        return Err(format!(
            "window dims {:?} vs {:?}",
            window.dims(),
            expected.dims()
        ));
    }
    let bound = window_roundoff_bound(t, spec);
    for (k, ((w, e), b)) in window
        .as_slice()
        .iter()
        .zip(expected.as_slice())
        .zip(bound.as_slice())
        .enumerate()
    {
        if (w - e).abs() > *b {
            return Err(format!("entry {k}: |{w} - {e}| above the bound {b}"));
        }
    }
    Ok(())
}

/// Strategy: a random 3-way tensor with dims in 3..=7 and values in [-1, 1].
fn arbitrary_tensor() -> impl Strategy<Value = DenseTensor> {
    prop::collection::vec(3usize..=7, 3..=3).prop_flat_map(|dims| {
        let len: usize = dims.iter().product();
        prop::collection::vec(-1.0f64..1.0, len)
            .prop_map(move |data| DenseTensor::from_vec(&dims, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every codec: the artifact's partial reconstruction agrees with
    /// slicing its full reconstruction (bitwise unless the window is mixed),
    /// and the extra error the codec introduced stays within the declared
    /// quantization bound.
    #[test]
    fn write_read_reconstruct_subtensor_matches_direct(x in arbitrary_tensor()) {
        let eps = 1e-2;
        let t = st_hosvd(&x, &SthosvdOptions::with_tolerance(eps)).tucker;
        let direct = t.reconstruct();
        let spec = SubtensorSpec::from_ranges(
            &x.dims().iter().map(|&d| (d / 3, (d / 2).max(1))).collect::<Vec<_>>(),
        );
        for codec in Codec::all() {
            let path = temp_tkr(codec.name());
            let report = write_tucker_ctx(&path, &t, &StoreOptions::new(codec, eps), tucker_exec::ExecContext::global()).unwrap();
            let artifact = TkrArtifact::open_ctx(&path, tucker_exec::ExecContext::global()).unwrap();
            std::fs::remove_file(&path).ok();

            // Partial == sliced full reconstruction, bitwise unless mixed.
            let full = artifact.reconstruct();
            let window = artifact.reconstruct_subtensor(&spec).unwrap();
            let agrees = window_agrees_with_full(artifact.tucker(), &spec, &window, &full);
            prop_assert!(agrees.is_ok(), "codec {}: {:?}", codec.name(), agrees);

            // The codec's extra error obeys the declared first-order bound
            // (small slack for the higher-order terms the bound drops).
            let extra = relative_error(&direct, &full);
            prop_assert!(
                extra <= 1.05 * report.quant_error_bound + 1e-12,
                "codec {}: extra error {} exceeds declared bound {}",
                codec.name(), extra, report.quant_error_bound
            );
            // And the total stays within the artifact's declared budget.
            let total = relative_error(&x, &full);
            prop_assert!(
                total <= artifact.error_budget() + 1e-10,
                "codec {}: total error {} exceeds budget {}",
                codec.name(), total, artifact.error_budget()
            );
        }
    }

    /// The lossless codec reproduces the decomposition exactly — the artifact
    /// is indistinguishable from the in-memory `TuckerTensor`.
    #[test]
    fn f64_artifact_is_exactly_the_tucker(x in arbitrary_tensor()) {
        let t = st_hosvd(&x, &SthosvdOptions::with_tolerance(1e-3)).tucker;
        let path = temp_tkr("exact");
        write_tucker_ctx(&path, &t, &StoreOptions::new(Codec::F64, 1e-3), tucker_exec::ExecContext::global()).unwrap();
        let artifact = TkrArtifact::open_ctx(&path, tucker_exec::ExecContext::global()).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(artifact.tucker(), &t);
    }
}

/// The SP surrogate round-trips through `.tkr` with relative error ≤ ε, and
/// a ~1% window reconstructs like slicing the full reconstruction (bitwise
/// unless the window is mixed, within the round-off bound if it is) — for
/// the f64 and quantized codecs, and for `DistTucker` output on a
/// non-trivial processor grid.
#[test]
fn sp_surrogate_round_trips_within_eps_for_all_codecs() {
    let eps = 1e-3;
    let ds = DatasetPreset::Sp.generate(1, 2024);
    let result = st_hosvd(&ds.data, &SthosvdOptions::with_tolerance(eps));

    // A ~1% window of the 24×24×24×8×16 field.
    let window_ranges: Vec<(usize, usize)> = vec![(6, 6), (9, 6), (0, 6), (2, 4), (5, 5)];

    for codec in [Codec::F64, Codec::F32, Codec::Q16] {
        let path = temp_tkr(&format!("sp_{}", codec.name()));
        let opts = StoreOptions::new(codec, eps).with_meta(TkrMetadata::for_dataset(&ds));
        write_tucker_ctx(
            &path,
            &result.tucker,
            &opts,
            tucker_exec::ExecContext::global(),
        )
        .unwrap();
        let artifact = TkrArtifact::open_ctx(&path, tucker_exec::ExecContext::global()).unwrap();
        std::fs::remove_file(&path).ok();

        let full = artifact.reconstruct();
        let err = relative_error(&ds.data, &full);
        assert!(
            err <= eps,
            "{}: SP round-trip error {err} above eps {eps}",
            codec.name()
        );

        let window = artifact.reconstruct_range(&window_ranges).unwrap();
        let spec = SubtensorSpec::from_ranges(&window_ranges);
        if let Err(e) = window_agrees_with_full(artifact.tucker(), &spec, &window, &full) {
            panic!(
                "{}: 1% window vs the full reconstruction: {e}",
                codec.name()
            );
        }
        assert_eq!(artifact.header().meta.dataset, "SP");
    }
}

#[test]
fn sp_dist_tucker_round_trips_on_nontrivial_grid() {
    let eps = 1e-3;
    let ds = DatasetPreset::Sp.generate(1, 2024);
    let data = ds.data.clone();
    let seq = st_hosvd(&ds.data, &SthosvdOptions::with_tolerance(eps));
    let seq_rec = seq.tucker.reconstruct();

    for codec in [Codec::F64, Codec::Q16] {
        let path = temp_tkr(&format!("sp_dist_{}", codec.name()));
        let path2 = path.clone();
        let data2 = data.clone();
        let wrote = spmd_with_grid(ProcGrid::new(&[2, 1, 2, 1, 1]), move |comm| {
            let dx = DistTensor::from_global(&comm, &data2);
            let r = dist_st_hosvd(&comm, &dx, &SthosvdOptions::with_tolerance(eps));
            gather_and_write(&comm, &r.tucker, &path2, &StoreOptions::new(codec, eps))
                .unwrap()
                .is_some()
        });
        assert_eq!(wrote.iter().filter(|&&w| w).count(), 1);

        let artifact = TkrArtifact::open_ctx(&path, tucker_exec::ExecContext::global()).unwrap();
        std::fs::remove_file(&path).ok();
        let full = artifact.reconstruct();
        // Within ε of the original, and consistent with the sequential run.
        assert!(
            relative_error(&data, &full) <= eps,
            "{}: distributed artifact misses the ε budget",
            codec.name()
        );
        assert!(relative_error(&seq_rec, &full) < 1e-2);

        // Window query vs slicing, on the distributed artifact.
        let ranges: Vec<(usize, usize)> = vec![(0, 6), (0, 6), (12, 6), (0, 4), (8, 5)];
        let window = artifact.reconstruct_range(&ranges).unwrap();
        let spec = SubtensorSpec::from_ranges(&ranges);
        if let Err(e) = window_agrees_with_full(artifact.tucker(), &spec, &window, &full) {
            panic!(
                "{}: distributed window vs the full reconstruction: {e}",
                codec.name()
            );
        }
    }
}

#[test]
fn parallel_encode_and_decode_are_byte_and_bit_identical() {
    // ISSUE 3: the store codecs encode/decode core chunks on the shared
    // execution pool. The artifact bytes and the decoded decomposition must
    // not depend on the thread count in any way.
    use tucker_exec::ExecContext;
    use tucker_store::write_tucker_ctx;

    let ds = DatasetPreset::Sp.generate(1, 77);
    let result = st_hosvd(&ds.data, &SthosvdOptions::with_tolerance(1e-3));
    for codec in Codec::all() {
        let seq = ExecContext::new(1);
        let path_seq = temp_tkr(&format!("par_{}_t1", codec.name()));
        write_tucker_ctx(
            &path_seq,
            &result.tucker,
            &StoreOptions::new(codec, 1e-3),
            &seq,
        )
        .unwrap();
        let bytes_seq = std::fs::read(&path_seq).unwrap();
        let baseline = TkrArtifact::open_ctx(&path_seq, &seq).unwrap();
        std::fs::remove_file(&path_seq).ok();

        for threads in [4usize, 16] {
            let ctx = ExecContext::new(threads);
            let path = temp_tkr(&format!("par_{}_t{threads}", codec.name()));
            write_tucker_ctx(&path, &result.tucker, &StoreOptions::new(codec, 1e-3), &ctx).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(
                bytes,
                bytes_seq,
                "{}: artifact bytes differ at {threads} threads",
                codec.name()
            );
            let artifact = TkrArtifact::open_ctx(&path, &ctx).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(
                artifact.tucker().core.as_slice(),
                baseline.tucker().core.as_slice(),
                "{}: decoded core differs at {threads} threads",
                codec.name()
            );
            for (a, b) in artifact
                .tucker()
                .factors
                .iter()
                .zip(baseline.tucker().factors.iter())
            {
                assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }
}

/// ISSUE 4 acceptance criterion: the lazy `TkrReader` answers
/// `reconstruct_range`/`element` queries with **byte-identical** results to
/// the eager reader, without ever decoding more than the touched chunks +
/// cache capacity — pinned here on the SP surrogate for every codec.
#[test]
fn lazy_reader_is_byte_identical_to_eager_on_sp_surrogate() {
    let eps = 1e-3;
    let ds = DatasetPreset::Sp.generate(1, 2024);
    let result = st_hosvd(&ds.data, &SthosvdOptions::with_tolerance(eps));
    let window: Vec<(usize, usize)> = vec![(6, 6), (9, 6), (0, 6), (2, 4), (5, 5)];

    for codec in Codec::all() {
        // One chunk per core timestep so the lazy reader has a real chunk
        // directory to manage.
        let path = temp_tkr(&format!("lazy_sp_{}", codec.name()));
        let t = &result.tucker;
        let header = tucker_store::TkrHeader {
            dims: t.original_dims(),
            ranks: t.ranks(),
            eps,
            codec,
            quant_error_bound: 0.0,
            meta: TkrMetadata::for_dataset(&ds),
        };
        let mut w = tucker_store::TkrWriter::create(&path, header).unwrap();
        for (n, u) in t.factors.iter().enumerate() {
            w.write_factor(n, u).unwrap();
        }
        let last = *t.core.dims().last().unwrap();
        for s in 0..last {
            w.write_core_chunk(t.core.last_mode_slab(s, 1)).unwrap();
        }
        w.finish().unwrap();

        let eager = TkrArtifact::open_ctx(&path, tucker_exec::ExecContext::global()).unwrap();
        let lazy = tucker_store::TkrReader::open_with(&path, 3, tucker_exec::ExecContext::global())
            .unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(lazy.decoded_chunks(), 0, "open must not decode the core");
        assert_eq!(
            lazy.reconstruct_range(&window).unwrap(),
            eager.reconstruct_range(&window).unwrap(),
            "{}: lazy window differs from eager",
            codec.name()
        );
        // A window query touches every chunk exactly once…
        assert_eq!(lazy.decoded_chunks(), lazy.chunk_count());
        // …and never holds more than the cache capacity resident.
        assert!(lazy.resident_chunks() <= 3);

        for idx in [[0usize, 0, 0, 0, 0], [23, 23, 23, 7, 15], [5, 9, 13, 3, 8]] {
            assert_eq!(
                lazy.element(&idx).unwrap().to_bits(),
                eager.element(&idx).unwrap().to_bits(),
                "{}: element {idx:?} differs",
                codec.name()
            );
        }
        assert_eq!(lazy.header().meta.dataset, "SP");
    }
}

#[test]
fn multi_wave_encode_decode_is_byte_identical_and_lossless() {
    // The parallel codec paths proceed in waves of `threads · 4` chunks; the
    // other tests' cores fit in a single chunk, so this one spans 9 chunks
    // (64·64·130 elements at the 65536-element chunk target) to force
    // multiple encode waves and the reader's mid-scan decode flush. Wave
    // boundaries must not leak into the bytes or the decoded values.
    use tucker_exec::ExecContext;
    use tucker_linalg::Matrix;
    use tucker_store::write_tucker_ctx;

    let core_dims = [64usize, 64, 130];
    let core = DenseTensor::from_fn(&core_dims, |idx| {
        let mut v = 0.2;
        for (m, &i) in idx.iter().enumerate() {
            v += ((m + 1) as f64 * 0.037 * i as f64).sin();
        }
        v
    });
    let factors: Vec<Matrix> = core_dims.iter().map(|&d| Matrix::identity(d)).collect();
    let tucker = TuckerTensor::new(core, factors);

    for codec in [Codec::F64, Codec::Q16] {
        let mut per_thread_bytes = Vec::new();
        let mut per_thread_cores: Vec<Vec<f64>> = Vec::new();
        for threads in [1usize, 4] {
            let ctx = ExecContext::new(threads);
            let path = temp_tkr(&format!("wave_{}_t{threads}", codec.name()));
            write_tucker_ctx(&path, &tucker, &StoreOptions::new(codec, 1e-3), &ctx).unwrap();
            per_thread_bytes.push(std::fs::read(&path).unwrap());
            let artifact = TkrArtifact::open_ctx(&path, &ctx).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(artifact.tucker().core.dims(), tucker.core.dims());
            per_thread_cores.push(artifact.tucker().core.as_slice().to_vec());
        }
        assert_eq!(
            per_thread_bytes[0],
            per_thread_bytes[1],
            "{}: wave split changed the artifact bytes",
            codec.name()
        );
        assert_eq!(
            per_thread_cores[0],
            per_thread_cores[1],
            "{}: wave split changed the decoded core",
            codec.name()
        );
        if codec == Codec::F64 {
            // Lossless codec: every chunk of every wave round-trips exactly.
            assert_eq!(per_thread_cores[0], tucker.core.as_slice());
        }
    }
}
