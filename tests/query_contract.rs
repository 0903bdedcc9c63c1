//! The query engine's bit contract, property-based.
//!
//! **Windows.** Every window is contracted in the one mode order
//! `tucker_core::ordering::window_order` picks from the core ranks and the
//! window extents: natural (`0..N−1`) unless the window is *mixed* — some
//! extent below its rank, some above, a hyperslice say — in which case the
//! narrow modes go first. The order depends on nothing else, so every window
//! is **bit-identical** across the eager reader, the lazy reader at every
//! cache size (1, below the chunk count, above it) and the daemon. Against
//! the same window of the full reconstruction (natural order), a window
//! contracted in natural order is bit-identical; a mixed one agrees within
//! the proved round-off bound `|w − W| ≤ 2·γ_K·(|G| ×₀ |U⁽⁰⁾| ⋯)` with
//! `K = Σₙ Rₙ` (`tucker_core::reconstruct::window_roundoff_bound`).
//!
//! **Points.** One point-contraction routine serves `element`/`elements` on
//! every read path, and it applies the recurrence the natural-order TTM chain
//! applies to the same entry. Unit windows and the full window are never
//! mixed, so for any artifact, at any index: `element(idx)` ≡ every
//! `elements` batch containing `idx` (any order) ≡ the unit window
//! `reconstruct_range` returns at `idx` ≡ entry `idx` of the full
//! reconstruction — **bit for bit**, on every read path; an empty batch is empty.
//!
//! Swept: all three codecs, ragged chunk layouts, 1-way to 4-way artifacts,
//! rank-1 cores, factor rows and core values of both signs, a random window
//! that is mixed whenever the shape allows one, and a slice in every mode.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tucker_core::ordering::window_order;
use tucker_core::reconstruct::window_roundoff_bound;
use tucker_core::TuckerTensor;
use tucker_exec::ExecContext;
use tucker_linalg::Matrix;
use tucker_serve::{serve, ServeClient, ServeConfig};
use tucker_store::{Codec, TkrArtifact, TkrHeader, TkrMetadata, TkrReader, TkrWriter};
use tucker_tensor::{extract_subtensor, DenseTensor, SubtensorSpec};

static COUNTER: AtomicUsize = AtomicUsize::new(0);

fn temp_tkr(tag: &str) -> PathBuf {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "query_contract_{}_{tag}_{n}.tkr",
        std::process::id()
    ))
}

/// Strategy: a decomposition with 1–4 modes of extent 1–6, ranks anywhere in
/// `1..=extent` (every fourth case all-ones: a rank-1 artifact), and core and
/// factor entries in [-1, 1]. The factors need not be orthonormal — the
/// contract is about arithmetic, not approximation.
fn arbitrary_tucker() -> impl Strategy<Value = TuckerTensor> {
    prop::collection::vec(1usize..=6, 1..=4)
        .prop_flat_map(|dims| {
            let n = dims.len();
            prop::collection::vec(0usize..1000, n + 1).prop_map(move |raw| {
                let rank_one = raw[n] % 4 == 0;
                let ranks: Vec<usize> = dims
                    .iter()
                    .zip(&raw)
                    .map(|(&d, &r)| if rank_one { 1 } else { 1 + r % d })
                    .collect();
                (dims.clone(), ranks)
            })
        })
        .prop_flat_map(|(dims, ranks)| {
            let core_len: usize = ranks.iter().product();
            let factor_len: usize = dims.iter().zip(&ranks).map(|(d, r)| d * r).sum();
            prop::collection::vec(-1.0f64..1.0, core_len + factor_len).prop_map(move |values| {
                let (core, mut rest) = values.split_at(core_len);
                let factors = dims
                    .iter()
                    .zip(&ranks)
                    .map(|(&d, &r)| {
                        let (u, tail) = rest.split_at(d * r);
                        rest = tail;
                        Matrix::from_vec(d, r, u.to_vec())
                    })
                    .collect();
                TuckerTensor::new(DenseTensor::from_vec(&ranks, core.to_vec()), factors)
            })
        })
}

/// Writes `t` with the core cut into chunks of `widths[k % len]` last-mode
/// slabs; returns the path and the chunk count.
fn write_chunked(t: &TuckerTensor, codec: Codec, widths: &[usize]) -> (PathBuf, usize) {
    let path = temp_tkr(codec.name());
    let header = TkrHeader {
        dims: t.original_dims(),
        ranks: t.ranks(),
        eps: 1e-3,
        codec,
        quant_error_bound: 0.0,
        meta: TkrMetadata::default(),
    };
    let mut w = TkrWriter::create(&path, header).expect("create artifact");
    for (n, u) in t.factors.iter().enumerate() {
        w.write_factor(n, u).expect("write factor");
    }
    let last = *t.core.dims().last().expect("at least one mode");
    let (mut s, mut chunks) = (0usize, 0usize);
    while s < last {
        let width = widths[chunks % widths.len()].min(last - s);
        w.write_core_chunk(t.core.last_mode_slab(s, width))
            .expect("write chunk");
        s += width;
        chunks += 1;
    }
    w.finish().expect("finish artifact");
    (path, chunks)
}

type ElementQuery<'a> = Box<dyn FnMut(&[usize]) -> f64 + 'a>;
type ElementsQuery<'a> = Box<dyn FnMut(&[&[usize]]) -> Vec<f64> + 'a>;
type RangeQuery<'a> = Box<dyn FnMut(&[(usize, usize)]) -> DenseTensor + 'a>;

/// The four query shapes of one read path, as closures over it.
struct ReadPath<'a> {
    label: String,
    element: ElementQuery<'a>,
    elements: ElementsQuery<'a>,
    range: RangeQuery<'a>,
}

/// Windows to sweep besides the unit ones: one that is mixed whenever the
/// shape allows (a mode narrower than its rank, another wider, the rest
/// random), then a slice in every mode. `raw` holds two values per mode.
fn sweep_windows(dims: &[usize], ranks: &[usize], raw: &[usize]) -> Vec<Vec<(usize, usize)>> {
    let n = dims.len();
    let pick = |d: usize, len: usize, r: usize| (r % (d - len + 1), len);
    let mut mixed: Vec<(usize, usize)> = (0..n)
        .map(|m| pick(dims[m], 1 + raw[2 * m] % dims[m], raw[2 * m + 1]))
        .collect();
    let first = raw[0] % n;
    let narrow = (0..n).map(|k| (first + k) % n).find(|&m| ranks[m] > 1);
    let wide = (0..n)
        .map(|k| (first + k) % n)
        .find(|&m| Some(m) != narrow && ranks[m] < dims[m]);
    if let (Some(a), Some(b)) = (narrow, wide) {
        mixed[a] = pick(dims[a], 1 + raw[2 * a] % (ranks[a] - 1), raw[2 * a + 1]);
        let len = ranks[b] + 1 + raw[2 * b] % (dims[b] - ranks[b]);
        mixed[b] = pick(dims[b], len, raw[2 * b + 1]);
    }
    let mut windows = vec![mixed];
    for m in 0..n {
        let mut slice: Vec<(usize, usize)> = dims.iter().map(|&d| (0, d)).collect();
        slice[m] = (raw[2 * m + 1] % dims[m], 1);
        windows.push(slice);
    }
    windows
}

/// Checks the eager reader's sweep windows against its full reconstruction
/// `want`: bit for bit when [`window_order`] keeps the natural order, within
/// the proved round-off bound otherwise.
fn check_windows_against_full(
    t: &TuckerTensor,
    windows: &[Vec<(usize, usize)>],
    got: &[DenseTensor],
    want: &DenseTensor,
    label: &str,
) -> Result<(), TestCaseError> {
    for (ranges, window) in windows.iter().zip(got) {
        let spec = SubtensorSpec::from_ranges(ranges);
        let expected = extract_subtensor(want, &spec);
        let natural = window_order(&t.ranks(), &spec.sub_dims())
            .into_iter()
            .eq(0..ranges.len());
        if natural {
            prop_assert_eq!(window, &expected, "{}: window {:?} vs full", label, ranges);
            continue;
        }
        prop_assert_eq!(window.dims(), expected.dims());
        let bound = window_roundoff_bound(t, &spec);
        for ((w, e), b) in window
            .as_slice()
            .iter()
            .zip(expected.as_slice())
            .zip(bound.as_slice())
        {
            prop_assert!(
                (w - e).abs() <= *b,
                "{}: mixed window {:?}: |{} - {}| above the bound {}",
                label,
                ranges,
                w,
                e,
                b
            );
        }
    }
    Ok(())
}

/// Checks the whole contract on one read path against the eager reader's
/// full reconstruction `want` and its sweep windows `want_windows`.
fn check_path(
    path: &mut ReadPath<'_>,
    dims: &[usize],
    points: &[Vec<usize>],
    want: &DenseTensor,
    windows: &[Vec<(usize, usize)>],
    want_windows: &[DenseTensor],
) -> Result<(), TestCaseError> {
    let label = &path.label;
    let everything: Vec<(usize, usize)> = dims.iter().map(|&d| (0, d)).collect();
    let full = (path.range)(&everything);
    prop_assert_eq!(&full, want, "{}: full reconstruction", label);
    for (ranges, expected) in windows.iter().zip(want_windows) {
        let window = (path.range)(ranges);
        prop_assert_eq!(&window, expected, "{}: window {:?} vs eager", label, ranges);
    }

    prop_assert_eq!((path.elements)(&[]), vec![], "{}: empty batch", label);
    let refs: Vec<&[usize]> = points.iter().map(|p| p.as_slice()).collect();
    let batch = (path.elements)(&refs);
    let reversed: Vec<&[usize]> = refs.iter().rev().copied().collect();
    let mut batch_reversed = (path.elements)(&reversed);
    batch_reversed.reverse();

    for (k, p) in refs.iter().enumerate() {
        let expected = want.get(p).to_bits();
        let single = (path.element)(p).to_bits();
        prop_assert_eq!(single, expected, "{}: element {:?} vs full", label, p);
        prop_assert_eq!(batch[k].to_bits(), expected, "{}: batch {:?}", label, p);
        prop_assert_eq!(
            batch_reversed[k].to_bits(),
            expected,
            "{}: reversed batch {:?}",
            label,
            p
        );
        let unit: Vec<(usize, usize)> = p.iter().map(|&i| (i, 1)).collect();
        let window = (path.range)(&unit);
        prop_assert_eq!(
            window.as_slice()[0].to_bits(),
            expected,
            "{}: unit window {:?}",
            label,
            p
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn element_unit_window_and_full_reconstruction_agree_bit_for_bit_on_every_read_path(
        t in arbitrary_tucker(),
        widths in prop::collection::vec(1usize..=3, 1..=4),
        raw_points in prop::collection::vec(0usize..1000, 24),
        raw_windows in prop::collection::vec(0usize..1000, 8),
    ) {
        let dims = t.original_dims();
        let points: Vec<Vec<usize>> = raw_points
            .chunks(4)
            .map(|raw| dims.iter().zip(raw).map(|(&d, &r)| r % d).collect())
            .collect();
        let windows = sweep_windows(&dims, &t.ranks(), &raw_windows);
        let ctx = ExecContext::global();

        for codec in Codec::all() {
            let (file, chunks) = write_chunked(&t, codec, &widths);
            let eager = TkrArtifact::open(&file).expect("eager open");
            let want = eager.reconstruct();
            let want_windows: Vec<DenseTensor> = windows
                .iter()
                .map(|w| eager.reconstruct_range(w).expect("window"))
                .collect();
            check_windows_against_full(
                eager.tucker(),
                &windows,
                &want_windows,
                &want,
                codec.name(),
            )?;
            check_path(
                &mut ReadPath {
                    label: format!("{} eager", codec.name()),
                    element: Box::new(|p| eager.element(p).expect("element")),
                    elements: Box::new(|ps| eager.elements(ps).expect("elements")),
                    range: Box::new(|r| eager.reconstruct_range(r).expect("range")),
                },
                &dims,
                &points,
                &want,
                &windows,
                &want_windows,
            )?;

            // One resident chunk, fewer than the artifact has, more than it has.
            for cache_chunks in [1, (chunks / 2).max(1), chunks + 1] {
                let lazy = TkrReader::open_with(&file, cache_chunks, ctx).expect("lazy open");
                check_path(
                    &mut ReadPath {
                        label: format!("{} lazy cache {cache_chunks}/{chunks}", codec.name()),
                        element: Box::new(|p| lazy.element(p).expect("element")),
                        elements: Box::new(|ps| lazy.elements(ps).expect("elements")),
                        range: Box::new(|r| lazy.reconstruct_range(r).expect("range")),
                    },
                    &dims,
                    &points,
                    &want,
                    &windows,
                    &want_windows,
                )?;
                prop_assert!(lazy.resident_chunks() <= cache_chunks);

                let handle = serve(
                    "127.0.0.1:0",
                    &[("field".to_string(), file.clone())],
                    ServeConfig { cache_chunks, ..ServeConfig::default() },
                )
                .expect("daemon binds");
                let client = std::cell::RefCell::new(
                    ServeClient::connect(handle.addr()).expect("client connects"),
                );
                let served = check_path(
                    &mut ReadPath {
                        label: format!("{} daemon cache {cache_chunks}/{chunks}", codec.name()),
                        element: Box::new(|p| {
                            client.borrow_mut().element("field", p).expect("element")
                        }),
                        elements: Box::new(|ps| {
                            client.borrow_mut().elements("field", ps).expect("elements")
                        }),
                        range: Box::new(|r| {
                            client.borrow_mut().reconstruct_range("field", r).expect("range")
                        }),
                    },
                    &dims,
                    &points,
                    &want,
                    &windows,
                    &want_windows,
                );
                drop(client);
                handle.shutdown();
                served?;
            }
            std::fs::remove_file(&file).ok();
        }
    }
}
