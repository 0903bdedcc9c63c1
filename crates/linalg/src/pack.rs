//! Panel packing for the cache-blocked GEMM/SYRK microkernels.
//!
//! The blocked drivers in [`crate::gemm`](mod@crate::gemm) /
//! [`crate::syrk`](mod@crate::syrk) copy each `MC × KC` block of `op(A)` and
//! `KC × NC` block of `op(B)` into contiguous, 64-byte-aligned buffers before
//! the microkernel runs over them:
//!
//! * `op(A)` blocks are stored as a sequence of `MR`-row panels, each laid
//!   out k-major (`dst[p·MR + r]` = row `r`, contraction index `p`), so the
//!   microkernel reads `MR` consecutive values per step. `alpha` is folded in
//!   here — `fl(alpha·a)` rounds exactly once per element, which is part of
//!   the accumulation contract (`docs/ARCHITECTURE.md` §4).
//! * `op(B)` blocks are stored as `NR`-column panels, k-major
//!   (`dst[p·NR + t]`), so each microkernel step loads one contiguous
//!   `NR`-vector.
//!
//! Both packers read through one [`Source`], which says where element
//! `(i, p)` of the operand lives: a row-major or transposed matrix, or the
//! block-strided mode-n unfolding of a tensor (`right` row-major
//! `I_n × left` blocks one after another), whose contraction index
//! `p = t·left + q` walks the blocks `t` in order and each block's columns
//! `q` in order. The copy loops visit `(t, q)`-runs, never dividing per
//! element.
//!
//! A source whose every contraction step is one contiguous stored row (the
//! first-mode unfolding, [`Source::cols`]) already *is* a packed
//! panel, only at stride `ld` instead of `MR`/`NR`: the SYRK driver hands
//! such panels to the microkernel where they lie and packs only the block's
//! ragged last panel.
//!
//! Ragged block edges are zero-padded up to the `MR`/`NR` grid; the padded
//! rows/columns are computed by the full-width microkernel and discarded at
//! writeback, never read back, so padding is invisible in the results.
//!
//! The buffers come from a thread-local `tucker-exec` [`Workspace`]
//! ([`with_pack_buffers`]): one pair per thread, recycled across calls, with
//! the workspace's 64-byte alignment guarantee.

use crate::gemm::Transpose;
use crate::microkernel::{MR, NR};
use std::cell::RefCell;
use tucker_exec::Workspace;

/// `n` rounded up to a multiple of `unit` (`unit` is a non-zero constant at
/// every call site).
pub fn padded(n: usize, unit: usize) -> usize {
    n.div_ceil(unit.max(1)) * unit.max(1)
}

/// Where element `(i, p)` of a packed operand lives in its stored slice:
/// `i` indexes the rows of `op(A)` (the columns of `op(B)`), `p` the
/// contraction, and the element sits at `i·row + (p / run)·jump + p % run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Source {
    row: usize,
    run: usize,
    jump: usize,
}

impl Source {
    /// A row-major matrix with leading dimension `ld`, indexed `(i, p)`:
    /// element at `i·ld + p`.
    pub fn rows(ld: usize) -> Source {
        Source {
            row: ld,
            run: usize::MAX,
            jump: 0,
        }
    }

    /// The transpose of a row-major matrix with leading dimension `ld`:
    /// element `(i, p)` at `p·ld + i`, one stored row per contraction step.
    pub fn cols(ld: usize) -> Source {
        Source {
            row: 1,
            run: 1,
            jump: ld,
        }
    }

    /// The mode-n unfolding of a tensor in natural layout, `op(A) = Y(n)`
    /// (`n × left·right`): `right` blocks of `n × left`, row-major, one after
    /// another, so element `(i, t·left + q)` sits at
    /// `t·(n·left) + i·left + q`. `left == 1` is [`Source::cols`]`(n)`.
    pub fn blocks(left: usize, n: usize) -> Source {
        let left = left.max(1);
        Source {
            row: left,
            run: left,
            jump: n * left,
        }
    }

    /// `op(A)` of a stored `A` with leading dimension `ld`.
    pub fn of_a(trans: Transpose, ld: usize) -> Source {
        match trans {
            Transpose::No => Source::rows(ld),
            Transpose::Yes => Source::cols(ld),
        }
    }

    /// `op(B)` of a stored `B` with leading dimension `ld`, indexed by
    /// `(column of op(B), contraction)`.
    pub fn of_b(trans: Transpose, ld: usize) -> Source {
        match trans {
            Transpose::No => Source::cols(ld),
            Transpose::Yes => Source::rows(ld),
        }
    }

    /// Offset of element `(i, p)` in the stored slice.
    pub(crate) fn offset(&self, i: usize, p: usize) -> usize {
        i * self.row + (p / self.run) * self.jump + p % self.run
    }

    /// `Some(ld)` when contraction step `p` is the contiguous stored row
    /// `p·ld ..` ([`Source::cols`]): a panel of `W` rows starting at row
    /// `i0` is then `src[i0 ..]` read at stride `ld`, the packed layout at a
    /// wider stride.
    pub(crate) fn in_place_stride(&self) -> Option<usize> {
        (self.row == 1 && self.run == 1).then_some(self.jump)
    }

    /// The contraction range `p0 .. p0 + kb` as maximal runs that are
    /// contiguous in storage: `(d, off, len)` covers `p0 + d .. p0 + d + len`,
    /// whose element `(i, p0 + d + x)` sits at `i·row + off + x`. Runs come
    /// in ascending `p`, so visiting them in order visits `(t, q)` in
    /// lexicographic order. The runs do not depend on `i`: build them once
    /// and clone them per row (building divides, iterating does not).
    pub(crate) fn runs(
        &self,
        p0: usize,
        kb: usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> + Clone {
        let Source { run, jump, .. } = *self;
        let (mut t, mut q, mut d) = (p0 / run, p0 % run, 0);
        std::iter::from_fn(move || {
            if d >= kb {
                return None;
            }
            let len = (run - q).min(kb - d);
            let item = (d, t * jump + q, len);
            d += len;
            t += 1;
            q = 0;
            Some(item)
        })
    }
}

/// Packs `scale(op(X)[i0 + i][p0 + p])` for `i < mb`, `p < kb` into `dst` as
/// `W`-wide k-major panels (`dst[ip·W·kb + p·W + r]`), zero-padding rows
/// `mb..` of the last panel. Every element of the first `padded(mb, W)·kb`
/// is written.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_panels<const W: usize>(
    dst: &mut [f64],
    source: Source,
    src: &[f64],
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
    scale: impl Fn(f64) -> f64,
) {
    let runs = source.runs(p0, kb);
    for ip in 0..padded(mb, W) / W {
        let panel = &mut dst[ip * W * kb..(ip + 1) * W * kb];
        let base = i0 + ip * W;
        let live = W.min(mb - ip * W);
        if let Some(ld) = source.in_place_stride() {
            // Each stored row p holds the panel's rows contiguously, landing
            // contiguously in the panel too.
            for p in 0..kb {
                let srow = &src[(p0 + p) * ld + base..];
                for (r, o) in panel[p * W..(p + 1) * W].iter_mut().enumerate() {
                    *o = if r < live { scale(srow[r]) } else { 0.0 };
                }
            }
            continue;
        }
        // One panel row at a time: each (t, q)-run is contiguous in storage
        // and lands at stride W.
        for r in 0..W {
            if r >= live {
                for p in 0..kb {
                    panel[p * W + r] = 0.0;
                }
                continue;
            }
            let row_off = (base + r) * source.row;
            for (d, off, len) in runs.clone() {
                let s = &src[row_off + off..row_off + off + len];
                for (x, &v) in s.iter().enumerate() {
                    panel[(d + x) * W + r] = scale(v);
                }
            }
        }
    }
}

/// Packs `alpha · op(A)[row0 .. row0+mb, p0 .. p0+kb]` into `dst` as
/// `MR`-row k-major panels, zero-padding rows `mb..` of the last panel.
///
/// `source` locates `op(A)`'s elements in `src`. `dst` must hold at least
/// `padded(mb, MR) · kb` elements; every one of them is written.
#[allow(clippy::too_many_arguments)]
pub fn pack_a(
    dst: &mut [f64],
    source: Source,
    alpha: f64,
    src: &[f64],
    row0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
) {
    pack_panels::<MR>(dst, source, src, row0, mb, p0, kb, |v| alpha * v);
}

/// Packs `op(B)[p0 .. p0+kb, col0 .. col0+nb]` into `dst` as `NR`-column
/// k-major panels, zero-padding columns `nb..` of the last panel.
///
/// `source` locates `op(B)`'s elements in `src`, indexed (column,
/// contraction). `dst` must hold at least `kb · padded(nb, NR)` elements;
/// every one of them is written.
#[allow(clippy::too_many_arguments)]
pub fn pack_b(
    dst: &mut [f64],
    source: Source,
    src: &[f64],
    p0: usize,
    kb: usize,
    col0: usize,
    nb: usize,
) {
    pack_panels::<NR>(dst, source, src, col0, nb, p0, kb, |v| v);
}

thread_local! {
    /// One pack-buffer pool per thread: the pool threads of `tucker-exec`
    /// each recycle their own pair across every GEMM/SYRK panel they run.
    static PACK_WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with two 64-byte-aligned pack buffers of (at least) the
/// requested lengths, recycled through a thread-local [`Workspace`].
///
/// Contents are unspecified on entry (stale values from earlier packs); the
/// pack routines above overwrite every element they expose to the
/// microkernel. Re-entrant calls (a kernel invoked from inside `f`) fall
/// back to fresh single-use buffers instead of aliasing the pooled pair.
pub fn with_pack_buffers<R>(
    a_len: usize,
    b_len: usize,
    f: impl FnOnce(&mut [f64], &mut [f64]) -> R,
) -> R {
    with_scratch([a_len, b_len], |[a, b]| f(a, b))
}

/// Runs `f` with `N` 64-byte-aligned scratch buffers of the requested
/// lengths, recycled through the same thread-local [`Workspace`] as the pack
/// buffers. The blocked factorizations ([`crate::qr`], [`crate::eig`],
/// [`crate::svd`]) route their panel/accumulator storage through this instead
/// of allocating per call.
///
/// Contents are unspecified on entry (stale values from earlier takes);
/// callers must write every element they read back. The buffers are taken
/// *out* of the pool before `f` runs, so kernels invoked from inside `f`
/// (GEMM packing, nested factorizations) can take their own buffers without
/// aliasing these. A re-entrant call that catches the pool mid-borrow falls
/// back to fresh single-use buffers.
pub fn with_scratch<const N: usize, R>(
    lens: [usize; N],
    f: impl FnOnce([&mut [f64]; N]) -> R,
) -> R {
    let mut bufs: [tucker_exec::AlignedBuf; N] = PACK_WS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => std::array::from_fn(|i| ws.take_aligned(lens[i])),
        Err(_) => {
            let mut fresh = Workspace::new();
            std::array::from_fn(|i| fresh.take_aligned(lens[i]))
        }
    });
    let result = f(bufs.each_mut().map(|b| b.as_mut_slice()));
    PACK_WS.with(|cell| {
        if let Ok(mut ws) = cell.try_borrow_mut() {
            for b in bufs {
                ws.give_aligned(b);
            }
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_matrix(rows: usize, cols: usize) -> Vec<f64> {
        (0..rows * cols).map(|v| v as f64 + 1.0).collect()
    }

    #[test]
    fn pack_a_no_transpose_interleaves_and_pads() {
        // 3 rows (pads to MR), k = 2, alpha = 2.
        let src = seq_matrix(3, 2);
        let mut dst = vec![-1.0; MR * 2];
        pack_a(&mut dst, Source::rows(2), 2.0, &src, 0, 3, 0, 2);
        for p in 0..2 {
            for r in 0..MR {
                let want = if r < 3 { 2.0 * src[r * 2 + p] } else { 0.0 };
                assert_eq!(dst[p * MR + r], want, "p={p} r={r}");
            }
        }
    }

    #[test]
    fn pack_a_transpose_matches_op() {
        // Stored 3×5, op(A) = Aᵀ is 5×3; take rows 1..4 of op(A), k-range 1..3.
        let src = seq_matrix(3, 5);
        let (row0, mb, p0, kb) = (1usize, 3usize, 1usize, 2usize);
        let mut dst = vec![-1.0; padded(mb, MR) * kb];
        pack_a(&mut dst, Source::cols(5), 1.0, &src, row0, mb, p0, kb);
        for p in 0..kb {
            for r in 0..MR {
                let want = if r < mb {
                    src[(p0 + p) * 5 + row0 + r]
                } else {
                    0.0
                };
                assert_eq!(dst[p * MR + r], want, "p={p} r={r}");
            }
        }
    }

    #[test]
    fn pack_b_no_transpose_pads_columns() {
        // op(B) = B stored 4×6 (ld 6); pack cols 3..6 (nb = 3 pads to NR).
        let src = seq_matrix(4, 6);
        let (p0, kb, col0, nb) = (1usize, 3usize, 3usize, 3usize);
        let mut dst = vec![-1.0; kb * padded(nb, NR)];
        pack_b(
            &mut dst,
            Source::of_b(Transpose::No, 6),
            &src,
            p0,
            kb,
            col0,
            nb,
        );
        for p in 0..kb {
            for t in 0..NR {
                let want = if t < nb {
                    src[(p0 + p) * 6 + col0 + t]
                } else {
                    0.0
                };
                assert_eq!(dst[p * NR + t], want, "p={p} t={t}");
            }
        }
    }

    #[test]
    fn pack_b_transpose_matches_op() {
        // Stored 5×4 (ld 4); op(B) = Bᵀ is 4×5: pack k-range 1..4, cols 0..5.
        let src = seq_matrix(5, 4);
        let (p0, kb, col0, nb) = (1usize, 3usize, 0usize, 5usize);
        let mut dst = vec![-1.0; kb * padded(nb, NR)];
        pack_b(
            &mut dst,
            Source::of_b(Transpose::Yes, 4),
            &src,
            p0,
            kb,
            col0,
            nb,
        );
        for jp in 0..padded(nb, NR) / NR {
            let panel = &dst[jp * kb * NR..(jp + 1) * kb * NR];
            for p in 0..kb {
                for t in 0..NR {
                    let j = jp * NR + t;
                    let want = if j < nb {
                        src[(col0 + j) * 4 + p0 + p]
                    } else {
                        0.0
                    };
                    assert_eq!(panel[p * NR + t], want, "jp={jp} p={p} t={t}");
                }
            }
        }
    }

    #[test]
    fn with_pack_buffers_recycles_per_thread() {
        let first = with_pack_buffers(256, 512, |a, b| {
            assert_eq!(a.len(), 256);
            assert_eq!(b.len(), 512);
            assert_eq!(a.as_ptr() as usize % tucker_exec::BUFFER_ALIGN, 0);
            assert_eq!(b.as_ptr() as usize % tucker_exec::BUFFER_ALIGN, 0);
            a.as_ptr() as usize + b.as_ptr() as usize
        });
        // Same thread, same or smaller sizes ⇒ the pooled pair comes back.
        let second = with_pack_buffers(256, 512, |a, b| a.as_ptr() as usize + b.as_ptr() as usize);
        assert_eq!(first, second);
    }

    #[test]
    fn reentrant_pack_buffers_do_not_alias() {
        with_pack_buffers(64, 64, |a, _b| {
            let outer = a.as_ptr() as usize;
            with_pack_buffers(64, 64, |ia, ib| {
                assert_ne!(ia.as_ptr() as usize, outer, "re-entrant call aliased");
                assert_eq!(ia.len(), 64);
                assert_eq!(ib.len(), 64);
            });
        });
    }

    #[test]
    fn with_scratch_hands_out_disjoint_aligned_buffers() {
        with_scratch([16usize, 32, 48], |[a, b, c]| {
            assert_eq!(a.len(), 16);
            assert_eq!(b.len(), 32);
            assert_eq!(c.len(), 48);
            for s in [&*a, &*b, &*c] {
                assert_eq!(s.as_ptr() as usize % tucker_exec::BUFFER_ALIGN, 0);
            }
            a.fill(1.0);
            b.fill(2.0);
            c.fill(3.0);
            assert!(a.iter().all(|&x| x == 1.0));
            assert!(b.iter().all(|&x| x == 2.0));
            assert!(c.iter().all(|&x| x == 3.0));
        });
    }

    #[test]
    fn padded_rounds_up() {
        assert_eq!(padded(0, 8), 0);
        assert_eq!(padded(1, 8), 8);
        assert_eq!(padded(8, 8), 8);
        assert_eq!(padded(9, 4), 12);
    }
}
