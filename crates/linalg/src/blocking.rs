//! Runtime cache-blocking parameters for the packed microkernel drivers.
//!
//! PR 8 hard-coded the GEBP blocking constants (`MC`/`KC`/`NC`) for one
//! cache hierarchy. This module derives them **once per process** from the
//! caches the host actually reports, with the same cached-atomic pattern as
//! [`crate::simd`]:
//!
//! 1. `TUCKER_BLOCK=MC,KC,NC` requests the three block sizes explicitly
//!    (values are sanitized: `MC` is rounded up to a multiple of
//!    [`crate::microkernel::MR`], `NC` to a multiple of
//!    [`crate::microkernel::NR`], `KC` to at least 1). A malformed value
//!    falls back to the derived blocking with a one-time warning on stderr —
//!    it never aborts.
//! 2. Otherwise L1d/L2/L3 sizes are detected at runtime (cpuid on `x86_64`,
//!    conservative defaults elsewhere or when detection reports nothing) and
//!    the blocks are derived GotoBLAS-style: `KC` so a `KC×NR` B sliver and
//!    a `MR×KC` A sliver fit in about half of L1d, `MC` so the packed
//!    `MC×KC` A block takes a measured slice of L2, `NC` so the packed
//!    `KC×NC` B panel takes a slice of L3 (see [`Blocking`] field docs).
//!
//! **The blocking is invisible in the results.** The per-element
//! accumulation contract ([`crate::gemm`](mod@crate::gemm) module docs) makes every output
//! bit independent of `MC`/`KC`/`NC`, so these values — like the SIMD tier —
//! are performance tuning only. CI re-runs the kernel and determinism suites
//! under a deliberately shrunken `TUCKER_BLOCK` override to keep the
//! block-edge paths exercised on small inputs, and [`force_blocking`] lets
//! one test binary compare blockings in-process.
//!
//! The factorization panel widths (`qr::QR_PANEL`, `eig::EIG_BLOCK`,
//! `svd::SVD_BLOCK`) are deliberately **not** derived here: those change the
//! factorization bits, so they are fixed constants pinned by the
//! determinism contract, never autotuned.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::microkernel::{MR, NR};

/// Multiply-add count at or below which the Level-3 kernels skip panel
/// packing and run their direct scalar loops (same bits, less setup). One
/// shared, named threshold: the fused TTM interior and lazy-reader paths
/// issue streams of tiny GEMMs, and the factorization drivers fall back to
/// their unblocked paths on problems in the same size class — spending more
/// time packing than multiplying helps nobody.
pub const SMALL_PROBLEM_MADDS: usize = 8 * 1024;

/// Cache-block edge sizes for the packed microkernel drivers: C is tiled
/// `mc × nc`, the contraction dimension is cut into `kc` slabs. `mc` is
/// always a multiple of [`MR`] and `nc` of [`NR`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    /// Row block: packed `mc × kc` A block targets about an eighth of L2.
    pub mc: usize,
    /// Contraction slab: `kc × NR` B sliver targets about half of L1d.
    pub kc: usize,
    /// Column block: packed `kc × nc` B panel targets about a sixteenth of
    /// L3.
    pub nc: usize,
}

impl Blocking {
    /// Rounds the fields onto the grid the pack formats require: `mc` up to
    /// a multiple of `MR`, `nc` up to a multiple of `NR`, `kc >= 1`, and
    /// every field capped so the triple packs into the cached atomic.
    fn sanitized(self) -> Blocking {
        let clamp = |v: usize, unit: usize| -> usize {
            let v = v.clamp(1, MAX_BLOCK);
            v.div_ceil(unit) * unit
        };
        Blocking {
            mc: clamp(self.mc, MR),
            kc: self.kc.clamp(1, MAX_BLOCK),
            nc: clamp(self.nc, NR),
        }
    }
}

/// Upper cap per block edge; keeps each field in 16 bits for the packed
/// atomic and bounds the pack-buffer growth a hostile override could ask
/// for. Far above any value the derivation produces.
const MAX_BLOCK: usize = 1 << 14;

/// `0` = not yet selected; otherwise `mc << 32 | kc << 16 | nc` (each field
/// nonzero after sanitizing, so a stored value is never 0).
static BLOCKING: AtomicU64 = AtomicU64::new(0);

fn pack_blocking(b: Blocking) -> u64 {
    ((b.mc as u64) << 32) | ((b.kc as u64) << 16) | b.nc as u64
}

fn unpack_blocking(v: u64) -> Option<Blocking> {
    if v == 0 {
        return None;
    }
    Some(Blocking {
        mc: ((v >> 32) & 0xFFFF) as usize,
        kc: ((v >> 16) & 0xFFFF) as usize,
        nc: (v & 0xFFFF) as usize,
    })
}

/// Data-cache sizes in bytes `(l1d, l2, l3)` used for the derivation:
/// detected via cpuid on `x86_64`, with each level that cannot be detected
/// replaced by a conservative default (32 KiB / 256 KiB / 8 MiB).
pub fn detected_caches() -> (usize, usize, usize) {
    let (l1, l2, l3) = detect_caches_raw();
    (
        if l1 > 0 { l1 } else { 32 * 1024 },
        if l2 > 0 { l2 } else { 256 * 1024 },
        if l3 > 0 { l3 } else { 8 * 1024 * 1024 },
    )
}

/// Raw per-level detection; `0` means "not reported".
#[cfg(target_arch = "x86_64")]
fn detect_caches_raw() -> (usize, usize, usize) {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    // cpuid itself is part of the x86_64 baseline.
    let max_leaf = __cpuid(0).eax;
    let mut sizes = [0usize; 3]; // L1d, L2, L3
    fn enumerate(sizes: &mut [usize; 3], leaf: u32) {
        for sub in 0..16u32 {
            let r = __cpuid_count(leaf, sub);
            let cache_type = r.eax & 0x1F;
            if cache_type == 0 {
                break; // no more caches
            }
            // 1 = data, 3 = unified; instruction caches don't matter here.
            if cache_type != 1 && cache_type != 3 {
                continue;
            }
            let level = ((r.eax >> 5) & 0x7) as usize;
            let ways = ((r.ebx >> 22) & 0x3FF) as usize + 1;
            let partitions = ((r.ebx >> 12) & 0x3FF) as usize + 1;
            let line = (r.ebx & 0xFFF) as usize + 1;
            let sets = r.ecx as usize + 1;
            let bytes = ways * partitions * line * sets;
            if (1..=3).contains(&level) && sizes[level - 1] == 0 {
                sizes[level - 1] = bytes;
            }
        }
    }
    if max_leaf >= 4 {
        enumerate(&mut sizes, 4); // Intel deterministic cache parameters
    }
    if sizes == [0, 0, 0] {
        let max_ext = __cpuid(0x8000_0000).eax;
        if max_ext >= 0x8000_001D {
            enumerate(&mut sizes, 0x8000_001D); // AMD cache properties (TOPOEXT)
        }
        if sizes == [0, 0, 0] && max_ext >= 0x8000_0006 {
            // Legacy AMD leaves: L1d size in KiB, L2 in KiB, L3 in 512 KiB.
            let l1 = __cpuid(0x8000_0005);
            sizes[0] = (((l1.ecx >> 24) & 0xFF) as usize) * 1024;
            let l23 = __cpuid(0x8000_0006);
            sizes[1] = (((l23.ecx >> 16) & 0xFFFF) as usize) * 1024;
            sizes[2] = (((l23.edx >> 18) & 0x3FFF) as usize) * 512 * 1024;
        }
    }
    (sizes[0], sizes[1], sizes[2])
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_caches_raw() -> (usize, usize, usize) {
    (0, 0, 0) // conservative defaults take over
}

/// GotoBLAS-style derivation from the cache sizes (bytes → f64 counts).
fn derive_blocking() -> Blocking {
    let (l1, l2, l3) = detected_caches();
    // KC: a kc×NR B sliver plus a MR×kc A sliver stream through about half
    // of L1d while one C tile is retired.
    let kc = (l1 / (2 * 8 * (MR + NR))).clamp(64, 1024) & !15;
    // MC: the packed mc×kc A block targets about an eighth of L2 — it has
    // to share the cache with the C tile rows and the streaming B sliver,
    // and measurements show nothing is gained past that.
    let mc = (l2 / (8 * 8 * kc)).clamp(MR, 384);
    // NC: the packed kc×nc B panel targets about a sixteenth of L3 (shared
    // across cores), floored at the pre-autotuning constant 512.
    let nc = (l3 / (16 * 8 * kc)).clamp(512, 2048);
    Blocking { mc, kc, nc }.sanitized()
}

fn select_from_env() -> Blocking {
    let derived = derive_blocking();
    let raw = match std::env::var("TUCKER_BLOCK") {
        Ok(v) => v,
        Err(_) => return derived,
    };
    let mut parts = raw.split(',').map(|p| p.trim().parse::<usize>());
    let parsed = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(Ok(mc)), Some(Ok(kc)), Some(Ok(nc)), None) if mc > 0 && kc > 0 && nc > 0 => {
            Some(Blocking { mc, kc, nc })
        }
        _ => None,
    };
    match parsed {
        Some(b) => b.sanitized(),
        None => {
            eprintln!(
                "tucker-linalg: TUCKER_BLOCK={raw:?} is not \"MC,KC,NC\" (three positive \
                 integers); using the derived blocking {derived:?}"
            );
            derived
        }
    }
}

/// The blocking every packed-kernel invocation in this process uses.
///
/// Selected on first call from `TUCKER_BLOCK` + cache detection and cached;
/// [`force_blocking`] can change it afterwards (tests and benches only).
pub fn current_blocking() -> Blocking {
    if let Some(b) = unpack_blocking(BLOCKING.load(Ordering::Relaxed)) {
        return b;
    }
    let b = select_from_env();
    BLOCKING.store(pack_blocking(b), Ordering::Relaxed);
    b
}

/// Forces the process-wide blocking (sanitized onto the MR/NR grid) and
/// returns the previously effective blocking, for tests and benchmarks that
/// compare blockings within one process.
///
/// Kernel calls racing with a `force_blocking` may use either the old or the
/// new blocking, but the per-element contract makes both bit-identical, so
/// results never depend on the race. Timing comparisons should still
/// serialize around it (the bundled suites hold a mutex).
pub fn force_blocking(b: Blocking) -> Blocking {
    let prev = current_blocking();
    BLOCKING.store(pack_blocking(b.sanitized()), Ordering::Relaxed);
    prev
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_blocking_is_on_the_grid_and_in_range() {
        let b = derive_blocking();
        assert_eq!(b.mc % MR, 0);
        assert_eq!(b.nc % NR, 0);
        assert!(b.mc >= MR && b.mc <= MAX_BLOCK);
        assert!(b.kc >= 1 && b.kc <= 1024);
        assert!(b.nc >= NR && b.nc <= MAX_BLOCK);
    }

    #[test]
    fn current_blocking_is_cached_and_forcible() {
        let first = current_blocking();
        let prev = force_blocking(Blocking {
            mc: 17,
            kc: 13,
            nc: 9,
        });
        assert_eq!(prev, first);
        let forced = current_blocking();
        // Sanitized onto the MR/NR grid.
        assert_eq!(
            forced,
            Blocking {
                mc: 24,
                kc: 13,
                nc: 12
            }
        );
        force_blocking(prev);
        assert_eq!(current_blocking(), first);
    }

    #[test]
    fn sanitize_clamps_degenerate_and_huge_values() {
        let b = Blocking {
            mc: 0,
            kc: 0,
            nc: 0,
        }
        .sanitized();
        assert_eq!(
            b,
            Blocking {
                mc: MR,
                kc: 1,
                nc: NR
            }
        );
        let b = Blocking {
            mc: usize::MAX,
            kc: usize::MAX,
            nc: usize::MAX,
        }
        .sanitized();
        assert!(b.mc <= MAX_BLOCK + MR && b.kc <= MAX_BLOCK && b.nc <= MAX_BLOCK + NR);
        // Round-trips through the packed atomic without truncation.
        assert_eq!(unpack_blocking(pack_blocking(b)), Some(b));
    }

    #[test]
    fn detected_caches_are_plausible() {
        let (l1, l2, l3) = detected_caches();
        assert!((4 * 1024..=1 << 24).contains(&l1));
        assert!((64 * 1024..=1 << 28).contains(&l2));
        assert!((256 * 1024..=1 << 32).contains(&l3));
    }
}
