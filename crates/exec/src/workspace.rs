//! Reusable `Vec<f64>` buffers for iterative drivers.
//!
//! The HOOI inner loop (Alg. 2 lines 4–8) materializes a chain of shrinking
//! TTM intermediates on every sweep; with a [`Workspace`] those intermediates
//! ping-pong through a small set of recycled allocations instead of hitting
//! the allocator `O(iterations × modes²)` times.
//!
//! Since ISSUE 8 the workspace also hands out **64-byte-aligned** buffers
//! ([`Workspace::take_aligned`] / [`AlignedBuf`]) for the GEMM/SYRK panel
//! packing of `tucker-linalg`: pack panels start on a cache-line (and AVX
//! vector) boundary, and alignment survives recycling across size classes
//! because the backing allocation is always made with [`BUFFER_ALIGN`].

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// Alignment (bytes) of every [`AlignedBuf`] allocation: one x86 cache line,
/// which is also ≥ the widest SIMD vector the microkernels use (32-byte ymm).
pub const BUFFER_ALIGN: usize = 64;

/// An owned, heap-allocated `f64` buffer whose storage is always aligned to
/// [`BUFFER_ALIGN`] bytes.
///
/// Unlike `Vec<f64>` the alignment is part of the type's contract, so a
/// buffer recycled through a [`Workspace`] stays aligned no matter how many
/// size classes it has passed through.
#[derive(Debug)]
pub struct AlignedBuf {
    ptr: NonNull<f64>,
    len: usize,
    cap: usize,
}

// SAFETY: an AlignedBuf uniquely owns its allocation of plain `f64`s, so
// moving it between threads is sound (same reasoning as Vec<f64>).
unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    /// Allocates an empty buffer with room for `cap` elements.
    fn with_capacity(cap: usize) -> AlignedBuf {
        if cap == 0 {
            return AlignedBuf {
                ptr: NonNull::dangling(),
                len: 0,
                cap: 0,
            };
        }
        let layout = Self::layout(cap);
        // SAFETY: layout has non-zero size (cap > 0) and valid alignment.
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f64>()) else {
            handle_alloc_error(layout)
        };
        AlignedBuf { ptr, len: 0, cap }
    }

    fn layout(cap: usize) -> Layout {
        // A u64-sized element count cannot overflow the layout math on any
        // platform this runs on before the allocation itself fails.
        Layout::from_size_align(cap * std::mem::size_of::<f64>(), BUFFER_ALIGN)
            .unwrap_or_else(|_| Layout::new::<f64>())
    }

    /// Number of elements currently exposed by the slice views.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer exposes no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity of the backing allocation, in elements.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The buffer contents as a shared slice.
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: `ptr` is valid for `cap >= len` elements and `len`
        // elements have been initialized by `set_len_filling`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The buffer contents as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as in `as_slice`, plus unique ownership.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Resizes the view to `len` elements, zero-filling any growth beyond the
    /// previously exposed length (the retained prefix keeps stale contents —
    /// the same contract as [`Workspace::take`]).
    fn set_len_filling(&mut self, len: usize) {
        if self.cap < len {
            let mut grown = AlignedBuf::with_capacity(len);
            grown.len = len;
            // SAFETY: both regions are valid for the copied/zeroed lengths;
            // source and destination never overlap (distinct allocations).
            unsafe {
                std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), grown.ptr.as_ptr(), self.len);
                std::ptr::write_bytes(grown.ptr.as_ptr().add(self.len), 0, len - self.len);
            }
            *self = grown;
            return;
        }
        if len > self.len {
            // SAFETY: `len <= cap`, so the zeroed tail is inside the
            // allocation.
            unsafe {
                std::ptr::write_bytes(self.ptr.as_ptr().add(self.len), 0, len - self.len);
            }
        }
        self.len = len;
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: allocated in `with_capacity` with this exact layout.
            unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.cap)) }
        }
    }
}

/// A pool of reusable `f64` buffers.
///
/// Not thread-safe by design — each driver owns one workspace; the parallel
/// kernels receive disjoint slices *of* these buffers, never the pool itself.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Vec<f64>>,
    free_aligned: Vec<AlignedBuf>,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Returns a buffer of exactly `len` elements with **unspecified
    /// contents** (stale values from a previous use may remain), reusing the
    /// pooled allocation with the largest capacity when one exists.
    ///
    /// Consumers must fully overwrite the buffer — the intended ones do:
    /// `ttm_into_ctx` writes every output element (GEMM with `beta = 0`
    /// zero-scales each panel before accumulating). Skipping the memset here
    /// is the point of recycling: a zero-fill would re-add most of the
    /// allocation cost the workspace exists to remove.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let best = (0..self.free.len()).max_by_key(|&i| self.free[i].capacity());
        let mut buf = match best {
            Some(i) => self.free.swap_remove(i),
            // An empty pool hands out allocator-zeroed memory: no fill pass.
            None => return crate::zeroed(len),
        };
        // Only growth beyond the retained length is zero-filled.
        buf.truncate(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool for later reuse.
    pub fn give(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Returns a **64-byte-aligned** buffer of exactly `len` elements, with
    /// the same contents contract as [`Workspace::take`] (stale prefix from a
    /// previous use, zero-filled growth). Best-fit reuse: the smallest pooled
    /// aligned allocation that already fits `len`, else the largest one (which
    /// then regrows in place of a fresh allocation). A pool cycling through
    /// mixed size classes — e.g. the A/B pack-buffer pair of the GEMM drivers —
    /// therefore reaches a steady state with no reallocation. The alignment of
    /// [`BUFFER_ALIGN`] holds for every buffer ever handed out, no matter how
    /// many size classes it has been recycled through.
    pub fn take_aligned(&mut self, len: usize) -> AlignedBuf {
        let fitting = (0..self.free_aligned.len())
            .filter(|&i| self.free_aligned[i].capacity() >= len)
            .min_by_key(|&i| self.free_aligned[i].capacity());
        let chosen = fitting.or_else(|| {
            (0..self.free_aligned.len()).max_by_key(|&i| self.free_aligned[i].capacity())
        });
        let mut buf = match chosen {
            Some(i) => self.free_aligned.swap_remove(i),
            None => AlignedBuf::with_capacity(len),
        };
        buf.set_len_filling(len);
        buf
    }

    /// Returns an aligned buffer to the pool for later reuse.
    pub fn give_aligned(&mut self, buf: AlignedBuf) {
        if buf.capacity() > 0 {
            self.free_aligned.push(buf);
        }
    }

    /// Number of pooled buffers currently idle.
    pub fn pooled(&self) -> usize {
        self.free.len() + self.free_aligned.len()
    }

    /// Total capacity (in elements) held by idle buffers.
    pub fn reserved(&self) -> usize {
        self.free.iter().map(|b| b.capacity()).sum::<usize>()
            + self
                .free_aligned
                .iter()
                .map(|b| b.capacity())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_without_zeroing_but_zeroes_growth() {
        let mut ws = Workspace::new();
        let mut a = ws.take(8);
        assert_eq!(a, vec![0.0; 8], "fresh buffers start zeroed");
        a.iter_mut().for_each(|v| *v = 7.0);
        ws.give(a);
        let b = ws.take(12);
        // The reused prefix keeps stale contents (the contract: consumers
        // overwrite everything); only the growth is zero-filled.
        assert_eq!(&b[..8], &[7.0; 8]);
        assert_eq!(&b[8..], &[0.0; 4]);
        assert_eq!(b.len(), 12);
    }

    #[test]
    fn allocations_are_recycled() {
        let mut ws = Workspace::new();
        let a = ws.take(1024);
        let ptr = a.as_ptr();
        ws.give(a);
        let b = ws.take(512);
        // Shrinking take reuses the same allocation.
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 512);
        assert!(b.capacity() >= 1024);
    }

    #[test]
    fn largest_capacity_is_preferred() {
        let mut ws = Workspace::new();
        ws.give(Vec::with_capacity(16));
        ws.give(Vec::with_capacity(4096));
        let buf = ws.take(1000);
        assert!(buf.capacity() >= 4096);
        assert_eq!(ws.pooled(), 1);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut ws = Workspace::new();
        ws.give(Vec::new());
        ws.give_aligned(ws2_empty());
        assert_eq!(ws.pooled(), 0);
        assert_eq!(ws.reserved(), 0);
    }

    fn ws2_empty() -> AlignedBuf {
        Workspace::new().take_aligned(0)
    }

    fn is_aligned(buf: &AlignedBuf) -> bool {
        (buf.as_slice().as_ptr() as usize).is_multiple_of(BUFFER_ALIGN)
    }

    #[test]
    fn aligned_buffers_are_64_byte_aligned() {
        let mut ws = Workspace::new();
        for len in [1usize, 7, 64, 1000, 4096] {
            let buf = ws.take_aligned(len);
            assert!(is_aligned(&buf), "len {len} not {BUFFER_ALIGN}-aligned");
            assert_eq!(buf.len(), len);
            ws.give_aligned(buf);
        }
    }

    #[test]
    fn alignment_survives_recycling_across_size_classes() {
        // The satellite contract: a buffer recycled through arbitrary
        // shrink/grow cycles must stay 64-byte aligned every time it is
        // handed out (growth reallocates with the aligned layout; shrinking
        // reuses the allocation, whose alignment is a property of the
        // original alloc).
        let mut ws = Workspace::new();
        let mut last_ptr = None;
        for &len in &[512usize, 64, 2048, 1, 4096, 33, 1023, 8192, 5] {
            let mut buf = ws.take_aligned(len);
            assert!(is_aligned(&buf), "recycled len {len} lost alignment");
            assert_eq!(buf.len(), len);
            // Touch every element so miscounted lengths would fault/fail.
            for v in buf.as_mut_slice() {
                *v = len as f64;
            }
            // Shrinking takes must reuse the pooled allocation.
            if let Some(prev) = last_ptr {
                if len <= 512 {
                    assert_eq!(buf.as_slice().as_ptr(), prev, "len {len} did not recycle");
                }
            }
            if buf.capacity() >= 8192 {
                last_ptr = Some(buf.as_slice().as_ptr());
            }
            ws.give_aligned(buf);
        }
    }

    #[test]
    fn aligned_take_zeroes_growth_and_keeps_stale_prefix() {
        let mut ws = Workspace::new();
        let mut a = ws.take_aligned(8);
        assert_eq!(
            a.as_slice(),
            &[0.0; 8],
            "fresh aligned buffers start zeroed"
        );
        a.as_mut_slice().iter_mut().for_each(|v| *v = 9.0);
        ws.give_aligned(a);
        let b = ws.take_aligned(12);
        assert_eq!(&b.as_slice()[..8], &[9.0; 8]);
        assert_eq!(&b.as_slice()[8..], &[0.0; 4]);
    }

    #[test]
    fn aligned_and_vec_pools_are_independent() {
        let mut ws = Workspace::new();
        ws.give(vec![1.0; 100]);
        let buf = ws.take_aligned(100);
        assert!(is_aligned(&buf));
        // The Vec must still be pooled: aligned takes never consume it.
        assert_eq!(ws.pooled(), 1);
        assert_eq!(ws.reserved(), 100);
        ws.give_aligned(buf);
        assert_eq!(ws.pooled(), 2);
        assert!(ws.reserved() >= 200);
    }

    #[test]
    fn aligned_zero_len_is_allocation_free() {
        let mut ws = Workspace::new();
        let buf = ws.take_aligned(0);
        assert_eq!(buf.len(), 0);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 0);
    }
}
