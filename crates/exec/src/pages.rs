//! Large zeroed `f64` buffers on transparent huge pages.
//!
//! A large `vec![0.0; len]` is a fresh `calloc`ed mapping whose 4 KB pages
//! the kernel zero-fills one fault at a time on first touch. For a buffer
//! that is written once — a reconstruction's output, a TTM product — those
//! faults are most of what the write costs. [`zeroed`] allocates the same
//! way and, on Linux x86-64, advises the whole 2 MiB pages inside a buffer
//! of at least 8 MiB with `madvise(MADV_HUGEPAGE)` before any page is
//! touched, so one fault maps 2 MiB. The advice changes how pages are
//! mapped, never what they hold.
//!
//! Under the THP mode `madvise` only advised ranges get huge pages. Under
//! `always` every large anonymous mapping gets them anyway, and under
//! `never` none does, so in both the advice changes nothing in effect. A
//! kernel built without THP rejects the call with `EINVAL`; the error is
//! ignored and the buffer is simply not advised.

use std::ops::Range;

/// The transparent huge page size on x86-64.
const HUGE_PAGE: usize = 2 << 20;

/// Buffers smaller than four huge pages are not advised: their ragged ends
/// would be a large share of them, and their faults cost little anyway.
const ADVISE_MIN_BYTES: usize = 4 * HUGE_PAGE;

/// `len` zeros in a plain `Vec<f64>`, its huge-page interior advised for
/// transparent huge pages when it spans at least 8 MiB (see the module
/// docs). The buffer has the default alignment and is freed by the global
/// allocator like any other `Vec`.
pub fn zeroed(len: usize) -> Vec<f64> {
    let buf = vec![0.0; len];
    let bytes = std::mem::size_of_val(buf.as_slice());
    if bytes >= ADVISE_MIN_BYTES {
        if let Some(range) = huge_page_interior(buf.as_ptr() as usize, bytes) {
            advise_huge_pages(range);
        }
    }
    buf
}

/// The whole huge pages inside `[addr, addr + bytes)`:
/// `[round_up(addr), round_down(addr + bytes))` to [`HUGE_PAGE`], or `None`
/// when that is empty.
fn huge_page_interior(addr: usize, bytes: usize) -> Option<Range<usize>> {
    let start = addr.next_multiple_of(HUGE_PAGE);
    let end = (addr + bytes) / HUGE_PAGE * HUGE_PAGE;
    (start < end).then_some(start..end)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn advise_huge_pages(range: Range<usize>) {
    use std::ffi::{c_int, c_void};
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // SAFETY: `range` is page-aligned and lies inside a live allocation that
    // the caller owns. MADV_HUGEPAGE only sets a flag on the mapping that
    // tells the kernel how to back its pages: it unmaps nothing and changes
    // no byte, so every pointer and value in the buffer stays valid. A
    // failure (EINVAL without THP) leaves the mapping as it was, so the
    // return value is ignored.
    let _ = unsafe { madvise(range.start as *mut c_void, range.len(), MADV_HUGEPAGE) };
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn advise_huge_pages(_range: Range<usize>) {}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    /// The interior of `[addr, addr + bytes)`, checked against the
    /// definition: aligned ends, inside the buffer, and no whole huge page
    /// of the buffer left outside it.
    fn checked_interior(addr: usize, bytes: usize) -> Option<Range<usize>> {
        let range = huge_page_interior(addr, bytes);
        if let Some(r) = &range {
            assert_eq!(r.start % HUGE_PAGE, 0, "{r:x?} start not aligned");
            assert_eq!(r.end % HUGE_PAGE, 0, "{r:x?} end not aligned");
            assert!(
                addr <= r.start && r.end <= addr + bytes,
                "{r:x?} leaves the buffer"
            );
            assert!(r.start - addr < HUGE_PAGE, "{r:x?} skips a whole head page");
            assert!(
                addr + bytes - r.end < HUGE_PAGE,
                "{r:x?} skips a whole tail page"
            );
        }
        range
    }

    #[test]
    fn an_aligned_buffer_is_advised_whole() {
        let base = 512 * HUGE_PAGE;
        assert_eq!(
            checked_interior(base, 10 * MIB),
            Some(base..base + 10 * MIB)
        );
    }

    #[test]
    fn a_ragged_buffer_loses_its_partial_end_pages() {
        // glibc's mmapped chunks start 16 bytes into a 4 KB page.
        let addr = 512 * HUGE_PAGE + 4096 + 16;
        let bytes = 20 * MIB + 24;
        assert_eq!(
            checked_interior(addr, bytes),
            Some(513 * HUGE_PAGE..522 * HUGE_PAGE)
        );
        // Ragged only at the top end.
        assert_eq!(
            checked_interior(512 * HUGE_PAGE, 3 * HUGE_PAGE - 8),
            Some(512 * HUGE_PAGE..514 * HUGE_PAGE)
        );
    }

    #[test]
    fn a_buffer_without_a_whole_huge_page_gets_no_range() {
        let addr = 512 * HUGE_PAGE + MIB;
        assert_eq!(checked_interior(addr, HUGE_PAGE), None);
        assert_eq!(checked_interior(addr, HUGE_PAGE + MIB - 8), None);
        assert_eq!(checked_interior(addr, 0), None);
        assert_eq!(checked_interior(512 * HUGE_PAGE, HUGE_PAGE - 8), None);
    }

    #[test]
    fn a_buffer_at_the_threshold_holds_three_or_four_huge_pages() {
        let base = 512 * HUGE_PAGE;
        let aligned = checked_interior(base, ADVISE_MIN_BYTES).expect("aligned");
        assert_eq!(aligned.len(), 4 * HUGE_PAGE);
        let ragged = checked_interior(base + 4112, ADVISE_MIN_BYTES).expect("ragged");
        assert_eq!(ragged, base + HUGE_PAGE..base + 4 * HUGE_PAGE);
    }

    #[test]
    fn zeroed_returns_len_zeros() {
        let threshold = ADVISE_MIN_BYTES / std::mem::size_of::<f64>();
        let odd_20_mib = 20 * MIB / 8 + 12_345;
        for len in [0, 1, threshold - 1, threshold, threshold + 1, odd_20_mib] {
            let buf = zeroed(len);
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|v| v.to_bits() == 0), "len {len}");
        }
    }
}
