//! ST-HOSVD reads its input in place. A counting global allocator records
//! the largest single allocation made while `st_hosvd_ctx` runs, and it must
//! stay below the size of the input: the first processed mode's Gram and TTM
//! read the borrowed tensor, and only already-shrunk tensors are ever owned.
//!
//! The allocator is process-wide, so this binary holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use tucker_core::ordering::ModeOrder;
use tucker_core::sthosvd::{st_hosvd_ctx, SthosvdOptions};
use tucker_exec::ExecContext;
use tucker_tensor::DenseTensor;

/// Forwards to [`System`], remembering the largest request while armed.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn st_hosvd_never_allocates_a_buffer_as_large_as_its_input() {
    let dims = [48usize, 40, 30, 20];
    let x = DenseTensor::from_fn(&dims, |idx| {
        idx.iter()
            .enumerate()
            .map(|(k, &i)| ((k + 1) as f64 * 0.13 * i as f64).sin())
            .sum::<f64>()
    });
    let input_bytes = x.len() * std::mem::size_of::<f64>();
    let contexts = [ExecContext::new(1), ExecContext::new(2)];
    for order in [ModeOrder::Natural, ModeOrder::Custom(vec![3, 1, 0, 2])] {
        let opts = SthosvdOptions::with_ranks(vec![6, 5, 4, 3]).order(order);
        for ctx in &contexts {
            LARGEST.store(0, Ordering::Relaxed);
            ARMED.store(true, Ordering::Relaxed);
            let result = st_hosvd_ctx(&x, &opts, ctx);
            ARMED.store(false, Ordering::Relaxed);
            let largest = LARGEST.load(Ordering::Relaxed);
            assert_eq!(result.tucker.core.dims(), &[6, 5, 4, 3]);
            assert!(
                largest < input_bytes,
                "threads {}, order {:?}: largest allocation {largest} B >= input {input_bytes} B",
                ctx.threads(),
                result.processed_order
            );
        }
    }
}
