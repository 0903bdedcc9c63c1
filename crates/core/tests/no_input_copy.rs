//! ST-HOSVD and HOOI read their input in place. A counting global allocator
//! records the largest single allocation made while `st_hosvd_ctx`,
//! `hooi_ctx` or the distributed driver on a 1×…×1 grid runs, and it must
//! stay below the size of the input: every Gram and TTM that touches the
//! input reads the borrowed tensor, and only already-shrunk tensors are ever
//! owned.
//!
//! Reconstruction runs its expanding tail in tile buffers: the same
//! allocator counts the allocations at least as large as the intermediate
//! the tail's first product would form, and only the output may be one.
//!
//! The allocator is process-wide, so the tests in this binary take turns
//! through one lock, held from input construction to the last check.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use tucker_core::dist::{dist_st_hosvd_ctx, DistTensor};
use tucker_core::hooi::{hooi_ctx, HooiOptions};
use tucker_core::ordering::ModeOrder;
use tucker_core::sthosvd::{st_hosvd_ctx, SthosvdOptions};
use tucker_core::TuckerTensor;
use tucker_distmem::runtime::spmd_with_grid;
use tucker_distmem::ProcGrid;
use tucker_exec::ExecContext;
use tucker_linalg::Matrix;
use tucker_tensor::DenseTensor;

/// Forwards to [`System`], remembering the largest request while armed.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static LARGE_SIZE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_COUNT: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

fn record(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
        if size >= LARGE_SIZE.load(Ordering::Relaxed) {
            LARGE_COUNT.fetch_add(1, Ordering::Relaxed);
        }
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

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the allocator armed and returns the largest allocation it
/// made.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (out, LARGEST.load(Ordering::Relaxed))
}

/// Runs `f` with the allocator armed and returns how many of its
/// allocations were at least `bytes` long.
fn allocations_at_least<R>(bytes: usize, f: impl FnOnce() -> R) -> (R, usize) {
    LARGE_SIZE.store(bytes, Ordering::Relaxed);
    LARGE_COUNT.store(0, Ordering::Relaxed);
    let (out, _) = largest_allocation(f);
    LARGE_SIZE.store(usize::MAX, Ordering::Relaxed);
    (out, LARGE_COUNT.load(Ordering::Relaxed))
}

fn input() -> DenseTensor {
    let dims = [48usize, 40, 30, 20];
    DenseTensor::from_fn(&dims, |idx| {
        idx.iter()
            .enumerate()
            .map(|(k, &i)| ((k + 1) as f64 * 0.13 * i as f64).sin())
            .sum::<f64>()
    })
}

#[test]
fn st_hosvd_never_allocates_a_buffer_as_large_as_its_input() {
    let _turn = serial();
    let x = input();
    let input_bytes = x.len() * std::mem::size_of::<f64>();
    let contexts = [ExecContext::new(1), ExecContext::new(2)];
    for order in [ModeOrder::Natural, ModeOrder::Custom(vec![3, 1, 0, 2])] {
        let opts = SthosvdOptions::with_ranks(vec![6, 5, 4, 3]).order(order);
        for ctx in &contexts {
            let (result, largest) = largest_allocation(|| st_hosvd_ctx(&x, &opts, ctx));
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

#[test]
fn dist_st_hosvd_on_one_rank_never_allocates_a_buffer_as_large_as_its_input() {
    let _turn = serial();
    let x = input();
    let input_bytes = x.len() * std::mem::size_of::<f64>();
    let contexts = [ExecContext::new(1), ExecContext::new(2)];
    for order in [ModeOrder::Natural, ModeOrder::Custom(vec![3, 1, 0, 2])] {
        let opts = SthosvdOptions::with_ranks(vec![6, 5, 4, 3]).order(order);
        for ctx in &contexts {
            let results = spmd_with_grid(ProcGrid::new(&[1, 1, 1, 1]), |comm| {
                let dx = DistTensor::from_global(&comm, &x);
                let (r, largest) = largest_allocation(|| dist_st_hosvd_ctx(&comm, &dx, &opts, ctx));
                (r.ranks, r.processed_order, largest)
            });
            let (ranks, order, largest) = &results[0];
            assert_eq!(ranks, &[6, 5, 4, 3]);
            assert!(
                *largest < input_bytes,
                "threads {}, order {order:?}: largest allocation {largest} B >= input {input_bytes} B",
                ctx.threads(),
            );
        }
    }
}

#[test]
fn hooi_never_allocates_a_buffer_as_large_as_its_input() {
    let _turn = serial();
    let x = input();
    let input_bytes = x.len() * std::mem::size_of::<f64>();
    let opts = HooiOptions::with_ranks(vec![6, 5, 4, 3], 2);
    for ctx in [ExecContext::new(1), ExecContext::new(2)] {
        let (result, largest) = largest_allocation(|| hooi_ctx(&x, &opts, &ctx));
        assert_eq!(result.tucker.core.dims(), &[6, 5, 4, 3]);
        assert!(
            largest < input_bytes,
            "threads {}: largest allocation {largest} B >= input {input_bytes} B",
            ctx.threads()
        );
    }
}

#[test]
fn reconstruct_never_allocates_its_tail_intermediate() {
    let _turn = serial();
    let ranks = [5usize, 5, 5, 2, 6];
    let dims = [36usize, 36, 36, 8, 16];
    let core = DenseTensor::from_fn(&ranks, |idx| {
        idx.iter()
            .enumerate()
            .map(|(k, &i)| ((k + 1) as f64 * 0.29 * i as f64).cos())
            .sum::<f64>()
    });
    let factors = dims
        .iter()
        .zip(&ranks)
        .map(|(&d, &r)| Matrix::from_fn(d, r, |i, j| ((i * 5 + j * 3) as f64 * 0.07).sin()))
        .collect();
    let t = TuckerTensor::new(core, factors);
    // The chain's mode-3 product: the SP-shaped [36, 36, 36, 8, 6].
    let intermediate_bytes = 36 * 36 * 36 * 8 * 6 * std::mem::size_of::<f64>();
    let contexts = [ExecContext::new(1), ExecContext::new(4)];
    let runs = [ExecContext::global()].into_iter().chain(&contexts);
    for ctx in runs {
        let (x, large) = allocations_at_least(intermediate_bytes, || t.reconstruct_ctx(ctx));
        assert_eq!(x.dims(), &dims);
        assert_eq!(
            large,
            1,
            "threads {}: {large} allocations of at least {intermediate_bytes} B; only the \
             output may be that large",
            ctx.threads()
        );
    }
}
