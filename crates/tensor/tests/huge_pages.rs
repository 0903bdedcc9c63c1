//! A large `DenseTensor` is advised for transparent huge pages.
//!
//! `DenseTensor::zeros` allocates through `tucker_exec::zeroed`, which marks
//! the whole 2 MiB pages inside a buffer of 8 MiB or more with
//! `madvise(MADV_HUGEPAGE)`. The kernel records that advice as the `hg` flag
//! of the memory area holding those pages, which `/proc/self/smaps` lists.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::path::Path;
use tucker_tensor::DenseTensor;

const HUGE_PAGE: usize = 2 << 20;

/// The `VmFlags` of the `/proc/self/smaps` area holding `addr`.
fn vm_flags_at(addr: usize) -> Vec<String> {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read /proc/self/smaps");
    let mut inside = false;
    for line in smaps.lines() {
        let first = line.split_whitespace().next().unwrap_or("");
        if let Some((lo, hi)) = first.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                inside = lo <= addr && addr < hi;
                continue;
            }
        }
        if inside {
            if let Some(flags) = line.strip_prefix("VmFlags:") {
                return flags.split_whitespace().map(str::to_owned).collect();
            }
        }
    }
    panic!("no smaps area with VmFlags holds {addr:#x}");
}

#[test]
fn a_16_mib_tensor_interior_is_advised_for_huge_pages() {
    if !Path::new("/sys/kernel/mm/transparent_hugepage").exists() {
        eprintln!("kernel without transparent huge pages: madvise cannot advise, nothing to check");
        return;
    }
    let x = DenseTensor::zeros(&[256, 128, 64]);
    let bytes = std::mem::size_of_val(x.as_slice());
    assert_eq!(bytes, 16 << 20);
    let start = x.as_slice().as_ptr() as usize;
    let interior = start.next_multiple_of(HUGE_PAGE);
    assert!(interior + HUGE_PAGE <= start + bytes);
    for addr in [interior, start + bytes / 2] {
        let flags = vm_flags_at(addr);
        assert!(
            flags.iter().any(|f| f == "hg"),
            "area holding {addr:#x} is not advised: VmFlags {flags:?}"
        );
    }
    assert!(x.as_slice().iter().all(|v| v.to_bits() == 0));
}

#[test]
fn a_small_tensor_is_left_alone() {
    // 4 MiB: under the 8 MiB threshold, so no advice is given, whatever the
    // allocator does with the mapping.
    let x = DenseTensor::zeros(&[512, 1024]);
    let start = x.as_slice().as_ptr() as usize;
    let interior = start.next_multiple_of(HUGE_PAGE);
    if interior + HUGE_PAGE <= start + std::mem::size_of_val(x.as_slice()) {
        let flags = vm_flags_at(interior);
        assert!(
            !flags.iter().any(|f| f == "hg"),
            "a 4 MiB tensor was advised: VmFlags {flags:?}"
        );
    }
}
