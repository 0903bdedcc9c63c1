//! Criterion benchmarks for the end-to-end decompositions: sequential
//! ST-HOSVD, HOOI, and the distributed ST-HOSVD on small simulated grids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tucker_core::dist::{hybrid_ctx, try_dist_st_hosvd_ctx, DistTensor};
use tucker_core::hooi::{try_hooi_ctx, HooiOptions};
use tucker_core::prelude::*;
use tucker_distmem::{spmd_with_grid, ProcGrid};
use tucker_scidata::NoisyLowRank;

fn test_tensor(scale: usize) -> tucker_tensor::DenseTensor {
    NoisyLowRank {
        dims: vec![16 * scale, 16 * scale, 8 * scale, 8],
        ranks: vec![4, 4, 3, 3],
        noise_level: 1e-3,
        seed: 7,
    }
    .generate()
}

fn bench_sthosvd(c: &mut Criterion) {
    let mut group = c.benchmark_group("st_hosvd");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for scale in [1usize, 2] {
        let x = test_tensor(scale);
        group.bench_with_input(BenchmarkId::from_parameter(scale), &scale, |bencher, _| {
            bencher.iter(|| {
                try_st_hosvd_ctx(
                    black_box(&x),
                    &SthosvdOptions::with_tolerance(1e-3),
                    ExecContext::global(),
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_hooi(c: &mut Criterion) {
    let mut group = c.benchmark_group("hooi_one_iteration");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let x = test_tensor(1);
    group.bench_function("scale_1", |bencher| {
        bencher.iter(|| {
            try_hooi_ctx(
                black_box(&x),
                &HooiOptions::with_ranks(vec![4, 4, 3, 3], 1),
                ExecContext::global(),
            )
            .unwrap()
        });
    });
    group.finish();
}

fn bench_dist_sthosvd(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist_st_hosvd");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let x = test_tensor(1);
    for grid in [vec![1usize, 1, 1, 1], vec![2, 2, 1, 1]] {
        let label = format!("{grid:?}");
        let x = x.clone();
        group.bench_with_input(BenchmarkId::from_parameter(label), &grid, |bencher, g| {
            bencher.iter(|| {
                let x = x.clone();
                spmd_with_grid(ProcGrid::new(g), move |comm| {
                    let dx = DistTensor::from_global(&comm, &x);
                    let r = try_dist_st_hosvd_ctx(
                        &comm,
                        &dx,
                        &SthosvdOptions::with_ranks(vec![4, 4, 3, 3]),
                        &hybrid_ctx(&comm),
                    )
                    .unwrap();
                    r.ranks
                })
            });
        });
    }
    group.finish();
}

criterion_group!(
    decompositions,
    bench_sthosvd,
    bench_hooi,
    bench_dist_sthosvd
);
criterion_main!(decompositions);
