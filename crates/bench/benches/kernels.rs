//! Criterion micro-benchmarks for the local computational kernels:
//! GEMM, local TTM, local Gram, and the symmetric eigensolver.
//!
//! These are the per-node building blocks whose efficiency the paper relies on
//! ("the algorithm is efficient because it casts local computations in terms of
//! BLAS3 routines", Sec. I).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tucker_exec::ExecContext;
use tucker_linalg::eig::sym_eig_desc;
use tucker_linalg::gemm::{gemm, Transpose};
use tucker_linalg::syrk::syrk;
use tucker_linalg::Matrix;
use tucker_scidata::random_low_rank;
use tucker_tensor::{gram_ctx, ttm_ctx, DenseTensor, TtmTranspose};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[64usize, 128] {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j) as f64 * 0.01).sin());
        let b = Matrix::from_fn(n, n, |i, j| ((i + 3 * j) as f64 * 0.02).cos());
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| {
                gemm(
                    Transpose::No,
                    Transpose::No,
                    1.0,
                    black_box(&a),
                    black_box(&b),
                )
            });
        });
    }
    group.finish();
}

fn bench_syrk(c: &mut Criterion) {
    let mut group = c.benchmark_group("syrk");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &(m, k) in &[(64usize, 512usize), (128, 1024)] {
        let a = Matrix::from_fn(m, k, |i, j| ((i + j) as f64 * 0.01).sin());
        group.bench_with_input(
            BenchmarkId::new("m_k", format!("{m}x{k}")),
            &m,
            |bencher, _| {
                bencher.iter(|| syrk(black_box(&a)));
            },
        );
    }
    group.finish();
}

fn bench_local_ttm(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_ttm");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let x = random_low_rank(1, &[32, 32, 32], &[8, 8, 8]);
    for mode in 0..3usize {
        let v = Matrix::from_fn(8, 32, |i, j| ((i * 5 + j) as f64 * 0.03).sin());
        group.bench_with_input(BenchmarkId::new("mode", mode), &mode, |bencher, &m| {
            bencher.iter(|| {
                ttm_ctx(
                    ExecContext::global(),
                    black_box(&x),
                    black_box(&v),
                    m,
                    TtmTranspose::NoTranspose,
                )
            });
        });
    }
    group.finish();
}

fn bench_local_gram(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_gram");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let x = random_low_rank(2, &[32, 32, 32], &[8, 8, 8]);
    for mode in 0..3usize {
        group.bench_with_input(BenchmarkId::new("mode", mode), &mode, |bencher, &m| {
            bencher.iter(|| gram_ctx(ExecContext::global(), black_box(&x), m));
        });
    }
    group.finish();
}

fn bench_eigensolver(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym_eig");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &n in &[32usize, 96] {
        let x = DenseTensor::from_fn(&[n, 64], |idx| ((idx[0] * 3 + idx[1]) as f64 * 0.01).sin());
        let s = gram_ctx(ExecContext::global(), &x, 0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| sym_eig_desc(black_box(&s)));
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_gemm,
    bench_syrk,
    bench_local_ttm,
    bench_local_gram,
    bench_eigensolver
);
criterion_main!(kernels);
