//! Observability of the ST-HOSVD and HOOI drivers. Sequential and
//! distributed runs are one driver, so they open one span family (`st_hosvd`
//! / `st_hosvd.mode`, `hooi` / `hooi.iteration`, with a `ranks` argument)
//! and count `core.st_hosvd.runs` once per run and `core.hooi.iterations`
//! once per sweep, on every rank.
//!
//! The trace sink and the counters are process-wide, so this binary holds a
//! single test.

use tucker_core::dist::{hybrid_ctx, try_dist_hooi_ctx, try_dist_st_hosvd_ctx, DistTensor};
use tucker_core::hooi::{try_hooi_ctx, HooiOptions};
use tucker_core::sthosvd::{try_st_hosvd_ctx, SthosvdOptions};
use tucker_distmem::runtime::spmd_with_grid;
use tucker_distmem::ProcGrid;
use tucker_exec::ExecContext;
use tucker_obs::metrics::Counter;
use tucker_tensor::DenseTensor;

static RUNS: Counter = Counter::new("core.st_hosvd.runs");
static ITERATIONS: Counter = Counter::new("core.hooi.iterations");

#[test]
fn drivers_open_one_span_family_and_count_once_per_rank() {
    let ctx = ExecContext::global();
    let x = DenseTensor::from_fn(&[9, 8, 7], |idx| {
        idx.iter()
            .enumerate()
            .map(|(k, &i)| ((k + 1) as f64 * 0.19 * i as f64).sin())
            .sum::<f64>()
    });
    let sth = SthosvdOptions::with_ranks(vec![3, 3, 2]);
    let hooi_opts = HooiOptions {
        init: sth.clone(),
        max_iterations: 2,
        fit_tolerance: f64::NEG_INFINITY,
    };
    let path =
        std::env::temp_dir().join(format!("tucker_core_driver_{}.trace", std::process::id()));
    tucker_obs::trace::install(path.to_str().unwrap_or_default())
        .unwrap_or_else(|e| panic!("cannot install trace sink: {e}"));
    let (runs0, iterations0) = (RUNS.value(), ITERATIONS.value());

    // One rank, then two: one ST-HOSVD run and one HOOI run (plus its
    // ST-HOSVD initialization) on each rank.
    try_st_hosvd_ctx(&x, &sth, ctx).unwrap();
    try_hooi_ctx(&x, &hooi_opts, ctx).unwrap();
    spmd_with_grid(ProcGrid::new(&[2, 1, 1]), |comm| {
        let dx = DistTensor::from_global(&comm, &x);
        try_dist_st_hosvd_ctx(&comm, &dx, &sth, &hybrid_ctx(&comm)).unwrap();
        try_dist_hooi_ctx(&comm, &dx, &hooi_opts, &hybrid_ctx(&comm)).unwrap();
    });

    let (runs, iterations) = (RUNS.value() - runs0, ITERATIONS.value() - iterations0);
    tucker_obs::trace::uninstall();
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    std::fs::remove_file(&path).ok();
    assert_eq!(runs, 2 + 2 * 2, "core.st_hosvd.runs");
    assert_eq!(iterations, 2 + 2 * 2, "core.hooi.iterations");

    let spans = |name: &str, ranks: Option<usize>| {
        let name = format!("\"name\":\"{name}\",");
        let ranks = ranks.map(|r| format!("\"ranks\":{r},")).unwrap_or_default();
        text.lines()
            .filter(|l| l.contains(&name) && l.contains(&ranks))
            .count()
    };
    assert_eq!(spans("st_hosvd", Some(1)), 2, "{text}");
    assert_eq!(spans("st_hosvd", Some(2)), 2 * 2, "{text}");
    assert_eq!(spans("st_hosvd.mode", None), 6 * 3, "{text}");
    assert_eq!(spans("hooi", Some(1)), 1, "{text}");
    assert_eq!(spans("hooi", Some(2)), 2, "{text}");
    assert_eq!(spans("hooi.iteration", None), 6, "{text}");
    assert_eq!(spans("dist.gram", None), 6 * 3, "{text}");
    for old in ["dist_st_hosvd", "dist_hooi"] {
        assert_eq!(spans(old, None), 0, "{text}");
    }
}
