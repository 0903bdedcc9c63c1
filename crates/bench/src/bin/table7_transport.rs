//! Table 7 (extension) — transport gate: the TCP multi-process backend vs
//! the in-process reference, on the same grid.
//!
//! This is a CI gate, not just a report. It fails (non-zero exit) unless:
//!
//! 1. **Bit identity** — the gathered Tucker decomposition and the written
//!    `.tkr` artifact are byte-identical across `inproc` and `tcp` backends
//!    on the same processor grid (the ARCHITECTURE §10 contract).
//! 2. **Real bytes moved** — the TCP run reports non-zero on-wire bytes in
//!    its `CommStats` and in the process-global `net.bytes_*` counters, and
//!    its logical volume (words/messages) exactly matches the in-process
//!    run.
//! 3. **No wedge** — the whole gate finishes under a watchdog deadline
//!    (default 240 s, `TUCKER_GATE_TIMEOUT_S` to override); a hang exits 3.
//!
//! It also prints the per-collective latency histograms (`distmem.*.us`)
//! for both backends — the measured-α/β side of the paper's cost model on
//! real sockets.
//!
//! Run: `TUCKER_RANKS=4 cargo run --release -p tucker-bench --bin table7_transport`

use tucker_bench::{print_header, print_row};
use tucker_core::dist::{hybrid_ctx, try_dist_st_hosvd_ctx, DistTensor};
use tucker_core::sthosvd::SthosvdOptions;
use tucker_distmem::{Communicator, ProcGrid, SpmdHandle};
use tucker_net::{env_ranks, spmd_transport, TransportKind};
use tucker_obs::metrics::Histogram;
use tucker_store::{write_tucker_ctx, Codec, StoreOptions};
use tucker_tensor::DenseTensor;

// Same-name statics resolve to the same registry slots the collectives
// record into, so we can read their latency distributions here.
static H_BROADCAST: Histogram = Histogram::new("distmem.broadcast.us");
static H_REDUCE: Histogram = Histogram::new("distmem.reduce.us");
static H_ALL_GATHER: Histogram = Histogram::new("distmem.all_gather.us");
static H_REDUCE_SCATTER: Histogram = Histogram::new("distmem.reduce_scatter.us");
static H_ALL_REDUCE: Histogram = Histogram::new("distmem.all_reduce.us");
static H_GATHER: Histogram = Histogram::new("distmem.gather.us");
static H_SCATTER: Histogram = Histogram::new("distmem.scatter.us");

fn collective_hists() -> [(&'static str, &'static Histogram); 7] {
    [
        ("broadcast", &H_BROADCAST),
        ("reduce", &H_REDUCE),
        ("all_gather", &H_ALL_GATHER),
        ("reduce_scatter", &H_REDUCE_SCATTER),
        ("all_reduce", &H_ALL_REDUCE),
        ("gather", &H_GATHER),
        ("scatter", &H_SCATTER),
    ]
}

fn grid_for(p: usize) -> Vec<usize> {
    match p {
        1 => vec![1, 1, 1],
        2 => vec![2, 1, 1],
        4 => vec![2, 2, 1],
        8 => vec![2, 2, 2],
        other => vec![other, 1, 1],
    }
}

fn structured_tensor(dims: &[usize]) -> DenseTensor {
    DenseTensor::from_fn(dims, |idx| {
        let mut v = 1.0;
        for (k, &i) in idx.iter().enumerate() {
            v += ((k + 1) as f64 * 0.17 * i as f64).sin();
        }
        v
    })
}

/// Runs `try_dist_st_hosvd_ctx` on `kind`, returning rank 0's artifact bytes (shipped
/// through the region result table, so the comparison below happens in the
/// launcher *and* in every worker process identically).
fn run_backend(
    kind: TransportKind,
    grid: &[usize],
    x: &DenseTensor,
    opts: &SthosvdOptions,
    exec_args: &[String],
) -> SpmdHandle<Vec<u8>> {
    let x = x.clone();
    let opts = opts.clone();
    let tag = kind.label();
    spmd_transport(
        kind,
        "table7",
        ProcGrid::new(grid),
        exec_args,
        move |comm: Communicator| -> Vec<u8> {
            let dx = DistTensor::from_global(&comm, &x);
            let r = try_dist_st_hosvd_ctx(&comm, &dx, &opts, &hybrid_ctx(&comm)).unwrap();
            match r.tucker.gather_to_root(&comm) {
                Some(t) => {
                    let path = std::env::temp_dir()
                        .join(format!("table7_{}_{tag}.tkr", std::process::id()));
                    write_tucker_ctx(
                        &path,
                        &t,
                        &StoreOptions::new(Codec::F64, 1e-6),
                        tucker_exec::ExecContext::global(),
                    )
                    .expect("write .tkr");
                    let bytes = std::fs::read(&path).expect("read .tkr back");
                    let _ = std::fs::remove_file(&path);
                    bytes
                }
                None => vec![],
            }
        },
    )
}

fn main() {
    // Watchdog: a wedged transport must fail CI loudly, not hang it.
    let deadline = std::env::var("TUCKER_GATE_TIMEOUT_S")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(240);
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(deadline));
        eprintln!("table7_transport: watchdog expired after {deadline}s — transport wedged");
        std::process::exit(3);
    });

    let p = env_ranks();
    let grid = grid_for(p);
    let dims = [16usize, 14, 12];
    let x = structured_tensor(&dims);
    let opts = SthosvdOptions::with_ranks(vec![5, 4, 4]);
    let exec_args: Vec<String> = std::env::args().skip(1).collect();

    println!("Table 7 (extension) — transport equivalence gate, grid {grid:?} (P = {p})\n");

    let inproc = run_backend(TransportKind::InProc, &grid, &x, &opts, &exec_args);
    let inproc_hists: Vec<_> = collective_hists()
        .iter()
        .map(|(n, h)| (*n, h.snapshot()))
        .collect();
    let tcp = run_backend(TransportKind::Tcp, &grid, &x, &opts, &exec_args);
    let tcp_hists: Vec<_> = collective_hists()
        .iter()
        .map(|(n, h)| (*n, h.snapshot()))
        .collect();

    // --- per-collective latency (the measured α/β story on real sockets) --
    let widths = [16usize, 10, 12, 12, 10, 12, 12];
    print_header(
        &[
            "collective",
            "n(inproc)",
            "p50 (µs)",
            "p99 (µs)",
            "n(tcp)",
            "p50 (µs)",
            "p99 (µs)",
        ],
        &widths,
    );
    for ((name, before), (_, after)) in inproc_hists.iter().zip(tcp_hists.iter()) {
        let tcp_count = after.count - before.count;
        print_row(
            &[
                name.to_string(),
                before.count.to_string(),
                before.quantile_us(0.5).to_string(),
                before.quantile_us(0.99).to_string(),
                tcp_count.to_string(),
                after.quantile_us(0.5).to_string(),
                after.quantile_us(0.99).to_string(),
            ],
            &widths,
        );
    }

    // --- the gate conditions ---------------------------------------------
    let mut failures: Vec<String> = Vec::new();

    if inproc.results[0].is_empty() {
        failures.push("in-process run produced no artifact bytes".into());
    }
    if inproc.results[0] != tcp.results[0] {
        failures.push(format!(
            ".tkr artifact bytes diverge: {} bytes (inproc) vs {} bytes (tcp)",
            inproc.results[0].len(),
            tcp.results[0].len()
        ));
    }
    for r in 0..p {
        if inproc.stats[r].words_sent != tcp.stats[r].words_sent
            || inproc.stats[r].messages_sent != tcp.stats[r].messages_sent
        {
            failures.push(format!(
                "rank {r}: logical volume diverges (inproc {}w/{}m, tcp {}w/{}m)",
                inproc.stats[r].words_sent,
                inproc.stats[r].messages_sent,
                tcp.stats[r].words_sent,
                tcp.stats[r].messages_sent
            ));
        }
    }
    let tcp_wire: u64 = tcp.stats.iter().map(|s| s.wire_bytes_sent).sum();
    let inproc_wire: u64 = inproc.stats.iter().map(|s| s.wire_bytes_sent).sum();
    if p > 1 && tcp_wire == 0 {
        failures.push("tcp run reports zero on-wire bytes".into());
    }
    if inproc_wire != 0 {
        failures.push(format!("inproc run reports {inproc_wire} on-wire bytes"));
    }
    let net_sent = tucker_net::frame::NET_BYTES_SENT.value();
    if p > 1 && !tucker_net::in_worker() && net_sent == 0 {
        failures.push("global net.bytes_sent counter is zero".into());
    }

    println!();
    println!(
        "artifact: {} bytes   wire bytes (tcp, all ranks): {}   comm time visible: {}",
        inproc.results[0].len(),
        tcp_wire,
        if tcp.elapsed > 0.0 { "yes" } else { "no" }
    );
    println!(
        "elapsed: inproc {:.4}s, tcp {:.4}s (region only; spawn+rendezvous happen once, before)",
        inproc.elapsed, tcp.elapsed
    );

    if failures.is_empty() {
        println!("\ntable7_transport: OK — backends byte-identical, {tcp_wire} bytes on the wire");
    } else {
        for f in &failures {
            eprintln!("table7_transport FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
