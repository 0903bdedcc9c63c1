//! `bench_e2e` — the end-to-end + per-layer performance ledger.
//!
//! Five workloads run one pipeline (set-up → compress → write → open →
//! reconstruct → serve queries → verify), each in a fresh process, first with
//! tracing off for the end-to-end metrics, then traced for the per-layer
//! metrics. See `README.md` beside this file for the glossary and the
//! interaction map, and `spec.rs` for the normative tables.
//!
//! ```text
//! bench_e2e all [--seed N] [--seconds S] [--smoke]     every workload, both runs → result.json
//! bench_e2e [run] --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!                                                      one run; last stdout line is the result JSON
//! bench_e2e compare A.json B.json                      A/A and regression gate over two result files
//! bench_e2e manifest                                   prints BENCHMARK.json from the spec tables
//! ```

mod compare;
mod data;
mod dist;
mod host;
mod json;
mod layers;
mod ops;
mod pipeline;
mod procs;
mod report;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use spec::{Workload, RUN_SECONDS, WORKLOADS};

/// A driver run must end within 180 s; the watchdog fires a little earlier.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str = "usage:
  bench_e2e all [--seed N] [--seconds S] [--smoke]
  bench_e2e [run] --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  bench_e2e compare A.json B.json
  bench_e2e manifest
workloads: sp_inmem hcci_stream hcci_dist_tcp serve_small serve_large";

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("bad value for {key}: {v:?}")))
            .transpose()
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.value("--workload").ok_or("missing --workload")?;
        spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => ("run", &args[..]),
        Some(cmd) => (cmd, &args[1..]),
        None => ("help", &args[..]),
    };
    let flags = Flags(rest.to_vec());
    let outcome = match cmd {
        "run" => cmd_run(&flags, &args),
        "all" => cmd_all(&flags),
        "prepare" => cmd_prepare(&flags),
        "compare" => cmd_compare(rest),
        "manifest" => {
            print!("{}", spec::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            eprintln!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("bench_e2e: {e}");
        ExitCode::from(2)
    })
}

fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        1.0
    } else {
        RUN_SECONDS as f64
    }
}

/// One workload in this process (the driver's entry point).
fn cmd_run(flags: &Flags, exec_args: &[String]) -> Result<ExitCode, String> {
    let workload = flags.workload()?;
    let smoke = flags.has("--smoke");
    let args = pipeline::RunArgs {
        workload,
        seed: flags.parsed("--seed")?.unwrap_or(2024),
        seconds: flags
            .parsed("--seconds")?
            .unwrap_or_else(|| default_seconds(smoke)),
        trace: flags.parsed::<u8>("--trace")?.unwrap_or(0) != 0,
        smoke,
        exec_args: exec_args.to_vec(),
    };
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], got {}",
            args.seconds
        ));
    }
    let cores = host::nproc();
    if cores < 2 && !smoke {
        return Err(format!(
            "{cores} core available: the load is fixed at 2 threads / 2 ranks / 2 clients and \
             the timed path refuses to run oversubscribed (use --smoke for a functional run)"
        ));
    }
    // Before the first ExecContext::global(): the pool size is per workload,
    // and tucker-net's workers inherit it.
    std::env::set_var("TUCKER_THREADS", workload.threads.to_string());
    procs::start_watchdog(RUN_LIMIT);

    let report = pipeline::run(&args).map_err(|e| format!("{}: {e}", workload.name))?;
    let Some(report) = report else {
        // A TCP worker: its part is done, and it prints nothing.
        return Ok(ExitCode::SUCCESS);
    };
    let out = host::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    std::fs::write(
        side_file(workload.name, args.trace),
        report.side_json().to_pretty(),
    )
    .map_err(|e| e.to_string())?;
    report.print_human();
    println!("{}", report.driver_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn side_file(workload: &str, trace: bool) -> PathBuf {
    host::out_dir().join(format!("run-{workload}-t{}.json", trace as u8))
}

/// The `prepare` child of the streaming workload: generates the tensor and
/// writes it as raw `f64`s, so the measuring process never holds it.
fn cmd_prepare(flags: &Flags) -> Result<ExitCode, String> {
    let w = flags.workload()?;
    let out = PathBuf::from(flags.value("--out").ok_or("missing --out")?);
    let seed = flags.parsed("--seed")?.unwrap_or(2024);
    let scale = if flags.has("--smoke") { 1 } else { w.scale };
    procs::start_watchdog(RUN_LIMIT);
    let (x, generate_s) = data::generate(w.preset, scale, seed);
    data::write_raw(&out, &x).map_err(|e| format!("{}: {e}", out.display()))?;
    let dims: Vec<String> = x.dims().iter().map(usize::to_string).collect();
    println!("dims {}", dims.join(" "));
    println!("generate_s {generate_s}");
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each run in a fresh child process of this binary (so
/// `peak_rss_mb` and `TUCKER_THREADS` are per workload): tracing off, then
/// traced. Writes `result.json` and exits non-zero on any failure.
fn cmd_all(flags: &Flags) -> Result<ExitCode, String> {
    let smoke = flags.has("--smoke");
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(2024);
    let seconds: f64 = flags
        .parsed("--seconds")?
        .unwrap_or_else(|| default_seconds(smoke));
    procs::start_watchdog(RUN_LIMIT * (2 * WORKLOADS.len() as u32 + 1));
    let out = host::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    let mut workloads = Json::obj();
    let mut all_ok = true;
    for w in &WORKLOADS {
        let mut entry = Json::obj();
        for trace in [false, true] {
            let mut args = vec![
                "run".to_string(),
                "--workload".to_string(),
                w.name.to_string(),
                "--seed".to_string(),
                seed.to_string(),
                "--seconds".to_string(),
                seconds.to_string(),
                "--trace".to_string(),
                (trace as u8).to_string(),
            ];
            if smoke {
                args.push("--smoke".to_string());
            }
            let side = side_file(w.name, trace);
            let _ = std::fs::remove_file(&side);
            let cmd = procs::self_command(&args).map_err(|e| e.to_string())?;
            let (status, _) = procs::run_child(cmd, false).map_err(|e| e.to_string())?;
            let run = std::fs::read_to_string(&side)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text));
            match run {
                Ok(run) => {
                    all_ok &= status.success() && run.get("correct") == Some(&Json::Bool(true));
                    entry.set(if trace { "per_layer" } else { "end_to_end" }, run);
                }
                Err(e) => {
                    eprintln!(
                        "bench_e2e: {} (trace {}) left no result ({status}): {e}",
                        w.name, trace as u8
                    );
                    all_ok = false;
                }
            }
        }
        workloads.set(w.name, entry);
    }
    let result = Json::obj()
        .with("schema", 1usize)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("smoke", smoke)
        .with("host", host::fingerprint())
        .with("workloads", workloads);
    let path = out.join("result.json");
    std::fs::write(&path, result.to_pretty()).map_err(|e| e.to_string())?;
    println!("\n{}", compare::summary(&result));
    println!("{}", compare::dominance(&result));
    println!("wrote {}", path.display());
    if all_ok {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("bench_e2e: at least one run failed its correctness checks");
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, ok) = compare::compare(&load(a)?, &load(b)?);
    println!("{table}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
