//! Host fingerprint, process memory readings and the per-run scratch tree.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::Json;

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Peak resident set (`VmHWM`) in MB; 0 where `/proc` has no such field.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next reading is the
/// peak of what runs in between (here: the compress phase, not set-up).
/// Best effort: where `clear_refs` is not writable the peak simply keeps
/// covering the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `(all, stolen)` CPU jiffies since boot, summed over the CPUs. On a shared
/// VM the hypervisor's steal time is the one noise source a run can see.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    (fields.len() >= 8).then(|| (fields[..8].iter().sum(), fields[7]))
}

/// Share of CPU time stolen from this machine since `start`.
pub fn steal_frac(start: Option<(u64, u64)>) -> f64 {
    match (start, cpu_jiffies()) {
        (Some((all0, stolen0)), Some((all1, stolen1))) if all1 > all0 => {
            (stolen1 - stolen0) as f64 / (all1 - all0) as f64
        }
        _ => 0.0,
    }
}

/// The commit of the enclosing git checkout, or "unknown" (the driver runs
/// from an exported tree that is not a repository).
pub fn git_commit() -> String {
    fn resolve(start: &Path) -> Option<String> {
        let git = start
            .ancestors()
            .map(|d| d.join(".git"))
            .find(|g| g.is_dir())?;
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            None => Some(head.to_string()),
            Some(r) => std::fs::read_to_string(git.join(r))
                .ok()
                .map(|s| s.trim().to_string())
                .or_else(|| {
                    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                    packed
                        .lines()
                        .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
                }),
        }
    }
    std::env::current_dir()
        .ok()
        .and_then(|d| resolve(&d))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything a reader needs to decide whether two result files are
/// comparable.
pub fn fingerprint() -> Json {
    let (l1, l2, l3) = tucker_linalg::detected_caches();
    let b = tucker_linalg::current_blocking();
    let ctx = tucker_exec::ExecContext::global();
    Json::obj()
        .with("nproc", nproc())
        .with("cache_l1d_bytes", l1)
        .with("cache_l2_bytes", l2)
        .with("cache_l3_bytes", l3)
        .with("simd_tier", tucker_linalg::current_tier().name())
        .with(
            "blocking",
            Json::obj()
                .with("mc", b.mc)
                .with("kc", b.kc)
                .with("nc", b.nc),
        )
        .with("tucker_threads", ctx.pool_threads())
        .with("os", std::env::consts::OS)
        .with("arch", std::env::consts::ARCH)
        .with("git_commit", git_commit())
}

/// `$CARGO_TARGET_DIR/bench_e2e` (default `target/bench_e2e`), relative to
/// the working directory: result files, traces and scratch all live here, so
/// a run reads and writes only inside its checkout.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .filter(|v| !v.is_empty())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("bench_e2e")
}

/// Live scratch dirs of this process, for the watchdog's exit path (which
/// runs no destructors).
static SCRATCH_DIRS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Removes every live scratch dir; the watchdog calls this before `exit`.
pub fn remove_all_scratch() {
    if let Ok(mut dirs) = SCRATCH_DIRS.lock() {
        for dir in dirs.drain(..) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One per-run temp dir holding every scratch file (raw tensor, artifacts);
/// removed on drop and by the watchdog.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(tag: &str) -> std::io::Result<Scratch> {
        let dir = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        if let Ok(mut dirs) = SCRATCH_DIRS.lock() {
            dirs.push(dir.clone());
        }
        Ok(Scratch { dir })
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Ok(mut dirs) = SCRATCH_DIRS.lock() {
            dirs.retain(|d| d != &self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_the_fields_the_issue_lists() {
        let f = fingerprint();
        for key in [
            "nproc",
            "cache_l1d_bytes",
            "cache_l3_bytes",
            "simd_tier",
            "blocking",
            "tucker_threads",
            "git_commit",
        ] {
            assert!(f.get(key).is_some(), "missing {key}");
        }
        assert!(f.get("nproc").and_then(Json::as_f64).unwrap() >= 1.0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 0.0);
    }
}
