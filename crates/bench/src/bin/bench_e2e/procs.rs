//! Child processes and the watchdog.
//!
//! Every process this binary starts directly (the `prepare` child, the
//! per-workload children of `all`) sits in one registry until it has been
//! waited for, so the watchdog can kill whatever is still running when a run
//! wedges. The TCP workers of `hcci_dist_tcp` are started by `tucker-net`,
//! which keeps their handles to itself: they are the same binary with the
//! same arguments, so each runs this same watchdog, and
//! [`wait_for_exit`] confirms they are gone before rank 0 moves on.

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::host;
use crate::pipeline::Cx;

static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());

fn children() -> std::sync::MutexGuard<'static, Vec<Child>> {
    CHILDREN
        .lock()
        .expect("child registry: holders only push, remove and poll")
}

/// Exit code of a run the watchdog had to end.
pub const EXIT_WEDGED: i32 = 3;

/// Ends the process with [`EXIT_WEDGED`] after `limit`, killing registered
/// children and removing scratch files first. A wedged transport or daemon
/// must fail loudly, not hang the driver.
pub fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "bench_e2e: watchdog expired after {}s, run wedged; killing children",
            limit.as_secs()
        );
        for child in children().iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        host::remove_all_scratch();
        std::process::exit(EXIT_WEDGED);
    });
}

/// Runs `cmd` to completion as a registered child. With `capture` its stdout
/// is returned; otherwise it is inherited.
// The child is waited for through the registry (here, or by the watchdog),
// which the lint cannot see.
#[allow(clippy::zombie_processes)]
pub fn run_child(mut cmd: Command, capture: bool) -> std::io::Result<(ExitStatus, String)> {
    cmd.stdin(Stdio::null());
    if capture {
        cmd.stdout(Stdio::piped());
    }
    let mut child = cmd.spawn()?;
    let id = child.id();
    let stdout = child.stdout.take();
    children().push(child);
    let mut out = String::new();
    if let Some(mut pipe) = stdout {
        // Returns at EOF: when the child exits or the watchdog kills it.
        pipe.read_to_string(&mut out)?;
    }
    loop {
        let mut reg = children();
        let at = reg
            .iter()
            .position(|c| c.id() == id)
            .expect("child stays registered until waited for");
        if let Some(status) = reg[at].try_wait()? {
            reg.swap_remove(at);
            return Ok((status, out));
        }
        drop(reg);
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// This binary, re-invoked with `args`.
pub fn self_command(args: &[String]) -> std::io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(args);
    Ok(cmd)
}

/// Has a separate `prepare` process generate the workload's tensor and write
/// it to `raw` (so this process never holds it and its peak RSS stays the
/// streaming pipeline's own). Returns the dims and the child's generate time.
pub fn run_prepare(cx: &mut Cx, raw: &Path) -> std::io::Result<(Vec<usize>, f64)> {
    let mut args = vec![
        "prepare".to_string(),
        "--workload".to_string(),
        cx.w.name.to_string(),
        "--seed".to_string(),
        cx.seed.to_string(),
        "--out".to_string(),
        raw.display().to_string(),
    ];
    if cx.smoke {
        args.push("--smoke".to_string());
    }
    let span = cx.tr.enter("scidata.prepare_process");
    let (status, out) = run_child(self_command(&args)?, true)?;
    cx.tr.exit(span);
    let field = |key: &str| -> Option<&str> {
        out.lines().find_map(|l| l.strip_prefix(key)).map(str::trim)
    };
    let dims: Option<Vec<usize>> = field("dims").map(|d| {
        d.split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect()
    });
    let gen_s = field("generate_s").and_then(|v| v.parse::<f64>().ok());
    match (status.success(), dims, gen_s) {
        (true, Some(dims), Some(gen_s)) if !dims.is_empty() => Ok((dims, gen_s)),
        _ => Err(std::io::Error::other(format!(
            "prepare child failed ({status}): {out:?}"
        ))),
    }
}

/// Waits until none of `pids` is a live process any more.
pub fn wait_for_exit(pids: &[u32], limit: Duration) -> bool {
    if !Path::new("/proc/self").exists() {
        return true;
    }
    let t0 = Instant::now();
    loop {
        if pids
            .iter()
            .all(|p| !Path::new(&format!("/proc/{p}")).exists())
        {
            return true;
        }
        if t0.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_child_captures_stdout_and_unregisters() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo dims 3 4; echo generate_s 0.5; exit 7"]);
        let (status, out) = run_child(cmd, true).unwrap();
        assert_eq!(status.code(), Some(7));
        assert!(out.contains("dims 3 4"));
        let gone = std::process::id() + 1_000_000;
        assert!(wait_for_exit(&[gone], Duration::from_millis(50)));
        assert!(!wait_for_exit(
            &[std::process::id()],
            Duration::from_millis(20)
        ));
    }
}
