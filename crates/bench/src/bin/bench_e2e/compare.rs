//! `bench_e2e compare <a> <b>`: the A/A tool and the ledger gate. Reads two
//! `result.json` files and holds every end-to-end metric of every workload
//! against its bound, one row per pairing, ratios always given with their
//! base.

use std::fmt::Write as _;

use crate::json::Json;
use crate::spec::{Better, END_TO_END, WORKLOADS};

fn run_of<'a>(result: &'a Json, workload: &str) -> Option<&'a Json> {
    result.get("workloads")?.get(workload)?.get("end_to_end")
}

fn traced_of<'a>(result: &'a Json, workload: &str) -> Option<&'a Json> {
    result.get("workloads")?.get(workload)?.get("per_layer")
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn failed_of(run: &Json) -> f64 {
    run.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// By how much of `base` the candidate is worse (negative: better).
fn worse_by(better: Better, base: f64, cand: f64) -> f64 {
    match better {
        Better::Lower => (cand - base) / base.abs(),
        Better::Higher => (base - cand) / base.abs(),
    }
}

/// The comparison table and whether every pairing holds its bound. `a` is
/// the base of every ratio.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "worse", "bound"
    );
    for w in &WORKLOADS {
        let (Some(ra), Some(rb)) = (run_of(a, w.name), run_of(b, w.name)) else {
            let _ = writeln!(out, "{:<14} missing from one of the files: FAIL", w.name);
            ok = false;
            continue;
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric(ra, m.name), metric(rb, m.name)) else {
                let _ = writeln!(out, "{:<14} {:<18} missing: FAIL", w.name, m.name);
                ok = false;
                continue;
            };
            let worse = worse_by(m.better, va, vb);
            // NaN (a zero or missing base) must not pass.
            let holds = worse <= m.bound;
            ok &= holds;
            let _ = writeln!(
                out,
                "{:<14} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>+7.2}% {:>6.1}%  {}",
                w.name,
                m.name,
                va,
                vb,
                vb / va,
                100.0 * worse,
                100.0 * m.bound,
                if holds { "ok" } else { "FAIL" }
            );
        }
        let (fa, fb) = (failed_of(ra), failed_of(rb));
        let holds = fa == 0.0 && fb == 0.0;
        ok &= holds;
        let _ = writeln!(
            out,
            "{:<14} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  {}",
            w.name,
            "failed ops",
            fa,
            fb,
            "-",
            "-",
            "0",
            if holds { "ok" } else { "FAIL" }
        );
    }
    let _ = write!(
        out,
        "{}",
        if ok {
            "compare: every end-to-end metric of b is within its bound of a"
        } else {
            "compare: FAIL - at least one metric of b is worse than a by more than its bound"
        }
    );
    (out, ok)
}

/// One line per workload × end-to-end metric of a single result file.
pub fn summary(result: &Json) -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        let Some(run) = run_of(result, w.name) else {
            continue;
        };
        for m in &END_TO_END {
            let _ = writeln!(
                out,
                "{:<14} {:<18} {:>16.6} {}",
                w.name,
                m.name,
                metric(run, m.name).unwrap_or(f64::NAN),
                m.unit
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:<18} {:>16}",
            w.name,
            "failed ops",
            failed_of(run)
        );
    }
    out
}

/// Is each workload dominated by the layer it was built for? The issue's
/// acceptance ratios, from the traced runs of one result file. Printed, not
/// enforced: they are timing ratios.
pub fn dominance(result: &Json) -> String {
    let layer = |w: &str, name: &str| traced_of(result, w).and_then(|r| metric(r, name));
    let e2e = |w: &str, name: &str| run_of(result, w).and_then(|r| metric(r, name));
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d != 0.0 => n / d,
        _ => f64::NAN,
    };
    let sum = |w: &str, names: &[&str]| names.iter().map(|n| layer(w, n)).sum::<Option<f64>>();
    let rows = [
        (
            "sp_inmem: (tensor gram+ttm+norm + linalg eig) / compress_s, want >= 0.70",
            ratio(
                sum(
                    "sp_inmem",
                    &[
                        "tensor.gram_s",
                        "tensor.ttm_s",
                        "tensor.norm_s",
                        "linalg.eig_s",
                    ],
                ),
                e2e("sp_inmem", "compress_s"),
            ),
        ),
        (
            "sp_inmem: store.write_s / compress_s, want <= 0.05",
            ratio(
                layer("sp_inmem", "store.write_s"),
                e2e("sp_inmem", "compress_s"),
            ),
        ),
        (
            "hcci_dist_tcp: net.comm_frac, want >= 0.15",
            layer("hcci_dist_tcp", "net.comm_frac").unwrap_or(f64::NAN),
        ),
        (
            "serve_small: serve.overhead_element_ms / serve.element_p50_ms, want >= 0.50",
            ratio(
                layer("serve_small", "serve.overhead_element_ms"),
                layer("serve_small", "serve.element_p50_ms"),
            ),
        ),
        (
            "serve_large: store.query_element_ms / serve.element_p50_ms, want >= 0.80",
            ratio(
                layer("serve_large", "store.query_element_ms"),
                layer("serve_large", "serve.element_p50_ms"),
            ),
        ),
        (
            "serve_large: store.cache_hit_ratio, want < 0.70",
            layer("serve_large", "store.cache_hit_ratio").unwrap_or(f64::NAN),
        ),
    ];
    let mut out = String::from("dominance (traced runs; base of each ratio is its denominator):\n");
    for (what, value) in rows {
        let _ = writeln!(out, "  {value:>8.3}  {what}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(scale: impl Fn(&str, &str) -> f64) -> Json {
        let mut workloads = Json::obj();
        for w in &WORKLOADS {
            let mut metrics = Json::obj();
            for m in &END_TO_END {
                metrics.set(
                    m.name,
                    Json::obj()
                        .with("value", 10.0 * scale(w.name, m.name))
                        .with("unit", m.unit),
                );
            }
            let run = Json::obj().with("failed", 0usize).with("metrics", metrics);
            workloads.set(w.name, Json::obj().with("end_to_end", run));
        }
        Json::obj().with("workloads", workloads)
    }

    #[test]
    fn identical_results_pass_and_every_pairing_has_a_row() {
        let a = result(|_, _| 1.0);
        let (table, ok) = compare(&a, &a);
        assert!(ok, "{table}");
        let rows = table.lines().filter(|l| l.ends_with("ok")).count();
        assert_eq!(rows, WORKLOADS.len() * (END_TO_END.len() + 1));
        assert_eq!(summary(&a).lines().count(), rows);
    }

    #[test]
    fn direction_and_bound_are_respected() {
        let a = result(|_, _| 1.0);
        // compress_s (lower is better, 20%): +19% holds, +21% fails.
        let within = result(|w, m| {
            if (w, m) == ("sp_inmem", "compress_s") {
                1.19
            } else {
                1.0
            }
        });
        assert!(compare(&a, &within).1);
        let beyond = result(|w, m| {
            if (w, m) == ("sp_inmem", "compress_s") {
                1.21
            } else {
                1.0
            }
        });
        let (table, ok) = compare(&a, &beyond);
        assert!(!ok);
        let failing: Vec<&str> = table.lines().filter(|l| l.ends_with("FAIL")).collect();
        assert_eq!(failing.len(), 1);
        assert!(failing[0].starts_with("sp_inmem") && failing[0].contains("compress_s"));
        // query_qps (higher is better, 25%): a faster b passes, a 27% slower b fails.
        let faster = result(|_, m| if m == "query_qps" { 1.5 } else { 1.0 });
        assert!(compare(&a, &faster).1);
        let slower = result(|_, m| if m == "query_qps" { 0.73 } else { 1.0 });
        assert!(!compare(&a, &slower).1);
        // An improvement in a lower-is-better metric passes at any size.
        let better = result(|_, m| if m == "compress_s" { 0.5 } else { 1.0 });
        assert!(compare(&a, &better).1);
    }

    #[test]
    fn failures_and_holes_fail_the_gate() {
        let a = result(|_, _| 1.0);
        let Json::Obj(mut top) = a.clone() else {
            panic!()
        };
        let Json::Obj(workloads) = &mut top[0].1 else {
            panic!()
        };
        workloads.pop();
        assert!(!compare(&a, &Json::Obj(top)).1);
        let zero_base = result(|_, m| if m == "rel_error" { 0.0 } else { 1.0 });
        assert!(!compare(&zero_base, &a).1);
    }
}
