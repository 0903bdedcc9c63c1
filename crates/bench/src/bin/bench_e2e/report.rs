//! What one run hands back: named values with their sample statistics,
//! correctness checks, and the two encodings — the driver's one-line result
//! and the richer side file that `all` merges into `result.json`.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats;

#[derive(Debug, Clone, Copy)]
pub struct Entry {
    pub value: f64,
    /// Samples behind the value (1 for a single reading or an exact count).
    pub samples: usize,
    pub q1: f64,
    pub q3: f64,
}

/// Metric values by name. Only names from the spec tables are accepted, so a
/// typo fails the first smoke run instead of silently dropping a metric.
#[derive(Debug, Default)]
pub struct Values {
    map: BTreeMap<&'static str, Entry>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
}

impl Values {
    /// A single reading.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the spec tables"
        );
        self.map.insert(
            name,
            Entry {
                value,
                samples: 1,
                q1: value,
                q3: value,
            },
        );
    }

    /// The median of a sample, with its quartiles and count.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the spec tables"
        );
        let (q1, med, q3) = stats::quartiles(samples);
        self.map.insert(
            name,
            Entry {
                value: med,
                samples: samples.len(),
                q1,
                q3,
            },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.map.get(name).map_or(0.0, |e| e.value)
    }

    fn entry(&self, name: &str) -> Entry {
        self.map.get(name).copied().unwrap_or(Entry {
            value: 0.0,
            samples: 0,
            q1: 0.0,
            q3: 0.0,
        })
    }
}

#[derive(Debug, Default)]
pub struct Checks {
    list: Vec<(String, bool, String)>,
}

impl Checks {
    pub fn record(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            eprintln!("bench_e2e: CHECK FAILED {name}: {detail}");
        }
        self.list.push((name.to_string(), ok, detail));
    }

    pub fn all_ok(&self) -> bool {
        self.list.iter().all(|(_, ok, _)| *ok)
    }

    pub fn count(&self) -> (u64, u64) {
        let failed = self.list.iter().filter(|(_, ok, _)| !ok).count();
        (self.list.len() as u64, failed as u64)
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.list
                .iter()
                .map(|(name, ok, detail)| {
                    Json::obj()
                        .with("check", name.as_str())
                        .with("ok", *ok)
                        .with("detail", detail.as_str())
                })
                .collect(),
        )
    }
}

/// The finished run.
pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    pub values: Values,
    pub checks: Checks,
    /// Timed operations attempted / failed (reps and queries; checks are
    /// added on top by [`Report::counts`]).
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub details: Json,
}

impl Report {
    fn table(&self) -> Vec<(&'static str, &'static str)> {
        if self.trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    pub fn counts(&self) -> (u64, u64) {
        let (checks, bad) = self.checks.count();
        ((self.ops_attempted + checks).max(1), self.ops_failed + bad)
    }

    pub fn correct(&self) -> bool {
        self.checks.all_ok() && self.ops_failed == 0
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, with every metric of the run's table.
    pub fn driver_line(&self) -> String {
        let (attempted, failed) = self.counts();
        let mut metrics = Json::obj();
        for (name, unit) in self.table() {
            metrics.set(
                name,
                Json::obj()
                    .with("value", self.values.get(name))
                    .with("unit", unit),
            );
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", attempted)
            .with("failed", failed)
            .with("metrics", metrics)
            .to_line()
    }

    /// Every metric by name with its unit, for a human.
    pub fn print_human(&self) {
        let (attempted, failed) = self.counts();
        println!(
            "== {} ({}) ==",
            self.workload,
            if self.trace {
                "traced run: per-layer metrics"
            } else {
                "tracing off: end-to-end metrics"
            }
        );
        for (name, unit) in self.table() {
            let e = self.values.entry(name);
            if e.samples > 1 {
                println!(
                    "{name:<30} {:>16.6} {unit:<8} (median of {}, quartiles {:.6} .. {:.6})",
                    e.value, e.samples, e.q1, e.q3
                );
            } else {
                println!("{name:<30} {:>16.6} {unit}", e.value);
            }
            if let Some(layer) = PER_LAYER.iter().find(|m| m.name == name) {
                println!("{:<30} -> {}", "", layer.moves);
            }
        }
        println!(
            "{:<30} {:>16.6} ratio    ({failed} failed of {attempted} attempted)",
            "failed_frac",
            failed as f64 / attempted as f64
        );
    }

    /// The side file: the driver line's content plus sample counts,
    /// quartiles, checks and run details.
    pub fn side_json(&self) -> Json {
        let (attempted, failed) = self.counts();
        let mut metrics = Json::obj();
        for (name, unit) in self.table() {
            let e = self.values.entry(name);
            metrics.set(
                name,
                Json::obj()
                    .with("value", e.value)
                    .with("unit", unit)
                    .with("samples", e.samples)
                    .with("q1", e.q1)
                    .with("q3", e.q3),
            );
        }
        Json::obj()
            .with("workload", self.workload)
            .with("trace", self.trace)
            .with("correct", self.correct())
            .with("attempted", attempted)
            .with("failed", failed)
            .with("failed_frac", failed as f64 / attempted as f64)
            .with("metrics", metrics)
            .with("checks", self.checks.to_json())
            .with("details", self.details.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_lists_exactly_the_table() {
        let mut values = Values::default();
        values.set_median("compress_s", &[0.8, 0.9, 0.7]);
        let mut checks = Checks::default();
        checks.record("bytes", true, String::new());
        let report = Report {
            workload: "sp_inmem",
            trace: false,
            values,
            checks,
            ops_attempted: 9,
            ops_failed: 0,
            details: Json::obj(),
        };
        let line = Json::parse(&report.driver_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(10.0));
        let metrics = line.get("metrics").unwrap();
        let names: Vec<&str> = metrics.fields().iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let c = metrics.get("compress_s").unwrap();
        assert_eq!(c.get("value").and_then(Json::as_f64), Some(0.8));
        assert_eq!(c.get("unit").and_then(Json::as_str), Some("s"));
        let side = report.side_json();
        let c = side.get("metrics").unwrap().get("compress_s").unwrap();
        assert_eq!(c.get("samples").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut checks = Checks::default();
        checks.record("rel_error", false, "too large".into());
        let report = Report {
            workload: "sp_inmem",
            trace: true,
            values: Values::default(),
            checks,
            ops_attempted: 0,
            ops_failed: 0,
            details: Json::obj(),
        };
        assert!(!report.correct());
        assert_eq!(report.counts(), (1, 1));
        let line = Json::parse(&report.driver_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("metrics").unwrap().fields().len(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not in the spec tables")]
    fn unknown_metric_names_are_refused() {
        Values::default().set("compres_s", 1.0);
    }
}
