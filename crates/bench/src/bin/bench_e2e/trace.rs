//! The bench-side span recorder.
//!
//! Spans are recorded from this binary's own files, around each call into a
//! layer — not inside the library (`TUCKER_TRACE` stays off; in-program spans
//! are ROADMAP item F). They live in memory and are written as one
//! chrome-trace per workload when the run ends. The span name's prefix up to
//! the first `.` is its layer; a layer's **self time** is its spans'
//! durations minus what their child spans cover.
//!
//! [`Tracer::enter`]/[`Tracer::exit`] double as the harness's stopwatch:
//! `exit` returns the elapsed seconds whether or not recording is on, so the
//! traced and untraced runs execute the same code around every timed call.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub tid: u32,
}

/// Handle of an open span.
#[must_use]
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording (the traced run times every other rep with it off
    /// to measure its own overhead). Spans already open stay open and close
    /// normally; a span entered while off is simply not kept.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let id = self.recording.then(|| {
            self.spans.push(Span {
                name,
                start_us: (start - self.epoch).as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent: self.stack.last().copied(),
                tid: 0,
            });
            let id = self.spans.len() - 1;
            self.stack.push(id);
            id
        });
        Open { id, start }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(id) = open.id {
            debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost-first");
            self.stack.pop();
            self.spans[id].end_us = self.spans[id].start_us + elapsed.as_secs_f64() * 1e6;
        }
        elapsed.as_secs_f64()
    }

    /// Times `f` under a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.enter(name);
        let r = f();
        (r, self.exit(open))
    }

    /// Adds a span measured on another thread (client op loops), as a child
    /// of the innermost open span.
    pub fn add_foreign(&mut self, name: &'static str, tid: u32, start: Instant, secs: f64) {
        if self.recording {
            let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                start_us,
                end_us: start_us + secs * 1e6,
                parent: self.stack.last().copied(),
                tid,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds per layer, sorted by layer name. Children on other
    /// threads run concurrently with each other, so their cover is clipped
    /// to the parent's duration.
    pub fn layer_self_seconds(&self) -> Vec<(String, f64)> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_layer = std::collections::BTreeMap::<String, f64>::new();
        for (s, &covered) in self.spans.iter().zip(&child_us) {
            let dur = s.end_us - s.start_us;
            if dur.is_finite() {
                *by_layer.entry(layer_of(s.name).to_string()).or_default() +=
                    (dur - covered.min(dur)) * 1e-6;
            }
        }
        by_layer.into_iter().collect()
    }

    /// The chrome-trace (`chrome://tracing`, Perfetto) event array.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.end_us.is_finite())
                .map(|(id, s)| {
                    let mut args = Json::obj().with("id", id).with("workload", workload);
                    if let Some(p) = s.parent {
                        args.set("parent", p);
                    }
                    Json::obj()
                        .with("name", s.name)
                        .with("cat", layer_of(s.name))
                        .with("ph", "X")
                        .with("ts", s.start_us)
                        .with("dur", s.end_us - s.start_us)
                        .with("pid", 1usize)
                        .with("tid", s.tid as usize)
                        .with("args", args)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &'static str, start: f64, end: f64, parent: Option<usize>, tid: u32) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            tid,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            fake("api.write_to", 0.0, 100.0, None, 0),
            fake("core.st_hosvd", 10.0, 70.0, Some(0), 0),
            fake("tensor.gram", 20.0, 50.0, Some(1), 0),
            fake("store.write", 70.0, 95.0, Some(0), 0),
        ];
        let layers: std::collections::BTreeMap<_, _> = t.layer_self_seconds().into_iter().collect();
        let us = |l: &str| (layers[l] * 1e6).round();
        assert_eq!(us("api"), 15.0);
        assert_eq!(us("core"), 30.0);
        assert_eq!(us("tensor"), 30.0);
        assert_eq!(us("store"), 25.0);
        let total: f64 = layers.values().sum();
        assert!(
            (total * 1e6 - 100.0).abs() < 1e-6,
            "self times sum to the root"
        );
    }

    #[test]
    fn concurrent_children_cannot_make_self_time_negative() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            fake("serve.query_phase", 0.0, 100.0, None, 0),
            fake("serve.op", 0.0, 90.0, Some(0), 1),
            fake("serve.op", 5.0, 95.0, Some(0), 2),
        ];
        let layers = t.layer_self_seconds();
        assert_eq!(layers.len(), 1);
        assert!((layers[0].1 * 1e6 - 180.0).abs() < 1e-6);
    }

    #[test]
    fn off_still_times_and_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("x.y");
        let (v, secs) = t.time("x.z", || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0 && t.exit(open) >= secs);
        assert!(t.spans().is_empty());

        t.set_recording(true);
        let outer = t.enter("a.outer");
        let inner = t.enter("b.inner");
        t.exit(inner);
        t.add_foreign("c.op", 3, Instant::now(), 0.001);
        t.exit(outer);
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.tid))
            .collect();
        assert_eq!(
            names,
            vec![
                ("a.outer", None, 0),
                ("b.inner", Some(0), 0),
                ("c.op", Some(0), 3)
            ]
        );
        let trace = t.chrome_trace("w");
        let Json::Arr(events) = &trace else { panic!() };
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("cat").and_then(Json::as_str), Some("b"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(layer_of("machine.triad"), "machine");
    }
}
