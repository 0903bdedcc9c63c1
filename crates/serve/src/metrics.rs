//! Per-opcode service instruments in the process-wide `tucker-obs` registry.
//!
//! The daemon's historical [`crate::proto::ServeStats`] counters answer the
//! `stats` opcode exactly as before; this module adds the registry view the
//! `metrics` opcode scrapes: one latency [`Histogram`] per request opcode
//! (observed around decode + execute + reply for every successfully decoded
//! request, busy rejections included), mirror [`Counter`]s for the service
//! totals, and an in-flight [`Gauge`]. Everything here is a thin mapping
//! from [`Request`] values onto static instruments; like the protocol
//! module it sits under the CI panic-grep gate and cannot panic.

use crate::proto::Request;
use tucker_obs::metrics::{Counter, Gauge, Histogram};

/// Requests answered successfully (mirror of `ServeStats::served`).
pub static REQUESTS: Counter = Counter::new("serve.requests");
/// Requests rejected at the admission cap (mirror of
/// `ServeStats::busy_rejections`).
pub static BUSY_REJECTIONS: Counter = Counter::new("serve.busy_rejections");
/// Connections refused at the session cap by the accept thread, before any
/// session thread existed (mirror of `ServeStats::shed_sessions`).
pub static SHED_SESSIONS: Counter = Counter::new("serve.shed_sessions");
/// Malformed frames answered with a protocol error (mirror of
/// `ServeStats::protocol_errors`).
pub static PROTO_ERRORS: Counter = Counter::new("serve.proto_errors");
/// Requests currently admitted — queued or executing (mirror of the
/// admission counter behind `ServeStats::in_flight`).
pub static IN_FLIGHT: Gauge = Gauge::new("serve.in_flight");

static OPEN_US: Histogram = Histogram::new("serve.op.open.us");
static LIST_US: Histogram = Histogram::new("serve.op.list.us");
static RANGE_US: Histogram = Histogram::new("serve.op.range.us");
static SLICE_US: Histogram = Histogram::new("serve.op.slice.us");
static ELEMENT_US: Histogram = Histogram::new("serve.op.element.us");
static ELEMENTS_US: Histogram = Histogram::new("serve.op.elements.us");
static STATS_US: Histogram = Histogram::new("serve.op.stats.us");
static METRICS_US: Histogram = Histogram::new("serve.op.metrics.us");

/// The latency histogram a request's opcode reports into
/// (`serve.op.<name>.us`).
pub fn op_histogram(request: &Request) -> &'static Histogram {
    match request {
        Request::Open { .. } => &OPEN_US,
        Request::List => &LIST_US,
        Request::ReconstructRange { .. } => &RANGE_US,
        Request::ReconstructSlice { .. } => &SLICE_US,
        Request::Element { .. } => &ELEMENT_US,
        Request::Elements { .. } => &ELEMENTS_US,
        Request::Stats => &STATS_US,
        Request::Metrics => &METRICS_US,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_has_a_name_and_histogram() {
        let requests = [
            Request::Open { name: "a".into() },
            Request::List,
            Request::ReconstructRange {
                name: "a".into(),
                ranges: vec![(0, 1)],
            },
            Request::ReconstructSlice {
                name: "a".into(),
                mode: 0,
                index: 0,
            },
            Request::Element {
                name: "a".into(),
                idx: vec![0],
            },
            Request::Elements {
                name: "a".into(),
                ndims: 1,
                points: vec![0],
            },
            Request::Stats,
            Request::Metrics,
        ];
        for (i, r) in requests.iter().enumerate() {
            for other in &requests[..i] {
                assert!(
                    !std::ptr::eq(op_histogram(r), op_histogram(other)),
                    "every opcode must have its own histogram"
                );
            }
            let h = op_histogram(r);
            let before = h.snapshot().count;
            h.observe_us(1);
            assert_eq!(h.snapshot().count, before + 1);
        }
    }
}
