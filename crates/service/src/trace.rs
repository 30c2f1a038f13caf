//! Per-request tracing glue: the wall clock lives here, not in `obs`.
//!
//! The `obs` crate is clock-free by design (the clock ban in
//! `crates/clippy.toml` holds there unwaived); this module turns the
//! request path's `Instant` readings into span ticks (`server.rs`
//! stamps each request's start). Each request gets a [`RequestTrace`]:
//! a wall-domain recorder (microseconds since the first byte of the
//! request line arrived) and a sim-domain recorder that the partial
//! simulation fills with simulated-cycle spans.

use std::time::Instant;

use obs::{Span, SpanRecorder};

/// Both recorders for one in-flight request, plus the wall epoch they
/// are measured against.
pub(crate) struct RequestTrace {
    epoch: Instant,
    /// Wall-domain spans (µs since `epoch`).
    pub(crate) wall: SpanRecorder,
    /// Sim-domain spans (simulated cycles), filled by the partial
    /// simulation via `measure_layout_traced`.
    pub(crate) sim: SpanRecorder,
}

impl RequestTrace {
    /// A tracer whose wall axis starts at `epoch` (when the request's
    /// first byte arrived), holding at most `span_capacity` spans per
    /// domain.
    pub(crate) fn new(span_capacity: usize, epoch: Instant) -> RequestTrace {
        RequestTrace {
            epoch,
            wall: SpanRecorder::new(span_capacity),
            sim: SpanRecorder::new(span_capacity),
        }
    }

    /// A zero-capacity tracer for untraced calls: records nothing, so
    /// the traced and untraced code paths stay identical.
    #[expect(
        clippy::disallowed_methods,
        reason = "the epoch of a tracer that records nothing; no reading is ever taken from it"
    )]
    pub(crate) fn disabled() -> RequestTrace {
        RequestTrace::new(0, Instant::now())
    }

    /// Microseconds of monotonic wall time since the request epoch.
    pub(crate) fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Records a wall-domain span from `start_us` (a previous
    /// [`RequestTrace::now_us`] reading) to now.
    pub(crate) fn record(&mut self, stage: &str, start_us: u64) {
        let end = self.now_us();
        self.wall.record(stage, start_us, end.max(start_us));
    }

    /// Consumes the tracer: `((wall spans, wall drops), (sim spans, sim
    /// drops))`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(self) -> ((Vec<Span>, u64), (Vec<Span>, u64)) {
        (self.wall.into_parts(), self.sim.into_parts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-domain spans are measured against a real clock"
    )]
    fn wall_spans_are_monotonic_and_bounded() {
        let mut t = RequestTrace::new(2, Instant::now());
        let start = t.now_us();
        t.record("read", start);
        t.record("parse", t.now_us().saturating_sub(1));
        t.record("render", 0);
        let ((spans, dropped), _) = t.into_parts();
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 1);
        for span in &spans {
            assert!(span.end >= span.start, "{span:?}");
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = RequestTrace::disabled();
        t.record("read", 0);
        let ((wall, wall_dropped), (sim, sim_dropped)) = t.into_parts();
        assert!(wall.is_empty() && sim.is_empty());
        assert_eq!((wall_dropped, sim_dropped), (1, 0));
    }
}
