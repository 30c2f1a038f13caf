//! Allocation-bounded tracing for the Mosaic stack.
//!
//! This crate is deliberately tiny and `std`-only: it knows nothing about
//! clocks, sockets, or the simulator. Callers stamp spans with whatever tick
//! source their clock domain prescribes and this crate only stores, bounds,
//! aggregates, and (de)serializes them.
//!
//! # Clock domains
//!
//! Every trace lives in exactly one [`ClockDomain`]:
//!
//! * [`ClockDomain::Sim`] — ticks are *simulated cycles* taken from the
//!   machine engine's retirement clock. Simulated cycles are a pure function
//!   of the workload trace and platform parameters, so two identical runs
//!   yield byte-identical rendered traces. Nothing in this crate reads
//!   `Instant` or `SystemTime`; sim-domain determinism is preserved by
//!   construction.
//! * [`ClockDomain::Wall`] — ticks are microseconds of monotonic wall time,
//!   measured by the caller (the service layer). Wall traces are for latency
//!   attribution and are *not* expected to be reproducible.
//!
//! # Bounded memory
//!
//! All containers here have a fixed capacity chosen at construction:
//! [`SpanRecorder`] holds at most `capacity` spans per request and counts
//! overflow in a drop counter; [`TraceRing`] keeps the last `capacity`
//! finished traces and evicts the oldest (again counting drops) rather than
//! growing. [`StageSums`] aggregates over a fixed, static stage list into
//! atomics. A hostile or pathological traffic pattern can therefore never
//! grow tracer memory without bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation
    )
)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The tick source a trace's span timestamps were taken from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockDomain {
    /// Simulated cycles from the machine engine's deterministic clock.
    Sim,
    /// Microseconds of monotonic wall time measured by the caller.
    Wall,
}

impl ClockDomain {
    /// Canonical wire name of the domain.
    pub fn name(self) -> &'static str {
        match self {
            ClockDomain::Sim => "sim",
            ClockDomain::Wall => "wall",
        }
    }

    /// Inverse of [`ClockDomain::name`].
    pub fn by_name(name: &str) -> Option<ClockDomain> {
        match name {
            "sim" => Some(ClockDomain::Sim),
            "wall" => Some(ClockDomain::Wall),
            _ => None,
        }
    }
}

/// One named interval on a trace's tick axis.
///
/// `start` and `end` are ticks in the owning trace's [`ClockDomain`]; a
/// zero-width span (`start == end`) marks an instant event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Stage name; must not contain whitespace or `,` (the wire delimiters).
    pub stage: String,
    /// Tick at which the stage began.
    pub start: u64,
    /// Tick at which the stage ended.
    pub end: u64,
}

impl Span {
    /// Width of the span in ticks (saturating, so malformed `end < start`
    /// input reads as zero rather than wrapping).
    pub fn ticks(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A finished, labelled collection of spans from one unit of work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Monotonic sequence number assigned by the [`TraceRing`] at push time.
    pub seq: u64,
    /// What produced this trace (e.g. the request verb).
    pub label: String,
    /// Tick source for every span in `spans`.
    pub domain: ClockDomain,
    /// Spans that could not be recorded because the per-request
    /// [`SpanRecorder`] was full.
    pub dropped_spans: u64,
    /// The recorded spans, in recording order.
    pub spans: Vec<Span>,
}

/// Fixed-capacity span sink for a single unit of work.
///
/// Once `capacity` spans have been recorded, further [`record`] calls bump
/// the drop counter instead of allocating. A zero-capacity recorder is a
/// valid "tracing disabled" sink: it never allocates span storage.
///
/// [`record`]: SpanRecorder::record
#[derive(Debug)]
pub struct SpanRecorder {
    capacity: usize,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanRecorder {
    /// Creates a recorder that holds at most `capacity` spans.
    pub fn new(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            capacity,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records one span, or counts it as dropped when the recorder is full.
    pub fn record(&mut self, stage: &str, start: u64, end: u64) {
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                stage: stage.to_string(),
                start,
                end,
            });
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// Spans recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of spans rejected because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Maximum number of spans this recorder will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Consumes the recorder, returning its spans and drop count.
    pub fn into_parts(self) -> (Vec<Span>, u64) {
        (self.spans, self.dropped)
    }
}

struct RingInner {
    traces: VecDeque<Trace>,
    dropped: u64,
    seq: u64,
}

/// Thread-safe ring of the most recent finished traces.
///
/// Holds at most `capacity` traces; pushing into a full ring evicts the
/// oldest trace and increments the drop counter, so memory use is constant
/// regardless of traffic volume. A zero-capacity ring stores nothing and
/// counts every push as a drop.
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<RingInner>,
}

impl TraceRing {
    /// Creates a ring that retains the last `capacity` traces.
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity,
            inner: Mutex::new(RingInner {
                traces: VecDeque::with_capacity(capacity),
                dropped: 0,
                seq: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingInner> {
        // A poisoned ring only means a panicking thread died mid-push; the
        // counters remain structurally valid, so keep serving.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes a finished trace, assigning and returning its sequence number.
    pub fn push(
        &self,
        label: &str,
        domain: ClockDomain,
        spans: Vec<Span>,
        dropped_spans: u64,
    ) -> u64 {
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq = inner.seq.saturating_add(1);
        let trace = Trace {
            seq,
            label: label.to_string(),
            domain,
            dropped_spans,
            spans,
        };
        if self.capacity == 0 {
            inner.dropped = inner.dropped.saturating_add(1);
            return seq;
        }
        if inner.traces.len() >= self.capacity {
            inner.traces.pop_front();
            inner.dropped = inner.dropped.saturating_add(1);
        }
        inner.traces.push_back(trace);
        seq
    }

    /// Returns (a clone of) the most recent `n` traces, oldest first.
    pub fn last(&self, n: usize) -> Vec<Trace> {
        let inner = self.lock();
        let skip = inner.traces.len().saturating_sub(n);
        inner.traces.iter().skip(skip).cloned().collect()
    }

    /// Number of traces currently buffered.
    pub fn len(&self) -> usize {
        self.lock().traces.len()
    }

    /// True when no trace is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of traces evicted or rejected since construction.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Maximum number of traces the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Aggregate tick totals for one stage, as reported by [`StageSums::snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSum {
    /// Stage name from the static stage list.
    pub stage: &'static str,
    /// Total ticks recorded across all spans of this stage.
    pub total_ticks: u64,
    /// Number of spans recorded for this stage.
    pub spans: u64,
}

/// Lock-free per-stage tick accumulator over a fixed, static stage list.
///
/// Stages are matched by name with a linear scan (the lists are a handful of
/// entries); spans whose stage is not in the list are ignored, so the
/// accumulator can never grow.
pub struct StageSums {
    stages: &'static [&'static str],
    ticks: Vec<AtomicU64>,
    spans: Vec<AtomicU64>,
}

impl StageSums {
    /// Creates an accumulator for the given static stage list.
    pub fn new(stages: &'static [&'static str]) -> StageSums {
        StageSums {
            stages,
            ticks: stages.iter().map(|_| AtomicU64::new(0)).collect(),
            spans: stages.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds `ticks` to the named stage's total; unknown stages are ignored.
    pub fn record(&self, stage: &str, ticks: u64) {
        if let Some(pos) = self.stages.iter().position(|s| *s == stage) {
            if let Some(cell) = self.ticks.get(pos) {
                cell.fetch_add(ticks, Ordering::Relaxed);
            }
            if let Some(cell) = self.spans.get(pos) {
                cell.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Folds every span of a finished trace into the totals.
    pub fn add_spans(&self, spans: &[Span]) {
        for span in spans {
            self.record(&span.stage, span.ticks());
        }
    }

    /// The static stage list this accumulator was built over.
    pub fn stages(&self) -> &'static [&'static str] {
        self.stages
    }

    /// Reads the current totals, in stage-list order.
    pub fn snapshot(&self) -> Vec<StageSum> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, stage)| StageSum {
                stage,
                total_ticks: self
                    .ticks
                    .get(i)
                    .map(|c| c.load(Ordering::Relaxed))
                    .unwrap_or(0),
                spans: self
                    .spans
                    .get(i)
                    .map(|c| c.load(Ordering::Relaxed))
                    .unwrap_or(0),
            })
            .collect()
    }
}

/// Renders a trace as one wire line.
///
/// Format:
/// `trace seq=<n> domain=<sim|wall> label=<label> dropped_spans=<n>
/// spans=<stage>:<start>..<end>,...` with `spans=-` when the trace holds no
/// spans. [`parse_trace`] is the exact inverse on everything this function
/// produces.
pub fn render_trace(trace: &Trace) -> String {
    let spans = if trace.spans.is_empty() {
        "-".to_string()
    } else {
        let parts: Vec<String> = trace
            .spans
            .iter()
            .map(|s| format!("{}:{}..{}", s.stage, s.start, s.end))
            .collect();
        parts.join(",")
    };
    format!(
        "trace seq={} domain={} label={} dropped_spans={} spans={}",
        trace.seq,
        trace.domain.name(),
        trace.label,
        trace.dropped_spans,
        spans
    )
}

/// Parses one wire line produced by [`render_trace`].
///
/// Never panics; any malformed input yields `Err`. For every `Ok(t)` result,
/// `parse_trace(&render_trace(&t)) == Ok(t)` (render∘parse is a fixed point).
pub fn parse_trace(line: &str) -> Result<Trace, String> {
    let mut words = line.split_ascii_whitespace();
    if words.next() != Some("trace") {
        return Err("trace line must start with 'trace'".to_string());
    }
    let mut field = |key: &str| -> Result<String, String> {
        let word = words.next().ok_or_else(|| format!("missing field {key}"))?;
        let value = word
            .strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
            .ok_or_else(|| format!("expected field {key}, got '{word}'"))?;
        Ok(value.to_string())
    };
    let num = |key: &str, value: &str| -> Result<u64, String> {
        value
            .parse::<u64>()
            .map_err(|_| format!("field {key} is not a u64: '{value}'"))
    };
    let seq_raw = field("seq")?;
    let seq = num("seq", &seq_raw)?;
    let domain_raw = field("domain")?;
    let domain = ClockDomain::by_name(&domain_raw)
        .ok_or_else(|| format!("unknown clock domain '{domain_raw}'"))?;
    let label = field("label")?;
    if label.is_empty() {
        return Err("trace label must be non-empty".to_string());
    }
    let dropped_raw = field("dropped_spans")?;
    let dropped_spans = num("dropped_spans", &dropped_raw)?;
    let spans_raw = field("spans")?;
    if words.next().is_some() {
        return Err("unexpected trailing tokens on trace line".to_string());
    }
    let mut spans = Vec::new();
    if spans_raw != "-" {
        for token in spans_raw.split(',') {
            let (stage, range) = token
                .rsplit_once(':')
                .ok_or_else(|| format!("span token '{token}' has no ':' separator"))?;
            if stage.is_empty() {
                return Err(format!("span token '{token}' has an empty stage name"));
            }
            let (start_raw, end_raw) = range
                .split_once("..")
                .ok_or_else(|| format!("span range '{range}' has no '..'"))?;
            let start = num("span start", start_raw)?;
            let end = num("span end", end_raw)?;
            spans.push(Span {
                stage: stage.to_string(),
                start,
                end,
            });
        }
    }
    Ok(Trace {
        seq,
        label,
        domain,
        dropped_spans,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            seq: 7,
            label: "predict".to_string(),
            domain: ClockDomain::Sim,
            dropped_spans: 2,
            spans: vec![
                Span {
                    stage: "replay".to_string(),
                    start: 0,
                    end: 2_409_763,
                },
                Span {
                    stage: "page_walk".to_string(),
                    start: 0,
                    end: 859_054,
                },
            ],
        }
    }

    #[test]
    fn clock_domain_names_roundtrip() {
        for domain in [ClockDomain::Sim, ClockDomain::Wall] {
            assert_eq!(ClockDomain::by_name(domain.name()), Some(domain));
        }
        assert_eq!(ClockDomain::by_name("cpu"), None);
    }

    #[test]
    fn recorder_caps_spans_and_counts_drops() {
        let mut rec = SpanRecorder::new(2);
        rec.record("a", 0, 1);
        rec.record("b", 1, 2);
        rec.record("c", 2, 3);
        rec.record("d", 3, 4);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 2);
        let (spans, dropped) = rec.into_parts();
        assert_eq!(spans.len(), 2);
        assert_eq!(dropped, 2);
        assert_eq!(spans[0].stage, "a");
    }

    #[test]
    fn zero_capacity_recorder_only_counts() {
        let mut rec = SpanRecorder::new(0);
        rec.record("a", 0, 1);
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = TraceRing::new(2);
        for i in 0..5u64 {
            let seq = ring.push("predict", ClockDomain::Wall, Vec::new(), 0);
            assert_eq!(seq, i);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let last = ring.last(10);
        let seqs: Vec<u64> = last.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        let last_one = ring.last(1);
        assert_eq!(last_one.len(), 1);
        assert_eq!(last_one[0].seq, 4);
    }

    #[test]
    fn zero_capacity_ring_stores_nothing() {
        let ring = TraceRing::new(0);
        ring.push("predict", ClockDomain::Wall, Vec::new(), 0);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn stage_sums_accumulate_known_stages_only() {
        static STAGES: [&str; 2] = ["replay", "page_walk"];
        let sums = StageSums::new(&STAGES);
        sums.record("replay", 10);
        sums.record("replay", 5);
        sums.record("page_walk", 3);
        sums.record("unknown", 99);
        let snap = sums.snapshot();
        assert_eq!(
            snap,
            vec![
                StageSum {
                    stage: "replay",
                    total_ticks: 15,
                    spans: 2
                },
                StageSum {
                    stage: "page_walk",
                    total_ticks: 3,
                    spans: 1
                },
            ]
        );
    }

    #[test]
    fn stage_sums_fold_spans() {
        static STAGES: [&str; 2] = ["replay", "page_walk"];
        let sums = StageSums::new(&STAGES);
        sums.add_spans(&sample_trace().spans);
        let snap = sums.snapshot();
        assert_eq!(snap[0].total_ticks, 2_409_763);
        assert_eq!(snap[1].total_ticks, 859_054);
    }

    #[test]
    fn trace_wire_roundtrip() {
        let trace = sample_trace();
        let line = render_trace(&trace);
        assert_eq!(
            line,
            "trace seq=7 domain=sim label=predict dropped_spans=2 \
             spans=replay:0..2409763,page_walk:0..859054"
        );
        assert_eq!(parse_trace(&line), Ok(trace));
    }

    #[test]
    fn empty_span_list_renders_as_dash() {
        let trace = Trace {
            seq: 0,
            label: "stats".to_string(),
            domain: ClockDomain::Wall,
            dropped_spans: 0,
            spans: Vec::new(),
        };
        let line = render_trace(&trace);
        assert_eq!(
            line,
            "trace seq=0 domain=wall label=stats dropped_spans=0 spans=-"
        );
        assert_eq!(parse_trace(&line), Ok(trace));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "trace",
            "trace seq=1",
            "trace seq=x domain=sim label=a dropped_spans=0 spans=-",
            "trace seq=1 domain=cpu label=a dropped_spans=0 spans=-",
            "trace seq=1 domain=sim label= dropped_spans=0 spans=-",
            "trace seq=1 domain=sim label=a dropped_spans=0 spans=:1..2",
            "trace seq=1 domain=sim label=a dropped_spans=0 spans=a:12",
            "trace seq=1 domain=sim label=a dropped_spans=0 spans=a:1..b",
            "trace seq=1 domain=sim label=a dropped_spans=0 spans=- extra",
            "stats requests=1",
        ] {
            assert!(parse_trace(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn span_ticks_saturate() {
        let span = Span {
            stage: "x".to_string(),
            start: 10,
            end: 3,
        };
        assert_eq!(span.ticks(), 0);
    }
}
