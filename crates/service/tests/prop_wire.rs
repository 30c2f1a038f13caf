//! Property tests for every wire-format parser a mosaicd client or
//! scraper feeds: the single-line `stats` codec, the multi-line
//! Prometheus exposition, and the trace verb's header + trace lines.
//!
//! Two properties per format:
//!
//! 1. **Total**: parsing is a total function over arbitrary strings —
//!    it returns `Err`, never panics. These parsers sit behind
//!    [`service::client::Client`], which reads from a network peer it
//!    does not control.
//! 2. **Fixed point**: `render ∘ parse ∘ render = render` — a rendered
//!    document parses back to an equal value, and re-rendering that
//!    value reproduces the document byte-for-byte. This is what makes
//!    the canonical exposition order an invariant rather than an
//!    accident.

use obs::{parse_trace, render_trace, ClockDomain, Span, Trace};
use proptest::prelude::*;
use service::metrics::{StatsSnapshot, BUCKET_BOUNDS_US, ROWS};
use service::prom::{parse_metrics, render_metrics, MetricsReport, StageEntry};
use service::protocol::{parse_trace_header, render_trace_header};

fn snapshot_strategy() -> impl Strategy<Value = StatsSnapshot> {
    (
        prop::collection::vec(any::<u64>(), ROWS.len()),
        prop::collection::vec(0u64..1_000_000, BUCKET_BOUNDS_US.len()),
    )
        .prop_map(|(values, bucket_vec)| {
            let mut snap = StatsSnapshot::default();
            for (row, v) in ROWS.iter().zip(values) {
                *(row.get_mut)(&mut snap) = v;
            }
            for (out, v) in snap.buckets.iter_mut().zip(bucket_vec) {
                *out = v;
            }
            snap
        })
}

fn stage_entries_strategy() -> impl Strategy<Value = Vec<StageEntry>> {
    prop::collection::vec(("[a-z_]{1,10}", any::<u64>(), any::<u64>()), 0..4).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(stage, total_ticks, spans)| StageEntry {
                stage,
                total_ticks,
                spans,
            })
            .collect()
    })
}

fn report_strategy() -> impl Strategy<Value = MetricsReport> {
    (
        snapshot_strategy(),
        stage_entries_strategy(),
        stage_entries_strategy(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(stats, wall_stages, sim_stages, ring)| MetricsReport {
            stats,
            wall_stages,
            sim_stages,
            traces_buffered: ring.0,
            trace_capacity: ring.1,
            traces_dropped: ring.2,
        })
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        any::<u64>(),
        "[a-z_]{1,10}",
        any::<bool>(),
        any::<u64>(),
        prop::collection::vec(("[a-z_]{1,10}", any::<u64>(), any::<u64>()), 0..5),
    )
        .prop_map(|(seq, label, sim, dropped_spans, spans)| Trace {
            seq,
            label,
            domain: if sim {
                ClockDomain::Sim
            } else {
                ClockDomain::Wall
            },
            dropped_spans,
            spans: spans
                .into_iter()
                .map(|(stage, start, end)| Span { stage, start, end })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // --- totality on arbitrary (hostile) input -------------------------

    #[test]
    fn stats_parse_never_panics(s in ".{0,64}") {
        let _ = StatsSnapshot::parse(&s);
    }

    #[test]
    fn metrics_parse_never_panics(s in ".{0,64}") {
        let _ = parse_metrics(&s);
    }

    #[test]
    fn trace_parse_never_panics(s in ".{0,64}") {
        let _ = parse_trace(&s);
    }

    #[test]
    fn trace_header_parse_never_panics(s in ".{0,64}") {
        let _ = parse_trace_header(&s);
    }

    /// Near-miss inputs: a valid exposition truncated at an arbitrary
    /// character boundary. Deeper into the parser's state machine than
    /// fully random strings ever reach; must still never panic.
    #[test]
    fn metrics_parse_survives_truncation(report in report_strategy(), frac in 0.0f64..1.0) {
        let text = render_metrics(&report);
        let cut = ((text.chars().count() as f64) * frac) as usize;
        let truncated: String = text.chars().take(cut).collect();
        let _ = parse_metrics(&truncated);
    }

    // --- render ∘ parse ∘ render is the identity -----------------------

    #[test]
    fn stats_line_is_a_fixed_point(snap in snapshot_strategy()) {
        let line = snap.render();
        let back = StatsSnapshot::parse(&line);
        prop_assert_eq!(back.as_ref(), Ok(&snap), "{}", line);
        prop_assert_eq!(back.map(|s| s.render()), Ok(line));
    }

    #[test]
    fn metrics_exposition_is_a_fixed_point(report in report_strategy()) {
        let text = render_metrics(&report);
        let back = parse_metrics(&text);
        prop_assert_eq!(back.as_ref(), Ok(&report), "{}", text);
        prop_assert_eq!(back.map(|r| render_metrics(&r)), Ok(text));
    }

    #[test]
    fn trace_line_is_a_fixed_point(trace in trace_strategy()) {
        let line = render_trace(&trace);
        let back = parse_trace(&line);
        prop_assert_eq!(back.as_ref(), Ok(&trace), "{}", line);
        prop_assert_eq!(back.map(|t| render_trace(&t)), Ok(line));
    }

    #[test]
    fn trace_header_roundtrips(count in 0usize..1_000_000, dropped in any::<u64>()) {
        let line = render_trace_header(count, dropped);
        prop_assert_eq!(parse_trace_header(&line), Ok((count, dropped)));
    }
}
