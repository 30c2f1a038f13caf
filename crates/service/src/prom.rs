//! Prometheus text exposition for the `metrics` verb.
//!
//! [`render_metrics`] emits the classic text format (`# HELP` / `# TYPE`
//! comments, one sample per line, an OpenMetrics-style `# EOF`
//! terminator) covering **every** [`StatsSnapshot`] counter plus the
//! per-stage span sums and trace-ring gauges added by the tracing layer.
//! [`parse_metrics`] is the exact inverse on everything `render_metrics`
//! produces (render→parse→render is a fixed point) and never panics on
//! arbitrary input, which the property suite exercises.

use crate::metrics::{StatsSnapshot, BUCKET_BOUNDS_US, ROWS};

/// Aggregate span totals for one stage, one clock domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageEntry {
    /// Stage name (e.g. `read`, `fit`, `replay`).
    pub stage: String,
    /// Total ticks (µs for the wall domain, simulated cycles for sim)
    /// across all spans of this stage.
    pub total_ticks: u64,
    /// Number of spans recorded for this stage.
    pub spans: u64,
}

/// Everything the `metrics` verb exposes: the flat `stats` counters plus
/// the tracing layer's aggregates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsReport {
    /// The same snapshot the `stats` verb serves.
    pub stats: StatsSnapshot,
    /// Wall-domain stage totals (request-path stages, µs).
    pub wall_stages: Vec<StageEntry>,
    /// Sim-domain stage totals (partial-simulation stages, cycles).
    pub sim_stages: Vec<StageEntry>,
    /// Traces currently buffered in the ring.
    pub traces_buffered: u64,
    /// Ring capacity (traces retained before eviction).
    pub trace_capacity: u64,
    /// Traces evicted or rejected since startup.
    pub traces_dropped: u64,
}

const HISTOGRAM: &str = "mosaicd_request_latency_us";
const STAGE_TICKS: &str = "mosaicd_stage_ticks_total";
const STAGE_SPANS: &str = "mosaicd_stage_spans_total";

/// A trace-ring scalar: name, help and value.
type RingScalar = (&'static str, &'static str, fn(&MetricsReport) -> u64);

/// The trace-ring scalars, in exposition order.
const RING: [RingScalar; 3] = [
    (
        "mosaicd_traces_buffered",
        "Request traces currently held in the ring buffer.",
        |r| r.traces_buffered,
    ),
    (
        "mosaicd_trace_capacity",
        "Ring-buffer capacity in traces.",
        |r| r.trace_capacity,
    ),
    (
        "mosaicd_traces_dropped_total",
        "Traces evicted from or rejected by the ring buffer.",
        |r| r.traces_dropped,
    ),
];

/// Canonical `le` label for a bucket bound (`u64::MAX` is the unbounded
/// bucket, spelt `+Inf` in Prometheus).
fn le_label(bound: u64) -> String {
    if bound == u64::MAX {
        "+Inf".to_string()
    } else {
        bound.to_string()
    }
}

/// Writes a series' `# HELP` and `# TYPE` lines. Apart from the latency
/// histogram, a series is a counter when its name ends in `_total` and
/// a gauge otherwise.
fn push_help(out: &mut String, name: &str, help: &str) {
    let kind = match name {
        HISTOGRAM => "histogram",
        _ if name.ends_with("_total") => "counter",
        _ => "gauge",
    };
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

fn push_scalar(out: &mut String, name: &str, help: &str, value: u64) {
    push_help(out, name, help);
    out.push_str(&format!("{name} {value}\n"));
}

/// Renders the report as Prometheus text exposition (ends with `# EOF`
/// and a trailing newline).
pub fn render_metrics(report: &MetricsReport) -> String {
    let s = &report.stats;
    let mut out = String::new();
    for row in ROWS {
        push_scalar(&mut out, row.name, row.help, (row.get)(s));
    }

    push_help(
        &mut out,
        HISTOGRAM,
        "Request handling latency in microseconds.",
    );
    let mut cumulative: u64 = 0;
    for (count, bound) in s.buckets.iter().zip(BUCKET_BOUNDS_US) {
        cumulative = cumulative.saturating_add(*count);
        out.push_str(&format!(
            "{HISTOGRAM}_bucket{{le=\"{}\"}} {cumulative}\n",
            le_label(bound)
        ));
    }
    out.push_str(&format!("{HISTOGRAM}_count {cumulative}\n"));

    for (name, help, ticks) in [
        (
            STAGE_TICKS,
            "Total span ticks per stage (us for domain=wall, simulated cycles for domain=sim).",
            true,
        ),
        (STAGE_SPANS, "Number of spans recorded per stage.", false),
    ] {
        push_help(&mut out, name, help);
        for (domain, entries) in [("wall", &report.wall_stages), ("sim", &report.sim_stages)] {
            for e in entries {
                let value = if ticks { e.total_ticks } else { e.spans };
                out.push_str(&format!(
                    "{name}{{domain=\"{domain}\",stage=\"{}\"}} {value}\n",
                    e.stage
                ));
            }
        }
    }

    for (name, help, value) in RING {
        push_scalar(&mut out, name, help, value(report));
    }
    out.push_str("# EOF\n");
    out
}

/// One non-comment sample line, split into name, optional label body,
/// and value.
struct Sample<'a> {
    name: &'a str,
    labels: Option<&'a str>,
    value: u64,
}

fn split_sample(line: &str) -> Result<Sample<'_>, String> {
    let (name_part, value_part) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample line {line:?} has no value"))?;
    let value = value_part
        .parse::<u64>()
        .map_err(|e| format!("bad value in {line:?}: {e}"))?;
    match name_part.split_once('{') {
        Some((name, rest)) => {
            let labels = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated labels in {line:?}"))?;
            Ok(Sample {
                name,
                labels: Some(labels),
                value,
            })
        }
        None => Ok(Sample {
            name: name_part,
            labels: None,
            value,
        }),
    }
}

type Labels = Vec<(String, String)>;

/// Parses a `key="value"` label list (as rendered here: no escaping, no
/// spaces around separators).
fn parse_labels(body: &str) -> Result<Labels, String> {
    let mut out = Vec::new();
    for item in body.split(',') {
        let (key, rest) = item
            .split_once("=\"")
            .ok_or_else(|| format!("bad label {item:?}"))?;
        let value = rest
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated label value in {item:?}"))?;
        if value.contains('"') || value.contains('\\') {
            return Err(format!("unsupported label escape in {item:?}"));
        }
        out.push((key.to_string(), value.to_string()));
    }
    Ok(out)
}

type SampleIter<'a> = std::iter::Peekable<std::vec::IntoIter<Sample<'a>>>;

/// Consumes the next sample, requiring an unlabelled metric of the given
/// name.
fn next_plain(iter: &mut SampleIter<'_>, name: &str) -> Result<u64, String> {
    let sample = iter
        .next()
        .ok_or_else(|| format!("missing sample {name}"))?;
    if sample.name != name || sample.labels.is_some() {
        return Err(format!("expected sample {name}, got {}", sample.name));
    }
    Ok(sample.value)
}

/// Consumes the run of labelled samples named `name`, whose length is
/// data-dependent, as (labels, value) pairs.
fn next_run(iter: &mut SampleIter<'_>, name: &str) -> Result<Vec<(Labels, u64)>, String> {
    let mut run = Vec::new();
    while let Some(sample) = iter.next_if(|s| s.name == name) {
        let labels = sample
            .labels
            .ok_or_else(|| format!("{name} needs labels"))?;
        run.push((parse_labels(labels)?, sample.value));
    }
    Ok(run)
}

/// Parses Prometheus text produced by [`render_metrics`].
///
/// Comment lines (`# …`) are skipped; samples must appear in the
/// canonical render order. Never panics; malformed input yields `Err`.
pub fn parse_metrics(text: &str) -> Result<MetricsReport, String> {
    let mut samples = Vec::new();
    let mut saw_eof = false;
    for line in text.lines() {
        if saw_eof {
            return Err("content after # EOF".to_string());
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        samples.push(split_sample(line)?);
    }
    if !saw_eof {
        return Err("missing # EOF terminator".to_string());
    }
    let mut iter = samples.into_iter().peekable();
    let mut stats = StatsSnapshot::default();
    for row in ROWS {
        *(row.get_mut)(&mut stats) = next_plain(&mut iter, row.name)?;
    }

    let bucket_run = next_run(&mut iter, &format!("{HISTOGRAM}_bucket"))?;
    if bucket_run.len() != BUCKET_BOUNDS_US.len() {
        return Err(format!(
            "expected {} histogram buckets, got {}",
            BUCKET_BOUNDS_US.len(),
            bucket_run.len()
        ));
    }
    let mut previous: u64 = 0;
    for ((out, bound), (labels, cumulative)) in stats
        .buckets
        .iter_mut()
        .zip(BUCKET_BOUNDS_US)
        .zip(bucket_run)
    {
        if labels != [("le".to_string(), le_label(bound))] {
            return Err(format!(
                "bucket le label mismatch (want {})",
                le_label(bound)
            ));
        }
        *out = cumulative
            .checked_sub(previous)
            .ok_or_else(|| "histogram buckets are not cumulative".to_string())?;
        previous = cumulative;
    }
    if next_plain(&mut iter, &format!("{HISTOGRAM}_count"))? != previous {
        return Err("histogram count disagrees with +Inf bucket".to_string());
    }

    // A run of ticks samples, then a run of spans samples whose
    // (domain, stage) sequence must match exactly.
    let ticks = next_run(&mut iter, STAGE_TICKS)?;
    let spans = next_run(&mut iter, STAGE_SPANS)?;
    if ticks.len() != spans.len() {
        return Err("stage ticks/spans sample counts differ".to_string());
    }
    let mut wall_stages = Vec::new();
    let mut sim_stages = Vec::new();
    for ((labels, total_ticks), (span_labels, span_count)) in ticks.into_iter().zip(spans) {
        if labels != span_labels {
            return Err("stage ticks/spans samples disagree on labels".to_string());
        }
        let (domain, stage) = match labels.as_slice() {
            [(dk, domain), (sk, stage)] if dk == "domain" && sk == "stage" => {
                (domain.clone(), stage.clone())
            }
            _ => return Err(format!("{STAGE_TICKS} needs domain=…,stage=… labels")),
        };
        let entry = StageEntry {
            stage,
            total_ticks,
            spans: span_count,
        };
        match domain.as_str() {
            "wall" => wall_stages.push(entry),
            "sim" => sim_stages.push(entry),
            other => return Err(format!("unknown stage domain {other:?}")),
        }
    }

    let mut ring = [0u64; RING.len()];
    for (out, (name, ..)) in ring.iter_mut().zip(RING) {
        *out = next_plain(&mut iter, name)?;
    }
    let [traces_buffered, trace_capacity, traces_dropped] = ring;
    if iter.next().is_some() {
        return Err("unexpected trailing samples".to_string());
    }

    Ok(MetricsReport {
        stats,
        wall_stages,
        sim_stages,
        traces_buffered,
        trace_capacity,
        traces_dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheCounters;
    use crate::registry::RegistryCounters;

    fn sample_report() -> MetricsReport {
        let mut buckets = [0u64; BUCKET_BOUNDS_US.len()];
        buckets[0] = 5;
        buckets[4] = 2;
        buckets[BUCKET_BOUNDS_US.len() - 1] = 1;
        MetricsReport {
            stats: StatsSnapshot {
                requests: 8,
                predicts: 6,
                recommends: 3,
                errors: 1,
                too_long: 1,
                busy: 2,
                queue_depth: 3,
                connections: 4,
                registry: RegistryCounters {
                    hits: 5,
                    misses: 1,
                    fitting: 1,
                    sampled_rejections: 2,
                },
                cache: CacheCounters { hits: 4, misses: 2 },
                rec_cache: CacheCounters { hits: 2, misses: 1 },
                pred_cache_len: 9,
                buckets,
            },
            wall_stages: vec![
                StageEntry {
                    stage: "read".to_string(),
                    total_ticks: 120,
                    spans: 8,
                },
                StageEntry {
                    stage: "fit".to_string(),
                    total_ticks: 90_000,
                    spans: 6,
                },
            ],
            sim_stages: vec![StageEntry {
                stage: "replay".to_string(),
                total_ticks: 2_409_763,
                spans: 2,
            }],
            traces_buffered: 7,
            trace_capacity: 256,
            traces_dropped: 1,
        }
    }

    #[test]
    fn exposition_roundtrips() {
        let report = sample_report();
        let text = render_metrics(&report);
        assert!(text.ends_with("# EOF\n"), "{text}");
        assert_eq!(parse_metrics(&text), Ok(report.clone()));
        // render→parse→render fixed point.
        let reparsed = parse_metrics(&text).unwrap();
        assert_eq!(render_metrics(&reparsed), text);
    }

    #[test]
    fn exposition_covers_every_stats_counter() {
        let report = sample_report();
        let text = render_metrics(&report);
        for row in ROWS {
            let needle = format!("\n{} {}\n", row.name, (row.get)(&report.stats));
            assert!(text.contains(&needle), "missing {needle:?} in:\n{text}");
        }
        for needle in [
            "mosaicd_request_latency_us_bucket{le=\"50\"} 5",
            "mosaicd_request_latency_us_bucket{le=\"+Inf\"} 8",
            "mosaicd_request_latency_us_count 8",
            "mosaicd_stage_ticks_total{domain=\"wall\",stage=\"read\"} 120",
            "mosaicd_stage_ticks_total{domain=\"sim\",stage=\"replay\"} 2409763",
            "mosaicd_stage_spans_total{domain=\"wall\",stage=\"fit\"} 6",
            "mosaicd_traces_buffered 7",
            "mosaicd_trace_capacity 256",
            "mosaicd_traces_dropped_total 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = render_metrics(&sample_report());
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("mosaicd_request_latency_us_bucket") {
                let value: u64 = rest.rsplit_once(' ').unwrap().1.parse().unwrap();
                assert!(value >= last, "buckets must be cumulative: {line}");
                last = value;
                bucket_lines += 1;
            }
        }
        assert_eq!(bucket_lines, BUCKET_BOUNDS_US.len());
    }

    #[test]
    fn parse_rejects_malformed_expositions() {
        let good = render_metrics(&sample_report());
        for bad in [
            String::new(),
            "mosaicd_requests_total 1\n".to_string(),
            good.replace("# EOF\n", ""),
            good.replace("mosaicd_requests_total 8", "mosaicd_requests_total eight"),
            good.replace("le=\"50\"", "le=\"51\""),
            good.replace(
                "mosaicd_request_latency_us_count 8",
                "mosaicd_request_latency_us_count 9",
            ),
            good.replace("domain=\"sim\"", "domain=\"cpu\""),
            format!("{good}mosaicd_requests_total 1\n"),
        ] {
            assert!(parse_metrics(&bad).is_err(), "accepted:\n{bad}");
        }
    }
}
