//! On-disk codec for `mosaic bench` reports.
//!
//! A report is a small JSON document whose `format` field carries the
//! `# mosaic-bench v3` version header; readers reject any other version
//! rather than guessing. All floating-point fields are rendered with
//! [`fmt_f64_shortest`] (Rust's shortest-roundtrip `Display`), so
//! `parse_report(&render_report(r))` reproduces every float bit-for-bit
//! — the same bit-exactness contract as the grid cache and the model
//! store.

// A report must be a pure function of the measured numbers: no clock
// reads or hashed collections, whatever the crate allows.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use std::fmt::Write as _;

use mosmodel::persist::{fmt_f64_shortest, parse_f64_shortest};

/// Version of the bench-report schema. Bump on any breaking change.
/// v2 added `cold_us` (first-request latency including the model fit)
/// to the service leg. v3 added `trace_overhead_pct` (tracer cost on a
/// FAST `measure_layout`, the <3% gate) to the grid leg and
/// `cold_stages` (wall-domain stage breakdown of the cold request,
/// from the server's trace ring) to the service leg. v4 added the
/// `recommend` leg (`rec_requests` / `rec_cold_us` / `rec_mean_us`),
/// timing the budget-to-layout recommendation verb cold (candidate
/// enumeration, scoring, and the K-fold CV pass) and warm (served from
/// the recommendation cache). v5 added the `conns` leg (`conns_1_qps` /
/// `conns_16_qps` / `conns_256_qps`), warm-path predict throughput at
/// 1, 16, and 256 concurrent connections — the scaling figure for the
/// event-driven serving plane, where idle connections cost a poll slot
/// instead of a worker thread. v6 added the `grid_par` leg (`par_jobs` /
/// `par_1_wall_seconds` / `par_n_wall_seconds` / `par_speedup`), the
/// same cold battery built serially and with the parallel fan-out — the
/// speedup claim for deterministic-parallel grid builds is measured
/// here, not asserted. v7 added the `grid_sampled` leg
/// (`sampled_window` / `sampled_period` / `sampled_bound` /
/// `sampled_anchor_err` / `sampled_wall_seconds` /
/// `sampled_full_wall_seconds` / `sampled_speedup`), the cold battery
/// built once with validated interval sampling and once full — both
/// the speedup *and* the cross-validation gate's measured anchor error
/// are reported, so the claim "cheaper and still within bound" is
/// evidence, not assertion.
pub const BENCH_VERSION: u32 = 7;

/// Version-header prefix; the full header is `# mosaic-bench v7`.
const BENCH_MAGIC: &str = "# mosaic-bench v";

/// Wall-clock results of the grid-battery throughput benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct GridBench {
    /// Measurement records produced (battery layouts + the all-1GB run).
    pub records: u64,
    /// Total simulated demand accesses across all records.
    pub accesses: u64,
    /// Wall-clock seconds for the whole battery.
    pub wall_seconds: f64,
    /// `accesses / wall_seconds` — the headline throughput figure.
    pub accesses_per_sec: f64,
    /// Relative cost (percent, min-of-k) of running `measure_layout`
    /// with the span recorder enabled versus disabled. The tracing
    /// gate: must stay under 3% or observability is perturbing the
    /// measurement it observes. Negative values are timer noise.
    pub trace_overhead_pct: f64,
}

/// Wall-clock results of the mosaicd request-latency benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceBench {
    /// Predict requests timed (after the model-fitting warmup).
    pub requests: u64,
    /// Latency of the first (cold) request in microseconds — pays the
    /// full model fit under the registry's singleflight latch. The gap
    /// between this and `mean_us` is what `warm` requests buy.
    pub cold_us: f64,
    /// Wall-domain stage breakdown of the cold request, harvested from
    /// the server's trace ring: space-separated `stage:start..end`
    /// tokens in microseconds since the request's first byte, or `-`
    /// when no trace was captured. Space-separated (not the wire
    /// format's commas) because this codec's field extractor treats a
    /// comma as end-of-value.
    pub cold_stages: String,
    /// Mean end-to-end warm request latency in microseconds.
    pub mean_us: f64,
    /// Median latency (bucket upper bound) in microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency in microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
}

/// Wall-clock results of the mosaicd recommendation benchmark. Field
/// names carry a `rec_` prefix because this codec's extractor matches
/// keys globally across the document.
#[derive(Clone, Debug, PartialEq)]
pub struct RecommendBench {
    /// Warm recommend requests timed (after the cold one).
    pub rec_requests: u64,
    /// Latency of the first recommend in microseconds — pays candidate
    /// enumeration, per-candidate scoring, and the K-fold CV error.
    pub rec_cold_us: f64,
    /// Mean warm recommend latency in microseconds (recommendation-cache
    /// hits; includes the loopback round-trip).
    pub rec_mean_us: f64,
}

/// Warm-path predict throughput at increasing connection counts, all
/// against one server whose caches are already hot. Field names carry a
/// `conns_` prefix because this codec's extractor matches keys globally
/// across the document.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnsBench {
    /// Requests per second with a single connection issuing sequential
    /// warm predicts — the latency-bound baseline.
    pub conns_1_qps: f64,
    /// Requests per second across 16 concurrent connections.
    pub conns_16_qps: f64,
    /// Requests per second across 256 concurrent connections — far more
    /// connections than workers, so this figure only scales if the
    /// serving plane multiplexes instead of parking a thread per
    /// connection.
    pub conns_256_qps: f64,
}

/// Wall-clock results of the parallel-battery speedup benchmark: the
/// identical cold battery built twice on fresh in-memory grids, once
/// serially and once with the full worker fan-out. Field names carry a
/// `par_` prefix because this codec's extractor matches keys globally
/// across the document.
#[derive(Clone, Debug, PartialEq)]
pub struct GridParBench {
    /// Worker threads used for the parallel build (the resolved
    /// `--jobs`/`MOSAIC_JOBS`/`available_parallelism` value).
    pub par_jobs: u64,
    /// Wall-clock seconds for the serial (jobs=1) battery.
    pub par_1_wall_seconds: f64,
    /// Wall-clock seconds for the parallel (jobs=N) battery.
    pub par_n_wall_seconds: f64,
    /// `par_1_wall_seconds / par_n_wall_seconds` — the headline speedup.
    pub par_speedup: f64,
}

/// Wall-clock results of the validated-sampling speedup benchmark: the
/// identical cold battery built twice on fresh in-memory grids, once
/// with interval sampling (gated by the sampled-vs-full anchor
/// cross-validation) and once full. Field names carry a `sampled_`
/// prefix because this codec's extractor matches keys globally across
/// the document.
#[derive(Clone, Debug, PartialEq)]
pub struct GridSampledBench {
    /// Accesses kept at the start of each sampling period.
    pub sampled_window: u64,
    /// Length of each sampling period.
    pub sampled_period: u64,
    /// Gate bound the anchor error was held to.
    pub sampled_bound: f64,
    /// The gate's measured worst anchor error (sampled vs full, all
    /// PMU counters); the battery only counts as sampled if this is
    /// within `sampled_bound`.
    pub sampled_anchor_err: f64,
    /// Wall-clock seconds for the gated sampled battery (anchor
    /// cross-validation included — the gate's cost is part of the
    /// price).
    pub sampled_wall_seconds: f64,
    /// Wall-clock seconds for the full battery.
    pub sampled_full_wall_seconds: f64,
    /// `sampled_full_wall_seconds / sampled_wall_seconds` — the
    /// headline speedup.
    pub sampled_speedup: f64,
}

/// One complete `mosaic bench` report.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Civil date of the run (`YYYY-MM-DD`), stamped by the runner.
    pub date: String,
    /// Speed preset the benchmark ran at (`fast` / `full`).
    pub speed: String,
    /// Workload benchmarked (e.g. `gups/8GB`).
    pub workload: String,
    /// Platform benchmarked (e.g. `SandyBridge`).
    pub platform: String,
    /// Grid-battery throughput results.
    pub grid: GridBench,
    /// Parallel-battery speedup results.
    pub grid_par: GridParBench,
    /// Validated-sampling speedup results.
    pub grid_sampled: GridSampledBench,
    /// mosaicd latency results.
    pub service: ServiceBench,
    /// mosaicd recommendation-verb latency results.
    pub recommend: RecommendBench,
    /// mosaicd concurrent-connection throughput results.
    pub conns: ConnsBench,
}

impl BenchReport {
    /// The versioned format header this codec writes and accepts.
    pub fn format_header() -> String {
        format!("{BENCH_MAGIC}{BENCH_VERSION}")
    }
}

/// Renders a report as its on-disk JSON document.
pub fn render_report(report: &BenchReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"format\": \"{}\",", BenchReport::format_header());
    let _ = writeln!(out, "  \"date\": \"{}\",", report.date);
    let _ = writeln!(out, "  \"speed\": \"{}\",", report.speed);
    let _ = writeln!(out, "  \"workload\": \"{}\",", report.workload);
    let _ = writeln!(out, "  \"platform\": \"{}\",", report.platform);
    let _ = writeln!(out, "  \"grid\": {{");
    let _ = writeln!(out, "    \"records\": {},", report.grid.records);
    let _ = writeln!(out, "    \"accesses\": {},", report.grid.accesses);
    let _ = writeln!(
        out,
        "    \"wall_seconds\": {},",
        fmt_f64_shortest(report.grid.wall_seconds)
    );
    let _ = writeln!(
        out,
        "    \"accesses_per_sec\": {},",
        fmt_f64_shortest(report.grid.accesses_per_sec)
    );
    let _ = writeln!(
        out,
        "    \"trace_overhead_pct\": {}",
        fmt_f64_shortest(report.grid.trace_overhead_pct)
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"grid_par\": {{");
    let _ = writeln!(out, "    \"par_jobs\": {},", report.grid_par.par_jobs);
    let _ = writeln!(
        out,
        "    \"par_1_wall_seconds\": {},",
        fmt_f64_shortest(report.grid_par.par_1_wall_seconds)
    );
    let _ = writeln!(
        out,
        "    \"par_n_wall_seconds\": {},",
        fmt_f64_shortest(report.grid_par.par_n_wall_seconds)
    );
    let _ = writeln!(
        out,
        "    \"par_speedup\": {}",
        fmt_f64_shortest(report.grid_par.par_speedup)
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"grid_sampled\": {{");
    let _ = writeln!(
        out,
        "    \"sampled_window\": {},",
        report.grid_sampled.sampled_window
    );
    let _ = writeln!(
        out,
        "    \"sampled_period\": {},",
        report.grid_sampled.sampled_period
    );
    let _ = writeln!(
        out,
        "    \"sampled_bound\": {},",
        fmt_f64_shortest(report.grid_sampled.sampled_bound)
    );
    let _ = writeln!(
        out,
        "    \"sampled_anchor_err\": {},",
        fmt_f64_shortest(report.grid_sampled.sampled_anchor_err)
    );
    let _ = writeln!(
        out,
        "    \"sampled_wall_seconds\": {},",
        fmt_f64_shortest(report.grid_sampled.sampled_wall_seconds)
    );
    let _ = writeln!(
        out,
        "    \"sampled_full_wall_seconds\": {},",
        fmt_f64_shortest(report.grid_sampled.sampled_full_wall_seconds)
    );
    let _ = writeln!(
        out,
        "    \"sampled_speedup\": {}",
        fmt_f64_shortest(report.grid_sampled.sampled_speedup)
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"service\": {{");
    let _ = writeln!(out, "    \"requests\": {},", report.service.requests);
    let _ = writeln!(
        out,
        "    \"cold_us\": {},",
        fmt_f64_shortest(report.service.cold_us)
    );
    let _ = writeln!(
        out,
        "    \"cold_stages\": \"{}\",",
        report.service.cold_stages
    );
    let _ = writeln!(
        out,
        "    \"mean_us\": {},",
        fmt_f64_shortest(report.service.mean_us)
    );
    let _ = writeln!(out, "    \"p50_us\": {},", report.service.p50_us);
    let _ = writeln!(out, "    \"p90_us\": {},", report.service.p90_us);
    let _ = writeln!(out, "    \"p99_us\": {}", report.service.p99_us);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"recommend\": {{");
    let _ = writeln!(
        out,
        "    \"rec_requests\": {},",
        report.recommend.rec_requests
    );
    let _ = writeln!(
        out,
        "    \"rec_cold_us\": {},",
        fmt_f64_shortest(report.recommend.rec_cold_us)
    );
    let _ = writeln!(
        out,
        "    \"rec_mean_us\": {}",
        fmt_f64_shortest(report.recommend.rec_mean_us)
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"conns\": {{");
    let _ = writeln!(
        out,
        "    \"conns_1_qps\": {},",
        fmt_f64_shortest(report.conns.conns_1_qps)
    );
    let _ = writeln!(
        out,
        "    \"conns_16_qps\": {},",
        fmt_f64_shortest(report.conns.conns_16_qps)
    );
    let _ = writeln!(
        out,
        "    \"conns_256_qps\": {}",
        fmt_f64_shortest(report.conns.conns_256_qps)
    );
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Extracts the raw value token following `"key":` — up to the next
/// comma or newline — from this codec's own fixed-shape documents (one
/// field per line; not a general JSON parser).
fn field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle).ok_or_else(|| format!("missing {key}"))?;
    let rest = text[at + needle.len()..].trim_start();
    let end = rest
        .find(['\n', ','])
        .ok_or_else(|| format!("unterminated {key}"))?;
    Ok(rest[..end].trim_end().trim_end_matches(','))
}

fn string_field(text: &str, key: &str) -> Result<String, String> {
    let raw = field(text, key)?;
    raw.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("{key} is not a string: {raw:?}"))
}

fn u64_field(text: &str, key: &str) -> Result<u64, String> {
    let raw = field(text, key)?;
    raw.parse().map_err(|e| format!("bad {key}: {e}"))
}

fn f64_field(text: &str, key: &str) -> Result<f64, String> {
    let raw = field(text, key)?;
    parse_f64_shortest(raw).ok_or_else(|| format!("bad {key}: {raw:?}"))
}

/// Parses a document written by [`render_report`].
///
/// # Errors
///
/// Returns a description of the first problem: a missing or malformed
/// field, or a version header this codec does not understand.
pub fn parse_report(text: &str) -> Result<BenchReport, String> {
    let header = string_field(text, "format")?;
    if header != BenchReport::format_header() {
        return Err(format!(
            "unsupported bench report format {header:?} (this build reads {:?})",
            BenchReport::format_header()
        ));
    }
    Ok(BenchReport {
        date: string_field(text, "date")?,
        speed: string_field(text, "speed")?,
        workload: string_field(text, "workload")?,
        platform: string_field(text, "platform")?,
        grid: GridBench {
            records: u64_field(text, "records")?,
            accesses: u64_field(text, "accesses")?,
            wall_seconds: f64_field(text, "wall_seconds")?,
            accesses_per_sec: f64_field(text, "accesses_per_sec")?,
            trace_overhead_pct: f64_field(text, "trace_overhead_pct")?,
        },
        grid_par: GridParBench {
            par_jobs: u64_field(text, "par_jobs")?,
            par_1_wall_seconds: f64_field(text, "par_1_wall_seconds")?,
            par_n_wall_seconds: f64_field(text, "par_n_wall_seconds")?,
            par_speedup: f64_field(text, "par_speedup")?,
        },
        grid_sampled: GridSampledBench {
            sampled_window: u64_field(text, "sampled_window")?,
            sampled_period: u64_field(text, "sampled_period")?,
            sampled_bound: f64_field(text, "sampled_bound")?,
            sampled_anchor_err: f64_field(text, "sampled_anchor_err")?,
            sampled_wall_seconds: f64_field(text, "sampled_wall_seconds")?,
            sampled_full_wall_seconds: f64_field(text, "sampled_full_wall_seconds")?,
            sampled_speedup: f64_field(text, "sampled_speedup")?,
        },
        service: ServiceBench {
            requests: u64_field(text, "requests")?,
            cold_us: f64_field(text, "cold_us")?,
            cold_stages: string_field(text, "cold_stages")?,
            mean_us: f64_field(text, "mean_us")?,
            p50_us: u64_field(text, "p50_us")?,
            p90_us: u64_field(text, "p90_us")?,
            p99_us: u64_field(text, "p99_us")?,
        },
        recommend: RecommendBench {
            rec_requests: u64_field(text, "rec_requests")?,
            rec_cold_us: f64_field(text, "rec_cold_us")?,
            rec_mean_us: f64_field(text, "rec_mean_us")?,
        },
        conns: ConnsBench {
            conns_1_qps: f64_field(text, "conns_1_qps")?,
            conns_16_qps: f64_field(text, "conns_16_qps")?,
            conns_256_qps: f64_field(text, "conns_256_qps")?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            date: "2026-08-06".to_string(),
            speed: "fast".to_string(),
            workload: "gups/8GB".to_string(),
            platform: "SandyBridge".to_string(),
            grid: GridBench {
                records: 55,
                accesses: 4_400_000,
                wall_seconds: 0.698_678_299,
                accesses_per_sec: 6_297_613.847_210_31,
                trace_overhead_pct: 0.412_907_3,
            },
            grid_par: GridParBench {
                par_jobs: 8,
                par_1_wall_seconds: 5.602_113_9,
                par_n_wall_seconds: 0.913_446_2,
                par_speedup: 6.132_931_407_2,
            },
            grid_sampled: GridSampledBench {
                sampled_window: 1_000,
                sampled_period: 5_000,
                sampled_bound: 0.05,
                sampled_anchor_err: 0.042_913_7,
                sampled_wall_seconds: 4.301_226_8,
                sampled_full_wall_seconds: 16.204_119_5,
                sampled_speedup: 3.767_325_991_3,
            },
            service: ServiceBench {
                requests: 32,
                cold_us: 2_731_009.25,
                cold_stages: "read:0..3 parse:3..5 fit:5..2730881 cache_lookup:2730881..2730890 simulate:2730890..2730999 render:2730999..2731002".to_string(),
                mean_us: 24_817.406_25,
                p50_us: 25_000,
                p90_us: 50_000,
                p99_us: 50_000,
            },
            recommend: RecommendBench {
                rec_requests: 16,
                rec_cold_us: 148_212.75,
                rec_mean_us: 183.062_5,
            },
            conns: ConnsBench {
                conns_1_qps: 9_841.275_310_2,
                conns_16_qps: 61_204.883_1,
                conns_256_qps: 88_930.017_4,
            },
        }
    }

    #[test]
    fn report_roundtrips_bit_exactly() {
        let report = sample();
        let text = render_report(&report);
        assert!(text.contains("\"format\": \"# mosaic-bench v7\""));
        let back = parse_report(&text).expect("own output parses");
        assert_eq!(back, report);
        assert_eq!(
            back.grid.wall_seconds.to_bits(),
            report.grid.wall_seconds.to_bits()
        );
        assert_eq!(
            back.grid.accesses_per_sec.to_bits(),
            report.grid.accesses_per_sec.to_bits()
        );
        assert_eq!(
            back.service.mean_us.to_bits(),
            report.service.mean_us.to_bits()
        );
        assert_eq!(
            back.service.cold_us.to_bits(),
            report.service.cold_us.to_bits()
        );
        assert_eq!(
            back.grid.trace_overhead_pct.to_bits(),
            report.grid.trace_overhead_pct.to_bits()
        );
        assert_eq!(back.service.cold_stages, report.service.cold_stages);
        assert_eq!(
            back.recommend.rec_cold_us.to_bits(),
            report.recommend.rec_cold_us.to_bits()
        );
        assert_eq!(
            back.recommend.rec_mean_us.to_bits(),
            report.recommend.rec_mean_us.to_bits()
        );
        assert_eq!(
            back.conns.conns_1_qps.to_bits(),
            report.conns.conns_1_qps.to_bits()
        );
        assert_eq!(
            back.conns.conns_256_qps.to_bits(),
            report.conns.conns_256_qps.to_bits()
        );
        assert_eq!(back.grid_par.par_jobs, report.grid_par.par_jobs);
        assert_eq!(
            back.grid_par.par_1_wall_seconds.to_bits(),
            report.grid_par.par_1_wall_seconds.to_bits()
        );
        assert_eq!(
            back.grid_par.par_speedup.to_bits(),
            report.grid_par.par_speedup.to_bits()
        );
        assert_eq!(back.grid_sampled.sampled_window, 1_000);
        assert_eq!(back.grid_sampled.sampled_period, 5_000);
        assert_eq!(
            back.grid_sampled.sampled_anchor_err.to_bits(),
            report.grid_sampled.sampled_anchor_err.to_bits()
        );
        assert_eq!(
            back.grid_sampled.sampled_speedup.to_bits(),
            report.grid_sampled.sampled_speedup.to_bits()
        );
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = render_report(&sample()).replace("# mosaic-bench v7", "# mosaic-bench v6");
        let err = parse_report(&text).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn missing_fields_error_cleanly() {
        assert!(parse_report("{}").is_err());
        let text = render_report(&sample()).replace("\"p99_us\"", "\"p99\"");
        assert!(parse_report(&text).is_err());
    }
}
