//! Pins the exact bytes of the `stats` line and the `metrics`
//! exposition for one fixed snapshot. The fixed-point properties in
//! `prop_wire.rs` accept any consistent reordering; this test does not.

use service::cache::CacheCounters;
use service::metrics::StatsSnapshot;
use service::prom::{render_metrics, MetricsReport, StageEntry};
use service::registry::RegistryCounters;

/// Every field holds a distinct value, so a swapped pair shows.
fn snapshot() -> StatsSnapshot {
    StatsSnapshot {
        requests: 101,
        predicts: 102,
        recommends: 103,
        errors: 104,
        too_long: 105,
        busy: 106,
        queue_depth: 107,
        connections: 108,
        registry: RegistryCounters {
            hits: 109,
            misses: 111,
            fitting: 112,
            sampled_rejections: 113,
        },
        cache: CacheCounters {
            hits: 114,
            misses: 115,
        },
        rec_cache: CacheCounters {
            hits: 116,
            misses: 117,
        },
        pred_cache_len: 118,
        buckets: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
    }
}

fn report() -> MetricsReport {
    MetricsReport {
        stats: snapshot(),
        wall_stages: vec![StageEntry {
            stage: "read".to_string(),
            total_ticks: 121,
            spans: 122,
        }],
        sim_stages: vec![StageEntry {
            stage: "replay".to_string(),
            total_ticks: 123,
            spans: 124,
        }],
        traces_buffered: 125,
        trace_capacity: 126,
        traces_dropped: 127,
    }
}

#[test]
fn stats_line_bytes_are_pinned() {
    let expected =
        "stats requests=101 predicts=102 recommends=103 errors=104 too_long=105 busy=106 \
         queue_depth=107 connections=108 registry_hits=109 registry_misses=111 \
         registry_fitting=112 registry_sampled_rejections=113 pred_cache_hits=114 \
         pred_cache_misses=115 pred_cache_len=118 rec_cache_hits=116 \
         rec_cache_misses=117 p50_us=25000 p90_us=18446744073709551615 \
         p99_us=18446744073709551615 buckets=1,2,3,4,5,6,7,8,9,10,11,12";
    assert_eq!(snapshot().render(), expected);
}

#[test]
fn metrics_exposition_bytes_are_pinned() {
    let expected = r#"# HELP mosaicd_requests_total Request lines served, including errors.
# TYPE mosaicd_requests_total counter
mosaicd_requests_total 101
# HELP mosaicd_predicts_total Requests that were predict commands.
# TYPE mosaicd_predicts_total counter
mosaicd_predicts_total 102
# HELP mosaicd_recommends_total Requests that were recommend commands.
# TYPE mosaicd_recommends_total counter
mosaicd_recommends_total 103
# HELP mosaicd_errors_total Requests answered with err.
# TYPE mosaicd_errors_total counter
mosaicd_errors_total 104
# HELP mosaicd_too_long_total Over-long request lines refused (excluded from the latency histogram).
# TYPE mosaicd_too_long_total counter
mosaicd_too_long_total 105
# HELP mosaicd_busy_total Connections rejected with busy (admission queue full).
# TYPE mosaicd_busy_total counter
mosaicd_busy_total 106
# HELP mosaicd_queue_depth Admission-queue depth at scrape time.
# TYPE mosaicd_queue_depth gauge
mosaicd_queue_depth 107
# HELP mosaicd_connections Connections currently multiplexed by the readiness loop.
# TYPE mosaicd_connections gauge
mosaicd_connections 108
# HELP mosaicd_registry_hits_total Registry lookups answered from memory.
# TYPE mosaicd_registry_hits_total counter
mosaicd_registry_hits_total 109
# HELP mosaicd_registry_misses_total Registry lookups that required a fit or disk load.
# TYPE mosaicd_registry_misses_total counter
mosaicd_registry_misses_total 111
# HELP mosaicd_registry_fitting Model fits currently in flight (singleflight slots).
# TYPE mosaicd_registry_fitting gauge
mosaicd_registry_fitting 112
# HELP mosaicd_registry_sampled_rejections_total Sampled batteries rejected by the validation gate (fell back to full).
# TYPE mosaicd_registry_sampled_rejections_total counter
mosaicd_registry_sampled_rejections_total 113
# HELP mosaicd_prediction_cache_hits_total Predictions answered from the bounded cache.
# TYPE mosaicd_prediction_cache_hits_total counter
mosaicd_prediction_cache_hits_total 114
# HELP mosaicd_prediction_cache_misses_total Predictions that ran the partial simulation.
# TYPE mosaicd_prediction_cache_misses_total counter
mosaicd_prediction_cache_misses_total 115
# HELP mosaicd_prediction_cache_len Entries held by the prediction cache at scrape time.
# TYPE mosaicd_prediction_cache_len gauge
mosaicd_prediction_cache_len 118
# HELP mosaicd_recommend_cache_hits_total Recommendations answered from the bounded cache.
# TYPE mosaicd_recommend_cache_hits_total counter
mosaicd_recommend_cache_hits_total 116
# HELP mosaicd_recommend_cache_misses_total Recommendations that ran candidate exploration and scoring.
# TYPE mosaicd_recommend_cache_misses_total counter
mosaicd_recommend_cache_misses_total 117
# HELP mosaicd_request_latency_us Request handling latency in microseconds.
# TYPE mosaicd_request_latency_us histogram
mosaicd_request_latency_us_bucket{le="50"} 1
mosaicd_request_latency_us_bucket{le="100"} 3
mosaicd_request_latency_us_bucket{le="250"} 6
mosaicd_request_latency_us_bucket{le="500"} 10
mosaicd_request_latency_us_bucket{le="1000"} 15
mosaicd_request_latency_us_bucket{le="2500"} 21
mosaicd_request_latency_us_bucket{le="5000"} 28
mosaicd_request_latency_us_bucket{le="10000"} 36
mosaicd_request_latency_us_bucket{le="25000"} 45
mosaicd_request_latency_us_bucket{le="50000"} 55
mosaicd_request_latency_us_bucket{le="100000"} 66
mosaicd_request_latency_us_bucket{le="+Inf"} 78
mosaicd_request_latency_us_count 78
# HELP mosaicd_stage_ticks_total Total span ticks per stage (us for domain=wall, simulated cycles for domain=sim).
# TYPE mosaicd_stage_ticks_total counter
mosaicd_stage_ticks_total{domain="wall",stage="read"} 121
mosaicd_stage_ticks_total{domain="sim",stage="replay"} 123
# HELP mosaicd_stage_spans_total Number of spans recorded per stage.
# TYPE mosaicd_stage_spans_total counter
mosaicd_stage_spans_total{domain="wall",stage="read"} 122
mosaicd_stage_spans_total{domain="sim",stage="replay"} 124
# HELP mosaicd_traces_buffered Request traces currently held in the ring buffer.
# TYPE mosaicd_traces_buffered gauge
mosaicd_traces_buffered 125
# HELP mosaicd_trace_capacity Ring-buffer capacity in traces.
# TYPE mosaicd_trace_capacity gauge
mosaicd_trace_capacity 126
# HELP mosaicd_traces_dropped_total Traces evicted from or rejected by the ring buffer.
# TYPE mosaicd_traces_dropped_total counter
mosaicd_traces_dropped_total 127
# EOF
"#;
    assert_eq!(render_metrics(&report()), expected);
}
