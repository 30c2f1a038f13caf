//! Embedded metrics: request counters and a fixed-bucket latency
//! histogram.
//!
//! Everything is a relaxed `AtomicU64` — workers record without locking,
//! and the `stats` command takes a point-in-time snapshot. Latency
//! percentiles are read off the cumulative histogram: the reported
//! `pNN_us` value is the upper bound of the first bucket whose
//! cumulative count covers the percentile, i.e. an upper bound on the
//! true percentile with bucket-width resolution.
//!
//! Every scalar of [`StatsSnapshot`] is one row of [`ROWS`]: its `stats`
//! key, its Prometheus name and help, and its field. The `stats` codec
//! here and the exposition in [`crate::prom`] both walk that table.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::cache::CacheCounters;
use crate::registry::RegistryCounters;

/// Upper bounds (inclusive, microseconds) of the latency buckets. The
/// final bucket is unbounded; percentiles falling in it are reported as
/// the `u64::MAX` sentinel.
pub const BUCKET_BOUNDS_US: [u64; 12] = [
    50,
    100,
    250,
    500,
    1_000,
    2_500,
    5_000,
    10_000,
    25_000,
    50_000,
    100_000,
    u64::MAX,
];

/// Lock-free metric registers shared by all workers.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: AtomicU64,
    predicts: AtomicU64,
    recommends: AtomicU64,
    errors: AtomicU64,
    too_long: AtomicU64,
    busy: AtomicU64,
    queue_depth: AtomicU64,
    connections: AtomicU64,
    buckets: [AtomicU64; BUCKET_BOUNDS_US.len()],
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one served request and its handling latency.
    pub fn record_request(&self, latency_us: u64, was_predict: bool, was_error: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if was_predict {
            self.predicts.fetch_add(1, Ordering::Relaxed);
        }
        if was_error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| latency_us <= b)
            .unwrap_or(0);
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one `recommend` request (served or errored).
    pub fn record_recommend(&self) {
        self.recommends.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one over-long request line. Counted as a request and an
    /// error — but in its own `too_long` register, *not* the latency
    /// histogram: the overflow is detected mid-read with no meaningful
    /// handling latency, and the old `record_request(0, ..)` call
    /// injected fake 0µs samples that dragged p50/p99 down.
    pub fn record_too_long(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.too_long.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection rejected with `busy`.
    pub fn record_busy(&self) {
        self.busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the admission-queue depth gauge.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Updates the open-connections gauge (connections currently
    /// multiplexed by the readiness loop).
    pub fn set_connections(&self, open: u64) {
        self.connections.store(open, Ordering::Relaxed);
    }

    /// Takes a point-in-time snapshot. The caller supplies the registry
    /// and cache counters plus the prediction cache's current length
    /// (a gauge the cache itself owns).
    pub fn snapshot(
        &self,
        registry: RegistryCounters,
        cache: CacheCounters,
        rec_cache: CacheCounters,
        pred_cache_len: u64,
    ) -> StatsSnapshot {
        let mut buckets = [0u64; BUCKET_BOUNDS_US.len()];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            predicts: self.predicts.load(Ordering::Relaxed),
            recommends: self.recommends.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            too_long: self.too_long.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            registry,
            cache,
            rec_cache,
            pred_cache_len,
            buckets,
        }
    }
}

/// One consistent-enough view of the metrics, as sent over the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total request lines served (including errors).
    pub requests: u64,
    /// Requests that were `predict` commands.
    pub predicts: u64,
    /// Requests that were `recommend` commands.
    pub recommends: u64,
    /// Requests answered with `err`.
    pub errors: u64,
    /// Over-long request lines refused (a subset of `errors`; excluded
    /// from the latency histogram so they cannot skew percentiles).
    pub too_long: u64,
    /// Connections rejected with `busy`.
    pub busy: u64,
    /// Admission-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Connections currently open on the readiness loop.
    pub connections: u64,
    /// Registry lookup counters (including the in-flight fitting gauge).
    pub registry: RegistryCounters,
    /// Prediction-cache lookup counters.
    pub cache: CacheCounters,
    /// Recommendation-cache lookup counters.
    pub rec_cache: CacheCounters,
    /// Entries held by the prediction cache at snapshot time.
    pub pred_cache_len: u64,
    /// Latency histogram counts, aligned with [`BUCKET_BOUNDS_US`].
    pub buckets: [u64; BUCKET_BOUNDS_US.len()],
}

/// One scalar of [`StatsSnapshot`] as both wire formats carry it.
pub struct Row {
    /// The key of its `key=value` word on the `stats` line.
    pub key: &'static str,
    /// The Prometheus series name. A name ending in `_total` is a
    /// counter, any other a gauge.
    pub name: &'static str,
    /// The Prometheus `# HELP` text.
    pub help: &'static str,
    /// Reads the field.
    pub get: fn(&StatsSnapshot) -> u64,
    /// Borrows the field for writing.
    pub get_mut: fn(&mut StatsSnapshot) -> &mut u64,
}

/// Builds [`ROWS`] from `field => key, name, help;` rows.
macro_rules! rows {
    ($($($field:ident).+ => $key:literal, $name:literal, $help:literal;)+) => {
        /// Every scalar of [`StatsSnapshot`], in `stats`-line order. Both
        /// wire codecs walk this table; a new scalar is one field and one
        /// row.
        pub const ROWS: &[Row] = &[$(Row {
            key: $key,
            name: $name,
            help: $help,
            get: |s| s.$($field).+,
            get_mut: |s| &mut s.$($field).+,
        }),+];
    };
}

rows! {
    requests => "requests", "mosaicd_requests_total",
        "Request lines served, including errors.";
    predicts => "predicts", "mosaicd_predicts_total",
        "Requests that were predict commands.";
    recommends => "recommends", "mosaicd_recommends_total",
        "Requests that were recommend commands.";
    errors => "errors", "mosaicd_errors_total",
        "Requests answered with err.";
    too_long => "too_long", "mosaicd_too_long_total",
        "Over-long request lines refused (excluded from the latency histogram).";
    busy => "busy", "mosaicd_busy_total",
        "Connections rejected with busy (admission queue full).";
    queue_depth => "queue_depth", "mosaicd_queue_depth",
        "Admission-queue depth at scrape time.";
    connections => "connections", "mosaicd_connections",
        "Connections currently multiplexed by the readiness loop.";
    registry.hits => "registry_hits", "mosaicd_registry_hits_total",
        "Registry lookups answered from memory.";
    registry.misses => "registry_misses", "mosaicd_registry_misses_total",
        "Registry lookups that required a fit or disk load.";
    registry.fitting => "registry_fitting", "mosaicd_registry_fitting",
        "Model fits currently in flight (singleflight slots).";
    registry.sampled_rejections => "registry_sampled_rejections",
        "mosaicd_registry_sampled_rejections_total",
        "Sampled batteries rejected by the validation gate (fell back to full).";
    cache.hits => "pred_cache_hits", "mosaicd_prediction_cache_hits_total",
        "Predictions answered from the bounded cache.";
    cache.misses => "pred_cache_misses", "mosaicd_prediction_cache_misses_total",
        "Predictions that ran the partial simulation.";
    pred_cache_len => "pred_cache_len", "mosaicd_prediction_cache_len",
        "Entries held by the prediction cache at scrape time.";
    rec_cache.hits => "rec_cache_hits", "mosaicd_recommend_cache_hits_total",
        "Recommendations answered from the bounded cache.";
    rec_cache.misses => "rec_cache_misses", "mosaicd_recommend_cache_misses_total",
        "Recommendations that ran candidate exploration and scoring.";
}

impl StatsSnapshot {
    /// The `q`-th latency percentile (`0 < q ≤ 100`) as the covering
    /// bucket's upper bound in µs; zero when nothing has been recorded
    /// and `u64::MAX` when the percentile falls in the unbounded bucket.
    pub fn percentile_us(&self, q: u32) -> u64 {
        let total: u128 = self.buckets.iter().map(|&c| u128::from(c)).sum();
        if total == 0 {
            return 0;
        }
        // The rank is computed in u128: `total * q` overflows u64 once
        // the histogram holds more than u64::MAX / 100 samples, which
        // would silently wrap to a tiny rank and report the first bucket.
        let rank = total.saturating_mul(u128::from(q)).div_ceil(100).max(1);
        let mut seen: u128 = 0;
        for (count, bound) in self.buckets.iter().zip(BUCKET_BOUNDS_US) {
            seen = seen.saturating_add(u128::from(*count));
            if seen >= rank {
                return bound;
            }
        }
        u64::MAX
    }

    /// Renders the `stats ...` response line (no newline).
    pub fn render(&self) -> String {
        let mut line = String::from("stats");
        for row in ROWS {
            line.push_str(&format!(" {}={}", row.key, (row.get)(self)));
        }
        let buckets = self.buckets.map(|c| c.to_string()).join(",");
        line.push_str(&format!(
            " p50_us={} p90_us={} p99_us={} buckets={buckets}",
            self.percentile_us(50),
            self.percentile_us(90),
            self.percentile_us(99),
        ));
        line
    }

    /// Parses a `stats ...` line back into a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed, missing or
    /// trailing field. Percentile fields are accepted but recomputed
    /// from the histogram, so `parse(render())` is the identity.
    pub fn parse(line: &str) -> Result<StatsSnapshot, String> {
        let mut words = line.split_ascii_whitespace();
        if words.next() != Some("stats") {
            return Err(format!("expected stats response, got {line:?}"));
        }
        let mut take = |key: &str| -> Result<&str, String> {
            let word = words.next().ok_or_else(|| format!("missing field {key}"))?;
            word.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or_else(|| format!("expected {key}=..., got {word:?}"))
        };
        let num = |s: &str, key: &str| -> Result<u64, String> {
            s.parse::<u64>().map_err(|e| format!("bad {key}: {e}"))
        };
        let mut snap = StatsSnapshot::default();
        for row in ROWS {
            *(row.get_mut)(&mut snap) = num(take(row.key)?, row.key)?;
        }
        take("p50_us")?;
        take("p90_us")?;
        take("p99_us")?;
        let counts: Vec<&str> = take("buckets")?.split(',').collect();
        if counts.len() != snap.buckets.len() {
            return Err(format!(
                "expected {} buckets, got {}",
                snap.buckets.len(),
                counts.len()
            ));
        }
        for (out, text) in snap.buckets.iter_mut().zip(counts) {
            *out = num(text, "buckets")?;
        }
        match words.next() {
            Some(extra) => Err(format!("unexpected trailing field {extra:?}")),
            None => Ok(snap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_walk_the_histogram() {
        let mut snap = StatsSnapshot::default();
        assert_eq!(snap.percentile_us(50), 0, "empty histogram reports 0");

        // 90 requests ≤50µs, 9 ≤1000µs, 1 unbounded.
        snap.buckets[0] = 90;
        snap.buckets[4] = 9;
        snap.buckets[BUCKET_BOUNDS_US.len() - 1] = 1;
        assert_eq!(snap.percentile_us(50), 50);
        assert_eq!(snap.percentile_us(90), 50);
        assert_eq!(snap.percentile_us(99), 1_000);
        assert_eq!(snap.percentile_us(100), u64::MAX);
    }

    #[test]
    fn percentiles_survive_huge_histogram_totals() {
        // Totals above u64::MAX / 100 used to overflow the u64 rank
        // computation (total * q wraps), collapsing every percentile
        // into the first bucket. The worst case — every bucket saturated
        // — must still walk to the right bound.
        let mut snap = StatsSnapshot::default();
        // Exactly at the old overflow boundary: total * 100 > u64::MAX.
        snap.buckets[0] = u64::MAX / 100 + 1;
        snap.buckets[4] = u64::MAX / 100 + 1;
        assert_eq!(snap.percentile_us(50), 50);
        assert_eq!(snap.percentile_us(99), 1_000, "p99 must reach bucket 4");
        // All buckets saturated: the high percentiles live at the top.
        snap.buckets = [u64::MAX; BUCKET_BOUNDS_US.len()];
        assert_eq!(snap.percentile_us(1), 50);
        assert_eq!(snap.percentile_us(100), u64::MAX);
    }

    #[test]
    fn record_buckets_latencies() {
        let m = Metrics::new();
        m.record_request(10, true, false);
        m.record_request(300, true, false);
        m.record_request(700_000, false, true);
        m.record_recommend();
        m.record_busy();
        m.set_queue_depth(3);
        m.set_connections(5);
        let snap = m.snapshot(
            RegistryCounters::default(),
            CacheCounters::default(),
            CacheCounters::default(),
            0,
        );
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.predicts, 2);
        assert_eq!(snap.recommends, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.busy, 1);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.connections, 5);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[3], 1, "300µs lands in the ≤500µs bucket");
        assert_eq!(snap.buckets[BUCKET_BOUNDS_US.len() - 1], 1);
    }

    #[test]
    fn too_long_counts_as_error_but_skips_the_histogram() {
        let m = Metrics::new();
        m.record_request(40, false, false);
        m.record_too_long();
        m.record_too_long();
        let snap = m.snapshot(
            RegistryCounters::default(),
            CacheCounters::default(),
            CacheCounters::default(),
            0,
        );
        assert_eq!(snap.requests, 3, "over-long lines are still requests");
        assert_eq!(snap.errors, 2, "over-long lines are still errors");
        assert_eq!(snap.too_long, 2);
        assert_eq!(
            snap.buckets.iter().sum::<u64>(),
            1,
            "over-long lines must not inject fake latency samples"
        );
        assert_eq!(
            snap.percentile_us(50),
            50,
            "the one real 40µs sample owns the median"
        );
    }

    #[test]
    fn stats_line_roundtrips() {
        let m = Metrics::new();
        for i in 0..100 {
            m.record_request(i * 37, i % 2 == 0, i % 10 == 0);
        }
        m.record_busy();
        m.set_queue_depth(7);
        m.set_connections(11);
        m.record_recommend();
        m.record_recommend();
        m.record_too_long();
        let snap = m.snapshot(
            RegistryCounters {
                hits: 5,
                misses: 2,
                fitting: 1,
                sampled_rejections: 3,
            },
            CacheCounters {
                hits: 40,
                misses: 9,
            },
            CacheCounters { hits: 3, misses: 2 },
            6,
        );
        let line = snap.render();
        assert!(line.contains("too_long=1"), "{line}");
        assert!(line.contains("connections=11"), "{line}");
        assert!(line.contains("registry_fitting=1"), "{line}");
        assert!(line.contains("registry_sampled_rejections=3"), "{line}");
        assert!(line.contains("pred_cache_hits=40"), "{line}");
        assert!(line.contains("pred_cache_misses=9"), "{line}");
        assert!(line.contains("recommends=2"), "{line}");
        assert!(line.contains("pred_cache_len=6"), "{line}");
        assert!(line.contains("rec_cache_hits=3"), "{line}");
        assert!(line.contains("rec_cache_misses=2"), "{line}");
        assert_eq!(StatsSnapshot::parse(&line), Ok(snap));
        assert!(StatsSnapshot::parse("stats requests=1").is_err());
        assert!(StatsSnapshot::parse(&format!("{line} junk=1")).is_err());
        assert!(StatsSnapshot::parse("nope").is_err());
    }
}
