//! The model registry: fit once, serve forever.
//!
//! For each `(workload, platform)` pair the registry measures the full
//! layout battery through [`harness::Grid`], fits every
//! [`ModelKind`] that the data admits, records each
//! model's error bounds, and memoizes the result. Nothing but the
//! battery is kept on disk: a restarted server reloads it from the grid
//! cache and refits, which takes milliseconds, so it answers its first
//! query without re-measuring anything.
//!
//! # Singleflight fitting
//!
//! A battery fit takes seconds to minutes, so the entries live in
//! [`Singleflight`] memos, which hold no lock across a fit: the first
//! query for a cold pair fits, concurrent queries for the *same* pair
//! share that one fit, and queries for *other* pairs (warm or cold)
//! proceed untouched. A fit that fails — or panics — reaches every
//! waiting query as a [`ServiceError`] and leaves no slot behind, so a
//! later query retries instead of hanging on a poisoned key.
//!
//! Counters expose the registry's behaviour to the metrics endpoint:
//! *hits* (served from memory, including waiters coalesced onto another
//! query's fit), *misses* (had to fit, measuring the battery unless the
//! grid cache holds it) and the *fitting* gauge (fits in flight right
//! now).

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use harness::{Grid, MeasureContext};
use machine::Platform;
use mosmodel::cv::k_fold;
use mosmodel::metrics::{geo_mean_err, max_err};
use mosmodel::{FittedModel, ModelKind};
use vmcore::parallel::{Flight, Singleflight};

use crate::cache::{FifoCache, PredictionCache};
use crate::protocol::RecommendReply;
use crate::ServiceError;

/// Default bound on the prediction cache (see [`PredictionCache`]).
pub const DEFAULT_PREDICTION_CACHE: usize = 1024;

/// Default bound on the recommendation cache: recommendations are
/// bulkier to compute (one simulation per candidate) but requests vary
/// over far fewer keys (budgets, not layouts), so a smaller cache holds
/// the working set.
pub const DEFAULT_RECOMMEND_CACHE: usize = 256;

/// Folds used for the per-pair cross-validation report (paper Table 6).
const CV_FOLDS: usize = 6;

/// Recommendation cache key:
/// `(workload, platform, canonical budget, threshold bits)`. The budget
/// component is the canonical [`recommend::render_budget`] string, so
/// spellings like `8x2m+8x2m` and `16x2m` share one entry; the
/// threshold enters as raw `f64` bits, keeping the key `Ord` and exact.
pub type RecommendKey = (String, String, String, u64);

/// One fitted model plus the error bounds measured on its fit dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct ServedModel {
    /// The fitted model.
    pub model: FittedModel,
    /// Maximal relative error over the fit dataset (paper Eq. 1).
    pub max_err: f64,
    /// Geometric-mean relative error (paper Eq. 2).
    pub geo_mean_err: f64,
}

/// Everything the server needs to answer queries for one pair: the
/// fitted models (with error bounds) and the measurement geometry for
/// running layout-spec simulations.
#[derive(Clone, Debug)]
pub struct RegistryEntry {
    /// Every model whose fit succeeded, in [`ModelKind::ALL`] order.
    pub models: Vec<ServedModel>,
    /// Pool geometry + trace parameters for single-layout measurement.
    pub ctx: MeasureContext,
}

impl RegistryEntry {
    /// The fitted model of the given kind, if its fit succeeded.
    pub fn model(&self, kind: ModelKind) -> Option<&ServedModel> {
        self.models.iter().find(|m| m.model.kind() == kind)
    }
}

/// Counts of how registry lookups were satisfied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryCounters {
    /// Lookups served from the in-memory memo (including waiters
    /// coalesced onto an in-flight fit).
    pub hits: u64,
    /// Lookups that had to fit, measuring the battery unless the grid
    /// cache already held it.
    pub misses: u64,
    /// Gauge: battery fits in flight right now.
    pub fitting: u64,
    /// Sampled batteries whose validation gate rejected the sampling
    /// plan, forcing a silent fallback to a full-trace battery. A
    /// nonzero value on a `--sampled` server means the configured
    /// window/period is not representative for some served pair.
    pub sampled_rejections: u64,
}

/// Holds the `fitting` gauge up for one fit, and lets it down even
/// when the fit unwinds.
struct FitInFlight<'a>(&'a AtomicU64);

impl<'a> FitInFlight<'a> {
    fn enter(gauge: &'a AtomicU64) -> Self {
        gauge.fetch_add(1, Ordering::SeqCst);
        FitInFlight(gauge)
    }
}

impl Drop for FitInFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One `(workload, platform)` pair as reported by the `pairs` verb.
#[derive(Clone, Debug, PartialEq)]
pub struct PairInfo {
    /// Workload name.
    pub workload: String,
    /// Platform name.
    pub platform: String,
    /// `true` once the pair's models are fitted and servable; `false`
    /// while a fit is still in flight.
    pub ready: bool,
    /// Fitted models available for the pair (0 while fitting).
    pub models: usize,
    /// The pair's K-fold CV error, or `NaN` if not yet computed (the
    /// memo fills on the first `recommend` for the pair).
    pub cv_err: f64,
}

/// Fits and memoizes models per `(workload, platform)`.
#[derive(Debug)]
pub struct ModelRegistry {
    grid: Grid,
    /// Fitted entries per pair; a failed fit carries its [`ServiceError`].
    entries: Singleflight<(String, String), Arc<RegistryEntry>, ServiceError>,
    cache: PredictionCache,
    rec_cache: FifoCache<RecommendKey, RecommendReply>,
    /// K-fold CV error per pair, memoized because one report costs
    /// `CV_FOLDS` refits; concurrent first callers share one run. A
    /// panicking run drops its message (`()`), answered as `INFINITY`.
    cv_errors: Singleflight<(String, String), f64, ()>,
    hits: AtomicU64,
    misses: AtomicU64,
    fitting: AtomicU64,
}

impl ModelRegistry {
    /// Creates a registry over `grid` with the default prediction-cache
    /// bound.
    ///
    /// `_no_store` is a placeholder that only `None` fills: it keeps
    /// the call sites of the retired model-store parameter compiling
    /// (the benchmark's among them), and it goes in the next change to
    /// the benchmark.
    pub fn new(grid: Grid, _no_store: Option<Infallible>) -> Self {
        Self::with_cache_capacity(grid, DEFAULT_PREDICTION_CACHE)
    }

    /// Creates a registry with an explicit prediction-cache bound
    /// (`0` disables the cache — every predict runs the simulation).
    pub fn with_cache_capacity(grid: Grid, cache_capacity: usize) -> Self {
        ModelRegistry {
            grid,
            entries: Singleflight::new(ServiceError::FitFailed),
            cache: FifoCache::new(cache_capacity),
            rec_cache: FifoCache::new(DEFAULT_RECOMMEND_CACHE),
            cv_errors: Singleflight::new(drop),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fitting: AtomicU64::new(0),
        }
    }

    /// Lookup-counter snapshot.
    pub fn counters(&self) -> RegistryCounters {
        RegistryCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fitting: self.fitting.load(Ordering::SeqCst),
            sampled_rejections: self.grid.sampled_rejections(),
        }
    }

    /// The measurement grid backing the registry.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The bounded prediction cache in front of the simulation path.
    pub fn prediction_cache(&self) -> &PredictionCache {
        &self.cache
    }

    /// The bounded recommendation cache in front of the candidate
    /// exploration + scoring path.
    pub fn recommend_cache(&self) -> &FifoCache<RecommendKey, RecommendReply> {
        &self.rec_cache
    }

    /// The pair's maximal K-fold cross-validation error (paper Table 6),
    /// memoized: the first call pays `CV_FOLDS` Mosmodel refits over the
    /// pair's battery dataset, and concurrent first calls share that one
    /// run. Returns `f64::INFINITY` when CV cannot be run (too few
    /// samples, every fold fails to fit, or the run panics) — the honest
    /// "no confidence" answer, which routes `recommend` to its
    /// active-learning branch.
    pub fn cv_error(&self, workload: &str, platform: &'static Platform) -> f64 {
        let key = (workload.to_string(), platform.name.to_string());
        let run = || {
            let dataset = self.grid.entry(workload, platform).dataset();
            let folds = CV_FOLDS.min(dataset.len());
            Ok(if folds < 2 {
                f64::INFINITY
            } else {
                k_fold(ModelKind::Mosmodel, &dataset, folds)
                    .map_or(f64::INFINITY, |report| report.max_err)
            })
        };
        match self.cv_errors.get_or_run(&key, run) {
            Flight::Hit(err) => err,
            Flight::Waited(result) | Flight::Ran(result) => result.unwrap_or(f64::INFINITY),
        }
    }

    /// Every pair the registry currently knows, ready or mid-fit, in
    /// key order. CV errors come from the memo only (a listing must
    /// never trigger refits); pairs whose CV has not finished report
    /// `NaN`.
    pub fn pairs(&self) -> Vec<PairInfo> {
        let cv: BTreeMap<_, _> = self.cv_errors.snapshot().into_iter().collect();
        self.entries
            .snapshot()
            .into_iter()
            .map(|(pair, entry)| {
                let cv_err = cv.get(&pair).copied().flatten().unwrap_or(f64::NAN);
                let (workload, platform) = pair;
                PairInfo {
                    workload,
                    platform,
                    ready: entry.is_some(),
                    models: entry.map_or(0, |e| e.models.len()),
                    cv_err,
                }
            })
            .collect()
    }

    /// Returns (fitting if needed) the entry for a pair.
    ///
    /// Concurrent first-queries for the same pair coalesce onto one fit;
    /// queries for other pairs never wait on it (the map lock is held
    /// only to claim or publish a slot, never across a fit).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownWorkload`] for names outside the workload
    /// registry, [`ServiceError::FitFailed`] if the fit panicked (the
    /// slot is released so a later query retries).
    pub fn entry(
        &self,
        workload: &str,
        platform: &'static Platform,
    ) -> Result<Arc<RegistryEntry>, ServiceError> {
        let key = (workload.to_string(), platform.name.to_string());
        let fit = || {
            let _in_flight = FitInFlight::enter(&self.fitting);
            self.build_entry(workload, platform)
        };
        match self.entries.get_or_run(&key, fit) {
            Flight::Hit(entry) | Flight::Waited(Ok(entry)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(entry)
            }
            Flight::Waited(result) | Flight::Ran(result) => result,
        }
    }

    /// The actual fit: resolve the workload, then measure (or reload
    /// from the grid cache) its battery and fit every model. Runs with
    /// no registry lock held.
    fn build_entry(
        &self,
        workload: &str,
        platform: &'static Platform,
    ) -> Result<Arc<RegistryEntry>, ServiceError> {
        // Fault-injection hook for the singleflight regression tests:
        // proving that a panicking fit releases its waiters (instead of
        // hanging them forever on a poisoned slot) requires a fit that
        // panics. Debug builds only; release registries treat the name
        // as an unknown workload.
        #[cfg(debug_assertions)]
        #[expect(
            clippy::panic,
            reason = "deliberate fault injection, compiled out of release; the latch-release test depends on it"
        )]
        if workload == "inject-fit-panic" {
            panic!("injected fit panic (requested by the singleflight regression test)");
        }
        let ctx = MeasureContext::new(self.grid.speed(), workload)
            .ok_or_else(|| ServiceError::UnknownWorkload(workload.to_string()))?;
        self.misses.fetch_add(1, Ordering::Relaxed);

        let dataset = self.grid.entry(workload, platform).dataset();
        let models = ModelKind::ALL
            .into_iter()
            .filter_map(|kind| {
                // A degenerate pair can make individual fits impossible
                // (e.g. M₄ₖ = 0 for Basu); serve the models that do fit.
                let model = kind.fit(&dataset).ok()?;
                Some(ServedModel {
                    max_err: max_err(&model, &dataset),
                    geo_mean_err: geo_mean_err(&model, &dataset),
                    model,
                })
            })
            .collect();
        Ok(Arc::new(RegistryEntry { models, ctx }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Speed;

    fn tiny_speed() -> Speed {
        Speed {
            name: "tiny",
            footprint_div: 1024,
            min_footprint: 48 << 20,
            accesses: 12_000,
            max_reps: 1,
        }
    }

    #[test]
    fn fits_memoizes_and_counts() {
        let registry = ModelRegistry::new(Grid::in_memory(tiny_speed()), None);
        let platform = &Platform::SANDY_BRIDGE;
        let a = registry.entry("gups/8GB", platform).unwrap();
        assert_eq!(
            registry.counters(),
            RegistryCounters {
                hits: 0,
                misses: 1,
                fitting: 0,
                sampled_rejections: 0,
            }
        );
        let b = registry.entry("gups/8GB", platform).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.counters().hits, 1);

        // Every anchor-complete battery admits all nine models.
        assert_eq!(a.models.len(), ModelKind::ALL.len());
        for m in &a.models {
            assert!(m.max_err >= m.geo_mean_err, "{}", m.model.kind());
        }
        assert!(registry.entry("no-such-workload", platform).is_err());
    }

    #[test]
    fn concurrent_first_queries_coalesce_onto_one_fit() {
        const THREADS: usize = 8;
        let registry = ModelRegistry::new(Grid::in_memory(tiny_speed()), None);
        let platform = &Platform::SANDY_BRIDGE;
        let entries: Vec<Arc<RegistryEntry>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| scope.spawn(|| registry.entry("gups/8GB", platform).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for entry in &entries {
            assert!(Arc::ptr_eq(entry, &entries[0]), "coalesced fits diverged");
        }
        let c = registry.counters();
        assert_eq!(c.misses, 1, "exactly one thread may fit");
        assert_eq!(c.fitting, 0, "the fitting gauge must return to zero");
        assert_eq!(
            c.hits + c.misses,
            THREADS as u64,
            "every query is a hit or the one miss"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn panicking_fit_releases_waiters_and_allows_retry() {
        let registry = ModelRegistry::new(Grid::in_memory(tiny_speed()), None);
        let platform = &Platform::SANDY_BRIDGE;
        // The injected panic must come back as a FitFailed error, not a
        // poisoned lock or a hang.
        match registry.entry("inject-fit-panic", platform) {
            Err(ServiceError::FitFailed(msg)) => assert!(msg.contains("injected"), "{msg}"),
            other => panic!("expected FitFailed, got {other:?}"),
        }
        // The slot was released: the same pair errors again (fresh
        // attempt) instead of deadlocking on a stale Pending latch.
        assert!(matches!(
            registry.entry("inject-fit-panic", platform),
            Err(ServiceError::FitFailed(_))
        ));
        assert_eq!(registry.counters().fitting, 0);
        // And the registry still serves healthy pairs.
        assert!(registry.entry("gups/8GB", platform).is_ok());
    }

    #[test]
    fn cv_error_is_memoized_and_finite_for_healthy_pairs() {
        let registry = ModelRegistry::new(Grid::in_memory(tiny_speed()), None);
        let platform = &Platform::SANDY_BRIDGE;
        registry.entry("gups/8GB", platform).unwrap();
        let first = registry.cv_error("gups/8GB", platform);
        assert!(first.is_finite(), "cv error {first}");
        assert!(first >= 0.0);
        // Memoized: the second call returns the same bits.
        let second = registry.cv_error("gups/8GB", platform);
        assert_eq!(first.to_bits(), second.to_bits());
    }

    #[test]
    fn pairs_lists_fitted_pairs_with_memoized_cv() {
        let registry = ModelRegistry::new(Grid::in_memory(tiny_speed()), None);
        let platform = &Platform::SANDY_BRIDGE;
        assert!(registry.pairs().is_empty());
        registry.entry("gups/8GB", platform).unwrap();
        let pairs = registry.pairs();
        assert_eq!(pairs.len(), 1);
        let info = &pairs[0];
        assert_eq!(info.workload, "gups/8GB");
        assert_eq!(info.platform, "SandyBridge");
        assert!(info.ready);
        assert_eq!(info.models, ModelKind::ALL.len());
        assert!(info.cv_err.is_nan(), "cv memo must not fill on listing");
        // After a cv_error call the listing reports the memoized value.
        let cv = registry.cv_error("gups/8GB", platform);
        let info = registry.pairs().remove(0);
        assert_eq!(info.cv_err.to_bits(), cv.to_bits());
    }
    #[test]
    fn one_pair_can_fill_the_whole_prediction_cache() {
        const N: usize = 1024;
        let registry = ModelRegistry::with_cache_capacity(Grid::in_memory(tiny_speed()), N);
        let cache = registry.prediction_cache();
        let key = |i: usize| {
            let layout = format!("2MB[{i}]");
            (
                "gups/8GB".to_string(),
                "SandyBridge".to_string(),
                layout,
                "mosmodel",
            )
        };
        let prediction = |i: usize| crate::protocol::Prediction {
            runtime_cycles: i as u64,
            stlb_hits: 1,
            stlb_misses: 2,
            walk_cycles: 3,
            model: ModelKind::Mosmodel,
            predicted: i as f64,
            max_err: 0.1,
            geo_mean_err: 0.05,
        };
        for i in 0..=N {
            cache.insert(key(i), prediction(i));
        }
        assert_eq!(cache.len(), N, "one pair must hold the full capacity");
        assert_eq!(cache.get(&key(0)), None, "FIFO evicts the first layout");
        for i in 1..=N {
            assert_eq!(cache.get(&key(i)), Some(prediction(i)), "layout {i}");
        }
    }
}
