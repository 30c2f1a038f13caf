//! The model registry: fit once, serve forever.
//!
//! For each `(workload, platform)` pair the registry measures the full
//! layout battery through [`harness::Grid`], fits every
//! [`ModelKind`] that the data admits, records each
//! model's error bounds, and memoizes the result. When given a store
//! directory it also persists the fitted coefficients in the versioned
//! [`mosmodel::persist`] text format, so a later server process answers
//! its first query without re-measuring anything.
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
//! query's fit), *disk loads* (revived from the persisted store),
//! *misses* (had to measure and fit) and the *fitting* gauge (fits in
//! flight right now).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use harness::{Grid, MeasureContext};
use machine::Platform;
use mosmodel::cv::k_fold;
use mosmodel::metrics::{geo_mean_err, max_err};
use mosmodel::persist::{
    decode_bundle, encode_bundle, encode_component, ModelBundle, PersistedModel,
};
use mosmodel::ModelKind;
use vmcore::parallel::{Flight, Singleflight};

use crate::cache::{pair_shard, FifoCache, ShardedPredictionCache, CACHE_SHARDS};
use crate::protocol::RecommendReply;
use crate::ServiceError;

/// Default bound on the prediction cache (see
/// [`ShardedPredictionCache`]).
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

/// Everything the server needs to answer queries for one pair: the
/// fitted models (with error bounds) and the measurement geometry for
/// running layout-spec simulations.
#[derive(Clone, Debug)]
pub struct RegistryEntry {
    /// Fitted models and their error bounds.
    pub bundle: ModelBundle,
    /// Pool geometry + trace parameters for single-layout measurement.
    pub ctx: MeasureContext,
}

impl RegistryEntry {
    /// The persisted model of the given kind, if its fit succeeded.
    pub fn model(&self, kind: ModelKind) -> Option<&PersistedModel> {
        self.bundle.models.iter().find(|m| m.model.kind() == kind)
    }
}

/// Counts of how registry lookups were satisfied.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryCounters {
    /// Lookups served from the in-memory memo (including waiters
    /// coalesced onto an in-flight fit).
    pub hits: u64,
    /// Lookups revived from the on-disk model store.
    pub disk_loads: u64,
    /// Lookups that had to measure the battery and fit from scratch.
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

/// One shard of the entries map; a failed fit carries its
/// [`ServiceError`].
type EntryShard = Singleflight<(String, String), Arc<RegistryEntry>, ServiceError>;

/// Fits, persists, and memoizes models per `(workload, platform)`.
///
/// The entries map is sharded per `(workload, platform)` (FNV-1a via
/// [`pair_shard`], the same selector the prediction cache uses), so
/// warm lookups for distinct pairs read distinct locks instead of
/// contending on one global map. Shard membership is a pure function of
/// the pair, and cross-shard listings merge through a `BTreeMap`, so
/// sharding never perturbs determinism.
#[derive(Debug)]
pub struct ModelRegistry {
    grid: Grid,
    store_dir: Option<PathBuf>,
    entries: Vec<EntryShard>,
    cache: ShardedPredictionCache,
    rec_cache: FifoCache<RecommendKey, RecommendReply>,
    // K-fold CV error per fitted pair, memoized because one report costs
    // CV_FOLDS refits. BTreeMap for the same determinism reason as
    // `entries`.
    cv_errors: RwLock<BTreeMap<(String, String), f64>>,
    hits: AtomicU64,
    disk_loads: AtomicU64,
    misses: AtomicU64,
    fitting: AtomicU64,
}

impl ModelRegistry {
    /// Creates a registry over `grid`, persisting fitted models under
    /// `store_dir` (`None` keeps everything in memory — hermetic tests),
    /// with the default prediction-cache bound.
    pub fn new(grid: Grid, store_dir: Option<PathBuf>) -> Self {
        Self::with_cache_capacity(grid, store_dir, DEFAULT_PREDICTION_CACHE)
    }

    /// Creates a registry with an explicit prediction-cache bound
    /// (`0` disables the cache — every predict runs the simulation).
    pub fn with_cache_capacity(
        grid: Grid,
        store_dir: Option<PathBuf>,
        cache_capacity: usize,
    ) -> Self {
        ModelRegistry {
            grid,
            store_dir,
            entries: (0..CACHE_SHARDS)
                .map(|_| Singleflight::new(ServiceError::FitFailed))
                .collect(),
            cache: ShardedPredictionCache::new(cache_capacity),
            rec_cache: FifoCache::new(DEFAULT_RECOMMEND_CACHE),
            cv_errors: RwLock::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            disk_loads: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fitting: AtomicU64::new(0),
        }
    }

    /// The default on-disk store location.
    pub fn default_store_dir() -> PathBuf {
        std::env::var("MOSAIC_MODEL_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/mosaic-models"))
    }

    /// Lookup-counter snapshot.
    pub fn counters(&self) -> RegistryCounters {
        RegistryCounters {
            hits: self.hits.load(Ordering::Relaxed),
            disk_loads: self.disk_loads.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            fitting: self.fitting.load(Ordering::SeqCst),
            sampled_rejections: self.grid.sampled_rejections(),
        }
    }

    /// The measurement grid backing the registry.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The bounded, sharded prediction cache in front of the simulation
    /// path.
    pub fn prediction_cache(&self) -> &ShardedPredictionCache {
        &self.cache
    }

    /// The shard of the entries map that owns `key`. The selector
    /// reduces mod the shard count, so the lookup is total for the
    /// nonempty shard vector the constructor builds; the static empty
    /// shard is unreachable insurance, not a code path.
    fn entries_shard(&self, key: &(String, String)) -> &EntryShard {
        static FALLBACK: EntryShard = Singleflight::new(ServiceError::FitFailed);
        self.entries
            .get(pair_shard(&key.0, &key.1, self.entries.len()))
            .unwrap_or(&FALLBACK)
    }

    /// Pairs resident per entries shard, in shard-index order.
    pub fn entry_shard_lens(&self) -> Vec<usize> {
        self.entries
            .iter()
            .map(|shard| shard.snapshot().len())
            .collect()
    }

    /// The bounded recommendation cache in front of the candidate
    /// exploration + scoring path.
    pub fn recommend_cache(&self) -> &FifoCache<RecommendKey, RecommendReply> {
        &self.rec_cache
    }

    /// The pair's maximal K-fold cross-validation error (paper Table 6),
    /// memoized: the first call pays `CV_FOLDS` Mosmodel refits over the
    /// pair's battery dataset. Returns `f64::INFINITY` when CV cannot be
    /// run (too few samples, or every fold fails to fit) — the honest
    /// "no confidence" answer, which routes `recommend` to its
    /// active-learning branch.
    pub fn cv_error(&self, workload: &str, platform: &'static Platform) -> f64 {
        let key = (workload.to_string(), platform.name.to_string());
        if let Some(&err) = self
            .cv_errors
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return err;
        }
        let dataset = self.grid.entry(workload, platform).dataset();
        let folds = CV_FOLDS.min(dataset.len());
        let err = if folds < 2 {
            f64::INFINITY
        } else {
            k_fold(ModelKind::Mosmodel, &dataset, folds)
                .map_or(f64::INFINITY, |report| report.max_err)
        };
        self.cv_errors
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, err);
        err
    }

    /// Every pair the registry currently knows, ready or mid-fit, in
    /// deterministic key order. CV errors come from the memo only (a
    /// listing must never trigger refits); pairs whose `recommend` has
    /// not run yet report `NaN`.
    pub fn pairs(&self) -> Vec<PairInfo> {
        let cv = self
            .cv_errors
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        // Merge the shards through a BTreeMap so the listing stays in
        // deterministic key order regardless of shard assignment.
        let mut merged: BTreeMap<(String, String), (bool, usize)> = BTreeMap::new();
        for shard in &self.entries {
            for (pair, entry) in shard.snapshot() {
                let status = entry.map_or((false, 0), |e| (true, e.bundle.models.len()));
                merged.insert(pair, status);
            }
        }
        merged
            .into_iter()
            .map(|((workload, platform), (ready, models))| {
                let cv_err = cv
                    .get(&(workload.clone(), platform.clone()))
                    .copied()
                    .unwrap_or(f64::NAN);
                PairInfo {
                    workload,
                    platform,
                    ready,
                    models,
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
        match self.entries_shard(&key).get_or_run(&key, fit) {
            Flight::Hit(entry) | Flight::Waited(Ok(entry)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(entry)
            }
            Flight::Waited(result) | Flight::Ran(result) => result,
        }
    }

    /// The actual fit: resolve the workload, revive from the store or
    /// measure + fit + persist. Runs with no registry lock held.
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

        let bundle = match self.load_store(workload, platform.name) {
            Some(bundle) => {
                self.disk_loads.fetch_add(1, Ordering::Relaxed);
                bundle
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let bundle = self.fit_bundle(workload, platform);
                self.persist(&bundle);
                bundle
            }
        };

        Ok(Arc::new(RegistryEntry { bundle, ctx }))
    }

    /// The store file of a pair. Each name goes through the injective
    /// [`encode_component`], shared with the grid cache, so distinct
    /// pairs never share a store file (colliding pairs would fail the
    /// identity check in `load_store`, refit on every start and
    /// overwrite each other's store).
    fn store_path(&self, workload: &str, platform: &str) -> Option<PathBuf> {
        let dir = self.store_dir.as_ref()?;
        Some(dir.join(format!(
            "{}_{}_{}.models",
            encode_component(self.grid.speed().name),
            encode_component(workload),
            encode_component(platform),
        )))
    }

    fn load_store(&self, workload: &str, platform: &str) -> Option<ModelBundle> {
        let path = self.store_path(workload, platform)?;
        let text = fs::read_to_string(path).ok()?;
        let bundle = decode_bundle(&text).ok()?;
        // A renamed or hand-edited file must not serve the wrong pair.
        (bundle.workload == workload && bundle.platform == platform).then_some(bundle)
    }

    fn persist(&self, bundle: &ModelBundle) {
        let Some(path) = self.store_path(&bundle.workload, &bundle.platform) else {
            return;
        };
        if let Some(parent) = path.parent() {
            if let Err(e) = fs::create_dir_all(parent) {
                eprintln!(
                    "mosaicd: cannot create model store {}: {e}",
                    parent.display()
                );
                return;
            }
        }
        if let Err(e) = fs::write(&path, encode_bundle(bundle)) {
            eprintln!(
                "mosaicd: model store write to {} failed (ignored): {e}",
                path.display()
            );
        }
    }

    fn fit_bundle(&self, workload: &str, platform: &'static Platform) -> ModelBundle {
        let dataset = self.grid.entry(workload, platform).dataset();
        let models = ModelKind::ALL
            .into_iter()
            .filter_map(|kind| {
                // A degenerate pair can make individual fits impossible
                // (e.g. M₄ₖ = 0 for Basu); serve the models that do fit.
                let model = kind.fit(&dataset).ok()?;
                Some(PersistedModel {
                    max_err: max_err(&model, &dataset),
                    geo_mean_err: geo_mean_err(&model, &dataset),
                    model,
                })
            })
            .collect();
        ModelBundle {
            workload: workload.to_string(),
            platform: platform.name.to_string(),
            models,
        }
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mosaicd-registry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
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
                disk_loads: 0,
                misses: 1,
                fitting: 0,
                sampled_rejections: 0,
            }
        );
        let b = registry.entry("gups/8GB", platform).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(registry.counters().hits, 1);

        // The pair lives in exactly one of the entry shards.
        let shard_lens = registry.entry_shard_lens();
        assert_eq!(shard_lens.len(), CACHE_SHARDS);
        assert_eq!(shard_lens.iter().sum::<usize>(), 1);

        // Every anchor-complete battery admits all nine models.
        assert_eq!(a.bundle.models.len(), ModelKind::ALL.len());
        for m in &a.bundle.models {
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
    fn persisted_store_is_reused_across_registries() {
        let dir = temp_dir("reuse");
        let platform = &Platform::SANDY_BRIDGE;

        let first = ModelRegistry::new(Grid::in_memory(tiny_speed()), Some(dir.clone()));
        let fitted = first.entry("gups/8GB", platform).unwrap();
        assert_eq!(first.counters().misses, 1);

        // A fresh registry (fresh process, conceptually) loads from disk:
        // zero misses, identical coefficients.
        let second = ModelRegistry::new(Grid::in_memory(tiny_speed()), Some(dir.clone()));
        let reloaded = second.entry("gups/8GB", platform).unwrap();
        let c = second.counters();
        assert_eq!((c.misses, c.disk_loads), (0, 1));
        assert_eq!(fitted.bundle, reloaded.bundle);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_independent_fits_persist_byte_identical_stores() {
        let (dir_a, dir_b) = (temp_dir("det-a"), temp_dir("det-b"));
        for dir in [&dir_a, &dir_b] {
            let registry = ModelRegistry::new(Grid::in_memory(tiny_speed()), Some(dir.clone()));
            registry.entry("gups/8GB", &Platform::SANDY_BRIDGE).unwrap();
        }
        let file = "tiny_gups%2F8GB_SandyBridge.models";
        let a = fs::read(dir_a.join(file)).unwrap();
        let b = fs::read(dir_b.join(file)).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "identical fits persisted different bytes");
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn corrupt_store_files_fall_back_to_fitting() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("tiny_gups%2F8GB_SandyBridge.models"),
            "# mosaic-models v999\n",
        )
        .unwrap();
        let registry = ModelRegistry::new(Grid::in_memory(tiny_speed()), Some(dir.clone()));
        let entry = registry.entry("gups/8GB", &Platform::SANDY_BRIDGE).unwrap();
        assert_eq!(registry.counters().misses, 1, "bad version must refit");
        assert!(!entry.bundle.models.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stores_from_an_older_format_are_refitted() {
        // A store from an older format (v1: fitted by an older solver)
        // must be refitted, not served.
        let dir = temp_dir("v1");
        let file = dir.join("tiny_gups%2F8GB_SandyBridge.models");
        let platform = &Platform::SANDY_BRIDGE;
        let fresh = ModelRegistry::new(Grid::in_memory(tiny_speed()), Some(dir.clone()));
        let fitted = fresh.entry("gups/8GB", platform).unwrap();
        let current = fs::read_to_string(&file).unwrap();
        let header = format!("# mosaic-models v{}\n", mosmodel::persist::FORMAT_VERSION);
        assert!(current.starts_with(&header), "{current:.40}");
        fs::write(&file, current.replacen(&header, "# mosaic-models v1\n", 1)).unwrap();

        let upgraded = ModelRegistry::new(Grid::in_memory(tiny_speed()), Some(dir.clone()));
        let refitted = upgraded.entry("gups/8GB", platform).unwrap();
        let c = upgraded.counters();
        assert_eq!((c.misses, c.disk_loads), (1, 0), "a v1 store must refit");
        assert_eq!(refitted.bundle, fitted.bundle);
        assert_eq!(
            fs::read_to_string(&file).unwrap(),
            current,
            "the refit rewrites the store"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_paths_never_collide() {
        let registry =
            ModelRegistry::new(Grid::in_memory(tiny_speed()), Some(PathBuf::from("/store")));
        // The old scheme mapped all three of these to `a_b`: colliding
        // pairs failed the identity check in load_store, refit every
        // process start, and overwrote each other's store file.
        let colliding = ["a/b", "a b", "a_b"];
        let paths: Vec<PathBuf> = colliding
            .iter()
            .map(|w| registry.store_path(w, "SandyBridge").unwrap())
            .collect();
        for (i, a) in paths.iter().enumerate() {
            for b in paths.iter().skip(i + 1) {
                assert_ne!(a, b, "colliding store paths for {colliding:?}");
            }
        }
        // Encoding is stable and keeps safe characters readable.
        assert_eq!(encode_component("gups/8GB"), "gups%2F8GB");
        assert_eq!(encode_component("a_b"), "a%5Fb");
        assert_eq!(encode_component("a b"), "a%20b");
        assert_eq!(encode_component("Broadwell-1.2"), "Broadwell-1.2");
        assert_eq!(encode_component("100%"), "100%25");
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
}
