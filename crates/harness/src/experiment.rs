//! The measurement grid: workload × platform × layout → PMU counters.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use machine::{profile_tlb_misses, Engine, EngineConfig, Platform};
use mosalloc::{Mosalloc, MosallocConfig, PoolSpec};
use mosmodel::dataset::{Dataset, LayoutKind, Sample};
use vmcore::parallel::{Flight, Singleflight};
use vmcore::{MemoryLayout, PageSize, PmuCounters, Region, VirtAddr};
use workloads::{sampling, Access, TraceParams, WorkloadSpec};

use crate::grid_codec::{encode_component, fmt_f64_shortest, parse_entry, render_entry};
use crate::sampled::{self, BatteryMode, GateReport, SampledConfig};
use crate::{parallel, Speed};

/// One measured run: a layout and its counters.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Human-readable layout description.
    pub description: String,
    /// Anchor classification of the layout.
    pub kind: LayoutKind,
    /// The PMU readout of the run (mean over repetitions when the speed
    /// preset repeats runs).
    pub counters: PmuCounters,
    /// Coefficient of variation of the runtime across repetitions (the
    /// paper's §VI-A stopping criterion keeps this below 5%). Zero for
    /// single-repetition presets.
    pub cv_r: f64,
}

impl RunRecord {
    /// Converts the record into a model-fitting sample.
    pub fn sample(&self) -> Sample {
        Sample::from_counters(&self.counters, self.kind)
    }
}

/// All measurements for one (workload, platform) pair: the 54-layout
/// battery plus the held-out all-1GB run.
#[derive(Clone, Debug, PartialEq)]
pub struct GridEntry {
    /// Workload name (paper spelling, e.g. `"gups/16GB"`).
    pub workload: String,
    /// Platform or machine-variant name.
    pub platform: String,
    /// All runs, battery order first, the all-1GB run last.
    pub records: Vec<RunRecord>,
    /// How the records were measured: full traces, or periodic windows
    /// extrapolated to full scale. Persisted in the cache header so a
    /// sampled entry can never be mistaken for a full one.
    pub mode: BatteryMode,
    /// The cross-validation gate's verdict, when a sampled build was
    /// attempted: `accepted` evidence for a sampled entry, or the
    /// recorded rejection on a full entry a failed gate fell back to.
    /// `None` for plain full batteries that never involved the gate.
    pub gate: Option<GateReport>,
}

impl GridEntry {
    /// The model-fitting dataset: every run **except** the all-1GB one
    /// (which the paper holds out for the §VII-D case study).
    pub fn dataset(&self) -> Dataset {
        self.records
            .iter()
            .filter(|r| r.kind != LayoutKind::All1G)
            .map(RunRecord::sample)
            .collect()
    }

    /// Every run including the all-1GB measurement.
    pub fn full_dataset(&self) -> Dataset {
        self.records.iter().map(RunRecord::sample).collect()
    }

    /// The first record of the given layout kind.
    pub fn record(&self, kind: LayoutKind) -> Option<&RunRecord> {
        self.records.iter().find(|r| r.kind == kind)
    }

    /// The paper's TLB-sensitivity test (§VI-A): does the best hugepage
    /// layout improve runtime by at least 5% over all-4KB?
    pub fn is_tlb_sensitive(&self) -> bool {
        self.full_dataset()
            .tlb_sensitivity()
            .is_some_and(|s| s >= 0.05)
    }

    /// The worst runtime variation across all layouts (§VI-A demands
    /// this stays below 5%).
    pub fn max_cv(&self) -> f64 {
        self.records.iter().map(|r| r.cv_r).fold(0.0, f64::max)
    }

    /// Serializes the entry as its on-disk TSV cache document — the
    /// exact bytes [`Grid`] persists, so tests and tooling can compare
    /// independently measured entries byte-for-byte.
    pub fn to_tsv(&self) -> String {
        render_entry(self)
    }

    /// Parses a document written by [`GridEntry::to_tsv`]. Returns
    /// `None` for any other version, a truncated document, or a record
    /// that fails to parse — the caller re-measures instead of serving
    /// corrupt data.
    pub fn from_tsv(workload: &str, platform: &str, text: &str) -> Option<GridEntry> {
        parse_entry(workload, platform, text)
    }
}

/// A named machine variant: a platform (possibly hypothetical) plus an
/// engine configuration, measurable as a first-class grid column.
///
/// # Example
///
/// ```no_run
/// use harness::{Grid, MachineVariant, Speed};
/// use machine::{EngineConfig, Platform};
/// use vmcore::PageSize;
///
/// let grid = Grid::new(Speed::FAST);
/// let virtualized = MachineVariant {
///     name: "SNB-virt-4K".into(),
///     platform: Platform::SANDY_BRIDGE,
///     config: EngineConfig {
///         virtualized: Some(PageSize::Base4K),
///         ..EngineConfig::default()
///     },
/// };
/// let entry = grid.entry_variant("spec06/mcf", &virtualized);
/// assert_eq!(entry.records.len(), 55);
/// ```
#[derive(Clone, Debug)]
pub struct MachineVariant {
    /// Unique name (used as the cache key; keep it filesystem-safe).
    pub name: String,
    /// The (possibly hypothetical) platform.
    pub platform: Platform,
    /// Engine configuration (placement salt, virtualization).
    pub config: EngineConfig,
}

impl MachineVariant {
    /// Wraps a real platform with the default engine configuration.
    pub fn real(platform: &'static Platform) -> Self {
        MachineVariant {
            name: platform.name.to_string(),
            platform: platform.clone(),
            config: EngineConfig::default(),
        }
    }
}

/// Lazily evaluated, memoized (in memory and on disk) measurement grid.
///
/// Concurrent requests for one cold pair coalesce onto a single
/// battery through a [`Singleflight`] memo (no lock is held across a
/// measurement), and each battery fans its layouts out over
/// [`Grid::jobs`] worker threads with a fixed reduction order, so the
/// persisted TSV bytes are identical for every worker count.
///
/// # Example
///
/// ```no_run
/// use harness::{Grid, Speed};
/// use machine::Platform;
///
/// let grid = Grid::new(Speed::FAST);
/// let entry = grid.entry("spec06/mcf", &Platform::SANDY_BRIDGE);
/// assert_eq!(entry.records.len(), 55); // 54-layout battery + all-1GB
/// ```
#[derive(Debug)]
pub struct Grid {
    speed: Speed,
    /// Battery worker threads per [`compute_entry`] fan-out.
    jobs: usize,
    /// Measured entries per (workload, variant); a failed battery
    /// carries its panic message.
    memo: Singleflight<(String, String), Arc<GridEntry>, String>,
    disk_dir: Option<PathBuf>,
    /// Batteries actually simulated (not memo hits or disk loads) —
    /// the singleflight tests pin this to exactly one per cold pair.
    computed: AtomicU64,
    /// Layout simulations those batteries ran.
    simulated: AtomicU64,
    /// Interval-sampling configuration; `None` measures full traces.
    sampled: Option<SampledConfig>,
    /// Sampled batteries whose anchor cross-validation exceeded the
    /// bound and fell back to full measurement.
    rejections: AtomicU64,
}

impl Grid {
    /// Creates a grid with the default on-disk cache
    /// (`target/mosaic-cache`, disable with `MOSAIC_NO_DISK_CACHE=1`)
    /// and the default worker count ([`parallel::resolve_jobs`]:
    /// `MOSAIC_JOBS`, else available parallelism).
    pub fn new(speed: Speed) -> Self {
        let disk = match std::env::var("MOSAIC_NO_DISK_CACHE") {
            Ok(v) if v == "1" => None,
            _ => Some(
                std::env::var("MOSAIC_CACHE_DIR")
                    .map(PathBuf::from)
                    .unwrap_or_else(|_| PathBuf::from("target/mosaic-cache")),
            ),
        };
        Grid {
            speed,
            jobs: parallel::resolve_jobs(None),
            memo: Singleflight::new(std::convert::identity),
            disk_dir: disk,
            computed: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            sampled: SampledConfig::from_env(),
            rejections: AtomicU64::new(0),
        }
    }

    /// Creates a grid without the on-disk cache (hermetic tests). The
    /// environment's `MOSAIC_SAMPLED` is deliberately ignored too —
    /// hermetic grids measure full traces unless [`Grid::with_sampled`]
    /// opts in explicitly.
    pub fn in_memory(speed: Speed) -> Self {
        Grid {
            speed,
            jobs: parallel::resolve_jobs(None),
            memo: Singleflight::new(std::convert::identity),
            disk_dir: None,
            computed: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            sampled: None,
            rejections: AtomicU64::new(0),
        }
    }

    /// Overrides the battery worker count (clamped to at least one).
    /// `jobs = 1` is the serial baseline the determinism pins compare
    /// parallel builds against.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The battery worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Enables validated interval sampling: batteries replay periodic
    /// trace windows and extrapolate, but only after the anchor
    /// cross-validation gate accepts the configuration for the pair —
    /// otherwise the grid falls back to a full battery and records the
    /// rejection (see [`Grid::sampled_rejections`]).
    #[must_use]
    pub fn with_sampled(mut self, cfg: SampledConfig) -> Self {
        self.sampled = Some(cfg);
        self
    }

    /// The active sampling configuration, if any.
    pub fn sampled(&self) -> Option<SampledConfig> {
        self.sampled
    }

    /// Sampled batteries this grid refused: the gate measured an anchor
    /// error above the bound and fell back to full measurement.
    pub fn sampled_rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// Batteries this grid has actually simulated — memo hits, coalesced
    /// waiters, and disk loads do not count.
    pub fn batteries_computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Layout simulations those batteries ran, each over all its
    /// repetitions. A full battery simulates each distinct replay once:
    /// layouts that give every access of the trace the same page size
    /// share one simulation. A sampled battery adds the full-trace runs
    /// of its gate anchors' replays, and a rejected gate adds the full
    /// runs of the other replays.
    pub fn layouts_simulated(&self) -> u64 {
        self.simulated.load(Ordering::Relaxed)
    }

    /// The active speed preset.
    pub fn speed(&self) -> Speed {
        self.speed
    }

    /// Returns (computing if needed) the grid entry for a pair.
    ///
    /// # Panics
    ///
    /// Panics if the workload name is unknown.
    pub fn entry(&self, workload: &str, platform: &'static Platform) -> Arc<GridEntry> {
        self.entry_variant(workload, &MachineVariant::real(platform))
    }

    /// Returns the grid entry for a workload on an arbitrary
    /// [`MachineVariant`] — hypothetical designs and virtualized machines
    /// get the same 54-layout battery treatment as the paper platforms.
    ///
    /// # Panics
    ///
    /// Panics if the workload name is unknown.
    pub fn entry_variant(&self, workload: &str, variant: &MachineVariant) -> Arc<GridEntry> {
        let key = (workload.to_string(), variant.name.clone());
        match self
            .memo
            .get_or_run(&key, || Ok(self.load_or_measure(workload, variant)))
        {
            Flight::Hit(entry) | Flight::Waited(Ok(entry)) | Flight::Ran(Ok(entry)) => entry,
            // The battery's own panic, re-raised in the thread that ran it.
            Flight::Ran(Err(msg)) => std::panic::resume_unwind(Box::new(msg)),
            Flight::Waited(Err(msg)) => panic!(
                "battery for ({workload}, {variant}) failed in a concurrent \
                 request: {msg}",
                variant = variant.name
            ),
        }
    }

    /// The slow path for a pair this thread claimed: the disk cache, or
    /// else the battery (persisted before it is returned).
    fn load_or_measure(&self, workload: &str, variant: &MachineVariant) -> Arc<GridEntry> {
        if let Some(entry) = self.load_disk(workload, &variant.name) {
            return Arc::new(entry);
        }
        self.computed.fetch_add(1, Ordering::Relaxed);
        let entry = compute_entry(
            self.speed,
            self.jobs,
            self.sampled,
            workload,
            variant,
            &self.simulated,
        );
        if entry.gate.as_ref().is_some_and(|g| !g.accepted) {
            self.rejections.fetch_add(1, Ordering::Relaxed);
        }
        let entry = Arc::new(entry);
        self.store_disk(&entry);
        entry
    }

    /// Convenience: the 54-sample model-fitting dataset for a pair.
    pub fn dataset(&self, workload: &str, platform: &'static Platform) -> Dataset {
        self.entry(workload, platform).dataset()
    }

    /// The workloads that are TLB-sensitive on `platform` (the paper
    /// excludes insensitive pairs, e.g. gapbs/bfs-road on Broadwell).
    pub fn tlb_sensitive_workloads(&self, platform: &'static Platform) -> Vec<String> {
        workloads::registry()
            .into_iter()
            .map(|w| w.name.to_string())
            .filter(|name| self.entry(name, platform).is_tlb_sensitive())
            .collect()
    }

    fn cache_path(&self, workload: &str, platform: &str) -> Option<PathBuf> {
        let dir = self.disk_dir.as_ref()?;
        // Percent-encode each component (`encode_component`): the
        // old `replace(['/', ' '], "_")` mapped distinct workloads like
        // "a/b", "a b", and "a_b" onto one cache file, silently serving
        // one pair's counters for another. A sampled grid's files carry
        // the full (window, period, bound) configuration as a suffix so
        // they can never collide with full-battery files or with a
        // differently-configured sampled grid's.
        let mode_tag = match self.sampled {
            None => String::new(),
            Some(cfg) => format!(
                "_s{}-{}-{}",
                cfg.window,
                cfg.period,
                encode_component(&fmt_f64_shortest(cfg.bound)),
            ),
        };
        Some(dir.join(format!(
            "{}_{}_{}{}.tsv",
            encode_component(self.speed.name),
            encode_component(workload),
            encode_component(platform),
            mode_tag,
        )))
    }

    fn load_disk(&self, workload: &str, variant: &str) -> Option<GridEntry> {
        let path = self.cache_path(workload, variant)?;
        let text = fs::read_to_string(path).ok()?;
        let entry = parse_entry(workload, variant, &text)?;
        // Belt and suspenders on top of the path suffix: a cached entry
        // is served only if its persisted mode/gate metadata matches
        // this grid's configuration exactly (bound compared by bits).
        self.entry_matches_mode(&entry).then_some(entry)
    }

    /// Does a cached entry belong to this grid's battery mode? A full
    /// grid serves only full, ungated entries. A sampled grid serves
    /// entries stamped with its exact configuration: an accepted sampled
    /// battery, or the recorded full fallback of a rejected gate.
    fn entry_matches_mode(&self, entry: &GridEntry) -> bool {
        match self.sampled {
            None => entry.mode == BatteryMode::Full && entry.gate.is_none(),
            Some(cfg) => match (entry.mode, &entry.gate) {
                (BatteryMode::Sampled { window, period }, Some(g)) => {
                    g.accepted
                        && window == cfg.window
                        && period == cfg.period
                        && g.bound.to_bits() == cfg.bound.to_bits()
                }
                (BatteryMode::Full, Some(g)) => {
                    !g.accepted
                        && g.window == cfg.window
                        && g.period == cfg.period
                        && g.bound.to_bits() == cfg.bound.to_bits()
                }
                _ => false,
            },
        }
    }

    fn store_disk(&self, entry: &GridEntry) {
        let Some(path) = self.cache_path(&entry.workload, &entry.platform) else {
            return;
        };
        if let Some(parent) = path.parent() {
            if let Err(e) = fs::create_dir_all(parent) {
                eprintln!("mosaic: cannot create cache dir {}: {e}", parent.display());
                return;
            }
        }
        // Write-then-rename: a concurrent reader either sees the old
        // complete file or the new complete file, never a torn prefix.
        // The pid suffix keeps two processes from clobbering each
        // other's temporaries; rename itself is atomic on POSIX.
        let tmp = path.with_extension(format!("tsv.tmp.{}", std::process::id()));
        // A failed write only costs re-measurement next run, but silence
        // would hide a misconfigured MOSAIC_CACHE_DIR forever.
        if let Err(e) = fs::write(&tmp, render_entry(entry)) {
            eprintln!(
                "mosaic: cache write to {} failed (ignored): {e}",
                tmp.display()
            );
            let _ = fs::remove_file(&tmp);
            return;
        }
        if let Err(e) = fs::rename(&tmp, &path) {
            eprintln!(
                "mosaic: cache publish to {} failed (ignored): {e}",
                path.display()
            );
            let _ = fs::remove_file(&tmp);
        }
    }
}

/// Classifies a layout into its anchor kind.
pub(crate) fn classify(layout: &MemoryLayout) -> LayoutKind {
    if layout.windows().is_empty() {
        return LayoutKind::All4K;
    }
    if layout.bytes_backed_by(PageSize::Base4K) == 0 {
        let all_2m = layout.windows().iter().all(|w| w.size == PageSize::Huge2M);
        let all_1g = layout.windows().iter().all(|w| w.size == PageSize::Huge1G);
        if all_2m {
            return LayoutKind::All2M;
        }
        if all_1g {
            return LayoutKind::All1G;
        }
    }
    LayoutKind::Mixed
}

/// Builds the Mosalloc configuration whose heap pool realizes `layout`.
fn config_for_layout(pool: Region, layout: &MemoryLayout) -> MosallocConfig {
    let mut brk = PoolSpec::plain(pool.len());
    for w in layout.windows() {
        let start = w.region.start().raw().saturating_sub(pool.start().raw());
        let end = w.region.end() - pool.start();
        brk = brk.with_window(start, end, w.size);
    }
    MosallocConfig {
        brk,
        anon: PoolSpec::plain(64 << 20),
        file: PoolSpec::plain(64 << 20),
    }
}

/// The fixed measurement geometry for one `(speed, workload)` pair: the
/// heap pool region and the trace parameters every layout of that pair is
/// measured against. Splitting this out of the battery loop lets callers
/// (e.g. the prediction service) measure *single* layouts on demand with
/// exactly the grid's methodology.
#[derive(Clone, Debug)]
pub struct MeasureContext {
    spec: WorkloadSpec,
    speed: Speed,
    pool: Region,
    params: TraceParams,
}

impl MeasureContext {
    /// Builds the context for a named workload, or `None` if the name is
    /// unknown.
    pub fn new(speed: Speed, workload: &str) -> Option<Self> {
        let spec = WorkloadSpec::by_name(workload)?;
        let footprint = speed.footprint(spec.nominal_footprint);
        let accesses = speed.trace_len(spec.access_factor);
        let seed = fnv(workload.as_bytes());

        // Claim the arena from a plain Mosalloc to fix the pool geometry.
        let probe_alloc = Mosalloc::new(MosallocConfig {
            brk: PoolSpec::plain(footprint),
            anon: PoolSpec::plain(64 << 20),
            file: PoolSpec::plain(64 << 20),
        })
        .expect("plain config is valid");
        let pool = probe_alloc.heap().region();
        let params = TraceParams::new(pool, accesses, seed);
        Some(MeasureContext {
            spec,
            speed,
            pool,
            params,
        })
    }

    /// The heap pool region layouts are built against.
    pub fn pool(&self) -> Region {
        self.pool
    }

    /// The workload name.
    pub fn workload(&self) -> &str {
        self.spec.name
    }

    /// The pair's full trace, generated afresh: the same accesses on
    /// every call.
    pub fn trace(&self) -> impl Iterator<Item = Access> {
        self.spec.trace(&self.params)
    }

    /// The pair's full trace, materialised once into exactly
    /// `params.accesses` 16-byte entries. The capacity is reserved up
    /// front, so building it never holds a second, transient copy.
    fn trace_buffer(&self) -> Vec<Access> {
        let mut trace = Vec::with_capacity(self.params.accesses as usize);
        trace.extend(self.trace());
        trace
    }
}

/// Measures one layout on one machine variant with the grid's §VI-A
/// methodology: repeat (varying physical placement via the engine salt)
/// until the runtime variation falls below 5% or the speed preset's
/// repetition budget runs out.
///
/// # Panics
///
/// Panics if `layout` does not describe a valid pool configuration for
/// the context's pool region.
pub fn measure_layout(
    ctx: &MeasureContext,
    variant: &MachineVariant,
    layout: &MemoryLayout,
) -> RunRecord {
    measure_layout_traced(ctx, variant, layout, None)
}

/// Sim-domain stage names emitted by [`measure_layout_traced`], in emission
/// order per repetition. Span timestamps are *simulated cycles* (the engine's
/// retirement clock), never wall time, so identical runs produce
/// byte-identical traces.
pub const SIM_STAGES: [&str; 3] = ["replay", "page_walk", "finalize"];

/// [`measure_layout`] with optional sim-domain span recording.
///
/// When a recorder is supplied, each repetition contributes three spans on a
/// cumulative simulated-cycle axis (repetition `k` starts where repetition
/// `k-1` retired its last instruction):
///
/// * `replay` — the full trace replay, `[base, base + runtime_cycles]`;
/// * `page_walk` — the page-walk share of that window,
///   `[base, base + walk_cycles]` (walks overlap replay by definition);
/// * `finalize` — a zero-width marker at the repetition's retirement point,
///   where counters are read out and the CV stopping rule is evaluated.
///
/// All timestamps derive from deterministic PMU counters, so the rendered
/// trace bytes are a pure function of (workload, platform, layout, speed).
pub fn measure_layout_traced(
    ctx: &MeasureContext,
    variant: &MachineVariant,
    layout: &MemoryLayout,
    recorder: Option<&mut obs::SpanRecorder>,
) -> RunRecord {
    let runs = replay_layout(ctx, variant, layout, || ctx.trace(), ctx.params.accesses);
    if let Some(rec) = recorder {
        let mut base: u64 = 0;
        for counters in &runs {
            let end = base.saturating_add(counters.runtime_cycles);
            rec.record("replay", base, end);
            rec.record("page_walk", base, base.saturating_add(counters.walk_cycles));
            rec.record("finalize", end, end);
            base = end;
        }
    }
    run_record(layout, &runs)
}

/// [`measure_layout`] over periodic trace windows: replays only
/// `window` of every `period` accesses (`workloads::sampling::windows`)
/// and extrapolates each PMU counter to full-trace scale with the
/// cold-split estimator: the first half of the kept accesses is charged
/// as-is and only the steady suffix is scaled. The extrapolation is
/// exact integer math ([`sampling::extrapolate`]) — no f64
/// accumulation, so sampled records are byte-identical across runs and
/// job counts just like full ones. The repetition loop (placement-salted reruns until
/// the runtime CV falls below 5%) is the grid's standard §VI-A
/// methodology, evaluated on the extrapolated runtimes.
///
/// # Panics
///
/// Panics if `layout` is not a valid pool configuration for the
/// context's pool region, or on an invalid `window`/`period`
/// (`window == 0` or `window > period`).
pub fn measure_layout_sampled(
    ctx: &MeasureContext,
    variant: &MachineVariant,
    layout: &MemoryLayout,
    window: u64,
    period: u64,
) -> RunRecord {
    let kept = sampling::kept_count(ctx.params.accesses, window, period);
    let windows = || sampling::windows(ctx.trace(), window as usize, period as usize);
    run_record(layout, &replay_layout(ctx, variant, layout, windows, kept))
}

/// The one repetition loop behind every layout measurement: replays the
/// `kept` accesses `accesses` yields — the whole trace, or the kept
/// windows of an interval-sampled run — on a fresh, placement-salted
/// engine per repetition until the runtime CV falls below 5% or the
/// preset's budget runs out, and returns each repetition's counters.
/// `accesses` runs once per repetition: a battery hands it a slice of
/// its trace buffer, a single-layout call the trace generator itself,
/// since a buffer read only once costs more than it saves. The salt depends only on the
/// repetition index, so layouts that give every replayed access the
/// same page size measure to equal counters.
fn replay_layout<I>(
    ctx: &MeasureContext,
    variant: &MachineVariant,
    layout: &MemoryLayout,
    accesses: impl Fn() -> I,
    kept: u64,
) -> Vec<PmuCounters>
where
    I: IntoIterator<Item = Access>,
{
    let mosalloc = Mosalloc::new(config_for_layout(ctx.pool, layout))
        .expect("layout must be a valid pool spec");
    let page_size = |va| mosalloc.page_size_at(va);
    let mut runs: Vec<PmuCounters> = Vec::new();
    for rep in 0..ctx.speed.max_reps.max(1) {
        let config = EngineConfig {
            salt: variant.config.salt ^ (u64::from(rep) << 56),
            ..variant.config
        };
        let mut engine = Engine::with_config(&variant.platform, config);
        let counters = cold_split(
            &mut engine,
            &page_size,
            accesses(),
            kept,
            ctx.params.accesses,
        );
        runs.push(counters);
        if runs.len() >= 2 && runtime_cv(&runs) < 0.05 {
            break;
        }
    }
    runs
}

/// A layout's record over its repetitions: the mean counters and the
/// runtime's coefficient of variation.
fn run_record(layout: &MemoryLayout, runs: &[PmuCounters]) -> RunRecord {
    RunRecord {
        description: layout.describe(),
        kind: classify(layout),
        counters: mean_counters(runs),
        cv_r: runtime_cv(runs),
    }
}

/// Steps `engine` through the `kept` accesses of a replay and reads out
/// the PMU counters at the scale of a `total`-access trace with a
/// **cold-split**: the first half of the kept accesses is the warmup
/// segment, charged verbatim, and only the steady-state suffix rate is
/// scaled to cover the unreplayed remainder. Pure linear scaling
/// multiplies the run's one-time costs — the compulsory TLB and
/// cache-line fills every run pays exactly once regardless of trace
/// length — by `total / kept`, inflating the estimate by
/// `(scale - 1) x` that transient. Splitting makes both regimes exact by
/// construction. A full replay (`kept == total`) is the identity case
/// and runs as a plain [`Engine::run`].
fn cold_split(
    engine: &mut Engine,
    page_size: &impl Fn(VirtAddr) -> PageSize,
    accesses: impl IntoIterator<Item = Access>,
    kept: u64,
    total: u64,
) -> PmuCounters {
    if kept == total {
        return engine.run(accesses, page_size);
    }
    // A single loop with one `step` call site: one loop per half
    // measured slower on this hot path.
    let warmup = kept / 2;
    let mut at_warmup = PmuCounters::default();
    let mut seen: u64 = 0;
    for access in accesses {
        engine.step(&access, page_size);
        seen = seen.saturating_add(1);
        if seen == warmup {
            at_warmup = engine.counters();
        }
    }
    extrapolate_counters(&at_warmup, &engine.counters(), warmup, kept, total)
}

/// Field-wise cold-split extrapolation of a sampled readout to
/// full-trace scale: the warmup prefix (`warm`, the readout after the
/// first `warmup` kept accesses) is charged as-is, and the steady
/// suffix `end - warm` is scaled by the exact rational
/// `(total - warmup) / (kept - warmup)`. With `kept == total` this is
/// the identity; with `warmup == 0` it degenerates to pure linear
/// scaling.
fn extrapolate_counters(
    warm: &PmuCounters,
    end: &PmuCounters,
    warmup: u64,
    kept: u64,
    total: u64,
) -> PmuCounters {
    let scale = |w: u64, e: u64| {
        let steady = sampling::extrapolate(
            e.saturating_sub(w),
            kept.saturating_sub(warmup),
            total.saturating_sub(warmup),
        );
        w.saturating_add(steady)
    };
    PmuCounters {
        runtime_cycles: scale(warm.runtime_cycles, end.runtime_cycles),
        stlb_hits: scale(warm.stlb_hits, end.stlb_hits),
        stlb_misses: scale(warm.stlb_misses, end.stlb_misses),
        walk_cycles: scale(warm.walk_cycles, end.walk_cycles),
        instructions: scale(warm.instructions, end.instructions),
        program_l1d_loads: scale(warm.program_l1d_loads, end.program_l1d_loads),
        program_l2_loads: scale(warm.program_l2_loads, end.program_l2_loads),
        program_l3_loads: scale(warm.program_l3_loads, end.program_l3_loads),
        walker_l1d_loads: scale(warm.walker_l1d_loads, end.walker_l1d_loads),
        walker_l2_loads: scale(warm.walker_l2_loads, end.walker_l2_loads),
        walker_l3_loads: scale(warm.walker_l3_loads, end.walker_l3_loads),
    }
}

/// Runs the whole battery for one (workload, machine-variant) pair,
/// fanning the simulations out over at most `jobs` worker threads.
///
/// Each battery does its simulation work once: the pair's trace is
/// materialised into one read-only buffer that the profiling pass and
/// every replay read, and each *distinct replay* is simulated once (see
/// [`replay_classes`]). Every battery slot keeps its own layout's
/// description and kind, and takes its counters from its class.
///
/// With `sampled` set, the battery is interval-sampled behind the
/// cross-validation gate (paper §II-C): one fan-out measures the
/// anchor classes in full — the longest tasks, so they go first — and
/// every class sampled. The kept windows are a subset of the full
/// trace, so the full trace's classes serve them too. The sampled
/// battery is admitted only if every anchor's every counter is within
/// `cfg.bound` relative error of its full measurement; otherwise the
/// entry falls back to full records (reusing the anchors' full
/// measurements) and records the rejection in its gate.
///
/// The result is a pure function of `(speed, workload, variant,
/// sampled)` — never of `jobs` — because every simulation is an
/// independent engine with a repetition-indexed salt schedule and the
/// records are reduced in battery order (see
/// [`parallel::parallel_map`]).
fn compute_entry(
    speed: Speed,
    jobs: usize,
    sampled: Option<SampledConfig>,
    workload: &str,
    variant: &MachineVariant,
    simulated: &AtomicU64,
) -> GridEntry {
    let ctx = MeasureContext::new(speed, workload)
        .unwrap_or_else(|| panic!("unknown workload {workload:?}"));
    let trace = ctx.trace_buffer();
    let full = trace.as_slice();
    let layouts = battery_layouts(&ctx, variant, full);
    let (classes, slots) = replay_classes(ctx.pool, &layouts, &touched_chunks(ctx.pool, full));

    // Each task is one simulation: (class index, the accesses it
    // replays). The fixed reduction order returns the records in task
    // order no matter how many workers ran or how they were scheduled.
    let simulate = |tasks: &[(usize, &[Access])]| -> Vec<RunRecord> {
        parallel::parallel_map(tasks, jobs, |_, &(c, accesses)| {
            simulated.fetch_add(1, Ordering::Relaxed);
            let layout = &layouts[classes[c]];
            let kept = accesses.len() as u64;
            let runs = replay_layout(&ctx, variant, layout, || accesses.iter().copied(), kept);
            run_record(layout, &runs)
        })
        .unwrap_or_else(|| panic!("battery worker exited without completing its layout"))
    };
    let entry = |measured: &[RunRecord], mode: BatteryMode, gate: Option<GateReport>| GridEntry {
        workload: workload.to_string(),
        platform: variant.name.clone(),
        records: layouts
            .iter()
            .zip(&slots)
            .map(|(layout, &c)| RunRecord {
                description: layout.describe(),
                kind: classify(layout),
                counters: measured[c].counters,
                cv_r: measured[c].cv_r,
            })
            .collect(),
        mode,
        gate,
    };

    let Some(cfg) = sampled else {
        let tasks: Vec<_> = (0..classes.len()).map(|c| (c, full)).collect();
        return entry(&simulate(&tasks), BatteryMode::Full, None);
    };
    let kept_len = sampling::kept_count(ctx.params.accesses, cfg.window, cfg.period);
    let mut kept = Vec::with_capacity(kept_len as usize);
    kept.extend(sampling::windows(
        full.iter().copied(),
        cfg.window as usize,
        cfg.period as usize,
    ));
    let windows = kept.as_slice();

    // The gate's anchors: the first all-4KB, first all-2MB, and the
    // all-1GB layout — the battery's extreme points, where a sampling
    // scheme that misrepresents TLB behavior has nowhere to hide. Each
    // anchor's class is simulated in full once, even if two anchors
    // share it.
    let anchor_classes: Vec<usize> = [LayoutKind::All4K, LayoutKind::All2M, LayoutKind::All1G]
        .iter()
        .filter_map(|kind| layouts.iter().position(|l| classify(l) == *kind))
        .map(|i| slots[i])
        .collect();
    let mut anchors = anchor_classes.clone();
    anchors.sort_unstable();
    anchors.dedup();
    let tasks: Vec<_> = anchors
        .iter()
        .map(|&c| (c, full))
        .chain((0..classes.len()).map(|c| (c, windows)))
        .collect();
    let mut sampled_records = simulate(&tasks);
    // Each class's full-trace record, so far only the anchors'.
    let mut full_records: Vec<Option<RunRecord>> = vec![None; classes.len()];
    for (&c, record) in anchors.iter().zip(sampled_records.drain(..anchors.len())) {
        full_records[c] = Some(record);
    }
    let pairs: Vec<(PmuCounters, PmuCounters)> = anchor_classes
        .iter()
        .map(|&c| {
            let record = full_records[c]
                .as_ref()
                .expect("anchor classes run in full");
            (record.counters, sampled_records[c].counters)
        })
        .collect();
    let gate = sampled::evaluate_gate(&pairs, cfg);
    if gate.accepted {
        return entry(&sampled_records, cfg.mode(), Some(gate));
    }

    // Rejected: measure in full every class the anchors did not
    // already cover.
    let rest: Vec<_> = (0..classes.len())
        .filter(|&c| full_records[c].is_none())
        .map(|c| (c, full))
        .collect();
    let mut rest_records = simulate(&rest).into_iter();
    let full_records: Vec<RunRecord> = full_records
        .into_iter()
        .map(|record| {
            record
                .or_else(|| rest_records.next())
                .unwrap_or_else(|| panic!("battery worker exited without completing its layout"))
        })
        .collect();
    entry(&full_records, BatteryMode::Full, Some(gate))
}

/// Bytes per replay-signature chunk: the smallest hugepage. Every
/// hugepage window is aligned to its page size, 2MB or larger, and the
/// rest of the pool is 4KB-backed, so Mosalloc gives every address of
/// one 2MB chunk the same page size.
const CHUNK: u64 = 2 << 20;

/// The 2MB chunks of `pool` that `trace` touches, as a bitmap indexed
/// by chunk. Addresses outside the pool are left out: Mosalloc backs
/// them with the same page size under every battery layout.
fn touched_chunks(pool: Region, trace: &[Access]) -> Vec<bool> {
    let mut touched = vec![false; pool.len().div_ceil(CHUNK) as usize];
    for access in trace {
        if pool.contains(access.addr) {
            touched[((access.addr - pool.start()) / CHUNK) as usize] = true;
        }
    }
    touched
}

/// Groups a battery by what the engine replays. A layout's signature is
/// the page size its Mosalloc gives each `touched` chunk; layouts with
/// equal signatures feed the engine the identical (access, page size)
/// sequence, and the salt depends on the repetition index alone, so one
/// simulation serves them all. Returns each class's first layout index,
/// in first-occurrence order, and a slot map sending each battery
/// position to its class. A linear scan: batteries hold a few dozen
/// layouts, and nothing on a persistence path may depend on a hasher.
fn replay_classes(
    pool: Region,
    layouts: &[MemoryLayout],
    touched: &[bool],
) -> (Vec<usize>, Vec<usize>) {
    let mut signatures: Vec<Vec<PageSize>> = Vec::new();
    let mut firsts = Vec::new();
    let slots = layouts
        .iter()
        .enumerate()
        .map(|(i, layout)| {
            let mosalloc = Mosalloc::new(config_for_layout(pool, layout))
                .expect("layout must be a valid pool spec");
            let signature: Vec<PageSize> = (0..touched.len())
                .filter(|&c| touched[c])
                .map(|c| mosalloc.page_size_at(pool.start() + c as u64 * CHUNK))
                .collect();
            match signatures.iter().position(|s| *s == signature) {
                Some(class) => class,
                None => {
                    signatures.push(signature);
                    firsts.push(i);
                    firsts.len() - 1
                }
            }
        })
        .collect();
    (firsts, slots)
}

/// The battery's layout list for one pair: the 54-layout standard
/// battery (seeded by a full-trace PEBS-like profiling pass over
/// `trace`) plus the all-1GB hold-out. Shared verbatim by the full and
/// sampled paths — identical layout lists are what make a sampled grid
/// comparable, record for record, with the full grid it stands in for.
/// The profiling pass always sees the *full* trace even in sampled
/// mode: it is one cheap pass, and hot-region selection from a thinned
/// trace would silently change which layouts get measured.
fn battery_layouts(
    ctx: &MeasureContext,
    variant: &MachineVariant,
    trace: &[Access],
) -> Vec<MemoryLayout> {
    let profile = profile_tlb_misses(&variant.platform, trace.iter().copied(), ctx.pool, 2 << 20);
    let mut layouts: Vec<MemoryLayout> =
        layouts::standard_battery(ctx.pool, |x| profile.hot_region(x))
            .into_iter()
            .map(|p| p.layout)
            .collect();
    layouts.push(MemoryLayout::uniform(ctx.pool, PageSize::Huge1G));
    layouts
}

/// Coefficient of variation (stddev/mean) of the runtimes of `runs`;
/// zero for fewer than two runs.
fn runtime_cv(runs: &[PmuCounters]) -> f64 {
    if runs.len() < 2 {
        return 0.0;
    }
    let rs: Vec<f64> = runs.iter().map(|c| c.runtime_cycles as f64).collect();
    let mean = rs.iter().sum::<f64>() / rs.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = rs.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rs.len() as f64;
    var.sqrt() / mean
}

/// Field-wise arithmetic mean of several PMU readouts.
fn mean_counters(runs: &[PmuCounters]) -> PmuCounters {
    assert!(!runs.is_empty(), "at least one run");
    let n = runs.len() as u64;
    let avg = |f: fn(&PmuCounters) -> u64| runs.iter().map(f).sum::<u64>() / n;
    PmuCounters {
        runtime_cycles: avg(|c| c.runtime_cycles),
        stlb_hits: avg(|c| c.stlb_hits),
        stlb_misses: avg(|c| c.stlb_misses),
        walk_cycles: avg(|c| c.walk_cycles),
        instructions: avg(|c| c.instructions),
        program_l1d_loads: avg(|c| c.program_l1d_loads),
        program_l2_loads: avg(|c| c.program_l2_loads),
        program_l3_loads: avg(|c| c.program_l3_loads),
        walker_l1d_loads: avg(|c| c.walker_l1d_loads),
        walker_l2_loads: avg(|c| c.walker_l2_loads),
        walker_l3_loads: avg(|c| c.walker_l3_loads),
    }
}

/// FNV-1a, for stable workload seeds.
fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_codec::unescape_field;

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
    fn entry_has_55_records_with_anchors() {
        let grid = Grid::in_memory(tiny_speed());
        let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        assert_eq!(entry.records.len(), 55);
        assert!(entry.record(LayoutKind::All4K).is_some());
        assert!(entry.record(LayoutKind::All2M).is_some());
        assert!(entry.record(LayoutKind::All1G).is_some());
        // The model dataset excludes the 1GB run.
        assert_eq!(entry.dataset().len(), 54);
        assert_eq!(entry.full_dataset().len(), 55);
    }

    #[test]
    fn gups_is_tlb_sensitive_and_anchors_are_ordered() {
        let grid = Grid::in_memory(tiny_speed());
        let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        assert!(entry.is_tlb_sensitive());
        let r4k = entry
            .record(LayoutKind::All4K)
            .unwrap()
            .counters
            .runtime_cycles;
        let r2m = entry
            .record(LayoutKind::All2M)
            .unwrap()
            .counters
            .runtime_cycles;
        let r1g = entry
            .record(LayoutKind::All1G)
            .unwrap()
            .counters
            .runtime_cycles;
        assert!(r4k > r2m, "2MB must beat 4KB for gups: {r4k} vs {r2m}");
        assert!(r2m >= r1g, "1GB at least as good as 2MB: {r2m} vs {r1g}");
    }

    #[test]
    fn memoization_returns_same_arc() {
        let grid = Grid::in_memory(tiny_speed());
        let a = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        let b = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn battery_spreads_walk_cycles() {
        let grid = Grid::in_memory(tiny_speed());
        let ds = grid.dataset("gups/8GB", &Platform::SANDY_BRIDGE);
        let c4k = ds.anchor_4k().unwrap().c;
        let c2m = ds.anchor_2m().unwrap().c;
        assert!(c4k > c2m);
        // At least a dozen distinct intermediate C values.
        let mut cs: Vec<u64> = ds.iter().map(|s| s.c as u64).collect();
        cs.sort_unstable();
        cs.dedup();
        assert!(cs.len() >= 12, "only {} distinct C values", cs.len());
    }

    #[test]
    fn tsv_roundtrip() {
        let grid = Grid::in_memory(tiny_speed());
        let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        let text = render_entry(&entry);
        let parsed = parse_entry("gups/8GB", "SandyBridge", &text).unwrap();
        assert_eq!(*entry, parsed);
    }

    #[test]
    fn independent_measurements_render_byte_identical_tsv() {
        // Two grids, each measuring from scratch (multi-threaded battery
        // and all): the rendered cache files must agree byte-for-byte,
        // or the on-disk cache would smear nondeterminism across runs.
        let a = Grid::in_memory(tiny_speed()).entry("gups/8GB", &Platform::SANDY_BRIDGE);
        let b = Grid::in_memory(tiny_speed()).entry("gups/8GB", &Platform::SANDY_BRIDGE);
        assert_eq!(
            render_entry(&a),
            render_entry(&b),
            "successive measurements of the same pair rendered different TSV"
        );
    }

    #[test]
    fn repetitions_satisfy_the_5_percent_variation_bound() {
        // §VI-A: each layout is rerun until runtime variation < 5%. The
        // simulator's only noise source is physical placement, which is
        // far quieter than real machines — the bound must hold easily.
        let speed = Speed {
            max_reps: 3,
            ..tiny_speed()
        };
        let grid = Grid::in_memory(speed);
        let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        assert!(
            entry.max_cv() < 0.05,
            "runtime variation {} exceeds the paper's bound",
            entry.max_cv()
        );
        assert!(
            entry.max_cv() > 0.0,
            "repetitions actually vary the placement"
        );
        // TSV round-trip preserves the variation column.
        let text = render_entry(&entry);
        let parsed = parse_entry("gups/8GB", "SandyBridge", &text).unwrap();
        assert_eq!(*entry, parsed);
    }

    #[test]
    fn classify_kinds() {
        let pool = Region::new(vmcore::VirtAddr::new(0x1000_0000_0000), 64 << 20);
        assert_eq!(classify(&MemoryLayout::all_4k(pool)), LayoutKind::All4K);
        assert_eq!(
            classify(&MemoryLayout::uniform(pool, PageSize::Huge2M)),
            LayoutKind::All2M
        );
        assert_eq!(
            classify(&MemoryLayout::uniform(pool, PageSize::Huge1G)),
            LayoutKind::All1G
        );
        let mixed = MemoryLayout::builder(pool)
            .window(
                Region::new(vmcore::VirtAddr::new(0x1000_0000_0000), 2 << 20),
                PageSize::Huge2M,
            )
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(classify(&mixed), LayoutKind::Mixed);
    }

    #[test]
    fn replay_classes_share_a_slot_only_over_untouched_chunks() {
        let pool = Region::new(vmcore::VirtAddr::new(0x1000_0000_0000), 64 << 20);
        let access = |offset: u64| Access::read(pool.start() + offset, 0);
        // The trace touches chunk 0 and chunk 3, plus one address past
        // the pool that no layout can change.
        let trace = [access(4096), access(3 * CHUNK + 17), access(pool.len() + 5)];
        let touched = touched_chunks(pool, &trace);
        assert_eq!(touched.len(), 32);
        assert_eq!((0..32).filter(|&c| touched[c]).collect::<Vec<_>>(), [0, 3]);
        let with_2m = |chunk: u64| {
            MemoryLayout::builder(pool)
                .window(
                    Region::new(pool.start() + chunk * CHUNK, CHUNK),
                    PageSize::Huge2M,
                )
                .unwrap()
                .build()
                .unwrap()
        };
        let battery = [
            MemoryLayout::all_4k(pool),
            with_2m(5),
            with_2m(3),
            MemoryLayout::uniform(pool, PageSize::Huge2M),
            with_2m(31),
        ];
        let (classes, slots) = replay_classes(pool, &battery, &touched);
        // A 2MB window over an untouched chunk replays like all-4KB; one
        // over a touched chunk does not.
        assert_eq!(slots, [0, 0, 1, 2, 0]);
        assert_eq!(classes, [0, 2, 3]);

        // A real battery: every slot's class replays the same page size
        // at every access as the slot's own layout, classes are in
        // first-occurrence order, and no two classes replay alike.
        let ctx = MeasureContext::new(tiny_speed(), "gapbs/bfs-road").unwrap();
        let variant = MachineVariant::real(&Platform::HASWELL);
        let trace = ctx.trace_buffer();
        let layouts = battery_layouts(&ctx, &variant, &trace);
        let (classes, slots) =
            replay_classes(ctx.pool, &layouts, &touched_chunks(ctx.pool, &trace));
        assert!(classes.len() < layouts.len());
        let replay = |layout: &MemoryLayout| -> Vec<PageSize> {
            let mosalloc = Mosalloc::new(config_for_layout(ctx.pool, layout)).unwrap();
            trace
                .iter()
                .map(|a| mosalloc.page_size_at(a.addr))
                .collect()
        };
        let replays: Vec<Vec<PageSize>> = classes.iter().map(|&i| replay(&layouts[i])).collect();
        for (i, layout) in layouts.iter().enumerate() {
            assert_eq!(replay(layout), replays[slots[i]], "{}", layout.describe());
        }
        for (c, &first) in classes.iter().enumerate() {
            assert_eq!(slots[first], c);
            assert!(slots[..first].iter().all(|&s| s < c));
            assert!(!replays[..c].contains(&replays[c]), "duplicate class");
        }
    }

    #[test]
    fn fnv_distinguishes_names() {
        assert_ne!(fnv(b"gups/8GB"), fnv(b"gups/16GB"));
        assert_eq!(fnv(b"x"), fnv(b"x"));
    }

    #[test]
    fn stale_cache_versions_are_rejected() {
        let grid = Grid::in_memory(tiny_speed());
        let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        let text = render_entry(&entry);
        assert!(
            text.starts_with("# mosaic-cache v4\n# mode full\n# gate none\n"),
            "{}",
            &text[..60]
        );

        // A v1-era file (no header at all) and a future version must both
        // be treated as cache misses, not mis-parsed.
        let headerless = text.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(parse_entry("gups/8GB", "SandyBridge", &headerless).is_none());
        let future = text.replacen("v4", "v5", 1);
        assert!(parse_entry("gups/8GB", "SandyBridge", &future).is_none());

        // A v3 file (no mode/gate lines) is a miss too: the cache is
        // regenerable, so old formats are re-measured, never upgraded.
        let v3 = text.replacen(
            "# mosaic-cache v4\n# mode full\n# gate none\n",
            "# mosaic-cache v3\n",
            1,
        );
        assert!(v3.starts_with("# mosaic-cache v3\nkind\t"));
        assert!(parse_entry("gups/8GB", "SandyBridge", &v3).is_none());

        // ... and a v4 document without its mode/gate lines is corrupt.
        let gutted = text.replacen("# mode full\n# gate none\n", "", 1);
        assert!(parse_entry("gups/8GB", "SandyBridge", &gutted).is_none());
    }

    #[test]
    fn legacy_v3_cache_files_are_remeasured_and_rewritten() {
        let dir = std::env::temp_dir().join(format!("mosaic-v3-miss-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let grid = Grid {
            speed: tiny_speed(),
            jobs: 1,
            memo: Singleflight::new(std::convert::identity),
            disk_dir: Some(dir.clone()),
            computed: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            sampled: None,
            rejections: AtomicU64::new(0),
        };
        let fresh = Grid::in_memory(tiny_speed()).entry("gups/8GB", &Platform::SANDY_BRIDGE);
        let v3 = render_entry(&fresh).replacen(
            "# mosaic-cache v4\n# mode full\n# gate none\n",
            "# mosaic-cache v3\n",
            1,
        );
        let path = grid.cache_path("gups/8GB", "SandyBridge").unwrap();
        fs::create_dir_all(&dir).unwrap();
        fs::write(&path, &v3).unwrap();

        // The v3 file is not served: the battery is measured again and
        // the file is replaced by the current format.
        let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        assert_eq!(grid.batteries_computed(), 1);
        assert_eq!(entry.records, fresh.records);
        assert_eq!(fs::read_to_string(&path).unwrap(), render_entry(&fresh));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampled_mode_requires_its_accepting_gate() {
        let gate = GateReport {
            window: 100,
            period: 1000,
            bound: 0.05,
            max_rel_err: 0.01,
            anchors: 3,
            accepted: true,
        };
        let entry = GridEntry {
            workload: "w".to_string(),
            platform: "P".to_string(),
            records: vec![RunRecord {
                description: "d".to_string(),
                kind: LayoutKind::All4K,
                counters: PmuCounters::default(),
                cv_r: 0.0,
            }],
            mode: BatteryMode::Sampled {
                window: 100,
                period: 1000,
            },
            gate: Some(gate),
        };
        let text = render_entry(&entry);
        assert!(text.contains("# mode sampled 100 1000\n"));
        assert!(text.contains("# gate accepted 100 1000 0.05 0.01 3\n"));
        assert_eq!(parse_entry("w", "P", &text).as_ref(), Some(&entry));

        // Sampled mode with no gate, a rejected gate, or a gate for a
        // different configuration must not parse — an unvalidated
        // sampled entry is worse than a missing one.
        for bad in [
            text.replace("# gate accepted 100 1000 0.05 0.01 3", "# gate none"),
            text.replace("# gate accepted", "# gate rejected"),
            text.replace("# gate accepted 100 1000", "# gate accepted 100 2000"),
        ] {
            assert!(parse_entry("w", "P", &bad).is_none(), "parsed: {bad:?}");
        }
    }

    #[test]
    fn truncated_cache_documents_are_rejected() {
        let grid = Grid::in_memory(tiny_speed());
        let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        let text = render_entry(&entry);
        assert!(parse_entry("gups/8GB", "SandyBridge", &text).is_some());

        // Torn mid-line: the last record line has the wrong column count.
        let mid_line = &text[..text.len() - 10];
        assert!(
            parse_entry("gups/8GB", "SandyBridge", mid_line).is_none(),
            "a mid-line truncation must not parse"
        );

        // Torn exactly at a line boundary: every surviving line is
        // well-formed, so only the `# records` footer catches it. This
        // is the dangerous case — a pre-footer parser would silently
        // serve a shorter battery.
        let boundary: String = text
            .lines()
            .take(2 + entry.records.len() / 2)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(
            parse_entry("gups/8GB", "SandyBridge", &boundary).is_none(),
            "a line-boundary truncation must not parse"
        );

        // Footer present but disagreeing with the body: also rejected.
        let miscounted = text.replace(
            &format!("# records {}\n", entry.records.len()),
            "# records 54\n",
        );
        assert!(parse_entry("gups/8GB", "SandyBridge", &miscounted).is_none());
    }

    #[test]
    fn cache_paths_do_not_collide_for_confusable_workloads() {
        // The old sanitizer (`replace(['/', ' '], "_")`) mapped all three
        // of these onto one cache file.
        let grid = Grid {
            speed: tiny_speed(),
            jobs: 1,
            memo: Singleflight::new(std::convert::identity),
            disk_dir: Some(PathBuf::from("/cache")),
            computed: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            sampled: None,
            rejections: AtomicU64::new(0),
        };
        let paths: Vec<PathBuf> = ["a/b", "a b", "a_b"]
            .iter()
            .filter_map(|w| grid.cache_path(w, "SandyBridge"))
            .collect();
        assert_eq!(paths.len(), 3);
        assert_ne!(paths[0], paths[1]);
        assert_ne!(paths[0], paths[2]);
        assert_ne!(paths[1], paths[2]);

        // And the encoding is invertible: the workload is recoverable
        // from the filename, so a cache directory can be audited.
        use crate::grid_codec::decode_component;
        let name = paths[0].file_name().unwrap().to_str().unwrap();
        let encoded_workload = name
            .strip_prefix("tiny_")
            .unwrap()
            .strip_suffix("_SandyBridge.tsv")
            .unwrap();
        assert_eq!(decode_component(encoded_workload).as_deref(), Some("a/b"));
    }

    #[test]
    fn hostile_descriptions_round_trip_exactly() {
        // v2 squashed tabs and newlines to spaces, so render∘parse was
        // not a fixed point. v3 escapes them instead.
        let hostile = RunRecord {
            description: "tab\there\nnewline\r\\backslash \\t literal".to_string(),
            kind: LayoutKind::Mixed,
            counters: PmuCounters::default(),
            cv_r: 0.0,
        };
        let entry = GridEntry {
            workload: "w".to_string(),
            platform: "P".to_string(),
            records: vec![hostile],
            mode: BatteryMode::Full,
            gate: None,
        };
        let parsed = parse_entry("w", "P", &render_entry(&entry)).unwrap();
        assert_eq!(entry, parsed);
        // Corrupt escapes are rejected, not guessed at.
        assert_eq!(unescape_field("dangling\\"), None);
        assert_eq!(unescape_field("bad\\q"), None);
    }

    #[test]
    fn concurrent_cold_requests_run_exactly_one_battery() {
        // N threads race for the same cold pair: the singleflight latch
        // must coalesce them onto one battery. Fails on the old
        // check-then-compute race (each racer saw a miss and computed).
        let grid = Grid::in_memory(tiny_speed());
        let entries: Vec<Arc<GridEntry>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| grid.entry("gups/8GB", &Platform::SANDY_BRIDGE)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            grid.batteries_computed(),
            1,
            "concurrent requests for one pair must coalesce onto one battery"
        );
        for e in &entries[1..] {
            assert!(
                Arc::ptr_eq(&entries[0], e),
                "all racers must receive the same Arc"
            );
        }
    }

    #[test]
    fn distinct_pairs_each_compute_once() {
        let grid = Grid::in_memory(tiny_speed());
        grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        grid.entry("gups/8GB", &Platform::BROADWELL);
        grid.entry("gups/8GB", &Platform::SANDY_BRIDGE); // memo hit
        assert_eq!(grid.batteries_computed(), 2);
    }

    #[test]
    fn failed_battery_panics_every_call_and_spares_healthy_pairs() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let grid = Grid::in_memory(tiny_speed());
        for attempt in 1..=2 {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                grid.entry("no-such-workload", &Platform::SANDY_BRIDGE)
            }))
            .expect_err("an unknown workload must panic");
            let msg = payload.downcast_ref::<String>().expect("a message");
            assert!(msg.contains("unknown workload"), "{msg}");
            // The failed slot was released, so the second call runs the
            // battery again instead of parking on a dead latch.
            assert_eq!(grid.batteries_computed(), attempt);
        }
        let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        assert_eq!(entry.records.len(), 55);
    }

    #[test]
    fn single_layout_measurement_matches_battery_methodology() {
        let grid = Grid::in_memory(tiny_speed());
        let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        let ctx = MeasureContext::new(tiny_speed(), "gups/8GB").unwrap();
        let variant = MachineVariant::real(&Platform::SANDY_BRIDGE);
        // The all-4KB layout measured alone reproduces the battery's
        // all-4KB record exactly (same trace, same salt schedule).
        let record = measure_layout(&ctx, &variant, &MemoryLayout::all_4k(ctx.pool()));
        assert_eq!(record, *entry.record(LayoutKind::All4K).unwrap());
    }

    use proptest::prelude::*;

    fn counters_strategy() -> impl Strategy<Value = PmuCounters> {
        prop::collection::vec(0u64..(1 << 50), 11usize).prop_map(|v| PmuCounters {
            runtime_cycles: v[0],
            stlb_hits: v[1],
            stlb_misses: v[2],
            walk_cycles: v[3],
            instructions: v[4],
            program_l1d_loads: v[5],
            program_l2_loads: v[6],
            program_l3_loads: v[7],
            walker_l1d_loads: v[8],
            walker_l2_loads: v[9],
            walker_l3_loads: v[10],
        })
    }

    fn record_strategy() -> impl Strategy<Value = RunRecord> {
        (
            counters_strategy(),
            0usize..4,
            0.0f64..0.05,
            // Hostile descriptions on purpose: tabs, newlines, carriage
            // returns, backslashes, and non-ASCII must all survive the
            // TSV round-trip via the escape codec (v2 squashed them).
            "[a-z 0-9\t\n\r\\\\é]{0,24}",
        )
            .prop_map(|(counters, kind, cv_r, description)| RunRecord {
                description,
                kind: [
                    LayoutKind::All4K,
                    LayoutKind::All2M,
                    LayoutKind::All1G,
                    LayoutKind::Mixed,
                ][kind],
                counters,
                cv_r,
            })
    }

    /// Every *internally consistent* (mode, gate) combination: plain
    /// full, full fallback of a rejected gate, and accepted sampled.
    /// (`parse_entry` rejects the inconsistent ones by design.)
    fn mode_gate_strategy() -> impl Strategy<Value = (BatteryMode, Option<GateReport>)> {
        (0usize..3, 1u64..1000, 0u64..1000, 0.0f64..0.2, 0.0f64..0.5).prop_map(
            |(pick, window, extra, bound, max_rel_err)| {
                let period = window + extra;
                let gate = GateReport {
                    window,
                    period,
                    bound,
                    max_rel_err,
                    anchors: 3,
                    accepted: pick == 2,
                };
                match pick {
                    0 => (BatteryMode::Full, None),
                    1 => (BatteryMode::Full, Some(gate)),
                    _ => (BatteryMode::Sampled { window, period }, Some(gate)),
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any entry — arbitrary counters, every layout kind, fractional
        /// cv values, any consistent mode/gate stamp — survives the TSV
        /// round-trip exactly.
        #[test]
        fn tsv_roundtrip_arbitrary_entries(
            records in prop::collection::vec(record_strategy(), 1..8),
            mode_gate in mode_gate_strategy(),
        ) {
            let (mode, gate) = mode_gate;
            let entry = GridEntry {
                workload: "w/1GB".to_string(),
                platform: "P".to_string(),
                records,
                mode,
                gate,
            };
            let parsed = parse_entry("w/1GB", "P", &render_entry(&entry));
            prop_assert_eq!(Some(entry), parsed);
        }
    }
}
