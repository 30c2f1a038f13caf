//! The ablations beyond the paper's evaluation, and the Figure-1 loop.
//!
//! Each function measures one study and returns a result whose
//! `Display` is the table `mosaic figure <id>` prints for it (see
//! [`crate::RESULTS`]). These studies keep their own measurement code
//! rather than [`crate::measure_layout`]: they replay one trace over a
//! fixed 256 MB arena on a fresh engine, or vary the battery itself
//! ([`battery_size`]), so their numbers are not grid numbers.

use std::fmt;

use machine::{profile_tlb_misses, Engine, EngineConfig, Platform};
use memsim::{PwcGeometry, StlbGeometry};
use mosalloc::{FirstFit, FitPolicy};
use mosmodel::cv::k_fold;
use mosmodel::dataset::{Dataset, Sample};
use mosmodel::lasso::fit_lasso;
use mosmodel::metrics::max_err;
use mosmodel::models::ModelKind;
use mosmodel::poly::PolyFeatures;
use mosmodel::FitError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmcore::{MemoryLayout, PageSize, PmuCounters, Region, VirtAddr};
use workloads::{sampling, Access, TraceParams, WorkloadSpec};

use crate::experiment::classify;
use crate::methodology::{explore_design, transfer_error, DesignPrediction};
use crate::{Grid, MachineVariant, Speed};

/// The 256 MB region the single-trace ablations replay over.
fn arena() -> Region {
    Region::new(VirtAddr::new(0x1000_0000_0000), 256 << 20)
}

/// `accesses` accesses of `workload` over [`arena`], seeded by `seed`.
fn trace(workload: &str, accesses: u64, seed: u64) -> Box<dyn Iterator<Item = Access>> {
    let spec = WorkloadSpec::by_name(workload).expect("known workload");
    spec.trace(&TraceParams::new(arena(), accesses, seed))
}

/// Replays `trace` through `layout` on a fresh engine. Returns the
/// counters after the first `warmup` accesses (all zero when `warmup`
/// is 0) and at the end; their difference is the run with functional
/// warming: the structures stay warm, the statistics restart.
fn replay(
    platform: &Platform,
    config: EngineConfig,
    trace: impl Iterator<Item = Access>,
    layout: &MemoryLayout,
    warmup: usize,
) -> (PmuCounters, PmuCounters) {
    let mut engine = Engine::with_config(platform, config);
    let page_size_at = |va| layout.page_size_at(va);
    let mut warm = PmuCounters::default();
    for (i, access) in trace.enumerate() {
        engine.step(&access, &page_size_at);
        if i + 1 == warmup {
            warm = engine.counters();
        }
    }
    (warm, engine.counters())
}

/// Anonymous-pool size the fit-policy churn allocates from.
const CHURN_POOL: u64 = 256 << 20;
/// Allocations and frees per churn run.
const CHURN_OPS: usize = 20_000;

/// Runs a malloc-style churn of 20,000 operations on a 256 MB
/// `policy` pool; returns (peak high-water, final hole bytes).
pub fn churn(policy: FitPolicy, seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alloc = FirstFit::with_policy(CHURN_POOL, policy);
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut peak = 0;
    for _ in 0..CHURN_OPS {
        if live.len() < 64 || rng.gen_bool(0.55) {
            // Mixed sizes: mostly small, occasionally huge (the pattern
            // that fragments pools).
            let len = if rng.gen_bool(0.9) {
                rng.gen_range(1..=64u64) * 4096
            } else {
                rng.gen_range(1..=16u64) * (2 << 20)
            };
            if let Some(start) = alloc.alloc(len, 4096) {
                live.push((start, len));
            }
        } else {
            let idx = rng.gen_range(0..live.len());
            let (start, len) = live.swap_remove(idx);
            alloc.free(start, len).expect("valid free");
        }
        peak = peak.max(alloc.high_water());
    }
    (peak, alloc.hole_bytes())
}

/// Paper §V: first fit vs best fit vs worst fit for the anonymous pool,
/// under one seeded churn each.
#[derive(Clone, Debug, PartialEq)]
pub struct FitPolicies {
    /// (policy, peak high-water bytes, final hole bytes), in the order
    /// first, best, worst fit.
    pub rows: Vec<(FitPolicy, u64, u64)>,
}

impl fmt::Display for FitPolicies {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — pool fit policy under malloc-style churn ({CHURN_OPS} ops):"
        )?;
        writeln!(
            f,
            "{:<10} {:>16} {:>18}",
            "policy", "peak highwater", "final hole bytes"
        )?;
        for (policy, peak, holes) in &self.rows {
            writeln!(
                f,
                "{:<10} {:>13} KB {:>15} KB",
                format!("{policy:?}"),
                peak >> 10,
                holes >> 10
            )?;
        }
        Ok(())
    }
}

/// Measures [`FitPolicies`].
pub fn fit_policy() -> FitPolicies {
    FitPolicies {
        rows: [FitPolicy::FirstFit, FitPolicy::BestFit, FitPolicy::WorstFit]
            .into_iter()
            .map(|policy| {
                let (peak, holes) = churn(policy, 42);
                (policy, peak, holes)
            })
            .collect(),
    }
}

/// Measures a battery of `steps`-step heuristics (`6 * (steps + 1)`
/// layouts) of 60k-access spec06/mcf traces on SandyBridge, outside the
/// grid and its cache; returns the fitting dataset (no all-1GB sample).
fn measure_battery(speed: Speed, steps: usize) -> Dataset {
    let platform = &Platform::SANDY_BRIDGE;
    let spec = WorkloadSpec::by_name("spec06/mcf").expect("known workload");
    let footprint = speed.footprint(spec.nominal_footprint);
    let arena = Region::new(VirtAddr::new(mosalloc::HEAP_POOL_BASE), footprint);
    let params = TraceParams::new(arena, 60_000, 0xab1a);
    let profile = profile_tlb_misses(platform, spec.trace(&params), arena, 2 << 20);
    layouts::battery_with_steps(arena, |x| profile.hot_region(x), steps)
        .into_iter()
        .map(|planned| {
            let layout = planned.layout;
            let counters =
                Engine::new(platform).run(spec.trace(&params), |va| layout.page_size_at(va));
            Sample::from_counters(&counters, classify(&layout))
        })
        .collect()
}

/// §VI-C: how many Mosalloc layouts a trustworthy model needs. The
/// paper settles on 54 (the one-in-ten rule) and notes that
/// cross-validating Mosmodel sometimes needed ~100.
#[derive(Clone, Debug, PartialEq)]
pub struct BatterySize {
    /// (layouts, Mosmodel fit-all max error, 6-fold CV max error,
    /// non-zero terms) per battery size.
    pub rows: Vec<(usize, f64, f64, usize)>,
}

impl fmt::Display for BatterySize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — battery size vs Mosmodel accuracy (spec06/mcf on SandyBridge):"
        )?;
        writeln!(
            f,
            "{:>8} {:>9} {:>14} {:>12}",
            "layouts", "fit err", "6-fold CV err", "terms"
        )?;
        for (layouts, fit, cv, terms) in &self.rows {
            writeln!(
                f,
                "{:>8} {:>8.2}% {:>13.2}% {:>12}",
                layouts,
                100.0 * fit,
                100.0 * cv,
                terms,
            )?;
        }
        Ok(())
    }
}

/// Measures [`BatterySize`] on spec06/mcf @ SandyBridge at the grid's
/// speed, for batteries of 18 to 102 layouts.
///
/// # Errors
///
/// Propagates model-fitting failures.
pub fn battery_size(grid: &Grid) -> Result<BatterySize, FitError> {
    let mut rows = Vec::new();
    for steps in [2usize, 5, 8, 16] {
        let ds = measure_battery(grid.speed(), steps);
        let fitted = ModelKind::Mosmodel.fit(&ds)?;
        let cv = k_fold(ModelKind::Mosmodel, &ds, 6)?;
        rows.push((
            ds.len(),
            max_err(&fitted, &ds),
            cv.max_err,
            fitted.nonzero_terms().unwrap_or(0),
        ));
    }
    Ok(BatterySize { rows })
}

/// The worst held-out error of a `budget`-term Lasso over `k` folds.
fn cv_lasso(ds: &Dataset, budget: usize, k: usize) -> Result<f64, FitError> {
    let mut worst = 0.0f64;
    for fold in 0..k {
        let train_idx: Vec<usize> = (0..ds.len()).filter(|i| i % k != fold).collect();
        let test_idx: Vec<usize> = (0..ds.len()).filter(|i| i % k == fold).collect();
        let fit = fit_lasso(PolyFeatures::mosmodel(), &ds.subset(&train_idx), budget)?;
        worst = worst.max(max_err(&fit, &ds.subset(&test_idx)));
    }
    Ok(worst)
}

/// §VI-C: Mosmodel's non-zero-term budget. The paper's Lasso "leaves
/// only 5 nonzero coefficients or less"; this sweeps 1 to 10 terms.
#[derive(Clone, Debug, PartialEq)]
pub struct LassoBudget {
    /// (budget, worst fit-all max error, worst 6-fold CV max error)
    /// over three grid pairs.
    pub rows: Vec<(usize, f64, f64)>,
}

impl fmt::Display for LassoBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation — Lasso term budget (paper uses ≤ 5):")?;
        writeln!(
            f,
            "{:>7} {:>28} {:>28}",
            "budget", "worst fit err (3 pairs)", "worst 6-fold CV err"
        )?;
        for (budget, fit, cv) in &self.rows {
            writeln!(
                f,
                "{:>7} {:>27.2}% {:>27.2}%",
                budget,
                100.0 * fit,
                100.0 * cv
            )?;
        }
        Ok(())
    }
}

/// Measures [`LassoBudget`] on the grid's spec06/mcf @ SandyBridge,
/// gups/16GB @ Broadwell and xsbench/8GB @ Haswell batteries.
///
/// # Errors
///
/// Propagates model-fitting failures.
pub fn lasso_budget(grid: &Grid) -> Result<LassoBudget, FitError> {
    let pairs = [
        ("spec06/mcf", &Platform::SANDY_BRIDGE),
        ("gups/16GB", &Platform::BROADWELL),
        ("xsbench/8GB", &Platform::HASWELL),
    ];
    let mut rows = Vec::new();
    for budget in 1usize..=10 {
        let mut fit_worst = 0.0f64;
        let mut cv_worst = 0.0f64;
        for (w, p) in pairs {
            let ds = grid.dataset(w, p);
            let fit = fit_lasso(PolyFeatures::mosmodel(), &ds, budget)?;
            fit_worst = fit_worst.max(max_err(&fit, &ds));
            cv_worst = cv_worst.max(cv_lasso(&ds, budget, 6)?);
        }
        rows.push((budget, fit_worst, cv_worst));
    }
    Ok(LassoBudget { rows })
}

/// The hardware structures behind two of the paper's observations:
/// page-walk caches (§II-B: a partial simulator must model them to get
/// `C` right) and Broadwell's second walker (§VI-D: it makes `C`
/// double-count).
#[derive(Clone, Debug, PartialEq)]
pub struct Structures {
    /// (platform, walk cycles with its PWCs, walk cycles with none) for
    /// spec06/mcf, all 4KB.
    pub pwc: Vec<(&'static str, u64, u64)>,
    /// (walkers, counters) for gups/32GB on Broadwell, all 4KB.
    pub walkers: Vec<(u32, PmuCounters)>,
}

impl fmt::Display for Structures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Ablation — page-walk caches (spec06/mcf, all-4KB):")?;
        writeln!(
            f,
            "{:<14} {:>12} {:>12} {:>10}",
            "platform", "C with PWC", "C w/o PWC", "C ratio"
        )?;
        for (name, with, without) in &self.pwc {
            writeln!(
                f,
                "{:<14} {:>12} {:>12} {:>9.2}x",
                name,
                with,
                without,
                *without as f64 / (*with).max(1) as f64
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "Ablation — walker count (gups/32GB on Broadwell, all-4KB):"
        )?;
        for (walkers, counters) in &self.walkers {
            writeln!(
                f,
                "  {walkers} walker(s): R = {:>10}, C = {:>10}, C/R = {:.2} {}",
                counters.runtime_cycles,
                counters.walk_cycles,
                counters.walk_cycles as f64 / counters.runtime_cycles as f64,
                if counters.walk_cycles > counters.runtime_cycles {
                    "→ Basu's β goes negative"
                } else {
                    ""
                }
            )?;
        }
        Ok(())
    }
}

/// Measures [`Structures`] over 80k-access traces.
pub fn structures() -> Structures {
    let all_4k = MemoryLayout::all_4k(arena());
    let run = |platform: &Platform, workload: &str| {
        let trace = trace(workload, 80_000, 0xdead);
        replay(platform, EngineConfig::default(), trace, &all_4k, 0).1
    };
    let pwc = Platform::ALL
        .into_iter()
        .map(|base| {
            let no_pwc = Platform {
                pwc: PwcGeometry {
                    pml4e: 0,
                    pdpte: 0,
                    pde: 0,
                },
                ..base.clone()
            };
            let with = run(base, "spec06/mcf").walk_cycles;
            let without = run(&no_pwc, "spec06/mcf").walk_cycles;
            (base.name, with, without)
        })
        .collect();
    let walkers = [1u32, 2]
        .into_iter()
        .map(|walkers| {
            let platform = Platform {
                walkers,
                ..Platform::BROADWELL.clone()
            };
            (walkers, run(&platform, "gups/32GB"))
        })
        .collect();
    Structures { pwc, walkers }
}

/// Replays 60k accesses of spec06/mcf through `layout` on `platform`,
/// natively or nested over `host` pages.
fn nested_run(platform: &Platform, host: Option<PageSize>, layout: &MemoryLayout) -> PmuCounters {
    let config = EngineConfig {
        virtualized: host,
        ..EngineConfig::default()
    };
    let trace = trace("spec06/mcf", 60_000, 0x7e57);
    replay(platform, config, trace, layout, 0).1
}

/// spec06/mcf's all-4KB counters on `platform`: natively, then nested
/// over 4KB, 2MB and 1GB host pages.
pub fn nested_walks(platform: &Platform) -> Vec<(&'static str, PmuCounters)> {
    let all_4k = MemoryLayout::all_4k(arena());
    [
        ("native", None),
        ("virtualized, 4KB host", Some(PageSize::Base4K)),
        ("virtualized, 2MB host", Some(PageSize::Huge2M)),
        ("virtualized, 1GB host", Some(PageSize::Huge1G)),
    ]
    .into_iter()
    .map(|(name, host)| (name, nested_run(platform, host, &all_4k)))
    .collect()
}

/// Each model's max error on `ds`, or why it did not fit.
fn model_errors(models: &[ModelKind], ds: &Dataset) -> Vec<(ModelKind, Result<f64, FitError>)> {
    models
        .iter()
        .map(|&model| (model, model.fit(ds).map(|fit| max_err(&fit, ds))))
        .collect()
}

/// Nested paging (virtualized execution), the context the Gandhi and
/// Pham models come from: how much a 2D walk inflates `C`, and whether
/// the runtime models still fit the virtualized machine.
#[derive(Clone, Debug, PartialEq)]
pub struct NestedPaging {
    /// [`nested_walks`] on SandyBridge.
    pub walks: Vec<(&'static str, PmuCounters)>,
    /// Model errors on a 9-layout growing-window battery over a 4KB host.
    pub growing: Vec<(ModelKind, Result<f64, FitError>)>,
    /// All nine models' errors on the grid's 54-layout battery of the
    /// same virtualized machine.
    pub full: Vec<(ModelKind, Result<f64, FitError>)>,
}

/// Writes one `model max err` line per model.
fn write_model_errors(
    f: &mut fmt::Formatter<'_>,
    errors: &[(ModelKind, Result<f64, FitError>)],
) -> fmt::Result {
    for (model, err) in errors {
        match err {
            Ok(e) => writeln!(f, "  {:<10} max err {:>6.2}%", model.name(), 100.0 * e)?,
            Err(e) => writeln!(f, "  {:<10} {e}", model.name())?,
        }
    }
    Ok(())
}

impl fmt::Display for NestedPaging {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — nested paging (spec06/mcf, all-4KB guest layout):"
        )?;
        writeln!(
            f,
            "{:<26} {:>12} {:>10} {:>10}",
            "configuration", "C", "C vs native", "R vs native"
        )?;
        let native = self.walks.first().map(|(_, c)| *c).unwrap_or_default();
        for (name, counters) in &self.walks {
            writeln!(
                f,
                "{:<26} {:>12} {:>9.2}x {:>9.2}x",
                name,
                counters.walk_cycles,
                counters.walk_cycles as f64 / native.walk_cycles as f64,
                counters.runtime_cycles as f64 / native.runtime_cycles as f64,
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "Model accuracy on the virtualized machine (growing-window battery, 4KB host):"
        )?;
        write_model_errors(f, &self.growing)?;
        writeln!(f)?;
        writeln!(
            f,
            "Full 54-layout battery on the virtualized variant (all nine models):"
        )?;
        write_model_errors(f, &self.full)
    }
}

/// Measures [`NestedPaging`]; the 54-layout battery is the grid's
/// `SNB-virt-4K` machine variant.
pub fn nested_paging(grid: &Grid) -> NestedPaging {
    let platform = &Platform::SANDY_BRIDGE;
    let host = Some(PageSize::Base4K);
    let growing: Dataset = layouts::growing_window(arena(), 8)
        .iter()
        .map(|layout| {
            let counters = nested_run(platform, host, layout);
            Sample::from_counters(&counters, classify(layout))
        })
        .collect();
    let variant = MachineVariant {
        name: "SNB-virt-4K".into(),
        platform: platform.clone(),
        config: EngineConfig {
            virtualized: host,
            ..EngineConfig::default()
        },
    };
    let full = grid.entry_variant("spec06/mcf", &variant).dataset();
    NestedPaging {
        walks: nested_walks(platform),
        growing: model_errors(
            &[ModelKind::Yaniv, ModelKind::Poly1, ModelKind::Mosmodel],
            &growing,
        ),
        full: model_errors(&ModelKind::ALL, &full),
    }
}

/// Accesses in each full trace [`sampling()`] compares against.
const SAMPLED_TRACE: u64 = 200_000;
/// Both sampling schemes keep 1 access in `SAMPLED_FRACTION`.
const SAMPLED_FRACTION: usize = 10;

/// Paper §II-C: blind sampling ("fast-forward, then simulate a window")
/// and periodic multi-window sampling at one sampled fraction, checked
/// against the full trace, plus blind sampling with functional warming.
#[derive(Clone, Debug, PartialEq)]
pub struct Sampling {
    /// (workload, blind R error, windows R error, blind C error, warmed
    /// blind R error), each a percentage of the full trace's per-access
    /// rate.
    pub rows: Vec<(&'static str, f64, f64, f64, f64)>,
}

impl fmt::Display for Sampling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — sampling fidelity at a 1/{SAMPLED_FRACTION} sampled fraction (per-access rates vs full trace):"
        )?;
        writeln!(
            f,
            "{:<20} {:>14} {:>14} {:>14} {:>16}",
            "workload", "blind R err", "windows R err", "blind C err", "warmed blind R"
        )?;
        for (name, blind_r, windows_r, blind_c, warmed_r) in &self.rows {
            writeln!(
                f,
                "{:<20} {:>13.1}% {:>13.1}% {:>13.1}% {:>15.1}%",
                name, blind_r, windows_r, blind_c, warmed_r,
            )?;
        }
        writeln!(
            f,
            "\n(blind = fast-forward half the trace, simulate one window; windows = same\n\
             fraction spread periodically; warmed = blind with functional warming before\n\
             counting. Cold-structure bias dominates the naive schemes — SimPoint-scale\n\
             errors — and warming removes most of it, as §II-C implies a validated\n\
             sampling method must.)"
        )
    }
}

/// Per-access (R, C) of a sampled trace on SandyBridge, all 4KB,
/// counting only the accesses after the first `warmup`.
fn sampled_rates(trace: impl Iterator<Item = Access>, warmup: usize) -> (f64, f64) {
    let platform = &Platform::SANDY_BRIDGE;
    let all_4k = MemoryLayout::all_4k(arena());
    let (base, c) = replay(platform, EngineConfig::default(), trace, &all_4k, warmup);
    let n = (c.program_l1d_loads - base.program_l1d_loads).max(1) as f64;
    (
        (c.runtime_cycles - base.runtime_cycles) as f64 / n,
        (c.walk_cycles - base.walk_cycles) as f64 / n,
    )
}

/// Measures [`Sampling`] on four workloads.
pub fn sampling() -> Sampling {
    let full = SAMPLED_TRACE as usize;
    let window = full / SAMPLED_FRACTION;
    let rows = ["spec06/mcf", "graph500/4GB", "xsbench/8GB", "gups/16GB"]
        .into_iter()
        .map(|name| {
            let trace = || trace(name, SAMPLED_TRACE, 0x5a11);
            let truth = sampled_rates(trace(), 0);
            let blind = sampled_rates(sampling::blind(trace(), full / 2, window), 0);
            let windowed = sampled_rates(
                sampling::windows(trace(), 2_000, 2_000 * SAMPLED_FRACTION),
                0,
            );
            // Warmed blind sampling: same window, but the first half of
            // the window only warms the structures.
            let warmed = sampled_rates(
                sampling::blind(trace(), full / 2, window + window / 2),
                window / 2,
            );
            let rel = |a: f64, b: f64| 100.0 * ((a - b) / b).abs();
            (
                name,
                rel(blind.0, truth.0),
                rel(windowed.0, truth.0),
                rel(blind.1, truth.1),
                rel(warmed.0, truth.0),
            )
        })
        .collect();
    Sampling { rows }
}

/// The Figure-1 methodology end to end: a model trained on the base
/// machine and a partial simulation predict hypothetical designs,
/// checked against full simulation; plus §IV's cross-processor
/// transfer.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure1Loop {
    /// Each design prediction with the model that made it.
    pub designs: Vec<(ModelKind, DesignPrediction)>,
    /// Per training platform, the max error of its gups/16GB Mosmodel
    /// on each platform's data, in [`Platform::ALL`] order.
    pub transfer: Vec<(&'static str, Vec<(&'static str, f64)>)>,
}

impl fmt::Display for Figure1Loop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure-1 loop — predict hypothetical designs (4KB runs, model: per row):"
        )?;
        writeln!(
            f,
            "{:<18} {:<10} {:>12} {:>12} {:>8}",
            "design", "model", "predicted R", "full-sim R", "err"
        )?;
        for (model, p) in &self.designs {
            writeln!(
                f,
                "{:<18} {:<10} {:>12.0} {:>12.0} {:>7.1}%  ({})",
                p.design,
                model.name(),
                p.predicted_r,
                p.simulated_r,
                100.0 * p.error(),
                p.workload
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "§IV transfer — model fitted on P, evaluated on P̄'s data (gups/16GB, mosmodel):"
        )?;
        for (from, row) in &self.transfer {
            for (to, e) in row {
                write!(f, "  {}→{}: {:>6.1}%", &from[..3], &to[..3], 100.0 * e)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Measures [`Figure1Loop`] over SandyBridge-derived designs (a 4×
/// STLB, a second walker) for xsbench/8GB and gups/16GB.
///
/// # Errors
///
/// Propagates model-fitting failures.
pub fn methodology(grid: &Grid) -> Result<Figure1Loop, FitError> {
    let base = &Platform::SANDY_BRIDGE;
    let big_stlb = Platform {
        stlb: StlbGeometry {
            entries: 2048,
            ways: 8,
            holds_2m: true,
            entries_1g: 0,
        },
        ..base.clone()
    };
    let two_walkers = Platform {
        walkers: 2,
        ..base.clone()
    };
    let mut designs = Vec::new();
    for workload in ["xsbench/8GB", "gups/16GB"] {
        for (name, design) in [("big-stlb", &big_stlb), ("2-walkers", &two_walkers)] {
            for model in [ModelKind::Yaniv, ModelKind::Mosmodel] {
                let p =
                    explore_design(grid, workload, base, design, name, model, PageSize::Base4K)?;
                designs.push((model, p));
            }
        }
    }
    let mut transfer = Vec::new();
    for from in Platform::ALL {
        let mut row = Vec::new();
        for to in Platform::ALL {
            row.push((
                to.name,
                transfer_error(grid, "gups/16GB", from, to, ModelKind::Mosmodel)?,
            ));
        }
        transfer.push((from.name, row));
    }
    Ok(Figure1Loop { designs, transfer })
}
