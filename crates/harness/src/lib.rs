//! Experiment orchestration: from workloads, layouts and the execution
//! engine to the paper's tables and figures.
//!
//! The central type is [`experiment::Grid`], which lazily evaluates and
//! caches the full *workload × platform × layout* measurement grid (54
//! Mosalloc layouts plus the held-out all-1GB run per pair). Everything
//! else — the figure and table modules — consumes grid entries:
//!
//! | module | regenerates |
//! |---|---|
//! | [`figures::fig2`] | Figure 2a/2b: aggregated maximal errors, old vs new models |
//! | [`figures::fig3`] | Figure 3: R(C) curve for spec06/mcf on SandyBridge |
//! | [`figures::fig5`] | Figure 5: per-benchmark maximal errors, all models |
//! | [`figures::fig6`] | Figure 6: per-benchmark geomean errors |
//! | [`figures::fig7`] | Figure 7: Basu optimism on gapbs/sssp-twitter |
//! | [`figures::fig8`] | Figure 8: poly1 fits spec06/omnetpp |
//! | [`figures::fig9`] | Figure 9: poly1 slope > 1 on spec17/xalancbmk_s |
//! | [`figures::fig10`] | Figure 10: poly2 vs poly1 on gups/16GB |
//! | [`figures::fig11`] | Figure 11: 1GB prediction, Yaniv vs Mosmodel |
//! | [`tables::tab6`] | Table 6: K-fold cross-validation errors |
//! | [`tables::tab7`] | Table 7: xalancbmk counters under 4KB vs 2MB |
//! | [`tables::tab8`] | Table 8: R² of C / M / H per workload |
//! | [`casestudy`] | §VII-D: the 1GB-page validation procedure |
//! | [`methodology`] | the full Figure-1 loop: model + partial simulation of a hypothetical design, validated against full simulation |
//! | [`ablations`] | the ablations beyond the paper (fit policy, battery size, Lasso budget, PWCs and walkers, nested paging, sampling) and the Figure-1 loop's table |
//!
//! [`RESULTS`] lists every one of them under the id `mosaic figure`
//! prints it by. Use [`Speed`] presets to trade fidelity for
//! wall-clock: `Speed::FAST` for tests, `Speed::FULL` for the figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod casestudy;
pub mod experiment;
pub mod figures;
mod grid_codec;
pub mod methodology;
pub mod report;
pub mod sampled;
mod speed;
pub mod tables;

pub use experiment::{
    measure_layout, measure_layout_sampled, measure_layout_traced, Grid, GridEntry, MachineVariant,
    MeasureContext, RunRecord, SIM_STAGES,
};
pub use sampled::{BatteryMode, GateReport, SampledConfig, DEFAULT_SAMPLED};
pub use speed::Speed;
/// The battery's deterministic fan-out. It lives in `vmcore` so the
/// workspace has one: `mosmodel`'s K-fold folds use it too.
pub use vmcore::parallel;
pub use vmcore::parallel::resolve_jobs;

/// Measures one result on the grid (computing missing entries) and
/// returns the text `mosaic figure` prints for it, trailing blank line
/// included.
pub type Render = fn(&Grid) -> String;

/// Every result `mosaic figure <id>` prints, as `(id, render)` rows in
/// the order `mosaic figure all` prints them.
pub const RESULTS: &[(&str, Render)] = &[
    ("fig2", |g| {
        format!("{}\n\n", figures::fig2(g, &figures::sensitive_pairs(g)))
    }),
    ("fig3", |g| {
        format!("Figure 3 — {}\n\n", figures::fig3(g).expect("anchors"))
    }),
    ("fig5", |g| {
        let matrices = figures::fig5(g, &figures::sensitive_by_platform(g));
        matrices
            .iter()
            .map(|m| format!("Figure 5 — {m}\n\n"))
            .collect()
    }),
    ("fig6", |g| {
        let matrices = figures::fig6(g, &figures::sensitive_by_platform(g));
        matrices
            .iter()
            .map(|m| format!("Figure 6 — {m}\n\n"))
            .collect()
    }),
    ("fig7", |g| {
        format!("{}\n\n", figures::fig7(g).expect("anchors"))
    }),
    ("fig8", |g| {
        format!("Figure 8 — {}\n\n", figures::fig8(g).expect("anchors"))
    }),
    ("fig9", |g| {
        format!("{}\n\n", figures::fig9(g).expect("anchors"))
    }),
    ("fig10", |g| {
        format!("Figure 10 — {}\n\n", figures::fig10(g).expect("anchors"))
    }),
    ("fig11", |g| {
        format!("Figure 11 — {}\n\n", figures::fig11(g).expect("anchors"))
    }),
    ("tab6", |g| {
        format!("{}\n\n", tables::tab6(g, &figures::sensitive_pairs(g), 6))
    }),
    ("tab7", |g| {
        let table = tables::tab7(g).expect("anchors");
        let (l3_4k, l3_2m) = table.l3_pollution();
        format!(
            "{table}\nwalker-induced L3 pollution: {l3_4k} total L3 loads with 4KB pages vs {l3_2m} with 2MB\n\n"
        )
    }),
    ("tab8", |g| {
        format!("{}\n\n", tables::tab8(g, &figures::sensitive_pairs(g)))
    }),
    ("casestudy", |g| {
        let sweep = casestudy::one_gb_sweep(g, &figures::sensitive_pairs(g));
        sweep.iter().map(|v| format!("{v}\n\n")).collect()
    }),
    ("ablation-fit-policy", |_| {
        format!("\n{}\n", ablations::fit_policy())
    }),
    ("ablation-battery-size", |g| {
        format!("\n{}\n", ablations::battery_size(g).expect("fits"))
    }),
    ("ablation-lasso-budget", |g| {
        format!("\n{}\n", ablations::lasso_budget(g).expect("fits"))
    }),
    ("ablation-structures", |_| {
        format!("\n{}\n", ablations::structures())
    }),
    ("ablation-nested-paging", |g| {
        format!("\n{}\n", ablations::nested_paging(g))
    }),
    ("ablation-sampling", |_| {
        format!("\n{}\n", ablations::sampling())
    }),
    ("methodology", |g| {
        format!("\n{}\n", ablations::methodology(g).expect("anchors"))
    }),
];
