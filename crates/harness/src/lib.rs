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
//!
//! Use [`Speed`] presets to trade fidelity for wall-clock: `Speed::FAST`
//! for tests, `Speed::FULL` for the benchmark harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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

/// The fast preset (shrunken footprints and short traces) for tests.
pub const SPEED_FAST: Speed = Speed::FAST;
/// The full preset used by `cargo bench`.
pub const SPEED_FULL: Speed = Speed::FULL;
