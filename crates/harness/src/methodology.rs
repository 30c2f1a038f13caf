//! The complete Figure-1 methodology, exercised end to end.
//!
//! The paper validates runtime models against *their own* processor and
//! argues (§IV) that this is a **necessary condition** for the models'
//! actual purpose: predicting the performance of *modified* processor
//! designs from partial simulations. Our substrate can do what the paper
//! could not — fully simulate the modified design too — so this module
//! closes the loop:
//!
//! 1. train a runtime model on the base platform's Mosalloc battery;
//! 2. **partially** simulate the workload on a hypothetical platform
//!    (only `(H, M, C)` observed, as in Figure 1);
//! 3. feed the counters to the model → predicted runtime;
//! 4. **fully** simulate the hypothetical platform → "true" runtime;
//! 5. report the methodology's end-to-end error.
//!
//! [`transfer_error`] additionally quantifies §IV's warning directly:
//! a model fitted for processor `P` evaluated on `P̄`'s own data.

use machine::{partial_sim, Engine, Platform};
use mosmodel::metrics::max_err;
use mosmodel::models::{ModelKind, RuntimeModel};
use mosmodel::{FitError, Sample};
use vmcore::PageSize;

use crate::{Grid, MeasureContext};

/// Result of one design-exploration experiment (Figure 1 end to end).
#[derive(Clone, Debug, PartialEq)]
pub struct DesignPrediction {
    /// Workload name.
    pub workload: String,
    /// Platform the model was trained on.
    pub base: &'static str,
    /// Hypothetical platform that was partially simulated.
    pub design: String,
    /// The page size backing the run on the design.
    pub backing: PageSize,
    /// `(H, M, C)` from the partial simulation of the design.
    pub counters: (u64, u64, u64),
    /// Runtime predicted by the model from those counters.
    pub predicted_r: f64,
    /// Runtime of the full simulation of the design.
    pub simulated_r: f64,
}

impl DesignPrediction {
    /// Relative error of the methodology for this experiment.
    pub fn error(&self) -> f64 {
        ((self.simulated_r - self.predicted_r) / self.simulated_r).abs()
    }
}

/// Runs the Figure-1 workflow: a `model` trained on `base` (via the
/// grid's battery) predicts the runtime of `design` from a partial
/// simulation, and the prediction is checked against a full simulation.
///
/// The workload runs with `backing` pages on the design (a design study
/// would typically probe 4KB to see how well the new hardware handles
/// the worst case).
///
/// # Errors
///
/// Propagates model-fitting failures.
///
/// # Panics
///
/// Panics if the workload name is unknown.
pub fn explore_design(
    grid: &Grid,
    workload: &str,
    base: &'static Platform,
    design: &Platform,
    design_name: &str,
    model: ModelKind,
    backing: PageSize,
) -> Result<DesignPrediction, FitError> {
    // Step 1: train on the base platform's Mosalloc data.
    let fitted = model.fit(&grid.dataset(workload, base))?;

    // Steps 2-4 replay the trace the grid measures.
    let ctx = MeasureContext::new(grid.speed(), workload)
        .unwrap_or_else(|| panic!("unknown workload {workload:?}"));

    // Step 2: partial simulation of the hypothetical design.
    let partial = partial_sim(design, ctx.trace(), |_| backing);

    // Step 3: the model predicts the design's runtime.
    let sample = Sample {
        r: 0.0,
        h: partial.stlb_hits as f64,
        m: partial.stlb_misses as f64,
        c: partial.walk_cycles as f64,
        kind: mosmodel::LayoutKind::Mixed,
    };
    let predicted_r = fitted.predict(&sample);

    // Step 4: ground truth — the full simulation the methodology avoids.
    let full = Engine::new(design).run(ctx.trace(), |_| backing);

    Ok(DesignPrediction {
        workload: workload.to_string(),
        base: base.name,
        design: design_name.to_string(),
        backing,
        counters: (partial.stlb_hits, partial.stlb_misses, partial.walk_cycles),
        predicted_r,
        simulated_r: full.runtime_cycles as f64,
    })
}

/// §IV's transfer experiment: the maximal error of a model fitted on
/// `from`'s data when evaluated against `to`'s own measured dataset.
///
/// # Errors
///
/// Propagates model-fitting failures.
pub fn transfer_error(
    grid: &Grid,
    workload: &str,
    from: &'static Platform,
    to: &'static Platform,
    model: ModelKind,
) -> Result<f64, FitError> {
    let fitted = model.fit(&grid.dataset(workload, from))?;
    Ok(max_err(&fitted, &grid.dataset(workload, to)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Speed;

    fn tiny_grid() -> Grid {
        Grid::in_memory(Speed {
            name: "tiny",
            footprint_div: 1024,
            min_footprint: 48 << 20,
            accesses: 15_000,
            max_reps: 1,
        })
    }

    #[test]
    fn identity_design_is_predicted_accurately() {
        // Predicting the base platform itself must work: the (H, M, C) of
        // the all-4KB partial simulation equal the training anchor's, so
        // the model interpolates rather than extrapolates.
        let grid = tiny_grid();
        let p = explore_design(
            &grid,
            "gups/8GB",
            &Platform::SANDY_BRIDGE,
            &Platform::SANDY_BRIDGE,
            "SandyBridge (identity)",
            ModelKind::Mosmodel,
            PageSize::Base4K,
        )
        .unwrap();
        assert!(p.error() < 0.05, "identity prediction error {}", p.error());
    }

    #[test]
    fn partial_counters_match_grid_anchor() {
        // The methodology's partial simulation must agree with the grid's
        // own all-4KB measurement (same trace, same structures).
        let grid = tiny_grid();
        let p = explore_design(
            &grid,
            "gups/8GB",
            &Platform::SANDY_BRIDGE,
            &Platform::SANDY_BRIDGE,
            "identity",
            ModelKind::Yaniv,
            PageSize::Base4K,
        )
        .unwrap();
        let entry = grid.entry("gups/8GB", &Platform::SANDY_BRIDGE);
        let anchor = entry.record(mosmodel::LayoutKind::All4K).unwrap().counters;
        assert_eq!(p.counters.1, anchor.stlb_misses);
        assert_eq!(p.counters.2, anchor.walk_cycles);
        assert_eq!(p.simulated_r, anchor.runtime_cycles as f64);
    }

    #[test]
    fn transfer_is_worse_than_native() {
        // §IV: a model is tied to its processor. Fitting on SandyBridge
        // and evaluating on Broadwell must be worse than native fitting.
        let grid = tiny_grid();
        let native = transfer_error(
            &grid,
            "gups/8GB",
            &Platform::BROADWELL,
            &Platform::BROADWELL,
            ModelKind::Mosmodel,
        )
        .unwrap();
        let transferred = transfer_error(
            &grid,
            "gups/8GB",
            &Platform::SANDY_BRIDGE,
            &Platform::BROADWELL,
            ModelKind::Mosmodel,
        )
        .unwrap();
        assert!(
            transferred > 2.0 * native,
            "transfer ({transferred}) should be far worse than native ({native})"
        );
    }
}
