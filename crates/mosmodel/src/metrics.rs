//! Prediction-error metrics (paper Equations 1–2) and the coefficient of
//! determination (paper Table 8).

use crate::models::RuntimeModel;
use crate::poly::Var;
use crate::{Dataset, Sample};

/// Relative errors below this are treated as exactly zero in the
/// geometric mean, which would otherwise collapse to 0 whenever a model
/// passes exactly through one sample (all anchor-fitted models do).
const GEO_FLOOR: f64 = 1e-12;

/// Absolute relative error of the model's prediction for one sample.
///
/// A non-finite error (a NaN or infinite prediction) counts as
/// [`f64::INFINITY`]: `f64::max` returns its non-NaN operand, so a raw
/// NaN would vanish from a maximum and report the model as perfect.
fn rel_err<Mdl: RuntimeModel + ?Sized>(model: &Mdl, s: &Sample) -> f64 {
    let err = ((s.r - model.predict(s)) / s.r).abs();
    if err.is_finite() {
        err
    } else {
        f64::INFINITY
    }
}

/// Maximal absolute relative prediction error over a dataset
/// (paper Equation 1). Never NaN: a non-finite prediction makes it
/// infinite.
///
/// Returns `0.0` for an empty dataset.
pub fn max_err<Mdl: RuntimeModel + ?Sized>(model: &Mdl, data: &Dataset) -> f64 {
    data.iter().map(|s| rel_err(model, s)).fold(0.0, f64::max)
}

/// Geometric mean of the absolute relative errors (paper Equation 2).
///
/// Exact zeros are floored at `1e-12` so a model passing through an
/// anchor point does not nullify the whole product; a non-finite
/// prediction makes the mean infinite.
///
/// Returns `0.0` for an empty dataset.
pub fn geo_mean_err<Mdl: RuntimeModel + ?Sized>(model: &Mdl, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = data
        .iter()
        .map(|s| rel_err(model, s).max(GEO_FLOOR).ln())
        .sum();
    (log_sum / data.len() as f64).exp()
}

/// Coefficient of determination `R²` of the best single-variable linear
/// regressor `R ~ a·x + b` for `x ∈ {H, M, C}` (paper Table 8).
///
/// Computed in closed form as the squared Pearson correlation between the
/// variable and the runtime. Returns `0.0` when either side has zero
/// variance (the paper's `R² = 0` entries: a constant predictor explains
/// nothing).
pub fn r_squared(data: &Dataset, var: Var) -> f64 {
    let n = data.len() as f64;
    if data.len() < 2 {
        return 0.0;
    }
    let xs: Vec<f64> = data.iter().map(|s| var.of(s)).collect();
    let ys: Vec<f64> = data.iter().map(|s| s.r).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(&ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    (sxy * sxy) / (sxx * syy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{LayoutKind, Sample};

    /// A trivial model for testing the metrics in isolation.
    struct Constant(f64);

    impl RuntimeModel for Constant {
        fn predict(&self, _: &Sample) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "constant"
        }
    }

    fn sample(r: f64, c: f64) -> Sample {
        Sample {
            r,
            h: 0.0,
            m: 0.0,
            c,
            kind: LayoutKind::Mixed,
        }
    }

    #[test]
    fn max_err_picks_worst_point() {
        let ds = Dataset::from_samples([sample(100.0, 0.0), sample(200.0, 0.0)]);
        let m = Constant(100.0);
        // Errors: 0% and 50%.
        assert!((max_err(&m, &ds) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nan_predictions_count_as_infinitely_wrong() {
        let ds = Dataset::from_samples([sample(100.0, 0.0), sample(200.0, 0.0)]);
        let nan = Constant(f64::NAN);
        assert_eq!(max_err(&nan, &ds), f64::INFINITY);
        assert_eq!(geo_mean_err(&nan, &ds), f64::INFINITY);
    }

    #[test]
    fn geo_mean_between_min_and_max() {
        let ds =
            Dataset::from_samples([sample(100.0, 0.0), sample(200.0, 0.0), sample(400.0, 0.0)]);
        let m = Constant(100.0);
        let g = geo_mean_err(&m, &ds);
        let mx = max_err(&m, &ds);
        assert!(g > 0.0 && g <= mx, "geomean {g} vs max {mx}");
        // Errors: ~0, 0.5, 0.75 → floored geomean is tiny but nonzero.
        assert!(g < 0.01);
    }

    #[test]
    fn geo_mean_exact() {
        let ds = Dataset::from_samples([sample(200.0, 0.0), sample(400.0, 0.0)]);
        let m = Constant(100.0);
        // Errors 0.5 and 0.75 → geomean = sqrt(0.375).
        assert!((geo_mean_err(&m, &ds) - (0.5f64 * 0.75).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_gives_zero() {
        let ds = Dataset::new();
        let m = Constant(1.0);
        assert_eq!(max_err(&m, &ds), 0.0);
        assert_eq!(geo_mean_err(&m, &ds), 0.0);
    }

    #[test]
    fn r_squared_perfect_line_is_one() {
        let ds: Dataset = (0..10)
            .map(|i| sample(3.0 + 2.0 * i as f64, i as f64))
            .collect();
        assert!((r_squared(&ds, Var::C) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_constant_variable_is_zero() {
        let ds: Dataset = (0..10).map(|i| sample(i as f64, 5.0)).collect();
        assert_eq!(r_squared(&ds, Var::C), 0.0);
    }

    #[test]
    fn r_squared_uncorrelated_is_small() {
        // x alternates independently of monotone y.
        let ds: Dataset = (0..40)
            .map(|i| {
                let c = if i % 2 == 0 { 1.0 } else { 2.0 };
                sample(i as f64, c)
            })
            .collect();
        assert!(r_squared(&ds, Var::C) < 0.05);
    }

    #[test]
    fn r_squared_invariant_to_sign_of_slope() {
        let up: Dataset = (0..10).map(|i| sample(i as f64, i as f64)).collect();
        let down: Dataset = (0..10).map(|i| sample(-(i as f64), i as f64)).collect();
        assert!((r_squared(&up, Var::C) - r_squared(&down, Var::C)).abs() < 1e-12);
    }
}
