//! Lasso regression by cyclic coordinate descent.
//!
//! Mosmodel's 20-monomial feature space against ~54 samples violates the
//! one-in-ten rule, so the paper fits it with Lasso regression "that
//! leaves only 5 nonzero coefficients or less" (§VI-C). This module
//! reproduces that: a full regularization path is traced from `λ_max`
//! (all-zero solution) downward, and the returned fit is the
//! lowest-training-error solution whose non-zero count respects the cap.

use std::collections::BTreeSet;

use crate::linalg::{lstsq_ridge, Matrix};
use crate::ols::{back_transform, LinearFit, Standardizer};
use crate::poly::PolyFeatures;
use crate::{Dataset, FitError};

/// Maximum non-zero (non-intercept) coefficients Mosmodel allows — the
/// paper's one-in-ten-rule budget against 54 samples.
pub const MOSMODEL_MAX_TERMS: usize = 5;

/// Number of points on the λ path.
const PATH_POINTS: usize = 60;
/// λ decays by this factor per path point.
const PATH_DECAY: f64 = 0.75;
/// Coordinate-descent sweeps per λ.
const MAX_SWEEPS: usize = 2000;
/// Convergence threshold on the largest weight update, relative to the
/// centered response's scale.
const TOL: f64 = 1e-10;

/// Fits Lasso-regularized least squares of `R` on the features, keeping
/// at most `max_nonzero` non-intercept coefficients.
///
/// The λ path starts at the smallest λ that zeroes every coefficient and
/// decays geometrically, each solution warm-started from the previous
/// one. Each path point contributes a **relaxed-Lasso candidate**: its
/// support truncated to the `max_nonzero` largest coefficients, then
/// refitted by ordinary least squares on exactly those columns (the
/// Lasso selects, OLS debiases — a standard relaxed-Lasso estimator that
/// also guarantees within-budget candidates even when correlated
/// features make the raw path jump past the budget). Among supports, the
/// winner minimizes a deterministic internal cross-validation score
/// (held-out squared error over [`SELECT_FOLDS`] round-robin folds);
/// supports whose score is statistically indistinguishable from the best
/// (within [`CV_SLACK`]) are tie-broken by **lowest total polynomial
/// degree**, then by fewest terms — the simplest surface that explains
/// the data, which is also the one that extrapolates sanely (e.g. to the
/// held-out all-1GB layout of §VII-D).
///
/// # Errors
///
/// [`FitError::TooFewSamples`] when fewer than 4 samples are available.
pub fn fit_lasso(
    features: PolyFeatures,
    data: &Dataset,
    max_nonzero: usize,
) -> Result<LinearFit, FitError> {
    if data.len() < 4 {
        return Err(FitError::TooFewSamples {
            needed: 4,
            got: data.len(),
        });
    }
    let n = data.len();
    let rows: Vec<Vec<f64>> = data.iter().map(|s| features.expand(s)).collect();
    let standardizer = Standardizer::fit(&rows);
    let z = Design::standardized(&rows, &standardizer);
    let k = features.len() - 1;
    let y: Vec<f64> = data.iter().map(|s| s.r).collect();
    let y_mean = y.iter().sum::<f64>() / n as f64;
    let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
    let y_scale = yc.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1.0);

    // Column second moments (1/n) Σ z², the coordinate-descent curvature.
    let col_sq: Vec<f64> = z
        .columns()
        .map(|col| {
            let mut sq = 0.0f64;
            for v in col {
                sq += v * v;
            }
            sq / n as f64
        })
        .collect();

    // λ_max: smallest λ with the all-zero solution.
    let mut lambda_max = 0.0f64;
    for col in z.columns() {
        let dot: f64 = col.iter().zip(&yc).map(|(x, &yv)| x * yv).sum();
        lambda_max = lambda_max.max((dot / n as f64).abs());
    }
    if lambda_max == 0.0 {
        // y is constant: the intercept-only model is exact.
        return Ok(back_transform(
            features,
            &standardizer,
            &vec![0.0; k],
            y_mean,
        ));
    }

    let mut w = vec![0.0f64; k];
    let mut residual = yc.clone();

    // Walk the path, collecting the (deduplicated) truncated supports.
    let mut supports: BTreeSet<Vec<usize>> = BTreeSet::new();
    supports.insert(Vec::new()); // the intercept-only model
    let mut lambda = lambda_max;
    for _ in 0..PATH_POINTS {
        coordinate_descent(&z, &mut w, &mut residual, &col_sq, lambda, y_scale);
        lambda *= PATH_DECAY;
        let mut active: Vec<usize> = (0..k).filter(|&j| w[j] != 0.0).collect();
        active.sort_by(|&a, &b| w[b].abs().total_cmp(&w[a].abs()));
        active.truncate(max_nonzero);
        active.sort_unstable();
        supports.insert(active);
    }

    // Score each support by internal cross-validation and check the
    // ideal-runtime sanity of its full-data refit.
    let degrees = features.total_degrees();
    let min_r = y.iter().copied().fold(f64::INFINITY, f64::min);
    let scored: Vec<(f64, u32, usize, bool, Vec<usize>)> = supports
        .into_iter()
        .filter_map(|support| {
            let score = cv_score(&z, &yc, &support)?;
            // Support indices address standardized columns, i.e. feature
            // index + 1 (the intercept column is absorbed).
            let degree: u32 = support.iter().map(|&j| degrees[j + 1]).sum();
            let terms = support.len();
            // Prediction at the (0, 0, 0) corner: the raw intercept.
            let origin = if support.is_empty() {
                y_mean
            } else {
                let coef = refit(&z, &yc, &support, None)?;
                y_mean
                    - support
                        .iter()
                        .zip(&coef)
                        .map(|(&j, &c)| c / standardizer.std[j] * standardizer.mean[j])
                        .sum::<f64>()
            };
            let sane = origin >= 0.0 && origin <= min_r * IDEAL_RUNTIME_MARGIN;
            Some((score, degree, terms, sane, support))
        })
        .collect();
    // Prefer physically sane candidates; fall back to all if none are.
    let pool: Vec<&(f64, u32, usize, bool, Vec<usize>)> = {
        let sane: Vec<_> = scored.iter().filter(|(.., s, _)| *s).collect();
        if sane.is_empty() {
            scored.iter().collect()
        } else {
            sane
        }
    };
    let best_score = pool.iter().map(|(s, ..)| *s).fold(f64::INFINITY, f64::min);
    let (_, _, _, _, support) = pool
        .into_iter()
        .filter(|(s, ..)| *s <= best_score * (1.0 + CV_SLACK) + 1e-30)
        .min_by(|a, b| (a.1, a.2).cmp(&(b.1, b.2)).then(a.0.total_cmp(&b.0)))
        .expect("the intercept-only support always exists");
    let support = support.clone();

    let mut wz = vec![0.0f64; k];
    if !support.is_empty() {
        let coef = refit(&z, &yc, &support, None).ok_or(FitError::Singular)?;
        for (&j, &c) in support.iter().zip(&coef) {
            wz[j] = c;
        }
    }
    Ok(back_transform(features, &standardizer, &wz, y_mean))
}

/// Internal folds used to score candidate supports.
pub const SELECT_FOLDS: usize = 6;

/// Supports scoring within this factor of the best cross-validation
/// score are considered equivalent and tie-broken by simplicity.
pub const CV_SLACK: f64 = 0.05;

/// Physical sanity margin on the ideal runtime: a candidate's prediction
/// at zero virtual-memory overhead (`H = M = C = 0`) may not exceed the
/// best measured runtime by more than this factor — eliminating all TLB
/// overhead cannot make the program slower. Candidates violating this
/// are using a counter as a confounder (large cancelling coefficients)
/// and would extrapolate wildly in the §VII-D case study.
pub const IDEAL_RUNTIME_MARGIN: f64 = 1.05;

/// Ridge strength of the relaxed refit, as a fraction of the Gram
/// diagonal (≈ sample count for standardized columns). Collinear
/// monomials admit families of near-equivalent fits whose huge opposing
/// coefficients cancel on the training manifold but explode off it (for
/// example at the `(H, M, C) → 0` corner the §VII-D case study predicts);
/// the ridge picks the minimal-norm member of the family.
pub const REFIT_RIDGE_FRAC: f64 = 0.02;

/// The standardized design matrix, column-major: feature `j`'s `n`
/// values are one contiguous slice. Coordinate descent touches one
/// feature at a time across every sample, so each update streams a
/// single column instead of gathering `row[j]` from `n` separate rows.
struct Design {
    n: usize,
    values: Vec<f64>,
}

impl Design {
    /// Standardizes raw feature rows and stores them column by column.
    fn standardized(rows: &[Vec<f64>], standardizer: &Standardizer) -> Self {
        let z: Vec<Vec<f64>> = rows.iter().map(|r| standardizer.apply(r)).collect();
        let k = z.first().map_or(0, Vec::len);
        let values = (0..k)
            .flat_map(|j| z.iter().map(move |row| row[j]))
            .collect();
        Design {
            n: rows.len(),
            values,
        }
    }

    /// Feature `j` across all samples.
    fn column(&self, j: usize) -> &[f64] {
        &self.values[j * self.n..(j + 1) * self.n]
    }

    /// Every feature column, in feature order.
    fn columns(&self) -> std::slice::ChunksExact<'_, f64> {
        self.values.chunks_exact(self.n)
    }
}

/// OLS refit of `yc` on the standardized columns in `support`, optionally
/// restricted to the rows where `keep(i)` is true.
fn refit(
    z: &Design,
    yc: &[f64],
    support: &[usize],
    keep: Option<&dyn Fn(usize) -> bool>,
) -> Option<Vec<f64>> {
    let rows: Vec<Vec<f64>> = (0..z.n)
        .filter(|&i| keep.is_none_or(|f| f(i)))
        .map(|i| support.iter().map(|&j| z.column(j)[i]).collect())
        .collect();
    if rows.len() < support.len() + 1 {
        return None;
    }
    let ys: Vec<f64> = yc
        .iter()
        .enumerate()
        .filter(|(i, _)| keep.is_none_or(|f| f(*i)))
        .map(|(_, &v)| v)
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let lambda = REFIT_RIDGE_FRAC * rows.len() as f64;
    lstsq_ridge(&Matrix::from_rows(&refs), &ys, lambda)
}

/// Deterministic round-robin CV score (total held-out squared error) of
/// one support. `None` when a fold cannot be fitted.
fn cv_score(z: &Design, yc: &[f64], support: &[usize]) -> Option<f64> {
    let n = z.n;
    if support.is_empty() {
        // Intercept-only: held-out error is just the centered response.
        return Some(yc.iter().map(|v| v * v).sum());
    }
    let folds = SELECT_FOLDS.min(n);
    let mut total = 0.0;
    for fold in 0..folds {
        let keep = |i: usize| i % folds != fold;
        let coef = refit(z, yc, support, Some(&keep))?;
        for i in (0..n).filter(|i| i % folds == fold) {
            let pred: f64 = support
                .iter()
                .zip(&coef)
                .map(|(&j, &c)| z.column(j)[i] * c)
                .sum();
            total += (yc[i] - pred).powi(2);
        }
    }
    Some(total)
}

/// Cyclic coordinate descent at one λ, updating `w` and the residual in
/// place.
///
/// Each coordinate update is a serial floating-point recurrence over the
/// samples in index order; the result is only bit-reproducible because
/// that order and the expression shapes below never change.
fn coordinate_descent(
    z: &Design,
    w: &mut [f64],
    residual: &mut [f64],
    col_sq: &[f64],
    lambda: f64,
    y_scale: f64,
) {
    let n = z.n as f64;
    for _ in 0..MAX_SWEEPS {
        let mut max_delta = 0.0f64;
        for (j, col) in z.columns().enumerate() {
            if col_sq[j] == 0.0 {
                continue;
            }
            let wj = w[j];
            // ρ = (1/n) Σ z_ij (residual_i + z_ij w_j)
            let mut rho = 0.0;
            for (x, r) in col.iter().zip(residual.iter()) {
                rho += x * (r + x * wj);
            }
            rho /= n;
            let new_w = soft_threshold(rho, lambda) / col_sq[j];
            let delta = new_w - wj;
            if delta != 0.0 {
                for (x, r) in col.iter().zip(residual.iter_mut()) {
                    *r -= x * delta;
                }
                w[j] = new_w;
                max_delta = max_delta.max(delta.abs());
            }
        }
        if max_delta < TOL * y_scale {
            break;
        }
    }
}

fn soft_threshold(x: f64, lambda: f64) -> f64 {
    if x > lambda {
        x - lambda
    } else if x < -lambda {
        x + lambda
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LayoutKind;
    use crate::ols::fit_ols;
    use crate::Sample;

    fn sample(h: f64, m: f64, c: f64, r: f64) -> Sample {
        Sample {
            r,
            h,
            m,
            c,
            kind: LayoutKind::Mixed,
        }
    }

    /// 54 samples, runtime driven by C and C² only; H/M carry noise-ish
    /// secondary signals.
    fn synthetic() -> Dataset {
        (0..54)
            .map(|i| {
                let c = 3e7 * i as f64;
                let m = c / 120.0;
                let h = 1e4 + (i % 7) as f64 * 31.0;
                let r = 5e9 + 0.65 * c + 4e-10 * c * c;
                sample(h, m, c, r)
            })
            .collect()
    }

    /// Runs 20 warm-started coordinate-descent calls down a λ path on the
    /// standardized synthetic battery and folds the bits of every
    /// resulting weight and residual into one FNV-1a digest.
    fn descent_digest() -> u64 {
        let data = synthetic();
        let features = PolyFeatures::mosmodel();
        let rows: Vec<Vec<f64>> = data.iter().map(|s| features.expand(s)).collect();
        let z = Design::standardized(&rows, &Standardizer::fit(&rows));
        let n = rows.len() as f64;
        let y_mean = data.iter().map(|s| s.r).sum::<f64>() / n;
        let mut residual: Vec<f64> = data.iter().map(|s| s.r - y_mean).collect();
        let mut col_sq = Vec::new();
        let mut lambda = 0.0f64;
        for col in z.columns() {
            let (mut sq, mut dot) = (0.0f64, 0.0f64);
            for (x, r) in col.iter().zip(&residual) {
                sq += x * x / n;
                dot += x * r / n;
            }
            col_sq.push(sq);
            lambda = lambda.max(dot.abs());
        }
        let y_scale = residual.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        let mut w = vec![0.0f64; col_sq.len()];
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..20 {
            lambda *= PATH_DECAY;
            coordinate_descent(&z, &mut w, &mut residual, &col_sq, lambda, y_scale);
            for v in w.iter().chain(&residual) {
                digest = (digest ^ v.to_bits()).wrapping_mul(0x100_0000_01b3);
            }
        }
        digest
    }

    #[test]
    fn coordinate_descent_iterates_are_bit_identical() {
        // The relaxed refit hides coordinate descent's rounding from the
        // fitted weights unless a support changes, so `golden_fit` alone
        // would miss a reassociated sum; this pins the iterates. The
        // digest was taken on the original row-major kernel.
        assert_eq!(descent_digest(), 0x2441_e5c4_35e3_57b3);
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
    }

    #[test]
    fn respects_sparsity_budget() {
        let fit = fit_lasso(PolyFeatures::mosmodel(), &synthetic(), MOSMODEL_MAX_TERMS).unwrap();
        assert!(
            fit.nonzero_terms() <= MOSMODEL_MAX_TERMS,
            "kept {} terms",
            fit.nonzero_terms()
        );
    }

    #[test]
    fn accurate_despite_sparsity() {
        let data = synthetic();
        let fit = fit_lasso(PolyFeatures::mosmodel(), &data, MOSMODEL_MAX_TERMS).unwrap();
        for s in data.iter() {
            let rel = (fit.predict(s) - s.r).abs() / s.r;
            assert!(rel < 0.02, "relative error {rel}");
        }
    }

    #[test]
    fn never_beats_ols_on_training_error() {
        // Lasso is a constrained OLS: its training SSE must be >= OLS's.
        let data = synthetic();
        let features = PolyFeatures::in_c(3);
        let ols = fit_ols(features.clone(), &data).unwrap();
        let lasso = fit_lasso(features, &data, 2).unwrap();
        let sse =
            |f: &LinearFit| -> f64 { data.iter().map(|s| (f.predict(s) - s.r).powi(2)).sum() };
        assert!(sse(&lasso) >= sse(&ols) - 1e-3);
    }

    #[test]
    fn constant_response_yields_intercept_only() {
        let data: Dataset = (0..10)
            .map(|i| sample(1.0, 2.0, 1e6 * i as f64, 7e9))
            .collect();
        let fit = fit_lasso(PolyFeatures::mosmodel(), &data, 5).unwrap();
        assert_eq!(fit.nonzero_terms(), 0);
        assert!((fit.predict(&data.samples()[3]) - 7e9).abs() < 1.0);
    }

    #[test]
    fn budget_of_one_never_panics_even_with_correlated_features() {
        // With strongly correlated features the first sub-λ_max path
        // point can activate several coefficients at once; the λ_max
        // endpoint (all-zero) must keep a budget of 1 satisfiable.
        let data: Dataset = (0..54)
            .map(|i| {
                let c = 1e6 * i as f64;
                sample(c / 7.0, c / 11.0, c, 1e9 + 2.0 * c)
            })
            .collect();
        let fit = fit_lasso(PolyFeatures::mosmodel(), &data, 1).unwrap();
        assert!(fit.nonzero_terms() <= 1);
    }

    #[test]
    fn too_few_samples_error() {
        let data: Dataset = (0..3)
            .map(|i| sample(0.0, 0.0, i as f64, i as f64))
            .collect();
        assert!(matches!(
            fit_lasso(PolyFeatures::mosmodel(), &data, 5),
            Err(FitError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn selects_the_informative_variable() {
        // R depends on C only; M and H are pure noise. With a budget of 1,
        // Lasso must pick a C monomial.
        let data: Dataset = (0..54)
            .map(|i| {
                let c = 1e7 * i as f64;
                let m = ((i * 13) % 54) as f64 * 1e3; // decorrelated noise
                let h = ((i * 29) % 54) as f64 * 1e2;
                sample(h, m, c, 1e9 + 2.0 * c)
            })
            .collect();
        let fit = fit_lasso(PolyFeatures::mosmodel(), &data, 1).unwrap();
        assert_eq!(fit.nonzero_terms(), 1);
        let names = fit.features().names();
        let (idx, _) = fit
            .weights()
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, w)| **w != 0.0)
            .unwrap();
        assert!(names[idx].contains('C'), "picked {}", names[idx]);
    }
}
