//! Lasso regression by the exact LARS-Lasso path.
//!
//! Mosmodel's 20-monomial feature space against ~54 samples violates the
//! one-in-ten rule, so the paper fits it with Lasso regression "that
//! leaves only 5 nonzero coefficients or less" (§VI-C). This module
//! walks the exact regularization path from `λ_max` (the all-zero
//! solution) down to `λ = 0`, one feature entering or leaving per
//! breakpoint. Each piece's active set, truncated to the budget's
//! largest coefficients, is a candidate support; the returned fit is the
//! refit of the best-scoring candidate that passes the ideal-runtime
//! guard (see [`fit_lasso`]).

use std::collections::BTreeSet;

use crate::linalg::{lstsq_ridge, solve_spd, Matrix};
use crate::ols::{back_transform, LinearFit, Standardizer};
use crate::poly::PolyFeatures;
use crate::{Dataset, FitError};

/// Maximum non-zero (non-intercept) coefficients Mosmodel allows — the
/// paper's one-in-ten-rule budget against 54 samples.
pub const MOSMODEL_MAX_TERMS: usize = 5;

/// Fits Lasso-regularized least squares of `R` on the features, keeping
/// at most `max_nonzero` non-intercept coefficients.
///
/// The exact Lasso path (see `lasso_path`) is walked from the smallest λ
/// that zeroes every coefficient down to `λ = 0`. Each piece of the path
/// contributes a **relaxed-Lasso candidate**: its active set truncated
/// to the `max_nonzero` largest coefficients (standardized, at the
/// piece's lower end), then refitted by mildly ridge-regularized least
/// squares on exactly those columns (the Lasso selects, the refit
/// debiases; the truncation keeps every candidate within budget where
/// correlated features carry the path past it). A candidate is dropped,
/// unless every one would be, when its refit fails the ideal-runtime
/// guard: its prediction at zero overhead must lie in
/// `[0, min R · IDEAL_RUNTIME_MARGIN]`, and no layout between that
/// ideal corner and a training layout may be predicted faster than it.
/// Among the rest, the winner minimizes a deterministic internal cross-validation score
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

    let path = lasso_path(&z, &yc);
    if path.is_empty() {
        // No feature enters (constant or non-finite y): only the
        // intercept-only model is left.
        return Ok(back_transform(
            features,
            &standardizer,
            &vec![0.0; k],
            y_mean,
        ));
    }
    // Each piece's active set, truncated to its `max_nonzero` largest
    // coefficients at the piece's lower end, is a candidate support.
    let mut supports: BTreeSet<Vec<usize>> = BTreeSet::new();
    supports.insert(Vec::new()); // the intercept-only model
    for Segment {
        mut active, beta, ..
    } in path
    {
        active.sort_by(|&a, &b| beta[b].abs().total_cmp(&beta[a].abs()));
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
            // The full-data refit in raw units, R̂(s) = origin + Σ w_j·x_j(s):
            // `origin` is the prediction at the (0, 0, 0) corner.
            let raw: Vec<f64> = if support.is_empty() {
                Vec::new()
            } else {
                let coef = refit(&z, &yc, &support, None)?;
                support
                    .iter()
                    .zip(&coef)
                    .map(|(&j, &c)| c / standardizer.std[j])
                    .collect()
            };
            let origin = y_mean
                - support
                    .iter()
                    .zip(&raw)
                    .map(|(&j, &w)| w * standardizer.mean[j])
                    .sum::<f64>();
            let sane = origin >= 0.0
                && origin <= min_r * IDEAL_RUNTIME_MARGIN
                && stays_above_ideal(&rows, &degrees, &support, &raw);
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

/// Points per training sample at which [`stays_above_ideal`] checks the
/// segment from the ideal corner to the sample.
const RAY_POINTS: usize = 16;

/// The second half of the ideal-runtime guard: a fit may not predict
/// less than its ideal runtime `R̂(0, 0, 0)` anywhere between the ideal
/// corner and a training layout. Removing part of a layout's overhead
/// cannot make it faster than removing all of it. For every sample `s`
/// and `t` at [`RAY_POINTS`] even steps of `(0, 1]`, `R̂(t·s) − R̂(0)`
/// must not be negative; so must its slope as `t` leaves 0. A degree-`d`
/// monomial scales by `tᵈ`, so `R̂(t·s) − R̂(0) = t·Σ w_j x_j(s) t^(d_j−1)`
/// and the check reads the sum, whose value at `t = 0` is that slope.
///
/// `rows` are the raw feature rows (intercept first), `support` indexes
/// non-intercept features and `raw` holds their raw-unit weights.
/// Candidates failing it offset a negative term against a larger
/// positive one on the training range, and mispredict a held-out layout
/// that sits nearer the ideal corner than any training sample.
fn stays_above_ideal(rows: &[Vec<f64>], degrees: &[u32], support: &[usize], raw: &[f64]) -> bool {
    rows.iter().all(|row| {
        (0..=RAY_POINTS).all(|step| {
            let t = step as f64 / RAY_POINTS as f64;
            let sum: f64 = support
                .iter()
                .zip(raw)
                .map(|(&j, &w)| w * row[j + 1] * t.powi(degrees[j + 1] as i32 - 1))
                .sum();
            sum >= 0.0
        })
    })
}

/// Ridge strength of the relaxed refit, as a fraction of the Gram
/// diagonal (≈ sample count for standardized columns). Collinear
/// monomials admit families of near-equivalent fits whose huge opposing
/// coefficients cancel on the training manifold but explode off it (for
/// example at the `(H, M, C) → 0` corner the §VII-D case study predicts);
/// the ridge picks the minimal-norm member of the family.
pub const REFIT_RIDGE_FRAC: f64 = 0.02;

/// The standardized design matrix, column-major: feature `j`'s `n`
/// values are one contiguous slice. The path's correlations and Gram
/// entries are column dot products, so each streams a single column
/// instead of gathering `row[j]` from `n` separate rows.
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

/// One linear piece of the exact Lasso path: for `lambda_lo < λ <
/// lambda_hi` the non-zero coefficients are exactly `active` (sorted),
/// and `beta` is the solution at the piece's lower end, `lambda_lo`. A
/// piece with `lambda_lo == lambda_hi` records an active set met at a
/// single λ: a tied feature about to join, or the set whose Gram ended
/// the walk.
#[derive(Clone, Debug, PartialEq)]
struct Segment {
    lambda_hi: f64,
    lambda_lo: f64,
    active: Vec<usize>,
    beta: Vec<f64>,
}

/// What ends a segment of the path.
#[derive(Clone, Copy)]
enum Event {
    /// An inactive feature's correlation reaches λ.
    Enter(usize),
    /// An active coefficient crosses zero (the Lasso modification).
    Drop(usize),
    /// λ reaches zero with no event on the way.
    End,
}

/// Walks the exact Lasso path of `yc` on the standardized columns by the
/// LARS-Lasso homotopy (Efron, Hastie, Johnstone & Tibshirani, "Least
/// Angle Regression", Ann. Statist. 2004), minimizing
/// `(1/2n)‖yc − Zβ‖² + λ‖β‖₁` for every λ from `λ_max` down to 0.
///
/// The path is piecewise linear in λ. On each piece the active
/// coefficients move along `G_A⁻¹ s_A` (active Gram over `n`, active
/// correlation signs), solved by [`solve_spd`]; the piece ends where an
/// inactive correlation reaches `±λ` (the feature enters) or an active
/// coefficient reaches zero (it leaves). Features whose correlation is
/// already at `±λ` up to the rounding of an `n`-term sum (duplicate
/// columns) join one by one at the current λ. The walk stops at `λ = 0`,
/// before an entry would make more than `n − 1` features active (the
/// rank of centered data), when an active Gram is not positive definite,
/// or after `8k + 8` pieces.
fn lasso_path(z: &Design, yc: &[f64]) -> Vec<Segment> {
    let n = z.n as f64;
    let k = z.columns().len();
    let cap = z.n.saturating_sub(1);
    let tie = n * f64::EPSILON;
    let correlations = |r: &[f64]| -> Vec<f64> { z.columns().map(|col| dot(col, r) / n).collect() };
    // The full Gram Zᵀ Z / n, from which each active Gram is gathered.
    let gram: Vec<f64> = z
        .columns()
        .flat_map(|a| z.columns().map(move |b| dot(a, b) / n))
        .collect();

    let mut beta = vec![0.0f64; k];
    let mut residual = yc.to_vec();
    let mut c = correlations(&residual);
    // λ_max and the first feature to enter. NaN correlations never win.
    let mut lambda = 0.0f64;
    let mut event = Event::End;
    for (j, cj) in c.iter().enumerate() {
        if cj.abs() > lambda {
            lambda = cj.abs();
            event = Event::Enter(j);
        }
    }
    let mut active: Vec<usize> = Vec::new();
    let mut signs: Vec<f64> = Vec::new();
    // The feature that left at the current λ, until λ moves.
    let mut just_dropped = None;
    let mut segments = Vec::new();
    let sorted = |active: &[usize]| {
        let mut set = active.to_vec();
        set.sort_unstable();
        set
    };
    for _ in 0..8 * k + 8 {
        match event {
            Event::Enter(j) if active.len() < cap => {
                active.push(j);
                signs.push(c[j].signum());
            }
            Event::Drop(j) => {
                if let Some(at) = active.iter().position(|&a| a == j) {
                    active.remove(at);
                    signs.remove(at);
                }
                just_dropped = Some(j);
            }
            Event::Enter(_) | Event::End => break,
        }
        if active.is_empty() {
            break;
        }

        // Direction: G_A d = s_A, with a ridge at the rounding level that
        // splits a duplicate group's share evenly (the minimum-norm
        // direction) instead of failing.
        let mut gram_a = Matrix::zeros(active.len(), active.len());
        for (p, &a) in active.iter().enumerate() {
            for (q, &b) in active.iter().enumerate() {
                let ridge = if p == q { tie } else { 0.0 };
                gram_a.set(p, q, gram[a * k + b] + ridge);
            }
        }
        let Some(d) = solve_spd(&gram_a, &signs) else {
            segments.push(Segment {
                lambda_hi: lambda,
                lambda_lo: lambda,
                active: sorted(&active),
                beta: beta.clone(),
            });
            break;
        };
        // Per unit step of λ, feature j's correlation moves by
        // a_j = (G d)_j; on the active set a_j = s_j, so the active
        // correlations stay at ±λ.
        let slope: Vec<f64> = (0..k)
            .map(|j| {
                active
                    .iter()
                    .zip(&d)
                    .map(|(&a, da)| gram[j * k + a] * da)
                    .sum()
            })
            .collect();

        // Step γ to the next event: λ − γ is where the piece ends.
        let mut gamma = lambda;
        event = Event::End;
        for j in 0..k {
            if active.contains(&j) {
                continue;
            }
            // A feature that just left sits on the `sign(c_j) λ` boundary;
            // it may only come back through the other one.
            let left = just_dropped == Some(j);
            if !left && c[j].abs() >= lambda * (1.0 - tie) {
                gamma = 0.0;
                event = Event::Enter(j);
                break;
            }
            for (side, num, den) in [
                (1.0, lambda - c[j], 1.0 - slope[j]),
                (-1.0, lambda + c[j], 1.0 + slope[j]),
            ] {
                let g = num / den;
                if !(left && side == c[j].signum()) && den > 0.0 && g > 0.0 && g < gamma {
                    gamma = g;
                    event = Event::Enter(j);
                }
            }
        }
        for (&a, &da) in active.iter().zip(&d) {
            let g = -beta[a] / da;
            if g > 0.0 && g < gamma {
                gamma = g;
                event = Event::Drop(a);
            }
        }

        if gamma > 0.0 {
            for (&a, &da) in active.iter().zip(&d) {
                beta[a] += gamma * da;
                for (r, x) in residual.iter_mut().zip(z.column(a)) {
                    *r -= gamma * da * x;
                }
            }
            c = correlations(&residual);
            just_dropped = None;
        }
        if let Event::Drop(j) = event {
            beta[j] = 0.0;
        }
        let lambda_hi = lambda;
        lambda -= gamma;
        segments.push(Segment {
            lambda_hi,
            lambda_lo: lambda,
            active: sorted(&active),
            beta: beta.clone(),
        });
    }
    segments
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
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

    include!("../tests/fixtures/gups_8gb_sandybridge.rs");

    /// The standardized design and centered response `fit_lasso` walks.
    fn standardized(data: &Dataset) -> (Design, Vec<f64>) {
        let features = PolyFeatures::mosmodel();
        let rows: Vec<Vec<f64>> = data.iter().map(|s| features.expand(s)).collect();
        let z = Design::standardized(&rows, &Standardizer::fit(&rows));
        let y_mean = data.iter().map(|s| s.r).sum::<f64>() / data.len() as f64;
        (z, data.iter().map(|s| s.r - y_mean).collect())
    }

    /// `(1/n) Zᵀ (yc − Zβ)`: every feature's correlation with the
    /// residual of `beta`.
    fn residual_correlations(z: &Design, yc: &[f64], beta: &[f64]) -> Vec<f64> {
        let mut residual = yc.to_vec();
        for (col, &b) in z.columns().zip(beta) {
            for (r, x) in residual.iter_mut().zip(col) {
                *r -= x * b;
            }
        }
        z.columns()
            .map(|col| dot(col, &residual) / z.n as f64)
            .collect()
    }

    /// Test-local reference solver: cyclic coordinate descent in
    /// covariance form at one λ, started from zero and run until no
    /// coefficient moves by more than `1e-13` of the response scale. It
    /// panics rather than hang if that takes a million sweeps.
    fn converged_cd(z: &Design, yc: &[f64], lambda: f64) -> Vec<f64> {
        let n = z.n as f64;
        let cols: Vec<&[f64]> = z.columns().collect();
        let gram: Vec<Vec<f64>> = cols
            .iter()
            .map(|a| cols.iter().map(|b| dot(a, b) / n).collect())
            .collect();
        let b: Vec<f64> = cols.iter().map(|a| dot(a, yc) / n).collect();
        let scale = yc.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        let mut w = vec![0.0f64; cols.len()];
        let mut moved = 0.0f64;
        for _ in 0..1_000_000 {
            moved = 0.0;
            for j in 0..w.len() {
                if gram[j][j] == 0.0 {
                    continue;
                }
                let others: f64 = (0..w.len())
                    .filter(|&l| l != j)
                    .map(|l| gram[j][l] * w[l])
                    .sum();
                let rho = b[j] - others;
                let shrunk = if rho > lambda {
                    rho - lambda
                } else if rho < -lambda {
                    rho + lambda
                } else {
                    0.0
                };
                let new = shrunk / gram[j][j];
                moved = moved.max((new - w[j]).abs() * gram[j][j].sqrt());
                w[j] = new;
            }
            if moved <= 1e-13 * scale {
                return w;
            }
        }
        panic!("no convergence at λ = {lambda}: the last sweep moved {moved}");
    }

    /// FNV-1a over the golden battery's path: `λ_max`, then every
    /// piece's lower λ and active set.
    fn breakpoint_digest() -> u64 {
        let (z, yc) = standardized(&gups_sandybridge_fast());
        let path = lasso_path(&z, &yc);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x100_0000_01b3);
        fold(path[0].lambda_hi.to_bits());
        for seg in &path {
            fold(seg.lambda_lo.to_bits());
            seg.active.iter().for_each(|&j| fold(j as u64));
        }
        digest
    }

    #[test]
    fn path_breakpoints_are_bit_identical() {
        // The relaxed refit hides the path's rounding from the fitted
        // weights unless a candidate support changes, so `golden_fit`
        // alone would miss a reassociated sum; this pins the breakpoints.
        assert_eq!(breakpoint_digest(), 0x03ea_3f44_582d_5860);
    }

    #[test]
    fn kkt_conditions_hold_at_every_breakpoint() {
        for data in [gups_sandybridge_fast(), synthetic()] {
            let (z, yc) = standardized(&data);
            let path = lasso_path(&z, &yc);
            assert!(!path.is_empty());
            let lambda_max = path[0].lambda_hi;
            let tol = 1e-9 * lambda_max;
            // λ_max is the largest correlation of the empty model.
            let c0 = residual_correlations(&z, &yc, &vec![0.0; path[0].beta.len()]);
            assert_eq!(lambda_max, c0.iter().fold(0.0f64, |m, c| m.max(c.abs())));
            for (i, seg) in path.iter().enumerate() {
                assert!(seg.lambda_lo <= seg.lambda_hi && seg.lambda_lo >= 0.0);
                if let Some(next) = path.get(i + 1) {
                    assert_eq!(seg.lambda_lo, next.lambda_hi, "pieces must be contiguous");
                }
                assert!(!seg.active.is_empty());
                let c = residual_correlations(&z, &yc, &seg.beta);
                for (j, (&cj, &bj)) in c.iter().zip(&seg.beta).enumerate() {
                    assert!(
                        cj.abs() <= seg.lambda_lo + tol,
                        "|c_{j}| = {cj} > λ = {} (λ_max {lambda_max}, piece {i} of {}, {:?})",
                        seg.lambda_lo,
                        path.len(),
                        seg.active
                    );
                    if bj != 0.0 {
                        assert!(seg.active.contains(&j), "β_{j} off the active set");
                        let gap = (cj - seg.lambda_lo * bj.signum()).abs();
                        assert!(gap <= tol, "c_{j} = {cj} ≠ λ sign(β_{j}) (gap {gap})");
                    }
                }
            }
        }
    }

    #[test]
    fn active_sets_match_converged_coordinate_descent() {
        // Only on the measured battery: `synthetic()` sets M = C/120, so
        // its M and C monomials are duplicate columns and its Lasso
        // solution (though not its KKT point) is not unique. Only on the
        // pieces fit_lasso keeps whole: deep in the path, with a dozen
        // collinear monomials active, the reference would not converge.
        let (z, yc) = standardized(&gups_sandybridge_fast());
        let pieces: Vec<Segment> = lasso_path(&z, &yc)
            .into_iter()
            .filter(|seg| seg.lambda_lo < seg.lambda_hi)
            .filter(|seg| seg.active.len() <= MOSMODEL_MAX_TERMS)
            .collect();
        assert!(pieces.len() >= MOSMODEL_MAX_TERMS);
        for seg in pieces {
            let lambda = 0.5 * (seg.lambda_hi + seg.lambda_lo);
            let w = converged_cd(&z, &yc, lambda);
            let support: Vec<usize> = (0..w.len()).filter(|&j| w[j] != 0.0).collect();
            assert_eq!(support, seg.active, "at λ = {lambda}");
        }
    }

    #[test]
    fn duplicate_columns_and_nan_samples_terminate() {
        // H == M duplicates every H monomial with its M twin.
        let twins: Dataset = (0..54)
            .map(|i| {
                let c = 1e6 * i as f64;
                let h = c / 9.0 + (i % 5) as f64 * 1e3;
                sample(h, h, c, 1e9 + 2.0 * c + 3.0 * h)
            })
            .collect();
        let (z, yc) = standardized(&twins);
        assert!(lasso_path(&z, &yc).len() <= 8 * 19 + 8);
        let fit = fit_lasso(PolyFeatures::mosmodel(), &twins, MOSMODEL_MAX_TERMS).unwrap();
        assert!(fit.nonzero_terms() <= MOSMODEL_MAX_TERMS);

        for field in 0..4 {
            let mut samples = synthetic().samples().to_vec();
            let s = &mut samples[17];
            *[&mut s.r, &mut s.h, &mut s.m, &mut s.c][field] = f64::NAN;
            let data = Dataset::from_samples(samples);
            let (z, yc) = standardized(&data);
            assert!(lasso_path(&z, &yc).len() <= 8 * 19 + 8);
            if let Ok(fit) = fit_lasso(PolyFeatures::mosmodel(), &data, MOSMODEL_MAX_TERMS) {
                assert!(fit.nonzero_terms() <= MOSMODEL_MAX_TERMS);
            }
        }
    }

    #[test]
    fn budgets_zero_through_ten_respect_the_cap() {
        for data in [gups_sandybridge_fast(), synthetic()] {
            for budget in 0..=10 {
                let fit = fit_lasso(PolyFeatures::mosmodel(), &data, budget).unwrap();
                assert!(fit.nonzero_terms() <= budget, "budget {budget}");
            }
        }
    }

    #[test]
    fn a_dip_below_the_ideal_runtime_fails_the_guard() {
        // R̂ = R̂(0) + w₁·C + w₂·C² at C = 3, with features 1, C, C².
        let features = PolyFeatures::in_c(2);
        let rows = vec![vec![1.0, 3.0, 9.0]];
        let degrees = features.total_degrees();
        assert!(stays_above_ideal(&rows, &degrees, &[0, 1], &[1.0, 0.5]));
        assert!(stays_above_ideal(&rows, &degrees, &[], &[]));
        // −3t + 4.5t² ends above zero at t = 1 but starts below it: the
        // sample itself is predicted above the ideal runtime, the layouts
        // between it and the ideal corner are not.
        assert!(!stays_above_ideal(&rows, &degrees, &[0, 1], &[-1.0, 0.5]));
        assert!(!stays_above_ideal(&rows, &degrees, &[1], &[-0.1]));
    }

    #[test]
    fn fits_stay_above_their_ideal_runtime() {
        // Without the guard the golden battery's fit is
        // 2.03e6 + 67.0·H − 3.01·M + 0.353·C + 1.17e-10·C·M² + 2.68e-12·C²·M,
        // whose −M term outweighs the others as layouts leave the ideal
        // corner.
        for data in [gups_sandybridge_fast(), synthetic()] {
            let fit = fit_lasso(PolyFeatures::mosmodel(), &data, MOSMODEL_MAX_TERMS).unwrap();
            let ideal = fit.predict(&sample(0.0, 0.0, 0.0, 0.0));
            for s in data.iter() {
                for step in 1..=64 {
                    let t = step as f64 / 64.0;
                    let r = fit.predict(&sample(t * s.h, t * s.m, t * s.c, 0.0));
                    assert!(r >= ideal * (1.0 - 1e-12), "R̂ = {r} < {ideal} at t = {t}");
                }
            }
        }
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
