//! Ordinary least squares over polynomial features, with internal
//! standardization for numerical stability (counter values reach `1e12`,
//! so their cubes overflow double precision's useful range unless
//! standardized).

use crate::linalg::{lstsq, Matrix};
use crate::poly::PolyFeatures;
use crate::{Dataset, FitError, Sample};

/// Per-column affine transform fitted on the training features.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Standardizer {
    /// Column means (excluding the intercept column).
    pub mean: Vec<f64>,
    /// Column standard deviations; zero-variance columns get 1.0.
    pub std: Vec<f64>,
}

impl Standardizer {
    /// Fits the transform on raw feature rows (intercept at column 0 is
    /// skipped).
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        let n = rows.len().max(1) as f64;
        let k = rows.first().map_or(0, Vec::len);
        let mut mean = vec![0.0; k.saturating_sub(1)];
        let mut std = vec![0.0; k.saturating_sub(1)];
        for row in rows {
            for (j, &v) in row.iter().skip(1).enumerate() {
                mean[j] += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        for row in rows {
            for (j, &v) in row.iter().skip(1).enumerate() {
                std[j] += (v - mean[j]).powi(2);
            }
        }
        for s in &mut std {
            *s = (*s / n).sqrt();
            if *s == 0.0 || !s.is_finite() {
                *s = 1.0;
            }
        }
        Standardizer { mean, std }
    }

    /// Standardizes the non-intercept part of a raw feature row.
    pub fn apply(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .skip(1)
            .enumerate()
            .map(|(j, &v)| (v - self.mean[j]) / self.std[j])
            .collect()
    }
}

/// A fitted linear-in-features model: `R̂(s) = w · φ(s)`.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearFit {
    features: PolyFeatures,
    /// Weights on **raw** features, intercept first.
    weights: Vec<f64>,
}

impl LinearFit {
    /// Creates a fit directly from raw-feature weights (used by the
    /// closed-form prior models and tests).
    pub fn from_raw_weights(features: PolyFeatures, weights: Vec<f64>) -> Self {
        assert_eq!(features.len(), weights.len(), "weight count mismatch");
        LinearFit { features, weights }
    }

    /// The feature map.
    pub fn features(&self) -> &PolyFeatures {
        &self.features
    }

    /// Weights on the raw features, intercept first.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of non-zero non-intercept weights.
    pub fn nonzero_terms(&self) -> usize {
        self.weights.iter().skip(1).filter(|w| **w != 0.0).count()
    }

    /// Predicts the runtime for a sample.
    pub fn predict(&self, s: &Sample) -> f64 {
        self.features
            .expand(s)
            .iter()
            .zip(&self.weights)
            .map(|(x, w)| x * w)
            .sum()
    }
}

impl crate::models::RuntimeModel for LinearFit {
    fn predict(&self, sample: &Sample) -> f64 {
        LinearFit::predict(self, sample)
    }

    fn name(&self) -> &'static str {
        "linear-fit"
    }
}

/// Fits ordinary least squares of `R` on the given polynomial features.
///
/// # Errors
///
/// [`FitError::TooFewSamples`] when the dataset has fewer samples than
/// features; [`FitError::Singular`] if the (ridge-stabilized) normal
/// equations cannot be solved.
pub fn fit_ols(features: PolyFeatures, data: &Dataset) -> Result<LinearFit, FitError> {
    let k = features.len();
    if data.len() < k {
        return Err(FitError::TooFewSamples {
            needed: k,
            got: data.len(),
        });
    }
    let rows: Vec<Vec<f64>> = data.iter().map(|s| features.expand(s)).collect();
    let standardizer = Standardizer::fit(&rows);
    let y: Vec<f64> = data.iter().map(|s| s.r).collect();
    let y_mean = y.iter().sum::<f64>() / y.len() as f64;

    // Centered/standardized design (no intercept column: it is absorbed).
    let zrows: Vec<Vec<f64>> = rows.iter().map(|r| standardizer.apply(r)).collect();
    let zrefs: Vec<&[f64]> = zrows.iter().map(Vec::as_slice).collect();
    let x = Matrix::from_rows(&zrefs);
    let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
    let wz = lstsq(&x, &yc).ok_or(FitError::Singular)?;

    Ok(back_transform(features, &standardizer, &wz, y_mean))
}

/// Converts standardized-space weights into raw-feature weights.
pub(crate) fn back_transform(
    features: PolyFeatures,
    standardizer: &Standardizer,
    wz: &[f64],
    y_mean: f64,
) -> LinearFit {
    let mut weights = vec![0.0; features.len()];
    let mut intercept = y_mean;
    for (j, &w) in wz.iter().enumerate() {
        let raw = w / standardizer.std[j];
        weights[j + 1] = raw;
        intercept -= raw * standardizer.mean[j];
    }
    weights[0] = intercept;
    LinearFit::from_raw_weights(features, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LayoutKind;

    fn sample(h: f64, m: f64, c: f64, r: f64) -> Sample {
        Sample {
            r,
            h,
            m,
            c,
            kind: LayoutKind::Mixed,
        }
    }

    fn linear_data() -> Dataset {
        (0..20)
            .map(|i| {
                let c = 1e7 * i as f64;
                sample(5.0, i as f64, c, 3e9 + 0.8 * c)
            })
            .collect()
    }

    #[test]
    fn recovers_linear_relation_at_counter_scale() {
        let fit = fit_ols(PolyFeatures::in_c(1), &linear_data()).unwrap();
        for s in linear_data().iter() {
            let rel = (fit.predict(s) - s.r).abs() / s.r;
            assert!(rel < 1e-9, "rel error {rel}");
        }
        assert!((fit.weights()[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn recovers_cubic_relation() {
        let data: Dataset = (0..30)
            .map(|i| {
                let c = 2e6 * i as f64;
                let r = 1e9 + 0.5 * c + 1e-8 * c * c + 1e-18 * c * c * c;
                sample(0.0, 0.0, c, r)
            })
            .collect();
        let fit = fit_ols(PolyFeatures::in_c(3), &data).unwrap();
        for s in data.iter() {
            let rel = (fit.predict(s) - s.r).abs() / s.r;
            assert!(rel < 1e-6, "rel error {rel}");
        }
    }

    #[test]
    fn residuals_are_orthogonal_to_features() {
        // The defining property of least squares: X'(y - Xw) ≈ 0 in the
        // standardized space.
        let data: Dataset = (0..25)
            .map(|i| {
                let c = 1e6 * (i as f64 + 1.0);
                // Noisy quadratic.
                let noise = if i % 2 == 0 { 1e7 } else { -1e7 };
                sample(0.0, 0.0, c, 2e9 + 0.6 * c + 5e-9 * c * c + noise)
            })
            .collect();
        let features = PolyFeatures::in_c(2);
        let fit = fit_ols(features.clone(), &data).unwrap();
        let rows: Vec<Vec<f64>> = data.iter().map(|s| features.expand(s)).collect();
        let st = Standardizer::fit(&rows);
        let mut dots = vec![0.0f64; features.len() - 1];
        for (row, s) in rows.iter().zip(data.iter()) {
            let resid = s.r - fit.predict(s);
            for (j, z) in st.apply(row).iter().enumerate() {
                dots[j] += z * resid;
            }
        }
        for d in dots {
            assert!(
                (d / data.len() as f64).abs() < 1.0,
                "residual correlation {d}"
            );
        }
    }

    #[test]
    fn too_few_samples_rejected() {
        let data: Dataset = (0..3)
            .map(|i| sample(0.0, 0.0, i as f64, i as f64))
            .collect();
        assert!(matches!(
            fit_ols(PolyFeatures::in_c(3), &data),
            Err(FitError::TooFewSamples { needed: 4, got: 3 })
        ));
    }

    #[test]
    fn constant_feature_columns_are_harmless() {
        // H is identically zero: its monomials are constant; fit must
        // still succeed and predict well.
        let data: Dataset = (0..30)
            .map(|i| {
                let c = 1e6 * i as f64;
                sample(0.0, i as f64, c, 1e9 + c)
            })
            .collect();
        let fit = fit_ols(PolyFeatures::mosmodel(), &data).unwrap();
        for s in data.iter().skip(1) {
            let rel = (fit.predict(s) - s.r).abs() / s.r;
            assert!(rel < 1e-6, "rel {rel}");
        }
    }

    #[test]
    fn nonzero_terms_counts_correctly() {
        let f = PolyFeatures::in_c(2);
        let fit = LinearFit::from_raw_weights(f, vec![1.0, 0.0, 2.0]);
        assert_eq!(fit.nonzero_terms(), 1);
    }
}
