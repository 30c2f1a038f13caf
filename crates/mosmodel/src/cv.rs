//! K-fold cross-validation (paper §VI-C, Table 6).
//!
//! The data is split into K disjoint folds; each fold serves once as the
//! test set while the model is fitted on the remaining K−1 folds. The
//! reported statistic is the **maximal** relative error across all test
//! folds, matching Table 6's "maximal cross validation errors".

// K-fold CV runs on the `recommend` worker's thread, where a panic kills
// the worker: panicking shortcuts are banned here.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use vmcore::parallel::{parallel_map, resolve_jobs};

use crate::metrics::max_err;
use crate::models::ModelKind;
use crate::{Dataset, FitError};

/// Result of one cross-validation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CvReport {
    /// Maximal relative error across all K test folds.
    pub max_err: f64,
    /// Number of folds actually evaluated (folds whose training set could
    /// not fit the model are skipped and counted here).
    pub folds_evaluated: usize,
    /// Folds skipped because fitting failed (e.g. anchors landed in the
    /// test fold for an anchor-determined model).
    pub folds_skipped: usize,
}

/// Runs deterministic K-fold cross-validation of `model` over `data`.
///
/// Fold assignment is round-robin by sample index (sample `i` belongs to
/// fold `i % k`), making reports reproducible without an RNG. This also
/// interleaves the layout battery's structure across folds, so every
/// training set spans the full range of walk-cycle values.
///
/// The K fits are independent, so they run on up to
/// [`resolve_jobs`]`(None)` scoped workers (never more than `k`); their
/// errors are reduced in fold order, so the report is the same bits for
/// every worker count.
///
/// # Errors
///
/// Returns the underlying [`FitError`] if *every* fold fails to fit.
///
/// # Panics
///
/// Panics if `k < 2` or `k > data.len()`.
pub fn k_fold(model: ModelKind, data: &Dataset, k: usize) -> Result<CvReport, FitError> {
    k_fold_on(model, data, k, resolve_jobs(None))
}

/// [`k_fold`] with the folds fanned out over at most `jobs` workers.
fn k_fold_on(
    model: ModelKind,
    data: &Dataset,
    k: usize,
    jobs: usize,
) -> Result<CvReport, FitError> {
    assert!(k >= 2, "cross-validation needs at least 2 folds");
    assert!(k <= data.len(), "more folds than samples");
    let folds: Vec<usize> = (0..k).collect();
    // `parallel_map` cannot drop a fold (a panicking fit propagates out
    // of its scope), so `outcomes` holds all K in fold order.
    let outcomes = parallel_map(&folds, jobs, |_, &fold| {
        let train_idx: Vec<usize> = (0..data.len()).filter(|i| i % k != fold).collect();
        let test_idx: Vec<usize> = (0..data.len()).filter(|i| i % k == fold).collect();
        let fitted = model.fit(&data.subset(&train_idx))?;
        Ok(max_err(&fitted, &data.subset(&test_idx)))
    })
    .unwrap_or_default();
    let mut worst = 0.0f64;
    let mut evaluated = 0;
    let mut skipped = 0;
    let mut last_err = None;
    for outcome in outcomes {
        match outcome {
            // `max_err` never returns NaN, so `f64::max` keeps every
            // fold's error.
            Ok(err) => {
                worst = worst.max(err);
                evaluated += 1;
            }
            Err(e) => {
                skipped += 1;
                last_err = Some(e);
            }
        }
    }
    if evaluated == 0 {
        // No recorded error means no fold ran at all.
        return Err(last_err.unwrap_or(FitError::TooFewSamples {
            needed: k,
            got: data.len(),
        }));
    }
    Ok(CvReport {
        max_err: worst,
        folds_evaluated: evaluated,
        folds_skipped: skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{LayoutKind, Sample};

    fn linear_data(n: usize) -> Dataset {
        (0..n)
            .map(|i| {
                let c = 1e6 * i as f64;
                let kind = match i {
                    0 => LayoutKind::All2M,
                    x if x == n - 1 => LayoutKind::All4K,
                    _ => LayoutKind::Mixed,
                };
                Sample {
                    r: 1e9 + 0.7 * c,
                    h: 1.0,
                    m: i as f64,
                    c,
                    kind,
                }
            })
            .collect()
    }

    #[test]
    fn perfect_model_has_zero_cv_error() {
        let data = linear_data(54);
        let report = k_fold(ModelKind::Poly1, &data, 6).unwrap();
        assert!(report.max_err < 1e-9, "cv error {}", report.max_err);
        assert_eq!(report.folds_evaluated, 6);
        assert_eq!(report.folds_skipped, 0);
    }

    #[test]
    fn cv_error_at_least_training_error_for_curved_data() {
        // Quadratic data, linear model: CV error should be nonzero and at
        // least as large as some in-fold errors.
        let data: Dataset = (0..54)
            .map(|i| {
                let c = 1e6 * i as f64;
                Sample {
                    r: 1e9 + 0.5 * c + 3e-8 * c * c,
                    h: 0.0,
                    m: 0.0,
                    c,
                    kind: LayoutKind::Mixed,
                }
            })
            .collect();
        let cv1 = k_fold(ModelKind::Poly1, &data, 6).unwrap();
        let cv2 = k_fold(ModelKind::Poly2, &data, 6).unwrap();
        assert!(
            cv1.max_err > cv2.max_err,
            "poly2 should generalize better on a parabola"
        );
        assert!(cv2.max_err < 1e-6);
    }

    #[test]
    fn anchor_models_skip_folds_containing_their_anchors() {
        let data = linear_data(10);
        // The 4KB anchor is sample 9, the 2MB anchor sample 0. With k=5,
        // fold 0 holds sample 0 and fold 4 holds sample 9: Yaniv cannot be
        // fitted when either anchor is held out.
        let report = k_fold(ModelKind::Yaniv, &data, 5).unwrap();
        assert_eq!(report.folds_skipped, 2);
        assert_eq!(report.folds_evaluated, 3);
    }

    #[test]
    fn all_folds_failing_returns_error() {
        // No anchors at all: every Basu fold fails.
        let data: Dataset = (0..8)
            .map(|i| Sample {
                r: i as f64 + 1.0,
                h: 0.0,
                m: 1.0,
                c: 1.0,
                kind: LayoutKind::Mixed,
            })
            .collect();
        assert!(matches!(
            k_fold(ModelKind::Basu, &data, 4),
            Err(FitError::MissingAnchor(_))
        ));
    }

    #[test]
    fn report_is_bit_identical_for_one_worker_and_k_workers() {
        // Curved, noisy data so every model has a nonzero CV error. The
        // anchors sit in folds 0 and 3, so Yaniv skips two folds.
        let data: Dataset = (0..24)
            .map(|i| {
                let c = 1e6 * (i as f64 + 1.0);
                let wobble = ((i * 7) % 5) as f64 * 1e4;
                Sample {
                    r: 1e9 + 0.5 * c + 3e-8 * c * c + wobble,
                    h: 1e3 + ((i * 11) % 13) as f64,
                    m: c / 90.0 + wobble,
                    c,
                    kind: match i {
                        0 => LayoutKind::All4K,
                        3 => LayoutKind::All2M,
                        _ => LayoutKind::Mixed,
                    },
                }
            })
            .collect();
        let k = 4;
        for model in [ModelKind::Mosmodel, ModelKind::Poly2, ModelKind::Yaniv] {
            let serial = k_fold_on(model, &data, k, 1).unwrap();
            let fanned = k_fold_on(model, &data, k, k).unwrap();
            assert_eq!(
                serial.max_err.to_bits(),
                fanned.max_err.to_bits(),
                "{model}"
            );
            assert_eq!(serial, fanned, "{model}");
            assert!(serial.max_err > 0.0, "{model}");
        }
        let yaniv = k_fold_on(ModelKind::Yaniv, &data, k, k).unwrap();
        assert_eq!((yaniv.folds_evaluated, yaniv.folds_skipped), (2, 2));
    }

    #[test]
    fn nan_prediction_in_a_test_fold_is_infinitely_wrong() {
        // Yaniv fits on its two anchors only; a mixed sample with a NaN
        // walk-cycle count makes its prediction NaN. That fold's error
        // must not vanish from the maximum.
        let mut data = linear_data(10);
        let mut samples = data.samples().to_vec();
        samples[2].c = f64::NAN;
        data = Dataset::from_samples(samples);
        let report = k_fold(ModelKind::Yaniv, &data, 5).unwrap();
        assert_eq!(report.max_err, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn k_one_panics() {
        k_fold(ModelKind::Poly1, &linear_data(10), 1).unwrap();
    }
}
