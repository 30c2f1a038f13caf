//! Golden Mosmodel fit: the bit-identity gate for the Lasso kernel and
//! the K-fold fan-out.
//!
//! The fixture is the `gups/8GB` battery on SandyBridge at
//! `Speed::FAST` (54 samples, the all-1GB run held out), stored as
//! `f64::to_bits` literals so the test needs no simulation. The pinned
//! values are every raw Mosmodel weight and the 6-fold cross-validation
//! error that `recommend` turns into its confidence. The weights come
//! from a ridge refit on the support the exact Lasso path proposes, so a
//! change that moves any candidate support (a different candidate rule,
//! tie or drop handling, a reassociated correlation) can move these
//! bits; the path's breakpoints themselves are pinned by a unit test in
//! `lasso.rs`. The values were last moved by a deliberate model change:
//! the ideal-runtime guard now rejects fits that predict below their
//! ideal runtime between the ideal corner and a training layout, which
//! turns the fit from `H, M, C, C·M², C²·M` into `C, C²·M` (CV error
//! 0.0577 to 0.0418). Update them only for such a documented model
//! change, never for an optimization.

use mosmodel::cv::k_fold;
use mosmodel::lasso::{fit_lasso, MOSMODEL_MAX_TERMS};
use mosmodel::poly::PolyFeatures;
use mosmodel::{Dataset, LayoutKind, ModelKind, Sample};

include!("fixtures/gups_8gb_sandybridge.rs");

/// Raw Mosmodel weights (intercept first, then the monomials in
/// `PolyFeatures::mosmodel()` order) fitted on the whole fixture.
const WEIGHTS: [u64; 20] = [
    0x413ea1db0464d1c5,
    0x0000000000000000,
    0x0000000000000000,
    0x3fd7888a06ed74a7,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x0000000000000000,
    0x3d92e9fb08b10e81,
    0x0000000000000000,
];

/// `k_fold(ModelKind::Mosmodel, _, 6).max_err`.
const CV_MAX_ERR: u64 = 0x3fa56b3c578cd80d;

#[test]
fn mosmodel_weights_are_bit_identical() {
    let data = gups_sandybridge_fast();
    assert_eq!(data.len(), 54);
    let fit = fit_lasso(PolyFeatures::mosmodel(), &data, MOSMODEL_MAX_TERMS).expect("fits");
    let bits: Vec<u64> = fit.weights().iter().map(|w| w.to_bits()).collect();
    assert_eq!(bits, WEIGHTS, "Mosmodel weights moved: {:?}", fit.weights());
}

#[test]
fn mosmodel_k_fold_error_is_bit_identical() {
    let report = k_fold(ModelKind::Mosmodel, &gups_sandybridge_fast(), 6).expect("folds fit");
    assert_eq!(report.folds_evaluated, 6);
    assert_eq!(report.folds_skipped, 0);
    assert_eq!(
        report.max_err.to_bits(),
        CV_MAX_ERR,
        "CV error moved: {}",
        report.max_err
    );
}
