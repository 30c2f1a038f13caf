//! The nine runtime models of the study.
//!
//! Five **preexisting** models (paper §III) are closed-form: their
//! parameters come from one or two anchor measurements (the all-4KB and
//! all-2MB runs), never from regression. Four **new** models (paper §VII)
//! are fitted to the whole Mosalloc dataset: `poly1`/`poly2`/`poly3`
//! (least-squares polynomials in `C`) and `mosmodel` (Lasso-sparsified
//! third-degree polynomial in `(H, M, C)`).

use std::fmt;

use crate::lasso::{fit_lasso, MOSMODEL_MAX_TERMS};
use crate::ols::{fit_ols, LinearFit};
use crate::poly::PolyFeatures;
use crate::{Dataset, FitError, Sample};

/// Anything that predicts a runtime from `(H, M, C)` counters.
pub trait RuntimeModel {
    /// Predicted runtime cycles for the sample's counters.
    fn predict(&self, sample: &Sample) -> f64;

    /// Short display name ("basu", "mosmodel", ...).
    fn name(&self) -> &'static str;
}

/// The model taxonomy of the paper's figures, in their plotting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Pham: `R̂ = 7H + C + β`, `β = R₄ₖ − C₄ₖ − 7H₄ₖ`.
    Pham,
    /// Alam: `R̂ = C + β`, `β = R₂ₘ − C₂ₘ`.
    Alam,
    /// Gandhi: `R̂ = αM + β`, `α = C₄ₖ/M₄ₖ`, `β = R₂ₘ − C₂ₘ`.
    Gandhi,
    /// Basu: `R̂ = αM + β`, `α = C₄ₖ/M₄ₖ`, `β = R₄ₖ − C₄ₖ`.
    Basu,
    /// Yaniv: `R̂ = αC + β` through the 4KB and 2MB points.
    Yaniv,
    /// Least-squares line in `C` over all samples.
    Poly1,
    /// Least-squares parabola in `C`.
    Poly2,
    /// Least-squares cubic in `C`.
    Poly3,
    /// Mosmodel: degree-3 polynomial in `(H, M, C)`, Lasso, ≤5 terms.
    Mosmodel,
}

impl ModelKind {
    /// All models in the paper's plotting order.
    pub const ALL: [ModelKind; 9] = [
        ModelKind::Pham,
        ModelKind::Alam,
        ModelKind::Gandhi,
        ModelKind::Basu,
        ModelKind::Yaniv,
        ModelKind::Poly1,
        ModelKind::Poly2,
        ModelKind::Poly3,
        ModelKind::Mosmodel,
    ];

    /// The five preexisting (anchor-determined) models of Figure 2a.
    pub const PREEXISTING: [ModelKind; 5] = [
        ModelKind::Pham,
        ModelKind::Alam,
        ModelKind::Gandhi,
        ModelKind::Basu,
        ModelKind::Yaniv,
    ];

    /// The four newly proposed (regression) models of Figure 2b.
    pub const NEW: [ModelKind; 4] = [
        ModelKind::Poly1,
        ModelKind::Poly2,
        ModelKind::Poly3,
        ModelKind::Mosmodel,
    ];

    /// Display name as used in the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Pham => "pham",
            ModelKind::Alam => "alam",
            ModelKind::Gandhi => "gandhi",
            ModelKind::Basu => "basu",
            ModelKind::Yaniv => "yaniv",
            ModelKind::Poly1 => "poly1",
            ModelKind::Poly2 => "poly2",
            ModelKind::Poly3 => "poly3",
            ModelKind::Mosmodel => "mosmodel",
        }
    }

    /// Whether the model is one of the preexisting anchor-determined ones.
    pub fn is_preexisting(self) -> bool {
        ModelKind::PREEXISTING.contains(&self)
    }

    /// Fits the model to a dataset.
    ///
    /// Preexisting models use only the anchor samples; regression models
    /// use every sample.
    ///
    /// # Errors
    ///
    /// * [`FitError::MissingAnchor`] when a preexisting model's anchor run
    ///   is absent;
    /// * [`FitError::DegenerateAnchor`] when an anchor makes the closed
    ///   form undefined (e.g. `M₄ₖ = 0`);
    /// * regression errors from [`fit_ols`] / [`fit_lasso`].
    pub fn fit(self, data: &Dataset) -> Result<FittedModel, FitError> {
        let inner = match self {
            ModelKind::Basu => {
                let a4k = data.anchor_4k().ok_or(FitError::MissingAnchor("all-4KB"))?;
                if a4k.m == 0.0 {
                    return Err(FitError::DegenerateAnchor("M₄ₖ = 0"));
                }
                Inner::Closed(ClosedForm {
                    alpha_m: a4k.c / a4k.m,
                    beta: a4k.r - a4k.c,
                    ..ClosedForm::default()
                })
            }
            ModelKind::Pham => {
                let a4k = data.anchor_4k().ok_or(FitError::MissingAnchor("all-4KB"))?;
                Inner::Closed(ClosedForm {
                    alpha_h: 7.0,
                    alpha_c: 1.0,
                    beta: a4k.r - a4k.c - 7.0 * a4k.h,
                    ..ClosedForm::default()
                })
            }
            ModelKind::Gandhi => {
                let a4k = data.anchor_4k().ok_or(FitError::MissingAnchor("all-4KB"))?;
                let a2m = data.anchor_2m().ok_or(FitError::MissingAnchor("all-2MB"))?;
                if a4k.m == 0.0 {
                    return Err(FitError::DegenerateAnchor("M₄ₖ = 0"));
                }
                Inner::Closed(ClosedForm {
                    alpha_m: a4k.c / a4k.m,
                    beta: a2m.r - a2m.c,
                    ..ClosedForm::default()
                })
            }
            ModelKind::Alam => {
                let a2m = data.anchor_2m().ok_or(FitError::MissingAnchor("all-2MB"))?;
                Inner::Closed(ClosedForm {
                    alpha_c: 1.0,
                    beta: a2m.r - a2m.c,
                    ..ClosedForm::default()
                })
            }
            ModelKind::Yaniv => {
                let a4k = data.anchor_4k().ok_or(FitError::MissingAnchor("all-4KB"))?;
                let a2m = data.anchor_2m().ok_or(FitError::MissingAnchor("all-2MB"))?;
                if a4k.c == a2m.c {
                    return Err(FitError::DegenerateAnchor("C₄ₖ = C₂ₘ"));
                }
                let alpha = (a4k.r - a2m.r) / (a4k.c - a2m.c);
                Inner::Closed(ClosedForm {
                    alpha_c: alpha,
                    beta: a2m.r - alpha * a2m.c,
                    ..ClosedForm::default()
                })
            }
            ModelKind::Poly1 => Inner::Linear(fit_ols(PolyFeatures::in_c(1), data)?),
            ModelKind::Poly2 => Inner::Linear(fit_ols(PolyFeatures::in_c(2), data)?),
            ModelKind::Poly3 => Inner::Linear(fit_ols(PolyFeatures::in_c(3), data)?),
            ModelKind::Mosmodel => Inner::Linear(fit_lasso(
                PolyFeatures::mosmodel(),
                data,
                MOSMODEL_MAX_TERMS,
            )?),
        };
        Ok(FittedModel { kind: self, inner })
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ModelKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown model {s:?}"))
    }
}

/// The Alam model's simulator-calibration rule (paper §III): a partial
/// simulator's walk-cycle output is scaled by the ratio of *measured* to
/// *simulated* 4KB-run walk cycles before being fed to the model,
/// compensating for simulator inaccuracy:
/// `C_design = C_design_sim · (C₄ₖ / C₄ₖ_sim)`.
///
/// # Example
///
/// ```
/// use mosmodel::models::scale_simulated_walk_cycles;
///
/// // The simulator under-reports walk cycles by 2x on the calibration run.
/// let c = scale_simulated_walk_cycles(1.0e9, 8.0e9, 4.0e9);
/// assert_eq!(c, 2.0e9);
/// ```
///
/// # Panics
///
/// Panics if `c4k_simulated` is not positive.
pub fn scale_simulated_walk_cycles(
    c_design_simulated: f64,
    c4k_measured: f64,
    c4k_simulated: f64,
) -> f64 {
    assert!(
        c4k_simulated > 0.0,
        "simulated calibration run must have walk cycles"
    );
    c_design_simulated * (c4k_measured / c4k_simulated)
}

/// Closed-form linear model `R̂ = β + α_c·C + α_m·M + α_h·H`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct ClosedForm {
    pub(crate) alpha_c: f64,
    pub(crate) alpha_m: f64,
    pub(crate) alpha_h: f64,
    pub(crate) beta: f64,
}

impl ClosedForm {
    fn predict(&self, s: &Sample) -> f64 {
        self.beta + self.alpha_c * s.c + self.alpha_m * s.m + self.alpha_h * s.h
    }
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Inner {
    Closed(ClosedForm),
    Linear(LinearFit),
}

/// A model fitted to one (workload, platform) dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct FittedModel {
    kind: ModelKind,
    inner: Inner,
}

impl FittedModel {
    /// Which model this is.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The intercept / ideal-runtime parameter β (for closed-form models)
    /// or the fitted intercept (for regression models). The Basu-on-
    /// Broadwell pathology shows up as a *negative* value here.
    pub fn beta(&self) -> f64 {
        match &self.inner {
            Inner::Closed(c) => c.beta,
            Inner::Linear(l) => l.weights()[0],
        }
    }

    /// The coefficient on `C` for models that have one (`alpha_c`, or the
    /// linear-term weight of the polynomial models). `None` for Basu and
    /// Gandhi, which are models in `M`.
    pub fn slope_c(&self) -> Option<f64> {
        match &self.inner {
            Inner::Closed(c) => (c.alpha_c != 0.0).then_some(c.alpha_c),
            Inner::Linear(l) => {
                let names = l.features().names();
                names.iter().position(|n| n == "C").map(|i| l.weights()[i])
            }
        }
    }

    /// Number of non-zero fitted terms (regression models only).
    pub fn nonzero_terms(&self) -> Option<usize> {
        match &self.inner {
            Inner::Closed(_) => None,
            Inner::Linear(l) => Some(l.nonzero_terms()),
        }
    }
}

impl FittedModel {
    /// Renders the fitted formula, e.g.
    /// `R̂ = 1.13e7 + 15.0·M` or `R̂ = 5.2e6 + 6.1e-1·C + 7.7e-9·C^2`.
    /// Closed-form models print their (α, β) parameters; regression
    /// models print their non-zero terms.
    pub fn formula(&self) -> String {
        let term = |coef: f64, name: &str| -> String {
            if coef >= 0.0 {
                format!(" + {coef:.3e}·{name}")
            } else {
                format!(" - {:.3e}·{name}", -coef)
            }
        };
        match &self.inner {
            Inner::Closed(c) => {
                let mut out = format!("R̂ = {:.3e}", c.beta);
                if c.alpha_c != 0.0 {
                    out.push_str(&term(c.alpha_c, "C"));
                }
                if c.alpha_m != 0.0 {
                    out.push_str(&term(c.alpha_m, "M"));
                }
                if c.alpha_h != 0.0 {
                    out.push_str(&term(c.alpha_h, "H"));
                }
                out
            }
            Inner::Linear(l) => {
                let names = l.features().names();
                let mut out = format!("R̂ = {:.3e}", l.weights()[0]);
                for (i, &w) in l.weights().iter().enumerate().skip(1) {
                    if w != 0.0 {
                        out.push_str(&term(w, &names[i]));
                    }
                }
                out
            }
        }
    }
}

impl fmt::Display for FittedModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.formula())
    }
}

impl RuntimeModel for FittedModel {
    fn predict(&self, sample: &Sample) -> f64 {
        match &self.inner {
            Inner::Closed(c) => c.predict(sample),
            Inner::Linear(l) => l.predict(sample),
        }
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LayoutKind;

    /// Anchors: 4KB run (R=1000, H=40, M=20, C=300) and
    /// 2MB run (R=750, H=5, M=2, C=30).
    fn anchored() -> Dataset {
        Dataset::from_samples([
            Sample {
                r: 1000.0,
                h: 40.0,
                m: 20.0,
                c: 300.0,
                kind: LayoutKind::All4K,
            },
            Sample {
                r: 750.0,
                h: 5.0,
                m: 2.0,
                c: 30.0,
                kind: LayoutKind::All2M,
            },
            Sample {
                r: 870.0,
                h: 20.0,
                m: 10.0,
                c: 150.0,
                kind: LayoutKind::Mixed,
            },
        ])
    }

    fn probe() -> Sample {
        Sample {
            r: 0.0,
            h: 10.0,
            m: 8.0,
            c: 100.0,
            kind: LayoutKind::Mixed,
        }
    }

    #[test]
    fn basu_formula_matches_paper() {
        let m = ModelKind::Basu.fit(&anchored()).unwrap();
        // α = 300/20 = 15, β = 1000-300 = 700.
        assert_eq!(m.predict(&probe()), 700.0 + 15.0 * 8.0);
        assert_eq!(m.beta(), 700.0);
        // Basu passes through the 4KB anchor exactly.
        let a4k = anchored().anchor_4k().copied().unwrap();
        assert!((m.predict(&a4k) - a4k.r).abs() < 1e-9);
    }

    #[test]
    fn pham_formula_matches_paper() {
        let m = ModelKind::Pham.fit(&anchored()).unwrap();
        // β = 1000 - 300 - 7*40 = 420; R̂ = 7H + C + β.
        assert_eq!(m.predict(&probe()), 7.0 * 10.0 + 100.0 + 420.0);
    }

    #[test]
    fn gandhi_formula_matches_paper() {
        let m = ModelKind::Gandhi.fit(&anchored()).unwrap();
        // α = 15 (from 4KB), β = 750-30 = 720 (from 2MB).
        assert_eq!(m.predict(&probe()), 720.0 + 15.0 * 8.0);
    }

    #[test]
    fn alam_formula_matches_paper() {
        let m = ModelKind::Alam.fit(&anchored()).unwrap();
        // R̂ = C + (750-30).
        assert_eq!(m.predict(&probe()), 100.0 + 720.0);
        assert_eq!(m.slope_c(), Some(1.0));
    }

    #[test]
    fn yaniv_passes_through_both_anchors() {
        let m = ModelKind::Yaniv.fit(&anchored()).unwrap();
        let ds = anchored();
        let a4k = ds.anchor_4k().unwrap();
        let a2m = ds.anchor_2m().unwrap();
        assert!((m.predict(a4k) - a4k.r).abs() < 1e-9);
        assert!((m.predict(a2m) - a2m.r).abs() < 1e-9);
        // α = (1000-750)/(300-30) ≈ 0.926.
        assert!((m.slope_c().unwrap() - 250.0 / 270.0).abs() < 1e-12);
    }

    #[test]
    fn alam_scale_factor_compensates_simulator_bias() {
        // A simulator that over-reports by 25% gets scaled back down.
        let scaled = scale_simulated_walk_cycles(5.0e8, 1.0e9, 1.25e9);
        assert!((scaled - 4.0e8).abs() < 1.0);
        // A perfectly accurate simulator is a no-op.
        assert_eq!(scale_simulated_walk_cycles(7.0, 3.0, 3.0), 7.0);
    }

    #[test]
    fn alam_is_yaniv_with_unit_slope() {
        // Paper: "the Alam model is equivalent to the Yaniv model where
        // α = 1". Construct data where Yaniv's slope is exactly 1.
        let ds = Dataset::from_samples([
            Sample {
                r: 1000.0,
                h: 0.0,
                m: 10.0,
                c: 300.0,
                kind: LayoutKind::All4K,
            },
            Sample {
                r: 730.0,
                h: 0.0,
                m: 1.0,
                c: 30.0,
                kind: LayoutKind::All2M,
            },
        ]);
        let yaniv = ModelKind::Yaniv.fit(&ds).unwrap();
        let alam = ModelKind::Alam.fit(&ds).unwrap();
        let s = probe();
        assert!((yaniv.predict(&s) - alam.predict(&s)).abs() < 1e-9);
    }

    #[test]
    fn missing_anchor_errors() {
        let no_anchors: Dataset = (0..10)
            .map(|i| Sample {
                r: i as f64,
                h: 0.0,
                m: 1.0,
                c: 1.0,
                kind: LayoutKind::Mixed,
            })
            .collect();
        for kind in ModelKind::PREEXISTING {
            assert!(
                matches!(kind.fit(&no_anchors), Err(FitError::MissingAnchor(_))),
                "{kind} should demand anchors"
            );
        }
    }

    #[test]
    fn degenerate_anchor_errors() {
        let zero_m = Dataset::from_samples([
            Sample {
                r: 1000.0,
                h: 0.0,
                m: 0.0,
                c: 300.0,
                kind: LayoutKind::All4K,
            },
            Sample {
                r: 700.0,
                h: 0.0,
                m: 0.0,
                c: 300.0,
                kind: LayoutKind::All2M,
            },
        ]);
        assert!(matches!(
            ModelKind::Basu.fit(&zero_m),
            Err(FitError::DegenerateAnchor(_))
        ));
        assert!(matches!(
            ModelKind::Yaniv.fit(&zero_m),
            Err(FitError::DegenerateAnchor(_))
        ));
    }

    #[test]
    fn regression_models_fit_linear_data_exactly() {
        let data: Dataset = (0..20)
            .map(|i| {
                let c = 1e6 * i as f64;
                let kind = match i {
                    0 => LayoutKind::All2M,
                    19 => LayoutKind::All4K,
                    _ => LayoutKind::Mixed,
                };
                Sample {
                    r: 1e9 + 0.9 * c,
                    h: 3.0,
                    m: i as f64,
                    c,
                    kind,
                }
            })
            .collect();
        for kind in ModelKind::NEW {
            let m = kind.fit(&data).unwrap();
            // Lasso carries a small regularization bias; OLS models are
            // exact to solver precision.
            let tol = if kind == ModelKind::Mosmodel {
                1e-4
            } else {
                1e-6
            };
            for s in data.iter() {
                let rel = (m.predict(s) - s.r).abs() / s.r;
                assert!(rel < tol, "{kind} rel error {rel}");
            }
        }
    }

    #[test]
    fn mosmodel_reports_sparse_terms() {
        let data: Dataset = (0..54)
            .map(|i| {
                let c = 1e6 * i as f64;
                Sample {
                    r: 1e9 + 0.9 * c,
                    h: 1.0,
                    m: 2.0,
                    c,
                    kind: LayoutKind::Mixed,
                }
            })
            .collect();
        let m = ModelKind::Mosmodel.fit(&data).unwrap();
        assert!(m.nonzero_terms().unwrap() <= 5);
        assert!(ModelKind::Basu
            .fit(&anchored())
            .unwrap()
            .nonzero_terms()
            .is_none());
    }

    #[test]
    fn formulas_render_every_model_family() {
        let ds = anchored();
        let basu = ModelKind::Basu.fit(&ds).unwrap();
        let f = basu.formula();
        assert!(f.starts_with("R̂ = 7.000e2"), "{f}");
        assert!(f.contains("·M"), "{f}");
        assert!(!f.contains("·C"), "basu has no C term: {f}");
        let pham = ModelKind::Pham.fit(&ds).unwrap();
        assert!(pham.formula().contains("·H"), "{}", pham.formula());
        assert!(pham.to_string().starts_with("pham: "));

        // A regression model renders only its non-zero terms.
        let data: Dataset = (0..54)
            .map(|i| {
                let c = 1e6 * i as f64;
                Sample {
                    r: 1e9 + 2.0 * c,
                    h: 1.0,
                    m: 2.0,
                    c,
                    kind: LayoutKind::Mixed,
                }
            })
            .collect();
        let mos = ModelKind::Mosmodel.fit(&data).unwrap();
        let f = mos.formula();
        // With H and M constant, every active monomial is proportional to
        // a power of C (the ridge refit may spread weight across aliased
        // columns like C·H — same predictions).
        assert!(f.contains('C'), "{f}");
        assert!(f.starts_with("R̂ = "), "{f}");
    }

    #[test]
    fn names_roundtrip() {
        for kind in ModelKind::ALL {
            let parsed: ModelKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("linreg".parse::<ModelKind>().is_err());
    }

    #[test]
    fn taxonomy_partitions() {
        for kind in ModelKind::PREEXISTING {
            assert!(kind.is_preexisting());
        }
        for kind in ModelKind::NEW {
            assert!(!kind.is_preexisting());
        }
        assert_eq!(
            ModelKind::PREEXISTING.len() + ModelKind::NEW.len(),
            ModelKind::ALL.len()
        );
    }
}
