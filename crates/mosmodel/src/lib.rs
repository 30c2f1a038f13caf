//! Runtime models for virtual-memory research — the paper's core
//! contribution.
//!
//! A *runtime model* `R̂(H, M, C)` predicts a workload's execution cycles
//! on a specific processor from virtual-memory performance counters
//! (paper Table 2):
//!
//! | symbol | meaning |
//! |---|---|
//! | `R` | unhalted runtime cycles |
//! | `H` | L1-TLB misses that hit the L2 TLB |
//! | `M` | misses in both TLB levels |
//! | `C` | page-walk cycles |
//!
//! This crate implements, exactly as specified in paper §III and §VII:
//!
//! * the five **preexisting linear models** — [`models::ModelKind::Basu`],
//!   [`models::ModelKind::Pham`], [`models::ModelKind::Gandhi`],
//!   [`models::ModelKind::Alam`], [`models::ModelKind::Yaniv`] — each
//!   fully determined by the 4KB and/or 2MB anchor measurements;
//! * the **regression models** — `poly1`/`poly2`/`poly3`, least-squares
//!   polynomials in `C` fitted to all available samples;
//! * **Mosmodel** — a third-degree polynomial in all of `(H, M, C)`
//!   fitted with Lasso regression constrained to at most 5 non-zero
//!   coefficients (the paper's one-in-ten rule against 54 samples);
//! * the **validation machinery** — maximal and geometric-mean relative
//!   errors (Equations 1–2), the coefficient of determination `R²`
//!   (Table 8), and K-fold cross-validation (Table 6).
//!
//! All linear algebra (Cholesky least squares, exact-path (LARS) Lasso,
//! polynomial feature expansion) is implemented here with no external
//! numerics dependencies.
//!
//! # Example
//!
//! ```
//! use mosmodel::dataset::{Dataset, LayoutKind, Sample};
//! use mosmodel::models::ModelKind;
//! use mosmodel::metrics::max_err;
//!
//! // A toy dataset: runtime exactly linear in walk cycles.
//! let mut ds = Dataset::new();
//! for i in 0..12u64 {
//!     let c = 1000.0 * i as f64;
//!     let kind = match i {
//!         0 => LayoutKind::All2M,
//!         11 => LayoutKind::All4K,
//!         _ => LayoutKind::Mixed,
//!     };
//!     ds.push(Sample { r: 5_000.0 + 0.7 * c, h: 10.0, m: i as f64, c, kind });
//! }
//! let yaniv = ModelKind::Yaniv.fit(&ds).unwrap();
//! assert!(max_err(&yaniv, &ds) < 1e-9, "linear data is predicted exactly");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cv;
pub mod dataset;
mod error;
pub mod lasso;
pub mod linalg;
pub mod metrics;
pub mod models;
pub mod ols;
pub mod poly;
pub mod select;

pub use dataset::{Dataset, LayoutKind, Sample};
pub use error::FitError;
pub use models::{FittedModel, ModelKind, RuntimeModel};
