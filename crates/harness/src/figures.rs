//! Regenerators for the paper's figures.
//!
//! Every function returns a structured result whose `Display` renders the
//! same information the paper's figure conveys (series data and/or the
//! headline numbers), so `mosaic figure` can print them and tests can
//! assert on the shapes.

use std::fmt;

use machine::Platform;
use mosmodel::metrics::{geo_mean_err, max_err};
use mosmodel::models::{ModelKind, RuntimeModel};
use mosmodel::{FitError, Sample};

use crate::report::{pct, TextTable};
use crate::{casestudy, Grid};

/// Aggregated worst-case error of one model over many (W, P) pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelErrorSummary {
    /// The model.
    pub model: ModelKind,
    /// Its maximal relative error over every sample of every pair.
    pub max_err: f64,
    /// The (workload, platform) pair where the maximum occurred.
    pub worst_pair: (String, &'static str),
}

/// Figure 2: maximal errors of the old models (2a) and new models (2b).
#[derive(Clone, Debug, PartialEq)]
pub struct Fig2 {
    /// Preexisting models (pham, alam, gandhi, basu, yaniv).
    pub old: Vec<ModelErrorSummary>,
    /// New models (poly1/2/3, mosmodel).
    pub new: Vec<ModelErrorSummary>,
}

impl Fig2 {
    /// The summary for one model, if present.
    pub fn of(&self, model: ModelKind) -> Option<&ModelErrorSummary> {
        self.old.iter().chain(&self.new).find(|s| s.model == model)
    }
}

impl fmt::Display for Fig2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 2a — preexisting models, maximal error over all W x P:"
        )?;
        let mut t = TextTable::new(vec!["model".into(), "max err".into(), "worst at".into()]);
        for s in &self.old {
            t.row(vec![
                s.model.name().into(),
                pct(s.max_err),
                format!("{} on {}", s.worst_pair.0, s.worst_pair.1),
            ]);
        }
        write!(f, "{t}")?;
        writeln!(f, "\nFigure 2b — new models:")?;
        let mut t = TextTable::new(vec!["model".into(), "max err".into(), "worst at".into()]);
        for s in &self.new {
            t.row(vec![
                s.model.name().into(),
                pct(s.max_err),
                format!("{} on {}", s.worst_pair.0, s.worst_pair.1),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Computes Figure 2 over the given pairs (paper: all TLB-sensitive
/// workloads on all three platforms).
pub fn fig2(grid: &Grid, pairs: &[(String, &'static Platform)]) -> Fig2 {
    let summarize = |model: ModelKind| -> ModelErrorSummary {
        let mut worst = 0.0f64;
        let mut worst_pair = (String::from("-"), "-");
        for (workload, platform) in pairs {
            let ds = grid.dataset(workload, platform);
            let Ok(fitted) = model.fit(&ds) else { continue };
            let e = max_err(&fitted, &ds);
            if e > worst {
                worst = e;
                worst_pair = (workload.clone(), platform.name);
            }
        }
        ModelErrorSummary {
            model,
            max_err: worst,
            worst_pair,
        }
    };
    Fig2 {
        old: ModelKind::PREEXISTING
            .iter()
            .map(|&m| summarize(m))
            .collect(),
        new: ModelKind::NEW.iter().map(|&m| summarize(m)).collect(),
    }
}

/// Which error statistic a per-benchmark matrix reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorStat {
    /// Maximal relative error (Figure 5).
    Max,
    /// Geometric-mean relative error (Figure 6).
    GeoMean,
}

/// Figures 5/6: per-benchmark error of every model on one platform.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorMatrix {
    /// Platform name.
    pub platform: &'static str,
    /// Statistic reported.
    pub stat: ErrorStat,
    /// Models, column order.
    pub models: Vec<ModelKind>,
    /// `(workload, error per model)` rows; `None` when the model could
    /// not be fitted for that pair.
    pub rows: Vec<(String, Vec<Option<f64>>)>,
}

impl ErrorMatrix {
    /// The error of `model` on `workload`, if both exist.
    pub fn error_of(&self, workload: &str, model: ModelKind) -> Option<f64> {
        let col = self.models.iter().position(|&m| m == model)?;
        let row = self.rows.iter().find(|(w, _)| w == workload)?;
        row.1[col]
    }

    /// The largest error of `model` across all workloads.
    pub fn worst_of(&self, model: ModelKind) -> Option<f64> {
        let col = self.models.iter().position(|&m| m == model)?;
        self.rows
            .iter()
            .filter_map(|(_, errs)| errs[col])
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }
}

impl ErrorMatrix {
    /// Exports the matrix as CSV: `workload,<model>,...` with errors as
    /// fractions (empty cell when a model could not be fitted).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("workload");
        for m in &self.models {
            out.push(',');
            out.push_str(m.name());
        }
        out.push('\n');
        for (workload, errs) in &self.rows {
            out.push_str(workload);
            for e in errs {
                out.push(',');
                if let Some(v) = e {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ErrorMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stat = match self.stat {
            ErrorStat::Max => "maximal",
            ErrorStat::GeoMean => "geomean",
        };
        writeln!(f, "{} — per-benchmark {stat} error:", self.platform)?;
        let mut headers = vec!["workload".to_string()];
        headers.extend(self.models.iter().map(|m| m.name().to_string()));
        let mut t = TextTable::new(headers);
        for (workload, errs) in &self.rows {
            let mut cells = vec![workload.clone()];
            cells.extend(errs.iter().map(|e| e.map_or("-".into(), pct)));
            t.row(cells);
        }
        write!(f, "{t}")
    }
}

/// Computes the Figure 5 (max) or Figure 6 (geomean) matrix for one
/// platform over `workload_names`.
pub fn error_matrix(
    grid: &Grid,
    platform: &'static Platform,
    workload_names: &[String],
    stat: ErrorStat,
) -> ErrorMatrix {
    let models: Vec<ModelKind> = ModelKind::ALL.to_vec();
    let rows = workload_names
        .iter()
        .map(|name| {
            let ds = grid.dataset(name, platform);
            let errs = models
                .iter()
                .map(|&m| {
                    m.fit(&ds).ok().map(|fitted| match stat {
                        ErrorStat::Max => max_err(&fitted, &ds),
                        ErrorStat::GeoMean => geo_mean_err(&fitted, &ds),
                    })
                })
                .collect();
            (name.clone(), errs)
        })
        .collect();
    ErrorMatrix {
        platform: platform.name,
        stat,
        models,
        rows,
    }
}

/// A runtime-vs-walk-cycles curve figure (Figures 3, 7, 8, 10, 11 share
/// this shape): empirical points plus two models' predictions.
#[derive(Clone, Debug, PartialEq)]
pub struct CurveFig {
    /// Workload name.
    pub workload: String,
    /// Platform name.
    pub platform: &'static str,
    /// Empirical `(C, R)` points sorted by walk cycles.
    pub empirical: Vec<(f64, f64)>,
    /// First model's name and `(C, R̂)` predictions at the same points.
    pub model_a: (ModelKind, Vec<(f64, f64)>),
    /// Second model, likewise.
    pub model_b: (ModelKind, Vec<(f64, f64)>),
    /// Maximal relative errors of the two models on the dataset.
    pub err_a: f64,
    /// Maximal error of model B.
    pub err_b: f64,
}

impl CurveFig {
    /// Renders the figure as an ASCII scatter plot: empirical points
    /// (`o`), model A (`a`), model B (`b`), overlaps (`*`). Both axes are
    /// linear, sized `width x height` characters.
    pub fn ascii_plot(&self, width: usize, height: usize) -> String {
        let width = width.max(16);
        let height = height.max(8);
        let all_r = self
            .empirical
            .iter()
            .chain(&self.model_a.1)
            .chain(&self.model_b.1)
            .map(|&(_, r)| r);
        let (mut r_min, mut r_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for r in all_r {
            r_min = r_min.min(r);
            r_max = r_max.max(r);
        }
        let c_max = self
            .empirical
            .iter()
            .map(|&(c, _)| c)
            .fold(0.0, f64::max)
            .max(1.0);
        let r_span = (r_max - r_min).max(1.0);
        let mut grid = vec![vec![' '; width]; height];
        let mut put = |c: f64, r: f64, glyph: char| {
            let x = ((c / c_max) * (width - 1) as f64).round() as usize;
            let y = (((r - r_min) / r_span) * (height - 1) as f64).round() as usize;
            let row = height - 1 - y.min(height - 1);
            let cell = &mut grid[row][x.min(width - 1)];
            *cell = match (*cell, glyph) {
                (' ', g) => g,
                (existing, g) if existing == g => g,
                _ => '*',
            };
        };
        for &(c, r) in &self.model_a.1 {
            put(c, r, 'a');
        }
        for &(c, r) in &self.model_b.1 {
            put(c, r, 'b');
        }
        for &(c, r) in &self.empirical {
            put(c, r, 'o');
        }
        let mut out = String::new();
        out.push_str(&format!(
            "R (max {:.2}e6)  o=measured  a={}  b={}\n",
            r_max / 1e6,
            self.model_a.0.name(),
            self.model_b.0.name()
        ));
        for row in grid {
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        out.push('+');
        out.extend(std::iter::repeat_n('-', width));
        out.push_str(&format!("> C (max {:.2}e6)\n", c_max / 1e6));
        out
    }
}

impl CurveFig {
    /// Exports the figure's series as CSV: `c,measured,<model_a>,<model_b>`.
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "c,measured,{},{}\n",
            self.model_a.0.name(),
            self.model_b.0.name()
        );
        for (i, &(c, r)) in self.empirical.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{}\n",
                c, r, self.model_a.1[i].1, self.model_b.1[i].1
            ));
        }
        out
    }
}

impl fmt::Display for CurveFig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {} — R vs C ({}: max err {}, {}: max err {}):",
            self.workload,
            self.platform,
            self.model_a.0.name(),
            pct(self.err_a),
            self.model_b.0.name(),
            pct(self.err_b),
        )?;
        // Pick the unit from the data's magnitude: paper-scale runs are
        // billions of cycles, the scaled simulations are millions.
        let max_r = self.empirical.iter().map(|&(_, r)| r).fold(0.0, f64::max);
        let (div, unit) = if max_r >= 1e9 {
            (1e9, "e9")
        } else {
            (1e6, "e6")
        };
        f.write_str(&self.ascii_plot(64, 16))?;
        let mut t = TextTable::new(vec![
            format!("C [{unit}]"),
            format!("R measured [{unit}]"),
            format!("R {} [{unit}]", self.model_a.0.name()),
            format!("R {} [{unit}]", self.model_b.0.name()),
        ]);
        for (i, &(c, r)) in self.empirical.iter().enumerate() {
            t.row(vec![
                format!("{:.3}", c / div),
                format!("{:.3}", r / div),
                format!("{:.3}", self.model_a.1[i].1 / div),
                format!("{:.3}", self.model_b.1[i].1 / div),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Builds a curve figure comparing two models on one pair.
///
/// # Errors
///
/// Propagates fit failures of either model.
pub fn model_curve(
    grid: &Grid,
    workload: &str,
    platform: &'static Platform,
    model_a: ModelKind,
    model_b: ModelKind,
) -> Result<CurveFig, FitError> {
    let ds = grid.dataset(workload, platform);
    let fit_a = model_a.fit(&ds)?;
    let fit_b = model_b.fit(&ds)?;
    let mut samples: Vec<&Sample> = ds.iter().collect();
    samples.sort_by(|a, b| a.c.total_cmp(&b.c));
    let empirical: Vec<(f64, f64)> = samples.iter().map(|s| (s.c, s.r)).collect();
    let preds = |m: &dyn RuntimeModel| {
        samples
            .iter()
            .map(|s| (s.c, m.predict(s)))
            .collect::<Vec<_>>()
    };
    Ok(CurveFig {
        workload: workload.to_string(),
        platform: platform.name,
        model_a: (model_a, preds(&fit_a)),
        model_b: (model_b, preds(&fit_b)),
        err_a: max_err(&fit_a, &ds),
        err_b: max_err(&fit_b, &ds),
        empirical,
    })
}

/// Figure 3: spec06/mcf on SandyBridge — the linear (Yaniv) model misses
/// the curvature that Mosmodel captures.
pub fn fig3(grid: &Grid) -> Result<CurveFig, FitError> {
    model_curve(
        grid,
        "spec06/mcf",
        &Platform::SANDY_BRIDGE,
        ModelKind::Yaniv,
        ModelKind::Mosmodel,
    )
}

/// Figure 5: per-benchmark maximal errors for every platform.
pub fn fig5(grid: &Grid, per_platform: &[(&'static Platform, Vec<String>)]) -> Vec<ErrorMatrix> {
    per_platform
        .iter()
        .map(|(p, names)| error_matrix(grid, p, names, ErrorStat::Max))
        .collect()
}

/// Figure 6: per-benchmark geomean errors for every platform.
pub fn fig6(grid: &Grid, per_platform: &[(&'static Platform, Vec<String>)]) -> Vec<ErrorMatrix> {
    per_platform
        .iter()
        .map(|(p, names)| error_matrix(grid, p, names, ErrorStat::GeoMean))
        .collect()
}

/// Figure 7: how optimistic the Basu model gets on gapbs/sssp-twitter.
/// The paper measures predictions up to 42% *below* the true runtime
/// near the zero-overhead region on SandyBridge; in this substrate the
/// under-prediction concentrates on Broadwell (where the two-walker `C`
/// counter inflates Basu's subtraction), so the figure reports that
/// platform.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig7 {
    /// The underlying curve (Basu vs Mosmodel for reference).
    pub curve: CurveFig,
    /// Maximal *optimism*: `max (R - R̂)/R` over the dataset (positive
    /// means the model under-predicts runtimes).
    pub basu_max_optimism: f64,
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7 — Basu optimism on {}/{}: predicts up to {} below the true runtime",
            self.curve.workload,
            self.curve.platform,
            pct(self.basu_max_optimism)
        )?;
        write!(f, "{}", self.curve)
    }
}

/// Computes Figure 7.
///
/// # Errors
///
/// Propagates model-fitting failures.
pub fn fig7(grid: &Grid) -> Result<Fig7, FitError> {
    let workload = "gapbs/sssp-twitter";
    let platform = &Platform::BROADWELL;
    let curve = model_curve(
        grid,
        workload,
        platform,
        ModelKind::Basu,
        ModelKind::Mosmodel,
    )?;
    let ds = grid.dataset(workload, platform);
    let basu = ModelKind::Basu.fit(&ds)?;
    let optimism = ds
        .iter()
        .map(|s| (s.r - basu.predict(s)) / s.r)
        .fold(f64::NEG_INFINITY, f64::max);
    Ok(Fig7 {
        curve,
        basu_max_optimism: optimism,
    })
}

/// Figure 8: linear regression describes spec06/omnetpp well on
/// SandyBridge.
pub fn fig8(grid: &Grid) -> Result<CurveFig, FitError> {
    model_curve(
        grid,
        "spec06/omnetpp",
        &Platform::SANDY_BRIDGE,
        ModelKind::Poly1,
        ModelKind::Mosmodel,
    )
}

/// Figure 9: the poly1 slope for spec17/xalancbmk_s on Broadwell exceeds
/// 1 — each walk cycle costs *more* than a cycle because walker traffic
/// pollutes the caches.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig9 {
    /// The fitted poly1 slope α.
    pub slope: f64,
    /// poly1's maximal error on the pair.
    pub poly1_max_err: f64,
    /// The curve (poly1 vs mosmodel).
    pub curve: CurveFig,
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 9 — {} on {}: poly1 slope α = {:.3} (> 1 means walks cost more than their cycles)",
            self.curve.workload, self.curve.platform, self.slope
        )?;
        write!(f, "{}", self.curve)
    }
}

/// Computes Figure 9.
///
/// # Errors
///
/// Propagates model-fitting failures.
pub fn fig9(grid: &Grid) -> Result<Fig9, FitError> {
    let workload = "spec17/xalancbmk_s";
    let platform = &Platform::BROADWELL;
    let ds = grid.dataset(workload, platform);
    let poly1 = ModelKind::Poly1.fit(&ds)?;
    let curve = model_curve(
        grid,
        workload,
        platform,
        ModelKind::Poly1,
        ModelKind::Mosmodel,
    )?;
    Ok(Fig9 {
        slope: poly1.slope_c().unwrap_or(f64::NAN),
        poly1_max_err: max_err(&poly1, &ds),
        curve,
    })
}

/// Figure 10: gups/16GB on SandyBridge — poly1 cannot follow the convex
/// R(C) curve; poly2 can.
pub fn fig10(grid: &Grid) -> Result<CurveFig, FitError> {
    model_curve(
        grid,
        "gups/16GB",
        &Platform::SANDY_BRIDGE,
        ModelKind::Poly1,
        ModelKind::Poly2,
    )
}

/// Figure 11: predicting the all-1GB layout of gapbs/pr-twitter on
/// SandyBridge — the Yaniv model misses, Mosmodel is accurate.
pub fn fig11(grid: &Grid) -> Result<casestudy::OneGbValidation, FitError> {
    casestudy::one_gb(grid, "gapbs/pr-twitter", &Platform::SANDY_BRIDGE)
}

/// Helper assembling the `(workload, platform)` pair list for aggregated
/// figures, respecting per-platform TLB sensitivity.
pub fn sensitive_pairs(grid: &Grid) -> Vec<(String, &'static Platform)> {
    let mut pairs = Vec::new();
    for platform in Platform::ALL {
        for name in grid.tlb_sensitive_workloads(platform) {
            pairs.push((name, platform));
        }
    }
    pairs
}

/// Per-platform TLB-sensitive workload lists, the row sets of Figures
/// 5 and 6.
pub fn sensitive_by_platform(grid: &Grid) -> Vec<(&'static Platform, Vec<String>)> {
    Platform::ALL
        .iter()
        .map(|&p| (p, grid.tlb_sensitive_workloads(p)))
        .collect()
}
