//! `mosaic-bench compare <base.json> <head.json>`: applies the bounds in
//! BENCHMARK.json to every (metric, workload) pair two sets of runs
//! share, and gives each a verdict.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::{stats, DECLARATION};

/// How the head side compares with the base side on one pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound either way.
    Unchanged,
    /// A side's quartile spread is wider than the bound, so a difference
    /// within it cannot be told from noise.
    Unresolved,
    /// Every value on both sides is identical (deterministic metrics).
    Equal,
    /// A per-layer metric: no bound, so no verdict.
    NoBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Equal => "equal",
            Verdict::NoBound => "-",
        }
    }
}

/// Spread of one side: the distance between its quartiles as a share of
/// its median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, med, q3] = stats::quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The verdict for one pair. `bound` is the share of the base median the
/// metric may worsen by; `None` for per-layer metrics.
pub fn verdict(base: &[f64], head: &[f64], bound: Option<f64>, lower_is_better: bool) -> Verdict {
    if base
        .iter()
        .chain(head)
        .all(|x| x.to_bits() == base[0].to_bits())
    {
        return Verdict::Equal;
    }
    let Some(bound) = bound else {
        return Verdict::NoBound;
    };
    let better = |h: f64, b: f64| if lower_is_better { h < b } else { h > b };
    let (base_med, head_med) = (stats::median(base), stats::median(head));
    // Relative change, signed so that positive means worse.
    let worse_by =
        (head_med - base_med) / base_med.abs() * if lower_is_better { 1.0 } else { -1.0 };
    if spread(base) > bound || spread(head) > bound {
        let all_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// `(bound, lower_is_better)` per metric name; per-layer metrics have no
/// bound.
fn declared_bounds() -> BTreeMap<String, (Option<f64>, bool)> {
    let decl = json::parse(DECLARATION).expect("BENCHMARK.json is valid JSON");
    let mut out = BTreeMap::new();
    for kind in ["end_to_end", "per_layer"] {
        for m in decl.get(kind).and_then(Json::as_array).unwrap_or(&[]) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64);
            out.insert(name.to_string(), (bound, lower));
        }
    }
    out
}

/// Values per (workload, metric) across a result file's runs, and
/// whether every run passed its checks.
type Side = (BTreeMap<(String, String), Vec<f64>>, bool);

fn load(path: &Path) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no runs", path.display()))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for run in runs {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        all_correct &= run.get("correct") == Some(&Json::Bool(true));
        for (name, m) in run.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((values, all_correct))
}

pub fn main(base: &Path, head: &Path) -> ExitCode {
    let (base, head) = match (load(base), load(head)) {
        (Ok(b), Ok(h)) => (b, h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("mosaic-bench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let bounds = declared_bounds();
    println!(
        "{:<16} {:<34} {:>26} {:>26} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "bound"
    );
    let mut worse = 0;
    for ((workload, metric), b) in &base.0 {
        let Some(h) = head.0.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (bound, lower) = bounds.get(metric).copied().unwrap_or((None, true));
        let v = verdict(b, h, bound, lower);
        worse += usize::from(v == Verdict::Worse);
        let side = |xs: &[f64]| {
            let [q1, med, q3] = stats::quartiles(xs);
            format!("{med:.4} [{q1:.4}, {q3:.4}]")
        };
        let change = (stats::median(h) / stats::median(b) - 1.0) * 100.0;
        println!(
            "{workload:<16} {metric:<34} {:>26} {:>26} {:>7.1}% {:>6}  {}",
            side(b),
            side(h),
            change,
            bound.map_or_else(|| "-".to_string(), |b| b.to_string()),
            v.label()
        );
    }
    if !base.1 || !head.1 {
        println!(
            "a run on the {} side failed its correctness checks",
            if base.1 { "head" } else { "base" }
        );
        return ExitCode::FAILURE;
    }
    if worse > 0 {
        println!("{worse} pair(s) worse than their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let v = |head: &[f64]| verdict(&base, head, Some(0.10), true);
        assert_eq!(v(&[1.05, 1.04, 1.06]), Verdict::Unchanged);
        assert_eq!(v(&[1.20, 1.21, 1.19]), Verdict::Worse);
        assert_eq!(v(&[0.80, 0.81, 0.79]), Verdict::Better);
        // A noisy head: spread above the bound, so no verdict either way...
        assert_eq!(v(&[0.5, 1.5, 1.0, 0.7, 1.3]), Verdict::Unresolved);
        // ...unless every head run beats every base run.
        assert_eq!(v(&[0.5, 0.9, 0.7, 0.6, 0.8]), Verdict::Better);
        // Higher-is-better metrics flip the sign.
        assert_eq!(
            verdict(&base, &[1.2, 1.2], Some(0.1), false),
            Verdict::Better
        );
        // Deterministic values compare exactly; per-layer ones get none.
        assert_eq!(
            verdict(&[3.0, 3.0], &[3.0], Some(0.1), true),
            Verdict::Equal
        );
        assert_eq!(verdict(&[3.0], &[4.0], None, true), Verdict::NoBound);
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        assert_eq!(spread(&[2.0]), 0.0);
        let s = spread(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s - 1.0).abs() < 1e-12, "{s}");
    }
}
