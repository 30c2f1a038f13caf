//! Ablation: Mosmodel's non-zero-term budget.
//!
//! The paper's Lasso "leaves only 5 nonzero coefficients or less"
//! (one-in-ten rule against 54 samples). This bench sweeps the budget
//! from 1 to 10 terms and reports training and cross-validation errors —
//! showing where extra flexibility stops paying.

use bench::bench_grid;
use criterion::{criterion_group, criterion_main, Criterion};
use harness::Grid;
use machine::Platform;
use mosmodel::lasso::fit_lasso;
use mosmodel::metrics::max_err;
use mosmodel::poly::PolyFeatures;
use mosmodel::Dataset;

fn cv_lasso(ds: &Dataset, budget: usize, k: usize) -> f64 {
    let mut worst = 0.0f64;
    for fold in 0..k {
        let train_idx: Vec<usize> = (0..ds.len()).filter(|i| i % k != fold).collect();
        let test_idx: Vec<usize> = (0..ds.len()).filter(|i| i % k == fold).collect();
        let fit = fit_lasso(PolyFeatures::mosmodel(), &ds.subset(&train_idx), budget)
            .expect("enough samples");
        worst = worst.max(max_err(&fit, &ds.subset(&test_idx)));
    }
    worst
}

fn ablation(c: &mut Criterion) {
    let grid: Grid = bench_grid();
    let pairs = [
        ("spec06/mcf", &Platform::SANDY_BRIDGE),
        ("gups/16GB", &Platform::BROADWELL),
        ("xsbench/8GB", &Platform::HASWELL),
    ];
    println!("\nAblation — Lasso term budget (paper uses ≤ 5):");
    println!(
        "{:>7} {:>28} {:>28}",
        "budget", "worst fit err (3 pairs)", "worst 6-fold CV err"
    );
    for budget in 1usize..=10 {
        let mut fit_worst = 0.0f64;
        let mut cv_worst = 0.0f64;
        for (w, p) in pairs {
            let ds = grid.dataset(w, p);
            let fit = fit_lasso(PolyFeatures::mosmodel(), &ds, budget).expect("fits");
            fit_worst = fit_worst.max(max_err(&fit, &ds));
            cv_worst = cv_worst.max(cv_lasso(&ds, budget, 6));
        }
        println!(
            "{:>7} {:>27.2}% {:>27.2}%",
            budget,
            100.0 * fit_worst,
            100.0 * cv_worst
        );
    }
    println!();

    let ds = grid.dataset("spec06/mcf", &Platform::SANDY_BRIDGE);
    c.bench_function("lasso_budget_5_fit", |b| {
        b.iter(|| fit_lasso(PolyFeatures::mosmodel(), &ds, 5).unwrap())
    });
}

criterion_group! { name = benches; config = bench::criterion(); targets = ablation }
criterion_main!(benches);
