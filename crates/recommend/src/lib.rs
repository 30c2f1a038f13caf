//! Layout recommendation: from a hugepage budget to a concrete layout.
//!
//! The paper's exploration heuristics (§VI-B) generate layouts to *fit*
//! models; this crate turns the fitted models around and asks the
//! question an operator actually has: *given this hugepage budget, which
//! layout should I run?* The pipeline is
//!
//! 1. [`parse_budget`] — a budget grammar (`"64x2m+1x1g"`) naming an
//!    admissible hugepage inventory, validated against the mosalloc pool
//!    the same way [`layouts::spec`] validates window specs;
//! 2. [`enumerate_candidates`] — a deterministic candidate generator
//!    that calls the paper's three exploration heuristics in
//!    [`layouts`] and keeps only budget-admissible layouts;
//! 3. [`recommend`] — a scorer-driven engine that evaluates every
//!    candidate with cheap model predictions (the [`Scorer`] is supplied
//!    by the caller; mosaicd backs it with the pair's fitted registry
//!    entry) and annotates the answer with the pair's K-fold
//!    cross-validation error.
//!
//! When the CV error exceeds the confidence threshold the engine does
//! **not** return a low-confidence layout: it switches to an
//! active-learning fallback and returns the single candidate the models
//! disagree about most — the most informative next layout to *measure*
//! (query-by-committee, in the spirit of Gem5Pred's learned-cost
//! budgeting of expensive runs).
//!
//! Everything here is deterministic: candidate order is a pure function
//! of `(pool, budget, steps)` (Random Window is seeded from the
//! canonical budget string), so two independent servers produce
//! byte-identical recommendations for the same request.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Recommendations are computed on the mosaicd request path, where a
// panic kills a worker thread; panicking shortcuts are banned in
// production code (tests may still unwrap/index).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation
    )
)]

pub mod budget;
pub mod engine;

pub use budget::{parse_budget, render_budget, Budget, BudgetError};
pub use engine::{
    enumerate_candidates, recommend, recommend_over, RecommendError, Recommendation, Score, Scorer,
    DEFAULT_CV_THRESHOLD, DEFAULT_EXPLORE_STEPS,
};

use vmcore::{MemoryLayout, PageSize};

/// Renders a layout as a [`layouts::spec`] token (`4k` or
/// `2m:<start>..<end>` windows joined with `+`, pool-relative byte
/// offsets), so a recommendation can be fed straight back into
/// `predict`. Re-parsing the rendered spec against the layout's pool
/// reproduces the layout (windows are clipped to the pool for
/// rendering; `parse_spec` re-aligns them outward, restoring the
/// original reservation).
pub fn render_layout_spec(layout: &MemoryLayout) -> String {
    let pool = layout.pool();
    let parts: Vec<String> = layout
        .windows()
        .iter()
        .filter_map(|w| {
            let clipped = w.region.intersection(&pool)?;
            let start = clipped.start().raw().saturating_sub(pool.start().raw());
            let end = start.saturating_add(clipped.len());
            let size = match w.size {
                PageSize::Huge2M => "2m",
                PageSize::Huge1G => "1g",
                PageSize::Base4K => return None,
            };
            Some(format!("{size}:{start}..{end}"))
        })
        .collect();
    if parts.is_empty() {
        "4k".to_string()
    } else {
        parts.join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::{Region, VirtAddr, GIB, MIB};

    fn pool() -> Region {
        Region::new(VirtAddr::new(0x2000_0000_0000), 2 * GIB)
    }

    #[test]
    fn rendered_specs_reparse_to_the_same_layout() {
        let budget = parse_budget(pool(), "64x2m+1x1g").unwrap();
        for layout in enumerate_candidates(pool(), &budget, 4) {
            let spec = render_layout_spec(&layout);
            let back = layouts::parse_spec(pool(), &spec)
                .unwrap_or_else(|e| panic!("rendered spec {spec:?} rejected: {e}"));
            assert_eq!(back.describe(), layout.describe(), "spec {spec:?}");
        }
    }

    #[test]
    fn all_4k_renders_as_4k() {
        assert_eq!(render_layout_spec(&MemoryLayout::all_4k(pool())), "4k");
    }

    #[test]
    fn uniform_1g_over_small_pool_renders_clipped_but_reparses() {
        // A 48MB pool backed by one 1GB page: the window reservation
        // extends past the pool; the rendered spec names the pool's
        // slice of it and parse_spec re-aligns outward.
        let small = Region::new(VirtAddr::new(0x2000_0000_0000), 48 * MIB);
        let layout = MemoryLayout::uniform(small, PageSize::Huge1G);
        let spec = render_layout_spec(&layout);
        assert_eq!(spec, format!("1g:0..{}", 48 * MIB));
        let back = layouts::parse_spec(small, &spec).unwrap();
        assert_eq!(back.describe(), layout.describe());
    }

    #[test]
    fn mixed_layout_renders_both_windows() {
        let layout = MemoryLayout::builder(pool())
            .window(Region::new(pool().start(), GIB), PageSize::Huge1G)
            .unwrap()
            .window(
                Region::new(pool().start() + GIB, 64 * MIB),
                PageSize::Huge2M,
            )
            .unwrap()
            .build()
            .unwrap();
        let spec = render_layout_spec(&layout);
        assert_eq!(
            spec,
            format!("1g:0..{}+2m:{}..{}", GIB, GIB, GIB + 64 * MIB)
        );
    }
}
