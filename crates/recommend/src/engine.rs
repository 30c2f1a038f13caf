//! The recommendation engine: candidates → scores → a decision.
//!
//! [`enumerate_candidates`] produces the deterministic, deduplicated,
//! budget-admissible candidate set; [`recommend`] scores it through a
//! caller-supplied [`Scorer`] and picks either the layout with the
//! lowest predicted runtime (when the pair's cross-validation error is
//! within the confidence threshold) or — the active-learning fallback —
//! the candidate the models disagree about most, as the single most
//! informative next layout to measure.

use std::collections::BTreeSet;
use std::fmt;

use vmcore::{MemoryLayout, PageSize, Region};

use crate::budget::{render_budget, Budget};

/// Steps per exploration heuristic on the request path. Smaller than
/// the battery's 8: every candidate costs one partial simulation to
/// score, and 4 steps already mix prefixes, random windows and slides.
pub const DEFAULT_EXPLORE_STEPS: usize = 4;

/// Maximal K-fold CV error at which a prediction-backed recommendation
/// is considered trustworthy (10%, the ballpark of the paper's Table 6
/// Mosmodel errors). Above it the engine returns a measurement
/// suggestion instead.
pub const DEFAULT_CV_THRESHOLD: f64 = 0.10;

/// How a scorer rates one candidate layout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Score {
    /// Predicted runtime (cycles) from the pair's primary model.
    pub predicted: f64,
    /// How much the fitted models disagree on this candidate (relative
    /// spread of their predictions). High disagreement marks the most
    /// informative layout to measure next (query-by-committee).
    pub disagreement: f64,
}

/// Evaluates candidate layouts with the pair's fitted models.
///
/// mosaicd implements this with one partial simulation plus model
/// application per candidate; tests implement it with lookup tables.
pub trait Scorer {
    /// Scores `layout`, or `None` if it cannot be evaluated (the engine
    /// skips such candidates).
    fn score(&self, layout: &MemoryLayout) -> Option<Score>;
}

/// The engine's answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Recommendation {
    /// Confident: run this layout; `predicted` is its modeled runtime.
    Layout {
        /// The recommended layout.
        layout: MemoryLayout,
        /// Predicted runtime in cycles.
        predicted: f64,
    },
    /// Not confident (CV error above threshold): measure this layout
    /// next — it is the candidate the models disagree about most.
    Measure {
        /// The most informative layout to measure next.
        layout: MemoryLayout,
        /// The models' relative disagreement on it.
        gain: f64,
    },
}

/// Why no recommendation could be produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecommendError {
    /// No admissible candidate could be scored.
    NoCandidates,
}

impl fmt::Display for RecommendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecommendError::NoCandidates => {
                write!(f, "no admissible candidate layout could be scored")
            }
        }
    }
}

impl std::error::Error for RecommendError {}

/// Enumerates the deterministic candidate set for one budget: the
/// all-4KB baseline, the admissible uniform layouts, then the admissible
/// layouts of the paper's three §VI-B heuristics (Growing, Random and
/// Sliding Window, `steps` steps each), deduplicated by canonical
/// description in first-seen order.
///
/// No clock and no ambient RNG: Random Window is seeded from the
/// canonical budget string, so the same `(pool, budget, steps)` request
/// enumerates the same candidates on any server. Sliding Window needs a
/// hot region, and the request path has no PEBS-like profile, so it
/// slides a *budget-sized* window (the largest window the 2MB inventory
/// can back) from the pool's base.
pub fn enumerate_candidates(pool: Region, budget: &Budget, steps: usize) -> Vec<MemoryLayout> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut push = |layout: MemoryLayout| {
        if budget.admits(&layout) && seen.insert(layout.describe()) {
            out.push(layout);
        }
    };
    push(MemoryLayout::all_4k(pool));
    if !pool.is_empty() {
        push(MemoryLayout::uniform(pool, PageSize::Huge2M));
        push(MemoryLayout::uniform(pool, PageSize::Huge1G));
    }
    if steps == 0 || pool.is_empty() {
        return out;
    }
    layouts::growing_window(pool, steps)
        .into_iter()
        .chain(layouts::random_window(pool, steps, budget_seed(budget)))
        .for_each(&mut push);
    if budget.huge_2m > 0 {
        let window_bytes = budget
            .huge_2m
            .saturating_mul(PageSize::Huge2M.bytes())
            .min(pool.len());
        let hot = Region::new(pool.start(), window_bytes);
        layouts::sliding_window(pool, hot, steps)
            .into_iter()
            .for_each(&mut push);
    }
    out
}

/// FNV-1a over the canonical budget string: a stable, dependency-free
/// seed, so Random Window is a pure function of the budget.
fn budget_seed(budget: &Budget) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in render_budget(budget).bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Scores every candidate and decides.
///
/// With `cv_err <= threshold` the answer is the candidate with the
/// strictly lowest finite predicted runtime ([`Recommendation::Layout`];
/// ties keep the first candidate in enumeration order, so the choice is
/// deterministic). Otherwise the models cannot be trusted to rank
/// layouts, and the answer is the candidate with the highest model
/// disagreement ([`Recommendation::Measure`]) — measuring it shrinks
/// the models' uncertainty fastest. A `NaN` `cv_err` (no CV report
/// available) counts as not confident.
///
/// # Errors
///
/// [`RecommendError::NoCandidates`] if no candidate yields a finite
/// score.
pub fn recommend(
    pool: Region,
    budget: &Budget,
    steps: usize,
    scorer: &dyn Scorer,
    cv_err: f64,
    threshold: f64,
) -> Result<Recommendation, RecommendError> {
    recommend_over(
        &enumerate_candidates(pool, budget, steps),
        scorer,
        cv_err,
        threshold,
    )
}

/// [`recommend`] over an already-enumerated candidate set, so callers
/// that time enumeration and scoring separately (mosaicd's trace spans)
/// run exactly the decision logic the one-shot entry point runs.
///
/// # Errors
///
/// [`RecommendError::NoCandidates`] if no candidate yields a finite
/// score.
pub fn recommend_over(
    candidates: &[MemoryLayout],
    scorer: &dyn Scorer,
    cv_err: f64,
    threshold: f64,
) -> Result<Recommendation, RecommendError> {
    let mut scored: Vec<(MemoryLayout, Score)> = Vec::new();
    for layout in candidates {
        if let Some(score) = scorer.score(layout) {
            if score.predicted.is_finite() && score.disagreement.is_finite() {
                scored.push((layout.clone(), score));
            }
        }
    }
    let confident = cv_err.is_finite() && cv_err <= threshold;
    let best = if confident {
        scored.into_iter().reduce(|best, next| {
            if next.1.predicted < best.1.predicted {
                next
            } else {
                best
            }
        })
    } else {
        scored.into_iter().reduce(|best, next| {
            if next.1.disagreement > best.1.disagreement {
                next
            } else {
                best
            }
        })
    };
    let Some((layout, score)) = best else {
        return Err(RecommendError::NoCandidates);
    };
    Ok(if confident {
        Recommendation::Layout {
            layout,
            predicted: score.predicted,
        }
    } else {
        Recommendation::Measure {
            layout,
            gain: score.disagreement,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::{VirtAddr, GIB};

    fn pool() -> Region {
        Region::new(VirtAddr::new(0x2000_0000_0000), 2 * GIB)
    }

    /// Scores a layout by its 2MB coverage: more coverage, lower
    /// predicted runtime; disagreement peaks at half coverage.
    struct CoverageScorer;

    impl Scorer for CoverageScorer {
        fn score(&self, layout: &MemoryLayout) -> Option<Score> {
            let covered = layout.bytes_backed_by(PageSize::Huge2M) as f64
                + layout.bytes_backed_by(PageSize::Huge1G) as f64;
            let frac = covered / layout.pool().len() as f64;
            Some(Score {
                predicted: 1e9 * (2.0 - frac),
                disagreement: frac * (1.0 - frac),
            })
        }
    }

    #[test]
    fn candidates_are_admissible_and_unique() {
        let budget = Budget {
            huge_2m: 64,
            huge_1g: 1,
        };
        let candidates = enumerate_candidates(pool(), &budget, 4);
        assert!(
            candidates.len() >= 4,
            "only {} candidates",
            candidates.len()
        );
        let mut seen = BTreeSet::new();
        for c in &candidates {
            assert!(budget.admits(c), "{} exceeds the budget", c.describe());
            assert!(seen.insert(c.describe()), "duplicate {}", c.describe());
        }
        // The all-4KB baseline is always first.
        assert_eq!(candidates[0].describe(), "all-4KB");
    }

    #[test]
    fn empty_budget_still_offers_all_4k() {
        let candidates = enumerate_candidates(pool(), &Budget::default(), 4);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].describe(), "all-4KB");
    }

    #[test]
    fn enumeration_is_deterministic() {
        let budget = Budget {
            huge_2m: 512,
            huge_1g: 2,
        };
        assert_eq!(
            enumerate_candidates(pool(), &budget, 4),
            enumerate_candidates(pool(), &budget, 4),
        );
    }

    #[test]
    fn every_heuristic_contributes_deterministic_candidates() {
        let budget = Budget {
            huge_2m: 512,
            huge_1g: 0,
        };
        let candidates = enumerate_candidates(pool(), &budget, 4);
        assert_eq!(candidates, enumerate_candidates(pool(), &budget, 4));
        // Layouts a heuristic drew that made the list, baseline excluded.
        let from = |layouts: Vec<MemoryLayout>| {
            layouts
                .iter()
                .filter(|l| l.bytes_backed_by(PageSize::Base4K) < pool().len())
                .filter(|l| candidates.contains(l))
                .count()
        };
        assert!(from(layouts::growing_window(pool(), 4)) > 0, "growing");
        assert!(
            from(layouts::random_window(pool(), 4, budget_seed(&budget))) > 0,
            "random"
        );
        let hot = Region::new(pool().start(), GIB);
        assert!(from(layouts::sliding_window(pool(), hot, 4)) > 0, "sliding");
    }

    #[test]
    fn random_candidates_follow_the_budget() {
        // The budgets differ only in 1GB pages, which no 2MB heuristic
        // places and neither budget can spend on this 2GB pool; only the
        // random windows' seed tells the two enumerations apart.
        let a = Budget {
            huge_2m: 1024,
            huge_1g: 0,
        };
        let b = Budget {
            huge_2m: 1024,
            huge_1g: 1,
        };
        let (ca, cb) = (
            enumerate_candidates(pool(), &a, 8),
            enumerate_candidates(pool(), &b, 8),
        );
        for c in ca.iter().chain(&cb) {
            assert_eq!(c.bytes_backed_by(PageSize::Huge1G), 0, "{}", c.describe());
        }
        assert_ne!(ca, cb, "different budgets should draw different windows");
    }

    #[test]
    fn degenerate_inputs_add_no_heuristic_candidates() {
        let budget = Budget {
            huge_2m: 64,
            huge_1g: 0,
        };
        let empty = Region::new(VirtAddr::new(0x2000_0000_0000), 0);
        let baseline =
            |c: &[MemoryLayout]| c.iter().map(MemoryLayout::describe).collect::<Vec<_>>();
        assert_eq!(
            baseline(&enumerate_candidates(empty, &budget, 4)),
            ["all-4KB"]
        );
        assert_eq!(
            baseline(&enumerate_candidates(pool(), &budget, 0)),
            ["all-4KB"]
        );
        // A 2MB-free budget gives Sliding Window nothing to slide, and
        // admits no 2MB window of the other heuristics.
        let no_2m = Budget {
            huge_2m: 0,
            huge_1g: 1,
        };
        assert_eq!(
            baseline(&enumerate_candidates(pool(), &no_2m, 4)),
            ["all-4KB"]
        );
    }

    #[test]
    fn sliding_window_is_budget_sized() {
        let budget = Budget {
            huge_2m: 64,
            huge_1g: 0,
        };
        // 64 pages x 2MB = 128MB window at the pool base.
        let first = enumerate_candidates(pool(), &budget, 4)
            .into_iter()
            .find(|c| c.bytes_backed_by(PageSize::Huge2M) == 128 << 20)
            .expect("a budget-sized window");
        assert_eq!(first.page_size_at(pool().start()), PageSize::Huge2M);
    }

    #[test]
    fn confident_branch_picks_lowest_prediction() {
        let budget = Budget {
            huge_2m: 1024,
            huge_1g: 2,
        };
        let rec = recommend(pool(), &budget, 4, &CoverageScorer, 0.05, 0.10).unwrap();
        let Recommendation::Layout { layout, predicted } = rec else {
            panic!("expected the confident branch, got {rec:?}");
        };
        // Full coverage scores best under CoverageScorer.
        assert_eq!(layout.bytes_backed_by(PageSize::Base4K), 0);
        for candidate in enumerate_candidates(pool(), &budget, 4) {
            let score = CoverageScorer.score(&candidate).unwrap();
            assert!(predicted <= score.predicted, "{}", candidate.describe());
        }
    }

    #[test]
    fn unconfident_branch_returns_a_measurement_suggestion() {
        let budget = Budget {
            huge_2m: 1024,
            huge_1g: 2,
        };
        let rec = recommend(pool(), &budget, 4, &CoverageScorer, 0.5, 0.10).unwrap();
        let Recommendation::Measure { layout, gain } = rec else {
            panic!("expected the active-learning branch, got {rec:?}");
        };
        assert!(gain > 0.0);
        for candidate in enumerate_candidates(pool(), &budget, 4) {
            let score = CoverageScorer.score(&candidate).unwrap();
            assert!(gain >= score.disagreement, "{}", candidate.describe());
        }
        // The suggestion is a real admissible candidate.
        assert!(budget.admits(&layout));
    }

    #[test]
    fn nan_cv_error_is_not_confident() {
        let budget = Budget {
            huge_2m: 8,
            huge_1g: 0,
        };
        let rec = recommend(pool(), &budget, 4, &CoverageScorer, f64::NAN, 0.10).unwrap();
        assert!(matches!(rec, Recommendation::Measure { .. }));
    }

    struct NoScorer;

    impl Scorer for NoScorer {
        fn score(&self, _layout: &MemoryLayout) -> Option<Score> {
            None
        }
    }

    #[test]
    fn unscorable_candidates_yield_a_typed_error() {
        let budget = Budget {
            huge_2m: 8,
            huge_1g: 0,
        };
        assert_eq!(
            recommend(pool(), &budget, 4, &NoScorer, 0.0, 0.10),
            Err(RecommendError::NoCandidates)
        );
    }

    #[test]
    fn ties_keep_enumeration_order() {
        struct Flat;
        impl Scorer for Flat {
            fn score(&self, _layout: &MemoryLayout) -> Option<Score> {
                Some(Score {
                    predicted: 1.0,
                    disagreement: 0.0,
                })
            }
        }
        let budget = Budget {
            huge_2m: 1024,
            huge_1g: 0,
        };
        let rec = recommend(pool(), &budget, 4, &Flat, 0.0, 0.10).unwrap();
        let Recommendation::Layout { layout, .. } = rec else {
            panic!("expected a layout");
        };
        // First candidate in enumeration order wins the tie.
        assert_eq!(layout.describe(), "all-4KB");
    }
}
