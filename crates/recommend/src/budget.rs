//! The hugepage-budget grammar.
//!
//! A budget names the hugepage inventory an operator is willing to
//! reserve, as one whitespace-free token: `<count>x<size>` terms joined
//! with `+`, where `<size>` is `2m` or `1g` (case-insensitive, `2mb`/
//! `1gb` accepted). Repeated sizes sum. Examples: `64x2m`, `1x1g`,
//! `64x2m+1x1g`, `0x2m` (the empty budget — only the all-4KB layout is
//! admissible).
//!
//! Like [`layouts::spec`], parsing validates against the concrete
//! mosalloc pool: a budget requesting more pages of a size than the
//! (outward-aligned) pool can hold is rejected with a typed error
//! rather than silently capped — a capped budget would answer a
//! different question than the one asked.

use std::fmt;

use vmcore::{PageSize, Region};

/// A validated hugepage inventory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// 2MB pages available.
    pub huge_2m: u64,
    /// 1GB pages available.
    pub huge_1g: u64,
}

impl Budget {
    /// Whether `layout` fits inside this budget: the hugepages its
    /// windows reserve (full window extents — a reservation rounds
    /// outward past an unaligned pool, and those pages are real) must
    /// not exceed the inventory.
    pub fn admits(&self, layout: &vmcore::MemoryLayout) -> bool {
        let (mut need_2m, mut need_1g) = (0u64, 0u64);
        for w in layout.windows() {
            // Page sizes are never zero, so the division never fails.
            let pages = w.region.len().checked_div(w.size.bytes()).unwrap_or(0);
            match w.size {
                PageSize::Huge2M => need_2m = need_2m.saturating_add(pages),
                PageSize::Huge1G => need_1g = need_1g.saturating_add(pages),
                PageSize::Base4K => {}
            }
        }
        need_2m <= self.huge_2m && need_1g <= self.huge_1g
    }
}

/// Why a budget failed to parse or validate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BudgetError {
    /// The budget (or a term inside it) is not valid grammar.
    Syntax(String),
    /// Summed counts overflowed `u64`.
    Overflow(String),
    /// The budget asks for more pages of a size than the pool can hold.
    ExceedsPool {
        /// The page size whose count is too large.
        size: PageSize,
        /// Pages requested by the budget.
        requested: u64,
        /// Pages the (outward-aligned) pool can hold.
        available: u64,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Syntax(s) => write!(f, "bad budget {s:?} (want <count>x<2m|1g>[+...])"),
            BudgetError::Overflow(s) => write!(f, "budget term {s:?} overflows"),
            BudgetError::ExceedsPool {
                size,
                requested,
                available,
            } => write!(
                f,
                "budget asks for {requested} {size} pages but the pool holds at most {available}"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

/// Pages of `size` the outward-aligned pool can hold — the admissible
/// ceiling a budget is validated against.
fn pool_capacity(pool: Region, size: PageSize) -> u64 {
    pool.align_outward(size)
        .len()
        .checked_div(size.bytes())
        .unwrap_or(0)
}

/// Parses a budget token against a concrete pool region.
///
/// # Errors
///
/// Returns a [`BudgetError`] describing the first problem found; the
/// parser never panics on malformed input.
///
/// # Example
///
/// ```
/// use recommend::parse_budget;
/// use vmcore::{Region, VirtAddr, GIB};
///
/// let pool = Region::new(VirtAddr::new(0x2000_0000_0000), 2 * GIB);
/// let b = parse_budget(pool, "64x2m+1x1g").unwrap();
/// assert_eq!((b.huge_2m, b.huge_1g), (64, 1));
/// assert!(parse_budget(pool, "3x1g").is_err()); // pool holds only 2
/// ```
pub fn parse_budget(pool: Region, text: &str) -> Result<Budget, BudgetError> {
    if text.is_empty() {
        return Err(BudgetError::Syntax(text.to_string()));
    }
    let mut budget = Budget::default();
    for term in text.split('+') {
        let (count_text, size_text) = term
            .split_once(['x', 'X'])
            .ok_or_else(|| BudgetError::Syntax(term.to_string()))?;
        // A leading '+' would make "+64x2m" parse as 64: digits only.
        if count_text.is_empty() || !count_text.bytes().all(|b| b.is_ascii_digit()) {
            return Err(BudgetError::Syntax(term.to_string()));
        }
        let count: u64 = count_text
            .parse()
            .map_err(|_| BudgetError::Overflow(term.to_string()))?;
        let slot = match size_text.to_ascii_lowercase().as_str() {
            "2m" | "2mb" => &mut budget.huge_2m,
            "1g" | "1gb" => &mut budget.huge_1g,
            _ => return Err(BudgetError::Syntax(term.to_string())),
        };
        *slot = slot
            .checked_add(count)
            .ok_or_else(|| BudgetError::Overflow(term.to_string()))?;
    }
    for (size, requested) in [
        (PageSize::Huge2M, budget.huge_2m),
        (PageSize::Huge1G, budget.huge_1g),
    ] {
        let available = pool_capacity(pool, size);
        if requested > available {
            return Err(BudgetError::ExceedsPool {
                size,
                requested,
                available,
            });
        }
    }
    Ok(budget)
}

/// Renders a budget in canonical form: the `2m` term first, then the
/// `1g` term, zero terms omitted; the all-zero budget renders as
/// `0x2m`. `parse_budget(pool, &render_budget(&b)) == Ok(b)` for any
/// budget admissible in `pool` — the canonical string doubles as a
/// deterministic cache key and RNG seed.
pub fn render_budget(budget: &Budget) -> String {
    let mut parts = Vec::new();
    if budget.huge_2m > 0 {
        parts.push(format!("{}x2m", budget.huge_2m));
    }
    if budget.huge_1g > 0 {
        parts.push(format!("{}x1g", budget.huge_1g));
    }
    if parts.is_empty() {
        return "0x2m".to_string();
    }
    parts.join("+")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::{MemoryLayout, VirtAddr, GIB, MIB};

    fn pool() -> Region {
        Region::new(VirtAddr::new(0x2000_0000_0000), 2 * GIB)
    }

    #[test]
    fn grammar_accepts_canonical_forms() {
        let b = parse_budget(pool(), "64x2m").unwrap();
        assert_eq!(
            b,
            Budget {
                huge_2m: 64,
                huge_1g: 0
            }
        );
        let b = parse_budget(pool(), "64x2M+1x1G").unwrap();
        assert_eq!(
            b,
            Budget {
                huge_2m: 64,
                huge_1g: 1
            }
        );
        let b = parse_budget(pool(), "0x2m").unwrap();
        assert_eq!(b, Budget::default());
    }

    #[test]
    fn repeated_sizes_sum() {
        let b = parse_budget(pool(), "8x2m+8x2m+1x1g").unwrap();
        assert_eq!(
            b,
            Budget {
                huge_2m: 16,
                huge_1g: 1
            }
        );
    }

    #[test]
    fn malformed_budgets_error_cleanly() {
        for bad in [
            "",
            "x2m",
            "64x",
            "64",
            "64x3m",
            "64x2m+",
            "+64x2m",
            "-1x2m",
            " 64x2m",
            "64 x2m",
            "6.4x2m",
            "64x2m+x1g",
        ] {
            assert!(
                matches!(
                    parse_budget(pool(), bad),
                    Err(BudgetError::Syntax(_) | BudgetError::Overflow(_))
                ),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn overflow_is_typed() {
        let huge = format!("{}x2m+{}x2m", u64::MAX, u64::MAX);
        assert!(matches!(
            parse_budget(pool(), &huge),
            Err(BudgetError::Overflow(_))
        ));
    }

    #[test]
    fn pool_exceeding_budgets_are_rejected_not_capped() {
        // The 2GiB pool holds 1024 2MB pages and 2 1GB pages.
        assert!(parse_budget(pool(), "1024x2m").is_ok());
        assert!(matches!(
            parse_budget(pool(), "1025x2m"),
            Err(BudgetError::ExceedsPool {
                size: PageSize::Huge2M,
                requested: 1025,
                available: 1024,
            })
        ));
        assert!(parse_budget(pool(), "2x1g").is_ok());
        assert!(matches!(
            parse_budget(pool(), "3x1g"),
            Err(BudgetError::ExceedsPool { .. })
        ));
    }

    #[test]
    fn unaligned_pool_rounds_capacity_outward() {
        // A 48MB pool still admits one 1GB page (the reservation rounds
        // out), exactly as MemoryLayout::uniform would reserve it.
        let small = Region::new(VirtAddr::new(0x2000_0000_0000), 48 * MIB);
        let b = parse_budget(small, "1x1g").unwrap();
        assert_eq!(b.huge_1g, 1);
        assert!(matches!(
            parse_budget(small, "2x1g"),
            Err(BudgetError::ExceedsPool { .. })
        ));
    }

    #[test]
    fn render_is_canonical() {
        assert_eq!(
            render_budget(&Budget {
                huge_2m: 64,
                huge_1g: 1
            }),
            "64x2m+1x1g"
        );
        assert_eq!(
            render_budget(&Budget {
                huge_2m: 0,
                huge_1g: 2
            }),
            "2x1g"
        );
        assert_eq!(render_budget(&Budget::default()), "0x2m");
    }

    #[test]
    fn admits_counts_full_window_extents() {
        let b = Budget {
            huge_2m: 4,
            huge_1g: 0,
        };
        let ok = MemoryLayout::builder(pool())
            .window(Region::new(pool().start(), 8 * MIB), PageSize::Huge2M)
            .unwrap()
            .build()
            .unwrap();
        assert!(b.admits(&ok));
        let too_big = MemoryLayout::builder(pool())
            .window(Region::new(pool().start(), 10 * MIB), PageSize::Huge2M)
            .unwrap()
            .build()
            .unwrap();
        assert!(!b.admits(&too_big));
        // The 1GB uniform layout over a 48MB pool needs one 1GB page.
        let small = Region::new(VirtAddr::new(0x2000_0000_0000), 48 * MIB);
        let one_gig = MemoryLayout::uniform(small, PageSize::Huge1G);
        assert!(Budget {
            huge_2m: 0,
            huge_1g: 1
        }
        .admits(&one_gig));
        assert!(!Budget::default().admits(&one_gig));
        // All-4KB needs nothing.
        assert!(Budget::default().admits(&MemoryLayout::all_4k(pool())));
    }
}
