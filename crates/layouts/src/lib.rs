//! Layout-exploration heuristics (paper §VI-B).
//!
//! Mosalloc can back an address space with any page mosaic, but it does
//! not decide *which* mosaics produce useful validation data. The paper
//! introduces three heuristics that generate layouts whose `(H, M, C)`
//! samples spread across the input space:
//!
//! * [`growing_window`] — back a growing prefix of the pool with 2MB
//!   pages: from all-4KB to all-2MB in `N` steps;
//! * [`random_window`] — back a window of random position and length;
//! * [`sliding_window`] — find the **hot region** (the smallest region
//!   producing a target fraction of TLB misses), back it, then slide the
//!   window off it step by step.
//!
//! [`standard_battery`] combines them into the paper's 54-layout set:
//! 9 growing + 9 random + 9×4 sliding (hot fractions 20/40/60/80%).
//!
//! # Example
//!
//! ```
//! use layouts::growing_window;
//! use vmcore::{PageSize, Region, VirtAddr, GIB};
//!
//! let pool = Region::new(VirtAddr::new(0), GIB);
//! let battery = growing_window(pool, 8);
//! assert_eq!(battery.len(), 9);
//! assert_eq!(battery[0].bytes_backed_by(PageSize::Huge2M), 0);
//! assert_eq!(battery[8].bytes_backed_by(PageSize::Huge2M), GIB);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod spec;

pub use spec::{parse_spec, SpecError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmcore::{MemoryLayout, PageSize, Region, VirtAddr};

/// The hot-region fractions `X` used by the paper's Sliding Window runs.
pub const SLIDING_FRACTIONS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

/// Steps per heuristic (`N = 8` gives the paper's 9 layouts each).
pub const DEFAULT_STEPS: usize = 8;

/// Builds a layout whose single 2MB window is `window ∩ pool`, aligned
/// outward to 2MB. An empty intersection yields the all-4KB layout.
fn layout_with_window(pool: Region, window: Region) -> MemoryLayout {
    let clipped = match window.intersection(&pool.align_outward(PageSize::Huge2M)) {
        Some(w) => w.align_outward(PageSize::Huge2M),
        None => return MemoryLayout::all_4k(pool),
    };
    MemoryLayout::builder(pool)
        .window(clipped, PageSize::Huge2M)
        .and_then(|b| b.build())
        .expect("outward-aligned clipped window is always valid")
}

/// **Growing Window** (paper §VI-B): `n + 1` layouts; layout `i` backs the
/// first `i/n` of the pool with 2MB pages. Layout 0 is all-4KB, layout
/// `n` is all-2MB.
///
/// # Panics
///
/// Panics if `n == 0` or the pool is empty.
pub fn growing_window(pool: Region, n: usize) -> Vec<MemoryLayout> {
    assert!(n > 0, "need at least one step");
    assert!(!pool.is_empty(), "empty pool");
    (0..=n)
        .map(|i| {
            if i == 0 {
                return MemoryLayout::all_4k(pool);
            }
            if i == n {
                return MemoryLayout::uniform(pool, PageSize::Huge2M);
            }
            let len = pool.len() * i as u64 / n as u64;
            layout_with_window(pool, Region::new(pool.start(), len))
        })
        .collect()
}

/// **Random Window** (paper §VI-B): `n + 1` layouts, each backing a
/// window of random start and length with 2MB pages. Deterministic in
/// `seed`.
///
/// # Panics
///
/// Panics if `n == 0` or the pool is empty.
pub fn random_window(pool: Region, n: usize, seed: u64) -> Vec<MemoryLayout> {
    assert!(n > 0, "need at least one step");
    assert!(!pool.is_empty(), "empty pool");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7261_6e64);
    (0..=n)
        .map(|_| {
            let len = rng.gen_range(1..=pool.len());
            let max_start = pool.len() - len;
            let start = if max_start == 0 {
                0
            } else {
                rng.gen_range(0..=max_start)
            };
            layout_with_window(pool, Region::new(pool.start() + start, len))
        })
        .collect()
}

/// **Sliding Window** (paper §VI-B): the first layout backs exactly the
/// hot region (as found by a PEBS-like miss profile); each subsequent
/// layout slides the window by `1/n` of the hot region's size, gradually
/// uncovering it. The slide direction is away from the nearer pool edge:
/// a hot region at the top of the pool slides toward low addresses and
/// vice versa, so later layouts back less and less of the hot region.
///
/// # Panics
///
/// Panics if `n == 0`, the pool is empty, or `hot` does not intersect the
/// pool.
pub fn sliding_window(pool: Region, hot: Region, n: usize) -> Vec<MemoryLayout> {
    assert!(n > 0, "need at least one step");
    assert!(!pool.is_empty(), "empty pool");
    let hot = hot
        .intersection(&pool)
        .expect("hot region must intersect the pool")
        .align_outward(PageSize::Huge2M);
    let step = (hot.len() / n as u64).max(PageSize::Huge2M.bytes());
    // Is the hot region closer to the pool's top or bottom?
    let dist_low = hot.start() - pool.start();
    let dist_high = pool.end() - hot.end();
    let slide_down = dist_low >= dist_high; // hot at top → slide low
    (0..=n)
        .map(|i| {
            let offset = step * i as u64;
            let window = if slide_down {
                let start = hot.start().raw().saturating_sub(offset);
                Region::new(VirtAddr::new(start), hot.len())
            } else {
                Region::new(hot.start() + offset, hot.len())
            };
            layout_with_window(pool, window)
        })
        .collect()
}

/// A tagged layout of the standard battery.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedLayout {
    /// The layout itself.
    pub layout: MemoryLayout,
    /// The heuristic that generated it.
    pub origin: Heuristic,
}

/// Which heuristic generated a layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Growing Window step.
    Growing,
    /// Random Window draw.
    Random,
    /// Sliding Window step with the given hot-miss fraction.
    Sliding(u8),
}

/// The paper's standard 54-layout battery: 9 growing + 9 random + 9×4
/// sliding windows using the four [`SLIDING_FRACTIONS`].
///
/// `hot_region_for` maps a miss fraction `X` to the workload's hot region
/// (obtained from a PEBS-like profile; see `machine::profile_tlb_misses`).
///
/// The first returned layout is all-4KB and the growing battery's last is
/// all-2MB, so anchor measurements are always present.
pub fn standard_battery<F>(pool: Region, hot_region_for: F) -> Vec<PlannedLayout>
where
    F: Fn(f64) -> Region,
{
    battery_with_steps(pool, hot_region_for, DEFAULT_STEPS)
}

/// A battery with `steps + 1` layouts per heuristic run — `6 (steps+1)`
/// layouts in total (`steps = 8` gives the paper's 54).
///
/// The paper notes that cross-validating Mosmodel sometimes required up
/// to ~100 samples (§VI-C); this constructor generates those larger (or
/// smaller) batteries for sample-size studies — see
/// `mosaic figure ablation-battery-size`.
///
/// # Panics
///
/// Panics if `steps == 0` or the pool is empty.
pub fn battery_with_steps<F>(pool: Region, hot_region_for: F, steps: usize) -> Vec<PlannedLayout>
where
    F: Fn(f64) -> Region,
{
    let mut plans = Vec::with_capacity(6 * (steps + 1));
    for layout in growing_window(pool, steps) {
        plans.push(PlannedLayout {
            layout,
            origin: Heuristic::Growing,
        });
    }
    for layout in random_window(pool, steps, 0x6261_7474) {
        plans.push(PlannedLayout {
            layout,
            origin: Heuristic::Random,
        });
    }
    for fraction in SLIDING_FRACTIONS {
        let hot = hot_region_for(fraction);
        for layout in sliding_window(pool, hot, steps) {
            plans.push(PlannedLayout {
                layout,
                origin: Heuristic::Sliding((fraction * 100.0) as u8),
            });
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmcore::{GIB, MIB};

    fn pool() -> Region {
        Region::new(VirtAddr::new(0x1000_0000_0000), GIB)
    }

    #[test]
    fn growing_monotone_coverage() {
        let battery = growing_window(pool(), 8);
        assert_eq!(battery.len(), 9);
        let mut last = 0;
        for l in &battery {
            let covered = l.bytes_backed_by(PageSize::Huge2M);
            assert!(covered >= last, "coverage must grow");
            last = covered;
        }
        assert_eq!(battery[0].bytes_backed_by(PageSize::Huge2M), 0);
        assert_eq!(battery[8].bytes_backed_by(PageSize::Base4K), 0);
    }

    #[test]
    fn random_windows_are_valid_and_diverse() {
        let battery = random_window(pool(), 8, 42);
        assert_eq!(battery.len(), 9);
        let coverages: std::collections::BTreeSet<u64> = battery
            .iter()
            .map(|l| l.bytes_backed_by(PageSize::Huge2M))
            .collect();
        assert!(coverages.len() >= 5, "windows should differ: {coverages:?}");
        // Deterministic per seed.
        assert_eq!(battery, random_window(pool(), 8, 42));
        assert_ne!(battery, random_window(pool(), 8, 43));
    }

    #[test]
    fn sliding_from_top_hot_region_moves_down() {
        // Hot region at the very top of the pool.
        let hot = Region::new(VirtAddr::new(pool().end().raw() - 64 * MIB), 64 * MIB);
        let battery = sliding_window(pool(), hot, 8);
        assert_eq!(battery.len(), 9);
        // First layout covers the hot region fully.
        assert!(battery[0].page_size_at(hot.start()) == PageSize::Huge2M);
        // Later layouts cover less and less of the hot region.
        let coverage_of_hot = |l: &MemoryLayout| {
            hot.pages(PageSize::Huge2M)
                .filter(|&p| l.page_size_at(p) == PageSize::Huge2M)
                .count()
        };
        let first = coverage_of_hot(&battery[0]);
        let mid = coverage_of_hot(&battery[4]);
        let last = coverage_of_hot(&battery[8]);
        assert!(
            first > mid && mid > last,
            "{first} > {mid} > {last} expected"
        );
        assert_eq!(last, 0, "window slid fully off the hot region");
    }

    #[test]
    fn sliding_from_bottom_hot_region_moves_up() {
        let hot = Region::new(pool().start(), 64 * MIB);
        let battery = sliding_window(pool(), hot, 8);
        // Final window has slid up & away from the pool start.
        assert_eq!(battery[8].page_size_at(pool().start()), PageSize::Base4K);
        assert_eq!(battery[0].page_size_at(pool().start()), PageSize::Huge2M);
    }

    #[test]
    fn battery_is_54_layouts_with_anchors() {
        let hot = Region::new(pool().start() + 900 * MIB, 100 * MIB);
        let battery = standard_battery(pool(), |_| hot);
        assert_eq!(battery.len(), 54);
        let all_4k = battery
            .iter()
            .filter(|p| p.layout.bytes_backed_by(PageSize::Huge2M) == 0)
            .count();
        assert!(all_4k >= 1, "must include the all-4KB anchor");
        let all_2m = battery
            .iter()
            .filter(|p| p.layout.bytes_backed_by(PageSize::Base4K) == 0)
            .count();
        assert!(all_2m >= 1, "must include the all-2MB anchor");
        // Heuristic mix: 9 + 9 + 36.
        let growing = battery
            .iter()
            .filter(|p| p.origin == Heuristic::Growing)
            .count();
        let random = battery
            .iter()
            .filter(|p| p.origin == Heuristic::Random)
            .count();
        let sliding = battery
            .iter()
            .filter(|p| matches!(p.origin, Heuristic::Sliding(_)))
            .count();
        assert_eq!((growing, random, sliding), (9, 9, 36));
    }

    #[test]
    fn battery_produces_distinct_coverages() {
        // The whole point: many distinct (H,M,C) operating points. Proxy:
        // many distinct 2MB coverage values.
        let hot = Region::new(pool().start() + 800 * MIB, 128 * MIB);
        let battery = standard_battery(pool(), |_| hot);
        let coverages: std::collections::BTreeSet<u64> = battery
            .iter()
            .map(|p| p.layout.bytes_backed_by(PageSize::Huge2M))
            .collect();
        assert!(
            coverages.len() >= 15,
            "only {} distinct coverages",
            coverages.len()
        );
    }

    #[test]
    fn hot_region_fraction_affects_first_window() {
        // Different fractions produce different initial sliding windows.
        let battery = standard_battery(pool(), |x| {
            let len = (x * GIB as f64) as u64;
            Region::new(VirtAddr::new(pool().end().raw() - len), len)
        });
        let s20: Vec<_> = battery
            .iter()
            .filter(|p| p.origin == Heuristic::Sliding(20))
            .collect();
        let s80: Vec<_> = battery
            .iter()
            .filter(|p| p.origin == Heuristic::Sliding(80))
            .collect();
        assert!(
            s20[0].layout.bytes_backed_by(PageSize::Huge2M)
                < s80[0].layout.bytes_backed_by(PageSize::Huge2M)
        );
    }

    #[test]
    fn battery_scales_with_steps() {
        let hot = Region::new(pool().start() + 900 * MIB, 100 * MIB);
        assert_eq!(battery_with_steps(pool(), |_| hot, 2).len(), 18);
        assert_eq!(battery_with_steps(pool(), |_| hot, 8).len(), 54);
        assert_eq!(battery_with_steps(pool(), |_| hot, 16).len(), 102);
    }

    #[test]
    #[should_panic(expected = "intersect")]
    fn sliding_rejects_disjoint_hot_region() {
        let far = Region::new(VirtAddr::new(1), 4096);
        sliding_window(pool(), far, 8);
    }
}
