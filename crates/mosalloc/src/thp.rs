//! A Transparent Huge Pages (THP) baseline.
//!
//! The paper positions Mosalloc against Linux THP (§V-A): THP promotes
//! 2MB regions *dynamically* once they look worthwhile, which means
//! (1) the user cannot control hugepage placement, (2) only 2MB pages are
//! used (never 1GB), and (3) promotion itself costs work (khugepaged
//! copies the region). [`Thp`] models exactly that policy so experiments
//! can compare explicit Mosalloc mosaics against transparent promotion —
//! see `examples/thp_comparison.rs`.

use std::collections::{BTreeMap, BTreeSet};

use vmcore::{PageSize, Region, VirtAddr};

/// Cycles charged per 2MB promotion: copying 2MB at a cache line (64B)
/// per ~4 cycles, plus TLB shootdown overhead.
pub const PROMOTION_CYCLES: u64 = (2 << 20) / 64 * 4 + 20_000;

/// A khugepaged-style promotion policy over one eligible region.
///
/// Call [`observe`](Self::observe) for every memory access (it doubles
/// as the page-size resolver for the execution engine); once a 2MB
/// region has been touched `threshold` times it is promoted and all
/// subsequent accesses to it resolve as 2MB-backed.
///
/// # Example
///
/// ```
/// use mosalloc::thp::Thp;
/// use vmcore::{PageSize, Region, VirtAddr};
///
/// let heap = Region::new(VirtAddr::new(0), 64 << 20);
/// let mut thp = Thp::new(heap, 3);
/// let va = VirtAddr::new(0x1234);
/// assert_eq!(thp.observe(va), PageSize::Base4K);
/// assert_eq!(thp.observe(va), PageSize::Base4K);
/// assert_eq!(thp.observe(va), PageSize::Huge2M); // third touch promotes
/// assert_eq!(thp.promotions(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Thp {
    region: Region,
    threshold: u32,
    touches: BTreeMap<u64, u32>,
    promoted: BTreeSet<u64>,
}

impl Thp {
    /// Creates the policy for `region` with a promotion `threshold`
    /// (touches of a 2MB chunk before it is promoted).
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0` (promotion-on-first-touch is spelled
    /// `threshold = 1`).
    pub fn new(region: Region, threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Thp {
            region,
            threshold,
            touches: BTreeMap::new(),
            promoted: BTreeSet::new(),
        }
    }

    /// The eligible region.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Records an access and returns the page size currently backing it.
    /// Addresses outside the eligible region are always 4KB.
    pub fn observe(&mut self, va: VirtAddr) -> PageSize {
        if !self.region.contains(va) {
            return PageSize::Base4K;
        }
        let chunk = va.page_number(PageSize::Huge2M);
        if self.promoted.contains(&chunk) {
            return PageSize::Huge2M;
        }
        let count = self.touches.entry(chunk).or_insert(0);
        *count += 1;
        if *count >= self.threshold {
            self.promoted.insert(chunk);
            self.touches.remove(&chunk);
            PageSize::Huge2M
        } else {
            PageSize::Base4K
        }
    }

    /// Number of regions promoted so far.
    pub fn promotions(&self) -> u64 {
        self.promoted.len() as u64
    }

    /// Total cycles spent promoting (to be added to a measured runtime —
    /// the engine does not know about khugepaged).
    pub fn promotion_cost_cycles(&self) -> u64 {
        self.promotions() * PROMOTION_CYCLES
    }

    /// Fraction of the eligible region currently 2MB-backed.
    pub fn promoted_fraction(&self) -> f64 {
        let chunks = self.region.len().div_ceil(PageSize::Huge2M.bytes());
        if chunks == 0 {
            0.0
        } else {
            self.promotions() as f64 / chunks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Region {
        Region::new(VirtAddr::new(0x4000_0000), 16 << 20)
    }

    #[test]
    fn promotion_after_threshold_touches() {
        let mut thp = Thp::new(heap(), 5);
        let va = VirtAddr::new(0x4000_1000);
        for _ in 0..4 {
            assert_eq!(thp.observe(va), PageSize::Base4K);
        }
        assert_eq!(thp.observe(va), PageSize::Huge2M, "fifth touch promotes");
        assert_eq!(thp.promotions(), 1);
    }

    #[test]
    fn touches_accumulate_across_the_whole_chunk() {
        let mut thp = Thp::new(heap(), 3);
        let base = VirtAddr::new(0x4000_0000);
        thp.observe(base);
        thp.observe(base + 4096);
        assert_eq!(
            thp.observe(base + 8192),
            PageSize::Huge2M,
            "chunk-level counting"
        );
    }

    #[test]
    fn distinct_chunks_promote_independently() {
        let mut thp = Thp::new(heap(), 2);
        let a = VirtAddr::new(0x4000_0000);
        let b = VirtAddr::new(0x4020_0000);
        thp.observe(a);
        thp.observe(b);
        assert_eq!(thp.observe(a), PageSize::Huge2M);
        assert_eq!(thp.promotions(), 1, "b not yet promoted");
        assert_eq!(thp.observe(b), PageSize::Huge2M);
        assert_eq!(thp.promotions(), 2);
    }

    #[test]
    fn outside_region_is_never_promoted() {
        let mut thp = Thp::new(heap(), 1);
        let foreign = VirtAddr::new(0x9000_0000);
        assert_eq!(thp.observe(foreign), PageSize::Base4K);
        assert_eq!(thp.observe(foreign), PageSize::Base4K);
        assert_eq!(thp.promotions(), 0);
    }

    #[test]
    fn promotion_cost_scales_with_promotions() {
        let mut thp = Thp::new(heap(), 1);
        for i in 0..4u64 {
            thp.observe(VirtAddr::new(0x4000_0000 + i * (2 << 20)));
        }
        assert_eq!(thp.promotions(), 4);
        assert_eq!(thp.promotion_cost_cycles(), 4 * PROMOTION_CYCLES);
        assert!(
            (thp.promoted_fraction() - 0.5).abs() < 1e-12,
            "4 of 8 chunks"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        Thp::new(heap(), 0);
    }
}
