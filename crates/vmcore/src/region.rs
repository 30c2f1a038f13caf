//! Half-open virtual address ranges.

use std::fmt;

use crate::{PageSize, VirtAddr};

/// A half-open virtual address range `[start, start + len)`.
///
/// Regions are the unit in which Mosalloc pools, layout windows, and
/// workload footprints are described.
///
/// # Example
///
/// ```
/// use vmcore::{Region, VirtAddr};
///
/// let a = Region::new(VirtAddr::new(0x1000), 0x2000);
/// let b = Region::new(VirtAddr::new(0x2000), 0x2000);
/// assert_eq!(a.intersection(&b).unwrap().len(), 0x1000);
/// assert!(a.contains(VirtAddr::new(0x1fff)));
/// assert!(!a.contains(VirtAddr::new(0x3000)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Region {
    start: VirtAddr,
    len: u64,
}

impl Region {
    /// Creates a region from its start address and byte length.
    pub const fn new(start: VirtAddr, len: u64) -> Self {
        Region { start, len }
    }

    /// Creates a region spanning `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn from_bounds(start: VirtAddr, end: VirtAddr) -> Self {
        assert!(end >= start, "region end {end} precedes start {start}");
        Region::new(start, end - start)
    }

    /// The inclusive start address.
    pub const fn start(&self) -> VirtAddr {
        self.start
    }

    /// The exclusive end address.
    pub const fn end(&self) -> VirtAddr {
        VirtAddr::new(self.start.raw() + self.len)
    }

    /// The length in bytes.
    pub const fn len(&self) -> u64 {
        self.len
    }

    /// Whether the region is empty.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `addr` lies inside the region.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Whether `other` is entirely inside this region.
    pub fn contains_region(&self, other: &Region) -> bool {
        other.is_empty() || (other.start >= self.start && other.end() <= self.end())
    }

    /// Whether the two regions share at least one byte.
    pub fn overlaps(&self, other: &Region) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start < other.end()
            && other.start < self.end()
    }

    /// Returns the overlapping sub-range, if any.
    pub fn intersection(&self, other: &Region) -> Option<Region> {
        let start = self.start.max(other.start);
        let end = self.end().min(other.end());
        if start < end {
            Some(Region::from_bounds(start, end))
        } else {
            None
        }
    }

    /// Expands the region outward so that both bounds are aligned to `size`.
    pub fn align_outward(&self, size: PageSize) -> Region {
        let start = self.start.align_down(size);
        let end = self.end().align_up(size);
        Region::from_bounds(start, end)
    }

    /// Shrinks the region inward so that both bounds are aligned to `size`.
    /// May produce an empty region.
    pub fn align_inward(&self, size: PageSize) -> Region {
        let start = self.start.align_up(size);
        let end = self.end().align_down(size);
        if end > start {
            Region::from_bounds(start, end)
        } else {
            Region::new(start, 0)
        }
    }

    /// Whether both bounds are aligned to `size`.
    pub fn is_aligned(&self, size: PageSize) -> bool {
        self.start.is_aligned(size) && self.end().is_aligned(size)
    }

    /// Iterates over the page-aligned base addresses of all `size` pages
    /// that intersect this region.
    pub fn pages(&self, size: PageSize) -> impl Iterator<Item = VirtAddr> {
        let outward = if self.is_empty() {
            Region::new(self.start, 0)
        } else {
            self.align_outward(size)
        };
        let step = size.bytes();
        let n = outward.len() / step;
        let start = outward.start;
        (0..n).map(move |i| start + i * step)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start.raw(), self.end().raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: u64, len: u64) -> Region {
        Region::new(VirtAddr::new(start), len)
    }

    #[test]
    fn bounds_and_len() {
        let reg = r(0x1000, 0x3000);
        assert_eq!(reg.start().raw(), 0x1000);
        assert_eq!(reg.end().raw(), 0x4000);
        assert_eq!(reg.len(), 0x3000);
        assert!(!reg.is_empty());
        assert!(r(0x1000, 0).is_empty());
    }

    #[test]
    fn overlap_cases() {
        assert!(r(0, 0x2000).overlaps(&r(0x1000, 0x2000)));
        assert!(
            !r(0, 0x1000).overlaps(&r(0x1000, 0x1000)),
            "touching is not overlap"
        );
        assert!(!r(0, 0).overlaps(&r(0, 0x1000)), "empty never overlaps");
        assert!(r(0x1000, 0x100).overlaps(&r(0, 0x10000)), "nested overlaps");
    }

    #[test]
    fn intersection_cases() {
        assert_eq!(
            r(0, 0x2000).intersection(&r(0x1000, 0x2000)),
            Some(r(0x1000, 0x1000))
        );
        assert_eq!(r(0, 0x1000).intersection(&r(0x1000, 0x1000)), None);
        assert_eq!(
            r(0, 0x4000).intersection(&r(0x1000, 0x1000)),
            Some(r(0x1000, 0x1000))
        );
    }

    #[test]
    fn containment() {
        let outer = r(0x1000, 0x4000);
        assert!(outer.contains_region(&r(0x2000, 0x1000)));
        assert!(outer.contains_region(&outer));
        assert!(!outer.contains_region(&r(0x4000, 0x2000)));
        assert!(
            outer.contains_region(&r(0xdead_0000, 0)),
            "empty region always contained"
        );
    }

    #[test]
    fn alignment_outward_inward() {
        let reg = r(0x1800, 0x800); // [0x1800, 0x2000)
        let out = reg.align_outward(PageSize::Base4K);
        assert_eq!(out, r(0x1000, 0x1000));
        let inward = reg.align_inward(PageSize::Base4K);
        assert!(inward.is_empty());

        let big = r(0x1800, 0x4000);
        assert_eq!(big.align_inward(PageSize::Base4K), r(0x2000, 0x3000));
        assert!(out.is_aligned(PageSize::Base4K));
        assert!(!reg.is_aligned(PageSize::Base4K));
    }

    #[test]
    fn pages_iteration() {
        let reg = r(0x1800, 0x2000); // touches pages 1,2,3
        let pages: Vec<_> = reg.pages(PageSize::Base4K).map(VirtAddr::raw).collect();
        assert_eq!(pages, vec![0x1000, 0x2000, 0x3000]);
        assert_eq!(r(0, 0).pages(PageSize::Base4K).count(), 0);
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn from_bounds_rejects_inverted() {
        Region::from_bounds(VirtAddr::new(0x2000), VirtAddr::new(0x1000));
    }
}
